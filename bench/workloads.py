"""Seeded inputs for the pipeline benchmark.

Each workload is described by a ``Workload``: where its tasks, scenes and
plans live, the CLI options its stages run with, and the counts the
generator expects. ``bundled`` points at the shipped package data; the
other two are written from a ``random.Random(seed)`` into a directory of
the caller's choosing. Every generated file is read back through the
program's own loaders before any timing starts.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from homebench.cli import _bundled
from homebench.core import load_tasks
from homebench.planners import load_scripted_plan
from homebench.sim import EntityKind, OpenState, load_scene

DIRECTIONS = ("front", "left", "back", "right")

# Plan/model pairs: the first model of each category, as the bundled plans use.
MODEL = {"Go to": "NoMaD", "Pick": "RT-1-X", "Place": "RT-1-X",
         "Open": "Octo", "Close": "Octo", "End": "M3"}


@dataclass
class Workload:
    """Everything the harness needs to drive one workload through the CLI."""

    name: str
    tasks_dir: Path
    scenes_dir: Path
    plans_dir: Path
    runs: int
    jobs: int
    budget: int = 20
    rewrites: int = 3
    # bookkeeping, recorded with each result
    n_tasks: int = 0  # set by validate()
    entities: dict = field(default_factory=dict)  # scene id -> entity count
    expected_steps: Optional[int] = None  # exact total when no draw can fail
    clean_path_steps: int = 0  # total steps if no E1/E2 draw ever fires

    @property
    def episodes(self) -> int:
        return self.n_tasks * self.runs

    def run_args(self) -> list:
        return ["run", "--tasks", str(self.tasks_dir), "--scenes", str(self.scenes_dir),
                "--planner", f"scripted:{self.plans_dir}", "--runs", str(self.runs),
                "--budget", str(self.budget)]

    def counts(self) -> dict:
        return {
            "tasks": self.n_tasks,
            "runs_per_task": self.runs,
            "episodes": self.episodes,
            "jobs": self.jobs,
            "budget": self.budget,
            "rewrites": self.rewrites,
            "scene_entities": dict(self.entities),
            "expected_steps": self.expected_steps,
            "clean_path_steps": self.clean_path_steps,
        }


# ---------------------------------------------------------------------------
# scene and plan building blocks


def _spots(rng: random.Random, n: int, prefix: str) -> list:
    """Spot documents whose direction tables each place every spot exactly
    once, in a seeded order."""
    names = [f"{prefix}_spot_{i:02d}" for i in range(n)]
    docs = []
    for name in names:
        order = names[:]
        rng.shuffle(order)
        cuts = sorted(rng.sample(range(1, n), 3)) if n >= 4 else [1, 2, 3][: n - 1]
        bounds = [0] + cuts + [n]
        table = {d: order[bounds[i]:bounds[i + 1]] for i, d in enumerate(DIRECTIONS)
                 if i + 1 < len(bounds)}
        docs.append({"name": name, "directions": table})
    return docs


def _scene(rng: random.Random, scene_id: str, n_spots: int, n_containers: int,
           n_nested: int, n_objects: int, rates: dict) -> dict:
    """A scene with spots, open and closed containers (``n_nested`` of them
    inside another container) and objects spread over spots and containers."""
    spots = _spots(rng, n_spots, scene_id)
    spot_names = [s["name"] for s in spots]
    # fixed shares (half the top-level and half the nested containers open,
    # objects spread evenly over spots and containers) keep a scene's cost
    # from drifting with the seed: observe scans every entity once per open
    # container it renders
    entities = []
    containers = []
    for nested, count in ((False, n_containers - n_nested), (True, n_nested)):
        states = ["open", "closed"] * (count // 2) + ["open"] * (count % 2)
        rng.shuffle(states)
        for state in states:
            name = f"{scene_id}_box_{len(containers):03d}"
            location = rng.choice(containers) if nested else rng.choice(spot_names)
            entities.append({"name": name, "kind": "container", "location": location,
                             "open_state": state})
            containers.append(name)
    places = spot_names + containers
    rng.shuffle(places)
    for i in range(n_objects):
        entities.append({"name": f"{scene_id}_item_{i:03d}", "kind": "object",
                         "location": places[i % len(places)]})
    return {
        "id": scene_id,
        "seed": rng.randrange(1 << 30),
        "agent_start": spot_names[0],
        "failure_rates": rates,
        "spots": spots,
        "entities": entities,
    }


def _step(analysis: str, action: str, target: str = "") -> dict:
    subtask = [action] if action == "End" else [action, target]
    return {"analysis": analysis, "subtask": subtask, "model": MODEL[action]}


def _task_doc(task_id: str, scene_id: str, keypath: list, expert_length: int,
              attributes: list, instruction: str) -> dict:
    return {
        "id": task_id,
        "instruction": instruction,
        "attributes": attributes,
        "expert_length": expert_length,
        "scene": scene_id,
        "keypaths": [[{"action": a, "target": t} for a, t in keypath]],
    }


class _SceneIndex:
    """Read-only view of a generated scene through the program's loader, so
    the generator plans against the same containment the simulator sees."""

    def __init__(self, doc: dict):
        self.scene = load_scene(doc)
        self.start = self.scene.agent.at

    def root(self, name: str) -> str:
        return self.scene.spot_of(name)

    def parent(self, name: str) -> str:
        return self.scene.entities[name].location

    def closed(self, name: str) -> bool:
        entity = self.scene.entities[name]
        return entity.kind is EntityKind.CONTAINER and entity.open_state is OpenState.CLOSED

    def ancestors_open(self, name: str) -> bool:
        """Every container above ``name``'s direct parent is open."""
        location = self.parent(self.parent(name))
        while location:
            entity = self.scene.entities[location]
            if entity.kind is EntityKind.SPOT:
                return True
            if entity.open_state is not OpenState.OPEN:
                return False
            location = entity.location
        return True

    def objects(self) -> list:
        return [e.name for e in self.scene.entities.values() if e.kind is EntityKind.OBJECT]

    def destinations(self) -> list:
        """Spots and open top-level containers: places a held object can go
        without another hand being free."""
        return [e.name for e in self.scene.entities.values()
                if e.kind is EntityKind.SPOT
                or (e.kind is EntityKind.CONTAINER and e.open_state is OpenState.OPEN
                    and self.scene.entities[e.location].kind is EntityKind.SPOT)]


def _write(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


def _dirs(root: Path):
    dirs = [root / "tasks", root / "scenes", root / "plans"]
    for d in dirs:
        d.mkdir(parents=True, exist_ok=True)
    return dirs


# ---------------------------------------------------------------------------
# workloads


def bundled(scale: float = 1.0) -> Workload:
    """The shipped 12 tasks over 10 scenes with their scripted plans."""
    workload = Workload("bundled", _bundled("tasks"), _bundled("scenes"), _bundled("plans"),
                        runs=max(1, round(25 * scale)), jobs=1)
    for path in sorted(workload.scenes_dir.glob("*.json")):
        workload.entities[path.stem] = len(load_scene(path.read_bytes()).entities)
    return workload


def large_scene(root: Path, seed: int, scale: float = 1.0) -> Workload:
    """One ~1,000-entity scene with zero failure rates and pick/place tasks
    whose scripted plans succeed on the first attempt of every step."""
    rng = random.Random(seed)
    tasks_dir, scenes_dir, plans_dir = _dirs(root)
    n_spots = max(4, round(25 * scale))
    n_containers = max(4, round(125 * scale))
    doc = _scene(rng, "large", n_spots, n_containers, n_containers // 5,
                 max(8, round(850 * scale)),
                 {"e1_manipulation": 0.0, "e1_navigation": 0.0, "e2_place": 0.0})
    _write(scenes_dir / "large.json", doc)
    index = _SceneIndex(doc)
    workload = Workload("large-scene", tasks_dir, scenes_dir, plans_dir,
                        runs=1, jobs=2)
    workload.entities["large"] = len(index.scene.entities)

    candidates = [o for o in index.objects()
                  if index.ancestors_open(o) and index.root(o) != index.start]
    destinations = index.destinations()
    # half the tasks must open the object's container first
    n_tasks = max(2, round(8 * scale))
    closed = [o for o in candidates if index.closed(index.parent(o))]
    reachable = [o for o in candidates if not index.closed(index.parent(o))]
    chosen = rng.sample(closed, n_tasks // 2) + rng.sample(reachable, n_tasks - n_tasks // 2)
    steps_total = 0
    for t, obj in enumerate(chosen):
        holder = index.parent(obj)
        dest = rng.choice([d for d in destinations if index.root(d) != index.root(obj)])
        outputs = [_step(f"The {obj} is at {holder}; heading there.", "Go to", holder)]
        keypath = []
        if index.closed(holder):
            outputs.append(_step(f"Opening {holder} to reach the {obj}.", "Open", holder))
            keypath.append(("Open", holder))
        outputs += [
            _step(f"Picking up the {obj}.", "Pick", obj),
            _step(f"Carrying the {obj} to {dest}.", "Go to", dest),
            _step(f"Putting the {obj} on {dest}.", "Place", dest),
            _step(f"The {obj} is on {dest}.", "End"),
        ]
        keypath += [("Pick", obj), ("Place", dest)]
        task_id = f"large_move_{t:02d}"
        _write(tasks_dir / f"{task_id}.json", _task_doc(
            task_id, "large", keypath, len(outputs) - 1, ["short_horizon"],
            f"Please move the {obj} to {dest}."))
        _write(plans_dir / f"{task_id}.json", {"outputs": outputs})
        steps_total += len(outputs)
    workload.expected_steps = steps_total * workload.runs
    workload.clean_path_steps = workload.expected_steps
    return workload


def failure_heavy(root: Path, seed: int, scale: float = 1.0) -> Workload:
    """~100-entity scenes with non-zero E1/E2 rates. Every plan first picks
    an object inside a closed container at another spot, so it meets L3 and
    then D1 and takes both branch replans; the two-object tasks run past
    the step budget."""
    rng = random.Random(seed)
    tasks_dir, scenes_dir, plans_dir = _dirs(root)
    n_scenes = max(1, round(4 * scale))
    workload = Workload("failure-heavy", tasks_dir, scenes_dir, plans_dir,
                        runs=max(1, round(3 * scale)), jobs=1, budget=10)
    rates = {"e1_manipulation": 0.2, "e1_navigation": 0.1, "e2_place": 0.15}
    clean_steps = 0
    for s in range(n_scenes):
        scene_id = f"fh{s}"
        doc = _scene(rng, scene_id, 8, 16, 3, 76, rates)
        _write(scenes_dir / f"{scene_id}.json", doc)
        index = _SceneIndex(doc)
        workload.entities[scene_id] = len(index.scene.entities)
        hidden = [o for o in index.objects()
                  if index.closed(index.parent(o)) and index.ancestors_open(o)
                  and index.root(o) != index.start]
        visible = [o for o in index.objects()
                   if not index.closed(index.parent(o)) and index.ancestors_open(o)]
        destinations = index.destinations()
        for t in range(5):
            obj = rng.choice(hidden)
            box = index.parent(obj)
            dest = rng.choice([d for d in destinations if index.root(d) != index.root(obj)])
            outputs = [
                _step(f"Grabbing the {obj} straight away.", "Pick", obj),
                _step(f"Opening {box} now that I am here.", "Open", box),
                _step(f"Picking up the {obj}.", "Pick", obj),
                _step(f"Taking the {obj} to {dest}.", "Go to", dest),
                _step(f"Putting the {obj} on {dest}.", "Place", dest),
            ]
            keypath = [("Open", box), ("Pick", obj), ("Place", dest)]
            # clean path: Pick (L3), Open (D1), Go to (branch), then the plan
            steps = 3 + len(outputs) - 1
            long_task = t >= 3
            if long_task:
                extra = rng.choice([o for o in visible if o != obj and index.parent(o) != dest])
                outputs += [
                    _step(f"Now the {extra}.", "Go to", extra),
                    _step(f"Picking up the {extra}.", "Pick", extra),
                    _step(f"Bringing the {extra} to {dest}.", "Go to", dest),
                    _step(f"Putting the {extra} on {dest}.", "Place", dest),
                ]
                keypath += [("Pick", extra), ("Place", dest)]
                steps += 4
            outputs.append(_step("Everything is where it belongs.", "End"))
            steps += 1
            clean_steps += min(steps, workload.budget)
            task_id = f"{scene_id}_task_{t}"
            _write(tasks_dir / f"{task_id}.json", _task_doc(
                task_id, scene_id, keypath, len(keypath) + 2,
                ["long_horizon", "logical"] if long_task else ["short_horizon", "logical"],
                f"Put the {obj} on {dest}" + (f", and the {extra} too." if long_task else ".")))
            _write(plans_dir / f"{task_id}.json", {
                "outputs": outputs,
                "branches": {
                    "L3": _step(f"{box} is closed; I need to open it first.", "Open", box),
                    "D1": _step(f"Too far from {box}; walking over.", "Go to", box),
                },
            })
    workload.clean_path_steps = clean_steps * workload.runs
    return workload


NAMES = ("bundled", "large-scene", "failure-heavy")


def make(name: str, root: Path, seed: int, scale: float = 1.0) -> Workload:
    """Build workload ``name`` (generated ones under ``root``) and validate
    its inputs."""
    if name == "bundled":
        workload = bundled(scale)
    elif name == "large-scene":
        workload = large_scene(root, seed, scale)
    elif name == "failure-heavy":
        workload = failure_heavy(root, seed, scale)
    else:
        raise ValueError(f"unknown workload {name!r}")
    validate(workload)
    return workload


def validate(workload: Workload) -> None:
    """Read every input back through the program's loaders: tasks, scenes
    and plans must load, and every task must have its scene and plan."""
    task_paths = sorted(p for p in workload.tasks_dir.glob("*.json") if p.name != "keypaths.json")
    tasks = load_tasks(task_paths)
    scenes = {p.stem for p in workload.scenes_dir.glob("*.json")}
    for path in workload.scenes_dir.glob("*.json"):
        load_scene(path.read_bytes())
    for task in tasks.values():
        if task.scene_ref not in scenes:
            raise ValueError(f"task {task.id!r} needs missing scene {task.scene_ref!r}")
        plan = workload.plans_dir / f"{task.id}.json"
        load_scripted_plan(plan.read_text(encoding="utf-8"))
    workload.n_tasks = len(tasks)
