"""Shared builders for tests: compact trajectory/task/scene construction."""

from __future__ import annotations

import itertools
import json
import os
import random
from fractions import Fraction

import pytest
from hypothesis import settings

from homebench.core import (
    SUCCESS,
    ActionType,
    ErrorCode,
    KeypathNode,
    MissingTask,
    PlannerOutput,
    StepRecord,
    Task,
    TaskAttribute,
    Trajectory,
    failure,
    parse_action,
)
from homebench.loop import (
    DEFAULT_SYSTEM_INFO,
    EpisodeState,
    Instruction,
    apply_feedback,
    describe_output,
    render_feedback,
    render_observations,
    replay_instructions,
)
from homebench.metrics import (
    _ser_srr,
    episode_result,
    error_breakdown,
    round2,
)
from homebench.sim import load_scene

from test_sim import scene_doc

# With CI set (GitHub Actions sets it), property tests search harder; a local
# run keeps each test's own example count.
settings.register_profile("ci", max_examples=1000)
if os.environ.get("CI"):
    settings.load_profile("ci")


def examples(local: int) -> int:
    """``local`` examples, or the loaded profile's count if that is larger."""
    return max(local, settings.default.max_examples)


MODEL_FOR = {
    ActionType.GO_TO: "NoMaD",
    ActionType.PICK: "RT-1-X",
    ActionType.PLACE: "RT-1-X",
    ActionType.OPEN: "Octo",
    ActionType.CLOSE: "Octo",
    ActionType.END: "M3",
}


def step(action, target, ok=True, code=None, retries=0, analysis="", model=None):
    """Build a StepRecord from a compact spec. ``action`` may be an
    ActionType, a canonical label, or a raw invalid string (F1 steps)."""
    if isinstance(action, ActionType):
        action_type = action
    else:
        action_type = parse_action(action)
    if action_type is not None:
        label = action_type.label
        model = model or MODEL_FOR[action_type]
    else:
        label = action  # raw junk, only valid on F1 steps
        model = model or ""
    output = PlannerOutput(analysis or f"do {label} {target}".strip(), label, target, model)
    if ok:
        feedback = SUCCESS
    else:
        feedback = failure(code or ErrorCode.E1)
    return StepRecord(output, feedback, retries)


def traj(specs, task_id="t1", run_index=0, budget=False):
    """Build a finished trajectory from (action, target, ok[, code]) specs.
    Appends an End step unless ``budget`` is true."""
    steps = []
    for spec in specs:
        action, target, ok = spec[0], spec[1], spec[2]
        code = spec[3] if len(spec) > 3 else None
        steps.append(step(action, target, ok=ok, code=code))
    if not budget:
        steps.append(step(ActionType.END, "", ok=True))
    return Trajectory(
        task_id=task_id,
        steps=tuple(steps),
        run_index=run_index,
    )


def node(action, target):
    if not isinstance(action, ActionType):
        action = parse_action(action)
    return KeypathNode(action, target)


def make_task(task_id="t1", keypaths=None, expert_length=None, scene="kitchen_home",
              attributes=(TaskAttribute.SHORT_HORIZON,), instruction="do the thing"):
    keypaths = keypaths or ((node(ActionType.PICK, "apple"),),)
    longest = max(len(k) for k in keypaths)
    return Task(
        id=task_id,
        instruction=instruction,
        attributes=frozenset(attributes),
        keypaths=tuple(tuple(k) for k in keypaths),
        expert_length=expert_length or longest,
        scene_ref=scene,
    )


def task_document(task) -> dict:
    """The task file document that parses back to ``task``."""
    return {
        "id": task.id,
        "instruction": task.instruction,
        "attributes": sorted(a.value for a in task.attributes),
        "expert_length": task.expert_length,
        "scene": task.scene_ref,
        "keypaths": [[{"action": n.action.label, "target": n.target} for n in kp]
                     for kp in task.keypaths],
    }


#: the test scene under the scene name ``make_task`` gives a task by default
SCENES = {"kitchen_home": load_scene(scene_doc())}


def replay(trajectory, task) -> list:
    """``replay_instructions`` of ``trajectory`` on a fresh clone of its
    task's scene in ``SCENES``."""
    return replay_instructions(trajectory, task, SCENES[task.scene_ref].clone())


def render_history(steps) -> str:
    """Reference history: every step's summary line rendered anew, numbered
    from 1, or "none" for no steps."""
    lines = [
        f"{n}. {describe_output(step.output)} -> {render_feedback(step.feedback)}"
        for n, step in enumerate(steps, 1)
    ]
    return "\n".join(lines) if lines else "none"


def assemble_eagerly(state) -> Instruction:
    """Reference prompt: every part rendered from the state at once, the
    observations included, as a text and never a renderer."""
    steps = state.steps
    feedback = steps[-1].feedback if steps else None
    return Instruction(
        system=DEFAULT_SYSTEM_INFO,
        task=state.task_text,
        inventory=state.held or "empty",
        history=render_history(steps),
        feedback=render_feedback(feedback),
        observations=render_observations(state.scene),
        feedback_code=feedback.code if feedback else None,
    )


def replay_eagerly(trajectory, task, scene) -> list:
    """Reference replay: ``assemble_eagerly`` before each logged step is
    folded into ``scene``."""
    state = EpisodeState(task.instruction, scene)
    prompts = []
    for step in trajectory.steps:
        prompts.append(assemble_eagerly(state))
        apply_feedback(state, step)
    return prompts


def text_by_dumps(output: PlannerOutput) -> str:
    """Reference output text: ``json.dumps`` of the output's document, whose
    subtask holds no target for an End."""
    subtask = [output.action] if output.is_end else [output.action, output.target]
    return json.dumps({"analysis": output.analysis, "subtask": subtask, "model": output.model},
                      ensure_ascii=False)


def report_per_run(trajectories, tasks, plwsr_literal=False) -> dict:
    """Reference report: every run scored on its own and tallied once, with
    no grouping of equal runs, as the document ``build_report`` returns.
    Each run's task is looked up and checked as ``build_report`` does it,
    so the same task is named when one is missing or filed under another
    id."""
    results = []
    for trajectory in trajectories:
        task = tasks.get(trajectory.task_id)
        if task is None or task.id != trajectory.task_id:
            raise MissingTask(trajectory.task_id)
        results.append(episode_result(trajectory, task))
    by_task = {}
    for r in results:
        by_task.setdefault(r.task_id, []).append(r)
    table = {}  # task id -> (runs, SR, PLWSR, TP) as fractions of 1
    for task_id, runs in sorted(by_task.items()):
        expert = tasks[task_id].expert_length
        weights = (Fraction(r.length if plwsr_literal else expert, max(expert, r.length))
                   for r in runs if r.success)
        table[task_id] = (len(runs), Fraction(sum(1 for r in runs if r.success), len(runs)),
                          sum(weights, Fraction(0)) / len(runs),
                          sum((r.tp for r in runs), Fraction(0)) / len(runs))

    def mean(scores, column):
        return 100 * sum((s[column] for s in scores), Fraction(0)) / len(scores)

    per_attribute = {}
    for attr in TaskAttribute:
        carriers = [s for tid, s in table.items() if attr in tasks[tid].attributes]
        per_attribute[attr.value] = round2(mean(carriers, 1)) if carriers else None
    scores = list(table.values())
    sr, plwsr, tp = (mean(scores, c) if scores else Fraction(0) for c in (1, 2, 3))
    (ser, ser_zero), (srr, srr_zero) = _ser_srr((r, 1) for r in results)
    error_stats, per_action = error_breakdown(
        [(t, r, 1) for t, r in zip(trajectories, results)])
    return {
        "tasks": len(table),
        "runs": len(results),
        "sr": round2(sr),
        "plwsr": round2(plwsr),
        "tp": round2(tp),
        "srr": round2(srr),
        "ser": round2(ser),
        "flags": {"ser_denominator_zero": ser_zero, "srr_denominator_zero": srr_zero},
        "per_attribute_sr": per_attribute,
        "per_task": {tid: {"runs": n, "sr": round2(100 * s), "tp": round2(100 * t)}
                     for tid, (n, s, _, t) in table.items()},
        "error_stats": error_stats,
        "per_action": per_action,
    }


def prefix_subsequence_oracle(pairs, keypath):
    """Independent check: length of the longest prefix of ``keypath`` that
    occurs as a subsequence of ``pairs``, found by exhaustive enumeration of
    index combinations (no greedy scanning)."""
    n = len(pairs)
    for p in range(len(keypath), -1, -1):
        for combo in itertools.combinations(range(n), p):
            if all(
                pairs[idx] == (keypath[j].action, keypath[j].target)
                for j, idx in enumerate(combo)
            ):
                return p
    return 0


ACTIONS = [ActionType.GO_TO, ActionType.PICK, ActionType.PLACE, ActionType.OPEN]
TARGETS = ["apple", "drawer", "sofa"]
MODELS = ["M3", "RT-1-X", "Octo", "NoMaD", "PixNav"]


def random_trajectory(rng: random.Random, max_steps=12, task_id="t1", run_index=0):
    n = rng.randrange(0, max_steps + 1)
    steps = []
    for i in range(n):
        action = rng.choice(ACTIONS)
        steps.append(step(
            action, rng.choice(TARGETS),
            ok=rng.random() < 0.6,
            code=rng.choice(list(ErrorCode)),
            analysis=f"step {i + 1} of {task_id}/{run_index}",
            model=rng.choice(MODELS),
        ))
    budget = rng.random() < 0.4
    if not budget:
        steps.append(step(ActionType.END, "", ok=True,
                          analysis=f"end of {task_id}/{run_index}"))
    return Trajectory(
        task_id=task_id,
        steps=tuple(steps),
        run_index=run_index,
    )


def random_keypaths(rng: random.Random, max_paths=4, max_nodes=5):
    paths = []
    for _ in range(rng.randrange(1, max_paths + 1)):
        length = rng.randrange(1, max_nodes + 1)
        paths.append(tuple(
            node(rng.choice(ACTIONS), rng.choice(TARGETS)) for _ in range(length)
        ))
    return tuple(paths)


@pytest.fixture
def rng():
    return random.Random(20240817)
