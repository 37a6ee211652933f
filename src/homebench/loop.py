"""The planner/executor protocol engine: assemble instructions, parse
planner emissions, fold each step into the episode state, enforce step
budgets, and drive whole episodes and benchmarks.

A step takes one path: ``parse_planner_output`` reads every reply as a
``PlannerOutput`` (the F1 form when it does not parse), ``sim.execute``
decides it, and ``apply_feedback`` folds it into the state, scene and hand
through ``sim.apply_outcome``. Log replay folds each logged step the same
way, on a fresh copy of the task's scene.

One episode is strictly sequential; distinct episodes are independent and
may run concurrently as long as they never share a scene or state.
"""

from __future__ import annotations

import functools
import hashlib
import json
from dataclasses import dataclass, field
from importlib import resources
from typing import Optional, Protocol, Sequence

from .core import (
    ActionType,
    ConfigError,
    ErrorCode,
    Feedback,
    InvariantError,
    MissingScene,
    PlannerOutput,
    PlannerTransportError,
    StepRecord,
    Task,
    Trajectory,
    _decoded_surrogate,
    _surrogate,
    escape_surrogates,
    failure,
    normalize_name,
    parse_action,
    parse_model,
)
from . import sim
from .sim import Scene, execute, observe


def _load_text(name: str) -> str:
    return resources.files("homebench").joinpath(name).read_text(encoding="utf-8")


DEFAULT_SYSTEM_INFO = _load_text("templates/system.txt").strip()
DEFAULT_TEMPLATE = _load_text("templates/default.txt")


# ---------------------------------------------------------------------------
# instruction assembly


class _RenderedOnRead:
    """A text field of a dataclass that may also be given a zero-argument
    renderer: its first read calls the renderer and keeps the text, so
    ``==``, ``hash``, ``repr`` and ``dataclasses.replace`` see only text."""

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, instance, owner=None):
        if instance is None:  # no default: the field stays required
            raise AttributeError(self.name)
        value = instance.__dict__[self.name]
        if not isinstance(value, str):
            value = instance.__dict__[self.name] = value()
        return value

    def __set__(self, instance, value):
        instance.__dict__[self.name] = value


@dataclass(frozen=True)
class Instruction:
    """One planner prompt, kept in named parts so clients can split it into
    chat roles. Equal episode states render to byte-identical instructions.

    ``feedback_code`` is the last step's error code, or None; scripted
    planners branch on it. ``text`` is rendered on first read and kept.

    An instruction is read during the planner's ``next`` call it was made
    for. ``assemble_instruction`` gives ``observations`` a renderer of the
    episode's scene, which runs on the first read, so a planner that never
    reads them costs no render; a first read after ``apply_feedback`` has
    folded that step raises InvariantError rather than show a later scene.
    """

    system: str
    task: str
    inventory: str
    history: str
    feedback: str
    observations: str = _RenderedOnRead()
    feedback_code: Optional[ErrorCode] = None

    @functools.cached_property
    def text(self) -> str:
        return render_template(DEFAULT_TEMPLATE, self)


def render_template(template: str, instruction: Instruction) -> str:
    """Fill a prompt template. Templates are plain text with any of the
    named placeholders {system} {task} {inventory} {history} {feedback}
    {observations}; literal braces must be doubled."""
    return template.format(
        system=instruction.system,
        task=instruction.task,
        inventory=instruction.inventory,
        history=instruction.history,
        feedback=instruction.feedback,
        observations=instruction.observations,
    )


def describe_output(output: PlannerOutput) -> str:
    if not output.action:
        return "(unparseable output)"
    return f"{output.action} {output.target}".rstrip()


def render_feedback(feedback: Optional[Feedback]) -> str:
    if feedback is None:
        return "none"
    if feedback.ok:
        return "success"
    return f"failure ({feedback.code.value}): {feedback.message}"


#: the history of a prompt that no step precedes
EMPTY_HISTORY = "none"


def extend_history(history: str, n: int, step: StepRecord) -> str:
    """``history`` followed by the summary line of step number ``n``: what
    was attempted and how it went. Analysis text is deliberately left out so
    long episodes do not balloon the prompt. A history is built one line per
    step, so no earlier step is rendered again."""
    line = f"{n}. {describe_output(step.output)} -> {render_feedback(step.feedback)}"
    return line if n == 1 else f"{history}\n{line}"


def render_observations(scene: Scene) -> str:
    return "\n".join(
        f"{direction}: {text}"
        for direction, text in zip(sim.DIRECTIONS, observe(scene))
    )


@dataclass
class EpisodeState:
    """Mutable per-episode protocol state: the task, the scene it plays on,
    the hand, the steps taken so far and their history text. Only
    ``apply_feedback`` changes the scene and the hand (as
    ``sim.apply_outcome`` says) and adds to the steps and the history, one
    step and one line at a time, so the two always agree."""

    task_text: str
    scene: Scene
    held: Optional[str] = None  # the object in the hand
    steps: list = field(init=False, default_factory=list)  # [StepRecord]
    history: str = field(init=False, default=EMPTY_HISTORY)


def assemble_instruction(state: EpisodeState) -> Instruction:
    """Deterministic instruction rendered from the state's history and the
    scene as it is now. No scene state leaks into the prompt beyond the
    observation texts, which render on their first read (see
    ``Instruction``): until the state folds its next step, or never."""
    steps = state.steps
    feedback = steps[-1].feedback if steps else None
    folded = len(steps)

    def observations() -> str:
        if len(state.steps) != folded:
            raise InvariantError(
                f"the observations of the prompt before step {folded + 1} were first read "
                f"after that step was folded; a planner reads its instruction in next()")
        return render_observations(state.scene)

    return Instruction(
        system=DEFAULT_SYSTEM_INFO,
        task=state.task_text,
        inventory=state.held or "empty",
        history=state.history,
        feedback=render_feedback(feedback),
        observations=observations,
        feedback_code=feedback.code if feedback else None,
    )


# ---------------------------------------------------------------------------
# output parsing


_DECODER = json.JSONDecoder()


def _extract_object(text: str) -> Optional[dict]:
    """Lenient extraction: find the first decodable JSON object anywhere in
    the text, skipping surrounding prose and code fences. Nesting too deep
    for the decoder ends the search: the text reads as holding no object."""
    idx = text.find("{")
    while idx != -1:
        try:
            obj, _ = _DECODER.raw_decode(text, idx)
        except json.JSONDecodeError:
            obj = None
        except RecursionError:
            return None
        if isinstance(obj, dict):
            return obj
        idx = text.find("{", idx + 1)
    return None


def _scalar(value) -> Optional[str]:
    if isinstance(value, str):
        return value
    if isinstance(value, (int, float, bool)):
        return str(value)
    return None


def _unparsed(raw: str) -> PlannerOutput:
    """The F1 form of a reply that does not parse: the raw reply, any lone
    surrogate escaped, as the analysis, and every other field empty."""
    return PlannerOutput(escape_surrogates(raw), "", "", "")


def parse_planner_output(raw: str) -> PlannerOutput:
    """Two-stage parse of arbitrary planner text.

    Stage one leniently locates a JSON object; stage two requires scalar
    analysis/subtask/model fields and a subtask of the shape
    [action] / [action, target] / {"action": ..., "target": ...}. The
    fields are normalized but not yet checked against the closed lists; the
    output's ``subtask`` is None when they fail.

    A reply that does not parse (no object, a missing or non-scalar field,
    a malformed subtask, or a lone UTF-16 surrogate in the text or in the
    object decoded from it, which no log could hold as UTF-8) reads as the
    F1 form ``_unparsed`` builds, whose ``subtask`` is None.
    """
    obj = _extract_object(raw)
    if obj is None or _surrogate(raw) is not None or _decoded_surrogate(raw, obj) is not None:
        return _unparsed(raw)
    analysis = _scalar(obj.get("analysis"))
    model_raw = _scalar(obj.get("model"))
    subtask = obj.get("subtask")
    if isinstance(subtask, dict):
        action_raw = _scalar(subtask.get("action"))
        target_raw = _scalar(subtask.get("target", ""))
    elif isinstance(subtask, list) and 1 <= len(subtask) <= 2:
        action_raw = _scalar(subtask[0])
        target_raw = _scalar(subtask[1]) if len(subtask) == 2 else ""
    else:
        return _unparsed(raw)
    if None in (analysis, model_raw, action_raw, target_raw):
        return _unparsed(raw)

    action = parse_action(action_raw)
    model = parse_model(model_raw)
    return PlannerOutput(
        analysis=analysis,
        action=action.label if action else action_raw.strip(),
        target=normalize_name(target_raw),
        model=model.label if model else model_raw.strip(),
    )


# ---------------------------------------------------------------------------
# state transitions


def apply_feedback(state: EpisodeState, step: StepRecord) -> EpisodeState:
    """Fold one step into the episode state, the same way in live play and
    in log replay: the scene and the hand change as ``sim.apply_outcome``
    says, the step joins the state's steps, and its summary line their
    history.
    """
    state.held = sim.apply_outcome(state.scene, step.output.subtask, step.feedback.code,
                                   state.held)
    state.steps.append(step)
    state.history = extend_history(state.history, len(state.steps), step)
    return state


# ---------------------------------------------------------------------------
# episodes


class Planner(Protocol):
    """Answers each prompt of an episode with one raw reply text.

    ``next`` reads the instruction during the call it is made for: its
    observations render on their first read, and a first read after the
    call, once the step has been folded, raises InvariantError.
    """

    def next(self, instruction: Instruction) -> str:  # pragma: no cover - protocol
        ...


def run_episode(
    scene: Scene,
    planner,
    task: Task,
    budget: int = 20,
    retries: int = 3,
    run_index: int = 0,
    parse=None,
) -> Trajectory:
    """Drive one episode to termination.

    Every planner query consumes one budget step, including emissions that
    fail to parse or validate (logged as F1; an unparseable reply is logged
    in the F1 form ``parse_planner_output`` returns). Executor attempts
    within a step retry only on E1, up to ``retries`` (1..3) attempts
    total; logical, distance, and format failures are deterministic for a
    given state, so they are final immediately. ``execute`` decides each
    attempt, and the step folds into the state, scene and hand included,
    through ``apply_feedback``, as ``replay_instructions`` folds a logged
    step. The episode stops at a valid End or when the budget runs out.

    The planner reads each instruction during the ``next`` call it was
    made for. Its observations render from the scene on their first read,
    so a planner that never reads them (a scripted one) costs no render;
    a first read after the step has been folded raises InvariantError.

    If the planner transport fails, the episode stops there: the trajectory
    returned holds the steps taken so far, and its ``cut_off`` is the
    error's message.

    ``parse`` reads each reply; it is ``parse_planner_output`` unless the
    caller hands in a memo of it, as ``run_benchmark`` does.
    """
    if not 1 <= retries <= 3:
        raise ConfigError(f"retries must be between 1 and 3 attempts per step, got {retries}")
    if parse is None:
        parse = parse_planner_output
    state = EpisodeState(task.instruction, scene)

    for _ in range(budget):
        instruction = assemble_instruction(state)
        try:
            raw = planner.next(instruction)
        except PlannerTransportError as exc:
            return Trajectory(task.id, state.steps, run_index, cut_off=str(exc))
        output = parse(raw)
        subtask = output.subtask
        retries_used = 0
        if subtask is None:
            feedback = failure(ErrorCode.F1)
        else:
            # the first attempt is unconditional, so feedback is always bound
            feedback = execute(scene, subtask, state.held)
            while feedback.code is ErrorCode.E1 and retries_used + 1 < retries:
                retries_used += 1
                feedback = execute(scene, subtask, state.held)

        apply_feedback(state, StepRecord(output, feedback, retries_used))
        if subtask is not None and subtask.action is ActionType.END:
            break

    return Trajectory(task.id, state.steps, run_index)


def stable_seed(*parts) -> int:
    """Deterministic 63-bit seed derived from arbitrary parts; stable across
    processes and platforms (unlike hash())."""
    digest = hashlib.sha256("\x1f".join(str(p) for p in parts).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") >> 1


#: replies the memo of one ``run_benchmark`` call keeps, the most recently used
REPLY_MEMO_SIZE = 1024


def require_scene(task: Task, scenes: dict) -> None:
    """Refuse ``scenes`` (template scenes by scene reference) without the
    scene of ``task``, with a MissingScene that names both."""
    if task.scene_ref not in scenes:
        raise MissingScene(task.id, task.scene_ref)


def run_benchmark(
    tasks: Sequence[Task],
    planner_factory,
    scenes: dict,
    runs_per_task: int = 3,
    budget: int = 20,
    retries: int = 3,
    seed: Optional[int] = None,
    jobs: int = 1,
    progress=None,
) -> list:
    """Run every task ``runs_per_task`` times, each episode against a fresh
    scene and fresh state, and return their trajectories.

    ``scenes`` maps each task's scene reference to a template Scene; every
    episode plays on its own clone of it, and a task whose scene is missing
    is refused (MissingScene) before any episode plays. ``planner_factory(task,
    run_index)`` must hand back a planner that is private to that episode.
    A transport failure cuts off only its own episode (``cut_off``), and
    the benchmark continues. Trajectories come back in stable (task order,
    run index) order regardless of ``jobs``, and ``progress(trajectory)``
    is called with each one in that order, on the calling thread.

    The episodes share one memo of ``parse_planner_output``, bounded to
    ``REPLY_MEMO_SIZE`` replies and gone when the call returns: a reply
    that repeats one still in it is not parsed again, and the episodes
    share its frozen output, the F1 form of an unparseable reply too.
    """
    for task in tasks:  # every scene is found before any episode plays
        require_scene(task, scenes)
    specs = [
        (task, run_index)
        for task in tasks
        for run_index in range(runs_per_task)
    ]
    parse = functools.lru_cache(maxsize=REPLY_MEMO_SIZE)(parse_planner_output)

    def one(spec):
        task, run_index = spec
        scene_seed = None if seed is None else stable_seed(seed, task.id, run_index)
        scene = scenes[task.scene_ref].clone(seed=scene_seed)
        return run_episode(scene, planner_factory(task, run_index), task, budget=budget,
                           retries=retries, run_index=run_index, parse=parse)

    trajectories = []
    for trajectory in _map(one, specs, jobs):
        if progress is not None:
            progress(trajectory)
        trajectories.append(trajectory)
    return trajectories


def _map(fn, items, jobs: int):
    """``map(fn, items)``, run on ``jobs`` worker threads when above 1."""
    if jobs == 1:
        yield from map(fn, items)
        return
    # imported only here: with logging, it is about 9 ms of every command's
    # start-up, and only a remote planner's episodes run on threads
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=jobs) as pool:
        yield from pool.map(fn, items)


# ---------------------------------------------------------------------------
# log replay


def replay_instructions(trajectory: Trajectory, task: Task, scene: Scene) -> list:
    """Reconstruct the instruction that preceded each logged step, exactly
    as the planner saw it, full history included.

    ``scene`` is a fresh copy of the task's scene, which the replay changes.
    Each logged step folds into the state, scene and hand through
    ``apply_feedback``, as in ``run_episode``, so each prompt observes the
    scene as it was at that step: its observations are read before the
    fold, so every instruction returned holds its text. Supervised prompts,
    whose history leaves out the failed steps, are derived from these by
    replacing only the history field (``augment.sft_convert``).
    """
    state = EpisodeState(task.instruction, scene)
    instructions = []
    for step in trajectory.steps:
        instruction = assemble_instruction(state)
        instruction.observations  # rendered now, from the scene before the fold
        instructions.append(instruction)
        apply_feedback(state, step)
    return instructions
