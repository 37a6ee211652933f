"""Domain types shared across the toolkit, plus the on-disk JSON schemas
for tasks, keypaths, and trajectory logs.

Everything here is a plain value type: parsing is stateless and parsed
objects are safe to share read-only across evaluation workers.
"""

from __future__ import annotations

import functools
import json
import os
import stat
from dataclasses import dataclass, field
from enum import Enum
from json.encoder import encode_basestring
from typing import Iterable, Optional


# ---------------------------------------------------------------------------
# errors


class HomebenchError(Exception):
    """Base class for all toolkit errors."""


class SchemaError(HomebenchError):
    """A document does not conform to its schema; the message names the
    offending path."""


class InvariantError(HomebenchError):
    """A structural rule that the public API promises to uphold was broken."""


class ConfigError(HomebenchError):
    """Bad or missing configuration (CLI exit code 2)."""


class EmptyKeypathSet(HomebenchError):
    """Task progress is undefined without at least one keypath."""


class MissingTask(HomebenchError):
    """A trajectory log references a task id with no task file."""

    def __init__(self, task_id: str):
        super().__init__(f"a log names task {task_id!r}, which has no task file")


class MissingScene(HomebenchError):
    """A task's scene is not among the template scenes a caller passed."""

    def __init__(self, task_id: str, scene_ref: str):
        super().__init__(f"task {task_id!r} needs scene {scene_ref!r}, "
                         "which is not among the scenes given")


class EmptyLexicon(HomebenchError):
    """Action corruption requires a non-empty lexicon."""


class PlannerTransportError(HomebenchError):
    """The planner endpoint could not be reached or answered garbage."""


class RewriterTransportError(HomebenchError):
    """A remote text rewriter failed; the affected rewrite is skipped."""


def _surrogate(text: str) -> Optional[str]:
    """The first surrogate code point in ``text``, which UTF-8 cannot
    encode, or None."""
    if not text.isascii():
        try:
            text.encode("utf-8")
        except UnicodeEncodeError as exc:
            return text[exc.start]
    return None


def escape_surrogates(text: str) -> str:
    """``text`` with each lone surrogate written as its ``\\udXXX`` escape,
    so that UTF-8 can encode it; any other text comes back unchanged."""
    return text.encode("utf-8", "backslashreplace").decode("utf-8")


def _lone_surrogate(doc) -> Optional[str]:
    """The first surrogate code point in any key or string of a decoded
    document, or None. A valid escaped pair decodes to one character, so
    what is found here has no partner."""
    stack = [doc]
    while stack:
        value = stack.pop()
        if isinstance(value, str):
            found = _surrogate(value)
            if found:
                return found
        elif isinstance(value, dict):
            stack.extend(value)
            stack.extend(value.values())
        elif isinstance(value, list):
            stack.extend(value)
    return None


def _decoded_surrogate(text: str, doc) -> Optional[str]:
    """The first lone surrogate in ``doc``, decoded from ``text``, or None.
    Only a text that holds a ``\\uD`` escape or a surrogate code point is
    searched."""
    # the cheap tests first: most texts hold no backslash and are ASCII
    if ("\\" in text and ("\\ud" in text or "\\uD" in text)) or _surrogate(text):
        return _lone_surrogate(doc)
    return None


def read_json(data, what: str, error: type = SchemaError):
    """Decode a JSON document (bytes or str). Bad JSON, bad UTF-8, nesting
    too deep for the decoder and a lone UTF-16 surrogate in any text all
    raise ``error`` naming ``what``."""
    try:
        if isinstance(data, bytes):  # as json.loads decodes bytes
            data = data.decode(json.detect_encoding(data), "surrogatepass")
        doc = json.loads(data)
    except (ValueError, RecursionError) as exc:
        raise error(f"{what} is not valid JSON: {exc}") from exc
    lone = _decoded_surrogate(data, doc)
    if lone is not None:
        raise error(f"{what} is not valid JSON: lone UTF-16 surrogate {ascii(lone)}")
    return doc


# ---------------------------------------------------------------------------
# names


def normalize_name(raw: str) -> str:
    """Normalize an entity/spot name: lowercase, trimmed, with internal runs
    of whitespace, hyphens, or underscores collapsed to single underscores.

    Total and idempotent: normalize_name(normalize_name(x)) == normalize_name(x).
    """
    return "_".join(raw.lower().replace("-", " ").replace("_", " ").split())


# ---------------------------------------------------------------------------
# closed enumerations


class IdentityEnum(Enum):
    """Base of the package's enumerations, whose singleton members hash by
    identity, as they compare: ``Enum.__hash__``, ``.value`` and a lookup
    on the class (``ActionType.END``) each cost about 0.1 µs on Python 3.11,
    so the step path uses none of them. No output iterates a set of members."""

    __hash__ = object.__hash__


class ActionType(IdentityEnum):
    """The six skills the executor supports. Any other action string is a
    format violation (F1). ``label`` is the value, and ``token`` its
    lowercase underscore form, used in schedule keys: "go_to"."""

    GO_TO = "Go to"
    PICK = "Pick"
    PLACE = "Place"
    OPEN = "Open"
    CLOSE = "Close"
    END = "End"

    def __init__(self, label: str):
        self.label = label
        self.token = label.lower().replace(" ", "_")


_END = ActionType.END  # bound once, as ``IdentityEnum`` says


_ACTION_ALIASES = {
    "go_to": ActionType.GO_TO,
    "goto": ActionType.GO_TO,
    "pick": ActionType.PICK,
    "place": ActionType.PLACE,
    "put": ActionType.PLACE,
    "open": ActionType.OPEN,
    "close": ActionType.CLOSE,
    "end": ActionType.END,
}


@functools.lru_cache(maxsize=1024)  # inputs repeat; the bound caps what planner junk can hold
def parse_action(raw: str) -> Optional[ActionType]:
    """Map an action string to the closed action set, or None if it is not
    one of ours. Matching ignores case and whitespace/underscore style."""
    return _ACTION_ALIASES.get(normalize_name(raw))


class ModelCategory(IdentityEnum):
    MANIPULATION = "Manipulation"
    NAVIGATION = "Navigation"
    UNIFIED = "Unified"


class ModelChoice(IdentityEnum):
    """Low-level models the planner may dispatch to; ``label`` is the value."""

    M3 = "M3"
    RT1X = "RT-1-X"
    OCTO = "Octo"
    NOMAD = "NoMaD"
    PIXNAV = "PixNav"

    def __init__(self, label: str):
        self.label = label

    @property
    def category(self) -> ModelCategory:
        return _MODEL_CATEGORIES[self]


_MODEL_CATEGORIES = {
    ModelChoice.M3: ModelCategory.UNIFIED,
    ModelChoice.RT1X: ModelCategory.MANIPULATION,
    ModelChoice.OCTO: ModelCategory.MANIPULATION,
    ModelChoice.NOMAD: ModelCategory.NAVIGATION,
    ModelChoice.PIXNAV: ModelCategory.NAVIGATION,
}

_MODEL_ALIASES = {
    "m3": ModelChoice.M3,
    "rt1x": ModelChoice.RT1X,
    "octo": ModelChoice.OCTO,
    "nomad": ModelChoice.NOMAD,
    "pixnav": ModelChoice.PIXNAV,
}


@functools.lru_cache(maxsize=1024)
def parse_model(raw: str) -> Optional[ModelChoice]:
    """Map a model string to the closed model list, or None."""
    return _MODEL_ALIASES.get(normalize_name(raw).replace("_", ""))


class ErrorCategory(IdentityEnum):
    LOGICAL = "L"
    DISTANCE = "D"
    FORMAT = "F"
    EXECUTION = "E"


class ErrorCode(IdentityEnum):
    """Closed ten-value error taxonomy."""

    L1 = "L1"  # hand already full on pick/open/close
    L2 = "L2"  # hand empty on place
    L3 = "L3"  # pick from / place into a closed container
    L4 = "L4"  # illegal interaction target
    D1 = "D1"  # too far to reach
    D2 = "D2"  # too close to operate
    F1 = "F1"  # action or model outside the available lists
    F2 = "F2"  # target not present in the scene
    E1 = "E1"  # skill failed despite valid preconditions
    E2 = "E2"  # placement went wrong, object lost from hand

    def __init__(self, value: str):
        self.category = ErrorCategory(value[0])


#: Canonical feedback message per error code. F2 and L4 deliberately share a
#: message; the structured code is authoritative when disambiguation matters.
CANONICAL_MESSAGES = {
    ErrorCode.L1: "the hand is full",
    ErrorCode.L2: "the hand is empty",
    ErrorCode.L3: "the container is closed, you should open it first",
    ErrorCode.L4: "please choose another object",
    ErrorCode.D1: "the target is far away",
    ErrorCode.D2: "the target is too close",
    ErrorCode.F1: "You should only choose actions in the list",
    ErrorCode.F2: "please choose another object",
    ErrorCode.E1: "the subtask is too difficult to perform",
    ErrorCode.E2: "the object is missing",
}


class TaskAttribute(IdentityEnum):
    SHORT_HORIZON = "short_horizon"
    LONG_HORIZON = "long_horizon"
    OPEN_ENDED = "open_ended"
    LOGICAL = "logical"
    HUMAN_STYLE = "human_style"


class StepStatus(IdentityEnum):
    SUCCESS = "success"
    FAILURE = "failure"


# ---------------------------------------------------------------------------
# value types


@dataclass(frozen=True)
class Subtask:
    """One executable decision: a validated action, target, and model.

    ``target`` is a normalized name and is empty exactly when the action
    is End.
    """

    action: ActionType
    target: str
    model: ModelChoice

    def __post_init__(self):
        if (self.target == "") != (self.action is _END):
            raise InvariantError(
                f"target must be non-empty iff action is not End "
                f"(got action={self.action.label!r}, target={self.target!r})"
            )


@dataclass(frozen=True)
class PlannerOutput:
    """A parsed planner emission. Construction keeps the four strings as
    given, so invalid emissions (F1 steps) survive logging and round-trip
    intact. ``action_type`` and ``subtask`` (None unless the strings name a
    valid subtask) are derived once, at construction and in ``dataclasses.replace``.
    ``text`` is ``serialize_output`` of the output, computed on first read.
    """

    analysis: str
    action: str
    target: str
    model: str
    action_type: Optional[ActionType] = field(init=False, compare=False, repr=False)
    subtask: Optional[Subtask] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        action = parse_action(self.action) if self.action else None
        model = parse_model(self.model) if self.model else None
        subtask = None
        if (action is not None and model is not None
                and (self.target == "") == (action is _END)):
            subtask = Subtask(action, self.target, model)
        object.__setattr__(self, "action_type", action)
        object.__setattr__(self, "subtask", subtask)

    @property
    def is_end(self) -> bool:
        return self.action_type is _END and self.target == ""

    @functools.cached_property
    def text(self) -> str:
        return serialize_output(self)


def make_end_output(analysis: str = "The task is complete.") -> PlannerOutput:
    """Canonical End emission (End carries no target; M3 is the uniform
    filler for the mandatory model field)."""
    return PlannerOutput(analysis, ActionType.END.label, "", ModelChoice.M3.label)


def serialize_output(output: PlannerOutput) -> str:
    """Single-line JSON form of a planner output, used verbatim in prompts,
    logs, and training data."""
    return output_text(output.analysis, output.action,
                       None if output.is_end else output.target, output.model)


def output_text(analysis: str, action: str, target: Optional[str], model: str) -> str:
    """The single-line JSON form of an output with these fields: the text
    ``json.dumps(doc, ensure_ascii=False)`` writes for the document
    ``{"analysis": ..., "subtask": [action, target], "model": ...}``, whose
    subtask is ``[action]`` alone when ``target`` is None (an End). It is
    laid out around the string escaper that ``json.dumps`` uses."""
    subtask = encode_basestring(action)
    if target is not None:
        subtask = f"{subtask}, {encode_basestring(target)}"
    return (f'{{"analysis": {encode_basestring(analysis)}, "subtask": [{subtask}], '
            f'"model": {encode_basestring(model)}}}')


@dataclass(frozen=True)
class Feedback:
    """Outcome of one executed step: ``code`` is None on success and the
    failure's error code otherwise. The status and the message follow from it."""

    code: Optional[ErrorCode] = None

    @property
    def ok(self) -> bool:
        return self.code is None

    @property
    def status(self) -> StepStatus:
        return StepStatus.SUCCESS if self.code is None else StepStatus.FAILURE

    @property
    def message(self) -> str:
        """The code's canonical message; empty on success."""
        return "" if self.code is None else CANONICAL_MESSAGES[self.code]


SUCCESS = Feedback()

# value -> member tables for the log parser, and the 11 valid feedbacks by code
_STATUSES = {status.value: status for status in StepStatus}
_CODES = {code.value: code for code in ErrorCode}
_FEEDBACKS = {None: SUCCESS, **{code: Feedback(code) for code in ErrorCode}}


def failure(code: ErrorCode) -> Feedback:
    """The one failure value of ``code``."""
    return _FEEDBACKS[code]


@dataclass(frozen=True)
class StepRecord:
    """One planner turn: what was emitted and how it went. Its index is its
    1-based position in the trajectory, so it is not stored: one record may
    stand at several positions, in one trajectory or in several.

    ``retries_used`` counts extra executor attempts within the step; each
    step gets at most three attempts total.
    """

    output: PlannerOutput
    feedback: Feedback
    retries_used: int = 0

    def __post_init__(self):
        if not 0 <= self.retries_used <= 2:
            raise InvariantError(f"retries_used must be 0..2 (got {self.retries_used})")
        if self.feedback.ok and self.output.subtask is None:
            raise InvariantError("a successful step needs a valid subtask")


@dataclass(frozen=True)
class Trajectory:
    """The one record of an episode: its ordered step records, and what cut
    it off, if anything did.

    A finished episode terminated either by End, as its final step, or by
    running out of budget. ``cut_off`` is the message of the planner
    transport failure that stopped one mid-flight; it holds no End. A
    terminating End is a *valid, accepted* End emission; End-shaped outputs
    rejected as F1 (bad model, stray target) do not terminate.

    Step records, and the planner outputs in them, are frozen and may be
    shared with other trajectories: a command that reads many logs builds
    each distinct step once, and one that plays many episodes parses each
    distinct reply once.
    """

    task_id: str
    steps: tuple[StepRecord, ...]
    run_index: int = 0
    cut_off: Optional[str] = None

    def __post_init__(self):
        object.__setattr__(self, "steps", tuple(self.steps))
        if any(step.output.is_end and step.feedback.ok for step in self.steps[:-1]):
            raise InvariantError("End must be the final step and appear at most once")
        if not self.finished and self.terminated_by_end:
            raise InvariantError("a cut-off trajectory holds no End")

    @property
    def finished(self) -> bool:
        return self.cut_off is None

    @property
    def terminated_by_end(self) -> bool:
        """The planner ended the episode: its last step is a successful End."""
        return bool(self.steps) and self.steps[-1].feedback.ok and self.steps[-1].output.is_end

    @property
    def terminated_by_budget(self) -> bool:
        return self.finished and not self.terminated_by_end


@dataclass(frozen=True)
class KeypathNode:
    action: ActionType
    target: str

    def __post_init__(self):
        if self.action is _END:
            raise InvariantError("keypath nodes never contain End")
        if not self.target:
            raise InvariantError("keypath nodes require a target")


@dataclass(frozen=True)
class Task:
    """A benchmark task: instruction text, its attribute tags, the keypaths
    that define completion, the expert trajectory length, and which scene
    it runs in."""

    id: str
    instruction: str
    attributes: frozenset
    keypaths: tuple  # of keypaths, each a tuple of KeypathNode
    expert_length: int
    scene_ref: str

    def __post_init__(self):
        if not self.attributes:
            raise SchemaError(f"task {self.id!r}: attributes must be non-empty")
        if not self.keypaths:
            raise SchemaError(f"task {self.id!r}: keypaths must be non-empty")
        for i, keypath in enumerate(self.keypaths):
            if not keypath:  # task progress would divide by its zero length
                raise SchemaError(f"task {self.id!r}.keypaths[{i}]: keypath must be non-empty")
        longest = max(len(k) for k in self.keypaths)
        if self.expert_length < longest:
            raise SchemaError(
                f"task {self.id!r}: expert_length {self.expert_length} is shorter "
                f"than the longest keypath ({longest} nodes)"
            )


def logged_task(trajectory: Trajectory, tasks: dict) -> Task:
    """The task ``trajectory`` ran, from an id-keyed task map. A task id
    with no task there, or whose task there carries another id, raises
    MissingTask."""
    task = tasks.get(trajectory.task_id)
    if task is None or task.id != trajectory.task_id:
        raise MissingTask(trajectory.task_id)
    return task


# ---------------------------------------------------------------------------
# task documents


def _require(obj: dict, key: str, where: str):
    if key not in obj:
        raise SchemaError(f"{where}: missing field {key!r}")
    return obj[key]


def _refuse_unknown_keys(obj: dict, known: tuple, where: str, error: type = SchemaError):
    """Refuse the first key of ``obj`` that is not in ``known``, with
    ``error`` naming it and the closest known key, if one is close: a
    misspelled key never plays silently with a default."""
    for key in obj:
        if key not in known:
            import difflib  # only a refused key pays for it

            close = difflib.get_close_matches(key, known, n=1)
            hint = f" (did you mean {close[0]!r}?)" if close else ""
            raise error(f"{where}: unknown key {key!r}{hint}")


def _require_text(obj: dict, key: str, where: str) -> str:
    value = _require(obj, key, where)
    if not isinstance(value, str):
        raise SchemaError(f"{where}.{key}: expected a JSON string")
    return value


def _parse_keypath_node(node, where: str) -> KeypathNode:
    if not isinstance(node, dict):
        raise SchemaError(f"{where}: keypath node must be an object")
    raw_action = _require_text(node, "action", where)
    action = parse_action(raw_action)
    if action is None:
        raise SchemaError(f"{where}.action: unknown action {raw_action!r}")
    if action is _END:
        raise SchemaError(f"{where}.action: keypath nodes never contain End")
    target = normalize_name(_require_text(node, "target", where))
    if not target:
        raise SchemaError(f"{where}.target: empty target")
    return KeypathNode(action, target)


def parse_keypaths(raw, where: str = "keypaths") -> tuple:
    if not isinstance(raw, list) or not raw:
        raise SchemaError(f"{where}: expected a non-empty list of keypaths")
    keypaths = []
    for i, nodes in enumerate(raw):
        if not isinstance(nodes, list) or not nodes:
            raise SchemaError(f"{where}[{i}]: keypath must be a non-empty list")
        keypaths.append(tuple(
            _parse_keypath_node(node, f"{where}[{i}][{j}]")
            for j, node in enumerate(nodes)
        ))
    return tuple(keypaths)


def parse_task_file(data) -> Task:
    """Parse a task document (bytes or str). Raises SchemaError naming the
    offending path on any violation."""
    doc = read_json(data, "task document")
    if not isinstance(doc, dict):
        raise SchemaError("task document must be a JSON object")

    task_id = _require_text(doc, "id", "task")
    where = f"task {task_id!r}"
    # the id names files: a run's logs and a directory's scripted plans
    if "/" in task_id or "\0" in task_id:
        raise SchemaError(f"{where}.id: a task id holds no '/' or NUL")
    instruction = _require_text(doc, "instruction", where)
    raw_attrs = _require(doc, "attributes", where)
    if not isinstance(raw_attrs, list) or not raw_attrs:
        raise SchemaError(f"{where}.attributes: expected a non-empty list")
    attributes = set()
    for attr in raw_attrs:
        try:
            attributes.add(TaskAttribute(str(attr)))
        except ValueError:
            raise SchemaError(f"{where}.attributes: unknown attribute {attr!r}") from None
    expert_length = _require(doc, "expert_length", where)
    if type(expert_length) is not int or expert_length < 1:  # a bool is not a length
        raise SchemaError(f"{where}.expert_length: expected a positive integer")
    scene_ref = _require_text(doc, "scene", where)
    keypaths = parse_keypaths(_require(doc, "keypaths", where), f"{where}.keypaths")
    return Task(task_id, instruction, frozenset(attributes), keypaths, expert_length, scene_ref)


# ---------------------------------------------------------------------------
# trajectory logs


@functools.lru_cache(maxsize=4096)
def _log_target(raw: str) -> str:
    return normalize_name(raw)


_ABSENT = object()  # a step field that is not in the document


def _parse_step(doc, pos: int, memo: dict) -> StepRecord:
    # Each field is read once; _require/_require_text run only to raise, so a
    # fault's message, and which of several faults is named, stay as they were.
    if not isinstance(doc, dict):
        raise SchemaError(f"steps[{pos}]: expected an object")
    get = doc.get
    index = get("index")
    if type(index) is not int or index != pos + 1:
        _require(doc, "index", f"steps[{pos}]")
        if type(index) is not int:
            raise SchemaError(f"steps[{pos}].index: expected an integer")
        raise SchemaError(f"steps[{pos}].index: expected {pos + 1}, got {index}")
    analysis, raw_action, raw_target, raw_model, status_str = (
        get("analysis"), get("action"), get("target"), get("model"), get("status"))
    if not (type(analysis) is type(raw_action) is type(raw_target)
            is type(raw_model) is type(status_str) is str):
        for key in ("analysis", "action", "target", "model", "status"):
            _require_text(doc, key, f"steps[{pos}]")

    # ``memo`` holds only steps that parsed cleanly, keyed by every field the
    # parser reads but the index. Only keys whose values have the types of a
    # clean step are looked up: then no True or 1.0 equals a clean 1, and no
    # JSON null stands for an absent field. A step of any other types fails
    # below, so its key is never stored.
    retries = get("retries_used")
    code_str, message = get("error_code", _ABSENT), get("message", _ABSENT)
    key = None
    if (type(retries) is int and (code_str is _ABSENT or type(code_str) is str)
            and (message is _ABSENT or type(message) is str)):
        key = (analysis, raw_action, raw_target, raw_model, status_str, code_str, message,
               retries)
        record = memo.get(key)
        if record is not None:
            return record

    status = _STATUSES.get(status_str)
    if status is None:
        raise SchemaError(f"steps[{pos}].status: unknown status {status_str!r}")

    code = None
    if status is StepStatus.FAILURE:
        code = _CODES.get(code_str) if type(code_str) is str else None
        if code is None:
            code_str = _require_text(doc, "error_code", f"steps[{pos}]")
            raise SchemaError(f"steps[{pos}].error_code: unknown code {code_str!r}")
        if message is not _ABSENT and message != CANONICAL_MESSAGES[code]:
            raise SchemaError(f"steps[{pos}].message: not the canonical message for {code.value}")
    elif code_str is not _ABSENT or message is not _ABSENT:
        raise SchemaError(f"steps[{pos}]: success steps carry no error_code/message")

    # F1 steps keep whatever string the planner emitted; everything else must
    # name a valid subtask, and is kept in its canonical spelling.
    if code is ErrorCode.F1:
        output = PlannerOutput(analysis, raw_action, raw_target, raw_model)
    else:
        output = PlannerOutput(analysis, raw_action, _log_target(raw_target), raw_model)
        subtask = output.subtask
        if subtask is None:
            if output.action_type is None:
                raise SchemaError(f"steps[{pos}].action: unknown action {raw_action!r}")
            if parse_model(raw_model) is None:
                raise SchemaError(f"steps[{pos}].model: unknown model {raw_model!r}")
            raise SchemaError(
                f"steps[{pos}].target: target must be non-empty iff action is not End")
        if raw_action != subtask.action.value or raw_model != subtask.model.value:
            output = PlannerOutput(analysis, subtask.action.value, subtask.target,
                                   subtask.model.value)

    if type(retries) is not int or not 0 <= retries <= 2:
        _require(doc, "retries_used", f"steps[{pos}]")
        raise SchemaError(f"steps[{pos}].retries_used: expected an integer in 0..2")
    # both of StepRecord's rules hold here: retries is in range, and a
    # success has a valid subtask
    record = memo[key] = StepRecord(output, _FEEDBACKS[code], retries)
    return record


def parse_trajectory_log(data, memo: Optional[dict] = None) -> Trajectory:
    """Parse a trajectory log (bytes or str).

    Raises SchemaError on malformed documents, including bytes that are not
    UTF-8 and a step whose index is not its 1-based position, and
    InvariantError on structurally impossible trajectories such as an End
    step followed by more steps, or a ``terminated_by`` that is ``end``
    when the last step is not a successful End, or ``budget`` when it is.

    A step equal in every field but its index to one that already parsed
    cleanly is that step's ``StepRecord``, shared rather than rebuilt. The
    clean steps are kept in ``memo``: pass one dict to every call over a
    corpus to share its records across logs. Without one, a log shares
    only among its own steps.
    """
    if memo is None:
        memo = {}
    doc = read_json(data, "trajectory log")
    if not isinstance(doc, dict):
        raise SchemaError("trajectory log must be a JSON object")

    task_id = _require_text(doc, "task_id", "log")
    run_index = _require(doc, "run_index", "log")
    if type(run_index) is not int or run_index < 0:
        raise SchemaError("log.run_index: expected a non-negative integer")
    raw_steps = _require(doc, "steps", "log")
    if not isinstance(raw_steps, list):
        raise SchemaError("log.steps: expected a list")
    steps = [_parse_step(step, pos, memo) for pos, step in enumerate(raw_steps)]

    terminated_by = _require_text(doc, "terminated_by", "log")
    if terminated_by not in ("end", "budget"):
        raise SchemaError(f"log.terminated_by: expected 'end' or 'budget', got {terminated_by!r}")
    trajectory = Trajectory(task_id, steps, run_index)
    # the steps decide how the episode ended; the log must agree with them
    if trajectory.terminated_by_end != (terminated_by == "end"):
        raise InvariantError("terminated_by_end requires a final End step"
                             if terminated_by == "end" else
                             "a trajectory containing End terminates by end")
    return trajectory


# a log step's status line, and on a failure its error_code and message
# lines, by the step's error code
_LOG_STATUS = {
    code: f'"status": {encode_basestring(feedback.status.value)}' + (
        "" if code is None else
        f',\n      "error_code": {encode_basestring(code.value)}'
        f',\n      "message": {encode_basestring(feedback.message)}'
    )
    for code, feedback in _FEEDBACKS.items()
}


def serialize_trajectory(trajectory: Trajectory) -> str:
    """Canonical trajectory log document (one trajectory per file).

    The text equals ``json.dumps(doc, indent=2, ensure_ascii=False) + "\\n"``
    for the document with keys ``task_id``, ``run_index``, ``steps`` and
    ``terminated_by``, each step holding ``index``, ``analysis``, ``action``,
    ``target``, ``model``, ``status`` (then ``error_code`` and ``message`` on
    a failure) and ``retries_used``. It is laid out here around the string
    escaper that ``json.dumps`` uses, because ``json.dumps`` with an indent
    runs the pure-Python encoder.
    """
    if not trajectory.finished:
        raise InvariantError("only finished trajectories can be serialized")
    steps = ",\n".join(
        f'    {{\n'
        f'      "index": {index},\n'
        f'      "analysis": {encode_basestring(step.output.analysis)},\n'
        f'      "action": {encode_basestring(step.output.action)},\n'
        f'      "target": {encode_basestring(step.output.target)},\n'
        f'      "model": {encode_basestring(step.output.model)},\n'
        f'      {_LOG_STATUS[step.feedback.code]},\n'
        f'      "retries_used": {step.retries_used}\n'
        f'    }}'
        for index, step in enumerate(trajectory.steps, 1)
    )
    steps = f"[\n{steps}\n  ]" if steps else "[]"
    terminated_by = "end" if trajectory.terminated_by_end else "budget"
    return (
        f'{{\n'
        f'  "task_id": {encode_basestring(trajectory.task_id)},\n'
        f'  "run_index": {trajectory.run_index},\n'
        f'  "steps": {steps},\n'
        f'  "terminated_by": "{terminated_by}"\n'
        f'}}\n'
    )


# ---------------------------------------------------------------------------
# directory helpers


def load_tasks(paths: Iterable, keypath_overlay: Optional[dict] = None) -> dict:
    """Load task files into an id-keyed dict.

    ``keypath_overlay`` optionally maps task id -> raw keypaths (the format
    of a standalone keypaths file); overlay entries replace the keypaths
    parsed from the task document.
    """
    tasks = {}
    for path in paths:
        task = parse_task_file(path.read_bytes())
        if keypath_overlay and task.id in keypath_overlay:
            keypaths = parse_keypaths(keypath_overlay[task.id], f"keypaths[{task.id!r}]")
            task = Task(task.id, task.instruction, task.attributes,
                        keypaths, task.expert_length, task.scene_ref)
        if task.id in tasks:
            raise SchemaError(f"duplicate task id {task.id!r}")
        tasks[task.id] = task
    return tasks


#: about how many characters of text ``write_output`` hands to one write; each
#: write holds its chunk twice (text, then bytes): 1 MiB cost about 2 MB of peak RSS
OUTPUT_CHUNK = 1 << 16


def _keep_the_file(path, flags: int) -> int:
    """``open``'s opener: its own flags (binary, close-on-exec) without
    ``O_TRUNC``, so an existing file keeps its blocks for the new bytes."""
    return os.open(path, flags & ~os.O_TRUNC, 0o666)


def write_output(path, parts: Iterable[str]) -> None:
    """Write the text ``parts`` to ``path`` as strict UTF-8, over any file of
    that name in place (not atomically), in writes of about ``OUTPUT_CHUNK``
    characters: a large file is never held whole, a small one is one write.
    Then cut what is left of a longer older file, even when a write failed
    partway, so a regular file holds the bytes written and none of what it
    held before. A new, emptied or no longer file, a pipe and a device are
    not cut: they pay no ``ftruncate``."""
    with open(path, "wb", opener=_keep_the_file) as handle:
        try:  # a write past the small buffer goes straight through
            pending, size = [], 0
            for part in parts:
                pending.append(part)
                size += len(part)
                if size >= OUTPUT_CHUNK:
                    handle.write("".join(pending).encode("utf-8"))
                    pending, size = [], 0
            handle.write("".join(pending).encode("utf-8"))
        finally:  # the size counts the older file and what was flushed
            info = os.fstat(handle.fileno())
            if stat.S_ISREG(info.st_mode) and info.st_size > handle.tell():
                handle.truncate()  # at the end of what was written


def write_json(path, doc) -> None:
    """``write_output`` of ``json.dumps(doc, indent=2, ensure_ascii=False)`` and "\\n"."""
    write_output(path, (json.dumps(doc, indent=2, ensure_ascii=False), "\n"))
