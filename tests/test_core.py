import copy
import functools
import itertools
import json
import os
import random
import re
import tempfile
import threading
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from homebench import core
from homebench.cli import _parse_logs
from homebench.cli import main as cli_main
from homebench.core import (
    _ACTION_ALIASES,
    _MODEL_ALIASES,
    CANONICAL_MESSAGES,
    ActionType,
    ErrorCode,
    Feedback,
    InvariantError,
    ModelCategory,
    ModelChoice,
    PlannerOutput,
    SUCCESS,
    SchemaError,
    StepRecord,
    StepStatus,
    Task,
    TaskAttribute,
    Trajectory,
    failure,
    normalize_name,
    parse_action,
    parse_model,
    parse_task_file,
    parse_trajectory_log,
    read_json,
    serialize_trajectory,
    write_output,
)

from conftest import examples, node, random_trajectory, step, traj


# ---------------------------------------------------------------------------
# name normalization


def test_normalize_basic():
    assert normalize_name("Sugar Box") == "sugar_box"


def test_normalize_idempotent():
    assert normalize_name("sugar_box") == "sugar_box"


def test_normalize_whitespace_collapse():
    assert normalize_name("  brown  table ") == "brown_table"


def test_normalize_hyphens_and_case():
    assert normalize_name("TV-Stand") == "tv_stand"
    assert normalize_name("a - b") == "a_b"


def test_normalize_random_idempotence_and_case():
    rng = random.Random(3)
    alphabet = "aB -_Z8"
    for _ in range(500):
        raw = "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 12)))
        once = normalize_name(raw)
        assert normalize_name(once) == once
        assert normalize_name(raw.upper()) == once


_NAME_SEPS = re.compile(r"[\s\-_]+")


def regex_normalize_name(raw: str) -> str:
    """The name rule in its regex form, the oracle for ``normalize_name``."""
    return _NAME_SEPS.sub("_", raw.strip().lower()).strip("_")


@settings(max_examples=examples(500), deadline=None)
@given(raw=st.text() | st.text(alphabet="-_ \t\n\r\x0b\x0c\x1c\x85\xa0\u3000\u0130\u1e9ea"))
def test_normalize_name_equals_the_regex_form(raw):
    # separators of every kind, and letters whose lowercase is longer or
    # another letter
    assert normalize_name(raw) == regex_normalize_name(raw)


# ---------------------------------------------------------------------------
# closed enumerations


def test_action_aliases():
    assert parse_action("Go to") is ActionType.GO_TO
    assert parse_action("goto") is ActionType.GO_TO
    assert parse_action("GO_TO") is ActionType.GO_TO
    assert parse_action("put") is ActionType.PLACE
    assert parse_action("grab") is None
    assert parse_action("Jump") is None


def test_model_aliases_and_categories():
    assert parse_model("RT-1-X") is ModelChoice.RT1X
    assert parse_model("rt1x") is ModelChoice.RT1X
    assert parse_model("NoMaD") is ModelChoice.NOMAD
    assert parse_model("GPT-hands") is None
    assert ModelChoice.RT1X.category is ModelCategory.MANIPULATION
    assert ModelChoice.OCTO.category is ModelCategory.MANIPULATION
    assert ModelChoice.NOMAD.category is ModelCategory.NAVIGATION
    assert ModelChoice.PIXNAV.category is ModelCategory.NAVIGATION
    assert ModelChoice.M3.category is ModelCategory.UNIFIED


def test_error_code_categories():
    for code in ErrorCode:
        assert code.category.value == code.value[0]


# ---------------------------------------------------------------------------
# JSON documents


@pytest.mark.parametrize("data, lone", [
    ('{"a": "x\\ud800"}', "\\ud800"),  # a high surrogate escape with no partner
    ('["\\uDFFF"]', "\\udfff"),  # upper-case hex, a low one
    ('{"\\udc00\\ud800": 1}', "\\udc00"),  # a pair in the wrong order, in a key
    ('{"a": [{"b": "\ud800"}]}', "\\ud800"),  # a code point in a str input, nested
    (b'"\xed\xa0\x80"', "\\ud800"),  # the code point, encoded as UTF-8 bytes
    ('"\\ud800"'.encode("utf-16"), "\\ud800"),  # a lone escape in UTF-16 bytes
    ('"\ud800"'.encode("utf-16", "surrogatepass"), "\\ud800"),  # a lone code unit
], ids=["escape", "upper-case", "reversed-pair-key", "str-code-point", "utf8-bytes",
        "utf16-escape", "utf16-code-unit"])
def test_read_json_lone_surrogate_is_named(data, lone):
    with pytest.raises(SchemaError) as raised:
        read_json(data, "thing")
    assert str(raised.value) == f"thing is not valid JSON: lone UTF-16 surrogate '{lone}'"


@pytest.mark.parametrize("data, doc", [
    ('["\\ud83d\\ude00"]', ["\U0001F600"]),  # a valid escaped pair is one character
    ('["\\uD83D\\uDE00"]'.encode("utf-8"), ["\U0001F600"]),
    ('["\U0001F600"]'.encode("utf-16"), ["\U0001F600"]),
    ('["\\\\ud800"]', ["\\ud800"]),  # an escaped backslash: six plain characters
    ('{"\\u00e9": "\\ud7ff\\ue000"}', {"\u00e9": "\ud7ff\ue000"}),  # either side of the range
])
def test_read_json_keeps_text_without_a_lone_surrogate(data, doc):
    assert read_json(data, "thing") == doc


# ---------------------------------------------------------------------------
# task documents


def task_doc(**overrides):
    doc = {
        "id": "sample",
        "instruction": "put the can in the drawer",
        "attributes": ["short_horizon"],
        "expert_length": 4,
        "scene": "kitchen_home",
        "keypaths": [
            [{"action": "Open", "target": "drawer"},
             {"action": "Pick", "target": "short_can"},
             {"action": "Place", "target": "drawer"}],
            [{"action": "Pick", "target": "short_can"},
             {"action": "Place", "target": "drawer"}],
        ],
    }
    doc.update(overrides)
    return doc


def test_parse_task_two_keypaths():
    task = parse_task_file(json.dumps(task_doc()))
    assert len(task.keypaths) == 2
    assert task.keypaths[0][0].target == "drawer"


def test_parse_task_unknown_keypath_action():
    doc = task_doc()
    doc["keypaths"][0][1]["action"] = "grab"
    with pytest.raises(SchemaError, match="grab"):
        parse_task_file(json.dumps(doc))


def test_parse_task_expert_length_violation():
    doc = task_doc(expert_length=2)  # longest keypath has 3 nodes
    with pytest.raises(SchemaError, match="expert_length"):
        parse_task_file(json.dumps(doc))


def test_parse_task_empty_keypaths():
    with pytest.raises(SchemaError):
        parse_task_file(json.dumps(task_doc(keypaths=[])))


def test_parse_task_missing_field_names_path():
    doc = task_doc()
    del doc["instruction"]
    with pytest.raises(SchemaError, match="instruction"):
        parse_task_file(json.dumps(doc))


def test_parse_task_end_in_keypath_rejected():
    doc = task_doc()
    doc["keypaths"][0].append({"action": "End", "target": "x"})
    with pytest.raises(SchemaError, match="End"):
        parse_task_file(json.dumps(doc))


def test_parse_task_normalizes_node_targets():
    doc = task_doc()
    doc["keypaths"][0][0]["target"] = "Kitchen Drawer"
    task = parse_task_file(json.dumps(doc))
    assert task.keypaths[0][0].target == "kitchen_drawer"


@pytest.mark.parametrize("task_id", ["../escaped", "a/b", "/", "nul\u0000id", "\u0000"],
                         ids=["dot-dot", "inner-slash", "slash", "inner-nul", "nul"])
def test_parse_task_id_that_names_no_file_is_refused(task_id):
    with pytest.raises(SchemaError) as raised:
        parse_task_file(json.dumps(task_doc(id=task_id)))
    assert str(raised.value) == f"task {task_id!r}.id: a task id holds no '/' or NUL"


@pytest.mark.parametrize("keypaths, index", [
    (((),), 0),
    (((node("Pick", "apple"),), ()), 1),
], ids=["only", "second"])
def test_task_with_an_empty_keypath_is_refused(keypaths, index):
    # task progress over an empty keypath would divide by zero
    with pytest.raises(SchemaError) as raised:
        Task("x", "do", frozenset({TaskAttribute.LOGICAL}), keypaths, 1, "s")
    assert str(raised.value) == f"task 'x'.keypaths[{index}]: keypath must be non-empty"


# ---------------------------------------------------------------------------
# trajectory logs


def log_doc(statuses=("success",) * 4, terminated_by="end"):
    steps = []
    for i, status in enumerate(statuses):
        entry = {
            "index": i + 1,
            "analysis": f"step {i + 1}",
            "action": "Pick",
            "target": "apple",
            "model": "RT-1-X",
            "status": status,
        }
        if status == "failure":
            entry["error_code"] = "E1"
            entry["message"] = "the subtask is too difficult to perform"
        entry["retries_used"] = 0
        steps.append(entry)
    if terminated_by == "end":
        steps.append({
            "index": len(steps) + 1, "analysis": "done", "action": "End",
            "target": "", "model": "M3", "status": "success", "retries_used": 0,
        })
    return {"task_id": "sample", "run_index": 0, "steps": steps,
            "terminated_by": terminated_by}


def test_parse_log_end_termination():
    trajectory = parse_trajectory_log(json.dumps(log_doc()))
    assert trajectory.terminated_by_end
    assert not trajectory.terminated_by_budget
    assert len(trajectory.steps) == 5


def test_parse_log_budget_termination():
    doc = log_doc(statuses=("success",) * 20, terminated_by="budget")
    trajectory = parse_trajectory_log(json.dumps(doc))
    assert trajectory.terminated_by_budget
    assert len(trajectory.steps) == 20


def test_parse_log_index_gap():
    doc = log_doc()
    doc["steps"][2]["index"] = 4
    with pytest.raises(SchemaError, match="gap|expected 3"):
        parse_trajectory_log(json.dumps(doc))


def test_parse_log_end_mid_trajectory():
    doc = log_doc()
    doc["steps"][1].update(action="End", target="", model="M3")
    with pytest.raises(InvariantError):
        parse_trajectory_log(json.dumps(doc))


def _end_log_whose_end_failed():
    doc = log_doc()
    doc["steps"][-1].update(status="failure", error_code="E1",
                            message="the subtask is too difficult to perform")
    return doc


@pytest.mark.parametrize("doc, message", [
    ({**log_doc(terminated_by="budget"), "terminated_by": "end"},
     "terminated_by_end requires a final End step"),
    (_end_log_whose_end_failed(), "terminated_by_end requires a final End step"),
    ({**log_doc(), "terminated_by": "budget"}, "a trajectory containing End terminates by end"),
], ids=["end-without-end-step", "end-whose-end-failed", "budget-ending-in-end"])
def test_parse_log_termination_must_agree_with_steps(doc, message):
    with pytest.raises(InvariantError, match=f"^{message}$"):
        parse_trajectory_log(json.dumps(doc))


def test_parse_log_f1_keeps_raw_strings():
    doc = log_doc(statuses=("success",))
    doc["steps"].insert(0, {
        "index": 1, "analysis": "??", "action": "Dance", "target": "floor",
        "model": "GPT-hands", "status": "failure", "error_code": "F1",
        "message": "You should only choose actions in the list", "retries_used": 0,
    })
    for i, entry in enumerate(doc["steps"]):
        entry["index"] = i + 1
    trajectory = parse_trajectory_log(json.dumps(doc))
    assert trajectory.steps[0].output.action == "Dance"
    assert trajectory.steps[0].output.model == "GPT-hands"


def test_parse_log_unknown_action_outside_f1():
    doc = log_doc()
    doc["steps"][0]["action"] = "Dance"
    with pytest.raises(SchemaError, match="Dance"):
        parse_trajectory_log(json.dumps(doc))


@pytest.mark.parametrize("fields, message", [
    ({"action": "Dance"}, "steps[0].action: unknown action 'Dance'"),
    # the action is checked first
    ({"action": "Dance", "model": "GPT-hands"}, "steps[0].action: unknown action 'Dance'"),
    ({"model": "GPT-hands"}, "steps[0].model: unknown model 'GPT-hands'"),
    ({"action": "End", "target": "kitchen", "model": "M3"},
     "steps[0].target: target must be non-empty iff action is not End"),
    ({"target": ""}, "steps[0].target: target must be non-empty iff action is not End"),
    # the rule applies to the normalized target
    ({"target": " __ "}, "steps[0].target: target must be non-empty iff action is not End"),
])
def test_parse_log_subtask_messages(fields, message):
    doc = log_doc()
    doc["steps"][0].update(fields)
    with pytest.raises(SchemaError) as info:
        parse_trajectory_log(json.dumps(doc))
    assert str(info.value) == message


F1_STEP = {
    "index": 1, "analysis": "??", "action": "Dance", "target": "floor",
    "model": "GPT-hands", "status": "failure", "error_code": "F1",
    "message": "You should only choose actions in the list", "retries_used": 0,
}
E1_STEP = {
    "index": 1, "analysis": "try", "action": "Pick", "target": "apple",
    "model": "RT-1-X", "status": "failure", "error_code": "E1",
    "message": "the subtask is too difficult to perform", "retries_used": 0,
}
NOT_STRINGS = [["a"], {"x": 1}, 7, None]


@pytest.mark.parametrize("value", NOT_STRINGS, ids=["list", "object", "number", "null"])
@pytest.mark.parametrize("field", ["analysis", "action", "target", "model", "status",
                                   "error_code"])
@pytest.mark.parametrize("first", [F1_STEP, E1_STEP], ids=["f1", "e1"])
def test_parse_log_step_text_fields_must_be_strings(first, field, value):
    doc = {"task_id": "sample", "run_index": 0, "terminated_by": "budget",
           "steps": [dict(first, **{field: value})]}
    with pytest.raises(SchemaError) as info:
        parse_trajectory_log(json.dumps(doc))
    assert str(info.value) == f"steps[0].{field}: expected a JSON string"


@pytest.mark.parametrize("value", NOT_STRINGS, ids=["list", "object", "number", "null"])
@pytest.mark.parametrize("field", ["task_id", "terminated_by"])
def test_parse_log_text_fields_must_be_strings(field, value):
    doc = dict(log_doc(), **{field: value})
    with pytest.raises(SchemaError) as info:
        parse_trajectory_log(json.dumps(doc))
    assert str(info.value) == f"log.{field}: expected a JSON string"


@pytest.mark.parametrize("doc, message", [
    ([log_doc()], "trajectory log must be a JSON object"),
    ("log", "trajectory log must be a JSON object"),
    (dict(log_doc(), steps={"0": {}}), "log.steps: expected a list"),
    (dict(log_doc(), steps=["step"]), "steps[0]: expected an object"),
    (dict(log_doc(), terminated_by="crash"),
     "log.terminated_by: expected 'end' or 'budget', got 'crash'"),
], ids=["list-log", "text-log", "object-steps", "text-step", "unknown-termination"])
def test_parse_log_shape_is_named(doc, message):
    with pytest.raises(SchemaError) as info:
        parse_trajectory_log(json.dumps(doc))
    assert str(info.value) == message


def test_parse_log_canonicalizes_outside_f1():
    doc = log_doc()
    doc["steps"][0].update(action=" pIck ", target="Kitchen-Table", model="rt1x")
    output = parse_trajectory_log(json.dumps(doc)).steps[0].output
    assert (output.action, output.target, output.model) == ("Pick", "kitchen_table", "RT-1-X")


def test_parse_log_wrong_canonical_message():
    doc = log_doc(statuses=("failure",))
    doc["steps"][0]["message"] = "too hard"
    with pytest.raises(SchemaError, match="canonical"):
        parse_trajectory_log(json.dumps(doc))


def test_parse_log_retries_bound():
    doc = log_doc()
    doc["steps"][0]["retries_used"] = 3
    with pytest.raises(SchemaError, match="retries_used"):
        parse_trajectory_log(json.dumps(doc))


def _first_step(**fields):
    doc = log_doc()
    doc["steps"][0].update(fields)
    return doc


@pytest.mark.parametrize("parse, doc, message", [
    (parse_trajectory_log, dict(log_doc(), run_index=True),
     "log.run_index: expected a non-negative integer"),
    (parse_trajectory_log, _first_step(index=True), "steps[0].index: expected an integer"),
    (parse_trajectory_log, _first_step(retries_used=False),
     "steps[0].retries_used: expected an integer in 0..2"),
    (parse_task_file, task_doc(expert_length=True,
                               keypaths=[[{"action": "Pick", "target": "short_can"}]]),
     "task 'sample'.expert_length: expected a positive integer"),
], ids=["run_index", "index", "retries_used", "expert_length"])
def test_json_boolean_is_not_an_integer(parse, doc, message):
    with pytest.raises(SchemaError) as info:
        parse(json.dumps(doc))
    assert str(info.value) == message


def test_log_roundtrip_byte_identical():
    text = serialize_trajectory(parse_trajectory_log(json.dumps(log_doc())))
    assert serialize_trajectory(parse_trajectory_log(text)) == text


def test_log_roundtrip_with_failures_and_f1():
    trajectory = traj([
        ("Go to", "drawer", True),
        ("dance", "floor", False, ErrorCode.F1),
        ("Pick", "apple", False, ErrorCode.D1),
        ("Pick", "apple", True),
    ])
    text = serialize_trajectory(trajectory)
    assert serialize_trajectory(parse_trajectory_log(text)) == text


@settings(max_examples=150, deadline=None)
@given(rng=st.randoms(use_true_random=False), run_index=st.integers(0, 9))
def test_log_parse_inverts_serialize(rng, run_index):
    trajectory = random_trajectory(rng, run_index=run_index)
    text = serialize_trajectory(trajectory)
    assert [s["index"] for s in json.loads(text)["steps"]] == list(
        range(1, len(trajectory.steps) + 1))
    assert parse_trajectory_log(text) == trajectory


def serialize_trajectory_by_dumps(trajectory):
    """Reference log writer: builds the log document and lets ``json.dumps``
    lay it out."""
    steps = []
    for index, step in enumerate(trajectory.steps, 1):
        doc = {
            "index": index,
            "analysis": step.output.analysis,
            "action": step.output.action,
            "target": step.output.target,
            "model": step.output.model,
            "status": step.feedback.status.value,
        }
        if step.feedback.code is not None:
            doc["error_code"] = step.feedback.code.value
            doc["message"] = step.feedback.message
        doc["retries_used"] = step.retries_used
        steps.append(doc)
    doc = {
        "task_id": trajectory.task_id,
        "run_index": trajectory.run_index,
        "steps": steps,
        "terminated_by": "end" if trajectory.terminated_by_end else "budget",
    }
    return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"


# text that JSON escapes, or writes as is only without ensure_ascii: quote,
# backslash, control characters, DEL, the line and paragraph separators, a
# non-BMP character and a lone surrogate
_AWKWARD_TEXT = st.text(
    st.characters() | st.sampled_from('"\\\x00\x1f\n\t\x7f\u2028\u2029\U0001F600\ud800é'),
    max_size=12,
)


@st.composite
def finished_trajectories(draw):
    steps = []
    for _ in range(draw(st.integers(0, 5))):
        code = draw(st.none() | st.sampled_from(list(ErrorCode)))
        analysis = draw(_AWKWARD_TEXT)
        if code is ErrorCode.F1:  # the planner's raw strings, kept as emitted
            output = PlannerOutput(analysis, draw(_AWKWARD_TEXT), draw(_AWKWARD_TEXT),
                                   draw(_AWKWARD_TEXT))
        else:
            action = draw(st.sampled_from([a for a in ActionType if a is not ActionType.END]))
            target = normalize_name(draw(_AWKWARD_TEXT)) or "thing"
            model = draw(st.sampled_from(list(ModelChoice)))
            output = PlannerOutput(analysis, action.value, target, model.value)
        feedback = SUCCESS if code is None else failure(code)
        steps.append(StepRecord(output, feedback, draw(st.integers(0, 2))))
    budget = draw(st.booleans())
    if not budget:
        steps.append(StepRecord(PlannerOutput(draw(_AWKWARD_TEXT), "End", "", "M3"), SUCCESS,
                                draw(st.integers(0, 2))))
    return Trajectory(draw(_AWKWARD_TEXT), tuple(steps),
                      run_index=draw(st.integers(0, 9) | st.integers(0, 2**80)))


def _has_lone_surrogate(text):
    return any("\ud800" <= char <= "\udfff" for char in text)


@settings(max_examples=examples(300), deadline=None)
@given(trajectory=finished_trajectories())
@example(trajectory=Trajectory("t1", ()))
@example(trajectory=Trajectory("t1", (), run_index=2**64))
def test_log_writer_equals_json_dumps(trajectory):
    text = serialize_trajectory(trajectory)
    assert text == serialize_trajectory_by_dumps(trajectory)
    if _has_lone_surrogate(text):  # a log reader names it rather than decoding it
        with pytest.raises(SchemaError, match="surrogate"):
            parse_trajectory_log(text)
    else:
        assert parse_trajectory_log(text) == trajectory


# ---------------------------------------------------------------------------
# trajectory construction invariants


def test_trajectory_end_must_be_final():
    steps = (
        step(ActionType.END, "", ok=True),
        step(ActionType.PICK, "apple", ok=True),
    )
    with pytest.raises(InvariantError, match="End must be the final step"):
        Trajectory("t", steps)


def test_trajectory_termination_is_read_from_its_steps():
    ended = traj([("Pick", "apple", True)])
    assert (ended.finished, ended.terminated_by_end, ended.terminated_by_budget) == \
        (True, True, False)
    budget = traj([("Pick", "apple", True)], budget=True)
    assert (budget.terminated_by_end, budget.terminated_by_budget) == (False, True)
    cut_off = Trajectory("t", budget.steps, cut_off="endpoint down")
    assert (cut_off.finished, cut_off.terminated_by_end, cut_off.terminated_by_budget) == \
        (False, False, False)
    with pytest.raises(InvariantError, match="a cut-off trajectory holds no End"):
        Trajectory("t", ended.steps, cut_off="endpoint down")


@pytest.mark.parametrize("fields", [
    ("Dance", "apple", "RT-1-X"),
    ("Pick", "apple", "GPT-hands"),
    ("End", "kitchen", "M3"),
    ("Pick", "", "RT-1-X"),
], ids=["unknown-action", "unknown-model", "end-with-target", "pick-without-target"])
def test_success_step_needs_valid_subtask(fields):
    output = PlannerOutput("a", *fields)
    assert output.subtask is None
    with pytest.raises(InvariantError, match="valid subtask"):
        StepRecord(output, SUCCESS)
    assert StepRecord(output, failure(ErrorCode.F1)).output is output


def test_trajectory_rejected_f1_end_is_not_termination():
    # an End-shaped emission rejected as F1 (e.g. bad model) must not count
    # as the terminating End
    steps = (
        step("End", "kitchen", ok=False, code=ErrorCode.F1),
        step(ActionType.PICK, "apple", ok=True),
    )
    trajectory = Trajectory("t", steps)
    assert trajectory.terminated_by_budget


# ---------------------------------------------------------------------------
# the log parser against the straightforward one it replaced
#
# _oracle_parse_log is the earlier parser, kept verbatim apart from its names
# and an uncached model lookup: one _require/_require_text call per field, one
# Enum call per status and code, one Feedback built per step. The fast parser
# must return an equal trajectory, or raise the same exception with the same
# message, on any damage to a valid log.


def _oracle_require(obj, key, where):
    if key not in obj:
        raise SchemaError(f"{where}: missing field {key!r}")
    return obj[key]


def _oracle_require_text(obj, key, where):
    value = _oracle_require(obj, key, where)
    if not isinstance(value, str):
        raise SchemaError(f"{where}.{key}: expected a JSON string")
    return value


def _oracle_parse_step(doc, pos):
    where = f"steps[{pos}]"
    if not isinstance(doc, dict):
        raise SchemaError(f"{where}: expected an object")
    index = _oracle_require(doc, "index", where)
    if type(index) is not int:
        raise SchemaError(f"{where}.index: expected an integer")
    if index != pos + 1:
        raise SchemaError(f"{where}.index: expected {pos + 1}, got {index}")
    analysis = _oracle_require_text(doc, "analysis", where)
    raw_action = _oracle_require_text(doc, "action", where)
    raw_target = _oracle_require_text(doc, "target", where)
    raw_model = _oracle_require_text(doc, "model", where)
    status_str = _oracle_require_text(doc, "status", where)
    try:
        status = StepStatus(status_str)
    except ValueError:
        raise SchemaError(f"{where}.status: unknown status {status_str!r}") from None

    code = None
    if status is StepStatus.FAILURE:
        code_str = _oracle_require_text(doc, "error_code", where)
        try:
            code = ErrorCode(code_str)
        except ValueError:
            raise SchemaError(f"{where}.error_code: unknown code {code_str!r}") from None
        message = doc.get("message", CANONICAL_MESSAGES[code])
        if message != CANONICAL_MESSAGES[code]:
            raise SchemaError(
                f"{where}.message: not the canonical message for {code.value}"
            )
    elif "error_code" in doc or "message" in doc:
        raise SchemaError(f"{where}: success steps carry no error_code/message")

    if code is ErrorCode.F1:
        output = PlannerOutput(analysis, raw_action, raw_target, raw_model)
    else:
        output = PlannerOutput(analysis, raw_action, normalize_name(raw_target), raw_model)
        subtask = output.subtask
        if subtask is None:
            if output.action_type is None:
                raise SchemaError(f"{where}.action: unknown action {raw_action!r}")
            if _MODEL_ALIASES.get(normalize_name(raw_model).replace("_", "")) is None:
                raise SchemaError(f"{where}.model: unknown model {raw_model!r}")
            raise SchemaError(f"{where}.target: target must be non-empty iff action is not End")
        if (output.action, output.model) != (subtask.action.label, subtask.model.label):
            output = PlannerOutput(
                analysis, subtask.action.label, subtask.target, subtask.model.label
            )

    retries = _oracle_require(doc, "retries_used", where)
    if type(retries) is not int or not 0 <= retries <= 2:
        raise SchemaError(f"{where}.retries_used: expected an integer in 0..2")

    try:
        return StepRecord(output, Feedback(code), retries)
    except InvariantError as exc:
        raise SchemaError(f"{where}: {exc}") from exc


def _oracle_parse_log(data):
    doc = read_json(data, "trajectory log")
    if not isinstance(doc, dict):
        raise SchemaError("trajectory log must be a JSON object")
    task_id = _oracle_require_text(doc, "task_id", "log")
    run_index = _oracle_require(doc, "run_index", "log")
    if type(run_index) is not int or run_index < 0:
        raise SchemaError("log.run_index: expected a non-negative integer")
    raw_steps = _oracle_require(doc, "steps", "log")
    if not isinstance(raw_steps, list):
        raise SchemaError("log.steps: expected a list")
    steps = [_oracle_parse_step(step, pos) for pos, step in enumerate(raw_steps)]
    terminated_by = _oracle_require_text(doc, "terminated_by", "log")
    if terminated_by not in ("end", "budget"):
        raise SchemaError(f"log.terminated_by: expected 'end' or 'budget', got {terminated_by!r}")
    trajectory = Trajectory(task_id=task_id, steps=tuple(steps), run_index=run_index)
    if terminated_by == "end" and not trajectory.terminated_by_end:
        raise InvariantError("terminated_by_end requires a final End step")
    if terminated_by == "budget" and trajectory.terminated_by_end:
        raise InvariantError("a trajectory containing End terminates by end")
    return trajectory


def _outcome(parse, data):
    """What ``parse`` made of ``data``: the trajectory with each step's four
    strings and derived fields, or the exception's type and message."""
    try:
        trajectory = parse(data)
    except (SchemaError, InvariantError) as exc:
        return type(exc), str(exc)
    return trajectory, [(s.output.analysis, s.output.action, s.output.target, s.output.model,
                         s.output.action_type, s.output.subtask) for s in trajectory.steps]


@functools.cache
def _valid_logs() -> tuple:
    """Valid log documents: a seeded run of every bundled task, and random
    trajectories where most steps fail (every error code, all three retry counts)."""
    with tempfile.TemporaryDirectory() as tmp:
        assert cli_main(["--seed", "7", "run", "--runs", "1", "--out", tmp]) == 0
        bundled = [json.loads(p.read_bytes()) for p in sorted(Path(tmp).glob("*.json"))]
    rng = random.Random(15)
    failing = []
    for run_index in range(12):
        trajectory = random_trajectory(rng, run_index=run_index)
        steps = [StepRecord(s.output, s.feedback, rng.randrange(3) if not s.feedback.ok else 0)
                 for s in trajectory.steps]
        trajectory = Trajectory(trajectory.task_id, steps, run_index)
        failing.append(json.loads(serialize_trajectory(trajectory)))
    return tuple(doc for doc in bundled + failing if doc["steps"])


_STEP_FIELDS = ["index", "analysis", "action", "target", "model", "status",
                "error_code", "message", "retries_used"]
_JUNK_TEXT = st.text(max_size=6)
# json.dumps escapes a lone surrogate, which read_json then names
_FIELD_VALUES = (st.none() | st.booleans() | st.integers(-2, 4) | st.floats(allow_nan=False)
                 | _JUNK_TEXT | st.lists(st.integers(0, 2), max_size=2)
                 | st.sampled_from(["", "Pick", "pick up", "End", "M3", "rt1x", " Kitchen-Table ",
                                    "success", "failure", "E1", "F1", "F3", "l1", "x\ud800",
                                    "\U0001F600"]))


@st.composite
def _damage(draw, step, pos):
    """Apply one damage to the step document at ``pos``, in place."""
    kind = draw(st.sampled_from(["delete", "replace", "index", "status", "code",
                                 "success-extra", "message", "junk-f1"]))
    field = draw(st.sampled_from(_STEP_FIELDS))
    if kind == "delete":
        step.pop(field, None)
    elif kind == "replace":
        step[field] = draw(_FIELD_VALUES)
    elif kind == "index":
        step["index"] = draw(st.sampled_from([True, False, pos, pos + 2]))
    elif kind == "status":
        step["status"] = draw(st.sampled_from(["Success", "failed", "", "failure"]))
    elif kind == "code":
        if draw(st.booleans()):
            step["error_code"] = draw(st.sampled_from(["E3", "f1", "L", " E1", "D2"]))
        else:  # a failure step with no code
            step["status"] = "failure"
            step.pop("error_code", None)
    elif kind == "success-extra":
        step["status"] = "success"
        step[draw(st.sampled_from(["error_code", "message"]))] = draw(
            st.sampled_from(["E1", "the subtask is too difficult to perform", ""]))
    elif kind == "message":
        step["message"] = draw(st.sampled_from(["too hard", "", "the hand is full"]))
    else:  # an F1 step whose strings are junk
        step.update(status="failure", error_code="F1",
                    message="You should only choose actions in the list")
        for name in ("action", "target", "model"):
            step[name] = draw(_JUNK_TEXT)


@settings(max_examples=examples(300), deadline=None)
@given(data=st.data())
def test_log_parser_matches_the_oracle_on_damaged_logs(data):
    doc = copy.deepcopy(data.draw(st.sampled_from(_valid_logs())))
    pos = data.draw(st.integers(0, len(doc["steps"]) - 1), label="pos")
    for _ in range(data.draw(st.integers(1, 2), label="damages")):
        data.draw(_damage(doc["steps"][pos], pos))
    text = json.dumps(doc)  # escapes every surrogate, as a log written by hand might
    expected = _outcome(_oracle_parse_log, text)
    assert _outcome(parse_trajectory_log, text) == expected
    assert _outcome(parse_trajectory_log, text.encode("utf-8")) == expected


def test_log_parser_matches_the_oracle_on_valid_logs():
    for doc in _valid_logs():
        text = json.dumps(doc)
        outcome = _outcome(parse_trajectory_log, text)
        assert isinstance(outcome[0], Trajectory)
        assert outcome == _outcome(_oracle_parse_log, text)


# ---------------------------------------------------------------------------
# one memo of parsed steps shared across a corpus
#
# A memo may answer only for a step that parsed cleanly. Each corpus below
# repeats clean steps, then damages a later copy of one: every log must still
# parse as the oracle parses it on its own, and _parse_logs must exclude the
# same files for the same reasons.

# values equal (or hash-equal) to a clean field's, of the wrong type; JSON
# nulls where a field may be absent; unhashable values; an extra key
_MEMO_DAMAGES = [
    ("retries_used", True), ("retries_used", 1.0), ("retries_used", False),
    ("retries_used", 0.0), ("index", True), ("index", 1.0),
    ("error_code", None), ("error_code", ["E1"]), ("error_code", {"E1": 1}),
    ("message", None), ("message", ["x"]), ("message", "too hard"),
    ("message", "the hand is full"), ("note", "an extra key"),
]


def _memo_outcome(memo):
    return lambda data: parse_trajectory_log(data, memo)


def _one_step_log(step_doc) -> dict:
    return {"task_id": "t1", "run_index": 0, "steps": [dict(step_doc, index=1)],
            "terminated_by": "budget"}


@pytest.mark.parametrize("field, value", _MEMO_DAMAGES)
@pytest.mark.parametrize("kind", ["failure", "success"])
def test_shared_memo_never_answers_for_a_damaged_copy(kind, field, value):
    # the clean step first: a failure that used one retry, or a success
    steps = [s for doc in _valid_logs() for s in doc["steps"]
             if (s["status"], s["retries_used"]) == (kind, 1 if kind == "failure" else 0)
             and s["action"] != "End"]
    clean = _one_step_log(steps[0])
    damaged = copy.deepcopy(clean)
    damaged["steps"][0][field] = value
    memo = {}
    for doc in (clean, damaged, clean):
        text = json.dumps(doc)
        assert _outcome(_memo_outcome(memo), text) == _outcome(_oracle_parse_log, text)
    assert len(memo) == 1  # the clean step; a parser that ignores a key shares its record


@st.composite
def _memo_damage(draw, step, pos):
    if draw(st.booleans()):
        field, value = draw(st.sampled_from(_MEMO_DAMAGES))
        step[field] = value
    else:
        draw(_damage(step, pos))


@settings(max_examples=examples(200), deadline=None)
@given(data=st.data())
def test_shared_memo_log_parsing_matches_the_oracle(data):
    logs = data.draw(st.lists(st.sampled_from(_valid_logs()), min_size=1, max_size=3),
                     label="clean logs")
    corpus = [json.dumps(doc) for doc in logs]
    for _ in range(data.draw(st.integers(1, 3), label="damaged copies")):
        doc = copy.deepcopy(data.draw(st.sampled_from(logs)))
        pos = data.draw(st.integers(0, len(doc["steps"]) - 1), label="pos")
        data.draw(_memo_damage(doc["steps"][pos], pos))
        corpus.append(json.dumps(doc))
    corpus.append(corpus[0])  # a clean copy after the damaged ones
    expected = [_outcome(_oracle_parse_log, text) for text in corpus]

    memo = {}
    assert [_outcome(_memo_outcome(memo), text) for text in corpus] == expected

    names = [f"log{i:02d}.json" for i in range(len(corpus))]
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in zip(names, corpus):
            (Path(tmp) / name).write_text(text, encoding="utf-8")
        trajectories, corrupt, _ = _parse_logs(Path(tmp))
    assert trajectories == [outcome[0] for outcome in expected
                            if isinstance(outcome[0], Trajectory)]
    assert corrupt == [(name, outcome[1]) for name, outcome in zip(names, expected)
                       if not isinstance(outcome[0], Trajectory)]


_MISSING = object()


def _grid_damages():
    """Each field deleted or set to each value, then each pair of fields
    deleted or made the wrong type, which pins which fault is named first."""
    values = [_MISSING, None, True, 0, 2, 1.5, [], "", "x", "rt1x", "End", " Kitchen-Table ",
              "success", "failure", "E3", "F1", "E1", "too hard"]
    for field in _STEP_FIELDS:
        for value in values:
            yield ((field, value),)
    for pair in itertools.combinations(_STEP_FIELDS, 2):
        for pair_values in itertools.product([_MISSING, None], [_MISSING, 1.5]):
            yield tuple(zip(pair, pair_values))


def test_log_parser_matches_the_oracle_on_every_field_damage():
    logs = [doc for doc in _valid_logs() if doc["task_id"] in ("office_reset", "t1")][:3]
    for doc in logs:
        for step in doc["steps"]:
            kept = dict(step)
            for damage in _grid_damages():
                for field, value in damage:
                    step.pop(field, None)
                    if value is not _MISSING:
                        step[field] = value
                text = json.dumps(doc)
                assert _outcome(parse_trajectory_log, text) == _outcome(_oracle_parse_log, text)
                step.clear()
                step.update(kept)


@settings(max_examples=examples(200), deadline=None)
@given(raw=st.text(st.characters() | st.characters(categories=["Cs"]))
       | st.sampled_from(["Go to", " GO_TO ", "put", "rt-1-x", "No MaD", "pix_nav"]))
def test_memoized_lookups_match_the_uncached_ones(raw):
    for _ in range(2):  # the second call is answered from the memo
        assert parse_action(raw) is _ACTION_ALIASES.get(normalize_name(raw))
        assert parse_model(raw) is _MODEL_ALIASES.get(normalize_name(raw).replace("_", ""))


def test_lookup_memos_are_bounded():
    for lookup in (parse_action, parse_model):
        size = lookup.cache_info().maxsize
        assert size is not None
        for i in range(size + 10):
            lookup(f"junk {i}")
        assert lookup.cache_info().currsize == size


# ---------------------------------------------------------------------------
# the one output writer


@settings(max_examples=examples(200), deadline=None)
@given(parts=st.lists(st.text(max_size=6) | st.text(min_size=12, max_size=30)
                      | st.sampled_from(["\n", "café ☕", "\u2028", "😀" * 9]), max_size=12),
       chunk=st.integers(1, 10))
def test_write_output_writes_the_joined_parts_as_utf8(parts, chunk):
    # a chunk of 1 to 10 characters, so parts land on both sides of every
    # write, and many are larger than the chunk
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(core, "OUTPUT_CHUNK", chunk):
        path = Path(tmp) / "out.txt"
        path.write_bytes(b"an older, longer file \xff" * 4)
        write_output(path, iter(parts))
        assert path.read_bytes() == "".join(parts).encode("utf-8")


class _HandleSpy:
    """``core.open``'s file object, noting each write's size and each cut's
    position in ``calls``."""

    def __init__(self, calls, *args, **kwargs):
        self.calls = calls
        self.handle = open(*args, **kwargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.handle.close()

    def write(self, data):
        self.calls.append(("write", len(data)))
        return self.handle.write(data)

    def truncate(self):
        self.calls.append(("truncate", self.handle.tell()))
        return self.handle.truncate()

    def __getattr__(self, name):
        return getattr(self.handle, name)


def test_write_output_joins_parts_into_writes_of_about_a_chunk(tmp_path, monkeypatch):
    calls = []
    monkeypatch.setattr(core, "open", functools.partial(_HandleSpy, calls), raising=False)
    part = "{\"prompt\": \"x\"}\n" * 64  # 1,024 characters
    count = 3 * (core.OUTPUT_CHUNK // len(part)) + 10
    write_output(tmp_path / "big.jsonl", (part for _ in range(count)))
    assert (tmp_path / "big.jsonl").read_bytes() == (part * count).encode("utf-8")
    sizes = [size for call, size in calls if call == "write"]
    # no write holds the whole file, and none but the last is short of a chunk
    assert len(sizes) == 4
    assert all(core.OUTPUT_CHUNK <= size < core.OUTPUT_CHUNK + len(part) for size in sizes[:-1])
    write_output(tmp_path / "small.json", ("{", "}\n"))
    assert calls[4:] == [("write", 3)] and (tmp_path / "small.json").read_bytes() == b"{}\n"


def test_write_output_encodes_strictly(tmp_path):
    with pytest.raises(UnicodeEncodeError):
        write_output(tmp_path / "out.txt", ["fine", "a lone surrogate \ud800"])


@pytest.mark.parametrize("older", [None, b"", b"{", b"abc", b"an older, longer file \xff\n" * 40],
                         ids=["absent", "empty", "shorter", "as-long", "longer"])
def test_write_output_overwrites_in_place_and_cuts_only_a_longer_tail(tmp_path, monkeypatch,
                                                                      older):
    path = tmp_path / "out.json"
    if older is not None:
        path.write_bytes(older)
    inode = path.stat().st_ino if older is not None else None
    calls = []
    monkeypatch.setattr(core, "open", functools.partial(_HandleSpy, calls), raising=False)
    write_output(path, ["{", "}\n"])  # longer, shorter or as long as the older file
    assert path.read_bytes() == b"{}\n"
    assert inode in (None, path.stat().st_ino)
    # only a file that held more than the new bytes is cut
    assert calls == [("write", 3)] + ([("truncate", 3)] if older and len(older) > 3 else [])


def test_write_output_that_fails_partway_leaves_only_what_it_wrote(tmp_path, monkeypatch):
    monkeypatch.setattr(core, "OUTPUT_CHUNK", 3)
    path = tmp_path / "out.jsonl"
    path.write_bytes(b"an older, longer file \xff\n" * 40)
    with pytest.raises(UnicodeEncodeError):
        write_output(path, ["abc", "def", "g", "h\ud800", "never"])
    # the first two chunks went out; none of the older file is left behind them
    assert path.read_bytes() == b"abcdef"


def test_write_output_opens_without_truncating(tmp_path, monkeypatch):
    flags = []
    real_open = os.open

    def spy(path, flag, *args):
        flags.append(flag)
        return real_open(path, flag, *args)

    monkeypatch.setattr(os, "open", spy)
    write_output(tmp_path / "out.json", ["{}\n"])
    assert len(flags) == 1
    assert not flags[0] & os.O_TRUNC
    assert flags[0] & os.O_CREAT and flags[0] & os.O_WRONLY
    assert flags[0] & getattr(os, "O_CLOEXEC", 0) == getattr(os, "O_CLOEXEC", 0)


def test_write_output_to_the_null_device_cuts_nothing():
    write_output(os.devnull, ["nothing ", "kept\n"])  # ftruncate would raise EINVAL here


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_write_output_to_a_pipe_cuts_nothing(tmp_path):
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    received = []

    def drain():
        with open(fifo, "rb") as reader:
            received.append(reader.read())

    reader = threading.Thread(target=drain, daemon=True)
    reader.start()
    write_output(fifo, ["through ", "a pipe\n"])  # ftruncate would raise ESPIPE here
    reader.join(timeout=30)
    assert not reader.is_alive()
    assert received == [b"through a pipe\n"]
