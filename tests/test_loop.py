import collections
import dataclasses
import json
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homebench.core import (
    SUCCESS,
    ActionType,
    ConfigError,
    ErrorCode,
    InvariantError,
    MissingScene,
    ModelChoice,
    PlannerOutput,
    PlannerTransportError,
    StepRecord,
    escape_surrogates,
    failure,
    make_end_output,
    serialize_output,
    serialize_trajectory,
)
from homebench import loop, sim
from homebench.cli import _bundled, _load_scenes, _load_task_map, _planner_factory
from homebench.loop import (
    DEFAULT_SYSTEM_INFO,
    EpisodeState,
    Instruction,
    apply_feedback,
    assemble_instruction,
    parse_planner_output,
    replay_instructions,
    run_benchmark,
    run_episode,
    stable_seed,
)
from homebench.planners import ScriptedPlanner, Transcribed
from homebench.sim import EntityKind, OpenState, load_scene, observe

from conftest import assemble_eagerly, examples, make_task, replay_eagerly, traj
from test_sim import scene_doc
from test_sim_properties import oracle_observe, scene_docs


def out(action, target, model="RT-1-X", analysis="because"):
    return PlannerOutput(analysis, action, target, model)


def fresh_state(**overrides):
    defaults = dict(
        task_text="put the apple on the table",
        scene=load_scene(scene_doc()),
    )
    defaults.update(overrides)
    return EpisodeState(**defaults)


# ---------------------------------------------------------------------------
# instruction assembly


def test_fresh_instruction_placeholders():
    state = fresh_state(task_text="tidy up")
    text = assemble_instruction(state).text
    assert "Inventory: empty" in text
    assert "History:\nnone" in text
    assert "Feedback: none" in text


def test_instruction_reflects_pick_and_history():
    state = fresh_state()
    output = out("Pick", "apple")
    apply_feedback(state, StepRecord(output, SUCCESS))
    text = assemble_instruction(state).text
    assert "Inventory: apple" in text
    assert "1. Pick apple -> success" in text
    assert "Feedback: success" in text


def test_instruction_deterministic_bytes():
    a = assemble_instruction(fresh_state()).text
    b = assemble_instruction(fresh_state()).text
    assert a == b


def test_instruction_parts_order():
    state = fresh_state()
    text = assemble_instruction(state).text
    assert text.startswith(DEFAULT_SYSTEM_INFO)
    positions = [
        len(DEFAULT_SYSTEM_INFO),
        text.index("Task:"),
        text.index("Inventory:"),
        text.index("History:"),
        text.index("Feedback:"),
        text.index("Observations:"),
        text.index("front:"),
    ]
    assert positions == sorted(positions)


def test_feedback_code_embedded_and_recoverable():
    state = fresh_state()
    apply_feedback(state, StepRecord(out("Pick", "drawer"), failure(ErrorCode.D1)))
    instruction = assemble_instruction(state)
    assert "failure (D1): the target is far away" in instruction.feedback
    assert instruction.feedback_code is ErrorCode.D1


def test_history_analysis_not_replayed():
    state = fresh_state()
    apply_feedback(state, StepRecord(out("Pick", "apple", analysis="SECRET-REASONING"),
                                     SUCCESS))
    assert "SECRET-REASONING" not in assemble_instruction(state).text


def test_observations_render_on_first_read_as_text():
    # ==, hash, repr and dataclasses.replace see the text a renderer gives
    state = fresh_state()
    apply_feedback(state, StepRecord(out("Pick", "apple"), SUCCESS))
    eager = assemble_eagerly(state)
    assert assemble_instruction(state) == eager
    assert hash(assemble_instruction(state)) == hash(eager)
    assert repr(assemble_instruction(state)) == repr(eager)
    replaced = dataclasses.replace(assemble_instruction(state), history="none")
    assert replaced.observations == eager.observations
    assert Instruction(*["part"] * 6).observations == "part"


# ---------------------------------------------------------------------------
# output parsing


def test_parse_well_formed():
    raw = '{"analysis":"need fruit","subtask":["Go to","fridge"],"model":"NoMaD"}'
    output = parse_planner_output(raw)
    assert output.action == "Go to"
    assert output.target == "fridge"
    assert output.model == "NoMaD"


def test_parse_fenced_with_prose():
    raw = (
        "Sure! Here is my next move:\n```json\n"
        '{"analysis": "need fruit", "subtask": ["Go to", "fridge"], "model": "NoMaD"}'
        "\n```\nLet me know."
    )
    output = parse_planner_output(raw)
    assert (output.action, output.target, output.model) == ("Go to", "fridge", "NoMaD")


def test_parse_skips_broken_object_before_valid_one():
    raw = '{oops {"analysis": "a", "subtask": ["Pick", "apple"], "model": "M3"}'
    output = parse_planner_output(raw)
    assert output.action == "Pick"


def test_parse_preserves_unknown_action_for_validation():
    output = parse_planner_output('{"analysis":"a","subtask":["grab","apple"],"model":"M3"}')
    assert output.action == "grab"
    assert output.subtask is None


def test_parse_subtask_dict_form():
    raw = '{"analysis":"a","subtask":{"action":"Open","target":"Fridge"},"model":"Octo"}'
    output = parse_planner_output(raw)
    assert (output.action, output.target) == ("Open", "fridge")


def test_parse_end_single_element():
    output = parse_planner_output('{"analysis":"done","subtask":["End"],"model":"M3"}')
    assert output.is_end
    assert output.subtask is not None


@pytest.mark.parametrize("raw, fields", [
    ('{"analysis": "a", "subtask": ["Pick", 3], "model": "M3"}', ("a", "Pick", "3", "M3")),
    ('{"analysis": 1.5, "subtask": {"action": "Pick", "target": true}, "model": 7}',
     ("1.5", "Pick", "true", "7")),
    ('{"analysis": false, "subtask": ["End"], "model": "M3"}', ("False", "End", "", "M3")),
], ids=["number-target", "number-and-boolean", "boolean-analysis"])
def test_parse_scalar_fields_read_as_text(raw, fields):
    # a JSON number or boolean is read as its Python text, then normalized;
    # the closed lists are checked later, so a number is no valid model
    output = parse_planner_output(raw)
    assert (output.analysis, output.action, output.target, output.model) == fields
    assert (output.subtask is None) == (output.model == "7")


@pytest.mark.parametrize("raw", [
    "I refuse to answer.",
    '{"subtask":["grab","apple"],"model":"M3"}',
    '{"analysis": "a", "model": "M3"}',
    '{"analysis": "a", "subtask": ["Pick", "apple"]}',
    '{"analysis": {"x": 1}, "subtask": ["Pick", "apple"], "model": "M3"}',
    '{"analysis": null, "subtask": ["Pick", "apple"], "model": "M3"}',
    '{"analysis": "a", "subtask": ["Pick", "apple"], "model": ["M3"]}',
    '{"analysis":"a","subtask":"pick apple","model":"M3"}',
    '{"analysis": "a", "subtask": [], "model": "M3"}',
    '{"analysis": "a", "subtask": ["Pick", "apple", "now"], "model": "M3"}',
    '{"analysis": "a", "subtask": [["Pick"], "apple"], "model": "M3"}',
    '{"analysis": "a", "subtask": ["Pick", null], "model": "M3"}',
    '{"analysis": "a", "subtask": {"target": "apple"}, "model": "M3"}',
    '{"analysis": "a\ud83d", "subtask": ["Pick", "apple"], "model": "M3"}',
    '{"analysis": "a\\ud83d", "subtask": ["Pick", "apple"], "model": "M3"}',
    'note \udc80 {"analysis": "a", "subtask": ["Pick", "apple"], "model": "M3"}',
], ids=["no-object", "missing-analysis", "missing-subtask", "missing-model", "object-analysis",
        "null-analysis", "list-model", "string-subtask", "empty-subtask", "long-subtask",
        "list-action", "null-target", "dict-without-action", "lone-surrogate",
        "escaped-lone-surrogate", "lone-surrogate-in-prose"])
def test_parse_non_scalar_fields_fail(raw):
    # every reply that does not parse, not only one with a non-scalar field,
    # reads as the F1 form run_episode logs: the raw reply, escaped, as the
    # analysis and no subtask
    output = parse_planner_output(raw)
    assert output == PlannerOutput(escape_surrogates(raw), "", "", "")
    assert output.subtask is None


# ---------------------------------------------------------------------------
# validation


def test_validate_ok():
    assert out("Pick", "apple").subtask is not None


def test_validate_unknown_action_message():
    assert out("Jump", "sofa").subtask is None
    task = make_task(task_id="demo")
    planner = ScriptedPlanner([plan_entry("Jump", "sofa"), plan_entry("End", "")])
    verdict = run_episode(load_scene(scene_doc()), planner, task).steps[0].feedback
    assert verdict.code is ErrorCode.F1
    assert verdict.message == "You should only choose actions in the list"


def test_validate_unknown_model():
    assert out("Pick", "apple", model="GPT-hands").subtask is None


def test_validate_end_with_target_demoted():
    assert out("End", "kitchen", model="M3").subtask is None


def test_validate_missing_target():
    assert out("Pick", "").subtask is None


# ---------------------------------------------------------------------------
# feedback application


def test_apply_pick_sets_inventory():
    state = fresh_state()
    apply_feedback(state, StepRecord(out("Pick", "apple"), SUCCESS))
    assert state.held == "apple"


def test_apply_place_clears_inventory():
    state = fresh_state(held="apple")
    apply_feedback(state, StepRecord(out("Place", "table"), SUCCESS))
    assert state.held is None


def test_apply_e2_adopts_correction():
    state = fresh_state(held="apple")
    before_obs = observe(state.scene)
    apply_feedback(state, StepRecord(out("Place", "table"), failure(ErrorCode.E2)))
    assert state.held is None
    assert observe(state.scene) == before_obs
    assert "the object is missing" in assemble_instruction(state).feedback


def test_apply_logged_pick_with_full_hand_takes_its_target():
    # a log is authoritative: a successful Pick puts its target in the hand,
    # whatever the hand held before
    state = fresh_state(held="banana")
    apply_feedback(state, StepRecord(out("Pick", "apple"), SUCCESS))
    assert state.held == "apple"
    assert state.scene.entities["apple"].location == "@hand"
    task = make_task(task_id="demo")
    logged = traj([("Pick", "banana", True), ("Pick", "apple", True)], task_id="demo")
    prompts = replay_instructions(logged, task, scene=load_scene(scene_doc()))
    assert [p.inventory for p in prompts] == ["empty", "banana", "apple"]


def test_apply_feedback_moves_the_scene():
    # the fold applies each step's outcome to the scene, as live play does
    state = fresh_state()
    apply_feedback(state, StepRecord(out("Open", "fridge", model="Octo"), SUCCESS))
    assert state.scene.entities["fridge"].open_state is OpenState.OPEN
    apply_feedback(state, StepRecord(out("Pick", "apple"), SUCCESS))
    assert state.scene.entities["apple"].location == "@hand"
    apply_feedback(state, StepRecord(out("Go to", "table", model="NoMaD"), SUCCESS))
    assert state.scene.agent.at == "table"
    apply_feedback(state, StepRecord(out("Place", "drawer"), failure(ErrorCode.E2)))
    assert state.held is None
    assert state.scene.entities["apple"].location == "table"  # fell at the agent's spot
    assert "apple (reachable)" in assemble_instruction(state).observations


def test_apply_failure_leaves_inventory_and_observations():
    state = fresh_state(held="apple")
    before_obs = observe(state.scene)
    apply_feedback(state, StepRecord(out("dance", "floor", model=""), failure(ErrorCode.F1)))
    assert state.held == "apple"
    assert observe(state.scene) == before_obs
    assert len(state.steps) == 1


# ---------------------------------------------------------------------------
# episodes


def plan_entry(action, target, model="RT-1-X", analysis="scripted"):
    if action == "End":
        return serialize_output(make_end_output(analysis))
    return json.dumps({"analysis": analysis, "subtask": [action, target], "model": model})


def test_episode_scripted_plan_to_end():
    task = make_task(task_id="demo")
    planner = ScriptedPlanner([
        plan_entry("Open", "fridge", "Octo"),
        plan_entry("Pick", "banana"),
        plan_entry("Go to", "table", "NoMaD"),
        plan_entry("Place", "drawer"),
        plan_entry("End", ""),
    ])
    scene = load_scene(scene_doc())
    trajectory = run_episode(scene, planner, task)
    assert len(trajectory.steps) == 5
    assert trajectory.terminated_by_end
    assert all(s.feedback.ok for s in trajectory.steps)


def test_episode_refusal_planner_burns_budget_as_f1():
    task = make_task(task_id="demo")

    class Refuser:
        def next(self, instruction):
            return "I would rather dance."

    trajectory = run_episode(load_scene(scene_doc()), Refuser(), task, budget=20)
    assert len(trajectory.steps) == 20
    assert trajectory.terminated_by_budget
    assert all(s.feedback.code is ErrorCode.F1 for s in trajectory.steps)


def test_episode_e1_retries_within_step():
    task = make_task(task_id="demo")
    doc = scene_doc(outcome_schedule={"pick apple": ["E1", "E1", "ok"]})
    planner = ScriptedPlanner([plan_entry("Pick", "apple"), plan_entry("End", "")])
    trajectory = run_episode(load_scene(doc), planner, task)
    pick = trajectory.steps[0]
    assert pick.feedback.ok
    assert pick.retries_used == 2
    assert len(trajectory.steps) == 2


def test_episode_e1_exhausts_attempts():
    task = make_task(task_id="demo")
    doc = scene_doc(outcome_schedule={"pick apple": ["E1", "E1", "E1"]})
    planner = ScriptedPlanner([plan_entry("Pick", "apple"), plan_entry("End", "")])
    trajectory = run_episode(load_scene(doc), planner, task)
    pick = trajectory.steps[0]
    assert pick.feedback.code is ErrorCode.E1
    assert pick.retries_used == 2


def test_episode_l_failures_not_retried():
    task = make_task(task_id="demo")
    planner = ScriptedPlanner([plan_entry("Pick", "banana"), plan_entry("End", "")])
    trajectory = run_episode(load_scene(scene_doc()), planner, task)
    pick = trajectory.steps[0]
    assert pick.feedback.code is ErrorCode.L3
    assert pick.retries_used == 0


def test_episode_budget_cap_and_step_count():
    task = make_task(task_id="demo")
    planner = ScriptedPlanner([plan_entry("Go to", "table", "NoMaD")] * 50)
    trajectory = run_episode(load_scene(scene_doc()), planner, task, budget=5)
    assert len(trajectory.steps) == 5
    assert trajectory.terminated_by_budget


def test_episode_transport_error_carries_partial():
    task = make_task(task_id="demo")

    class Flaky:
        def __init__(self):
            self.calls = 0

        def next(self, instruction):
            self.calls += 1
            if self.calls == 3:
                raise PlannerTransportError("socket torn")
            return plan_entry("Go to", "table", "NoMaD")

    planner = Flaky()
    trajectory = run_episode(load_scene(scene_doc()), planner, task, run_index=4)
    assert planner.calls == 3  # the episode stops at the failed query
    assert (trajectory.task_id, trajectory.run_index, len(trajectory.steps)) == ("demo", 4, 2)
    assert trajectory.cut_off == "socket torn"
    assert not trajectory.finished and not trajectory.terminated_by_budget


def test_episode_f2_only_from_executor_f1_only_from_loop():
    task = make_task(task_id="demo")
    planner = ScriptedPlanner([
        plan_entry("Pick", "unicorn"),
        "gibberish",
        plan_entry("End", ""),
    ])
    trajectory = run_episode(load_scene(scene_doc()), planner, task)
    assert trajectory.steps[0].feedback.code is ErrorCode.F2
    assert trajectory.steps[1].feedback.code is ErrorCode.F1


FAILING_SCENE = dict(
    failure_rates={"e1_manipulation": 0.2, "e1_navigation": 0.2, "e2_place": 0.3},
    outcome_schedule={"pick apple": ["E1", "E1", "E1", "E1", "ok"],
                      "place drawer": ["E2"]},
)


@pytest.mark.parametrize("overrides", [{}, FAILING_SCENE], ids=["plain", "e1-e2"])
def test_episode_history_fidelity(overrides):
    # live prompts must equal the replayed ones, also across E1 retries
    # and an E2 that drops the held object
    task = make_task(task_id="demo")
    planner = Transcribed(ScriptedPlanner([
        plan_entry("Open", "fridge", "Octo"),
        plan_entry("Pick", "apple"),
        plan_entry("Pick", "apple"),
        plan_entry("Go to", "table", "NoMaD"),
        plan_entry("Place", "drawer"),
        plan_entry("Pick", "apple"),
        plan_entry("Place", "drawer"),
        plan_entry("Pick", "banana"),
        plan_entry("Pick", "unicorn"),
        "gibberish",
        plan_entry("End", ""),
    ]))
    trajectory = run_episode(load_scene(scene_doc(**overrides)), planner, task)
    transcript = planner.transcript
    assert trajectory.terminated_by_end
    assert len(transcript) == len(trajectory.steps)
    if overrides:
        codes = [s.feedback.code for s in trajectory.steps]
        assert ErrorCode.E1 in codes and ErrorCode.E2 in codes
        assert any(s.feedback.ok and s.retries_used for s in trajectory.steps)
    replayed = replay_instructions(
        trajectory, task, scene=load_scene(scene_doc(**overrides)),
    )
    assert [i.text for i in replayed] == [e["instruction"] for e in transcript]


def _reply(action: str, target: str, model: str) -> str:
    subtask = [action, target] if target else [action]
    return json.dumps({"analysis": "drawn", "subtask": subtask, "model": model})


@st.composite
def plans(draw, scene):
    """Random planner replies for ``scene``. Most moves name a skill and a
    target, often after a Go to it so that the skill can succeed; a carry
    picks an object up and places it onto anything; an L4 move acts on a
    target of the wrong kind (a Pick of a container or a spot, a Place onto
    an object, an Open of an object); a few are End, gibberish, or name an
    action, target or model outside the lists."""
    names = list(scene.entities)
    kinds = {kind: [name for name in names if scene.entities[name].kind is kind]
             for kind in EntityKind}
    objects = kinds[EntityKind.OBJECT]
    l4 = [(action, name) for action, kind in (("Pick", EntityKind.CONTAINER),
                                              ("Pick", EntityKind.SPOT),
                                              ("Place", EntityKind.OBJECT),
                                              ("Open", EntityKind.OBJECT))
          for name in kinds[kind]]  # never empty: a scene has a spot
    junk = [plan_entry("End", ""), "gibberish", _reply("Dance", names[0], "M3"),
            _reply("Pick", "nowhere", "M3"), _reply("Pick", names[0], "Gizmo"),
            _reply("Open", "", "Octo"), _reply("End", names[0], "M3")]
    skills = ["Go to", "Pick", "Place", "Open", "Close"]
    models = [model.label for model in ModelChoice]
    replies = []
    for _ in range(draw(st.integers(4, 12))):
        move = draw(st.sampled_from(["skill", "skill", "carry", "carry", "l4", "junk"]))
        if move == "junk":
            replies.append(draw(st.sampled_from(junk)))
            continue
        if move == "carry" and objects:
            thing, onto = draw(st.sampled_from(objects)), draw(st.sampled_from(names))
            steps = [("Go to", thing), ("Pick", thing), ("Go to", onto), ("Place", onto)]
        elif move == "l4":
            steps = [draw(st.sampled_from(l4))]
        else:
            target = draw(st.sampled_from(names))
            steps = [("Go to", target)] if draw(st.booleans()) else []
            steps.append((draw(st.sampled_from(skills)), target))
        for action, target in steps:
            replies.append(_reply(action, target, draw(st.sampled_from(models))))
    return replies


@settings(max_examples=examples(150), deadline=None)
@given(data=st.data())
def test_replayed_prompts_equal_live_prompts(data):
    """Random plans on random scenes, with seeded E1 and E2 draws and 1 to
    3 attempts per step: every prompt replayed from the log is the prompt
    the planner saw, byte for byte, and the replayed scene ends as the live
    one."""
    doc = data.draw(scene_docs())
    template = load_scene(doc)
    plan = data.draw(plans(template))
    task = make_task(task_id="generated", scene="generated")
    live = template.clone(seed=data.draw(st.integers(0, 2**16)))
    planner = Transcribed(ScriptedPlanner(plan))
    trajectory = run_episode(live, planner, task,
                             budget=data.draw(st.integers(1, 50)),
                             retries=data.draw(st.integers(1, 3)))
    replayed = load_scene(doc)
    instructions = replay_instructions(trajectory, task, scene=replayed)
    assert [i.text for i in instructions] == \
        [entry["instruction"] for entry in planner.transcript]
    assert replayed.entities == live.entities
    assert observe(replayed) == observe(live)


def count_observe(monkeypatch) -> list:
    """Count every observation render from here on, the loop's and the
    simulator's own name alike."""
    calls = []

    def counting_observe(scene):
        calls.append(scene)
        return observe(scene)

    monkeypatch.setattr(loop, "observe", counting_observe)
    monkeypatch.setattr(sim, "observe", counting_observe)
    return calls


def test_one_observe_per_prompt(monkeypatch):
    # observations are rendered when a prompt is first read and nowhere
    # else: not at episode start, not after the step that exhausts the budget
    scene = load_scene(scene_doc(**FAILING_SCENE))
    replay_scene = load_scene(scene_doc(**FAILING_SCENE))
    calls = count_observe(monkeypatch)
    task = make_task(task_id="demo")
    planner = Transcribed(ScriptedPlanner([
        plan_entry("Open", "fridge", "Octo"),
        plan_entry("Pick", "apple"),
        plan_entry("Pick", "apple"),
        plan_entry("Go to", "table", "NoMaD"),
        plan_entry("Place", "drawer"),
    ]))
    trajectory = run_episode(scene, planner, task, budget=5)
    assert trajectory.terminated_by_budget
    codes = [s.feedback.code for s in trajectory.steps]
    assert ErrorCode.E1 in codes and codes[-1] is ErrorCode.E2
    assert len(calls) == len(planner.transcript) == 5

    calls.clear()
    replayed = replay_instructions(trajectory, task, scene=replay_scene)
    assert len(calls) == len(replayed) == 5


@st.composite
def schedules(draw, doc):
    """Outcome schedules for ``doc``: E1 and ok draws for Picks of its
    interactive objects, and E1, E2 and ok draws for Places onto its
    interactive containers and spots."""
    interactive = [e for e in doc["entities"] if e.get("interactive", True)]
    outcomes = {f"{ActionType.PICK.token} {e['name']}": ["ok", "E1"]
                for e in interactive if e["kind"] == "object"}
    for name in ([e["name"] for e in interactive if e["kind"] == "container"]
                 + [s["name"] for s in doc["spots"]]):
        outcomes[f"{ActionType.PLACE.token} {name}"] = ["ok", "E1", "E2"]
    keys = draw(st.lists(st.sampled_from(sorted(outcomes)), max_size=3, unique=True))
    return {key: draw(st.lists(st.sampled_from(outcomes[key]), min_size=1, max_size=4))
            for key in keys}


@settings(max_examples=examples(150), deadline=None)
@given(data=st.data())
def test_prompts_read_in_next_equal_eager_assembly(data):
    """Random plans with error-code branches and F1 replies, on random
    scenes with E1/E2 schedules and rates: every prompt a transcript records
    (its observations first read inside ``next``) is the prompt an eager
    assembly renders at that step, and the replayed instructions equal the
    eager ones."""
    doc = data.draw(scene_docs())
    doc["outcome_schedule"] = data.draw(schedules(doc))
    template = load_scene(doc)
    plan = data.draw(plans(template))
    codes = data.draw(st.sets(st.sampled_from(list(ErrorCode)), max_size=3))
    branches = {code.value: data.draw(st.sampled_from(plan)) for code in codes}
    task = make_task(task_id="generated", scene="generated")
    planner = Transcribed(ScriptedPlanner(plan, branches))
    trajectory = run_episode(template.clone(seed=data.draw(st.integers(0, 2**16))), planner,
                             task, budget=data.draw(st.integers(1, 50)),
                             retries=data.draw(st.integers(1, 3)))
    expected = replay_eagerly(trajectory, task, load_scene(doc))
    assert [entry["instruction"] for entry in planner.transcript] == [i.text for i in expected]
    assert replay_instructions(trajectory, task, load_scene(doc)) == expected


@pytest.mark.parametrize("transcribed", [False, True], ids=["scripted", "transcribed"])
def test_bundled_play_renders_only_the_observations_read(monkeypatch, transcribed):
    # a scripted planner reads only the feedback code, so its episodes
    # render no observation after load_scene; a transcript reads each prompt
    tasks = _load_task_map(_bundled("tasks"))
    scenes = _load_scenes(_bundled("scenes"), tasks)
    scripted = _planner_factory("scripted:", {}, tasks)
    planners = []

    def factory(task, run_index):
        planner = scripted(task, run_index)
        if transcribed:
            planner = Transcribed(planner)
        planners.append(planner)
        return planner

    calls = count_observe(monkeypatch)
    trajectories = run_benchmark([tasks[t] for t in sorted(tasks)], factory, scenes,
                                 runs_per_task=2, seed=7)
    prompts = sum(len(t.steps) for t in trajectories)
    assert len(trajectories) == 24 and prompts > 24
    if transcribed:
        assert len(calls) == sum(len(p.transcript) for p in planners) == prompts
    else:
        assert calls == []


class Stashing:
    """Answers from ``plan`` and keeps every instruction it was given."""

    def __init__(self, plan):
        self.planner = ScriptedPlanner(plan)
        self.seen = []

    def next(self, instruction):
        self.seen.append(instruction)
        return self.planner.next(instruction)


STASHED_PLAN = [plan_entry("Open", "fridge", "Octo"), plan_entry("Pick", "apple"),
                plan_entry("End", "")]


def test_first_read_on_the_next_call_is_refused():
    class ReadsLate(Stashing):
        def next(self, instruction):
            if self.seen:
                self.seen[-1].observations  # the previous step is folded by now
            return super().next(instruction)

    with pytest.raises(InvariantError, match="before step 1 were first read after"):
        run_episode(load_scene(scene_doc()), ReadsLate(STASHED_PLAN), make_task(task_id="demo"))


def test_first_read_after_the_episode_is_refused():
    planner = Stashing(STASHED_PLAN)
    trajectory = run_episode(load_scene(scene_doc()), planner, make_task(task_id="demo"))
    assert len(planner.seen) == len(trajectory.steps) == 3
    for n, instruction in enumerate(planner.seen, 1):
        with pytest.raises(InvariantError, match=f"before step {n} were first read after"):
            instruction.observations
        with pytest.raises(InvariantError):
            instruction.text


def test_read_during_next_is_kept_after_the_episode():
    class ReadsInNext(Stashing):
        def next(self, instruction):
            instruction.text
            return super().next(instruction)

    task = make_task(task_id="demo")
    planner = ReadsInNext(STASHED_PLAN)
    trajectory = run_episode(load_scene(scene_doc()), planner, task)
    assert planner.seen == replay_eagerly(trajectory, task, load_scene(scene_doc()))


@pytest.mark.parametrize("retries", [1, 2, 3])
def test_episode_one_attempt_per_retry_slot(retries):
    task = make_task(task_id="demo")
    scene = load_scene(scene_doc(outcome_schedule={"pick apple": ["E1"] * 4}))
    planner = ScriptedPlanner([plan_entry("Pick", "apple"), plan_entry("End", "")])
    trajectory = run_episode(scene, planner, task, retries=retries)
    assert trajectory.steps[0].feedback.code is ErrorCode.E1
    assert trajectory.steps[0].retries_used == retries - 1
    assert scene.schedule["pick apple"] == ["E1"] * (4 - retries)


@pytest.mark.parametrize("retries", [-1, 0, 4])
def test_episode_refuses_retries_outside_one_to_three(retries):
    task = make_task(task_id="demo")
    scene = load_scene(scene_doc(outcome_schedule={"pick apple": ["E1"] * 4}))
    planner = ScriptedPlanner([plan_entry("Pick", "apple"), plan_entry("End", "")])
    with pytest.raises(ConfigError, match="retries must be between 1 and 3"):
        run_episode(scene, planner, task, retries=retries)
    assert scene.schedule["pick apple"] == ["E1"] * 4


@pytest.mark.parametrize("specs", [
    [("Pick", "counter", True), ("Place", "table", False, ErrorCode.E2)],
    [("Pick", "fridge", True), ("Place", "fridge", True), ("Go to", "banana", True)],
], ids=["e2-after-pick-of-a-spot", "container-placed-in-itself"])
def test_replay_moves_only_objects(specs):
    # a hand-made log can "pick" a spot or a container; replaying it leaves
    # every entity where it was instead of corrupting the scene
    task = make_task(task_id="demo")
    scene = load_scene(scene_doc())
    replay_instructions(traj(specs, task_id="demo"), task, scene=scene)
    untouched = load_scene(scene_doc())
    assert ({name: e.location for name, e in scene.entities.items()}
            == {name: e.location for name, e in untouched.entities.items()})
    assert scene.children == untouched.children


@st.composite
def hand_made_logs(draw, scene):
    """Logs no executor wrote: steps of any skill (or an unknown action) on
    any target, each with a random outcome a log may hold, ending at End or
    at the budget."""
    actions = [action.label for action in ActionType if action is not ActionType.END]
    targets = list(scene.entities) + ["nowhere"]
    codes = [None] * 5 + list(ErrorCode)  # successes often, so that they chain
    specs = []
    for _ in range(draw(st.integers(0, 20))):
        action = draw(st.sampled_from(actions + ["Dance"]))
        code = draw(st.sampled_from(codes))
        if action == "Dance":  # an output with no subtask can only be F1
            code = ErrorCode.F1
        specs.append((action, draw(st.sampled_from(targets)), code is None, code))
    return traj(specs, task_id="generated", budget=draw(st.booleans()))


@settings(max_examples=examples(150), deadline=None)
@given(data=st.data())
def test_replay_of_hand_made_logs_moves_only_objects(data):
    """Replaying any log against a random scene never raises; spots and
    containers stay where they are, ``children`` indexes every entity at
    its location, and the observations match the brute-force oracle."""
    doc = data.draw(scene_docs())
    template = load_scene(doc)
    logged = data.draw(hand_made_logs(template))
    task = make_task(task_id="generated", scene="generated")
    scene = template.clone()
    prompts = replay_instructions(logged, task, scene=scene)
    assert len(prompts) == len(logged.steps)
    for name, entity in template.entities.items():
        if entity.kind is not EntityKind.OBJECT:
            assert scene.entities[name].location == entity.location
    index = {}
    for name, entity in scene.entities.items():
        if entity.kind is not EntityKind.SPOT:
            index.setdefault(entity.location, []).append(name)
    assert {location: sorted(names) for location, names in scene.children.items() if names} \
        == {location: sorted(names) for location, names in index.items()}
    assert observe(scene) == oracle_observe(scene)


# ---------------------------------------------------------------------------
# benchmarks


def bench_fixtures():
    tasks = [make_task(task_id=f"task{i:02d}", scene="s") for i in range(10)]
    docs = {"s": load_scene(scene_doc())}

    def factory(task, run_index):
        return ScriptedPlanner([plan_entry("Pick", "apple"), plan_entry("End", "")])

    return tasks, docs, factory


def test_benchmark_cardinality():
    tasks, docs, factory = bench_fixtures()
    trajectories = run_benchmark(tasks, factory, docs, runs_per_task=3)
    assert len(trajectories) == 30
    keys = [(t.task_id, t.run_index) for t in trajectories]
    assert len(set(keys)) == 30


@pytest.mark.parametrize("jobs", [1, 2])
def test_benchmark_refuses_a_missing_scene_before_any_episode(jobs):
    tasks, docs, _ = bench_fixtures()
    tasks.append(make_task(task_id="task10", scene="bedroom"))
    asked = []

    def factory(task, run_index):
        asked.append((task.id, run_index))
        return ScriptedPlanner([plan_entry("End", "")])

    with pytest.raises(MissingScene) as info:
        run_benchmark(tasks, factory, docs, runs_per_task=2, jobs=jobs)
    assert str(info.value) == ("task 'task10' needs scene 'bedroom', "
                               "which is not among the scenes given")
    assert asked == []
    with pytest.raises(MissingScene, match="task 'task00' needs scene 's'"):
        run_benchmark(tasks, factory, {}, runs_per_task=1)
    assert asked == []


def test_benchmark_deterministic_given_seed():
    from homebench.core import serialize_trajectory

    tasks, docs, factory = bench_fixtures()
    docs = {"s": load_scene(scene_doc(failure_rates={"e1_manipulation": 0.4,
                                                     "e1_navigation": 0.0, "e2_place": 0.0}))}

    def snapshot():
        trajectories = run_benchmark(tasks, factory, docs, runs_per_task=2, seed=77)
        return [serialize_trajectory(t) for t in trajectories]

    assert snapshot() == snapshot()


def test_benchmark_jobs_order_stable():
    tasks, docs, factory = bench_fixtures()
    sequential = run_benchmark(tasks, factory, docs, runs_per_task=2, seed=1)
    parallel = run_benchmark(tasks, factory, docs, runs_per_task=2, seed=1, jobs=4)
    assert [(t.task_id, t.run_index) for t in sequential] == \
        [(t.task_id, t.run_index) for t in parallel]


def rated_bundled():
    """The bundled tasks in id order, a factory of their scripted plans, and
    their scenes with E1 rates 0.3 (manipulation) and 0.2 (navigation) and
    an E2 rate of 0.2."""
    tasks = _load_task_map(_bundled("tasks"))
    scenes = _load_scenes(_bundled("scenes"), tasks)
    for scene in scenes.values():
        scene.rates.update(e1_manipulation=0.3, e1_navigation=0.2, e2_place=0.2)
    return [tasks[t] for t in sorted(tasks)], _planner_factory("scripted:", {}, tasks), scenes


def test_runs_of_a_task_differ_without_a_seed():
    # the template's seed stands in for a missing seed, and each run still
    # derives its own from it, so the runs of a task are not copies
    tasks, factory, scenes = rated_bundled()
    distinct = {}
    for trajectory in run_benchmark(tasks, factory, scenes, runs_per_task=5):
        distinct.setdefault(trajectory.task_id, set()).add(trajectory.steps)
    assert len(distinct) == 12
    assert all(len(runs) > 1 for runs in distinct.values()), {
        task_id: len(runs) for task_id, runs in distinct.items()}


@pytest.mark.parametrize("seed", [None, 3])
def test_rated_runs_log_the_same_at_jobs_1_and_2(seed):
    tasks, factory, scenes = rated_bundled()
    logs = [[serialize_trajectory(t) for t in run_benchmark(
        tasks, factory, scenes, runs_per_task=3, seed=seed, jobs=jobs)] for jobs in (1, 2)]
    assert logs[0] == logs[1]


def test_benchmark_isolates_transport_failures():
    tasks, docs, _ = bench_fixtures()

    def factory(task, run_index):
        if task.id == "task03" and run_index == 1:
            class Dead:
                def next(self, instruction):
                    raise PlannerTransportError("endpoint down")
            return Dead()
        return ScriptedPlanner([plan_entry("Pick", "apple"), plan_entry("End", "")])

    trajectories = run_benchmark(tasks, factory, docs, runs_per_task=2)
    failed = [t for t in trajectories if not t.finished]
    assert [(t.task_id, t.run_index, t.steps, t.cut_off) for t in failed] == \
        [("task03", 1, (), "endpoint down")]
    assert sum(1 for t in trajectories if t.finished) == 19


def test_benchmark_carries_transcripts_when_asked():
    tasks, docs, _ = bench_fixtures()

    def inner(task, run_index):
        if task.id == "task03" and run_index == 1:
            class DiesOnSecondQuery:
                calls = 0

                def next(self, instruction):
                    self.calls += 1
                    if self.calls == 2:
                        raise PlannerTransportError("endpoint down")
                    return plan_entry("Pick", "apple")
            return DiesOnSecondQuery()
        return ScriptedPlanner([plan_entry("Pick", "apple"), plan_entry("End", "")])

    transcripts = {}

    def factory(task, run_index):
        planner = transcripts[task.id, run_index] = Transcribed(inner(task, run_index))
        return planner

    untraced = run_benchmark(tasks, inner, docs, runs_per_task=2)
    trajectories = run_benchmark(tasks, factory, docs, runs_per_task=2)
    assert trajectories == untraced  # a transcribed planner plays as its inner one
    by_id = {task.id: task for task in tasks}
    for t in trajectories:
        prompts = replay_instructions(t, by_id[t.task_id], load_scene(scene_doc()))
        transcript = transcripts[t.task_id, t.run_index].transcript
        assert [e["instruction"] for e in transcript] == [i.text for i in prompts]
    failed = [t for t in trajectories if not t.finished]
    assert len(failed) == 1  # its transcript holds the answered query only
    assert len(transcripts["task03", 1].transcript) == len(failed[0].steps) == 1


# ---------------------------------------------------------------------------
# the reply memo of run_benchmark

JUNK = "I would rather not."
SURROGATE = '{"analysis": "\ud800", "subtask": ["Pick", "apple"], "model": "RT-1-X"}'
ESCAPED_SURROGATE = '{"analysis": "\\ud800", "subtask": ["Pick", "apple"], "model": "RT-1-X"}'


def memo_plan():
    """Replies that repeat within and across episodes: F1 junk, a reply that
    holds a lone surrogate and one that decodes to it, and an L3 branch that
    opens the fridge before the pick of the banana inside it is re-emitted."""
    return ScriptedPlanner(
        [JUNK, JUNK, SURROGATE, ESCAPED_SURROGATE, JUNK, plan_entry("Pick", "banana"),
         plan_entry("Go to", "table", model="NoMaD"), plan_entry("Place", "drawer"),
         plan_entry("End", "")],
        branches={"L3": plan_entry("Open", "fridge", model="Octo")},
    )


def memo_fixtures():
    tasks = [make_task(task_id=f"task{i}", scene="s") for i in range(3)]
    scenes = {"s": load_scene(scene_doc(failure_rates={
        "e1_manipulation": 0.3, "e1_navigation": 0.2, "e2_place": 0.3}))}
    return tasks, scenes


def play_transcribed(tasks, scenes, plan, **kwargs):
    """run_benchmark with every planner transcribed: its logs and transcripts."""
    transcripts = {}

    def factory(task, run_index):
        planner = transcripts[task.id, run_index] = Transcribed(plan())
        return planner

    trajectories = run_benchmark(tasks, factory, scenes, seed=3, **kwargs)
    return ([serialize_trajectory(t) for t in trajectories],
            {key: planner.transcript for key, planner in transcripts.items()})


def count_parses(monkeypatch) -> list:
    """Record each reply that run_benchmark's memo hands to the parser."""
    seen = []
    parse = loop.parse_planner_output

    def counted(raw):
        seen.append(raw)
        return parse(raw)

    monkeypatch.setattr(loop, "parse_planner_output", counted)
    return seen


@pytest.mark.parametrize("jobs", [1, 2])
def test_reply_memo_changes_no_log_or_transcript(monkeypatch, jobs):
    tasks, scenes = memo_fixtures()
    parsed = count_parses(monkeypatch)
    memoized = play_transcribed(tasks, scenes, memo_plan, runs_per_task=4, budget=14, jobs=jobs)
    memo_parses = len(parsed)
    parsed.clear()
    monkeypatch.setattr(loop, "REPLY_MEMO_SIZE", 0)  # parse every reply
    assert play_transcribed(tasks, scenes, memo_plan, runs_per_task=4, budget=14,
                            jobs=jobs) == memoized
    replies = [entry["response"] for transcript in memoized[1].values() for entry in transcript]
    assert len(parsed) == len(replies)
    assert memo_parses < len(replies)
    if jobs == 1:  # on threads, two episodes may both miss on one reply
        assert memo_parses == len(set(parsed))
    # every kind of reply was played: junk, both surrogates, the branch
    logs = "".join(memoized[0])
    for text in (JUNK, "\\ud800", '"error_code": "L3"', '"action": "Open"'):
        assert text in logs


def test_reply_memo_shared_by_contending_threads():
    # more workers than cores, switching threads as often as the interpreter can
    tasks, scenes = memo_fixtures()
    expected = play_transcribed(tasks, scenes, memo_plan, runs_per_task=6, budget=14)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        played = play_transcribed(tasks, scenes, memo_plan, runs_per_task=6, budget=14, jobs=8)
    finally:
        sys.setswitchinterval(interval)
    assert played == expected


def test_reply_memo_past_its_bound_changes_no_log(monkeypatch):
    tasks, scenes = memo_fixtures()

    def many_replies():  # 12 distinct replies per episode, each seen once per run
        return ScriptedPlanner([plan_entry("Go to", spot, model="NoMaD", analysis=f"leg {i}")
                                for i, spot in enumerate(["table", "counter"] * 6)])

    logs = play_transcribed(tasks, scenes, many_replies, runs_per_task=2, budget=14)
    parsed = count_parses(monkeypatch)
    monkeypatch.setattr(loop, "REPLY_MEMO_SIZE", 4)
    assert play_transcribed(tasks, scenes, many_replies, runs_per_task=2, budget=14) == logs
    assert len(parsed) > len(set(parsed))  # replies fell out of the memo and were parsed again


def test_reply_memo_lives_for_one_run(monkeypatch):
    tasks, scenes = memo_fixtures()
    parsed = count_parses(monkeypatch)
    counts = []
    for _ in range(2):
        play_transcribed(tasks, scenes, memo_plan, runs_per_task=2, budget=14)
        counts.append(len(parsed))
        parsed.clear()
    assert counts[1] == counts[0]  # the second run parsed its replies afresh


def test_stable_seed_is_stable():
    assert stable_seed(7, "task", 0) == stable_seed(7, "task", 0)
    assert stable_seed(7, "task", 0) != stable_seed(7, "task", 1)


def test_fuzzed_episodes_preserve_invariants(rng):
    # random planners over a stochastic scene: the loop must keep the
    # single-slot hand invariant, never exceed the budget, and only ever
    # report F1 from its own layer
    import random as random_mod

    from conftest import MODELS

    doc = scene_doc(failure_rates={"e1_manipulation": 0.3, "e1_navigation": 0.1,
                                   "e2_place": 0.3})
    actions = ["Go to", "Pick", "Place", "Open", "Close", "dance"]
    targets = ["apple", "banana", "fridge", "drawer", "counter", "table",
               "statue", "unicorn", ""]

    class Chaotic:
        def __init__(self, seed):
            self.rng = random_mod.Random(seed)

        def next(self, instruction):
            if self.rng.random() < 0.1:
                return "no structure at all"
            if self.rng.random() < 0.05:
                return serialize_output(make_end_output())
            return json.dumps({
                "analysis": "?",
                "subtask": [self.rng.choice(actions), self.rng.choice(targets)],
                "model": self.rng.choice(MODELS + ["SkyNet"]),
            })

    task = make_task(task_id="fuzz")
    for seed in range(40):
        scene = load_scene(doc).clone(seed=seed)
        trajectory = run_episode(scene, Chaotic(seed), task, budget=15)
        assert len(trajectory.steps) <= 15
        assert trajectory.terminated_by_end != trajectory.terminated_by_budget
        held = None
        for step in trajectory.steps:
            # replaying the inventory rules never double-fills the hand
            if step.feedback.ok and step.output.action_type is ActionType.PICK:
                assert held is None
                held = step.output.target
            elif step.feedback.ok and step.output.action_type is ActionType.PLACE:
                held = None
            elif step.feedback.code is ErrorCode.E2:
                held = None
            if step.feedback.code is ErrorCode.F2:
                # grounding failures only come from the executor, on real lookups
                assert step.output.subtask is not None


# ---------------------------------------------------------------------------
# the step path runs no code of the enum module


def _enum_code(code) -> bool:
    """Code of the enum module, or ``types.DynamicClassAttribute.__get__``,
    through which ``.value`` runs on Python 3.10."""
    return code.co_filename.endswith("enum.py") or (
        code.co_filename.endswith("types.py") and code.co_name == "__get__")


def test_the_step_path_runs_no_enum_code():
    # a member's hash, its .value and Class(value) run Python code of the
    # enum module, about 0.1 µs a call on Python 3.11; a step runs none. The
    # bundled corpus at nonzero rates draws E1 and E2, and its plans meet
    # L3 and D1, whose branches the scripted planner replays
    rates = {"e1_manipulation": 0.3, "e1_navigation": 0.2, "e2_place": 0.2}
    tasks = _load_task_map(_bundled("tasks"))
    scenes = {}
    for path in sorted(_bundled("scenes").glob("*.json")):
        scenes[path.stem] = load_scene({**json.loads(path.read_bytes()), "failure_rates": rates})
    factory = _planner_factory("scripted:", {}, tasks)
    frames = collections.Counter()  # by function name

    def profile(frame, event, arg):
        if event == "call" and _enum_code(frame.f_code):
            frames[frame.f_code.co_name] += 1

    sys.setprofile(profile)
    try:
        trajectories = run_benchmark(list(tasks.values()), factory, scenes, runs_per_task=4,
                                     seed=7)
    finally:
        sys.setprofile(None)
    codes = {step.feedback.code for t in trajectories for step in t.steps}
    assert {ErrorCode.E1, ErrorCode.E2, ErrorCode.L3, ErrorCode.D1} <= codes
    assert frames == {}
