import pytest

from homebench.core import (
    ActionType,
    ErrorCode,
    Feedback,
    ModelChoice,
    PlannerOutput,
    SchemaError,
    StepRecord,
    Subtask,
    failure,
)
from homebench.loop import EpisodeState, apply_feedback
from homebench.sim import (
    DistanceBand,
    DuplicateName,
    EntityKind,
    OpenState,
    apply_outcome,
    execute,
    load_scene,
    observe,
    resolve_target,
)


def scene_doc(**overrides):
    doc = {
        "id": "test_kitchen",
        "seed": 5,
        "agent_start": "counter",
        "failure_rates": {"e1_manipulation": 0.0, "e1_navigation": 0.0, "e2_place": 0.0},
        "spots": [
            {"name": "counter", "directions": {
                "front": ["counter"], "left": ["table"], "back": [], "right": []}},
            {"name": "table", "directions": {
                "front": ["table"], "back": ["counter"], "left": [], "right": []}},
        ],
        "entities": [
            {"name": "fridge", "kind": "container", "location": "counter",
             "open_state": "closed"},
            {"name": "banana", "kind": "object", "location": "fridge"},
            {"name": "apple", "kind": "object", "location": "counter"},
            {"name": "drawer", "kind": "container", "location": "table",
             "open_state": "open"},
            {"name": "statue", "kind": "object", "location": "counter",
             "interactive": False},
        ],
    }
    doc.update(overrides)
    return doc


def sub(action, target, model=ModelChoice.RT1X):
    return Subtask(action, target, model)


PICK = ActionType.PICK
PLACE = ActionType.PLACE
OPEN = ActionType.OPEN
CLOSE = ActionType.CLOSE
GO_TO = ActionType.GO_TO
EMPTY = None  # the empty hand


def act(scene, subtask, held):
    """Decide one attempt with ``execute`` and apply its outcome to the
    scene, as an episode does; returns the feedback."""
    outcome = execute(scene, subtask, held)
    apply_outcome(scene, subtask, outcome.code, held)
    return outcome


def play_step(state, action, target):
    """Decide one attempt of ``action`` on ``target`` and fold it into
    ``state`` as ``run_episode`` does; returns the feedback."""
    subtask = Subtask(action, target, ModelChoice.M3)
    feedback = execute(state.scene, subtask, state.held)
    output = PlannerOutput("", action.label, target, ModelChoice.M3.label)
    apply_feedback(state, StepRecord(output, feedback))
    return feedback


# ---------------------------------------------------------------------------
# loading and observation


def test_closed_container_hides_contents():
    scene = load_scene(scene_doc())
    assert not any("banana" in text for text in observe(scene))


def test_open_container_lists_contents_nested():
    scene = load_scene(scene_doc())
    act(scene, sub(OPEN, "fridge", ModelChoice.OCTO), EMPTY)
    front = observe(scene)[0]
    assert "fridge (open, reachable, contains: banana)" in front
    assert front.count("banana") == 1  # nested under the fridge, not a separate entry


def test_observation_direction_assignment_and_bands():
    scene = load_scene(scene_doc())
    front, left, back, right = observe(scene)
    assert "fridge (closed, reachable)" in front
    assert "apple (reachable)" in front
    assert "drawer (open, too far)" in left
    assert right == "nothing notable"


def test_duplicate_names_rejected():
    doc = scene_doc()
    doc["entities"].append({"name": "Sugar  Box", "kind": "object", "location": "table"})
    doc["entities"].append({"name": "sugar_box", "kind": "object", "location": "table"})
    with pytest.raises(DuplicateName):
        load_scene(doc)


def test_empty_scene_valid():
    scene = load_scene({"id": "empty", "spots": [], "entities": []})
    assert observe(scene) == ("nothing notable",) * 4


def test_direction_table_must_cover_all_spots():
    doc = scene_doc()
    doc["spots"][0]["directions"]["left"] = []
    with pytest.raises(SchemaError, match="exactly once"):
        load_scene(doc)


# ---------------------------------------------------------------------------
# target resolution


def test_resolve_present():
    scene = load_scene(scene_doc())
    entity = resolve_target(scene, "fridge")
    assert entity.kind is EntityKind.CONTAINER


def test_resolve_missing_is_f2_value():
    scene = load_scene(scene_doc())
    outcome = resolve_target(scene, "unicorn")
    assert isinstance(outcome, Feedback)
    assert outcome.code is ErrorCode.F2
    assert outcome.message == "please choose another object"


def test_resolve_normalizes_lookup():
    scene = load_scene(scene_doc())
    doc = scene_doc()
    doc["entities"].append({"name": "sugar_box", "kind": "object", "location": "table"})
    scene = load_scene(doc)
    assert resolve_target(scene, "Sugar Box").name == "sugar_box"


# ---------------------------------------------------------------------------
# the error taxonomy, code by code


def test_l1_pick_with_full_hand():
    scene = load_scene(scene_doc())
    outcome = execute(scene, sub(PICK, "apple"), "banana")
    assert outcome.code is ErrorCode.L1
    assert outcome.message == "the hand is full"


def test_l1_open_with_full_hand():
    scene = load_scene(scene_doc())
    outcome = execute(scene, sub(OPEN, "fridge", ModelChoice.OCTO), "apple")
    assert outcome.code is ErrorCode.L1


def test_l2_place_with_empty_hand():
    scene = load_scene(scene_doc())
    outcome = execute(scene, sub(PLACE, "counter"), EMPTY)
    assert outcome.code is ErrorCode.L2
    assert outcome.message == "the hand is empty"


def test_l3_pick_from_closed_container():
    scene = load_scene(scene_doc())
    outcome = execute(scene, sub(PICK, "banana"), EMPTY)
    assert outcome.code is ErrorCode.L3
    assert outcome.message == "the container is closed, you should open it first"


def test_l3_place_into_closed_container():
    scene = load_scene(scene_doc())
    outcome = execute(scene, sub(PLACE, "fridge"), "apple")
    assert outcome.code is ErrorCode.L3


def test_l4_open_non_container():
    scene = load_scene(scene_doc())
    outcome = execute(scene, sub(OPEN, "apple", ModelChoice.OCTO), EMPTY)
    assert outcome.code is ErrorCode.L4
    assert outcome.message == "please choose another object"


def test_l4_pick_non_interactive():
    scene = load_scene(scene_doc())
    outcome = execute(scene, sub(PICK, "statue"), EMPTY)
    assert outcome.code is ErrorCode.L4


def test_d1_too_far_then_goto_resolves():
    scene = load_scene(scene_doc())
    outcome = execute(scene, sub(OPEN, "drawer", ModelChoice.OCTO), EMPTY)
    assert outcome.code is ErrorCode.D1
    assert outcome.message == "the target is far away"
    assert act(scene, sub(GO_TO, "drawer", ModelChoice.NOMAD), EMPTY).ok
    assert act(scene, sub(CLOSE, "drawer", ModelChoice.OCTO), EMPTY).ok


def test_d2_too_close():
    doc = scene_doc(bands={"apple": "too_close"})
    scene = load_scene(doc)
    outcome = execute(scene, sub(PICK, "apple"), EMPTY)
    assert outcome.code is ErrorCode.D2
    assert outcome.message == "the target is too close"


def test_f2_unknown_target():
    scene = load_scene(scene_doc())
    outcome = execute(scene, sub(PICK, "unicorn"), EMPTY)
    assert outcome.code is ErrorCode.F2
    assert outcome.message == "please choose another object"


def test_e1_scheduled_attempts():
    doc = scene_doc(outcome_schedule={"pick apple": ["E1", "E1", "ok"]})
    scene = load_scene(doc)
    first = execute(scene, sub(PICK, "apple"), EMPTY)
    second = execute(scene, sub(PICK, "apple"), EMPTY)
    third = execute(scene, sub(PICK, "apple"), EMPTY)
    assert first.code is ErrorCode.E1
    assert first.message == "the subtask is too difficult to perform"
    assert second.code is ErrorCode.E1
    assert third.ok


def test_schedule_key_on_a_non_interactive_target_is_refused():
    # execute answers L4 before its draw, so such a key could never fire
    with pytest.raises(SchemaError, match=r"^outcome_schedule: key 'pick statue': "
                                          r"Pick never acts on 'statue' \(not interactive\)$"):
        load_scene(scene_doc(outcome_schedule={"pick statue": ["E1"]}))
    doc = scene_doc(outcome_schedule={"open fridge": ["E1"]})
    doc["entities"][0]["interactive"] = False
    with pytest.raises(SchemaError, match=r"Open never acts on 'fridge' \(not interactive\)"):
        load_scene(doc)


def test_go_to_schedule_key_fires_on_a_non_interactive_target():
    # navigation skips the L4 check, so its draw is reached
    scene = load_scene(scene_doc(outcome_schedule={"go_to statue": ["E1"]}))
    assert execute(scene, sub(GO_TO, "statue", ModelChoice.PIXNAV), EMPTY).code is ErrorCode.E1
    assert execute(scene, sub(GO_TO, "statue", ModelChoice.PIXNAV), EMPTY).ok


def test_scheduled_outcomes_come_before_any_rate_draw():
    # at an E1 rate of 1.0 every drawn Pick and Place fails, so the success
    # and the E2 below are the schedule's; using one leaves the rng alone
    doc = scene_doc(failure_rates={"e1_manipulation": 1.0, "e1_navigation": 0.0,
                                   "e2_place": 0.0},
                    outcome_schedule={"pick apple": ["ok"], "place counter": ["E2"]})
    scene = load_scene(doc).clone(seed=3)
    rng_state = scene.rng.getstate()
    assert act(scene, sub(PICK, "apple"), EMPTY).ok
    assert scene.rng.getstate() == rng_state
    assert act(scene, sub(PLACE, "counter"), "apple").code is ErrorCode.E2
    assert scene.rng.getstate() == rng_state
    assert scene.entities["apple"].location == "counter"
    # each schedule used up, the rate decides
    assert act(scene, sub(PICK, "apple"), EMPTY).code is ErrorCode.E1
    assert scene.rng.getstate() != rng_state
    assert execute(scene, sub(PLACE, "counter"), "apple").code is ErrorCode.E1


@pytest.mark.parametrize("held", [EMPTY, "apple"])
def test_end_succeeds_and_leaves_the_scene_alone(held):
    # the loop sends End through execute like any other subtask
    doc = scene_doc(failure_rates={"e1_manipulation": 0.5, "e1_navigation": 0.5,
                                   "e2_place": 0.5},
                    outcome_schedule={"pick apple": ["E1", "ok"], "place counter": ["E2"]})
    scene = load_scene(doc).clone(seed=3)
    rng_state = scene.rng.getstate()
    schedule = {key: list(outcomes) for key, outcomes in scene.schedule.items()}
    entities = dict(scene.entities)
    views = observe(scene)
    assert act(scene, Subtask(ActionType.END, "", ModelChoice.M3), held) == Feedback()
    assert scene.rng.getstate() == rng_state
    assert scene.schedule == schedule
    assert scene.entities == entities
    assert observe(scene) == views


def test_e2_place_loses_object():
    doc = scene_doc(outcome_schedule={"place counter": ["E2"]})
    scene = load_scene(doc)
    assert act(scene, sub(PICK, "apple"), EMPTY).ok
    assert scene.entities["apple"].location == "@hand"
    outcome = act(scene, sub(PLACE, "counter"), "apple")
    assert outcome.code is ErrorCode.E2
    assert outcome == failure(ErrorCode.E2)
    assert scene.entities["apple"].location == "counter"  # fell nearby


# precedence cases


def test_precedence_f2_masks_l1():
    scene = load_scene(scene_doc())
    outcome = execute(scene, sub(PICK, "unicorn"), "apple")
    assert outcome.code is ErrorCode.F2


def test_precedence_l1_masks_d1():
    scene = load_scene(scene_doc())
    # drawer is too far AND the hand is full; the logical check wins
    outcome = execute(scene, sub(CLOSE, "drawer", ModelChoice.OCTO), "apple")
    assert outcome.code is ErrorCode.L1


def test_precedence_l3_masks_d2():
    doc = scene_doc(bands={"fridge": "too_close"})
    scene = load_scene(doc)
    outcome = execute(scene, sub(PLACE, "fridge"), "apple")
    assert outcome.code is ErrorCode.L3


def test_precedence_deterministic(rng):
    doc = scene_doc()
    actions = [PICK, PLACE, OPEN, CLOSE, GO_TO]
    targets = ["apple", "banana", "fridge", "drawer", "counter", "unicorn", "statue"]
    for _ in range(300):
        action = rng.choice(actions)
        target = rng.choice(targets)
        held = rng.choice([EMPTY, "apple"])
        model = ModelChoice.M3
        outcomes = set()
        for _ in range(2):
            scene = load_scene(doc)
            outcome = execute(scene, Subtask(action, target, model), held)
            outcomes.add((outcome.status, outcome.code))
        assert len(outcomes) == 1


# ---------------------------------------------------------------------------
# mutations, navigation, conservation


def test_goto_never_fails_logical_or_distance():
    scene = load_scene(scene_doc())
    outcome = act(scene, sub(GO_TO, "drawer", ModelChoice.NOMAD), "apple")
    assert outcome.ok
    assert scene.agent.at == "table"


def test_goto_object_moves_to_its_spot():
    scene = load_scene(scene_doc())
    act(scene, sub(GO_TO, "drawer", ModelChoice.NOMAD), EMPTY)
    assert scene.band("drawer") is DistanceBand.REACHABLE
    assert scene.band("fridge") is DistanceBand.TOO_FAR


def test_pick_place_move_objects():
    scene = load_scene(scene_doc())
    assert act(scene, sub(PICK, "apple"), EMPTY).ok
    assert scene.entities["apple"].location == "@hand"
    assert act(scene, sub(GO_TO, "table", ModelChoice.NOMAD), "apple").ok
    assert act(scene, sub(PLACE, "drawer"), "apple").ok
    assert scene.entities["apple"].location == "drawer"


def test_open_close_toggle():
    scene = load_scene(scene_doc())
    assert act(scene, sub(OPEN, "fridge", ModelChoice.OCTO), EMPTY).ok
    assert scene.entities["fridge"].open_state is OpenState.OPEN
    assert act(scene, sub(CLOSE, "fridge", ModelChoice.OCTO), EMPTY).ok
    assert scene.entities["fridge"].open_state is OpenState.CLOSED


@pytest.mark.parametrize("navigation, manipulation", [(1.0, 0.0), (0.0, 1.0)])
def test_each_e1_rate_draws_for_its_own_skills(navigation, manipulation):
    # a rate of 1 always fires and a rate of 0 never does, so a Go to that
    # drew the manipulation rate, or a Pick the navigation one, flips
    doc = scene_doc(failure_rates={"e1_manipulation": manipulation,
                                   "e1_navigation": navigation, "e2_place": 0.0})
    go_to = ErrorCode.E1 if navigation else None
    pick = ErrorCode.E1 if manipulation else None
    for seed in range(5):
        scene = load_scene(doc).clone(seed=seed)
        for _ in range(4):
            assert execute(scene, sub(GO_TO, "table", ModelChoice.NOMAD), EMPTY).code is go_to
            assert execute(scene, sub(PICK, "apple"), EMPTY).code is pick


def test_seeded_determinism_with_rates():
    doc = scene_doc(failure_rates={"e1_manipulation": 0.5, "e1_navigation": 0.2,
                                   "e2_place": 0.3})
    sequence = [
        (PICK, "apple"), (PLACE, "counter"), (OPEN, "fridge"), (PICK, "banana"),
        (GO_TO, "table"), (PICK, "apple"), (PLACE, "drawer"),
    ]

    def run():
        state = EpisodeState("", load_scene(doc).clone(seed=99))
        trace = []
        for action, target in sequence:
            outcome = play_step(state, action, target)
            trace.append((outcome.status, outcome.code, observe(state.scene)))
        return trace

    assert run() == run()


def object_locations(scene, held):
    places = {}
    for entity in scene.entities.values():
        if entity.kind is EntityKind.OBJECT:
            places[entity.name] = entity.location
    if held:
        assert places[held] == "@hand"
    return places


def test_conservation_under_random_sequences(rng):
    doc = scene_doc(failure_rates={"e1_manipulation": 0.2, "e1_navigation": 0.1,
                                   "e2_place": 0.3})
    actions = [PICK, PLACE, OPEN, CLOSE, GO_TO]
    targets = ["apple", "banana", "fridge", "drawer", "counter", "table", "statue"]
    for trial in range(60):
        state = EpisodeState("", load_scene(doc).clone(seed=trial))
        for _ in range(25):
            action = rng.choice(actions)
            target = rng.choice(targets)
            assert type(play_step(state, action, target)) is Feedback
            scene, held = state.scene, state.held
            locations = object_locations(scene, held)
            for name, location in locations.items():
                if location == "@hand":
                    assert held == name
                else:
                    parent = scene.entities[location]
                    assert parent.kind in (EntityKind.SPOT, EntityKind.CONTAINER)


def world(scene) -> tuple:
    """Everything in ``scene`` that a step's outcome may change."""
    return (dict(scene.entities), scene.agent.at, dict(scene.agent.band_overrides),
            {location: list(names) for location, names in scene.children.items()},
            dict(scene.segments))


def test_execute_changes_nothing_but_the_draw(rng):
    # execute only decides; the world changes through apply_outcome alone
    doc = scene_doc(failure_rates={"e1_manipulation": 0.2, "e1_navigation": 0.1,
                                   "e2_place": 0.3})
    actions = [PICK, PLACE, OPEN, CLOSE, GO_TO]
    targets = ["apple", "banana", "fridge", "drawer", "counter", "table", "statue"]
    for trial in range(40):
        state = EpisodeState("", load_scene(doc).clone(seed=trial))
        for _ in range(20):
            action, target = rng.choice(actions), rng.choice(targets)
            before = world(state.scene)
            outcome = execute(state.scene, Subtask(action, target, ModelChoice.M3), state.held)
            assert world(state.scene) == before
            output = PlannerOutput("", action.label, target, ModelChoice.M3.label)
            apply_feedback(state, StepRecord(output, outcome))
