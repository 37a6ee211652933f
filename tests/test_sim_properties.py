"""Property tests for observation rendering and per-episode scene clones."""

import json
import random
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from homebench import sim
from homebench.core import (
    SUCCESS,
    ActionType,
    ErrorCode,
    ModelChoice,
    PlannerOutput,
    SchemaError,
    StepRecord,
    Subtask,
    failure,
    normalize_name,
)
from homebench.loop import EpisodeState
from homebench.sim import (
    DIRECTIONS,
    DistanceBand,
    EntityKind,
    OpenState,
    apply_outcome,
    execute,
    load_scene,
    observe,
)

from conftest import examples
from test_sim import act, play_step, scene_doc

BUNDLED_SCENES = Path(str(resources.files("homebench").joinpath("data/scenes")))


# ---------------------------------------------------------------------------
# observe against a brute-force oracle


def oracle_observe(scene) -> tuple:
    """Reference rendering: rescans every entity for each visible spot and
    again for each open container."""

    def render(entity):
        band = scene.band(entity.name).value.replace("_", " ")
        if entity.kind is EntityKind.CONTAINER:
            bits = [entity.open_state.value, band]
            if entity.open_state is OpenState.OPEN:
                contents = [
                    e.name for e in scene.entities.values() if e.location == entity.name
                ]
                if contents:
                    bits.append("contains: " + ", ".join(contents))
            return f"{entity.name} ({', '.join(bits)})"
        return f"{entity.name} ({band})"

    table = scene.directions.get(scene.agent.at, {})
    texts = []
    for direction in DIRECTIONS:
        parts = []
        for spot_name in table.get(direction, ()):
            parts.append(render(scene.entities[spot_name]))
            for entity in scene.entities.values():
                if entity.kind is not EntityKind.SPOT and entity.location == spot_name:
                    parts.append(render(entity))
        texts.append("; ".join(parts) if parts else "nothing notable")
    return tuple(texts)


@st.composite
def scene_docs(draw):
    """Random valid scene documents: a few spots with shuffled direction
    tables, open and closed containers nested in earlier containers, objects
    spread over spots and containers, some of them not interactive, and
    distance-band overrides."""
    spots = [f"spot_{i}" for i in range(draw(st.integers(1, 4)))]
    spot_docs = []
    for spot in spots:
        table = {direction: [] for direction in DIRECTIONS}
        for other in spots:
            table[draw(st.sampled_from(DIRECTIONS))].append(other)
        spot_docs.append({"name": spot, "directions": table})
    containers, entities = [], []
    for i in range(draw(st.integers(0, 6))):
        name = f"box_{i}"
        entities.append({
            "name": name, "kind": "container",
            "location": draw(st.sampled_from(spots + containers)),
            "open_state": draw(st.sampled_from(["open", "closed"])),
        })
        containers.append(name)
    for i in range(draw(st.integers(0, 8))):
        entities.append({"name": f"item_{i}", "kind": "object",
                         "location": draw(st.sampled_from(spots + containers))})
    for entity in entities:  # a few refuse every skill but Go to
        if draw(st.integers(0, 4)) == 0:
            entity["interactive"] = False
    names = spots + [e["name"] for e in entities]
    bands = draw(st.dictionaries(
        st.sampled_from(names), st.sampled_from([b.value for b in DistanceBand]),
        max_size=3))
    rate = st.sampled_from([0.0, 0.0, 0.3])
    return {
        "id": "generated",
        "agent_start": draw(st.sampled_from(spots)),
        "seed": draw(st.integers(0, 9)),
        "failure_rates": {"e1_manipulation": draw(rate), "e1_navigation": draw(rate),
                          "e2_place": draw(st.sampled_from([0.0, 0.5]))},
        "spots": spot_docs,
        "entities": entities,
        "bands": bands,
    }


MUTATIONS = [ActionType.PICK, ActionType.PLACE, ActionType.OPEN, ActionType.CLOSE,
             ActionType.GO_TO, "lost"]


def fields(entity) -> tuple:
    return (entity.name, entity.kind, entity.location, entity.open_state, entity.interactive)


def shared_state(scene) -> tuple:
    """The Entity objects and location lists that clones of ``scene``
    share, each with a copy of what it holds."""
    return ([(e, fields(e)) for e in scene.entities.values()],
            [(names, list(names)) for names in scene.children.values()])


def assert_unchanged(template, shared: tuple, pristine: tuple) -> None:
    """``template`` still holds the same objects, and none was changed in place."""
    entities, lists = shared
    assert all(e is before for e, (before, _) in
               zip(template.entities.values(), entities, strict=True))
    assert all(fields(e) == held for e, held in entities)
    assert all(list(names) == held for names, held in lists)
    assert observe(template) == pristine


def warm_scenes(doc) -> tuple:
    """A template, and scenes to mutate: a fresh load; a clone of the
    template as loaded, which arrives with the segments of its start view;
    a clone of a clone observed by hand; and a clone with no segments at
    all. Also returns a sibling clone that must not see any of it."""
    template = load_scene(doc)
    fresh = template.clone()
    first = template.clone()
    observe(first)
    cold = template.clone()
    cold.segments.clear()
    return template, [load_scene(doc), fresh, first.clone(), cold], first


@settings(max_examples=examples(150), deadline=None)
@given(data=st.data())
def test_observe_matches_oracle_under_random_mutations(data):
    doc = data.draw(scene_docs())
    # the same mutations run on a loaded scene and on clones; the template
    # and a sibling clone must not see them
    template, scenes, sibling = warm_scenes(doc)
    shared = shared_state(template)
    pristine = oracle_observe(load_scene(doc))
    names = list(template.entities)
    objects = [n for n, e in template.entities.items() if e.kind is EntityKind.OBJECT]
    for scene in scenes:
        assert observe(scene) == oracle_observe(scene)
    steps = data.draw(st.lists(
        st.tuples(st.sampled_from(MUTATIONS), st.sampled_from(names),
                  st.sampled_from([None] + objects)),
        max_size=20))
    for action, target, held in steps:
        # "lost" is a Place that ends in E2: the held object falls
        code = ErrorCode.E2 if action == "lost" else None
        subtask = Subtask(ActionType.PLACE if code else action, target, ModelChoice.M3)
        for scene in scenes:
            # only objects are ever held, so a place cannot close a containment cycle
            apply_outcome(scene, subtask, code, held)
            assert observe(scene) == oracle_observe(scene)
        assert observe(sibling) == pristine
    assert_unchanged(template, shared, pristine)


ACTIONS = [ActionType.GO_TO, ActionType.PICK, ActionType.PLACE, ActionType.OPEN,
           ActionType.CLOSE]


@settings(max_examples=examples(150), deadline=None)
@given(data=st.data())
def test_observe_matches_oracle_under_random_subtasks(data):
    """Subtasks decided by ``execute`` and folded by ``apply_feedback`` as
    an episode plays them (seeded E1 and E2 draws), on a loaded scene and
    on clones."""
    doc = data.draw(scene_docs())
    template, scenes, sibling = warm_scenes(doc)
    shared = shared_state(template)
    pristine = oracle_observe(load_scene(doc))
    # doc band targets are drawn more often, so Go to replaces their overrides
    targets = list(template.entities) + list(doc["bands"]) * 3 + ["nowhere"]
    subtasks = data.draw(st.lists(
        st.tuples(st.sampled_from(ACTIONS), st.sampled_from(targets)), max_size=25))
    states = [EpisodeState("", scene) for scene in scenes]
    for action, target in subtasks:
        for state in states:
            play_step(state, action, target)
            assert observe(state.scene) == oracle_observe(state.scene)
        assert observe(sibling) == pristine
    assert_unchanged(template, shared, pristine)


# ---------------------------------------------------------------------------
# the hand


def oracle_hand(step: StepRecord, held):
    """The hand after ``step``, by the rule the episode fold kept beside the
    scene before ``apply_outcome`` returned the hand: a successful Pick puts
    its target in the hand (the log is authoritative, whatever the hand
    held), a successful Place empties it, an E2 empties it (the held object
    fell), and everything else leaves it alone."""
    feedback = step.feedback
    if feedback.ok:
        action = step.output.subtask.action
        if action is ActionType.PICK:
            return step.output.target
        if action is ActionType.PLACE:
            return None
    elif feedback.code is ErrorCode.E2:
        return None
    return held


def output_of(action, target):
    """The logged output of ``action`` on ``target``; None for the action is
    an unparseable reply, whose ``subtask`` is None."""
    if action is None:
        return PlannerOutput("no reply", "", "", "")
    return PlannerOutput("", action.label, "" if action is ActionType.END else target,
                         ModelChoice.M3.label)


#: in place of a step's held value: whatever the step before left in the hand
CARRIED = object()


@settings(max_examples=examples(200), deadline=None)
@given(data=st.data())
def test_apply_outcome_returns_the_hand_of_the_one_rule(data):
    """Random steps, most of them hand-made to fit no scene, on random
    scenes: the hand ``apply_outcome`` returns is the oracle's. Each scene
    first plays a Pick of a spot, of a container (when it has one) and of an
    unknown name, a Place with an empty hand, an E2 with nothing held and an
    F1 step with no subtask."""
    doc = data.draw(scene_docs())
    scene = load_scene(doc)
    names = list(scene.entities)
    kinds = {kind: [n for n in names if scene.entities[n].kind is kind] for kind in EntityKind}
    targets = names + ["nowhere"]
    # (action, target, code, held): each a success that fits no scene, then
    # an E2 and an F1 step
    steps = [(ActionType.PICK, kinds[EntityKind.SPOT][0], None, CARRIED),
             *[(ActionType.PICK, name, None, CARRIED) for name in kinds[EntityKind.CONTAINER][:1]],
             (ActionType.PICK, "nowhere", None, CARRIED),
             (ActionType.PLACE, data.draw(st.sampled_from(targets)), None, None),
             (ActionType.PLACE, data.draw(st.sampled_from(targets)), ErrorCode.E2, None),
             (None, "", ErrorCode.F1, CARRIED)]
    actions = list(ActionType) + [None]
    for _ in range(data.draw(st.integers(0, 25))):
        action = data.draw(st.sampled_from(actions))
        # a success needs a subtask; an F1 step may hold one or not
        codes = [ErrorCode.F1] if action is None else [None] * 4 + list(ErrorCode)
        steps.append((action, data.draw(st.sampled_from(targets)),
                      data.draw(st.sampled_from(codes)),
                      data.draw(st.sampled_from([CARRIED] * 4 + [None] + targets))))
    hand = None
    for action, target, code, held in steps:
        if held is not CARRIED:
            hand = held
        step = StepRecord(output_of(action, target), SUCCESS if code is None else failure(code))
        expected = oracle_hand(step, hand)
        hand = apply_outcome(scene, step.output.subtask, code, hand)
        assert hand == expected, (action, target, code, held)
    assert observe(scene) == oracle_observe(scene)


# ---------------------------------------------------------------------------
# Scene.clone


def snapshot(scene) -> tuple:
    return (
        [fields(e) for e in scene.entities.values()],
        scene.agent.at,
        dict(scene.agent.band_overrides),
        {key: list(pending) for key, pending in scene.schedule.items()},
        dict(scene.rates),
        scene.seed,
        scene.rng.getstate(),
    )


def test_clone_mutations_stay_private():
    template = load_scene(scene_doc(outcome_schedule={"pick apple": ["E1", "ok"]}))
    before = snapshot(template)
    clone, sibling = template.clone(), template.clone()
    assert snapshot(clone) == before and snapshot(sibling) == before

    m3 = ModelChoice.M3
    assert act(clone, Subtask(ActionType.PICK, "apple", m3), None).code is not None
    assert act(clone, Subtask(ActionType.PICK, "apple", m3), None).ok  # schedule popped
    assert clone.entities["apple"].location == "@hand"
    assert act(clone, Subtask(ActionType.OPEN, "fridge", m3), None).ok
    assert clone.entities["fridge"].open_state is OpenState.OPEN
    clone.rng.random()
    clone.rates["e2_place"] = 1.0
    assert act(clone, Subtask(ActionType.GO_TO, "drawer", m3), "apple").ok
    assert clone.agent.at == "table"
    assert clone.agent.band_overrides == {"drawer": DistanceBand.REACHABLE}
    assert snapshot(clone) != before

    assert snapshot(template) == before
    assert snapshot(sibling) == before
    assert observe(sibling) == observe(load_scene(scene_doc()))
    assert template.positions is clone.positions
    assert template.directions is clone.directions


#: the attempts the lazy-rng test plays at the start spot, each of which
#: reaches the draw: a Go to draws on the navigation rate, a Pick on the
#: manipulation rate, and a Place on both that and the E2 rate
DRAWN_ATTEMPTS = {
    "go_to": (Subtask(ActionType.GO_TO, "table", ModelChoice.NOMAD), None),
    "pick": (Subtask(ActionType.PICK, "apple", ModelChoice.RT1X), None),
    "place": (Subtask(ActionType.PLACE, "counter", ModelChoice.RT1X), "apple"),
}


@settings(max_examples=60, deadline=None)
@given(template_seed=st.integers(0, 2**63 - 1), seed=st.integers(0, 2**63 - 1),
       rates=st.tuples(*[st.sampled_from([0.0, 0.3, 0.7, 1.0])] * 3),
       schedule=st.lists(st.sampled_from(["ok", "E1", "E2"]), max_size=3),
       attempts=st.lists(st.sampled_from(sorted(DRAWN_ATTEMPTS)), min_size=1, max_size=12))
def test_a_clone_seeds_its_rng_from_its_own_seed_on_first_read(template_seed, seed, rates,
                                                               schedule, attempts):
    # the rng is built when first read, from the clone's seed: the draws do
    # not depend on when that is, and equal those of the document reloaded
    # with that seed
    doc = scene_doc(seed=template_seed, outcome_schedule={"place counter": schedule},
                    failure_rates=dict(zip(("e1_manipulation", "e1_navigation", "e2_place"),
                                           rates)))
    template = load_scene(doc)
    assert template.clone(seed).rng.getstate() == random.Random(seed).getstate()
    lazy, read = template.clone(seed), template.clone(seed)
    read.rng.getstate()  # built before the first draw
    reloaded = load_scene({**doc, "seed": seed})

    def draws(scene):
        return [execute(scene, *DRAWN_ATTEMPTS[name]).code for name in attempts]

    assert draws(lazy) == draws(read) == draws(reloaded)
    assert lazy.rng.getstate() == read.rng.getstate() == reloaded.rng.getstate()


TEMPLATE_DOCS = {
    "scene_doc": scene_doc(),
    "scene_doc-bands": scene_doc(bands={"apple": "too_close", "table": "reachable"},
                                 agent_start="table"),
    **{path.stem: json.loads(path.read_bytes()) for path in sorted(BUNDLED_SCENES.glob("*.json"))},
}


@pytest.mark.parametrize("doc", TEMPLATE_DOCS.values(), ids=list(TEMPLATE_DOCS))
def test_loaded_template_arrives_observed(monkeypatch, doc):
    clone = load_scene(doc).clone()
    rendered = []
    render = sim._render_entity

    def counted(entity, *args):
        rendered.append(entity.name)
        return render(entity, *args)

    monkeypatch.setattr(sim, "_render_entity", counted)
    warm = observe(clone)
    assert rendered == []  # the first observe of an episode renders no entity
    clone.segments.clear()
    assert observe(clone) == warm  # the same as a cold render
    assert rendered


SEQUENCE = [
    (ActionType.PICK, "apple"), (ActionType.GO_TO, "apple"), (ActionType.PICK, "apple"),
    (ActionType.OPEN, "fridge"), (ActionType.PLACE, "counter"), (ActionType.OPEN, "fridge"),
    (ActionType.PICK, "banana"), (ActionType.GO_TO, "table"), (ActionType.PLACE, "drawer"),
    (ActionType.PICK, "apple"), (ActionType.PLACE, "drawer"),
] * 3


def play(scene) -> list:
    """Initial observations, then every outcome of SEQUENCE (with seeded E1
    and E2 draws) as the executor reports it, each paired with the
    observations after it is folded in."""
    state = EpisodeState("", scene)
    outcomes = [observe(scene)]
    for action, target in SEQUENCE:
        outcomes.append((play_step(state, action, target), observe(scene)))
    return outcomes


@pytest.mark.parametrize("seed", [None, 0, 3, 99])
def test_clone_matches_reload(seed):
    doc = scene_doc(
        failure_rates={"e1_manipulation": 0.3, "e1_navigation": 0.2, "e2_place": 0.4},
        outcome_schedule={"open fridge": ["E1"]},
        bands={"apple": "too_close"},
    )
    template = load_scene(doc)
    play(template.clone(seed=seed))  # an earlier episode must not leak into the next
    reloaded = doc if seed is None else {**doc, "seed": seed}
    clone, expected = template.clone(seed=seed), load_scene(reloaded)
    assert clone.seed == expected.seed
    assert play(clone) == play(expected)


# ---------------------------------------------------------------------------
# load_scene on damaged documents


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=8), children, max_size=3),
    max_leaves=8,
)

# every field of a valid document, nested ones included, as a key path
FIELD_PATHS = [
    ("id",), ("seed",), ("agent_start",), ("spots",), ("entities",), ("bands",),
    ("outcome_schedule",), ("failure_rates",),
    ("failure_rates", "e1_manipulation"), ("bands", "apple"),
    ("outcome_schedule", "open fridge"),
    ("spots", 0), ("spots", 0, "name"), ("spots", 0, "interactive"),
    ("spots", 0, "directions"), ("spots", 0, "directions", "front"),
    ("entities", 0), ("entities", 0, "name"), ("entities", 0, "kind"),
    ("entities", 0, "location"), ("entities", 0, "open_state"),
    ("entities", 0, "interactive"),
]


def damaged(path, value) -> dict:
    """A valid document with the field at key path ``path`` set to ``value``."""
    doc = scene_doc(outcome_schedule={"open fridge": ["E1"]}, bands={"apple": "too_close"})
    holder = doc
    for key in path[:-1]:
        holder = holder[key]
    holder[path[-1]] = value
    return doc


@settings(max_examples=300, deadline=None)
@given(path=st.sampled_from(FIELD_PATHS), value=json_values)
def test_load_scene_damaged_field_is_a_schema_error(path, value):
    try:
        load_scene(damaged(path, value))
    except SchemaError:
        pass


def json_type(value) -> str:
    if isinstance(value, bool):
        return "boolean"
    if isinstance(value, (int, float)):
        return "number"
    return {str: "string", list: "array", dict: "object"}.get(type(value), "null")


# fields with one JSON type each, and that type
TYPED_FIELDS = [
    (("id",), "string"), (("agent_start",), "string"), (("seed",), "number"),
    (("failure_rates", "e1_manipulation"), "number"), (("bands", "apple"), "string"),
    (("outcome_schedule", "open fridge", 0), "string"),
    (("spots", 0, "name"), "string"), (("spots", 0, "interactive"), "boolean"),
    (("spots", 0, "directions", "front", 0), "string"),
    (("entities", 0, "name"), "string"), (("entities", 0, "kind"), "string"),
    (("entities", 0, "location"), "string"), (("entities", 0, "open_state"), "string"),
    (("entities", 4, "interactive"), "boolean"),
]


# the exact error for a value of the wrong type in each TYPED_FIELDS field
TYPED_FIELD_ERRORS = {
    ("id",): "id: expected a JSON string",
    ("agent_start",): "agent_start: expected a JSON string",
    ("seed",): "seed: expected an integer, got 'x'",
    ("failure_rates", "e1_manipulation"):
        "failure_rates.e1_manipulation: expected a number in [0, 1], got 'x'",
    ("bands", "apple"): "bands['apple']: unknown distance band 1",
    ("outcome_schedule", "open fridge", 0): "outcome_schedule['open fridge']: unknown outcome '1'",
    ("spots", 0, "name"): "spots[0].name: expected a JSON string",
    ("spots", 0, "interactive"): "spots[0].interactive: expected a JSON boolean",
    ("spots", 0, "directions", "front", 0): "spots[0].directions.front[0]: expected a JSON string",
    ("entities", 0, "name"): "entities[0].name: expected a JSON string",
    ("entities", 0, "kind"): "entities[0].kind: expected a JSON string",
    ("entities", 0, "location"): "entities[0].location: expected a JSON string",
    ("entities", 0, "open_state"): "entities[0].open_state: expected a JSON string",
    ("entities", 4, "interactive"): "entities[4].interactive: expected a JSON boolean",
}

# bad values of the right type, and their exact errors
BAD_VALUE_ERRORS = [
    (("entities", 0, "kind"), "robot", "entities[0].kind: unknown kind 'robot'"),
    (("entities", 0, "kind"), "spot", "entities[0].kind: declare spots in the spots section"),
    (("entities", 0, "open_state"), "ajar", "entities[0].open_state: unknown state 'ajar'"),
    (("entities", 1, "open_state"), "open",
     "entities[1].open_state: only containers have an open state"),
    (("entities", 1, "location"), " _ ", "entities[1].location: missing or empty location"),
    (("entities", 1, "location"), "Nowhere",
     "entity 'banana': location 'nowhere' is not a spot or container"),
    (("entities", 1, "location"), "apple",
     "entity 'banana': location 'apple' is not a spot or container"),
    (("entities", 0, "name"), "", "entities[0].name: missing or empty name"),
    (("entities", 2, "name"), "Counter", "entities[2].name: duplicate entity name 'counter'"),
    (("entities", 0), "fridge", "entities[0]: expected an object"),
    (("spots", 0), "counter", "spots[0]: expected an object with a name"),
    (("spots", 1, "name"), "--", "spots[1].name: empty name"),
    (("spots", 1, "name"), "COUNTER", "spots[1].name: duplicate entity name 'counter'"),
    (("spots", 0, "directions", "up"), [], "spots[0].directions: unknown direction 'up'"),
    (("spots", 0, "directions", "front"), "counter",
     "spots[0].directions.front: expected a list of spots"),
    (("spots", 0, "directions", "front"), ["Fridge", "counter"],
     "spot 'counter': direction table entry 'fridge' is not a spot"),
    (("spots", 0, "directions", "front"), [],
     "spot 'counter': direction table must place every spot exactly once"),
    (("agent_start",), "fridge", "agent_start: 'fridge' is not a spot"),
    (("outcome_schedule", "pick unicorn"), ["ok"],
     "outcome_schedule: key 'pick unicorn': unknown entity 'unicorn'"),
    (("outcome_schedule", "open apple"), ["ok"],
     "outcome_schedule: key 'open apple': Open never acts on 'apple' (kind object)"),
    (("outcome_schedule", "Place  Banana"), ["E2"],
     "outcome_schedule: key 'Place  Banana' must look like 'pick apple'"),
    # a repeated spot, then a non-spot; a non-string after valid entries
    (("spots", 0, "directions", "front"), ["counter", "Counter", "sofa"],
     "spot 'counter': direction table entry 'sofa' is not a spot"),
    (("spots", 0, "directions", "front"), ["counter", "table", 3],
     "spots[0].directions.front[2]: expected a JSON string"),
    (("spots", 1, "directions", "back"), ["counter", None, []],
     "spots[1].directions.back[1]: expected a JSON string"),
]


def test_load_scene_typed_field_errors_are_pinned():
    assert set(TYPED_FIELD_ERRORS) == {path for path, _ in TYPED_FIELDS}
    wrong = {"string": 1, "number": "x", "boolean": "no"}
    for path, kind in TYPED_FIELDS:
        with pytest.raises(SchemaError) as raised:
            load_scene(damaged(path, wrong[kind]))
        assert str(raised.value) == TYPED_FIELD_ERRORS[path]


@pytest.mark.parametrize("path, value, message", BAD_VALUE_ERRORS)
def test_load_scene_bad_value_errors_are_pinned(path, value, message):
    with pytest.raises(SchemaError) as raised:
        load_scene(damaged(path, value))
    assert str(raised.value) == message


BOXED_PEN = [  # an object declared before the two containers that hold each other
    {"name": "pen", "kind": "object", "location": "box_a"},
    {"name": "box_a", "kind": "container", "location": "box_b", "open_state": "open"},
    {"name": "box_b", "kind": "container", "location": "box_a", "open_state": "open"},
]


@pytest.mark.parametrize("entities, message", [
    ([{**e, "location": {"fridge": "drawer", "drawer": "fridge"}.get(e["name"], e["location"])}
      for e in scene_doc()["entities"]],
     "entity 'fridge': containment cycle at 'drawer'"),
    (BOXED_PEN + scene_doc()["entities"], "entity 'pen': containment cycle at 'box_a'"),
])
def test_load_scene_containment_cycle_error_is_pinned(entities, message):
    # the first entity, in document order, whose containment chain loops
    with pytest.raises(SchemaError) as raised:
        load_scene(scene_doc(entities=entities))
    assert str(raised.value) == message


@settings(max_examples=300, deadline=None)
@given(field=st.sampled_from(TYPED_FIELDS), value=json_values)
def test_load_scene_field_of_another_type_is_a_schema_error(field, value):
    # a value of another JSON type is refused, never coerced: bool("no") is
    # true and str({"x": 1}) is a name
    path, kind = field
    assume(json_type(value) != kind)
    with pytest.raises(SchemaError):
        load_scene(damaged(path, value))


def two_faults(*edits, order=None) -> dict:
    """``scene_doc()`` with each ``(entity index, field, value)`` edit made,
    its entities then listed in ``order`` if given."""
    doc = scene_doc()
    for i, key, value in edits:
        doc["entities"][i][key] = value
    if order:
        doc["entities"] = [doc["entities"][i] for i in order]
    return doc


FRIDGE_DRAWER_CYCLE = ((0, "location", "drawer"), (3, "location", "fridge"))


# documents with two faults, and the one that is reported: the first in
# document order, with the containment-cycle check last of all
TWO_FAULT_ERRORS = [
    (two_faults((0, "name", 1), (0, "kind", "robot")),
     "entities[0].name: expected a JSON string"),
    (two_faults((2, "name", ["x"]), (0, "kind", "robot")),
     "entities[0].kind: unknown kind 'robot'"),
    (two_faults((0, "name", None), (2, "kind", "robot")),
     "entities[0].name: expected a JSON string"),
    (two_faults((0, "kind", "robot"), (0, "interactive", "no")),
     "entities[0].kind: unknown kind 'robot'"),
    (two_faults((0, "interactive", 0), (1, "kind", "robot")),
     "entities[0].interactive: expected a JSON boolean"),
    (two_faults((1, "kind", "robot"), (3, "interactive", "yes")),
     "entities[1].kind: unknown kind 'robot'"),
    (two_faults((1, "location", "nowhere"), *FRIDGE_DRAWER_CYCLE),
     "entity 'banana': location 'nowhere' is not a spot or container"),
    (two_faults((2, "location", "Banana"), *FRIDGE_DRAWER_CYCLE, order=[0, 3, 1, 4, 2]),
     "entity 'apple': location 'banana' is not a spot or container"),
    (two_faults((4, "location", "nowhere"), (2, "location", "No-where")),
     "entity 'apple': location 'no_where' is not a spot or container"),
    (two_faults((4, "location", "attic"), (1, "location", "zone"), (2, "location", "attic")),
     "entity 'banana': location 'zone' is not a spot or container"),
    (two_faults((4, "location", "apple"), (3, "location", "Apple")),
     "entity 'drawer': location 'apple' is not a spot or container"),
]


@pytest.mark.parametrize("doc, message", TWO_FAULT_ERRORS, ids=[
    "name-then-kind-same-entity", "kind-then-later-name", "name-then-later-kind",
    "kind-then-interactive-same-entity", "interactive-then-later-kind",
    "kind-then-later-interactive", "location-then-cycle", "cycle-entities-first",
    "shared-bad-location", "first-placed-bad-location", "object-holds-two"])
def test_load_scene_reports_the_first_of_two_faults(doc, message):
    with pytest.raises(SchemaError) as raised:
        load_scene(doc)
    assert str(raised.value) == message


@pytest.mark.parametrize("schedule, message", [
    ({"open apple": ["ok"], "pick unicorn": ["ok"]},
     "outcome_schedule: key 'open apple': Open never acts on 'apple' (kind object)"),
    ({"pick unicorn": ["ok"], "open apple": ["ok"]},
     "outcome_schedule: key 'pick unicorn': unknown entity 'unicorn'"),
    ({"pick apple": ["ok"], "close counter": 3},
     "outcome_schedule: key 'close counter': Close never acts on 'counter' (kind spot)"),
    ({"go_to nowhere": ["E2"]}, "outcome_schedule: key 'go_to nowhere': unknown entity 'nowhere'"),
], ids=["kind-then-entity", "entity-then-kind", "key-before-its-outcomes",
        "key-before-its-entries"])
def test_dead_schedule_keys_are_reported_in_document_order(schedule, message):
    # a key that can never fire is refused, and the key is checked before its value
    with pytest.raises(SchemaError) as raised:
        load_scene(scene_doc(outcome_schedule=schedule))
    assert str(raised.value) == message


def scanned_location_fault(doc):
    """The message ``load_scene`` gives for the locations of ``doc``, found
    entity by entity: the first entity whose location is not a spot or
    container, else the first whose containment chain loops; None if none."""
    kinds = {normalize_name(s["name"]): "spot" for s in doc["spots"]}
    kinds.update((normalize_name(e["name"]), e["kind"]) for e in doc["entities"])
    located = {normalize_name(e["name"]): normalize_name(e["location"])
               for e in doc["entities"]}
    for name, location in located.items():
        if kinds.get(location) not in ("spot", "container"):
            return f"entity {name!r}: location {location!r} is not a spot or container"
    for name, location in located.items():
        seen = []
        while kinds[location] != "spot":
            if location in seen:
                return f"entity {name!r}: containment cycle at {location!r}"
            seen.append(location)
            location = located[location]
    return None


@settings(max_examples=examples(300), deadline=None)
@given(doc=scene_docs(), data=st.data())
def test_location_faults_name_the_entity_a_scan_names(doc, data):
    # bad locations (unknown names or objects), or a ring of containers,
    # injected into a random scene
    entities = doc["entities"]
    assume(entities)
    containers = [e for e in entities if e["kind"] == "container"]
    objects = [e["name"] for e in entities if e["kind"] == "object"]
    if containers and data.draw(st.booleans()):
        ring = data.draw(st.lists(st.sampled_from(containers), min_size=1, max_size=3,
                                  unique_by=lambda e: e["name"]))
        for entity, holder in zip(ring, ring[1:] + ring[:1]):
            entity["location"] = holder["name"].upper()
    else:
        bad = st.sampled_from(["nowhere", "No Where", "attic-2", *objects])
        for entity in data.draw(st.lists(st.sampled_from(entities), min_size=1, max_size=3)):
            entity["location"] = data.draw(bad)
    expected = scanned_location_fault(doc)
    assert expected is not None
    with pytest.raises(SchemaError) as raised:
        load_scene(doc)
    assert str(raised.value) == expected


def test_containment_cycle_alone_is_reported():
    # the cycle in the last two TWO_FAULT_ERRORS cases is a fault on its own
    with pytest.raises(SchemaError) as raised:
        load_scene(two_faults(*FRIDGE_DRAWER_CYCLE))
    assert str(raised.value) == "entity 'fridge': containment cycle at 'drawer'"
