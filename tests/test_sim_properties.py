"""Property tests for observation rendering and per-episode scene clones."""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from homebench.core import ActionType, ErrorCode, Inventory, ModelChoice, SchemaError, Subtask
from homebench.sim import (
    DIRECTIONS,
    DistanceBand,
    EntityKind,
    OpenState,
    execute,
    load_scene,
    observe,
    relocate_lost_object,
    replay_step_mutation,
)

from test_sim import scene_doc


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
    spread over spots and containers, and distance-band overrides."""
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
    names = spots + [e["name"] for e in entities]
    bands = draw(st.dictionaries(
        st.sampled_from(names), st.sampled_from([b.value for b in DistanceBand]),
        max_size=3))
    return {
        "id": "generated",
        "agent_start": draw(st.sampled_from(spots)),
        "failure_rates": {"e1_manipulation": 0.0, "e1_navigation": 0.0, "e2_place": 0.0},
        "spots": spot_docs,
        "entities": entities,
        "bands": bands,
    }


MUTATIONS = [ActionType.PICK, ActionType.PLACE, ActionType.OPEN, ActionType.CLOSE,
             ActionType.GO_TO, "lost"]


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_observe_matches_oracle_under_random_mutations(data):
    doc = data.draw(scene_docs())
    template = load_scene(doc)
    # the same mutations run on a loaded scene and on a clone; the template
    # and a sibling clone must not see them
    scenes = [load_scene(doc), template.clone()]
    sibling = template.clone()
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
        for scene in scenes:
            # only objects are ever held, so a place cannot close a containment cycle
            if action == "lost":
                relocate_lost_object(scene, held)
            else:
                replay_step_mutation(scene, action, target, held)
            assert observe(scene) == oracle_observe(scene)
        assert observe(template) == pristine
        assert observe(sibling) == pristine


# ---------------------------------------------------------------------------
# Scene.clone


def snapshot(scene) -> tuple:
    return (
        [(e.name, e.kind, e.location, e.open_state, e.interactive)
         for e in scene.entities.values()],
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
    empty = Inventory()
    assert execute(clone, Subtask(ActionType.PICK, "apple", m3), empty).code is not None
    assert execute(clone, Subtask(ActionType.PICK, "apple", m3), empty).ok  # schedule popped
    assert clone.entities["apple"].location == "@hand"
    assert execute(clone, Subtask(ActionType.OPEN, "fridge", m3), empty).ok
    assert clone.entities["fridge"].open_state is OpenState.OPEN
    clone.rng.random()
    clone.rates["e2_place"] = 1.0
    assert execute(clone, Subtask(ActionType.GO_TO, "drawer", m3), Inventory("apple")).ok
    assert clone.agent.at == "table"
    assert clone.agent.band_overrides == {"drawer": DistanceBand.REACHABLE}
    assert snapshot(clone) != before

    assert snapshot(template) == before
    assert snapshot(sibling) == before
    assert observe(sibling) == observe(load_scene(scene_doc()))
    assert template.spot_order is clone.spot_order
    assert template.positions is clone.positions
    assert template.directions is clone.directions


SEQUENCE = [
    (ActionType.PICK, "apple"), (ActionType.GO_TO, "apple"), (ActionType.PICK, "apple"),
    (ActionType.OPEN, "fridge"), (ActionType.PLACE, "counter"), (ActionType.OPEN, "fridge"),
    (ActionType.PICK, "banana"), (ActionType.GO_TO, "table"), (ActionType.PLACE, "drawer"),
    (ActionType.PICK, "apple"), (ActionType.PLACE, "drawer"),
] * 3


def play(scene) -> list:
    """Initial observations, then every outcome of SEQUENCE (with seeded E1
    and E2 draws) as the executor reports it, each paired with the
    observations after it."""
    inventory = Inventory()
    outcomes = [observe(scene)]
    for action, target in SEQUENCE:
        outcome = execute(scene, Subtask(action, target, ModelChoice.M3), inventory)
        if outcome.code is ErrorCode.E2:
            inventory = Inventory()
        elif outcome.ok and action is ActionType.PICK:
            inventory = Inventory(target)
        elif outcome.ok and action is ActionType.PLACE:
            inventory = Inventory()
        outcomes.append((outcome, observe(scene)))
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
    clone, expected = template.clone(seed=seed), load_scene(doc, seed=seed)
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


@settings(max_examples=300, deadline=None)
@given(path=st.sampled_from(FIELD_PATHS), value=json_values)
def test_load_scene_damaged_field_is_a_schema_error(path, value):
    doc = scene_doc(outcome_schedule={"open fridge": ["E1"]}, bands={"apple": "too_close"})
    holder = doc
    for key in path[:-1]:
        holder = holder[key]
    holder[path[-1]] = value
    try:
        load_scene(doc)
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


@settings(max_examples=300, deadline=None)
@given(field=st.sampled_from(TYPED_FIELDS), value=json_values)
def test_load_scene_field_of_another_type_is_a_schema_error(field, value):
    # a value of another JSON type is refused, never coerced: bool("no") is
    # true and str({"x": 1}) is a name
    path, kind = field
    assume(json_type(value) != kind)
    doc = scene_doc(outcome_schedule={"open fridge": ["E1"]}, bands={"apple": "too_close"})
    holder = doc
    for key in path[:-1]:
        holder = holder[key]
    holder[path[-1]] = value
    with pytest.raises(SchemaError):
        load_scene(doc)
