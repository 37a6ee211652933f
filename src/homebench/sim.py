"""Desk-scale discrete household world: decides the outcome of each of the
six skills against a small entity graph (``execute``), with every error code
and its canonical message, applies an outcome to the world and the hand
(``apply_outcome``, the one way a step changes a scene and the hand, in
live play and in log replay alike), and renders four-direction textual
observations.

A Scene is mutable single-episode state. Parse each scene document once
with ``load_scene``, give each episode its own ``clone()`` of that template,
and never share one episode's copy across threads. ``load_scene`` observes
the template once, so it carries the segments of its start view and the
first ``observe`` of each clone renders nothing. A clone builds its rng from
its own seed on the first draw, so a scene whose rates are all 0 seeds none.
The step path compares against members, and returns failure values, bound
once as module constants (``_SPOT``, ``_FAIL_L3``; see ``core.IdentityEnum``).

A clone shares the template's ``Entity`` objects and location lists, so a
write replaces one and never mutates it: ``Scene.move`` (the one way an
entity's location changes) builds a new ``Entity`` and new location ->
children lists, and ``apply_outcome`` builds a new ``Entity`` to open or
close a container. Each write also drops the cached observation segments
of the spots it touches; a write made any other way would leak into other
clones or leave a stale segment.
"""

from __future__ import annotations

import bisect
import functools
import random
from dataclasses import dataclass, field
from typing import Optional, Union

from .core import (
    SUCCESS,
    ActionType,
    ErrorCode,
    Feedback,
    IdentityEnum,
    SchemaError,
    Subtask,
    _refuse_unknown_keys,
    failure,
    normalize_name,
    read_json,
)


class DuplicateName(SchemaError):
    """Two scene entities normalize to the same name."""


class EntityKind(IdentityEnum):
    OBJECT = "object"
    CONTAINER = "container"
    SPOT = "spot"


class OpenState(IdentityEnum):
    OPEN = "open"
    CLOSED = "closed"


class DistanceBand(IdentityEnum):
    TOO_CLOSE = "too_close"
    REACHABLE = "reachable"
    TOO_FAR = "too_far"


_OBJECT, _CONTAINER, _SPOT = EntityKind  # an Enum unpacks in member order
_OPEN, _CLOSED = OpenState
_TOO_CLOSE, _REACHABLE, _TOO_FAR = DistanceBand
_GO_TO, _PICK, _PLACE, _END = ActionType.GO_TO, ActionType.PICK, ActionType.PLACE, ActionType.END
_E2 = ErrorCode.E2
_FAIL_F2, _FAIL_L1, _FAIL_L2, _FAIL_L3, _FAIL_L4, _FAIL_D1, _FAIL_D2 = (
    failure(ErrorCode[name]) for name in ("F2", "L1", "L2", "L3", "L4", "D1", "D2"))
#: each outcome ``_outcome_draw`` returns, as the feedback ``execute`` returns
_DRAWN = {"ok": SUCCESS, "E1": failure(ErrorCode.E1), "E2": failure(_E2)}
#: the open state a successful Open or Close leaves
_STATE_AFTER = {ActionType.OPEN: _OPEN, ActionType.CLOSE: _CLOSED}


#: The entity kinds each skill acts on: Go to reaches anything, only an
#: object is picked, an object is placed onto anything but an object, and
#: only a container opens or closes. End acts on nothing.
TARGET_KINDS = {
    ActionType.GO_TO: (EntityKind.OBJECT, EntityKind.CONTAINER, EntityKind.SPOT),
    ActionType.PICK: (EntityKind.OBJECT,),
    ActionType.PLACE: (EntityKind.CONTAINER, EntityKind.SPOT),
    ActionType.OPEN: (EntityKind.CONTAINER,),
    ActionType.CLOSE: (EntityKind.CONTAINER,),
    ActionType.END: (),
}


DIRECTIONS = ("front", "left", "back", "right")

#: Location marker for an object currently in the agent's hand.
HAND = "@hand"

# Demo-scene failure rates, applied per attempt when a scene document does
# not pin its own. Test scenes should set explicit zeros and drive failures
# through the outcome schedule instead.
DEFAULT_RATES = {"e1_manipulation": 0.1, "e1_navigation": 0.05, "e2_place": 0.05}


@dataclass(slots=True)
class Entity:
    name: str
    kind: EntityKind
    location: str  # spot or container name; spots use ""; held objects use HAND
    open_state: Optional[OpenState] = None
    interactive: bool = True

    def __post_init__(self):
        if (self.open_state is not None) != (self.kind is _CONTAINER):
            raise SchemaError(
                f"entity {self.name!r}: open_state belongs to containers only"
            )


@dataclass
class AgentPose:
    at: str  # current spot ("" in a degenerate empty scene)
    band_overrides: dict = field(default_factory=dict)


@dataclass
class Scene:
    """One episode's world. ``directions`` and ``positions`` are never
    mutated; everything else is episode state, so run each episode
    on a ``clone()`` of a template scene rather than on the template itself.
    The values of ``entities`` and ``children`` may be shared with the
    template and its other clones, so a write replaces them. ``segments``
    caches each spot's part of the observations for ``observe``; a template
    from ``load_scene`` holds those of its start view, and clones copy them.
    ``rng`` is ``random.Random(seed)``, built on its first read, so a scene
    that never draws never seeds one."""

    id: str
    entities: dict  # normalized name -> Entity (spots first), insertion-ordered
    directions: dict  # spot -> {direction -> tuple of spot names}
    agent: AgentPose
    schedule: dict  # "action_token target" -> list of pending outcome strings
    rates: dict
    seed: int
    children: dict  # location -> names of the non-spot entities there, in insertion order
    positions: dict  # name -> insertion index in ``entities``
    segments: dict = field(default_factory=dict, compare=False, repr=False)  # spot -> text

    @functools.cached_property
    def rng(self) -> random.Random:
        return random.Random(self.seed)

    def clone(self, seed: Optional[int] = None) -> "Scene":
        """Fresh episode copy with its own dicts, pose, schedule, rates and
        rng (seeded with ``seed``, or the template's seed when None, on its
        first read), sharing the template's entities and lists. Equal to
        reloading the same document with its ``seed`` set to ``seed``."""
        return Scene(
            id=self.id,
            entities=dict(self.entities),
            directions=self.directions,
            agent=AgentPose(self.agent.at, dict(self.agent.band_overrides)),
            schedule={key: list(pending) for key, pending in self.schedule.items()},
            rates=dict(self.rates),
            seed=self.seed if seed is None else int(seed),
            children=dict(self.children),
            positions=self.positions,
            segments=dict(self.segments),
        )

    def move(self, name: str, location: str) -> None:
        """Put the non-spot entity ``name`` at ``location`` (a spot, a
        container or HAND); the one way an entity's location changes."""
        entity = self.entities[name]
        self.drop_segments(entity.location, location)
        self.entities[name] = Entity(entity.name, entity.kind, location, entity.open_state,
                                    entity.interactive)
        self.children[entity.location] = [n for n in self.children[entity.location] if n != name]
        siblings = list(self.children.get(location, ()))
        bisect.insort(siblings, name, key=self.positions.__getitem__)
        self.children[location] = siblings

    def drop_segments(self, *names: str) -> None:
        """Forget the rendered segment of the spot each of ``names`` (an
        entity, or HAND) sits at, so ``observe`` renders it again."""
        for name in names:
            if name in self.entities:
                self.segments.pop(self.spot_of(name), None)

    # -- queries ------------------------------------------------------------

    def spot_of(self, name: str) -> Optional[str]:
        """Root spot an entity sits at (following container nesting), or None
        for a held object."""
        entity = self.entities[name]
        if entity.kind is _SPOT:
            return name
        seen = set()
        location = entity.location
        while location not in (HAND, ""):
            if location in seen:
                raise SchemaError(f"entity {name!r}: containment cycle at {location!r}")
            seen.add(location)
            parent = self.entities[location]
            if parent.kind is _SPOT:
                return location
            location = parent.location
        return None

    def band(self, name: str) -> DistanceBand:
        if name in self.agent.band_overrides:
            return self.agent.band_overrides[name]
        root = self.spot_of(name)
        if root is None:  # in hand
            return _REACHABLE
        return _REACHABLE if root == self.agent.at else _TOO_FAR


# ---------------------------------------------------------------------------
# loading


def _parse_band(raw: str, where: str) -> DistanceBand:
    try:
        return DistanceBand(str(raw))
    except ValueError:
        raise SchemaError(f"{where}: unknown distance band {raw!r}") from None


_JSON_TYPES = {list: "list", dict: "object", str: "string", bool: "boolean"}

#: the top-level keys of a scene document; any other is refused
SCENE_KEYS = ("id", "spots", "entities", "agent_start", "bands", "outcome_schedule",
              "failure_rates", "seed")


_KINDS = {kind.value: kind for kind in EntityKind}
#: schedule key token -> the action it schedules (End is never drawn)
_SCHEDULED_ACTIONS = {action.token: action for action, kinds in TARGET_KINDS.items() if kinds}
_OPEN_STATES = {state.value: state for state in OpenState}


def _path(first: str, *keys) -> str:
    """A field's name in errors: ``("spots", 0, "name")`` reads ``spots[0].name``."""
    return first + "".join(f"[{key}]" if isinstance(key, int) else f".{key}" for key in keys)


def _typed(value, kind: type, *where):
    """``value``, which must be of the JSON type ``kind``; the field is
    named by ``_path(*where)`` in errors, formatted only then."""
    if not isinstance(value, kind):
        raise SchemaError(f"{_path(*where)}: expected a JSON {_JSON_TYPES[kind]}")
    return value


def _section(doc: dict, key: str, kind: type, *where):
    """The field ``key`` (named ``_path(*where)``, or ``key``, in errors),
    which must hold a JSON list or object; absent or null reads as empty."""
    value = doc.get(key)
    return kind() if value is None else _typed(value, kind, *(where or (key,)))


def load_scene(data) -> Scene:
    """Build a Scene from a scene document (dict, JSON str, or bytes),
    observed once so that it holds the segments of its start view.

    Faults are reported in document order, section by section, after an
    unknown top-level key (one not in ``SCENE_KEYS``); a containment cycle
    is checked last. ``Scene.clone`` gives each episode
    its own copy, with its own seed.
    """
    doc = read_json(data, "scene document") if isinstance(data, (bytes, str)) else data
    if not isinstance(doc, dict):
        raise SchemaError("scene document must be a JSON object")
    _refuse_unknown_keys(doc, SCENE_KEYS, "scene document")

    scene_id = _typed(doc.get("id", "scene"), str, "id")
    entities: dict = {}
    spot_order = []
    directions = {}
    normalized = functools.cache(normalize_name)  # locations and direction entries repeat

    for i, spot_doc in enumerate(_section(doc, "spots", list)):
        if not isinstance(spot_doc, dict) or "name" not in spot_doc:
            raise SchemaError(f"spots[{i}]: expected an object with a name")
        name = normalize_name(_typed(spot_doc["name"], str, "spots", i, "name"))
        if not name:
            raise SchemaError(f"spots[{i}].name: empty name")
        if name in entities:
            raise DuplicateName(f"spots[{i}].name: duplicate entity name {name!r}")
        entities[name] = Entity(
            name, _SPOT, "",
            interactive=_typed(spot_doc.get("interactive", True), bool, "spots", i, "interactive"),
        )
        spot_order.append(name)
        table = _section(spot_doc, "directions", dict, "spots", i, "directions")
        parsed = {}
        for direction, names in table.items():
            if direction not in DIRECTIONS:
                raise SchemaError(f"spots[{i}].directions: unknown direction {direction!r}")
            if not isinstance(names, list):
                raise SchemaError(f"spots[{i}].directions.{direction}: expected a list of spots")
            try:  # only a non-string entry fails; the scan below names it
                parsed[direction] = tuple(map(normalized, names))
            except (AttributeError, TypeError):
                for j, n in enumerate(names):
                    _typed(n, str, "spots", i, "directions", direction, j)
        directions[name] = parsed

    # the types are checked inline; ``_typed`` is called only to raise.
    # ``children`` indexes the non-spot entities by location as they come
    children: dict = {}
    for i, ent_doc in enumerate(_section(doc, "entities", list)):
        if not isinstance(ent_doc, dict):
            raise SchemaError(f"entities[{i}]: expected an object")
        get = ent_doc.get
        name = get("name", "")
        if not isinstance(name, str):
            _typed(name, str, "entities", i, "name")
        name = normalize_name(name)
        if not name:
            raise SchemaError(f"entities[{i}].name: missing or empty name")
        if name in entities:
            raise DuplicateName(f"entities[{i}].name: duplicate entity name {name!r}")
        kind_raw = get("kind", "")
        if not isinstance(kind_raw, str):
            _typed(kind_raw, str, "entities", i, "kind")
        kind = _KINDS.get(kind_raw)
        if kind is None:
            raise SchemaError(f"entities[{i}].kind: unknown kind {kind_raw!r}")
        if kind is _SPOT:
            raise SchemaError(f"entities[{i}].kind: declare spots in the spots section")
        open_state = None
        if kind is _CONTAINER:
            open_raw = get("open_state", "closed")
            if not isinstance(open_raw, str):
                _typed(open_raw, str, "entities", i, "open_state")
            open_state = _OPEN_STATES.get(open_raw)
            if open_state is None:
                raise SchemaError(f"entities[{i}].open_state: unknown state {open_raw!r}")
        elif "open_state" in ent_doc:
            raise SchemaError(f"entities[{i}].open_state: only containers have an open state")
        location = get("location", "")
        if not isinstance(location, str):
            _typed(location, str, "entities", i, "location")
        location = normalized(location)
        if not location:
            raise SchemaError(f"entities[{i}].location: missing or empty location")
        interactive = get("interactive", True)
        if not isinstance(interactive, bool):
            _typed(interactive, bool, "entities", i, "interactive")
        entities[name] = Entity(name, kind, location, open_state, interactive)
        children.setdefault(location, []).append(name)

    # locations must resolve to a declared spot or container; a location's
    # first child is the first entity, in document order, placed there
    for location, placed in children.items():
        parent = entities.get(location)
        if parent is None or parent.kind is _OBJECT:
            raise SchemaError(
                f"entity {placed[0]!r}: location {location!r} is not a spot or container"
            )

    # every spot's direction table must place every spot exactly once
    spots = set(spot_order)
    for spot, table in directions.items():
        assigned = [n for direction in DIRECTIONS for n in table.get(direction, ())]
        if len(assigned) != len(spots) or set(assigned) != spots:
            for n in assigned:
                if n not in spots:
                    raise SchemaError(
                        f"spot {spot!r}: direction table entry {n!r} is not a spot"
                    )
            raise SchemaError(
                f"spot {spot!r}: direction table must place every spot exactly once"
            )

    agent_start = normalize_name(_typed(doc.get("agent_start", ""), str, "agent_start"))
    if spot_order:
        if agent_start not in spot_order:
            raise SchemaError(f"agent_start: {agent_start!r} is not a spot")
    elif agent_start:
        raise SchemaError("agent_start: scene has no spots")
    agent = AgentPose(at=agent_start)

    for name, band_raw in _section(doc, "bands", dict).items():
        norm = normalize_name(str(name))
        if norm not in entities:
            raise SchemaError(f"bands: unknown entity {name!r}")
        agent.band_overrides[norm] = _parse_band(band_raw, f"bands[{name!r}]")

    schedule = {}
    for key, outcomes in _section(doc, "outcome_schedule", dict).items():
        token, _, target = str(key).partition(" ")
        action = _SCHEDULED_ACTIONS.get(token)
        if action is None or not target:
            raise SchemaError(
                f"outcome_schedule: key {key!r} must look like 'pick apple'"
            )
        # a key whose subtask ``execute`` never draws for can never fire
        target = normalize_name(target)
        entity = entities.get(target)
        if entity is None:
            raise SchemaError(f"outcome_schedule: key {key!r}: unknown entity {target!r}")
        if entity.kind not in TARGET_KINDS[action]:
            raise SchemaError(f"outcome_schedule: key {key!r}: {action.label} never acts "
                              f"on {target!r} (kind {entity.kind.value})")
        if action is not _GO_TO and not entity.interactive:
            raise SchemaError(f"outcome_schedule: key {key!r}: {action.label} never acts "
                              f"on {target!r} (not interactive)")
        if not isinstance(outcomes, list):
            raise SchemaError(f"outcome_schedule[{key!r}]: expected a list of outcomes")
        entries = [str(o) for o in outcomes]
        for entry in entries:
            if entry not in ("ok", "E1", "E2"):
                raise SchemaError(f"outcome_schedule[{key!r}]: unknown outcome {entry!r}")
            if entry == "E2" and token != "place":
                raise SchemaError(f"outcome_schedule[{key!r}]: E2 applies to place only")
        schedule[f"{token} {target}"] = entries

    rates = dict(DEFAULT_RATES)
    for key, value in _section(doc, "failure_rates", dict).items():
        if key not in DEFAULT_RATES:
            raise SchemaError(f"failure_rates: unknown rate {key!r}")
        if type(value) not in (int, float) or not 0 <= value <= 1:
            raise SchemaError(f"failure_rates.{key}: expected a number in [0, 1], got {value!r}")
        rates[key] = float(value)

    doc_seed = doc.get("seed", 0)
    if type(doc_seed) is not int:  # bool is an int subclass, and not a seed
        raise SchemaError(f"seed: expected an integer, got {doc_seed!r}")
    # every containment chain (the walk ``spot_of`` makes) must end at a
    # spot; ``rooted`` holds the locations already known to reach one, and
    # the walk from a location names the first entity placed there
    rooted = set(spots)
    for location, placed in children.items():
        chain = []
        while location not in rooted:
            if location in chain:
                raise SchemaError(f"entity {placed[0]!r}: containment cycle at {location!r}")
            chain.append(location)
            location = entities[location].location
        rooted.update(chain)
    scene = Scene(
        id=scene_id,
        entities=entities,
        directions=directions,
        agent=agent,
        schedule=schedule,
        rates=rates,
        seed=doc_seed,
        children=children,
        positions={name: i for i, name in enumerate(entities)},
    )
    observe(scene)  # clones inherit the segments of the start view
    return scene


# ---------------------------------------------------------------------------
# observations


_BAND_TEXT = {_REACHABLE: "reachable", _TOO_FAR: "too far", _TOO_CLOSE: "too close"}
_STATE_TEXT = {_OPEN: "open", _CLOSED: "closed"}


def _render_entity(entity: Entity, band: DistanceBand, children: dict) -> str:
    text = _BAND_TEXT[band]
    if entity.kind is _CONTAINER:
        bits = [_STATE_TEXT[entity.open_state], text]
        if entity.open_state is _OPEN:
            contents = children.get(entity.name)
            if contents:
                bits.append("contains: " + ", ".join(contents))
        return f"{entity.name} ({', '.join(bits)})"
    return f"{entity.name} ({text})"


def observe(scene: Scene) -> tuple:
    """Deterministic four-direction observation texts (front, left, back,
    right). Objects inside a closed container are not visible; contents of
    open containers are listed nested under the container. Renders only the
    spots whose segment a write has dropped since the last call."""
    entities, children, segments = scene.entities, scene.children, scene.segments
    at, overrides = scene.agent.at, scene.agent.band_overrides
    table = scene.directions.get(at, {})
    texts = []
    for direction in DIRECTIONS:
        parts = []
        for spot in table.get(direction, ()):
            segment = segments.get(spot)
            if segment is None:
                # a spot and everything listed under it share that spot as
                # their root, so each band is its override or the spot's distance
                near = _REACHABLE if spot == at else _TOO_FAR
                segment = segments[spot] = "; ".join([
                    _render_entity(entities[name], overrides.get(name, near), children)
                    for name in (spot, *children.get(spot, ()))])
            parts.append(segment)
        texts.append("; ".join(parts) if parts else "nothing notable")
    return tuple(texts)


# ---------------------------------------------------------------------------
# execution


def resolve_target(scene: Scene, name: str) -> Union[Entity, Feedback]:
    """Exact-match lookup on the normalized name; a miss is the F2 outcome
    value, not an exception."""
    entity = scene.entities.get(normalize_name(name))
    if entity is None:
        return _FAIL_F2
    return entity


def _outcome_draw(scene: Scene, action: ActionType, target: str) -> str:
    """Next scheduled outcome for (action, target), falling back to seeded
    rates. Returns "ok", "E1", or "E2"."""
    key = f"{action.token} {target}"
    pending = scene.schedule.get(key)
    if pending:
        return pending.pop(0)
    if action is _GO_TO:
        rate = scene.rates["e1_navigation"]
    else:
        rate = scene.rates["e1_manipulation"]
    if rate > 0 and scene.rng.random() < rate:
        return "E1"
    if action is _PLACE:
        e2 = scene.rates["e2_place"]
        if e2 > 0 and scene.rng.random() < e2:
            return "E2"
    return "ok"


def _enclosing_closed_container(scene: Scene, entity: Entity) -> bool:
    location = entity.location
    while location not in (HAND, ""):
        parent = scene.entities[location]
        if parent.kind is _CONTAINER and parent.open_state is _CLOSED:
            return True
        location = parent.location
    return False


def _is_object(scene: Scene, name: Optional[str]) -> bool:
    entity = scene.entities.get(name) if name else None
    return entity is not None and entity.kind is _OBJECT


def apply_outcome(scene: Scene, subtask: Optional[Subtask], code: Optional[ErrorCode],
                  held: Optional[str]) -> Optional[str]:
    """Apply one step's outcome to the scene and return what the hand holds
    after it: the one way a step changes the world and the hand, in live
    play and in log replay alike.

    ``code`` is the step's error code (None on a success; ``subtask`` is
    None only on an F1 step) and ``held`` what the hand held before it. A
    success applies when its target is of a kind ``TARGET_KINDS`` lists for
    its action, whether or not the target is interactive, and a Place also
    needs an object in the hand. An E2 drops the held object at the agent's
    spot. Any other outcome changes nothing. Steps ``execute`` decided
    always meet these guards; a hand-made log that does not fit the scene
    changes nothing instead of corrupting it, so only objects ever move.

    The hand follows the log even where the scene does not: a successful
    Pick puts its target in the hand, whatever the hand held; a successful
    Place and an E2 empty it; anything else leaves it as it was.
    """
    if code is not None:
        if code is not _E2:
            return held
        if _is_object(scene, held):
            scene.move(held, scene.agent.at)
        return None
    action, target = subtask.action, subtask.target
    entity = scene.entities.get(target)
    if entity is not None and entity.kind in TARGET_KINDS[action]:
        if action is _PICK:
            scene.move(target, HAND)
        elif action is _PLACE:
            if _is_object(scene, held):
                scene.move(held, target)
        elif action is _GO_TO:
            agent = scene.agent
            # the target's spot is the new ``at`` (or the old one, if it is held)
            scene.drop_segments(agent.at, target, *agent.band_overrides)
            root = scene.spot_of(target)
            if root is not None:
                agent.at = root
            agent.band_overrides.clear()
            agent.band_overrides[target] = _REACHABLE
        else:  # Open or Close
            scene.entities[target] = Entity(entity.name, entity.kind, entity.location,
                                            _STATE_AFTER[action], entity.interactive)
            scene.drop_segments(target)
    if action is _PICK:
        return target
    return None if action is _PLACE else held


def execute(scene: Scene, subtask: Subtask, held: Optional[str]) -> Feedback:
    """Decide one validated subtask, with ``held`` (or None) in the hand,
    against the scene and return its feedback: ``SUCCESS`` or the failure
    value of one error code. Only the outcome draw changes the scene (a
    scheduled outcome is used up, or the rng advances); applying the
    outcome to the world is ``apply_outcome``'s job.

    Checks apply in fixed precedence: F2, L4 (a target that is not
    interactive, or of a kind ``TARGET_KINDS`` does not list for the
    action), L1, L2, L3, D2, D1, then the scheduled/stochastic execution
    outcome. Navigation skips the L4, hand and distance preconditions
    entirely, so GoTo can only fail with F2 or E1.
    An E1 here is a single failed attempt; the caller owns the three-attempt
    retry budget. An E2 means the held object fell nearby. Rendering the
    post-step observations is the caller's job (``observe``).
    """
    action = subtask.action
    if action is _END:
        return SUCCESS
    target = resolve_target(scene, subtask.target)
    if isinstance(target, Feedback):
        return target

    if action is not _GO_TO:
        if target.kind not in TARGET_KINDS[action] or not target.interactive:
            return _FAIL_L4
        if action is _PLACE:
            if held is None:
                return _FAIL_L2
        elif held is not None:
            return _FAIL_L1
        if action is _PICK and _enclosing_closed_container(scene, target):
            return _FAIL_L3
        if action is _PLACE and target.kind is _CONTAINER and target.open_state is _CLOSED:
            return _FAIL_L3

        band = scene.band(target.name)
        if band is _TOO_CLOSE:
            return _FAIL_D2
        if band is _TOO_FAR:
            return _FAIL_D1

    return _DRAWN[_outcome_draw(scene, action, target.name)]
