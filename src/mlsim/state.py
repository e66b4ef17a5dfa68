"""Dynamic-state algebra: influences, level states, agents, bodies.

A SystemState is an immutable snapshot; the engine owns the only mutation
path (building the next snapshot from the current one).  An agent's body in
a level is an entry of that level's property map, stored under
``body_key(agent_id)``; the map is the only place a body lives, so only that
level's reaction can change it.  ``bodies_of`` is the one reader of that key
format; ``LevelState.bodies()`` runs it once per level state and hands every
reader the same read-only mapping.  ``SystemState.memberships()`` derives the
agent -> levels index from those mappings on each call, so it always agrees
with what the reactions wrote; a stepped tick reads it once.  Snapshots are
plain values: what a run skips by is kept in the run (`engine.ReplayMemory`).
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, field
from types import MappingProxyType
from typing import Any, Callable, Iterable, Mapping

from .errors import IllegalInfluenceTarget, IllegalPerception, Value
from .levels import LevelId

ORDINARY = "ordinary"
EMERGENCE = "emergence"
CONSTRAINT = "constraint"

AgentId = str

# Marker used as the producer of influences persisted by a level's reaction.
REACTION_PRODUCER_PREFIX = "reaction:"

BODY_KEY_PREFIX = "body:"


def body_key(agent_id: AgentId) -> str:
    return BODY_KEY_PREFIX + agent_id


def bodies_of(properties: Mapping[str, Any], body_type=None) -> dict[AgentId, Body]:
    """The bodies held in one level property map, by agent id; with
    `body_type`, only those whose `type` attribute equals it, from the same
    one scan of the map."""
    start = len(BODY_KEY_PREFIX)
    if body_type is None:
        return {
            key[start:]: value
            for key, value in properties.items()
            if key.startswith(BODY_KEY_PREFIX)
        }
    return {
        key[start:]: value
        for key, value in properties.items()
        if key.startswith(BODY_KEY_PREFIX) and value.get("type") == body_type
    }


@dataclass(init=False, repr=False, eq=False)
class Influence(Value):
    """A typed, level-targeted desire for change.

    `payload` is the dict of the producer's keyword arguments; like
    `Body.attributes` it is read-only by contract: readers index it, nobody
    writes into it.  Identity is id-based: two influences with equal ids are
    the same influence for deduplication purposes, and ids are
    producer-scoped so they never collide across producers within a tick
    (see the `engine` module doc).  The hash reads the id only, so hashing
    never walks the payload; equality stays structural (dict equality
    ignores key order), and equal influences have equal ids, hence equal
    hashes.
    """

    id: str
    kind: str
    target_level: LevelId
    producer: str
    payload: dict
    klass: str = ORDINARY

    def __init__(self, id, kind, target_level, producer, payload, klass=ORDINARY):
        # Every field in one dict update, as for every `Value`, whose
        # `__setattr__` raises.
        self.__dict__.update(
            id=id, kind=kind, target_level=target_level, producer=producer,
            payload=payload, klass=klass,
        )

    def __hash__(self):
        return hash(self.id)


@dataclass(init=False, repr=False, eq=False)
class Body(Value):
    """An agent's physical manifestation in one level's state.

    `get(name, default=None)` reads an attribute: it is the attribute dict's
    own `get`, bound once per body, so a read costs no Python call.  A copy
    (pickle, `copy.copy`, `copy.deepcopy`) binds it to the copy's dict.
    """

    level: LevelId
    attributes: dict = field(default_factory=dict)

    def __init__(self, level, attributes=MISSING):
        if attributes is MISSING:
            attributes = {}
        # One dict update, as for `Influence`.
        self.__dict__.update(level=level, attributes=attributes, get=attributes.get)

    def __getstate__(self):
        return {"level": self.level, "attributes": self.attributes}

    def __setstate__(self, state):
        self.__init__(state["level"], state["attributes"])

    def with_attrs(self, **updates) -> "Body":
        attrs = dict(self.attributes)
        attrs.update(updates)
        return Body(self.level, attrs)


@dataclass(init=False, repr=False, eq=False)
class LevelState(Value):
    """Per-level dynamic state: property map plus influence set."""

    level: LevelId
    properties: dict = field(default_factory=dict)
    influences: frozenset = frozenset()

    def __init__(self, level, properties=MISSING, influences=frozenset()):
        if properties is MISSING:
            properties = {}
        # One dict update, as for `Influence`.
        self.__dict__.update(level=level, properties=properties, influences=influences)

    def bodies(self) -> Mapping[AgentId, Body]:
        """The level's bodies by agent id: built on the first call, then the
        same read-only mapping for every reader of this snapshot."""
        bodies = self.__dict__.get("_bodies")
        if bodies is None:
            bodies = self.__dict__["_bodies"] = MappingProxyType(bodies_of(self.properties))
        return bodies

    def derived(self, fn: Callable[["LevelState"], Any]):
        """`fn(self)`, computed on the first call for this level state and
        returned as is after that, like `bodies()`: a read-only view of the
        snapshot that several readers share.  `fn` is the cache key, so pass
        the same (module-level) function every time."""
        cache = self.__dict__.get("_derived")
        if cache is None:
            cache = self.__dict__["_derived"] = {}
        try:
            return cache[fn]
        except KeyError:
            value = cache[fn] = fn(self)
            return value

    def __getstate__(self):
        # The caches are rebuilt on demand; a mapping proxy cannot be copied.
        state = dict(self.__dict__)
        for cache in ("_bodies", "_derived"):
            state.pop(cache, None)
        return state


@dataclass(init=False, repr=False, eq=False)
class AgentRecord(Value):
    """An agent: its id, its kind (which picks a dynamic behavior) and the
    internal state its behavior's `memorize` keeps between ticks."""

    id: AgentId
    kind: str = ""
    internal_state: Any = None

    def __init__(self, id, kind="", internal_state=None):
        self.__dict__.update(id=id, kind=kind, internal_state=internal_state)


@dataclass(init=False, repr=False, eq=False)
class SystemState(Value):
    """One snapshot of the whole system: its time, the state of every level
    and the record of every agent."""

    time: int = 0
    per_level: dict = field(default_factory=dict)  # LevelId -> LevelState
    agents: dict = field(default_factory=dict)  # AgentId -> AgentRecord

    def __init__(self, time=0, per_level=MISSING, agents=MISSING):
        if per_level is MISSING:
            per_level = {}
        if agents is MISSING:
            agents = {}
        # One dict update, as for `Influence`.
        self.__dict__.update(time=time, per_level=per_level, agents=agents)

    def memberships(self) -> Mapping[AgentId, frozenset]:
        """Agent id -> the levels whose property map holds a body of it, for
        every body in the snapshot, built from the levels' `bodies()` on each
        call; an agent with no body is absent."""
        found: dict[AgentId, list] = {}
        for level, level_state in self.per_level.items():
            for agent_id in level_state.bodies():
                found.setdefault(agent_id, []).append(level)
        return {agent_id: frozenset(levels) for agent_id, levels in found.items()}


class Percept:
    """Read-only view over the level states a producer is allowed to perceive.

    Requesting a level outside the allowed set raises IllegalPerception; this
    is how perception-routing violations surface instead of silently leaking
    state.
    """

    def __init__(self, observed: Mapping[LevelId, LevelState], requester: str = "?"):
        # Not copied: the engine hands every producer with the same levels one
        # read-only mapping per tick.
        self._observed = observed
        self._requester = requester

    def __getitem__(self, level: LevelId) -> LevelState:
        try:
            return self._observed[level]
        except KeyError:
            raise IllegalPerception(
                f"{self._requester} requested level {level!r} outside its "
                f"perception neighborhood {sorted(self._observed)}"
            ) from None

    def __contains__(self, level: LevelId) -> bool:
        return level in self._observed


# --- operations ---

def group_by_level(levels: Iterable[LevelId], sets: Iterable[Iterable[Influence]]) -> dict:
    """The union of `sets`, partitioned by target level: level -> frozenset
    of the influences aimed at it, an influence repeated under its id kept
    once.  Every level in `levels` gets an entry, empty or not.  Two
    different influences of one id raise `IllegalInfluenceTarget`."""
    by_level: dict[LevelId, list] = {level: [] for level in levels}
    seen: dict[str, Influence] = {}
    for group in sets:
        for inf in group:
            first = seen.setdefault(inf.id, inf)
            if first is not inf:
                if first != inf:
                    raise IllegalInfluenceTarget(
                        f"two different influences have the id {inf.id!r}")
                continue
            bucket = by_level.get(inf.target_level)
            if bucket is None:
                bucket = by_level[inf.target_level] = []
            bucket.append(inf)
    return {level: frozenset(bucket) for level, bucket in by_level.items()}
