"""Dynamic-state algebra: influences, level states, agents, bodies.

A SystemState is an immutable snapshot; the engine owns the only mutation
path (building the next snapshot from the current one).  An agent's body in
a level is an entry of that level's property map, stored under
``body_key(agent_id)``; the map is the only place a body lives, so only that
level's reaction can change it.  ``bodies_of`` is the one reader of that key
format; ``LevelState.bodies()`` runs it once per level state and hands every
reader the same read-only mapping.  ``SystemState.memberships()`` derives the
agent -> levels index from those mappings on each call, so it always agrees
with what the reactions wrote; a stepped tick reads it once.  A snapshot
after a frozen tick also holds that tick's step, which the engine replays
instead of stepping (`engine.react`); a replayed tick reads no membership
index.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Any, Callable, Iterable, Mapping

from .errors import IllegalPerception, UnknownAgent
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


def bodies_of(properties: Mapping[str, Any]) -> dict[AgentId, Body]:
    """The bodies held in one level property map, by agent id."""
    return {
        key[len(BODY_KEY_PREFIX):]: value
        for key, value in properties.items()
        if key.startswith(BODY_KEY_PREFIX)
    }


@dataclass(frozen=True, init=False)
class Influence:
    """A typed, level-targeted desire for change.

    `payload` is the dict of the producer's keyword arguments; like
    `Body.attributes` it is read-only by contract: readers index it, nobody
    writes into it.  Identity is id-based: two influences with equal ids are
    the same influence for deduplication purposes, and ids are
    producer-scoped so they never collide across producers or ticks.  The
    hash reads the id only, so hashing never walks the payload; equality
    stays structural (dict equality ignores key order), and equal
    influences have equal ids, hence equal hashes.
    """

    id: str
    kind: str
    target_level: LevelId
    producer: str
    payload: dict
    klass: str = ORDINARY

    def __init__(self, id, kind, target_level, producer, payload, klass=ORDINARY):
        # One dict update instead of the frozen dataclass's one
        # object.__setattr__ per field; assignment still raises.
        self.__dict__.update(
            id=id, kind=kind, target_level=target_level, producer=producer,
            payload=payload, klass=klass,
        )

    def __hash__(self):
        return hash(self.id)


@dataclass(frozen=True, init=False)
class Body:
    """An agent's physical manifestation in one level's state.

    `get(name, default=None)` reads an attribute: it is the attribute dict's
    own `get`, bound once per body, so a read costs no Python call.  A copy
    (pickle, `copy.copy`, `copy.deepcopy`) binds it to the copy's dict.
    """

    level: LevelId
    attributes: dict = field(default_factory=dict)

    def __init__(self, level, attributes=None):
        if attributes is None:
            attributes = {}
        # One dict update, as for `Influence`; assignment still raises.
        self.__dict__.update(level=level, attributes=attributes, get=attributes.get)

    def __getstate__(self):
        return {"level": self.level, "attributes": self.attributes}

    def __setstate__(self, state):
        self.__init__(state["level"], state["attributes"])

    def with_attrs(self, **updates) -> "Body":
        attrs = dict(self.attributes)
        attrs.update(updates)
        return Body(self.level, attrs)


@dataclass(frozen=True)
class LevelState:
    """Per-level dynamic state: property map plus influence set."""

    level: LevelId
    properties: dict = field(default_factory=dict)
    influences: frozenset = frozenset()

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
        cache = self.__dict__.setdefault("_derived", {})
        try:
            return cache[fn]
        except KeyError:
            value = cache[fn] = fn(self)
            return value

    def __getstate__(self):
        # The caches are rebuilt on demand; a mapping proxy cannot be copied.
        # A copy drops `engine.quiet_rule`'s record too: it calls its reaction.
        state = dict(self.__dict__)
        for cache in ("_bodies", "_derived", "_quiet_rule"):
            state.pop(cache, None)
        return state


@dataclass(frozen=True, init=False)
class AgentRecord:
    id: AgentId
    kind: str = ""
    internal_state: Any = None

    def __init__(self, id, kind="", internal_state=None):
        self.__dict__.update(id=id, kind=kind, internal_state=internal_state)


@dataclass(frozen=True)
class SystemState:
    time: int = 0
    per_level: dict = field(default_factory=dict)  # LevelId -> LevelState
    agents: dict = field(default_factory=dict)  # AgentId -> AgentRecord

    def memberships(self) -> Mapping[AgentId, frozenset]:
        """Agent id -> the levels whose property map holds a body of it, for
        every body in the snapshot, built from the levels' `bodies()` on each
        call; an agent with no body is absent."""
        found: dict[AgentId, list] = {}
        for level, level_state in self.per_level.items():
            for agent_id in level_state.bodies():
                found.setdefault(agent_id, []).append(level)
        return {agent_id: frozenset(levels) for agent_id, levels in found.items()}

    def successor(self, per_level: dict, agents: dict, step: tuple | None = None) -> "SystemState":
        """The next snapshot.  `step` is the frozen step the engine hands
        over (`engine.react`): the next snapshot holds it, and its tick
        replays it instead of calling producers and reactions."""
        nxt = SystemState(self.time + 1, per_level, agents)
        if step is not None:
            nxt.__dict__["_held_step"] = step
        return nxt

    def __getstate__(self):
        # `_held_step` is the engine's record of a frozen tick; a copy starts
        # without one and steps.
        state = dict(self.__dict__)
        state.pop("_held_step", None)
        return state


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

    def levels(self) -> frozenset:
        return frozenset(self._observed)


# --- operations ---

def member_levels(state: SystemState, agent_id: AgentId) -> frozenset:
    """Levels whose property map holds a body of the agent."""
    if agent_id not in state.agents:
        raise UnknownAgent(agent_id)
    return state.memberships().get(agent_id, frozenset())


def group_by_level(levels: Iterable[LevelId], sets: Iterable[Iterable[Influence]]) -> dict:
    """The union of `sets`, partitioned by target level: level -> frozenset
    of the influences aimed at it, the first influence of each id kept.
    Every level in `levels` gets an entry, empty or not."""
    by_level: dict[LevelId, list] = {level: [] for level in levels}
    seen: set[str] = set()
    for group in sets:
        for inf in group:
            if inf.id in seen:
                continue
            seen.add(inf.id)
            bucket = by_level.get(inf.target_level)
            if bucket is None:
                bucket = by_level[inf.target_level] = []
            bucket.append(inf)
    return {level: frozenset(bucket) for level, bucket in by_level.items()}
