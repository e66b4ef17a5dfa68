"""Dynamic-state algebra: influences, level states, agents, bodies.

A SystemState is an immutable snapshot; the engine owns the only mutation
path (building the next snapshot from the current one).  An agent's body in
a level is an entry of that level's property map, stored under
``body_key(agent_id)``; the map is the only place a body lives, so only that
level's reaction can change it.  ``bodies_of`` is the one reader of that key
format; ``LevelState.bodies()`` runs it once per level state and hands every
reader the same read-only mapping.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType
from typing import Any, Iterable, Mapping

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


def _freeze_payload(payload: Mapping[str, Any]) -> tuple:
    return tuple(sorted(payload.items()))


@dataclass(frozen=True)
class Influence:
    """A typed, level-targeted desire for change.

    Identity is id-based: two influences with equal ids are the same influence
    for deduplication purposes, and ids are producer-scoped so they never
    collide across producers or ticks.
    """

    id: str
    kind: str
    target_level: LevelId
    producer: str
    payload: tuple = ()
    klass: str = ORDINARY

    def payload_get(self, key: str, default=None):
        for k, v in self.payload:
            if k == key:
                return v
        return default


def influence(kind, target_level, producer, uid, klass=ORDINARY, **payload) -> Influence:
    return Influence(
        id=uid,
        kind=kind,
        target_level=target_level,
        producer=producer,
        payload=_freeze_payload(payload),
        klass=klass,
    )


@dataclass(frozen=True)
class Body:
    """An agent's physical manifestation in one level's state."""

    level: LevelId
    attributes: dict = field(default_factory=dict)

    def get(self, name, default=None):
        return self.attributes.get(name, default)

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
        return self._bodies

    @cached_property
    def _bodies(self) -> Mapping[AgentId, Body]:
        return MappingProxyType(bodies_of(self.properties))

    def __getstate__(self):
        # The cache is rebuilt on demand; a mapping proxy cannot be copied.
        state = dict(self.__dict__)
        state.pop("_bodies", None)
        return state


@dataclass(frozen=True)
class AgentRecord:
    id: AgentId
    kind: str = ""
    internal_state: Any = None


@dataclass(frozen=True)
class EnvironmentRecord:
    id: str
    member_levels: frozenset
    natural: Any = None  # callable(percept, ctx) -> iterable[Influence]

    def __post_init__(self):
        if not self.member_levels:
            raise ValueError(f"environment {self.id!r} must belong to at least one level")


@dataclass(frozen=True)
class SystemState:
    time: int = 0
    per_level: dict = field(default_factory=dict)  # LevelId -> LevelState
    agents: dict = field(default_factory=dict)  # AgentId -> AgentRecord


class Percept:
    """Read-only view over the level states a producer is allowed to perceive.

    Requesting a level outside the allowed set raises IllegalPerception; this
    is how perception-routing violations surface instead of silently leaking
    state.
    """

    def __init__(self, observed: Mapping[LevelId, LevelState], requester: str = "?"):
        self._observed = dict(observed)
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
    key = body_key(agent_id)
    return frozenset(
        level for level, level_state in state.per_level.items() if key in level_state.properties
    )


def merge_influences(sets: Iterable[Iterable[Influence]]) -> frozenset:
    """Set union with id-based deduplication."""
    merged: dict[str, Influence] = {}
    for group in sets:
        for inf in group:
            merged.setdefault(inf.id, inf)
    return frozenset(merged.values())
