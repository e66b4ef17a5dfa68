"""Emergence/constraint paradigm over hierarchically coupled level pairs.

A constraint influence carries a selector in its payload; before a level
reacts, every ordinary influence matched by a present constraint's selector is
removed.  Constraints themselves are consumed in the same step.  Emergence
influences exist only at the macro level and may only be produced by
registered detectors, never by macro behaviors or naturals; this producer
whitelisting enforces the definition structurally.
"""

from __future__ import annotations

from dataclasses import dataclass

from .levels import LevelId
from .state import CONSTRAINT, ORDINARY, Influence


@dataclass(frozen=True)
class HierarchicalCoupling:
    micro: LevelId
    macro: LevelId


@dataclass(frozen=True)
class InfluenceSelector:
    """Pure, declarative predicate over an influence's fields."""

    match_kind: str
    match_producer: str | None = None
    payload_equals: tuple = ()  # ((key, value), ...)

    def matches(self, inf: Influence) -> bool:
        if inf.kind != self.match_kind:
            return False
        if self.match_producer is not None and inf.producer != self.match_producer:
            return False
        for key, value in self.payload_equals:
            if inf.payload_get(key) != value:
                return False
        return True


@dataclass(frozen=True)
class EmergenceKindDecl:
    kind: str
    macro_level: LevelId
    detector: str  # name of the registered detector rule allowed to produce it


@dataclass(frozen=True)
class ConstraintKindDecl:
    kind: str
    micro_level: LevelId
    inhibits: str  # the ordinary kind tag this constraint kind targets


@dataclass(frozen=True)
class InhibitionRecord:
    constraint_id: str
    inhibited_ids: tuple  # empty tuple = the constraint was a no-op


def apply_constraints(influences) -> tuple[frozenset, tuple]:
    """Filter a level's produced influence set through its constraints.

    Returns (filtered set, inhibition log).  Constraints only ever match
    ordinary-class influences, are applied in id order for a stable log, and
    never survive filtering themselves.
    """
    influences = list(influences)
    constraints = sorted(
        (i for i in influences if i.klass == CONSTRAINT), key=lambda i: i.id
    )
    others = [i for i in influences if i.klass != CONSTRAINT]

    inhibited: set[str] = set()
    log = []
    for constraint in constraints:
        selector = constraint.payload_get("selector")
        hits: tuple = ()
        if selector is not None:
            hits = tuple(
                sorted(i.id for i in others if i.klass == ORDINARY and selector.matches(i))
            )
        inhibited.update(hits)
        log.append(InhibitionRecord(constraint.id, hits))
    kept = frozenset(i for i in others if i.id not in inhibited)
    return kept, tuple(log)


def merge_trapped_groups(groups) -> list[frozenset]:
    """Connected components of the overlap relation over agent-id sets.

    Simultaneous emergences with overlapping member sets collapse into one
    group so a micro agent is never governed by two macro agents at once.
    """
    components: list[set] = []
    for group in groups:
        group = set(group)
        touching = [c for c in components if c & group]
        for c in touching:
            group |= c
            components.remove(c)
        components.append(group)
    return sorted((frozenset(c) for c in components), key=lambda c: sorted(c))

