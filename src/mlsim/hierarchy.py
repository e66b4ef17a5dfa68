"""Emergence/constraint paradigm over hierarchically coupled level pairs.

A constraint influence carries a selector in its payload; before a level
reacts, every ordinary influence matched by a present constraint's selector is
removed.  Constraints themselves are consumed in the same step.  Emergence
influences exist only at the macro level and may only be produced by
registered detectors, never by agent behaviors or reactions; this producer
whitelisting enforces the definition structurally.

`hierarchy_issues` is the one static check of these rules: a scenario's
declarations and a model's go through it alike.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, NamedTuple

from .errors import Issue, Value
from .levels import LevelId
from .state import CONSTRAINT, ORDINARY


@dataclass(init=False, repr=False, eq=False)
class HierarchicalCoupling(Value):
    """A micro level coupled to a macro level: emergences rise from the
    micro level to the macro level, and constraints come down."""

    micro: LevelId
    macro: LevelId

    def __init__(self, micro, macro):
        self.__dict__.update(micro=micro, macro=macro)


@dataclass(init=False, repr=False, eq=False)
class InfluenceSelector(Value):
    """Pure, declarative predicate over an influence's kind and producer: it
    matches an influence of kind `match_kind` from `match_producer`, or from
    any producer when that is None."""

    match_kind: str
    match_producer: str | None = None

    def __init__(self, match_kind, match_producer=None):
        self.__dict__.update(match_kind=match_kind, match_producer=match_producer)


@dataclass(init=False, repr=False, eq=False)
class EmergenceKindDecl(Value):
    """An emergence kind: producible at `macro_level`, and only by the
    registered detector `detector`."""

    kind: str
    macro_level: LevelId
    detector: str  # name of the registered detector rule allowed to produce it

    def __init__(self, kind, macro_level, detector):
        self.__dict__.update(kind=kind, macro_level=macro_level, detector=detector)


@dataclass(init=False, repr=False, eq=False)
class ConstraintKindDecl(Value):
    """A constraint kind into `micro_level`, whose influences inhibit
    influences of the kind `inhibits` there."""

    kind: str
    micro_level: LevelId
    inhibits: str  # the ordinary kind tag this constraint kind targets

    def __init__(self, kind, micro_level, inhibits):
        self.__dict__.update(kind=kind, micro_level=micro_level, inhibits=inhibits)


class Declarations(NamedTuple):
    """A model's hierarchy declarations (`Model.decls`): what may be produced
    at each level, and the couplings, emergences and constraints over them."""

    producible_kinds: Mapping  # LevelId -> frozenset[str]
    couplings: tuple = ()  # HierarchicalCoupling
    emergences: tuple = ()  # EmergenceKindDecl
    constraints: tuple = ()  # ConstraintKindDecl


def hierarchy_issues(levels, influence_edges, decls: Declarations,
                     detectors: Mapping) -> list[Issue]:
    """Every violation of the hierarchy rules, as coded issues (empty = legal).

    `detectors` maps each registered detector's name to its level.  A coupling
    needs the influence edge both ways.  An emergence kind is producible at its
    macro level and at none of that level's micro levels, where its detector
    sits.  A constraint kind and the kind it inhibits are producible at its
    micro level, not both at one of its macro levels, and the inhibited kind is
    no constraint.  No kind is declared an emergence or constraint twice.
    """
    issues = []

    def report(code, message):
        issues.append(Issue(code, message))

    kinds = decls.producible_kinds
    for level in sorted(set(kinds) - set(levels)):
        report("unknown-level-endpoint", f"kinds declared for unknown level {level!r}")

    couplings = []
    for c in decls.couplings:
        if c.micro not in levels or c.macro not in levels:
            report("unknown-level-endpoint",
                   f"coupling {c.micro}/{c.macro} references unknown level")
            continue
        couplings.append(c)
        for edge in ((c.micro, c.macro), (c.macro, c.micro)):
            if edge not in influence_edges:
                report("coupling-edges",
                       f"coupling {c.micro}/{c.macro} requires influence edge {edge}")

    declared = [d.kind for d in decls.emergences + decls.constraints]
    for kind in sorted({k for k in declared if declared.count(k) > 1}):
        report("kind-discipline", f"kind {kind!r} is declared an emergence or constraint twice")

    for decl in decls.emergences:
        kind, macro = decl.kind, decl.macro_level
        if macro not in levels:
            report("unknown-level-endpoint", f"emergence {kind!r}: unknown level {macro!r}")
            continue
        micros = sorted({c.micro for c in couplings if c.macro == macro})
        if not micros:
            report("kind-discipline", f"emergence {kind!r}: no coupling with macro {macro!r}")
        if kind not in kinds.get(macro, ()):
            report("kind-discipline", f"emergence kind {kind!r} not producible at {macro!r}")
        for micro in micros:
            if kind in kinds.get(micro, ()):
                report("kind-discipline",
                       f"emergence kind {kind!r} must not be producible at micro level {micro!r}")
        if decl.detector not in detectors:
            report("emergence-producer",
                   f"emergence {kind!r}: {decl.detector!r} is not a registered detector "
                   f"(behaviors/naturals may not produce emergences)")
        elif micros and detectors[decl.detector] not in micros:
            report("emergence-producer",
                   f"emergence {kind!r}: detector {decl.detector!r} sits at "
                   f"{detectors[decl.detector]!r}, not at a micro level {micros}")

    constraint_kinds = {d.kind for d in decls.constraints}
    for decl in decls.constraints:
        kind, micro, inhibits = decl.kind, decl.micro_level, decl.inhibits
        if micro not in levels:
            report("unknown-level-endpoint", f"constraint {kind!r}: unknown level {micro!r}")
            continue
        macros = sorted({c.macro for c in couplings if c.micro == micro})
        if not macros:
            report("kind-discipline", f"constraint {kind!r}: no coupling with micro {micro!r}")
        for k in (kind, inhibits):
            if k not in kinds.get(micro, ()):
                report("kind-discipline",
                       f"constraint pair member {k!r} not producible at {micro!r}")
        if inhibits in constraint_kinds:
            report("constraint-over-constraint",
                   f"constraint {kind!r} inhibits constraint kind {inhibits!r}")
        for macro in macros:
            if kind in kinds.get(macro, ()) and inhibits in kinds.get(macro, ()):
                report("kind-discipline", f"constraint pair {{{inhibits!r}, {kind!r}}} "
                                          f"must not belong to macro level {macro!r}")
    return issues


@dataclass(init=False, repr=False, eq=False)
class InhibitionRecord(Value):
    """One applied constraint: its id and the ids of the influences it
    removed."""

    constraint_id: str
    inhibited_ids: tuple  # empty tuple = the constraint was a no-op

    def __init__(self, constraint_id, inhibited_ids):
        self.__dict__.update(constraint_id=constraint_id, inhibited_ids=inhibited_ids)


def apply_constraints(influences) -> tuple[frozenset, tuple]:
    """Filter a level's produced influence set through its constraints.

    Returns (filtered set, inhibition log).  Constraints only ever match
    ordinary-class influences, are applied in id order for a stable log, and
    never survive filtering themselves.  A set without constraints comes back
    as it is (a frozenset is returned itself), with an empty log.

    A selector matches on a kind and an optional producer, so the ordinary
    influences are indexed once by (kind, producer) and by (kind, None), and
    each constraint looks its hits up instead of testing every influence.
    """
    constraints = sorted(
        (i for i in influences if i.klass == CONSTRAINT), key=lambda i: i.id
    )
    if not constraints:
        return frozenset(influences), ()
    others = [i for i in influences if i.klass != CONSTRAINT]
    index: dict[tuple, list] = {}
    for i in others:
        if i.klass == ORDINARY:
            index.setdefault((i.kind, i.producer), []).append(i.id)
            index.setdefault((i.kind, None), []).append(i.id)

    inhibited: set[str] = set()
    log = []
    for constraint in constraints:
        selector = constraint.payload.get("selector")
        hits: tuple = ()
        if selector is not None:
            hits = tuple(sorted(index.get((selector.match_kind, selector.match_producer), ())))
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

