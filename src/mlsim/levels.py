"""Static multi-level structure: levels, influence and perception relations.

Levels are opaque strings.  The influence relation and the perception relation
are directed graphs over the level set; intra-level relations are implicit, so
a self-loop edge is an error rather than stored.  All four neighborhood
functions are reflexive by definition.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, field

from .errors import EmptyLevelSet, SelfLoopEdge, UnknownLevel, UnknownLevelEndpoint, Value

LevelId = str
Edge = tuple[LevelId, LevelId]


@dataclass(init=False, repr=False, eq=False)
class LevelGraphSpec(Value):
    """Raw, possibly unnormalized declaration of a level graph."""

    levels: frozenset[LevelId]
    influence_edges: frozenset[Edge]
    perception_edges: frozenset[Edge]

    def __init__(self, levels, influence_edges, perception_edges):
        self.__dict__.update(levels=levels, influence_edges=influence_edges,
                             perception_edges=perception_edges)

    @classmethod
    def make(cls, levels, influence_edges=(), perception_edges=()) -> "LevelGraphSpec":
        return cls(
            levels=frozenset(levels),
            influence_edges=frozenset((a, b) for a, b in influence_edges),
            perception_edges=frozenset((a, b) for a, b in perception_edges),
        )


def _neighborhoods(levels, edges):
    """Reflexive in/out neighborhood tables for one edge relation."""
    out = {l: {l} for l in levels}
    inc = {l: {l} for l in levels}
    for a, b in edges:
        out[a].add(b)
        inc[b].add(a)
    return (
        {l: frozenset(s) for l, s in inc.items()},
        {l: frozenset(s) for l, s in out.items()},
    )


@dataclass(init=False, repr=False, eq=False)
class ValidatedLevelGraph(Value):
    """Validated level graph with precomputed neighborhood tables.

    Immutable after construction.  `routes` memoizes a pure function of the
    graph per level set; the memo only ever gains entries.
    """

    spec: LevelGraphSpec
    _in_influence: dict = field(repr=False, compare=False, default=None)
    _out_influence: dict = field(repr=False, compare=False, default=None)
    _in_perception: dict = field(repr=False, compare=False, default=None)
    _out_perception: dict = field(repr=False, compare=False, default=None)
    _routes: dict = field(repr=False, compare=False, default_factory=dict)

    def __init__(self, spec, _in_influence=None, _out_influence=None, _in_perception=None,
                 _out_perception=None, _routes=MISSING):
        self.__dict__.update(
            spec=spec, _in_influence=_in_influence, _out_influence=_out_influence,
            _in_perception=_in_perception, _out_perception=_out_perception,
            _routes={} if _routes is MISSING else _routes,
        )

    @property
    def levels(self) -> frozenset[LevelId]:
        return self.spec.levels

    def _check(self, level: LevelId) -> None:
        if level not in self.spec.levels:
            raise UnknownLevel(level)

    def in_influence(self, level: LevelId) -> frozenset[LevelId]:
        self._check(level)
        return self._in_influence[level]

    def out_influence(self, level: LevelId) -> frozenset[LevelId]:
        self._check(level)
        return self._out_influence[level]

    def in_perception(self, level: LevelId) -> frozenset[LevelId]:
        self._check(level)
        return self._in_perception[level]

    def out_perception(self, level: LevelId) -> frozenset[LevelId]:
        self._check(level)
        return self._out_perception[level]

    def routes(self, levels: frozenset) -> tuple[frozenset, frozenset]:
        """(perceived levels, influence targets) of a producer that belongs to
        `levels`: the union of their out-perception and of their out-influence
        neighborhoods.  The graph never changes, so each level set's pair is
        computed on first ask and kept."""
        route = self._routes.get(levels)
        if route is None:
            route = self._routes[levels] = (
                frozenset().union(*map(self.out_perception, levels)),
                frozenset().union(*map(self.out_influence, levels)),
            )
        return route


def validate(spec: LevelGraphSpec) -> ValidatedLevelGraph:
    """Validate a raw spec.

    An empty level set, a dangling edge endpoint and a self-loop edge are
    hard errors; duplicates disappear through set semantics.  Every dangling
    edge is named in one message, the edges in sorted order.
    """
    if not spec.levels:
        raise EmptyLevelSet("a level graph needs at least one level")
    relations = {"influence": spec.influence_edges, "perception": spec.perception_edges}
    dangling = []
    for relation, edges in relations.items():
        for a, b in sorted(edges):
            unknown = [endpoint for endpoint in (a, b) if endpoint not in spec.levels]
            if unknown:
                dangling.append(f"{relation} edge ({a}, {b}) references unknown "
                                f"level{'s' * (len(unknown) > 1)} {', '.join(map(repr, unknown))}")
    if dangling:
        raise UnknownLevelEndpoint("; ".join(dangling))
    loops = sorted(f"{relation} edge ({a}, {b})"
                   for relation, edges in relations.items() for a, b in edges if a == b)
    if loops:
        raise SelfLoopEdge(f"{', '.join(loops)}: intra-level relations are implicit")

    in_i, out_i = _neighborhoods(spec.levels, spec.influence_edges)
    in_p, out_p = _neighborhoods(spec.levels, spec.perception_edges)
    return ValidatedLevelGraph(
        spec=spec,
        _in_influence=in_i,
        _out_influence=out_i,
        _in_perception=in_p,
        _out_perception=out_p,
    )
