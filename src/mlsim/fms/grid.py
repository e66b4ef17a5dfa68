"""4-connected grid world, BFS geometry, and the reach of field emitters.

The field law, which `model.FloorView.sense` evaluates, is linear decay over
BFS distance on free cells: an emitter of amplitude A contributes
max(0, A - d) at distance d, attraction positive, repulsion negative,
superposition additive.  Unreachable cells get no contribution.

Walls never move, so each `GridMap` owns its static geometry: a sorted
adjacency table and one per-source table of wall-only BFS distances, each
exact below a limit.  Readers that need every distance (the task assignment,
keyed by shop cells) ask for the limit `math.inf`, the full row.  Readers
that need only the distances below some limit (field emitters, and through
`GridMap.near` the deadlock grouping and the clearance check) ask for that
limit, so an AGV cell costs a ball of its reach, not a row of the whole
floor.  A ball asked for a larger
limit grows: the search resumes from its last level into a copy, so a row
handed out never changes.  Both tables are filled on first use and live on
the instance, so they die with the grid.

A shortest path needs no search of its own: on the goal's row, the walk that
steps from each cell to its smallest neighbor one step closer to the goal is
the lexicographically smallest shortest path, the one `bfs_path` returns.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from functools import cached_property

from ..errors import EmitterOnBlockedCell, Value

Cell = tuple[int, int]


def around(cell: Cell) -> tuple[Cell, Cell, Cell, Cell]:
    """The four cells next to `cell`, free or not, in sorted order."""
    x, y = cell
    return ((x - 1, y), (x, y - 1), (x, y + 1), (x + 1, y))


@dataclass(init=False, repr=False, eq=False)
class GridMap(Value):
    """A `width` x `height` floor whose `blocked` cells are walls, with its
    static geometry (see the module doc)."""

    width: int
    height: int
    blocked: frozenset = frozenset()

    def __init__(self, width, height, blocked=frozenset()):
        self.__dict__.update(width=width, height=height, blocked=blocked)

    def in_bounds(self, cell: Cell) -> bool:
        x, y = cell
        return 0 <= x < self.width and 0 <= y < self.height

    def is_free(self, cell: Cell) -> bool:
        return self.in_bounds(cell) and cell not in self.blocked

    def free_cells(self):
        return [(x, y) for y in range(self.height) for x in range(self.width)
                if (x, y) not in self.blocked]

    @cached_property
    def adjacency(self) -> dict[Cell, tuple[Cell, ...]]:
        """Sorted free 4-neighbors of every free cell, built on first use.
        Its keys are the free cells."""
        free = dict.fromkeys(self.free_cells())
        return {cell: tuple(filter(free.__contains__, around(cell))) for cell in free}

    @cached_property
    def _rows(self) -> dict[Cell, tuple[float, dict[Cell, int]]]:
        """Source -> (limit, row): the row is exact below the limit."""
        return {}

    def distances(self, source: Cell) -> dict[Cell, int]:
        """Wall-only BFS distances from `source` to every reachable cell."""
        return self.distances_below(source, math.inf)

    def distances_below(self, source: Cell, limit: float) -> dict[Cell, int]:
        """Wall-only BFS distances from `source` to at least every free cell
        at distance `< limit`, each exact; cells farther away may be missing.

        One row per source is cached.  When a caller asks for a larger
        limit, a copy of it is grown from its last level.  A search that runs
        out of cells before its limit is the full row and is cached with the
        limit `math.inf`, so it answers every limit.  The row is shared by
        every caller on this grid: read it, never mutate it.
        """
        entry = self._rows.get(source)
        if entry is not None and entry[0] >= limit:
            return entry[1]
        row = bfs_distances(self, source, limit, entry[1] if entry else None)
        # A cell at distance d was expanded iff d < limit - 1, and BFS inserts
        # cells in distance order: if even the last one was expanded, the
        # search ran out of cells and the row is complete.
        if row and next(reversed(row.values())) < limit - 1:
            limit = math.inf
        self._rows[source] = (limit, row)
        return row

    def near(self, a: Cell, b: Cell, limit: float) -> bool:
        """Whether `b` is at wall-only BFS distance `< limit` from `a`, read
        off `a`'s ball below the limit."""
        return self.distances_below(a, limit).get(b, limit) < limit


def bfs_distances(grid: GridMap, start: Cell, limit: float = math.inf,
                  ball: dict[Cell, int] | None = None) -> dict[Cell, int]:
    """BFS distance map over free cells.  The search stops expanding at
    distance `limit - 1`: the map holds `start` and exactly the reachable
    cells at distance `< limit`.

    `ball`, when given, is a map this function returned for `start` under a
    smaller limit, whose last level is unexpanded.  The search resumes from
    that level into a copy, so the result equals a fresh search, in the same
    insertion order, and `ball` is left as it is."""
    adjacency = grid.adjacency
    if start not in adjacency:
        return {}
    if ball:
        dist = dict(ball)
        last = next(reversed(dist.values()))
        frontier = []
        for cell in reversed(dist):
            if dist[cell] != last:
                break
            frontier.append(cell)
        frontier.reverse()
        step = last + 1
    else:
        dist = {start: 0}
        frontier = [start]
        step = 1
    while frontier and step < limit:
        reached = []
        for cell in frontier:
            for nxt in adjacency[cell]:
                if nxt not in dist:
                    dist[nxt] = step
                    reached.append(nxt)
        frontier = reached
        step += 1
    return dist


def bfs_path(grid: GridMap, start: Cell, goal: Cell, obstacles=frozenset()):
    """Lexicographically smallest shortest path start->goal, or None.

    Determinism matters: neighbors are explored in sorted order and the first
    parent assignment wins, so equal-length paths always resolve the same way.
    """
    if not grid.is_free(start) or not grid.is_free(goal) or goal in obstacles:
        return None
    if start == goal:
        return [start]
    adjacency = grid.adjacency
    parent = {start: None}
    queue = deque([start])
    while queue:
        cell = queue.popleft()
        for nxt in adjacency[cell]:
            if nxt in parent or nxt in obstacles:
                continue
            parent[nxt] = cell
            if nxt == goal:
                path = [nxt]
                while parent[path[-1]] is not None:
                    path.append(parent[path[-1]])
                return list(reversed(path))
            queue.append(nxt)
    return None


def emitter_reach(grid: GridMap, cell: Cell, amplitude: int) -> dict[Cell, int]:
    """The distances from an emitter at `cell` to at least every cell its
    field touches: cells at distance >= amplitude get nothing, so its ball
    below the amplitude suffices.  Raises EmitterOnBlockedCell when the
    emitter is outside the free cell set."""
    if cell not in grid.adjacency:
        raise EmitterOnBlockedCell(f"emitter at {cell} is blocked or out of bounds")
    return grid.distances_below(cell, amplitude)
