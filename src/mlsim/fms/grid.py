"""4-connected grid world, BFS geometry, and scalar field superposition.

The field law is linear decay over BFS distance on free cells:
an emitter of amplitude A contributes max(0, A - d) at distance d, attraction
positive, repulsion negative, superposition additive.  Unreachable cells get
no contribution.

Walls never move, so each `GridMap` owns its static geometry: a sorted
adjacency table and one per-source table of wall-only BFS distances, each
exact below a limit.  Readers that need every distance (the task assignment,
keyed by shop cells) ask for the limit `math.inf`, the full row.  Readers
that need only the distances below some limit (field emitters, deadlock
grouping, the clearance check) ask for that limit, so an AGV cell costs a
ball of its reach, not a row of the whole floor.  Both tables are filled on
first use and live on the instance, so they die with the grid.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from functools import cached_property

from ..errors import EmitterOnBlockedCell

Cell = tuple[int, int]


@dataclass(frozen=True)
class GridMap:
    width: int
    height: int
    blocked: frozenset = frozenset()

    def in_bounds(self, cell: Cell) -> bool:
        x, y = cell
        return 0 <= x < self.width and 0 <= y < self.height

    def is_free(self, cell: Cell) -> bool:
        return self.in_bounds(cell) and cell not in self.blocked

    def cells(self):
        for y in range(self.height):
            for x in range(self.width):
                yield (x, y)

    def free_cells(self):
        return [c for c in self.cells() if c not in self.blocked]

    def neighbors4(self, cell: Cell) -> list[Cell]:
        x, y = cell
        candidates = [(x - 1, y), (x + 1, y), (x, y - 1), (x, y + 1)]
        return sorted(c for c in candidates if self.is_free(c))

    @cached_property
    def adjacency(self) -> dict[Cell, tuple[Cell, ...]]:
        """Sorted free 4-neighbors of every free cell, built on first use."""
        return {cell: tuple(self.neighbors4(cell)) for cell in self.free_cells()}

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

        One row per source is cached, and grown when a caller asks for a
        larger limit.  A search that runs out of cells before its limit is
        the full row and is cached with the limit `math.inf`, so it answers
        every limit.  The row is shared by every caller on this grid: read
        it, never mutate it.
        """
        entry = self._rows.get(source)
        if entry is not None and entry[0] >= limit:
            return entry[1]
        row = bfs_distances(self, source, limit=limit)
        # A cell at distance d was expanded iff d < limit - 1, and BFS inserts
        # cells in distance order: if even the last one was expanded, the
        # search ran out of cells and the row is complete.
        if row and next(reversed(row.values())) < limit - 1:
            limit = math.inf
        self._rows[source] = (limit, row)
        return row


def bfs_distances(grid: GridMap, start: Cell, obstacles=frozenset(),
                  limit: float = math.inf) -> dict[Cell, int]:
    """BFS distance map over free cells, treating `obstacles` as extra walls.
    The start cell itself is never treated as an obstacle.  The search stops
    expanding at distance `limit - 1`: the map holds `start` and exactly the
    reachable cells at distance `< limit`."""
    if not grid.is_free(start):
        return {}
    adjacency = grid.adjacency
    dist = {start: 0}
    queue = deque([start])
    while queue:
        cell = queue.popleft()
        step = dist[cell] + 1
        if step >= limit:
            break
        for nxt in adjacency[cell]:
            if nxt in dist or nxt in obstacles:
                continue
            dist[nxt] = step
            queue.append(nxt)
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


def compute_fields(grid: GridMap, attractors, repulsors, cells=None) -> dict[Cell, float]:
    """Net potential per free cell, or only at `cells` when given.

    attractors / repulsors: iterables of (cell, amplitude).  Raises
    EmitterOnBlockedCell for any emitter outside the free cell set.
    """
    field = {cell: 0.0 for cell in (grid.free_cells() if cells is None else cells)}
    for sign, emitters in ((1.0, attractors), (-1.0, repulsors)):
        for cell, amplitude in emitters:
            if cell not in grid.adjacency:
                raise EmitterOnBlockedCell(f"emitter at {cell} is blocked or out of bounds")
            # Cells at distance >= amplitude get nothing, so the ball suffices.
            dist = grid.distances_below(cell, amplitude)
            for target in field:
                d = dist.get(target)
                if d is not None and amplitude - d > 0:
                    field[target] += sign * (amplitude - d)
    return field
