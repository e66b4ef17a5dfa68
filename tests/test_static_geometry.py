"""Static-wall geometry tables, the single-BFS parking planner and the
wait-for cycle/grouping code, each checked against the straightforward
algorithm it replaced (kept here as a test-only oracle)."""

import gc
import itertools
import math
import os
import subprocess
import sys
import weakref
from collections import deque
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

import mlsim
from mlsim.engine import run
from mlsim.fms.grid import GridMap, bfs_distances, bfs_path
from mlsim.fms.model import (
    FLOOR,
    FmsParams,
    SafetyChecker,
    SolverBehavior,
    all_tasks_delivered,
    fms_metrics,
    wait_cycles,
)
from mlsim.hierarchy import merge_trapped_groups
from mlsim.scenario import build, parse_scenario, parse_scenario_dict
from mlsim.state import Body

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"
FIXTURES = ("corridor.json", "open_floor.json", "walled_trap.json")

sys.path.insert(0, str(ROOT / "bench"))  # read-only use of the floor generator
try:
    from floors import generate_floor
finally:
    sys.path.remove(str(ROOT / "bench"))


# --- oracles: the neighbors4-based algorithms the tables replaced ------------

def oracle_bfs_distances(grid, start, obstacles=frozenset()):
    if not grid.is_free(start):
        return {}
    dist = {start: 0}
    queue = deque([start])
    while queue:
        cell = queue.popleft()
        for nxt in grid.neighbors4(cell):
            if nxt in dist or nxt in obstacles:
                continue
            dist[nxt] = dist[cell] + 1
            queue.append(nxt)
    return dist


def oracle_bfs_path(grid, start, goal, obstacles=frozenset()):
    if not grid.is_free(start) or not grid.is_free(goal) or goal in obstacles:
        return None
    if start == goal:
        return [start]
    parent = {start: None}
    queue = deque([start])
    while queue:
        cell = queue.popleft()
        for nxt in grid.neighbors4(cell):
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


def oracle_plan(grid, members, agvs):
    """The all-pairs planner: one bfs_path per (member, free cell)."""
    def goal_of(body):
        if body.get("assigned") is None:
            return None
        return body.get("dest") if body.get("carrying") else body.get("source")

    ideal = {}
    for m in members:
        body = agvs.get(m)
        if body is None:
            ideal[m] = set()
            continue
        goal = goal_of(body)
        path = oracle_bfs_path(grid, body.get("cell"), goal) if goal else None
        ideal[m] = set(path) if path else {body.get("cell")}
    occupied = {b.get("cell") for b in agvs.values()}
    best = None
    for m in members:
        body = agvs.get(m)
        if body is None:
            continue
        others = set().union(*(ideal[o] for o in members if o != m)) if len(members) > 1 else set()
        obstacles = frozenset(occupied - {body.get("cell")})
        for target in grid.free_cells():
            if target in occupied or target in others:
                continue
            path = oracle_bfs_path(grid, body.get("cell"), target, obstacles)
            if path is None or len(path) < 2:
                continue
            key = (len(path), m, target)
            if best is None or key < best[0]:
                best = (key, m, target)
    return None if best is None else (best[1], best[2])


def reachable(edges, start):
    """Nodes reachable from `start` over one or more directed edges."""
    seen, stack = set(), [start]
    while stack:
        node = stack.pop()
        for a, b in edges:
            if a == node and b not in seen:
                seen.add(b)
                stack.append(b)
    return seen


# --- the distance table and adjacency ----------------------------------------

def walled_grid():
    # A 9x7 floor: a walled room entered by one door at (3, 1), holding a
    # sealed pocket at (4, 3), so some rows miss a cell.
    blocked = {(x, 1) for x in range(1, 8)} | {(x, 5) for x in range(1, 8)}
    blocked |= {(1, y) for y in range(1, 6)} | {(7, y) for y in range(1, 6)}
    blocked -= {(3, 1)}
    blocked |= {(3, 3), (5, 3), (4, 2), (4, 4)}  # seals (4, 3)
    return GridMap(9, 7, frozenset(blocked))


def table_grids():
    return [parse_scenario(SCENARIOS / name).grid for name in FIXTURES] + [walled_grid()]


def test_table_rows_equal_fresh_bfs_for_every_free_source():
    for grid in table_grids():
        for source in grid.free_cells():
            assert grid.distances(source) == oracle_bfs_distances(grid, source)
            assert bfs_distances(grid, source) == oracle_bfs_distances(grid, source)


def test_adjacency_equals_neighbors4():
    for grid in table_grids():
        assert set(grid.adjacency) == set(grid.free_cells())
        for cell, neighbors in grid.adjacency.items():
            assert list(neighbors) == grid.neighbors4(cell)


def test_distance_rows_are_filled_lazily_and_once():
    grid = walled_grid()
    assert "_rows" not in vars(grid) and "adjacency" not in vars(grid)
    row = grid.distances((0, 0))
    assert grid.distances((0, 0)) is row
    assert list(grid._rows) == [(0, 0)] and grid._rows[(0, 0)][0] == math.inf


@st.composite
def small_floors(draw):
    w = draw(st.integers(1, 6))
    h = draw(st.integers(1, 6))
    cells = [(x, y) for y in range(h) for x in range(w)]
    blocked = draw(st.sets(st.sampled_from(cells), max_size=(w * h) // 2))
    return GridMap(w, h, frozenset(blocked))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_distances_below_agree_with_the_oracle_in_any_request_order(data):
    grid = data.draw(small_floors())
    free = grid.free_cells()
    if not free:
        return
    # `None` asks for the full row; limits may be floats, like amplitudes.
    requests = data.draw(st.lists(
        st.tuples(st.sampled_from(free),
                  st.none() | st.integers(-1, 9) | st.floats(0.5, 9.5)),
        min_size=1, max_size=12,
    ))
    for source, limit in requests:
        expected = oracle_bfs_distances(grid, source)
        if limit is None:
            assert grid.distances(source) == expected
            continue
        row = grid.distances_below(source, limit)
        assert {c: d for c, d in expected.items() if d < limit}.items() <= row.items()
        assert row.items() <= expected.items()  # no wrong distance, no extra cell
    for source, (limit, row) in grid._rows.items():
        assert row.items() <= oracle_bfs_distances(grid, source).items()
        if limit == math.inf:
            assert row == oracle_bfs_distances(grid, source)


def test_a_ball_grows_on_demand_and_a_finished_search_is_a_full_row():
    grid = GridMap(9, 1)
    ball = grid.distances_below((0, 0), 3)
    assert ball == {(0, 0): 0, (1, 0): 1, (2, 0): 2}
    assert grid.distances_below((0, 0), 2) is ball  # a larger ball answers
    assert grid.distances_below((0, 0), 5) == {(x, 0): x for x in range(5)}
    assert list(grid._rows) == [(0, 0)] and grid._rows[(0, 0)][0] == 5  # no full row
    row = grid.distances_below((8, 0), 20)  # runs out of cells first
    assert grid._rows[(8, 0)][0] == math.inf and grid._rows[(8, 0)][1] is row
    assert [s for s, (limit, _) in grid._rows.items() if limit == math.inf] == [(8, 0)]
    assert grid.distances((8, 0)) is row and grid.distances_below((8, 0), 1) is row


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_obstacle_bfs_and_paths_equal_oracle(data):
    grid = data.draw(small_floors())
    free = grid.free_cells()
    if not free:
        return
    start = data.draw(st.sampled_from(free))
    goal = data.draw(st.sampled_from(free))
    obstacles = frozenset(data.draw(st.sets(st.sampled_from(free), max_size=4)))
    assert bfs_distances(grid, start, obstacles) == oracle_bfs_distances(grid, start, obstacles)
    assert bfs_path(grid, start, goal, obstacles) == oracle_bfs_path(grid, start, goal, obstacles)
    assert bfs_path(grid, start, goal) == oracle_bfs_path(grid, start, goal)


# --- the parking planner -----------------------------------------------------

@settings(max_examples=150, deadline=None)
@given(st.data())
def test_plan_equals_all_pairs_planner(data):
    grid = data.draw(small_floors())
    free = grid.free_cells()
    if not free:
        return
    cells = data.draw(
        st.lists(st.sampled_from(free), min_size=1, max_size=min(5, len(free)), unique=True)
    )
    agvs = {}
    for i, cell in enumerate(cells):
        assigned = data.draw(st.booleans())
        agvs[f"a{i}"] = Body(
            FLOOR,
            {
                "type": "agv",
                "cell": cell,
                "assigned": "t" if assigned else None,
                "source": data.draw(st.sampled_from(free)) if assigned else None,
                "dest": data.draw(st.sampled_from(free)) if assigned else None,
                "carrying": ("t" if data.draw(st.booleans()) else None) if assigned else None,
            },
        )
    members = sorted(data.draw(st.sets(st.sampled_from(sorted(agvs) + ["gone"]), min_size=1)))
    solver = SolverBehavior(grid, FmsParams())
    assert solver._plan(members, agvs) == oracle_plan(grid, members, agvs)


# --- wait-for cycles and deadlock grouping -----------------------------------

AGENTS = [f"a{i}" for i in range(7)]


@st.composite
def wait_maps(draw):
    waiters = draw(st.sets(st.sampled_from(AGENTS)))
    return {
        a: draw(st.sampled_from([b for b in AGENTS if b != a])) for a in sorted(waiters)
    }


@settings(max_examples=300, deadline=None)
@given(wait_maps())
def test_wait_cycles_equal_reachability_oracle(waits):
    edges = list(waits.items())
    expected = {a for a in AGENTS if a in reachable(edges, a)}
    assert wait_cycles(waits) == expected


@settings(max_examples=300, deadline=None)
@given(
    st.sets(st.sampled_from(AGENTS), min_size=1),
    st.lists(st.tuples(st.sampled_from(AGENTS), st.sampled_from(AGENTS))),
)
def test_grouping_equals_reachability_oracle(flagged, pairs):
    flagged = sorted(flagged)
    links = [(a, b) for a, b in pairs if a in flagged and b in flagged and a != b]
    groups = merge_trapped_groups([{a} for a in flagged] + [{a, b} for a, b in links])
    undirected = links + [(b, a) for a, b in links]
    expected = {frozenset({a} | reachable(undirected, a)) for a in flagged}
    assert set(groups) == expected
    assert groups == sorted(groups, key=sorted)


# --- cache lifetime ----------------------------------------------------------

def test_grids_with_different_walls_share_nothing():
    open_grid = GridMap(4, 3)
    walled = GridMap(4, 3, frozenset({(1, 0), (1, 1)}))
    assert open_grid.adjacency is not walled.adjacency
    assert open_grid.adjacency[(0, 0)] != walled.adjacency[(0, 0)]
    assert open_grid.distances((0, 0)) != walled.distances((0, 0))
    assert walled.distances((0, 0))[(2, 0)] == 6
    assert open_grid.distances((0, 0))[(2, 0)] == 2
    assert open_grid._rows is not walled._rows


def _module_state():
    """(module, name) -> (id, size) of every mlsim module-level binding."""
    out = {}
    for name, module in sorted(sys.modules.items()):
        if not name.startswith("mlsim"):
            continue
        for attr, value in vars(module).items():
            size = len(value) if isinstance(value, (dict, list, set, deque)) else None
            cache = getattr(value, "cache_info", None)
            if callable(cache):
                size = cache().currsize
            out[(name, attr)] = (id(value), size)
    return out


def test_running_a_model_leaves_no_module_level_cache():
    spec = parse_scenario(SCENARIOS / "open_floor.json")
    model, state = build(spec)
    before = _module_state()
    result = run(
        model, state, ticks=spec.run_params["ticks"], seed=spec.run_params["seed"],
        observers=(SafetyChecker(spec.grid),), metrics=fms_metrics,
        termination=all_tasks_delivered,
    )
    grid = model.dynamic_behaviors["solver"].grid
    assert result.records
    # The run did fill the grid's own table with full rows and with balls.
    limits = {limit for limit, _ in grid._rows.values()}
    assert math.inf in limits and limits - {math.inf}
    assert _module_state() == before
    # The table is owned by the grid alone, so it dies with it.
    assert gc.get_referrers(grid._rows) == [vars(grid)]
    grid_ref = weakref.ref(grid)
    del spec, model, state, result, grid
    gc.collect()
    assert grid_ref() is None  # nothing outside the run keeps the tables alive


# --- generated floors ----------------------------------------------------------

def run_floor(raw):
    spec = parse_scenario_dict(raw)
    model, state = build(spec)
    result = run(
        model, state, ticks=spec.run_params["ticks"], seed=spec.run_params["seed"],
        observers=(SafetyChecker(spec.grid),), metrics=fms_metrics,
        termination=all_tasks_delivered,
    )
    return spec, model, result


def test_full_rows_exist_only_for_shop_cells():
    raw = generate_floor("open", 30, 20, agvs=20, tasks=60, shops=12, seed=0, ticks=60)
    spec, model, result = run_floor(raw)
    grid = model.dynamic_behaviors["solver"].grid
    shop_cells = {tuple(shop["cell"]) for shop in raw["shops"]}
    assert len(result.records) == 60
    full = {cell for cell, (limit, _) in grid._rows.items() if limit == math.inf}
    assert full and full <= shop_cells
    # AGV cells hold balls of their reach, not rows of the whole floor.
    reach = max(FmsParams().repulse, 2) + 1
    agv_balls = [ball for cell, (_, ball) in grid._rows.items() if cell not in shop_cells]
    assert agv_balls
    assert max(len(ball) for ball in agv_balls) <= 2 * reach * (reach - 1) + 1


@st.composite
def generated_floors(draw):
    layout = draw(st.sampled_from(("open", "aisles")))
    width = draw(st.integers(4, 14))
    height = draw(st.integers(3, 10))
    if layout == "open":
        shop_slots = 2 * width + 2 * (height - 2)
        free = width * height
    else:
        shop_slots = (width + 1) // 2
        free = width * height - (height - 2) * (width // 2)
    shops = draw(st.integers(2, min(8, shop_slots)))
    agvs = draw(st.integers(1, min(8, free - shops)))
    return generate_floor(
        layout, width, height, agvs=agvs, tasks=draw(st.integers(1, 10)), shops=shops,
        seed=draw(st.integers(0, 2**16)), ticks=draw(st.integers(1, 40)),
        params=draw(st.sampled_from(({}, {"repulse": 1}, {"repulse": 0, "window": 3}))),
    )


@settings(max_examples=40, deadline=None)
@given(generated_floors())
def test_generated_floors_keep_the_safety_invariants(raw):
    _, _, result = run_floor(raw)  # SafetyChecker raises on any violation
    assert 1 <= len(result.records) <= raw["run"]["ticks"]


# --- determinism across processes --------------------------------------------

def test_cli_run_is_byte_identical_across_hash_seeds(tmp_path):
    src = str(Path(mlsim.__file__).resolve().parent.parent)
    outputs = []
    for seed in ("0", "1", "2"):
        metrics = tmp_path / f"metrics-{seed}.csv"
        trace = tmp_path / f"trace-{seed}.jsonl"
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        proc = subprocess.run(
            [sys.executable, "-m", "mlsim.cli", "run",
             "--scenario", str(SCENARIOS / "corridor.json"), "--control", "on",
             "--metrics-out", str(metrics), "--trace-out", str(trace)],
            env=env, capture_output=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr.decode()
        outputs.append((proc.stdout, metrics.read_bytes(), trace.read_bytes()))
    assert outputs[0][1] and outputs[0][2]
    for a, b in itertools.pairwise(outputs):
        assert a == b
