"""AGV fleet reference model: fields, movement, conflicts, assignment, deadlock."""

import copy
import gc
import math
import random
import weakref
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlsim.engine import StepContext, produce_influences, react, run, step
from mlsim.errors import EmitterOnBlockedCell, SafetyViolation
from mlsim.fms.grid import GridMap, bfs_distances, bfs_path, compute_fields
from mlsim.fms.model import (
    CONTROL,
    FLOOR,
    FMS_DECLARATIONS,
    TASKS,
    AgvBehavior,
    FieldSensor,
    FloorView,
    FmsParams,
    K_ASSIGN,
    K_DELIVERED,
    K_INH_MOVE,
    K_MOVE,
    K_NEED,
    K_PICKED,
    K_SERVE,
    SafetyChecker,
    agv_goal,
    all_tasks_delivered,
    build_fms_model,
    build_initial_state,
    desired_move,
    fms_metrics,
    make_deadlock_detector,
    make_floor_reaction,
    make_tasks_reaction,
    resolve_moves,
    shop_queues,
)
from mlsim.scenario import apply_overrides, build, parse_scenario, parse_scenario_dict
from mlsim.state import (
    AgentRecord,
    Body,
    CONSTRAINT,
    LevelState,
    Percept,
    SystemState,
    influence,
)


def ctx(producer="test", tick=0):
    return StepContext(tick, producer, random.Random(0))


def agv_body(cell, assigned=None, source=None, dest=None, carrying=None,
             repulsion_on=False, window=()):
    return Body(
        FLOOR,
        {
            "type": "agv",
            "cell": cell,
            "assigned": assigned,
            "source": source,
            "dest": dest,
            "carrying": carrying,
            "repulsion_on": repulsion_on,
            "window": tuple(window),
        },
    )


# --- grid geometry -----------------------------------------------------------

def test_neighbors_respect_walls_and_bounds():
    grid = GridMap(3, 3, frozenset({(1, 0)}))
    assert grid.neighbors4((0, 0)) == [(0, 1)]
    assert grid.neighbors4((1, 1)) == [(0, 1), (1, 2), (2, 1)]


def test_bfs_distances_around_wall():
    grid = GridMap(3, 2, frozenset({(1, 0)}))
    dist = bfs_distances(grid, (0, 0))
    assert dist[(2, 0)] == 4  # forced over the top row
    assert (1, 0) not in dist


def test_bfs_path_is_lexicographically_smallest():
    grid = GridMap(3, 3)
    path = bfs_path(grid, (0, 0), (2, 2))
    assert path == [(0, 0), (0, 1), (0, 2), (1, 2), (2, 2)]
    assert bfs_path(grid, (0, 0), (0, 0)) == [(0, 0)]


def test_bfs_path_none_when_enclosed():
    grid = GridMap(3, 1)
    assert bfs_path(grid, (0, 0), (2, 0), obstacles=frozenset({(1, 0)})) is None


# --- fields ------------------------------------------------------------------

def brute_force_field(grid, attractors, repulsors):
    out = {}
    for cell in grid.free_cells():
        total = 0.0
        for sign, emitters in ((1.0, attractors), (-1.0, repulsors)):
            for source, amp in emitters:
                d = bfs_distances(grid, source).get(cell)
                if d is not None and amp - d > 0:
                    total += sign * (amp - d)
        out[cell] = total
    return out


def test_no_emitters_all_zero():
    grid = GridMap(4, 4)
    field = compute_fields(grid, [], [])
    assert set(field.values()) == {0.0}


def test_single_shop_linear_decay():
    grid = GridMap(5, 5)
    field = compute_fields(grid, [((2, 2), 5)], [])
    assert field[(2, 2)] == 5
    assert field[(4, 2)] == 3  # BFS distance 2
    assert field[(2, 0)] == 3


def test_superposition_of_attract_and_repulse():
    grid = GridMap(5, 5)
    field = compute_fields(grid, [((2, 2), 5)], [((2, 2), 3)])
    assert field[(3, 2)] == (5 - 1) - (3 - 1)  # == 2


def test_emitter_on_blocked_cell_rejected():
    grid = GridMap(3, 3, frozenset({(1, 1)}))
    with pytest.raises(EmitterOnBlockedCell):
        compute_fields(grid, [((1, 1), 5)], [])


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_fields_match_brute_force(data):
    w = data.draw(st.integers(min_value=1, max_value=6))
    h = data.draw(st.integers(min_value=1, max_value=6))
    blocked = data.draw(
        st.sets(
            st.tuples(st.integers(0, w - 1), st.integers(0, h - 1)),
            max_size=(w * h) // 2,
        )
    )
    grid = GridMap(w, h, frozenset(blocked))
    free = grid.free_cells()
    if not free:
        return
    emitters = data.draw(
        st.lists(
            st.tuples(st.sampled_from(free), st.integers(1, 8)), max_size=4
        )
    )
    split = data.draw(st.integers(0, len(emitters)))
    attract, repulse = emitters[:split], emitters[split:]
    expected = brute_force_field(grid, attract, repulse)
    assert compute_fields(grid, attract, repulse) == expected
    # Balls and full rows give the same field.
    filled = GridMap(w, h, frozenset(blocked))
    for cell in free:
        filled.distances(cell)
    assert compute_fields(filled, attract, repulse) == expected
    assert all(limit == math.inf for limit, _ in filled._rows.values())


# --- gradient movement -------------------------------------------------------

def test_flat_field_stays_put():
    grid = GridMap(5, 1)
    body = agv_body((2, 0))
    assert desired_move(grid, FmsParams(), "a1", body, {"a1": body}, []) == (2, 0)


def test_monotone_field_ascends_toward_shop():
    grid = GridMap(5, 1)
    params = FmsParams()
    body = agv_body((0, 0), assigned="t", source=(4, 0), dest=(4, 0))
    cells = [body.get("cell")]
    for _ in range(4):
        to = desired_move(grid, params, "a1", body, {"a1": body}, [])
        body = body.with_attrs(cell=to)
        cells.append(to)
    assert cells == [(0, 0), (1, 0), (2, 0), (3, 0), (4, 0)]


def test_equal_maxima_tie_break_lexicographic():
    # Shop centered: both (1,0) and (0,1) ascend equally from (1,1)'s corner
    # neighbors; the lexicographically smallest winner is chosen.
    grid = GridMap(3, 3)
    body = agv_body((2, 2), assigned="t", source=(0, 0), dest=(0, 0))
    to = desired_move(grid, FmsParams(), "a1", body, {"a1": body}, [])
    assert to == (1, 2)  # min((1,2),(2,1))


def test_idle_agv_attracted_to_emitting_shops():
    grid = GridMap(5, 1)
    body = agv_body((0, 0))
    to = desired_move(grid, FmsParams(), "a1", body, {"a1": body}, [(4, 0)])
    assert to == (1, 0)


def test_repulsion_only_from_flagged_agvs():
    grid = GridMap(7, 1)
    params = FmsParams(attract=16, repulse=4)
    mover = agv_body((1, 0), assigned="t", source=(6, 0), dest=(6, 0))
    quiet = agv_body((3, 0))
    noisy = agv_body((3, 0), repulsion_on=True)
    advance = desired_move(grid, params, "a1", mover, {"a1": mover, "a2": quiet}, [])
    assert advance == (2, 0)
    held = desired_move(grid, params, "a1", mover, {"a1": mover, "a2": noisy}, [])
    assert held == (1, 0)  # repulsion gradient cancels the attraction gradient


def test_agv_goal_is_the_end_of_the_task_the_agv_serves():
    idle = agv_body((0, 0))
    assigned = agv_body((0, 0), assigned="t", source=(1, 0), dest=(2, 0))
    assert agv_goal(idle) is None
    assert agv_goal(assigned) == (1, 0)
    assert agv_goal(assigned.with_attrs(carrying="t")) == (2, 0)


# --- move conflict resolution ------------------------------------------------

def test_two_movers_one_cell_min_id_wins():
    current = {"a1": (0, 0), "a2": (2, 0)}
    desired = {"a1": (1, 0), "a2": (1, 0)}
    assert resolve_moves(current, desired) == {"a1": (1, 0), "a2": (2, 0)}


def test_swap_conflict_both_stay():
    current = {"a1": (0, 0), "a2": (1, 0)}
    desired = {"a1": (1, 0), "a2": (0, 0)}
    assert resolve_moves(current, desired) == current


def test_move_into_stayer_cancelled():
    current = {"a1": (0, 0), "a2": (1, 0)}
    desired = {"a1": (1, 0), "a2": (1, 0)}
    assert resolve_moves(current, desired) == current


def test_rotation_of_three_allowed():
    current = {"a1": (0, 0), "a2": (1, 0), "a3": (1, 1)}
    desired = {"a1": (1, 0), "a2": (1, 1), "a3": (0, 0)}
    assert resolve_moves(current, desired) == desired


def test_chain_behind_stayer_collapses():
    current = {"a1": (0, 0), "a2": (1, 0), "a3": (2, 0)}
    desired = {"a1": (1, 0), "a2": (2, 0), "a3": (2, 0)}
    assert resolve_moves(current, desired) == current


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_resolution_is_safe(data):
    n = data.draw(st.integers(min_value=1, max_value=6))
    cells = [(x, 0) for x in range(8)]
    start = data.draw(st.lists(st.sampled_from(cells), min_size=n, max_size=n, unique=True))
    current = {f"a{i}": c for i, c in enumerate(start)}
    desired = {
        a: data.draw(st.sampled_from([c, (c[0] + 1, 0), (c[0] - 1, 0)]))
        for a, c in current.items()
    }
    final = resolve_moves(current, desired)
    assert len(set(final.values())) == len(final)  # capacity one
    for a in final:
        assert final[a] in (current[a], desired[a])


# --- floor reaction ----------------------------------------------------------

def floor_sigma(bodies):
    return {f"body:{aid}": b for aid, b in bodies.items()}


def test_floor_applies_assignment_and_move():
    grid = GridMap(5, 1)
    reaction = make_floor_reaction(grid, FmsParams())
    sigma = floor_sigma({"a1": agv_body((0, 0))})
    infs = frozenset(
        {
            influence(K_ASSIGN, FLOOR, "reaction:tasks", uid="x1", agent="a1",
                      task="t1", source_cell=(4, 0), dest_cell=(0, 0)),
            influence(K_MOVE, FLOOR, "a1", uid="x2", agent="a1", frm=(0, 0), to=(1, 0)),
        }
    )
    result = reaction(FLOOR, sigma, infs, ctx("reaction:floor"))
    body = result.sigma["body:a1"]
    assert body.get("assigned") == "t1"
    assert body.get("cell") == (1, 0)


def test_floor_pickup_sets_carrying_and_reports():
    grid = GridMap(5, 1)
    reaction = make_floor_reaction(grid, FmsParams())
    sigma = floor_sigma({"a1": agv_body((1, 0), assigned="t1", source=(0, 0), dest=(4, 0))})
    infs = frozenset({influence(K_MOVE, FLOOR, "a1", uid="m", agent="a1", frm=(1, 0), to=(0, 0))})
    result = reaction(FLOOR, sigma, infs, ctx("reaction:floor"))
    assert result.sigma["body:a1"].get("carrying") == "t1"
    assert [i.kind for i in result.persisted] == [K_PICKED]
    assert result.persisted[0].target_level == TASKS


def test_floor_delivery_clears_task_fields():
    grid = GridMap(5, 1)
    reaction = make_floor_reaction(grid, FmsParams())
    sigma = floor_sigma(
        {"a1": agv_body((3, 0), assigned="t1", source=(0, 0), dest=(4, 0), carrying="t1")}
    )
    infs = frozenset({influence(K_MOVE, FLOOR, "a1", uid="m", agent="a1", frm=(3, 0), to=(4, 0))})
    result = reaction(FLOOR, sigma, infs, ctx("reaction:floor"))
    body = result.sigma["body:a1"]
    assert body.get("carrying") is None and body.get("assigned") is None
    assert [i.kind for i in result.persisted] == [K_DELIVERED]
    assert ("task-delivered", {"task": "t1", "agent": "a1"}) in result.events


# --- task assignment reaction ------------------------------------------------

def tasks_sigma(task_table, shops=()):
    sigma = {"tasks": {tid: dict(t) for tid, t in task_table.items()}}
    for sid, cell in shops:
        sigma[f"body:{sid}"] = Body(
            TASKS, {"type": "shop", "cell": cell, "pending": (), "emitting": False}
        )
    return sigma


def pending_task(tid, source, dest, source_cell, dest_cell, order=0):
    return {
        "source": source,
        "dest": dest,
        "source_cell": source_cell,
        "dest_cell": dest_cell,
        "state": "pending",
        "assigned_to": None,
        "order": order,
    }


def test_single_offer_single_task_assigned():
    grid = GridMap(5, 1)
    reaction = make_tasks_reaction(grid)
    sigma = tasks_sigma({"t1": pending_task("t1", "s1", "s2", (0, 0), (4, 0))})
    infs = frozenset(
        {
            influence(K_SERVE, TASKS, "a1", uid="o1", agent="a1", cell=(2, 0)),
            influence(K_NEED, TASKS, "s1", uid="n1", task="t1",
                      source_cell=(0, 0), dest_cell=(4, 0), order=0),
        }
    )
    result = reaction(TASKS, sigma, infs, ctx("reaction:tasks"))
    assert result.sigma["tasks"]["t1"]["state"] == "assigned"
    assert result.sigma["tasks"]["t1"]["assigned_to"] == "a1"
    assigns = [i for i in result.persisted if i.kind == K_ASSIGN]
    assert len(assigns) == 1 and assigns[0].payload["agent"] == "a1"


def test_nearest_offer_wins_and_loser_is_held():
    grid = GridMap(7, 1)
    reaction = make_tasks_reaction(grid)
    sigma = tasks_sigma({"t1": pending_task("t1", "s1", "s2", (0, 0), (6, 0))})
    infs = frozenset(
        {
            influence(K_SERVE, TASKS, "near", uid="o1", agent="near", cell=(2, 0)),
            influence(K_SERVE, TASKS, "far", uid="o2", agent="far", cell=(4, 0)),
            influence(K_NEED, TASKS, "s1", uid="n1", task="t1",
                      source_cell=(0, 0), dest_cell=(6, 0), order=0),
        }
    )
    result = reaction(TASKS, sigma, infs, ctx("reaction:tasks"))
    assert result.sigma["tasks"]["t1"]["assigned_to"] == "near"
    holds = [i for i in result.persisted if i.kind == K_INH_MOVE]
    assert len(holds) == 1
    assert holds[0].klass == CONSTRAINT
    assert holds[0].payload["agent"] == "far"


def test_no_offers_task_stays_pending():
    grid = GridMap(5, 1)
    reaction = make_tasks_reaction(grid)
    sigma = tasks_sigma({"t1": pending_task("t1", "s1", "s2", (0, 0), (4, 0))})
    infs = frozenset(
        {
            influence(K_NEED, TASKS, "s1", uid="n1", task="t1",
                      source_cell=(0, 0), dest_cell=(4, 0), order=0),
        }
    )
    result = reaction(TASKS, sigma, infs, ctx("reaction:tasks"))
    assert result.sigma["tasks"]["t1"]["state"] == "pending"
    assert result.persisted == ()


def test_shop_emitting_tracks_open_tasks():
    grid = GridMap(5, 1)
    reaction = make_tasks_reaction(grid)
    table = {"t1": pending_task("t1", "s1", "s2", (0, 0), (4, 0))}
    table["t1"]["state"] = "picked"
    table["t1"]["assigned_to"] = "a1"
    sigma = tasks_sigma(table, shops=[("s1", (0, 0)), ("s2", (4, 0))])
    infs = frozenset(
        {influence(K_DELIVERED, TASKS, "reaction:floor", uid="d1", task="t1", agent="a1")}
    )
    result = reaction(TASKS, sigma, infs, ctx("reaction:tasks"))
    assert result.sigma["tasks"]["t1"]["state"] == "delivered"
    for sid in ("s1", "s2"):
        assert result.sigma[f"body:{sid}"].get("emitting") is False


def test_shop_queues_hold_the_waiting_tasks_in_task_order():
    def task(source, dest, state, order):
        return {"source": source, "dest": dest, "state": state, "order": order}

    tasks = {
        "t2": task("a", "b", "picked", 2),
        "t0": task("a", "b", "pending", 0),
        "t1": task("b", "a", "assigned", 1),
        "t3": task("a", "b", "delivered", 3),
        "t4": task("b", "c", "picked", 4),
    }
    queues = shop_queues(tasks, ["b", "a"])
    assert queues == {"b": ("t1", "t2"), "a": ("t0",)}
    assert list(queues) == ["b", "a"]
    # The initial state's queues are the same rule over all-pending tasks.
    state = build_initial_state(
        GridMap(3, 1), {}, {"a": (0, 0), "b": (2, 0)},
        [{"id": "t0", "source": "b", "dest": "a"}, {"id": "t1", "source": "a", "dest": "b"},
         {"id": "t2", "source": "b", "dest": "a"}],
    )
    bodies = state.per_level[TASKS].bodies()
    assert bodies["a"].get("pending") == ("t1",) and bodies["b"].get("pending") == ("t0", "t2")


def test_a_built_model_shares_the_read_only_bundled_declarations():
    model = build_fms_model(GridMap(2, 1), [], [], FmsParams())
    assert model.decls is FMS_DECLARATIONS
    with pytest.raises(TypeError):
        model.decls.producible_kinds[FLOOR] = frozenset()


# --- deadlock detector -------------------------------------------------------

def detector_percept(grid, agv_bodies, solvers=()):
    floor_props = {f"body:{aid}": b for aid, b in agv_bodies.items()}
    control_props = {
        f"body:{sid}": Body(CONTROL, {"type": "solver", "trapped": tuple(trapped)})
        for sid, trapped in solvers
    }
    return Percept(
        {
            FLOOR: LevelState(FLOOR, floor_props),
            TASKS: LevelState(TASKS, {}),
            CONTROL: LevelState(CONTROL, control_props),
        },
        requester="deadlock-detector",
    )


def cycle_oracle(edges, node):
    """Depth-first search: is `node` on a directed cycle of the edge list?"""
    adjacent = {}
    for a, b in edges:
        adjacent.setdefault(a, []).append(b)
    stack, seen = [node], set()
    while stack:
        cur = stack.pop()
        for nxt in adjacent.get(cur, []):
            if nxt == node:
                return True
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return False


def test_head_on_pair_reported_and_cycle_checked():
    grid = GridMap(4, 1)
    params = FmsParams()
    bodies = {
        "a1": agv_body((1, 0), assigned="t1", source=(3, 0), dest=(3, 0)),
        "a2": agv_body((2, 0), assigned="t2", source=(0, 0), dest=(0, 0)),
    }
    detector = make_deadlock_detector(FieldSensor(grid, params))
    out = detector.rule(detector_percept(grid, bodies), ctx("deadlock-detector"))
    assert len(out) == 1
    assert out[0].payload["trapped"] == ("a1", "a2")
    assert out[0].klass == "emergence"

    occupant = {b.get("cell"): aid for aid, b in bodies.items()}
    edges = []
    for aid, b in bodies.items():
        to = desired_move(grid, params, aid, b, bodies, [])
        if to != b.get("cell") and occupant.get(to):
            edges.append((aid, occupant[to]))
    for member in out[0].payload["trapped"]:
        assert cycle_oracle(edges, member)


def test_no_progress_window_flags_stalled_agv():
    grid = GridMap(8, 1)
    params = FmsParams(window=4)
    stuck = agv_body((2, 0), assigned="t1", source=(6, 0), dest=(6, 0),
                     window=((2, 0),) * 4)
    blocker = agv_body((3, 0), repulsion_on=True)
    detector = make_deadlock_detector(FieldSensor(grid, params))
    out = detector.rule(
        detector_percept(grid, {"a1": stuck, "a2": blocker}), ctx("deadlock-detector")
    )
    assert len(out) == 1
    assert "a1" in out[0].payload["trapped"]


def test_idle_agvs_never_reported():
    grid = GridMap(4, 1)
    bodies = {
        "a1": agv_body((1, 0), window=((1, 0),) * 6),
        "a2": agv_body((2, 0), window=((2, 0),) * 6),
    }
    detector = make_deadlock_detector(FieldSensor(grid, FmsParams()))
    assert detector.rule(detector_percept(grid, bodies), ctx("deadlock-detector")) == []


def test_governed_agvs_not_rereported():
    grid = GridMap(4, 1)
    bodies = {
        "a1": agv_body((1, 0), assigned="t1", source=(3, 0), dest=(3, 0)),
        "a2": agv_body((2, 0), assigned="t2", source=(0, 0), dest=(0, 0)),
    }
    detector = make_deadlock_detector(FieldSensor(grid, FmsParams()))
    percept = detector_percept(grid, bodies, solvers=[("solver0", ("a1", "a2"))])
    assert detector.rule(percept, ctx("deadlock-detector")) == []


def test_free_flowing_agvs_no_emergence():
    grid = GridMap(8, 1)
    bodies = {
        "a1": agv_body((0, 0), assigned="t1", source=(7, 0), dest=(7, 0)),
        "a2": agv_body((7, 0), assigned="t2", source=(7, 0), dest=(0, 0), carrying="t2"),
    }
    # Far apart, heading the same direction: no wait edges, no stall.
    bodies["a2"] = bodies["a2"].with_attrs(dest=(0, 0))
    detector = make_deadlock_detector(FieldSensor(grid, FmsParams()))
    out = detector.rule(detector_percept(grid, bodies), ctx("deadlock-detector"))
    assert out == []


# --- one shared floor view per snapshot --------------------------------------

class LastPick:
    """An RNG stand-in whose choice is the largest of the ties."""

    def choice(self, seq):
        return seq[-1]


def tied_standoff():
    """a1 at (2,2) heads for (0,0): (1,2) and (2,1) tie, and the `min` cell
    (1,2) holds a2, which wants a1's cell."""
    return {
        "a1": agv_body((2, 2), assigned="t1", source=(0, 0), dest=(0, 0)),
        "a2": agv_body((1, 2), assigned="t2", source=(2, 2), dest=(2, 2)),
    }


def test_jitter_tie_break_stays_apart_from_the_detectors():
    grid = GridMap(3, 3)
    sensor = FieldSensor(grid, FmsParams(jitter=True))
    agv = AgvBehavior(sensor)
    detector = make_deadlock_detector(sensor)
    percept = detector_percept(grid, tied_standoff())

    agv_ctx = StepContext(0, "a1", LastPick())
    internal = agv.memorize(agv.perceive(percept, AgentRecord("a1", "agv")), None, agv_ctx)
    moves = [i for i in agv.decide(internal, agv_ctx) if i.kind == K_MOVE]
    assert [m.payload["to"] for m in moves] == [(2, 1)]  # the RNG's pick

    # The detector's wait-for map uses the `min` cell (1,2), a2's: a cycle.
    out = detector.rule(percept, ctx("deadlock-detector"))
    assert [i.payload["trapped"] for i in out] == [("a1", "a2")]
    view = sensor.view(percept[FLOOR], percept[TASKS])
    assert view.move("a1") == (1, 2)


def test_without_jitter_the_agv_reads_the_shared_memo():
    grid = GridMap(3, 3)
    sensor = FieldSensor(grid, FmsParams())
    agv = AgvBehavior(sensor)
    percept = detector_percept(grid, tied_standoff())

    class NoRng:
        def choice(self, seq):
            raise AssertionError("jitter is off: the RNG must not be read")

    agv_ctx = StepContext(0, "a1", NoRng())
    internal = agv.memorize(agv.perceive(percept, AgentRecord("a1", "agv")), None, agv_ctx)
    assert internal["to"] == (1, 2)
    assert sensor.view(percept[FLOOR], percept[TASKS]).move("a1") is internal["to"]


def test_each_snapshot_gets_one_fresh_view(monkeypatch):
    import mlsim.fms.model as model_mod

    grid, model, state = simple_setup(
        width=6, agvs={"a1": (1, 0), "a2": (4, 0)},
        tasks=[{"id": "t1", "source": "s-west", "dest": "s-east"},
               {"id": "t2", "source": "s-east", "dest": "s-west"}],
    )
    views = []
    real_init = model_mod.FloorView.__init__

    def recording_init(self, grid, params, floor, tasks):
        real_init(self, grid, params, floor, tasks)
        views.append(self)

    monkeypatch.setattr(model_mod.FloorView, "__init__", recording_init)
    snapshots = []
    for _ in range(6):
        snapshots.append(state)
        state, _ = step(model, state)
    assert len(views) == len(snapshots)
    for view, snapshot in zip(views, snapshots):
        assert view.floor is snapshot.per_level[FLOOR]
        assert view.tasks is snapshot.per_level[TASKS]
    assert len({id(v) for v in views}) == len(views)

    # Same level states: the same view; equal but new level states: a new one.
    sensor = model.behaviors["a1"].sensor
    floor, tasks = state.per_level[FLOOR], state.per_level[TASKS]
    first = sensor.view(floor, tasks)
    assert sensor.view(floor, tasks) is first
    assert sensor.view(LevelState(FLOOR, dict(floor.properties)), tasks) is not first
    first = sensor.view(floor, tasks)
    assert sensor.view(floor, LevelState(TASKS, dict(tasks.properties))) is not first


def test_detector_alone_emits_what_it_emits_after_the_agvs():
    bodies = tied_standoff()
    floor_props = {f"body:{aid}": b for aid, b in bodies.items()}
    state = SystemState(
        per_level={
            FLOOR: LevelState(FLOOR, floor_props),
            TASKS: LevelState(TASKS, {"tasks": {}}),
            CONTROL: LevelState(CONTROL, {}),
        },
        agents={aid: AgentRecord(aid, "agv") for aid in bodies},
    )
    grid = GridMap(3, 3)

    def detector_influences(model):
        produced = produce_influences(model, state)
        return sorted(
            (i for group in produced.per_level.values() for i in group
             if i.producer == "deadlock-detector"),
            key=lambda i: i.id,
        )

    full = build_fms_model(grid, sorted(bodies), [], FmsParams())
    alone = build_fms_model(grid, sorted(bodies), [], FmsParams())
    alone.behaviors = {}
    with_agvs = detector_influences(full)
    assert [i.payload["trapped"] for i in with_agvs] == [("a1", "a2")]
    assert detector_influences(alone) == with_agvs


def test_a_finished_run_is_freed_without_the_cycle_collector():
    # The sensor and its view must form no reference cycle: a cycle would
    # keep each episode's grid and its distance table alive until a full
    # collection, so memory would grow from episode to episode.
    gc.collect()
    gc.disable()
    try:
        grid, model, state = simple_setup(width=6, agvs={"a1": (1, 0), "a2": (4, 0)})
        result = run(model, state, ticks=5)
        sensor_ref = weakref.ref(model.behaviors["a1"].sensor)
        grid_ref = weakref.ref(grid)
        del grid, model, state, result
        assert sensor_ref() is None
        assert grid_ref() is None
    finally:
        gc.enable()


def test_agv_internal_state_survives_the_next_step():
    grid, model, state = simple_setup(width=6, agvs={"a1": (1, 0), "a2": (4, 0)})
    state, _ = step(model, state)
    stored = {aid: state.agents[aid].internal_state for aid in ("a1", "a2")}
    for internal in stored.values():
        assert set(internal) == {"me", "body", "to"}
        assert not any(isinstance(v, FloorView) for v in internal.values())
    frozen = copy.deepcopy(stored)
    for _ in range(3):
        state, _ = step(model, state)
    assert stored == frozen


# --- end-to-end model runs ---------------------------------------------------

def simple_setup(width=5, agvs=None, tasks=None, control=True, params=None):
    grid = GridMap(width, 1)
    params = params or FmsParams()
    agvs = agvs or {"a1": (1, 0)}
    shops = {"s-west": (0, 0), "s-east": (width - 1, 0)}
    tasks = tasks if tasks is not None else [{"id": "t1", "source": "s-west", "dest": "s-east"}]
    model = build_fms_model(grid, sorted(agvs), sorted(shops), params, control=control)
    state = build_initial_state(grid, agvs, shops, tasks)
    return grid, model, state


def test_single_task_delivered_at_computable_tick():
    grid, model, state = simple_setup()
    result = run(
        model,
        state,
        ticks=50,
        observers=(SafetyChecker(grid),),
        metrics=fms_metrics,
        termination=all_tasks_delivered,
    )
    assert result.stop_reason == "termination:all-delivered"
    # a1 starts at (1,0): assigned at tick 0, picks up at (0,0) on tick 1,
    # walks 4 cells east reaching (4,0) on tick 5, and the delivery lands in
    # the task table one tick later.
    assert result.final_state.time == 7
    assert result.records[-1]["tasks_delivered"] == 1
    assert result.records[-1]["deadlocks_detected"] == 0


def test_single_step_matches_gradient_rule():
    grid, model, state = simple_setup()
    state, _ = step(model, state)  # assignment happens
    state, _ = step(model, state)  # first move
    body = state.per_level[FLOOR].bodies()["a1"]
    assert body.get("assigned") == "t1"
    assert body.get("cell") == (0, 0)


def test_metrics_row_shape():
    grid, model, state = simple_setup()
    result = run(model, state, ticks=3, metrics=fms_metrics)
    assert list(result.records[0]) == [
        "tick",
        "tasks_delivered",
        "deadlocks_detected",
        "deadlocks_resolved",
        "active_constraints",
        "agv_idle_ratio",
    ]


def test_safety_checker_rejects_shared_cell():
    grid = GridMap(3, 1)
    checker = SafetyChecker(grid)
    state = build_initial_state(grid, {"a1": (0, 0), "a2": (1, 0)}, {}, [])
    bad = state.per_level[FLOOR]
    props = dict(bad.properties)
    props["body:a2"] = props["body:a2"].with_attrs(cell=(0, 0))
    state = type(state)(state.time, {**state.per_level, FLOOR: LevelState(FLOOR, props)}, state.agents)
    with pytest.raises(SafetyViolation):
        checker(0, state, None)


def test_safety_checker_rejects_task_regression():
    grid = GridMap(3, 1)
    checker = SafetyChecker(grid)
    tasks_level = LevelState(TASKS, {"tasks": {"t1": {"state": "picked"}}})
    state = build_initial_state(grid, {}, {}, [])
    good = type(state)(0, {**state.per_level, TASKS: tasks_level}, state.agents)
    checker(0, good, None)
    regressed = LevelState(TASKS, {"tasks": {"t1": {"state": "pending"}}})
    bad = type(state)(1, {**state.per_level, TASKS: regressed}, state.agents)
    with pytest.raises(SafetyViolation):
        checker(1, bad, None)


# --- read-only payloads --------------------------------------------------------

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


@pytest.mark.parametrize("control", ["false", "true"])
@pytest.mark.parametrize("fixture", ["corridor.json", "open_floor.json", "walled_trap.json"])
def test_no_producer_filter_or_reaction_writes_into_a_payload(fixture, control):
    spec = parse_scenario(SCENARIOS / fixture)
    spec = parse_scenario_dict(apply_overrides(spec.data, {"control": control}))
    model, state = build(spec)
    seed = spec.run_params["seed"]
    produced_as = {}  # influence id -> (influence, deep copy of its payload when produced)

    def record(groups):
        for group in groups:
            for inf in group:
                produced_as.setdefault(inf.id, (inf, copy.deepcopy(inf.payload)))

    def assert_unchanged(after):
        for inf, payload in produced_as.values():
            assert inf.payload == payload, f"{after} changed the payload of {inf.id}"

    for _ in range(spec.run_params["ticks"]):
        produced = produce_influences(model, state, seed)
        assert_unchanged(f"production at tick {state.time}")
        record(produced.per_level.values())
        state, _ = react(model, state, produced, seed)
        assert_unchanged(f"constraint filtering or the reactions at tick {state.time - 1}")
        record(level.influences for level in state.per_level.values())
        if all_tasks_delivered(state):
            break
