"""AGV fleet reference model: fields, movement, conflicts, assignment, deadlock."""

import copy
import gc
import math
import random
import weakref
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mlsim.engine import StepContext, produce_influences, react, run, step
from mlsim.errors import EmitterOnBlockedCell, SafetyViolation
from mlsim.fms import model as fms_model
from mlsim.fms.grid import GridMap, bfs_distances, bfs_path
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
    waiting_shops,
)
from mlsim.scenario import apply_overrides, build, parse_scenario, parse_scenario_dict
from mlsim.state import (
    AgentRecord,
    Body,
    CONSTRAINT,
    LevelState,
    Percept,
    SystemState,
    body_key,
)

from support import field_ties, influence, sensed_ties, tail_records


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
    assert grid.adjacency[(0, 0)] == ((0, 1),)
    assert grid.adjacency[(1, 1)] == ((0, 1), (1, 2), (2, 1))
    assert (1, 0) not in grid.adjacency


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
        total = 0
        for sign, emitters in ((1, attractors), (-1, repulsors)):
            for source, amp in emitters:
                d = bfs_distances(grid, source).get(cell)
                if d is not None and amp - d > 0:
                    total += sign * (amp - d)
        out[cell] = total
    return out


def sensed_as_brute_force(grid, shops, attract, repulsors=(), repulse=0):
    """The brute-force field of the shops and repulsors, after checking
    that `FloorView.sense` reads its ties at every free cell."""
    field = brute_force_field(grid, [(c, attract) for c in shops],
                              [(c, repulse) for c in repulsors])
    assert sensed_ties(grid, shops, attract, repulsors, repulse) == field_ties(grid, field)
    return field


def test_no_emitters_all_zero():
    grid = GridMap(4, 4)
    field = sensed_as_brute_force(grid, [], 16)
    assert set(field.values()) == {0}
    assert {ties for _, ties in sensed_ties(grid, [], 16).values()} == {()}


def test_single_shop_linear_decay():
    field = sensed_as_brute_force(GridMap(5, 5), [(2, 2)], 5)
    assert field[(2, 2)] == 5
    assert field[(4, 2)] == 3  # BFS distance 2
    assert field[(2, 0)] == 3


def test_superposition_of_attract_and_repulse():
    field = sensed_as_brute_force(GridMap(5, 5), [(2, 2)], 5, [(2, 2)], 3)
    assert field[(3, 2)] == (5 - 1) - (3 - 1)  # == 2


def test_emitter_on_blocked_cell_rejected():
    grid = GridMap(3, 3, frozenset({(1, 1)}))
    with pytest.raises(EmitterOnBlockedCell):
        sensed_ties(grid, [(1, 1)], 5)
    with pytest.raises(EmitterOnBlockedCell):
        sensed_ties(grid, [], 5, [(1, 1)], 3)


@st.composite
def emitter_floors(draw, amplitude):
    """A walled grid of at least one free cell, shop cells and repulsor
    cells on it, and an attraction and a repulsion amplitude."""
    w = draw(st.integers(min_value=1, max_value=6))
    h = draw(st.integers(min_value=1, max_value=6))
    blocked = draw(
        st.sets(
            st.tuples(st.integers(0, w - 1), st.integers(0, h - 1)),
            max_size=(w * h) // 2,
        )
    )
    grid = GridMap(w, h, frozenset(blocked))
    free = grid.free_cells()
    assume(free)
    emitters = draw(st.lists(st.sampled_from(free), max_size=4))
    split = draw(st.integers(0, len(emitters)))
    return grid, emitters[:split], draw(amplitude), emitters[split:], draw(amplitude)


@settings(max_examples=100, deadline=None)
@given(emitter_floors(st.integers(1, 8)))
def test_fields_match_brute_force(floor):
    grid, shops, attract, repulsors, repulse = floor
    expected = sensed_as_brute_force(grid, shops, attract, repulsors, repulse)
    # Balls and full rows give the same field.
    filled = GridMap(grid.width, grid.height, grid.blocked)
    for cell in filled.free_cells():
        filled.distances(cell)
    assert sensed_as_brute_force(filled, shops, attract, repulsors, repulse) == expected
    assert all(limit == math.inf for limit, _ in filled._rows.values())


# Amplitudes from 0 to `top`, or as far above 2**53 or 10**400: a float sum
# of such terms rounds them (2**53 + 1 is no float) or overflows.
def amplitudes(top):
    return (st.integers(0, top) | st.integers(2**53, 2**53 + top)
            | st.integers(10**400, 10**400 + top))


@settings(max_examples=50, deadline=None)
@given(emitter_floors(amplitudes(8)))
def test_fields_are_exact_at_any_amplitude(floor):
    field = sensed_as_brute_force(*floor)
    assert all(type(value) is int for value in field.values())


def test_the_field_keeps_unit_steps_above_2_to_the_53():
    # As a float, 2**53 + 1 rounds to 2**53, the value one step away: the
    # AGV next to the shop would read a flat field and stay.
    grid = GridMap(3, 1)
    field = sensed_as_brute_force(grid, [(0, 0)], 2**53 + 1, [(2, 0)], 2)
    assert field == {(0, 0): 2**53 + 1, (1, 0): 2**53 - 1, (2, 0): 2**53 - 3}
    assert sensed_as_brute_force(grid, [(0, 0)], 2**53 + 1)[(1, 0)] == 2**53
    assert sensed_ties(grid, [(0, 0)], 2**53 + 1)[(1, 0)] == ((1, 0), [(0, 0)])


# --- gradient movement -------------------------------------------------------

def snapshot(bodies, shops=()):
    """(floor, tasks) level states holding the AGV `bodies` and a shop body
    per (cell, emitting) pair of `shops`."""
    floor = LevelState(FLOOR, {body_key(aid): b for aid, b in bodies.items()})
    tasks = LevelState(TASKS, {
        body_key(f"shop{i}"): Body(TASKS, {"type": "shop", "cell": cell, "emitting": emitting})
        for i, (cell, emitting) in enumerate(shops)
    })
    return floor, tasks


def sensed_move(grid, params, agent_id, bodies, emitting=()):
    """`desired_move` of one AGV in a fresh view of one snapshot."""
    view = FieldSensor(grid, params).view(*snapshot(bodies, [(c, True) for c in emitting]))
    return desired_move(view, agent_id)


def test_flat_field_stays_put():
    grid = GridMap(5, 1)
    body = agv_body((2, 0))
    assert sensed_move(grid, FmsParams(), "a1", {"a1": body}) == (2, 0)


def test_monotone_field_ascends_toward_shop():
    grid = GridMap(5, 1)
    params = FmsParams()
    body = agv_body((0, 0), assigned="t", source=(4, 0), dest=(4, 0))
    cells = [body.get("cell")]
    for _ in range(4):
        to = sensed_move(grid, params, "a1", {"a1": body})
        body = body.with_attrs(cell=to)
        cells.append(to)
    assert cells == [(0, 0), (1, 0), (2, 0), (3, 0), (4, 0)]


def test_equal_maxima_tie_break_lexicographic():
    # Shop centered: both (1,0) and (0,1) ascend equally from (1,1)'s corner
    # neighbors; the lexicographically smallest winner is chosen.
    grid = GridMap(3, 3)
    body = agv_body((2, 2), assigned="t", source=(0, 0), dest=(0, 0))
    to = sensed_move(grid, FmsParams(), "a1", {"a1": body})
    assert to == (1, 2)  # min((1,2),(2,1))


def test_idle_agv_attracted_to_emitting_shops():
    grid = GridMap(5, 1)
    body = agv_body((0, 0))
    to = sensed_move(grid, FmsParams(), "a1", {"a1": body}, [(4, 0)])
    assert to == (1, 0)


def test_repulsion_only_from_flagged_agvs():
    grid = GridMap(7, 1)
    params = FmsParams(attract=16, repulse=4)
    mover = agv_body((1, 0), assigned="t", source=(6, 0), dest=(6, 0))
    quiet = agv_body((3, 0))
    noisy = agv_body((3, 0), repulsion_on=True)
    advance = sensed_move(grid, params, "a1", {"a1": mover, "a2": quiet})
    assert advance == (2, 0)
    held = sensed_move(grid, params, "a1", {"a1": mover, "a2": noisy})
    assert held == (1, 0)  # repulsion gradient cancels the attraction gradient


def test_an_agv_is_not_repelled_by_its_own_field():
    # Its own field would be lowest on its own cell and push it off a flat floor.
    grid = GridMap(5, 1)
    for repulsion_on in (False, True):
        body = agv_body((2, 0), repulsion_on=repulsion_on)
        assert sensed_move(grid, FmsParams(repulse=4), "a1", {"a1": body}) == (2, 0)


def test_a_field_that_reaches_only_a_candidate_still_counts():
    # a2's field (amplitude 3) reaches (2,0) but not a1's own cell (1,0):
    # it lowers the candidate to a1's own value, so a1 holds.
    grid = GridMap(7, 1)
    params = FmsParams(attract=16, repulse=3)
    mover = agv_body((1, 0), assigned="t", source=(6, 0), dest=(6, 0))
    blocker = agv_body((4, 0), repulsion_on=True)
    assert sensed_move(grid, params, "a1", {"a1": mover}) == (2, 0)
    assert sensed_move(grid, params, "a1", {"a1": mover, "a2": blocker}) == (1, 0)


def test_the_idle_field_follows_the_emitting_shops():
    # One sensor across snapshots: an idle AGV's field must follow each shop
    # that starts or stops emitting.
    grid = GridMap(7, 1)
    sensor = FieldSensor(grid, FmsParams())
    bodies = {"a1": agv_body((3, 0))}
    west, east = (0, 0), (6, 0)
    moves = [
        desired_move(sensor.view(*snapshot(bodies, [(west, w), (east, e)])), "a1")
        for w, e in [(False, True), (True, False), (True, True), (False, True), (False, False)]
    ]
    assert moves == [(4, 0), (2, 0), (3, 0), (4, 0), (3, 0)]


def test_a_blocked_emitter_is_rejected_when_sensed():
    grid = GridMap(3, 3, frozenset({(1, 1)}))
    idle = {"a1": agv_body((0, 0))}
    with pytest.raises(EmitterOnBlockedCell):
        sensed_move(grid, FmsParams(), "a1", idle, [(1, 1)])
    walled = {"a1": agv_body((0, 0)), "a2": agv_body((1, 1), repulsion_on=True)}
    with pytest.raises(EmitterOnBlockedCell):
        sensed_move(grid, FmsParams(), "a1", walled)


def per_agv_desired_move(grid, params, agent_id, body, agv_bodies, emitting_cells, rng=None):
    """The desired move as each AGV once computed it alone, summing every
    emitter at its cell and candidates: the oracle for the shared view."""
    cell = body.get("cell")
    if body.get("assigned") is None:
        attract = sorted(emitting_cells)
    else:
        goal = agv_goal(body)
        attract = [goal] if goal is not None else []
    repulse = sorted(
        b.get("cell")
        for other, b in agv_bodies.items()
        if other != agent_id and b.get("repulsion_on")
    )
    candidates = grid.adjacency[cell]
    values = brute_force_field(
        grid,
        [(c, params.attract) for c in attract],
        [(c, params.repulse) for c in repulse],
    )
    here = values[cell]
    best = max((values[c] for c in candidates), default=here)
    if best <= here:
        return cell
    ties = [c for c in candidates if values[c] == best]
    if params.jitter and rng is not None and len(ties) > 1:
        return rng.choice(sorted(ties))
    return min(ties)


class RecordingRng:
    """Picks ties by a fixed rule and records every sequence it was offered."""

    def __init__(self, pick):
        self.pick = pick
        self.offered = []

    def choice(self, seq):
        self.offered.append(list(seq))
        return seq[self.pick % len(seq)]


@st.composite
def floor_snapshots(draw):
    """A walled grid, its shops, and a few snapshots of idle, assigned and
    carrying AGVs with repulsion on or off over changing emitting shops."""
    w = draw(st.integers(1, 7))
    h = draw(st.integers(1, 6))
    blocked = draw(st.sets(st.tuples(st.integers(0, w - 1), st.integers(0, h - 1)),
                           max_size=(w * h) // 3))
    grid = GridMap(w, h, frozenset(blocked))
    free = grid.free_cells()
    assume(len(free) >= 2)
    shops = draw(st.lists(st.sampled_from(free), min_size=1, max_size=4, unique=True))
    params = FmsParams(attract=draw(amplitudes(9)), repulse=draw(amplitudes(6)),
                       jitter=draw(st.booleans()))
    snapshots = []
    for _ in range(draw(st.integers(1, 4))):
        cells = draw(st.lists(st.sampled_from(free), min_size=1, max_size=min(6, len(free)),
                              unique=True))
        bodies = {}
        for i, cell in enumerate(cells):
            state = draw(st.sampled_from(["idle", "assigned", "carrying"]))
            task = None if state == "idle" else f"t{i}"
            bodies[f"a{i}"] = agv_body(
                cell, assigned=task,
                source=draw(st.sampled_from(shops)), dest=draw(st.sampled_from(shops)),
                carrying=task if state == "carrying" else None,
                repulsion_on=draw(st.booleans()),
            )
        emitting = [(cell, draw(st.booleans())) for cell in shops]
        snapshots.append((bodies, emitting))
    return grid, params, snapshots, draw(st.integers(0, 3))


@settings(max_examples=300, deadline=None)
@given(floor_snapshots())
def test_the_shared_view_moves_each_agv_as_it_moved_alone(case):
    grid, params, snapshots, pick = case
    sensor = FieldSensor(grid, params)
    for bodies, shops in snapshots:
        view = sensor.view(*snapshot(bodies, shops))
        emitting = [cell for cell, on in shops if on]
        for aid, body in bodies.items():
            assert desired_move(view, aid) == per_agv_desired_move(
                grid, params, aid, body, bodies, emitting
            )
            drawn, expected = RecordingRng(pick), RecordingRng(pick)
            assert desired_move(view, aid, drawn) == per_agv_desired_move(
                grid, params, aid, body, bodies, emitting, expected
            )
            assert drawn.offered == expected.offered


def test_the_first_desired_move_on_a_view_reads_every_row_once(monkeypatch):
    read = []
    original = fms_model.emitter_reach

    def counted(grid, cell, amplitude):
        read.append((cell, amplitude))
        return original(grid, cell, amplitude)

    monkeypatch.setattr(fms_model, "emitter_reach", counted)
    grid = GridMap(6, 4)
    sensor = FieldSensor(grid, FmsParams(attract=9, repulse=3))
    bodies = {
        "a1": agv_body((0, 0), assigned="t1", source=(5, 3), dest=(0, 3), repulsion_on=True),
        "a2": agv_body((2, 1), assigned="t2", source=(5, 0), dest=(0, 3), carrying="t2",
                       repulsion_on=True),
        "a3": agv_body((3, 3)),
        "a4": agv_body((4, 1)),
    }
    shops = [((5, 3), True), ((5, 0), False), ((0, 3), True)]
    view = sensor.view(*snapshot(bodies, shops))
    desired_move(view, "a3")
    # The repulsors' rows, a1's and a2's goal rows, and the emitting shops'
    # rows once for both idle AGVs.
    assert sorted(read) == sorted([((0, 0), 3), ((2, 1), 3), ((5, 3), 9), ((0, 3), 9),
                                   ((5, 3), 9), ((0, 3), 9)])
    read.clear()
    for aid in bodies:
        desired_move(view, aid)
    assert read == []

    # With no AGV idle, no shop row is read.
    busy = {aid: b for aid, b in bodies.items() if b.get("assigned") is not None}
    view = sensor.view(*snapshot(busy, shops))
    desired_move(view, "a1")
    assert sorted(read) == sorted([((0, 0), 3), ((2, 1), 3), ((5, 3), 9), ((0, 3), 9)])


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


def rescanning_resolve_moves(current, desired):
    """`resolve_moves` as it was written first: the swap scan sorts the
    movers again for every `a`."""
    movers = {a for a in current if desired[a] != current[a]}
    changed = True
    while changed:
        changed = False
        stay_cells = {current[a] for a in current if a not in movers}
        for a in sorted(movers):
            if desired[a] in stay_cells:
                movers.discard(a)
                changed = True
        for a in sorted(movers):
            for b in sorted(movers):
                if a < b and desired[a] == current[b] and desired[b] == current[a]:
                    movers.discard(a)
                    movers.discard(b)
                    changed = True
        by_target = {}
        for a in sorted(movers):
            by_target.setdefault(desired[a], []).append(a)
        for group in by_target.values():
            for a in group[1:]:
                movers.discard(a)
                changed = True
    return {a: (desired[a] if a in movers else current[a]) for a in current}


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(st.sampled_from([f"a{i}" for i in range(7)]),
                       st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=1))
def test_resolution_equals_the_rescanning_swap_scan(pairs):
    """On any current and desired cells, shared ones included."""
    current = {a: (x, 0) for a, (x, _) in pairs.items()}
    desired = {a: (y, 0) for a, (_, y) in pairs.items()}
    assert resolve_moves(current, desired) == rescanning_resolve_moves(current, desired)


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
    waiting = waiting_shops(task_table)
    for sid, cell in shops:
        sigma[f"body:{sid}"] = Body(
            TASKS, {"type": "shop", "cell": cell, "emitting": sid in waiting}
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
    result = reaction(TASKS, sigma, frozenset(), ctx("reaction:tasks"))
    assert result.sigma["tasks"]["t1"]["state"] == "pending"
    assert result.persisted == ()


def test_the_demand_is_every_pending_task_in_task_order():
    grid = GridMap(7, 1)
    reaction = make_tasks_reaction(grid)
    table = {
        "t1": pending_task("t1", "s1", "s2", (0, 0), (6, 0), order=2),
        "t2": pending_task("t2", "s2", "s1", (6, 0), (0, 0), order=1),
        "t3": pending_task("t3", "s1", "s2", (0, 0), (6, 0), order=0),
    }
    table["t3"].update(state="picked", assigned_to="busy")
    sigma = tasks_sigma(table)
    infs = frozenset(
        {
            influence(K_SERVE, TASKS, "a1", uid="o1", agent="a1", cell=(1, 0)),
            influence(K_SERVE, TASKS, "busy", uid="o2", agent="busy", cell=(0, 0)),
        }
    )
    result = reaction(TASKS, sigma, infs, ctx("reaction:tasks"))
    # t3 is picked and its AGV busy; of the pending tasks t2 comes first,
    # although a1 stands next to t1's source.
    assert [e for e in result.events if e[0] == "assigned"] == [
        ("assigned", {"task": "t2", "agent": "a1"})
    ]
    assert result.sigma["tasks"]["t1"]["state"] == "pending"


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
    assert sigma["body:s2"].get("emitting") is True  # the picked task waits there
    result = reaction(TASKS, sigma, infs, ctx("reaction:tasks"))
    assert result.sigma["tasks"]["t1"]["state"] == "delivered"
    for sid in ("s1", "s2"):
        assert result.sigma[f"body:{sid}"].get("emitting") is False


def test_a_shop_emits_while_a_task_waits_at_it():
    def task(source, dest, state):
        return {"source": source, "dest": dest, "state": state}

    tasks = {
        "t0": task("a", "b", "pending"),
        "t1": task("b", "a", "assigned"),
        "t2": task("c", "d", "picked"),
        "t3": task("e", "f", "delivered"),
    }
    assert waiting_shops(tasks) == {"a", "b", "d"}
    # The initial state's shops follow the same rule over all-pending tasks,
    # and a shop's tasks-level body holds no more than the view reads.
    state = build_initial_state(
        GridMap(3, 1), {}, {"a": (0, 0), "b": (1, 0), "c": (2, 0)},
        [{"id": "t0", "source": "b", "dest": "a"}, {"id": "t1", "source": "c", "dest": "b"}],
    )
    bodies = state.per_level[TASKS].bodies()
    assert {sid: b.attributes for sid, b in bodies.items()} == {
        "a": {"type": "shop", "cell": (0, 0), "emitting": False},
        "b": {"type": "shop", "cell": (1, 0), "emitting": True},
        "c": {"type": "shop", "cell": (2, 0), "emitting": True},
    }


def test_a_built_model_shares_the_read_only_bundled_declarations():
    model = build_fms_model(GridMap(2, 1), [], FmsParams())
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
        to = sensed_move(grid, params, aid, bodies)
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
    assert desired_move(view, "a1") == (1, 2)


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
    assert desired_move(sensor.view(percept[FLOOR], percept[TASKS]), "a1") is internal["to"]


def test_the_agv_keeps_its_state_while_its_body_and_move_stay():
    """`memorize` returns the held state itself while the body is the same
    object and the wanted cell is equal, so the engine can replay the call."""
    agv = AgvBehavior(FieldSensor(GridMap(3, 3), FmsParams()))
    body = agv_body((0, 0))

    class View:  # what `memorize` reads of a FloorView
        def __init__(self, agvs, to):
            self.agvs, self.to = agvs, to

        def sense(self):  # one tie: an equal cell, never the same object
            return {aid: (body.get("cell"), [tuple(self.to)]) for aid, body in self.agvs.items()}

    held = agv.memorize(("a1", View({"a1": body}, (1, 0))), None, ctx("a1"))
    assert agv.memorize(("a1", View({"a1": body}, (1, 0))), held, ctx("a1")) is held
    moved = agv.memorize(("a1", View({"a1": body}, (0, 1))), held, ctx("a1"))
    assert moved is not held and moved["to"] == (0, 1) and moved["body"] is body
    renewed = agv.memorize(("a1", View({"a1": agv_body((0, 0))}, (1, 0))), held, ctx("a1"))
    assert renewed is not held and renewed == held


def test_each_snapshot_gets_one_fresh_view(monkeypatch):
    import mlsim.fms.model as model_mod

    grid, model, state = simple_setup(
        width=6, agvs={"a1": (1, 0), "a2": (4, 0)},
        tasks=[{"id": "t1", "source": "s-west", "dest": "s-east"},
               {"id": "t2", "source": "s-east", "dest": "s-west"}],
    )
    views = []
    real_init = model_mod.FloorView.__init__

    def recording_init(self, *args, **kwargs):
        real_init(self, *args, **kwargs)
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

    full = build_fms_model(grid, sorted(bodies), FmsParams())
    alone = build_fms_model(grid, sorted(bodies), FmsParams())
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
    model = build_fms_model(grid, sorted(agvs), params, control=control)
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


# --- producers ---------------------------------------------------------------

@pytest.mark.parametrize("fixture", ["corridor.json", "open_floor.json", "walled_trap.json"])
def test_only_agvs_and_solvers_produce_and_no_shop_does(fixture):
    spec = parse_scenario_dict(
        apply_overrides(parse_scenario(SCENARIOS / fixture).data, {"control": "true"})
    )
    model, state = build(spec)
    shops = {s["id"] for s in spec.data["shops"]}
    assert shops and shops <= set(state.agents)  # shops are agents, with bodies
    assert set(model.behaviors) == {a["id"] for a in spec.data["agvs"]}
    assert set(model.dynamic_behaviors) == {"solver"}
    result = run(model, state, ticks=spec.run_params["ticks"], seed=spec.run_params["seed"],
                 termination=all_tasks_delivered, collect_trace=True)
    producers = {producer for record in result.trace.steps + tail_records(result.trace)
                 for _, _, _, _, producer in record[1]}
    assert producers and not producers & shops
