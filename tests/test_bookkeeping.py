"""Engine bookkeeping done once per snapshot, checked against the plain
definitions it replaces: the membership index against a scan of the level
maps, id hashing against structural equality, the lazily built trace against
an eager row builder, the constraint fast path against the full filter, the
one-pass grouping against merge-then-partition, the route table against the
neighborhood unions, the trace writer against per-row `json.dumps`, the
copy-on-write task reaction against a full rebuild, and the stuck solver's
skipped replans against planning every tick."""

import copy
import dataclasses
import json
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlsim import cli
from mlsim.engine import Model, ReactionResult, StepContext, StepInfo, run, step
from mlsim.errors import UnknownAgent
from mlsim.fms.grid import GridMap
from mlsim.fms.model import (
    FLOOR,
    K_ASSIGN,
    K_DELIVERED,
    K_INH_MOVE,
    K_MOVE,
    K_NEED,
    K_PICKED,
    K_SERVE,
    TASK_STATES,
    TASKS,
    FieldSensor,
    FmsParams,
    SafetyChecker,
    SolverBehavior,
    all_tasks_delivered,
    floor_agvs,
    fms_metrics,
    make_tasks_reaction,
)
from mlsim.hierarchy import InfluenceSelector, InhibitionRecord, apply_constraints
from mlsim.levels import LevelGraphSpec, validate
from mlsim.scenario import build, parse_scenario
from mlsim.state import (
    CONSTRAINT,
    EMERGENCE,
    ORDINARY,
    AgentRecord,
    Body,
    Influence,
    LevelState,
    Percept,
    SystemState,
    bodies_of,
    body_key,
    group_by_level,
    influence,
    member_levels,
    merge_influences,
)

from test_golden_digests import ROOT

LEVELS = ("micro", "macro")
AGENTS = ("a", "b", "c", "d")


# --- membership index --------------------------------------------------------

def scanned_memberships(state):
    """Agent id -> levels holding a body of it, by scanning every map."""
    found = {}
    for level, level_state in state.per_level.items():
        for key in level_state.properties:
            if key.startswith("body:"):
                found.setdefault(key[len("body:"):], set()).add(level)
    return {agent: frozenset(levels) for agent, levels in found.items()}


def plan_reaction(plans):
    """Each level applies the (op, agent, level) edits planned for the tick."""

    def reaction(level, sigma, influences, ctx):
        spawn, remove = [], []
        for op, agent, at in plans[ctx.tick]:
            if at != level:
                continue
            if op in ("body", "spawn"):
                sigma[body_key(agent)] = Body(level)
            elif op == "drop":
                sigma.pop(body_key(agent), None)
            if op == "spawn":
                spawn.append(AgentRecord(agent))
            elif op == "remove":
                remove.append(agent)
        return ReactionResult(sigma, spawn=tuple(spawn), remove=tuple(remove))

    return reaction


def legal(ops, state):
    """At most one edit per agent; spawns of unknown agents only; removals
    only of agents with no body outside the removing level."""
    kept, touched = [], set()
    members = scanned_memberships(state)
    for op, agent, level in ops:
        if agent in touched:
            continue
        if op == "spawn" and agent in state.agents:
            continue
        if op == "remove" and (agent not in state.agents
                               or not members.get(agent, frozenset()) <= {level}):
            continue
        touched.add(agent)
        kept.append((op, agent, level))
    return kept


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_membership_index_equals_a_scan_of_the_level_maps(data):
    graph = validate(LevelGraphSpec.make(LEVELS))
    plans = []
    model = Model(graph=graph, reactions={l: plan_reaction(plans) for l in LEVELS})
    state = SystemState(
        per_level={l: LevelState(l, {}) for l in LEVELS},
        agents={"a": AgentRecord("a")},
    )
    op = st.tuples(st.sampled_from(["spawn", "remove", "body", "drop"]),
                   st.sampled_from(AGENTS), st.sampled_from(LEVELS))
    for _ in range(data.draw(st.integers(1, 6))):
        plans.append(legal(data.draw(st.lists(op, max_size=5)), state))
        state, _ = step(model, state)
        scanned = scanned_memberships(state)
        assert dict(state.memberships()) == scanned
        assert state.memberships() is state.memberships()
        for agent in AGENTS:
            if agent in state.agents:
                assert member_levels(state, agent) == scanned.get(agent, frozenset())
            else:
                with pytest.raises(UnknownAgent):
                    member_levels(state, agent)


# --- id-hashed influences ----------------------------------------------------

small_influences = st.builds(
    influence,
    st.sampled_from(["move", "inc"]),
    st.sampled_from(LEVELS),
    st.sampled_from(["p", "q"]),
    uid=st.sampled_from(["x#0", "x#1"]),
    klass=st.sampled_from([ORDINARY, EMERGENCE]),
    amount=st.integers(0, 1),
)


@given(small_influences, small_influences)
def test_equal_influences_hash_equal(a, b):
    if a == b:
        assert hash(a) == hash(b)
    assert len({a, b}) == (1 if a == b else 2)


def test_an_influence_is_built_in_one_step_and_stays_frozen():
    inf = StepContext(3, "p").make("move", "micro", amount=1, agent="a")
    assert repr(inf) == (
        "Influence(id='p@3#0', kind='move', target_level='micro', producer='p', "
        "payload={'amount': 1, 'agent': 'a'}, klass='ordinary')"
    )
    reordered = Influence("p@3#0", "move", "micro", "p", {"agent": "a", "amount": 1})
    assert inf == reordered and hash(inf) == hash(reordered) == hash("p@3#0")
    assert len({inf, reordered}) == 1
    assert inf != Influence("p@3#0", "move", "micro", "p", {"agent": "a", "amount": 2})
    assert inf != dataclasses.replace(inf, klass=EMERGENCE)
    assert [f.name for f in dataclasses.fields(inf)] == [
        "id", "kind", "target_level", "producer", "payload", "klass"
    ]
    for attr in ("kind", "payload", "other"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(inf, attr, None)
    with pytest.raises(dataclasses.FrozenInstanceError):
        del inf.kind
    for twin in (copy.deepcopy(inf), pickle.loads(pickle.dumps(inf))):
        assert twin == inf and hash(twin) == hash(inf)
        assert twin.payload is not inf.payload


def partitioned_merge(levels, groups):
    """`merge_influences`, then partitioned by target level."""
    out = {level: set() for level in levels}
    for inf in merge_influences(groups):
        out.setdefault(inf.target_level, set()).add(inf)
    return {level: frozenset(infs) for level, infs in out.items()}


@given(st.lists(st.lists(small_influences, max_size=4), max_size=4))
def test_group_by_level_equals_merge_then_partition(groups):
    assert group_by_level(["micro"], groups) == partitioned_merge(["micro"], groups)


# --- constraint fast path ----------------------------------------------------

def full_apply_constraints(influences):
    """The constraint filter without its fast path."""
    influences = list(influences)
    constraints = sorted((i for i in influences if i.klass == CONSTRAINT), key=lambda i: i.id)
    others = [i for i in influences if i.klass != CONSTRAINT]
    inhibited, log = set(), []
    for c in constraints:
        selector = c.payload.get("selector")
        hits = ()
        if selector is not None:
            hits = tuple(sorted(i.id for i in others
                                if i.klass == ORDINARY and selector.matches(i)))
        inhibited.update(hits)
        log.append(InhibitionRecord(c.id, hits))
    return frozenset(i for i in others if i.id not in inhibited), tuple(log)


def any_influence(index):
    ordinary = st.builds(
        influence, st.sampled_from(["move", "inc"]), st.just("micro"),
        st.sampled_from(["p", "q"]), uid=st.just(f"i#{index}"),
        klass=st.sampled_from([ORDINARY, EMERGENCE]),
    )
    selector = st.builds(InfluenceSelector, st.sampled_from(["move", "inc"]),
                         st.sampled_from([None, "p", "q"]))
    constraint = st.builds(
        influence, st.just("inhibit"), st.just("micro"), st.just("m"),
        uid=st.just(f"i#{index}"), klass=st.just(CONSTRAINT), selector=selector,
    )
    return ordinary | constraint


@given(st.lists(st.integers(0, 9), unique=True, max_size=8).flatmap(
    lambda ids: st.tuples(*map(any_influence, ids))))
def test_constraint_fast_path_equals_the_full_filter(influences):
    gamma = frozenset(influences)
    kept, log = apply_constraints(gamma)
    assert (kept, log) == full_apply_constraints(gamma)
    if not any(i.klass == CONSTRAINT for i in gamma):
        assert kept is gamma and log == ()


# --- trace rows built on read ------------------------------------------------

def eager_trace(tick, produced, inhibitions, events):
    """The trace rows as the engine built them on every step."""
    trace = []
    for level in sorted(produced):
        for inf in sorted(produced[level], key=lambda i: i.id):
            trace.append({"tick": tick, "level": level, "event": "influence",
                          "payload": {"id": inf.id, "kind": inf.kind, "class": inf.klass,
                                      "producer": inf.producer}})
    for level in sorted(inhibitions):
        for record in inhibitions[level]:
            trace.append({"tick": tick, "level": level, "event": "inhibition",
                          "payload": {"constraint": record.constraint_id,
                                      "inhibited": list(record.inhibited_ids)}})
    for level, name, payload in events:
        trace.append({"tick": tick, "level": level, "event": name, "payload": payload})
    return tuple(trace)


level_names = st.sampled_from(LEVELS)
inhibition_records = st.builds(
    InhibitionRecord, st.text("xyz#0", max_size=4),
    st.lists(st.text("ab#1", max_size=3), max_size=3).map(tuple),
)
step_events = st.tuples(level_names, st.sampled_from(["spawn", "assigned"]),
                        st.dictionaries(st.sampled_from(["agent", "task"]), st.text("ab", max_size=2)))


@given(
    st.integers(0, 50),
    st.dictionaries(level_names, st.frozensets(small_influences, max_size=4)),
    st.dictionaries(level_names, st.lists(inhibition_records, max_size=3).map(tuple)),
    st.lists(step_events, max_size=4).map(tuple),
)
def test_step_trace_equals_the_eager_rows(tick, produced, inhibitions, events):
    info = StepInfo(produced=produced, inhibitions=inhibitions, events=events, tick=tick)
    assert info.trace == eager_trace(tick, produced, inhibitions, events)


def test_fixture_step_traces_equal_the_eager_rows():
    spec = parse_scenario(ROOT / "scenarios" / "corridor.json")
    model, state = build(spec)
    for _ in range(40):
        tick = state.time
        state, info = step(model, state)
        assert info.tick == tick
        assert info.trace == eager_trace(tick, info.produced, info.inhibitions, info.events)


@pytest.mark.parametrize("collect", [False, True])
def test_trace_rows_are_built_only_when_collected(collect, monkeypatch):
    reads = []
    eager = StepInfo.trace

    def counted(info):
        reads.append(info.tick)
        return eager.fget(info)

    monkeypatch.setattr(StepInfo, "trace", property(counted))
    spec = parse_scenario(ROOT / "scenarios" / "corridor.json")
    model, state = build(spec)
    result = run(model, state, ticks=60, seed=0, observers=(SafetyChecker(spec.grid),),
                 metrics=fms_metrics, termination=all_tasks_delivered, collect_trace=collect)
    assert reads == (list(range(len(result.records))) if collect else [])
    assert bool(result.trace) == collect


# --- route table -------------------------------------------------------------

edge_lists = st.lists(st.tuples(st.sampled_from("abc"), st.sampled_from("abc")), max_size=6)


@given(edge_lists, edge_lists, st.sets(st.sampled_from("abc"), min_size=1))
def test_routes_are_the_neighborhood_unions_computed_once(influence_edges, perception_edges,
                                                         levels):
    graph = validate(LevelGraphSpec.make("abc", influence_edges, perception_edges))
    levels = frozenset(levels)
    route = graph.routes(levels)
    assert route == (
        frozenset().union(*(graph.out_perception(l) for l in levels)),
        frozenset().union(*(graph.out_influence(l) for l in levels)),
    )
    assert graph.routes(frozenset(levels)) is route


# --- one AGV map per floor snapshot ------------------------------------------

def test_every_reader_of_a_floor_snapshot_gets_one_agv_map():
    spec = parse_scenario(ROOT / "scenarios" / "corridor.json")
    model, state = build(spec)
    floor = state.per_level[FLOOR]
    agvs = floor_agvs(floor)
    assert floor_agvs(floor) is agvs
    assert sorted(agvs) == ["agv-1", "agv-2"]
    with pytest.raises(TypeError):
        agvs["agv-3"] = Body(FLOOR)
    view = FieldSensor(spec.grid, spec.params).view(floor, state.per_level[TASKS])
    assert view.agvs is agvs
    solver_state = LevelState("control", {body_key("s"): Body("control", {"trapped": ()})})
    percept = Percept({FLOOR: floor, "control": solver_state})
    perception = SolverBehavior(spec.grid, spec.params).perceive(percept, AgentRecord("s"))
    assert perception["agvs"] is agvs


# --- trace writer ------------------------------------------------------------

def dumped_trace(trace):
    """The trace file as `json.dumps` writes each sorted row."""
    rows = sorted(trace, key=lambda r: (
        r["tick"], r["level"], str(r["payload"].get("id", "")), r["event"],
        json.dumps(r["payload"], sort_keys=True, default=str),
    ))
    return "".join(json.dumps(row, sort_keys=True, default=str) + "\n" for row in rows)


payload_values = st.one_of(
    st.none(), st.integers(-3, 3), st.text("aé\"\\", max_size=3),
    st.lists(st.integers(0, 2), max_size=2), st.tuples(st.integers(0, 2)),
    st.builds(InfluenceSelector, st.just("move")),
)
trace_rows = st.fixed_dictionaries({
    "tick": st.integers(0, 3),
    "level": st.sampled_from(["floor", "tasks", "contröl"]),
    "event": st.sampled_from(["influence", "spawn", "assigned"]),
    "payload": st.dictionaries(st.sampled_from(["id", "agent", "task", "z"]), payload_values,
                               max_size=3),
})


@settings(deadline=None)
@given(st.lists(trace_rows, max_size=8))
def test_write_trace_equals_json_dumps_per_row(tmp_path_factory, rows):
    path = tmp_path_factory.mktemp("trace") / "trace.jsonl"
    cli.write_trace(path, rows)
    assert path.read_text() == dumped_trace(rows)


# --- copy-on-write task bookkeeping -----------------------------------------

def full_rebuild_tasks_reaction(grid):
    """The task reaction as it was: copy every task dict and rebuild every
    shop's queue from the whole table on every tick."""

    def tasks_reaction(level, sigma, influences, ctx):
        tasks = {tid: dict(t) for tid, t in sigma.get("tasks", {}).items()}
        persisted = []
        events = []
        ordered = sorted(influences, key=lambda i: i.id)
        for inf in ordered:
            tid = inf.payload.get("task")
            task = tasks.get(tid)
            if task is None:
                continue
            if inf.kind == K_PICKED and task["state"] == "assigned":
                task["state"] = "picked"
            elif inf.kind == K_DELIVERED and task["state"] == "picked":
                task["state"] = "delivered"
                events.append(("delivered", {"task": tid}))
        offers = {}
        needs = []
        for inf in ordered:
            if inf.kind == K_SERVE:
                offers[inf.payload["agent"]] = tuple(inf.payload["cell"])
            elif inf.kind == K_NEED:
                needs.append(inf)
        busy = {
            t["assigned_to"]
            for t in tasks.values()
            if t["state"] in ("assigned", "picked") and t.get("assigned_to")
        }
        available = {a: c for a, c in offers.items() if a not in busy}
        demands = []
        seen = set()
        for inf in sorted(needs, key=lambda i: (i.payload["order"], i.payload["task"])):
            tid = inf.payload["task"]
            if tid in seen:
                continue
            seen.add(tid)
            task = tasks.get(tid)
            if task is not None and task["state"] == "pending":
                demands.append(tid)
        assigned_any = False
        for tid in demands:
            if not available:
                break
            task = tasks[tid]
            dist = grid.distances(tuple(task["source_cell"]))
            reachable = {a: dist.get(c) for a, c in available.items() if dist.get(c) is not None}
            if not reachable:
                continue
            winner = min(reachable, key=lambda a: (reachable[a], a))
            task["state"] = "assigned"
            task["assigned_to"] = winner
            del available[winner]
            assigned_any = True
            persisted.append(ctx.make(
                K_ASSIGN, FLOOR, agent=winner, task=tid,
                source_cell=tuple(task["source_cell"]), dest_cell=tuple(task["dest_cell"]),
            ))
            events.append(("assigned", {"task": tid, "agent": winner}))
        if assigned_any:
            for agent in sorted(available):
                persisted.append(ctx.make(
                    K_INH_MOVE, FLOOR, klass=CONSTRAINT,
                    selector=InfluenceSelector(match_kind=K_MOVE, match_producer=agent),
                    agent=agent,
                ))
        shop_bodies = {sid: b for sid, b in bodies_of(sigma).items() if b.get("type") == "shop"}
        for sid, body in shop_bodies.items():
            pending = tuple(sorted(
                (
                    tid
                    for tid, t in tasks.items()
                    if (t["source"] == sid and t["state"] in ("pending", "assigned"))
                    or (t["dest"] == sid and t["state"] == "picked")
                ),
                key=lambda tid: tasks[tid]["order"],
            ))
            sigma[body_key(sid)] = body.with_attrs(pending=pending, emitting=bool(pending))
        sigma["tasks"] = tasks
        return ReactionResult(sigma, tuple(persisted), events=tuple(events))

    return tasks_reaction


SHOPS = ("s0", "s1", "s2", "s3")  # s3 has no shop body
TASK_AGVS = ("a0", "a1", "a2")


@st.composite
def task_snapshots(draw):
    """(grid, tasks-level properties, influences): a random task table whose
    shop queues follow the queue rule, as every snapshot's do, and a random
    set of pick, delivery, offer and need influences."""
    grid = GridMap(5, 4, frozenset(draw(st.sets(st.sampled_from([(1, 1), (2, 1), (3, 2), (1, 3)])))))
    free = grid.free_cells()
    cells = {sid: draw(st.sampled_from(free)) for sid in SHOPS}
    table = {}
    for i in range(draw(st.integers(0, 7))):
        source, dest = draw(st.lists(st.sampled_from(SHOPS), min_size=2, max_size=2, unique=True))
        state = draw(st.sampled_from(TASK_STATES))
        table[f"t{i}"] = {
            "source": source, "dest": dest,
            "source_cell": cells[source], "dest_cell": cells[dest], "state": state,
            "assigned_to": None if state == "pending" else draw(st.sampled_from(TASK_AGVS)),
            "order": draw(st.integers(0, 3)),  # ties are broken by table order
        }
    props = {"tasks": table}
    for sid in SHOPS[:-1]:
        pending = tuple(sorted(
            (tid for tid, t in table.items()
             if (t["source"] == sid and t["state"] in ("pending", "assigned"))
             or (t["dest"] == sid and t["state"] == "picked")),
            key=lambda tid: table[tid]["order"],
        ))
        props[body_key(sid)] = Body(
            TASKS, {"type": "shop", "cell": cells[sid], "pending": pending, "emitting": bool(pending)}
        )
    tids = sorted(table) + ["ghost"]
    uid = iter(range(100))
    infs = set()
    for kind in draw(st.lists(st.sampled_from([K_PICKED, K_DELIVERED, K_SERVE, K_NEED]), max_size=10)):
        i = f"i{next(uid):02d}"
        if kind == K_SERVE:
            agent = draw(st.sampled_from(TASK_AGVS))
            infs.add(influence(kind, TASKS, agent, uid=i, agent=agent, cell=draw(st.sampled_from(free))))
        elif kind == K_NEED:
            tid = draw(st.sampled_from(tids))
            task = table.get(tid, {"source_cell": free[0], "dest_cell": free[-1], "order": 9})
            infs.add(influence(kind, TASKS, "s0", uid=i, task=tid, source_cell=task["source_cell"],
                               dest_cell=task["dest_cell"], order=task["order"]))
        else:
            infs.add(influence(kind, TASKS, "reaction:floor", uid=i,
                               task=draw(st.sampled_from(tids)), agent="a0"))
    return grid, props, frozenset(infs)


@settings(max_examples=300, deadline=None)
@given(task_snapshots())
def test_tasks_reaction_equals_the_full_rebuild_and_copies_only_what_changed(snapshot):
    grid, props, infs = snapshot
    before = copy.deepcopy(props)
    table = props["tasks"]
    task_dicts = dict(table)
    expected = full_rebuild_tasks_reaction(grid)(TASKS, dict(props), infs, StepContext(1, "r"))
    result = make_tasks_reaction(grid)(TASKS, dict(props), infs, StepContext(1, "r"))
    assert result.sigma == expected.sigma
    assert list(result.sigma) == list(expected.sigma)
    assert list(result.sigma["tasks"]) == list(expected.sigma["tasks"])
    assert (result.persisted, result.events) == (expected.persisted, expected.events)
    # The input snapshot's table and task dicts are left as they were.
    assert props == before and props["tasks"] is table
    assert all(table[tid] is task for tid, task in task_dicts.items())
    # A task is copied only when it changed, and only the source and dest
    # shops of a changed task get a new body.
    new_tasks = result.sigma["tasks"]
    changed = {tid for tid in table if new_tasks[tid] is not table[tid]}
    assert all(new_tasks[tid]["state"] != table[tid]["state"] for tid in changed)
    touched = {table[tid][end] for tid in changed for end in ("source", "dest")}
    for sid in SHOPS[:-1]:
        if sid not in touched:
            assert result.sigma[body_key(sid)] is props[body_key(sid)]


# --- stuck solvers replan only when their inputs change ---------------------

def count_plans(monkeypatch):
    calls = []
    plan = SolverBehavior._plan

    def counted(self, members, agvs):
        calls.append(tuple(members))
        return plan(self, members, agvs)

    monkeypatch.setattr(SolverBehavior, "_plan", counted)
    return calls


def test_a_stuck_solver_plans_once_per_stuck_spell(monkeypatch):
    calls = count_plans(monkeypatch)
    spec = parse_scenario(ROOT / "scenarios" / "walled_trap.json")
    spec.data["control"] = True
    model, state = build(spec)
    result = run(model, state, ticks=spec.run_params["ticks"], seed=spec.run_params["seed"],
                 observers=(SafetyChecker(spec.grid),), metrics=fms_metrics,
                 termination=all_tasks_delivered, collect_trace=True)
    stuck_ticks = sum(
        1 for row in result.trace
        if row["event"] == "influence" and row["payload"]["kind"] == "deadlock-unresolvable"
    )
    assert stuck_ticks > 100  # the trapped pair never gets out
    assert calls == [("agv-1", "agv-2")]  # one spell, one plan


def test_a_stuck_solver_replans_when_an_agv_moves(monkeypatch):
    calls = count_plans(monkeypatch)
    solver = SolverBehavior(GridMap(4, 1), FmsParams())

    def perception(c_cell):
        # a and b are trapped; c, not a member, blocks the only way out.
        cells = {"a": (0, 0), "b": (1, 0), "c": c_cell}
        agvs = {aid: Body(FLOOR, {"type": "agv", "cell": cell, "assigned": None})
                for aid, cell in cells.items()}
        return {"me": "s", "trapped": ("a", "b"), "agvs": agvs}

    state = solver.memorize(perception((2, 0)), None, None)
    assert state["phase"] == "stuck" and len(calls) == 1
    state = solver.memorize(perception((2, 0)), state, None)
    assert state["phase"] == "stuck" and len(calls) == 1  # same inputs: no replan
    state = solver.memorize(perception((3, 0)), state, None)
    assert len(calls) == 2  # c moved away: replan, and b can park now
    assert (state["phase"], state["parker"], state["target"]) == ("parking", "b", (2, 0))
