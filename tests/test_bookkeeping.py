"""Engine bookkeeping done once per snapshot, checked against the plain
definitions it replaces: the membership index against a scan of the level
maps, id hashing against structural equality, the lazily built trace against
an eager row builder, the constraint fast path against the full filter, the
one-pass grouping against merge-then-partition, the route table against the
neighborhood unions, and the trace writer against per-row `json.dumps`."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlsim import cli
from mlsim.engine import Model, ReactionResult, StepInfo, run, step
from mlsim.errors import UnknownAgent
from mlsim.fms.model import (
    FLOOR,
    TASKS,
    FieldSensor,
    SafetyChecker,
    SolverBehavior,
    all_tasks_delivered,
    floor_agvs,
    fms_metrics,
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
    LevelState,
    Percept,
    SystemState,
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
        selector = c.payload_get("selector")
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
