"""Engine bookkeeping done once per snapshot, checked against the plain
definitions it replaces: the membership index against a scan of the level
maps, id hashing against structural equality, the step's trace record against
an eager row builder, the constraint fast path against the full filter, the
one-pass grouping against merge-then-partition, the route table against the
neighborhood unions, the trace writer against per-row `json.dumps`, the
metrics writer against `csv.DictWriter`, and the copy-on-write task reaction
against a full rebuild."""

import copy
import csv
import dataclasses
import json
import pickle
import re
from operator import itemgetter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mlsim import cli
from mlsim.engine import (
    Model,
    ReactionResult,
    StepContext,
    StepInfo,
    Trace,
    run,
    step,
)
from mlsim.errors import IllegalInfluenceTarget
from mlsim.fms.grid import GridMap
from mlsim.fms.model import (
    FLOOR,
    K_ASSIGN,
    K_DELIVERED,
    K_INH_MOVE,
    K_MOVE,
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
from mlsim.hierarchy import (
    ConstraintKindDecl,
    Declarations,
    HierarchicalCoupling,
    InfluenceSelector,
    InhibitionRecord,
    apply_constraints,
)
from mlsim.levels import LevelGraphSpec, validate
from mlsim.scenario import apply_overrides, build, parse_scenario, parse_scenario_dict
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
)

from support import dumped_trace, identity_reaction, influence, record_rows, trace_rows
from test_golden_digests import ROOT
from test_replay import Steady

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


def test_a_body_reads_its_attributes_through_its_own_dict():
    body = Body(FLOOR, {"cell": (1, 0), "type": "agv"})
    assert body.get("cell") == (1, 0) and body.get("missing") is None
    assert body.get("missing", 7) == 7
    assert Body(FLOOR).attributes == {} and Body(FLOOR).get("cell") is None
    assert body == Body(FLOOR, {"type": "agv", "cell": (1, 0)})
    assert body != Body(TASKS, {"cell": (1, 0), "type": "agv"})
    assert repr(body) == "Body(level='floor', attributes={'cell': (1, 0), 'type': 'agv'})"
    assert [f.name for f in dataclasses.fields(body)] == ["level", "attributes"]
    with pytest.raises(TypeError):
        hash(body)
    for attr in ("level", "attributes", "get"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(body, attr, None)
    moved = dataclasses.replace(body, attributes={"cell": (2, 0)})
    assert moved.get("cell") == (2, 0) and body.get("cell") == (1, 0)
    assert body.with_attrs(cell=(3, 0)).get("cell") == (3, 0)


@pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy,
                                   lambda b: pickle.loads(pickle.dumps(b))])
def test_a_copied_body_reads_its_own_attributes(clone):
    body = Body(FLOOR, {"cell": (1, 0), "window": [(1, 0)]})
    twin = clone(body)
    assert twin == body
    twin.attributes["cell"] = (5, 5)  # a copy's dict, written only here
    assert twin.get("cell") == (5, 5)
    if twin.attributes is not body.attributes:
        assert body.get("cell") == (1, 0)


def test_an_agent_record_is_built_in_one_step_and_stays_frozen():
    record = AgentRecord("a1", "agv", {"to": (1, 0)})
    assert record == AgentRecord(id="a1", kind="agv", internal_state={"to": (1, 0)})
    assert AgentRecord("s").kind == "" and AgentRecord("s").internal_state is None
    assert hash(AgentRecord("a1", "agv")) == hash(AgentRecord("a1", "agv"))
    assert repr(AgentRecord("a1")) == "AgentRecord(id='a1', kind='', internal_state=None)"
    assert dataclasses.replace(record, kind="shop").kind == "shop"
    with pytest.raises(dataclasses.FrozenInstanceError):
        record.kind = "shop"
    for twin in (copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert twin == record and twin.internal_state is not record.internal_state


def property_count(level_state):
    return len(level_state.properties)


def level_name(level_state):
    return level_state.level


def test_a_level_state_is_built_in_one_step_and_stays_frozen():
    floor = LevelState(FLOOR, {"k": 1}, frozenset({influence("move", FLOOR, "p", uid="p@0#0")}))
    assert [f.name for f in dataclasses.fields(floor)] == ["level", "properties", "influences"]
    assert LevelState(FLOOR).properties == {} and LevelState(FLOOR).influences == frozenset()
    assert LevelState(FLOOR).properties is not LevelState(FLOOR).properties
    assert floor == LevelState(level=FLOOR, properties={"k": 1}, influences=floor.influences)
    assert floor != LevelState(FLOOR, {"k": 2}, floor.influences)
    assert repr(LevelState(FLOOR, {"k": 1})) == (
        "LevelState(level='floor', properties={'k': 1}, influences=frozenset())")
    moved = dataclasses.replace(floor, properties={"k": 2})
    assert moved.properties == {"k": 2} and moved.influences is floor.influences
    for attr in ("level", "properties", "influences", "other"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(floor, attr, None)
    with pytest.raises(dataclasses.FrozenInstanceError):
        del floor.properties
    assert floor.derived(property_count) == 1 and floor.derived(property_count) == 1
    floor.bodies()
    for twin in (copy.deepcopy(floor), pickle.loads(pickle.dumps(floor))):
        assert twin == floor and twin.properties is not floor.properties
        assert set(twin.__dict__) == {"level", "properties", "influences"}  # caches dropped
        assert twin.derived(property_count) == 1


def test_derived_values_share_one_cache_per_level_state():
    floor = LevelState(FLOOR, {"k": 1})
    assert "_derived" not in floor.__dict__
    floor.derived(property_count)
    cache = floor.__dict__["_derived"]
    floor.derived(property_count)
    floor.derived(level_name)
    assert floor.__dict__["_derived"] is cache
    assert cache == {property_count: 1, level_name: FLOOR}


def test_a_system_state_is_built_in_one_step_and_stays_frozen():
    floor = LevelState(FLOOR, {body_key("a"): Body(FLOOR)})
    state = SystemState(3, {FLOOR: floor}, {"a": AgentRecord("a")})
    assert [f.name for f in dataclasses.fields(state)] == ["time", "per_level", "agents"]
    empty = SystemState()
    assert (empty.time, empty.per_level, empty.agents) == (0, {}, {})
    assert SystemState().agents is not SystemState().agents
    assert state == SystemState(time=3, per_level={FLOOR: floor}, agents={"a": AgentRecord("a")})
    assert state != dataclasses.replace(state, time=4)
    assert dataclasses.replace(state, time=4).per_level is state.per_level
    assert repr(SystemState(1)) == "SystemState(time=1, per_level={}, agents={})"
    for attr in ("time", "per_level", "agents", "other"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(state, attr, None)
    with pytest.raises(dataclasses.FrozenInstanceError):
        del state.time
    for twin in (copy.deepcopy(state), pickle.loads(pickle.dumps(state))):
        assert twin == state and twin.per_level is not state.per_level
        assert twin.memberships() == {"a": frozenset({FLOOR})}


def test_a_slotted_context_seeds_its_stream_on_the_first_rng_read(monkeypatch):
    import mlsim.engine as engine

    seeded = []
    monkeypatch.setattr(engine, "derived_rng", lambda *key: seeded.append(key) or key)
    ctx = StepContext(3, "p", rng_key=(7, "p", 3))
    assert not hasattr(ctx, "__dict__")
    with pytest.raises(AttributeError):
        ctx.other = 1
    made = ctx.make("move", "micro", klass=EMERGENCE, to=1)
    assert made == Influence("p@3#0", "move", "micro", "p", {"to": 1}, EMERGENCE)
    assert seeded == [] and ctx.untouched is False
    assert ctx.rng is ctx.rng == (7, "p", 3)
    assert seeded == [(7, "p", 3)]


def merge_influences(sets):
    """Set union with id-based deduplication: the first influence of each
    id, and the first id whose influences differ (None if none does)."""
    merged = {}
    clash = None
    for group in sets:
        for inf in group:
            if merged.setdefault(inf.id, inf) != inf and clash is None:
                clash = inf.id
    return frozenset(merged.values()), clash


def partitioned_merge(levels, groups):
    """`merge_influences`, then partitioned by target level."""
    merged, clash = merge_influences(groups)
    out = {level: set() for level in levels}
    for inf in merged:
        out.setdefault(inf.target_level, set()).add(inf)
    return {level: frozenset(infs) for level, infs in out.items()}, clash


SAME = influence("move", "micro", "p", uid="x#0", amount=0)


@given(st.lists(st.lists(small_influences, max_size=4), max_size=4))
@example([[SAME], [influence("move", "micro", "p", uid="x#0", amount=0), SAME]])
@example([[SAME], [influence("move", "micro", "p", uid="x#0", amount=1)]])
def test_group_by_level_equals_merge_then_partition(groups):
    """Equal influences of one id merge into one; two different influences
    of one id are an error that names it."""
    expected, clash = partitioned_merge(["micro"], groups)
    if clash is None:
        assert group_by_level(["micro"], groups) == expected
    else:
        with pytest.raises(IllegalInfluenceTarget, match=re.escape(f"id {clash!r}")):
            group_by_level(["micro"], groups)


# --- constraint fast path and index ------------------------------------------

def selector_matches(selector, inf):
    """The selector's definition: its kind, and its producer unless None."""
    return inf.kind == selector.match_kind and (
        selector.match_producer is None or inf.producer == selector.match_producer
    )


def full_apply_constraints(influences):
    """The constraint filter without its fast path or its (kind, producer)
    index: every constraint's selector is tested against every influence."""
    influences = list(influences)
    constraints = sorted((i for i in influences if i.klass == CONSTRAINT), key=lambda i: i.id)
    others = [i for i in influences if i.klass != CONSTRAINT]
    inhibited, log = set(), []
    for c in constraints:
        selector = c.payload.get("selector")
        hits = ()
        if selector is not None:
            hits = tuple(sorted(i.id for i in others
                                if i.klass == ORDINARY and selector_matches(selector, i)))
        inhibited.update(hits)
        log.append(InhibitionRecord(c.id, hits))
    return frozenset(i for i in others if i.id not in inhibited), tuple(log)


def any_influence(index):
    """Influence `i#index`: ordinary or emergence of a few kinds and
    producers, or a constraint whose selector may be missing, name any
    producer or match nothing."""
    ordinary = st.builds(
        influence, st.sampled_from(["move", "inc", "inhibit"]), st.just("micro"),
        st.sampled_from(["p", "q", "r"]), uid=st.just(f"i#{index}"),
        klass=st.sampled_from([ORDINARY, ORDINARY, EMERGENCE]),
    )
    selector = st.none() | st.builds(InfluenceSelector, st.sampled_from(["move", "inc", "x"]),
                                     st.sampled_from([None, "p", "q", "r", "nobody"]))
    constraint = st.builds(
        influence, st.just("inhibit"), st.just("micro"), st.just("m"),
        uid=st.just(f"i#{index}"), klass=st.just(CONSTRAINT), selector=selector,
    )
    return ordinary | constraint


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(0, 99), unique=True, max_size=16).flatmap(
    lambda ids: st.tuples(*map(any_influence, ids))))
def test_constraint_fast_path_equals_the_full_filter(influences):
    """The (kind, producer) index and the fast path give the scan's filtered
    set and log: constraints in id order, each with its hits in id order."""
    gamma = frozenset(influences)
    kept, log = apply_constraints(gamma)
    assert (kept, log) == full_apply_constraints(gamma)
    if not any(i.klass == CONSTRAINT for i in gamma):
        assert kept is gamma and log == ()


# --- trace records built on demand --------------------------------------------

def eager_trace(tick, produced, inhibitions, events):
    """The trace rows as the engine once built them on every step."""
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
    return trace


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
    assert record_rows(info.record()) == eager_trace(tick, produced, inhibitions, events)


def test_fixture_step_traces_equal_the_eager_rows():
    spec = parse_scenario(ROOT / "scenarios" / "corridor.json")
    model, state = build(spec)
    for _ in range(40):
        tick = state.time
        state, info = step(model, state)
        assert info.tick == tick
        assert record_rows(info.record()) == eager_trace(tick, info.produced, info.inhibitions,
                                                         info.events)


@pytest.mark.parametrize("collect", [False, True])
def test_trace_rows_are_built_only_when_collected(collect, monkeypatch):
    """`run` makes a tick's trace record only when it collects the trace,
    and then only for a stepped tick: a replayed tick's stays in the held
    step the run's trace keeps for its tail.  The trace is non-empty only
    when collected."""
    reads = []
    record = StepInfo.record

    def counted(info):
        reads.append(info.tick)
        return record(info)

    monkeypatch.setattr(StepInfo, "record", counted)
    spec = parse_scenario(ROOT / "scenarios" / "corridor.json")
    model, state = build(spec)
    stepped = []

    def stepped_ticks(tick, state, info):
        if not info.replayed:
            stepped.append(tick)

    result = run(model, state, ticks=60, seed=0,
                 observers=(SafetyChecker(spec.grid), stepped_ticks), metrics=fms_metrics,
                 termination=all_tasks_delivered, collect_trace=collect)
    assert 0 < len(stepped) < len(result.records) == 60  # the corridor freezes
    assert reads == (stepped if collect else [])
    assert bool(result.trace) == collect
    if collect:
        assert [record[0] for record in result.trace.steps] == stepped


# --- route table -------------------------------------------------------------

# A level graph has no self-loop edge (`levels.validate` rejects one).
edge_lists = st.lists(st.sampled_from([(a, b) for a in "abc" for b in "abc" if a != b]),
                      max_size=6)


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

class Text(str):
    """A str subclass, which the encoder writes as a string: the trace
    writer's exact-`str` checks must not trip over it."""


texts = st.text("aé\"\\\n", max_size=3)
payload_values = st.one_of(
    st.none(), st.integers(-3, 3), texts,
    st.lists(st.integers(0, 2), max_size=2), st.tuples(st.integers(0, 2)),
    st.builds(InfluenceSelector, st.just("move")),
)


# Names that trouble a tick stamp: digits and the tick's own digits, the id
# separators `@` and `#`, what JSON escapes, non-ASCII, and the trace
# writer's tick mark, which leaves a frozen tail that holds it to be
# written tick by tick.
hostile_names = st.one_of(
    st.text("09@#\"\\é\N{SECTION SIGN}" + cli._MARK, min_size=1, max_size=4),
    st.sampled_from(["96", "99", "100", "101", "@100#", "#0", f"9{cli._MARK}"]),
)


@settings(deadline=None, max_examples=60)
@given(st.lists(hostile_names, min_size=5, max_size=5, unique=True), st.integers(1, 3),
       st.booleans(), st.booleans())
@example(names=["micro", "macro", f"p{cli._MARK}", "m", "move"], made=2, by_producer=True,
         subclassed=False)
def test_a_frozen_span_is_written_as_its_rows(tmp_path_factory, names, made, by_producer,
                                              subclassed):
    """A toy model frozen from its second tick, started at tick 95 so that
    the tick gains a digit in mid-span, with hostile level, kind and producer
    names: `p` makes `made` moves and `m` holds them.  The run's trace is
    its ticks' stepped rows, and the file written from it equals per-row
    `json.dumps`.  A kind that is a `str` subclass is written through
    templates kept for no other line, and a held name that holds the tick
    mark leaves the tail to be written tick by tick (`_span_lines`
    declines it)."""
    micro, macro, p, m, move = names
    hold = move + "!"
    if subclassed:
        move = Text(move)
    graph = validate(LevelGraphSpec.make([micro, macro], [(micro, macro), (macro, micro)],
                                         [(micro, macro), (macro, micro)]))
    selector = InfluenceSelector(move, p if by_producer else None)
    model = Model(
        graph=graph,
        behaviors={p: Steady(lambda ctx: [ctx.make(move, micro, to=k) for k in range(made)]),
                   m: Steady(lambda ctx: [ctx.make(hold, micro, klass=CONSTRAINT,
                                                   selector=selector)])},
        reactions={micro: identity_reaction, macro: identity_reaction},
        decls=Declarations({micro: frozenset({move, hold}), macro: frozenset()},
                           couplings=(HierarchicalCoupling(micro, macro),),
                           constraints=(ConstraintKindDecl(hold, micro, move),)),
    )
    state = SystemState(time=95, per_level={
        micro: LevelState(micro, {body_key(p): Body(micro)}),
        macro: LevelState(macro, {body_key(m): Body(macro)}),
    }, agents={p: AgentRecord(p), m: AgentRecord(m)})
    result = run(model, state, ticks=8, collect_trace=True)
    # A name that is the other's followed by `@` sorts with the tick: not held.
    held = not (m.startswith(p + "@") or p.startswith(m + "@"))
    assert result.frozen_from == (96 if held else None)
    stepped = []
    for _ in range(8):
        state, info = step(model, state)
        stepped += record_rows(info.record())
    rows = trace_rows(result.trace)
    assert rows == stepped
    assert len(result.trace) == len(rows)
    path = tmp_path_factory.mktemp("span") / "span.jsonl"
    cli.write_trace(path, result.trace)
    assert path.read_text() == dumped_trace(rows)
    if held:
        # The held record holds `micro`, `p`, `m` and `move`, not `macro`.
        marked = any(cli._MARK in name for name in (micro, p, m, move))
        encode = json.JSONEncoder(sort_keys=True, default=str).encode
        assert (cli._span_lines(result.trace.held, result.trace.end, encode) is None) == marked


event_names = st.sampled_from(["influence", "inhibition", "spawn"]) | hostile_names
event_payloads = st.dictionaries(st.sampled_from(["id", "agent", "z"]), payload_values, max_size=2)


@settings(deadline=None, max_examples=60)
@given(st.lists(hostile_names, min_size=5, max_size=5, unique=True), st.integers(0, 3),
       st.one_of(texts.map(Text), texts, hostile_names),
       st.lists(st.tuples(event_names, event_payloads), max_size=3))
def test_stepped_ticks_are_written_as_their_rows(tmp_path_factory, names, made, odd_id, events):
    """A toy model that never freezes, started at tick 95, with hostile
    names: `p` makes `made` moves into `micro`, which `m`'s constraint
    inhibits, and one influence into `macro` built by hand with `odd_id` as
    its id (a `str` subclass, or a string that may be empty).  Both
    reactions read the clock and emit `events`; on odd ticks without their
    `id` keys, and on even ticks with them plus one event whose `id` is that
    of `p`'s second influence, which moves no line: a level's events follow
    its influences and inhibitions.  The run's trace is its stepped rows,
    and the file written from it equals per-row `json.dumps`."""
    micro, macro, p, m, move = names
    hold, other = move + "!", move + "?"
    graph = validate(LevelGraphSpec.make([micro, macro], [(micro, macro), (macro, micro)],
                                         [(micro, macro), (macro, micro)]))

    def script(ctx):
        return [ctx.make(move, micro, to=k) for k in range(made)] + [
            Influence(odd_id, other, macro, p, {})]

    def chatty(level, sigma, influences, ctx):
        tick = ctx.tick
        if tick % 2:
            made_events = [(name, {k: v for k, v in payload.items() if k != "id"})
                           for name, payload in events]
        else:
            made_events = events + [("seen", {"id": f"{p}@{tick}#1", "at": level})]
        return ReactionResult(sigma, events=tuple(made_events))

    model = Model(
        graph=graph,
        behaviors={p: Steady(script),
                   m: Steady(lambda ctx: [ctx.make(hold, micro, klass=CONSTRAINT,
                                                   selector=InfluenceSelector(move))])},
        reactions={micro: chatty, macro: chatty},
        decls=Declarations({micro: frozenset({move, hold}), macro: frozenset({other})},
                           couplings=(HierarchicalCoupling(micro, macro),),
                           constraints=(ConstraintKindDecl(hold, micro, move),)),
    )
    state = SystemState(time=95, per_level={
        micro: LevelState(micro, {body_key(p): Body(micro)}),
        macro: LevelState(macro, {body_key(m): Body(macro)}),
    }, agents={p: AgentRecord(p), m: AgentRecord(m)})
    result = run(model, state, ticks=6, collect_trace=True)
    assert result.frozen_from is None and len(result.trace.steps) == 6
    stepped = []
    for _ in range(6):
        state, info = step(model, state)
        stepped += record_rows(info.record())
    assert any(event == "inhibition" for event in map(itemgetter("event"), stepped))
    rows = trace_rows(result.trace)
    assert rows == stepped
    assert len(result.trace) == len(rows)
    path = tmp_path_factory.mktemp("stepped") / "trace.jsonl"
    cli.write_trace(path, result.trace)
    assert path.read_text() == dumped_trace(rows)


influence_records = st.tuples(
    st.sampled_from(["floor", "tasks", "contröl", ""]), st.one_of(texts, texts.map(Text)),
    st.sampled_from(["move", "", "a\"b"]), st.sampled_from(["ordinary", "emergence"]),
    st.sampled_from(["agv-1", "é"]))
inhibition_records_ = st.tuples(
    st.sampled_from(["floor", "tasks", ""]), st.one_of(texts, texts.map(Text)),
    st.lists(st.one_of(texts, st.integers(0, 2)), max_size=2).map(tuple))
record_events = st.tuples(st.sampled_from(["floor", "tasks", ""]), event_names, event_payloads)
MOVE_X = ("floor", "x", "move", "ordinary", "agv-1")
X_PAYLOAD = {"class": "ordinary", "id": "x", "kind": "move", "producer": "agv-1"}


@settings(deadline=None)
@given(st.integers(0, 3), st.lists(st.tuples(
    st.lists(influence_records, max_size=5, unique_by=itemgetter(1)),
    st.lists(inhibition_records_, max_size=3), st.lists(record_events, max_size=3)),
    min_size=1, max_size=3))
# No payload moves a line: after the influences (one with an empty id), the
# inhibition, then the events in the order given, whatever their `id` or
# name, `influence` too.
@example(first=0, steps=[(
    [("floor", "", "move", "ordinary", "agv-1"), MOVE_X],
    [("floor", "c", ("x",))],
    [("floor", "assigned", {}), ("floor", "spawn", {"id": "x"}),
     ("floor", "assigned", {"id": "x"}), ("floor", "influence", {"a": 0, "id": "x"})])])
# Level `True` equals level 1: the event's line follows the influence's,
# and encodes its level apart.
@example(first=0, steps=[([(1, *MOVE_X[1:])], [], [(True, "influence", X_PAYLOAD)])])
def test_step_records_are_written_as_their_rows(tmp_path_factory, first, steps):
    """Records as `StepInfo.record` makes them (influence ids unique, in
    level and id order; inhibitions and events in level order) of
    consecutive ticks, with empty ids and `str` subclasses among the
    influences, inhibitions with odd ids and events of any name, with or
    without an `id` key: the trace file equals per-row `json.dumps` of
    their rows."""
    records = [
        (first + k, sorted(influences, key=itemgetter(0, 1)),
         sorted(inhibitions, key=itemgetter(0)), tuple(sorted(events, key=itemgetter(0))))
        for k, (influences, inhibitions, events) in enumerate(steps)
    ]
    path = tmp_path_factory.mktemp("records") / "trace.jsonl"
    cli.write_trace(path, Trace(records, None, first + len(records)))
    assert path.read_text() == dumped_trace([row for r in records for row in record_rows(r)])


@pytest.mark.parametrize("fixture, control", [("corridor", "false"), ("walled_trap", "true")])
def test_a_long_frozen_run_keeps_one_span(tmp_path, fixture, control):
    """5,000 ticks: the stepped rows, then one frozen tail to the end,
    written as its rows are.  The corridor's tail (control off) holds
    influences only; walled_trap's (control on) holds inhibitions too."""
    spec = parse_scenario(ROOT / "scenarios" / f"{fixture}.json")
    spec = parse_scenario_dict(apply_overrides(spec.data, {"control": control}))
    model, state = build(spec)
    result = run(model, state, ticks=5000, seed=0, observers=(SafetyChecker(spec.grid),),
                 metrics=fms_metrics, collect_trace=True)
    trace = result.trace
    assert (trace.held.first, trace.end) == (result.frozen_from, 5000)
    stepped = sum(len(record_rows(record)) for record in trace.steps)
    assert len(trace) == stepped + (5000 - trace.held.first) * trace.held.row_count
    assert trace.held.constraints == (4 if fixture == "walled_trap" else 0)
    cli.write_trace(tmp_path / "span.jsonl", trace)
    assert (tmp_path / "span.jsonl").read_text() == dumped_trace(trace_rows(trace))


metric_values = st.sampled_from([
    0, 7, True, False, 0.1, 1e-07, 1e16, -0.0, float("nan"), float("inf"), None,
    "a,b", 'say "x"', "two\nlines", "",
])
metric_records = st.fixed_dictionaries({col: metric_values for col in cli.METRIC_COLUMNS},
                                       optional={"extra": metric_values})


@settings(deadline=None)
@given(st.lists(metric_records, max_size=5))
def test_write_metrics_equals_dict_writer(tmp_path_factory, records):
    """The metrics writer against the `csv.DictWriter` it replaced: the
    same bytes, an extra key ignored."""
    folder = tmp_path_factory.mktemp("metrics")
    cli.write_metrics(folder / "m.csv", records)
    with open(folder / "dict.csv", "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=cli.METRIC_COLUMNS, extrasaction="ignore")
        writer.writeheader()
        writer.writerows(records)
    assert (folder / "m.csv").read_bytes() == (folder / "dict.csv").read_bytes()


def test_write_metrics_raises_on_a_missing_column(tmp_path):
    record = dict.fromkeys(cli.METRIC_COLUMNS, 0)
    del record["active_constraints"]
    with pytest.raises(KeyError):
        cli.write_metrics(tmp_path / "m.csv", [record])


# --- copy-on-write task bookkeeping -----------------------------------------

def full_rebuild_tasks_reaction(grid):
    """The task reaction rebuilt from the whole table on every tick: copy
    every task dict, sort every pending task into the demand, and set every
    shop's emitting flag."""

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
        for inf in ordered:
            if inf.kind == K_SERVE:
                offers[inf.payload["agent"]] = tuple(inf.payload["cell"])
        busy = {
            t["assigned_to"]
            for t in tasks.values()
            if t["state"] in ("assigned", "picked") and t.get("assigned_to")
        }
        available = {a: c for a, c in offers.items() if a not in busy}
        demands = sorted(
            (tid for tid, t in tasks.items() if t["state"] == "pending"),
            key=lambda tid: (tasks[tid]["order"], tid),
        )
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
            emitting = any(
                (t["source"] == sid and t["state"] in ("pending", "assigned"))
                or (t["dest"] == sid and t["state"] == "picked")
                for t in tasks.values()
            )
            sigma[body_key(sid)] = body.with_attrs(emitting=emitting)
        sigma["tasks"] = tasks
        return ReactionResult(sigma, tuple(persisted), events=tuple(events))

    return tasks_reaction


SHOPS = ("s0", "s1", "s2", "s3")  # s3 has no shop body
TASK_AGVS = ("a0", "a1", "a2")


@st.composite
def task_snapshots(draw):
    """(grid, tasks-level properties, influences): a random task table whose
    shops emit by the waiting rule, as every snapshot's do, and a random set
    of pick, delivery and offer influences."""
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
            "order": draw(st.integers(0, 3)),  # ties are broken by task id
        }
    props = {"tasks": table}
    for sid in SHOPS[:-1]:
        emitting = any(
            (t["source"] == sid and t["state"] in ("pending", "assigned"))
            or (t["dest"] == sid and t["state"] == "picked")
            for t in table.values()
        )
        props[body_key(sid)] = Body(TASKS, {"type": "shop", "cell": cells[sid], "emitting": emitting})
    tids = sorted(table) + ["ghost"]
    uid = iter(range(100))
    infs = set()
    for kind in draw(st.lists(st.sampled_from([K_PICKED, K_DELIVERED, K_SERVE]), max_size=10)):
        i = f"i{next(uid):02d}"
        if kind == K_SERVE:
            agent = draw(st.sampled_from(TASK_AGVS))
            infs.add(influence(kind, TASKS, agent, uid=i, agent=agent, cell=draw(st.sampled_from(free))))
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
    # A task is copied only when it changed, and a shop gets a new body only
    # when it starts or stops emitting, which only the source and dest shops
    # of a changed task can.
    new_tasks = result.sigma["tasks"]
    changed = {tid for tid in table if new_tasks[tid] is not table[tid]}
    assert all(new_tasks[tid]["state"] != table[tid]["state"] for tid in changed)
    touched = {table[tid][end] for tid in changed for end in ("source", "dest")}
    for sid in SHOPS[:-1]:
        old, new = props[body_key(sid)], result.sigma[body_key(sid)]
        assert (new is old) == (new.get("emitting") == old.get("emitting"))
        if sid not in touched:
            assert new is old


# --- a stuck solver plans again once it can park -----------------------------

def test_a_stuck_solver_replans_when_an_agv_moves():
    solver = SolverBehavior(GridMap(4, 1), FmsParams())

    def perception(c_cell):
        # a and b are trapped; c, not a member, blocks the only way out.
        cells = {"a": (0, 0), "b": (1, 0), "c": c_cell}
        agvs = {aid: Body(FLOOR, {"type": "agv", "cell": cell, "assigned": None})
                for aid, cell in cells.items()}
        return {"me": "s", "trapped": ("a", "b"), "agvs": agvs}

    state = solver.memorize(perception((2, 0)), None, None)
    assert state["phase"] == "stuck"
    state = solver.memorize(perception((2, 0)), state, None)
    assert state["phase"] == "stuck"  # c still blocks
    state = solver.memorize(perception((3, 0)), state, None)
    # c moved away: b can park now
    assert (state["phase"], state["parker"], state["target"]) == ("parking", "b", (2, 0))


def test_a_solver_keeps_its_state_while_nothing_in_it_changes():
    """`memorize` returns the held state itself while the floor snapshot,
    the members and the plan stay, so the engine can replay the call."""
    solver = SolverBehavior(GridMap(4, 1), FmsParams())
    cells = {"a": (0, 0), "b": (1, 0), "c": (2, 0)}  # a and b boxed in by c
    agvs = {aid: Body(FLOOR, {"type": "agv", "cell": cell, "assigned": None})
            for aid, cell in cells.items()}

    def perception(trapped=("a", "b"), floor=agvs):
        return {"me": "s", "trapped": trapped, "agvs": floor}

    held = solver.memorize(perception(), None, None)
    assert held["phase"] == "stuck"
    assert solver.memorize(perception(), held, None) is held
    # An equal floor of another snapshot: a new state that holds the new view.
    other_floor = dict(agvs)
    renewed = solver.memorize(perception(floor=other_floor), held, None)
    assert renewed is not held and renewed["view"]["agvs"] is other_floor
    # Other members: a new state.
    assert solver.memorize(perception(trapped=("a",)), held, None) is not held
