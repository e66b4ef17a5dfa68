"""Carried-over levels, replayed reactions and frozen ticks, against three
oracles.

When a level's reaction leaves every property bound to the object it held and
the influences routed to it equal the ones it holds, the engine keeps the old
`LevelState` (`engine.carried_level`).  Every cache keyed on a level state
then survives the tick.  A run also replays a quiet reaction call that saw no
filtered influences while the level receives none, and replays a frozen tick
(every producer call quiet, every reaction replayed or quiet, every level
state and agent record kept) whole; both are kept in the run's
`engine.ReplayMemory`.

Each oracle switches skips off without patching the engine.  Without
carry-over, the case runs one tick at a time, each tick a `run` of one tick
from a snapshot whose level states are fresh shells: no cache keyed on a
level state survives a tick.  Without replay, each one-tick `run` starts on
the snapshot itself: the caches survive, but no memory lives long enough to
replay a reaction or a tick.  Both call every producer and every reaction on
every tick.  Without replayed production, the case is stepped under one
memory, each tick from a new snapshot of the same level states and agents:
the quiet reactions are still replayed, but a held step repeats only on the
snapshot it was held for, so every producer is called on every tick.
Metrics, trace, stop reason, diagnostics and final state must be equal.
A tick replayed whole is also checked against the same snapshot stepped
without a memory: its influences, inhibition log and trace rows.
"""

import collections
import dataclasses
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlsim import cli, engine
from mlsim.engine import BehaviorRule, ReplayMemory, RunResult, Trace, run, step
from mlsim.errors import SafetyViolation
from mlsim.fms import model as fms_model
from mlsim.fms.grid import GridMap
from mlsim.fms.model import (
    DEADLOCK_DETECTOR,
    FLOOR,
    TASKS,
    SafetyChecker,
    all_tasks_delivered,
    build_initial_state,
    floor_agvs,
    fms_metrics,
)
from mlsim.hierarchy import InhibitionRecord
from mlsim.scenario import apply_overrides, build, parse_scenario, parse_scenario_dict
from mlsim.state import CONSTRAINT, Body, Influence, LevelState, SystemState, body_key

from support import influence, record_rows, tail_records
from test_bookkeeping import scanned_memberships
from test_golden_digests import ROOT, episode, state_sha256
from test_replay import Steady, initial_state, producer_model
from test_static_geometry import generated_floors

FIXTURE_CASES = dict(episode("fixtures", 0, index, ROOT) for index in range(6))


def run_options(spec):
    """What `mlsim run` hands `engine.run` besides the model and the state."""
    return {"seed": spec.run_params["seed"], "observers": (SafetyChecker(spec.grid),),
            "metrics": fms_metrics, "termination": all_tasks_delivered, "collect_trace": True}


def run_case(raw):
    spec = parse_scenario_dict(raw)
    model, state = build(spec)
    return run(model, state, ticks=spec.run_params["ticks"], **run_options(spec))


def shelled(state):
    """`state` with each level state a fresh `LevelState` of the same values."""
    return SystemState(state.time, {
        level: LevelState(level, ls.properties, ls.influences)
        for level, ls in state.per_level.items()
    }, state.agents)


def acting(model, state):
    """The agents whose behavior a stepped tick on `state` calls."""
    memberships = state.memberships()
    return sum(1 for agent_id, record in state.agents.items()
               if memberships.get(agent_id) and (model.behaviors.get(agent_id)
                                                  or model.dynamic_behaviors.get(record.kind)))


def assert_every_producer_called(model, producers, agent_ticks, ticks):
    stages = collections.Counter()
    for (_, stage), calls in producers.items():
        stages[stage] += calls
    assert stages == {"perceive": agent_ticks, "memorize": agent_ticks, "decide": agent_ticks,
                      "rule": ticks * len(model.detectors)}


def oracle_case(raw, fresh):
    """`run_case` one tick at a time, each a `run` of one tick from
    `fresh(state)`: no memory lives long enough to replay a reaction or a
    tick, so every producer and every reaction is called on every tick
    (asserted)."""
    spec = parse_scenario_dict(raw)
    model, state = build(spec)
    reactions, producers = counted_reactions(model), counted_producers(model)
    options = run_options(spec)
    agent_ticks = 0
    records, steps, diagnostics = [], [], []
    for _ in range(spec.run_params["ticks"]):
        agent_ticks += acting(model, state)
        result = run(model, fresh(state), ticks=1, **options)
        records += result.records
        steps += result.trace.steps
        diagnostics += result.diagnostics
        state = result.final_state
        if result.stop_reason != "tick-budget":
            break
    assert reactions == dict.fromkeys(model.reactions, state.time)
    assert_every_producer_called(model, producers, agent_ticks, state.time)
    return RunResult(state, records, result.stop_reason, tuple(diagnostics),
                     Trace(steps, None, state.time))


def unheld_case(raw):
    """`run_case` stepped as `run` steps it, under one memory, but each tick
    from a new snapshot of the same level states and agents: a held step
    repeats only on the snapshot it was held for, so no tick is replayed
    whole and every producer is called on every tick (asserted), while the
    carried level states and the quiet reaction replay stay."""
    spec = parse_scenario_dict(raw)
    model, state = build(spec)
    producers = counted_producers(model)
    options = run_options(spec)
    memory = ReplayMemory()
    agent_ticks = 0
    records, steps, diagnostics, stop = [], [], [], "tick-budget"
    for _ in range(spec.run_params["ticks"]):
        tick = state.time
        agent_ticks += acting(model, state)
        state, info = step(model, SystemState(tick, state.per_level, state.agents),
                           options["seed"], memory)
        assert not info.replayed
        diagnostics += [(tick, name, payload) for _, name, payload in info.events
                        if name in engine.DIAGNOSTIC_EVENTS]
        steps.append(info.record())
        for observer in options["observers"]:
            observer(tick, state, info)
        records.append(options["metrics"](tick, state, info))
        if options["termination"](state):
            stop = f"termination:{options['termination'].__name__}"
            break
    assert_every_producer_called(model, producers, agent_ticks, state.time)
    return RunResult(state, records, stop, tuple(diagnostics), Trace(steps, None, state.time))


def outputs(result, tmp_path, tag):
    """Everything a run reports: the written metrics and trace files, the
    stop reason, the diagnostics and the final state."""
    metrics, trace = tmp_path / f"{tag}.csv", tmp_path / f"{tag}.jsonl"
    cli.write_metrics(metrics, result.records)
    cli.write_trace(trace, result.trace)
    final = result.final_state
    return {
        "metrics": metrics.read_bytes(),
        "trace": trace.read_bytes(),
        "records": result.records,
        "stop": result.stop_reason,
        "diagnostics": result.diagnostics,
        "state_sha256": state_sha256(final),
        "time": final.time,
        "levels": {level: (ls.properties, ls.influences) for level, ls in final.per_level.items()},
        "agents": final.agents,
        "memberships": dict(final.memberships()),
    }


def counted_reactions(model):
    """Wrap every reaction of `model` in place; returns level -> calls."""
    calls = collections.Counter()

    def counted(level, rule):
        def reaction(*args):
            calls[level] += 1
            return rule(*args)

        return reaction

    model.reactions = {level: counted(level, rule) for level, rule in model.reactions.items()}
    return calls


def counted_producers(model):
    """Wrap every behavior stage and detector of `model` in place; returns
    (producer, stage) -> calls, a behavior shared by several agents counted
    under the first of them."""
    calls = collections.Counter()

    def counted(key, fn):
        def wrapper(*args):
            calls[key] += 1
            return fn(*args)

        return wrapper

    class Counted(BehaviorRule):
        def __init__(self, rule, name):
            for stage in ("perceive", "memorize", "decide"):
                setattr(self, stage, counted((name, stage), getattr(rule, stage)))

    wrapped: dict = {}

    def wrap(name, rule):
        if id(rule) not in wrapped:
            wrapped[id(rule)] = Counted(rule, name)
        return wrapped[id(rule)]

    model.behaviors = {aid: wrap(aid, rule) for aid, rule in model.behaviors.items()}
    model.dynamic_behaviors = {kind: wrap(kind, rule)
                               for kind, rule in model.dynamic_behaviors.items()}
    model.detectors = {name: dataclasses.replace(d, rule=counted((name, "rule"), d.rule))
                       for name, d in model.detectors.items()}
    return calls


def stalled(name, ticks, count=lambda model: None):
    """(model, seed, snapshot, memory, calls) of a fixture case after `ticks`
    steps under one memory; `count` wraps the model's calls first and
    returns their counts."""
    spec = parse_scenario_dict(FIXTURE_CASES[name])
    model, state = build(spec)
    calls = count(model)
    seed = spec.run_params["seed"]
    memory = ReplayMemory()
    for _ in range(ticks):
        state, _ = step(model, state, seed, memory)
    return model, seed, state, memory, calls


# --- carry-over -------------------------------------------------------------------

def test_a_level_is_carried_only_when_nothing_was_rebound():
    body, table = Body(FLOOR, {"cell": (0, 0)}), {"t1": {"state": "pending"}}
    old = LevelState(FLOOR, {body_key("a1"): body, "tasks": table},
                     frozenset({influence("move", FLOOR, "a1", uid="a1@0#0")}))
    same = frozenset({influence("move", FLOOR, "a1", uid="a1@0#0")})
    assert engine.carried_level(old, dict(old.properties), same) is old
    changed = [
        ({body_key("a1"): body, "tasks": dict(table)}, same),  # equal, not the same object
        ({"tasks": table, body_key("a1"): body}, same),  # the same bindings, reordered
        ({"tasks": body, body_key("a1"): table}, same),  # the same objects under other keys
        ({body_key("a2"): body, "tasks": table}, same),  # a body under another agent's key
        ({body_key("a1"): body}, same),  # a key dropped
        ({**old.properties, "extra": 0}, same),  # a key added
        (dict(old.properties), frozenset()),  # other influences
    ]
    for sigma, influences in changed:
        new = engine.carried_level(old, sigma, influences)
        assert new is not old
        assert new.properties is sigma and new.influences is influences
        assert list(new.properties) == list(sigma)


@pytest.mark.parametrize("name", ["corridor/off", "walled_trap/off", "walled_trap/on"])
def test_an_unchanged_tick_returns_the_same_level_states(name):
    """Stepped without the memory, so every producer and reaction is called."""
    model, seed, state, _, _ = stalled(name, 60)
    for _ in range(3):
        nxt, info = step(model, state, seed)
        assert nxt.time == state.time + 1
        for level, level_state in state.per_level.items():
            assert nxt.per_level[level] is level_state
        assert floor_agvs(nxt.per_level[FLOOR]) is floor_agvs(state.per_level[FLOOR])
        assert info.produced  # the tick still produced its influences
        state = nxt


def test_a_changed_level_is_new_and_the_others_are_kept():
    """On corridor/on some levels change and some do not in one tick: each
    new level state really rebinds something, and the membership index of a
    snapshot with a new level agrees with a scan of its level maps."""
    spec = parse_scenario_dict(FIXTURE_CASES["corridor/on"])
    model, state = build(spec)
    kept = new = 0
    for _ in range(spec.run_params["ticks"]):
        nxt, _ = step(model, state, spec.run_params["seed"])
        changed = [level for level, old in state.per_level.items()
                   if nxt.per_level[level] is not old]
        for level in changed:
            level_state = nxt.per_level[level]
            assert engine.carried_level(state.per_level[level], dict(level_state.properties),
                                        level_state.influences) is not state.per_level[level]
        if changed:
            assert nxt.memberships() == scanned_memberships(nxt)
        kept += len(state.per_level) - len(changed)
        new += len(changed)
        state = nxt
        if all_tasks_delivered(state):
            break
    assert kept and new


def test_an_unchanged_tick_makes_no_desired_move_call(monkeypatch):
    calls = []
    original = fms_model.desired_move

    def counted(*args, **kwargs):
        calls.append(args[1])
        return original(*args, **kwargs)

    monkeypatch.setattr(fms_model, "desired_move", counted)
    model, seed, state, memory, _ = stalled("corridor/off", 60)
    calls.clear()
    nxt, _ = step(model, state, seed, memory)
    assert nxt.per_level[FLOOR] is state.per_level[FLOOR]
    assert calls == []

    # Without the memory and the carried-over caches the same tick senses
    # every AGV again.
    step(model, shelled(state), seed)
    assert calls


# --- every run equals its oracles -------------------------------------------------

@pytest.mark.parametrize("name", sorted(FIXTURE_CASES))
def test_fixture_runs_equal_the_runs_without_carry_over(name, tmp_path):
    raw = FIXTURE_CASES[name]
    assert outputs(run_case(raw), tmp_path, "carried") == outputs(
        oracle_case(raw, shelled), tmp_path, "rebuilt"
    )


@st.composite
def any_floor(draw):
    raw = draw(generated_floors())
    raw["control"] = draw(st.booleans())
    raw["params"]["jitter"] = draw(st.booleans())
    return raw


@settings(max_examples=30, deadline=None)
@given(any_floor())
def test_generated_runs_equal_the_runs_without_carry_over(tmp_path_factory, raw):
    tmp_path = tmp_path_factory.mktemp("floor")
    assert outputs(run_case(raw), tmp_path, "carried") == outputs(
        oracle_case(raw, shelled), tmp_path, "rebuilt"
    )


def kept(state):
    return state


@pytest.mark.parametrize("name", sorted(FIXTURE_CASES))
def test_fixture_runs_equal_the_runs_without_replay(name, tmp_path):
    raw = FIXTURE_CASES[name]
    assert outputs(run_case(raw), tmp_path, "replayed") == outputs(
        oracle_case(raw, kept), tmp_path, "called"
    )


@settings(max_examples=30, deadline=None)
@given(any_floor())
def test_generated_runs_equal_the_runs_without_replay(tmp_path_factory, raw):
    tmp_path = tmp_path_factory.mktemp("floor")
    assert outputs(run_case(raw), tmp_path, "replayed") == outputs(
        oracle_case(raw, kept), tmp_path, "called"
    )


@pytest.mark.parametrize("name", sorted(FIXTURE_CASES))
def test_fixture_runs_equal_the_runs_without_replayed_production(name, tmp_path):
    raw = FIXTURE_CASES[name]
    assert outputs(run_case(raw), tmp_path, "replayed") == outputs(
        unheld_case(raw), tmp_path, "called"
    )


@settings(max_examples=30, deadline=None)
@given(any_floor())
def test_generated_runs_equal_the_runs_without_replayed_production(tmp_path_factory, raw):
    tmp_path = tmp_path_factory.mktemp("floor")
    assert outputs(run_case(raw), tmp_path, "replayed") == outputs(
        unheld_case(raw), tmp_path, "called"
    )


# --- a stalled tick replays its quiet reactions and producers ----------------------

@pytest.mark.parametrize("name", ["corridor/off", "walled_trap/off", "walled_trap/on"])
def test_a_stalled_tick_calls_no_reaction(name):
    model, seed, state, memory, calls = stalled(name, 60, counted_reactions)
    calls.clear()
    # Without the memory the tick calls every level's reaction.
    step(model, state, seed)
    assert calls == {FLOOR: 1, TASKS: 1, "control": 1}
    calls.clear()
    for _ in range(3):
        nxt, info = step(model, state, seed, memory)
        assert info.replayed
        assert all(nxt.per_level[level] is ls for level, ls in state.per_level.items())
        assert info.produced and record_rows(info.record())  # the tick still produced and traced
        state = nxt
    assert calls == {}


def deadlock_groups(step_info):
    return sorted(inf.payload["trapped"] for inf in step_info.produced["control"]
                  if inf.kind == "deadlock")


@pytest.mark.parametrize("name", ["corridor/off", "walled_trap/off", "walled_trap/on"])
def test_a_stalled_tick_calls_no_behavior_and_no_detector(name):
    model, seed, state, memory, calls = stalled(name, 60, counted_producers)
    calls.clear()
    # Without the memory the tick calls every behavior and the detector.
    before = step(model, state, seed)[1]
    assert calls[DEADLOCK_DETECTOR, "rule"] == 1
    assert {stage for (_, stage) in calls} == {"perceive", "memorize", "decide", "rule"}
    solving = any(record.kind == "solver" for record in state.agents.values())
    assert (("solver", "decide") in calls) == solving == (name == "walled_trap/on")
    # The pair stays flagged until a solver governs it.
    assert deadlock_groups(before) == ([] if solving else [("agv-1", "agv-2")])
    calls.clear()
    for _ in range(3):
        nxt, info = step(model, state, seed, memory)
        assert info.replayed
        assert all(nxt.per_level[level] is ls for level, ls in state.per_level.items())
        assert nxt.agents is state.agents
        # The tick's influences are the stepped ones under the tick's ids.
        ids = {level: {inf.id.replace(f"@{state.time}#", "@#") for inf in infs}
               for level, infs in info.produced.items()}
        assert ids == {level: {inf.id.replace(f"@{before.tick}#", "@#") for inf in infs}
                       for level, infs in before.produced.items()}
        assert deadlock_groups(info) == deadlock_groups(before)
        state = nxt
    assert calls == {}


# --- a replayed tick re-stamps the held step -----------------------------------------

# Ticks replayed whole at seed 0; the other three cases never freeze.
REPLAYED = {"corridor/off": 489, "walled_trap/off": 190, "walled_trap/on": 188}


@pytest.mark.parametrize("name", sorted(REPLAYED))
def test_every_replayed_tick_equals_the_tick_stepped_without_a_memory(name):
    spec = parse_scenario_dict(FIXTURE_CASES[name])
    model, state = build(spec)
    seed, memory = spec.run_params["seed"], ReplayMemory()
    replayed = 0
    for _ in range(spec.run_params["ticks"]):
        nxt, info = step(model, state, seed, memory)
        if info.replayed:
            replayed += 1
            oracle_next, oracle = step(model, state, seed)
            assert not oracle.replayed
            # The trace first: its rows come from the held templates, not `produced`.
            assert info.record() == oracle.record()
            assert info.inhibitions == oracle.inhibitions
            assert info.produced == oracle.produced
            assert info.events == oracle.events == ()
            assert nxt.per_level == oracle_next.per_level and nxt.agents == oracle_next.agents
        state = nxt
    assert replayed == REPLAYED[name]


def test_a_replayed_tick_makes_no_influence_until_produced_is_read(monkeypatch):
    """A replayed tick, with what `run` reads of it (its trace, the safety
    checker, the metrics row), makes no `Influence`; `produced` makes each
    one once."""
    made = []
    init = Influence.__init__

    def counted(self, *args, **kwargs):
        made.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Influence, "__init__", counted)
    spec = parse_scenario_dict(FIXTURE_CASES["walled_trap/on"])
    model, state = build(spec)
    checker, memory = SafetyChecker(spec.grid), ReplayMemory()
    replayed = 0
    for _ in range(spec.run_params["ticks"]):
        before = len(made)
        state, info = step(model, state, spec.run_params["seed"], memory)
        assert record_rows(info.record())
        checker(info.tick, state, info)
        active = fms_metrics(info.tick, state, info)["active_constraints"]
        if info.replayed:
            replayed += 1
            assert len(made) == before
            assert active == 4
    assert replayed == REPLAYED["walled_trap/on"]
    made.clear()
    produced = info.produced
    assert len(made) == sum(map(len, produced.values())) > 0
    assert info.produced is produced
    assert len(made) == len(set(map(id, made)))


def test_a_replayed_tick_makes_no_inhibition_record_until_inhibitions_is_read(
        monkeypatch, tmp_path):
    """Under `run`, with the safety checker, the metrics row and the trace
    (collected and written), a replayed tick makes no `InhibitionRecord`:
    `active_constraints` is the held log's count.  `inhibitions` makes each
    record once."""
    made = []
    init = InhibitionRecord.__init__

    def counted(self, *args, **kwargs):
        made.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(InhibitionRecord, "__init__", counted)
    spec = parse_scenario_dict(FIXTURE_CASES["walled_trap/on"])
    model, state = build(spec)
    infos, made_by_tick = [], []

    def probe(tick, state, info):
        infos.append(info)
        made_by_tick.append(len(made))

    options = run_options(spec)
    options["observers"] += (probe,)
    result = run(model, state, ticks=spec.run_params["ticks"], **options)
    replayed = [tick for tick, info in enumerate(infos) if info.replayed]
    assert len(replayed) == REPLAYED["walled_trap/on"]
    assert all(made_by_tick[tick] == made_by_tick[tick - 1] for tick in replayed)
    assert {result.records[tick]["active_constraints"] for tick in replayed} == {4}
    before = len(made)
    cli.write_trace(tmp_path / "trace.jsonl", result.trace)
    assert len(made) == before
    made.clear()
    inhibitions = infos[-1].inhibitions
    assert len(made) == sum(map(len, inhibitions.values())) == 4
    assert infos[-1].inhibitions is inhibitions
    assert len(made) == len(set(map(id, made)))


def test_a_step_whose_id_order_moves_with_the_tick_is_not_held():
    """`p@1@t#0` sorts after `p@t#0` on tick 0 and before it on tick 2: the
    frozen step of `p` and `p@1` is stepped again on every tick."""
    model = producer_model()
    model.behaviors["p@1"] = Steady()
    state = initial_state(agents=["p@1"])
    micro = state.per_level["micro"]
    state = SystemState(per_level={**state.per_level, "micro": LevelState(
        "micro", {**micro.properties, body_key("p@1"): Body("micro")})}, agents=state.agents)
    memory = ReplayMemory()
    for tick in range(4):
        stepped = step(model, state)[1]
        state, info = step(model, state, memory=memory)
        assert not info.replayed
        assert info.record() == stepped.record()
    assert [inf_id for _, inf_id, *_ in info.record()[1]] == ["p@1@3#0", "p@3#0"]
    assert run(model, initial_state(), ticks=4).frozen_from == 1  # `p` alone is held


@pytest.mark.parametrize("name", sorted(FIXTURE_CASES))
def test_active_constraints_counts_the_produced_constraints(name):
    spec = parse_scenario_dict(FIXTURE_CASES[name])
    model, state = build(spec)
    counts = []

    def metrics(tick, state, info):
        row = fms_metrics(tick, state, info)
        produced = sum(inf.klass == CONSTRAINT for infs in info.produced.values() for inf in infs)
        counts.append((row["active_constraints"], produced))
        return row

    run(model, state, ticks=spec.run_params["ticks"], seed=spec.run_params["seed"],
        observers=(SafetyChecker(spec.grid),), metrics=metrics, termination=all_tasks_delivered)
    assert all(active == produced for active, produced in counts)
    assert any(active for active, _ in counts) == (name in ("corridor/on", "walled_trap/on"))


# --- the safety checker skips only what it has checked -------------------------

def small_state():
    grid = GridMap(4, 1, frozenset())
    shops = {"s1": (0, 0), "s2": (3, 0)}
    tasks = [{"id": "t1", "source": "s1", "dest": "s2"}]
    return grid, build_initial_state(grid, {"a1": (1, 0), "a2": (2, 0)}, shops, tasks)


def with_level(state, level_state):
    return dataclasses.replace(
        state, time=state.time + 1, per_level={**state.per_level, level_state.level: level_state}
    )


def test_the_safety_checker_raises_on_the_first_new_bad_floor():
    grid, state = small_state()
    checker = SafetyChecker(grid)
    checker(0, state, None)
    checker(1, state, None)  # already checked: skipped
    floor = state.per_level[FLOOR]
    clash = dict(floor.properties)
    clash[body_key("a2")] = clash[body_key("a2")].with_attrs(cell=(1, 0))
    bad = with_level(state, LevelState(FLOOR, clash))
    with pytest.raises(SafetyViolation, match="tick 2: two AGVs share a cell"):
        checker(2, bad, None)
    with pytest.raises(SafetyViolation, match="tick 3: two AGVs share a cell"):
        checker(3, bad, None)  # a floor that failed is not taken as checked


def test_the_safety_checker_raises_on_a_new_regressed_table_under_a_kept_floor():
    grid, state = small_state()
    checker = SafetyChecker(grid)
    tasks = state.per_level[TASKS]
    table = tasks.properties["tasks"]
    picked = {"t1": {**table["t1"], "state": "picked"}}
    state = with_level(state, LevelState(TASKS, {**tasks.properties, "tasks": picked}))
    checker(0, state, None)
    checker(1, state, None)
    back = {"t1": {**table["t1"], "state": "assigned"}}
    regressed = with_level(state, LevelState(TASKS, {**tasks.properties, "tasks": back}))
    assert regressed.per_level[FLOOR] is state.per_level[FLOOR]
    with pytest.raises(SafetyViolation, match="task t1 regressed picked -> assigned"):
        checker(2, regressed, None)


# --- the tick a run froze from ----------------------------------------------------

FROZEN_FROM = {"corridor/off": 11, "corridor/on": None, "open_floor/off": None,
               "open_floor/on": None, "walled_trap/off": 10, "walled_trap/on": 12}


@pytest.mark.parametrize("name", sorted(FIXTURE_CASES))
def test_a_fixture_run_records_the_tick_it_froze_from(name):
    assert run_case(FIXTURE_CASES[name]).frozen_from == FROZEN_FROM[name]


@pytest.mark.parametrize("control, frozen_from, detected", [("off", 13, 2), ("on", None, 110)])
def test_a_weak_repulsion_freezes_the_corridor_and_livelocks_it_under_control(
        control, frozen_from, detected):
    raw = apply_overrides(FIXTURE_CASES[f"corridor/{control}"], {"params.repulse": "1"})
    result = run_case(raw)
    assert result.stop_reason == "tick-budget" and len(result.records) == 500
    assert result.records[-1]["tasks_delivered"] == 0
    assert result.records[-1]["deadlocks_detected"] == detected
    assert result.frozen_from == frozen_from


def replayed_ticks(raw):
    """The case run as `run_case` runs it, with a probe observer: (result,
    the ticks the observer saw, the replayed ones among them, the rows of
    the stepped ticks and of the replayed ticks, each as `StepInfo.record`
    gives them)."""
    spec = parse_scenario_dict(raw)
    model, state = build(spec)
    seen, replayed, stepped_rows, replayed_rows = [], [], [], []

    def probe(tick, state, info):
        seen.append(tick)
        if info.replayed:
            replayed.append(tick)
            replayed_rows.extend(record_rows(info.record()))
        else:
            stepped_rows.extend(record_rows(info.record()))

    options = run_options(spec)
    options["observers"] += (probe,)
    result = run(model, state, ticks=spec.run_params["ticks"], **options)
    return result, seen, replayed, stepped_rows, replayed_rows


def assert_the_replayed_ticks_are_the_tail(raw):
    """Once a run replays a tick, it replays every later one: the replayed
    ticks are a suffix of the run, from `frozen_from`, and the trace's
    frozen tail holds exactly their rows."""
    result, seen, replayed, stepped_rows, replayed_rows = replayed_ticks(raw)
    trace = result.trace
    assert replayed == seen[len(seen) - len(replayed):]
    assert result.frozen_from == (replayed[0] if replayed else None)
    assert [row for record in trace.steps for row in record_rows(record)] == stepped_rows
    assert [row for record in tail_records(trace) for row in record_rows(record)] == replayed_rows
    if replayed:
        assert (trace.held.first, trace.end) == (replayed[0], seen[-1] + 1)
    else:
        assert trace.held is None


@pytest.mark.parametrize("name", sorted(FIXTURE_CASES))
def test_a_fixture_run_replays_only_its_tail(name):
    assert_the_replayed_ticks_are_the_tail(FIXTURE_CASES[name])


@settings(max_examples=30, deadline=None)
@given(any_floor())
def test_a_generated_run_replays_only_its_tail(raw):
    assert_the_replayed_ticks_are_the_tail(raw)


def test_the_repulsion_sweep_reports_the_tick_each_run_froze_from():
    """The `frozen` column of `scripts/sweep_repulsion.py`, run with its
    defaults (the corridor, control off), against the first replayed tick
    of each run."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / "sweep_repulsion.py")],
                          capture_output=True, text=True, env=env, cwd=ROOT, timeout=120)
    assert done.returncode == 0, done.stderr
    header, *lines = done.stdout.splitlines()[1:]
    frozen = header.split().index("frozen")
    column = {}
    for line in lines:
        cells = line.split()
        column[cells[0]] = None if cells[frozen] == "-" else int(cells[frozen])
    base = parse_scenario(ROOT / "scenarios" / "corridor.json").data
    expected = {}
    for amplitude in ("0", "2", "4", "8"):
        raw = apply_overrides(base, {"params.repulse": amplitude, "control": "false"})
        result, _, replayed, _, _ = replayed_ticks(raw)
        assert result.frozen_from == (replayed[0] if replayed else None)
        expected[amplitude] = result.frozen_from
    assert column == expected
    assert None not in column.values()  # every amplitude freezes the corridor
