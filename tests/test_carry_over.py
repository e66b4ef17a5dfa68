"""Carried-over levels: a tick that changes nothing keeps its level states.

When a level's reaction leaves every property bound to the object it held and
the influences routed to it equal the ones it holds, the engine keeps the old
`LevelState` (`engine.carried_level`).  Every cache keyed on a level state
then survives the tick.  The oracle is the same run with
`carried_level` patched to build a new level state every tick, as the engine
did before; metrics, trace, diagnostics and final state must be equal.

A kept level state also records a quiet reaction call that saw no filtered
influences, and the next tick replays that call instead of making it while
the level receives none (`engine.react`).  Its oracle is the same run with
`engine.quiet_rule` patched to read no record, so every reaction is called on
every stepped tick.

A frozen tick (every producer call quiet, every reaction replayed or quiet,
every level state and agent record kept) leaves its step on its successor,
and the next tick replays that step whole instead of calling the behaviors,
the detector and the reactions (`engine.react`).  Its oracle is the same run
with `SystemState.successor` patched to pass no step on, so every tick steps.
"""

import collections
import copy
import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlsim import cli, engine
from mlsim.engine import BehaviorRule, run, step
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
from mlsim.scenario import apply_overrides, build, parse_scenario_dict
from mlsim.state import Body, LevelState, SystemState, body_key

from support import influence
from test_bookkeeping import scanned_memberships
from test_golden_digests import ROOT, episode, state_sha256
from test_static_geometry import generated_floors

FIXTURE_CASES = dict(episode("fixtures", 0, index, ROOT) for index in range(6))


def rebuilt_level(old, sigma, influences):
    """`carried_level` without the carry-over: a new level state every tick."""
    return LevelState(old.level, sigma, influences)


def no_record(level_state):
    """`quiet_rule` without the replay: no level state holds a record."""
    return None


def forgetful(successor):
    """`SystemState.successor` without the whole-tick replay: the next
    snapshot never holds a frozen step."""
    def forgetting(self, per_level, agents, step=None):
        return successor(self, per_level, agents)

    return forgetting


def run_case(raw, carry=True, replay=True, replay_production=True):
    spec = parse_scenario_dict(raw)
    model, state = build(spec)
    calls = None if replay else counted_reactions(model)
    with pytest.MonkeyPatch.context() as patch:
        if not carry:
            patch.setattr(engine, "carried_level", rebuilt_level)
        if not replay:
            patch.setattr(engine, "quiet_rule", no_record)
        if not replay_production:
            patch.setattr(SystemState, "successor", forgetful(SystemState.successor))
        result = run(
            model, state, ticks=spec.run_params["ticks"], seed=spec.run_params["seed"],
            observers=(SafetyChecker(spec.grid),), metrics=fms_metrics,
            termination=all_tasks_delivered, collect_trace=True,
        )
    if not replay:
        # The oracle calls every reaction on every stepped tick: every tick
        # before the run froze, since a frozen run stays frozen.
        stepped = result.final_state.time if result.frozen_from is None else result.frozen_from
        assert calls == dict.fromkeys(model.reactions, stepped)
    return result


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


def stalled(name, ticks):
    """(model, seed, snapshot) of a fixture case after `ticks` steps."""
    spec = parse_scenario_dict(FIXTURE_CASES[name])
    model, state = build(spec)
    seed = spec.run_params["seed"]
    for _ in range(ticks):
        state, _ = step(model, state, seed)
    return model, seed, state


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
    model, seed, state = stalled(name, 60)
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
    model, seed, state = stalled("corridor/off", 60)
    state, _ = step(model, state, seed)
    calls.clear()
    nxt, _ = step(model, state, seed)
    assert nxt.per_level[FLOOR] is state.per_level[FLOOR]
    assert calls == []

    # Without the carry-over no tick is frozen: from a copy, which holds no
    # frozen step, the same tick senses every AGV again.
    monkeypatch.setattr(engine, "carried_level", rebuilt_level)
    step(model, step(model, copy.copy(state), seed)[0], seed)
    assert calls


# --- the carried-over run equals the rebuilt one -------------------------------------

@pytest.mark.parametrize("name", sorted(FIXTURE_CASES))
def test_fixture_runs_equal_the_runs_without_carry_over(name, tmp_path):
    raw = FIXTURE_CASES[name]
    assert outputs(run_case(raw), tmp_path, "carried") == outputs(
        run_case(raw, carry=False), tmp_path, "rebuilt"
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
        run_case(raw, carry=False), tmp_path, "rebuilt"
    )


# --- a stalled tick replays its quiet reactions ---------------------------------

@pytest.mark.parametrize("name", ["corridor/off", "walled_trap/off", "walled_trap/on"])
def test_a_stalled_tick_calls_no_reaction(name, monkeypatch):
    model, seed, state = stalled(name, 60)
    calls = counted_reactions(model)
    # The records and the step held so far are the unwrapped reactions': the
    # first tick calls the wrapped ones and records theirs.
    state, _ = step(model, state, seed)
    assert calls == {FLOOR: 1, TASKS: 1, "control": 1}
    calls.clear()
    for _ in range(3):
        nxt, info = step(model, state, seed)
        assert all(nxt.per_level[level] is ls for level, ls in state.per_level.items())
        assert info.produced and info.trace  # the tick still produced and traced
        state = nxt
    assert calls == {}

    # Without the replays the same ticks call every level's reaction: the
    # held step is replayed once more, then passed on to no snapshot.
    monkeypatch.setattr(engine, "quiet_rule", no_record)
    monkeypatch.setattr(SystemState, "successor", forgetful(SystemState.successor))
    step(model, step(model, state, seed)[0], seed)
    assert calls == {FLOOR: 1, TASKS: 1, "control": 1}


@pytest.mark.parametrize("name", sorted(FIXTURE_CASES))
def test_fixture_runs_equal_the_runs_without_replay(name, tmp_path):
    raw = FIXTURE_CASES[name]
    assert outputs(run_case(raw), tmp_path, "replayed") == outputs(
        run_case(raw, replay=False), tmp_path, "called"
    )


@settings(max_examples=30, deadline=None)
@given(any_floor())
def test_generated_runs_equal_the_runs_without_replay(tmp_path_factory, raw):
    tmp_path = tmp_path_factory.mktemp("floor")
    assert outputs(run_case(raw), tmp_path, "replayed") == outputs(
        run_case(raw, replay=False), tmp_path, "called"
    )


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


# --- a stalled tick replays its quiet producers ---------------------------------

def deadlock_groups(step_info):
    return sorted(inf.payload["trapped"] for inf in step_info.produced["control"]
                  if inf.kind == "deadlock")


@pytest.mark.parametrize("name", ["corridor/off", "walled_trap/off", "walled_trap/on"])
def test_a_stalled_tick_calls_no_behavior_and_no_detector(name, monkeypatch):
    model, seed, state = stalled(name, 60)
    calls = counted_producers(model)
    # The step held so far was made under the unwrapped rules: the first
    # tick calls the wrapped ones and holds its own step.
    state, before = step(model, state, seed)
    assert calls[DEADLOCK_DETECTOR, "rule"] == 1
    assert {stage for (_, stage) in calls} == {"perceive", "memorize", "decide", "rule"}
    solving = any(record.kind == "solver" for record in state.agents.values())
    assert (("solver", "decide") in calls) == solving == (name == "walled_trap/on")
    # The pair stays flagged until a solver governs it.
    assert deadlock_groups(before) == ([] if solving else [("agv-1", "agv-2")])
    calls.clear()
    for _ in range(3):
        nxt, info = step(model, state, seed)
        assert all(nxt.per_level[level] is ls for level, ls in state.per_level.items())
        assert nxt.agents is state.agents
        # The tick's influences are the held ones under the tick's ids.
        ids = {level: {inf.id.replace(f"@{state.time}#", "@#") for inf in infs}
               for level, infs in info.produced.items()}
        assert ids == {level: {inf.id.replace(f"@{before.tick}#", "@#") for inf in infs}
                       for level, infs in before.produced.items()}
        assert deadlock_groups(info) == deadlock_groups(before)
        state = nxt
    assert calls == {}

    # Without the replay the same ticks call every behavior and the detector:
    # the held step is replayed once more, then passed on to no snapshot.
    monkeypatch.setattr(SystemState, "successor", forgetful(SystemState.successor))
    step(model, step(model, state, seed)[0], seed)
    assert calls[DEADLOCK_DETECTOR, "rule"] == 1
    assert {stage for (_, stage) in calls} == {"perceive", "memorize", "decide", "rule"}


@pytest.mark.parametrize("name", sorted(FIXTURE_CASES))
def test_fixture_runs_equal_the_runs_without_replayed_production(name, tmp_path):
    raw = FIXTURE_CASES[name]
    assert outputs(run_case(raw), tmp_path, "replayed") == outputs(
        run_case(raw, replay_production=False), tmp_path, "called"
    )


@settings(max_examples=30, deadline=None)
@given(any_floor())
def test_generated_runs_equal_the_runs_without_replayed_production(tmp_path_factory, raw):
    tmp_path = tmp_path_factory.mktemp("floor")
    assert outputs(run_case(raw), tmp_path, "replayed") == outputs(
        run_case(raw, replay_production=False), tmp_path, "called"
    )


# --- the tick a run froze from ----------------------------------------------------

FROZEN_FROM = {"corridor/off": 11, "corridor/on": None, "open_floor/off": None,
               "open_floor/on": None, "walled_trap/off": 10, "walled_trap/on": 12}


@pytest.mark.parametrize("name", sorted(FIXTURE_CASES))
def test_a_fixture_run_records_the_tick_it_froze_from(name):
    assert run_case(FIXTURE_CASES[name]).frozen_from == FROZEN_FROM[name]
    assert run_case(FIXTURE_CASES[name], replay_production=False).frozen_from is None


@pytest.mark.parametrize("control, frozen_from, detected", [("off", 13, 2), ("on", None, 110)])
def test_a_weak_repulsion_freezes_the_corridor_and_livelocks_it_under_control(
        control, frozen_from, detected):
    raw = apply_overrides(FIXTURE_CASES[f"corridor/{control}"], {"params.repulse": "1"})
    result = run_case(raw)
    assert result.stop_reason == "tick-budget" and len(result.records) == 500
    assert result.records[-1]["tasks_delivered"] == 0
    assert result.records[-1]["deadlocks_detected"] == detected
    assert result.frozen_from == frozen_from
