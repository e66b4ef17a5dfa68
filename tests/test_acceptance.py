"""Acceptance gate: one test per top-level criterion, one PASS/FAIL line each.

Verdict lines are emitted through the terminal-summary hook in conftest.py so
they stay visible under output capture.
"""

import itertools
import json
import random
import sys
from pathlib import Path

from mlsim.cli import EXIT_INVALID, main
from mlsim.engine import (
    BehaviorRule,
    Model,
    ReactionResult,
    produce_influences,
    react,
    run,
    step,
)
from mlsim.fms.grid import GridMap, bfs_distances, compute_fields
from mlsim.fms.model import SafetyChecker, all_tasks_delivered, fms_metrics
from mlsim.hierarchy import Declarations, InfluenceSelector, apply_constraints
from mlsim.levels import LevelGraphSpec, validate
from mlsim.scenario import build, parse_scenario
from mlsim.state import (
    AgentRecord,
    Body,
    CONSTRAINT,
    LevelState,
    SystemState,
    body_key,
    influence,
)

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"
NEGATIVE = SCENARIOS / "negative"

# Frozen regression values for the corridor fixture (seed 0, 500 ticks),
# captured from a reference run and asserted exactly thereafter.
CORRIDOR_OFF = {"ticks": 500, "delivered": 0, "detected": 1, "resolved": 0}
CORRIDOR_ON = {"ticks": 44, "delivered": 2, "detected": 7, "resolved": 7}


def report(number, description, ok):
    from conftest import ACCEPTANCE_LINES

    line = f"{'PASS' if ok else 'FAIL'} criterion {number}: {description}"
    ACCEPTANCE_LINES.append(line)
    print(line, file=sys.__stdout__, flush=True)
    assert ok, line


def run_fixture(name, control, ticks=None, seed=None):
    spec = parse_scenario(SCENARIOS / name)
    spec.data["control"] = control
    if ticks is not None:
        spec.data["run"]["ticks"] = ticks
    if seed is not None:
        spec.data["run"]["seed"] = seed
    model, state = build(spec)
    return run(
        model,
        state,
        ticks=spec.run_params["ticks"],
        seed=spec.run_params["seed"],
        observers=(SafetyChecker(spec.grid),),
        metrics=fms_metrics,
        termination=all_tasks_delivered,
    )


# --- criterion 1: neighborhood oracle equivalence ----------------------------

def oracle_out(edges, l):
    return {l} | {b for a, b in edges if a == l}


def oracle_in(edges, l):
    return {l} | {a for a, b in edges if b == l}


def graph_matches_oracle(levels, e_i, e_p):
    g = validate(LevelGraphSpec.make(levels, e_i, e_p))
    for l in levels:
        if g.out_influence(l) != oracle_out(e_i, l):
            return False
        if g.in_influence(l) != oracle_in(e_i, l):
            return False
        if g.out_perception(l) != oracle_out(e_p, l):
            return False
        if g.in_perception(l) != oracle_in(e_p, l):
            return False
    return True


def test_criterion_1_neighborhood_oracle():
    levels3 = ["A", "B", "C"]
    pairs3 = [(a, b) for a in levels3 for b in levels3 if a != b]
    ok = True
    # Exhaustive over all E_I subsets on 3 levels, paired with rotations of
    # the same subsets as E_P (full cross product of 2^6 x 2^6 is redundant:
    # the two relations are handled by identical code paths).
    subsets = [
        [p for p, keep in zip(pairs3, mask) if keep]
        for mask in itertools.product((False, True), repeat=len(pairs3))
    ]
    for i, e_i in enumerate(subsets):
        e_p = subsets[(i * 7 + 3) % len(subsets)]
        if not graph_matches_oracle(levels3, set(e_i), set(e_p)):
            ok = False
            break
    rng = random.Random(1)
    for _ in range(1000):
        n = rng.randint(1, 6)
        levels = [f"L{i}" for i in range(n)]
        pairs = [(a, b) for a in levels for b in levels if a != b]
        e_i = set(rng.sample(pairs, rng.randint(0, len(pairs)))) if pairs else set()
        e_p = set(rng.sample(pairs, rng.randint(0, len(pairs)))) if pairs else set()
        if not graph_matches_oracle(levels, e_i, e_p):
            ok = False
            break
    report(1, "neighborhood queries equal brute-force set definitions", ok)


# --- criterion 2: inhibition equivalence --------------------------------------

def test_criterion_2_inhibition_equivalence():
    rng = random.Random(2)
    kinds = ["move", "emit-repulsion", "can-serve", "forced-move"]
    ok = True
    for trial in range(1000):
        pool = {
            influence(
                rng.choice(kinds), "micro", f"a{rng.randint(0, 5)}", uid=f"{trial}-i{j}"
            )
            for j in range(rng.randint(0, 10))
        }
        target = rng.choice(kinds)
        i = influence(target, "micro", "aX", uid=f"{trial}-target")
        not_i = influence(
            "inhibit",
            "micro",
            "macro-agent",
            uid=f"{trial}-noti",
            klass=CONSTRAINT,
            selector=InfluenceSelector(match_kind=target),
        )
        gamma = pool | {i, not_i}
        left, _ = apply_constraints(gamma)
        right, _ = apply_constraints(gamma - {i})
        digest = lambda s: hash(tuple(sorted(x.id for x in s)))  # noqa: E731
        if left != right or digest(left) != digest(right):
            ok = False
            break
    report(2, "reaction over filtered set is invariant to removing inhibited i", ok)


# --- criterion 3: producer-order independence + snapshot isolation ------------

class RandomEmitter(BehaviorRule):
    def decide(self, internal_state, ctx):
        return [
            ctx.make("mark", "l", value=ctx.rng.randint(0, 9))
            for _ in range(ctx.rng.randint(0, 2))
        ]


class ProbeBehavior(BehaviorRule):
    def perceive(self, percept, me):
        return frozenset(i.id for i in percept["l"].influences)

    def memorize(self, perception, internal_state, ctx):
        return {"seen": perception}


def accumulate_reaction(level, sigma, influences, ctx):
    marks = sorted((i.producer, i.payload["value"]) for i in influences if i.kind == "mark")
    sigma["log"] = sigma.get("log", ()) + (tuple(marks),)
    keep = tuple(
        ctx.make("mark", "l", value=i.payload["value"])
        for i in sorted(influences, key=lambda i: i.id)
        if i.kind == "mark" and (i.payload["value"] or 0) % 2 == 0
    )[:2]
    return ReactionResult(sigma, persisted=keep)


def random_micro_model(rng, order):
    graph = validate(LevelGraphSpec.make(["l"]))
    n = rng.randint(1, 20)
    ids = [f"a{i:02d}" for i in range(n)] + ["probe"]
    if order == "reversed":
        ids = list(reversed(ids))
    else:
        rng.shuffle(ids)
    behaviors = {aid: (ProbeBehavior() if aid == "probe" else RandomEmitter()) for aid in ids}
    model = Model(
        graph=graph,
        behaviors=behaviors,
        reactions={"l": accumulate_reaction},
        decls=Declarations({"l": frozenset({"mark"})}),
    )
    state = SystemState(
        per_level={"l": LevelState("l", {body_key(aid): Body("l") for aid in ids})},
        agents={aid: AgentRecord(id=aid) for aid in ids},
    )
    return model, state


def test_criterion_3_order_independence_and_snapshot_isolation():
    ok = True
    for scenario in range(100):
        seed = 1000 + scenario
        ticks = random.Random(seed).randint(1, 10)
        trajectories = []
        for order in ("shuffled", "reversed"):
            rng = random.Random(seed)
            model, state = random_micro_model(rng, order)
            states = []
            for _ in range(ticks):
                before = state.per_level["l"].influences
                state, _ = step(model, state, seed=seed)
                seen = state.agents["probe"].internal_state["seen"]
                if seen != frozenset(i.id for i in before):
                    ok = False  # probe saw something not in the t-snapshot
                states.append(state)
            trajectories.append(states)
        if trajectories[0] != trajectories[1]:
            ok = False
        if not ok:
            break
    report(3, "agent order never changes trajectories; probes see only t-snapshots", ok)


# --- criterion 4: level locality of reaction ----------------------------------

class TargetedEmitter(BehaviorRule):
    def __init__(self, target):
        self.target = target

    def decide(self, internal_state, ctx):
        return [ctx.make("mark", self.target, value=ctx.rng.randint(0, 9))]


def local_sum(level, sigma, influences, ctx):
    sigma["sum"] = sigma.get("sum", 0) + sum(
        i.payload.get("value", 0) for i in influences
    )
    return ReactionResult(sigma, persisted=tuple(sorted(influences, key=lambda i: i.id))[:1])


def tracer(level, sigma, influences, ctx):
    sigma["tracer"] = sigma.get("tracer", 0) + 1
    return ReactionResult(sigma)


def test_criterion_4_level_locality():
    rng = random.Random(4)
    levels = ["A", "B", "C"]
    ok = True
    for _ in range(100):
        pairs = [(a, b) for a in levels for b in levels if a != b]
        edges = set(rng.sample(pairs, rng.randint(0, len(pairs))))
        graph = validate(LevelGraphSpec.make(levels, edges, edges))
        behaviors = {}
        properties = {l: {} for l in levels}
        for i in range(rng.randint(1, 6)):
            home = rng.choice(levels)
            target = rng.choice(sorted(graph.out_influence(home)))
            aid = f"a{i}"
            behaviors[aid] = TargetedEmitter(target)
            properties[home][body_key(aid)] = Body(home)
        state = SystemState(
            per_level={l: LevelState(l, properties[l]) for l in levels},
            agents={aid: AgentRecord(id=aid) for aid in behaviors},
        )
        base = Model(
            graph=graph,
            behaviors=behaviors,
            reactions={l: local_sum for l in levels},
            decls=Declarations({l: frozenset({"mark"}) for l in levels}),
        )
        swapped_level = rng.choice(levels)
        swapped = Model(
            graph=graph,
            behaviors=behaviors,
            reactions={l: (tracer if l == swapped_level else local_sum) for l in levels},
            decls=Declarations({l: frozenset({"mark"}) for l in levels}),
        )
        produced = produce_influences(base, state, seed=11)
        next_base, _ = react(base, state, produced, seed=11)
        next_swapped, _ = react(swapped, state, produced, seed=11)
        for l in levels:
            if l == swapped_level:
                continue
            if next_base.per_level[l] != next_swapped.per_level[l]:
                ok = False
        if not ok:
            break
    report(4, "swapping one level's reaction leaves every other level's state intact", ok)


# --- criterion 5: field oracle -------------------------------------------------

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


def test_criterion_5_field_oracle():
    ok = True
    rng = random.Random(5)
    bundled = []
    for name in ("corridor.json", "open_floor.json", "walled_trap.json"):
        bundled.append(parse_scenario(SCENARIOS / name).grid)
    for grid in bundled:
        free = grid.free_cells()
        emitters = [(c, rng.randint(1, 16)) for c in rng.sample(free, min(4, len(free)))]
        attract, repulse = emitters[:2], emitters[2:]
        if compute_fields(grid, attract, repulse) != brute_force_field(grid, attract, repulse):
            ok = False
    for _ in range(200):
        w, h = rng.randint(1, 10), rng.randint(1, 10)
        blocked = {
            (rng.randrange(w), rng.randrange(h)) for _ in range(rng.randint(0, (w * h) // 3))
        }
        grid = GridMap(w, h, frozenset(blocked))
        free = grid.free_cells()
        if not free:
            continue
        emitters = [
            (rng.choice(free), rng.randint(1, 12)) for _ in range(rng.randint(0, 5))
        ]
        split = rng.randint(0, len(emitters))
        attract, repulse = emitters[:split], emitters[split:]
        if compute_fields(grid, attract, repulse) != brute_force_field(grid, attract, repulse):
            ok = False
            break
    report(5, "compute_fields equals brute-force per-cell decay summation", ok)


# --- criterion 6: case-study behavioral claim ----------------------------------

def test_criterion_6_corridor_case_study():
    off = run_fixture("corridor.json", control=False)
    on = run_fixture("corridor.json", control=True)
    off_last, on_last = off.records[-1], on.records[-1]
    ok = (
        off_last["deadlocks_detected"] >= 1
        and off_last["tasks_delivered"] < 2
        and on_last["tasks_delivered"] == 2
        and on_last["deadlocks_resolved"] == on_last["deadlocks_detected"]
        # frozen regression values
        and len(off.records) == CORRIDOR_OFF["ticks"]
        and off_last["tasks_delivered"] == CORRIDOR_OFF["delivered"]
        and off_last["deadlocks_detected"] == CORRIDOR_OFF["detected"]
        and off_last["deadlocks_resolved"] == CORRIDOR_OFF["resolved"]
        and len(on.records) == CORRIDOR_ON["ticks"]
        and on_last["tasks_delivered"] == CORRIDOR_ON["delivered"]
        and on_last["deadlocks_detected"] == CORRIDOR_ON["detected"]
        and on_last["deadlocks_resolved"] == CORRIDOR_ON["resolved"]
    )
    report(6, "corridor deadlocks without control and fully delivers with it", ok)


# --- criterion 7: determinism ---------------------------------------------------

def test_criterion_7_byte_identical_outputs(tmp_path, capsys):
    outputs = []
    for tag in ("first", "second"):
        metrics = tmp_path / f"{tag}.csv"
        trace = tmp_path / f"{tag}.jsonl"
        rc = main(
            [
                "run",
                "--scenario",
                str(SCENARIOS / "corridor.json"),
                "--control",
                "on",
                "--metrics-out",
                str(metrics),
                "--trace-out",
                str(trace),
            ]
        )
        outputs.append((rc, metrics.read_bytes(), trace.read_bytes()))
    capsys.readouterr()
    ok = outputs[0] == outputs[1] and outputs[0][0] == 0 and len(outputs[0][2]) > 0
    report(7, "identical scenario and seed give byte-identical metrics and trace", ok)


# --- criterion 8: safety invariants ---------------------------------------------

def test_criterion_8_safety_invariants():
    ok = True
    try:
        for name in ("corridor.json", "open_floor.json", "walled_trap.json"):
            for control in (False, True):
                run_fixture(name, control=control)  # SafetyChecker observer raises on violation
    except Exception:
        ok = False
    report(8, "occupancy and task-monotonicity invariants hold on all fixture runs", ok)


# --- criterion 9: static discipline ----------------------------------------------

def test_criterion_9_negative_fixtures_rejected(capsys):
    with open(NEGATIVE / "expected_errors.json") as fh:
        expected = json.load(fh)
    ok = len(expected) == 10
    for fixture, code in sorted(expected.items()):
        rc = main(["validate", "--scenario", str(NEGATIVE / fixture)])
        out = capsys.readouterr().out
        if rc != EXIT_INVALID or f"[{code}]" not in out:
            ok = False
    report(9, "all 10 negative scenarios rejected with the expected error class", ok)
