"""Per-layer metrics of the traced run, and which end-to-end metric each
one should move on which workload.

Times are seconds per simulated tick at the reference speed (bench/run.py)
and counts are per tick, both over the traced child's ticks; `_s` names are inclusive span time unless they end
in `_self_s`.  A metric whose span or hook is absent (the entry point no
longer exists) is reported as 0 and listed as absent.
"""

from __future__ import annotations

# name -> (unit, layer, "moves <end-to-end metric> on <workload>")
PER_LAYER = {
    "grid.bfs_distances_calls": ("1/tick", "mlsim.fms.grid", "ticks_per_s, tick_ms_p50 on open-fleet; ~0 on fixtures"),
    "grid.bfs_distances_s": ("s/tick", "mlsim.fms.grid", "ticks_per_s, tick_ms_p50 on open-fleet; ~0 on fixtures"),
    "grid.bfs_cells": ("1/tick", "mlsim.fms.grid", "ticks_per_s, tick_ms_p50 on open-fleet; ~0 on fixtures"),
    "grid.bfs_path_calls": ("1/tick", "mlsim.fms.grid", "tick_ms_p90 on aisle-standoffs; ~0 on fixtures"),
    "grid.bfs_path_s": ("s/tick", "mlsim.fms.grid", "tick_ms_p90 on aisle-standoffs; ~0 on fixtures"),
    "model.agv_s": ("s/tick", "mlsim.fms.model", "ticks_per_s on open-fleet"),
    "model.shop_s": ("s/tick", "mlsim.fms.model", "ticks_per_s on fixtures"),
    "model.detector_s": ("s/tick", "mlsim.fms.model", "ticks_per_s on open-fleet"),
    "model.solver_s": ("s/tick", "mlsim.fms.model", "tick_ms_p90 on aisle-standoffs"),
    "model.desired_move_calls": ("1/tick", "mlsim.fms.model", "ticks_per_s on open-fleet"),
    "model.desired_move_s": ("s/tick", "mlsim.fms.model", "ticks_per_s on open-fleet"),
    "model.detector_move_share": ("ratio", "mlsim.fms.model", "ticks_per_s on open-fleet"),
    "model.floor_reaction_s": ("s/tick", "mlsim.fms.model", "ticks_per_s on fixtures"),
    "model.tasks_reaction_s": ("s/tick", "mlsim.fms.model", "ticks_per_s on fixtures"),
    "model.control_reaction_s": ("s/tick", "mlsim.fms.model", "ticks_per_s on fixtures"),
    "model.observe_s": ("s/tick", "mlsim.fms.model", "ticks_per_s on fixtures"),
    "engine.produce_s": ("s/tick", "mlsim.engine", "ticks_per_s on fixtures; <3% elsewhere"),
    "engine.produce_self_s": ("s/tick", "mlsim.engine", "ticks_per_s on fixtures; <3% elsewhere"),
    "engine.react_s": ("s/tick", "mlsim.engine", "ticks_per_s on fixtures; <3% elsewhere"),
    "engine.react_self_s": ("s/tick", "mlsim.engine", "ticks_per_s on fixtures; <3% elsewhere"),
    "engine.influences": ("1/tick", "mlsim.engine", "ticks_per_s on fixtures"),
    "hierarchy.apply_constraints_s": ("s/tick", "mlsim.hierarchy", "ticks_per_s on aisle-standoffs, fixtures"),
    "hierarchy.constraints": ("1/tick", "mlsim.hierarchy", "ticks_per_s on aisle-standoffs, fixtures"),
    "hierarchy.inhibit_hit_ratio": ("ratio", "mlsim.hierarchy", "ticks_per_s on aisle-standoffs, fixtures"),
    "hierarchy.solvers_spawned": ("1/tick", "mlsim.hierarchy", "ticks_per_s on aisle-standoffs, fixtures"),
    "hierarchy.resolve_ratio": ("ratio", "mlsim.hierarchy", "ticks_per_s on aisle-standoffs, fixtures"),
    "setup.import_s": ("s", "mlsim (import)", "setup_s on every workload"),
    "scenario.parse_s": ("s", "mlsim.scenario", "setup_s on every workload"),
    "scenario.build_s": ("s", "mlsim.scenario", "setup_s on every workload"),
    "cli.write_trace_s": ("s/tick", "mlsim.cli", "ticks_per_s on aisle-standoffs, fixtures; 0 on open-fleet"),
    "cli.trace_rows": ("1/tick", "mlsim.cli", "ticks_per_s on aisle-standoffs, fixtures; 0 on open-fleet"),
    "cli.write_metrics_s": ("s/tick", "mlsim.cli", "ticks_per_s on aisle-standoffs, fixtures"),
    "bench.trace_overhead": ("ratio", "bench", "none: 1 - traced / untraced ticks_per_s"),
}

REACTIONS = ("floor", "tasks", "control")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(trace: dict, ticks: int, outcomes: list, setup: dict,
                  overhead: float, scale: float) -> tuple[dict, list]:
    """(metric name -> value, absent metric names) for one traced child.

    trace: the child's {"totals", "counts", "absent"}; outcomes: its distinct
    episodes' [ticks, delivered, detected, resolved]; setup: median set-up
    phase times; scale: factor from the traced child's host seconds to
    seconds at the reference speed.
    """
    totals, counts, absent_spans = trace["totals"], trace["counts"], set(trace["absent"])

    def total(span):
        return totals.get(span, {}).get("total_s", 0.0) * scale / ticks

    def self_time(span):
        return totals.get(span, {}).get("self_s", 0.0) * scale / ticks

    def calls(span):
        return totals.get(span, {}).get("calls", 0) / ticks

    def count(key):
        return counts.get(key, 0) / ticks

    detected = sum(o[2] for o in outcomes)
    resolved = sum(o[3] for o in outcomes)
    values = {
        "grid.bfs_distances_calls": (calls("grid.bfs_distances"), ["grid.bfs_distances"]),
        "grid.bfs_distances_s": (total("grid.bfs_distances"), ["grid.bfs_distances"]),
        "grid.bfs_cells": (count("grid.bfs_cells"), ["grid.bfs_distances"]),
        "grid.bfs_path_calls": (calls("grid.bfs_path"), ["grid.bfs_path"]),
        "grid.bfs_path_s": (total("grid.bfs_path"), ["grid.bfs_path"]),
        "model.agv_s": (total("model.agv"), ["model.agv"]),
        "model.shop_s": (total("model.shop"), ["model.shop"]),
        "model.detector_s": (total("model.detector"), ["model.detector"]),
        "model.solver_s": (total("model.solver"), ["model.solver"]),
        "model.desired_move_calls": (calls("model.desired_move"), ["model.desired_move"]),
        "model.desired_move_s": (total("model.desired_move"), ["model.desired_move"]),
        "model.detector_move_share": (
            _ratio(counts.get("model.desired_move.from.model.detector", 0),
                   counts.get("model.desired_move.calls", 0)),
            ["model.desired_move", "model.detector"],
        ),
        "model.observe_s": (total("model.observe"), []),
        "engine.produce_s": (total("engine.produce"), ["engine.produce"]),
        "engine.produce_self_s": (self_time("engine.produce"), ["engine.produce"]),
        "engine.react_s": (total("engine.react"), ["engine.react"]),
        "engine.react_self_s": (self_time("engine.react"), ["engine.react"]),
        "engine.influences": (count("engine.influences"), ["engine.produce", "engine.influences"]),
        "hierarchy.apply_constraints_s": (total("hierarchy.apply_constraints"),
                                          ["hierarchy.apply_constraints"]),
        "hierarchy.constraints": (count("hierarchy.constraints"), ["hierarchy.apply_constraints"]),
        "hierarchy.inhibit_hit_ratio": (
            _ratio(counts.get("hierarchy.inhibiting", 0), counts.get("hierarchy.constraints", 0)),
            ["hierarchy.apply_constraints"],
        ),
        "hierarchy.solvers_spawned": (count("hierarchy.solvers_spawned"),
                                      ["model.control_reaction"]),
        "hierarchy.resolve_ratio": (_ratio(resolved, detected), []),
        "setup.import_s": (setup["import_s"], []),
        "scenario.parse_s": (setup["parse_s"], []),
        "scenario.build_s": (setup["build_s"], []),
        "cli.write_trace_s": (total("cli.write_trace"), ["cli.write_trace"]),
        "cli.trace_rows": (count("cli.trace_rows"), ["cli.write_trace"]),
        "cli.write_metrics_s": (total("cli.write_metrics"), ["cli.write_metrics"]),
        "bench.trace_overhead": (overhead, []),
    }
    for level in REACTIONS:
        span = f"model.{level}_reaction"
        values[f"{span}_s"] = (total(span), [span])
    absent = sorted(name for name, (_, needs) in values.items() if absent_spans & set(needs))
    return {name: (0.0 if name in absent else value) for name, (value, _) in values.items()}, absent
