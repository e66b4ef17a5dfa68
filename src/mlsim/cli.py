"""Command-line runner: validate / run / compare.

Exit codes: 0 success, 1 contract violation during a run, 2 run completed
with an unresolvable-deadlock diagnostic, 3 invalid scenario.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

from .engine import run as engine_run
from .errors import MlsimError, ScenarioError
from .fms.model import SafetyChecker, all_tasks_delivered, fms_metrics
from .scenario import (
    ScenarioSpec,
    apply_overrides,
    parse_scenario,
    parse_scenario_dict,
)
from . import scenario as scenario_mod

METRIC_COLUMNS = (
    "tick",
    "tasks_delivered",
    "deadlocks_detected",
    "deadlocks_resolved",
    "active_constraints",
    "agv_idle_ratio",
)

EXIT_OK = 0
EXIT_CONTRACT = 1
EXIT_NO_ESCAPE = 2
EXIT_INVALID = 3


def _load_spec(args) -> tuple[ScenarioSpec, dict]:
    """The scenario with the command line's overrides applied, and those
    overrides by sorted dotted key."""
    spec = parse_scenario(args.scenario)
    overrides = {}
    for item in getattr(args, "override", None) or []:
        key, _, value = item.partition("=")
        overrides[key] = value
    if getattr(args, "ticks", None) is not None:
        overrides["run.ticks"] = str(args.ticks)
    if getattr(args, "seed", None) is not None:
        overrides["run.seed"] = str(args.seed)
    if getattr(args, "control", None) is not None:
        overrides["control"] = "true" if args.control == "on" else "false"
    if overrides:
        spec = parse_scenario_dict(apply_overrides(spec.data, overrides))
    return spec, {k: overrides[k] for k in sorted(overrides)}


def _execute(spec: ScenarioSpec, collect_trace: bool):
    model, state = scenario_mod.build(spec)
    run_params = spec.run_params
    termination = all_tasks_delivered if run_params["termination"] == "all-delivered" else None
    result = engine_run(
        model,
        state,
        ticks=run_params["ticks"],
        seed=run_params["seed"],
        observers=(SafetyChecker(spec.grid),),
        metrics=fms_metrics,
        termination=termination,
        collect_trace=collect_trace,
    )
    return result


def _summary(spec: ScenarioSpec, result, overrides=None) -> dict:
    last = result.records[-1] if result.records else {}
    return {
        "scenario": spec.name,
        "control": spec.control,
        "seed": spec.run_params["seed"],
        "ticks_run": len(result.records),
        "stop_reason": result.stop_reason,
        "tasks_total": len(spec.data["tasks"]),
        "tasks_delivered": last.get("tasks_delivered", 0),
        "deadlocks_detected": last.get("deadlocks_detected", 0),
        "deadlocks_resolved": last.get("deadlocks_resolved", 0),
        "unresolvable": bool(result.diagnostics),
        "overrides": overrides or {},
    }


def write_metrics(path, records):
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=METRIC_COLUMNS)
        writer.writeheader()
        for row in records:
            writer.writerow({col: row[col] for col in METRIC_COLUMNS})


def write_trace(path, trace):
    """One JSON line per trace row, with sorted keys, ordered by (tick, level,
    influence id, event, payload).  Each payload is encoded once, for both
    its sort key and its line."""
    encode = json.JSONEncoder(sort_keys=True, default=str).encode
    keyed = []
    for row in trace:
        payload = row["payload"]
        keyed.append((row["tick"], row["level"], str(payload.get("id", "")), row["event"],
                      encode(payload)))
    keyed.sort()
    with open(path, "w") as fh:
        for tick, level, _, event, payload in keyed:
            fh.write(f'{{"event": {encode(event)}, "level": {encode(level)}, '
                     f'"payload": {payload}, "tick": {encode(tick)}}}\n')


def cmd_validate(args) -> int:
    try:
        parse_scenario(args.scenario)
    except ScenarioError as exc:
        for issue in exc.errors:
            print(issue)
        print(f"invalid: {len(exc.errors)} problem(s)")
        return EXIT_INVALID
    print("valid")
    return EXIT_OK


def cmd_run(args) -> int:
    try:
        spec, overrides = _load_spec(args)
    except ScenarioError as exc:
        for issue in exc.errors:
            print(issue, file=sys.stderr)
        return EXIT_INVALID
    try:
        result = _execute(spec, collect_trace=args.trace_out is not None)
    except MlsimError as exc:
        print(f"contract violation: {exc}", file=sys.stderr)
        return EXIT_CONTRACT
    if args.metrics_out:
        write_metrics(args.metrics_out, result.records)
    if args.trace_out:
        write_trace(args.trace_out, result.trace)
    print(json.dumps(_summary(spec, result, overrides), indent=2, sort_keys=True))
    return EXIT_NO_ESCAPE if result.diagnostics else EXIT_OK


def compare_report(spec_off: ScenarioSpec, spec_on: ScenarioSpec, overrides=None) -> dict:
    result_off = _execute(spec_off, collect_trace=False)
    result_on = _execute(spec_on, collect_trace=False)
    off = _summary(spec_off, result_off, overrides)
    on = _summary(spec_on, result_on, overrides)

    total = off["tasks_total"]
    if on["unresolvable"]:
        verdict = "unresolvable deadlock under control=on (no escape path)"
    elif off["deadlocks_detected"] == 0 and on["deadlocks_detected"] == 0:
        verdict = "no deadlock in either mode"
    elif (
        off["deadlocks_detected"] >= 1
        and off["tasks_delivered"] < total
        and on["tasks_delivered"] == total
    ):
        verdict = "control resolves deadlock; all tasks delivered"
    else:
        verdict = "modes differ; inspect metrics"
    return {"off": off, "on": on, "verdict": verdict}


def _with_control(base: ScenarioSpec, control: str) -> ScenarioSpec:
    """`base` re-parsed with `control` set."""
    return parse_scenario_dict(apply_overrides(base.data, {"control": control}))


def cmd_compare(args) -> int:
    try:
        base, overrides = _load_spec(args)
        off, on = _with_control(base, "false"), _with_control(base, "true")
    except ScenarioError as exc:
        for issue in exc.errors:
            print(issue, file=sys.stderr)
        return EXIT_INVALID
    try:
        report = compare_report(off, on, overrides)
    except MlsimError as exc:
        print(f"contract violation: {exc}", file=sys.stderr)
        return EXIT_CONTRACT
    print(json.dumps(report, indent=2, sort_keys=True))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mlsim",
        description="Multi-level influence/reaction simulator with an AGV fleet reference model",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_outputs=True):
        p.add_argument("--scenario", required=True, help="scenario JSON file")
        p.add_argument("--ticks", type=int, default=None, help="override run.ticks")
        p.add_argument("--seed", type=int, default=None, help="override run.seed")
        p.add_argument("--control", choices=["on", "off"], default=None)
        p.add_argument(
            "--override",
            action="append",
            metavar="KEY=VALUE",
            help="dotted-path override, e.g. params.repulse=2",
        )
        if with_outputs:
            p.add_argument("--metrics-out", default=None, help="CSV metrics path")
            p.add_argument("--trace-out", default=None, help="JSONL trace path")

    p_run = sub.add_parser("run", help="run one scenario")
    common(p_run)
    p_run.set_defaults(func=cmd_run)

    p_cmp = sub.add_parser("compare", help="run control=off vs control=on under one seed")
    common(p_cmp, with_outputs=False)
    p_cmp.set_defaults(func=cmd_compare)

    p_val = sub.add_parser("validate", help="static scenario checks, no run")
    p_val.add_argument("--scenario", required=True)
    p_val.set_defaults(func=cmd_validate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
