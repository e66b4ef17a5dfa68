#!/usr/bin/env python3
"""Sweep the AGV repulsion amplitude on one scenario and report deadlock behavior.

Shows how the field parameters shift where (and whether) standoffs appear:
small amplitudes let vehicles approach closely before stalling, larger ones
stall them further apart, but no amplitude removes the head-on pathology on a
narrow corridor. That is what the control level is for.

Each amplitude is applied as the override `params.repulse=<amplitude>` and
validated like `mlsim run --override`: an invalid one is reported and the
script exits 3.

Usage: python3 scripts/sweep_repulsion.py [--scenario scenarios/corridor.json]
       [--amplitudes 0,2,4,8] [--control on|off]
"""

import argparse
import sys
from pathlib import Path

from mlsim.cli import EXIT_INVALID
from mlsim.engine import run
from mlsim.errors import ScenarioError
from mlsim.fms.model import SafetyChecker, all_tasks_delivered, fms_metrics
from mlsim.scenario import apply_overrides, build, parse_scenario, parse_scenario_dict


def main():
    root = Path(__file__).resolve().parent.parent
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scenario", default=root / "scenarios" / "corridor.json")
    parser.add_argument("--amplitudes", default="0,2,4,8")
    parser.add_argument("--control", choices=["on", "off"], default="off")
    args = parser.parse_args()

    try:
        base = parse_scenario(args.scenario)
        specs = [
            parse_scenario_dict(apply_overrides(base.data, {
                "params.repulse": amp,
                "control": "true" if args.control == "on" else "false",
            }))
            for amp in args.amplitudes.split(",")
        ]
    except ScenarioError as exc:
        for issue in exc.errors:
            print(issue, file=sys.stderr)
        return EXIT_INVALID
    print(f"scenario={args.scenario} control={args.control}")
    print(f"{'repulse':>8} {'delivered':>10} {'detected':>9} {'resolved':>9} {'ticks':>6}  stop")
    for spec in specs:
        amp = spec.params.repulse
        model, state = build(spec)
        result = run(
            model,
            state,
            ticks=spec.run_params["ticks"],
            seed=spec.run_params["seed"],
            observers=(SafetyChecker(spec.grid),),
            metrics=fms_metrics,
            termination=all_tasks_delivered,
        )
        last = result.records[-1]
        print(
            f"{amp:>8} {last['tasks_delivered']:>10} {last['deadlocks_detected']:>9} "
            f"{last['deadlocks_resolved']:>9} {len(result.records):>6}  {result.stop_reason}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
