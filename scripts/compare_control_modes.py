#!/usr/bin/env python3
"""Run the off/on control comparison over every bundled scenario fixture.

Every file is validated before any is run: an invalid one is reported (its
path, then its coded issues) and the script exits 3, as it does when the
directory is missing or holds no scenario file, or an argument cannot be
parsed (a `usage` issue).

Usage: python3 scripts/compare_control_modes.py [--scenario-dir scenarios]
"""

import json
import sys
from pathlib import Path

from mlsim.cli import EXIT_INVALID, _with_control, compare_report
from mlsim.errors import Issue, ScenarioError
from mlsim.scenario import parse_scenario
from mlsim.usage import UsageParser


def main():
    parser = UsageParser(description=__doc__)
    parser.add_argument(
        "--scenario-dir", default=Path(__file__).resolve().parent.parent / "scenarios"
    )
    args = parser.parse_args()

    fixtures = sorted(Path(args.scenario_dir).glob("*.json"))
    if not fixtures:
        print(Issue("parse", f"no scenario files under {args.scenario_dir}"), file=sys.stderr)
        return EXIT_INVALID

    cases = []
    invalid = False
    for path in fixtures:
        try:
            base = parse_scenario(path)
            cases.append((base, _with_control(base, "false"), _with_control(base, "true")))
        except ScenarioError as exc:
            invalid = True
            print(path, file=sys.stderr)
            for issue in exc.errors:
                print(issue, file=sys.stderr)
    if invalid:
        return EXIT_INVALID

    for base, off, on in cases:
        report = compare_report(off, on)
        print(f"== {base.name} ==")
        print(f"verdict: {report['verdict']}")
        for mode in ("off", "on"):
            s = report[mode]
            print(
                f"  control={mode}: {s['tasks_delivered']}/{s['tasks_total']} delivered, "
                f"{s['deadlocks_detected']} deadlocks detected, "
                f"{s['deadlocks_resolved']} resolved, "
                f"stopped after {s['ticks_run']} ticks ({s['stop_reason']})"
            )
        print(json.dumps({"off": report["off"], "on": report["on"]}, indent=2, sort_keys=True))
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
