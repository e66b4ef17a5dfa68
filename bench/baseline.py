#!/usr/bin/env python3
"""Repeat bench/run.py over several seeds and summarise, or pin digests.

Usage (from the root of a checkout):

    python3 bench/baseline.py --seeds 10                # spreads, printed
    python3 bench/baseline.py --seeds 10 --record       # ... and bench/baseline.json
    python3 bench/baseline.py --pin                     # rewrite bench/digests.json

For each workload it runs seeds 0..N-1 with `--trace 0` and prints, per
end-to-end metric, the median, the quartiles and the spread (q3 - q1) / median
against the metric's bound in BENCHMARK.json.  `--record` adds one traced run
per workload at seed 0 and writes everything, with the workloads' parameters
and the per-layer metric map, to bench/baseline.json.  `--pin` runs every
workload once at the pinned seed and records the metrics and final-state
digests and the exit code of each of its episodes: the fixed floors of the
generated workloads and the fixture cases, all of which a run measures.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

from layers import PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def bench(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """(report line, result line) of one bench/run.py invocation."""
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def summarise(values: list, bound: float | None) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "bound": bound, "runs": len(values)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--record", action="store_true")
    parser.add_argument("--pin", action="store_true")
    args = parser.parse_args()

    config = json.loads(Path("BENCHMARK.json").read_text())
    seconds = config["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}

    if args.pin:
        pins_path = BENCH_DIR / "digests.json"
        pins = json.loads(pins_path.read_text())
        # The old pins must not judge the runs that replace them.
        pins["episodes"] = {}
        pins_path.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
        episodes = {}
        for workload in WORKLOADS:
            report, result = bench(workload, pins["pinned_seed"], seconds, 0)
            if not result["correct"]:
                print(f"{workload}: not correct: {report['problems']}", file=sys.stderr)
                return 1
            episodes.update(report["episodes"])
            print(f"{workload}: pinned {len(report['episodes'])} episodes")
        pins["episodes"] = episodes
        pins_path.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
        return 0

    record = {"run_seconds": seconds, "workloads": {}, "per_layer_map": {
        name: {"unit": unit, "layer": layer, "moves": moves}
        for name, (unit, layer, moves) in PER_LAYER.items()
    }}
    for workload in WORKLOADS:
        seeds = range(args.first_seed, args.first_seed + args.seeds)
        runs = []
        for seed in seeds:
            report, result = bench(workload, seed, seconds, 0)
            runs.append((report, result))
            values = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
            print(f"{workload:16s} seed {seed:3d} correct {result['correct']} {values}", flush=True)
        entry = {
            "why": WORKLOADS[workload]["why"],
            "params": {k: v for k, v in WORKLOADS[workload].items() if k != "why"},
            "seeds": list(seeds),
            "correct": all(result["correct"] for _, result in runs),
            "failed": sum(result["failed"] for _, result in runs),
            "attempted": sum(result["attempted"] for _, result in runs),
            "digests": {str(report["seed"]): report["digest"] for report, _ in runs},
            "end_to_end": {},
        }
        for name, bound in bounds.items():
            values = [result["metrics"][name]["value"] for _, result in runs]
            entry["end_to_end"][name] = summarise(values, bound)
            s = entry["end_to_end"][name]
            flag = "" if name == "setup_s" or s["spread"] < bound / 3 else "  <-- above bound/3"
            print(f"{workload:16s} {name:12s} median {s['median']:12.4f}  "
                  f"q1 {s['q1']:12.4f}  q3 {s['q3']:12.4f}  spread {s['spread']:.3f} "
                  f"(bound {bound}){flag}", flush=True)
        if args.record:
            report, result = bench(workload, args.first_seed, seconds, 1)
            entry["traced"] = {
                "seed": args.first_seed,
                "digest": report["digest"],
                "absent": report["absent"],
                "self_share": report["self_share"],
                "per_layer": {k: v["value"] for k, v in result["metrics"].items()},
            }
        record["workloads"][workload] = entry
    if args.record:
        (BENCH_DIR / "baseline.json").write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
