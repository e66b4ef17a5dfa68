#!/usr/bin/env python3
"""mlsim benchmark: tick throughput, tick latency and set-up time.

Usage (from the root of a checkout):

    python3 bench/run.py --workload open-fleet --seed 0 --seconds 30 --trace 0

Workloads are defined in bench/workloads.py.  Each is a closed loop in
fresh single-threaded children: episodes run one after another, each going
`scenario.parse_scenario_dict` -> `scenario.build` -> `engine.run` (with
`SafetyChecker`, `fms_metrics`, `all_tasks_delivered` and a timestamp
observer) -> `cli.write_metrics` / `cli.write_trace`, for whole rounds.

One run does:

1. Set-up probes: fresh children (bench/child.py), each timing import of
   `mlsim` through reading, parsing and validating the scenario, build and the
   end of the first tick.  One warms the bytecode cache; then four run
   before each loop child and four after the last.  `setup_s` is the median
   of those sixteen, each rescaled by the reference times measured right
   before and after it.
2. Three loop children with PYTHONHASHSEED 1 to 3 on the same episode stream.
   The first runs as many whole rounds (one pass over the workload's fixed
   floors or fixture cases) as fit in `seconds / 3`, at least one; the others run the same
   number of rounds, so all measure the same episodes.  With `--trace 0` all
   are untraced.  Each distinct episode's busy time and each of its ticks'
   latency (observer timestamp to observer timestamp) is the median of its
   measurements over the children and rounds.  `ticks_per_s` is ticks / busy
   seconds, and `tick_ms_p50`/`tick_ms_p90` are percentiles over the ticks.
   With `--trace 1` the last child is traced (bench/tracer.py) and gives the
   per-layer metrics (bench/layers.py).
3. Correctness: no episode may raise or trip `SafetyChecker`; every episode
   must give the same metrics-CSV sha256, final-state sha256, exit code,
   trace sha256 and outcome in every child; every episode with digests pinned
   in bench/digests.json (all floors of seed 0, and the fixture cases for
   every seed) must match them.  On `fixtures`, `mlsim run` must reproduce
   the library path's exit code, metrics file and trace file, and
   `mlsim compare` must give the verdicts the README documents.

Times are reported at a fixed reference speed.  The CPU speed a process gets
on a shared host drifts with other load, by up to 1.7x over seconds to
minutes, which no repetition inside one run can average out.  So every child
times a fixed pure-Python BFS (`child.reference`) after each tick, or around
a set-up probe, and each measured interval is multiplied by REF_S / (the mean
reference time measured during it).  A time then reads as host seconds on a
host where that BFS takes REF_S; the factor does not depend on `mlsim`, so any
change to `mlsim` moves the figures as it moves host time.  The report line
gives the unscaled host throughput and the host speed next to them.

It prints one report line (outcomes, digest, sample counts, host speed,
self-time shares and absent layers when traced), then the result object as
the last line.  It exits 2 without a result when the checkout has no
`src/mlsim` or `scenarios`, or when a child process fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

from layers import PER_LAYER, layer_metrics  # noqa: E402
from workloads import WORKLOADS, episode  # noqa: E402

LOOP_CHILDREN = 3
HASH_SEEDS = tuple(str(i + 1) for i in range(LOOP_CHILDREN))  # PYTHONHASHSEED of each loop child
PROBES_PER_GAP = 4  # set-up probes before each loop child and after the last
CHILD_GRACE_S = 150
# Reference speed: host seconds one `child.reference()` BFS takes on a host
# running at the speed every reported time is rescaled to.
REF_S = 3.0e-4


def _child(root: Path, env: dict, hash_seed: str, args: list, out: Path, timeout: float) -> dict:
    out.unlink(missing_ok=True)
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "child.py"), *args],
        env=dict(env, PYTHONHASHSEED=hash_seed),
        capture_output=True, text=True, timeout=timeout + CHILD_GRACE_S,
    )
    if proc.returncode != 0 or not out.exists():
        raise RuntimeError(f"child {args[0]} exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(out.read_text())


def _ticks(child) -> int:
    return sum(len(ms) for _, _, ms, _ in child["runs"])


def _throughput(child, scaled=True) -> float:
    """Ticks per busy second over all of one child's timed episodes."""
    return _ticks(child) / sum(busy * (REF_S / ref if scaled else 1.0)
                               for _, busy, _, ref in child["runs"])


def _median_of(children: list) -> tuple[float, list]:
    """(ticks per busy second, tick latencies in ms) over the distinct
    episodes, at the reference speed.  Each episode's busy time and each of
    its ticks' latency is the median of its measurements in every child and
    every round that ran it."""
    busy, ticks_ms = {}, {}
    for child in children:
        for name, seconds, ms, ref in child["runs"]:
            scale = REF_S / ref
            busy.setdefault(name, []).append(seconds * scale)
            ticks_ms.setdefault(name, []).append([t * scale for t in ms])
    samples = []
    for runs in ticks_ms.values():
        if len({len(ms) for ms in runs}) == 1:  # a mismatch fails _check
            samples += [statistics.median(tick) for tick in zip(*runs)]
    if not samples:
        raise RuntimeError("no episode completed")
    return len(samples) / sum(statistics.median(b) for b in busy.values()), samples


def _check(children: list, pins: dict) -> list:
    """Cross-process and pinned-digest checks over the children's episodes."""
    problems = []
    common = set.intersection(*(set(child["episodes"]) for child in children))
    if not common:
        problems.append("no episode completed in every loop child")
    first = children[0]["episodes"]
    for name in sorted(common):
        if any(child["episodes"][name] != first[name] for child in children[1:]):
            problems.append(f"{name}: differs between PYTHONHASHSEED values {HASH_SEEDS}")
    for child in children:
        for name, record in child["episodes"].items():
            pin = pins.get(name)
            if pin is not None and _pinned(record) != pin:
                problems.append(f"{name}: metrics or state digest or exit code "
                                "differs from the pin")
    return problems


def _pinned(record: dict) -> list:
    return [record["metrics_sha256"], record["state_sha256"], record["exit"]]


def _digest(episodes: dict) -> str:
    lines = "".join(f"{name} {' '.join(map(str, _pinned(r)))} {r['outcome']}\n"
                    for name, r in sorted(episodes.items()))
    return hashlib.sha256(lines.encode()).hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser(description="mlsim benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "mlsim" / "__init__.py").is_file() or not (root / "scenarios").is_dir():
        print(f"{root} holds no src/mlsim package or scenarios directory; "
              "run from the root of an mlsim checkout", file=sys.stderr)
        return 2
    run_dir = root / ".bench_run"
    run_dir.mkdir(exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    scenario = run_dir / "setup.scenario.json"
    scenario.write_text(json.dumps(episode(args.workload, args.seed, 0, root)[1]))

    def probes(count=PROBES_PER_GAP):
        out = run_dir / "setup.result.json"
        return [_child(root, env, HASH_SEEDS[0], ["setup", str(scenario), str(out)], out, 0)
                for _ in range(count)]

    children = []
    try:
        probes(1)  # warms the bytecode cache; not measured
        # Probes are spread over the run so that one slow spell of the host
        # cannot hold all of them.
        setups = probes()
        for i, hash_seed in enumerate(HASH_SEEDS):
            out = run_dir / f"loop{i}.result.json"
            cfg = dict(
                workload=args.workload, seed=args.seed, root=str(root), out=str(out),
                tag=f"loop{i}", seconds=args.seconds / LOOP_CHILDREN,
                traced=bool(args.trace) and i == LOOP_CHILDREN - 1,
                # The first child fills its share of the time with whole
                # rounds; the others repeat exactly its rounds.
                rounds=children[0]["rounds"] if children else None,
                cli_checks=i == 0 and "fixtures" in WORKLOADS[args.workload],
            )
            children.append(_child(root, env, hash_seed, ["loop", json.dumps(cfg)], out,
                                   cfg["seconds"]))
            setups += probes()
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 2

    pins = json.loads((BENCH_DIR / "digests.json").read_text())["episodes"]
    problems = [f"{f['episode']}: {f['error']}" for c in children for f in c["failures"]]
    problems += _check(children, pins)
    episodes = {}
    for child in children:
        episodes.update(child["episodes"])
    setup = {k: statistics.median([s[k] * REF_S / s["ref_s"] for s in setups])
             for k in ("setup_s", "import_s", "parse_s", "build_s")}
    untraced = [c for c in children if "trace" not in c]
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "digest": _digest(episodes),
        "episodes": {name: _pinned(r) for name, r in sorted(episodes.items())},
        "outcomes_ticks_delivered_detected_resolved": [
            sum(r["outcome"][i] for r in episodes.values()) for i in range(4)
        ],
        "ticks": [_ticks(c) for c in children],
        "rounds": [c["rounds"] for c in children],
        "setup_probes": len(setups),
        "host_ticks_per_s": [_throughput(c, scaled=False) for c in children],
        "host_speed": [REF_S * len(c["runs"]) / sum(ref for *_, ref in c["runs"])
                       for c in children],
        "problems": problems[:10],
    }

    if args.trace:
        traced = children[-1]
        overhead = 1.0 - _throughput(traced) / statistics.median(map(_throughput, untraced))
        values, absent = layer_metrics(
            traced["trace"], _ticks(traced),
            [r["outcome"] for r in traced["episodes"].values()], setup, overhead,
            scale=report["host_speed"][-1],
        )
        busy = sum(seconds for _, seconds, _, _ in traced["runs"])
        report["absent"] = absent
        report["self_share"] = {  # of the busy time, which leaves out bench.gauge
            name: round(t["self_s"] / busy, 4)
            for name, t in sorted(traced["trace"]["totals"].items(),
                                  key=lambda kv: -kv[1]["self_s"])
            if name != "bench.gauge"
        }
        metrics = {name: {"value": values[name], "unit": PER_LAYER[name][0]} for name in PER_LAYER}
    else:
        try:
            ticks_per_s, tick_ms = _median_of(untraced)
        except RuntimeError as exc:
            print(f"benchmark aborted: {exc}", file=sys.stderr)
            return 2
        report["tick_samples"] = len(tick_ms)
        metrics = {
            "ticks_per_s": {"value": ticks_per_s, "unit": "1/s"},
            "tick_ms_p50": {"value": statistics.median(tick_ms), "unit": "ms"},
            "tick_ms_p90": {"value": statistics.quantiles(tick_ms, n=10)[8], "unit": "ms"},
            "setup_s": {"value": setup["setup_s"], "unit": "s"},
            "peak_rss_mb": {"value": max(c["peak_rss_mb"] for c in untraced), "unit": "MB"},
        }

    print(json.dumps(report))
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(c["attempted"] for c in children),
        "failed": len(problems),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
