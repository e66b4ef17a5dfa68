"""One benchmark child process: a set-up probe or a timed closed loop.

Usage (started by bench/run.py):

    python3 bench/child.py setup <scenario.json> <result.json>
    python3 bench/child.py loop '<json config>'

The set-up probe imports nothing but `sys` and `time` before it starts its
clock, so `setup_s` counts importing `mlsim` with every standard module it
needs (json, hashlib, random, networkx, ...), reading the scenario file, parse
and validation, build and the first tick.  Only the modules the interpreter
loads at its own start-up are not counted.

Loop config keys: workload, seed, seconds, rounds, traced, cli_checks, root
(checkout root), tag (file prefix), out (result JSON path).  The loop imports
`mlsim` from `<root>/src` through PYTHONPATH and writes everything it
produces under `<root>/.bench_run`.

Host speed.  The CPU speed a process gets on a shared host changes with the
other load on it, by up to 1.7x, over seconds to minutes.  So each child
also times `reference()`, a fixed pure-Python BFS that does not touch
`mlsim`: the probe before and after its clock, the loop after every tick
(in an observer, outside the tick's measured span).  bench/run.py uses those
times to rescale what was measured to one fixed reference speed.
"""

import sys
from time import perf_counter

REF_SIDE = 16  # the reference BFS floods a REF_SIDE x REF_SIDE grid
REF_REPEATS = 10  # reference runs on each side of a set-up probe


def reference() -> float:
    """Host seconds one fixed BFS takes: a gauge of the current CPU speed."""
    start = perf_counter()
    seen = {(0, 0): 0}
    frontier = [(0, 0)]
    while frontier:
        reached = []
        for x, y in frontier:
            d = seen[(x, y)] + 1
            for cell in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)):
                if 0 <= cell[0] < REF_SIDE and 0 <= cell[1] < REF_SIDE and cell not in seen:
                    seen[cell] = d
                    reached.append(cell)
        frontier = reached
    return perf_counter() - start


def setup_probe(scenario_path: str, out_path: str):
    """Fresh-process set-up: import, read + parse + validate, build, first tick."""
    refs = [reference() for _ in range(REF_REPEATS)]
    t0 = perf_counter()
    import json

    from mlsim import cli  # noqa: F401  (the workload writes its outputs through it)
    from mlsim.engine import run
    from mlsim.fms.model import SafetyChecker, all_tasks_delivered, fms_metrics
    from mlsim.scenario import build, parse_scenario_dict

    t1 = perf_counter()
    with open(scenario_path) as fh:
        spec = parse_scenario_dict(json.load(fh))
    t2 = perf_counter()
    model, state = build(spec)
    t3 = perf_counter()
    run(model, state, ticks=1, seed=spec.run_params["seed"],
        observers=(SafetyChecker(spec.grid),), metrics=fms_metrics,
        termination=all_tasks_delivered)
    t4 = perf_counter()
    refs += [reference() for _ in range(REF_REPEATS)]
    with open(out_path, "w") as fh:
        json.dump({"setup_s": t4 - t0, "import_s": t1 - t0, "parse_s": t2 - t1,
                   "build_s": t3 - t2, "ref_s": sum(refs) / len(refs)}, fh)


def _sha256(path) -> str:
    import hashlib

    return hashlib.sha256(path.read_bytes()).hexdigest()


def _state_sha256(state) -> str:
    """sha256 of the final floor bodies (AGV cells, loads, windows) and the
    task table: the part of an episode's outcome that is specific to its
    floor even when no task is delivered."""
    import hashlib
    import json

    floor = {agent: body.attributes for agent, body in state.per_level["floor"].bodies().items()}
    tasks = state.per_level["tasks"].properties.get("tasks", {})
    return hashlib.sha256(json.dumps([floor, tasks], sort_keys=True).encode()).hexdigest()


def closed_loop(cfg: dict) -> dict:
    """Run the workload's episode stream, one after another, for
    `cfg["rounds"]` rounds or, when that is None, for as many whole rounds as
    fit in `cfg["seconds"]` (at least one).  Every episode goes parse -> build
    -> run -> write outputs.  Episode 0 runs once first, untimed, so that
    first-call costs are not measured."""
    import gc
    import resource
    import traceback
    from pathlib import Path

    from mlsim import cli
    from mlsim.engine import run
    from mlsim.errors import ScenarioError
    from mlsim.fms.model import SafetyChecker, all_tasks_delivered, fms_metrics
    from mlsim.scenario import build, parse_scenario_dict
    from workloads import WORKLOADS, episode, round_size

    root = Path(cfg["root"])
    workload = WORKLOADS[cfg["workload"]]
    run_dir = root / ".bench_run"
    metrics_path = run_dir / f"{cfg['tag']}.metrics.csv"
    trace_path = run_dir / f"{cfg['tag']}.trace.jsonl"

    tracer = None  # installed after the warm-up episode, so only timed episodes are traced
    wrap = lambda name, fn: fn  # noqa: E731

    def run_episode(raw):
        """(record, busy seconds, tick latencies in ms, mean reference seconds)."""
        marks = []  # per tick: (stamp, reference seconds, stamp after the reference)

        def gauge(tick, st, info):
            stamp = perf_counter()
            gc.disable()  # a collection of the model's garbage is not reference time
            ref = reference()
            gc.enable()
            marks.append((stamp, ref, perf_counter()))

        start = perf_counter()
        spec = wrap("scenario.parse", parse_scenario_dict)(raw)
        model, state = wrap("scenario.build", build)(spec)
        if tracer is not None:
            tracer.instrument(model, {a["id"] for a in raw["agvs"]},
                              {s["id"] for s in raw["shops"]})
        resume = perf_counter()
        result = wrap("engine.run", run)(
            model, state, ticks=spec.run_params["ticks"], seed=spec.run_params["seed"],
            observers=(wrap("bench.gauge", gauge),
                       wrap("model.observe", SafetyChecker(spec.grid))),
            metrics=wrap("model.observe", fms_metrics),
            termination=all_tasks_delivered,
            collect_trace=workload["trace"],
        )
        cli.write_metrics(metrics_path, result.records)
        if workload["trace"]:
            cli.write_trace(trace_path, result.trace)
        busy = perf_counter() - start - sum(end - stamp for stamp, _, end in marks)
        ticks_ms = []
        for stamp, _, end in marks:
            ticks_ms.append((stamp - resume) * 1000.0)
            resume = end
        last = result.records[-1]
        record = {
            "metrics_sha256": _sha256(metrics_path),
            "state_sha256": _state_sha256(result.final_state),
            "exit": cli.EXIT_NO_ESCAPE if result.diagnostics else cli.EXIT_OK,
            "trace_sha256": _sha256(trace_path) if workload["trace"] else None,
            "outcome": [len(result.records), last["tasks_delivered"],
                        last["deadlocks_detected"], last["deadlocks_resolved"]],
        }
        return record, busy, ticks_ms, sum(ref for _, ref, _ in marks) / len(marks)

    episodes: dict = {}
    failures: list = []
    runs: list = []  # [episode, busy s, [tick ms, ...], mean reference s] per timed episode
    attempted = index = rounds = 0
    warm = True
    started = round_start = perf_counter()
    while True:
        name, raw = episode(cfg["workload"], cfg["seed"], index, root)
        attempted += 1
        try:
            record, busy, ticks_ms, ref = run_episode(raw)
        except ScenarioError:
            raise  # an invalid input aborts the benchmark; it is never measured
        except Exception:  # noqa: BLE001 - a failed run is counted, not fatal
            failures.append({"episode": name, "error": traceback.format_exc(limit=3)})
        else:
            if not warm:
                runs.append([name, busy, ticks_ms, ref])
            if episodes.setdefault(name, record) != record:
                failures.append({"episode": name, "error": "differs from its earlier run "
                                 "in this process"})
        if warm:
            warm = False
            if cfg["traced"]:
                from tracer import Tracer

                tracer = Tracer()
                tracer.install()
                wrap = tracer.wrap
            started = round_start = perf_counter()
            continue
        index += 1
        if index % round_size(cfg["workload"]) == 0:
            rounds += 1
            now = perf_counter()
            if cfg["rounds"] is None:
                # Stop when one more round like the last would overrun.
                if now + (now - round_start) > started + cfg["seconds"]:
                    break
            elif rounds == cfg["rounds"]:
                break
            round_start = now

    out = {
        "rounds": rounds,
        "runs": runs,
        "attempted": attempted,
        "failures": failures,
        "episodes": episodes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        tracer.uninstall()
        tracer.write(run_dir / f"{cfg['tag']}.spans.tsv")
        out["trace"] = {"totals": tracer.totals(), "counts": dict(tracer.counts),
                        "absent": sorted(tracer.absent)}
    if cfg["cli_checks"]:
        cli_checks(cfg, root, workload, episodes, out)
    return out


def cli_checks(cfg: dict, root, workload: dict, episodes: dict, out: dict):
    """`mlsim run` must reproduce the library path's exit code, metrics file
    and trace file, and `mlsim compare` must give the README's verdict."""
    import io
    import json
    from contextlib import redirect_stdout

    from mlsim import cli
    from workloads import FIXTURE_VERDICTS, fixture_path

    run_dir = root / ".bench_run"
    metrics_path = run_dir / f"{cfg['tag']}.cli.metrics.csv"
    trace_path = run_dir / f"{cfg['tag']}.cli.trace.jsonl"
    for fixture in workload["fixtures"]:
        scenario = str(fixture_path(root, fixture))
        for control in ("off", "on"):
            name = f"{fixture}/{control}"
            out["attempted"] += 1
            with redirect_stdout(io.StringIO()):
                code = cli.main(["run", "--scenario", scenario, "--control", control,
                                 "--seed", str(cfg["seed"]), "--metrics-out", str(metrics_path),
                                 "--trace-out", str(trace_path)])
            mine = episodes.get(name)
            if mine is None or [code, _sha256(metrics_path), _sha256(trace_path)] != [
                mine["exit"], mine["metrics_sha256"], mine["trace_sha256"]
            ]:
                out["failures"].append({"episode": f"cli run {name}", "error": f"exit {code}, "
                                        "or metrics or trace differ from the library path"})
        out["attempted"] += 1
        buffer = io.StringIO()
        with redirect_stdout(buffer):
            code = cli.main(["compare", "--scenario", scenario, "--seed", str(cfg["seed"])])
        verdict = json.loads(buffer.getvalue())["verdict"] if code == cli.EXIT_OK else None
        if verdict != FIXTURE_VERDICTS[fixture]:
            out["failures"].append({"episode": f"cli compare {fixture}",
                                    "error": f"exit {code}, verdict {verdict!r}"})


def main() -> int:
    if sys.argv[1] == "setup":
        setup_probe(sys.argv[2], sys.argv[3])
        return 0
    import json

    cfg = json.loads(sys.argv[2])
    result = closed_loop(cfg)
    with open(cfg["out"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
