"""Golden digests: every episode pinned in bench/digests.json, run in-process.

Each pinned episode is rebuilt with the benchmark's own episode stream
(`bench/workloads.py`) and run through the documented library path:
parse -> build -> run with SafetyChecker.  Three values must equal the pins:
the sha256 of the metrics CSV written by `cli.write_metrics`, the sha256 of
the final state (floor bodies plus the task table, hashed as
`bench/child.py` hashes it) and the exit code `mlsim run` would return.
The test only reads `bench/`.
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from mlsim import cli
from mlsim.engine import run
from mlsim.fms.model import SafetyChecker, all_tasks_delivered, fms_metrics
from mlsim.scenario import build, parse_scenario_dict

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
PINS = json.loads((BENCH / "digests.json").read_text())

sys.path.insert(0, str(BENCH))  # bench modules import each other by bare name
try:
    from workloads import WORKLOADS, episode, round_size
finally:
    sys.path.remove(str(BENCH))

assert PINS["fields"] == ["metrics_sha256", "state_sha256", "exit"]


def pinned_episodes():
    """(workload, index) of every pinned episode, keyed by its name."""
    found = {}
    for workload in WORKLOADS:
        for index in range(round_size(workload)):
            name, _ = episode(workload, PINS["pinned_seed"], index, ROOT)
            found[name] = (workload, index)
    return found


EPISODES = pinned_episodes()


def state_sha256(state):
    floor = {aid: body.attributes for aid, body in state.per_level["floor"].bodies().items()}
    tasks = state.per_level["tasks"].properties.get("tasks", {})
    return hashlib.sha256(json.dumps([floor, tasks], sort_keys=True).encode()).hexdigest()


def test_every_pin_has_an_episode():
    assert sorted(EPISODES) == sorted(PINS["episodes"])
    assert len(EPISODES) == 19


def episode_digests(raw, tmp_path):
    """[metrics-CSV sha256, final-state sha256, exit code] of one scenario
    dict run through parse -> build -> run with SafetyChecker."""
    spec = parse_scenario_dict(raw)
    model, state = build(spec)
    result = run(
        model, state, ticks=spec.run_params["ticks"], seed=spec.run_params["seed"],
        observers=(SafetyChecker(spec.grid),), metrics=fms_metrics,
        termination=all_tasks_delivered,
    )
    metrics = tmp_path / "metrics.csv"
    cli.write_metrics(metrics, result.records)
    exit_code = cli.EXIT_NO_ESCAPE if result.diagnostics else cli.EXIT_OK
    return [hashlib.sha256(metrics.read_bytes()).hexdigest(), state_sha256(result.final_state),
            exit_code]


@pytest.mark.parametrize("name", sorted(PINS["episodes"]))
def test_episode_matches_pinned_digests(name, tmp_path):
    workload, index = EPISODES[name]
    _, raw = episode(workload, PINS["pinned_seed"], index, ROOT)
    assert episode_digests(raw, tmp_path) == PINS["episodes"][name]
