"""Trace digests: the JSONL trace of every traced benchmark episode, pinned.

bench/digests.json pins metrics, final state and exit code, not the trace.
The two traced workloads are the six fixture cases and the eight
aisle-standoffs floors; each is run at seed 0 through parse -> build -> run
with `collect_trace=True`, written with `cli.write_trace`, and its sha256
compared with the pin below.  A change to how trace rows are built, ordered
or encoded shows up here.  The file written from the run's trace, whose
frozen spans are written from their held step, must equal per-row
`json.dumps` of its rows.
"""

import hashlib

import pytest

from mlsim import cli
from mlsim.engine import run
from mlsim.fms.model import SafetyChecker, all_tasks_delivered, fms_metrics
from mlsim.scenario import build, parse_scenario_dict

from support import dumped_trace, trace_rows
from test_golden_digests import ROOT, episode

TRACE_PINS = {
    "aisles-22x12-a4-s0-f0": "739d145916634b1413881f598d0402cce31aa7b2ac121525e9bfa7ae24490ae1",
    "aisles-22x12-a4-s0-f1": "0ec494ce0e3b79d90f854ec2e7611d1d3590e3202434ea0f5c1057b76cdc2d4c",
    "aisles-22x12-a4-s0-f2": "d0ad0969d7f01ce002d7db5d4b8c86c96d3aefdb9951bc9a592d48e81c99fbc4",
    "aisles-22x12-a4-s0-f3": "234301476fa3808f2d6e24b19a6321070af25c5123784e490ddee569a52d3be6",
    "aisles-22x12-a4-s0-f4": "7e7a8a89d21cac75d7fa2c574747a6c6807e5f81600bc6801da7b9209ae75dbd",
    "aisles-22x12-a4-s0-f5": "8af78056ecb446e7f6677273a11fc86c578a7041610d66b1d3279c17f66c9ddf",
    "aisles-22x12-a4-s0-f6": "f273da441d6b041ecaf48d978b4d999150b61fcdf8aac45d2dad4157b3163aed",
    "aisles-22x12-a4-s0-f7": "c579bc0c38b2482f70cf40e4c46cd1e4c57dbeab0059df4fdfe33cfd34aba332",
    "corridor/off": "bcd9e0cdf2e550536efcc171b4559725e5216a4db885ee7f56113ca71947054d",
    "corridor/on": "c84846c20e5c71db50aaec441792c151c52df503b05c3a919b283f176502d33e",
    "open_floor/off": "581befb2312a96b5dee16636169fe7d58bf8049401b71b385c6cfbdf1844a120",
    "open_floor/on": "581befb2312a96b5dee16636169fe7d58bf8049401b71b385c6cfbdf1844a120",
    "walled_trap/off": "7e4a1f85bbe215e235902a7df01526b6020d4debeb66ad4fc145bb90e33d6bb3",
    "walled_trap/on": "fb2b7d11461aa191fdbda106d54c93c4f5a2f336429190719666fe22e9c6345c",
}

AISLE_FLOORS = 8


def traced_episodes():
    """(episode name, raw scenario dict) of every traced episode at seed 0."""
    out = [episode("fixtures", 0, index, ROOT) for index in range(6)]
    out += [episode("aisle-standoffs", 0, index, ROOT) for index in range(AISLE_FLOORS)]
    return dict(out)


EPISODES = traced_episodes()


def trace_sha256(raw, tmp_path):
    """The sha256 of the episode's trace file.  The run's trace is written
    by spans; it must give per-row `json.dumps` of its rows, and count them
    without building them."""
    spec = parse_scenario_dict(raw)
    model, state = build(spec)
    result = run(
        model, state, ticks=spec.run_params["ticks"], seed=spec.run_params["seed"],
        observers=(SafetyChecker(spec.grid),), metrics=fms_metrics,
        termination=all_tasks_delivered, collect_trace=True,
    )
    path = tmp_path / "trace.jsonl"
    cli.write_trace(path, result.trace)
    rows = trace_rows(result.trace)
    assert path.read_text() == dumped_trace(rows)
    assert len(result.trace) == len(rows)
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_every_traced_episode_is_pinned():
    assert sorted(EPISODES) == sorted(TRACE_PINS)
    assert len(TRACE_PINS) == 6 + AISLE_FLOORS


@pytest.mark.parametrize("name", sorted(TRACE_PINS))
def test_trace_matches_pinned_digest(name, tmp_path):
    assert trace_sha256(EPISODES[name], tmp_path) == TRACE_PINS[name]
