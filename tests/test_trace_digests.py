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
    "aisles-22x12-a4-s0-f0": "59a3e2fc9f6d154b45ca70760f0212068bd3234c99336db87b0d05b6caaa7aa2",
    "aisles-22x12-a4-s0-f1": "fd7e99dfeb4ac5cab6aa5cee2d17955f2b5be44ee9f9b2bab12c00ff823ef96d",
    "aisles-22x12-a4-s0-f2": "27975dc099fe2a2f054e42d4f96414a4f535fa55b4a3551b2a3708e661ed9ab4",
    "aisles-22x12-a4-s0-f3": "d5752947da7c76acd2200a776e6a0b0235b6e0e1141ceed7f7800e7abfe2fffa",
    "aisles-22x12-a4-s0-f4": "b86383855c8ca833e5ae8e104f6d5f1c2ccce830d94f802d9cf977e9d4cfd3c9",
    "aisles-22x12-a4-s0-f5": "ee8b55ddf397d2dcb30f83b32e800397050868585b547cbcbae0a4ec5c00ae9a",
    "aisles-22x12-a4-s0-f6": "919d711d76c4a2cb0cd3125b2d94d4b527dcd57cb374dced402258aab5e05dff",
    "aisles-22x12-a4-s0-f7": "f0e9533891af8f655a2b5d3f0abe3bc23f7e8cdc64489bd1faae64a3a47bb3f6",
    "corridor/off": "97b55ee9787b7160a14a9022534677e01e85f18fe07dad3a6cfdf4d8b78090d2",
    "corridor/on": "b1ddd6ae75624fe91dc88248bac06784cd79ea16220ba62282ec7b83529ccfd2",
    "open_floor/off": "51b12e64161d4c7f9f3fe5dfe6b26fc04e180520427343078dcb6549fa865cd5",
    "open_floor/on": "51b12e64161d4c7f9f3fe5dfe6b26fc04e180520427343078dcb6549fa865cd5",
    "walled_trap/off": "1c4e7c486e01b6761547f63fd9b9f85d9e714ff995b2a780dab9010493685be1",
    "walled_trap/on": "298290cce8a0a28e2c2999a590c4fb4a32263a8095afaaa151f05082d11fc47f",
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
