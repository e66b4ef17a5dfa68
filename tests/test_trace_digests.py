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
    "aisles-22x12-a4-s0-f0": "ec2568d3e7fd33deb817342977cac9c6538341c75fa0f34c58dd2a2e2f657ab8",
    "aisles-22x12-a4-s0-f1": "d07628159c26f3d3c9ebe2e2694445f306fe411d15befe5c301f13a026b7fbc9",
    "aisles-22x12-a4-s0-f2": "6a4e14bc21c256ec4e3673b731d4d9486f82659504f519f27e7a6280f0dbc742",
    "aisles-22x12-a4-s0-f3": "d85ae06778379cc0e1f3254ad5279acdd99b0dc148b4027b147b59a4a2f2c8c4",
    "aisles-22x12-a4-s0-f4": "7fef1cba16a87651ab8ae9a61530344ba75616a09ca58b7652b85bd41ce0559d",
    "aisles-22x12-a4-s0-f5": "a6f0bbfbbcdf7ac71563ff9c84a1d00d7b3f124c5d8d6d8f91fa452916e49868",
    "aisles-22x12-a4-s0-f6": "3dacb39ac7bbd8b63a2331441008f33afdb4dccde8de4957dff4080d0db24bbf",
    "aisles-22x12-a4-s0-f7": "042722f8804cd416c6e24da80624d53833af75143323498f2b33b8c8b24631d6",
    "corridor/off": "85fa8e6d6060df433156355c46a5611b51de751e7097e3010a3d7d0720b82f93",
    "corridor/on": "a6c99714ae9400b70970073bca85e1f3bd81e650065b4c9b7ae1a0f634960321",
    "open_floor/off": "74ab58b663252c3f092c7c663fa717d25081c45938a45ab68c7704f6df2d65ec",
    "open_floor/on": "74ab58b663252c3f092c7c663fa717d25081c45938a45ab68c7704f6df2d65ec",
    "walled_trap/off": "7ea59a5210f5137a94eb15e3d3c6ed3be0dca478ae6336910d1dc3dc2cecc6a8",
    "walled_trap/on": "2ab6c7458b5ffdd46c2c13e9e48145c3a179a25fe9eeda09c6d6aff1172a1741",
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
