"""Trace digests: the JSONL trace of every traced benchmark episode, pinned.

bench/digests.json pins metrics, final state and exit code, not the trace.
The two traced workloads are the six fixture cases and the eight
aisle-standoffs floors; each is run at seed 0 through parse -> build -> run
with `collect_trace=True`, written with `cli.write_trace`, and its sha256
compared with the pin below.  A change to how trace rows are built, ordered
or encoded shows up here.
"""

import hashlib

import pytest

from mlsim import cli
from mlsim.engine import run
from mlsim.fms.model import SafetyChecker, all_tasks_delivered, fms_metrics
from mlsim.scenario import build, parse_scenario_dict

from test_golden_digests import ROOT, episode

TRACE_PINS = {
    "aisles-22x12-a4-s0-f0": "ee9431c6860e7f9258717707d985852a79914879b28b1506053136f9ced740d7",
    "aisles-22x12-a4-s0-f1": "55b80c2bb16670d52ebc950906ed865e94cd26ba81b2fe6849eb4f6a3d067546",
    "aisles-22x12-a4-s0-f2": "873f0d4e84da29c9c68f3357a6484d6717b3fb5cb92f7f64bc53b0b2a60813f4",
    "aisles-22x12-a4-s0-f3": "e24211464c55597ccc626659f1ab8f410602009574706bf76c12a85ccd1826e2",
    "aisles-22x12-a4-s0-f4": "10f5a781473aaa8cc91aea8d1e77af731f54a8618be1e75f2bcc3b33cf0362fd",
    "aisles-22x12-a4-s0-f5": "5b036ea3ab47ff42517be1d16302aba346d3eb55b9dd2dd90ec8680b3c8efad8",
    "aisles-22x12-a4-s0-f6": "ce34f89a998544ab6eb04db680e04267cd685cfbc6595504f0a65836ca5633f4",
    "aisles-22x12-a4-s0-f7": "cf7890e91567d5e8d444ce0ed9e4738170b8b41b874f9a701f6443310185782a",
    "corridor/off": "10b86293cb187d32bd1209a5a93c968849ac896ca7fdf8cf575b494c7bda1935",
    "corridor/on": "55f86e6226c2fb211f94c80ea643e99350896c2fdbb25096cc3278f103bb834a",
    "open_floor/off": "c5a5ed8704b36bc8774612bc4bd2493b6ec442f5233171ae7c74c448c6c5c7c0",
    "open_floor/on": "c5a5ed8704b36bc8774612bc4bd2493b6ec442f5233171ae7c74c448c6c5c7c0",
    "walled_trap/off": "060d3b5f8c9c763f1db015a5954cf2a8cd4a7ebcecf5c0b3dc99165857ca6c2c",
    "walled_trap/on": "a929f2326ea9e3edac06a6cf72888e4f360a8c5f7e3bb467a26b37498e7f97b9",
}

AISLE_FLOORS = 8


def traced_episodes():
    """(episode name, raw scenario dict) of every traced episode at seed 0."""
    out = [episode("fixtures", 0, index, ROOT) for index in range(6)]
    out += [episode("aisle-standoffs", 0, index, ROOT) for index in range(AISLE_FLOORS)]
    return dict(out)


EPISODES = traced_episodes()


def trace_sha256(raw, tmp_path):
    spec = parse_scenario_dict(raw)
    model, state = build(spec)
    result = run(
        model, state, ticks=spec.run_params["ticks"], seed=spec.run_params["seed"],
        observers=(SafetyChecker(spec.grid),), metrics=fms_metrics,
        termination=all_tasks_delivered, collect_trace=True,
    )
    path = tmp_path / "trace.jsonl"
    cli.write_trace(path, result.trace)
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_every_traced_episode_is_pinned():
    assert sorted(EPISODES) == sorted(TRACE_PINS)
    assert len(TRACE_PINS) == 6 + AISLE_FLOORS


@pytest.mark.parametrize("name", sorted(TRACE_PINS))
def test_trace_matches_pinned_digest(name, tmp_path):
    assert trace_sha256(EPISODES[name], tmp_path) == TRACE_PINS[name]
