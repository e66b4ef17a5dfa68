"""The benchmark's workloads and the episode stream each one runs.

An episode is one scenario dict run from parse to written outputs.  Episode
`index` of a workload is a pure function of (workload, seed, index), so two
processes walking the same stream see the same inputs.  This module must not
import `mlsim`: bench/run.py imports it without `src` on its path.
"""

from __future__ import annotations

import json
from pathlib import Path

from floors import generate_floor

WORKLOADS = {
    "open-fleet": {
        "why": "open 12x8 floor, 6 AGVs, fields reach every cell: field sensing (desired_move, "
               "bfs_distances) dominates; memo or adjacency work shows, planner work barely does",
        "floor": {
            "layout": "open", "width": 12, "height": 8, "agvs": 6, "tasks": 18, "shops": 6,
            "ticks": 24, "params": {"window": 20, "attract": 20},
        },
        "cycle": 5,
        "trace": False,
    },
    "aisle-standoffs": {
        "why": "22x12 one-lane rack aisles, 4 AGVs, default fields: head-on standoffs keep "
               "spawning solvers, whose bfs_path planning makes the p90 tick spikes",
        "floor": {
            "layout": "aisles", "width": 22, "height": 12, "agvs": 4, "tasks": 12, "shops": 7,
            "ticks": 36, "params": {},
        },
        # Floors differ a lot, so every run measures the same eight and only
        # the number of repeats depends on the host's speed.
        "cycle": 8,
        "trace": True,
    },
    "fixtures": {
        "why": "the 3 bundled fixtures x control off/on, outputs written as mlsim run does: tiny "
               "floors where engine bookkeeping, reactions, observers and trace writing dominate",
        "fixtures": ["corridor", "open_floor", "walled_trap"],
        "trace": True,
    },
}

# `mlsim compare` verdicts the README documents for the bundled fixtures.
FIXTURE_VERDICTS = {
    "corridor": "control resolves deadlock; all tasks delivered",
    "open_floor": "no deadlock in either mode",
    "walled_trap": "unresolvable deadlock under control=on (no escape path)",
}


def fixture_path(root: Path, fixture: str) -> Path:
    return root / "scenarios" / f"{fixture}.json"


def _cases(spec: dict) -> list:
    return [(f, control) for f in spec["fixtures"] for control in (False, True)]


def round_size(workload: str) -> int:
    """Episodes per round: one pass over the cycled floors or the fixture
    cases.  Runs stop only between rounds, so every episode of a workload is
    measured, and equally often."""
    spec = WORKLOADS[workload]
    return spec["cycle"] if "floor" in spec else len(_cases(spec))


def episode(workload: str, seed: int, index: int, root: Path) -> tuple[str, dict]:
    """(episode name, raw scenario dict) for episode `index` of the stream.

    Generated floors carry the seed in their name; a fixture case does not,
    because its outputs do not depend on the seed (jitter is off).
    """
    spec = WORKLOADS[workload]
    if "floor" in spec:
        raw = generate_floor(seed=seed, index=index % spec["cycle"], **spec["floor"])
        return raw["name"], raw
    cases = _cases(spec)
    fixture, control = cases[index % len(cases)]
    raw = json.loads(fixture_path(root, fixture).read_text())
    raw["control"] = control
    raw.setdefault("run", {})["seed"] = seed
    return f"{fixture}/{'on' if control else 'off'}", raw
