"""Golden digests with seeded jitter on.

No benchmark workload turns `params.jitter` on, so the pins in
bench/digests.json never exercise the RNG path of `desired_move`.  Jitter
changes every open-fleet floor at seed 0 (it changes nothing on the aisle
floors or the fixtures), so these five episodes are re-run here with
`jitter: true` and pinned the way test_golden_digests.py pins the others:
metrics-CSV sha256, final-state sha256 and exit code.
"""

import sys

import pytest

from test_golden_digests import BENCH, episode_digests

sys.path.insert(0, str(BENCH))  # bench modules import each other by bare name
try:
    from floors import generate_floor
    from workloads import WORKLOADS
finally:
    sys.path.remove(str(BENCH))

JITTER_PINS = {
    0: ["7b988ce9873ac9408f7767b0369abaed6c835133ff24c050e4aecec4aeef5785",
        "82e9ae30e65f9555762ec5f362c0fdd81d7cf7c5e605695f46c1b8cbd818affe", 0],
    1: ["7b988ce9873ac9408f7767b0369abaed6c835133ff24c050e4aecec4aeef5785",
        "5e8441468367068c78e3a13248b0e8ff9f34642597fef259308ec18e967ac428", 0],
    2: ["4a093e0a96fe64299c5aa70da0ddf5b9404144739d3f0ebcd7799c15a18f184e",
        "3a4e109abcbadb5223bb6cdbd064979146a5908fce51a3678180daaa783a4821", 0],
    3: ["0570cc40d0f43a30bd8ffa548401eba718dfe82685cc3d58517577d2d68444d7",
        "6c0af2025e4941c1fdc3aed01f05db44bddb0c900d769b00c32dc857d2b7f799", 0],
    4: ["7b988ce9873ac9408f7767b0369abaed6c835133ff24c050e4aecec4aeef5785",
        "8807e97d78f83ad4ee9aece42358de7ccbae7e063097c8e7acd15e34774070a7", 0],
}


def jitter_floor(index):
    floor = dict(WORKLOADS["open-fleet"]["floor"])
    floor["params"] = dict(floor["params"], jitter=True)
    return generate_floor(seed=0, index=index, **floor)


def test_open_fleet_floor_has_the_pinned_parameters():
    raw = jitter_floor(0)
    assert raw["name"] == "open-12x8-a6-s0-f0"
    assert raw["params"] == {"window": 20, "attract": 20, "jitter": True}


@pytest.mark.parametrize("index", sorted(JITTER_PINS))
def test_jitter_episode_matches_pinned_digests(index, tmp_path):
    assert episode_digests(jitter_floor(index), tmp_path) == JITTER_PINS[index]
