"""Deterministic shop-floor generator for the benchmark workloads.

A floor is a scenario dict in the format `mlsim.scenario.parse_scenario_dict`
accepts.  It is a pure function of (layout, width, height, #AGVs, #tasks,
seed, index): the same arguments give the same dict in every process, whatever
PYTHONHASHSEED is, because all randomness comes from a `random.Random` seeded
with an integer derived through sha256.

Layouts:

* ``open``   - no walls; shops on the border, AGVs anywhere else.
* ``aisles`` - one-cell racks in every odd column, so the even columns are
  one-lane aisles, joined by a cross-aisle along the top and the bottom row.
  Shops stand in the middle of the aisles, so opposing AGVs meet head-on in
  lanes they cannot pass in.
"""

from __future__ import annotations

import hashlib
import random

LAYOUTS = ("open", "aisles")


def _rng(*key) -> random.Random:
    digest = hashlib.sha256(repr(key).encode()).hexdigest()
    return random.Random(int(digest[:16], 16))


def _blocked(layout: str, width: int, height: int) -> list:
    if layout == "open":
        return []
    if layout == "aisles":
        if height < 3:
            raise ValueError("aisles layout needs height >= 3")
        return [[x, y] for y in range(1, height - 1) for x in range(1, width, 2)]
    raise ValueError(f"unknown layout {layout!r}; expected one of {LAYOUTS}")


def _shop_cells(layout: str, width: int, height: int) -> list:
    if layout == "open":
        border = [(x, 0) for x in range(width)] + [(x, height - 1) for x in range(width)]
        border += [(0, y) for y in range(1, height - 1)]
        border += [(width - 1, y) for y in range(1, height - 1)]
        return border
    # One pick station in the middle of each aisle.
    return [(x, height // 2) for x in range(0, width, 2)]


def generate_floor(layout: str, width: int, height: int, agvs: int, tasks: int,
                   shops: int, seed: int, index: int = 0, ticks: int = 100,
                   params: dict | None = None) -> dict:
    """One scenario dict; `index` selects a floor within the seed's family."""
    rng = _rng("mlsim-bench-floor", layout, width, height, agvs, tasks, shops, seed, index)
    blocked = _blocked(layout, width, height)
    blocked_set = {tuple(c) for c in blocked}
    shop_cells = sorted(rng.sample(_shop_cells(layout, width, height), shops))
    taken = set(shop_cells)
    free = [
        (x, y)
        for y in range(height)
        for x in range(width)
        if (x, y) not in blocked_set and (x, y) not in taken
    ]
    agv_cells = rng.sample(free, agvs)
    shop_ids = [f"shop-{i:02d}" for i in range(shops)]
    task_list = []
    for i in range(tasks):
        source, dest = rng.sample(shop_ids, 2)
        task_list.append({"id": f"t-{i:03d}", "source": source, "dest": dest})
    return {
        "name": f"{layout}-{width}x{height}-a{agvs}-s{seed}-f{index}",
        "grid": {"width": width, "height": height, "blocked": blocked},
        "shops": [{"id": sid, "cell": list(c)} for sid, c in zip(shop_ids, shop_cells)],
        "agvs": [{"id": f"agv-{i:02d}", "cell": list(c)} for i, c in enumerate(agv_cells)],
        "tasks": task_list,
        "params": dict(params or {}),
        "control": True,
        "run": {"ticks": ticks, "seed": seed, "termination": "all-delivered"},
    }
