"""Helpers several test modules share; the program itself has no use for them."""

import json

from mlsim.engine import ReactionResult
from mlsim.fms.model import FLOOR, TASKS, FloorView, FmsParams
from mlsim.state import ORDINARY, Body, Influence, LevelState, body_key


def influence(kind, target_level, producer, uid, klass=ORDINARY, **payload) -> Influence:
    """An influence built by hand, with `uid` as its id and the keyword
    arguments as its payload."""
    return Influence(
        id=uid,
        kind=kind,
        target_level=target_level,
        producer=producer,
        payload=payload,
        klass=klass,
    )


def identity_reaction(level, sigma, influences, ctx) -> ReactionResult:
    """Keep the properties, persist nothing."""
    return ReactionResult(sigma=sigma)


def sensed_ties(grid, shops, attract, repulsors=(), repulse=0) -> dict:
    """Free cell -> what `FloorView.sense` gives an idle AGV with repulsion
    off standing there, (cell, ties): the field law read at every free cell,
    with an emitting shop pulling at `attract` on each cell of `shops` and
    an AGV with repulsion on pushing at `repulse` on each of `repulsors`."""
    agvs = {f"pushing{i}": (cell, True) for i, cell in enumerate(repulsors)}
    agvs.update({f"probe{cell}": (cell, False) for cell in grid.free_cells()})
    floor = LevelState(FLOOR, {
        body_key(aid): Body(FLOOR, {"type": "agv", "cell": cell, "assigned": None,
                                    "repulsion_on": on})
        for aid, (cell, on) in agvs.items()
    })
    tasks = LevelState(TASKS, {
        body_key(f"shop{i}"): Body(TASKS, {"type": "shop", "cell": cell, "emitting": True})
        for i, cell in enumerate(shops)
    })
    sensed = FloorView(grid, FmsParams(attract=attract, repulse=repulse), floor, tasks).sense()
    return {cell: sensed[f"probe{cell}"] for cell in grid.free_cells()}


def field_ties(grid, field) -> dict:
    """Free cell -> (cell, ties) of a field of values by free cell: the
    neighbors of the largest value, in sorted order, when it is larger than
    the cell's own, else no ties."""
    out = {}
    for cell, candidates in grid.adjacency.items():
        best = max((field[c] for c in candidates), default=field[cell])
        out[cell] = (cell, [c for c in candidates if field[c] == best]
                     if best > field[cell] else ())
    return out


def record_rows(record) -> list:
    """One step's trace rows, from its record `(tick, influences,
    inhibitions, events)` (`StepInfo.record`): an influence row per (level,
    id, kind, class, producer), an inhibition row per (level, constraint id,
    inhibited ids), then a row per reaction event, in the order given."""
    tick, influences, inhibitions, events = record
    rows = [{"tick": tick, "level": level, "event": "influence",
             "payload": {"id": inf_id, "kind": kind, "class": klass, "producer": producer}}
            for level, inf_id, kind, klass, producer in influences]
    rows += [{"tick": tick, "level": level, "event": "inhibition",
              "payload": {"constraint": constraint_id, "inhibited": list(inhibited)}}
             for level, constraint_id, inhibited in inhibitions]
    rows += [{"tick": tick, "level": level, "event": name, "payload": payload}
             for level, name, payload in events]
    return rows


def tail_records(trace) -> list:
    """The records of a run trace's frozen tail, one per tick."""
    held = trace.held
    return [] if held is None else [held.record(tick) for tick in range(held.first, trace.end)]


def trace_rows(trace) -> list:
    """Every row of a run's `Trace`: its stepped ticks', then its tail's."""
    return [row for record in trace.steps + tail_records(trace) for row in record_rows(record)]


def dumped_trace(rows) -> str:
    """The trace file of `rows` as `json.dumps` writes each row, the rows
    in (tick, level) order, stably: a level's influence, inhibition and
    event rows keep the order they are given in."""
    rows = sorted(rows, key=lambda r: (r["tick"], r["level"]))
    return "".join(json.dumps(row, sort_keys=True, default=str) + "\n" for row in rows)
