"""Outside-in span tracer for the traced benchmark run.

Nothing in `mlsim` knows about it.  `Tracer.install` rebinds public entry
points on the `mlsim` modules (every module-level alias of the function, so a
call through any module's globals is seen); `Tracer.instrument` wraps the
producer and reaction entries of one freshly built `Model`.  An entry point
that no longer exists is recorded in `absent` instead of failing, so the
traced run survives refactors and reports those layers as absent.

Spans (name, start, end, parent, tick) are kept in flat arrays in memory and
written out by `write`.  A span's self time is its duration minus the
durations of its direct children.
"""

from __future__ import annotations

import dataclasses
import importlib
import sys
from array import array
from collections import Counter
from time import perf_counter

# (module, attribute, span name) of each rebound entry point.
ENTRY_POINTS = (
    ("mlsim.engine", "produce_influences", "engine.produce"),
    ("mlsim.engine", "react", "engine.react"),
    ("mlsim.hierarchy", "apply_constraints", "hierarchy.apply_constraints"),
    ("mlsim.fms.model", "desired_move", "model.desired_move"),
    ("mlsim.fms.grid", "bfs_distances", "grid.bfs_distances"),
    ("mlsim.fms.grid", "bfs_path", "grid.bfs_path"),
    ("mlsim.cli", "write_metrics", "cli.write_metrics"),
    ("mlsim.cli", "write_trace", "cli.write_trace"),
)

CALLERS = ("model.agv", "model.detector")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_tick = array("i")
        self.stack: list[int] = []
        self.tick = 0
        self.counts: Counter = Counter()
        self.absent: set[str] = set()
        self._undo: list = []

    # --- recording ---------------------------------------------------------

    def wrap(self, name: str, fn, before=None, after=None):
        """`fn` recorded as span `name`; `before(args)` runs first,
        `after(result)` on the result."""
        name_id = self._name_ids.setdefault(name, len(self._name_ids))
        if name_id == len(self.names):
            self.names.append(name)

        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            idx = len(self.span_start)
            self.span_name.append(name_id)
            self.span_parent.append(self.stack[-1] if self.stack else -1)
            self.span_tick.append(self.tick)
            self.span_end.append(0.0)
            self.stack.append(idx)
            self.span_start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.span_end[idx] = perf_counter()
                self.stack.pop()
            if after is not None:
                after(result)
            return result

        return traced

    def _count(self, key, amount=1):
        self.counts[key] += amount

    def _next_tick(self, args):
        self.tick += 1
        self.counts["ticks"] += 1

    def _desired_move_caller(self, args):
        self.counts["model.desired_move.calls"] += 1
        for idx in reversed(self.stack):
            caller = self.names[self.span_name[idx]]
            if caller in CALLERS:
                self.counts[f"model.desired_move.from.{caller}"] += 1
                return

    def _influences(self, produced):
        per_level = getattr(produced, "per_level", None)
        if per_level is None:
            self.absent.add("engine.influences")
        else:
            self._count("engine.influences", sum(len(group) for group in per_level.values()))

    def _constraints(self, result):
        log = result[1]
        self._count("hierarchy.constraints", len(log))
        self._count("hierarchy.inhibiting", sum(1 for r in log if getattr(r, "inhibited_ids", ())))

    def _reaction(self, result):
        self._count("hierarchy.solvers_spawned", len(getattr(result, "spawn", ())))

    # --- installation ------------------------------------------------------

    def install(self):
        hooks = {
            "engine.produce": (self._next_tick, self._influences),
            "hierarchy.apply_constraints": (None, self._constraints),
            "model.desired_move": (self._desired_move_caller, None),
            "grid.bfs_distances": (None, lambda d: self._count("grid.bfs_cells", len(d))),
            "cli.write_trace": (lambda args: self._count("cli.trace_rows", len(args[1])), None),
        }
        for module_name, attr, name in ENTRY_POINTS:
            original = getattr(importlib.import_module(module_name), attr, None)
            if original is None:
                self.absent.add(name)
                continue
            before, after = hooks.get(name, (None, None))
            traced = self.wrap(name, original, before, after)
            for module in list(sys.modules.values()):
                if not getattr(module, "__name__", "").startswith("mlsim"):
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, traced)
                        self._undo.append((module, key, original))

    def uninstall(self):
        for module, key, original in reversed(self._undo):
            setattr(module, key, original)
        self._undo.clear()

    def instrument(self, model, agv_ids, shop_ids):
        """Wrap the behavior, detector and reaction entries of one model."""
        proxies: dict = {}

        def proxy(rule, name):
            if id(rule) not in proxies:
                try:
                    proxies[id(rule)] = _TracedBehavior(rule, name, self)
                except AttributeError:
                    self.absent.add(name)
                    proxies[id(rule)] = rule
            return proxies[id(rule)]

        behaviors = getattr(model, "behaviors", None)
        if behaviors is None:
            self.absent.update({"model.agv", "model.shop"})
        else:
            for agent_id, rule in list(behaviors.items()):
                if agent_id in agv_ids:
                    behaviors[agent_id] = proxy(rule, "model.agv")
                elif agent_id in shop_ids:
                    behaviors[agent_id] = proxy(rule, "model.shop")
        dynamic = getattr(model, "dynamic_behaviors", None)
        if dynamic is None:
            self.absent.add("model.solver")
        else:
            for kind, rule in list(dynamic.items()):
                dynamic[kind] = proxy(rule, f"model.{kind}")
        detectors = getattr(model, "detectors", None)
        if detectors is None:
            self.absent.add("model.detector")
        else:
            for name, detector in list(detectors.items()):
                try:
                    detectors[name] = dataclasses.replace(
                        detector, rule=self.wrap("model.detector", detector.rule)
                    )
                except (TypeError, AttributeError):
                    self.absent.add("model.detector")
        reactions = getattr(model, "reactions", None)
        if reactions is None:
            self.absent.update({"model.floor_reaction", "model.tasks_reaction",
                                "model.control_reaction"})
        else:
            for level, rule in list(reactions.items()):
                reactions[level] = self.wrap(f"model.{level}_reaction", rule, after=self._reaction)

    # --- results -----------------------------------------------------------

    def totals(self) -> dict:
        """span name -> {"calls", "total_s", "self_s"}."""
        n = len(self.span_start)
        duration = [self.span_end[i] - self.span_start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            parent = self.span_parent[i]
            if parent >= 0:
                child[parent] += duration[i]
        out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in self.names}
        for i in range(n):
            entry = out[self.names[self.span_name[i]]]
            entry["calls"] += 1
            entry["total_s"] += duration[i]
            entry["self_s"] += duration[i] - child[i]
        return out

    def write(self, path):
        """All spans as tab-separated (name, start, end, parent, tick) rows."""
        with open(path, "w") as fh:
            fh.write("name\tstart\tend\tparent\ttick\n")
            for i in range(len(self.span_start)):
                fh.write(
                    f"{self.names[self.span_name[i]]}\t{self.span_start[i]!r}\t"
                    f"{self.span_end[i]!r}\t{self.span_parent[i]}\t{self.span_tick[i]}\n"
                )


class _TracedBehavior:
    """Stands in for a behavior rule; each of its three stages is a span."""

    def __init__(self, rule, name, tracer: Tracer):
        self._rule = rule
        for stage in ("perceive", "memorize", "decide"):
            setattr(self, stage, tracer.wrap(name, getattr(rule, stage)))

    def __getattr__(self, attr):
        return getattr(self._rule, attr)
