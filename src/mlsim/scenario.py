"""Declarative scenario files (JSON): parsing, validation, model building.

A scenario fully describes one runnable system: the level graph, per-level
producible kinds, emergence/constraint declarations, the grid world with its
shops/AGVs/tasks, field parameters, the control flag, and run parameters.
Validation reports *all* problems, each tagged with a stable error code so
tooling (and the negative-fixture suite) can assert on the failure class.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property

from .errors import EmptyLevelSet, ScenarioError, UnknownLevelEndpoint
from .fms.grid import GridMap
from .fms.model import (
    CONTROL,
    FLOOR,
    LEVEL_EDGES,
    TASKS,
    FmsParams,
    build_fms_model,
    build_initial_state,
)
from .levels import LevelGraphSpec, validate as validate_graph

KNOWN_DETECTORS = ("deadlock-detector",)
KIND_CLASSES = ("ordinary", "constraint", "emergence")
TERMINATION_PREDICATES = ("all-delivered", "none")


@dataclass(frozen=True)
class Issue:
    code: str
    message: str

    def __str__(self):
        return f"[{self.code}] {self.message}"


def default_scenario_dict() -> dict:
    return {
        "name": "unnamed",
        "levels": [FLOOR, TASKS, CONTROL],
        "influence_edges": [list(e) for e in LEVEL_EDGES],
        "perception_edges": [list(e) for e in LEVEL_EDGES],
        "kinds": {
            FLOOR: {
                "ordinary": ["move", "forced-move", "emit-repulsion", "assign-task"],
                "constraint": ["inhibit-move", "inhibit-repulsion"],
                "emergence": [],
            },
            TASKS: {
                "ordinary": ["can-serve", "need-transport", "task-picked", "task-delivered"],
                "constraint": [],
                "emergence": [],
            },
            CONTROL: {
                "ordinary": ["deadlock-resolved", "deadlock-unresolvable"],
                "constraint": [],
                "emergence": ["deadlock"],
            },
        },
        "couplings": [
            {"micro": FLOOR, "macro": TASKS},
            {"micro": FLOOR, "macro": CONTROL},
        ],
        "emergences": [
            {"kind": "deadlock", "macro_level": CONTROL, "detector": "deadlock-detector"}
        ],
        "constraints": [
            {"kind": "inhibit-move", "micro_level": FLOOR, "inhibits": "move"},
            {"kind": "inhibit-repulsion", "micro_level": FLOOR, "inhibits": "emit-repulsion"},
        ],
        "environments": [{"id": "shop-floor", "levels": [FLOOR]}],
        "grid": {"width": 1, "height": 1, "blocked": []},
        "shops": [],
        "agvs": [],
        "tasks": [],
        "params": {
            "attract": 16,
            "repulse": 4,
            "window": 6,
            "clearance": 3,
            "jitter": False,
        },
        "control": True,
        "run": {"ticks": 100, "seed": 0, "termination": "all-delivered"},
    }


@dataclass(frozen=True)
class ScenarioSpec:
    data: dict = field(default_factory=default_scenario_dict)

    @property
    def name(self):
        return self.data["name"]

    @property
    def control(self) -> bool:
        return bool(self.data["control"])

    @property
    def run_params(self) -> dict:
        return self.data["run"]

    @property
    def params(self) -> FmsParams:
        p = self.data["params"]
        return FmsParams(
            attract=p["attract"],
            repulse=p["repulse"],
            window=p["window"],
            clearance=p["clearance"],
            jitter=bool(p["jitter"]),
        )

    @cached_property
    def grid(self) -> GridMap:
        """One grid per spec, so its distance table is shared by every reader."""
        g = self.data["grid"]
        return GridMap(
            width=g["width"],
            height=g["height"],
            blocked=frozenset(tuple(c) for c in g["blocked"]),
        )

    def to_dict(self) -> dict:
        return json.loads(json.dumps(self.data))

    def to_json(self) -> str:
        return json.dumps(self.data, indent=2, sort_keys=True)


def _merge_defaults(data: dict) -> dict:
    merged = default_scenario_dict()
    for key, value in data.items():
        if key in ("kinds", "grid", "params", "run") and isinstance(value, dict):
            base = merged[key]
            if key == "kinds":
                merged[key] = {
                    lvl: {cls: spec.get(cls, []) for cls in KIND_CLASSES}
                    if isinstance(spec, dict) else spec
                    for lvl, spec in value.items()
                }
            else:
                base = dict(base)
                base.update(value)
                merged[key] = base
        else:
            merged[key] = value
    return merged


def _level_kinds(kinds: dict) -> dict:
    """Flattened producible-kind set per level."""
    return {
        lvl: frozenset(k for cls in KIND_CLASSES for k in spec.get(cls, []))
        for lvl, spec in kinds.items()
    }


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_cell(value) -> bool:
    return isinstance(value, (list, tuple)) and len(value) == 2 and all(map(_is_int, value))


def _is_str_list(value) -> bool:
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


# Sections that hold one object each, and lists of objects with the name
# fields the checks compare or hash: a name is a string or absent (the
# reference checks report it missing), and every id must be present.
OBJECT_SECTIONS = ("grid", "params", "run", "kinds")
OBJECT_LISTS = {
    "shops": ("id",),
    "agvs": ("id",),
    "tasks": ("id", "source", "dest"),
    "couplings": ("micro", "macro"),
    "emergences": ("kind", "macro_level"),
    "constraints": ("kind", "micro_level", "inhibits"),
}


def _structure_issues(data: dict) -> list[Issue]:
    """Shape checks every other check relies on: each section of the right
    JSON type, each list item an object, each compared name a string."""
    issues = []

    def expect(path, what, value):
        issues.append(Issue("value", f"{path} must be {what}, got {value!r}"))

    for key in OBJECT_SECTIONS:
        if not isinstance(data.get(key), dict):
            expect(key, "an object", data.get(key))
    if isinstance(data.get("grid"), dict) and not isinstance(data["grid"].get("blocked"), list):
        expect("grid.blocked", "a list", data["grid"].get("blocked"))
    for lvl, spec in data["kinds"].items() if isinstance(data.get("kinds"), dict) else ():
        lists = spec.values() if isinstance(spec, dict) else [None]
        if not all(map(_is_str_list, lists)):
            expect(f"kinds.{lvl}", "an object of kind-name lists", spec)
    if not _is_str_list(data.get("levels")):
        expect("levels", "a list of level names", data.get("levels"))
    for key in ("influence_edges", "perception_edges"):
        edges = data.get(key)
        if not (isinstance(edges, list) and all(_is_str_list(e) and len(e) == 2 for e in edges)):
            expect(key, "a list of [from, to] level-name pairs", edges)
    for key, names in OBJECT_LISTS.items():
        items = data.get(key)
        if not isinstance(items, list):
            expect(key, "a list", items)
            continue
        for i, item in enumerate(items):
            if not isinstance(item, dict):
                expect(f"{key}[{i}]", "an object", item)
                continue
            for name in names:
                value = item.get(name)
                if not isinstance(value, str) and (value is not None or name == "id"):
                    expect(f"{key}[{i}].{name}", "a string", value)
    return issues


# Field parameters: the least value each integer parameter may take.
INT_PARAM_MINIMUM = {"attract": 0, "repulse": 0, "window": 1, "clearance": 1}


def _value_issues(data: dict) -> list[Issue]:
    """Type and range checks on the numbers the model computes with."""
    issues = []
    params, grid, run = data.get("params", {}), data.get("grid", {}), data.get("run", {})
    for name, least in INT_PARAM_MINIMUM.items():
        value = params.get(name)
        if not _is_int(value) or value < least:
            issues.append(Issue("value", f"params.{name} must be an integer >= {least}, got {value!r}"))
    for path, value in (("params.jitter", params.get("jitter")), ("control", data.get("control"))):
        if not isinstance(value, bool):
            issues.append(Issue("value", f"{path} must be a boolean, got {value!r}"))
    for path, value in (
        ("grid.width", grid.get("width")),
        ("grid.height", grid.get("height")),
        ("run.seed", run.get("seed")),
    ):
        if not _is_int(value):
            issues.append(Issue("value", f"{path} must be an integer, got {value!r}"))
    cells = [("blocked cell", cell) for cell in grid.get("blocked", [])]
    cells += [(f"shop {s.get('id')!r}", s.get("cell")) for s in data.get("shops", [])]
    cells += [(f"AGV {a.get('id')!r}", a.get("cell")) for a in data.get("agvs", [])]
    for owner, cell in cells:
        if not _is_cell(cell):
            issues.append(Issue("value", f"{owner}: a cell must be a pair of integers, got {cell!r}"))
    return issues


def validate_scenario(data: dict) -> list[Issue]:
    issues = _structure_issues(data)
    if issues:
        return issues  # the checks below read the sections this shape promises
    issues += _value_issues(data)
    levels = list(data.get("levels", []))

    try:
        validate_graph(
            LevelGraphSpec.make(
                levels,
                [tuple(e) for e in data.get("influence_edges", [])],
                [tuple(e) for e in data.get("perception_edges", [])],
            )
        )
    except EmptyLevelSet as exc:
        issues.append(Issue("empty-level-set", str(exc)))
    except UnknownLevelEndpoint as exc:
        issues.append(Issue("unknown-level-endpoint", str(exc)))

    kinds = data.get("kinds", {})
    for lvl in kinds:
        if lvl not in levels:
            issues.append(Issue("unknown-level-endpoint", f"kinds declared for unknown level {lvl!r}"))
    producible = _level_kinds(kinds)
    declared_constraints = {c.get("kind") for c in data.get("constraints", [])}

    influence_edges = {tuple(e) for e in data.get("influence_edges", [])}
    for coupling in data.get("couplings", []):
        micro, macro = coupling.get("micro"), coupling.get("macro")
        if micro not in levels or macro not in levels:
            issues.append(
                Issue("unknown-level-endpoint", f"coupling {micro}/{macro} references unknown level")
            )
            continue
        for edge in ((micro, macro), (macro, micro)):
            if edge not in influence_edges:
                issues.append(
                    Issue("coupling-edges", f"coupling {micro}/{macro} requires influence edge {edge}")
                )

    couplings = [
        c for c in data.get("couplings", [])
        if c.get("micro") in levels and c.get("macro") in levels
    ]

    for decl in data.get("emergences", []):
        kind, macro = decl.get("kind"), decl.get("macro_level")
        coupling = next((c for c in couplings if c["macro"] == macro), None)
        if macro not in levels:
            issues.append(Issue("unknown-level-endpoint", f"emergence {kind!r}: unknown level {macro!r}"))
            continue
        if kind not in producible.get(macro, ()):
            issues.append(
                Issue("kind-discipline", f"emergence kind {kind!r} not producible at {macro!r}")
            )
        if kind not in kinds.get(macro, {}).get("emergence", []):
            issues.append(
                Issue("kind-discipline", f"kind {kind!r} must be declared emergence-class at {macro!r}")
            )
        if coupling is not None and kind in producible.get(coupling["micro"], ()):
            issues.append(
                Issue(
                    "kind-discipline",
                    f"emergence kind {kind!r} must not be producible at micro level "
                    f"{coupling['micro']!r}",
                )
            )
        if decl.get("detector") not in KNOWN_DETECTORS:
            issues.append(
                Issue(
                    "emergence-producer",
                    f"emergence {kind!r}: {decl.get('detector')!r} is not a registered "
                    f"detector (behaviors/naturals may not produce emergences)",
                )
            )

    for decl in data.get("constraints", []):
        kind, micro = decl.get("kind"), decl.get("micro_level")
        inhibits = decl.get("inhibits")
        if micro not in levels:
            issues.append(Issue("unknown-level-endpoint", f"constraint {kind!r}: unknown level {micro!r}"))
            continue
        for k in (kind, inhibits):
            if k not in producible.get(micro, ()):
                issues.append(
                    Issue("kind-discipline", f"constraint pair member {k!r} not producible at {micro!r}")
                )
        if kind not in kinds.get(micro, {}).get("constraint", []):
            issues.append(
                Issue("kind-discipline", f"kind {kind!r} must be declared constraint-class at {micro!r}")
            )
        if inhibits in declared_constraints:
            issues.append(
                Issue(
                    "constraint-over-constraint",
                    f"constraint {kind!r} inhibits constraint kind {inhibits!r}",
                )
            )
        coupling = next((c for c in couplings if c["micro"] == micro), None)
        if coupling is not None:
            macro_kinds = producible.get(coupling["macro"], frozenset())
            if kind in macro_kinds and inhibits in macro_kinds:
                issues.append(
                    Issue(
                        "kind-discipline",
                        f"constraint pair {{{inhibits!r}, {kind!r}}} must not belong to "
                        f"macro level {coupling['macro']!r}",
                    )
                )

    # Grid-world checks.
    grid_data = data.get("grid", {})
    width, height = grid_data.get("width", 0), grid_data.get("height", 0)
    grid = None
    if not (_is_int(width) and _is_int(height)):
        pass  # a value issue, reported above
    elif width < 1 or height < 1:
        issues.append(Issue("placement", f"grid must be at least 1x1, got {width}x{height}"))
    else:
        blocked = frozenset(tuple(c) for c in grid_data.get("blocked", []) if _is_cell(c))
        grid = GridMap(width, height, blocked)
        for cell in sorted(blocked):
            if not grid.in_bounds(cell):
                issues.append(Issue("placement", f"blocked cell {cell} out of bounds"))

    ids_seen = set()
    shop_ids = set()
    for shop in data.get("shops", []):
        sid, cell = shop.get("id"), shop.get("cell")
        if sid in ids_seen:
            issues.append(Issue("reference", f"duplicate id {sid!r}"))
        ids_seen.add(sid)
        shop_ids.add(sid)
        if grid is not None and _is_cell(cell) and not grid.is_free(tuple(cell)):
            issues.append(
                Issue("placement", f"shop {sid!r} on blocked or out-of-bounds cell {tuple(cell)}")
            )
    agv_cells = set()
    for agv in data.get("agvs", []):
        aid, cell = agv.get("id"), agv.get("cell")
        if aid in ids_seen:
            issues.append(Issue("reference", f"duplicate id {aid!r}"))
        ids_seen.add(aid)
        if not _is_cell(cell):
            continue
        cell = tuple(cell)
        if grid is not None and not grid.is_free(cell):
            issues.append(Issue("placement", f"AGV {aid!r} on blocked or out-of-bounds cell {cell}"))
        if cell in agv_cells:
            issues.append(Issue("placement", f"two AGVs start on cell {cell}"))
        agv_cells.add(cell)
    task_ids = set()
    for task in data.get("tasks", []):
        tid = task.get("id")
        if tid in task_ids:
            issues.append(Issue("reference", f"duplicate task id {tid!r}"))
        task_ids.add(tid)
        for endpoint in ("source", "dest"):
            if task.get(endpoint) not in shop_ids:
                issues.append(
                    Issue("reference", f"task {tid!r} references unknown shop {task.get(endpoint)!r}")
                )
        if task.get("source") == task.get("dest"):
            issues.append(Issue("reference", f"task {tid!r} has identical source and destination"))

    run = data.get("run", {})
    if not _is_int(run.get("ticks")) or run["ticks"] < 1:
        issues.append(Issue("reference", f"run.ticks must be a positive integer, got {run.get('ticks')!r}"))
    if run.get("termination") not in TERMINATION_PREDICATES:
        issues.append(
            Issue("reference", f"unknown termination predicate {run.get('termination')!r}")
        )

    # The bundled behaviors expect the three standard levels to exist.
    for required in (FLOOR, TASKS, CONTROL):
        if required not in levels:
            issues.append(Issue("reference", f"required level {required!r} missing"))

    return issues


def parse_scenario(path) -> ScenarioSpec:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise ScenarioError([Issue("parse", f"no such file: {path}")]) from None
    except json.JSONDecodeError as exc:
        raise ScenarioError(
            [Issue("parse", f"{path}: line {exc.lineno} col {exc.colno}: {exc.msg}")]
        ) from None
    except (OSError, UnicodeDecodeError) as exc:
        raise ScenarioError([Issue("parse", f"{path}: {exc}")]) from None
    return parse_scenario_dict(raw)


def parse_scenario_dict(raw: dict) -> ScenarioSpec:
    if not isinstance(raw, dict):
        raise ScenarioError(
            [Issue("value", f"a scenario must be a JSON object, got {type(raw).__name__}")]
        )
    data = _merge_defaults(raw)
    issues = validate_scenario(data)
    if issues:
        raise ScenarioError(issues)
    return ScenarioSpec(data)


def apply_overrides(data: dict, overrides: dict) -> dict:
    """Dotted-key overrides (``run.ticks=200``, ``params.jitter=true``);
    values are parsed as JSON when possible, kept as strings otherwise."""
    data = json.loads(json.dumps(data))
    for dotted, raw_value in overrides.items():
        try:
            value = json.loads(raw_value)
        except (json.JSONDecodeError, TypeError):
            value = raw_value
        node = data
        *parents, leaf = dotted.split(".")
        for depth, part in enumerate(parents):
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                path = ".".join(parents[: depth + 1])
                raise ScenarioError(
                    [Issue("value", f"override {dotted!r}: {path} must be an object, got {node!r}")]
                )
        node[leaf] = value
    return data


def build(spec: ScenarioSpec):
    """Instantiate (model, initial state) from a validated scenario."""
    grid = spec.grid
    shops = {s["id"]: tuple(s["cell"]) for s in spec.data["shops"]}
    agvs = {a["id"]: tuple(a["cell"]) for a in spec.data["agvs"]}
    graph = validate_graph(
        LevelGraphSpec.make(
            spec.data["levels"],
            [tuple(e) for e in spec.data["influence_edges"]],
            [tuple(e) for e in spec.data["perception_edges"]],
        )
    )
    model = build_fms_model(
        grid,
        agv_ids=sorted(agvs),
        shop_ids=sorted(shops),
        params=spec.params,
        control=spec.control,
        graph=graph,
    )
    model.producible_kinds = dict(_level_kinds(spec.data["kinds"]))
    state = build_initial_state(grid, agvs, shops, spec.data["tasks"])
    return model, state
