"""Declarative scenario files (JSON): parsing, validation, model building.

A scenario fully describes one runnable system: the level graph, per-level
producible kinds, emergence/constraint declarations, the grid world with its
shops/AGVs/tasks, field parameters, the control flag, and run parameters.
Validation reports *all* problems, each tagged with a stable error code so
tooling (and the negative-fixture suite) can assert on the failure class.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields

from .errors import EmptyLevelSet, Issue, ScenarioError, UnknownLevelEndpoint, Value
from .fms.grid import GridMap
from .fms.model import (
    DETECTORS,
    FMS_DECLARATIONS,
    FMS_GRAPH,
    LEVEL_EDGES,
    LEVELS,
    FmsParams,
    build_fms_model,
    build_initial_state,
    is_solver_id,
)
from .hierarchy import (
    ConstraintKindDecl,
    Declarations,
    EmergenceKindDecl,
    HierarchicalCoupling,
    hierarchy_issues,
)
from .levels import LevelGraphSpec, ValidatedLevelGraph, validate as validate_graph
from .state import REACTION_PRODUCER_PREFIX

KIND_CLASSES = ("ordinary", "constraint", "emergence")
TERMINATION_PREDICATES = ("all-delivered", "none")
# The most cells a grid may have: building a floor's tables is linear in its
# cells, so a larger grid is a `placement` issue, not a run that exhausts
# memory.
MAX_GRID_CELLS = 10**6

# The lists of hierarchy declarations, by JSON key (each a `Declarations`
# field); an item's keys are the field names of its class.
DECLARATION_LISTS = {
    "couplings": HierarchicalCoupling,
    "emergences": EmergenceKindDecl,
    "constraints": ConstraintKindDecl,
}


def default_scenario_dict() -> dict:
    """A scenario declaring the bundled model's hierarchy, on an empty 1x1 grid."""
    decls = FMS_DECLARATIONS
    klass = {(d.macro_level, d.kind): "emergence" for d in decls.emergences}
    klass.update({(d.micro_level, d.kind): "constraint" for d in decls.constraints})
    kinds = {level: {cls: [] for cls in KIND_CLASSES} for level in LEVELS}
    for level, names in decls.producible_kinds.items():
        for kind in sorted(names):
            kinds[level][klass.get((level, kind), "ordinary")].append(kind)
    return {
        "name": "unnamed",
        "levels": list(LEVELS),
        "influence_edges": [list(e) for e in LEVEL_EDGES],
        "perception_edges": [list(e) for e in LEVEL_EDGES],
        "kinds": kinds,
        **{key: [dict(vars(d)) for d in getattr(decls, key)] for key in DECLARATION_LISTS},
        "grid": {"width": 1, "height": 1, "blocked": []},
        "shops": [],
        "agvs": [],
        "tasks": [],
        "params": dict(vars(FmsParams())),
        "control": True,
        "run": {"ticks": 100, "seed": 0, "termination": "all-delivered"},
    }


@dataclass(init=False, repr=False, eq=False)
class ScenarioSpec(Value):
    """A validated scenario, as `parse_scenario_dict` makes it: its data, and
    the level graph, grid and hierarchy declarations its validation made,
    which `build` hands to the model.  One grid per spec, so its distance
    table is shared by every reader."""

    data: dict
    graph: ValidatedLevelGraph = field(compare=False, repr=False)
    grid: GridMap = field(compare=False, repr=False)
    decls: Declarations = field(compare=False, repr=False)

    def __init__(self, data, graph, grid, decls):
        self.__dict__.update(data=data, graph=graph, grid=grid, decls=decls)

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
        return FmsParams(**self.data["params"])


def _merge_defaults(data: dict) -> dict:
    merged = default_scenario_dict()
    for key, value in data.items():
        if key in ("kinds", "grid", "params", "run") and isinstance(value, dict):
            base = merged[key]
            if key == "kinds":
                merged[key] = {
                    lvl: {**{cls: [] for cls in KIND_CLASSES}, **spec}
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


def _declarations(data: dict) -> Declarations:
    """The typed hierarchy declarations of a scenario: what validation checks
    and what `build` hands to the model."""
    return Declarations(
        {lvl: frozenset(k for cls in KIND_CLASSES for k in spec.get(cls, []))
         for lvl, spec in data["kinds"].items()},
        **{key: tuple(cls(*map(item.get, OBJECT_LISTS[key])) for item in data[key])
           for key, cls in DECLARATION_LISTS.items()},
    )


def _graph_spec(data: dict) -> LevelGraphSpec:
    return LevelGraphSpec.make(data["levels"], data["influence_edges"], data["perception_edges"])


def _parts(graph: LevelGraphSpec, decls: Declarations) -> dict:
    """A hierarchy's levels, edges, (level, kind) pairs and declarations, one
    set per part."""
    return {
        "levels": graph.levels,
        "influence edges": graph.influence_edges,
        "perception edges": graph.perception_edges,
        "kinds": {(lvl, k) for lvl, names in decls.producible_kinds.items() for k in names},
        **{key: set(getattr(decls, key)) for key in DECLARATION_LISTS},
    }


# What the bundled behaviors, detector and reactions use: a scenario must
# declare all of it.
FMS_USES = _parts(FMS_GRAPH, FMS_DECLARATIONS)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_cell(value) -> bool:
    return isinstance(value, (list, tuple)) and len(value) == 2 and all(map(_is_int, value))


def _is_str_list(value) -> bool:
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


# Sections that hold one object each, and lists of objects with their keys.
# Every key but a cell holds a name the checks compare or hash: a string or
# absent (the reference checks report it missing); every id must be present.
OBJECT_SECTIONS = ("grid", "params", "run", "kinds")
OBJECT_LISTS = {
    "shops": ("id", "cell"),
    "agvs": ("id", "cell"),
    "tasks": ("id", "source", "dest"),
    **{key: tuple(f.name for f in fields(cls)) for key, cls in DECLARATION_LISTS.items()},
}

# The keys a scenario and its object sections may hold.  `environments` is
# a retired section that older files still carry; it is accepted and unused.
TOP_LEVEL_KEYS = frozenset(default_scenario_dict()) | {"environments"}
SECTION_KEYS = {key: frozenset(default_scenario_dict()[key]) for key in ("grid", "params", "run")}


def _shape_issues(data: dict) -> tuple[list[Issue], list[Issue]]:
    """(shape issues, unknown-key issues), from one walk over the scenario's
    sections and list items.

    The shape is what every other check relies on: each section of the
    right JSON type, each list item an object, each compared name and the
    scenario's own name a string, each level edge between two levels, and
    no level, kind, edge or declaration listed twice (the model would hold
    it once).  An unknown key is a key of the scenario, an object section, a
    `kinds` level or a list item that the format does not define: a misspelt
    key would otherwise be ignored without a word."""
    shape, unknown = [], []

    def expect(path, what, value):
        shape.append(Issue("value", f"{path} must be {what}, got {value!r}"))

    def known_keys(path, obj, known):
        for key in obj if isinstance(obj, dict) else ():
            if key not in known:
                unknown.append(Issue("value", f"unknown key {path + key!r}; expected one of "
                                              f"{sorted(known)}"))

    if not isinstance(data.get("name"), str):
        expect("name", "a string", data.get("name"))
    known_keys("", data, TOP_LEVEL_KEYS)
    for key in OBJECT_SECTIONS:
        section = data.get(key)
        if not isinstance(section, dict):
            expect(key, "an object", section)
        elif key in SECTION_KEYS:  # a `kinds` key names a level
            known_keys(f"{key}.", section, SECTION_KEYS[key])
    if isinstance(data.get("grid"), dict) and not isinstance(data["grid"].get("blocked"), list):
        expect("grid.blocked", "a list", data["grid"].get("blocked"))
    for lvl, spec in data["kinds"].items() if isinstance(data.get("kinds"), dict) else ():
        known_keys(f"kinds.{lvl}.", spec, KIND_CLASSES)
        lists = spec.values() if isinstance(spec, dict) else [None]
        if not all(map(_is_str_list, lists)):
            expect(f"kinds.{lvl}", "an object of kind-name lists", spec)
            continue
        for cls, names in spec.items():
            if len(set(names)) < len(names):
                expect(f"kinds.{lvl}.{cls}", "a list of distinct kind names", names)
    levels = data.get("levels")
    if not _is_str_list(levels) or len(set(levels)) < len(levels):
        expect("levels", "a list of distinct level names", levels)
    for key in ("influence_edges", "perception_edges"):
        edges = data.get(key)
        if not (isinstance(edges, list) and all(_is_str_list(e) and len(e) == 2 for e in edges)):
            expect(key, "a list of [from, to] level-name pairs", edges)
            continue
        for edge in edges:
            if edge[0] == edge[1]:
                expect(key, "pairs of two different levels", edge)
        if len(set(map(tuple, edges))) < len(edges):
            expect(key, "a list of distinct level edges", edges)
    for key, names in OBJECT_LISTS.items():
        items = data.get(key)
        if not isinstance(items, list):
            expect(key, "a list", items)
            continue
        for i, item in enumerate(items):
            if not isinstance(item, dict):
                expect(f"{key}[{i}]", "an object", item)
                continue
            known_keys(f"{key}[{i}].", item, names)
            for name in names:
                if name == "cell":
                    continue  # a value, checked where it is placed
                value = item.get(name)
                if not isinstance(value, str) and (value is not None or name == "id"):
                    expect(f"{key}[{i}].{name}", "a string", value)
        if key in DECLARATION_LISTS and any(item in items[:i] for i, item in enumerate(items)):
            expect(key, "a list of distinct declarations", items)
    return shape, unknown


# Field parameters: the least value each integer parameter may take.
INT_PARAM_MINIMUM = {"attract": 0, "repulse": 0, "window": 1, "clearance": 1}


def _value_issues(data: dict) -> list[Issue]:
    """Type and range checks on the field parameters, the flags, the grid's
    size and the run's seed, tick budget and termination predicate, over a
    scenario of sound shape.  Cells are checked where they are placed."""
    issues = []
    params, grid, run = data["params"], data["grid"], data["run"]
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
    if not _is_int(run.get("ticks")) or run["ticks"] < 1:
        issues.append(Issue("value", f"run.ticks must be a positive integer, got {run.get('ticks')!r}"))
    if run.get("termination") not in TERMINATION_PREDICATES:
        issues.append(
            Issue("reference", f"unknown termination predicate {run.get('termination')!r}")
        )
    return issues


def validate_scenario(data: dict) -> list[Issue]:
    """Every problem of a scenario dict (defaults already merged), as coded
    issues; empty when it is valid."""
    return _check(data)[0]


def _check(data: dict) -> tuple[list[Issue], dict]:
    """(issues, parts): the issues of `validate_scenario`, and the validated
    level graph, grid and declarations the checks made, by `ScenarioSpec`
    field name (a part the checks could not make is absent)."""
    shape, unknown = _shape_issues(data)
    if shape:
        return shape + unknown, {}  # the checks below read the sections this shape promises
    issues = unknown + _value_issues(data)
    parts = {}
    levels = data["levels"]
    graph = _graph_spec(data)
    try:
        parts["graph"] = validate_graph(graph)
    except EmptyLevelSet as exc:
        issues.append(Issue("empty-level-set", str(exc)))
    except UnknownLevelEndpoint as exc:
        issues.append(Issue("unknown-level-endpoint", str(exc)))

    decls = parts["decls"] = _declarations(data)
    issues += hierarchy_issues(graph.levels, graph.influence_edges, decls, DETECTORS)
    # The kind classes exist only in the scenario format.
    for level, spec in data["kinds"].items():
        for kind in sorted(set().union(*spec.values())):
            classes = [cls for cls in KIND_CLASSES if kind in spec.get(cls, ())]
            if len(classes) > 1:
                message = f"kinds.{level} must list {kind!r} under one class, got {classes}"
                issues.append(Issue("kind-discipline", message))
    listed = [(d.kind, d.macro_level, "emergence") for d in decls.emergences]
    listed += [(d.kind, d.micro_level, "constraint") for d in decls.constraints]
    for kind, level, klass in listed:
        if level in levels and kind not in data["kinds"].get(level, {}).get(klass, []):
            issues.append(Issue("kind-discipline",
                                f"kind {kind!r} must be declared {klass}-class at {level!r}"))

    # Grid-world checks.  Each cell is checked once, where it is placed.
    def cell_of(owner, value):
        """`value` as a cell, or None after a value issue."""
        if _is_cell(value):
            return tuple(value)
        issues.append(Issue("value", f"{owner}: a cell must be a pair of integers, got {value!r}"))
        return None

    grid_data = data["grid"]
    blocked = frozenset({cell_of("blocked cell", c) for c in grid_data["blocked"]} - {None})
    width, height = grid_data.get("width", 0), grid_data.get("height", 0)
    grid = None
    if not (_is_int(width) and _is_int(height)):
        pass  # a value issue, reported above
    elif width < 1 or height < 1:
        issues.append(Issue("placement", f"grid must be at least 1x1, got {width}x{height}"))
    elif width * height > MAX_GRID_CELLS:
        issues.append(Issue("placement", f"grid must have at most {MAX_GRID_CELLS} cells, "
                                         f"got {width}x{height}"))
    else:
        grid = parts["grid"] = GridMap(width, height, blocked)
        for cell in sorted(grid.blocked):
            if not grid.in_bounds(cell):
                issues.append(Issue("placement", f"blocked cell {cell} out of bounds"))

    ids_seen = set()

    def check_id(agent_id):
        if agent_id in ids_seen:
            issues.append(Issue("reference", f"duplicate id {agent_id!r}"))
        if is_solver_id(agent_id):
            issues.append(Issue("reference", f"id {agent_id!r} has the form of a solver id, "
                                             f"which the control level gives its solvers"))
        if agent_id in DETECTORS:
            issues.append(Issue("reference", f"id {agent_id!r} is the name of a detector, "
                                             f"which produces under it"))
        if agent_id.startswith(REACTION_PRODUCER_PREFIX):
            issues.append(Issue("reference", f"id {agent_id!r} begins with "
                                             f"{REACTION_PRODUCER_PREFIX!r}, as the names the "
                                             f"reactions produce under do"))
        ids_seen.add(agent_id)

    shop_ids = set()
    for shop in data["shops"]:
        sid = shop.get("id")
        check_id(sid)
        shop_ids.add(sid)
        cell = cell_of(f"shop {sid!r}", shop.get("cell"))
        if grid is not None and cell is not None and not grid.is_free(cell):
            issues.append(Issue("placement",
                                f"shop {sid!r} on blocked or out-of-bounds cell {cell}"))
    agv_cells = set()
    for agv in data["agvs"]:
        aid = agv.get("id")
        check_id(aid)
        cell = cell_of(f"AGV {aid!r}", agv.get("cell"))
        if cell is None:
            continue
        if grid is not None and not grid.is_free(cell):
            issues.append(Issue("placement", f"AGV {aid!r} on blocked or out-of-bounds cell {cell}"))
        if cell in agv_cells:
            issues.append(Issue("placement", f"two AGVs start on cell {cell}"))
        agv_cells.add(cell)
    task_ids = set()
    for task in data["tasks"]:
        tid = task.get("id")
        if tid in task_ids:
            issues.append(Issue("reference", f"duplicate task id {tid!r}"))
        task_ids.add(tid)
        source, dest = task.get("source"), task.get("dest")
        for shop in (source,) if source == dest else (source, dest):
            if shop not in shop_ids:
                issues.append(Issue("reference", f"task {tid!r} references unknown shop {shop!r}"))
        if source == dest:
            issues.append(Issue("reference", f"task {tid!r} has identical source and destination"))

    declared = _parts(graph, decls)
    for part, used in FMS_USES.items():
        missing = sorted(used - declared[part], key=str)
        if missing:
            issues.append(
                Issue("reference", f"the bundled model uses {part} the scenario omits: {missing}")
            )
    # The bundled model reacts at its own levels only.
    for level in sorted(declared["levels"] - FMS_USES["levels"]):
        issues.append(Issue("reference", f"the bundled model has no reaction for level {level!r}"))

    return issues, parts


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
    except RecursionError:
        raise ScenarioError([Issue("parse", f"{path}: nested too deeply to parse")]) from None
    except (OSError, UnicodeDecodeError) as exc:
        raise ScenarioError([Issue("parse", f"{path}: {exc}")]) from None
    return parse_scenario_dict(raw)


def parse_scenario_dict(raw: dict) -> ScenarioSpec:
    if not isinstance(raw, dict):
        raise ScenarioError(
            [Issue("value", f"a scenario must be a JSON object, got {type(raw).__name__}")]
        )
    data = _merge_defaults(raw)
    issues, parts = _check(data)
    if issues:
        raise ScenarioError(issues)
    return ScenarioSpec(data, **parts)


def apply_overrides(data: dict, overrides: dict) -> dict:
    """Dotted-key overrides (``run.ticks=200``, ``params.jitter=true``);
    values are parsed as JSON when possible, kept as strings otherwise (a
    value nested too deeply to parse among them)."""
    data = json.loads(json.dumps(data))
    for dotted, raw_value in overrides.items():
        try:
            value = json.loads(raw_value)
        except (json.JSONDecodeError, TypeError, RecursionError):
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
    """Instantiate (model, initial state) from a validated scenario, with the
    spec's own graph, grid and declarations."""
    grid, data = spec.grid, spec.data
    shops = {s["id"]: tuple(s["cell"]) for s in data["shops"]}
    agvs = {a["id"]: tuple(a["cell"]) for a in data["agvs"]}
    model = build_fms_model(
        grid,
        agv_ids=sorted(agvs),
        params=spec.params,
        control=spec.control,
        graph=spec.graph,
        decls=spec.decls,
    )
    state = build_initial_state(grid, agvs, shops, data["tasks"])
    return model, state
