"""Scenario parsing/validation and the command-line entry points."""

import copy
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlsim.cli import (
    EXIT_INVALID,
    EXIT_NO_ESCAPE,
    EXIT_OK,
    METRIC_COLUMNS,
    _load_spec,
    build_parser,
    main,
)
from mlsim.engine import run, validate_model
from mlsim.errors import ScenarioError
from mlsim.fms.model import LEVELS, PRODUCIBLE_KINDS, FmsParams, SafetyChecker
from mlsim.hierarchy import Declarations, HierarchicalCoupling
from mlsim.scenario import (
    DECLARATION_LISTS,
    KIND_CLASSES,
    apply_overrides,
    build,
    default_scenario_dict,
    parse_scenario,
    parse_scenario_dict,
    validate_scenario,
)

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"
NEGATIVE = SCENARIOS / "negative"
POSITIVE_FIXTURES = ("corridor.json", "open_floor.json", "walled_trap.json")

with open(NEGATIVE / "expected_errors.json") as fh:
    EXPECTED_ERRORS = json.load(fh)


# --- parsing -----------------------------------------------------------------

def test_corridor_fixture_parses_with_control_off():
    spec = parse_scenario(SCENARIOS / "corridor.json")
    assert spec.name == "corridor"
    assert spec.control is False
    assert spec.run_params["ticks"] == 500
    assert spec.grid.width == 7


@pytest.mark.parametrize("fixture", POSITIVE_FIXTURES)
def test_bundled_fixtures_are_valid(fixture):
    spec = parse_scenario(SCENARIOS / fixture)
    assert validate_scenario(spec.data) == []


@pytest.mark.parametrize("fixture", POSITIVE_FIXTURES)
def test_round_trip(fixture):
    spec = parse_scenario(SCENARIOS / fixture)
    reparsed = parse_scenario_dict(json.loads(json.dumps(spec.data)))
    assert reparsed.data == spec.data


def test_missing_file_reports_parse_issue():
    with pytest.raises(ScenarioError) as err:
        parse_scenario(SCENARIOS / "does_not_exist.json")
    assert {i.code for i in err.value.errors} == {"parse"}


def test_malformed_json_reports_position(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ScenarioError) as err:
        parse_scenario(bad)
    assert "line" in err.value.errors[0].message


@pytest.mark.parametrize("fixture,code", sorted(EXPECTED_ERRORS.items()))
def test_negative_fixtures_rejected_with_expected_code(fixture, code):
    with open(NEGATIVE / fixture) as fh:
        raw = json.load(fh)
    with pytest.raises(ScenarioError) as err:
        parse_scenario_dict(raw)
    assert code in {i.code for i in err.value.errors}, (
        f"{fixture}: expected {code}, got {[str(i) for i in err.value.errors]}"
    )


def test_validation_reports_all_problems_not_just_first():
    data = default_scenario_dict()
    data["shops"] = [{"id": "s1", "cell": [99, 99]}, {"id": "s1", "cell": [0, 0]}]
    data["tasks"] = [{"id": "t1", "source": "s1", "dest": "nowhere"}]
    issues = validate_scenario(data)
    assert len(issues) >= 3


def test_overrides_dotted_paths_and_json_values():
    data = default_scenario_dict()
    out = apply_overrides(data, {"run.ticks": "42", "params.jitter": "true", "name": "x"})
    assert out["run"]["ticks"] == 42
    assert out["params"]["jitter"] is True
    assert out["name"] == "x"
    assert data["run"]["ticks"] != 42  # input untouched


def test_defaults_merge_preserves_unspecified_params():
    spec = parse_scenario(SCENARIOS / "corridor.json")
    assert spec.params.attract == 16
    assert spec.params.repulse == 4


# --- CLI ---------------------------------------------------------------------

def test_validate_accepts_bundled_fixture(capsys):
    rc = main(["validate", "--scenario", str(SCENARIOS / "corridor.json")])
    assert rc == EXIT_OK
    assert "valid" in capsys.readouterr().out


def test_validate_rejects_negative_fixture(capsys):
    rc = main(
        ["validate", "--scenario", str(NEGATIVE / "neg_constraint_over_constraint.json")]
    )
    assert rc == EXIT_INVALID
    assert "constraint-over-constraint" in capsys.readouterr().out


def test_run_writes_metrics_with_stable_header(tmp_path, capsys):
    metrics = tmp_path / "m.csv"
    rc = main(
        [
            "run",
            "--scenario",
            str(SCENARIOS / "open_floor.json"),
            "--metrics-out",
            str(metrics),
        ]
    )
    assert rc == EXIT_OK
    lines = metrics.read_text().splitlines()
    assert lines[0] == ",".join(METRIC_COLUMNS)
    summary = json.loads(capsys.readouterr().out)
    assert summary["tasks_delivered"] == summary["tasks_total"] == 2
    assert summary["stop_reason"] == "termination:all-delivered"


def test_run_records_overrides_in_summary(capsys):
    rc = main(
        [
            "run",
            "--scenario",
            str(SCENARIOS / "open_floor.json"),
            "--ticks",
            "20",
            "--control",
            "on",
        ]
    )
    assert rc == EXIT_OK
    summary = json.loads(capsys.readouterr().out)
    assert summary["overrides"] == {"control": "true", "run.ticks": "20"}


def test_loading_with_overrides_leaves_the_spec_data_as_validated():
    args = build_parser().parse_args(
        ["run", "--scenario", str(SCENARIOS / "corridor.json"), "--ticks", "5",
         "--override", "params.repulse=2"]
    )
    spec, overrides = _load_spec(args)
    assert overrides == {"params.repulse": "2", "run.ticks": "5"}
    assert parse_scenario_dict(spec.data).data == spec.data
    assert spec.params.repulse == 2 and spec.run_params["ticks"] == 5


def test_run_exit_two_on_no_escape_path(capsys):
    rc = main(
        [
            "run",
            "--scenario",
            str(SCENARIOS / "walled_trap.json"),
            "--control",
            "on",
        ]
    )
    assert rc == EXIT_NO_ESCAPE
    summary = json.loads(capsys.readouterr().out)
    assert summary["unresolvable"] is True


def test_run_exit_three_on_invalid_scenario(capsys):
    rc = main(["run", "--scenario", str(NEGATIVE / "neg_empty_levels.json")])
    assert rc == EXIT_INVALID


# A kind listed under two classes at one level (the declarations would hold
# it once), with the issue it must raise.
KIND_IN_TWO_CLASSES = {
    'kinds.floor.ordinary=["assign-task","emit-repulsion","forced-move","move","inhibit-move"]':
        "[kind-discipline] kinds.floor must list 'inhibit-move' under one class, "
        "got ['ordinary', 'constraint']",
    'kinds.control.ordinary=["deadlock-resolved","deadlock-unresolvable","deadlock"]':
        "[kind-discipline] kinds.control must list 'deadlock' under one class, "
        "got ['ordinary', 'emergence']",
}


@pytest.mark.parametrize(
    "override",
    [
        "params.attract=abc",
        "grid.width=abc",
        "params.window=-1",
        "params.clearance=null",
        "run.seed=abc",
        "params.attract=true",  # a bool is not an int
        "control=5",
        "run.ticks=0",  # what --ticks 0 sets
        "run.ticks=1e3",
        "run.ticks=true",
        "name=5",
        "name=null",
        "name=[1]",
        # a self-loop level edge (the library's `levels.validate` drops it)
        'influence_edges=[["floor","tasks"],["tasks","floor"],["floor","control"],["control","floor"],["floor","floor"]]',
        'perception_edges=[["floor","tasks"],["tasks","floor"],["floor","control"],["control","floor"],["floor","floor"]]',
        'levels=["floor","floor","tasks","control"]',
        *KIND_IN_TWO_CLASSES,
    ],
)
def test_run_exit_three_on_malformed_value(override, capsys):
    rc = main(["run", "--scenario", str(SCENARIOS / "corridor.json"), "--override", override])
    assert rc == EXIT_INVALID
    err = capsys.readouterr().err
    assert KIND_IN_TWO_CLASSES.get(override, f"[value] {override.split('=')[0]} must be") in err


def test_an_unknown_termination_predicate_stays_a_reference_issue(capsys):
    rc = main(["run", "--scenario", str(SCENARIOS / "corridor.json"),
               "--override", "run.termination=never"])
    assert rc == EXIT_INVALID
    assert "[reference] unknown termination predicate 'never'" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--metrics-out", "--trace-out"])
@pytest.mark.parametrize("where", ["missing-directory", "directory"])
def test_run_exit_three_on_an_unwritable_output(flag, where, tmp_path, capsys):
    path = tmp_path / "missing" / "out" if where == "missing-directory" else tmp_path
    rc = main(["run", "--scenario", str(SCENARIOS / "corridor.json"), "--ticks", "5",
               flag, str(path)])
    assert rc == EXIT_INVALID
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith(f"[output] cannot write {path}: ")
    assert "Traceback" not in out.err


def test_run_exit_three_on_one_element_cell(tmp_path, capsys):
    raw = json.loads((SCENARIOS / "corridor.json").read_text())
    raw["agvs"][0]["cell"] = [1]
    path = tmp_path / "bad_cell.json"
    path.write_text(json.dumps(raw))
    rc = main(["run", "--scenario", str(path)])
    assert rc == EXIT_INVALID
    assert "[value]" in capsys.readouterr().err


@pytest.mark.parametrize("renamed", ["agv-1", "shop-east"])
def test_run_exit_three_on_an_id_of_the_solver_form(renamed, tmp_path, capsys):
    path = tmp_path / "solver_id.json"
    path.write_text((SCENARIOS / "corridor.json").read_text().replace(f'"{renamed}"', '"solver0"'))
    rc = main(["run", "--scenario", str(path), "--control", "on"])
    assert rc == EXIT_INVALID
    assert "[reference] id 'solver0' has the form of a solver id" in capsys.readouterr().err


@pytest.mark.parametrize(
    "override,path",
    [
        ("grid=5", "grid"),
        ("params=5", "params"),
        ("run=5", "run"),
        ("agvs=5", "agvs"),
        ("agvs=[5]", "agvs[0]"),
        ("shops=[5]", "shops[0]"),
        ("tasks=5", "tasks"),
        ("tasks=[5]", "tasks[0]"),
        ("kinds=5", "kinds"),
        ('kinds={"floor": {"ordinary": 5}}', "kinds.floor"),
        ("levels=[[1]]", "levels"),
        ("influence_edges=[5]", "influence_edges"),
        ("grid.blocked=5", "grid.blocked"),
        ('shops=[{"cell": [0, 0]}]', "shops[0].id"),
        ('constraints=[{"kind": ["inhibit-move"]}]', "constraints[0].kind"),
    ],
)
def test_run_exit_three_on_malformed_structure(override, path, capsys):
    rc = main(["run", "--scenario", str(SCENARIOS / "corridor.json"), "--override", override])
    assert rc == EXIT_INVALID
    assert f"[value] {path} must be" in capsys.readouterr().err


def test_override_below_a_non_object_is_an_issue(capsys):
    rc = main(["run", "--scenario", str(SCENARIOS / "corridor.json"),
               "--override", "run=5", "--seed", "1"])
    assert rc == EXIT_INVALID
    assert "[value] override 'run.seed': run must be an object" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "validate"])
def test_unreadable_or_non_object_file_is_an_issue(command, tmp_path, capsys):
    listing = tmp_path / "list.json"
    listing.write_text("[1, 2]")
    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\xff\xfe\x00")
    for path, code in ((listing, "[value]"), (binary, "[parse]"), (tmp_path, "[parse]")):
        assert main([command, "--scenario", str(path)]) == EXIT_INVALID
        out = capsys.readouterr()
        assert code in out.out + out.err


def test_zero_repulsion_stays_valid():
    data = default_scenario_dict()
    data["params"]["repulse"] = 0
    assert validate_scenario(data) == []


def test_spec_grid_is_built_once():
    spec = parse_scenario(SCENARIOS / "corridor.json")
    assert spec.grid is spec.grid
    model, _ = build(spec)
    assert model.behaviors["agv-1"].sensor.grid is spec.grid


def test_same_seed_runs_are_byte_identical(tmp_path, capsys):
    outputs = []
    for tag in ("one", "two"):
        metrics = tmp_path / f"{tag}.csv"
        trace = tmp_path / f"{tag}.jsonl"
        rc = main(
            [
                "run",
                "--scenario",
                str(SCENARIOS / "open_floor.json"),
                "--seed",
                "5",
                "--metrics-out",
                str(metrics),
                "--trace-out",
                str(trace),
            ]
        )
        assert rc == EXIT_OK
        outputs.append((metrics.read_bytes(), trace.read_bytes()))
    capsys.readouterr()
    assert outputs[0] == outputs[1]
    assert len(outputs[0][1]) > 0


def test_trace_rows_totally_ordered(tmp_path, capsys):
    trace = tmp_path / "t.jsonl"
    main(
        [
            "run",
            "--scenario",
            str(SCENARIOS / "open_floor.json"),
            "--trace-out",
            str(trace),
        ]
    )
    capsys.readouterr()
    rows = [json.loads(line) for line in trace.read_text().splitlines()]
    keys = [(r["tick"], r["level"], str(r["payload"].get("id", ""))) for r in rows]
    assert keys == sorted(keys)


def test_compare_corridor_verdict(capsys):
    rc = main(["compare", "--scenario", str(SCENARIOS / "corridor.json")])
    assert rc == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"] == "control resolves deadlock; all tasks delivered"
    assert report["off"]["tasks_delivered"] < report["off"]["tasks_total"]
    assert report["on"]["tasks_delivered"] == report["on"]["tasks_total"]


def test_compare_open_floor_verdict(capsys):
    rc = main(["compare", "--scenario", str(SCENARIOS / "open_floor.json")])
    assert rc == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"] == "no deadlock in either mode"


def test_compare_walled_trap_verdict(capsys):
    rc = main(["compare", "--scenario", str(SCENARIOS / "walled_trap.json")])
    assert rc == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"] == "unresolvable deadlock under control=on (no escape path)"


def test_python_dash_m_mlsim_validates_a_fixture():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-m", "mlsim", "validate", "--scenario", str(SCENARIOS / "corridor.json")],
        capture_output=True, text=True, env=env, cwd=ROOT,
    )
    assert done.returncode == EXIT_OK, done.stderr
    assert done.stdout.strip() == "valid"


JITTER_OFF_RUN = """
import sys
before = "hashlib" in sys.modules
from mlsim import cli
from mlsim.engine import run
from mlsim.fms.model import SafetyChecker, all_tasks_delivered, fms_metrics
from mlsim.scenario import apply_overrides, build, parse_scenario, parse_scenario_dict
base = parse_scenario(sys.argv[1])
for control in ("false", "true"):
    spec = parse_scenario_dict(apply_overrides(base.data, {"control": control}))
    model, state = build(spec)
    run(model, state, ticks=spec.run_params["ticks"], seed=spec.run_params["seed"],
        observers=(SafetyChecker(spec.grid),), metrics=fms_metrics,
        termination=all_tasks_delivered)
print(before, "hashlib" in sys.modules)
"""


def test_a_jitter_off_run_does_not_import_hashlib():
    # Only a producer that reads `ctx.rng` seeds a stream, and only seeding
    # needs hashlib.
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-c", JITTER_OFF_RUN, str(SCENARIOS / "corridor.json")],
        capture_output=True, text=True, env=env, cwd=ROOT,
    )
    assert done.returncode == 0, done.stderr
    before, after = done.stdout.split()
    assert before == "True" or after == "False"


# --- the scenario's hierarchy declarations are the model's --------------------

ALL_EDGES = '[["floor","tasks"],["tasks","floor"],["floor","control"],["control","floor"]'


@pytest.mark.parametrize(
    "overrides",
    [
        ['kinds.tasks={"ordinary":["can-serve"]}'],
        ["perception_edges=[]"],
        [
            'constraints=[{"kind":"inhibit-move","micro_level":"floor","inhibits":"move"}]',
            'kinds.floor={"ordinary":["move","forced-move","emit-repulsion","assign-task"],'
            '"constraint":["inhibit-move"]}',
        ],
        [
            'couplings=[{"micro":"floor","macro":"control"}]',
            'influence_edges=[["floor","control"],["control","floor"]]',
            'emergences=[{"kind":"deadlock","macro_level":"control",'
            '"detector":"deadlock-detector"}]',
        ],
        [
            'couplings=[{"micro":"tasks","macro":"control"},{"micro":"floor","macro":"tasks"}]',
            "influence_edges=" + ALL_EDGES + ',["tasks","control"],["control","tasks"]]',
        ],
    ],
    ids=["tasks-kinds", "perception-edges", "one-constraint", "one-coupling", "coupling-swap"],
)
def test_run_exit_three_when_scenario_omits_what_the_model_uses(overrides, capsys):
    argv = ["run", "--scenario", str(SCENARIOS / "corridor.json"), "--control", "on"]
    for override in overrides:
        argv += ["--override", override]
    assert main(argv) == EXIT_INVALID
    assert "[reference] the bundled model uses" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["validate", "run", "compare"])
def test_a_level_the_model_has_no_reaction_for_is_a_reference_issue(command, tmp_path, capsys):
    data = json.loads((SCENARIOS / "corridor.json").read_text())
    data["levels"] = list(LEVELS) + ["extra"]
    path = tmp_path / "extra.json"
    path.write_text(json.dumps(data))
    assert main([command, "--scenario", str(path)]) == EXIT_INVALID
    out = capsys.readouterr()
    assert "[reference] the bundled model has no reaction for level 'extra'" in out.out + out.err


def test_the_scenario_defaults_are_the_model_defaults():
    assert default_scenario_dict()["params"] == dict(vars(FmsParams()))
    assert parse_scenario_dict({}).params == FmsParams()
    # Each declaration list is the `Declarations` field of the same name.
    assert tuple(DECLARATION_LISTS) == Declarations._fields[1:]


def test_build_hands_the_scenario_declarations_to_the_model():
    added = HierarchicalCoupling("tasks", "control")
    couplings = default_scenario_dict()["couplings"] + [{"micro": "tasks", "macro": "control"}]
    data = apply_overrides(
        parse_scenario(SCENARIOS / "corridor.json").data,
        {
            "couplings": json.dumps(couplings),
            "influence_edges": ALL_EDGES + ',["tasks","control"],["control","tasks"]]',
        },
    )
    model, _ = build(parse_scenario_dict(data))
    assert added in model.decls.couplings
    assert validate_model(model) == []


def test_a_kind_declared_twice_is_an_issue():
    # The engine looks a declaration up by kind, so a second one would be
    # silently shadowed.
    data = default_scenario_dict()
    data["constraints"].append({"kind": "inhibit-move", "micro_level": "floor",
                                "inhibits": "emit-repulsion"})
    issues = validate_scenario(data)
    assert [i.code for i in issues] == ["kind-discipline"]
    assert "declared an emergence or constraint twice" in issues[0].message


def test_default_scenario_lists_each_kind_under_its_class():
    kinds = default_scenario_dict()["kinds"]
    assert {lvl: {k for names in spec.values() for k in names} for lvl, spec in kinds.items()} == (
        {lvl: set(names) for lvl, names in PRODUCIBLE_KINDS.items()}
    )
    assert kinds["control"]["emergence"] == ["deadlock"]
    assert kinds["floor"]["constraint"] == ["inhibit-move", "inhibit-repulsion"]
    assert kinds["tasks"]["constraint"] == kinds["tasks"]["emergence"] == []


CORRIDOR = apply_overrides(parse_scenario(SCENARIOS / "corridor.json").data, {"control": "true"})
KIND_NAMES = sorted(set().union(*PRODUCIBLE_KINDS.values())) + ["extra"]
SECTIONS = (
    "kinds", "couplings", "emergences", "constraints", "influence_edges", "perception_edges",
    "levels",
)


def declaration_mutation():
    """("drop", section, index) or ("add", section, item) on the declarations."""
    level, kind = st.sampled_from(LEVELS), st.sampled_from(KIND_NAMES)
    drop = st.tuples(st.just("drop"), st.sampled_from(SECTIONS), st.integers(0, 50))
    return drop | st.one_of(
        st.tuples(st.just("add"), st.just("kinds"),
                  st.tuples(level, st.sampled_from(KIND_CLASSES), kind)),
        st.tuples(st.just("add"), st.just("couplings"),
                  st.fixed_dictionaries({"micro": level, "macro": level})),
        st.tuples(st.just("add"), st.just("emergences"), st.fixed_dictionaries(
            {"kind": kind, "macro_level": level,
             "detector": st.sampled_from(["deadlock-detector", "other-detector"])})),
        st.tuples(st.just("add"), st.just("constraints"), st.fixed_dictionaries(
            {"kind": kind, "micro_level": level, "inhibits": kind})),
        st.tuples(st.just("add"), st.sampled_from(["influence_edges", "perception_edges"]),
                  st.lists(level, min_size=2, max_size=2)),
        st.tuples(st.just("add"), st.just("levels"), st.just("extra")),
    )


def mutate(data, mutation):
    op, section, value = mutation
    if section == "kinds" and op == "add":
        level, klass, kind = value
        data["kinds"][level][klass].append(kind)
        return
    if section == "kinds":
        items = [names for spec in data["kinds"].values() for names in spec.values() if names]
        items = items[value % len(items)]
    else:
        items = data[section]
    if op == "add":
        items.append(value)
    elif items:
        del items[value % len(items)]


@settings(max_examples=150, deadline=None)
@given(st.lists(declaration_mutation(), min_size=1, max_size=3))
def test_accepted_declaration_mutations_build_and_run(mutations):
    """A scenario is rejected with issues, or the model it builds is valid
    and runs without breaking a kind, target or perception contract."""
    data = copy.deepcopy(CORRIDOR)
    for mutation in mutations:
        mutate(data, mutation)
    try:
        spec = parse_scenario_dict(data)
    except ScenarioError:
        return
    model, state = build(spec)
    assert validate_model(model) == []
    run(model, state, ticks=5, seed=0, observers=(SafetyChecker(spec.grid),))


@pytest.mark.parametrize("script", ["compare_control_modes.py", "sweep_repulsion.py"])
def test_scripts_run(script, tmp_path, capsys):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

    def run_script(*args):
        return subprocess.run(
            [sys.executable, str(ROOT / "scripts" / script), *args],
            capture_output=True, text=True, env=env, cwd=ROOT, timeout=120,
        )

    done = run_script()
    assert done.returncode == 0, done.stderr
    assert done.stdout
    if script == "sweep_repulsion.py":
        assert done.stdout.splitlines()[1].split() == [
            "repulse", "delivered", "detected", "resolved", "ticks", "frozen", "stop"]
        # An amplitude is validated like `mlsim run --override params.repulse=...`.
        done = run_script("--amplitudes=2,-3")
        assert done.returncode == EXIT_INVALID, done.stdout
        assert done.stderr == "[value] params.repulse must be an integer >= 0, got -3\n"
        assert done.stdout == ""
        # A run stops as the scenario's `run.termination` says, as `mlsim run` does.
        corridor = json.loads((SCENARIOS / "corridor.json").read_text())
        corridor["run"]["termination"] = "none"
        path = tmp_path / "corridor.json"
        path.write_text(json.dumps(corridor))
        done = run_script("--scenario", str(path), "--control", "on", "--amplitudes", "4")
        assert done.returncode == 0, done.stderr
        *_, ticks, _, stop = done.stdout.splitlines()[2].split()
        assert main(["run", "--scenario", str(path), "--control", "on",
                     "--override", "params.repulse=4"]) == EXIT_OK
        summary = json.loads(capsys.readouterr().out)
        assert (int(ticks), stop) == (summary["ticks_run"], summary["stop_reason"])
        assert stop == "tick-budget"
    else:
        # Every file is validated first: an invalid one is reported, nothing runs.
        (tmp_path / "corridor.json").write_text((SCENARIOS / "corridor.json").read_text())
        (tmp_path / "empty.json").write_text((NEGATIVE / "neg_empty_levels.json").read_text())
        done = run_script("--scenario-dir", str(tmp_path))
        assert done.returncode == EXIT_INVALID, done.stdout
        assert done.stdout == ""
        assert done.stderr.startswith(f"{tmp_path / 'empty.json'}\n[")
        assert "Traceback" not in done.stderr
        # A directory that is missing or holds no scenario file is a coded issue.
        (tmp_path / "none").mkdir()
        for where in (tmp_path / "none", tmp_path / "missing"):
            done = run_script("--scenario-dir", str(where))
            assert done.returncode == EXIT_INVALID, done.stdout
            assert done.stdout == ""
            assert done.stderr == f"[parse] no scenario files under {where}\n"


# --- unknown keys ------------------------------------------------------------

@pytest.mark.parametrize("path, value", [
    ("contrl", "true"),
    ("grid.widht", "7"),
    ("params.repulsion", "2"),
    ("run.tick", "5"),
    ("kinds.floor.constrant", '["x"]'),
    ("shops", '[{"id": "shop-a", "cell": [0, 0], "colour": "red"}]'),
    ("couplings", '[{"micro": "floor", "macro": "tasks", "strength": 1}]'),
])
def test_an_unknown_key_is_a_value_issue(path, value, capsys):
    argv = ["run", "--scenario", str(SCENARIOS / "corridor.json"), "--override",
            f"{path}={value}"]
    assert main(argv) == EXIT_INVALID
    err = capsys.readouterr().err
    assert "[value] unknown key" in err
    assert path.split(".")[-1] in err


def test_unknown_keys_are_reported_with_their_path():
    data = default_scenario_dict()
    data["kinds"]["floor"]["constrant"] = ["x"]
    data["tasks"] = [{"id": "t", "source": "a", "dest": "b", "prio": 1}]
    messages = [i.message for i in validate_scenario(data) if i.code == "value"]
    assert any(m.startswith("unknown key 'kinds.floor.constrant'") for m in messages)
    assert any(m.startswith("unknown key 'tasks[0].prio'") for m in messages)


def test_the_retired_environments_key_is_accepted():
    data = default_scenario_dict()
    data["environments"] = [{"id": "shop-floor", "levels": ["floor"]}]
    assert validate_scenario(data) == []


def test_compare_keeps_working_with_overrides(capsys):
    argv = ["compare", "--scenario", str(SCENARIOS / "corridor.json"),
            "--override", "params.repulse=4", "--seed", "1"]
    assert main(argv) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"] == "control resolves deadlock; all tasks delivered"
    assert report["off"]["overrides"] == {"params.repulse": "4", "run.seed": "1"}


# --- one construction per concept --------------------------------------------

def test_parse_then_build_makes_each_part_once(monkeypatch):
    import mlsim.scenario as scenario

    made = {"validate_graph": 0, "_declarations": 0, "GridMap": 0}
    for name in made:
        original = getattr(scenario, name)

        def counted(*args, _original=original, _name=name, **kwargs):
            made[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(scenario, name, counted)
    raw = json.loads((SCENARIOS / "corridor.json").read_text())
    spec = parse_scenario_dict(raw)
    model, _ = build(spec)
    assert made == {"validate_graph": 1, "_declarations": 1, "GridMap": 1}
    assert model.graph is spec.graph
    assert model.behaviors["agv-1"].sensor.grid is spec.grid
    assert model.decls is spec.decls
