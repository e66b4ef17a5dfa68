"""Scenario parsing/validation and the command-line entry points."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from mlsim.cli import (
    EXIT_INVALID,
    EXIT_NO_ESCAPE,
    EXIT_OK,
    METRIC_COLUMNS,
    main,
)
from mlsim.errors import ScenarioError
from mlsim.scenario import (
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
    reparsed = parse_scenario_dict(json.loads(spec.to_json()))
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
    ],
)
def test_run_exit_three_on_malformed_value(override, capsys):
    rc = main(["run", "--scenario", str(SCENARIOS / "corridor.json"), "--override", override])
    assert rc == EXIT_INVALID
    err = capsys.readouterr().err
    assert f"[value] {override.split('=')[0]} must be" in err


def test_run_exit_three_on_one_element_cell(tmp_path, capsys):
    raw = json.loads((SCENARIOS / "corridor.json").read_text())
    raw["agvs"][0]["cell"] = [1]
    path = tmp_path / "bad_cell.json"
    path.write_text(json.dumps(raw))
    rc = main(["run", "--scenario", str(path)])
    assert rc == EXIT_INVALID
    assert "[value]" in capsys.readouterr().err


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
