"""Command-line interface: exit codes, output formats, overrides."""

import math

import pytest
import yaml

from cocarry import cli
from cocarry.scenario import scenario_path

SMOKE = scenario_path("smoke")


def test_run_smoke_prints_summary_and_writes_metrics(tmp_path, capsys):
    metrics_path = tmp_path / "m.yaml"
    code = cli.main(
        ["run", "--scenario", SMOKE, "--out-metrics", str(metrics_path)]
    )
    out = capsys.readouterr().out
    assert code == cli.EXIT_OK
    assert "completed=true" in out
    assert "mean_alpha=" in out
    loaded = yaml.safe_load(metrics_path.read_text())
    assert loaded["completed"] is True
    assert math.isnan(loaded["t_c"])  # smoke declares no waypoints


def test_run_controller_override(capsys):
    code = cli.main(["run", "--scenario", SMOKE, "--controller", "teleop"])
    assert code == cli.EXIT_OK
    assert "completed=true" in capsys.readouterr().out


def test_missing_scenario_file_is_config_error(tmp_path, capsys):
    missing = str(tmp_path / "nope.yaml")
    code = cli.main(["run", "--scenario", missing])
    err = capsys.readouterr().err
    assert code == cli.EXIT_CONFIG
    assert missing in err


def test_bad_dt_is_config_error(capsys):
    code = cli.main(["run", "--scenario", SMOKE, "--dt", "-1"])
    err = capsys.readouterr().err
    assert code == cli.EXIT_CONFIG
    assert "dt" in err


def test_unwritable_trace_is_runtime_error(tmp_path, capsys):
    code = cli.main(
        ["run", "--scenario", SMOKE, "--out-trace", str(tmp_path / "no_dir" / "t.csv")]
    )
    err = capsys.readouterr().err
    assert code == cli.EXIT_RUNTIME
    assert "cannot write trace" in err


def test_trace_reruns_are_byte_identical(tmp_path):
    paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for p in paths:
        code = cli.main(
            ["run", "--scenario", SMOKE, "--seed", "3", "--out-trace", str(p)]
        )
        assert code == cli.EXIT_OK
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_compare_prints_one_row_per_controller(capsys):
    code = cli.main(["compare", "--scenario", SMOKE])
    out = capsys.readouterr().out
    assert code == cli.EXIT_OK
    lines = [ln for ln in out.splitlines() if ln.strip()]
    assert lines[0].split()[:2] == ["controller", "completed"]
    assert "F_int1" in lines[0]
    assert [ln.split()[0] for ln in lines[1:]] == ["aci", "admittance", "teleop"]
    for ln in lines[1:]:
        assert ln.split()[1] == "true"


def test_validate_ok_and_invalid(tmp_path, capsys):
    assert cli.main(["validate", "--scenario", SMOKE]) == cli.EXIT_OK
    assert capsys.readouterr().out.strip() == f"{SMOKE}: OK"

    bad = tmp_path / "bad.yaml"
    bad.write_text(yaml.safe_dump({"name": "x", "duration": -3}))
    assert cli.main(["validate", "--scenario", str(bad)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "invalid scenario" in err
    assert "duration" in err

    # a bad parameter block is a configuration error too, not a traceback
    with open(SMOKE) as fh:
        raw = yaml.safe_load(fh)
    raw["aci"] = {"window_length": 0}
    bad.write_text(yaml.safe_dump(raw))
    assert cli.main(["validate", "--scenario", str(bad)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: invalid scenario")
    assert "aci.window_length" in err


def test_presets_listing(capsys):
    assert cli.main(["presets"]) == cli.EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    names = [ln.split(":")[0] for ln in lines]
    assert names == ["peanut_bag", "rigid_rod", "slack_rope", "wrapped_manikin"]
    assert "tension=10000" in "".join(ln for ln in lines if ln.startswith("rigid"))


def test_unknown_controller_rejected_by_parser():
    with pytest.raises(SystemExit):
        cli.main(["run", "--scenario", SMOKE, "--controller", "warp_drive"])
