import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from roomtune.cli import main
from roomtune.harness import read_results_csv
from roomtune.optimizer import state_from_json


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Config file plus output dir for a tiny end-to-end season."""
    root = tmp_path_factory.mktemp("cli")
    out = root / "out"
    config = {
        "costs": {"calibration_days": 40},
        "season": {"days": 3, "seeds": 1, "output_dir": str(out)},
    }
    path = root / "config.json"
    path.write_text(json.dumps(config))
    return path, out


def test_calibrate_then_run_then_report(workspace, capsys):
    config, out = workspace

    assert main(["calibrate", "--config", str(config)]) == 0
    assert (out / "calibration_seed0.json").exists()

    for method in ("fixed", "bo", "scbo"):
        assert main(["run", "--config", str(config), "--method", method, "--seed", "0"]) == 0
        rows = read_results_csv(out / f"{method}_seed0.csv")
        assert len(rows) == 3
    assert (out / "scbo_seed0_state.json").exists()

    assert main(["report", "--dir", str(out)]) == 0
    captured = capsys.readouterr()
    assert "scbo" in captured.out and "fixed" in captured.out
    summary = json.loads((out / "summary.json").read_text())
    assert "improvement_vs_fixed_pct" in summary


def test_gain_schedule_output(workspace, capsys):
    _, out = workspace
    state_file = out / "scbo_seed0_state.json"
    assert main(["gain-schedule", "--state", str(state_file), "--points", "5"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "oat_c,kp,ki"
    assert len(lines) == 6
    first = lines[1].split(",")
    assert float(first[0]) == -10.0 and float(first[1]) > 0


def test_safe_set_output(workspace, capsys):
    _, out = workspace
    state_file = out / "scbo_seed0_state.json"
    state = state_from_json(state_file.read_text())

    assert main(["safe-set", "--state", str(state_file), "--day", "0", "--oat", "0.0"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    # before any data only the anchor fallback is certified
    assert lines[0].endswith(f"safe 1 of {state.domain.size}")
    assert lines[1] == "kp,ki,safe"
    assert len(lines) == 2 + state.domain.size
    flagged = [line for line in lines[2:] if line.endswith(",1")]
    anchor = state.anchor_gains
    assert flagged == [f"{anchor.kp},{anchor.ki},1"]


def test_safe_set_of_a_state_without_constraints_exits_with_error(workspace, capsys):
    _, out = workspace
    state_file = out / "bo_seed0_state.json"
    assert main(["safe-set", "--state", str(state_file), "--day", "3", "--oat", "0.0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "bo state has no safe set" in captured.err
    # its gain schedule still works, and ignores the outside temperature
    assert main(["gain-schedule", "--state", str(state_file), "--points", "3"]) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.strip().splitlines()[1:]]
    assert len(rows) == 3 and len({(kp, ki) for _, kp, ki in rows}) == 1


def test_run_without_calibration_exits_with_error(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"season": {"days": 2, "output_dir": str(tmp_path / "empty")}}))
    assert main(["run", "--config", str(config), "--method", "scbo", "--seed", "0"]) == 2
    assert "calibrate" in capsys.readouterr().err


def test_unknown_method_rejected_by_parser(workspace):
    config, _ = workspace
    with pytest.raises(SystemExit):
        main(["run", "--config", str(config), "--method", "greedy", "--seed", "0"])


def test_calibrate_prints_no_log_records(tmp_path):
    """The calibration logs each fit at DEBUG; a plain CLI run shows none
    of it, only its one result line."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"costs": {"calibration_days": 40}, "season": {"output_dir": str(tmp_path)}}))
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "roomtune.cli", "calibrate", "--config", str(config), "--seed", "0"],
        capture_output=True, text=True, env=env, timeout=300, check=True,
    )
    assert proc.stderr == ""
    assert proc.stdout.splitlines() == [f"seed 0: calibration written to {tmp_path / 'calibration_seed0.json'}"]


def test_run_prints_no_log_records(tmp_path, capsys):
    """A season logs each proposal at DEBUG; a plain CLI run shows none of
    it, only its one result line."""
    config = tmp_path / "config.json"
    doc = {"costs": {"calibration_days": 40}, "season": {"days": 3, "output_dir": str(tmp_path)}}
    config.write_text(json.dumps(doc))
    assert main(["calibrate", "--config", str(config), "--seed", "0"]) == 0
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "roomtune.cli", "run", "--config", str(config), "--method", "scbo", "--seed", "0"],
        capture_output=True, text=True, env=env, timeout=300, check=True,
    )
    assert proc.stderr == ""
    assert len(proc.stdout.splitlines()) == 1
    assert proc.stdout.startswith("scbo seed 0: 3 days")
