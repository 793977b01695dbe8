import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from roomtune.cli import main
from roomtune.costs import NormalizedCosts
from roomtune.gp import GPModel
from roomtune.harness import read_results_csv
from roomtune.optimizer import (
    METHOD_SCBO,
    ContextScaler,
    GainDomain,
    OptimizerState,
    contextual_kernel_template,
    safe_set,
    state_at_day,
    state_from_json,
    state_to_json,
    update,
)

SRC = str(Path(__file__).resolve().parents[1] / "src")


def _subprocess_env():
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}


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


def reference_safe_set_output(state_file, day, oat) -> str:
    """What safe-set printed with one print per grid point, on the state
    restored whole and then truncated to the day."""
    state = state_at_day(state_from_json(Path(state_file).read_text()), day)
    mask = safe_set(state, oat)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        print(f"# day {day} oat {oat} safe {int(mask.sum())} of {mask.size}")
        print("kp,ki,safe")
        for (kp, ki), flag in zip(state.domain.points, mask):
            print(f"{kp},{ki},{int(flag)}")
    return out.getvalue()


def exponent_grid_state_file(tmp_path) -> Path:
    """An scbo state on a grid whose smallest ki and largest kp values
    print in exponent form (1e-06, 1e+17), with a few safe observations
    so that its safe sets hold more than the anchor."""
    domain = GainDomain.build((0.02, 1e17), (1e-6, 0.2), 40, (0.6, 0.004))
    spec = contextual_kernel_template()
    state = OptimizerState(
        method=METHOD_SCBO,
        domain=domain,
        scaler=ContextScaler(-15.0, 15.0),
        weights=(0.25, 0.25, 0.25, 0.25),
        thresholds=(1.0, 1.0, 1.0),
        cost_models=tuple(GPModel.empty(spec, 0.01, 0.5) for _ in range(4)),
        constraint_models=tuple(GPModel.empty(spec, 0.01) for _ in range(3)),
    )
    for day, index in enumerate((0, 41, 82, domain.anchor_index, domain.size - 1), start=1):
        state = update(state, domain.gains_at(index), 2.0 * day, NormalizedCosts(0.2, 0.3, 0.1, 0.4, 0.25), day=day)
    path = tmp_path / "exponent_state.json"
    path.write_text(state_to_json(state))
    return path


@pytest.mark.parametrize("grid", ["default", "exponent"])
def test_safe_set_output_matches_one_print_per_point(grid, workspace, tmp_path, capsys):
    """safe-set formats each axis value once and writes its rows at once;
    the bytes must be those of the per-point print loop, on a grid that
    prints its values in exponent form too."""
    state_file = workspace[1] / "scbo_seed0_state.json" if grid == "default" else exponent_grid_state_file(tmp_path)
    saw_safe_points = False
    for day in (-1, 0, 2, 3, 99):
        for oat in ("-7.5", "0.0", "12"):
            assert main(["safe-set", "--state", str(state_file), "--day", str(day), "--oat", oat]) == 0
            out = capsys.readouterr().out
            assert out == reference_safe_set_output(state_file, day, float(oat))
            saw_safe_points |= out.count(",1\n") > 1
    assert saw_safe_points
    if grid == "exponent":
        assert "\n1e+17,1e-06," in out


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "warm"])
@pytest.mark.parametrize(
    "command, flag", [("safe-set", "--oat"), ("gain-schedule", "--oat-min"), ("gain-schedule", "--oat-max")]
)
def test_a_non_finite_outside_temperature_fails_at_parse_time(command, flag, value, tmp_path, capsys):
    """safe-set --oat nan certified the anchor, and gain-schedule at a NaN
    temperature chose grid index 0; both must refuse the value with status
    2 and print nothing."""
    argv = [command, "--state", str(exponent_grid_state_file(tmp_path)), f"{flag}={value}"]
    if command == "safe-set":
        argv += ["--day", "3"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and f"expected a finite number, got '{value}'" in captured.err


def test_safe_set_conditions_each_surrogate_once(workspace, monkeypatch, capsys):
    """safe-set --day d builds its state at day d directly: 7 empty priors
    from the file and 7 surrogates on the first d observations, none on
    the whole log."""
    state_file = workspace[1] / "scbo_seed0_state.json"
    rows = []
    with_data = GPModel.with_data

    def counting_with_data(self, inputs, targets, *, index=None):
        rows.append(len(inputs))
        return with_data(self, inputs, targets, index=index)

    monkeypatch.setattr(GPModel, "with_data", counting_with_data)
    assert main(["safe-set", "--state", str(state_file), "--day", "2", "--oat", "0.0"]) == 0
    capsys.readouterr()
    assert sorted(rows) == [0] * 7 + [2] * 7


def test_importing_the_cli_loads_no_scipy_stats_or_optimize():
    """The safe-set quantile comes from scipy.special, and only the
    calibration's fits import scipy.optimize; scipy.stats would add about
    20 MB and scipy.optimize about 17 MB to every roomtune command."""
    probe = (
        "import sys, roomtune.cli; "
        "print(*(m in sys.modules for m in ('scipy.stats', 'scipy.optimize', 'scipy.special')))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=_subprocess_env(), timeout=120, check=True
    )
    assert proc.stdout.split() == ["False", "False", "True"]


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


@pytest.mark.parametrize("method", ["fixed", "scbo"])
def test_run_without_calibration_exits_with_error(method, tmp_path, capsys):
    """fixed too: its costs would stay raw, and a report would set them
    against other methods' normalized costs."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"season": {"days": 2, "output_dir": str(tmp_path / "empty")}}))
    assert main(["run", "--config", str(config), "--method", method, "--seed", "0"]) == 2
    assert "calibrate" in capsys.readouterr().err
    assert not (tmp_path / "empty").exists()


@pytest.mark.parametrize("command", [["calibrate"], ["run", "--method", "scbo", "--seed", "0"]])
@pytest.mark.parametrize(
    "optimizer", [{"epsilon": 0.7}, {"beta": -1}, {"grid_size": 1}, {"beta": "2"}, {"grid_size": 40.5}]
)
def test_a_config_value_the_tuner_refuses_exits_with_error_before_any_write(command, optimizer, tmp_path, capsys):
    """calibrate used to simulate and fit, and write, a calibration under
    an epsilon or beta that only run refused, and a value of the wrong
    type raised TypeError with a traceback; the config is now refused
    when read: status 2, one error line, nothing written."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"optimizer": optimizer, "season": {"output_dir": str(tmp_path / "out")}}))
    assert main([command[0], "--config", str(config), *command[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith(f"error: config {config}: ")
    assert not (tmp_path / "out").exists()


def test_unknown_method_rejected_by_parser(workspace):
    config, _ = workspace
    with pytest.raises(SystemExit):
        main(["run", "--config", str(config), "--method", "greedy", "--seed", "0"])


def test_calibrate_prints_no_log_records(tmp_path):
    """The calibration logs each fit at DEBUG; a plain CLI run shows none
    of it, only its one result line."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"costs": {"calibration_days": 40}, "season": {"output_dir": str(tmp_path)}}))
    proc = subprocess.run(
        [sys.executable, "-m", "roomtune.cli", "calibrate", "--config", str(config), "--seed", "0"],
        capture_output=True, text=True, env=_subprocess_env(), timeout=300, check=True,
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
    proc = subprocess.run(
        [sys.executable, "-m", "roomtune.cli", "run", "--config", str(config), "--method", "scbo", "--seed", "0"],
        capture_output=True, text=True, env=_subprocess_env(), timeout=300, check=True,
    )
    assert proc.stderr == ""
    assert len(proc.stdout.splitlines()) == 1
    assert proc.stdout.startswith("scbo seed 0: 3 days")
