import contextlib
import io
import json
import math
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from roomtune import cli, gp
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


def tiny_season_config(root: Path) -> tuple[Path, Path]:
    """Config file plus output dir for a tiny end-to-end season."""
    out = root / "out"
    config = {
        "costs": {"calibration_days": 40},
        "season": {"days": 3, "seeds": 1, "output_dir": str(out)},
    }
    path = root / "config.json"
    path.write_text(json.dumps(config))
    return path, out


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """The tiny season's config file and its output dir, which holds the
    seed-0 calibration and the fixed, bo and scbo CSVs and states, so a
    test that reads them runs on its own as well."""
    config, out = tiny_season_config(tmp_path_factory.mktemp("cli"))
    assert main(["calibrate", "--config", str(config)]) == 0
    for method in ("fixed", "bo", "scbo"):
        assert main(["run", "--config", str(config), "--method", method, "--seed", "0"]) == 0
    return config, out


def test_calibrate_then_run_then_report(tmp_path, capsys):
    config, out = tiny_season_config(tmp_path)

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
    for day in (0, 2, 3, 99):
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


@pytest.mark.parametrize(
    "command, flag, value, smallest",
    [
        ("gain-schedule", "--points", "-1", 1),  # ended in a numpy ValueError traceback
        ("gain-schedule", "--points", "0", 1),  # printed the header alone
        ("gain-schedule", "--points", "2.5", 1),
        ("safe-set", "--day", "-1", 0),  # printed day 0's safe set under "# day -1"
    ],
)
def test_a_point_count_or_day_out_of_range_fails_at_parse_time(command, flag, value, smallest, tmp_path, capsys):
    """Refused with status 2 and nothing on stdout; the smallest value in
    range is still read."""
    argv = [command, "--state", str(exponent_grid_state_file(tmp_path))]
    if command == "safe-set":
        argv += ["--oat", "0.0"]
    with pytest.raises(SystemExit) as exc:
        main([*argv, f"{flag}={value}"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and f"expected an integer >= {smallest}, got '{value}'" in captured.err
    assert main([*argv, f"{flag}={smallest}"]) == 0


@pytest.mark.parametrize(
    "command",
    [
        ["calibrate"],  # started the calibration, then ended in a SeedSequence traceback
        ["run", "--method", "fixed"],  # looked for out/calibration_seed-2.json
    ],
)
@pytest.mark.parametrize("seed", ["-1", "-2"])
def test_a_negative_seed_fails_at_parse_time(command, seed, tmp_path, capsys):
    """Refused with status 2 before the config is read: nothing on stdout,
    nothing written."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"season": {"days": 2, "output_dir": str(tmp_path / "out")}}))
    with pytest.raises(SystemExit) as exc:
        main([command[0], "--config", str(config), *command[1:], f"--seed={seed}"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and f"expected an integer >= 0, got '{seed}'" in captured.err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("case", ["missing", "empty", "bad header"])
def test_report_on_a_directory_without_valid_results_exits_with_error(case, tmp_path, capsys):
    """A missing directory (FileNotFoundError), one with no results CSV and
    one whose CSV has the wrong header (ValueError) each ended in a
    traceback with status 1; now status 2, one error line, nothing on
    stdout and no summary written."""
    directory = tmp_path / "results"
    if case != "missing":
        directory.mkdir()
        (directory / "notes.txt").write_text("not a results file\n")
    if case == "bad header":
        (directory / "fixed_seed0.csv").write_text("seed,day,cost\n0,1,0.5\n")
    assert main(["report", "--dir", str(directory)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: results directory {directory}: ") and captured.err.count("\n") == 1
    detail = {
        "missing": "No such file or directory",
        "empty": "no results CSVs found",
        "bad header": f"unexpected results header in {directory / 'fixed_seed0.csv'}",
    }[case]
    assert captured.err == f"error: results directory {directory}: {detail}\n"
    assert not (directory / "summary.json").exists()


def test_safe_set_conditions_each_surrogate_once(workspace, monkeypatch, capsys):
    """safe-set --day d factors only the constraint surrogates it queries,
    each once and on the first d observations: 1 to 3 Gram matrices of
    d x d, none over the whole log."""
    state_file = workspace[1] / "scbo_seed0_state.json"
    shapes = []
    factor = gp._factor_in_place

    def counting_factor(gram):
        shapes.append(gram.shape)
        return factor(gram)

    monkeypatch.setattr(gp, "_factor_in_place", counting_factor)
    assert main(["safe-set", "--state", str(state_file), "--day", "2", "--oat", "0.0"]) == 0
    capsys.readouterr()
    assert 1 <= len(shapes) <= 3 and set(shapes) == {(2, 2)}


@pytest.mark.parametrize("command", [["safe-set", "--day", "2", "--oat", "0.0"], ["gain-schedule"]])
@pytest.mark.parametrize("content", ["truncated", "missing", "{}"])
def test_an_unreadable_state_file_exits_with_error(command, content, workspace, tmp_path, capsys):
    """A truncated state (JSONDecodeError), a missing one
    (FileNotFoundError) and one without its fields (KeyError) each ended
    in a traceback with status 1; now status 2, one error line, and
    nothing on stdout."""
    state_file = tmp_path / "state.json"
    if content == "truncated":
        text = (workspace[1] / "scbo_seed0_state.json").read_text()
        state_file.write_text(text[: len(text) // 2])
    elif content == "{}":
        state_file.write_text(content)
    assert main([command[0], "--state", str(state_file), *command[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: state {state_file}: ") and captured.err.count("\n") == 1


def test_a_truncated_calibration_exits_with_error_before_any_write(workspace, tmp_path, capsys):
    """run ended in a JSONDecodeError traceback on a truncated calibration
    file; it now exits with status 2 and one error line, and writes nothing."""
    text = (workspace[1] / "calibration_seed0.json").read_text()
    calibration = tmp_path / "calibration.json"
    calibration.write_text(text[: len(text) // 2])
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"season": {"days": 2, "output_dir": str(tmp_path / "out")}}))
    argv = ["run", "--config", str(config), "--method", "scbo", "--seed", "0", "--calibration", str(calibration)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: calibration {calibration}: ") and captured.err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def _numeric_paths(doc, path=()):
    """Key paths to the numeric leaves of a JSON document; in a list only
    the last item is visited, and stands for the others."""
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _numeric_paths(value, (*path, key))
    elif isinstance(doc, list) and doc:
        yield from _numeric_paths(doc[-1], (*path, -1))
    elif isinstance(doc, (int, float)) and not isinstance(doc, bool):
        yield path


# Every numeric field of a calibration and of an scbo state, as _numeric_paths names them.
_CALIBRATION_FIELDS = [
    ("normalization", "scales", -1),
    ("normalization", "thresholds", -1),
    ("normalization", "weights", -1),
    ("context", "oat_min"),
    ("context", "oat_max"),
    ("models", "cost_contextual", -1, "kernel", "lengthscales", -1),
    ("models", "cost_contextual", -1, "kernel", "signal_variance"),
    ("models", "cost_contextual", -1, "noise_variance"),
    ("models", "cost_contextual", -1, "basis_coefficient"),
    ("models", "constraint_contextual", -1, "kernel", "lengthscales", -1),
    ("models", "constraint_contextual", -1, "kernel", "signal_variance"),
    ("models", "constraint_contextual", -1, "noise_variance"),
]
_STATE_FIELDS = [
    ("beta",),
    ("epsilon",),
    ("weights", -1),
    ("thresholds", -1),
    ("domain", "kp_values", -1),
    ("domain", "ki_values", -1),
    ("domain", "anchor", -1),
    ("context", "oat_min"),
    ("context", "oat_max"),
    ("cost_models", -1, "kernel", "lengthscales", -1),
    ("cost_models", -1, "kernel", "signal_variance"),
    ("cost_models", -1, "noise_variance"),
    ("cost_models", -1, "basis_coefficient"),
    ("constraint_models", -1, "kernel", "lengthscales", -1),
    ("constraint_models", -1, "kernel", "signal_variance"),
    ("constraint_models", -1, "noise_variance"),
    ("observations", -1, "day"),
    ("observations", -1, "context"),
    ("observations", -1, "gain_index"),
    ("observations", -1, "costs", -1),
]


def _field_id(path) -> str:
    return ".".join(map(str, path))


def _with_value(text: str, path, value) -> str:
    """The JSON document ``text`` with the field at ``path`` set to
    ``value``; json writes NaN and the infinities as NaN and Infinity."""
    doc = json.loads(text)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return json.dumps(doc)


@pytest.mark.parametrize(
    "name, fields", [("calibration_seed0.json", _CALIBRATION_FIELDS), ("scbo_seed0_state.json", _STATE_FIELDS)]
)
def test_the_field_lists_name_every_numeric_field_of_the_artifacts(name, fields, workspace):
    assert set(_numeric_paths(json.loads((workspace[1] / name).read_text()))) == set(fields)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("field", _CALIBRATION_FIELDS, ids=_field_id)
def test_run_refuses_a_calibration_holding_a_non_finite_number(field, value, workspace, tmp_path, capsys):
    """json reads NaN and Infinity, and the range rules let them through:
    run went on with a NaN lengthscale or noise variance and wrote its
    results, and a NaN threshold ended in a traceback after day 1. Each is
    now refused on reading: status 2, one error line, nothing written."""
    calibration = tmp_path / "calibration.json"
    calibration.write_text(_with_value((workspace[1] / "calibration_seed0.json").read_text(), field, value))
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"season": {"days": 2, "output_dir": str(tmp_path / "out")}}))
    argv = ["run", "--config", str(config), "--method", "scbo", "--seed", "0", "--calibration", str(calibration)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: calibration {calibration}: ") and captured.err.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("field", _STATE_FIELDS, ids=_field_id)
@pytest.mark.parametrize("command", [["safe-set", "--day", "3", "--oat", "0.0"], ["gain-schedule"]], ids=lambda c: c[0])
def test_a_state_holding_a_non_finite_number_is_refused(command, field, value, workspace, tmp_path, capsys):
    """safe-set printed "safe 1 of 1600", the anchor fallback shown as a
    certified gain, on a state with a NaN lengthscale or grid value; every
    non-finite number in a state is now refused on reading: status 2, one
    error line, nothing on stdout."""
    state_file = tmp_path / "state.json"
    state_file.write_text(_with_value((workspace[1] / "scbo_seed0_state.json").read_text(), field, value))
    assert main([command[0], "--state", str(state_file), *command[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: state {state_file}: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("case", ["different lengths", "repeated day"])
def test_report_on_runs_that_do_not_hold_the_same_days_exits_with_error(
    case, workspace, tmp_path, capsys, monkeypatch
):
    """A 3-day and a 2-day results CSV ended in a "mismatched day counts"
    traceback with status 1, and a CSV of days 1, 2, 1 was reported as a
    3-day season; now each gives status 2, one error line, nothing on
    stdout and no summary written. Only a ValueError of the aggregation
    is turned into an error line: any other fault stays a traceback."""
    directory = tmp_path / "results"
    directory.mkdir()
    lines = (workspace[1] / "fixed_seed0.csv").read_text().splitlines(keepends=True)
    (directory / "fixed_seed0.csv").write_text("".join(lines))
    scbo = lines[:3] if case == "different lengths" else [*lines[:3], lines[1]]  # lines[1] is day 1
    (directory / "scbo_seed0.csv").write_text("".join(scbo))
    assert main(["report", "--dir", str(directory)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    detail = {
        "different lengths": "mismatched day counts across runs: [2, 3]",
        "repeated day": "a scbo run of seed 0 does not hold days 1..3 once each",
    }[case]
    assert captured.err == f"error: results directory {directory}: {detail}\n"
    assert not (directory / "summary.json").exists()

    def faulty(results):
        raise KeyError("j_total")

    monkeypatch.setattr(cli, "compare_report", faulty)
    with pytest.raises(KeyError):
        main(["report", "--dir", str(directory)])


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


@pytest.mark.parametrize("command", [["calibrate"], ["run", "--method", "scbo", "--seed", "0"]], ids=lambda c: c[0])
@pytest.mark.parametrize(
    "case, detail",
    [
        ("missing", "No such file or directory"),
        ("not a number", "could not convert string to float"),
        ("not increasing", "timestamps must strictly increase"),
        ("too few days", "covers 2 days, need 40"),
    ],
)
def test_a_bad_weather_csv_exits_with_error_before_any_write(command, case, detail, workspace, tmp_path, capsys):
    """A config whose weather CSV is missing, holds a non-number, has
    timestamps that do not increase or covers fewer days than the season
    ended in a traceback; it is refused like any other bad input: status
    2, one error line that names the CSV, nothing on stdout and nothing
    written. The CSV holds two days of hourly rows, the season 40."""
    weather = tmp_path / "weather.csv"
    hours = range(48, -1, -1) if case == "not increasing" else range(49)
    oat = {5: "warm"} if case == "not a number" else {}
    rows = [f"2024-01-{1 + h // 24:02d}T{h % 24:02d}:00:00,{oat.get(h, 3.0)},100.0" for h in hours]
    if case != "missing":
        weather.write_text("\n".join(["timestamp,oat_celsius,solar_wm2", *rows]) + "\n")
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps(
            {
                "costs": {"calibration_days": 40},
                "season": {"days": 3, "output_dir": str(tmp_path / "out"), "weather": {"source": "csv", "path": str(weather)}},
            }
        )
    )
    calibration = ["--calibration", str(workspace[1] / "calibration_seed0.json")] if command[0] == "run" else []
    assert main([command[0], "--config", str(config), *command[1:], *calibration]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith(f"error: weather CSV {weather}: ")
    assert detail in captured.err and captured.err.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("method", ["greedy", "ada"])
def test_unknown_method_rejected_by_parser(method, workspace, capsys):
    config, _ = workspace
    with pytest.raises(SystemExit) as exc:
        main(["run", "--config", str(config), "--method", method, "--seed", "0"])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


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


def _state_and_parent(pid) -> tuple[str, int] | None:
    """A process's state letter and parent pid, or None once it is gone."""
    try:
        state, ppid = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[:2]
    except OSError:
        return None
    return state, int(ppid)


def _alive(pid) -> bool:
    stat = _state_and_parent(pid)
    return stat is not None and stat[0] != "Z"


def _live_children(pid: int) -> set[int]:
    """Processes whose parent is ``pid`` and that are not zombies."""
    stats = {int(p.name): _state_and_parent(p.name) for p in Path("/proc").glob("[0-9]*")}
    return {child for child, stat in stats.items() if stat is not None and stat[0] != "Z" and stat[1] == pid}


@pytest.mark.skipif(
    not Path("/proc/self/stat").exists() or len(os.sched_getaffinity(0)) < 2,
    reason="needs /proc and two CPUs, so that the calibration starts a worker",
)
def test_a_killed_calibrate_leaves_no_worker(tmp_path):
    """A start-pool worker used to outlive a SIGKILLed calibrate, asleep
    and reparented; it now dies with the process that forked it."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"costs": {"calibration_days": 40}, "season": {"output_dir": str(tmp_path)}}))
    proc = subprocess.Popen(
        [sys.executable, "-m", "roomtune.cli", "calibrate", "--config", str(config), "--seed", "0"],
        stdout=subprocess.DEVNULL, env=_subprocess_env(),
    )
    try:
        deadline = time.monotonic() + 120
        while not (workers := _live_children(proc.pid)):
            assert proc.poll() is None, "calibrate ended before a worker was seen"
            assert time.monotonic() < deadline
            time.sleep(0.01)
    finally:
        proc.kill()
        proc.wait()
    deadline = time.monotonic() + 5
    while any(map(_alive, workers)) and time.monotonic() < deadline:
        time.sleep(0.05)
    left = [pid for pid in workers if _alive(pid)]
    for pid in left:
        os.kill(pid, signal.SIGKILL)
    assert left == []
