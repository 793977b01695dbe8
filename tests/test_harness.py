import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roomtune.costs import CalibrationError
from roomtune.harness import (
    RESULTS_FIELDS,
    Calibration,
    DailyResult,
    SeasonConfig,
    build_optimizer_state,
    collect_results,
    compare_report,
    config_from_dict,
    cumulative_average,
    persist_run,
    read_results_csv,
    results_path,
    run_calibration,
    run_season,
    season_weather,
    state_path,
    write_results_csv,
)
from roomtune.optimizer import state_to_json
from roomtune.plant import DaySchedule


@pytest.fixture(scope="module")
def small_config():
    # 40 calibration episodes is the normalization minimum; 3 season days
    # keep the GP loops cheap
    return SeasonConfig(days=3, calibration_days=40, seeds=1)


@pytest.fixture(scope="module")
def calibration(small_config):
    return run_calibration(small_config, seed=0)


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


def test_empty_config_doc_gives_defaults():
    assert config_from_dict({}) == SeasonConfig()


def test_sectioned_config_overrides():
    doc = {
        "plant": {"noise_sigma": 0.02},
        "compensation": {"breakpoints": [[-10, 70], [-3, 55], [20, 30]]},
        "schedule": {"comfort_setpoint": 22.0},
        "costs": {"calibration_days": 60, "perturbation": 0.1},
        "optimizer": {"beta": 3.0, "epsilon": 0.1, "grid_size": 10, "initial_gains": [0.5, 0.005]},
        "season": {
            "days": 30,
            "seeds": 2,
            "output_dir": "out",
            "weather": {"source": "synthetic", "mid_oat": -5.0},
        },
    }
    cfg = config_from_dict(doc)
    assert cfg.plant.noise_sigma == 0.02
    assert cfg.compensation.breakpoints[1] == (-3, 55)
    assert cfg.schedule.comfort_setpoint == 22.0
    assert cfg.calibration_days == 60 and cfg.perturbation == 0.1
    assert cfg.beta == 3.0 and cfg.epsilon == 0.1 and cfg.grid_size == 10
    assert cfg.initial_gains == (0.5, 0.005)
    assert cfg.days == 30 and cfg.seeds == 2 and cfg.output_dir == "out"
    assert cfg.weather_params == {"mid_oat": -5.0}


def test_config_rejects_unknown_keys():
    with pytest.raises(ValueError, match="top-level"):
        config_from_dict({"daysn": 10})
    with pytest.raises(ValueError, match="season"):
        config_from_dict({"season": {"day": 10}})
    with pytest.raises(ValueError, match="optimizer"):
        config_from_dict({"optimizer": {"betta": 2.0}})
    with pytest.raises(ValueError, match="weather"):
        config_from_dict({"season": {"weather": {"solar": 0.1}}})
    with pytest.raises(ValueError, match="plant"):
        config_from_dict({"plant": {"gain": 1.0}})


def test_config_csv_weather():
    cfg = config_from_dict({"season": {"weather": {"source": "csv", "path": "w.csv"}}})
    assert cfg.weather_source == "csv" and cfg.weather_csv == "w.csv"
    with pytest.raises(ValueError):
        config_from_dict({"season": {"weather": {"source": "csv"}}})


def test_config_field_validation():
    with pytest.raises(ValueError):
        SeasonConfig(days=0)
    with pytest.raises(ValueError):
        SeasonConfig(seeds=0)
    with pytest.raises(ValueError):
        SeasonConfig(perturbation=1.0)
    with pytest.raises(ValueError):
        SeasonConfig(weather_source="forecast")
    # a bad schedule fails when the config is read, not mid-season
    with pytest.raises(ValueError):
        config_from_dict({"schedule": {"morning_hour": 30.0}})
    with pytest.raises(ValueError):
        config_from_dict({"schedule": {"night_setpoint": math.nan}})


# ---------------------------------------------------------------------------
# weather plumbing
# ---------------------------------------------------------------------------


def test_season_weather_covers_both_phases_and_is_seeded(small_config):
    days = season_weather(small_config, seed=0)
    assert len(days) == 40  # max(days, calibration_days)
    again = season_weather(small_config, seed=0)
    for a, b in zip(days, again):
        np.testing.assert_array_equal(a.oat_profile, b.oat_profile)
    other = season_weather(small_config, seed=1)
    assert not np.array_equal(days[0].oat_profile, other[0].oat_profile)
    longer = dataclasses.replace(small_config, days=50)
    assert len(season_weather(longer, seed=0)) == 50


def test_morning_context_reads_the_six_oclock_sample(small_config):
    from roomtune.harness import _morning_oat

    day = season_weather(small_config, seed=0)[0]
    idx = DaySchedule().morning_step_index(small_config.plant.step_seconds)
    assert idx == 72  # 06:00 at 300 s sampling
    assert _morning_oat(small_config, day) == day.oat_profile[idx]


# ---------------------------------------------------------------------------
# calibration
# ---------------------------------------------------------------------------


def test_calibration_artifact_shape(small_config, calibration):
    norm = calibration.normalization
    assert all(s > 0 for s in norm.scales)
    assert all(t >= 1.0 for t in norm.thresholds)
    assert calibration.scaler.oat_max > calibration.scaler.oat_min
    assert len(calibration.contextual_cost_models) == 4
    assert len(calibration.contextual_constraint_models) == 3
    for m in calibration.contextual_cost_models:
        assert m.kernel.input_dim == 3
        assert m.basis_coefficient is not None
    for m in calibration.contextual_constraint_models:
        assert m.kernel.input_dim == 3
        assert m.basis_coefficient is None
    # the context-free surrogates are slices of the contextual fits
    gain_only = build_optimizer_state(small_config, calibration, "bo").cost_models
    assert len(gain_only) == 4
    for ctx, sliced in zip(calibration.contextual_cost_models, gain_only):
        assert sliced.kernel.input_dim == 2
        assert sliced.kernel.lengthscales == ctx.kernel.lengthscales[:2]
        assert sliced.kernel.signal_variance == ctx.kernel.signal_variance
        assert sliced.noise_variance == ctx.noise_variance


def test_calibration_json_round_trip(calibration):
    text = calibration.to_json()
    assert Calibration.from_json(text).to_json() == text


def test_calibration_is_deterministic(small_config, calibration):
    assert run_calibration(small_config, seed=0).to_json() == calibration.to_json()


def test_calibration_needs_enough_episodes(small_config):
    short = dataclasses.replace(small_config, calibration_days=20)
    with pytest.raises(CalibrationError):
        run_calibration(short, seed=0)


def test_build_optimizer_state_per_method(small_config, calibration):
    bo = build_optimizer_state(small_config, calibration, "bo")
    assert bo.scaler is None and bo.input_dim == 2 and not bo.constraint_models
    cbo = build_optimizer_state(small_config, calibration, "cbo")
    assert cbo.scaler is not None and cbo.input_dim == 3 and not cbo.constraint_models
    scbo = build_optimizer_state(small_config, calibration, "scbo")
    assert len(scbo.constraint_models) == 3
    assert scbo.beta == small_config.beta and scbo.epsilon == small_config.epsilon
    with pytest.raises(ValueError):
        build_optimizer_state(small_config, calibration, "fixed")


# ---------------------------------------------------------------------------
# season runs
# ---------------------------------------------------------------------------


def test_fixed_season_holds_the_anchor(small_config):
    run = run_season(small_config, "fixed", seed=0)
    assert run.method == "fixed" and run.final_state is None
    assert len(run.results) == 3
    anchor = small_config.anchor_gains
    for day, row in enumerate(run.results, start=1):
        assert row.day == day and row.seed == 0
        assert row.kp == anchor.kp and row.ki == anchor.ki
        assert row.safe_set_size == 1
        assert not row.violation  # identity normalization never flags
        # raw costs pass through unscaled
        assert row.j1 == row.j1_raw and row.j4 == row.j4_raw
        assert row.j_total == pytest.approx(0.25 * (row.j1 + row.j2 + row.j3 + row.j4))


def test_gp_season_starts_at_anchor_and_logs_days(small_config, calibration):
    run = run_season(small_config, "scbo", seed=0, calibration=calibration)
    assert len(run.results) == 3
    first = run.results[0]
    anchor = small_config.anchor_gains
    assert (first.kp, first.ki) == (anchor.kp, anchor.ki)
    assert first.safe_set_size == 1  # nothing certified before data
    assert len(run.final_state.observations) == 3
    assert [o.day for o in run.final_state.observations] == [1, 2, 3]


def test_season_is_deterministic(small_config, calibration):
    a = run_season(small_config, "scbo", seed=0, calibration=calibration)
    b = run_season(small_config, "scbo", seed=0, calibration=calibration)
    assert a.results == b.results
    assert state_to_json(a.final_state) == state_to_json(b.final_state)


def test_gp_methods_require_calibration(small_config):
    with pytest.raises(ValueError):
        run_season(small_config, "scbo", seed=0)
    with pytest.raises(ValueError):
        run_season(small_config, "random", seed=0)


def test_persist_run_writes_csv_and_state(small_config, calibration, tmp_path):
    cfg = dataclasses.replace(small_config, output_dir=str(tmp_path))
    run = run_season(cfg, "cbo", seed=0, calibration=calibration)
    path = persist_run(cfg, run)
    assert path == results_path(cfg, "cbo", 0)
    assert read_results_csv(path) == list(run.results)
    assert state_path(cfg, "cbo", 0).read_text() == state_to_json(run.final_state)


# ---------------------------------------------------------------------------
# results files and reporting
# ---------------------------------------------------------------------------


def result_row(seed, day, total, violation=False):
    return DailyResult(
        seed=seed,
        day=day,
        oat_c=-1.23456789,
        kp=0.6,
        ki=0.004,
        j1_raw=1234.5,
        j2_raw=0.1,
        j3_raw=0.25,
        j4_raw=10.0,
        j1=0.4,
        j2=0.1,
        j3=0.5,
        j4=0.9,
        j_total=total,
        safe_set_size=7,
        violation=violation,
    )


def test_results_csv_round_trip(tmp_path):
    rows = [result_row(0, 1, 0.1 + 0.2), result_row(0, 2, 1e-17, violation=True)]
    path = tmp_path / "fixed_seed0.csv"
    write_results_csv(path, rows)
    header = path.read_text().splitlines()[0]
    assert tuple(header.split(",")) == RESULTS_FIELDS
    assert read_results_csv(path) == rows


_FIELD_VALUES = {
    "int": st.integers(),
    "float": st.floats(allow_nan=False, allow_infinity=False),
    "bool": st.booleans(),
}


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.builds(DailyResult, **{f.name: _FIELD_VALUES[f.type] for f in dataclasses.fields(DailyResult)}),
        max_size=5,
    )
)
def test_results_csv_round_trips_generated_rows(tmp_path_factory, rows):
    path = tmp_path_factory.getbasetemp() / "generated_seed0.csv"
    write_results_csv(path, rows)
    assert read_results_csv(path) == rows


def test_results_csv_rejects_foreign_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("day,cost\n1,0.5\n")
    with pytest.raises(ValueError):
        read_results_csv(path)


@pytest.mark.parametrize(
    "edit", [lambda line: line.rsplit(",", 1)[0], lambda line: line + ",9"], ids=["truncated", "extra_field"]
)
def test_results_csv_rejects_rows_of_the_wrong_width(tmp_path, edit):
    path = tmp_path / "fixed_seed0.csv"
    write_results_csv(path, [result_row(0, 1, 0.5), result_row(0, 2, 0.5)])
    lines = path.read_text().splitlines()
    lines[2] = edit(lines[2])
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=rf"fixed_seed0\.csv, line 3: (15|17) fields"):
        read_results_csv(path)


@pytest.mark.parametrize(
    "field, text, problem",
    [
        ("j_total", "nan", "non-finite value 'nan'"),
        ("oat_c", "-inf", "non-finite value '-inf'"),
        ("violation", "7", "flag must be 0 or 1, got '7'"),
        ("violation", "true", "flag must be 0 or 1, got 'true'"),
    ],
)
def test_results_csv_rejects_non_finite_floats_and_non_binary_flags(tmp_path, field, text, problem):
    path = tmp_path / "fixed_seed0.csv"
    write_results_csv(path, [result_row(0, 1, 0.5), result_row(0, 2, 0.5)])
    lines = path.read_text().splitlines()
    values = lines[2].split(",")
    values[RESULTS_FIELDS.index(field)] = text
    lines[2] = ",".join(values)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=rf"fixed_seed0\.csv, line 3: {problem}"):
        read_results_csv(path)


def test_cumulative_average():
    np.testing.assert_allclose(cumulative_average([1.0, 3.0, 5.0]), [1.0, 2.0, 3.0])


def test_collect_and_compare_report(tmp_path):
    write_results_csv(tmp_path / "fixed_seed0.csv", [result_row(0, 1, 1.0), result_row(0, 2, 1.0)])
    write_results_csv(tmp_path / "fixed_seed1.csv", [result_row(1, 1, 2.0), result_row(1, 2, 2.0)])
    write_results_csv(tmp_path / "scbo_seed0.csv", [result_row(0, 1, 0.8), result_row(0, 2, 0.6)])
    write_results_csv(tmp_path / "scbo_seed1.csv", [result_row(1, 1, 1.0), result_row(1, 2, 0.8)])
    (tmp_path / "calibration_seed0.json").write_text("{}")  # ignored
    grouped = collect_results(tmp_path)
    assert sorted(grouped) == ["fixed", "scbo"]
    assert len(grouped["fixed"]) == 2

    report = compare_report(grouped)
    assert report.days == 2
    # fixed cumavg curves are flat at 1 and 2; medians midway
    np.testing.assert_allclose(report.cumulative["fixed"]["median"], [1.5, 1.5])
    np.testing.assert_allclose(report.cumulative["scbo"]["median"], [0.9, 0.8])
    assert report.final_median["fixed"] == pytest.approx(1.5)
    assert report.final_median["scbo"] == pytest.approx(0.8)
    assert report.improvement_vs_fixed_pct["scbo"] == pytest.approx(100 * (1.5 - 0.8) / 1.5)
    assert report.improvement_vs_fixed_pct["fixed"] == 0.0
    doc = report.to_json()
    assert "cumulative_average" in doc


def test_compare_report_rejects_mismatched_day_counts(tmp_path):
    write_results_csv(tmp_path / "fixed_seed0.csv", [result_row(0, 1, 1.0)])
    write_results_csv(tmp_path / "scbo_seed0.csv", [result_row(0, 1, 0.8), result_row(0, 2, 0.6)])
    with pytest.raises(ValueError, match="day counts"):
        compare_report(collect_results(tmp_path))


def test_collect_results_requires_files(tmp_path):
    with pytest.raises(ValueError):
        collect_results(tmp_path)
    with pytest.raises(ValueError):
        compare_report({})
