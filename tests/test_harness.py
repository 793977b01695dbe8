import dataclasses
import logging
import math
import multiprocessing
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from roomtune import gp, harness
from roomtune.costs import CalibrationError, RawCosts, calibrate_normalization
from roomtune.harness import (
    RESULTS_FIELDS,
    Calibration,
    DailyResult,
    SeasonConfig,
    build_optimizer_state,
    collect_results,
    compare_report,
    config_from_dict,
    persist_run,
    read_results_csv,
    results_path,
    run_calibration,
    run_season,
    season_weather,
    state_path,
    write_atomically,
    write_results_csv,
)
from roomtune.gp import model_to_dict
from roomtune.optimizer import ALL_METHODS, state_to_json
from roomtune.pid import PIGains
from roomtune.plant import DEFAULT_COMPENSATION, STEPS_PER_DAY, DaySchedule, WeatherConfig


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
    assert cfg.weather == WeatherConfig(mid_oat=-5.0)


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
    # the sample step is a constant of the simulator, not a plant setting
    with pytest.raises(ValueError, match=r"unknown plant config keys: \['step_seconds'\]"):
        config_from_dict({"plant": {"step_seconds": 300}})


def test_config_csv_weather():
    cfg = config_from_dict({"season": {"weather": {"source": "csv", "path": "w.csv"}}})
    assert cfg.weather_csv == "w.csv" and cfg.weather == WeatherConfig()
    assert config_from_dict({"season": {"weather": {"source": "synthetic"}}}).weather_csv is None
    with pytest.raises(ValueError, match="needs a path"):
        config_from_dict({"season": {"weather": {"source": "csv"}}})
    with pytest.raises(ValueError, match="'synthetic' or 'csv'"):
        config_from_dict({"season": {"weather": {"source": "forecast"}}})


def test_a_config_hashes_and_reads_its_sections_into_typed_fields():
    """Every field of a config is a value, so configs hash; the weather
    block reads into an equal WeatherConfig, and a key that is not one of
    its fields (the day count is a run parameter, the step a constant) fails on read,
    not in the middle of a run."""
    assert hash(SeasonConfig()) == hash(config_from_dict({}))
    block = {"edge_oat": 6.0, "mid_oat": -4, "daily_amplitude": 3.5, "warmest_hour": 14.0, "ar1_phi": 0.8,
             "ar1_sigma": 1.0, "solar_peak": 0.3, "occupancy_gain": 0.02}
    assert set(block) == {f.name for f in dataclasses.fields(WeatherConfig)}
    doc = {"compensation": {"breakpoints": [[-10, 70], [-3, 55], [20, 30]]},
           "season": {"weather": {"source": "synthetic", **block}}}
    cfg = config_from_dict(doc)
    assert cfg.weather == WeatherConfig(**block)
    assert cfg == config_from_dict(doc) and hash(cfg) == hash(config_from_dict(doc))
    assert cfg.compensation.breakpoints == ((-10.0, 70.0), (-3.0, 55.0), (20.0, 30.0))
    assert config_from_dict({"compensation": {}}).compensation == DEFAULT_COMPENSATION
    for key in ("days", "step_seconds", "bogus"):
        with pytest.raises(ValueError, match="weather"):
            config_from_dict({"season": {"weather": {key: 3}}})


def test_a_weather_csv_path_is_read_not_replaced_by_synthetic_weather(tmp_path):
    with pytest.raises(FileNotFoundError):
        season_weather(SeasonConfig(weather_csv=str(tmp_path / "missing.csv")), seed=0)


def test_config_field_validation():
    with pytest.raises(ValueError):
        SeasonConfig(days=0)
    with pytest.raises(ValueError):
        SeasonConfig(seeds=0)
    with pytest.raises(ValueError):
        SeasonConfig(perturbation=1.0)
    # a bad schedule fails when the config is read, not mid-season
    with pytest.raises(ValueError):
        config_from_dict({"schedule": {"morning_hour": 30.0}})
    with pytest.raises(ValueError):
        config_from_dict({"schedule": {"night_setpoint": math.nan}})
    # so do the tuner's confidence settings and gain grid, before a calibration is simulated
    for optimizer in ({"epsilon": 0.7, "beta": -1}, {"epsilon": 0.7}, {"beta": -1}, {"beta": math.nan},
                      {"grid_size": 1}, {"kp_bounds": [5, 1]}, {"initial_gains": [50.0, 0.004]}):
        with pytest.raises(ValueError):
            config_from_dict({"optimizer": optimizer})


@pytest.mark.parametrize(
    "doc",
    [
        # NaN is false on both sides of noise_sigma's range check; the run would have no noise
        {"plant": {"noise_sigma": math.nan}},
        {"plant": {"input_gain": math.inf}},
        {"season": {"weather": {"mid_oat": "cold"}}},  # failed in the first weather day's arithmetic
        {"season": {"weather": {"ar1_sigma": -1.0}}},  # failed inside rng.normal
        {"season": {"weather": {"mid_oat": [1]}}},  # made a config whose hash raised TypeError
        {"season": {"weather": {"daily_amplitude": math.nan}}},
    ],
)
def test_plant_and_weather_values_must_be_finite_numbers(doc):
    """A plant or weather value that could only fail mid-run, or never,
    fails when the config is read."""
    with pytest.raises(ValueError, match="must be"):
        config_from_dict(doc)


@pytest.mark.parametrize(
    "doc",
    [
        {"optimizer": {"beta": "2"}},  # raised TypeError in the confidence check
        {"season": {"days": "3"}},  # raised TypeError in the day-count check
        {"season": {"days": True}},
        {"season": {"master_seed": -1}},  # failed in SeedSequence, after the config was read
        {"costs": {"weights": [0.5, 0.5, 0.5, 0.5]}},  # failed after the calibration season was simulated
        {"costs": {"weights": [0.25, 0.25, 0.5]}},
        {"optimizer": {"kp_bounds": [0.1, "3"]}},
        {"costs": {"calibration_days": 20}},  # failed in calibrate_normalization
        {"season": {"days": 145.0}},  # a float for an integer
        {"plant": {"radiator_ua": 0}},  # calibrated a room that is never heated
        {"plant": {"radiator_ua": -0.8}},  # failed mid-calibration with the room at -20.9 degC
        # a NaN water temperature passed every curve rule, being false on both sides of each
        {"compensation": {"breakpoints": [[-20, math.nan], [-10, 70], [-3, 60], [20, 35]]}},
    ],
)
def test_a_config_value_of_the_wrong_type_or_out_of_range_is_refused_when_read(doc):
    with pytest.raises(ValueError, match="must"):
        config_from_dict(doc)


def test_config_rejects_a_schedule_with_no_comfort_sample():
    # 23.95 h lies past the last 300 s sample (23:55), so the setpoint never steps up
    late = DaySchedule(morning_hour=23.95, evening_hour=24.0)
    with pytest.raises(ValueError, match="no comfort sample"):
        SeasonConfig(schedule=late)
    with pytest.raises(ValueError, match="no comfort sample"):
        config_from_dict({"schedule": {"morning_hour": 23.99, "evening_hour": 24.0}})


# A value of the wrong kind for a number field.
_NOT_A_NUMBER = st.sampled_from(["17", True, None, [1.0, 2.0], {"value": 1.0}, math.nan, -math.inf])

# Per config key: values the config reads, then values it must refuse.
_CONFIG_VALUES = {
    ("plant", "noise_sigma"): (st.floats(0.0, 0.02), st.one_of(st.floats(-1.0, -1e-6), _NOT_A_NUMBER)),
    ("plant", "radiator_ua"): (st.floats(0.6, 1.0), st.one_of(st.sampled_from([0, -0.8]), _NOT_A_NUMBER)),
    ("compensation", "breakpoints"): (
        st.just([[-12, 72], [-3, 58], [18, 35]]),
        st.sampled_from([5, "curve", [[-3, 60]], [[-10, 50], [-3, 60], [20, 35]], [[-10, "70"], [-3, 60], [20, 35]]]),
    ),
    ("schedule", "night_setpoint"): (st.floats(15.0, 19.0), _NOT_A_NUMBER),
    ("schedule", "morning_hour"): (st.floats(5.0, 8.0), st.one_of(st.sampled_from([23.99, 30.0]), _NOT_A_NUMBER)),
    ("costs", "weights"): (st.just([0.4, 0.3, 0.2, 0.1]), st.sampled_from([[0.5] * 4, [0.5, 0.5], "even", None])),
    ("costs", "calibration_days"): (st.just(40), st.sampled_from([20, 40.0, "40", None])),
    ("optimizer", "beta"): (st.floats(1.0, 3.0), st.one_of(st.just(-1.0), _NOT_A_NUMBER)),
    ("optimizer", "epsilon"): (st.floats(0.01, 0.2), st.one_of(st.sampled_from([0.0, 0.7]), _NOT_A_NUMBER)),
    ("optimizer", "grid_size"): (st.sampled_from([10, 20]), st.sampled_from([1, 20.0, 40.5, "20", True])),
    ("season", "days"): (st.just(2), st.sampled_from([0, 2.0, "2", True])),
    ("season", "master_seed"): (st.integers(0, 2**31), st.sampled_from([-1, 1.5, "7", None])),
    ("season", "output_dir"): (st.just("results"), st.sampled_from([5, True, None, ["results"]])),
    ("weather", "mid_oat"): (st.floats(-5.0, 0.0), _NOT_A_NUMBER),
    ("weather", "path"): (None, st.sampled_from([5, True, None, [], ""])),
}


@st.composite
def _config_documents(draw):
    """A 40-day calibration and 2-day season config with one to three
    keys set to a value the config reads or one it must refuse, and
    whether one must be refused."""
    doc = {"costs": {"calibration_days": 40}, "season": {"days": 2, "seeds": 1}}
    refuse = False
    for section, key in draw(st.permutations(sorted(_CONFIG_VALUES)))[: draw(st.integers(1, 3))]:
        accepted, refused = _CONFIG_VALUES[section, key]
        refuse_this = accepted is None or draw(st.booleans())
        refuse |= refuse_this
        value = draw(refused if refuse_this else accepted)
        if section == "weather":
            weather = doc["season"].setdefault("weather", {})
            weather.update({"source": "csv", "path": value} if key == "path" else {key: value})
        else:
            doc.setdefault(section, {})[key] = value
    return doc, refuse


@settings(max_examples=15, deadline=None)
@given(drawn=_config_documents())
@example(drawn=({"schedule": {"night_setpoint": "17"}}, True))
@example(drawn=({"compensation": {"breakpoints": 5}}, True))
@example(drawn=({"schedule": {"morning_hour": True}}, True))
@example(drawn=({"season": {"output_dir": 5}}, True))
@example(drawn=({"season": {"weather": {"source": "csv", "path": 5}}}, True))
@example(drawn=({"plant": {"step_seconds": 300}}, True))  # the step is a constant, not a key
def test_a_config_document_is_refused_when_read_or_runs_every_method(drawn, tmp_path_factory):
    """A value of the wrong kind or out of range raises ValueError when
    the config is read, which the CLI reports as ``error:`` with status
    2; a config of values in range reads, and a calibration and every
    method run on it."""
    doc, refuse = drawn
    if refuse:
        with pytest.raises(ValueError):
            config_from_dict(doc)
        return
    config = dataclasses.replace(config_from_dict(doc), output_dir=str(tmp_path_factory.mktemp("run")))
    calibration = run_calibration(config, seed=0)
    for method in ALL_METHODS:
        persist_run(config, run_season(config, method, 0, calibration))


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
    weather = season_weather(small_config, seed=0)
    assert DaySchedule().morning_step_index == 72  # 06:00 at 300 s
    run = run_season(small_config, "fixed", 0)
    assert [r.oat_c for r in run.results] == [day.oat_profile[72] for day in weather[: small_config.days]]


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


def test_calibration_json_round_trip(calibration):
    text = calibration.to_json()
    assert Calibration.from_json(text).to_json() == text


def test_calibration_is_deterministic(small_config, calibration):
    assert run_calibration(small_config, seed=0).to_json() == calibration.to_json()


def test_calibration_fits_the_costs_then_the_headrooms_on_one_input(small_config, calibration, monkeypatch):
    """The seven fits share one input matrix; the four cost fits take a
    basis mean, and constraint fit i regresses cost i minus threshold i,
    bit for bit. Each draws its random starts from its own fit seed."""
    fits = []
    fit = harness.fit_hyperparameters

    def recording_fit(template, x, y, with_basis, seed, pool):
        fits.append((x, y, with_basis, seed))
        return fit(template, x, y, with_basis=with_basis, seed=seed, pool=pool)

    monkeypatch.setattr(harness, "fit_hyperparameters", recording_fit)
    assert run_calibration(small_config, seed=0).to_json() == calibration.to_json()
    assert [with_basis for _, _, with_basis, _ in fits] == [True] * 4 + [False] * 3
    for x, _, _, _ in fits:
        np.testing.assert_array_equal(x, fits[0][0])
    assert fits[0][0].shape == (small_config.calibration_days, 3)
    for i, threshold in enumerate(calibration.normalization.thresholds):
        np.testing.assert_array_equal(fits[4 + i][1], fits[i][1] - threshold)
    streams = [np.random.SeedSequence([small_config.master_seed, 0, harness.STREAM_FIT, i]) for i in range(7)]
    assert [seed for *_, seed in fits] == [int(ss.generate_state(1)[0]) for ss in streams]


def test_calibration_needs_enough_episodes(small_config):
    """Too short a calibration is refused when the config is made, by the
    minimum the normalization itself enforces."""
    with pytest.raises(CalibrationError):
        dataclasses.replace(small_config, calibration_days=20)
    with pytest.raises(CalibrationError):
        calibrate_normalization([RawCosts(1.0, 1.0, 1.0, 1.0)] * 20)


@pytest.mark.parametrize("seed", [0, 1])
def test_calibration_is_the_same_with_and_without_worker_processes(small_config, seed, monkeypatch):
    """One CPU runs every start in this process, two share them with a
    forked worker; the artifact is the same bytes, and no worker outlives
    the calibration."""
    texts = []
    for cpus in (1, 2):
        monkeypatch.setattr(gp, "_cpu_count", lambda: cpus)
        texts.append(run_calibration(small_config, seed=seed).to_json())
        assert multiprocessing.active_children() == []
    assert texts[0] == texts[1]


@pytest.mark.parametrize("missing", ["sched_getaffinity", "fork"])
def test_a_host_that_cannot_fork_or_tell_its_cpus_calibrates_in_one_process(
    small_config, calibration, missing, monkeypatch
):
    """Without os.sched_getaffinity, or without the fork start method, the
    pool has one process and starts no worker; the artifact is the same."""
    if missing == "sched_getaffinity":
        monkeypatch.delattr(gp.os, "sched_getaffinity", raising=False)
    else:
        methods = [m for m in multiprocessing.get_all_start_methods() if m != "fork"]
        monkeypatch.setattr(gp.multiprocessing, "get_all_start_methods", lambda: methods)
        monkeypatch.setattr(gp.multiprocessing, "get_context", None)  # a fork attempt would raise
    assert gp.StartPool([]).size == 1
    assert run_calibration(small_config, seed=0).to_json() == calibration.to_json()
    assert multiprocessing.active_children() == []


def test_bo_carries_the_calibration_models_unchanged(small_config, calibration):
    """bo, cbo and scbo start from the same contextual cost fits; bo differs
    only in holding the context fixed (no scaler)."""
    want = [model_to_dict(m) for m in calibration.contextual_cost_models]
    for method in ("bo", "cbo", "scbo"):
        state = build_optimizer_state(small_config, calibration, method)
        assert [model_to_dict(m) for m in state.cost_models] == want
        assert all(m.num_observations == 0 for m in state.cost_models)
    bo = build_optimizer_state(small_config, calibration, "bo")
    assert bo.scaler is None
    assert all(m.kernel.input_dim == 3 for m in bo.cost_models)


def test_build_optimizer_state_per_method(small_config, calibration):
    bo = build_optimizer_state(small_config, calibration, "bo")
    assert bo.scaler is None and not bo.constraint_models
    cbo = build_optimizer_state(small_config, calibration, "cbo")
    assert cbo.scaler == calibration.scaler and not cbo.constraint_models
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


def test_gp_season_logs_each_proposal_at_debug(small_config, calibration, caplog):
    """One DEBUG record per GP day: method, day, gain index, safe-set size
    and whether the proposal fell back to the anchor. The run is the one
    made without logging; a fixed season logs no proposal, only the
    season's timing line, as the GP season does after its days."""
    with caplog.at_level(logging.DEBUG, logger="roomtune.harness"):
        logged = run_season(small_config, "scbo", seed=0, calibration=calibration)
        run_season(small_config, "fixed", seed=0)
    assert logged.results == run_season(small_config, "scbo", seed=0, calibration=calibration).results
    records = [r for r in caplog.records if r.name == "roomtune.harness"]
    assert [r.levelno for r in records] == [logging.DEBUG] * (len(logged.results) + 2)
    assert [r.args[:2] for r in records[-2:]] == [("scbo", 0), ("fixed", 0)]  # the timing lines
    records = records[:-2]
    domain = small_config.build_domain()
    anchor = domain.anchor_index
    for record, row in zip(records, logged.results):
        method, day, index, size, fallback = record.args
        assert (method, day, size) == ("scbo", row.day, row.safe_set_size)
        assert index == domain.index_of(PIGains(row.kp, row.ki))
        assert isinstance(fallback, bool)
        if fallback:
            assert (index, size) == (anchor, 1)
    assert records[0].args[2:] == (anchor, 1, False)  # day one plays the anchor, not as a fallback


def test_a_season_logs_its_wall_time_per_phase_at_debug(small_config, calibration, caplog, tmp_path):
    """One DEBUG line per season, after its days: method, seed, days,
    the wall seconds in propose, in update and in the closed-loop days,
    the microseconds per simulated step, and the seconds in the costs and
    rows. Timings are not deterministic, so they stay out of the
    artifacts: a logged run persists the same bytes as one made without
    logging."""
    unlogged = {}
    for method in ("fixed", "scbo"):
        config = dataclasses.replace(small_config, output_dir=str(tmp_path / f"{method}_quiet"))
        unlogged[method] = persist_run(config, run_season(config, method, seed=0, calibration=calibration))
    for method in ("fixed", "scbo"):
        config = dataclasses.replace(small_config, output_dir=str(tmp_path / method))
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="roomtune.harness"):
            run = run_season(config, method, seed=0, calibration=calibration)
        record = [r for r in caplog.records if r.name == "roomtune.harness"][-1]
        name, seed, days, propose_s, update_s, day_s, step_us, row_s = record.args
        assert (name, seed, days) == (method, 0, small_config.days)
        assert day_s > 0.0 and min(propose_s, update_s) >= 0.0
        assert step_us == pytest.approx(1e6 * day_s / (days * STEPS_PER_DAY)) and row_s > 0.0
        assert "us per step" in record.getMessage() and "s in the costs and rows" in record.getMessage()
        assert (propose_s > 0.0) == (method == "scbo") and (update_s > 0.0) == (method == "scbo")
        assert "s in propose" in record.getMessage() and record.levelno == logging.DEBUG
        path = persist_run(config, run)
        assert path.read_bytes() == unlogged[method].read_bytes()
    assert state_path(config, "scbo", 0).read_bytes() == (tmp_path / "scbo_quiet" / "scbo_seed0_state.json").read_bytes()


def test_season_rows_hold_python_types_and_read_back_equal(small_config, calibration, tmp_path):
    """The CSV writes 0/1 only for a Python bool (a numpy bool would be
    written as False or True, which the reader refuses), so every row a
    season makes holds a bool flag and int seed, day and safe-set size."""
    config = dataclasses.replace(small_config, output_dir=str(tmp_path))
    for method in ALL_METHODS:
        run = run_season(config, method, seed=0, calibration=calibration)
        for row in run.results:
            assert type(row.violation) is bool
            assert type(row.seed) is int and type(row.day) is int and type(row.safe_set_size) is int
        assert read_results_csv(persist_run(config, run)) == list(run.results)


def test_season_is_deterministic(small_config, calibration):
    a = run_season(small_config, "scbo", seed=0, calibration=calibration)
    b = run_season(small_config, "scbo", seed=0, calibration=calibration)
    assert a.results == b.results
    assert state_to_json(a.final_state) == state_to_json(b.final_state)


@pytest.mark.parametrize("phase", ["calibration", "season"])
def test_one_burn_in_day_at_the_anchor_then_every_day_carries_on(small_config, monkeypatch, phase):
    """Each phase simulates days + 1 days: first a burn-in at the anchor
    gains from a discharged integrator, then one per day, each taking
    over the integral action the day before closed with."""
    calls = []
    simulate = harness.simulate_day

    def recording_simulate_day(*args, **kwargs):
        out = simulate(*args, **kwargs)
        calls.append((args[3], kwargs.get("initial_integral_action", 0.0), out[2]))
        return out

    monkeypatch.setattr(harness, "simulate_day", recording_simulate_day)
    if phase == "calibration":
        run_calibration(small_config, seed=0)
        days = small_config.calibration_days
    else:
        run_season(small_config, "fixed", seed=0)
        days = small_config.days
    assert len(calls) == days + 1
    assert calls[0][:2] == (small_config.anchor_gains, 0.0)
    assert all(carry == before[2] for before, (_, carry, _) in zip(calls, calls[1:]))
    assert calls[1][1] != 0.0


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


def test_calibration_logs_each_fit_at_debug(small_config, calibration, caplog):
    """One DEBUG record per fit: surrogate name, fitted likelihood,
    degenerate flag, hyperparameters on a bound, likelihood evaluations
    over every process, starts not converged and wall time. The
    artifact is the one built without logging."""
    with caplog.at_level(logging.DEBUG, logger="roomtune.harness"):
        logged = run_calibration(small_config, seed=0)
    assert logged.to_json() == calibration.to_json()
    records = [r for r in caplog.records if r.name == "roomtune.harness"][:-1]  # the last is the calibration's
    assert [r.levelno for r in records] == [logging.DEBUG] * 7
    names = [r.args[0] for r in records]
    assert names == [f"cost_j{i}" for i in range(1, 5)] + [f"constraint_j{i}" for i in range(1, 4)]
    for record in records:
        _, lml, degenerate, on_bound, evaluations, unconverged, seconds = record.args
        assert degenerate or math.isfinite(lml)
        assert evaluations == 0 if degenerate else evaluations >= gp.N_STARTS
        assert 0 <= on_bound <= 5 and 0 <= unconverged <= gp.N_STARTS and seconds >= 0.0
        assert record.args[0] in record.getMessage()


@pytest.mark.parametrize("cpus", [1, 2])
def test_a_calibration_logs_its_wall_time_per_phase_at_debug(small_config, calibration, caplog, cpus, monkeypatch):
    """One DEBUG line per calibration, after its seven fit lines: seed,
    the start pool's process count and the wall seconds in the
    closed-loop days and in the fits. The fit lines come from this
    process only; the artifact is the one built without logging."""
    monkeypatch.setattr(gp, "_cpu_count", lambda: cpus)
    with caplog.at_level(logging.DEBUG, logger="roomtune.harness"):
        logged = run_calibration(small_config, seed=0)
    assert logged.to_json() == calibration.to_json()
    records = [r for r in caplog.records if r.name == "roomtune.harness"]
    assert len(records) == 8 and all(r.process == records[0].process for r in records)
    record = records[-1]
    seed, processes, day_s, fit_s = record.args
    assert (seed, processes) == (0, cpus) and day_s > 0.0 and fit_s > 0.0
    assert "s in the fits" in record.getMessage() and record.levelno == logging.DEBUG


def test_a_failed_write_keeps_the_previous_file(tmp_path, monkeypatch):
    """A write that fails, before the file is opened or after the whole
    temporary file is written, leaves the previous artifact as it was and
    no temporary file behind."""
    path = tmp_path / "fixed_seed0.csv"
    write_results_csv(path, [result_row(0, 1, 0.5)])
    before = path.read_bytes()
    rows = [result_row(0, day, 0.5) for day in range(1, 501)]
    with pytest.raises(AttributeError):
        write_results_csv(path, rows + [object()])
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == [path.name]

    def fail_to_rename(src, dst):
        assert len(Path(src).read_text()) == 100_000  # the temporary file holds all of the text
        raise OSError("disk full")

    monkeypatch.setattr(harness.os, "replace", fail_to_rename)
    with pytest.raises(OSError, match="disk full"):
        write_atomically(path, "{" * 100_000)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == [path.name]


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
    """The report's curves are prefix means of the daily totals, taken in
    day order whatever order the rows come in."""
    rows = [result_row(0, 3, 5.0), result_row(0, 1, 1.0), result_row(0, 2, 3.0)]
    curve = compare_report({"fixed": [rows]}).cumulative["fixed"]
    assert curve == {"median": [1.0, 2.0, 3.0], "min": [1.0, 2.0, 3.0], "max": [1.0, 2.0, 3.0]}


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


def test_collect_results_ignores_csvs_of_unknown_methods(tmp_path):
    """A results CSV whose method is not one of ALL_METHODS, such as one
    left by a deleted method, is skipped like any other unmatched file;
    alone it is no results at all."""
    write_results_csv(tmp_path / "greedy_seed0.csv", [result_row(0, 1, 3.0), result_row(0, 2, 3.0)])
    with pytest.raises(ValueError, match="no results CSVs found"):
        collect_results(tmp_path)
    write_results_csv(tmp_path / "fixed_seed0.csv", [result_row(0, 1, 1.0), result_row(0, 2, 1.0)])
    grouped = collect_results(tmp_path)
    assert list(grouped) == ["fixed"]
    assert list(compare_report(grouped).final_median) == ["fixed"]


@pytest.mark.parametrize("method", ["greedy", "Fixed"])
def test_run_season_refuses_an_unknown_method(small_config, calibration, method):
    with pytest.raises(ValueError, match=f"unknown method '{method}'"):
        run_season(small_config, method, seed=0, calibration=calibration)


def test_collect_results_requires_files(tmp_path):
    with pytest.raises(ValueError):
        collect_results(tmp_path)
    with pytest.raises(ValueError):
        compare_report({})
