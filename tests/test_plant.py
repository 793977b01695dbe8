import math
import time
from dataclasses import replace
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import reference_day, step
from roomtune.pid import INTEGRAL_TERM_MAX, INTEGRAL_TERM_MIN, PIGains
from roomtune.plant import (
    DEFAULT_COMPENSATION,
    DaySchedule,
    STEP_SECONDS,
    STEPS_PER_DAY,
    PlantParams,
    RoomState,
    SimulationDivergedError,
    WeatherCompensation,
    WeatherConfig,
    WeatherDay,
    heating_curve,
    load_weather_csv,
    simulate_day,
    synth_weather,
)


def quiet_day(oat=5.0, steps=288):
    zeros = np.zeros(steps)
    return WeatherDay(np.full(steps, oat), zeros, zeros)


def test_step_matches_documented_recurrence():
    p = PlantParams()
    state = RoomState(t_room=19.0, t_wall=18.0)
    u, oat, water, solar, occ, noise = 0.4, -2.0, 58.0, 0.05, 0.01, 0.002
    heat = p.input_gain * p.radiator_ua * u * (water - 19.0)
    expected_room = (
        p.room_pole * 19.0 + p.wall_coupling * 18.0 + heat
        + p.disturbance_gain * (oat - 19.0) + solar + occ + noise
    )
    expected_wall = p.wall_pole * 18.0 + (1.0 - p.wall_pole) * 19.0
    nxt = step(p, state, u, oat, water, solar, occ, noise)
    assert nxt.t_room == pytest.approx(expected_room, rel=1e-12)
    assert nxt.t_wall == pytest.approx(expected_wall, rel=1e-12)


def test_heat_term_clamps_when_water_below_room():
    p = PlantParams()
    state = RoomState(25.0, 25.0)
    with_heat = step(p, state, 1.0, 25.0, 20.0)
    without = step(p, state, 0.0, 25.0, 20.0)
    assert with_heat.t_room == pytest.approx(without.t_room)


def test_step_rejects_valve_outside_range():
    with pytest.raises(ValueError):
        step(PlantParams(), RoomState(20.0, 20.0), 1.5, 0.0, 60.0)


def test_divergence_guard_trips():
    day = quiet_day(oat=500.0, steps=50)
    with pytest.raises(SimulationDivergedError):
        simulate_day(
            PlantParams(noise_sigma=0.0), DEFAULT_COMPENSATION, day, PIGains(0.5, 0.0),
            DaySchedule(), RoomState(20.0, 20.0), np.random.default_rng(0),
        )


def test_heating_curve_interpolates_and_clamps():
    comp = WeatherCompensation(((-10.0, 70.0), (-3.0, 60.0), (20.0, 35.0)))
    assert heating_curve(comp, -10.0) == 70.0
    assert heating_curve(comp, -3.0) == 60.0
    assert heating_curve(comp, 20.0) == 35.0
    # halfway along the cold segment
    assert heating_curve(comp, -6.5) == pytest.approx(65.0)
    assert heating_curve(comp, -30.0) == 70.0
    assert heating_curve(comp, 30.0) == 35.0


def test_heating_curve_array_matches_scalar_calls():
    oat = np.concatenate([np.linspace(-30.0, 30.0, 241), [-10.0, -3.0, 20.0]])
    water = heating_curve(DEFAULT_COMPENSATION, oat)
    assert water.shape == oat.shape
    scalar = [heating_curve(DEFAULT_COMPENSATION, o) for o in oat.tolist()]
    np.testing.assert_array_equal(water, scalar)


def test_heating_curve_slope_break_is_enforced():
    with pytest.raises(ValueError):
        WeatherCompensation(((-10.0, 70.0), (20.0, 35.0)))  # straight line
    with pytest.raises(ValueError):
        # breakpoint at -3 but both segments share one slope
        WeatherCompensation(((-13.0, 70.0), (-3.0, 60.0), (7.0, 50.0)))


def test_compensation_breakpoints_validated():
    with pytest.raises(ValueError):
        WeatherCompensation(((-3.0, 60.0),))
    with pytest.raises(ValueError):
        WeatherCompensation(((0.0, 60.0), (-3.0, 70.0), (5.0, 40.0)))
    with pytest.raises(ValueError):
        WeatherCompensation(((-10.0, 50.0), (-3.0, 60.0), (20.0, 35.0)))  # water rises


def test_day_schedule_validated():
    with pytest.raises(ValueError):
        DaySchedule(night_setpoint=math.nan)
    with pytest.raises(ValueError):
        DaySchedule(comfort_setpoint=math.inf)
    for morning, evening in ((30.0, 31.0), (-1.0, 22.0), (8.0, 8.0), (9.0, 6.0), (6.0, 25.0), (math.nan, 22.0)):
        with pytest.raises(ValueError):
            DaySchedule(morning_hour=morning, evening_hour=evening)
    DaySchedule(morning_hour=0.0, evening_hour=24.0)


def test_morning_step_index_off_the_sample_grid():
    # 06:01:12 falls between the 06:00 and 06:05 samples; the setpoint steps at 06:05
    off_grid = DaySchedule(morning_hour=6.02)
    assert off_grid.morning_step_index == 73
    sp = off_grid.setpoints(288)
    assert sp[72] == off_grid.night_setpoint and sp[73] == off_grid.comfort_setpoint
    assert DaySchedule().morning_step_index == 72
    # 23.99 h and 23.95 h (23:57) are past the last sample (23:55): no comfort sample at all
    for morning in (23.99, 23.95):
        with pytest.raises(ValueError, match="no comfort sample"):
            DaySchedule(morning_hour=morning, evening_hour=24.0).morning_step_index


def test_setpoints_keep_a_fractional_comfort_setpoint_over_an_integer_night_one():
    # a JSON config gives 17 as an int; the comfort setpoint must not be cast to its type
    sp = DaySchedule(night_setpoint=17, comfort_setpoint=21.5).setpoints(288)
    assert sp[0] == 17.0 and sp[72] == 21.5


def first_comfort_sample(schedule):
    """Index of the first comfort setpoint, or None: the oracle."""
    sp = schedule.setpoints(STEPS_PER_DAY)
    comfort = np.flatnonzero(sp == schedule.comfort_setpoint)
    return int(comfort[0]) if comfort.size else None


def test_morning_step_index_at_and_beside_every_sample_hour():
    # an hour one ulp off a sample is where a rounded index would slip
    for k in range(STEPS_PER_DAY):
        h = k * STEP_SECONDS / 3600.0
        for morning in (float(np.nextafter(h, -1.0)), h, float(np.nextafter(h, 25.0))):
            if not 0.0 <= morning < 24.0:
                continue
            schedule = DaySchedule(morning_hour=morning, evening_hour=24.0)
            want = first_comfort_sample(schedule)
            if want is None:
                with pytest.raises(ValueError):
                    schedule.morning_step_index
            else:
                assert schedule.morning_step_index == want


@settings(max_examples=200, deadline=None)
@given(
    morning=st.floats(0.0, 23.99),
    span=st.floats(0.001, 24.0),
)
def test_morning_step_index_is_where_the_setpoint_steps_up(morning, span):
    schedule = DaySchedule(morning_hour=morning, evening_hour=min(morning + span, 24.0))
    want = first_comfort_sample(schedule)
    if want is None:
        with pytest.raises(ValueError):
            schedule.morning_step_index
    else:
        assert schedule.morning_step_index == want


def run_both(params, weather, gains, schedule, initial, noise_seed, carry):
    """Run simulate_day and the reference on the same inputs; each result
    is the returned tuple, or the exception raised. No ``noise_seed`` runs
    a noise-free day."""
    if noise_seed is None:
        params, noise_seed = replace(params, noise_sigma=0.0), 0
    out = []
    for fn in (simulate_day, reference_day):
        rng = np.random.default_rng(noise_seed)
        try:
            result = fn(params, DEFAULT_COMPENSATION, weather, gains, schedule, initial, rng,
                        initial_integral_action=carry)
        except (ValueError, SimulationDivergedError) as exc:
            result = exc
        out.append(result)
    return out


def same_float(a, b):
    return float(a).hex() == float(b).hex()


_GAIN = st.one_of(st.just(0.0), st.floats(0.0, 5.0))
_CARRY = st.one_of(
    st.floats(-3.0, 4.0),
    st.sampled_from([0.0, INTEGRAL_TERM_MIN, INTEGRAL_TERM_MAX, -1e3, 1e3]),
)


@settings(max_examples=60, deadline=None)
@given(
    steps=st.integers(1, 300),
    gains=st.builds(PIGains, _GAIN, st.floats(0.0, 0.5)),
    initial=st.builds(RoomState, st.floats(-10.0, 40.0), st.floats(-10.0, 40.0)),
    carry=_CARRY,
    oat_ends=st.tuples(st.floats(-25.0, -10.5), st.floats(20.5, 35.0)),
    warming=st.booleans(),
    noise_seed=st.one_of(st.none(), st.integers(0, 2**32 - 1)),
    exo_seed=st.integers(0, 2**32 - 1),
    morning=st.floats(0.0, 3.0),
)
def test_simulate_day_matches_reference_loop(
    steps, gains, initial, carry, oat_ends, warming, noise_seed, exo_seed, morning,
):
    # OAT sweeps past both end breakpoints and through the -3 degC slope
    # break, which it also hits exactly
    oat = np.linspace(*(oat_ends if warming else oat_ends[::-1]), steps)
    oat[steps // 2] = -3.0
    exo = np.random.default_rng(exo_seed)
    weather = WeatherDay(oat, exo.uniform(0.0, 0.35, steps), exo.choice([0.0, 0.01], steps))
    schedule = DaySchedule(morning_hour=morning, evening_hour=morning + 2.0)
    lean, ref = run_both(PlantParams(), weather, gains, schedule, initial, noise_seed, carry)
    if isinstance(ref, Exception):
        assert type(lean) is type(ref) and str(lean) == str(ref)
    else:
        trace, state, closing = lean
        setpoints, t_room, valve, ref_state, ref_closing = ref
        np.testing.assert_array_equal(trace.setpoint, setpoints)
        assert trace.step_index == schedule.morning_step_index
        assert trace.t_room.tobytes() == t_room.tobytes()
        assert trace.valve.tobytes() == valve.tobytes()
        assert same_float(state.t_room, ref_state.t_room)
        assert same_float(state.t_wall, ref_state.t_wall)
        assert same_float(closing, ref_closing)


@settings(max_examples=30, deadline=None)
@given(
    oat=st.floats(120.0, 1500.0),
    gains=st.builds(PIGains, st.floats(0.0, 5.0), st.floats(0.0, 0.5)),
    noise_seed=st.one_of(st.none(), st.integers(0, 2**32 - 1)),
)
def test_diverging_day_raises_at_the_reference_step(oat, gains, noise_seed):
    weather = quiet_day(oat=oat, steps=200)
    lean, ref = run_both(
        PlantParams(), weather, gains, DaySchedule(), RoomState(20.0, 20.0), noise_seed, 0.0,
    )
    assert isinstance(ref, SimulationDivergedError)
    assert isinstance(lean, SimulationDivergedError) and str(lean) == str(ref)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid value:RuntimeWarning")
def test_nan_valve_command_raises_like_the_reference():
    # ki this small overflows the preloaded integrator to +inf, so with a
    # room above the setpoint kp * error + ki * integrator is -inf + inf
    gains = PIGains(1e308, 5e-324)
    lean, ref = run_both(
        PlantParams(), quiet_day(steps=5), gains, DaySchedule(), RoomState(30.0, 30.0), None, 2.0,
    )
    assert type(ref) is ValueError and "valve" in str(ref)
    assert type(lean) is ValueError and str(lean) == str(ref)


def test_simulate_day_shapes_and_carry():
    p = PlantParams(noise_sigma=0.0)
    schedule = DaySchedule()
    day = quiet_day()
    gains = PIGains(0.6, 0.004)
    trace, state, carry = simulate_day(
        p, DEFAULT_COMPENSATION, day, gains, schedule, RoomState(17.0, 17.0), np.random.default_rng(0)
    )
    assert trace.num_steps == 288
    assert trace.step_index == 72  # 06:00 at 300 s sampling
    assert np.all(trace.valve >= 0.0) and np.all(trace.valve <= 1.0)
    assert np.isfinite(carry)
    assert isinstance(state, RoomState)


def test_integral_carry_removes_next_day_tracking_sag():
    p = PlantParams(noise_sigma=0.0)
    schedule = DaySchedule()
    day = quiet_day(oat=0.0)
    gains = PIGains(0.6, 0.004)  # integral too slow to recharge within a day
    state, carry = RoomState(17.0, 17.0), 0.0
    for _ in range(3):  # settle the day-to-day carry
        warm, state, carry = simulate_day(
            p, DEFAULT_COMPENSATION, day, gains, schedule, state, np.random.default_rng(0),
            initial_integral_action=carry,
        )
    cold, _, _ = simulate_day(
        p, DEFAULT_COMPENSATION, day, gains, schedule, state, np.random.default_rng(0)
    )
    comfort = slice(110, 260)  # ~09:10 to 21:40
    sag_warm = np.mean(np.clip(warm.setpoint[comfort] - warm.t_room[comfort], 0.0, None))
    sag_cold = np.mean(np.clip(cold.setpoint[comfort] - cold.t_room[comfort], 0.0, None))
    # with the preload the loop nearly holds the setpoint; a discharged
    # integrator spends the day re-learning the standing heat demand
    assert sag_warm < 0.15
    assert sag_cold > sag_warm + 0.3


def test_synth_weather_deterministic_and_sized():
    cfg = WeatherConfig()
    a = synth_weather(cfg, 20, np.random.default_rng(7))
    b = synth_weather(cfg, 20, np.random.default_rng(7))
    assert len(a) == 20
    assert {d.oat_profile.size for d in a} == {288}
    for da, db in zip(a, b):
        np.testing.assert_array_equal(da.oat_profile, db.oat_profile)
        np.testing.assert_array_equal(da.solar_profile, db.solar_profile)


def test_synth_weather_daily_swing_is_exact():
    # within one day the AR term is constant, so 15:00 minus 03:00
    # equals twice the daily amplitude by construction
    cfg = WeatherConfig(daily_amplitude=4.0)
    days = synth_weather(cfg, 5, np.random.default_rng(0))
    i15 = int(15 * 3600 / STEP_SECONDS)
    i03 = int(3 * 3600 / STEP_SECONDS)
    for day in days:
        swing = day.oat_profile[i15] - day.oat_profile[i03]
        assert swing == pytest.approx(2.0 * cfg.daily_amplitude)


def test_synth_weather_midseason_colder_than_edges():
    days = synth_weather(WeatherConfig(), 145, np.random.default_rng(1))
    edge = np.mean([d.oat_profile.mean() for d in days[:5]])
    mid = np.mean([d.oat_profile.mean() for d in days[70:75]])
    assert mid < edge


def test_synth_weather_solar_and_occupancy_windows():
    cfg = WeatherConfig()
    days = synth_weather(cfg, 3, np.random.default_rng(2))
    hours = np.arange(days[0].solar_profile.size) * STEP_SECONDS / 3600.0
    for day in days:
        assert np.all(day.solar_profile[hours < 7.0] == 0.0)
        assert np.all(day.solar_profile[hours >= 18.0] < 1e-12)
        assert day.solar_profile.max() <= cfg.solar_peak
        assert day.solar_profile.max() > 0.0
        occupied = (hours >= 8.0) & (hours < 18.0)
        assert np.all(day.occupancy_profile[occupied] == cfg.occupancy_gain)
        assert np.all(day.occupancy_profile[~occupied] == 0.0)


def _write_weather_csv(path, hours, oat, solar):
    lines = ["timestamp,oat_celsius,solar_wm2"]
    for h, o, s in zip(hours, oat, solar):
        day = 1 + int(h // 24)
        lines.append(f"2024-01-{day:02d}T{int(h % 24):02d}:00:00,{o},{s}")
    path.write_text("\n".join(lines) + "\n")


def test_load_weather_csv_resamples(tmp_path):
    path = tmp_path / "weather.csv"
    hours = np.arange(0, 49)  # two full days plus one sample
    _write_weather_csv(path, hours, np.linspace(0, 10, 49), np.full(49, 100.0))
    days = load_weather_csv(path)
    assert len(days) == 2
    assert days[0].oat_profile.size == 288
    assert days[0].oat_profile[0] == pytest.approx(0.0)
    assert days[0].solar_profile[0] == pytest.approx(100.0 * 6.8e-4)


def _write_stamped_csv(path, stamps, oat):
    rows = [f"{stamp},{o},100.0" for stamp, o in zip(stamps, oat)]
    path.write_text("\n".join(["timestamp,oat_celsius,solar_wm2", *rows]) + "\n")


@pytest.fixture
def zurich_clock(monkeypatch):
    """The process's local time is Central European, whose daylight
    saving time ends at 01:00 UTC on 2024-10-27."""
    monkeypatch.setenv("TZ", "CET-1CEST,M3.5.0,M10.5.0/3")  # a POSIX rule: no tz database needed
    time.tzset()
    yield
    monkeypatch.undo()
    time.tzset()


def test_load_weather_csv_reads_naive_timestamps_as_utc(tmp_path, zurich_clock):
    start = datetime(2024, 10, 26, tzinfo=timezone.utc)
    assert time.localtime(start.timestamp()).tm_isdst == 1
    instants = [start + timedelta(hours=h) for h in range(73)]  # three days plus one sample
    oat = np.linspace(0.0, 10.0, 73)
    # read in local time, the 73 naive stamps would span 73 hours with a gap of two
    naive = tmp_path / "naive.csv"
    _write_stamped_csv(naive, [u.replace(tzinfo=None).isoformat() for u in instants], oat)
    days = load_weather_csv(naive)
    assert len(days) == 3
    # the same instants on a Zurich clock, whose offset drops from +02:00 to
    # +01:00: evenly spaced only when each stamp keeps its offset
    dst_end = datetime(2024, 10, 27, 1, tzinfo=timezone.utc)
    zurich = [u.astimezone(timezone(timedelta(hours=2 if u < dst_end else 1))).isoformat() for u in instants]
    assert zurich[24:26] == ["2024-10-27T02:00:00+02:00", "2024-10-27T02:00:00+01:00"]
    local = tmp_path / "local.csv"
    _write_stamped_csv(local, zurich, oat)
    for a, b in zip(days, load_weather_csv(local), strict=True):
        assert a.oat_profile.tobytes() == b.oat_profile.tobytes()


def test_load_weather_csv_rejects_bad_input(tmp_path):
    path = tmp_path / "weather.csv"
    path.write_text("time,oat\n2024-01-01T00:00:00,3\n")
    with pytest.raises(ValueError):
        load_weather_csv(path)
    _write_weather_csv(path, np.array([0, 1, 3]), [0, 1, 2], [0, 0, 0])
    with pytest.raises(ValueError):
        load_weather_csv(path)  # uneven spacing
    # two days of hourly rows written last first, or with every stamp
    # repeated, are evenly spaced (by -1 h or by 0 h) but do not increase
    for hours in (np.arange(0, 49)[::-1], np.zeros(49)):
        _write_weather_csv(path, hours, np.linspace(0, 10, 49), np.full(49, 100.0))
        with pytest.raises(ValueError, match="weather CSV timestamps must strictly increase"):
            load_weather_csv(path)


def test_weather_day_validation():
    with pytest.raises(ValueError):
        WeatherDay(np.zeros(10), np.zeros(9), np.zeros(10))
    with pytest.raises(ValueError):
        WeatherDay(np.full(10, np.nan), np.zeros(10), np.zeros(10))
