import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roomtune.pid import (
    INTEGRAL_TERM_MAX,
    INTEGRAL_TERM_MIN,
    ControllerState,
    PIGains,
    control_step,
    reset,
)
from roomtune.plant import (
    DEFAULT_COMPENSATION,
    DaySchedule,
    PlantParams,
    RoomState,
    SimulationDivergedError,
    WeatherCompensation,
    WeatherConfig,
    WeatherDay,
    heating_curve,
    load_weather_csv,
    simulate_day,
    step,
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
            PlantParams(), DEFAULT_COMPENSATION, day, PIGains(0.5, 0.0),
            DaySchedule(), RoomState(20.0, 20.0), rng=None,
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


def reference_day(params, comp, weather, gains, schedule, initial_state, rng,
                  gain_adapter=None, initial_integral_action=0.0):
    """simulate_day spelled out as control_step and step per sample with a
    scalar heating_curve lookup: the oracle for its inlined loop."""
    steps = weather.oat_profile.size
    setpoints = schedule.setpoints(steps, params.step_seconds)
    if rng is not None and params.noise_sigma > 0:
        sigma = params.noise_sigma
        noise = np.clip(rng.normal(0.0, sigma, steps), -3.0 * sigma, 3.0 * sigma)
    else:
        noise = np.zeros(steps)
    t_room, valve = np.empty(steps), np.empty(steps)
    ctrl = reset()
    if gains.ki > 0.0 and initial_integral_action != 0.0:
        action = min(max(initial_integral_action, INTEGRAL_TERM_MIN), INTEGRAL_TERM_MAX)
        ctrl = ControllerState(action / gains.ki, 0.0)
    state = initial_state
    for k in range(steps):
        if gain_adapter is not None:
            gains = gain_adapter(k, t_room[:k], valve[:k], gains)
        t_room[k] = state.t_room
        u, ctrl = control_step(gains, ctrl, setpoints[k], state.t_room)
        valve[k] = u
        oat = weather.oat_profile[k]
        state = step(
            params, state, u, oat, heating_curve(comp, oat),
            weather.solar_profile[k], weather.occupancy_profile[k], noise[k],
        )
    return setpoints, t_room, valve, state, gains.ki * ctrl.integrator


class SwitchingAdapter:
    """Swaps in other gains at one step and records what it was shown."""

    def __init__(self, at, gains):
        self.at, self.gains, self.seen = at, gains, []

    def __call__(self, k, t_room, valve, gains):
        self.seen.append(k)
        assert t_room.shape == valve.shape == (k,)
        if k == self.at:
            self.shown = (t_room.tolist(), valve.tolist())
        return self.gains if k >= self.at else gains


def run_both(params, weather, gains, schedule, initial, noise_seed, carry, switch=None):
    """Run simulate_day and the reference on the same inputs; each result
    is the returned tuple, or the exception raised, plus the adapter."""
    out = []
    for fn in (simulate_day, reference_day):
        rng = None if noise_seed is None else np.random.default_rng(noise_seed)
        adapter = None if switch is None else SwitchingAdapter(*switch)
        try:
            result = fn(params, DEFAULT_COMPENSATION, weather, gains, schedule, initial, rng,
                        gain_adapter=adapter, initial_integral_action=carry)
        except (ValueError, SimulationDivergedError) as exc:
            result = exc
        out.append((result, adapter))
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
    step_seconds=st.sampled_from([60, 300]),
    steps=st.integers(1, 300),
    gains=st.builds(PIGains, _GAIN, st.floats(0.0, 0.5)),
    initial=st.builds(RoomState, st.floats(-10.0, 40.0), st.floats(-10.0, 40.0)),
    carry=_CARRY,
    oat_ends=st.tuples(st.floats(-25.0, -10.5), st.floats(20.5, 35.0)),
    warming=st.booleans(),
    noise_seed=st.one_of(st.none(), st.integers(0, 2**32 - 1)),
    exo_seed=st.integers(0, 2**32 - 1),
    morning=st.floats(0.0, 3.0),
    switch=st.one_of(st.none(), st.tuples(st.integers(0, 299), st.builds(PIGains, _GAIN, _GAIN))),
)
def test_simulate_day_matches_reference_loop(
    step_seconds, steps, gains, initial, carry, oat_ends, warming, noise_seed, exo_seed, morning, switch,
):
    # OAT sweeps past both end breakpoints and through the -3 degC slope
    # break, which it also hits exactly
    oat = np.linspace(*(oat_ends if warming else oat_ends[::-1]), steps)
    oat[steps // 2] = -3.0
    exo = np.random.default_rng(exo_seed)
    weather = WeatherDay(oat, exo.uniform(0.0, 0.35, steps), exo.choice([0.0, 0.01], steps))
    params = PlantParams(step_seconds=step_seconds)
    schedule = DaySchedule(morning_hour=morning, evening_hour=morning + 2.0)
    (lean, lean_adapter), (ref, ref_adapter) = run_both(
        params, weather, gains, schedule, initial, noise_seed, carry, switch,
    )
    if isinstance(ref, Exception):
        assert type(lean) is type(ref) and str(lean) == str(ref)
    else:
        trace, state, closing = lean
        setpoints, t_room, valve, ref_state, ref_closing = ref
        np.testing.assert_array_equal(trace.setpoint, setpoints)
        assert trace.t_room.tobytes() == t_room.tobytes()
        assert trace.valve.tobytes() == valve.tobytes()
        assert same_float(state.t_room, ref_state.t_room)
        assert same_float(state.t_wall, ref_state.t_wall)
        assert same_float(closing, ref_closing)
    if switch is not None:
        assert lean_adapter.seen == ref_adapter.seen
        if switch[0] < steps:
            assert lean_adapter.shown == ref_adapter.shown


@settings(max_examples=30, deadline=None)
@given(
    oat=st.floats(120.0, 1500.0),
    gains=st.builds(PIGains, st.floats(0.0, 5.0), st.floats(0.0, 0.5)),
    noise_seed=st.one_of(st.none(), st.integers(0, 2**32 - 1)),
)
def test_diverging_day_raises_at_the_reference_step(oat, gains, noise_seed):
    weather = quiet_day(oat=oat, steps=200)
    never = (10**6, gains)  # records every step, never switches
    (lean, lean_adapter), (ref, ref_adapter) = run_both(
        PlantParams(), weather, gains, DaySchedule(), RoomState(20.0, 20.0), noise_seed, 0.0, never,
    )
    assert isinstance(ref, SimulationDivergedError)
    assert isinstance(lean, SimulationDivergedError) and str(lean) == str(ref)
    assert lean_adapter.seen == ref_adapter.seen


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid value:RuntimeWarning")
def test_nan_valve_command_raises_like_the_reference():
    # ki this small overflows the preloaded integrator to +inf, so with a
    # room above the setpoint kp * error + ki * integrator is -inf + inf
    gains = PIGains(1e308, 5e-324)
    (lean, _), (ref, _) = run_both(
        PlantParams(), quiet_day(steps=5), gains, DaySchedule(), RoomState(30.0, 30.0), None, 2.0,
    )
    assert type(ref) is ValueError and "valve" in str(ref)
    assert type(lean) is ValueError and str(lean) == str(ref)


def test_simulate_day_shapes_and_carry():
    p = PlantParams()
    schedule = DaySchedule()
    day = quiet_day()
    gains = PIGains(0.6, 0.004)
    trace, state, carry = simulate_day(
        p, DEFAULT_COMPENSATION, day, gains, schedule, RoomState(17.0, 17.0), rng=None
    )
    assert trace.num_steps == 288
    assert trace.step_index == 72  # 06:00 at 300 s sampling
    assert np.all(trace.valve >= 0.0) and np.all(trace.valve <= 1.0)
    assert np.isfinite(carry)
    assert isinstance(state, RoomState)


def test_integral_carry_removes_next_day_tracking_sag():
    p = PlantParams()
    schedule = DaySchedule()
    day = quiet_day(oat=0.0)
    gains = PIGains(0.6, 0.004)  # integral too slow to recharge within a day
    state, carry = RoomState(17.0, 17.0), 0.0
    for _ in range(3):  # settle the day-to-day carry
        warm, state, carry = simulate_day(
            p, DEFAULT_COMPENSATION, day, gains, schedule, state, rng=None,
            initial_integral_action=carry,
        )
    cold, _, _ = simulate_day(
        p, DEFAULT_COMPENSATION, day, gains, schedule, state, rng=None
    )
    comfort = slice(110, 260)  # ~09:10 to 21:40
    sag_warm = np.mean(np.clip(warm.setpoint[comfort] - warm.t_room[comfort], 0.0, None))
    sag_cold = np.mean(np.clip(cold.setpoint[comfort] - cold.t_room[comfort], 0.0, None))
    # with the preload the loop nearly holds the setpoint; a discharged
    # integrator spends the day re-learning the standing heat demand
    assert sag_warm < 0.15
    assert sag_cold > sag_warm + 0.3


def test_synth_weather_deterministic_and_sized():
    cfg = WeatherConfig(days=20)
    a = synth_weather(cfg, np.random.default_rng(7))
    b = synth_weather(cfg, np.random.default_rng(7))
    assert len(a) == 20
    for da, db in zip(a, b):
        np.testing.assert_array_equal(da.oat_profile, db.oat_profile)
        np.testing.assert_array_equal(da.solar_profile, db.solar_profile)


def test_synth_weather_daily_swing_is_exact():
    # within one day the AR term is constant, so 15:00 minus 03:00
    # equals twice the daily amplitude by construction
    cfg = WeatherConfig(days=5, daily_amplitude=4.0)
    days = synth_weather(cfg, np.random.default_rng(0))
    i15 = int(15 * 3600 / cfg.step_seconds)
    i03 = int(3 * 3600 / cfg.step_seconds)
    for day in days:
        swing = day.oat_profile[i15] - day.oat_profile[i03]
        assert swing == pytest.approx(2.0 * cfg.daily_amplitude)


def test_synth_weather_midseason_colder_than_edges():
    cfg = WeatherConfig(days=145)
    days = synth_weather(cfg, np.random.default_rng(1))
    edge = np.mean([d.oat_profile.mean() for d in days[:5]])
    mid = np.mean([d.oat_profile.mean() for d in days[70:75]])
    assert mid < edge


def test_synth_weather_solar_and_occupancy_windows():
    cfg = WeatherConfig(days=3)
    days = synth_weather(cfg, np.random.default_rng(2))
    hours = np.arange(days[0].solar_profile.size) * cfg.step_seconds / 3600.0
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
    days = load_weather_csv(path, step_seconds=300)
    assert len(days) == 2
    assert days[0].oat_profile.size == 288
    assert days[0].oat_profile[0] == pytest.approx(0.0)
    assert days[0].solar_profile[0] == pytest.approx(100.0 * 6.8e-4)


def test_load_weather_csv_rejects_bad_input(tmp_path):
    path = tmp_path / "weather.csv"
    path.write_text("time,oat\n2024-01-01T00:00:00,3\n")
    with pytest.raises(ValueError):
        load_weather_csv(path)
    _write_weather_csv(path, np.array([0, 1, 3]), [0, 1, 2], [0, 0, 0])
    with pytest.raises(ValueError):
        load_weather_csv(path)  # uneven spacing


def test_weather_day_validation():
    with pytest.raises(ValueError):
        WeatherDay(np.zeros(10), np.zeros(9), np.zeros(10))
    with pytest.raises(ValueError):
        WeatherDay(np.full(10, np.nan), np.zeros(10), np.zeros(10))
