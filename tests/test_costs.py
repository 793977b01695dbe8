import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import reference_raw_costs
from roomtune.costs import (
    CalibrationError,
    CostNormalization,
    EpisodeTrace,
    RawCosts,
    calibrate_normalization,
    compute_raw_costs,
    output_derivative_l2,
    output_l2,
    overshoot,
    rise_time_10_90,
)

STEP = 300


def make_trace(setpoint, t_room, valve=None, step_index=0):
    setpoint = np.asarray(setpoint, dtype=float)
    if valve is None:
        valve = np.zeros_like(setpoint)
    return EpisodeTrace(setpoint, np.asarray(t_room, dtype=float), valve, STEP, step_index)


def first_order_step_trace(tau_steps, n=300, step_index=5):
    # exact discrete first-order response toward the new setpoint
    sp = np.concatenate([np.zeros(step_index), np.ones(n - step_index)])
    t = np.zeros(n)
    for k in range(step_index, n - 1):
        t[k + 1] = t[k] + (1.0 - math.exp(-1.0 / tau_steps)) * (1.0 - t[k])
    return make_trace(sp, t, step_index=step_index)


def test_rise_time_matches_first_order_identity():
    # a first-order lag rises 10% to 90% in tau * ln 9
    for tau in (4.0, 12.0, 30.0):
        trace = first_order_step_trace(tau)
        expected = tau * math.log(9.0) * STEP
        assert abs(rise_time_10_90(trace) - expected) <= 2 * STEP


def first_order_response(tau_seconds, amplitude, step_index, n=288, target=21.0):
    """T_k = target - A exp(-(k - s) dt / tau) from the setpoint step at s on."""
    k = np.arange(n) - step_index
    t = target - amplitude * np.exp(-np.maximum(k, 0) * STEP / tau_seconds)
    sp = np.where(k < 0, target - amplitude, target)
    return make_trace(sp, t, step_index=step_index)


@settings(max_examples=100, deadline=None)
@given(
    taus=st.lists(st.floats(30.0, 40000.0), min_size=2, max_size=6),
    amplitude=st.floats(0.5, 10.0),
    step_index=st.integers(0, 100),
)
def test_rise_time_is_monotone_in_the_time_constant(taus, amplitude, step_index):
    """Slower rooms rise no faster, and while the 90% level is reached
    within the day the rise time is tau ln 9 to within one sample."""
    traces = [first_order_response(tau, amplitude, step_index) for tau in sorted(taus)]
    times = [rise_time_10_90(trace) for trace in traces]
    assert all(a <= b for a, b in zip(times, times[1:]))
    for tau, trace, rise in zip(sorted(taus), traces, times):
        if tau * math.log(10.0) < (trace.num_steps - 2 - step_index) * STEP:
            assert abs(rise - tau * math.log(9.0)) <= STEP


def test_rise_time_interpolates_between_samples():
    # the new setpoint is in force from step_index on; the room jumps
    # from 0 to 1 between samples 1 and 2
    sp = np.ones(4)
    t = np.array([0.0, 0.0, 1.0, 1.0])
    trace = make_trace(sp, t, step_index=0)
    # 10% level crossed at k = 1.1 exactly, 90% at k = 1.9
    assert rise_time_10_90(trace) == pytest.approx(0.8 * STEP)


def test_rise_time_sentinel_when_target_unreached():
    sp = np.concatenate([np.zeros(5), np.ones(95)])
    t = np.full(100, 0.5)  # stalls at 50%
    t[:5] = 0.0
    trace = make_trace(sp, t, step_index=5)
    assert rise_time_10_90(trace) == trace.day_seconds


def test_rise_time_zero_for_non_positive_amplitude():
    trace = make_trace(np.zeros(10), np.full(10, 21.0), step_index=0)
    assert rise_time_10_90(trace) == 0.0


def test_overshoot_windows_out_the_evening_setback():
    sp = np.concatenate([np.full(50, 21.0), np.full(50, 17.0)])
    t = np.full(100, 21.0)
    t[20] = 21.7  # true overshoot inside the comfort window
    t[60] = 23.0  # excursion after setback must not count
    trace = make_trace(sp, t, step_index=0)
    assert overshoot(trace) == pytest.approx(0.7)


def test_overshoot_never_negative():
    sp = np.full(20, 21.0)
    t = np.full(20, 19.0)
    assert overshoot(make_trace(sp, t, step_index=0)) == 0.0


def test_l2_costs_match_brute_force():
    rng = np.random.default_rng(3)
    valve = rng.uniform(0.0, 1.0, 200)
    trace = make_trace(np.zeros(200), np.zeros(200), valve)
    du = sum((valve[k + 1] - valve[k]) ** 2 for k in range(199))
    assert output_derivative_l2(trace) == pytest.approx(math.sqrt(du), abs=1e-12)
    assert output_l2(trace) == pytest.approx(math.sqrt(sum(v * v for v in valve)), abs=1e-12)


def test_compute_raw_costs_bundles_all_four():
    trace = first_order_step_trace(8.0)
    raw = compute_raw_costs(trace)
    assert raw.j1_rise_s == rise_time_10_90(trace)
    assert raw.j2_overshoot_c == overshoot(trace)
    assert raw.j3_du_l2 == output_derivative_l2(trace)
    assert raw.j4_u_l2 == output_l2(trace)


def test_step_index_outside_trace_rejected():
    with pytest.raises(ValueError):
        rise_time_10_90(make_trace(np.zeros(10), np.zeros(10), step_index=10))


def _random_calibration(n=145, seed=0):
    rng = np.random.default_rng(seed)
    return [
        RawCosts(*(rng.lognormal(mean=0.0, sigma=0.5, size=4) * np.array([3000.0, 0.5, 1.0, 12.0])))
        for _ in range(n)
    ]


def test_calibration_percentile_coverage_guarantees():
    raws = _random_calibration()
    norm = calibrate_normalization(raws)
    values = np.array([r.as_array() for r in raws])
    # at least 95% of episodes normalize to <= 1 per index
    normalized = values / np.asarray(norm.scales)
    assert np.all(np.mean(normalized <= 1.0, axis=0) >= 0.95)
    # at least 97.5% land at or below each safety threshold
    for i in range(3):
        frac = np.mean(normalized[:, i] <= norm.thresholds[i])
        assert frac >= 0.975
    # thresholds sit above the unit scale: the 97.5th percentile cannot
    # be below the 95th
    assert all(c >= 1.0 for c in norm.thresholds)


def test_calibration_violation_flags_are_consistent():
    raws = _random_calibration(seed=1)
    norm = calibrate_normalization(raws)
    flagged = 0
    for r in raws:
        costs = norm.normalize(r)
        expect = any(costs.as_array()[i] > norm.thresholds[i] for i in range(3))
        assert norm.is_violation(costs) == expect
        flagged += expect
    # by construction at most 2.5% of calibration episodes can exceed
    # any one threshold; the joint rate over three is bounded by 7.5%
    assert flagged <= 0.075 * len(raws)


def test_calibration_needs_enough_episodes():
    with pytest.raises(CalibrationError):
        calibrate_normalization(_random_calibration(n=39))


def test_normalization_roundtrip_and_total():
    norm = CostNormalization((2.0, 0.5, 1.0, 4.0), (1.1, 1.2, 1.3))
    raw = RawCosts(4.0, 1.0, 0.5, 2.0)
    costs = norm.normalize(raw)
    assert costs.as_array() == pytest.approx([2.0, 2.0, 0.5, 0.5])
    assert costs.total == pytest.approx(0.25 * (2.0 + 2.0 + 0.5 + 0.5))
    again = CostNormalization.from_dict(json.loads(json.dumps(norm.to_dict())))
    assert again == norm


def test_weights_validated():
    with pytest.raises(ValueError):
        CostNormalization((1.0,) * 4, (1.0,) * 3, (0.3, 0.3, 0.3, 0.3))
    for bad in (-0.5, math.nan, math.inf):
        with pytest.raises(ValueError, match="weights must be positive and finite"):
            CostNormalization((1.0,) * 4, (1.0,) * 3, (0.5, 0.5, 0.5, bad))
    norm = CostNormalization((1.0,) * 4, (1.0,) * 3, (0.1, 0.2, 0.3, 0.4))
    assert norm.normalize(RawCosts(1.0, 2.0, 3.0, 4.0)).total == pytest.approx(3.0)


def test_trace_validation():
    with pytest.raises(ValueError):
        EpisodeTrace(np.zeros(5), np.zeros(4), np.zeros(5), STEP, 0)
    with pytest.raises(ValueError):
        EpisodeTrace(np.zeros(5), np.zeros(5), np.full(5, 1.5), STEP, 0)
    EpisodeTrace(np.full(5, 21.0), np.full(5, 20.0), np.array([0.0, 0.5, 1.0, 1.0, 0.0]), STEP, 0)
    # NaN passes every range check, so each array is refused one non-finite sample
    for field in ("setpoint", "t_room", "valve"):
        for bad in (math.nan, math.inf, -math.inf):
            arrays = {"setpoint": np.full(5, 21.0), "t_room": np.full(5, 20.0), "valve": np.full(5, 0.5)}
            arrays[field][2] = bad
            with pytest.raises(ValueError, match="finite" if field != "valve" else r"\[0, 1\]"):
                EpisodeTrace(**arrays, step_seconds=STEP, step_index=0)


def assert_costs_match_reference(trace):
    got, want = compute_raw_costs(trace), reference_raw_costs(trace)
    for name in ("j1_rise_s", "j2_overshoot_c", "j3_du_l2", "j4_u_l2"):
        assert float(getattr(got, name)).hex() == float(getattr(want, name)).hex(), name


_ONE_ULP_UP = float(np.nextafter(20.0, math.inf))


@pytest.mark.parametrize(
    "setpoint, t_room, step_index",
    [
        # one ulp of amplitude: the 10 % level rounds onto the step sample itself
        ([17.0, _ONE_ULP_UP, _ONE_ULP_UP, 17.0], [20.0, 20.0, 21.0, 21.0], 1),
        # both levels reached between samples, then the evening setback
        ([17.0, 21.0, 21.0, 21.0, 17.0, 17.0], [17.0, 17.0, 18.0, 21.5, 23.0, 22.0], 1),
        # the 10 % level reached exactly on a sample
        ([17.0, 21.0, 21.0, 21.0], [17.0, 17.0, 17.0 + 0.1 * 4.0, 21.0], 1),
        # the 90 % level never reached: the day-length sentinel
        ([17.0, 21.0, 21.0, 21.0], [17.0, 17.0, 18.0, 19.0], 1),
        # a setpoint that never steps back
        ([17.0, 17.0, 21.0, 21.0, 21.0], [16.0, 16.5, 17.0, 20.0, 21.3], 2),
        # the step at the last sample
        ([17.0, 17.0, 17.0, 21.0], [16.0, 16.5, 17.0, 17.2], 3),
    ],
)
def test_compute_raw_costs_matches_the_per_sample_scans(setpoint, t_room, step_index):
    valve = np.linspace(0.0, 1.0, len(setpoint))
    assert_costs_match_reference(make_trace(setpoint, t_room, valve, step_index))


@st.composite
def step_traces(draw):
    """A night-to-comfort step at a drawn sample, with an optional step
    back, and room samples drawn from both sides of the 10 % and 90 %
    levels, some exactly on them."""
    n = draw(st.integers(2, 40))
    s = draw(st.integers(0, n - 1))
    back = draw(st.one_of(st.none(), st.integers(s + 1, n)))
    night, base = draw(st.floats(10.0, 20.0)), draw(st.floats(10.0, 25.0))
    comfort = draw(st.one_of(st.floats(15.0, 25.0), st.just(float(np.nextafter(base, math.inf)))))
    end = n if back is None else back
    setpoint = [night] * s + [comfort] * (end - s) + [night] * (n - end)
    amplitude = comfort - base
    fractions = st.one_of(st.sampled_from([0.0, 0.1, 0.5, 0.9, 1.0]), st.floats(-0.5, 1.5))
    t_room = [base + f * amplitude for f in draw(st.lists(fractions, min_size=n, max_size=n))]
    t_room[s] = base
    valve = draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n))
    return make_trace(setpoint, t_room, valve, s)


@settings(max_examples=300, deadline=None)
@given(step_traces())
def test_compute_raw_costs_equals_the_per_sample_scans_on_generated_traces(trace):
    assert_costs_match_reference(trace)
