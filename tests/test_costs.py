import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
