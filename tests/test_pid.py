import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from reference import ControllerState, control_step
from roomtune.pid import INTEGRAL_TERM_MAX, INTEGRAL_TERM_MIN, PIGains


def test_proportional_only():
    u, state = control_step(PIGains(0.5, 0.0), ControllerState(), setpoint=21.0, measurement=20.0)
    assert u == pytest.approx(0.5)
    assert state.integrator == pytest.approx(1.0)  # error accumulates even with ki=0


def test_integrator_accumulates():
    gains = PIGains(0.0, 0.1)
    state = ControllerState()
    u1, state = control_step(gains, state, 1.0, 0.0)
    u2, state = control_step(gains, state, 1.0, 0.0)
    assert u1 == pytest.approx(0.1)
    assert u2 == pytest.approx(0.2)


def test_output_saturates_to_valve_range():
    u_hi, _ = control_step(PIGains(5.0, 0.0), ControllerState(), 25.0, 15.0)
    u_lo, _ = control_step(PIGains(5.0, 0.0), ControllerState(), 15.0, 25.0)
    assert u_hi == 1.0
    assert u_lo == 0.0


def test_conditional_integration_freezes_when_saturated():
    # Large positive error saturates the valve; the integrator must not
    # keep charging while it does.
    gains = PIGains(1.0, 0.05)
    state = ControllerState()
    _, state = control_step(gains, state, 25.0, 15.0)
    frozen = state.integrator
    for _ in range(50):
        u, state = control_step(gains, state, 25.0, 15.0)
        assert u == 1.0
    assert state.integrator == pytest.approx(frozen)


def test_integral_term_hard_bounds():
    gains = PIGains(0.0, 0.1)
    state = ControllerState(integrator=1e6, last_output=0.0)
    _, state = control_step(gains, state, 20.0, 20.0)
    assert state.integrator == pytest.approx(INTEGRAL_TERM_MAX / gains.ki)
    state = ControllerState(integrator=-1e6, last_output=0.0)
    _, state = control_step(gains, state, 20.0, 20.0)
    assert state.integrator == pytest.approx(INTEGRAL_TERM_MIN / gains.ki)


def test_antiwindup_recovers_faster_than_free_integrator():
    # After a long saturated stretch the conditional integrator leaves
    # no excess charge: the output must come off the stop as soon as the
    # error flips sign.
    gains = PIGains(0.2, 0.01)
    state = ControllerState()
    for _ in range(200):
        _, state = control_step(gains, state, 25.0, 15.0)
    u, _ = control_step(gains, state, 15.0, 25.0)
    assert u < 1.0


def test_negative_gains_rejected():
    with pytest.raises(ValueError):
        PIGains(-0.1, 0.0)
    with pytest.raises(ValueError):
        PIGains(0.1, -0.01)


@pytest.mark.parametrize("kp, ki", [(math.nan, 0.1), (0.1, math.nan), (math.inf, 0.0), (0.5, math.inf)])
def test_non_finite_gains_rejected(kp, ki):
    with pytest.raises(ValueError):
        PIGains(kp, ki)


def test_non_finite_inputs_rejected():
    with pytest.raises(ValueError):
        control_step(PIGains(1.0, 0.0), ControllerState(), math.nan, 20.0)
    with pytest.raises(ValueError):
        control_step(PIGains(1.0, 0.0), ControllerState(), 20.0, math.inf)


_TEMPERATURE = st.floats(-30.0, 40.0)


@given(
    gains=st.builds(PIGains, st.floats(0.0, 10.0), st.floats(0.0, 1.0)),
    state=st.builds(ControllerState, st.floats(-1e4, 1e4), st.floats(0.0, 1.0)),
    setpoint=_TEMPERATURE,
    measurement=_TEMPERATURE,
)
def test_control_step_invariants(gains, state, setpoint, measurement):
    u, new = control_step(gains, state, setpoint, measurement)
    assert 0.0 <= u <= 1.0
    assert new.last_output == u
    kept = state.integrator
    if gains.ki > 0.0:
        lo, hi = INTEGRAL_TERM_MIN / gains.ki, INTEGRAL_TERM_MAX / gains.ki
        assert lo <= new.integrator <= hi
        kept = min(max(kept, lo), hi)
    # conditional integration: while the raw output is saturated in the
    # direction of the error, the error is not accumulated
    error = setpoint - measurement
    raw = gains.kp * error + gains.ki * (state.integrator + error)
    if (raw > 1.0 and error > 0.0) or (raw < 0.0 and error < 0.0):
        assert new.integrator == kept
