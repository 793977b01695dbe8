"""Discrete positional PI controller for the radiator valve.

Derivative gain is fixed at zero (the loop is inherently stable and a D
term would amplify noise). Output saturates to the valve range [0, 1];
the integrator uses conditional integration as anti-windup: the error is
not accumulated while the output is saturated in the error's direction.

Gains are sample-time coupled: ki is valve-fraction per (degC * step),
with the control period fixed by the plant's step_seconds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# Hard integrator bound: ki * integrator stays within this window so a
# long saturated stretch cannot park the integral term arbitrarily far
# outside the actuator range.
INTEGRAL_TERM_MIN = -1.0
INTEGRAL_TERM_MAX = 2.0


@dataclass(frozen=True)
class PIGains:
    kp: float  # valve-fraction per degC
    ki: float  # valve-fraction per (degC * step)

    def __post_init__(self):
        if not (math.isfinite(self.kp) and math.isfinite(self.ki)):
            raise ValueError("gains must be finite")
        if self.kp < 0 or self.ki < 0:
            raise ValueError("gains must be non-negative")


@dataclass(frozen=True)
class ControllerState:
    integrator: float = 0.0
    last_output: float = 0.0


def control_step(
    gains: PIGains,
    state: ControllerState,
    setpoint: float,
    measurement: float,
) -> tuple[float, ControllerState]:
    """One controller update: returns (valve command in [0, 1], new state).

    simulate_day inlines this update; keep the two bit-identical."""
    if not (math.isfinite(setpoint) and math.isfinite(measurement)):
        raise ValueError("setpoint and measurement must be finite")
    error = setpoint - measurement
    integrator = state.integrator + error
    raw = gains.kp * error + gains.ki * integrator
    # Conditional integration: drop the accumulation if it drives the
    # output past saturation in the same direction as the error.
    if (raw > 1.0 and error > 0.0) or (raw < 0.0 and error < 0.0):
        integrator = state.integrator
    if gains.ki > 0.0:
        integrator = min(max(integrator, INTEGRAL_TERM_MIN / gains.ki), INTEGRAL_TERM_MAX / gains.ki)
    u = gains.kp * error + gains.ki * integrator
    u = min(max(u, 0.0), 1.0)
    return u, ControllerState(integrator, u)
