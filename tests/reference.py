"""Per-step references for the closed loop that ``plant.simulate_day``
runs inlined: one PI controller update, one plant update, and a whole
day spelled out with the two. The tests use them as oracles;
``simulate_day`` must stay bit-identical to ``reference_day``.

The controller is a discrete positional PI: its output saturates to the
valve range [0, 1], and its integrator uses conditional integration as
anti-windup (the error is not accumulated while the output is saturated
in the error's direction), bounded so that ki * integrator stays in
[INTEGRAL_TERM_MIN, INTEGRAL_TERM_MAX].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from roomtune.pid import INTEGRAL_TERM_MAX, INTEGRAL_TERM_MIN, PIGains
from roomtune.plant import (
    ROOM_TEMP_MAX,
    ROOM_TEMP_MIN,
    PlantParams,
    RoomState,
    SimulationDivergedError,
    heating_curve,
)


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
    """One controller update: returns (valve command in [0, 1], new state)."""
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


def step(
    params: PlantParams,
    state: RoomState,
    valve: float,
    oat: float,
    water_temp: float,
    solar: float = 0.0,
    occupancy: float = 0.0,
    noise: float = 0.0,
) -> RoomState:
    """Advance the thermal state by one control period."""
    if not 0.0 <= valve <= 1.0:
        raise ValueError("valve command must lie in [0, 1]")
    heat = params.input_gain * params.radiator_ua * valve * max(water_temp - state.t_room, 0.0)
    t_room = (
        params.room_pole * state.t_room
        + params.wall_coupling * state.t_wall
        + heat
        + params.disturbance_gain * (oat - state.t_room)
        + solar
        + occupancy
        + noise
    )
    t_wall = params.wall_pole * state.t_wall + (1.0 - params.wall_pole) * state.t_room
    if not ROOM_TEMP_MIN <= t_room <= ROOM_TEMP_MAX:
        raise SimulationDivergedError(f"room temperature {t_room:.2f} degC outside sanity range")
    return RoomState(t_room, t_wall)


def reference_day(params, comp, weather, gains, schedule, initial_state, rng,
                  initial_integral_action=0.0):
    """simulate_day spelled out as control_step and step per sample with a
    scalar heating_curve lookup: the oracle for its inlined loop."""
    steps = weather.oat_profile.size
    setpoints = schedule.setpoints(steps)
    if params.noise_sigma > 0:
        sigma = params.noise_sigma
        noise = np.clip(rng.normal(0.0, sigma, steps), -3.0 * sigma, 3.0 * sigma)
    else:
        noise = np.zeros(steps)
    t_room, valve = np.empty(steps), np.empty(steps)
    ctrl = ControllerState()
    if gains.ki > 0.0 and initial_integral_action != 0.0:
        action = min(max(initial_integral_action, INTEGRAL_TERM_MIN), INTEGRAL_TERM_MAX)
        ctrl = ControllerState(action / gains.ki, 0.0)
    state = initial_state
    for k in range(steps):
        t_room[k] = state.t_room
        u, ctrl = control_step(gains, ctrl, setpoints[k], state.t_room)
        valve[k] = u
        oat = weather.oat_profile[k]
        state = step(
            params, state, u, oat, heating_curve(comp, oat),
            weather.solar_profile[k], weather.occupancy_profile[k], noise[k],
        )
    return setpoints, t_room, valve, state, gains.ki * ctrl.integrator
