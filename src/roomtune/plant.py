"""Two-state room thermal simulator with weather-compensated heating.

Replaces the proprietary building model with the cheapest dynamics that
still produce context-dependent optima: a discrete affine room state
coupled to a slow wall state, radiator heat proportional to valve
opening times the (water - room) temperature difference, losses
proportional to (outside - room), plus solar/occupancy gains and bounded
Gaussian disturbance noise. Supply-water temperature follows a
piecewise-linear weather-compensation curve with a deliberate slope
change at -3 degC outside temperature.

One step:

    t_room' = a_d * t_room + c_w * t_wall
              + b_u * ua * u * max(water - t_room, 0)
              + b_d * (oat - t_room) + solar + occupancy + noise
    t_wall' = p_w * t_wall + (1 - p_w) * t_room

All parameters are desk-tuned simulator constants, frozen in the
PlantParams defaults and DEFAULT_COMPENSATION; none are claims about a
real building.
"""

from __future__ import annotations

import csv
import math
import numbers
from dataclasses import dataclass, fields
from datetime import datetime, timezone
from functools import cached_property

import numpy as np

from .costs import EpisodeTrace
from .pid import INTEGRAL_TERM_MAX, INTEGRAL_TERM_MIN, PIGains

SECONDS_PER_DAY = 86400
# The control period, at which every per-step constant and PI gain is tuned
STEP_SECONDS = 300
STEPS_PER_DAY = SECONDS_PER_DAY // STEP_SECONDS


class SimulationDivergedError(RuntimeError):
    """Room temperature left the sanity range during a rollout."""


def _is_finite_number(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)


def check_field_kinds(settings) -> None:
    """Refuse a settings dataclass with a field that is not of the kind
    its annotation names, before a range check compares it: an ``int``
    field takes an integer, a ``float`` field a finite real number, a
    ``tuple[float, ...]`` field a tuple of as many, and a ``str`` (or
    ``str | None``) field a string (or None); a bool is neither an
    integer nor a number. NaN is false on both sides of every range
    check, so it would pass them, and a wrong type fails only mid-run,
    in hashing, or never (an integer path names a file descriptor).
    Fields of other kinds are checked by their own class."""
    for f in fields(settings):
        value = getattr(settings, f.name)
        if f.type == "int":
            ok, wanted = isinstance(value, numbers.Integral) and not isinstance(value, bool), "an integer"
        elif f.type == "float":
            ok, wanted = _is_finite_number(value), "a finite number"
        elif f.type.startswith("tuple[float"):
            count = f.type.count("float")
            ok = isinstance(value, tuple) and len(value) == count and all(map(_is_finite_number, value))
            wanted = f"{count} finite numbers"
        elif f.type in ("str", "str | None"):
            ok, wanted = isinstance(value, str) or (value is None and f.type == "str | None"), "a string"
        else:
            continue
        if not ok:
            raise ValueError(f"{f.name} must be {wanted}, got {value!r}")


@dataclass(frozen=True)
class PlantParams:
    room_pole: float = 0.995  # a_d, per step
    input_gain: float = 0.035  # degC per step per unit valve*(water - room)
    disturbance_gain: float = 0.036  # degC per step per degC of (oat - room)
    wall_coupling: float = 0.003
    wall_pole: float = 0.999
    radiator_ua: float = 0.8  # kW/K-equivalent scaling of the heat term
    noise_sigma: float = 0.01  # degC per step, truncated at +-3 sigma

    def __post_init__(self):
        check_field_kinds(self)
        if not 0.0 < self.room_pole < 1.0:
            raise ValueError("room_pole must lie in (0, 1)")
        if min(self.input_gain, self.disturbance_gain, self.radiator_ua) <= 0:
            raise ValueError("input_gain, disturbance_gain and radiator_ua must be positive")
        if not 0.0 <= self.wall_coupling < 1.0:
            raise ValueError("wall_coupling must lie in [0, 1)")
        if not 0.0 < self.wall_pole < 1.0:
            raise ValueError("wall_pole must lie in (0, 1)")
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be non-negative")

    @property
    def steps_per_day(self) -> int:
        return STEPS_PER_DAY


@dataclass(frozen=True)
class WeatherCompensation:
    """Piecewise-linear heating curve: outside air temp -> water temp."""

    breakpoints: tuple[tuple[float, float], ...] = ((-10.0, 70.0), (-3.0, 60.0), (20.0, 35.0))

    def __post_init__(self):
        try:
            pts = tuple((o, w) for o, w in self.breakpoints)
        except (TypeError, ValueError):
            raise ValueError(f"breakpoints must be (oat, water) pairs, got {self.breakpoints!r}") from None
        if not all(_is_finite_number(o) and _is_finite_number(w) for o, w in pts):
            raise ValueError(f"breakpoints must be finite numbers, got {self.breakpoints!r}")
        pts = tuple((float(o), float(w)) for o, w in pts)
        object.__setattr__(self, "breakpoints", pts)
        if len(pts) < 2:
            raise ValueError("need at least two breakpoints")
        oats, waters = zip(*pts)
        if any(b <= a for a, b in zip(oats, oats[1:])):
            raise ValueError("oat breakpoints must be strictly increasing")
        if any(b > a for a, b in zip(waters, waters[1:])):
            raise ValueError("water temperature must be non-increasing in oat")
        if not self._has_slope_change_at(-3.0):
            raise ValueError("curve must change slope at -3 degC")

    def _has_slope_change_at(self, oat: float) -> bool:
        pts = self.breakpoints
        for (o0, w0), (o1, w1), (o2, w2) in zip(pts, pts[1:], pts[2:]):
            if abs(o1 - oat) < 1e-9:
                return abs((w1 - w0) / (o1 - o0) - (w2 - w1) / (o2 - o1)) > 1e-12
        return False


def heating_curve(comp: WeatherCompensation, oat):
    """Supply-water temperature for each outside air temperature in
    ``oat``, clamped at the end breakpoints."""
    oats, waters = zip(*comp.breakpoints)
    return np.interp(oat, oats, waters)


DEFAULT_COMPENSATION = WeatherCompensation()


@dataclass(frozen=True)
class RoomState:
    t_room: float
    t_wall: float

    def __post_init__(self):
        if not (math.isfinite(self.t_room) and math.isfinite(self.t_wall)):
            raise ValueError("room state must be finite")


ROOM_TEMP_MIN = -20.0
ROOM_TEMP_MAX = 50.0


@dataclass(frozen=True)
class DaySchedule:
    """Night setback with a morning step-up to the comfort setpoint."""

    night_setpoint: float = 17.0
    comfort_setpoint: float = 21.0
    morning_hour: float = 6.0
    evening_hour: float = 22.0

    def __post_init__(self):
        check_field_kinds(self)
        if not 0.0 <= self.morning_hour < self.evening_hour <= 24.0:
            raise ValueError("need 0 <= morning_hour < evening_hour <= 24")

    def _comfort(self, steps: int) -> np.ndarray:
        hours = np.arange(steps) * STEP_SECONDS / 3600.0
        return (hours >= self.morning_hour) & (hours < self.evening_hour)

    def setpoints(self, steps: int) -> np.ndarray:
        return np.where(self._comfort(steps), self.comfort_setpoint, self.night_setpoint)

    @cached_property
    def _sampled(self) -> dict[int, tuple[np.ndarray, list[float]]]:
        return {}

    def sampled_setpoints(self, steps: int) -> tuple[np.ndarray, list[float]]:
        """``setpoints(steps)``, read-only, and the same values as a
        list; built once per schedule and length, as simulate_day asks
        every day."""
        sampled = self._sampled.get(steps)
        if sampled is None:
            array = self.setpoints(steps)
            array.flags.writeable = False
            sampled = self._sampled[steps] = (array, array.tolist())
        return sampled

    @cached_property  # simulate_day asks every day
    def morning_step_index(self) -> int:
        """The first comfort sample of a day, where ``setpoints`` steps
        up; raises ``ValueError`` when no sample falls in the comfort
        period."""
        comfort = self._comfort(STEPS_PER_DAY)
        if not comfort.any():
            raise ValueError(f"schedule has no comfort sample at {STEP_SECONDS} s steps")
        return int(comfort.argmax())


@dataclass(frozen=True)
class WeatherDay:
    """Per-step exogenous profiles for one day.

    Solar and occupancy are already expressed as degC-equivalent gains
    per step, matching the units of the room update.
    """

    oat_profile: np.ndarray
    solar_profile: np.ndarray
    occupancy_profile: np.ndarray

    def __post_init__(self):
        names = self.__dataclass_fields__  # as fields(), at a fraction of its cost per day
        profiles = [np.asarray(getattr(self, name), dtype=float) for name in names]
        for name, arr in zip(names, profiles):
            object.__setattr__(self, name, arr)
        if len({arr.size for arr in profiles}) != 1:
            raise ValueError("weather profiles must share one length")
        if not all(np.isfinite(arr).all() for arr in profiles):
            raise ValueError("weather profiles must be finite")


def simulate_day(
    params: PlantParams,
    comp: WeatherCompensation,
    weather: WeatherDay,
    gains: PIGains,
    schedule: DaySchedule,
    initial_state: RoomState,
    rng: np.random.Generator,
    initial_integral_action: float = 0.0,
) -> tuple[EpisodeTrace, RoomState, float]:
    """Closed-loop rollout of one day; returns trace, final thermal state
    and the closing integral term of the controller (in valve units).

    ``initial_integral_action`` pre-loads the integrator with ki * I in
    valve units. Feeding yesterday's closing value back in gives bumpless
    day-to-day operation regardless of gain changes; without it every
    morning starts from a discharged integrator and the loop spends the
    whole day re-learning the standing heat demand.
    """
    steps = weather.oat_profile.size
    setpoints, setpoint_list = schedule.sampled_setpoints(steps)
    if params.noise_sigma > 0:
        sigma = params.noise_sigma
        noise = rng.normal(0.0, sigma, steps).clip(-3.0 * sigma, 3.0 * sigma)
    else:
        noise = np.zeros(steps)
    water = heating_curve(comp, weather.oat_profile)

    # Per sample, on Python floats: the PI control law, then the module
    # docstring's plant step. Anti-windup is conditional integration (no
    # accumulation while the raw output is saturated in the error's
    # direction), then the window that keeps ki * integrator within
    # [INTEGRAL_TERM_MIN, INTEGRAL_TERM_MAX]; the valve saturates to
    # [0, 1]. The output is recomputed only when one of the two moved the
    # integrator; a held integrator is already inside the window.
    # tests/reference.py spells the loop out per step, every operation in
    # the same order, and the two stay bit-identical. The valid initial
    # state and the range check keep the measurement finite; DaySchedule
    # keeps the setpoint finite.
    t_room: list[float] = []
    valve: list[float] = []
    record_t, record_u = t_room.append, valve.append
    kp, ki = gains.kp, gains.ki
    # the integrator window; with ki = 0 the integrator is unbounded
    lo, hi = (INTEGRAL_TERM_MIN / ki, INTEGRAL_TERM_MAX / ki) if ki > 0.0 else (-math.inf, math.inf)
    integrator = 0.0
    if ki > 0.0 and initial_integral_action != 0.0:
        integrator = min(max(initial_integral_action, INTEGRAL_TERM_MIN), INTEGRAL_TERM_MAX) / ki
    room_pole, wall_coupling = params.room_pole, params.wall_coupling
    disturbance_gain, wall_pole = params.disturbance_gain, params.wall_pole
    heat_gain = params.input_gain * params.radiator_ua
    wall_leak = 1.0 - wall_pole
    t, t_wall = initial_state.t_room, initial_state.t_wall
    t_min, t_max = ROOM_TEMP_MIN, ROOM_TEMP_MAX
    profiles = zip(
        setpoint_list,
        weather.oat_profile.tolist(),
        water.tolist(),
        weather.solar_profile.tolist(),
        weather.occupancy_profile.tolist(),
        noise.tolist(),
    )
    for sp, oat, water_temp, solar, occupancy, eps in profiles:
        record_t(t)
        error = sp - t
        held = integrator
        integrator = held + error
        u = kp * error + ki * integrator
        if (u > 1.0 and error > 0.0) or (u < 0.0 and error < 0.0):
            integrator = held
            u = kp * error + ki * integrator
        elif integrator < lo:
            integrator = lo
            u = kp * error + ki * integrator
        elif integrator > hi:
            integrator = hi
            u = kp * error + ki * integrator
        if u < 0.0:
            u = 0.0
        elif u > 1.0:
            u = 1.0
        elif u != u:  # NaN, from an overflowed integrator
            raise ValueError("valve command must lie in [0, 1]")
        record_u(u)
        drive = water_temp - t
        if drive < 0.0:
            drive = 0.0
        t_next = (
            room_pole * t
            + wall_coupling * t_wall
            + heat_gain * u * drive
            + disturbance_gain * (oat - t)
            + solar
            + occupancy
            + eps
        )
        t_wall = wall_pole * t_wall + wall_leak * t
        t = t_next
        if not t_min <= t <= t_max:
            raise SimulationDivergedError(f"room temperature {t:.2f} degC outside sanity range")
    trace = EpisodeTrace(
        setpoint=setpoints,
        t_room=np.fromiter(t_room, float, steps),
        valve=np.fromiter(valve, float, steps),
        step_seconds=STEP_SECONDS,
        step_index=schedule.morning_step_index,
    )
    return trace, RoomState(t, t_wall), ki * integrator


# ---------------------------------------------------------------------------
# Weather sources
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WeatherConfig:
    """Synthetic heating-season weather generator settings.

    Outside air temperature = seasonal sinusoid (coldest mid-season)
    + daily sinusoid (coldest pre-dawn) + day-scale AR(1) noise. Solar is
    a clipped daytime sinusoid scaled by per-day cloudiness; occupancy
    is a fixed office-hours profile.
    """

    edge_oat: float = 7.0  # seasonal mean at season edges, degC
    mid_oat: float = -2.5  # seasonal mean at mid-season, degC
    daily_amplitude: float = 4.0
    warmest_hour: float = 15.0
    ar1_phi: float = 0.85
    ar1_sigma: float = 1.15
    solar_peak: float = 0.34  # degC-equivalent per step at clear midday
    occupancy_gain: float = 0.01  # degC-equivalent per step, 8-18 h

    def __post_init__(self):
        check_field_kinds(self)
        if self.ar1_sigma < 0:
            raise ValueError("ar1_sigma must be non-negative")


def synth_weather(config: WeatherConfig, days: int, rng: np.random.Generator) -> list[WeatherDay]:
    """Generate ``days`` days of weather sampled every ``STEP_SECONDS``;
    deterministic given the rng."""
    if days < 1:
        raise ValueError("day count must be >= 1")
    hours = np.arange(STEPS_PER_DAY) * STEP_SECONDS / 3600.0
    daily = config.daily_amplitude * np.cos(2.0 * np.pi * (hours - config.warmest_hour) / 24.0)
    sun = np.clip(np.sin(np.pi * (hours - 7.0) / 11.0), 0.0, None)
    occupancy = np.where((hours >= 8.0) & (hours < 18.0), config.occupancy_gain, 0.0)

    season = []
    ar = 0.0
    for d in range(days):
        phase = d / (days - 1) if days > 1 else 0.5
        seasonal = config.edge_oat + (config.mid_oat - config.edge_oat) * math.sin(math.pi * phase)
        ar = config.ar1_phi * ar + rng.normal(0.0, config.ar1_sigma)
        cloud = rng.uniform(0.85, 1.0)
        season.append(WeatherDay(seasonal + ar + daily, config.solar_peak * cloud * sun, occupancy.copy()))
    return season


# degC-equivalent gain per step per W/m^2 of measured irradiance; sized so
# clear-sky 500 W/m^2 matches the synthetic generator's solar_peak scale.
SOLAR_WM2_TO_GAIN = 6.8e-4


def load_weather_csv(path) -> list[WeatherDay]:
    """Read measured weather and resample it onto the simulation grid.

    Expects the header ``timestamp,oat_celsius,solar_wm2`` with ISO-8601
    timestamps at a fixed interval; a timestamp without an offset is read
    as UTC, whatever the host's time zone. Values are linearly
    interpolated to ``STEP_SECONDS`` and split into whole days; a trailing
    partial day is dropped. Occupancy follows the synthetic generator's
    default office-hours profile.
    """
    times: list[float] = []
    oats: list[float] = []
    solar: list[float] = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        expected = {"timestamp", "oat_celsius", "solar_wm2"}
        if reader.fieldnames is None or set(reader.fieldnames) != expected:
            raise ValueError(f"weather CSV must have header {sorted(expected)}")
        for row in reader:
            moment = datetime.fromisoformat(row["timestamp"])
            times.append((moment.replace(tzinfo=timezone.utc) if moment.tzinfo is None else moment).timestamp())
            oats.append(float(row["oat_celsius"]))
            solar.append(float(row["solar_wm2"]))
    if len(times) < 2:
        raise ValueError("weather CSV needs at least two rows")
    t = np.asarray(times)
    intervals = np.diff(t)
    if not np.all(intervals > 0):
        raise ValueError("weather CSV timestamps must strictly increase")
    if np.ptp(intervals) > 1e-6:
        raise ValueError("weather CSV timestamps must be evenly spaced")

    grid = np.arange(t[0], t[-1] + 1e-9, STEP_SECONDS)
    oat_grid = np.interp(grid, t, np.asarray(oats))
    solar_grid = np.interp(grid, t, np.asarray(solar)) * SOLAR_WM2_TO_GAIN

    hours = np.arange(STEPS_PER_DAY) * STEP_SECONDS / 3600.0
    occupancy = np.where((hours >= 8.0) & (hours < 18.0), WeatherConfig.occupancy_gain, 0.0)
    n_days = grid.size // STEPS_PER_DAY
    if n_days < 1:
        raise ValueError("weather CSV covers less than one day")
    return [
        WeatherDay(oat_grid[k : k + STEPS_PER_DAY], solar_grid[k : k + STEPS_PER_DAY], occupancy.copy())
        for k in range(0, n_days * STEPS_PER_DAY, STEPS_PER_DAY)
    ]

