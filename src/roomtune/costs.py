"""Per-episode performance indexes and their normalization.

Four raw indexes are read off a day's trace: 10-90% rise time of the
morning setpoint step, temperature overshoot during the comfort period,
l2 norm of the valve-command increments, and l2 norm of the valve
command itself. Calibration episodes pin a per-index scale (95th
percentile) so normalized costs land mostly in [0, 1], plus safety
thresholds (97.5th percentile, indexes 1-3) for the optimizer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

DEFAULT_WEIGHTS = (0.25, 0.25, 0.25, 0.25)

# Episodes where an index never varies would otherwise produce a zero
# scale; the floor keeps normalization well-defined.
_SCALE_FLOOR = 1e-9

# The fewest calibration episodes whose upper percentiles mean anything.
MIN_CALIBRATION_EPISODES = 40


class CalibrationError(ValueError):
    """Raised when the calibration set is too small to set scales."""


@dataclass(frozen=True)
class EpisodeTrace:
    """One day's sampled closed-loop time series."""

    setpoint: np.ndarray  # degC per step
    t_room: np.ndarray  # degC per step
    valve: np.ndarray  # commanded u in [0, 1] per step
    step_seconds: int
    step_index: int  # sample index of the morning setpoint step

    def __post_init__(self):
        object.__setattr__(self, "setpoint", np.asarray(self.setpoint, dtype=float))
        object.__setattr__(self, "t_room", np.asarray(self.t_room, dtype=float))
        object.__setattr__(self, "valve", np.asarray(self.valve, dtype=float))
        n = self.setpoint.size
        if self.t_room.size != n or self.valve.size != n:
            raise ValueError("trace arrays must have equal lengths")
        if not (np.isfinite(self.setpoint).all() and np.isfinite(self.t_room).all()):
            raise ValueError("setpoint and room temperature samples must be finite")
        # a NaN extreme fails both comparisons, and so refuses a NaN sample
        if n and not (self.valve.min() >= 0.0 and self.valve.max() <= 1.0):
            raise ValueError("valve commands must lie in [0, 1]")

    @property
    def num_steps(self) -> int:
        return self.setpoint.size

    @property
    def day_seconds(self) -> float:
        return float(self.num_steps * self.step_seconds)


@dataclass(frozen=True)
class RawCosts:
    j1_rise_s: float
    j2_overshoot_c: float
    j3_du_l2: float
    j4_u_l2: float

    def as_array(self) -> np.ndarray:
        return np.array([self.j1_rise_s, self.j2_overshoot_c, self.j3_du_l2, self.j4_u_l2])


@dataclass(frozen=True)
class NormalizedCosts:
    j1: float
    j2: float
    j3: float
    j4: float
    total: float

    def as_array(self) -> np.ndarray:
        return np.array([self.j1, self.j2, self.j3, self.j4])


def _check_step_index(trace: EpisodeTrace) -> int:
    s = trace.step_index
    if not 0 <= s < trace.num_steps:
        raise ValueError("trace step_index outside the trace")
    return s


def rise_time_10_90(trace: EpisodeTrace) -> float:
    """Seconds between the 10% and 90% crossings of the morning step.

    Amplitude runs from the room temperature at the step to the new
    setpoint. Crossing times interpolate linearly between samples. If the
    response never reaches the 90% level the day length stands in as a
    finite worst-case sentinel so the surrogates still see a gradient.
    """
    s = _check_step_index(trace)
    base = float(trace.t_room[s])
    target = float(trace.setpoint[s])
    amplitude = target - base
    if amplitude <= 0.0:
        return 0.0
    t10 = _first_crossing(trace, s, base + 0.1 * amplitude)
    t90 = _first_crossing(trace, s, base + 0.9 * amplitude)
    if t90 is None or t10 is None:
        return trace.day_seconds
    return t90 - t10


def _first_crossing(trace: EpisodeTrace, start: int, level: float) -> float | None:
    """Seconds from sample ``start`` until the room first reaches
    ``level``, interpolated between the two samples that bracket it;
    None if it never does."""
    temps = trace.t_room
    if temps[start] >= level:
        return 0.0
    reached = np.flatnonzero(temps[start + 1 :] >= level)
    if not reached.size:
        return None
    k = start + 1 + int(reached[0])
    below, above = float(temps[k - 1]), float(temps[k])
    return (k - 1 + (level - below) / (above - below) - start) * trace.step_seconds


def overshoot(trace: EpisodeTrace) -> float:
    """Peak temperature excursion above the post-step setpoint, in degC.

    Measured over the samples where the morning setpoint is still in
    force (up to the evening setback), so the deliberate drop back to the
    night setpoint does not count as overshoot.
    """
    s = _check_step_index(trace)
    sp = float(trace.setpoint[s])
    changed = np.flatnonzero(trace.setpoint[s + 1 :] != sp)
    end = s + 1 + int(changed[0]) if changed.size else trace.num_steps
    return max(0.0, float(trace.t_room[s:end].max() - sp))


def output_derivative_l2(trace: EpisodeTrace) -> float:
    if trace.num_steps < 2:
        raise ValueError("need at least 2 samples for the output derivative")
    du = trace.valve[1:] - trace.valve[:-1]
    return math.sqrt((du * du).sum())


def output_l2(trace: EpisodeTrace) -> float:
    if trace.num_steps < 1:
        raise ValueError("need at least 1 sample")
    return math.sqrt((trace.valve * trace.valve).sum())


def compute_raw_costs(trace: EpisodeTrace) -> RawCosts:
    return RawCosts(
        j1_rise_s=rise_time_10_90(trace),
        j2_overshoot_c=overshoot(trace),
        j3_du_l2=output_derivative_l2(trace),
        j4_u_l2=output_l2(trace),
    )


@dataclass(frozen=True)
class CostNormalization:
    """Calibration scaling and safety thresholds.

    scales: 95th-percentile calibration value per index, so 95% of
    historical episodes normalize into [0, 1]. thresholds: normalized
    97.5th percentile for indexes 1-3; episodes below them count as safe.
    """

    scales: tuple[float, float, float, float]
    thresholds: tuple[float, float, float]
    weights: tuple[float, float, float, float] = DEFAULT_WEIGHTS

    def __post_init__(self):
        if not all(0 < s < math.inf for s in self.scales):
            raise ValueError("scales must be positive and finite")
        if not all(0 < c < math.inf for c in self.thresholds):
            raise ValueError("thresholds must be positive and finite")
        check_weights(self.weights)

    @cached_property  # normalize runs every day
    def _arrays(self) -> tuple[np.ndarray, np.ndarray]:
        scales, weights = np.asarray(self.scales, dtype=float), np.asarray(self.weights, dtype=float)
        scales.flags.writeable = weights.flags.writeable = False
        return scales, weights

    def normalize(self, raw: RawCosts) -> NormalizedCosts:
        scales, weights = self._arrays
        vals = raw.as_array() / scales
        return NormalizedCosts(*vals.tolist(), total=float(np.dot(vals, weights)))  # Python floats print faster

    def is_violation(self, costs: NormalizedCosts) -> bool:
        """Any constrained index (1-3) above its safety threshold."""
        c1, c2, c3 = self.thresholds
        return bool(costs.j1 > c1 or costs.j2 > c2 or costs.j3 > c3)

    def to_dict(self) -> dict:
        return {"scales": list(self.scales), "thresholds": list(self.thresholds), "weights": list(self.weights)}

    @classmethod
    def from_dict(cls, d: dict) -> "CostNormalization":
        return cls(tuple(d["scales"]), tuple(d["thresholds"]), tuple(d["weights"]))


def check_weights(weights) -> None:
    """The rule on the cost weights: positive and finite, summing to 1."""
    if not all(0 < w < math.inf for w in weights):
        raise ValueError("weights must be positive and finite")
    if abs(sum(weights) - 1.0) > 1e-9:
        raise ValueError(f"weights must sum to 1, got {tuple(weights)!r}")


def calibrate_normalization(
    calibration_raw_costs: list[RawCosts],
    weights: tuple[float, float, float, float] = DEFAULT_WEIGHTS,
) -> CostNormalization:
    """Derive scales and thresholds from calibration episodes.

    Percentiles take the next-higher order statistic so the stated
    coverage is a guarantee: at least 95% of calibration episodes land
    at or below scale 1.0, and at least 97.5% at or below the safety
    threshold. At least ``MIN_CALIBRATION_EPISODES`` episodes are
    required for the upper percentiles to mean anything.
    """
    if len(calibration_raw_costs) < MIN_CALIBRATION_EPISODES:
        raise CalibrationError(
            f"need >= {MIN_CALIBRATION_EPISODES} calibration episodes, got {len(calibration_raw_costs)}"
        )
    raw = np.array([rc.as_array() for rc in calibration_raw_costs])
    scales = np.maximum(np.percentile(raw, 95.0, axis=0, method="higher"), _SCALE_FLOOR)
    p975 = np.percentile(raw, 97.5, axis=0, method="higher")
    thresholds = np.maximum(p975[:3] / scales[:3], _SCALE_FLOOR)
    return CostNormalization(tuple(scales), tuple(thresholds), tuple(weights))
