"""Daily gain selection over a discretized PI-gain grid.

Three GP-backed selectors share one state type:

- ``scbo``: contextual lower-confidence-bound search restricted to the
  set of gains whose constraint surrogates certify, with probability at
  least 1 - epsilon, that rise time, overshoot and valve-movement costs
  stay below their calibrated thresholds.
- ``cbo``: same acquisition with context but no safety restriction.
- ``bo``: the same contextual surrogates with the context input held at
  0.0 for every observation and query, and no safety restriction. At one
  fixed context the product kernel is its gain factor, so ``bo`` is a
  gain-only search on the fitted gain hyperparameters.

All three evaluate the known-safe anchor gains on their first day and
condition the surrogates on it before the acquisition loop starts.
A state conditions its surrogates on its own log at construction, so
``update``, checkpoint restore and day truncation only build a state.
Only the gains that can still be chosen are queried: ``scbo`` checks each
constraint surrogate on the gains the previous ones certified, and scores
the acquisition on its safe candidates alone.

The model-based baseline lives here too: an in-day retuner that fits a
first-order-plus-dead-time response by least squares (LAPACK ``gelsd``,
the routine behind ``np.linalg.lstsq``, called directly) and applies the
open-loop Ziegler-Nichols PI rule.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np
from scipy.linalg.lapack import dgelsd, dgelsd_lwork
from scipy.special import ndtri

from .costs import NormalizedCosts
from .gp import GPModel, KernelSpec, PRODUCT, combine_gps_batch, model_from_dict, model_to_dict
from .pid import PIGains

METHOD_FIXED = "fixed"
METHOD_ADA = "ada"
METHOD_BO = "bo"
METHOD_CBO = "cbo"
METHOD_SCBO = "scbo"
GP_METHODS = (METHOD_BO, METHOD_CBO, METHOD_SCBO)
ALL_METHODS = (METHOD_FIXED, METHOD_ADA) + GP_METHODS

DEFAULT_BETA = 2.0
DEFAULT_EPSILON = 0.05
DEFAULT_KP_BOUNDS = (0.02, 20.0)
DEFAULT_KI_BOUNDS = (1e-4, 0.2)
DEFAULT_GRID_SIZE = 40
DEFAULT_ANCHOR = (0.6, 0.004)


@dataclass(frozen=True, eq=False)
class GainDomain:
    """Log-spaced candidate grid with the anchor gains snapped onto it.

    Grid points are ordered kp-major, so index order is (kp ascending,
    then ki ascending); first-occurrence argmin over this order realises
    the lower-kp-then-lower-ki tie break.
    """

    kp_values: np.ndarray
    ki_values: np.ndarray
    anchor_kp: float
    anchor_ki: float

    def __post_init__(self):
        object.__setattr__(self, "kp_values", np.asarray(self.kp_values, dtype=float))
        object.__setattr__(self, "ki_values", np.asarray(self.ki_values, dtype=float))
        for values in (self.kp_values, self.ki_values):
            if values.size < 2 or np.any(values <= 0):
                raise ValueError("gain grids need >= 2 positive values")
            if np.any(np.diff(values) <= 0):
                raise ValueError("gain grids must be strictly increasing")
        if self.anchor_kp not in self.kp_values or self.anchor_ki not in self.ki_values:
            raise ValueError("anchor gains must lie on the grid")

    @classmethod
    def build(
        cls,
        kp_bounds: tuple[float, float] = DEFAULT_KP_BOUNDS,
        ki_bounds: tuple[float, float] = DEFAULT_KI_BOUNDS,
        size: int = DEFAULT_GRID_SIZE,
        anchor: tuple[float, float] = DEFAULT_ANCHOR,
    ) -> "GainDomain":
        """Geometric grids with the node nearest each anchor coordinate
        replaced by the anchor value (nearest-in-log stays between its
        neighbours, so monotonicity survives)."""
        kp = np.geomspace(kp_bounds[0], kp_bounds[1], size)
        ki = np.geomspace(ki_bounds[0], ki_bounds[1], size)
        if not (kp_bounds[0] < anchor[0] < kp_bounds[1] and ki_bounds[0] < anchor[1] < ki_bounds[1]):
            raise ValueError("anchor must lie strictly inside the gain bounds")
        kp[np.argmin(np.abs(np.log(kp) - math.log(anchor[0])))] = anchor[0]
        ki[np.argmin(np.abs(np.log(ki) - math.log(anchor[1])))] = anchor[1]
        return cls(kp, ki, anchor[0], anchor[1])

    @property
    def size(self) -> int:
        return self.kp_values.size * self.ki_values.size

    @cached_property
    def points(self) -> np.ndarray:
        """(size, 2) array of (kp, ki), kp-major."""
        return np.column_stack(
            [
                np.repeat(self.kp_values, self.ki_values.size),
                np.tile(self.ki_values, self.kp_values.size),
            ]
        )

    def normalize(self, gains: np.ndarray) -> np.ndarray:
        """Map raw (kp, ki) rows to [0,1]^2 via log scaling against the
        grid end points. Off-grid gains (calibration perturbations) are
        allowed."""
        g = np.atleast_2d(np.asarray(gains, dtype=float))
        lo = np.log([self.kp_values[0], self.ki_values[0]])
        hi = np.log([self.kp_values[-1], self.ki_values[-1]])
        return (np.log(g) - lo) / (hi - lo)

    @cached_property
    def unit_points(self) -> np.ndarray:
        return self.normalize(self.points)

    @cached_property
    def anchor_index(self) -> int:
        return self.index_of(PIGains(self.anchor_kp, self.anchor_ki))

    def gains_at(self, index: int) -> PIGains:
        kp, ki = self.points[index]
        return PIGains(float(kp), float(ki))

    def index_of(self, gains: PIGains) -> int:
        i_kp = int(np.searchsorted(self.kp_values, gains.kp))
        i_ki = int(np.searchsorted(self.ki_values, gains.ki))
        if (
            i_kp >= self.kp_values.size
            or i_ki >= self.ki_values.size
            or self.kp_values[i_kp] != gains.kp
            or self.ki_values[i_ki] != gains.ki
        ):
            raise ValueError(f"gains ({gains.kp}, {gains.ki}) are not on the grid")
        return i_kp * self.ki_values.size + i_ki

    def to_dict(self) -> dict:
        return {
            "kp_values": [float(v) for v in self.kp_values],
            "ki_values": [float(v) for v in self.ki_values],
            "anchor": [self.anchor_kp, self.anchor_ki],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "GainDomain":
        return cls(np.array(d["kp_values"]), np.array(d["ki_values"]), d["anchor"][0], d["anchor"][1])


@dataclass(frozen=True)
class ContextScaler:
    """Linear map from outside-air temperature to the unit interval,
    anchored to the calibration season's morning-reading range."""

    oat_min: float
    oat_max: float

    def __post_init__(self):
        if not self.oat_max > self.oat_min:
            raise ValueError("oat_max must exceed oat_min")

    def normalize(self, oat: float) -> float:
        return (oat - self.oat_min) / (self.oat_max - self.oat_min)

    def to_dict(self) -> dict:
        return {"oat_min": self.oat_min, "oat_max": self.oat_max}

    @classmethod
    def from_dict(cls, d: dict) -> "ContextScaler":
        return cls(d["oat_min"], d["oat_max"])


def contextual_kernel_template(lengthscale: float = 0.3, signal_variance: float = 1.0) -> KernelSpec:
    """Starting kernel for contextual surrogates (2 gain dims + context)."""
    return KernelSpec(PRODUCT, (lengthscale, lengthscale, lengthscale), signal_variance)


@dataclass(frozen=True)
class Observation:
    day: int
    context: float
    gain_index: int
    costs: tuple[float, float, float, float]  # normalized j1..j4


@dataclass(frozen=True, eq=False)
class OptimizerState:
    """Immutable bundle of surrogates plus the observation log.

    ``cost_models`` carry the constant-basis mean and regress the
    normalized costs directly. ``constraint_models`` are zero-mean GPs
    over the safety headroom (cost minus threshold): with no data their
    certificate is 0 + q*sigma_prior > 0, so unexplored gains stay out
    of the safe set and exploration can only creep outward from
    observed safe territory.

    Construction conditions every surrogate on ``observations``, whatever
    data the given models held, so ``replace`` on a state rebuilds its
    surrogates too. A log no season could have written is rejected (see
    ``_check_observations``).
    """

    method: str
    domain: GainDomain
    scaler: ContextScaler | None
    weights: tuple[float, float, float, float]
    thresholds: tuple[float, float, float]
    cost_models: tuple[GPModel, ...]
    constraint_models: tuple[GPModel, ...]
    beta: float = DEFAULT_BETA
    epsilon: float = DEFAULT_EPSILON
    observations: tuple[Observation, ...] = ()

    def __post_init__(self):
        if self.method not in GP_METHODS:
            raise ValueError(f"method must be one of {GP_METHODS}")
        if self.method == METHOD_BO:
            if self.scaler is not None:
                raise ValueError("bo holds its context fixed and takes no context scaler")
        elif self.scaler is None:
            raise ValueError(f"{self.method} requires a context scaler")
        if len(self.cost_models) != 4:
            raise ValueError("four cost surrogates required")
        n_constraints = 3 if self.method == METHOD_SCBO else 0
        if len(self.constraint_models) != n_constraints:
            raise ValueError(f"{self.method} requires {n_constraints} constraint surrogates")
        if any(m.basis_coefficient is not None for m in self.constraint_models):
            raise ValueError("constraint surrogates must be zero-mean")
        if self.beta < 0:
            raise ValueError("beta must be non-negative")
        if not 0.0 < self.epsilon < 0.5:
            raise ValueError("epsilon must lie in (0, 0.5)")
        if len(self.weights) != 4 or any(w <= 0 for w in self.weights):
            raise ValueError("four positive weights required")
        if len(self.thresholds) != 3 or any(c <= 0 for c in self.thresholds):
            raise ValueError("three positive thresholds required")
        _check_observations(self.domain, self.observations)
        object.__setattr__(self, "weights", tuple(float(w) for w in self.weights))
        object.__setattr__(self, "thresholds", tuple(float(c) for c in self.thresholds))
        rows = self.domain.unit_points[[o.gain_index for o in self.observations]]
        x = np.column_stack([rows, [_unit_context(self, o.context) for o in self.observations]])
        y = np.array([o.costs for o in self.observations]).reshape(-1, 4)
        headroom = y[:, :3] - self.thresholds
        costs = tuple(m.with_data(x, y[:, i]) for i, m in enumerate(self.cost_models))
        constraints = tuple(m.with_data(x, headroom[:, i]) for i, m in enumerate(self.constraint_models))
        object.__setattr__(self, "cost_models", costs)
        object.__setattr__(self, "constraint_models", constraints)

    @property
    def uses_safety(self) -> bool:
        return self.method == METHOD_SCBO

    @property
    def anchor_gains(self) -> PIGains:
        return self.domain.gains_at(self.domain.anchor_index)


def _check_observations(domain: GainDomain, observations) -> None:
    """Reject a log no season could have written: a gain off the grid, a
    non-finite context (``bo`` never reads it, but writes it back) or
    cost, or days that do not strictly increase (``state_at_day``
    truncates by day, so the days must order the log)."""
    size = domain.size
    previous = -math.inf
    for o in observations:
        if type(o.gain_index) is not int or not 0 <= o.gain_index < size:
            raise ValueError(f"{o} has a gain_index off the {size}-point grid")
        if not all(map(math.isfinite, (o.context, *o.costs))):
            raise ValueError(f"{o} has a non-finite context or cost")
        if not o.day > previous:
            raise ValueError(f"{o} does not come after day {previous}")
        previous = o.day


def _through_day(observations: tuple[Observation, ...], day: int) -> tuple[Observation, ...]:
    return tuple(o for o in observations if o.day <= day)


def _unit_context(state: OptimizerState, oat: float) -> float:
    """Context input of the surrogates: the scaled outside temperature,
    or 0.0 for ``bo``, which carries no scaler and so ignores the weather."""
    return 0.0 if state.scaler is None else state.scaler.normalize(oat)


def _grid_inputs(state: OptimizerState, oat: float) -> np.ndarray:
    pts = state.domain.unit_points
    return np.column_stack([pts, np.full(pts.shape[0], _unit_context(state, oat))])


def safe_set(
    state: OptimizerState,
    oat: float,
    epsilon: float | None = None,
    *,
    fallback: bool = True,
) -> np.ndarray:
    """Boolean grid mask of gains certified safe at this context.

    A point is safe when every constraint surrogate puts at least
    1 - epsilon probability on its cost staying at or below the
    threshold. The surrogates regress cost minus threshold, so the
    certificate reads headroom mean + q_{1-eps} * std <= 0. An empty
    set falls back to the anchor singleton unless ``fallback`` is off.
    """
    if not state.constraint_models:
        raise ValueError(f"{state.method} state carries no constraint surrogates")
    eps = state.epsilon if epsilon is None else epsilon
    if not 0.0 < eps < 0.5:
        raise ValueError("epsilon must lie in (0, 0.5)")
    q = ndtri(1.0 - eps)  # what scipy.stats.norm.ppf computes, without loading scipy.stats
    x = _grid_inputs(state, oat)
    # Each surrogate is queried only where the ones before it still
    # certify; posterior rows do not depend on the rest of the batch.
    certified = np.arange(state.domain.size)
    for model in state.constraint_models:
        mean, var = model.posterior_batch(x[certified])
        certified = certified[mean + q * np.sqrt(var) <= 0.0]
        if not certified.size:
            break
    mask = np.zeros(state.domain.size, dtype=bool)
    mask[certified] = True
    if fallback and not certified.size:
        mask[state.domain.anchor_index] = True
    return mask


def acquire(
    state: OptimizerState,
    oat: float,
    safe_mask: np.ndarray | None = None,
    beta: float | None = None,
) -> int:
    """Grid index minimizing combined-cost mean - beta * std over the
    mask (full grid when no mask). Ties resolve to lower kp, then ki.
    Only the candidate gains are scored."""
    if safe_mask is None:
        candidates = np.arange(state.domain.size)
    elif not safe_mask.any():
        return state.domain.anchor_index
    else:
        candidates = np.flatnonzero(safe_mask)
    x = _grid_inputs(state, oat)[candidates]
    mean, var = combine_gps_batch(state.cost_models, state.weights, x)
    b = state.beta if beta is None else beta
    score = mean - b * np.sqrt(var)
    return int(candidates[np.argmin(score)])


@dataclass(frozen=True)
class Proposal:
    gain_index: int
    gains: PIGains
    safe_set_size: int
    used_fallback: bool


def propose(state: OptimizerState, oat: float) -> Proposal:
    """One round of gain selection for the observed context.

    The first call (no observations yet) returns the anchor: the
    surrogates are initialized with the known-safe gains before the
    confidence-bound loop takes over.
    """
    full = state.domain.size
    if not state.observations:
        size = 1 if state.uses_safety else full
        return Proposal(state.domain.anchor_index, state.anchor_gains, size, False)
    if state.uses_safety:
        raw = safe_set(state, oat, fallback=False)
        fb = not bool(raw.any())
        if fb:
            return Proposal(state.domain.anchor_index, state.anchor_gains, 1, True)
        index = acquire(state, oat, raw)
        return Proposal(index, state.domain.gains_at(index), int(raw.sum()), False)
    index = acquire(state, oat)
    return Proposal(index, state.domain.gains_at(index), full, False)


def update(
    state: OptimizerState,
    gains: PIGains,
    oat: float,
    costs: NormalizedCosts,
    day: int | None = None,
) -> OptimizerState:
    """Condition all surrogates on one evaluated day; returns new state."""
    values = (costs.j1, costs.j2, costs.j3, costs.j4)
    if not all(math.isfinite(v) for v in values):
        raise ValueError("non-finite costs rejected")
    index = state.domain.index_of(gains)
    if day is None:
        day = len(state.observations) + 1
    obs = Observation(int(day), float(oat), index, tuple(float(v) for v in values))
    return replace(state, observations=state.observations + (obs,))


def gain_schedule(state: OptimizerState, oats) -> list[tuple[float, PIGains]]:
    """Pure-exploitation gain lookup per context: posterior-mean argmin
    restricted to the safe set when the state carries constraints."""
    table = []
    for oat in np.asarray(oats, dtype=float):
        mask = safe_set(state, oat) if state.uses_safety else None
        index = acquire(state, float(oat), mask, beta=0.0)
        table.append((float(oat), state.domain.gains_at(index)))
    return table


# ---------------------------------------------------------------------------
# Checkpointing
# ---------------------------------------------------------------------------


def state_to_json(state: OptimizerState) -> str:
    doc = {
        "method": state.method,
        "beta": state.beta,
        "epsilon": state.epsilon,
        "weights": list(state.weights),
        "thresholds": list(state.thresholds),
        "domain": state.domain.to_dict(),
        "context": None if state.scaler is None else state.scaler.to_dict(),
        "cost_models": [model_to_dict(m) for m in state.cost_models],
        "constraint_models": [model_to_dict(m) for m in state.constraint_models],
        "observations": [
            {"day": o.day, "context": o.context, "gain_index": o.gain_index, "costs": list(o.costs)}
            for o in state.observations
        ],
    }
    return json.dumps(doc, indent=2, sort_keys=True)


def state_from_json(text: str, day: int | None = None) -> OptimizerState:
    """Restore a saved state. With ``day``, build it as of the end of that
    day, as ``state_at_day`` would, but condition the surrogates once: the
    whole saved log is checked, and only its kept days are built on."""
    doc = json.loads(text)
    domain = GainDomain.from_dict(doc["domain"])
    observations = tuple(
        Observation(o["day"], o["context"], o["gain_index"], tuple(o["costs"])) for o in doc["observations"]
    )
    if day is not None:
        _check_observations(domain, observations)
        observations = _through_day(observations, day)
    return OptimizerState(
        method=doc["method"],
        domain=domain,
        scaler=None if doc["context"] is None else ContextScaler.from_dict(doc["context"]),
        weights=tuple(doc["weights"]),
        thresholds=tuple(doc["thresholds"]),
        cost_models=tuple(model_from_dict(d) for d in doc["cost_models"]),
        constraint_models=tuple(model_from_dict(d) for d in doc["constraint_models"]),
        beta=doc["beta"],
        epsilon=doc["epsilon"],
        observations=observations,
    )


def state_at_day(state: OptimizerState, day: int) -> OptimizerState:
    """State as of the end of the given day (0 = before any data)."""
    return replace(state, observations=_through_day(state.observations, day))


# ---------------------------------------------------------------------------
# Model-based baseline: in-day system identification + tuning rule
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FOPDTModel:
    """First-order-plus-dead-time fit: T[k+1] = a T[k] + b u[k-L] + c."""

    gain: float  # steady-state degC per unit valve, b / (1 - a)
    time_constant: float  # steps, -1 / ln(a)
    delay: int  # steps
    residual: float  # mean squared one-step prediction error


def fit_fopdt(t_room, valve, max_delay: int = 12) -> FOPDTModel | None:
    """Least-squares fit over delay candidates 0..max_delay.

    All candidates are scored on the common window k in [max_delay, n-2]
    so their residuals are comparable. Candidates with an unstable or
    non-heating fit (a outside (0,1), b <= 0) are discarded; returns
    None when nothing valid remains or the regression is degenerate.
    Non-finite samples raise ``ValueError`` before any fit is tried.
    """
    t = np.asarray(t_room, dtype=float)
    u = np.asarray(valve, dtype=float)
    for name, samples in (("t_room", t), ("valve", u)):
        if not np.all(np.isfinite(samples)):
            raise ValueError(f"{name} holds non-finite samples")
    n = t.size
    rows = n - 1 - max_delay
    if rows < 8:
        return None
    # The design [t[k], u[k - delay], 1] over k in [max_delay, n-2] is
    # built once; each delay only rewrites its u column. dgelsd is the
    # LAPACK routine behind np.linalg.lstsq, called here without its
    # per-call wrapper work and with its default rcond.
    target = t[max_delay + 1 :]
    design = np.empty((rows, 3))
    design[:, 0] = t[max_delay:-1]
    design[:, 2] = 1.0
    work, iwork, _ = dgelsd_lwork(rows, 3, 1)
    lwork, liwork = int(work), int(iwork)
    rcond = np.finfo(float).eps * rows
    best = None
    for delay in range(max_delay + 1):
        design[:, 1] = u[max_delay - delay : n - 1 - delay]
        solution, _, rank, info = dgelsd(design, target, lwork, liwork, rcond)
        if info != 0:
            raise np.linalg.LinAlgError(f"gelsd failed with info={info}")
        if rank < 3:
            continue
        coef = solution[:3]
        a, b, _ = coef
        if not (0.0 < a < 1.0 and b > 0.0):
            continue
        r = design @ coef - target
        mse = float(np.add.reduce(r * r)) / rows  # np.mean(r ** 2), bit for bit
        if best is None or mse < best.residual:
            best = FOPDTModel(
                gain=float(b / (1.0 - a)),
                time_constant=float(-1.0 / math.log(a)),
                delay=delay,
                residual=mse,
            )
    return best


def zn_pi_gains(model: FOPDTModel) -> PIGains:
    """Open-loop Ziegler-Nichols PI rule on a FOPDT fit, delay clamped
    to one step: kp = 0.9 tau / (K L), Ti = L / 0.3 steps."""
    lag = max(model.delay, 1)
    kp = 0.9 * model.time_constant / (model.gain * lag)
    ti = lag / 0.3
    return PIGains(kp, kp / ti)


class AdaptiveZnTuner:
    """In-day gain adapter: waits for two hours of samples, then refits
    the FOPDT model hourly on the day so far and retunes. Invalid fits
    keep the previous gains. One instance serves one day."""

    def __init__(self, step_seconds: int = 300, max_delay: int = 12):
        self.warmup_samples = int(round(7200 / step_seconds))
        self.refit_samples = int(round(3600 / step_seconds))
        self.max_delay = max_delay
        self._next_refit = self.warmup_samples
        self.gains: PIGains | None = None

    def __call__(self, k: int, t_room: np.ndarray, valve: np.ndarray, gains: PIGains) -> PIGains:
        if self.gains is None:
            self.gains = gains
        if k >= self._next_refit:
            self._next_refit = k + self.refit_samples
            model = fit_fopdt(t_room, valve, self.max_delay)
            if model is not None:
                self.gains = zn_pi_gains(model)
        return self.gains
