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
A state binds its surrogates to its own log at construction, so
``update``, checkpoint restore and day truncation only build a state.
The log is indexed once (its distinct gains and context differences)
and every surrogate of the state is built on that one index; each
surrogate factors its Gram matrix at its first query, so a state pays
only for the surrogates that are queried.
Only the gains that can still be chosen are queried: ``scbo`` checks each
constraint surrogate on the gains the previous ones certified, and scores
the acquisition on its safe candidates alone. A ``QueryWorkspace``
carries each surrogate's grid-to-node gain block from one query to the
next while the nodes stay the same: a season keeps one for all its days
and ``gain_schedule`` one for all its temperatures. The workspace is
never part of a state, and every choice is the same without it.

First-order-plus-dead-time identification by least squares and the
open-loop Ziegler-Nichols PI rule live here too. No season uses them;
they are the model-based tuning step that criterion 10 checks.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np
from scipy.special import ndtri

from .costs import NormalizedCosts
from .gp import GPModel, InputIndex, KernelSpec, PRODUCT, model_from_dict, model_to_dict
from .pid import PIGains

METHOD_FIXED = "fixed"
METHOD_BO = "bo"
METHOD_CBO = "cbo"
METHOD_SCBO = "scbo"
GP_METHODS = (METHOD_BO, METHOD_CBO, METHOD_SCBO)
ALL_METHODS = (METHOD_FIXED,) + GP_METHODS

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
            if values.size < 2 or not np.all((0 < values) & (values < math.inf)):
                raise ValueError("gain grids need >= 2 positive finite values")
            if not np.all(np.diff(values) > 0):
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
        if not -math.inf < self.oat_min < self.oat_max < math.inf:
            raise ValueError("oat_min and oat_max must be finite, and oat_max must exceed oat_min")

    def normalize(self, oat: float) -> float:
        return (oat - self.oat_min) / (self.oat_max - self.oat_min)

    def to_dict(self) -> dict:
        return {"oat_min": self.oat_min, "oat_max": self.oat_max}

    @classmethod
    def from_dict(cls, d: dict) -> "ContextScaler":
        return cls(d["oat_min"], d["oat_max"])


def contextual_kernel_template() -> KernelSpec:
    """Starting kernel for contextual surrogates (2 gain dims + context)."""
    return KernelSpec(PRODUCT, (0.3, 0.3, 0.3), 1.0)


@dataclass(frozen=True)
class Observation:
    day: int
    context: float
    gain_index: int
    costs: tuple[float, float, float, float]  # normalized j1..j4


def surrogate_data(unit_gains, contexts, costs, thresholds) -> tuple[np.ndarray, np.ndarray]:
    """Inputs (unit gains, unit context) and targets of the seven
    surrogates, for fitting and conditioning alike: the four normalized
    costs, then the three headrooms cost minus threshold."""
    y = np.asarray(costs, dtype=float).reshape(-1, 4)
    return np.column_stack([unit_gains, contexts]), np.column_stack([y, y[:, :3] - thresholds])


@dataclass(frozen=True, eq=False)
class OptimizerState:
    """Immutable bundle of surrogates plus the observation log.

    ``cost_models`` carry the constant-basis mean and regress the
    normalized costs directly. ``constraint_models`` are zero-mean GPs
    over the safety headroom (cost minus threshold): with no data their
    certificate is 0 + q*sigma_prior > 0, so unexplored gains stay out
    of the safe set and exploration can only creep outward from
    observed safe territory.

    Construction binds every surrogate to ``observations`` through
    ``surrogate_data``, whatever data the given models held, so ``replace``
    on a state rebuilds its surrogates too; a surrogate factors at its
    first query, not here. A log no season could have written is
    rejected (see ``_check_observations``).
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
        check_confidence(self.beta, self.epsilon)
        if len(self.weights) != 4 or not all(0 < w < math.inf for w in self.weights):
            raise ValueError("four positive finite weights required")
        if len(self.thresholds) != 3 or not all(0 < c < math.inf for c in self.thresholds):
            raise ValueError("three positive finite thresholds required")
        _check_observations(self.domain, self.observations)
        object.__setattr__(self, "weights", tuple(float(w) for w in self.weights))
        object.__setattr__(self, "thresholds", tuple(float(c) for c in self.thresholds))
        x, y = surrogate_data(
            self.domain.unit_points[[o.gain_index for o in self.observations]],
            [_unit_context(self, o.context) for o in self.observations],
            [o.costs for o in self.observations],
            self.thresholds,
        )
        index = InputIndex(x)  # one node index and one set of context differences for the whole log
        models = [
            m.with_data(x, y[:, i], index=index) for i, m in enumerate(self.cost_models + self.constraint_models)
        ]
        object.__setattr__(self, "cost_models", tuple(models[:4]))
        object.__setattr__(self, "constraint_models", tuple(models[4:]))

    @property
    def anchor_gains(self) -> PIGains:
        return self.domain.gains_at(self.domain.anchor_index)


def check_confidence(beta: float, epsilon: float) -> None:
    """The rules on the confidence settings: beta (the acquisition's
    exploration weight) a finite number >= 0, and epsilon (the safe
    set's allowed violation probability) in (0, 0.5)."""
    if not (math.isfinite(beta) and beta >= 0):
        raise ValueError(f"beta must be finite and non-negative, got {beta!r}")
    if not 0.0 < epsilon < 0.5:
        raise ValueError(f"epsilon must lie in (0, 0.5), got {epsilon!r}")


def _check_observations(domain: GainDomain, observations) -> None:
    """Reject a log no season could have written: a gain off the grid, a
    non-finite context (``bo`` never reads it, but writes it back) or
    cost, or days that are not integers or do not strictly increase
    (``state_at_day`` truncates by day, so the days must order the log)."""
    size = domain.size
    previous = -math.inf
    for o in observations:
        if type(o.gain_index) is not int or not 0 <= o.gain_index < size:
            raise ValueError(f"{o} has a gain_index off the {size}-point grid")
        if not all(map(math.isfinite, (o.context, *o.costs))):
            raise ValueError(f"{o} has a non-finite context or cost")
        if type(o.day) is not int or not previous < o.day:
            raise ValueError(f"{o} does not come after day {previous}, or its day is not an integer")
        previous = o.day


def _unit_context(state: OptimizerState, oat: float) -> float:
    """Context input of the surrogates: the scaled outside temperature,
    or 0.0 for ``bo``, which carries no scaler and so ignores the weather."""
    return 0.0 if state.scaler is None else state.scaler.normalize(oat)


def _grid_inputs(state: OptimizerState, oat: float) -> np.ndarray:
    """Every grid gain at one outside temperature, which must be finite
    (for ``bo`` too): a NaN would certify nothing and score all gains NaN."""
    if not math.isfinite(oat):
        raise ValueError(f"outside temperature {oat} is not finite")
    pts = state.domain.unit_points
    return np.column_stack([pts, np.full(pts.shape[0], _unit_context(state, oat))])


class QueryWorkspace:
    """Full-grid gain blocks reused by the queries of successive states.

    A surrogate's block ``gain_covariance(grid)`` depends only on its
    kernel, its nodes and the grid, and a season's nodes change on few
    days. The workspace keeps one block per kernel and rebuilds it when
    the model's nodes or the grid differ from the ones it was built for;
    queries then take the candidates' rows of it. One workspace serves
    one season or one ``gain_schedule`` call and never enters a state.
    """

    def __init__(self):
        self._blocks: dict[KernelSpec, tuple[np.ndarray, bytes, np.ndarray]] = {}

    def gain_covariance(self, state: OptimizerState, model: GPModel) -> np.ndarray:
        """``model.gain_covariance`` over every grid gain of ``state``."""
        grid = state.domain.unit_points
        nodes = model.index.nodes.tobytes()
        cached = self._blocks.get(model.kernel)
        if cached is None or cached[0] is not grid or cached[1] != nodes:
            cached = self._blocks[model.kernel] = (grid, nodes, model.gain_covariance(grid))
        return cached[2]


def _posterior(state, model, x, rows, workspace):
    """``model``'s posterior at ``x``, the grid inputs at the ascending
    grid indices ``rows``, with the gain block taken from ``workspace``
    when there is one."""
    gain_cov = None
    if workspace is not None:
        block = workspace.gain_covariance(state, model)
        gain_cov = block if len(rows) == len(block) else block[rows]  # ascending: all rows are the whole grid
    return model.posterior_batch(x, gain_cov)


def safe_set(
    state: OptimizerState,
    oat: float,
    epsilon: float | None = None,
    *,
    fallback: bool = True,
    workspace: QueryWorkspace | None = None,
) -> np.ndarray:
    """Boolean grid mask of gains certified safe at this context.

    A point is safe when every constraint surrogate puts at least
    1 - epsilon probability on its cost staying at or below the
    threshold. The surrogates regress cost minus threshold, so the
    certificate reads headroom mean + q_{1-eps} * std <= 0. An empty
    set falls back to the anchor singleton unless ``fallback`` is off.
    ``workspace`` supplies the surrogates' gain blocks; the mask is the
    same without one.
    """
    if not state.constraint_models:
        raise ValueError(f"{state.method} state carries no constraint surrogates")
    eps = state.epsilon if epsilon is None else epsilon
    check_confidence(state.beta, eps)
    q = ndtri(1.0 - eps)  # what scipy.stats.norm.ppf computes, without loading scipy.stats
    x = _grid_inputs(state, oat)
    # Each surrogate is queried only where the ones before it still
    # certify; posterior rows do not depend on the rest of the batch.
    certified = np.arange(state.domain.size)
    for model in state.constraint_models:
        mean, var = _posterior(state, model, x[certified], certified, workspace)
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
    workspace: QueryWorkspace | None = None,
) -> int:
    """Grid index minimizing combined-cost mean - beta * std over the
    mask (full grid when no mask). Ties resolve to lower kp, then ki.
    Only the candidate gains are scored, so the mask must hold one. The
    cost surrogates are independent: the weighted sum has mean sum w_i m_i
    and variance sum w_i^2 v_i. ``workspace`` is as for ``safe_set``."""
    candidates = np.arange(state.domain.size) if safe_mask is None else np.flatnonzero(safe_mask)
    x = _grid_inputs(state, oat)[candidates]
    mean = var = 0.0
    for w, model in zip(np.asarray(state.weights, dtype=float), state.cost_models):
        m, v = _posterior(state, model, x, candidates, workspace)
        mean = mean + w * m
        var = var + w**2 * v
    b = state.beta if beta is None else beta
    score = mean - b * np.sqrt(var)
    return int(candidates[np.argmin(score)])


@dataclass(frozen=True)
class Proposal:
    gain_index: int
    gains: PIGains
    safe_set_size: int
    used_fallback: bool


def _select(state: OptimizerState, oat: float, beta: float, workspace: QueryWorkspace | None) -> Proposal:
    """The selection rule: the best-scoring gains among those the
    constraint surrogates certify (every gain when the state has none),
    or the anchor with ``used_fallback`` when nothing is certified."""
    mask = None
    if state.constraint_models:
        mask = safe_set(state, oat, fallback=False, workspace=workspace)
        if not mask.any():
            return Proposal(state.domain.anchor_index, state.anchor_gains, 1, True)
    index = acquire(state, oat, mask, beta, workspace)
    size = state.domain.size if mask is None else int(mask.sum())
    return Proposal(index, state.domain.gains_at(index), size, False)


def propose(state: OptimizerState, oat: float, workspace: QueryWorkspace | None = None) -> Proposal:
    """One round of gain selection for the observed context.

    The first call (no observations yet) returns the anchor: the
    surrogates are initialized with the known-safe gains before the
    confidence-bound loop takes over. A season passes one ``workspace``
    to all its days, so the gain blocks are rebuilt only on the days
    the nodes change; the choice is the same without one.
    """
    if not state.observations:
        size = 1 if state.constraint_models else state.domain.size
        return Proposal(state.domain.anchor_index, state.anchor_gains, size, False)
    return _select(state, oat, state.beta, workspace)


def update(
    state: OptimizerState,
    gains: PIGains,
    oat: float,
    costs: NormalizedCosts,
    day: int | None = None,
) -> OptimizerState:
    """Condition all surrogates on one evaluated day; returns new state.
    The new state's log check rejects non-finite costs."""
    values = (costs.j1, costs.j2, costs.j3, costs.j4)
    index = state.domain.index_of(gains)
    if day is None:
        day = len(state.observations) + 1
    obs = Observation(int(day), float(oat), index, tuple(float(v) for v in values))
    return replace(state, observations=state.observations + (obs,))


def gain_schedule(state: OptimizerState, oats) -> list[tuple[float, PIGains]]:
    """Pure-exploitation gain lookup per context: the selection rule of
    ``propose`` at beta = 0, so the posterior-mean argmin over the safe
    set, or the anchor when nothing is certified. All the temperatures
    share one workspace, so each surrogate's gain block is built once."""
    workspace = QueryWorkspace()
    return [(oat, _select(state, oat, 0.0, workspace).gains) for oat in np.asarray(oats, dtype=float).tolist()]


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


def state_from_json(text: str) -> OptimizerState:
    """Restore a saved state."""
    doc = json.loads(text)
    return OptimizerState(
        method=doc["method"],
        domain=GainDomain.from_dict(doc["domain"]),
        scaler=None if doc["context"] is None else ContextScaler.from_dict(doc["context"]),
        weights=tuple(doc["weights"]),
        thresholds=tuple(doc["thresholds"]),
        cost_models=tuple(model_from_dict(d) for d in doc["cost_models"]),
        constraint_models=tuple(model_from_dict(d) for d in doc["constraint_models"]),
        beta=doc["beta"],
        epsilon=doc["epsilon"],
        observations=tuple(
            Observation(o["day"], o["context"], o["gain_index"], tuple(o["costs"])) for o in doc["observations"]
        ),
    )


def state_at_day(state: OptimizerState, day: int) -> OptimizerState:
    """State as of the end of the given day (0 = before any data)."""
    return replace(state, observations=tuple(o for o in state.observations if o.day <= day))


# ---------------------------------------------------------------------------
# System identification + tuning rule
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
    ks = np.arange(max_delay, n - 1)
    target = t[ks + 1]
    best = None
    for delay in range(max_delay + 1):
        design = np.column_stack([t[ks], u[ks - delay], np.ones(rows)])
        coef, _, rank, _ = np.linalg.lstsq(design, target, rcond=None)
        if rank < 3:
            continue
        a, b, _ = coef
        if not (0.0 < a < 1.0 and b > 0.0):
            continue
        mse = float(np.mean((design @ coef - target) ** 2))
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
