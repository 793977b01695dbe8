"""Exact Gaussian process regression on small datasets.

One product kernel (Matern 5/2 over the two controller-gain inputs times
a squared exponential over the context input), optional constant
explicit-basis mean, Cholesky-backed posteriors, and offline
maximum-likelihood hyperparameter fitting with analytic gradients.

Models are values: ``add_observation`` returns a new model, and a query
changes nothing a caller can see. Observation counts stay small (one per
heating day), so a model is rebuilt on every update instead of rank-1
patched.

The kernel is k((g, z), (g', z')) = s2 * m(g, g') * c(z, z'): a Matern
5/2 factor m over the gain dims and a squared-exponential factor c over
the context dim. At one fixed context c is 1, so a model whose inputs all
share one context is a gain-only Matern 5/2 GP.
The tuner only ever observes gains on a grid, so the n observations sit
on few (u) distinct gain rows, the nodes. A model is built through them:
the Matern factor of the Gram matrix is evaluated on the u x u node pairs
and gathered to n x n, bit-identical to the dense kernel matrix. What
the build needs of the inputs alone (the nodes, each input's node and
the unscaled context differences) is an :class:`InputIndex`, which the
models conditioned on one input set can share. Building a model only
checks and binds its data; the model factors the Gram matrix and solves
alpha = K^-1 (y - mu0) at its first query, once, and keeps both, so a
model that is never queried never pays for them. Later queries reuse
them: the tuner queries grid gains at one context, so the query
cross-covariance has rank at most u, and the variance of m queries costs
m·u² + n²·u operations instead of the n²·m of a dense solve; see
:meth:`GPModel.posterior_batch`.
The m·u gain block s2·m(gains, nodes) of that cross-covariance has one
formula, :meth:`GPModel.gain_covariance`. It depends on neither the
targets nor the context, so a caller whose nodes stay the same from one
query to the next may compute it once and pass the queried rows.

:meth:`GPModel.with_data` is the one routine that conditions a GP, the
fit's basis coefficient included, and one helper factors every Gram
matrix, of a model or of a likelihood call, by LAPACK ``potrf`` in place.

A hyperparameter fit runs L-BFGS-B from ``N_STARTS`` starts, which do
not depend on one another, and stops each where the likelihood is
stationary: at a relative decrease of at most ``FTOL`` = 1e-11 or a
projected gradient of at most ``GTOL`` = 1e-6, and a start that stalls
with a gradient above criterion 2's bound runs again (see
:func:`_run_starts`). On the calibrations of seeds 0-4 that takes 25 %
fewer likelihood evaluations than the former 1e-14 / 1e-10, moves no
hyperparameter by more than 2.6e-6 relative, and leaves every results
CSV byte-identical. :func:`fit_starts` checks a fit's data and
draws its seeded starts before any of them runs. Passed a
:class:`StartPool`, a fit splits its starts statically between the
caller and the P - 1 worker processes of a
``concurrent.futures.ProcessPoolExecutor``, P = min(CPUs this process
may run on, starts). A caller with several fits to make on one pool
queues all of their starts first, and they are split as one batch:
start g of the batch, counted in fit order, goes to process g mod P,
and the caller is process P - 1. A fit that was not queued is a batch of
one. Each process runs its share of a fit on one likelihood workspace
and one BLAS thread and returns only the final value, theta,
likelihood evaluations and convergence flag of each start; the caller
puts them back in start order and keeps the first best, so a fit, its
evaluation count included, is bit-identical at any P, queued or not,
and without a pool. The pool forks only (spawn or forkserver would
import numpy and scipy again in every worker), and the executor forks
every worker before it starts its own threads. The pool has no setting:
the CPU count alone decides P, and at one CPU, or on a host that cannot
fork, it starts no process.
"""

from __future__ import annotations

import ctypes
import math
import multiprocessing
import os
import signal
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from functools import cached_property, partial
from typing import NamedTuple

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotri, dpotrs, dtrtrs

from .blas import single_blas_thread

# The one kernel family; kept as a format tag in serialized kernels.
PRODUCT = "product"

# Relative diagonal jitter: duplicate daily contexts make the Gram matrix
# near-singular, so every factorization gets signal_variance * JITTER added.
JITTER = 1e-9

_SQRT5 = math.sqrt(5.0)


@dataclass(frozen=True)
class KernelSpec:
    """Stationary kernel description.

    ``product`` combines a Matern 5/2 factor over the first two (gain)
    dimensions with a squared-exponential factor over the third (context)
    dimension; the single ``signal_variance`` scales the product.
    """

    family: str
    lengthscales: tuple[float, ...]
    signal_variance: float

    def __post_init__(self):
        if self.family != PRODUCT:
            raise ValueError(f"unknown kernel family {self.family!r}")
        object.__setattr__(self, "lengthscales", tuple(float(l) for l in self.lengthscales))
        if len(self.lengthscales) != 3:
            raise ValueError("product kernel takes 2 gain dims + 1 context dim")
        if not all(0 < l < math.inf for l in self.lengthscales):
            raise ValueError("lengthscales must be positive and finite")
        if not 0 < self.signal_variance < math.inf:
            raise ValueError("signal_variance must be positive and finite")

    @property
    def input_dim(self) -> int:
        return len(self.lengthscales)

    def to_dict(self) -> dict:
        return {
            "family": self.family,
            "lengthscales": list(self.lengthscales),
            "signal_variance": self.signal_variance,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "KernelSpec":
        return cls(d["family"], tuple(d["lengthscales"]), d["signal_variance"])


def _as_points(x, dim: int) -> np.ndarray:
    pts = np.atleast_2d(np.asarray(x, dtype=float))
    if pts.shape[1] != dim:
        raise ValueError(f"expected {dim}-dim points, got shape {pts.shape}")
    return pts


def _matern_profile(r: np.ndarray) -> np.ndarray:
    """Matern 5/2 correlation at scaled distance r."""
    return (1.0 + _SQRT5 * r + 5.0 / 3.0 * r**2) * np.exp(-_SQRT5 * r)


def _scaled_sq_dists(lengthscales, x: np.ndarray, x2: np.ndarray) -> np.ndarray:
    """Per-dimension squared scaled distances, shape (d, n, m).

    Filled one dimension at a time so each (n, m) slice is contiguous;
    the sums and products over slices that every caller does next run
    several times faster than over a strided (n, m, d) view.
    """
    out = np.empty((len(lengthscales), x.shape[0], x2.shape[0]))
    for i, ell in enumerate(lengthscales):
        out[i] = ((x[:, i, None] - x2[None, :, i]) / ell) ** 2
    return out


def _unit_kernel(sq: np.ndarray) -> np.ndarray:
    """Unit-variance kernel value from per-dimension squared distances."""
    return _matern_profile(np.sqrt(sq[0] + sq[1])) * np.exp(-0.5 * sq[2])


def _distinct_rows(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct rows of a 2-D array and the index of each row among them,
    in the lexicographic order and with the index of
    ``np.unique(a, axis=0, return_inverse=True)``, at about a third of its cost."""
    if np.all(a == a[:1]):  # one shared context: skips the row sort
        return a[:1], np.zeros(a.shape[0], dtype=np.intp)
    order = np.lexsort(a.T[::-1])  # lexsort's last key is the primary one
    ordered = a[order]
    starts = np.empty(a.shape[0], dtype=bool)
    starts[:1] = True
    np.any(ordered[1:] != ordered[:-1], axis=1, out=starts[1:])
    index = np.empty(a.shape[0], dtype=np.intp)
    index[order] = np.cumsum(starts) - 1
    return ordered[starts], index


def _quadratic_rows(g: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Row-wise quadratic forms g_i M g_i^T.

    numpy sends a one-row product to gemv, which rounds differently from
    gemm, so a single row is multiplied as two copies of itself. A row
    then gets the same bits in a batch of any size, which lets the tuner
    query only the gains it can still choose.
    """
    rows = g.shape[0]
    gm = (g if rows > 1 else np.repeat(g, 2, axis=0)) @ m
    return np.sum(gm[:rows] * g, axis=1)


def _factor_in_place(gram: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of a symmetric matrix, by LAPACK ``potrf`` over
    the matrix's memory; ``LinAlgError`` if it is not positive definite."""
    # The transpose of a symmetric matrix is the same matrix in Fortran
    # order, so potrf factors it in place, as scipy's cholesky does on its
    # Fortran copy; clean zeroes the triangle above the factor.
    factor, info = dpotrf(gram.T, lower=1, clean=1, overwrite_a=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"potrf failed with info={info}: Gram matrix not positive definite")
    return factor


def _solve_factored(factor: np.ndarray, b: np.ndarray) -> np.ndarray:
    """K^-1 b from the lower Cholesky factor of K (``cho_solve`` without
    its wrapper checks; the callers check finiteness themselves)."""
    solution, info = dpotrs(factor, b, lower=1)
    if info != 0:
        raise ValueError(f"potrs reported an illegal argument, info={info}")
    return solution


def kernel_matrix(spec: KernelSpec, x, x2=None) -> np.ndarray:
    """Cross-covariance matrix k(x_m, x2_n)."""
    xa = _as_points(x, spec.input_dim)
    xb = xa if x2 is None else _as_points(x2, spec.input_dim)
    return spec.signal_variance * _unit_kernel(_scaled_sq_dists(spec.lengthscales, xa, xb))


def _observed_points(inputs, dim: int) -> np.ndarray:
    """Training inputs as an (n, dim) array; an empty list reads as no rows."""
    return _as_points(inputs, dim) if len(inputs) else np.empty((0, dim))


class InputIndex:
    """The part of a model build that depends on the inputs alone.

    Holds the finite (n, 3) ``inputs``, their u distinct gain rows
    (``nodes``, in the lexicographic order of ``_distinct_rows``), the
    index of each input's gain row among them (``node_of``) and the
    unscaled context differences x_i - x_j (n, n). The models conditioned
    on one observation log differ only in their hyperparameters and
    targets, so they can share one index; each model scales it by its
    own lengthscales when it factors its Gram matrix.
    """

    def __init__(self, inputs):
        x = _observed_points(inputs, 3)  # two gain dims and one context dim, as KernelSpec requires
        if x.size and not np.all(np.isfinite(x)):
            raise ValueError("non-finite input values rejected")
        self.inputs = x
        self.nodes, self.node_of = _distinct_rows(x[:, :2])
        self.context_diffs = np.subtract(x[:, 2, None], x[None, :, 2])


@dataclass(frozen=True)
class GPModel:
    """One cost or constraint surrogate.

    ``basis_coefficient`` is the constant explicit-basis mean; ``None``
    means a plain zero-mean GP. ``index`` is the :class:`InputIndex` of
    the training inputs and ``targets`` their values; both are bound by
    :meth:`with_data`. ``gram_factor``, the lower Cholesky factor of
    K + (noise_variance + jitter) I over the inputs, and ``alpha`` =
    (K + (noise_variance + jitter) I)^-1 (targets - mean) are computed
    when first read, which the first :meth:`posterior_batch` on data does.
    """

    kernel: KernelSpec
    noise_variance: float
    basis_coefficient: float | None = None
    index: InputIndex | None = None
    targets: np.ndarray | None = None

    @classmethod
    def empty(
        cls,
        kernel: KernelSpec,
        noise_variance: float,
        basis_coefficient: float | None = None,
    ) -> "GPModel":
        if not 0 < noise_variance < math.inf:
            raise ValueError("noise_variance must be positive and finite")
        if basis_coefficient is not None and not math.isfinite(basis_coefficient):
            raise ValueError("basis_coefficient must be finite")
        return cls(kernel, noise_variance, basis_coefficient).with_data([], [])

    @property
    def num_observations(self) -> int:
        return self.targets.shape[0]

    def _prior_mean(self) -> float:
        return 0.0 if self.basis_coefficient is None else float(self.basis_coefficient)

    def with_data(self, inputs, targets, *, index: InputIndex | None = None) -> "GPModel":
        """A model on the full observation set.

        Checks the data and binds it; nothing is factored until the model
        is queried. ``index``, when given, must have been built on these
        inputs; the models of one log pass one index, and ``None`` builds
        a fresh one. Non-finite inputs or targets raise ``ValueError``.
        """
        if index is None:
            index = InputIndex(inputs)
        elif inputs is not index.inputs and not np.array_equal(
            _observed_points(inputs, self.kernel.input_dim), index.inputs
        ):
            raise ValueError("index was built on other inputs")
        y = np.asarray(targets, dtype=float).ravel()
        if index.inputs.shape[0] != y.shape[0]:
            raise ValueError("inputs and targets length mismatch")
        if y.size and not np.all(np.isfinite(y)):
            raise ValueError("non-finite target values rejected")
        return replace(self, index=index, targets=y)

    @cached_property
    def gram_factor(self) -> np.ndarray:
        """The Gram matrix built through the nodes (the u x u Matern block
        gathered to n x n, times the context factor and s2 in the order of
        :func:`kernel_matrix`, so bit for bit that matrix), factored by
        LAPACK ``potrf``; ``LinAlgError`` if it is not positive definite."""
        index = self.index
        ell = self.kernel.lengthscales
        s2 = self.kernel.signal_variance
        node_sq = _scaled_sq_dists(ell[:2], index.nodes, index.nodes)
        node_corr = _matern_profile(np.sqrt(node_sq[0] + node_sq[1]))  # (u, u)
        ctx_sq = (index.context_diffs / ell[2]) ** 2  # as _scaled_sq_dists rounds it
        gram = node_corr[index.node_of][:, index.node_of] * np.exp(-0.5 * ctx_sq)
        gram *= s2
        gram[np.diag_indices_from(gram)] += self.noise_variance + JITTER * s2
        return _factor_in_place(gram)

    @cached_property
    def alpha(self) -> np.ndarray:
        """K^-1 (targets - mean), solved once by LAPACK ``potrs``."""
        return _solve_factored(self.gram_factor, self.targets - self._prior_mean())

    def add_observation(self, x, y: float) -> "GPModel":
        """Condition on one more (input, target) pair; returns a new model."""
        pt = _as_points([np.ravel(x)], self.kernel.input_dim)
        new_x = np.vstack([self.index.inputs, pt])
        new_y = np.append(self.targets, float(y))
        return self.with_data(new_x, new_y)

    def gain_covariance(self, gains) -> np.ndarray:
        """The (m, u) block s2 * m(gains, nodes): the Matern gain factor
        of the covariance between gain rows and this model's nodes,
        times the signal variance. Each entry depends only on its gain
        row and node, so the rows of a block computed for a whole grid
        equal, bit for bit, a block computed for some of its rows."""
        sq = _scaled_sq_dists(self.kernel.lengthscales[:2], _as_points(gains, 2), self.index.nodes)
        return self.kernel.signal_variance * _matern_profile(np.sqrt(sq[0] + sq[1]))

    def posterior_batch(self, x, gain_cov=None) -> tuple[np.ndarray, np.ndarray]:
        """Posterior means and variances at a batch of query points.

        Exact, factored through the u distinct observed gain rows U
        (``index.nodes``; p(j) = ``index.node_of[j]`` is the U-row of
        observation j). For queries sharing one context z, the
        cross-covariance is k*[i, j] = G[i, p(j)] * s_j with
        G = s2 * m(g_query, U) of shape (m, u) and s_j = c(z, z_j). So
        k*^T = D G^T, where D (n, u) holds s_j at [j, p(j)], and

            mean = mu0 + G a,  a = bincount(p, s * alpha)
            var  = s2 - rowsum((G M) o G),  M = W^T W,  W = L^-1 D

        with L the Gram factor and alpha = K^-1 (y - mu0), both computed
        at the first query on data. These are the dense-solve formulas
        regrouped, not an approximation. A query costs m u kernel
        entries, an n^2 u triangular solve (LAPACK ``trtrs``), an n u^2
        product for M and an m u^2 product for the variance, against m n
        entries and an n^2 m solve for k* itself. Queries are grouped by
        context and each of the c groups takes its own solve. The tuner
        queries one context at a time (c = 1); the worst case, u = n with
        every query at its own context, costs an n^3 solve per query
        instead of n^2.

        G is :meth:`gain_covariance` of the queries' gains. A caller that
        holds it already, for example as rows of a block computed once
        for the whole grid, passes it as ``gain_cov`` and skips the m u
        kernel entries; ``None`` computes the queried rows only.

        Each row's mean and variance depend only on that row and the
        model, bit for bit, whatever else the batch holds.
        """
        pts = _as_points(x, self.kernel.input_dim)
        mean = np.full(pts.shape[0], self._prior_mean())
        var = np.full(pts.shape[0], self.kernel.signal_variance)
        index = self.index
        u = index.nodes.shape[0]
        if gain_cov is not None and np.shape(gain_cov) != (pts.shape[0], u):
            raise ValueError(f"gain_cov must have shape {(pts.shape[0], u)}, got {np.shape(gain_cov)}")
        n = self.num_observations
        if n == 0:
            return mean, var
        if gain_cov is None:
            gain_cov = self.gain_covariance(pts[:, :2])
        ell = self.kernel.lengthscales
        contexts, context_of = _distinct_rows(pts[:, 2:])
        ctx_corr = np.exp(-0.5 * _scaled_sq_dists(ell[2:], contexts, index.inputs[:, 2:])[0])  # (c, n)
        node_indicator = np.zeros((n, u))
        node_indicator[np.arange(n), index.node_of] = 1.0

        for c, corr in enumerate(ctx_corr):
            rows = slice(None) if len(contexts) == 1 else np.flatnonzero(context_of == c)
            g = gain_cov[rows]
            node_weights = (corr * self.alpha) @ node_indicator  # (u,)
            w, info = dtrtrs(self.gram_factor, node_indicator * corr[:, None], lower=1)
            if info != 0:
                raise np.linalg.LinAlgError(f"trtrs failed with info={info}")
            mean[rows] += np.sum(g * node_weights, axis=1)
            var[rows] -= _quadratic_rows(g, w.T @ w)
        return mean, np.maximum(var, 0.0)


def model_to_dict(model: GPModel) -> dict:
    """Serialisable prior of a model: kernel, noise and basis mean. The
    data is not stored; callers rebuild it from their observation log."""
    return {
        "kernel": model.kernel.to_dict(),
        "noise_variance": model.noise_variance,
        "basis_coefficient": model.basis_coefficient,
    }


def model_from_dict(d: dict) -> GPModel:
    """Data-free model from :func:`model_to_dict` output."""
    return GPModel.empty(KernelSpec.from_dict(d["kernel"]), d["noise_variance"], d["basis_coefficient"])


# ---------------------------------------------------------------------------
# Maximum-likelihood hyperparameter fitting (offline, once per experiment)
# ---------------------------------------------------------------------------

# Search region in normalized input units; inputs are mapped to [0, 1]
# before fitting, so these bounds bracket plausible smoothness.
LENGTHSCALE_BOUNDS = (0.05, 10.0)
VARIANCE_BOUNDS = (1e-4, 10.0)
_NOISE_VARIANCE_START = 1e-2  # the first start's noise variance; a degenerate fit's too
N_STARTS = 5  # L-BFGS-B starts per fit: the template's, then random ones
# The stopping rule of every start; see _run_starts.
FTOL = 1e-11  # L-BFGS-B's relative decrease of -LML
GTOL = 1e-6  # L-BFGS-B's largest projected gradient component
STATIONARY = 1e-3  # criterion 2's bound on the relative projected gradient
RESTARTS = 3  # at most this many reruns of a start that stops above STATIONARY


@dataclass(frozen=True)
class FitResult:
    kernel: KernelSpec
    noise_variance: float
    basis_coefficient: float | None
    log_marginal_likelihood: float
    degenerate: bool = False
    evaluations: int = 0  # likelihood evaluations over every start and process; 0 when degenerate
    unconverged: int = 0  # starts that L-BFGS-B ended without meeting its stopping rule

    def build(self) -> GPModel:
        return GPModel.empty(self.kernel, self.noise_variance, self.basis_coefficient)

    @property
    def on_bound(self) -> int:
        """How many hyperparameters lie within 1e-6 (in log) of
        ``LENGTHSCALE_BOUNDS`` or ``VARIANCE_BOUNDS``; many on a bound hint
        at a misspecified model."""
        values = [(v, LENGTHSCALE_BOUNDS) for v in self.kernel.lengthscales]
        values += [(self.kernel.signal_variance, VARIANCE_BOUNDS), (self.noise_variance, VARIANCE_BOUNDS)]
        return sum(any(abs(math.log(v) - math.log(b)) <= 1e-6 for b in bounds) for v, bounds in values)


def _unpack(theta: np.ndarray, template: KernelSpec):
    d = template.input_dim
    ells = tuple(np.exp(theta[:d]))
    sig = float(np.exp(theta[d]))
    noise = float(np.exp(theta[d + 1]))
    return replace(template, lengthscales=ells, signal_variance=sig), noise


class LikelihoodWorkspace:
    """Buffers for repeated likelihood calls on one fixed input set.

    Holds the unscaled differences x_i - x_j of each input dimension,
    computed once, and every (n, n) array that the value and the gradient
    need. :func:`log_marginal_likelihood` fills them in place, so the
    calls of one fit allocate no (n, n) temporaries.
    """

    def __init__(self, x: np.ndarray):
        n, d = x.shape
        self.x = x
        self.diffs = np.empty((d, n, n))
        for i in range(d):
            np.subtract(x[:, i, None], x[None, :, i], out=self.diffs[i])
        self.sq = np.empty((d, n, n))
        self.gram, self.decay, self.dprof, self.cov, self.w = np.empty((5, n, n))
        self.cov_diagonal = self.cov.reshape(-1)[:: n + 1]  # writable view
        self.finite = np.empty((n, n), dtype=bool)


def log_marginal_likelihood(
    theta: np.ndarray,
    template: KernelSpec,
    x: np.ndarray,
    y: np.ndarray,
    with_basis: bool,
    workspace: LikelihoodWorkspace | None = None,
) -> tuple[float, np.ndarray]:
    """Concentrated log marginal likelihood and its gradient.

    ``theta`` holds log lengthscales, log signal variance, log noise
    variance. The constant-basis coefficient, when enabled, is profiled
    out by generalized least squares; by the envelope theorem the
    gradient then only needs the kernel-parameter partials.

    ``workspace`` must have been built on this same ``x``; a fit passes
    one to all of its calls, and ``None`` builds a fresh one.
    """
    spec, noise = _unpack(theta, template)
    ws = LikelihoodWorkspace(x) if workspace is None else workspace
    if ws.x is not x:
        raise ValueError("workspace was built on other inputs")
    if not np.all(np.isfinite(y)):
        raise ValueError("non-finite target values rejected")
    n = x.shape[0]
    s2 = spec.signal_variance
    # Every (n, n) array lives in the workspace and is filled with out=:
    # at n = 145 a call that allocated its temporaries (about 1.7 MB) had
    # glibc hand them back to the OS and fault them in again on the next
    # call, which took about as long as the arithmetic. Each step keeps the
    # operation and operand order of the allocating form, and the Gram
    # matrix takes the operations of _unit_kernel, so value and gradient
    # are bit-identical to those of a kernel_matrix build.
    sq = ws.sq
    for i, ell in enumerate(spec.lengthscales):
        np.divide(ws.diffs[i], ell, out=sq[i])
        np.square(sq[i], out=sq[i])
    # The value and the gradient share r and exp(-sqrt5 r).
    r = np.add(sq[0], sq[1], out=ws.gram)
    np.sqrt(r, out=r)
    decay = np.multiply(r, -_SQRT5, out=ws.decay)
    np.exp(decay, out=decay)
    lin = np.multiply(r, _SQRT5, out=ws.dprof)
    lin += 1.0
    gram = np.square(r, out=r)
    gram *= 5.0 / 3.0
    gram += lin
    gram *= decay  # Matern 5/2 profile (1 + sqrt5 r + 5/3 r^2) exp(-sqrt5 r)
    # d m52(r) / d log(ell_i) = (5/3)(1 + sqrt5 r) exp(-sqrt5 r) sq_i: the
    # 1/r of dr/dlog(ell) cancels, so r == 0 needs no special casing.
    dprof = lin
    dprof *= decay
    dprof *= s2 * (5.0 / 3.0)
    se = np.multiply(sq[2], -0.5, out=ws.decay)  # decay is spent
    np.exp(se, out=se)
    gram *= se
    dprof *= se
    gram *= s2
    jitter = JITTER * s2
    cov = ws.cov
    np.copyto(cov, gram)
    ws.cov_diagonal += noise + jitter
    if not np.isfinite(cov, out=ws.finite).all():
        raise ValueError("non-finite covariance; check theta and the inputs")
    factor = _factor_in_place(cov)
    if with_basis:
        ones = np.ones(n)
        ci_y = _solve_factored(factor, y)
        ci_1 = _solve_factored(factor, ones)
        alpha_hat = float(ones @ ci_y) / float(ones @ ci_1)
        resid = y - alpha_hat
    else:
        resid = y
    a = _solve_factored(factor, resid)
    lml = -0.5 * float(resid @ a) - float(np.sum(np.log(np.diag(factor)))) - 0.5 * n * math.log(2 * math.pi)

    # GPML eq. 5.9: d lml / d theta_j = 1/2 tr(W dK/dtheta_j), W = a a^T - K^-1.
    # potri overwrites the factor with the lower triangle of K^-1 and
    # leaves the zeros above it.
    cov_inv, info = dpotri(factor, lower=1, overwrite_c=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"potri failed with info={info}")
    w = np.multiply(a[:, None], a[None, :], out=ws.w)
    w -= cov_inv  # lower triangle and diagonal
    ws.cov_diagonal[:] = 0.0  # the diagonal of cov_inv, taken once already
    w -= cov_inv.T  # strict upper triangle
    tr_w = float(np.trace(w))
    dprof *= w
    w *= gram
    grad = 0.5 * np.concatenate(
        [
            sq[:2].reshape(2, n * n) @ dprof.ravel(),
            sq[2:].reshape(1, n * n) @ w.ravel(),
            # the signal-variance partial also scales the jitter term
            [float(np.sum(w)) + jitter * tr_w, noise * tr_w],
        ]
    )
    return lml, grad


class _StartOutcome(NamedTuple):
    """How one start ended: -LML and theta at its end, its likelihood
    evaluations over every run, and whether L-BFGS-B's last run met its
    stopping rule."""

    fun: float
    theta: np.ndarray
    evaluations: int
    converged: bool


def _projected_gradient_norm(theta: np.ndarray, grad: np.ndarray, bounds) -> float:
    """2-norm of L-BFGS-B's projected gradient, clip(theta - grad) - theta,
    relative to max(1, |theta|) as criterion 2 measures it."""
    lo, hi = np.asarray(bounds).T
    step = np.clip(theta - grad, lo, hi) - theta
    return float(np.linalg.norm(step)) / max(1.0, float(np.linalg.norm(theta)))


@single_blas_thread()
def _run_starts(template: KernelSpec, x: np.ndarray, y: np.ndarray, with_basis: bool, bounds, starts) -> list:
    """L-BFGS-B from each start in turn, every likelihood call on one
    :class:`LikelihoodWorkspace` and BLAS on one thread, so a start's
    result does not depend on the process that runs it; a
    :class:`_StartOutcome` per start, ``converged`` meaning L-BFGS-B's
    status 0. A start that raises ends the list with its exception,
    where a loop over the starts would have stopped.

    Stopping rule: a start stops where the likelihood is stationary.
    L-BFGS-B stops at the first step whose relative decrease of -LML is
    at most ``FTOL`` (1e-11), or once the largest projected gradient
    component is at most ``GTOL`` (1e-6); these are the stopping tests
    of Byrd, Lu, Nocedal & Zhu (1995), on the gradient of GPML eq. 5.9.
    Criterion 2 asks that the projected gradient at the fit be at most
    1e-3 max(1, |theta|). A start whose projected gradient is above
    that ``STATIONARY`` bound when L-BFGS-B stops has stalled on a line
    search that took a vanishing step, not converged; it is run again
    from where it stopped, with fresh curvature pairs, at most
    ``RESTARTS`` times. Measured against the former 1e-14 / 1e-10 on the
    calibrations of seeds 0-4: 6830 -> 5136 likelihood evaluations, no
    start restarted, no start ending in an abnormal line search (23 of
    175 did), each fitted LML within 2.6e-11 nats and each
    hyperparameter within 2.6e-6 relative of its former value, and
    every results CSV byte-identical."""
    from scipy.optimize import minimize

    workspace = LikelihoodWorkspace(x)

    def objective(theta):
        lml, grad = log_marginal_likelihood(theta, template, x, y, with_basis, workspace=workspace)
        return -lml, -grad

    outcomes = []
    for start in starts:
        theta, evaluations = start, 0
        try:
            for _ in range(1 + RESTARTS):
                res = minimize(
                    objective,
                    theta,
                    jac=True,
                    method="L-BFGS-B",
                    bounds=bounds,
                    options={"maxiter": 500, "ftol": FTOL, "gtol": GTOL},
                )
                theta, evaluations = res.x, evaluations + int(res.nfev)
                if _projected_gradient_norm(res.x, res.jac, bounds) <= STATIONARY:
                    break
        except Exception as exc:
            outcomes.append(exc)
            break
        outcomes.append(_StartOutcome(res.fun, res.x, evaluations, res.status == 0))
    return outcomes


def _cpu_count() -> int:
    """CPUs this process may run on; 1 on a host that cannot tell them
    (no ``os.sched_getaffinity``) or cannot fork, so that a
    :class:`StartPool` there starts no process."""
    if not hasattr(os, "sched_getaffinity") or "fork" not in multiprocessing.get_all_start_methods():
        return 1
    return len(os.sched_getaffinity(0))


def _start_worker(owner: int) -> None:
    """Initializer of a :class:`StartPool` worker: ignore SIGINT, which
    the caller handles, and, where libc has ``prctl``, have the kernel
    SIGKILL the worker when the thread that forked it ends. The executor
    forks from the thread that calls the pool, so a killed caller leaves
    no worker; one whose ``owner`` died before this took hold exits."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    prctl = getattr(ctypes.CDLL(None), "prctl", None)
    if prctl is not None:
        prctl.argtypes, prctl.restype = (ctypes.c_int, ctypes.c_ulong), ctypes.c_int
        prctl(1, signal.SIGKILL)  # 1 = PR_SET_PDEATHSIG
        if os.getppid() != owner:
            os._exit(1)


class FitStarts(NamedTuple):
    """What every start of one fit runs on: the kernel template, the
    checked inputs ``x`` and targets ``y``, the basis flag, the L-BFGS-B
    bounds on theta and the seeded starts, the template's first. It
    unpacks into the arguments of :meth:`StartPool.run`."""

    template: KernelSpec
    x: np.ndarray
    y: np.ndarray
    with_basis: bool
    bounds: list
    starts: list

    def same_fit(self, other: "FitStarts") -> bool:
        """Equal field by field, the arrays bit for bit (NaN equal to NaN)."""
        same = partial(np.array_equal, equal_nan=True)
        return (
            self.template == other.template
            and self.with_basis == other.with_basis
            and self.bounds == other.bounds
            and same(self.x, other.x)
            and same(self.y, other.y)
            and len(self.starts) == len(other.starts)
            and all(map(same, self.starts, other.starts))
        )


class StartPool:
    """Worker processes that share the random starts of the fits run
    inside the ``with`` block with the calling process.

    ``size`` is P = min(CPUs this process may run on, ``N_STARTS``): the
    caller and a ``ProcessPoolExecutor`` of P - 1 workers; at one CPU, or
    on a host that cannot fork, no process is started. The executor forks
    its workers at the block's first submission, before it starts its own
    threads, so they inherit numpy, scipy (scipy.optimize is imported
    before the fork) and roomtune without importing them again. Forking
    is safe there because roomtune starts no thread, and OpenBLAS, whose
    pool is the only other one in the process, registers a fork handler
    that stops its threads. The workers ignore SIGINT and die with the
    caller (:func:`_start_worker`).

    :meth:`queue` submits the workers' shares of a batch of fits before
    any start runs, so the workers go from one fit's share to the next
    while the caller runs its own; :meth:`run` then serves the fits one
    at a time. Every exit from the block, an exception included, drops
    the queue, cancels the shares not yet started and joins the workers.
    """

    def __init__(self):
        self.size = max(1, min(_cpu_count(), N_STARTS))
        self._executor = None
        self._queue = deque()  # (fit, start indices of each process, worker futures) per queued fit

    def __enter__(self) -> "StartPool":
        if self.size > 1:
            import scipy.optimize  # noqa: F401 -- the workers inherit it

            self._executor = ProcessPoolExecutor(
                self.size - 1,
                mp_context=multiprocessing.get_context("fork"),
                initializer=_start_worker,
                initargs=(os.getpid(),),
            )
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._queue.clear()
        if self._executor is not None:
            self._executor.shutdown(cancel_futures=True)
            self._executor = None

    def _submit(self, fits: list[FitStarts]) -> list[tuple[FitStarts, list, list]]:
        """Split the starts of ``fits`` as one batch and submit the
        workers' shares: with p = min(P, starts in the batch), start g of
        the batch, counted in fit order, goes to process g mod p, the
        caller being process p - 1, and each worker gets one future per
        fit. Returns (fit, start indices of each process, worker futures)
        per fit. Outside the ``with`` block P is 1."""
        p = min(self.size if self._executor is not None else 1, sum(len(fit.starts) for fit in fits))
        batch, first = [], 0
        for fit in fits:
            shares = [[i for i in range(len(fit.starts)) if (first + i) % p == q] for q in range(p)]
            futures = [
                self._executor.submit(_run_starts, *fit[:-1], [fit.starts[i] for i in share])
                for share in shares[:-1]
            ]
            batch.append((fit, shares, futures))
            first += len(fit.starts)
        return batch

    def queue(self, plans) -> None:
        """Queue the starts of several fits as one batch, split as
        :meth:`_submit` says; ``plans`` are :func:`fit_starts` results in
        the order the fits will be asked for. A ``FitResult`` (constant
        targets) needs no start and is passed over."""
        self._queue.extend(self._submit([plan for plan in plans if isinstance(plan, FitStarts)]))

    def run(self, template: KernelSpec, x: np.ndarray, y: np.ndarray, with_basis: bool, bounds, starts) -> list:
        """The outcome of each start of one fit, in start order. A fit
        equal to the head of the queue (:meth:`FitStarts.same_fit`) takes
        its queued split; any other fit is split and submitted as a batch
        of one. The caller runs its own share, then collects the
        workers': a static split, so the caller's share, and what a
        profiler sees of it, is the same from run to run. A worker that
        dies raises ``BrokenProcessPool``."""
        fit = FitStarts(template, x, y, with_basis, bounds, starts)
        if self._queue and self._queue[0][0].same_fit(fit):
            _, shares, futures = self._queue.popleft()
        else:
            [(_, shares, futures)] = self._submit([fit])
        mine = _run_starts(*fit[:-1], [starts[i] for i in shares[-1]])
        done = [future.result() for future in futures] + [mine]
        # A share that raised ends at its exception, which comes before
        # the share's missing starts in start order.
        by_start = {i: outcome for share, outcomes in zip(shares, done) for i, outcome in zip(share, outcomes)}
        return [by_start[i] for i in sorted(by_start)]


def fit_starts(
    template: KernelSpec, inputs, targets, *, with_basis: bool = False, seed: int = 0
) -> FitStarts | FitResult:
    """The :class:`FitStarts` of one fit, its starts drawn from ``seed``,
    or, when the targets are constant, the fit's ``FitResult`` (the
    template defaults, ``degenerate=True``), which needs no start. Raises
    ``ValueError`` on inputs and targets of different lengths or on fewer
    than 10 samples."""
    x = _as_points(inputs, template.input_dim)
    y = np.asarray(targets, dtype=float).ravel()
    if x.shape[0] != y.shape[0]:
        raise ValueError("inputs and targets length mismatch")
    if x.shape[0] < 10:
        raise ValueError("need at least 10 calibration samples")
    if float(np.ptp(y)) < 1e-12:
        alpha = float(y[0]) if with_basis else None
        return FitResult(template, _NOISE_VARIANCE_START, alpha, math.nan, degenerate=True)

    d = template.input_dim
    lo = np.log(np.array([LENGTHSCALE_BOUNDS[0]] * d + [VARIANCE_BOUNDS[0]] * 2))
    hi = np.log(np.array([LENGTHSCALE_BOUNDS[1]] * d + [VARIANCE_BOUNDS[1]] * 2))
    rng = np.random.default_rng(seed)
    theta0 = np.log(
        np.clip(
            np.array(list(template.lengthscales) + [template.signal_variance, _NOISE_VARIANCE_START]),
            np.exp(lo),
            np.exp(hi),
        )
    )
    starts = [theta0] + [rng.uniform(lo, hi) for _ in range(N_STARTS - 1)]
    return FitStarts(template, x, y, with_basis, list(zip(lo, hi)), starts)


def fit_hyperparameters(
    template: KernelSpec,
    inputs,
    targets,
    *,
    with_basis: bool = False,
    seed: int = 0,
    pool: StartPool | None = None,
) -> FitResult:
    """Fit kernel hyperparameters (and basis coefficient) once, offline.

    Multi-start L-BFGS-B on the concentrated log marginal likelihood over
    a bounded region, from the starts of :func:`fit_starts`.
    Hyperparameters are treated as fixed afterwards; the optimizer never
    re-fits them during a season. Constant targets short-circuit to the
    template defaults with ``degenerate=True``. The starts run in the
    caller, or split between the caller and the workers of ``pool``,
    which may have queued them; the result is the same bit for bit.
    scipy.optimize is imported only to fit: it adds about 17 MB to every
    process, and only the calibration fits.
    """
    fit = fit_starts(template, inputs, targets, with_basis=with_basis, seed=seed)
    if isinstance(fit, FitResult):
        return fit
    outcomes = (pool or StartPool()).run(*fit)

    best = None
    for outcome in outcomes:  # in start order, so the first start that raised raises
        if isinstance(outcome, Exception):
            raise outcome
        if best is None or outcome.fun < best.fun:
            best = outcome

    spec, noise = _unpack(best.theta, template)
    alpha = None
    if with_basis:
        # 1^T K^-1 y / 1^T K^-1 1; a zero-mean model's alpha is K^-1 y
        model = GPModel(spec, noise).with_data(fit.x, fit.y)
        ones = np.ones(fit.x.shape[0])
        alpha = float(ones @ model.alpha) / float(ones @ _solve_factored(model.gram_factor, ones))
    evaluations = sum(outcome.evaluations for outcome in outcomes)
    unconverged = sum(not outcome.converged for outcome in outcomes)
    return FitResult(spec, noise, alpha, -float(best.fun), evaluations=evaluations, unconverged=unconverged)
