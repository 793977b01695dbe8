"""Exact Gaussian process regression on small datasets.

One product kernel (Matern 5/2 over the two controller-gain inputs times
a squared exponential over the context input), optional constant
explicit-basis mean, Cholesky-backed posteriors, and offline
maximum-likelihood hyperparameter fitting with analytic gradients.

Models are values: ``add_observation`` returns a new model, queries are
read-only. Observation counts stay small (one per heating day), so a
model is rebuilt on every update instead of rank-1 patched.

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
models conditioned on one input set can share. The build factors the
Gram matrix once and solves alpha = K^-1 (y - mu0) once, and the model
carries both with the node index. Queries reuse them: the tuner queries
grid gains at one context, so the query cross-covariance has rank at
most u, and the variance of m queries costs m·u² + n²·u operations
instead of the n²·m of a dense solve; see :meth:`GPModel.posterior_batch`.
The m·u gain block s2·m(gains, nodes) of that cross-covariance has one
formula, :meth:`GPModel.gain_covariance`. It depends on neither the
targets nor the context, so a caller whose nodes stay the same from one
query to the next may compute it once and pass the queried rows.

:meth:`GPModel.with_data` is the one routine that conditions a GP, the
fit's basis coefficient included, and one helper factors every Gram
matrix, of a model or of a likelihood call, by LAPACK ``potrf`` in place.

A hyperparameter fit runs L-BFGS-B from ``N_STARTS`` starts, which do
not depend on one another. Passed a :class:`StartPool`, a fit splits
them statically between the caller and the P - 1 worker processes of a
``concurrent.futures.ProcessPoolExecutor``, P = min(CPUs this process
may run on, starts): worker w runs starts w, w + P, ..., the caller the
last share. Each process runs its share on one likelihood workspace and
one BLAS thread and returns only the final value and theta of each
start; the caller puts them back in start order and keeps the first
best, so a fit is bit-identical at any P and without a pool. The pool
forks only (spawn or forkserver would import numpy and scipy again in
every worker), and the executor forks every worker before it starts its
own threads. The pool has no setting: the CPU count alone decides P,
and at one CPU, or on a host that cannot fork, it starts no process.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import signal
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotri, dpotrs, dtrtrs

from .blas import single_blas_thread

# The one kernel family; kept as a format tag in serialized kernels.
PRODUCT = "product"

# Relative diagonal jitter: duplicate daily contexts make the Gram matrix
# near-singular, so every factorization gets signal_variance * JITTER added.
JITTER = 1e-9

_SQRT5 = math.sqrt(5.0)


class DimensionMismatchError(ValueError):
    """Query or training points do not match the kernel's input dimension."""


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
        if any(l <= 0 for l in self.lengthscales):
            raise ValueError("lengthscales must be positive")
        if self.signal_variance <= 0:
            raise ValueError("signal_variance must be positive")

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
        raise DimensionMismatchError(f"expected {dim}-dim points, got shape {pts.shape}")
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
    targets, so they can share one index; :meth:`GPModel.with_data`
    scales it by each model's lengthscales.
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
    means a plain zero-mean GP. ``gram_factor`` is the lower Cholesky
    factor of K + (noise_variance + jitter) I over ``inputs``, and
    ``alpha`` = (K + (noise_variance + jitter) I)^-1 (targets - mean).
    ``nodes`` are the u distinct gain rows of ``inputs`` and ``node_of``
    the index of each input's gain row among them. All of these are
    derived by :meth:`with_data`.
    """

    kernel: KernelSpec
    noise_variance: float
    basis_coefficient: float | None = None
    inputs: np.ndarray | None = None
    targets: np.ndarray | None = None
    gram_factor: np.ndarray | None = None
    alpha: np.ndarray | None = None
    nodes: np.ndarray | None = None
    node_of: np.ndarray | None = None

    @classmethod
    def empty(
        cls,
        kernel: KernelSpec,
        noise_variance: float,
        basis_coefficient: float | None = None,
    ) -> "GPModel":
        if noise_variance <= 0:
            raise ValueError("noise_variance must be positive")
        return cls(kernel, noise_variance, basis_coefficient).with_data([], [])

    @property
    def num_observations(self) -> int:
        return self.inputs.shape[0]

    def _prior_mean(self) -> float:
        return 0.0 if self.basis_coefficient is None else float(self.basis_coefficient)

    def with_data(self, inputs, targets, *, index: InputIndex | None = None) -> "GPModel":
        """Batch-build a model on the full observation set.

        The Gram matrix is built through the u distinct gain rows: the
        Matern factor is evaluated on the u x u node pairs and gathered
        to n x n, then multiplied by the n x n context factor and by s2
        in the operation order of :func:`kernel_matrix`, so it equals
        ``kernel_matrix(kernel, inputs)`` bit for bit. It is factored
        once by LAPACK ``potrf`` and ``alpha`` is solved once by
        ``potrs``; :meth:`posterior_batch` reuses both with the node
        index. ``index``, when given, must have been built on these
        inputs; the models of one log pass one index, and ``None`` builds
        a fresh one. Non-finite inputs or targets raise ``ValueError``,
        and a Gram matrix that is not positive definite raises
        ``LinAlgError``.
        """
        if index is None:
            index = InputIndex(inputs)
        elif inputs is not index.inputs and not np.array_equal(
            _observed_points(inputs, self.kernel.input_dim), index.inputs
        ):
            raise ValueError("index was built on other inputs")
        x = index.inputs
        y = np.asarray(targets, dtype=float).ravel()
        if x.shape[0] != y.shape[0]:
            raise ValueError("inputs and targets length mismatch")
        if y.size and not np.all(np.isfinite(y)):
            raise ValueError("non-finite target values rejected")
        data = {"inputs": x, "targets": y, "nodes": index.nodes, "node_of": index.node_of}
        if x.shape[0] == 0:
            return replace(self, gram_factor=np.empty((0, 0)), alpha=np.empty(0), **data)
        ell = self.kernel.lengthscales
        s2 = self.kernel.signal_variance
        node_sq = _scaled_sq_dists(ell[:2], index.nodes, index.nodes)
        node_corr = _matern_profile(np.sqrt(node_sq[0] + node_sq[1]))  # (u, u)
        ctx_sq = (index.context_diffs / ell[2]) ** 2  # as _scaled_sq_dists rounds it
        gram = node_corr[index.node_of][:, index.node_of] * np.exp(-0.5 * ctx_sq)
        gram *= s2
        gram[np.diag_indices_from(gram)] += self.noise_variance + JITTER * s2
        factor = _factor_in_place(gram)
        alpha = _solve_factored(factor, y - self._prior_mean())
        return replace(self, gram_factor=factor, alpha=alpha, **data)

    def add_observation(self, x, y: float) -> "GPModel":
        """Condition on one more (input, target) pair; returns a new model."""
        if not np.isfinite(y):
            raise ValueError("non-finite target values rejected")
        pt = _as_points([np.ravel(x)], self.kernel.input_dim)
        new_x = np.vstack([self.inputs, pt])
        new_y = np.append(self.targets, float(y))
        return self.with_data(new_x, new_y)

    def gain_covariance(self, gains) -> np.ndarray:
        """The (m, u) block s2 * m(gains, nodes): the Matern gain factor
        of the covariance between gain rows and this model's nodes,
        times the signal variance. Each entry depends only on its gain
        row and node, so the rows of a block computed for a whole grid
        equal, bit for bit, a block computed for some of its rows."""
        sq = _scaled_sq_dists(self.kernel.lengthscales[:2], _as_points(gains, 2), self.nodes)
        return self.kernel.signal_variance * _matern_profile(np.sqrt(sq[0] + sq[1]))

    def posterior_batch(self, x, gain_cov=None) -> tuple[np.ndarray, np.ndarray]:
        """Posterior means and variances at a batch of query points.

        Exact, factored through the u distinct observed gain rows U
        (``nodes``; p(j) = ``node_of[j]`` is the U-row of observation j).
        For queries sharing one context z, the cross-covariance is
        k*[i, j] = G[i, p(j)] * s_j with G = s2 * m(g_query, U) of shape
        (m, u) and s_j = c(z, z_j). So k*^T = D G^T, where D (n, u) holds
        s_j at [j, p(j)], and

            mean = mu0 + G a,  a = bincount(p, s * alpha)
            var  = s2 - rowsum((G M) o G),  M = W^T W,  W = L^-1 D

        with L the Gram factor and alpha = K^-1 (y - mu0), both carried
        from :meth:`with_data`. These are the dense-solve formulas
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
        u = self.nodes.shape[0]
        if gain_cov is not None and np.shape(gain_cov) != (pts.shape[0], u):
            raise ValueError(f"gain_cov must have shape {(pts.shape[0], u)}, got {np.shape(gain_cov)}")
        n = self.num_observations
        if n == 0:
            return mean, var
        if gain_cov is None:
            gain_cov = self.gain_covariance(pts[:, :2])
        ell = self.kernel.lengthscales
        contexts, context_of = _distinct_rows(pts[:, 2:])
        ctx_corr = np.exp(-0.5 * _scaled_sq_dists(ell[2:], contexts, self.inputs[:, 2:])[0])  # (c, n)
        node_indicator = np.zeros((n, u))
        node_indicator[np.arange(n), self.node_of] = 1.0

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


@dataclass(frozen=True)
class FitResult:
    kernel: KernelSpec
    noise_variance: float
    basis_coefficient: float | None
    log_marginal_likelihood: float
    degenerate: bool = False

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


@single_blas_thread()
def _run_starts(template: KernelSpec, x: np.ndarray, y: np.ndarray, with_basis: bool, bounds, starts) -> list:
    """L-BFGS-B from each start in turn, every likelihood call on one
    :class:`LikelihoodWorkspace` and BLAS on one thread, so a start's
    result does not depend on the process that runs it; ``(fun, theta)``
    per start. A start that raises ends the list with its exception,
    where a loop over the starts would have stopped."""
    from scipy.optimize import minimize

    workspace = LikelihoodWorkspace(x)

    def objective(theta):
        lml, grad = log_marginal_likelihood(theta, template, x, y, with_basis, workspace=workspace)
        return -lml, -grad

    outcomes = []
    for start in starts:
        try:
            res = minimize(
                objective,
                start,
                jac=True,
                method="L-BFGS-B",
                bounds=bounds,
                options={"maxiter": 500, "ftol": 1e-14, "gtol": 1e-10},
            )
        except Exception as exc:
            outcomes.append(exc)
            break
        outcomes.append((res.fun, res.x))
    return outcomes


def _cpu_count() -> int:
    """CPUs this process may run on; 1 on a host that cannot tell them
    (no ``os.sched_getaffinity``) or cannot fork, so that a
    :class:`StartPool` there starts no process."""
    if not hasattr(os, "sched_getaffinity") or "fork" not in multiprocessing.get_all_start_methods():
        return 1
    return len(os.sched_getaffinity(0))


class StartPool:
    """Worker processes that share the random starts of each fit run
    inside the ``with`` block with the calling process.

    ``size`` is P = min(CPUs this process may run on, ``N_STARTS``): the
    caller and a ``ProcessPoolExecutor`` of P - 1 workers; at one CPU, or
    on a host that cannot fork, no process is started. The executor forks
    its workers at the block's first pooled fit, before it starts its own
    threads, so they inherit numpy, scipy (scipy.optimize is imported
    before the fork) and roomtune without importing them again. Forking
    is safe there because roomtune starts no thread, and OpenBLAS, whose
    pool is the only other one in the process, registers a fork handler
    that stops its threads. The caller handles interrupts, so the workers
    ignore SIGINT. Every exit from the block, an exception included,
    cancels the shares not yet started and joins the workers.
    """

    def __init__(self):
        self.size = max(1, min(_cpu_count(), N_STARTS))
        self._executor = None

    def __enter__(self) -> "StartPool":
        if self.size > 1:
            import scipy.optimize  # noqa: F401 -- the workers inherit it

            self._executor = ProcessPoolExecutor(
                self.size - 1,
                mp_context=multiprocessing.get_context("fork"),
                initializer=signal.signal,
                initargs=(signal.SIGINT, signal.SIG_IGN),
            )
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if self._executor is not None:
            self._executor.shutdown(cancel_futures=True)
            self._executor = None

    def run(self, template: KernelSpec, x: np.ndarray, y: np.ndarray, with_basis: bool, bounds, starts) -> list:
        """The outcome of each start, in start order. With p = min(P,
        number of starts), worker shares ``starts[w::p]`` (w < p - 1) are
        submitted, the caller runs ``starts[p-1::p]``, then collects the
        workers' shares: a static split, so the caller's share, and what a
        profiler sees of it, is the same from run to run. A worker that
        dies raises ``BrokenProcessPool``. Outside the ``with`` block P is
        1 and the caller runs every start."""
        p = min(self.size if self._executor is not None else 1, len(starts))
        task = (template, x, y, with_basis, bounds)
        futures = [self._executor.submit(_run_starts, *task, starts[w::p]) for w in range(p - 1)]
        mine = _run_starts(*task, starts[p - 1 :: p])
        shares = [future.result() for future in futures] + [mine]
        # A share that raised ends at its exception, which comes before
        # the share's missing starts in start order.
        return [shares[i % p][i // p] for i in range(len(starts)) if i // p < len(shares[i % p])]


def fit_hyperparameters(
    template: KernelSpec,
    inputs,
    targets,
    *,
    with_basis: bool = False,
    n_starts: int = N_STARTS,
    seed: int = 0,
    pool: StartPool | None = None,
) -> FitResult:
    """Fit kernel hyperparameters (and basis coefficient) once, offline.

    Multi-start L-BFGS-B on the concentrated log marginal likelihood over
    a bounded region. Hyperparameters are treated as fixed afterwards;
    the optimizer never re-fits them during a season. Constant targets
    short-circuit to the template defaults with ``degenerate=True``.
    The starts run in the caller, or split between the caller and the
    workers of ``pool``; the result is the same bit for bit.
    scipy.optimize is imported only to fit: it adds about 17 MB to every
    process, and only the calibration fits.
    """
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
    bounds = list(zip(lo, hi))
    rng = np.random.default_rng(seed)
    theta0 = np.log(
        np.clip(
            np.array(list(template.lengthscales) + [template.signal_variance, _NOISE_VARIANCE_START]),
            np.exp(lo),
            np.exp(hi),
        )
    )
    starts = [theta0] + [rng.uniform(lo, hi) for _ in range(max(0, n_starts - 1))]
    if pool is None:
        outcomes = _run_starts(template, x, y, with_basis, bounds, starts)
    else:
        outcomes = pool.run(template, x, y, with_basis, bounds, starts)

    best = None
    for outcome in outcomes:  # in start order, so the first start that raised raises
        if isinstance(outcome, Exception):
            raise outcome
        if best is None or outcome[0] < best[0]:
            best = outcome

    fun, theta = best
    spec, noise = _unpack(theta, template)
    alpha = None
    if with_basis:
        # 1^T K^-1 y / 1^T K^-1 1; a zero-mean model's alpha is K^-1 y
        model = GPModel(spec, noise).with_data(x, y)
        ones = np.ones(x.shape[0])
        alpha = float(ones @ model.alpha) / float(ones @ _solve_factored(model.gram_factor, ones))
    return FitResult(spec, noise, alpha, -float(fun))
