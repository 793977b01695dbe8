import ctypes
import math
import multiprocessing
import os
import signal
import tracemalloc
from concurrent.futures.process import BrokenProcessPool
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import cho_solve, cholesky
from scipy.linalg.lapack import dpotri

from roomtune import gp
from roomtune.gp import (
    JITTER,
    LENGTHSCALE_BOUNDS,
    PRODUCT,
    VARIANCE_BOUNDS,
    FitResult,
    GPModel,
    InputIndex,
    KernelSpec,
    LikelihoodWorkspace,
    StartPool,
    fit_hyperparameters,
    kernel_matrix,
    log_marginal_likelihood,
    _distinct_rows,
)
from roomtune.optimizer import GainDomain


_TEMPLATE = KernelSpec(PRODUCT, (0.3, 0.3, 0.3), 1.0)


def random_spec(rng):
    return KernelSpec(PRODUCT, tuple(rng.uniform(0.1, 2.0, 3)), float(rng.uniform(0.2, 3.0)))


def gain_matern52(spec, a, b=None):
    """s2 * Matern 5/2 over the two gain columns alone, written out."""
    b = a if b is None else b
    scaled = (a[:, None, :2] - b[None, :, :2]) / np.asarray(spec.lengthscales[:2])
    r = np.sqrt(np.sum(scaled**2, axis=-1))
    return spec.signal_variance * (1.0 + math.sqrt(5.0) * r + 5.0 / 3.0 * r**2) * np.exp(-math.sqrt(5.0) * r)


def first_seen(rows):
    """The distinct rows in the order they first appear and the index of
    each row among them, by a plain dict."""
    seen = {}
    for row in map(tuple, rows.tolist()):
        seen.setdefault(row, len(seen))
    index = np.array([seen[tuple(row)] for row in rows.tolist()])
    return np.array(list(seen), dtype=float).reshape(-1, rows.shape[1]), index


def dense_posterior(spec, noise, basis, train_x, train_y, query, kernel=kernel_matrix):
    """Naive full-matrix posterior, the oracle the incremental path must match."""
    mean_prior = 0.0 if basis is None else basis
    k = kernel(spec, train_x)
    k[np.diag_indices_from(k)] += noise + JITTER * spec.signal_variance
    k_star = kernel(spec, query, train_x)
    solve = np.linalg.solve(k, train_y - mean_prior)
    mean = mean_prior + k_star @ solve
    var = spec.signal_variance - np.einsum("ij,ji->i", k_star, np.linalg.solve(k, k_star.T))
    return mean, np.maximum(var, 0.0)


def test_incremental_posterior_matches_dense_solve():
    rng = np.random.default_rng(42)
    for _ in range(50):
        spec = random_spec(rng)
        noise = float(rng.uniform(1e-4, 0.1))
        basis = float(rng.normal()) if rng.uniform() < 0.5 else None
        n = int(rng.integers(1, 31))
        x = rng.uniform(0.0, 1.0, (n, 3))
        y = rng.normal(size=n)
        model = GPModel.empty(spec, noise, basis)
        for xi, yi in zip(x, y):
            model = model.add_observation(xi, yi)
        query = rng.uniform(0.0, 1.0, (20, 3))
        mean, var = model.posterior_batch(query)
        want_mean, want_var = dense_posterior(spec, noise, basis, x, y, query)
        np.testing.assert_allclose(mean, want_mean, atol=1e-8)
        np.testing.assert_allclose(var, want_var, atol=1e-8)


def test_grid_node_posterior_matches_dense_solve():
    """Observations on few grid nodes (u << n) with exact duplicate rows
    and noise at its lower bound, queried over the full gain grid at one
    shared context and in batches that mix contexts. A model whose inputs
    all hold the context at 0.0 (as ``bo`` does) must match a dense solve
    under the gain-only Matern 5/2."""
    rng = np.random.default_rng(7)
    grid = GainDomain.build().unit_points
    worst = 0.0
    for trial, u in enumerate((1, 2, 3, 5, 8, 13, 1, 4)):
        spec = random_spec(rng)
        noise = VARIANCE_BOUNDS[0] if trial % 2 == 0 else float(rng.uniform(1e-4, 0.1))
        basis = float(rng.normal()) if trial % 3 else None
        nodes = grid[rng.choice(grid.shape[0], u, replace=False)]
        contexts = rng.uniform(0.0, 1.0, 4)
        n = int(rng.integers(20, 60))
        x = np.column_stack([nodes[rng.integers(0, u, n)], contexts[rng.integers(0, 4, n)]])
        x = np.vstack([x, x[:3]])  # exact duplicate (gain, context) rows
        y = rng.normal(size=x.shape[0])
        contextual = GPModel.empty(spec, noise, basis).with_data(x, y)
        pinned = GPModel.empty(spec, noise, basis).with_data(np.column_stack([x[:, :2], np.zeros(len(x))]), y)
        shared = np.column_stack([grid, np.full(grid.shape[0], rng.uniform())])
        mixed = np.vstack(
            [
                np.column_stack([grid[::9], np.full(grid[::9].shape[0], contexts[0])]),
                np.column_stack([nodes, np.full(u, contexts[1])]),
                np.column_stack([grid[rng.integers(0, grid.shape[0], 3)], rng.uniform(0.0, 1.0, 3)]),
            ]
        )
        cases = [
            (contextual, shared, dense_posterior(spec, noise, basis, x, y, shared)),
            (contextual, mixed, dense_posterior(spec, noise, basis, x, y, mixed)),
            (
                pinned,
                np.column_stack([grid, np.zeros(grid.shape[0])]),
                dense_posterior(spec, noise, basis, x[:, :2], y, grid, kernel=gain_matern52),
            ),
        ]
        for model, query, (want_mean, want_var) in cases:
            mean, var = model.posterior_batch(query)
            worst = max(worst, np.max(np.abs(mean - want_mean)), np.max(np.abs(var - want_var)))
    assert worst <= 1e-8


@settings(max_examples=200, deadline=None)
@given(
    dim=st.integers(1, 3),
    pool=st.integers(1, 6),
    n=st.integers(1, 40),
    data_seed=st.integers(0, 2**32 - 1),
)
def test_distinct_rows_matches_np_unique(dim, pool, n, data_seed):
    """The distinct rows of np.unique(axis=0) and its index, reordered by
    each row's first index, so in the order the rows first appear; rows
    drawn from a small pool repeat, and pools on a coarse lattice share
    some of their columns."""
    rng = np.random.default_rng(data_seed)
    if rng.uniform() < 0.5:
        values = rng.integers(0, 3, (pool, dim)) / 2.0
    else:
        values = rng.uniform(0.0, 1.0, (pool, dim))
    a = values[rng.integers(0, pool, n)]
    distinct, index = _distinct_rows(a)
    unique, first, inverse = np.unique(a, axis=0, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    np.testing.assert_array_equal(distinct, unique[order])
    np.testing.assert_array_equal(index, rank[inverse.ravel()])
    np.testing.assert_array_equal(distinct[index], a)


@settings(max_examples=60, deadline=None)
@given(
    u=st.integers(1, 70),
    n=st.integers(1, 150),
    with_basis=st.booleans(),
    data_seed=st.integers(0, 2**32 - 1),
)
def test_posterior_rows_do_not_depend_on_the_batch(u, n, with_basis, data_seed):
    """A query row gets the same bits in batches of 1, 2, 3, some drawn
    size and 1600 rows, as the tuner relies on when it queries only the
    gains it can choose, and the same bits again when the batch's gain
    block is passed in as rows of one block computed for the whole grid.
    Seasons reach 68 nodes; the row sums go through gemm, whose kernels
    must give a row the same bits in any batch at every node count."""
    rng = np.random.default_rng(data_seed)
    grid = GainDomain.build().unit_points
    spec = random_spec(rng)
    nodes = grid[rng.choice(grid.shape[0], u, replace=False)]
    x = np.column_stack([nodes[rng.integers(0, u, n)], rng.uniform(0.0, 1.0, n)])
    basis = float(rng.normal()) if with_basis else None
    model = GPModel.empty(spec, float(rng.uniform(1e-4, 0.1)), basis).with_data(x, rng.normal(size=n))
    query = np.column_stack([grid, np.full(grid.shape[0], rng.uniform())])
    mean, var = model.posterior_batch(query)
    block = model.gain_covariance(grid)
    np.testing.assert_array_equal(model.posterior_batch(query, block), (mean, var))
    for size in (1, 2, 3, int(rng.integers(4, grid.shape[0]))):
        rows = rng.choice(grid.shape[0], size, replace=False)
        sub_mean, sub_var = model.posterior_batch(query[rows])
        np.testing.assert_array_equal(sub_mean, mean[rows])
        np.testing.assert_array_equal(sub_var, var[rows])
        np.testing.assert_array_equal(model.posterior_batch(query[rows], block[rows]), (sub_mean, sub_var))
    with pytest.raises(ValueError, match="gain_cov"):
        model.posterior_batch(query[:2], block[:3])


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(1, 60),
    data=st.data(),
    shared_context=st.booleans(),
    with_basis=st.booleans(),
    data_seed=st.integers(0, 2**32 - 1),
)
def test_node_built_model_equals_a_dense_cholesky(n, data, shared_context, with_basis, data_seed):
    """The Gram factor and alpha that a model computes through the u
    distinct gain rows equal, bit for bit, scipy's Cholesky of the dense
    kernel_matrix and cho_solve, for u from 1 to n, at one shared context
    and at distinct contexts, with and without a basis mean; so do those
    of a build on an index of the same inputs, as a state's models share
    one, and a build on an index of other inputs is refused."""
    u = data.draw(st.integers(1, n), label="u")
    rng = np.random.default_rng(data_seed)
    grid = GainDomain.build().unit_points
    spec = random_spec(rng)
    noise = float(rng.uniform(1e-4, 0.1))
    nodes = grid[rng.choice(grid.shape[0], u, replace=False)]
    gains = nodes[rng.permutation(np.concatenate([np.arange(u), rng.integers(0, u, n - u)]))]
    contexts = np.full(n, rng.uniform()) if shared_context else rng.uniform(0.0, 1.0, n)
    x = np.column_stack([gains, contexts])
    y = rng.normal(size=n)
    basis = float(rng.normal()) if with_basis else None
    model = GPModel.empty(spec, noise, basis).with_data(x, y)

    factor = cholesky(kernel_matrix(spec, x) + (noise + JITTER * spec.signal_variance) * np.eye(n), lower=True)
    assert np.array_equal(model.gram_factor, factor)
    assert np.array_equal(model.alpha, cho_solve((factor, True), y - (0.0 if basis is None else basis)))
    want_nodes, want_node_of = first_seen(gains)
    assert np.array_equal(model.index.nodes, want_nodes)
    assert np.array_equal(model.index.node_of, want_node_of)
    index = InputIndex().extend(x.copy())
    shared = GPModel.empty(spec, noise, basis).with_data(x, y, index=index)
    assert np.array_equal(shared.gram_factor, factor) and np.array_equal(shared.alpha, model.alpha)
    with pytest.raises(ValueError, match="other inputs"):
        GPModel.empty(spec, noise, basis).with_data(x + 1.0, y, index=index)


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(1, 80),
    data=st.data(),
    shared_context=st.booleans(),
    data_seed=st.integers(0, 2**32 - 1),
)
def test_a_gram_matrix_grown_by_rows_equals_the_full_build(n, data, shared_context, data_seed):
    """The Gram matrix of n inputs built on the unfactored matrix of their
    first m (as a season carries it from one day to the next, one row a
    day, or several rows when a surrogate was not queried for some days)
    equals, bit for bit, the matrix built on all n, and so does its
    factor; the later rows may bring gain rows that are new nodes. The
    index grown by those rows equals the index built on all n."""
    m = data.draw(st.integers(0, n), label="m")
    rng = np.random.default_rng(data_seed)
    grid = GainDomain.build().unit_points
    spec = random_spec(rng)
    noise = float(rng.uniform(1e-4, 0.1))
    nodes = grid[rng.choice(grid.shape[0], int(rng.integers(1, n + 1)), replace=False)]
    contexts = np.full(n, rng.uniform()) if shared_context else rng.uniform(0.0, 1.0, n)
    x = np.column_stack([nodes[rng.integers(0, len(nodes), n)], contexts])
    y = rng.normal(size=n)
    prior = GPModel.empty(spec, noise)
    head = prior.with_data(x[:m], y[:m]).gram()
    grown_index = InputIndex().extend(x[:m]).extend(x[m:])
    whole = prior.with_data(x, y)
    for name in ("inputs", "nodes", "node_of", "context_diffs"):
        assert np.array_equal(getattr(grown_index, name), getattr(whole.index, name)), name
    grown = prior.with_data(x, y, index=grown_index)
    gram = grown.factor(head)
    assert np.array_equal(gram, whole.gram())
    assert np.array_equal(gram, gram.T)
    assert np.array_equal(grown.gram_factor, whole.gram_factor)
    assert grown.factor(gram) is None  # a model factors once


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 40), data_seed=st.integers(0, 2**32 - 1))
def test_an_index_grown_row_by_row_keeps_its_parents_nodes_first(n, data_seed):
    """An index grown one row at a time, as a season grows it, with new
    gain rows appearing mid-log before and after the nodes seen so far on
    the kp-major grid: each grown index holds its parent's inputs, nodes,
    node indices and context differences as its leading entries, shares
    no array with it, and equals the index built on the joined inputs,
    whose nodes are in the order they first appear."""
    rng = np.random.default_rng(data_seed)
    grid = GainDomain.build().unit_points
    pool = grid[rng.choice(grid.shape[0], int(rng.integers(1, n + 1)), replace=False)]
    x = np.column_stack([pool[rng.integers(0, len(pool), n)], rng.uniform(0.0, 1.0, n)])
    index = InputIndex()
    for i in range(n):
        grown = index.extend(x[i : i + 1])
        u = index.nodes.shape[0]
        assert np.array_equal(grown.nodes[:u], index.nodes)
        assert np.array_equal(grown.node_of[:i], index.node_of)
        assert np.array_equal(grown.context_diffs[:i, :i], index.context_diffs)
        for name in ("inputs", "nodes", "node_of", "context_diffs"):
            assert not np.shares_memory(getattr(grown, name), getattr(index, name)), name
        whole = InputIndex().extend(x[: i + 1])
        for name in ("inputs", "nodes", "node_of", "context_diffs"):
            assert np.array_equal(getattr(grown, name), getattr(whole, name)), name
        want_nodes, want_node_of = first_seen(x[: i + 1, :2])
        assert np.array_equal(grown.nodes, want_nodes) and np.array_equal(grown.node_of, want_node_of)
        index = grown


@pytest.mark.parametrize("routine", ["dpotrf", "dtrtrs"])
def test_model_raises_when_lapack_reports_failure(monkeypatch, routine):
    """A Gram matrix that potrf cannot factor, and a triangular solve
    that trtrs reports singular, fail the first query with LinAlgError,
    as scipy's checked wrappers did."""
    original = getattr(gp, routine)

    def failing(*args, **kwargs):
        result, _ = original(*args, **kwargs)
        return result, 3

    rng = np.random.default_rng(11)
    x, y = rng.uniform(0.0, 1.0, (6, 3)), rng.normal(size=6)
    model = GPModel.empty(random_spec(rng), 1e-3)
    monkeypatch.setattr(gp, routine, failing)
    with pytest.raises(np.linalg.LinAlgError):
        model.with_data(x, y).posterior_batch(x)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("where", ["gain", "context", "target"])
def test_with_data_rejects_non_finite_values(where, bad):
    rng = np.random.default_rng(12)
    x, y = rng.uniform(0.0, 1.0, (6, 3)), rng.normal(size=6)
    if where == "target":
        y[2] = bad
    else:
        x[2, 0 if where == "gain" else 2] = bad
    with pytest.raises(ValueError, match="non-finite"):
        GPModel.empty(random_spec(rng), 1e-3).with_data(x, y)


def test_prior_before_any_data():
    spec = KernelSpec(PRODUCT, (0.5, 0.5, 0.5), 2.0)
    zero_mean = GPModel.empty(spec, 1e-3)
    with_basis = GPModel.empty(spec, 1e-3, basis_coefficient=0.8)
    mean, var = zero_mean.posterior_batch([[0.2, 0.7, 0.4]])
    assert mean[0] == 0.0
    assert var[0] == 2.0
    mean, var = with_basis.posterior_batch([[0.2, 0.7, 0.4]])
    assert mean[0] == 0.8
    assert var[0] == 2.0


def test_conditioning_shrinks_variance_at_observed_point():
    spec = KernelSpec(PRODUCT, (0.3, 0.3, 0.3), 1.0)
    model = GPModel.empty(spec, 1e-4)
    _, before = model.posterior_batch([[0.5, 0.5, 0.5]])
    model = model.add_observation([0.5, 0.5, 0.5], 0.3)
    mean, after = model.posterior_batch([[0.5, 0.5, 0.5]])
    assert after[0] < before[0]
    assert mean[0] == pytest.approx(0.3, abs=1e-3)


def test_duplicate_inputs_stay_factorizable():
    spec = KernelSpec(PRODUCT, (0.4, 0.4, 0.4), 1.0)
    model = GPModel.empty(spec, 1e-6)
    model = model.add_observation([0.5, 0.5, 0.5], 1.0)
    model = model.add_observation([0.5, 0.5, 0.5], 1.0)
    mean, _ = model.posterior_batch([[0.5, 0.5, 0.5]])
    assert mean[0] == pytest.approx(1.0, abs=1e-3)


def test_add_observation_equals_batch_build():
    rng = np.random.default_rng(5)
    spec = random_spec(rng)
    x = rng.uniform(0.0, 1.0, (12, 3))
    y = rng.normal(size=12)
    one_by_one = GPModel.empty(spec, 1e-3, 0.2)
    for xi, yi in zip(x, y):
        one_by_one = one_by_one.add_observation(xi, yi)
    batch = GPModel.empty(spec, 1e-3, 0.2).with_data(x, y)
    q = rng.uniform(0.0, 1.0, (7, 3))
    np.testing.assert_allclose(one_by_one.posterior_batch(q)[0], batch.posterior_batch(q)[0], atol=1e-12)
    np.testing.assert_allclose(one_by_one.posterior_batch(q)[1], batch.posterior_batch(q)[1], atol=1e-12)


def test_dimension_mismatch_raises():
    model = GPModel.empty(KernelSpec(PRODUCT, (0.3, 0.3, 0.3), 1.0), 1e-3)
    with pytest.raises(ValueError, match=r"expected 3-dim points, got shape \(1, 2\)"):
        model.posterior_batch([[0.5, 0.5]])
    with pytest.raises(ValueError, match=r"expected 3-dim points, got shape \(1, 1\)"):
        model.add_observation([0.5], 1.0)


def test_non_finite_target_rejected():
    model = GPModel.empty(KernelSpec(PRODUCT, (0.3, 0.3, 0.3), 1.0), 1e-3)
    with pytest.raises(ValueError, match="non-finite target values rejected"):
        model.add_observation([0.5, 0.5, 0.5], math.nan)


def test_kernel_symmetry_and_signal_variance_diagonal():
    rng = np.random.default_rng(8)
    for _ in range(2):
        spec = random_spec(rng)
        x = rng.uniform(0.0, 1.0, (6, 3))
        k = kernel_matrix(spec, x)
        np.testing.assert_allclose(k, k.T, atol=1e-14)
        np.testing.assert_allclose(np.diag(k), spec.signal_variance, atol=1e-14)
        cross = kernel_matrix(spec, x[:2], x[2:])
        np.testing.assert_allclose(cross, kernel_matrix(spec, x[2:], x[:2]).T, rtol=1e-14)


def test_product_kernel_factorizes():
    # product family = Matern over the two gain dims times SE over context
    spec = KernelSpec(PRODUCT, (0.3, 0.5, 0.7), 1.7)
    a = np.array([[0.1, 0.2, 0.3]])
    b = np.array([[0.6, 0.1, 0.9]])
    r = math.hypot((0.1 - 0.6) / 0.3, (0.2 - 0.1) / 0.5)
    matern = (1.0 + math.sqrt(5.0) * r + 5.0 / 3.0 * r**2) * math.exp(-math.sqrt(5.0) * r)
    context_factor = math.exp(-0.5 * ((a[0, 2] - b[0, 2]) / 0.7) ** 2)
    want = 1.7 * matern * context_factor
    np.testing.assert_allclose(kernel_matrix(spec, a, b), [[want]], rtol=1e-12)
    # at a shared context the product is its gain factor alone
    same = np.array([[0.6, 0.1, 0.3]])
    np.testing.assert_allclose(kernel_matrix(spec, a, same), [[1.7 * matern]], rtol=1e-12)
    np.testing.assert_allclose(kernel_matrix(spec, a, same), gain_matern52(spec, a, same), rtol=1e-12)


def test_kernel_spec_roundtrip_and_validation():
    spec = KernelSpec(PRODUCT, (0.3, 0.5, 0.7), 1.7)
    assert KernelSpec.from_dict(spec.to_dict()) == spec
    with pytest.raises(ValueError):
        KernelSpec("cubic", (0.3, 0.3, 0.3), 1.0)
    with pytest.raises(ValueError):
        KernelSpec("matern52", (0.3, 0.3), 1.0)  # the retired gain-only family
    with pytest.raises(ValueError):
        KernelSpec(PRODUCT, (0.3, -0.5, 0.3), 1.0)
    with pytest.raises(ValueError):
        KernelSpec(PRODUCT, (0.3, 0.5), 1.0)  # needs the context dim
    with pytest.raises(ValueError):
        KernelSpec(PRODUCT, (0.3, 0.3, 0.3), 0.0)


def lml_value(theta, template, x, y, with_basis):
    return log_marginal_likelihood(np.asarray(theta, dtype=float), template, x, y, with_basis)[0]


def test_lml_gradient_matches_finite_differences():
    rng = np.random.default_rng(17)
    template = KernelSpec(PRODUCT, (0.3, 0.3, 0.3), 1.0)
    x = rng.uniform(0.0, 1.0, (25, 3))
    y = np.sin(3 * x[:, 0]) + 0.5 * x[:, 2] + 0.05 * rng.normal(size=25)
    for with_basis in (False, True):
        theta = rng.uniform(math.log(0.2), math.log(1.5), 5)
        _, grad = log_marginal_likelihood(theta, template, x, y, with_basis)
        eps = 1e-5
        for i in range(5):
            up, down = theta.copy(), theta.copy()
            up[i] += eps
            down[i] -= eps
            fd = (lml_value(up, template, x, y, with_basis) - lml_value(down, template, x, y, with_basis)) / (
                2 * eps
            )
            assert grad[i] == pytest.approx(fd, rel=1e-4, abs=1e-5)


def dense_lml(theta, template, x, y, with_basis):
    """Reference value and gradient: an explicit inverse and one dense
    dK/dtheta_j per parameter, contracted as in GPML eq. 5.9."""
    ells, s2, noise = np.exp(theta[:3]), math.exp(theta[3]), math.exp(theta[4])
    n = y.size
    sq = np.stack([np.subtract.outer(x[:, i], x[:, i]) ** 2 / ell**2 for i, ell in enumerate(ells)])
    r = np.sqrt(sq[0] + sq[1])
    ctx = np.exp(-0.5 * sq[2])
    gram = s2 * (1.0 + math.sqrt(5.0) * r + 5.0 / 3.0 * r**2) * np.exp(-math.sqrt(5.0) * r) * ctx
    jitter = JITTER * s2
    cov = gram + (noise + jitter) * np.eye(n)
    cov_inv = np.linalg.inv(cov)
    resid = y - (np.sum(cov_inv @ y) / np.sum(cov_inv) if with_basis else 0.0)
    a = cov_inv @ resid
    value = -0.5 * resid @ a - 0.5 * np.linalg.slogdet(cov)[1] - 0.5 * n * math.log(2 * math.pi)
    # d m52(r) / d log(ell_i) = -(5/3) r (1 + sqrt5 r) exp(-sqrt5 r) * dr/dlog(ell_i)
    dprof = s2 * 5.0 / 3.0 * (1.0 + math.sqrt(5.0) * r) * np.exp(-math.sqrt(5.0) * r) * ctx
    grads = [dprof * sq[0], dprof * sq[1], gram * sq[2]]
    grads += [gram + jitter * np.eye(n), noise * np.eye(n)]
    return value, np.array([0.5 * a @ g @ a - 0.5 * np.sum(cov_inv * g) for g in grads])


_LOG_LENGTHSCALE = st.floats(math.log(LENGTHSCALE_BOUNDS[0]), math.log(LENGTHSCALE_BOUNDS[1]))
_LOG_VARIANCE = st.floats(math.log(VARIANCE_BOUNDS[0]), math.log(VARIANCE_BOUNDS[1]))


@settings(max_examples=150, deadline=None)
@given(
    with_basis=st.booleans(),
    n=st.integers(10, 145),
    duplicates=st.integers(0, 5),
    data_seed=st.integers(0, 2**32 - 1),
    log_ells=st.lists(_LOG_LENGTHSCALE, min_size=3, max_size=3),
    log_variances=st.lists(_LOG_VARIANCE, min_size=2, max_size=2),
)
def test_lml_matches_dense_reference(with_basis, n, duplicates, data_seed, log_ells, log_variances):
    """Value and gradient against the dense reference, anywhere in the fit
    box, with exact duplicate rows; the gradient bound is relative to its
    largest component."""
    template = KernelSpec(PRODUCT, (0.3, 0.3, 0.3), 1.0)
    rng = np.random.default_rng(data_seed)
    x = rng.uniform(0.0, 1.0, (n, 3))
    x[:duplicates] = x[n - duplicates :]
    y = 2.0 + rng.normal(size=n)
    theta = np.array(log_ells + log_variances)
    value, grad = log_marginal_likelihood(theta, template, x, y, with_basis)
    want_value, want_grad = dense_lml(theta, template, x, y, with_basis)
    assert value == pytest.approx(want_value, rel=1e-9)
    assert np.max(np.abs(grad - want_grad)) <= 1e-9 * np.max(np.abs(want_grad))


def test_fit_recovers_plausible_model_and_is_stationary():
    rng = np.random.default_rng(23)
    true = KernelSpec(PRODUCT, (0.4, 0.4, 0.4), 1.5)
    x = rng.uniform(0.0, 1.0, (60, 3))
    k = kernel_matrix(true, x)
    f = np.linalg.cholesky(k + 1e-10 * np.eye(60)) @ rng.normal(size=60)
    y = f + 0.1 * rng.normal(size=60)
    result = fit_hyperparameters(KernelSpec(PRODUCT, (0.3, 0.3, 0.3), 1.0), x, y, seed=1)
    assert not result.degenerate
    assert math.isfinite(result.log_marginal_likelihood)
    model = result.build()
    assert model.kernel.input_dim == 3
    # first-order optimality at the fitted point: near-zero gradient in
    # the interior, and at a box bound the gradient may only push outward
    theta = np.log(list(result.kernel.lengthscales) + [result.kernel.signal_variance, result.noise_variance])
    lo = np.log([LENGTHSCALE_BOUNDS[0]] * 3 + [VARIANCE_BOUNDS[0]] * 2)
    hi = np.log([LENGTHSCALE_BOUNDS[1]] * 3 + [VARIANCE_BOUNDS[1]] * 2)
    _, grad = log_marginal_likelihood(theta, true, x, y, False)
    tol = 1e-3 * max(1.0, float(np.linalg.norm(theta)))
    for i in range(theta.size):
        if theta[i] <= lo[i] + 1e-8:
            assert grad[i] <= tol
        elif theta[i] >= hi[i] - 1e-8:
            assert grad[i] >= -tol
        else:
            assert abs(grad[i]) <= tol


def projected_fd_gradient(theta, template, x, y, with_basis, eps=1e-5):
    """Criterion 2's central finite-difference LML gradient at theta, with
    each component that pushes out of the box at a bound set to zero."""
    fd = np.empty(theta.size)
    for i in range(theta.size):
        step = np.where(np.arange(theta.size) == i, eps, 0.0)
        fd[i] = (
            log_marginal_likelihood(theta + step, template, x, y, with_basis)[0]
            - log_marginal_likelihood(theta - step, template, x, y, with_basis)[0]
        ) / (2 * eps)
    lo = np.log([LENGTHSCALE_BOUNDS[0]] * 3 + [VARIANCE_BOUNDS[0]] * 2)
    hi = np.log([LENGTHSCALE_BOUNDS[1]] * 3 + [VARIANCE_BOUNDS[1]] * 2)
    fd[(theta <= lo + 1e-8) & (fd < 0)] = 0.0
    fd[(theta >= hi - 1e-8) & (fd > 0)] = 0.0
    return fd


def random_kernel_data(n, data_seed):
    """n inputs and noisy targets drawn from a random true kernel, with a
    random noise variance and a random constant offset."""
    rng = np.random.default_rng(data_seed)
    true = random_spec(rng)
    x = rng.uniform(0.0, 1.0, (n, 3))
    latent = np.linalg.cholesky(kernel_matrix(true, x) + 1e-10 * np.eye(n)) @ rng.normal(size=n)
    return x, latent + math.sqrt(rng.uniform(1e-3, 0.3)) * rng.normal(size=n) + rng.normal()


@settings(max_examples=50, deadline=None)
@given(
    n=st.integers(10, 60),
    with_basis=st.booleans(),
    data_seed=st.integers(0, 2**32 - 1),
    fit_seed=st.integers(0, 2**32 - 1),
)
# the best start stalls on a collapsed line search, far from stationary
@example(n=42, with_basis=False, data_seed=0, fit_seed=0)
def test_a_fit_stops_where_the_likelihood_is_stationary(n, with_basis, data_seed, fit_seed):
    """Over data drawn from random true kernels, a fit that stops at
    FTOL / GTOL reaches the fitted LML of one run to the tolerances
    1e-14 / 1e-10 to within 1e-6 max(1, |LML|), and criterion 2's
    projected finite-difference gradient bound holds at its theta."""
    x, y = random_kernel_data(n, data_seed)
    fit = fit_hyperparameters(_TEMPLATE, x, y, with_basis=with_basis, seed=fit_seed)
    with mock.patch.object(gp, "FTOL", 1e-14), mock.patch.object(gp, "GTOL", 1e-10):
        tight = fit_hyperparameters(_TEMPLATE, x, y, with_basis=with_basis, seed=fit_seed)
    lml = tight.log_marginal_likelihood
    assert fit.log_marginal_likelihood >= lml - 1e-6 * max(1.0, abs(lml))
    theta = np.log([*fit.kernel.lengthscales, fit.kernel.signal_variance, fit.noise_variance])
    proj = projected_fd_gradient(theta, _TEMPLATE, x, y, with_basis)
    assert np.linalg.norm(proj) <= 1e-3 * max(1.0, float(np.linalg.norm(theta)))


def test_a_start_that_stalls_off_a_stationary_point_runs_again():
    """On this data L-BFGS-B stops the first start on a line search whose
    step vanished, far from stationary; the start then runs again from
    where it stopped, ends within criterion 2's bound at a higher LML,
    and counts the evaluations of both runs."""
    x, y = random_kernel_data(42, 0)
    plan = gp.fit_starts(_TEMPLATE, x, y, seed=0)
    task = (*plan[:-1], plan.starts[:1])
    with mock.patch.object(gp, "RESTARTS", 0):
        [stalled] = gp._run_starts(*task)
    [restarted] = gp._run_starts(*task)
    grad = lambda theta: -log_marginal_likelihood(theta, _TEMPLATE, x, y, False)[1]
    assert gp._projected_gradient_norm(stalled.theta, grad(stalled.theta), plan.bounds) > 100 * gp.STATIONARY
    assert gp._projected_gradient_norm(restarted.theta, grad(restarted.theta), plan.bounds) <= gp.STATIONARY
    assert restarted.fun < stalled.fun - 1.0
    assert restarted.evaluations > stalled.evaluations


def test_fit_constant_targets_short_circuits():
    x = np.random.default_rng(0).uniform(0, 1, (15, 3))
    result = fit_hyperparameters(KernelSpec(PRODUCT, (0.3, 0.3, 0.3), 1.0), x, np.full(15, 0.7), with_basis=True)
    assert result.degenerate and result.evaluations == 0
    assert result.basis_coefficient == pytest.approx(0.7)


def test_fit_requires_enough_samples():
    x = np.zeros((5, 3))
    with pytest.raises(ValueError):
        fit_hyperparameters(KernelSpec(PRODUCT, (0.3, 0.3, 0.3), 1.0), x, np.arange(5.0))


def allocating_lml(theta, template, x, y, with_basis):
    """The likelihood body as it was before the reusable workspace: fresh
    (n, n) temporaries, scipy's checked Cholesky and solves. Kept as the
    bit-for-bit reference of the in-place form."""
    ells = tuple(float(v) for v in np.exp(theta[:3]))
    s2, noise = float(np.exp(theta[3])), float(np.exp(theta[4]))
    n = x.shape[0]
    sq = np.empty((3, n, n))
    for i, ell in enumerate(ells):
        sq[i] = ((x[:, i, None] - x[None, :, i]) / ell) ** 2
    r = np.sqrt(sq[0] + sq[1])
    decay = np.exp(-math.sqrt(5.0) * r)
    lin = 1.0 + math.sqrt(5.0) * r
    gram = np.square(r, out=r)
    gram *= 5.0 / 3.0
    gram += lin
    gram *= decay
    dprof = lin
    dprof *= decay
    dprof *= s2 * (5.0 / 3.0)
    se = np.exp(-0.5 * sq[2])
    gram *= se
    dprof *= se
    gram *= s2
    jitter = JITTER * s2
    cov = gram.copy()
    cov[np.diag_indices(n)] += noise + jitter
    factor = cholesky(cov, lower=True)
    if with_basis:
        ones = np.ones(n)
        ci_y = cho_solve((factor, True), y)
        ci_1 = cho_solve((factor, True), ones)
        resid = y - float(ones @ ci_y) / float(ones @ ci_1)
    else:
        resid = y
    a = cho_solve((factor, True), resid)
    lml = -0.5 * float(resid @ a) - float(np.sum(np.log(np.diag(factor)))) - 0.5 * n * math.log(2 * math.pi)
    cov_inv, info = dpotri(factor, lower=1, overwrite_c=1)
    assert info == 0
    w = np.outer(a, a)
    w -= np.tril(cov_inv)
    w -= np.tril(cov_inv, -1).T
    tr_w = float(np.trace(w))
    dprof *= w
    w *= gram
    grad = 0.5 * np.concatenate(
        [
            sq[:2].reshape(2, n * n) @ dprof.ravel(),
            sq[2:].reshape(1, n * n) @ w.ravel(),
            [float(np.sum(w)) + jitter * tr_w, noise * tr_w],
        ]
    )
    return lml, grad


def lml_bits(value, grad) -> bytes:
    return np.float64(value).tobytes() + np.asarray(grad, dtype=np.float64).tobytes()


_THETA = st.tuples(*[_LOG_LENGTHSCALE] * 3, *[_LOG_VARIANCE] * 2).map(np.array)


@settings(max_examples=60, deadline=None)
@given(
    with_basis=st.booleans(),
    n=st.integers(10, 160),
    duplicates=st.integers(0, 5),
    data_seed=st.integers(0, 2**32 - 1),
    thetas=st.lists(_THETA, min_size=1, max_size=4),
)
def test_reused_workspace_is_bit_identical(with_basis, n, duplicates, data_seed, thetas):
    """One workspace reused over a sequence of theta in the fit box gives
    the bits of a fresh-workspace call and of the allocating reference."""
    template = KernelSpec(PRODUCT, (0.3, 0.3, 0.3), 1.0)
    rng = np.random.default_rng(data_seed)
    x = rng.uniform(0.0, 1.0, (n, 3))
    x[:duplicates] = x[n - duplicates :]
    y = 2.0 + rng.normal(size=n)
    workspace = LikelihoodWorkspace(x)
    for theta in thetas:
        reused = lml_bits(*log_marginal_likelihood(theta, template, x, y, with_basis, workspace=workspace))
        assert reused == lml_bits(*log_marginal_likelihood(theta, template, x, y, with_basis))
        assert reused == lml_bits(*allocating_lml(theta, template, x, y, with_basis))


@pytest.mark.parametrize("with_basis", [False, True])
def test_fit_equals_one_driven_by_the_allocating_reference(monkeypatch, with_basis):
    """The fit calls the module-level likelihood; driven by the reference
    body instead it reaches the same FitResult."""
    rng = np.random.default_rng(31)
    x = rng.uniform(0.0, 1.0, (40, 3))
    x[:3] = x[-3:]
    y = np.sin(4 * x[:, 0]) + x[:, 2] + 0.1 * rng.normal(size=40)
    template = KernelSpec(PRODUCT, (0.3, 0.3, 0.3), 1.0)
    fit = fit_hyperparameters(template, x, y, with_basis=with_basis, seed=3)
    calls = []

    def reference(theta, template, x, y, with_basis, workspace=None):
        calls.append(workspace)
        return allocating_lml(theta, template, x, y, with_basis)

    monkeypatch.setattr(gp, "log_marginal_likelihood", reference)
    want = fit_hyperparameters(template, x, y, with_basis=with_basis, seed=3)
    assert isinstance(want, FitResult) and fit == want
    assert len(calls) > 10 and all(ws is calls[0] for ws in calls)  # one workspace per fit


@settings(max_examples=10, deadline=None)
@given(
    n=st.integers(10, 25),
    k=st.integers(1, 6),
    with_basis=st.booleans(),
    data_seed=st.integers(0, 2**32 - 1),
    fit_seed=st.integers(0, 2**32 - 1),
)
def test_a_pooled_fit_equals_the_fit_without_a_pool(n, k, with_basis, data_seed, fit_seed):
    """However many CPUs the pool sees, and so however the starts are
    split between this process and its workers, the pool gives each of
    the first k of six starts the outcome it has when every start runs
    here, and a pooled fit is the same FitResult as the one without a
    pool. A pool opened on a batch of more than one start starts a
    worker per further process it splits the batch over; one CPU, or a
    batch of one start, starts none, and none is left after the block."""
    rng = np.random.default_rng(data_seed)
    x = rng.uniform(0.0, 1.0, (n, 3))
    y = np.sin(4 * x[:, 0]) + x[:, 2] + 0.1 * rng.normal(size=n)
    template = KernelSpec(PRODUCT, (0.3, 0.3, 0.3), 1.0)
    lo = np.log([LENGTHSCALE_BOUNDS[0]] * 3 + [VARIANCE_BOUNDS[0]] * 2)
    hi = np.log([LENGTHSCALE_BOUNDS[1]] * 3 + [VARIANCE_BOUNDS[1]] * 2)
    starts_rng = np.random.default_rng(fit_seed)
    task = gp.FitStarts(
        template, x, y, with_basis, list(zip(lo, hi)), [starts_rng.uniform(lo, hi) for _ in range(6)][:k]
    )
    want = [outcome._replace(theta=outcome.theta.tolist()) for outcome in gp._run_starts(*task)]
    plan = gp.fit_starts(template, x, y, with_basis=with_basis, seed=fit_seed)
    want_fit = fit_hyperparameters(template, x, y, with_basis=with_basis, seed=fit_seed)
    for cpus in (1, 2, 3):
        with mock.patch.object(gp, "_cpu_count", lambda: cpus), StartPool([task]) as pool:
            assert pool.size == min(cpus, gp.N_STARTS)
            got = [outcome._replace(theta=outcome.theta.tolist()) for outcome in pool.run(task)]
            assert len(multiprocessing.active_children()) == min(pool.size, k) - 1
        with mock.patch.object(gp, "_cpu_count", lambda: cpus), StartPool([plan]) as pool:
            got_fit = fit_hyperparameters(template, x, y, with_basis=with_basis, seed=fit_seed, pool=pool)
        assert got == want
        assert got_fit == want_fit
        assert multiprocessing.active_children() == []


def test_a_fit_that_raises_in_a_pool_leaves_the_pool_usable_and_no_worker_behind(monkeypatch):
    """A start that raises in a worker raises in the caller; the pool's
    next fit is still exact, and leaving the block by an exception stops
    and joins every worker."""
    monkeypatch.setattr(gp, "_cpu_count", lambda: 2)
    rng = np.random.default_rng(5)
    x = rng.uniform(0.0, 1.0, (20, 3))
    y = np.sin(4 * x[:, 0]) + 0.1 * rng.normal(size=20)
    bad = np.where(np.arange(20) == 3, np.nan, y)
    template = KernelSpec(PRODUCT, (0.3, 0.3, 0.3), 1.0)
    with pytest.raises(RuntimeError, match="leaving the block"):
        with StartPool([gp.fit_starts(template, x, bad), gp.fit_starts(template, x, y)]) as pool:
            with pytest.raises(ValueError, match="non-finite target"):  # start 0 runs in the worker
                fit_hyperparameters(template, x, bad, pool=pool)
            assert len(multiprocessing.active_children()) == 1
            assert fit_hyperparameters(template, x, y, pool=pool) == fit_hyperparameters(template, x, y)
            raise RuntimeError("leaving the block")
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("fault", [BrokenProcessPool, KeyboardInterrupt])
def test_a_pooled_fit_cut_short_raises_and_leaves_no_worker(fault, monkeypatch):
    """A worker killed in the middle of its share makes the fit raise
    BrokenProcessPool, not hang; an interrupt in the caller's share
    propagates. Either way leaving the block joins every worker."""
    monkeypatch.setattr(gp, "_cpu_count", lambda: 2)
    caller = os.getpid()
    lml = gp.log_marginal_likelihood

    def cut_short(*args, **kwargs):
        if fault is BrokenProcessPool and os.getpid() != caller:
            os.kill(os.getpid(), signal.SIGKILL)
        if fault is KeyboardInterrupt and os.getpid() == caller:
            raise KeyboardInterrupt
        return lml(*args, **kwargs)

    monkeypatch.setattr(gp, "log_marginal_likelihood", cut_short)
    rng = np.random.default_rng(5)
    x = rng.uniform(0.0, 1.0, (20, 3))
    y = np.sin(4 * x[:, 0]) + 0.1 * rng.normal(size=20)
    template = KernelSpec(PRODUCT, (0.3, 0.3, 0.3), 1.0)
    with pytest.raises(fault):
        with StartPool([gp.fit_starts(template, x, y)]) as pool:
            fit_hyperparameters(template, x, y, pool=pool)
    assert multiprocessing.active_children() == []


def batch_fits(n, specs, data_seed):
    """Inputs and one (targets, basis flag, start seed) per fit, for fits
    that share their inputs as a calibration's do; ``specs`` holds
    (constant targets, basis flag, start seed) per fit."""
    rng = np.random.default_rng(data_seed)
    x = rng.uniform(0.0, 1.0, (n, 3))
    fits = []
    for i, (constant, with_basis, seed) in enumerate(specs):
        noise = 0.1 * rng.normal(size=n)
        y = np.full(n, 0.25 * i) if constant else np.sin((2 + i) * x[:, 0]) + x[:, 2] + noise
        fits.append((y, with_basis, seed))
    return x, fits


def pool_plans(x, fits):
    """The :func:`fit_starts` result of each fit, the batch a pool for
    ``fits`` is opened on."""
    return [gp.fit_starts(_TEMPLATE, x, y, with_basis=b, seed=s) for y, b, s in fits]


def pooled_fits(x, fits):
    """The FitResults of ``fits``, asked in turn of one pool opened on
    all of them."""
    with StartPool(pool_plans(x, fits)) as pool:
        return [fit_hyperparameters(_TEMPLATE, x, y, with_basis=b, seed=s, pool=pool) for y, b, s in fits]


@settings(max_examples=5, deadline=None)
@given(
    n=st.integers(10, 16),
    specs=st.lists(
        st.tuples(st.booleans(), st.booleans(), st.integers(0, 2**32 - 1)), min_size=1, max_size=7
    ),
    data_seed=st.integers(0, 2**32 - 1),
)
def test_a_queued_batch_of_fits_equals_the_fits_without_a_pool(n, specs, data_seed):
    """However many CPUs the pool sees, the starts of the 1-7 fits a pool
    is opened on, split round-robin over the batch, give every fit the
    bits of its fit without a pool, and the batch's likelihood
    evaluations, summed over every process, equal those of the fits
    without a pool; a fit with constant targets needs no start, counts
    none and is passed over by the pool. No worker is left after the
    block."""
    x, fits = batch_fits(n, specs, data_seed)
    unpooled = [fit_hyperparameters(_TEMPLATE, x, y, with_basis=b, seed=s) for y, b, s in fits]
    evaluations = sum(fit.evaluations for fit in unpooled)
    assert evaluations >= sum(not fit.degenerate for fit in unpooled) * gp.N_STARTS
    for cpus in (1, 2, 3):
        with mock.patch.object(gp, "_cpu_count", lambda: cpus):
            got = pooled_fits(x, fits)
        assert list(map(repr, got)) == list(map(repr, unpooled))
        assert sum(fit.evaluations for fit in got) == evaluations
        assert multiprocessing.active_children() == []


@pytest.mark.parametrize("asked", [1, 3], ids=["out_of_turn", "not_in_the_batch"])
def test_a_fit_other_than_the_next_of_the_batch_is_refused(monkeypatch, asked):
    """A pool serves only the next fit of the batch it was opened on: the
    batch's second fit asked for first, or a fit that is not in the
    batch, raises ValueError. Leaving the block by that error joins every
    worker, and the pool then serves no fit at all, not even the one
    that headed its batch."""
    monkeypatch.setattr(gp, "_cpu_count", lambda: 2)
    x, fits = batch_fits(20, [(False, i % 2 == 0, 7 + i) for i in range(4)], 11)
    pool = StartPool(pool_plans(x, fits[:3]))
    with pytest.raises(ValueError, match="next fit of the pool's batch"):
        with pool:
            assert len(multiprocessing.active_children()) == 1
            y, b, s = fits[asked]
            fit_hyperparameters(_TEMPLATE, x, y, with_basis=b, seed=s, pool=pool)
    assert multiprocessing.active_children() == []
    y, b, s = fits[0]
    with pytest.raises(ValueError, match="next fit of the pool's batch"):
        fit_hyperparameters(_TEMPLATE, x, y, with_basis=b, seed=s, pool=pool)
    assert multiprocessing.active_children() == []


def test_a_start_that_raises_inside_a_batch_raises_at_its_own_fit(monkeypatch):
    """A fit whose starts raise, in the worker and in the caller alike,
    raises when it is asked for, and not before; the fits of the batch
    around it still equal their fits without a pool."""
    monkeypatch.setattr(gp, "_cpu_count", lambda: 2)
    x, fits = batch_fits(20, [(False, True, 1), (False, False, 2), (False, True, 3)], 5)
    fits[1] = (np.where(np.arange(20) == 3, np.nan, fits[1][0]), False, 2)
    want = [repr(fit_hyperparameters(_TEMPLATE, x, y, with_basis=b, seed=s)) for y, b, s in (fits[0], fits[2])]
    with StartPool(pool_plans(x, fits)) as pool:
        got = [repr(fit_hyperparameters(_TEMPLATE, x, fits[0][0], with_basis=True, seed=1, pool=pool))]
        with pytest.raises(ValueError, match="non-finite target"):
            fit_hyperparameters(_TEMPLATE, x, fits[1][0], seed=2, pool=pool)
        got.append(repr(fit_hyperparameters(_TEMPLATE, x, fits[2][0], with_basis=True, seed=3, pool=pool)))
    assert got == want
    assert multiprocessing.active_children() == []


def test_leaving_the_block_with_fits_queued_cancels_them_and_leaves_no_worker(monkeypatch):
    """An exception after the first of the seven fits a pool was opened
    on leaves the block: every worker share of the batch is then
    finished or cancelled, and no worker is left."""
    monkeypatch.setattr(gp, "_cpu_count", lambda: 2)
    x, fits = batch_fits(20, [(False, i < 4, 30 + i) for i in range(7)], 9)
    with pytest.raises(RuntimeError, match="leaving the block"):
        with StartPool(pool_plans(x, fits)) as pool:
            futures = [future for entry in pool._batch for future in entry[2]]
            fit_hyperparameters(_TEMPLATE, x, fits[0][0], with_basis=True, seed=30, pool=pool)
            raise RuntimeError("leaving the block")
    assert len(futures) == 7 and all(future.done() for future in futures)
    assert multiprocessing.active_children() == []


def test_the_callers_share_of_a_batch_repeats_from_run_to_run(monkeypatch):
    """The batch is split statically: at two processes the caller runs
    the odd-numbered starts of the batch, counted in fit order, so its
    likelihood calls are those of exactly those starts, in every run."""
    monkeypatch.setattr(gp, "_cpu_count", lambda: 2)
    x, fits = batch_fits(20, [(i == 2, i < 4, 50 + i) for i in range(7)], 13)
    plans = pool_plans(x, fits)
    caller = os.getpid()
    calls = []
    lml = gp.log_marginal_likelihood

    def counted(*args, **kwargs):
        if os.getpid() == caller:
            calls.append(None)
        return lml(*args, **kwargs)

    monkeypatch.setattr(gp, "log_marginal_likelihood", counted)
    starts = [plan for plan in plans if isinstance(plan, gp.FitStarts)]
    assert len(starts) == 6  # the constant fit is passed over
    for first, plan in zip(range(0, 30, 5), starts):
        gp._run_starts(*plan[:-1], [plan.starts[i] for i in range(5) if (first + i) % 2 == 1])
    want = len(calls)
    for _ in range(3):
        calls.clear()
        pooled_fits(x, fits)
        assert len(calls) == want
    assert multiprocessing.active_children() == []


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods() or not hasattr(ctypes.CDLL(None), "prctl"),
    reason="needs fork and prctl",
)
def test_a_worker_whose_owner_is_gone_exits_at_once():
    """A worker forked just before its owner died would never get the
    death signal; its initializer sees another parent and exits with
    status 1, where one whose owner lives returns."""
    fork = multiprocessing.get_context("fork")
    for owner, status in ((-1, 1), (os.getpid(), 0)):
        worker = fork.Process(target=gp._start_worker, args=(owner,))
        worker.start()
        worker.join(timeout=30)
        assert worker.exitcode == status


def reference_basis_coefficient(spec, noise, x, y):
    """The fit's basis coefficient as it was computed before it came from a
    with_data model: a second Gram build by kernel_matrix, scipy's checked
    Cholesky and cho_solve. Kept as the bit-for-bit reference."""
    cov = kernel_matrix(spec, x)
    cov[np.diag_indices_from(cov)] += noise + JITTER * spec.signal_variance
    factor = cholesky(cov, lower=True)
    ones = np.ones(x.shape[0])
    return float(ones @ cho_solve((factor, True), y)) / float(ones @ cho_solve((factor, True), ones))


@settings(max_examples=20, deadline=None)
@given(n=st.integers(10, 60), data=st.data(), data_seed=st.integers(0, 2**32 - 1))
def test_fit_basis_coefficient_equals_the_dense_reference(n, data, data_seed):
    """FitResult.basis_coefficient, taken from a with_data model, equals
    the kernel_matrix + cholesky + cho_solve reference bit for bit, over
    inputs with repeated rows."""
    distinct = data.draw(st.integers(1, n), label="distinct rows")
    rng = np.random.default_rng(data_seed)
    rows = rng.uniform(0.0, 1.0, (distinct, 3))
    x = rows[rng.permutation(np.concatenate([np.arange(distinct), rng.integers(0, distinct, n - distinct)]))]
    y = np.sin(4 * x[:, 0]) + x[:, 2] + 0.1 * rng.normal(size=n)
    fit = fit_hyperparameters(KernelSpec(PRODUCT, (0.3, 0.3, 0.3), 1.0), x, y, with_basis=True)
    assert fit.basis_coefficient == reference_basis_coefficient(fit.kernel, fit.noise_variance, x, y)


def test_reused_workspace_allocates_less_than_one_square_array():
    """After a warm-up call, a call on a reused workspace at n = 145 traces
    a peak below one (n, n) float64 array: no per-call (n, n) temporaries."""
    n = 145
    rng = np.random.default_rng(2)
    x = rng.uniform(0.0, 1.0, (n, 3))
    y = rng.normal(size=n)
    template = KernelSpec(PRODUCT, (0.3, 0.3, 0.3), 1.0)
    theta = np.log([0.3, 0.4, 0.5, 1.0, 0.01])
    workspace = LikelihoodWorkspace(x)
    log_marginal_likelihood(theta, template, x, y, True, workspace=workspace)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        log_marginal_likelihood(theta, template, x, y, True, workspace=workspace)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < n * n * 8


def lml_case(n=20, seed=4):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, 1.0, (n, 3))
    return KernelSpec(PRODUCT, (0.3, 0.3, 0.3), 1.0), x, rng.normal(size=n), np.log([0.3, 0.4, 0.5, 1.0, 0.01])


@pytest.mark.parametrize("position", [0, 3, 4])
def test_lml_rejects_a_nan_theta(position):
    template, x, y, theta = lml_case()
    theta[position] = math.nan
    with pytest.raises(ValueError) as raised:
        log_marginal_likelihood(theta, template, x, y, False)
    assert not isinstance(raised.value, np.linalg.LinAlgError)  # caught before LAPACK sees it


@pytest.mark.parametrize("with_basis", [False, True])
def test_lml_rejects_a_nan_target(with_basis):
    template, x, y, theta = lml_case()
    y[5] = math.nan
    with pytest.raises(ValueError):
        log_marginal_likelihood(theta, template, x, y, with_basis)


def test_lml_rejects_a_workspace_of_other_inputs():
    template, x, y, theta = lml_case()
    with pytest.raises(ValueError):
        log_marginal_likelihood(theta, template, x, y, False, workspace=LikelihoodWorkspace(x.copy()))


@pytest.mark.parametrize("routine", ["dpotrf", "dpotri"])
def test_lml_raises_when_lapack_reports_failure(monkeypatch, routine):
    """A non-positive-definite minor (potrf) or a singular factor (potri)
    raises LinAlgError, as scipy's checked wrappers did."""
    original = getattr(gp, routine)

    def failing(*args, **kwargs):
        result, _ = original(*args, **kwargs)
        return result, 3

    monkeypatch.setattr(gp, routine, failing)
    template, x, y, theta = lml_case()
    with pytest.raises(np.linalg.LinAlgError):
        log_marginal_likelihood(theta, template, x, y, False)


def test_fit_result_counts_hyperparameters_on_a_bound():
    spec = KernelSpec(PRODUCT, (LENGTHSCALE_BOUNDS[0], 0.3, LENGTHSCALE_BOUNDS[1]), VARIANCE_BOUNDS[1])
    assert FitResult(spec, VARIANCE_BOUNDS[0], None, -1.0).on_bound == 4
    assert FitResult(KernelSpec(PRODUCT, (0.3, 0.3, 0.3), 1.0), 0.01, None, -1.0).on_bound == 0
