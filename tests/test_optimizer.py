import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import norm

from roomtune import gp, optimizer
from roomtune.costs import NormalizedCosts
from roomtune.gp import PRODUCT, GPModel, KernelSpec
from roomtune.optimizer import (
    DEFAULT_BETA,
    METHOD_BO,
    METHOD_CBO,
    METHOD_SCBO,
    ContextScaler,
    FOPDTModel,
    GainDomain,
    Observation,
    OptimizerState,
    Proposal,
    QueryWorkspace,
    acquire,
    contextual_kernel_template,
    fit_fopdt,
    gain_schedule,
    propose,
    safe_set,
    state_at_day,
    state_from_json,
    state_to_json,
    surrogate_data,
    update,
    zn_pi_gains,
)
from roomtune.pid import PIGains

WEIGHTS = (0.25, 0.25, 0.25, 0.25)
THRESHOLDS = (1.0, 1.0, 1.0)


def combined_posterior(state, x):
    """Reference posterior of the weighted cost sum at ``x``: sum w_i m_i
    and sum w_i**2 v_i over float64 weights, accumulated in model order."""
    means = variances = None
    for model, wi in zip(state.cost_models, np.asarray(state.weights, dtype=float)):
        m, v = model.posterior_batch(x)
        means = wi * m if means is None else means + wi * m
        variances = wi**2 * v if variances is None else variances + wi**2 * v
    return means, variances


def small_domain(size=5):
    return GainDomain.build((0.1, 10.0), (0.001, 0.1), size, (1.0, 0.01))


def make_state(method, domain=None, noise=1e-6, epsilon=0.05):
    domain = domain or small_domain()
    spec = contextual_kernel_template()
    scaler = None if method == METHOD_BO else ContextScaler(-15.0, 15.0)
    costs = tuple(GPModel.empty(spec, noise, 0.5) for _ in range(4))
    constraints = tuple(GPModel.empty(spec, noise) for _ in range(3)) if method == METHOD_SCBO else ()
    return OptimizerState(
        method=method,
        domain=domain,
        scaler=scaler,
        weights=WEIGHTS,
        thresholds=THRESHOLDS,
        cost_models=costs,
        constraint_models=constraints,
        epsilon=epsilon,
    )


def costs_of(j1, j2=None, j3=None, j4=0.3):
    j2 = j1 if j2 is None else j2
    j3 = j1 if j3 is None else j3
    return NormalizedCosts(j1, j2, j3, j4, 0.25 * (j1 + j2 + j3 + j4))


def observe_grid(state, margins, oat=0.0):
    """Evaluate every grid point once; constraint margin = cost - 1."""
    for index, margin in enumerate(margins):
        g = state.domain.gains_at(index)
        state = update(state, g, oat, costs_of(1.0 + margin), day=index + 1)
    return state


# ---------------------------------------------------------------------------
# gain domain and context scaling
# ---------------------------------------------------------------------------


def test_default_domain_build():
    d = GainDomain.build()
    assert d.kp_values.size == 40 and d.ki_values.size == 40
    assert d.size == 1600
    assert np.all(np.diff(d.kp_values) > 0)
    assert np.all(np.diff(d.ki_values) > 0)
    # anchor snapped exactly onto the grid
    assert d.anchor_kp == 0.6 and d.anchor_ki == 0.004
    assert d.gains_at(d.anchor_index) == PIGains(0.6, 0.004)
    # kp-major layout: the first block shares kp_values[0]
    assert np.all(d.points[: d.ki_values.size, 0] == d.kp_values[0])
    assert d.points[1, 1] == d.ki_values[1]


def test_domain_normalize_maps_corners_to_unit_square():
    d = small_domain()
    corners = np.array(
        [
            [d.kp_values[0], d.ki_values[0]],
            [d.kp_values[-1], d.ki_values[-1]],
        ]
    )
    np.testing.assert_allclose(d.normalize(corners), [[0.0, 0.0], [1.0, 1.0]], atol=1e-14)
    inside = d.normalize([[1.0, 0.01]])
    assert np.all(inside > 0) and np.all(inside < 1)


def test_domain_index_round_trip_and_off_grid_rejection():
    d = small_domain()
    for index in (0, 7, d.size - 1, d.anchor_index):
        assert d.index_of(d.gains_at(index)) == index
    with pytest.raises(ValueError):
        d.index_of(PIGains(1.234, 0.01))


def test_domain_rejects_bad_anchor_and_grids():
    with pytest.raises(ValueError):
        GainDomain.build((0.1, 10.0), (0.001, 0.1), 5, (20.0, 0.01))
    with pytest.raises(ValueError):
        GainDomain.build((0.1, 10.0), (0.001, 0.1), 5, (0.1, 0.01))  # on the edge
    with pytest.raises(ValueError):
        GainDomain(np.array([1.0, 1.0, 2.0]), np.array([0.01, 0.02]), 1.0, 0.01)
    with pytest.raises(ValueError):
        GainDomain(np.array([1.0, 2.0]), np.array([0.01, 0.02]), 1.5, 0.01)


def test_context_scaler():
    s = ContextScaler(-10.0, 10.0)
    assert s.normalize(-10.0) == 0.0
    assert s.normalize(10.0) == 1.0
    assert s.normalize(0.0) == 0.5
    with pytest.raises(ValueError):
        ContextScaler(5.0, 5.0)


# ---------------------------------------------------------------------------
# state validation
# ---------------------------------------------------------------------------


def test_state_validation():
    d = small_domain()
    ctx_spec = contextual_kernel_template()
    ctx_costs = tuple(GPModel.empty(ctx_spec, 1e-3, 0.5) for _ in range(4))
    ctx_constraints = tuple(GPModel.empty(ctx_spec, 1e-3) for _ in range(3))
    scaler = ContextScaler(-15.0, 15.0)

    def build(**kw):
        base = dict(
            method=METHOD_SCBO,
            domain=d,
            scaler=scaler,
            weights=WEIGHTS,
            thresholds=THRESHOLDS,
            cost_models=ctx_costs,
            constraint_models=ctx_constraints,
        )
        base.update(kw)
        return OptimizerState(**base)

    build()  # valid
    with pytest.raises(ValueError):
        build(method="grid_search")
    with pytest.raises(ValueError):
        build(method=METHOD_BO)  # scaler present
    with pytest.raises(ValueError):
        build(method=METHOD_CBO)  # constraints present
    with pytest.raises(ValueError):
        build(scaler=None)
    with pytest.raises(ValueError):
        build(constraint_models=ctx_constraints[:2])
    with pytest.raises(ValueError):
        build(constraint_models=tuple(GPModel.empty(ctx_spec, 1e-3, 0.1) for _ in range(3)))
    with pytest.raises(ValueError):
        build(cost_models=ctx_costs[:3])
    with pytest.raises(ValueError):
        build(beta=-1.0)
    with pytest.raises(ValueError):
        build(epsilon=0.5)
    with pytest.raises(ValueError):
        build(weights=(0.5, 0.5, 0.5, -0.5))
    with pytest.raises(ValueError):
        build(thresholds=(1.0, 1.0))


# ---------------------------------------------------------------------------
# safe set
# ---------------------------------------------------------------------------


def test_untrained_safe_set_is_empty_and_falls_back_to_anchor():
    state = make_state(METHOD_SCBO)
    raw = safe_set(state, 0.0, fallback=False)
    assert not raw.any()  # zero-mean prior: 0 + q*sigma > 0 everywhere
    mask = safe_set(state, 0.0)
    assert mask.sum() == 1
    assert mask[state.domain.anchor_index]


def test_safe_set_requires_constraint_surrogates():
    with pytest.raises(ValueError):
        safe_set(make_state(METHOD_CBO), 0.0)


def test_safe_set_matches_normal_cdf_oracle():
    rng = np.random.default_rng(3)
    state = make_state(METHOD_SCBO, noise=0.05)
    margins = rng.uniform(-0.6, 0.4, state.domain.size)
    state = observe_grid(state, margins)
    for eps in (0.01, 0.05, 0.1, 0.25):
        mask = safe_set(state, 0.0, eps, fallback=False)
        x = np.column_stack(
            [state.domain.unit_points, np.full(state.domain.size, state.scaler.normalize(0.0))]
        )
        oracle = np.ones(state.domain.size, dtype=bool)
        for model in state.constraint_models:
            mean, var = model.posterior_batch(x)
            oracle &= norm.cdf(-mean / np.sqrt(var)) >= 1.0 - eps
        assert np.array_equal(mask, oracle)


def test_safe_set_grows_with_epsilon():
    rng = np.random.default_rng(9)
    state = make_state(METHOD_SCBO, noise=0.05)
    state = observe_grid(state, rng.uniform(-0.5, 0.2, state.domain.size))
    masks = [safe_set(state, 0.0, eps, fallback=False) for eps in (0.01, 0.05, 0.1, 0.25)]
    assert any(m.any() for m in masks)
    for tight, loose in zip(masks, masks[1:]):
        assert not np.any(tight & ~loose)  # tighter eps is a subset


def test_safe_set_dense_noiseless_observations_recover_margin_signs():
    state = make_state(METHOD_SCBO, noise=1e-9)
    margins = np.where(np.arange(state.domain.size) % 3 == 0, -0.5, 0.5)
    state = observe_grid(state, margins)
    mask = safe_set(state, 0.0, fallback=False)
    assert np.array_equal(mask, margins < 0)


def test_safe_set_epsilon_validation():
    state = make_state(METHOD_SCBO)
    with pytest.raises(ValueError):
        safe_set(state, 0.0, 0.0)
    with pytest.raises(ValueError):
        safe_set(state, 0.0, 0.7)


# ---------------------------------------------------------------------------
# acquisition and proposals
# ---------------------------------------------------------------------------


def test_acquire_matches_brute_force_lcb():
    rng = np.random.default_rng(21)
    state = make_state(METHOD_CBO, noise=0.05)
    for index in rng.choice(state.domain.size, 8, replace=False):
        state = update(state, state.domain.gains_at(int(index)), float(rng.uniform(-10, 10)), costs_of(float(rng.uniform(0.2, 1.5))))
    x = np.column_stack(
        [state.domain.unit_points, np.full(state.domain.size, state.scaler.normalize(2.0))]
    )
    mean, var = combined_posterior(state, x)
    assert acquire(state, 2.0) == int(np.argmin(mean - 2.0 * np.sqrt(var)))
    assert acquire(state, 2.0, beta=0.0) == int(np.argmin(mean))
    mask = np.zeros(state.domain.size, dtype=bool)
    mask[10:] = True
    score = np.where(mask, mean - 2.0 * np.sqrt(var), np.inf)
    assert acquire(state, 2.0, mask) == int(np.argmin(score))


def test_acquire_breaks_ties_toward_first_grid_index():
    state = make_state(METHOD_CBO)  # untrained: identical score everywhere
    assert acquire(state, 0.0) == 0
    mask = np.zeros(state.domain.size, dtype=bool)
    mask[[7, 12, 19]] = True
    assert acquire(state, 0.0, mask) == 7


def test_first_proposal_is_the_anchor():
    for method, size in ((METHOD_BO, 25), (METHOD_CBO, 25), (METHOD_SCBO, 1)):
        state = make_state(method)
        p = propose(state, -3.0)
        assert p.gain_index == state.domain.anchor_index
        assert p.gains == state.anchor_gains
        assert p.safe_set_size == size
        assert not p.used_fallback


def test_proposal_falls_back_to_anchor_when_certification_collapses():
    state = make_state(METHOD_SCBO, noise=1e-9)
    state = update(state, state.anchor_gains, 0.0, costs_of(1.5))  # violating day
    p = propose(state, 0.0)
    assert p.used_fallback
    assert p.gain_index == state.domain.anchor_index
    assert p.safe_set_size == 1


def test_proposal_explores_inside_safe_set():
    state = make_state(METHOD_SCBO, noise=1e-6)
    state = update(state, state.anchor_gains, 0.0, costs_of(0.3))
    p = propose(state, 0.0)
    assert not p.used_fallback
    raw = safe_set(state, 0.0, fallback=False)
    assert p.safe_set_size == int(raw.sum()) > 0
    assert raw[p.gain_index]


def test_bo_choice_ignores_the_context():
    rng = np.random.default_rng(4)
    state = make_state(METHOD_BO, noise=0.05)
    for index in rng.choice(state.domain.size, 6, replace=False):
        state = update(state, state.domain.gains_at(int(index)), float(rng.uniform(-10, 10)), costs_of(float(rng.uniform(0.2, 1.2))))
    assert propose(state, -12.0).gain_index == propose(state, 12.0).gain_index
    # the contextual surrogates see every observation at context 0.0
    for model in state.cost_models:
        assert model.index.inputs.shape == (6, 3) and np.all(model.index.inputs[:, 2] == 0.0)


def test_cbo_and_scbo_agree_when_constraints_are_slack():
    rng = np.random.default_rng(6)
    cbo = make_state(METHOD_CBO, noise=1e-6)
    scbo = make_state(METHOD_SCBO, noise=1e-6)
    # every gain evaluated once with comfortable headroom: the safe set
    # certifies the whole grid, so the safety layer changes nothing
    margins = rng.uniform(-0.8, -0.6, cbo.domain.size)
    cbo = observe_grid(cbo, margins)
    scbo = observe_grid(scbo, margins)
    assert safe_set(scbo, 0.0, fallback=False).all()
    p_cbo, p_scbo = propose(cbo, 0.0), propose(scbo, 0.0)
    assert p_cbo.gain_index == p_scbo.gain_index
    assert p_scbo.safe_set_size == scbo.domain.size


# ---------------------------------------------------------------------------
# updates, schedules, checkpoints
# ---------------------------------------------------------------------------


def test_update_appends_observation_and_retrains():
    state = make_state(METHOD_SCBO)
    new = update(state, state.anchor_gains, -4.0, costs_of(0.4, 0.6, 0.2, 0.1), day=1)
    assert len(state.observations) == 0  # original untouched
    assert len(new.observations) == 1
    obs = new.observations[0]
    assert obs.day == 1 and obs.context == -4.0
    assert obs.gain_index == state.domain.anchor_index
    assert obs.costs == (0.4, 0.6, 0.2, 0.1)
    for i, model in enumerate(new.cost_models):
        assert model.targets[-1] == obs.costs[i]
    for i, model in enumerate(new.constraint_models):
        assert model.targets[-1] == pytest.approx(obs.costs[i] - THRESHOLDS[i])
    # default day counts up from the log length
    again = update(new, state.anchor_gains, 0.0, costs_of(0.5))
    assert again.observations[-1].day == 2


def test_update_rejects_bad_inputs():
    state = make_state(METHOD_CBO)
    with pytest.raises(ValueError):
        update(state, PIGains(1.234, 0.01), 0.0, costs_of(0.5))
    with pytest.raises(ValueError):
        update(state, state.anchor_gains, 0.0, costs_of(math.inf))


def test_gain_schedule_is_pure_exploitation_over_the_safe_set():
    rng = np.random.default_rng(13)
    state = make_state(METHOD_SCBO, noise=0.05)
    state = observe_grid(state, rng.uniform(-0.6, 0.1, state.domain.size))
    table = gain_schedule(state, [-8.0, 0.0, 8.0])
    assert [oat for oat, _ in table] == [-8.0, 0.0, 8.0]
    for oat, gains in table:
        mask = safe_set(state, oat)
        expected = acquire(state, oat, mask, beta=0.0)
        assert state.domain.index_of(gains) == expected
        assert mask[state.domain.index_of(gains)]


def test_state_from_json_rejects_a_gain_only_bo_state():
    """A bo state written before bo ran on the contextual surrogates holds
    2-dim ``matern52`` cost kernels; loading it must fail, not misread it."""
    state = update(make_state(METHOD_BO), PIGains(1.0, 0.01), 3.0, costs_of(0.4))
    doc = json.loads(state_to_json(state))
    for model in doc["cost_models"]:
        model["kernel"]["family"] = "matern52"
        model["kernel"]["lengthscales"] = model["kernel"]["lengthscales"][:2]
    with pytest.raises(ValueError, match="matern52"):
        state_from_json(json.dumps(doc))


# Observation logs on the 5 x 5 test grid: (gain index, outside air
# temperature, four normalized costs) per day. Costs straddle the unit
# thresholds, so scbo safe sets range from empty to most of the grid.
_LOGS = st.lists(
    st.tuples(
        st.integers(0, small_domain().size - 1),
        st.floats(-20.0, 20.0, allow_nan=False),
        st.tuples(*[st.floats(0.0, 2.0, allow_nan=False)] * 4),
    ),
    min_size=0,
    max_size=12,
)


def logged_states(method, log, noise=0.02, prior=None):
    """The state before the log and after each of its days, from ``prior``
    (``make_state``'s priors when None)."""
    states = [make_state(method, noise=noise) if prior is None else prior]
    for day, (index, oat, (j1, j2, j3, j4)) in enumerate(log, start=1):
        state = states[-1]
        states.append(update(state, state.domain.gains_at(index), oat, costs_of(j1, j2, j3, j4), day=day))
    return states


def logged_state(method, log, noise=0.02):
    return logged_states(method, log, noise)[-1]


# A log whose later gains sort before the nodes logged so far (the grid
# is kp-major), so the node order, and with it every gain block, changes.
_REORDERING_LOG = [
    (20, 0.0, (0.5, 0.6, 0.4, 0.3)),
    (14, 2.0, (0.7, 0.5, 0.6, 0.2)),
    (20, -3.0, (0.6, 0.4, 0.5, 0.4)),
    (3, -1.0, (0.4, 0.3, 0.5, 0.3)),
    (0, 5.0, (0.9, 1.1, 0.8, 0.2)),
]


def assert_same_posteriors(a, b):
    x = np.column_stack([a.domain.unit_points, np.full(a.domain.size, 0.5)])
    for ma, mb in zip(a.cost_models + a.constraint_models, b.cost_models + b.constraint_models, strict=True):
        np.testing.assert_array_equal(ma.posterior_batch(x), mb.posterior_batch(x))


@settings(max_examples=40, deadline=None)
@given(
    method=st.sampled_from([METHOD_BO, METHOD_CBO, METHOD_SCBO]),
    log=_LOGS,
    oat=st.floats(-20.0, 20.0),
    day=st.integers(0, 13),
)
def test_state_json_round_trip_preserves_posteriors(method, log, oat, day):
    """A state's surrogates follow its log, however the state was made:
    by update, by JSON restore, by the constructor from the priors, or by
    truncation to a day."""
    state = logged_state(method, log)
    text = state_to_json(state)
    restored = state_from_json(text)
    assert state_to_json(restored) == text  # byte-stable reserialization
    assert restored.observations == state.observations
    assert restored.method == state.method
    assert_same_posteriors(state, restored)
    assert propose(restored, oat) == propose(state, oat)

    constructed = dataclasses.replace(make_state(method, noise=0.02), observations=state.observations)
    assert_same_posteriors(state, constructed)
    assert propose(constructed, oat) == propose(state, oat)

    truncated = state_at_day(state, day)
    assert_same_posteriors(truncated, state_from_json(state_to_json(truncated)))


def test_a_state_replaced_onto_an_empty_log_queries_the_priors():
    """replace rebuilds the surrogates on the new log, so a trained state
    replaced onto no observations forgets its data."""
    priors = make_state(METHOD_SCBO, noise=0.05)
    trained = observe_grid(priors, np.random.default_rng(5).uniform(-0.6, -0.2, 5))
    assert_same_posteriors(dataclasses.replace(trained, observations=()), priors)


@pytest.mark.parametrize("gain_index", [-1, 25, 1600, True])
def test_state_from_json_rejects_an_off_grid_observation(gain_index):
    state = update(make_state(METHOD_SCBO), PIGains(1.0, 0.01), 3.0, costs_of(0.4))
    doc = json.loads(state_to_json(state))
    doc["observations"][0]["gain_index"] = gain_index
    with pytest.raises(ValueError, match=r"Observation\(day=1.*gain_index off the 25-point grid"):
        state_from_json(json.dumps(doc))


def _logged_json(method=METHOD_SCBO):
    """A six-day log, days 1-6, as the JSON document of its state."""
    state = make_state(method)
    for day in range(1, 7):
        state = update(state, state.domain.gains_at(day), float(day), costs_of(0.2 * day), day=day)
    return json.loads(state_to_json(state))


@pytest.mark.parametrize(
    "days", [(1, 2, 3, 200, 5, 6), (1, 2, 3, 3, 5, 6), (1, 2, 3, 2, 5, 6), (True, 2, 3, 4, 5, 6)]
)
def test_a_state_rejects_days_that_do_not_strictly_increase(days):
    """state_at_day truncates by day, so a log out of day order would lose
    an observation from its middle: day 200 at position 4 of 6 would leave
    day 100 with 5 observations that were never a log. A first day of
    ``true`` comes after no day, and is refused as no integer."""
    doc = _logged_json()
    for o, day in zip(doc["observations"], days):
        o["day"] = day
    text = json.dumps(doc)
    for day in (0, 2, 100):
        with pytest.raises(ValueError, match=r"Observation\(day=\w+.* does not come after day"):
            state_at_day(state_from_json(text), day)
    logged = state_from_json(json.dumps(_logged_json())).observations
    with pytest.raises(ValueError, match="does not come after day"):
        dataclasses.replace(make_state(METHOD_SCBO), observations=logged[:3] + logged[4:] + logged[3:4])


@pytest.mark.parametrize("method", [METHOD_BO, METHOD_CBO, METHOD_SCBO])
@pytest.mark.parametrize("context", [math.nan, math.inf, -math.inf])
def test_a_state_rejects_a_non_finite_context(method, context):
    """bo holds its context input at 0.0, so its surrogates never see the
    value; it must still be finite, or the state writes back a NaN token
    that is not JSON."""
    doc = _logged_json(method)
    doc["observations"][3]["context"] = context
    text = json.dumps(doc)
    with pytest.raises(ValueError, match=r"Observation\(day=4.*non-finite context"):
        state_from_json(text)
    with pytest.raises(ValueError, match="non-finite context"):
        dataclasses.replace(make_state(method), observations=(Observation(1, context, 0, (0.1, 0.2, 0.3, 0.4)),))


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("gain_index", 25, "gain_index off the 25-point grid"),
        ("context", math.nan, "non-finite context"),
        ("costs", [0.1, math.inf, 0.3, 0.4], "non-finite context or cost"),
        ("day", 1, "does not come after day 5"),
        ("day", 9.5, r"does not come after day 5, or its day is not an integer"),
        ("day", True, "does not come after day 5"),
    ],
    ids=["gain_index", "context", "costs", "day", "fractional day", "boolean day"],
)
def test_state_at_day_on_a_restored_state_checks_the_later_entries(field, value, message):
    """safe-set --day d queries the first d days only, but a file whose
    later entries no season could have written is still refused. A day
    must be an integer, as a gain_index must: a last day of 9.5 was
    accepted, and safe-set --day 9 printed a safe set from it."""
    doc = _logged_json()
    doc["observations"][-1][field] = value
    text = json.dumps(doc)
    for day in (-1, 0, 2, 5, 99):
        with pytest.raises(ValueError, match=message):
            state_at_day(state_from_json(text), day)


@settings(max_examples=40, deadline=None)
@given(
    method=st.sampled_from([METHOD_BO, METHOD_CBO, METHOD_SCBO]),
    log=_LOGS,
    gaps=st.lists(st.integers(1, 3), min_size=12, max_size=12),
    oat=st.floats(-20.0, 20.0),
)
def test_state_at_day_on_a_restored_state_equals_the_state_built_on_its_days(method, log, gaps, oat):
    """Restoring the whole log and truncating it to a day gives the state
    constructed from the priors on the log's days up to it, on every day:
    before the first, between and on logged days, and past the last."""
    priors = make_state(method, noise=0.02)
    state = priors
    for day, (index, context, (j1, j2, j3, j4)) in zip(np.cumsum(gaps).tolist(), log):
        state = update(state, state.domain.gains_at(index), context, costs_of(j1, j2, j3, j4), day=day)
    text = state_to_json(state)
    last = state.observations[-1].day if state.observations else 0
    for day in range(-1, last + 3):
        built = dataclasses.replace(priors, observations=tuple(o for o in state.observations if o.day <= day))
        truncated = state_at_day(state_from_json(text), day)
        assert built.observations == truncated.observations
        assert_same_posteriors(built, truncated)
        if method == METHOD_SCBO:
            for fallback in (True, False):
                want = safe_set(truncated, oat, fallback=fallback)
                assert np.array_equal(safe_set(built, oat, fallback=fallback), want)


def test_safe_set_quantile_is_the_normal_ppf_bit_for_bit(monkeypatch):
    """safe_set takes its quantile from scipy.special.ndtri instead of
    scipy.stats.norm.ppf, so that importing roomtune loads no scipy.stats;
    the two must agree to the bit on every epsilon."""
    state = observe_grid(make_state(METHOD_SCBO, noise=0.05), np.linspace(-0.6, 0.2, 25))
    seen, ndtri = [], optimizer.ndtri

    def recording_ndtri(p):
        q = ndtri(p)
        seen.append(q)
        return q

    monkeypatch.setattr(optimizer, "ndtri", recording_ndtri)
    epsilons = np.concatenate([np.geomspace(1e-12, 1e-3, 200), np.linspace(1e-3, 0.4999, 800)])
    for eps in epsilons:
        safe_set(state, 0.0, float(eps))
    assert len(seen) == len(epsilons)
    np.testing.assert_array_equal(np.array(seen), norm.ppf(1.0 - epsilons))
    dense = np.linspace(1e-6, 0.5, 200_001)
    np.testing.assert_array_equal(ndtri(1.0 - dense), norm.ppf(1.0 - dense))


@settings(max_examples=40, deadline=None)
@given(
    log=_LOGS,
    oat=st.floats(-20.0, 20.0),
    epsilons=st.lists(st.floats(1e-4, 0.4999), min_size=2, max_size=5, unique=True),
)
def test_safe_set_is_monotone_in_epsilon_over_generated_states(log, oat, epsilons):
    state = logged_state(METHOD_SCBO, log)
    masks = [safe_set(state, oat, eps, fallback=False) for eps in sorted(epsilons)]
    for tight, loose in zip(masks, masks[1:]):
        assert not np.any(tight & ~loose)  # a smaller epsilon certifies a subset


def with_distinct_kernels(state):
    """``state`` with its own kernel for every surrogate, so that a
    workspace keeps one gain block per surrogate."""
    def rekernel(models, first):
        return tuple(
            dataclasses.replace(m, kernel=KernelSpec(PRODUCT, (0.2 + 0.05 * i, 0.45 - 0.04 * i, 0.3), 0.6 + 0.2 * i))
            for i, m in enumerate(models, start=first)
        )

    return dataclasses.replace(
        state, cost_models=rekernel(state.cost_models, 0), constraint_models=rekernel(state.constraint_models, 4)
    )


@settings(max_examples=40, deadline=None)
@given(log=_LOGS, oat=st.floats(-20.0, 20.0), subset=st.integers(1, 2 ** small_domain().size - 1))
@example(log=_REORDERING_LOG, oat=1.0, subset=2 ** 25 - 1)
def test_pruned_queries_match_full_grid_queries(log, oat, subset):
    """safe_set queries each constraint only where the previous ones
    certify, and acquire scores only its candidates; both must decide as
    if every surrogate were queried on the whole grid. One workspace,
    reused over the successive states of the log as a season reuses it,
    must leave every posterior row, mask and choice bit for bit as it is
    without one."""
    workspace = QueryWorkspace()
    for state in logged_states(METHOD_SCBO, log, prior=with_distinct_kernels(make_state(METHOD_SCBO, noise=0.02))):
        size = state.domain.size
        x = np.column_stack([state.domain.unit_points, np.full(size, state.scaler.normalize(oat))])
        drawn = np.array([(subset >> i) & 1 for i in range(size)], dtype=bool)
        for model in state.cost_models + state.constraint_models:
            block = workspace.gain_covariance(state, model)
            full = model.posterior_batch(x)
            np.testing.assert_array_equal(model.posterior_batch(x, block), full)
            rows = np.flatnonzero(drawn)
            got = model.posterior_batch(x[rows], block[rows])
            np.testing.assert_array_equal(got, model.posterior_batch(x[rows]))
            np.testing.assert_array_equal(got, (full[0][rows], full[1][rows]))
        masks = []
        for eps in (state.epsilon, 0.25, 0.45):  # larger epsilons certify more gains
            q = norm.ppf(1.0 - eps)
            want = np.ones(size, dtype=bool)
            for model in state.constraint_models:
                mean, var = model.posterior_batch(x)
                want &= mean + q * np.sqrt(var) <= 0.0
            assert np.array_equal(safe_set(state, oat, eps, fallback=False), want)
            assert np.array_equal(safe_set(state, oat, eps, fallback=False, workspace=workspace), want)
            masks.append(want)

        mean, var = combined_posterior(state, x)
        for mask in masks + [drawn, None]:
            if mask is not None and not mask.any():
                continue
            for beta in (state.beta, 0.0):
                score = mean - beta * np.sqrt(var)
                if mask is not None:
                    score = np.where(mask, score, np.inf)
                want = int(np.argmin(score))
                assert acquire(state, oat, mask, beta) == want
                assert acquire(state, oat, mask, beta, workspace) == want

    # the final log on a 6 x 6 grid: the workspace must not serve the 5 x 5 grid's blocks
    other = dataclasses.replace(state, domain=small_domain(6))
    assert np.array_equal(safe_set(other, oat, workspace=workspace), safe_set(other, oat))
    assert acquire(other, oat, workspace=workspace) == acquire(other, oat)


# Weights whose float64 square differs from their product with themselves
# in the last bit: a combination that squared them by multiplication would
# score them differently.
_ULP_WEIGHTS = (0.42672114373024106, 0.7454248080083349, 0.6816887827112171, 0.23850205025688043)


@settings(max_examples=40, deadline=None)
@given(method=st.sampled_from([METHOD_BO, METHOD_CBO, METHOD_SCBO]), log=_LOGS, oat=st.floats(-20.0, 20.0))
@example(method=METHOD_SCBO, log=_REORDERING_LOG, oat=1.0)
def test_surrogates_regress_the_costs_then_the_headrooms(method, log, oat):
    """A state conditions its cost surrogates on the normalized costs and
    its constraint surrogates on cost minus threshold, over (unit gains,
    unit context), all on one index of its log; its posteriors must be
    bit-equal to models built one by one on those targets written out
    here, on every day of the log, and so must the posteriors read
    through one workspace reused over those days. The workspace serves
    the mirrored log's state of each day in turn too: on the same grid,
    it has as many nodes, mostly at other gains."""
    thresholds = (0.9, 1.1, 1.3)
    priors = make_state(method, noise=0.02)
    workspace = QueryWorkspace()
    mirrored = [(priors.domain.size - 1 - index, o, costs) for index, o, costs in log]

    def check(logged, days):
        state = dataclasses.replace(logged, thresholds=thresholds)
        indices = np.array([index for index, _, _ in days], dtype=int)
        rows = state.domain.unit_points[indices]
        contexts = [0.0 if state.scaler is None else state.scaler.normalize(o) for _, o, _ in days]
        x = np.column_stack([rows, contexts])
        y = np.array([costs for _, _, costs in days]).reshape(-1, 4)
        headroom = y[:, :3] - thresholds
        want = [m.with_data(x, y[:, i]) for i, m in enumerate(priors.cost_models)]
        want += [m.with_data(x, headroom[:, i]) for i, m in enumerate(priors.constraint_models)]
        got_x, got_y = surrogate_data(rows, contexts, y, thresholds)
        np.testing.assert_array_equal(got_x, x)
        np.testing.assert_array_equal(got_y, np.column_stack([y, headroom]))
        context = 0.0 if state.scaler is None else state.scaler.normalize(oat)
        grid = np.column_stack([state.domain.unit_points, np.full(state.domain.size, context)])
        node_rows = state.domain.unit_points[np.unique(indices)]  # the nodes are the logged grid gains, in grid order
        for model, reference in zip(state.cost_models + state.constraint_models, want, strict=True):
            np.testing.assert_array_equal(model.index.nodes, node_rows)
            posterior = reference.posterior_batch(grid)
            np.testing.assert_array_equal(model.posterior_batch(grid), posterior)
            np.testing.assert_array_equal(model.posterior_batch(grid, workspace.gain_covariance(state, model)), posterior)

    states = zip(logged_states(method, log, prior=priors), logged_states(method, mirrored, prior=priors))
    for day, (logged, logged_mirror) in enumerate(states):
        check(logged, log[:day])
        check(logged_mirror, mirrored[:day])


def acquire_with_score(state, oat, mask, beta):
    """acquire's choice and the score array it took the argmin of (it
    calls np.argmin once, on the candidates' scores)."""
    scores = []
    argmin = np.argmin

    def recording_argmin(a, *args, **kwargs):
        scores.append(np.array(a))
        return argmin(a, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np, "argmin", recording_argmin)
        index = acquire(state, oat, mask, beta)
    (score,) = scores
    return index, score


@settings(max_examples=40, deadline=None)
@given(
    method=st.sampled_from([METHOD_BO, METHOD_CBO, METHOD_SCBO]),
    log=_LOGS,
    oat=st.floats(-20.0, 20.0),
    weights=st.tuples(*[st.one_of(st.sampled_from(_ULP_WEIGHTS), st.floats(0.01, 1.0))] * 4),
    subset=st.integers(1, 2 ** small_domain().size - 1),
    beta=st.sampled_from([0.0, DEFAULT_BETA, 0.7]),
)
@example(method=METHOD_CBO, log=[(7, 1.0, (0.4, 1.2, 0.9, 0.3)), (12, -3.0, (1.1, 0.6, 0.2, 0.8))], oat=0.5,
         weights=_ULP_WEIGHTS, subset=2 ** 25 - 1, beta=DEFAULT_BETA)
def test_acquire_scores_the_weighted_cost_sum(method, log, oat, weights, subset, beta):
    """acquire scores mean - beta * std of sum w_i f_i, formed as
    combined_posterior forms it, bit for bit, over the whole grid and
    over a drawn mask."""
    state = dataclasses.replace(logged_state(method, log), weights=weights)
    size = state.domain.size
    context = 0.0 if state.scaler is None else state.scaler.normalize(oat)
    x = np.column_stack([state.domain.unit_points, np.full(size, context)])
    mean, var = combined_posterior(state, x)
    want = mean - beta * np.sqrt(var)
    drawn = np.array([(subset >> i) & 1 for i in range(size)], dtype=bool)
    for mask in (None, drawn):
        keep = np.ones(size, dtype=bool) if mask is None else mask
        index, score = acquire_with_score(state, oat, mask, beta)
        np.testing.assert_array_equal(score, want[keep])
        assert index == int(np.flatnonzero(keep)[np.argmin(want[keep])])


@pytest.mark.parametrize("oat", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("method", [METHOD_BO, METHOD_CBO, METHOD_SCBO])
def test_a_non_finite_outside_temperature_is_rejected(method, oat):
    """A NaN context would certify nothing (scbo's safe set fell back to
    the anchor) and score every gain NaN (argmin chose index 0), so every
    query at a non-finite temperature raises, bo's included."""
    state = logged_state(method, [(3, 0.0, (0.5, 0.6, 0.4, 0.3)), (17, 5.0, (0.8, 0.7, 0.9, 0.2))])
    queries = [lambda: propose(state, oat), lambda: acquire(state, oat), lambda: gain_schedule(state, [0.0, oat])]
    if method == METHOD_SCBO:
        queries += [lambda: safe_set(state, oat), lambda: safe_set(state, oat, fallback=False)]
    for query in queries:
        with pytest.raises(ValueError, match="not finite"):
            query()
    assert len(gain_schedule(state, [-20.0, 0.0, 20.0])) == 3


def separate_propose(state, oat):
    """The season's rule, written out on its own."""
    domain = state.domain
    if not state.observations:
        size = 1 if state.method == METHOD_SCBO else domain.size
        return Proposal(domain.anchor_index, state.anchor_gains, size, False)
    if state.method == METHOD_SCBO:
        raw = safe_set(state, oat, fallback=False)
        if not raw.any():
            return Proposal(domain.anchor_index, state.anchor_gains, 1, True)
        index = acquire(state, oat, raw)
        return Proposal(index, domain.gains_at(index), int(raw.sum()), False)
    index = acquire(state, oat)
    return Proposal(index, domain.gains_at(index), domain.size, False)


def separate_schedule_index(state, oat):
    """The lookup table's rule, written out on its own: the posterior-mean
    argmin over the safe set, whose fallback is the anchor singleton."""
    mask = safe_set(state, oat) if state.method == METHOD_SCBO else None
    return acquire(state, oat, mask, beta=0.0)


@settings(max_examples=40, deadline=None)
@given(
    method=st.sampled_from([METHOD_BO, METHOD_CBO, METHOD_SCBO]),
    log=_LOGS,
    oats=st.lists(st.floats(-20.0, 20.0), min_size=1, max_size=4),
)
# one violating day at the anchor: scbo certifies nothing at any temperature
@example(method=METHOD_SCBO, log=[(small_domain().anchor_index, 0.0, (1.5, 1.5, 1.5, 0.3))], oats=[-20.0, 0.0, 20.0])
def test_propose_and_gain_schedule_choose_by_one_rule(method, log, oats):
    """propose and gain_schedule share one selection rule; each must
    choose what its own rule, written out separately, chooses, with or
    without a certified gain."""
    state = logged_state(method, log)
    for oat in oats:
        assert propose(state, oat) == separate_propose(state, oat)
        with pytest.raises(ValueError):  # an empty mask has no gain to choose
            acquire(state, oat, np.zeros(state.domain.size, dtype=bool))
    table = gain_schedule(state, oats)
    assert [oat for oat, _ in table] == oats
    assert [state.domain.index_of(g) for _, g in table] == [separate_schedule_index(state, oat) for oat in oats]


def test_state_at_day_truncates_the_log():
    state = make_state(METHOD_CBO)
    for day in (1, 2, 3):
        state = update(state, state.domain.gains_at(day), float(day), costs_of(0.3 * day), day=day)
    assert len(state_at_day(state, 0).observations) == 0
    assert len(state_at_day(state, 2).observations) == 2
    assert len(state_at_day(state, 99).observations) == 3
    fresh = state_at_day(state, 0)
    mean, _ = fresh.cost_models[0].posterior_batch([[0.5, 0.5, 0.5]])
    assert mean[0] == 0.5  # back to the prior


def test_only_a_query_factors_and_each_surrogate_factors_once(monkeypatch):
    """update, state_from_json and state_at_day bind a log and factor
    nothing; a surrogate factors its Gram matrix at its first query, and
    its later queries reuse the factor."""
    shapes = []
    factor = gp._factor_in_place

    def counting_factor(gram):
        shapes.append(gram.shape)
        return factor(gram)

    monkeypatch.setattr(gp, "_factor_in_place", counting_factor)
    state = make_state(METHOD_SCBO, noise=0.02)
    for day in range(1, 6):
        state = update(state, state.domain.gains_at(3 * day), float(day), costs_of(0.1 * day), day=day)
    state = state_at_day(state_from_json(state_to_json(state)), 4)
    assert shapes == []

    model = state.cost_models[0]
    x = np.column_stack([state.domain.unit_points, np.full(state.domain.size, 0.5)])
    first = model.posterior_batch(x)
    assert shapes == [(4, 4)]
    np.testing.assert_array_equal(model.posterior_batch(x), first)
    np.testing.assert_array_equal(model.posterior_batch(x[:3]), (first[0][:3], first[1][:3]))
    assert shapes == [(4, 4)]

    want = safe_set(state, 0.0)
    queried = len(shapes) - 1
    assert 1 <= queried <= 3
    np.testing.assert_array_equal(safe_set(state, 0.0), want)
    assert len(shapes) == 1 + queried


# ---------------------------------------------------------------------------
# system identification
# ---------------------------------------------------------------------------


def simulate_fopdt(a, b, delay, c, u, n):
    t = np.zeros(n)
    for k in range(n - 1):
        drive = u[k - delay] if k >= delay else 0.0
        t[k + 1] = a * t[k] + b * drive + c
    return t


def test_fit_fopdt_recovers_known_plant():
    rng = np.random.default_rng(7)
    n = 200
    a = math.exp(-1.0 / 24.0)
    b = 2.0 * (1.0 - a)  # steady-state gain 2
    u = np.repeat(rng.uniform(0.0, 1.0, n // 10), 10)[:n]
    t = simulate_fopdt(a, b, 3, 0.05, u, n)
    model = fit_fopdt(t, u)
    assert model is not None
    assert model.delay == 3
    assert model.gain == pytest.approx(2.0, rel=0.05)
    assert model.time_constant == pytest.approx(24.0, rel=0.05)
    assert model.residual < 1e-12


def test_fit_fopdt_refuses_uninformative_data():
    # constant valve makes the regressors collinear
    assert fit_fopdt(np.linspace(20, 21, 60), np.full(60, 0.5)) is None
    # a saturated valve makes the u column the constant column
    u = np.ones(60)
    assert fit_fopdt(18.0 + simulate_fopdt(0.95, 0.1, 2, 0.01, u, 60), u) is None
    # too short for the common scoring window
    assert fit_fopdt(np.zeros(15), np.zeros(15)) is None


@pytest.mark.parametrize("max_delay", [0, 5, 12])
def test_fit_fopdt_needs_eight_regression_rows(max_delay):
    """Seven rows in the common window are refused; eight fit a noise-free
    plant exactly, at its own delay."""
    rng = np.random.default_rng(11)
    delay = max_delay // 2
    for rows, fitted in ((7, False), (8, True)):
        n = rows + 1 + max_delay
        u = rng.uniform(0.0, 1.0, n)
        t = 18.0 + simulate_fopdt(0.9, 0.2, delay, 0.01, u, n)
        model = fit_fopdt(t, u, max_delay)
        if not fitted:
            assert model is None
            continue
        assert model is not None
        assert model.delay == delay
        assert model.gain == pytest.approx(2.0)
        assert model.time_constant == pytest.approx(-1.0 / math.log(0.9))
        assert model.residual < 1e-12


@pytest.mark.parametrize("bad", ["t_room", "valve"])
def test_fit_fopdt_rejects_non_finite_samples_before_lapack(bad, capfd):
    rng = np.random.default_rng(5)
    u = np.repeat(rng.uniform(0.0, 1.0, 10), 6)
    t = simulate_fopdt(0.95, 0.1, 2, 0.0, u, 60)
    if bad == "t_room":
        t[40] = np.nan
    else:
        u[40] = np.inf
    with pytest.raises(ValueError, match=bad):
        fit_fopdt(t, u)
    assert capfd.readouterr().err == ""  # LAPACK never saw the sample


def test_zn_rule_formula():
    g = zn_pi_gains(FOPDTModel(gain=1.0, time_constant=10.0, delay=1, residual=0.0))
    assert g.kp == pytest.approx(9.0)
    assert g.ki == pytest.approx(2.7)
    # zero delay clamps to one step
    clamped = zn_pi_gains(FOPDTModel(gain=1.0, time_constant=10.0, delay=0, residual=0.0))
    assert clamped == g
    wide = zn_pi_gains(FOPDTModel(gain=2.0, time_constant=10.0, delay=3, residual=0.0))
    assert wide.kp == pytest.approx(1.5)
    assert wide.ki == pytest.approx(0.15)
