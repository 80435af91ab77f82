"""Gaussian process regression against dense linear-algebra oracles.

Every posterior quantity is checked against a from-scratch computation using
explicit matrix inverses; the library itself only ever factorizes.
"""

import dataclasses
import math

import numpy as np
import pytest

from lbfgs_oracle import lbfgs_fit
from romforge.errors import ConfigurationError, NumericalError
from romforge.gpr import (
    MAX_RESTARTS,
    SEARCH_MARGIN,
    GprModel,
    fit_decision,
    fit_gpr,
    log_marginal_likelihood,
    make_gpr,
    predict_gpr,
)

LOG_2PI = math.log(2.0 * math.pi)


def posterior(model, q):
    """Mean and variance of a one-GP model at one query point."""
    means, variances = predict_gpr(model, q)
    return means[0, 0], variances[0, 0]


def lml(model):
    """Log marginal likelihood of a one-GP model."""
    return log_marginal_likelihood(model)[0]


def dense_oracle(x, y, sv, ls, jitter):
    """Posterior mean/variance/LML via explicit inverse (no Cholesky)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = x.size
    gram = sv * np.exp(
        -((x[:, None] - x[None, :]) ** 2) / (2.0 * ls**2)
    ) + jitter * np.eye(n)
    k_inv = np.linalg.inv(gram)
    resid = y - y.mean()

    def oracle(q):
        k_star = sv * np.exp(-((x - q) ** 2) / (2.0 * ls**2))
        mean = y.mean() + k_star @ k_inv @ resid
        var = sv + jitter - k_star @ k_inv @ k_star
        return mean, var

    _, logdet = np.linalg.slogdet(gram)
    lml = -0.5 * resid @ k_inv @ resid - 0.5 * logdet - 0.5 * n * LOG_2PI
    return oracle, lml


# ------------------------------------------------------- one-point model ---


def test_single_point_posterior():
    jitter = 1e-8
    model = make_gpr([0.3], [2.5], 1.0, 0.5, jitter)

    # zero residual: the posterior mean is the constant everywhere
    assert posterior(model, 0.3)[0] == 2.5
    assert posterior(model, 17.0)[0] == 2.5

    # at the training point the variance collapses to j(2 sv + j)/(sv + j),
    # sandwiched between one and two jitters
    var = posterior(model, 0.3)[1]
    assert jitter <= var <= 2.0 * jitter

    assert lml(model) == pytest.approx(
        -0.5 * math.log(1.0 + jitter) - 0.5 * LOG_2PI, rel=1e-12
    )


def test_single_point_zero_jitter_is_exact():
    model = make_gpr([0.3], [2.5], 1.0, 0.5, 0.0)
    assert posterior(model, 0.3)[1] == 0.0


# ---------------------------------------------------------- dense oracle ---


def test_posterior_matches_dense_inverse():
    x = np.array([0.0, 0.3, 0.5, 0.85, 1.0])
    y = np.sin(3.0 * x) + 0.2 * x**2
    jitter = 1e-8
    model = make_gpr(x, y, 2.0, 0.7, jitter)
    oracle, oracle_lml = dense_oracle(x, y, 2.0, 0.7, jitter)

    for q in (0.2, 0.6, 1.4, -0.5):
        mean, var = oracle(q)
        p_mean, p_var = posterior(model, q)
        assert p_mean == pytest.approx(mean, abs=1e-8)
        assert p_var == pytest.approx(var, abs=1e-8)
    assert lml(model) == pytest.approx(oracle_lml, abs=1e-8)


def test_constant_targets_reproduce_the_constant():
    x = np.linspace(0.0, 1.0, 5)
    model = make_gpr(x, np.full(5, 3.25), 1.0, 0.5, 0.0)
    for q in (0.0, 0.4, 2.0):
        assert posterior(model, q)[0] == pytest.approx(3.25, abs=1e-8)
    fitted = fit_gpr(x, np.full(5, 3.25), seed=0)
    for q in (0.0, 0.4, 2.0):
        assert posterior(fitted, q)[0] == pytest.approx(3.25, abs=1e-8)


# --------------------------------------------------------- fitted models ---


@pytest.fixture(scope="module")
def wiggly():
    x = np.linspace(0.0, 1.0, 9)
    return x, np.sin(2.5 * x) + 0.3 * x


def test_fit_nearly_interpolates_at_tiny_jitter(wiggly):
    x, y = wiggly
    model = fit_gpr(x, y, jitter=1e-10, seed=0)
    for xi, yi in zip(x, y):
        assert posterior(model, float(xi))[0] == pytest.approx(yi, abs=1e-5)


def test_far_query_reverts_to_prior(wiggly):
    x, y = wiggly
    model = fit_gpr(x, y, jitter=1e-8, seed=0)
    mean, variance = posterior(model, 1000.0)
    assert mean == pytest.approx(model.mean_constant[0], rel=1e-6)
    assert variance == pytest.approx(
        model.signal_variance[0] + model.noise_jitter[0], rel=1e-6
    )


def test_variance_stays_within_prior_band(wiggly):
    x, y = wiggly
    model = fit_gpr(x, y, jitter=1e-8, seed=0)
    ceiling = model.signal_variance[0] + model.noise_jitter[0] + 1e-10
    for q in np.linspace(-2.0, 3.0, 1000):
        v = posterior(model, float(q))[1]
        assert 0.0 <= v <= ceiling


def test_fitted_lml_beats_random_hyperparameters(wiggly):
    x, y = wiggly
    jitter = 1e-8
    model = fit_gpr(x, y, jitter=jitter, seed=0)
    best = lml(model)
    rng = np.random.default_rng(42)
    t_var = float(np.var(y))
    span = float(x.max() - x.min())
    for _ in range(20):
        sv = math.exp(rng.uniform(math.log(0.1 * t_var), math.log(10.0 * t_var)))
        ls = math.exp(rng.uniform(math.log(0.05 * span), math.log(2.0 * span)))
        alt = make_gpr(x, y, sv, ls, jitter)
        assert lml(alt) <= best + 1e-9


def test_lml_gradient_vanishes_at_fitted_optimum(wiggly):
    x, y = wiggly
    jitter = 1e-4
    model = fit_gpr(x, y, jitter=jitter, seed=0)

    def lml_at(log_sv, log_ls):
        return lml(make_gpr(x, y, math.exp(log_sv), math.exp(log_ls), jitter))

    s0 = math.log(model.signal_variance[0])
    l0 = math.log(model.length_scale[0])
    h = 1e-6
    g_sv = (lml_at(s0 + h, l0) - lml_at(s0 - h, l0)) / (2.0 * h)
    g_ls = (lml_at(s0, l0 + h) - lml_at(s0, l0 - h)) / (2.0 * h)
    assert abs(g_sv) < 1e-4
    assert abs(g_ls) < 1e-4


def test_fit_is_deterministic_given_seed(wiggly):
    x, y = wiggly
    a = fit_gpr(x, y, seed=3)
    b = fit_gpr(x, y, seed=3)
    np.testing.assert_array_equal(a.signal_variance, b.signal_variance)
    np.testing.assert_array_equal(a.length_scale, b.length_scale)
    np.testing.assert_array_equal(a.alpha, b.alpha)


# ------------------------------------------------------------ invariance ---


def test_training_order_does_not_matter(wiggly):
    x, y = wiggly
    perm = np.random.default_rng(1).permutation(x.size)
    a = make_gpr(x, y, 1.3, 0.6, 1e-8)
    b = make_gpr(x[perm], y[perm], 1.3, 0.6, 1e-8)
    for q in (0.1, 0.55, 0.9):
        assert posterior(a, q)[0] == pytest.approx(
            posterior(b, q)[0], abs=1e-10
        )
        assert posterior(a, q)[1] == pytest.approx(
            posterior(b, q)[1], abs=1e-10
        )


def test_affine_input_rescaling_with_matched_length_scale(wiggly):
    x, y = wiggly
    a, b = 2.0, 0.5
    base = make_gpr(x, y, 1.3, 0.6, 1e-8)
    moved = make_gpr(a * x + b, y, 1.3, a * 0.6, 1e-8)
    for q in (0.1, 0.55, 0.9):
        assert posterior(base, q)[0] == pytest.approx(
            posterior(moved, a * q + b)[0], abs=1e-8
        )


# ----------------------------------------------------- conditioning paths ---


def test_jitter_escalates_until_factorization_succeeds():
    # identical inputs make the kernel matrix exactly singular; the requested
    # jitter is below one ulp of the diagonal, so the first attempt fails
    model = make_gpr([0.5, 0.5, 0.5], [1.0, 2.0, 3.0], 1.0, 0.5, 1e-16)
    assert model.noise_jitter[0] > 1e-16
    assert model.noise_jitter[0] <= 1e-6 * model.signal_variance[0]
    assert math.isfinite(posterior(model, 0.5)[0])


def test_zero_jitter_singular_matrix_is_reported():
    with pytest.raises(NumericalError, match="singular and jitter is 0"):
        make_gpr([0.5, 0.5], [1.0, 2.0], 1.0, 0.5, 0.0)
    # with several GPs the error names the one that failed
    with pytest.raises(NumericalError, match="target row 1"):
        make_gpr([0.5, 0.5], [[1.0, 2.0], [1.0, 2.0]], 1.0, 0.5, [1e-2, 0.0])


SANE = ([0.0, 0.5, 1.0], [1.0, 2.0, 3.0])


@pytest.mark.parametrize("inputs, targets, sv, ls, jitter", [
    (*SANE, 1.0, 0.5, -1.0),
    (*SANE, 1.0, 0.5, math.nan),
    (*SANE, 1.0, 0.5, math.inf),
    ([0.0, 0.5, 1.0], [1.0, math.nan, 3.0], 1.0, 0.5, 1e-8),
    ([0.0, math.nan, 1.0], [1.0, 2.0, 3.0], 1.0, 0.5, 1e-8),
    ([0.0, 0.5, 1.0], [1.0, -math.inf, 3.0], 1.0, 0.5, 1e-8),
    (*SANE, 0.0, 1.0, 1e-8),
    (*SANE, 1.0, 0.0, 1e-8),
    (*SANE, -1.0, 1.0, 1e-8),
    (*SANE, 1.0, math.nan, 1e-8),
    # 2 l^2 overflows, or underflows to 0: the kernel would be NaN
    (*SANE, 1.0, 1e154, 1e-8),
    (*SANE, 1.0, 1e200, 1e-8),
    (*SANE, 1.0, 1e-162, 1e-8),
], ids=["negative-jitter", "nan-jitter", "inf-jitter", "nan-target",
        "nan-input", "inf-target", "zero-sv", "zero-ls", "negative-sv",
        "nan-ls", "ls-2ls2-overflows", "ls-squared-overflows",
        "ls-2ls2-underflows"])
def test_make_gpr_rejects_non_finite_data_and_bad_jitter(inputs, targets, sv,
                                                         ls, jitter):
    # rejected before any factorization is attempted
    with pytest.raises(ConfigurationError):
        make_gpr(inputs, targets, sv, ls, jitter)


def test_make_gpr_takes_one_hyperparameter_per_row(wiggly):
    x, y = wiggly
    targets = np.vstack([y, np.cos(3.0 * x)])
    both = make_gpr(x, targets, [1.3, 0.4], 0.6, [1e-8, 1e-6])
    assert both.alpha.shape == (x.size, 2, 1)
    for j, (row, sv, jitter) in enumerate(zip(targets, (1.3, 0.4),
                                              (1e-8, 1e-6))):
        alone = make_gpr(x, row, sv, 0.6, jitter)
        np.testing.assert_array_equal(both.alpha[:, j], alone.alpha[:, 0])
        np.testing.assert_array_equal(both.chol_factor[:, :, j],
                                      alone.chol_factor[:, :, 0])
        assert both.mean_constant[j] == alone.mean_constant[0]
    with pytest.raises(ConfigurationError, match="scalar or have shape"):
        make_gpr(x, targets, [1.0, 1.0, 1.0], 0.6, 1e-8)


def test_input_validation():
    with pytest.raises(ConfigurationError, match="distinct"):
        fit_gpr([0.5, 0.5], [1.0, 2.0])
    with pytest.raises(ConfigurationError, match="targets must have shape"):
        fit_gpr([0.0, 1.0], [1.0, 2.0, 3.0])
    with pytest.raises(ConfigurationError, match="at least one"):
        fit_gpr([], [])
    with pytest.raises(ConfigurationError, match="restarts"):
        fit_gpr([0.0, 1.0], [1.0, 2.0], restarts=0)


def test_model_arrays_are_frozen(wiggly):
    x, y = wiggly
    model = fit_gpr(x, y, seed=0)
    assert isinstance(model, GprModel)
    for f in dataclasses.fields(GprModel):
        with pytest.raises(ValueError):
            getattr(model, f.name)[(0,) * getattr(model, f.name).ndim] = 99.0


def test_query_constants_are_derived_at_construction(wiggly):
    x, y = wiggly
    model = fit_gpr(x, np.vstack([y, np.cos(3.0 * x)]), seed=0)
    sv, jitter = model.signal_variance, model.noise_jitter
    np.testing.assert_array_equal(model.input_column, x[:, None])
    np.testing.assert_array_equal(model.mean_column,
                                  model.train_targets.mean(axis=1)[:, None])
    np.testing.assert_array_equal(model.signal_column, sv[:, None])
    np.testing.assert_array_equal(model.prior_variance, (sv + jitter)[:, None])
    # by libm's pow, as the kernel rows of make_gpr compute it
    assert model.two_ls2.tolist() == [
        [2.0 * ls**2] for ls in model.length_scale.tolist()]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("ls", [0.3, 9e153, 1e-100, 1e-160])
def test_far_queries_are_the_prior_exactly_and_silently(ls):
    # d^2 or d^2 / 2 l^2 overflows at a far query, and at any query off the
    # training inputs once 2 l^2 is subnormal (l = 1e-160); exp(-inf) is
    # exactly 0, so the posterior is the prior, with no warning
    x = np.linspace(0.0, 1.0, 9)
    model = make_gpr(x, [np.sin(3.0 * x), x**2], 1.3, ls, 1e-6)
    queries = [1e200, -1e200, math.inf, -math.inf]
    if ls == 1e-160:
        queries.append(0.0625)
    means, variances = predict_gpr(model, queries)
    prior = model.signal_variance + model.noise_jitter
    for i in range(len(queries)):
        np.testing.assert_array_equal(means[:, i], model.mean_constant)
        np.testing.assert_array_equal(variances[:, i], prior)


# ------------------------------------------------ batched fit vs oracle ---


def assert_matches_oracle(model, oracle):
    """The fit's LML is at least the L-BFGS-B oracle's, to 1e-6 relative."""
    best, reference = lml(model), lml(oracle)
    assert best >= reference - 1e-6 * max(1.0, abs(reference))


def test_fit_matches_lbfgs_oracle_on_random_walks():
    # the ten data sets of acceptance criterion 4
    rng = np.random.default_rng(42)
    for ds in range(10):
        x = np.sort(rng.uniform(0.0, 1.0, size=9))
        y = np.cumsum(rng.normal(size=9)) * 0.1
        assert_matches_oracle(fit_gpr(x, y, restarts=8, seed=ds),
                              lbfgs_fit(x, y, restarts=8, seed=ds))


def test_fit_matches_lbfgs_oracle_at_other_jitters(wiggly):
    x, y = wiggly
    for jitter in (1e-10, 1e-6, 1e-4, 1e-2):
        assert_matches_oracle(fit_gpr(x, y, jitter=jitter, seed=0),
                              lbfgs_fit(x, y, jitter=jitter, seed=0))


def test_fit_gpr_rows_equal_single_row_fits(wiggly):
    # the constant row stops on the signal-variance bound and the rough one
    # on the length-scale bound while the other rows keep stepping
    x, y = wiggly
    targets = np.vstack([y, 3.0 * y**2, np.cos(4.0 * x), 1e-3 * y,
                         np.full_like(x, 0.7), np.cumsum(np.cos(17.0 * x))])
    together = fit_gpr(x, targets, seed=5)
    for j, row in enumerate(targets):
        alone = fit_gpr(x, row, seed=5)
        assert together.signal_variance[j] == alone.signal_variance[0]
        assert together.length_scale[j] == alone.length_scale[0]
        np.testing.assert_array_equal(together.alpha[:, j], alone.alpha[:, 0])


def test_fit_matches_lbfgs_oracle_on_narrow_interior_peak():
    # the LML peaks near log ls = -1.1, between two points of a 0.25 scan
    # grid; a fit that misses the peak stops near ls = 0.05, 2e-3 nats low
    x = np.array([0.0193484, 0.437346, 0.813613])
    y = np.array([0.071396, 0.0287192, -0.0753926])
    for seed in (0, 1, 2):
        assert_matches_oracle(fit_gpr(x, y, seed=seed),
                              lbfgs_fit(x, y, seed=seed))


def test_fit_gpr_validates_target_rows(wiggly):
    x, y = wiggly
    with pytest.raises(ConfigurationError, match="targets must have shape"):
        fit_gpr(x, np.empty((0, x.size)))
    with pytest.raises(ConfigurationError, match="targets must have shape"):
        fit_gpr(x, np.vstack([y, y])[:, :-1])
    with pytest.raises(ConfigurationError, match="restarts"):
        fit_gpr(x, y[None, :], restarts=0)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("inputs, targets", [
    ([0.0, math.nan, 0.5, 1.0], [1.0, 2.0, 0.0, 1.0]),
    ([0.0, math.inf, 1.0], [1.0, 2.0, 0.0]),
    ([0.0, 0.5, 1.0], [1.0, -math.inf, 0.0]),
])
def test_fit_gpr_rejects_non_finite_data_before_the_scan(inputs, targets):
    with pytest.raises(ConfigurationError, match="must be finite"):
        fit_gpr(inputs, targets)


def test_fit_gpr_bounds_restarts(wiggly, monkeypatch):
    # the bound is checked before any length scale is drawn
    import romforge.gpr as gpr

    def no_draw(seed):
        raise AssertionError("drew length scales")

    x, y = wiggly
    monkeypatch.setattr(gpr.np.random, "default_rng", no_draw)
    with pytest.raises(ConfigurationError, match=str(MAX_RESTARTS)):
        fit_gpr(x, y, restarts=MAX_RESTARTS + 1)
    monkeypatch.undo()
    assert fit_gpr(x, y, restarts=MAX_RESTARTS, seed=0).length_scale[0] > 0.0
    with pytest.raises(ConfigurationError, match="distinct"):
        fit_gpr(np.zeros(9), y[None, :])


def test_seeded_length_scales_join_the_scan(wiggly, monkeypatch):
    # the restarts draw log length scales from the start box with the seed;
    # they are evaluated alongside the fixed grid
    import romforge.gpr as gpr

    scanned = []
    spectrum = gpr._spectrum

    def recording(log_ls, sqd):
        scanned.append(np.array(log_ls))
        return spectrum(log_ls, sqd)

    monkeypatch.setattr(gpr, "_spectrum", recording)
    x, y = wiggly
    fit_gpr(x, y, restarts=3, seed=11)
    box = np.log(np.multiply(gpr.LENGTH_SCALE_BOX, 1.0))
    drawn = np.random.default_rng(11).uniform(box[0], box[1], 3)
    assert np.isin(drawn, scanned[0]).all()


def test_fit_decision_reports_the_fit(wiggly):
    x, y = wiggly
    model = fit_gpr(x, y, jitter=1e-4, seed=0)
    assert fit_decision(model, 1e-4) == [{
        "signal_variance": model.signal_variance[0],
        "length_scale": model.length_scale[0],
        "jitter": 1e-4,
        "jitter_escalated": False,
        "lml": lml(model),
        "at_bound": False,
    }]


def test_fit_decision_flags_bounds_and_escalation():
    # constant targets: the LML only falls with the signal variance, so the
    # fit stops on its lower bound
    x = np.linspace(0.0, 1.0, 5)
    flat = fit_gpr(x, np.full(5, 2.0), seed=0)
    lower = math.log(0.1) - SEARCH_MARGIN
    assert math.log(flat.signal_variance[0]) == pytest.approx(lower)
    assert fit_decision(flat)[0]["at_bound"]

    escalated = make_gpr([0.5, 0.5, 0.5], [1.0, 2.0, 3.0], 1.0, 0.5, 1e-16)
    assert fit_decision(escalated, 1e-16)[0]["jitter_escalated"]


# ------------------------------------------------- stacked posterior ---


def test_stacked_posterior_matches_per_model_posterior(wiggly):
    # a many-GP model against one make_gpr model per row, one query at a time
    x, y = wiggly
    targets = np.vstack([y, np.cos(3.0 * x), 0.01 * x**3])
    model = fit_gpr(x, targets, seed=0)
    queries = np.linspace(-0.5, 1.5, 41)
    means, variances = predict_gpr(model, queries)
    assert means.shape == variances.shape == (3, 41)
    for j, row in enumerate(targets):
        sv = model.signal_variance[j]
        single = make_gpr(x, row, sv, model.length_scale[j],
                          model.noise_jitter[j])
        scale = np.max(np.abs(row - single.mean_constant[0]))
        for i, q in enumerate(queries):
            mean, variance = posterior(single, q)
            assert means[j, i] == pytest.approx(mean, abs=1e-9 * scale)
            assert variances[j, i] == pytest.approx(variance, abs=1e-12 * sv)
    # each query's answer does not depend on the others, in a batch of 41
    # or of 1,000
    many = np.linspace(-0.5, 1.5, 1000)
    many_means, many_variances = predict_gpr(model, many)
    for i in (0, 17, 40):
        alone = predict_gpr(model, queries[i:i + 1])
        np.testing.assert_array_equal(alone[0][:, 0], means[:, i])
        np.testing.assert_array_equal(alone[1][:, 0], variances[:, i])
    for i in (0, 1, 333, 999):
        alone = predict_gpr(model, many[i:i + 1])
        np.testing.assert_array_equal(alone[0][:, 0], many_means[:, i])
        np.testing.assert_array_equal(alone[1][:, 0], many_variances[:, i])



@pytest.mark.parametrize("n", range(8, 20))
def test_one_gp_query_alone_equals_its_batch(n):
    # with one GP and one query the training points lie contiguous in
    # memory, where a plain sum would add them pairwise, not in order
    rng = np.random.default_rng(n)
    x = np.sort(rng.uniform(0.0, 1.0, n))
    model = make_gpr(x, rng.normal(size=n), 1.3, 0.2, 1e-6)
    queries = rng.uniform(-0.5, 1.5, 50)
    means, variances = predict_gpr(model, queries)
    for i, q in enumerate(queries):
        alone = predict_gpr(model, [q])
        assert alone[0][0, 0] == means[0, i]
        assert alone[1][0, 0] == variances[0, i]

def test_posterior_variance_matches_forward_substitution(wiggly):
    # v = L^-1 k* by column forward substitution on each cached Cholesky
    # factor, one query at a time, against the cached inverse factors
    x, y = wiggly
    model = fit_gpr(x, np.vstack([y, np.cos(3.0 * x), 0.01 * x**3]), seed=0)
    queries = np.linspace(-0.5, 1.5, 41)
    _, variances = predict_gpr(model, queries)
    for j, sv in enumerate(model.signal_variance):
        chol = model.chol_factor[:, :, j, 0]
        for i, q in enumerate(queries):
            v = sv * np.exp(-((x - q) ** 2) / (2.0 * model.length_scale[j]**2))
            for k in range(x.size):
                v[k] /= chol[k, k]
                v[k + 1:] -= chol[k + 1:, k] * v[k]
            expected = max(sv + model.noise_jitter[j] - v @ v, 0.0)
            assert abs(variances[j, i] - expected) <= 1e-10 * sv
