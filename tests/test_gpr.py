"""Gaussian process regression against dense linear-algebra oracles.

Every posterior quantity is checked against a from-scratch computation using
explicit matrix inverses; the library itself only ever factorizes.
"""

import math

import numpy as np
import pytest

from lbfgs_oracle import lbfgs_fit
from romforge.errors import ConditioningError, ConfigurationError, ShapeError
from romforge.gpr import (
    SEARCH_MARGIN,
    GprModel,
    RbfKernel,
    fit_decision,
    fit_gpr,
    fit_gprs,
    log_marginal_likelihood,
    make_gpr,
    predict_gpr,
    predict_stack,
    rbf_kernel,
    stack_gprs,
)

LOG_2PI = math.log(2.0 * math.pi)


def dense_oracle(x, y, kernel, jitter):
    """Posterior mean/variance/LML via explicit inverse (no Cholesky)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = x.size
    gram = kernel.signal_variance * np.exp(
        -((x[:, None] - x[None, :]) ** 2) / (2.0 * kernel.length_scale**2)
    ) + jitter * np.eye(n)
    k_inv = np.linalg.inv(gram)
    resid = y - y.mean()

    def posterior(q):
        k_star = kernel.signal_variance * np.exp(
            -((x - q) ** 2) / (2.0 * kernel.length_scale**2)
        )
        mean = y.mean() + k_star @ k_inv @ resid
        var = kernel.signal_variance + jitter - k_star @ k_inv @ k_star
        return mean, var

    _, logdet = np.linalg.slogdet(gram)
    lml = -0.5 * resid @ k_inv @ resid - 0.5 * logdet - 0.5 * n * LOG_2PI
    return posterior, lml


# ---------------------------------------------------------------- kernel ---


def test_kernel_closed_form_values():
    k = RbfKernel(signal_variance=2.0, length_scale=0.5)
    # zero separation returns the signal variance exactly
    assert rbf_kernel(k, 0.7, 0.7) == 2.0
    # separation of l*sqrt(2) decays by exactly e^-1
    assert rbf_kernel(k, 0.0, 0.5 * math.sqrt(2.0)) == pytest.approx(
        2.0 * math.exp(-1.0), rel=1e-12
    )
    assert rbf_kernel(k, 0.2, 0.9) == rbf_kernel(k, 0.9, 0.2)


def test_kernel_vectorizes_and_validates():
    k = RbfKernel(1.0, 1.0)
    xs = np.array([0.0, 1.0, 2.0])
    np.testing.assert_allclose(
        rbf_kernel(k, xs, 0.0), np.exp(-(xs**2) / 2.0), rtol=1e-15
    )
    for sv, ls in ((0.0, 1.0), (1.0, 0.0), (-1.0, 1.0), (1.0, float("nan"))):
        with pytest.raises(ConfigurationError):
            RbfKernel(sv, ls)


# ------------------------------------------------------- one-point model ---


def test_single_point_posterior():
    kernel = RbfKernel(1.0, 0.5)
    jitter = 1e-8
    model = make_gpr([0.3], [2.5], kernel, jitter)

    # zero residual: the posterior mean is the constant everywhere
    assert predict_gpr(model, 0.3).mean == 2.5
    assert predict_gpr(model, 17.0).mean == 2.5

    # at the training point the variance collapses to j(2 sv + j)/(sv + j),
    # sandwiched between one and two jitters
    var = predict_gpr(model, 0.3).variance
    assert jitter <= var <= 2.0 * jitter

    assert log_marginal_likelihood(model) == pytest.approx(
        -0.5 * math.log(1.0 + jitter) - 0.5 * LOG_2PI, rel=1e-12
    )


def test_single_point_zero_jitter_is_exact():
    model = make_gpr([0.3], [2.5], RbfKernel(1.0, 0.5), 0.0)
    assert predict_gpr(model, 0.3).variance == 0.0


# ---------------------------------------------------------- dense oracle ---


def test_posterior_matches_dense_inverse():
    x = np.array([0.0, 0.3, 0.5, 0.85, 1.0])
    y = np.sin(3.0 * x) + 0.2 * x**2
    kernel = RbfKernel(2.0, 0.7)
    jitter = 1e-8
    model = make_gpr(x, y, kernel, jitter)
    posterior, lml = dense_oracle(x, y, kernel, jitter)

    for q in (0.2, 0.6, 1.4, -0.5):
        mean, var = posterior(q)
        p = predict_gpr(model, q)
        assert p.mean == pytest.approx(mean, abs=1e-8)
        assert p.variance == pytest.approx(var, abs=1e-8)
    assert log_marginal_likelihood(model) == pytest.approx(lml, abs=1e-8)


def test_constant_targets_reproduce_the_constant():
    x = np.linspace(0.0, 1.0, 5)
    model = make_gpr(x, np.full(5, 3.25), RbfKernel(1.0, 0.5), 0.0)
    for q in (0.0, 0.4, 2.0):
        assert predict_gpr(model, q).mean == pytest.approx(3.25, abs=1e-8)
    fitted = fit_gpr(x, np.full(5, 3.25), seed=0)
    for q in (0.0, 0.4, 2.0):
        assert predict_gpr(fitted, q).mean == pytest.approx(3.25, abs=1e-8)


# --------------------------------------------------------- fitted models ---


@pytest.fixture(scope="module")
def wiggly():
    x = np.linspace(0.0, 1.0, 9)
    return x, np.sin(2.5 * x) + 0.3 * x


def test_fit_nearly_interpolates_at_tiny_jitter(wiggly):
    x, y = wiggly
    model = fit_gpr(x, y, jitter=1e-10, seed=0)
    for xi, yi in zip(x, y):
        assert predict_gpr(model, float(xi)).mean == pytest.approx(yi, abs=1e-5)


def test_far_query_reverts_to_prior(wiggly):
    x, y = wiggly
    model = fit_gpr(x, y, jitter=1e-8, seed=0)
    p = predict_gpr(model, 1000.0)
    assert p.mean == pytest.approx(model.mean_constant, rel=1e-6)
    assert p.variance == pytest.approx(
        model.kernel.signal_variance + model.noise_jitter, rel=1e-6
    )


def test_variance_stays_within_prior_band(wiggly):
    x, y = wiggly
    model = fit_gpr(x, y, jitter=1e-8, seed=0)
    ceiling = model.kernel.signal_variance + model.noise_jitter + 1e-10
    for q in np.linspace(-2.0, 3.0, 1000):
        v = predict_gpr(model, float(q)).variance
        assert 0.0 <= v <= ceiling


def test_fitted_lml_beats_random_hyperparameters(wiggly):
    x, y = wiggly
    jitter = 1e-8
    model = fit_gpr(x, y, jitter=jitter, seed=0)
    best = log_marginal_likelihood(model)
    rng = np.random.default_rng(42)
    t_var = float(np.var(y))
    span = float(x.max() - x.min())
    for _ in range(20):
        sv = math.exp(rng.uniform(math.log(0.1 * t_var), math.log(10.0 * t_var)))
        ls = math.exp(rng.uniform(math.log(0.05 * span), math.log(2.0 * span)))
        alt = make_gpr(x, y, RbfKernel(sv, ls), jitter)
        assert log_marginal_likelihood(alt) <= best + 1e-9


def test_lml_gradient_vanishes_at_fitted_optimum(wiggly):
    x, y = wiggly
    jitter = 1e-4
    model = fit_gpr(x, y, jitter=jitter, seed=0)

    def lml(log_sv, log_ls):
        k = RbfKernel(math.exp(log_sv), math.exp(log_ls))
        return log_marginal_likelihood(make_gpr(x, y, k, jitter))

    s0 = math.log(model.kernel.signal_variance)
    l0 = math.log(model.kernel.length_scale)
    h = 1e-6
    g_sv = (lml(s0 + h, l0) - lml(s0 - h, l0)) / (2.0 * h)
    g_ls = (lml(s0, l0 + h) - lml(s0, l0 - h)) / (2.0 * h)
    assert abs(g_sv) < 1e-4
    assert abs(g_ls) < 1e-4


def test_fit_is_deterministic_given_seed(wiggly):
    x, y = wiggly
    a = fit_gpr(x, y, seed=3)
    b = fit_gpr(x, y, seed=3)
    assert a.kernel == b.kernel
    np.testing.assert_array_equal(a.alpha, b.alpha)


# ------------------------------------------------------------ invariance ---


def test_training_order_does_not_matter(wiggly):
    x, y = wiggly
    kernel = RbfKernel(1.3, 0.6)
    perm = np.random.default_rng(1).permutation(x.size)
    a = make_gpr(x, y, kernel, 1e-8)
    b = make_gpr(x[perm], y[perm], kernel, 1e-8)
    for q in (0.1, 0.55, 0.9):
        assert predict_gpr(a, q).mean == pytest.approx(
            predict_gpr(b, q).mean, abs=1e-10
        )
        assert predict_gpr(a, q).variance == pytest.approx(
            predict_gpr(b, q).variance, abs=1e-10
        )


def test_affine_input_rescaling_with_matched_length_scale(wiggly):
    x, y = wiggly
    a, b = 2.0, 0.5
    base = make_gpr(x, y, RbfKernel(1.3, 0.6), 1e-8)
    moved = make_gpr(a * x + b, y, RbfKernel(1.3, a * 0.6), 1e-8)
    for q in (0.1, 0.55, 0.9):
        assert predict_gpr(base, q).mean == pytest.approx(
            predict_gpr(moved, a * q + b).mean, abs=1e-8
        )


# ----------------------------------------------------- conditioning paths ---


def test_jitter_escalates_until_factorization_succeeds():
    # identical inputs make the kernel matrix exactly singular; the requested
    # jitter is below one ulp of the diagonal, so the first attempt fails
    model = make_gpr([0.5, 0.5, 0.5], [1.0, 2.0, 3.0], RbfKernel(1.0, 0.5), 1e-16)
    assert model.noise_jitter > 1e-16
    assert model.noise_jitter <= 1e-6 * model.kernel.signal_variance
    assert math.isfinite(predict_gpr(model, 0.5).mean)


def test_zero_jitter_singular_matrix_is_reported():
    with pytest.raises(ConditioningError):
        make_gpr([0.5, 0.5], [1.0, 2.0], RbfKernel(1.0, 0.5), 0.0)


def test_input_validation():
    with pytest.raises(ConfigurationError):
        fit_gpr([0.5, 0.5], [1.0, 2.0])
    with pytest.raises(ShapeError):
        fit_gpr([0.0, 1.0], [1.0, 2.0, 3.0])
    with pytest.raises(ConfigurationError):
        fit_gpr([], [])
    with pytest.raises(ConfigurationError):
        fit_gpr([0.0, 1.0], [1.0, 2.0], restarts=0)


def test_model_arrays_are_frozen(wiggly):
    x, y = wiggly
    model = fit_gpr(x, y, seed=0)
    assert isinstance(model, GprModel)
    with pytest.raises(ValueError):
        model.train_inputs[0] = 99.0


# ------------------------------------------------ batched fit vs oracle ---


def assert_matches_oracle(model, oracle):
    """The fit's LML is at least the L-BFGS-B oracle's, to 1e-6 relative."""
    best, reference = (log_marginal_likelihood(model),
                       log_marginal_likelihood(oracle))
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


def test_fit_gprs_rows_equal_single_fits(wiggly):
    x, y = wiggly
    targets = np.vstack([y, 3.0 * y**2, np.cos(4.0 * x), 1e-3 * y])
    together = fit_gprs(x, targets, seed=5)
    for row, model in zip(targets, together):
        alone = fit_gpr(x, row, seed=5)
        assert model.kernel == alone.kernel
        np.testing.assert_array_equal(model.alpha, alone.alpha)


def test_fit_gprs_validates_inputs(wiggly):
    x, y = wiggly
    with pytest.raises(ShapeError):
        fit_gprs(x, y)
    with pytest.raises(ShapeError):
        fit_gprs(x, np.vstack([y, y])[:, :-1])
    with pytest.raises(ConfigurationError):
        fit_gprs(x, y[None, :], restarts=0)
    with pytest.raises(ConfigurationError):
        fit_gprs(np.zeros(9), y[None, :])


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
    record = fit_decision(model, 1e-4)
    assert record == {
        "signal_variance": model.kernel.signal_variance,
        "length_scale": model.kernel.length_scale,
        "jitter": 1e-4,
        "jitter_escalated": False,
        "lml": log_marginal_likelihood(model),
        "at_bound": False,
    }


def test_fit_decision_flags_bounds_and_escalation():
    # constant targets: the LML only falls with the signal variance, so the
    # fit stops on its lower bound
    x = np.linspace(0.0, 1.0, 5)
    flat = fit_gpr(x, np.full(5, 2.0), seed=0)
    lower = math.log(0.1) - SEARCH_MARGIN
    assert math.log(flat.kernel.signal_variance) == pytest.approx(lower)
    assert fit_decision(flat)["at_bound"]

    escalated = make_gpr([0.5, 0.5, 0.5], [1.0, 2.0, 3.0],
                         RbfKernel(1.0, 0.5), 1e-16)
    assert fit_decision(escalated, 1e-16)["jitter_escalated"]


# ------------------------------------------------- stacked posterior ---


def test_stacked_posterior_matches_per_model_posterior(wiggly):
    x, y = wiggly
    models = fit_gprs(x, np.vstack([y, np.cos(3.0 * x), 0.01 * x**3]),
                      seed=0)
    queries = np.linspace(-0.5, 1.5, 41)
    means, variances = predict_stack(stack_gprs(models), queries)
    assert means.shape == variances.shape == (3, 41)
    for j, model in enumerate(models):
        scale = np.max(np.abs(model.train_targets - model.mean_constant))
        for i, q in enumerate(queries):
            single = predict_gpr(model, q)
            assert means[j, i] == pytest.approx(single.mean, abs=1e-9 * scale)
            assert variances[j, i] == pytest.approx(
                single.variance, abs=1e-12 * model.kernel.signal_variance)
    # each query's answer does not depend on the others
    for i in (0, 17, 40):
        alone = predict_stack(stack_gprs(models), queries[i:i + 1])
        np.testing.assert_array_equal(alone[0][:, 0], means[:, i])
        np.testing.assert_array_equal(alone[1][:, 0], variances[:, i])


def test_stacking_needs_shared_inputs(wiggly):
    x, y = wiggly
    a = make_gpr(x, y, RbfKernel(1.0, 0.5), 1e-8)
    b = make_gpr(x + 0.01, y, RbfKernel(1.0, 0.5), 1e-8)
    with pytest.raises(ConfigurationError):
        stack_gprs([a, b])
    with pytest.raises(ConfigurationError):
        stack_gprs([])
