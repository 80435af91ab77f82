"""Exact Gaussian process regression with constant mean and RBF kernel.

One of these models is fitted per retained POD mode, mapping a (normalized)
dwell time to that mode's coefficient. Hyperparameters maximize the log
marginal likelihood (LML) in log-parameter space. The modes share their
inputs, so :func:`fit_gprs` fits them together: one eigendecomposition of
the unit correlation matrix per scanned length scale gives every mode's LML
in closed form with the signal variance profiled out (Rasmussen & Williams,
*GPML* 2006, sec. 5.4); a projected Newton polish on the Cholesky LML then
lands on a stationary point. Each model caches its Cholesky factor and dual
weights; :func:`predict_stack` evaluates many models at many points at once
(GPML Alg. 2.1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.linalg

from .errors import ConfigurationError, ConditioningError, ShapeError

__all__ = [
    "RbfKernel",
    "GprModel",
    "GprPrediction",
    "rbf_kernel",
    "make_gpr",
    "fit_gpr",
    "fit_gprs",
    "fit_decision",
    "predict_gpr",
    "GprStack",
    "stack_gprs",
    "predict_stack",
    "log_marginal_likelihood",
]

#: Default jitter, as a fraction of the target variance.
DEFAULT_JITTER_RATIO = 1e-8

#: Jitter escalation cap, as a fraction of the kernel signal variance.
MAX_JITTER_RATIO = 1e-6

#: Hyperparameter start box, relative to input range and target variance.
LENGTH_SCALE_BOX = (0.05, 2.0)
SIGNAL_VARIANCE_BOX = (0.1, 10.0)

#: The search bounds widen the start box by this many e-folds each side.
SEARCH_MARGIN = 14.0

# Log spacing of the length-scale scan and of the signal-variance grid that
# seeds each profile; iteration counts of the profile Newton solve, the
# golden-section refinement and the polish.
_SCAN_STEP = 0.25
_PROFILE_STEP = 2.0
_PROFILE_NEWTON_STEPS = 10
_REFINE_STEPS = 10
_POLISH_STEPS = 30
_POLISH_HALVINGS = 5
_POLISH_FTOL = 1e-13
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

# Relative eigenvalue floor below which the eigen-form LML is not trusted
# (the Cholesky factorization would be rounding-dominated there).
_SPECTRUM_FLOOR = 1e-14

_LOG_2PI = math.log(2.0 * math.pi)


@dataclass(frozen=True)
class RbfKernel:
    """Squared-exponential covariance with signal variance and length scale."""

    signal_variance: float
    length_scale: float

    def __post_init__(self):
        for name in ("signal_variance", "length_scale"):
            value = getattr(self, name)
            if not np.isfinite(value) or value <= 0.0:
                raise ConfigurationError(
                    f"{name} must be finite and > 0, got {value}"
                )


def rbf_kernel(kernel: RbfKernel, mu, mu_prime):
    """Evaluate ``sv * exp(-|mu - mu'|^2 / (2 l^2))`` (symmetric, vectorized)."""
    diff = np.asarray(mu, dtype=np.float64) - np.asarray(mu_prime, dtype=np.float64)
    return kernel.signal_variance * np.exp(
        -(diff**2) / (2.0 * kernel.length_scale**2)
    )


@dataclass(frozen=True)
class GprPrediction:
    mean: float
    variance: float


@dataclass(frozen=True)
class GprModel:
    """A fitted GP: training data, hyperparameters, and cached solves."""

    train_inputs: np.ndarray
    train_targets: np.ndarray
    mean_constant: float
    kernel: RbfKernel
    noise_jitter: float
    chol_factor: np.ndarray
    alpha: np.ndarray

    def __post_init__(self):
        n = np.asarray(self.train_inputs).shape[0]
        if n < 1:
            raise ConfigurationError("a GP needs at least one training point")
        if np.asarray(self.train_targets).shape != (n,):
            raise ShapeError("train_inputs and train_targets lengths differ")
        if self.chol_factor.shape != (n, n) or self.alpha.shape != (n,):
            raise ShapeError("cached factor/alpha inconsistent with n")
        if self.noise_jitter < 0.0:
            raise ConfigurationError("noise_jitter must be >= 0")
        for name in ("train_inputs", "train_targets", "chol_factor", "alpha"):
            arr = np.ascontiguousarray(
                np.asarray(getattr(self, name), dtype=np.float64)
            )
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def n_train(self) -> int:
        return self.train_inputs.shape[0]


def _sq_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return (a[:, None] - b[None, :]) ** 2


def _gram(kernel: RbfKernel, inputs: np.ndarray) -> np.ndarray:
    return kernel.signal_variance * np.exp(
        -_sq_dists(inputs, inputs) / (2.0 * kernel.length_scale**2)
    )


def make_gpr(inputs, targets, kernel: RbfKernel, jitter: float) -> GprModel:
    """Build a GP at fixed hyperparameters, caching Cholesky and dual weights.

    On Cholesky failure the jitter escalates tenfold up to
    ``MAX_JITTER_RATIO * signal_variance``; starting from zero jitter there is
    nothing to escalate and the singular matrix is reported directly.
    """
    inputs = np.asarray(inputs, dtype=np.float64).ravel()
    targets = np.asarray(targets, dtype=np.float64).ravel()
    if inputs.shape != targets.shape:
        raise ShapeError("inputs and targets must have equal length")
    n = inputs.shape[0]
    if n < 1:
        raise ConfigurationError("need at least one training point")

    mean_constant = float(targets.mean())
    resid = targets - mean_constant
    gram = _gram(kernel, inputs)
    eye = np.eye(n)
    cap = MAX_JITTER_RATIO * kernel.signal_variance
    jit = float(jitter)
    while True:
        try:
            chol = scipy.linalg.cholesky(gram + jit * eye, lower=True)
            break
        except scipy.linalg.LinAlgError:
            if jit <= 0.0:
                raise ConditioningError(
                    "kernel matrix is singular and jitter is 0 "
                    "(duplicate or near-duplicate inputs?)"
                ) from None
            if jit * 10.0 > cap:
                raise ConditioningError(
                    f"Cholesky failed even at jitter {jit:.3e} "
                    f"(cap {cap:.3e})"
                ) from None
            jit *= 10.0
    alpha = scipy.linalg.cho_solve((chol, True), resid)
    return GprModel(
        train_inputs=inputs,
        train_targets=targets,
        mean_constant=mean_constant,
        kernel=kernel,
        noise_jitter=jit,
        chol_factor=chol,
        alpha=alpha,
    )


def _requested_jitters(targets: np.ndarray, jitter: float | None):
    """Per-row jitter: ``jitter`` itself, or the default variance ratio."""
    if jitter is None:
        return DEFAULT_JITTER_RATIO * np.var(targets, axis=1)
    return np.full(targets.shape[0], float(jitter))


def _search_boxes(inputs: np.ndarray, target_vars: np.ndarray):
    """Start boxes in log space: ``(m, 2)`` for log sv, ``(2,)`` for log ls.

    Length scales are relative to the input range, signal variances to each
    target's variance. The search bounds widen each box by ``SEARCH_MARGIN``.
    """
    input_range = float(inputs.max() - inputs.min()) or 1.0
    sv_scale = np.where(target_vars > 0.0, target_vars, 1.0)
    sv_box = np.log(np.multiply.outer(sv_scale, SIGNAL_VARIANCE_BOX))
    ls_box = np.log(np.multiply(LENGTH_SCALE_BOX, input_range))
    return sv_box, ls_box


def _profile_lml(log_sv, lam, z2, jitter):
    """LML, less its constant, of kernels ``sv Q diag(lam) Q^T + jitter I``.

    ``z2`` holds the squared projected residuals ``(Q^T r)^2``; the last
    axis runs over eigenvalues and every other axis broadcasts. Where the
    spectrum is not safely positive the LML reads ``-inf``.
    """
    d = np.exp(log_sv)[..., None] * lam + jitter[..., None]
    with np.errstate(divide="ignore", invalid="ignore"):
        lml = -0.5 * np.sum(z2 / d + np.log(d), axis=-1)
    valid = d.min(axis=-1) > _SPECTRUM_FLOOR * d.max(axis=-1)
    return np.where(valid, lml, -np.inf)


def _profile_slopes(log_sv, lam, z2, jitter):
    """First and second log-sv derivatives of :func:`_profile_lml`."""
    a = np.exp(log_sv)[..., None] * lam
    d = a + jitter[..., None]
    with np.errstate(divide="ignore", invalid="ignore"):
        q = z2 / d
        w = a / d
        d1 = 0.5 * np.sum(w * (q - 1.0), axis=-1)
        d2 = 0.5 * np.sum(w * (q - 1.0 + w * (1.0 - 2.0 * q)), axis=-1)
    return d1, d2


def _profile(lam, z2, jitter, s_lo, s_hi, start=None):
    """Maximize the eigen-form LML over log sv in ``[s_lo, s_hi]``.

    Without ``start``, a grid of ``_PROFILE_STEP`` spacing picks the basin.
    Safeguarded Newton steps (bisection when a step leaves the bracket)
    then converge within one grid step of it. Returns ``(lml, log_sv)``
    with the shape of the leading axes.
    """
    shape = np.broadcast_shapes(lam.shape[:-1], jitter.shape, s_lo.shape)
    if start is None:
        best_f = np.full(shape, -np.inf)
        best_s = np.broadcast_to(s_lo, shape)
        count = int(np.ceil(np.max(s_hi - s_lo) / _PROFILE_STEP)) + 1
        for k in range(count):
            s = np.minimum(s_lo + k * _PROFILE_STEP, s_hi)
            f = _profile_lml(s, lam, z2, jitter)
            better = f > best_f
            best_f = np.where(better, f, best_f)
            best_s = np.where(better, s, best_s)
    else:
        best_s = np.broadcast_to(start, shape)
        best_f = _profile_lml(best_s, lam, z2, jitter)
    lo = np.maximum(s_lo, best_s - _PROFILE_STEP)
    hi = np.minimum(s_hi, best_s + _PROFILE_STEP)
    s = best_s
    for _ in range(_PROFILE_NEWTON_STEPS):
        d1, d2 = _profile_slopes(s, lam, z2, jitter)
        lo = np.where(d1 > 0.0, s, lo)
        hi = np.where(d1 > 0.0, hi, s)
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = s - d1 / d2
        inside = (d2 < 0.0) & (newton > lo) & (newton < hi)
        s = np.where(inside, newton, 0.5 * (lo + hi))
    f = _profile_lml(s, lam, z2, jitter)
    better = f > best_f
    return np.where(better, f, best_f), np.where(better, s, best_s)


def _spectrum(log_ls, sqd):
    """Eigenpairs of the unit correlation matrix at each log length scale."""
    return np.linalg.eigh(
        np.exp(-sqd / (2.0 * np.exp(2.0 * log_ls))[:, None, None]))


def _lml_derivatives(log_params, resid, sqd, jitter):
    """Cholesky LML with its gradient and Hessian in (log sv, log ls).

    With ``K_a`` the derivatives of the kernel matrix and ``alpha = K^-1 r``,
    ``dL/da = (alpha' K_a alpha - tr(K^-1 K_a)) / 2`` and
    ``d2L/dadb = -alpha' K_a K^-1 K_b alpha + alpha' K_ab alpha / 2
    + tr(K^-1 K_a K^-1 K_b) / 2 - tr(K^-1 K_ab) / 2``. Returns ``None``
    when the kernel matrix is not numerically positive definite.
    """
    sv, ls = np.exp(log_params)
    n = resid.shape[0]
    scaled = sqd / (ls * ls)
    k_s = sv * np.exp(-0.5 * scaled)        # dK/dlog sv, and K less jitter
    k_l = k_s * scaled                       # dK/dlog ls
    k_ll = k_l * scaled - 2.0 * k_l          # d2K/dlog ls2
    try:
        chol = np.linalg.cholesky(k_s + jitter * np.eye(n))
    except np.linalg.LinAlgError:
        return None
    alpha = scipy.linalg.cho_solve((chol, True), resid, check_finite=False)
    k_inv = scipy.linalg.cho_solve((chol, True), np.eye(n),
                                   check_finite=False)
    lml = (-0.5 * resid @ alpha - np.sum(np.log(np.diag(chol)))
           - 0.5 * n * _LOG_2PI)
    first = np.stack([k_s, k_l])
    u = first @ alpha
    w = k_inv @ first
    quad = u @ alpha
    trace = np.trace(w, axis1=1, axis2=2)
    grad = 0.5 * (quad - trace)
    # d2K/dlog sv2 = k_s and d2K/dlog sv dlog ls = k_l reuse the first terms
    quad2 = np.array([[quad[0], quad[1]], [quad[1], alpha @ k_ll @ alpha]])
    trace2 = np.array([[trace[0], trace[1]],
                       [trace[1], np.sum(k_inv * k_ll)]])
    hess = (-u @ k_inv @ u.T + 0.5 * np.einsum("aij,bji->ab", w, w)
            + 0.5 * (quad2 - trace2))
    return lml, grad, hess


def _polish(x, lo, hi, resid, sqd, jitter):
    """Projected Newton ascent of the Cholesky LML from ``x`` within bounds.

    Steps are accepted only when the LML rises, so the result is never worse
    than the start; a bound-active coordinate whose gradient points outward
    is held fixed.
    """
    current = _lml_derivatives(x, resid, sqd, jitter)
    if current is None:
        return x
    for _ in range(_POLISH_STEPS):
        lml, grad, hess = current
        free = ~(((x <= lo) & (grad < 0.0)) | ((x >= hi) & (grad > 0.0)))
        g = grad[free]
        if g.size == 0:
            break
        try:
            factor = scipy.linalg.cho_factor(-hess[np.ix_(free, free)])
            step = scipy.linalg.cho_solve(factor, g)
        except scipy.linalg.LinAlgError:
            step = g / max(1.0, float(np.max(np.abs(g))))
        # first-order gain of the full step; below the rounding noise of
        # the LML itself there is nothing left to gain
        if 0.5 * float(g @ step) <= _POLISH_FTOL * max(1.0, abs(lml)):
            break
        direction = np.zeros(2)
        direction[free] = step
        scale = 1.0
        for _ in range(_POLISH_HALVINGS):
            trial = np.clip(x + scale * direction, lo, hi)
            found = _lml_derivatives(trial, resid, sqd, jitter)
            if found is not None and found[0] > lml:
                break
            scale *= 0.5
        else:
            break
        x, current = trial, found
    return x


def _refine(grid, lml, log_sv, sqd, resid, jitters, s_lo, s_hi):
    """Golden-section search of each mode's profiled LML over log ls.

    The bracket is the pair of grid neighbours of the mode's best scan
    point. Returns the best ``(log_sv, log_ls)`` seen, one entry per mode.
    """
    modes = np.arange(resid.shape[0])
    best = np.argmax(lml, axis=0)
    best_t, best_f, start = grid[best], lml[best, modes], log_sv[best, modes]
    best_s = start

    def profiled(log_ls):
        lam, vecs = _spectrum(log_ls, sqd)
        z2 = np.einsum("mji,mj->mi", vecs, resid) ** 2
        return _profile(lam, z2, jitters, s_lo, s_hi, start)

    def keep(t, f, s):
        nonlocal best_t, best_f, best_s
        better = f > best_f
        best_t = np.where(better, t, best_t)
        best_f = np.where(better, f, best_f)
        best_s = np.where(better, s, best_s)

    a = grid[np.maximum(best - 1, 0)]
    b = grid[np.minimum(best + 1, grid.size - 1)]
    c, d = b - _GOLDEN * (b - a), a + _GOLDEN * (b - a)
    (fc, sc), (fd, sd) = profiled(c), profiled(d)
    keep(c, fc, sc)
    keep(d, fd, sd)
    for _ in range(_REFINE_STEPS):
        # keep the better interior point; probe one new point per mode
        left = fc >= fd
        a, b = np.where(left, a, c), np.where(left, d, b)
        probe = np.where(left, b - _GOLDEN * (b - a), a + _GOLDEN * (b - a))
        fp, sp = profiled(probe)
        keep(probe, fp, sp)
        c, fc, sc, d, fd, sd = (
            np.where(left, probe, d), np.where(left, fp, fd),
            np.where(left, sp, sd), np.where(left, c, probe),
            np.where(left, fc, fp), np.where(left, sc, sp))
    return best_s, best_t


def fit_gprs(inputs, targets, *, jitter: float | None = None,
             restarts: int = 8, seed: int = 0) -> list[GprModel]:
    """Fit one constant-mean RBF GP per row of ``targets`` on shared inputs.

    Each GP maximizes its log marginal likelihood over log signal variance
    and log length scale, within the start box widened by ``SEARCH_MARGIN``
    on every side:

    1. Scan: for every length scale on a ``_SCAN_STEP`` log grid across the
       bounds, plus ``restarts`` length scales drawn log-uniformly from the
       start box with ``seed``, one ``eigh`` of the unit correlation matrix
       gives each mode's LML in closed form; the signal variance is
       profiled out by Newton steps.
    2. Refine: golden-section search on the profiled LML inside the grid
       bracket around each mode's best length scale.
    3. Polish: projected Newton on the Cholesky LML, so the result is a
       stationary point (or a bound) of the likelihood the model reports.

    Parameters
    ----------
    inputs : (n,) array
        Training inputs, distinct, shared by every GP.
    targets : (m, n) array
        One row of training targets per GP.
    jitter : float, optional
        Diagonal conditioning term. Defaults to ``1e-8 * var(targets[j])``
        for each row ``j``.
    restarts : int
        Number of seeded length scales added to the scan, >= 1.
    seed : int
        Seed for those draws; fits are deterministic given a seed.
    """
    inputs = np.asarray(inputs, dtype=np.float64).ravel()
    targets = np.asarray(targets, dtype=np.float64)
    n = inputs.shape[0]
    if targets.ndim != 2 or targets.shape[1] != n:
        raise ShapeError("targets must have shape (m, len(inputs))")
    if n < 1:
        raise ConfigurationError("need at least one training point")
    if np.unique(inputs).size != n:
        raise ConfigurationError("training inputs must be distinct")
    if restarts < 1:
        raise ConfigurationError("restarts must be >= 1")

    target_vars = np.var(targets, axis=1)
    jitters = _requested_jitters(targets, jitter)
    sv_box, ls_box = _search_boxes(inputs, target_vars)
    s_lo, s_hi = sv_box[:, 0] - SEARCH_MARGIN, sv_box[:, 1] + SEARCH_MARGIN
    t_lo, t_hi = ls_box[0] - SEARCH_MARGIN, ls_box[1] + SEARCH_MARGIN
    resid = targets - targets.mean(axis=1, keepdims=True)
    sqd = _sq_dists(inputs, inputs)

    count = int(np.ceil((t_hi - t_lo) / _SCAN_STEP)) + 1
    seeded = np.random.default_rng(seed).uniform(ls_box[0], ls_box[1], restarts)
    grid = np.unique(np.concatenate([np.linspace(t_lo, t_hi, count), seeded]))
    lam, vecs = _spectrum(grid, sqd)
    z2 = np.einsum("gji,mj->gmi", vecs, resid) ** 2
    lml, log_sv = _profile(lam[:, None, :], z2, jitters, s_lo, s_hi)
    best_s, best_t = _refine(grid, lml, log_sv, sqd, resid, jitters, s_lo, s_hi)

    models = []
    for j in range(targets.shape[0]):
        x = _polish(np.array([best_s[j], best_t[j]]),
                    np.array([s_lo[j], t_lo]), np.array([s_hi[j], t_hi]),
                    resid[j], sqd, jitters[j])
        sv, ls = np.exp(x)
        try:
            models.append(make_gpr(inputs, targets[j], RbfKernel(sv, ls),
                                   jitters[j]))
        except ConditioningError as exc:
            raise ConditioningError(f"target row {j}: {exc}") from exc
    return models


def fit_gpr(inputs, targets, *, jitter: float | None = None, restarts: int = 8,
            seed: int = 0, kernel: RbfKernel | None = None) -> GprModel:
    """Fit a constant-mean RBF GP by maximizing the log marginal likelihood.

    The one-target case of :func:`fit_gprs`, which documents the search.

    Parameters
    ----------
    inputs, targets : (n,) arrays
        Training pairs; inputs must be distinct.
    jitter : float, optional
        Diagonal conditioning term. Defaults to ``1e-8 * var(targets)``.
    restarts : int
        Number of seeded length scales added to the scan, >= 1.
    seed : int
        Seed for those draws; fits are deterministic given a seed.
    kernel : RbfKernel, optional
        Skip the search and use these hyperparameters as-is.
    """
    inputs = np.asarray(inputs, dtype=np.float64).ravel()
    targets = np.asarray(targets, dtype=np.float64).ravel()
    if inputs.shape != targets.shape:
        raise ShapeError("inputs and targets must have equal length")
    if kernel is None:
        return fit_gprs(inputs, targets[None, :], jitter=jitter,
                        restarts=restarts, seed=seed)[0]
    if np.unique(inputs).size != inputs.shape[0]:
        raise ConfigurationError("training inputs must be distinct")
    jitter = _requested_jitters(targets[None, :], jitter)[0]
    return make_gpr(inputs, targets, kernel, jitter)


def predict_gpr(model: GprModel, mu_star: float) -> GprPrediction:
    """Posterior mean and variance at one query point.

    The variance is ``k(mu*, mu*) + jitter - |L^-1 k*|^2``, clamped at zero
    (the clamp only absorbs rounding noise of order 1e-10 x signal variance).
    """
    k_star = rbf_kernel(model.kernel, model.train_inputs, mu_star)
    mean = model.mean_constant + k_star @ model.alpha
    v = scipy.linalg.solve_triangular(model.chol_factor, k_star, lower=True)
    variance = (
        model.kernel.signal_variance + model.noise_jitter - float(v @ v)
    )
    return GprPrediction(mean=float(mean), variance=max(variance, 0.0))


class GprStack(NamedTuple):
    """GPs on shared training inputs, their cached solves stacked by GP.

    Arrays put the training-point axes first and the GP axis after them,
    with a trailing unit axis that broadcasts over query points.
    """

    inputs: np.ndarray            # (n,)
    chol_factor: np.ndarray       # (n, n, m, 1): [i, j] holds every L[i, j]
    alpha: np.ndarray             # (n, m, 1)
    mean_constant: np.ndarray     # (m, 1)
    signal_variance: np.ndarray   # (m, 1)
    two_ls2: np.ndarray           # (m, 1): 2 * length_scale**2
    noise_jitter: np.ndarray      # (m, 1)


def stack_gprs(models) -> GprStack:
    """Stack GPs that share their training inputs for :func:`predict_stack`."""
    models = tuple(models)
    if not models:
        raise ConfigurationError("need at least one GP to stack")
    inputs = models[0].train_inputs
    if any(not np.array_equal(g.train_inputs, inputs) for g in models[1:]):
        raise ConfigurationError("stacked GPs must share their training inputs")

    def column(values):
        return np.array(values, dtype=np.float64)[:, None]

    chol = np.stack([g.chol_factor for g in models], axis=-1)
    return GprStack(
        inputs=inputs,
        chol_factor=np.ascontiguousarray(chol[..., None]),
        alpha=np.stack([g.alpha for g in models], axis=-1)[..., None],
        mean_constant=column([g.mean_constant for g in models]),
        signal_variance=column([g.kernel.signal_variance for g in models]),
        two_ls2=column([2.0 * g.kernel.length_scale**2 for g in models]),
        noise_jitter=column([g.noise_jitter for g in models]),
    )


def predict_stack(stack: GprStack, mu_star) -> tuple[np.ndarray, np.ndarray]:
    """Posterior means and variances of every stacked GP at every query.

    GPML Alg. 2.1 for all GPs and all points at once. ``v = L^-1 k*`` comes
    from forward substitution on the stacked factors (no inverse is formed)
    and the variance is ``k(mu*, mu*) + jitter - |v|^2``, clamped at zero as
    in :func:`predict_gpr`. Every step is elementwise or a sum over training
    points, so each query's result does not depend on the others. Returns
    two ``(m, q)`` arrays for ``q`` queries.
    """
    mu_star = np.asarray(mu_star, dtype=np.float64).ravel()
    diff = stack.inputs[:, None] - mu_star[None, :]
    k_star = stack.signal_variance * np.exp(
        -(diff**2)[:, None, :] / stack.two_ls2)                 # (n, m, q)
    means = stack.mean_constant + (k_star * stack.alpha).sum(axis=0)
    chol = stack.chol_factor
    v = k_star
    for i in range(stack.inputs.shape[0]):
        v[i] /= chol[i, i]
        v[i + 1:] -= chol[i + 1:, i] * v[i]
    variances = stack.signal_variance + stack.noise_jitter - (v * v).sum(axis=0)
    return means, np.maximum(variances, 0.0)


def fit_decision(model: GprModel, jitter: float | None = None) -> dict:
    """What the fit decided for one GP, as a JSON-ready record.

    ``jitter`` is the value the fit was asked for (``None``: the default
    ratio of the target variance). The record holds the hyperparameters,
    the final jitter and whether :func:`make_gpr` escalated it, the log
    marginal likelihood, and whether a hyperparameter sits on a search
    bound (within 1e-9 in log space).
    """
    targets = model.train_targets[None, :]
    requested = _requested_jitters(targets, jitter)[0]
    sv_box, ls_box = _search_boxes(model.train_inputs, np.var(targets, axis=1))
    logs = (math.log(model.kernel.signal_variance),
            math.log(model.kernel.length_scale))
    bounds = ((sv_box[0, 0] - SEARCH_MARGIN, sv_box[0, 1] + SEARCH_MARGIN),
              (ls_box[0] - SEARCH_MARGIN, ls_box[1] + SEARCH_MARGIN))
    return {
        "signal_variance": model.kernel.signal_variance,
        "length_scale": model.kernel.length_scale,
        "jitter": model.noise_jitter,
        # escalation multiplies the jitter by ten at a time
        "jitter_escalated": bool(model.noise_jitter > 2.0 * requested),
        "lml": log_marginal_likelihood(model),
        "at_bound": any(abs(v - b) <= 1e-9
                        for v, pair in zip(logs, bounds) for b in pair),
    }


def log_marginal_likelihood(model: GprModel) -> float:
    """Log marginal likelihood of the training data, from the cached factor."""
    resid = model.train_targets - model.mean_constant
    return float(
        -0.5 * resid @ model.alpha
        - np.sum(np.log(np.diag(model.chol_factor)))
        - 0.5 * model.n_train * _LOG_2PI
    )
