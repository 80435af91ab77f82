"""Exact Gaussian process regression with constant mean and RBF kernel.

A :class:`GprModel` holds m >= 1 such GPs on shared inputs; a POD-GPR has
one per retained POD mode, mapping a (normalized) dwell time to that mode's
coefficient. Hyperparameters maximize each GP's log marginal likelihood
(LML) in log-parameter space. The GPs share their inputs, so
:func:`fit_gpr` fits them together: one eigendecomposition of the unit
correlation matrix per scanned length scale gives every GP's LML in closed
form with the signal variance profiled out (Rasmussen & Williams, *GPML*
2006, sec. 5.4), on arrays that put the scanned length scales last, so no
GP's fit depends on the rows beside it. From each GP's best scan point, one
projected Newton polish of all GPs on the same eigen-form LML lands on a
stationary point. A :class:`GprModel` is made from the five facts an
archive stores and derives each GP's Cholesky factor ``L``, ``L^-1`` and
dual weights, so :func:`predict_gpr` evaluates every GP at many points in a
fixed number of array operations (GPML Alg. 2.1; Pleiss et al., ICML 2018).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, NumericalError

__all__ = [
    "GprModel",
    "make_gpr",
    "fit_gpr",
    "fit_decision",
    "predict_gpr",
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

#: Most seeded length scales one fit may add to its scan.
MAX_RESTARTS = 10_000

# Log spacing of the length-scale scan and of the signal-variance grid that
# seeds each profile; iteration counts of the profile Newton solve and of
# the polish.
_SCAN_STEP = 0.125
_PROFILE_STEP = 2.0
_PROFILE_NEWTON_STEPS = 10
_POLISH_STEPS = 30
_POLISH_HALVINGS = 5
_POLISH_FTOL = 1e-13

# Relative eigenvalue floor below which the eigen-form LML is not trusted
# (the kernel matrix is rounding-dominated there); scan and polish share it.
_SPECTRUM_FLOOR = 1e-14

_LOG_2PI = math.log(2.0 * math.pi)


@dataclass(frozen=True)
class GprModel:
    """GPs on shared training inputs, made from the five facts an archive
    stores; every field after ``noise_jitter`` is derived from them.

    ``train_targets`` is ``(n,)`` for one GP or ``(m, n)``, one GP per row;
    each hyperparameter is a scalar or ``(m,)``. Inputs and targets must be
    finite, signal variances and length scales > 0 and jitters >= 0, all
    finite. On Cholesky failure a GP's jitter escalates tenfold up to
    ``MAX_JITTER_RATIO * signal_variance``, and the jitter used is kept;
    from zero jitter the singular matrix is reported, naming the row when
    there are several GPs.

    Derived arrays put the GP axis first, shaped for :func:`predict_gpr`'s
    broadcasts over ``q`` queries. ``posterior_weights[j, i]`` holds every
    ``L^-1[i, j]`` for ``i < n``, by forward substitution of the identity,
    and ``alpha[j]`` at ``i = n``; ``K^-1``, whose condition number is the
    square of ``L``'s, is never formed.
    """

    train_inputs: np.ndarray      # (n,)
    train_targets: np.ndarray     # (m, n)
    signal_variance: np.ndarray   # (m,)
    length_scale: np.ndarray      # (m,)
    noise_jitter: np.ndarray      # (m,)
    chol_factor: np.ndarray = field(init=False)  # (n, n, m, 1), L at [i, j]
    alpha: np.ndarray = field(init=False)                          # (n, m, 1)
    mean_constant: np.ndarray = field(init=False)                  # (m,)
    input_column: np.ndarray = field(init=False, repr=False)       # (n, 1)
    mean_column: np.ndarray = field(init=False, repr=False)        # (m, 1)
    signal_column: np.ndarray = field(init=False, repr=False)      # (m, 1)
    two_ls2: np.ndarray = field(init=False, repr=False)            # (m, 1)
    prior_variance: np.ndarray = field(init=False, repr=False)     # (m, 1)
    # (n, n + 1, m, 1)
    posterior_weights: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        inputs = np.asarray(self.train_inputs, dtype=np.float64).ravel()
        targets = _target_rows(inputs, self.train_targets)
        m, n = targets.shape
        sv_all = _per_gp("signal_variance", self.signal_variance, m, True)
        ls_all = _per_gp("length_scale", self.length_scale, m, True)
        jitters = _per_gp("jitter", self.noise_jitter, m, False)
        two_ls2 = np.array([_two_ls2(ls) for ls in ls_all.tolist()])
        with np.errstate(over="ignore"):  # as in predict_gpr
            grams = sv_all[:, None, None] * np.exp(
                -_sq_dists(inputs, inputs) / two_ls2[:, None, None])
        resid = targets - targets.mean(axis=1, keepdims=True)
        eye = np.eye(n)
        chol = np.empty((n, n, m, 1))
        alpha = np.empty((n, m, 1))
        for j, gram in enumerate(grams):
            sv, jit = float(sv_all[j]), float(jitters[j])
            cap = MAX_JITTER_RATIO * sv
            row = f"target row {j}: " if m > 1 else ""
            while True:
                k = gram + jit * eye
                try:
                    chol[:, :, j, 0] = np.linalg.cholesky(k)
                    break
                except np.linalg.LinAlgError:
                    if jit <= 0.0:
                        raise NumericalError(
                            f"{row}kernel matrix is singular and jitter is 0 "
                            "(duplicate or near-duplicate inputs?)"
                        ) from None
                    if jit * 10.0 > cap:
                        raise NumericalError(
                            f"{row}Cholesky failed even at jitter {jit:.3e} "
                            f"(cap {cap:.3e})"
                        ) from None
                    jit *= 10.0
            alpha[:, j, 0] = np.linalg.solve(k, resid[j])
            jitters[j] = jit
        inverse = np.eye(n)[:, :, None, None] * np.ones((m, 1))  # L X = I
        for i in range(n):
            inverse[i] /= chol[i, i]
            inverse[i + 1:] -= chol[i + 1:, i, None] * inverse[i]
        inputs, targets, sv_all = map(_frozen, (inputs, targets, sv_all))
        mean = _frozen(targets.mean(axis=1))
        values = {
            "train_inputs": inputs,
            "train_targets": targets,
            "signal_variance": sv_all,
            "length_scale": _frozen(ls_all),
            "noise_jitter": _frozen(jitters),
            "chol_factor": _frozen(chol),
            "alpha": _frozen(alpha),
            "mean_constant": mean,
            "input_column": inputs[:, None],
            "mean_column": mean[:, None],
            "signal_column": sv_all[:, None],
            "two_ls2": _frozen(two_ls2[:, None]),
            # k(mu, mu) + jitter, added as the posterior variance adds it
            "prior_variance": _frozen((sv_all + jitters)[:, None]),
            "posterior_weights": _frozen(np.concatenate(
                [inverse.transpose(1, 0, 2, 3), alpha[:, None]], axis=1)),
        }
        for name, value in values.items():
            object.__setattr__(self, name, value)

    @property
    def n_train(self) -> int:
        return self.train_inputs.shape[0]


def _two_ls2(length_scale: float) -> float:
    """``2 l^2`` as every kernel row computes it, by libm's pow, which rounds
    ``l**2`` unlike ``l * l`` about once in a thousand. Where it is 0 or past
    float range the kernel would be NaN: a :class:`ConfigurationError`."""
    two_ls2 = 2.0 * length_scale**2 if length_scale < 1e154 else math.inf
    if not 0.0 < two_ls2 < math.inf:
        raise ConfigurationError(f"length_scale {length_scale}: 2 l^2 is 0 "
                                 "or past float range")
    return two_ls2


def _frozen(values) -> np.ndarray:
    arr = np.array(values, dtype=np.float64, order="C")
    arr.setflags(write=False)
    return arr


def _sorted_unique(values: np.ndarray) -> np.ndarray:
    """``np.unique`` of a float array by one sort: NaNs sort last and count
    as one value. (``np.unique`` imports ``numpy.ma``, which nothing else a
    CLI run does needs.)"""
    ordered = np.sort(values)
    keep = np.ones(ordered.shape, dtype=bool)
    keep[1:] = (ordered[1:] != ordered[:-1]) & ~np.isnan(ordered[:-1])
    return ordered[keep]


def _sq_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return (a[:, None] - b[None, :]) ** 2


def _target_rows(inputs: np.ndarray, targets) -> np.ndarray:
    """``targets`` as ``(m, n)`` rows on ``n >= 1`` inputs; ``(n,)`` is one.
    Inputs and targets must be finite."""
    targets = np.asarray(targets, dtype=np.float64)
    if targets.ndim == 1:
        targets = targets[None, :]
    n = inputs.shape[0]
    if targets.ndim != 2 or targets.shape[1] != n or targets.shape[0] < 1:
        raise ConfigurationError("targets must have shape (n,) or (m, n) "
                                 f"for n = {n} inputs, got {targets.shape}")
    if n < 1:
        raise ConfigurationError("need at least one training point")
    if not (np.isfinite(inputs).all() and np.isfinite(targets).all()):
        raise ConfigurationError("training inputs and targets must be finite")
    return targets


def _per_gp(name: str, value, m: int, positive: bool) -> np.ndarray:
    """A scalar or ``(m,)`` hyperparameter as a fresh ``(m,)`` array, each
    entry finite and > 0 (``positive``) or >= 0."""
    values = np.array(value, dtype=np.float64)
    if values.ndim == 0:
        values = np.full(m, values)
    if values.shape != (m,):
        raise ConfigurationError(f"{name} must be a scalar or have shape ({m},)")
    low = values <= 0.0 if positive else values < 0.0
    if not np.isfinite(values).all() or low.any():
        raise ConfigurationError(f"{name} must be finite and "
                                 f"{'>' if positive else '>='} 0, got {value}")
    return values


def make_gpr(inputs, targets, signal_variance, length_scale,
             jitter) -> GprModel:
    """The :class:`GprModel` of these five facts, factorized."""
    return GprModel(inputs, targets, signal_variance, length_scale, jitter)


def _requested_jitters(targets: np.ndarray, jitter: float | None):
    """Per-row jitter: ``jitter`` itself, or the default variance ratio."""
    if jitter is None:
        return DEFAULT_JITTER_RATIO * np.var(targets, axis=1)
    return np.full(targets.shape[0], float(jitter))


def _search_bounds(inputs: np.ndarray, targets: np.ndarray):
    """The log length-scale start box ``(2,)`` and the lower and upper
    ``(m, 2)`` bounds on each GP's log sv and log ls.

    Start boxes are relative to the input range (length scales) and each
    target's variance (signal variances); the bounds widen them by
    ``SEARCH_MARGIN``.
    """
    target_vars = np.var(targets, axis=1)
    input_range = float(inputs.max() - inputs.min()) or 1.0
    sv_scale = np.where(target_vars > 0.0, target_vars, 1.0)
    sv_box = np.log(np.multiply.outer(sv_scale, SIGNAL_VARIANCE_BOX))
    ls_box = np.log(np.multiply(LENGTH_SCALE_BOX, input_range))
    boxes = np.stack([sv_box, np.broadcast_to(ls_box, sv_box.shape)], axis=1)
    return ls_box, boxes[:, :, 0] - SEARCH_MARGIN, boxes[:, :, 1] + SEARCH_MARGIN


def _profile_lml(log_sv, lam, z2, jitter):
    """LML, less its constant, of kernels ``sv Q diag(lam) Q^T + jitter I``.

    ``z2`` holds the squared projected residuals ``(Q^T r)^2``; the first
    axis runs over eigenvalues, ascending as ``eigh`` returns them, and the
    others broadcast, ``(m, G)`` in the scan: m GPs, then G length scales.
    Where the spectrum is not safely positive the LML reads ``-inf``.
    """
    d = np.exp(log_sv) * lam + jitter
    with np.errstate(divide="ignore", invalid="ignore"):
        lml = -0.5 * np.sum(z2 / d + np.log(d), axis=0)
    # rounding is monotone, so d keeps the order of lam
    return np.where(d[0] > _SPECTRUM_FLOOR * d[-1], lml, -np.inf)


def _profile_slopes(log_sv, lam, z2, jitter):
    """d/d log sv and d2/d log sv2 of :func:`_profile_lml`, on its axes."""
    a = np.exp(log_sv) * lam
    d = a + jitter
    with np.errstate(divide="ignore", invalid="ignore"):
        q = z2 / d
        w = a / d
        d1 = 0.5 * np.sum(w * (q - 1.0), axis=0)
        d2 = 0.5 * np.sum(w * (q - 1.0 + w * (1.0 - 2.0 * q)), axis=0)
    return d1, d2


def _profile(lam, z2, jitter, s_lo, s_hi):
    """Maximize the eigen-form LML over log sv in ``[s_lo, s_hi]``.

    A grid of ``_PROFILE_STEP`` spacing picks the basin. Safeguarded Newton
    steps (bisection when a step leaves the bracket) then converge within
    one grid step of it. Returns ``(lml, log_sv)`` with the shape of the
    other axes: ``(m, G)`` in the scan, with ``(m, 1)`` bounds and jitters.
    """
    shape = np.broadcast_shapes(lam.shape[1:], jitter.shape, s_lo.shape)
    best_f = np.full(shape, -np.inf)
    best_s = np.broadcast_to(s_lo, shape)
    count = int(np.ceil(np.max(s_hi - s_lo) / _PROFILE_STEP)) + 1
    for k in range(count):
        s = np.minimum(s_lo + k * _PROFILE_STEP, s_hi)
        f = _profile_lml(s, lam, z2, jitter)
        better = f > best_f
        best_f = np.where(better, f, best_f)
        best_s = np.where(better, s, best_s)
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
    """LML with its gradient and Hessian in (log sv, log ls), one row per GP.

    ``log_params`` is ``(m, 2)``, ``resid`` ``(m, n)`` and ``jitter``
    ``(m,)``. The kernel matrix comes from the scan's spectrum,
    ``K = Q diag(d) Q^T`` with ``d = sv lam + jitter``, so ``K^-1 = Q diag(1/d)
    Q^T`` and ``alpha = Q (z / d)`` for ``z = Q^T r``, and the LML is
    :func:`_profile_lml` (``-inf`` where the spectrum is not trusted). With
    ``K_a`` the derivatives of the kernel matrix,
    ``dL/da = (alpha' K_a alpha - tr(K^-1 K_a)) / 2`` and
    ``d2L/dadb = -alpha' K_a K^-1 K_b alpha + alpha' K_ab alpha / 2
    + tr(K^-1 K_a K^-1 K_b) / 2 - tr(K^-1 K_ab) / 2`` (GPML sec. 5.4.1).
    """
    log_sv, log_ls = log_params[:, 0], log_params[:, 1]
    lam, vecs = _spectrum(log_ls, sqd)
    z = np.einsum("mji,mj->im", vecs, resid)
    lml = (_profile_lml(log_sv, lam.T, z * z, jitter)
           - 0.5 * resid.shape[1] * _LOG_2PI)
    d = np.exp(log_sv)[:, None] * lam + jitter[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        k_inv = (vecs / d[:, None, :]) @ vecs.transpose(0, 2, 1)
        alpha = np.einsum("mij,jm->mi", vecs, z / d.T)
    scaled = sqd / np.exp(2.0 * log_ls)[:, None, None]
    k_s = np.exp(log_sv)[:, None, None] * np.exp(-0.5 * scaled)
    k_l = k_s * scaled                       # dK/dlog ls; k_s is dK/dlog sv
    k_ll = k_l * scaled - 2.0 * k_l          # d2K/dlog ls2
    first = np.stack([k_s, k_l], axis=1)     # (m, 2, n, n)
    u = np.einsum("maij,mj->mai", first, alpha)
    w = k_inv[:, None] @ first
    grad = 0.5 * (np.einsum("mai,mi->ma", u, alpha)
                  - np.trace(w, axis1=2, axis2=3))
    hess = (-u @ k_inv @ u.transpose(0, 2, 1)
            + 0.5 * np.einsum("maij,mbji->mab", w, w))
    # d2K/dlog sv2 = k_s and d2K/dlog sv dlog ls = k_l, so for those two
    # entries the K_ab terms of the Hessian equal the gradient
    hess[:, 0] += grad
    hess[:, 1, 0] += grad[:, 1]
    hess[:, 1, 1] += 0.5 * (np.einsum("mi,mij,mj->m", alpha, k_ll, alpha)
                            - np.sum(k_inv * k_ll, axis=(1, 2)))
    return lml, grad, hess


def _polish(x, lo, hi, resid, sqd, jitter):
    """Projected Newton ascent of every GP's LML from ``x`` within bounds.

    All GPs step together; a GP stops when its first-order gain falls
    below ``_POLISH_FTOL`` or no halving of its step raises its LML, so the
    result is never worse than the start. A bound-active coordinate whose
    gradient points outward is held fixed.
    """
    lml, grad, hess = _lml_derivatives(x, resid, sqd, jitter)
    active = np.isfinite(lml)
    for _ in range(_POLISH_STEPS):
        free = ~(((x <= lo) & (grad < 0.0)) | ((x >= hi) & (grad > 0.0)))
        g = np.where(free, grad, 0.0)
        # -H on the free coordinates, the identity on the fixed ones
        a = np.where(free[:, :, None] & free[:, None, :], -hess, np.eye(2))
        det = a[:, 0, 0] * a[:, 1, 1] - a[:, 0, 1] * a[:, 1, 0]
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = np.stack([a[:, 1, 1] * g[:, 0] - a[:, 0, 1] * g[:, 1],
                               a[:, 0, 0] * g[:, 1] - a[:, 1, 0] * g[:, 0]],
                              axis=1) / det[:, None]
        # a Newton step ascends only where -H is positive definite
        definite = (a[:, 0, 0] > 0.0) & (det > 0.0)
        gradient = g / np.maximum(1.0, np.abs(g).max(axis=1))[:, None]
        step = np.where(definite[:, None], newton, gradient)
        # first-order gain of the full step; below the rounding noise of
        # the LML itself there is nothing left to gain
        gain = 0.5 * np.sum(g * step, axis=1)
        active &= gain > _POLISH_FTOL * np.maximum(1.0, np.abs(lml))
        pending = active.copy()
        scale = 1.0
        for _ in range(_POLISH_HALVINGS):
            rows = np.flatnonzero(pending)
            if rows.size == 0:
                break
            trial = np.clip(x[rows] + scale * step[rows], lo[rows], hi[rows])
            found = _lml_derivatives(trial, resid[rows], sqd, jitter[rows])
            take = found[0] > lml[rows]
            rows = rows[take]
            x[rows] = trial[take]
            lml[rows], grad[rows], hess[rows] = (f[take] for f in found)
            pending[rows] = False
            scale *= 0.5
        active &= ~pending
        if not active.any():
            break
    return x


def fit_gpr(inputs, targets, *, jitter: float | None = None,
            restarts: int = 8, seed: int = 0) -> GprModel:
    """Fit one constant-mean RBF GP per row of ``targets`` on shared inputs.

    Each GP maximizes its log marginal likelihood over log signal variance
    and log length scale, within the start box widened by ``SEARCH_MARGIN``
    on every side:

    1. Scan: for every length scale on a ``_SCAN_STEP`` log grid across the
       bounds, plus ``restarts`` length scales drawn log-uniformly from the
       start box with ``seed``, one ``eigh`` of the unit correlation matrix
       gives each GP's LML in closed form; the signal variance is
       profiled out by Newton steps.
    2. Polish: from each GP's best scan point, projected Newton steps on
       the same eigen-form LML, all GPs at once, end on a stationary
       point (or a bound) of the likelihood the model reports.

    :func:`make_gpr` then builds the model at the fitted hyperparameters.

    Parameters
    ----------
    inputs : (n,) array
        Training inputs, distinct, shared by every GP.
    targets : (n,) or (m, n) array
        Training targets of one GP, or one row per GP.
    jitter : float, optional
        Diagonal conditioning term. Defaults to ``1e-8 * var(targets[j])``
        for each row ``j``.
    restarts : int
        Number of seeded length scales added to the scan, from 1 to
        ``MAX_RESTARTS``.
    seed : int
        Seed for those draws; fits are deterministic given a seed.
    """
    inputs = np.asarray(inputs, dtype=np.float64).ravel()
    targets = _target_rows(inputs, targets)
    if _sorted_unique(inputs).size != inputs.shape[0]:
        raise ConfigurationError("training inputs must be distinct")
    if not 1 <= restarts <= MAX_RESTARTS:
        raise ConfigurationError(
            f"restarts must be in [1, {MAX_RESTARTS}], got {restarts}")
    if seed < 0:
        raise ConfigurationError(f"seed must be >= 0, got {seed}")

    jitters = _requested_jitters(targets, jitter)
    ls_box, lo, hi = _search_bounds(inputs, targets)
    t_lo, t_hi = lo[0, 1], hi[0, 1]
    resid = targets - targets.mean(axis=1, keepdims=True)
    sqd = _sq_dists(inputs, inputs)

    count = int(np.ceil((t_hi - t_lo) / _SCAN_STEP)) + 1
    seeded = np.random.default_rng(seed).uniform(ls_box[0], ls_box[1], restarts)
    grid = _sorted_unique(
        np.concatenate([np.linspace(t_lo, t_hi, count), seeded]))
    lam, vecs = _spectrum(grid, sqd)
    z2 = np.einsum("gji,mj->img", vecs, resid) ** 2
    lml, log_sv = _profile(np.ascontiguousarray(lam.T)[:, None], z2,
                           jitters[:, None], lo[:, :1], hi[:, :1])
    best = np.argmax(lml, axis=1)
    start = np.column_stack([log_sv[np.arange(best.size), best], grid[best]])
    fitted = np.exp(_polish(start, lo, hi, resid, sqd, jitters))
    return make_gpr(inputs, targets, fitted[:, 0], fitted[:, 1], jitters)


def predict_gpr(model: GprModel, mu_star) -> tuple[np.ndarray, np.ndarray]:
    """Posterior means and variances of every GP at every query point.

    GPML Alg. 2.1 for all GPs and all points at once, as a fixed run of
    in-place array operations on the model's derived constants. One product
    with ``posterior_weights`` and one sum over training points give both
    ``alpha' k*`` and ``v = L^-1 k*``, with no loop over training points,
    and the variance is ``k(mu*, mu*) + jitter - |v|^2``, clamped at zero
    (the clamp only absorbs rounding noise of order 1e-10 x signal
    variance). Every step is elementwise or an in-order sum over training
    points, not a BLAS product, whose rounding could depend on the batch;
    so each query's result does not depend on the others. Returns two
    ``(m, q)`` arrays for ``q`` queries.
    """
    mu_star = np.asarray(mu_star, dtype=np.float64).ravel()
    k_star = model.input_column - mu_star                          # (n, q)
    # a far query overflows d^2 or d^2 / 2 l^2 to inf, and exp(-inf) is
    # exactly 0; so does any query when 2 l^2 is subnormal
    with np.errstate(over="ignore"):
        k_star *= k_star
        # -(d^2) / 2 l^2, not d^2 / -2 l^2: they differ in a NaN's sign bit
        k_star = np.negative(k_star, out=k_star)[:, None] / model.two_ls2
        np.exp(k_star, out=k_star)                              # (n, m, q)
    k_star *= model.signal_column
    # both sums add the training points in order, so a single query equals
    # the same query in a batch. The reduction runs across slabs of n + 1
    # weights and starts from -0.0, which x + -0.0 leaves as x, a zero's
    # sign included; |v|^2 lies contiguous for one GP and one query, where
    # a reduction would add pairwise, so it is accumulated
    sums = np.add.reduce(model.posterior_weights * k_star[:, None], 0,
                         initial=-0.0)                         # (n + 1, m, q)
    means = sums[-1]
    means += model.mean_column
    v = sums[:-1]
    v *= v
    variances = np.add.accumulate(v, 0, out=v)[-1]
    np.subtract(model.prior_variance, variances, out=variances)
    return means, np.maximum(variances, 0.0, out=variances)


def fit_decision(model: GprModel, jitter: float | None = None) -> list[dict]:
    """What the fit decided for each GP, as one JSON-ready record per row.

    ``jitter`` is the value the fit was asked for (``None``: the default
    ratio of the target variance). A record holds the hyperparameters,
    the final jitter and whether construction escalated it, the log
    marginal likelihood, and whether a hyperparameter sits on a search
    bound (within 1e-9 in log space).
    """
    targets = model.train_targets
    # Python floats: twice a huge request is inf, with no NumPy warning
    requested = _requested_jitters(targets, jitter).tolist()
    _, lo, hi = _search_bounds(model.train_inputs, targets)
    lml = log_marginal_likelihood(model)
    records = []
    for j, (sv, ls, jit) in enumerate(zip(model.signal_variance.tolist(),
                                          model.length_scale.tolist(),
                                          model.noise_jitter.tolist())):
        bounds = tuple(zip(lo[j].tolist(), hi[j].tolist()))
        records.append({
            "signal_variance": sv,
            "length_scale": ls,
            "jitter": jit,
            # escalation multiplies the jitter by ten at a time
            "jitter_escalated": jit > 2.0 * requested[j],
            "lml": float(lml[j]),
            "at_bound": any(abs(v - b) <= 1e-9 for v, pair in
                            zip((math.log(sv), math.log(ls)), bounds)
                            for b in pair),
        })
    return records


def log_marginal_likelihood(model: GprModel) -> np.ndarray:
    """Each GP's log marginal likelihood of its training data, ``(m,)``,
    from the cached factors."""
    resid = model.train_targets - model.mean_constant[:, None]
    # contiguous rows, as one GP's arrays would be: a dot product or a sum
    # over a strided axis rounds differently
    quad = np.array([(-0.5 * r) @ np.ascontiguousarray(a)
                     for r, a in zip(resid, model.alpha[:, :, 0].T)])
    diagonals = np.ascontiguousarray(np.diagonal(model.chol_factor[..., 0]))
    log_det = np.log(diagonals).sum(axis=1)
    return quad - log_det - 0.5 * model.n_train * _LOG_2PI
