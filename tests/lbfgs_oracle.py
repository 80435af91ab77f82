"""Reference hyperparameter fit: multi-start L-BFGS-B on the Cholesky LML.

This is the per-mode SciPy search the library used before its batched
scan-and-polish fit. It stays here, independent of the library's own
likelihood code, as the oracle the new fit must match or beat.
"""

import math

import numpy as np
import scipy.linalg
import scipy.optimize

from romforge.gpr import (
    DEFAULT_JITTER_RATIO,
    LENGTH_SCALE_BOX,
    SIGNAL_VARIANCE_BOX,
    RbfKernel,
    make_gpr,
)

_LOG_2PI = math.log(2.0 * math.pi)


def _neg_lml(log_params, resid, sqd, jitter):
    """Negative log marginal likelihood and gradient in log-parameter space."""
    sv, ls = np.exp(log_params)
    n = resid.shape[0]
    krbf = sv * np.exp(-sqd / (2.0 * ls * ls))
    k = krbf + jitter * np.eye(n)
    try:
        chol = scipy.linalg.cholesky(k, lower=True)
    except scipy.linalg.LinAlgError:
        return 1e30, np.zeros(2)
    alpha = scipy.linalg.cho_solve((chol, True), resid)
    lml = (-0.5 * resid @ alpha - np.sum(np.log(np.diag(chol)))
           - 0.5 * n * _LOG_2PI)
    k_inv = scipy.linalg.cho_solve((chol, True), np.eye(n))
    outer = np.outer(alpha, alpha) - k_inv
    grad_sv = 0.5 * np.sum(outer * krbf)
    grad_ls = 0.5 * np.sum(outer * (krbf * (sqd / (ls * ls))))
    return -lml, -np.array([grad_sv, grad_ls])


def lbfgs_fit(inputs, targets, *, jitter=None, restarts=8, seed=0):
    """Best of `restarts` L-BFGS-B runs from log-uniform starts in the box."""
    inputs = np.asarray(inputs, dtype=np.float64).ravel()
    targets = np.asarray(targets, dtype=np.float64).ravel()
    target_var = float(np.var(targets))
    if jitter is None:
        jitter = DEFAULT_JITTER_RATIO * target_var
    input_range = float(inputs.max() - inputs.min()) or 1.0
    sv_scale = target_var or 1.0
    ls_box = np.log([LENGTH_SCALE_BOX[0] * input_range,
                     LENGTH_SCALE_BOX[1] * input_range])
    sv_box = np.log([SIGNAL_VARIANCE_BOX[0] * sv_scale,
                     SIGNAL_VARIANCE_BOX[1] * sv_scale])
    bounds = [(sv_box[0] - 14.0, sv_box[1] + 14.0),
              (ls_box[0] - 14.0, ls_box[1] + 14.0)]
    resid = targets - targets.mean()
    sqd = (inputs[:, None] - inputs[None, :]) ** 2
    rng = np.random.default_rng(seed)
    starts = np.column_stack([
        rng.uniform(sv_box[0], sv_box[1], restarts),
        rng.uniform(ls_box[0], ls_box[1], restarts),
    ])
    best = None
    for x0 in starts:
        result = scipy.optimize.minimize(
            _neg_lml, x0, args=(resid, sqd, jitter),
            jac=True, method="L-BFGS-B", bounds=bounds,
            options={"maxiter": 500, "ftol": 1e-14, "gtol": 1e-9},
        )
        if best is None or result.fun < best.fun:
            best = result
    sv, ls = np.exp(best.x)
    return make_gpr(inputs, targets, RbfKernel(sv, ls), jitter)
