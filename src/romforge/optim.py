"""AdamW with decoupled weight decay and a cosine warm-restart schedule."""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigurationError

__all__ = ["init_adamw_state", "adamw_step", "cosine_warm_restart_lr"]

# Adam's moment decay rates and denominator floor (Kingma & Ba's defaults)
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


#: Elements per block of adamw_step, so that its 14 passes run in cache
BLOCK = 16_384


def init_adamw_state(params: dict[str, np.ndarray]) -> dict:
    """Zero moments, and one block of scratch for adamw_step."""
    return {
        "t": 0,
        "m": {k: np.zeros_like(v) for k, v in params.items()},
        "v": {k: np.zeros_like(v) for k, v in params.items()},
        "scratch": np.empty(BLOCK),
    }


def adamw_step(params: dict[str, np.ndarray], grads: dict[str, np.ndarray],
               state: dict, lr: float, weight_decay: float) -> None:
    """One AdamW update, in place and without allocating.

    Weight decay is decoupled: it scales the pre-update parameter value and is
    not folded into the gradient, so the adaptive moments never see it.
    Each parameter is updated ``BLOCK`` elements at a time.
    """
    state["t"] += 1
    t = state["t"]
    bc1 = 1.0 - BETA1 ** t
    bc2 = 1.0 - BETA2 ** t
    for name, param in params.items():
        if not param.flags.c_contiguous:  # its flat view would be a copy
            raise ConfigurationError(f"parameter {name} is not C-contiguous")
        flat = [a.reshape(-1) for a in
                (param, grads[name], state["m"][name], state["v"][name])]
        for lo in range(0, param.size, BLOCK):
            p, g, m, v = (a[lo:lo + BLOCK] for a in flat)
            s = state["scratch"][:p.size]
            m *= BETA1
            m += np.multiply(g, 1.0 - BETA1, out=s)
            v *= BETA2
            v += np.multiply(np.multiply(g, 1.0 - BETA2, out=s), g, out=s)
            # s = lr * m_hat / (sqrt(v_hat) + eps); p = decayed p - s
            np.sqrt(np.divide(v, bc2, out=s), out=s)
            s += EPS
            np.divide(m, s, out=s)
            s *= lr / bc1
            p *= 1.0 - lr * weight_decay
            p -= s


def cosine_warm_restart_lr(epoch: float, lr_max: float, lr_min: float,
                           t0: int, mult: int) -> float:
    """Learning rate at `epoch` under cosine annealing with warm restarts.

    Periods run t0, t0*mult, t0*mult^2, ... epochs; within each period the
    rate decays from lr_max to lr_min along a half cosine and snaps back to
    lr_max at the next restart. Fractional epochs evaluate the underlying
    continuous schedule (lr approaches lr_min just before a restart).
    """
    if t0 < 1 or mult < 1:
        raise ConfigurationError("t0 and mult must be at least 1")
    if epoch < 0:
        raise ConfigurationError("epoch must be non-negative")
    t_cur = epoch
    t_i = t0
    while t_cur >= t_i:
        t_cur -= t_i
        t_i *= mult
    return lr_min + 0.5 * (lr_max - lr_min) * (1.0 + math.cos(math.pi * t_cur / t_i))
