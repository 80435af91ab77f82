"""Stress check of the GP fit against the L-BFGS-B oracle, and of the
posterior variance against an exact solve.

Fits 300 small random data sets (random walks, noisy sines and decaying
exponentials, 2-13 points) with ``fit_gpr`` and with ``lbfgs_fit`` and
compares their log marginal likelihoods. The gap of a set is
``(oracle - fit) / max(1, |oracle|)``; the oracle tests bound it by 1e-6.
For each fit it also compares ``predict_gpr``'s variances at 11 queries
and at the training inputs with those of the same float64 kernel matrix
and kernel vectors solved in exact rational arithmetic; the error of a
variance is ``|var - exact| / signal_variance``, bounded by 1e-7.

Run it with ``python tests/gpr_stress.py``. It prints the worst gap, the
number of sets past the bound, the worst variance error and the seconds
each fitter and the exact solves took, and exits 1 if any set is past the
bound or any variance error exceeds its bound. Pytest does not collect it.
"""

import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from lbfgs_oracle import lbfgs_fit  # noqa: E402
from romforge.gpr import (  # noqa: E402
    fit_gpr,
    log_marginal_likelihood,
    predict_gpr,
)

SETS = 300
BOUND = 1e-6
VARIANCE_BOUND = 1e-7
QUERIES = np.linspace(-0.5, 1.5, 11)


def data_sets():
    rng = np.random.default_rng(12345)
    for i in range(SETS):
        n = int(rng.integers(2, 14))
        x = np.sort(rng.uniform(0.0, 1.0, n))
        while np.unique(x).size != n:
            x = np.sort(rng.uniform(0.0, 1.0, n))
        if i % 3 == 0:
            y = np.cumsum(rng.normal(size=n)) * 0.1
        elif i % 3 == 1:
            y = np.sin(rng.uniform(1.0, 12.0) * x) + rng.normal(scale=0.05,
                                                                size=n)
        else:
            y = 0.08 + 0.12 * np.exp(-x * rng.uniform(0.5, 5.0))
        yield i, x, y


def exact_variances(model, queries):
    """The posterior variances of a one-GP model at ``queries``, with the
    float64 kernel matrix and kernel vectors solved exactly: Gauss-Jordan
    elimination in rationals, no pivoting, as the matrix is positive
    definite."""
    x = model.train_inputs
    n = x.size
    sv, jitter = model.signal_variance[0], model.noise_jitter[0]
    two_ls2 = 2.0 * model.length_scale[0] ** 2
    gram = sv * np.exp(-((x[:, None] - x[None, :]) ** 2) / two_ls2)
    gram += jitter * np.eye(n)
    k_star = sv * np.exp(-((x[:, None] - queries[None, :]) ** 2) / two_ls2)
    rows = [[Fraction(v) for v in row]
            for row in np.hstack([gram, k_star]).tolist()]
    for p in range(n):
        pivot = rows[p]
        pivot[:] = [v / pivot[p] for v in pivot]
        for r, row in enumerate(rows):
            if r != p and row[p]:
                f = row[p]
                row[:] = [a - f * b for a, b in zip(row, pivot)]
    prior = Fraction(sv) + Fraction(jitter)
    return np.array([float(prior - sum(Fraction(k_star[i, q]) * rows[i][n + q]
                                       for i in range(n)))
                     for q in range(queries.size)])


def variance_error(model) -> float:
    """Worst ``|var - exact| / signal_variance`` of ``predict_gpr``."""
    queries = np.concatenate([QUERIES, model.train_inputs])
    _, variances = predict_gpr(model, queries)
    exact = exact_variances(model, queries)
    return float(np.max(np.abs(variances[0] - exact))
                 / model.signal_variance[0])


def main() -> int:
    worst, worst_set, past = -np.inf, None, []
    worst_var, worst_var_set = 0.0, None
    fit_s = oracle_s = exact_s = 0.0
    for i, x, y in data_sets():
        start = time.perf_counter()
        model = fit_gpr(x, y, seed=i % 10)
        fit = log_marginal_likelihood(model)[0]
        fit_s += time.perf_counter() - start
        start = time.perf_counter()
        error = variance_error(model)
        exact_s += time.perf_counter() - start
        if error > worst_var:
            worst_var, worst_var_set = error, i
        start = time.perf_counter()
        oracle = log_marginal_likelihood(lbfgs_fit(x, y, seed=i % 10))[0]
        oracle_s += time.perf_counter() - start
        gap = (oracle - fit) / max(1.0, abs(oracle))
        if gap > worst:
            worst, worst_set = gap, i
        if gap > BOUND:
            past.append(i)
    print(f"worst relative gap {worst:.3g} (set {worst_set}); "
          f"{len(past)} of {SETS} sets past {BOUND:g} {past}; "
          f"worst variance error {worst_var:.4g} (set {worst_var_set}, "
          f"bound {VARIANCE_BOUND:g}); fit {fit_s:.2f} s, "
          f"oracle {oracle_s:.2f} s, exact variances {exact_s:.2f} s")
    return 1 if past or worst_var > VARIANCE_BOUND else 0


if __name__ == "__main__":
    sys.exit(main())
