"""Stress check of the GP fit against the L-BFGS-B oracle.

Fits 300 small random data sets (random walks, noisy sines and decaying
exponentials, 2-13 points) with ``fit_gpr`` and with ``lbfgs_fit`` and
compares their log marginal likelihoods. The gap of a set is
``(oracle - fit) / max(1, |oracle|)``; the oracle tests bound it by 1e-6.

Run it with ``python tests/gpr_stress.py``. It prints the worst gap, the
number of sets past the bound and the seconds each fitter took, and exits
1 if any set is past the bound. Pytest does not collect it.
"""

import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from lbfgs_oracle import lbfgs_fit  # noqa: E402
from romforge.gpr import fit_gpr, log_marginal_likelihood  # noqa: E402

SETS = 300
BOUND = 1e-6


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


def main() -> int:
    worst, worst_set, past = -np.inf, None, []
    fit_s = oracle_s = 0.0
    for i, x, y in data_sets():
        start = time.perf_counter()
        fit = log_marginal_likelihood(fit_gpr(x, y, seed=i % 10))[0]
        fit_s += time.perf_counter() - start
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
          f"fit {fit_s:.2f} s, oracle {oracle_s:.2f} s")
    return 1 if past else 0


if __name__ == "__main__":
    sys.exit(main())
