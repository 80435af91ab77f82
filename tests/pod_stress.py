"""Stress check of ``compute_pod`` on layer-by-layer snapshots against a
dense SVD of the joined, centered snapshot matrix.

Builds 200 random snapshot sets in which a node is exactly 0 before the
step of its layer, as in a deposition history: random node counts (one to
three row blocks), layer counts, column-block counts and widths (one set in
five has blocks of unequal width, which ``compute_pod`` reads dense), and a
random node order: sorted by layer, sorted and then shuffled within each
row block, fully shuffled, or reversed. One set in five also zeroes one step
in every row. Active values are standard normal.

For each set it compares, at the tolerances of ``tests/test_pod.py``:

- the rank against the count of oracle singular values above 1e-6 x the
  largest;
- the retained singular values, by relative gap (bound 1e-8);
- the reference, by absolute gap (bound 1e-12);
- each retained mode, by the largest absolute entry gap after the library's
  sign rule (bound 1e-8). A mode whose singular value lies within 1e-6 x
  the largest of a neighbour's is not unique, and is skipped and counted.

Run it with ``python tests/pod_stress.py``. It prints the worst gap of each
kind with its set, the number of sets past a bound, the skipped modes and
the seconds taken, and exits 1 if any set is past a bound. Pytest does not
collect it.
"""

import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from romforge.pod import _ROW_BLOCK, compute_pod  # noqa: E402

SETS = 200
SIGMA_BOUND = 1e-8
MODE_BOUND = 1e-8
REFERENCE_BOUND = 1e-12
SEPARATION = 1e-6
ORDERS = ("sorted", "shuffled per row block", "shuffled", "reversed")


def snapshot_set(rng):
    """One random layer-by-layer set: its column blocks and a description."""
    n_nodes = int(rng.integers(50, 3 * _ROW_BLOCK + 100))
    n_steps = int(rng.integers(2, 13))
    n_blocks = int(rng.integers(1, 7))
    layers = np.sort(rng.integers(0, n_steps, n_nodes))
    order = ORDERS[int(rng.integers(len(ORDERS)))]
    if order == "shuffled per row block":
        for lo in range(0, n_nodes, _ROW_BLOCK):
            rng.shuffle(layers[lo:lo + _ROW_BLOCK])
    elif order == "shuffled":
        rng.shuffle(layers)
    elif order == "reversed":
        layers = layers[::-1]
    widths = [n_steps] * n_blocks
    if n_blocks > 1 and rng.random() < 0.2:
        widths = [int(k) for k in rng.integers(1, n_steps + 1, n_blocks)]
    active = np.arange(n_steps) >= layers[:, None]
    if rng.random() < 0.2:
        active[:, rng.integers(n_steps)] = False
    blocks = [np.where(active, rng.normal(size=active.shape), 0.0)[:, :k]
              for k in widths]
    return blocks, (f"{n_nodes} nodes, {n_steps} steps, widths {widths}, "
                    f"{order}")


def oracle(joined):
    """Singular values, sign-fixed left singular vectors and row means."""
    reference = joined.mean(axis=1)
    u, s, _ = np.linalg.svd(joined - reference[:, None], full_matrices=False)
    peak = u[np.argmax(np.abs(u), axis=0), np.arange(u.shape[1])]
    return s, u * np.where(peak < 0.0, -1.0, 1.0), reference


def gaps(blocks):
    """Rank match, worst sigma, reference and mode gaps, and skipped modes."""
    basis = compute_pod(blocks, 1.0 - 1e-9)
    s, u, reference = oracle(np.hstack(blocks))
    r = basis.rank
    sigma = float(np.max(np.abs(basis.singular_values[:r] - s[:r]) / s[:r]))
    ref = float(np.max(np.abs(basis.reference - reference)))
    neighbours = np.abs(np.diff(s))
    separation = np.minimum(np.append(neighbours, np.inf),
                            np.insert(neighbours, 0, np.inf))[:r]
    unique = separation > SEPARATION * s[0]
    mode = float(np.max(np.abs(basis.modes - u[:, :r])[:, unique],
                        initial=0.0))
    expected_rank = int(np.count_nonzero(s > 1e-6 * s[0]))
    return r == expected_rank, sigma, ref, mode, int(np.sum(~unique))


def main() -> int:
    rng = np.random.default_rng(20240531)
    worst = {"sigma": (0.0, None), "reference": (0.0, None),
             "mode": (0.0, None)}
    bounds = {"sigma": SIGMA_BOUND, "reference": REFERENCE_BOUND,
              "mode": MODE_BOUND}
    past, rank_mismatch, skipped = [], [], 0
    start = time.perf_counter()
    for i in range(SETS):
        blocks, about = snapshot_set(rng)
        rank_ok, *values, n_skipped = gaps(blocks)
        skipped += n_skipped
        if not rank_ok:
            rank_mismatch.append(i)
        for (name, (value, _)), gap in zip(list(worst.items()), values):
            if gap > value:
                worst[name] = (gap, i)
            if gap > bounds[name]:
                past.append((i, name, about))
    seconds = time.perf_counter() - start
    print("; ".join(f"worst {name} gap {value:.3g} (set {at}, bound "
                    f"{bounds[name]:g})"
                    for name, (value, at) in worst.items()))
    print(f"{len(past)} of {SETS} sets past a bound {past}; "
          f"{len(rank_mismatch)} rank mismatches {rank_mismatch}; "
          f"{skipped} non-unique modes skipped; {seconds:.1f} s")
    return 1 if past or rank_mismatch else 0


if __name__ == "__main__":
    sys.exit(main())
