"""Truncated proper orthogonal decomposition via the method of snapshots.

The basis solves the least-squares snapshot reconstruction problem; modes are
eigenvectors of the snapshot covariance. Instead of the (huge) node-space
covariance we eigendecompose the small m x m Gram matrix of the centered
snapshots, which yields identical modes at a fraction of the memory. It is
built from blocks of node rows, so the snapshot matrix is never assembled.

A layer not yet deposited is exactly 0: in a row block, the first s0 steps
of every equal-width column block are 0, and each such column centers to
exactly -r, the row means. Only the active columns Y are gathered: the Gram
gains Y^T Y, -r^T Y and r.r, the modes Y W[active] - r sum(W[inactive]). A
NaN or inf is not 0, so one check of the Gram stands for a finiteness pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ConfigurationError, DataError, NumericalError

__all__ = [
    "PodBasis",
    "compute_pod",
    "project",
    "reconstruct",
    "energy_fraction",
]

_ROW_BLOCK = 2048  # node rows gathered and centered at a time


def _sigma_floor(m: int) -> float:
    # the Gram route squares the condition number: eigenvalues carry an
    # absolute error ~m*eps*lambda_1, so sigmas below ~sqrt(m*eps)*sigma_1
    # are pure rounding noise; modes below the floor are never formed
    return 4.0 * math.sqrt(m * np.finfo(np.float64).eps)


@dataclass(frozen=True)
class PodBasis:
    """Truncated orthonormal basis of a snapshot set.

    Attributes
    ----------
    modes : (n_nodes, rank) ndarray
        Orthonormal spatial modes, one per column, C- or F-ordered as given.
    singular_values : (m,) ndarray
        All singular values of the centered snapshot matrix, descending.
    reference : (n_nodes,) ndarray
        Field subtracted before projection: the snapshot mean.
    energy_captured : float
        Fraction of squared singular values captured by the retained modes,
        derived at construction.
    """

    modes: np.ndarray
    singular_values: np.ndarray
    reference: np.ndarray
    energy_captured: float = field(init=False)

    def __post_init__(self):
        modes = np.asarray(self.modes, dtype=np.float64)
        sv = np.asarray(self.singular_values, dtype=np.float64)
        ref = np.asarray(self.reference, dtype=np.float64)
        if modes.ndim != 2:
            raise ConfigurationError("modes must be a 2-D array")
        rank = modes.shape[1]
        if modes.shape[0] != ref.shape[0]:
            raise ConfigurationError(
                f"modes shape {modes.shape} inconsistent with reference length "
                f"{ref.shape[0]}"
            )
        if not 1 <= rank <= sv.shape[0]:
            raise ConfigurationError(
                f"rank must be in [1, {sv.shape[0]}], got {rank}"
            )
        if not np.all(np.isfinite(sv) & (sv >= 0.0)) or np.any(
                np.diff(sv) > 0.0):
            raise ConfigurationError(
                "singular values must be finite, nonnegative and descending"
            )
        for name, arr in (("modes", modes), ("singular_values", sv),
                          ("reference", ref)):
            arr = arr if arr.flags.f_contiguous else np.ascontiguousarray(arr)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "energy_captured",
                           energy_fraction(sv, rank))

    @property
    def rank(self) -> int:
        """Number of retained modes."""
        return self.modes.shape[1]

    @property
    def n_nodes(self) -> int:
        return self.modes.shape[0]

    @cached_property
    def squared_modes(self) -> np.ndarray:
        """``modes**2``, which maps mode variances to node variances.

        Built on first use and kept in memory only; archives never hold it.
        """
        squared = self.modes**2
        squared.setflags(write=False)
        return squared


def _fix_mode_signs(modes: np.ndarray) -> None:
    """Flip columns in place so each one's largest-magnitude entry, the
    first on a tie, is positive: one row block at a time, so no temporary
    is as large as the modes."""
    cols = np.arange(modes.shape[1])
    peak = np.zeros(modes.shape[1])  # the largest-magnitude entry so far
    for lo in range(0, modes.shape[0], _ROW_BLOCK):
        block = modes[lo:lo + _ROW_BLOCK]
        found = block[np.argmax(np.abs(block), axis=0), cols]
        # a later block wins only with a strictly larger magnitude
        wins = np.abs(found) > np.abs(peak)
        peak[wins] = found[wins]
    modes *= np.where(peak < 0.0, -1.0, 1.0)


def compute_pod(snapshots, energy_threshold: float) -> PodBasis:
    """Compute a truncated POD basis of the given snapshot matrix.

    Parameters
    ----------
    snapshots : (n_nodes, m) ndarray, or a sequence of (n_nodes, m_i) ndarrays
        One snapshot per column; a sequence holds the matrix's column blocks.
    energy_threshold : float
        Retain the smallest rank whose cumulative squared-singular-value
        fraction reaches this value, in (0, 1]. When no numerically nonzero
        mode reaches it, every such mode is retained and the basis's
        ``energy_captured`` stays below the threshold.

    Returns
    -------
    PodBasis

    Raises
    ------
    ConfigurationError
        Empty or ragged input, or threshold outside (0, 1].
    DataError
        A snapshot value is not finite.
    NumericalError
        The centered snapshot matrix is zero, or its Gram overflows.
    """
    if isinstance(snapshots, np.ndarray):
        snapshots = [snapshots]
    blocks = [np.asarray(b, dtype=np.float64) for b in snapshots]
    if not blocks or any(b.ndim != 2 or b.shape[0] != blocks[0].shape[0]
                         for b in blocks):
        raise ConfigurationError("snapshots must be a 2-D array (n_nodes, m) "
                                 "or column blocks of equal row counts")
    n_nodes, m = blocks[0].shape[0], sum(b.shape[1] for b in blocks)
    if m == 0 or n_nodes == 0:
        raise ConfigurationError("snapshot matrix must be non-empty")
    if not 0.0 < energy_threshold <= 1.0:
        raise ConfigurationError(
            f"energy_threshold must be in (0, 1], got {energy_threshold}"
        )

    nb = len(blocks) if len({b.shape[1] for b in blocks}) == 1 else 1
    steps, spans = m // nb, [(lo, min(lo + _ROW_BLOCK, n_nodes))
                             for lo in range(0, n_nodes, _ROW_BLOCK)]
    starts = [steps - 1 if nb == len(blocks) else 0] * len(spans)
    for k, (lo, hi) in enumerate(spans):  # each block cuts s0; NaN is not 0
        for b in blocks:
            if starts[k] and b[lo:hi, :starts[k]].any():
                starts[k] = b[lo:hi, :starts[k]].any(axis=0).argmax()

    def row_blocks():  # rows lo:hi from step s0 (the last at most), packed
        for (lo, hi), s0 in zip(spans, starts):
            rows = buffer[:(hi - lo) * nb * (steps - s0)].reshape(hi - lo, -1)
            np.concatenate([b[lo:hi, s0:] for b in blocks], axis=1, out=rows)
            yield slice(lo, hi), s0, rows

    buffer = np.empty(min(_ROW_BLOCK, n_nodes) * m)
    reference = np.empty(n_nodes)
    gram = np.zeros((nb, steps, nb, steps))  # (block, step) by (block, step)
    with np.errstate(over="ignore", invalid="ignore"):
        for at, s0, rows in row_blocks():
            w, r = steps - s0, rows.sum(axis=1) / m
            rows -= r[:, None]
            reference[at], cross = r, (r @ rows).reshape(nb, w)
            gram[:, s0:, :, s0:] += (rows.T @ rows).reshape(nb, w, nb, w)
            gram[:, :s0, :, s0:] -= cross  # inactive columns are -r
            gram[:, s0:, :, :s0] -= cross[:, :, None, None]
            gram[:, :s0, :, :s0] += r @ r
        if not np.isfinite(np.abs(gram).sum()):  # bounds each eigenvalue
            if not all(np.isfinite(b).all() for b in blocks):
                raise DataError("snapshots must be finite")
            raise NumericalError("snapshot Gram matrix overflows float64")
    # NumPy's LAPACK, like the Gram product: calling SciPy's as well would
    # wake a second OpenBLAS thread pool whose workers keep spinning after
    # the call, competing with the caller on a small host
    eigvals, eigvecs = np.linalg.eigh(gram.reshape(m, m))
    eigvals = eigvals[::-1]
    eigvecs = eigvecs[:, ::-1]
    sigma = np.sqrt(np.maximum(eigvals, 0.0))

    if sigma[0] <= 0.0:
        raise NumericalError(
            "centered snapshot matrix is zero; no modes exist"
        )
    n_effective = int(np.count_nonzero(sigma > _sigma_floor(m) * sigma[0]))

    energy = _cumulative_energy(sigma)
    reachable = np.nonzero(energy[:n_effective] >= energy_threshold)[0]
    if reachable.size:
        rank = int(reachable[0]) + 1
    else:
        rank = n_effective

    modes = np.empty((n_nodes, rank))
    weights = (eigvecs[:, :rank] / sigma[:rank]).reshape(nb, steps, rank)
    for at, s0, rows in row_blocks():  # inactive columns are -r
        rows -= reference[at, None]
        np.matmul(rows, weights[:, s0:].reshape(-1, rank), out=modes[at])
        modes[at] -= np.outer(reference[at], weights[:, :s0].sum((0, 1)))
    _fix_mode_signs(modes)
    return PodBasis(modes=modes, singular_values=sigma, reference=reference)


def project(basis: PodBasis, field: np.ndarray) -> np.ndarray:
    """Project a field onto the basis: coefficients of ``field - reference``."""
    field = np.asarray(field, dtype=np.float64)
    if field.shape != (basis.n_nodes,):
        raise ConfigurationError(
            f"field has shape {field.shape}, expected ({basis.n_nodes},)"
        )
    return basis.modes.T @ (field - basis.reference)


def reconstruct(basis: PodBasis, coefficients: np.ndarray) -> np.ndarray:
    """Rebuild fields, ``coefficients @ modes.T + reference``: one field
    from ``(rank,)`` coefficients, or ``(q, n_nodes)`` from ``(q, rank)``."""
    coefficients = np.asarray(coefficients, dtype=np.float64)
    if coefficients.ndim not in (1, 2) or coefficients.shape[-1] != basis.rank:
        raise ConfigurationError(
            f"expected {basis.rank} coefficients, got shape {coefficients.shape}"
        )
    fields = coefficients @ basis.modes.T
    fields += basis.reference
    return fields


def _cumulative_energy(singular_values: np.ndarray) -> np.ndarray:
    """Squared-singular-value fraction of the first 1, 2, ... values."""
    with np.errstate(over="raise"):  # a FloatingPointError past float range
        squares = singular_values**2
        total = np.sum(squares)
    if total == 0.0:
        raise NumericalError("singular values are all zero")
    return np.cumsum(squares) / total


def energy_fraction(singular_values: np.ndarray, r: int) -> float:
    """Cumulative squared-singular-value fraction of the first ``r`` values:
    the fraction :func:`compute_pod` ranks by.

    All-zero singular values are a :class:`NumericalError`.
    """
    singular_values = np.asarray(singular_values, dtype=np.float64)
    if not 1 <= r <= singular_values.shape[0]:
        raise IndexError(
            f"r must be in [1, {singular_values.shape[0]}], got {r}"
        )
    return float(_cumulative_energy(singular_values)[r - 1])
