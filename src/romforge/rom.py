"""End-to-end POD-GPR surrogate for final-layer distortion fields.

Training computes one POD basis over every snapshot of every training
parameter, projects each parameter's final-step field onto it, and fits one
independent GP per retained mode over the normalized dwell time
(:class:`~romforge.dataset.InputNormalization`); every mode shares those
inputs, so one batched hyperparameter search fits them all.
Prediction evaluates the r GPs at once through their stacked Cholesky
factors, reconstructs the mean fields, and propagates the per-mode posterior
variances linearly to per-node 95% bands.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from .dataset import (
    InputNormalization,
    SnapshotTensor,
    read_snapshot_bin,
    write_snapshot_bin,
)
from .errors import ConfigurationError, archive_values, read_json, write_json
from .gpr import (
    GprModel,
    GprStack,
    RbfKernel,
    fit_gprs,
    make_gpr,
    predict_stack,
    stack_gprs,
)
# perfbench's tracer wraps romforge.rom.fit_gpr, so the name stays bound
from .gpr import fit_gpr  # noqa: F401
from .pod import PodBasis, compute_pod, energy_fraction, project

__all__ = [
    "FieldPrediction",
    "PodGprRom",
    "train_pod_gpr",
    "predict_distortion",
    "predict_distortion_many",
    "save_rom",
    "load_rom",
]

ROM_VERSION = 3

#: Two-sided 95% confidence half-width in standard deviations.
CI95_FACTOR = 1.96


@dataclass(frozen=True)
class FieldPrediction:
    """Predicted field with a per-node 95% confidence band (all in mm)."""

    mean_field: np.ndarray
    lower_95: np.ndarray
    upper_95: np.ndarray
    coeff_means: np.ndarray
    coeff_variances: np.ndarray
    extrapolation: bool

    @property
    def max_displacement(self) -> float:
        return float(self.mean_field.max())


@dataclass(frozen=True)
class PodGprRom:
    """Deployable surrogate: basis, one GP per mode over the normalized
    training dwell times, and the normalization derived from them."""

    basis: PodBasis
    gprs: tuple[GprModel, ...]
    training_dwell_times: tuple[float, ...]
    input_norm: InputNormalization = field(init=False, repr=False,
                                           compare=False)

    def __post_init__(self):
        object.__setattr__(self, "gprs", tuple(self.gprs))
        norm = InputNormalization(self.training_dwell_times)
        object.__setattr__(self, "training_dwell_times", norm.dwell_times)
        object.__setattr__(self, "input_norm", norm)
        if len(self.gprs) != self.basis.rank:
            raise ConfigurationError(
                f"{len(self.gprs)} GPs for a rank-{self.basis.rank} basis"
            )
        inputs = norm.training_inputs
        if any(not np.array_equal(g.train_inputs, inputs) for g in self.gprs):
            raise ConfigurationError("every GP's inputs must be the "
                                     "normalized training dwell times")

    @property
    def rank(self) -> int:
        return self.basis.rank

    @cached_property
    def gpr_stack(self) -> GprStack:
        """The mode GPs stacked for batched posteriors (built on first use)."""
        return stack_gprs(self.gprs)


def train_pod_gpr(train: SnapshotTensor, energy_threshold: float = 0.9999,
                  jitter: float | None = None, restarts: int = 8,
                  seed: int = 0) -> PodGprRom:
    """Train the POD-GPR surrogate on a snapshot tensor.

    The basis spans all deposition steps of all training parameters; the GPs
    see only each parameter's final-step coefficients. One :func:`fit_gprs`
    call fits every mode; ``restarts`` and ``seed`` set the seeded length
    scales its scan adds, shared by all modes.
    """
    if train.n_mu < 2:
        raise ConfigurationError("training needs at least two parameters")
    snapshots = np.hstack([m.values for m in train.matrices])
    basis = compute_pod(snapshots, energy_threshold)

    norm = InputNormalization(train.dwell_times)
    coeffs = np.column_stack(
        [project(basis, m.final_field) for m in train.matrices]
    )  # (rank, n_mu)
    gprs = fit_gprs(norm.training_inputs, coeffs, jitter=jitter,
                    restarts=restarts, seed=seed)
    return PodGprRom(basis=basis, gprs=gprs,
                     training_dwell_times=norm.dwell_times)


def predict_distortion_many(rom: PodGprRom, dwell_times
                            ) -> list[FieldPrediction]:
    """Predict the final-layer fields at several dwell times, with 95% bands.

    One stacked posterior evaluates every mode at every dwell time. The
    per-node variance sums the independent mode posteriors through the
    linear reconstruction, ``var_i = sum_j modes[i, j]^2 var_j``. A
    prediction extrapolates where its dwell time lies outside the training
    range.
    """
    dts = [float(dt) for dt in dwell_times]
    means, variances = predict_stack(rom.gpr_stack,
                                     rom.input_norm.apply(np.array(dts)))
    basis = rom.basis
    fields = means.T @ basis.modes.T + basis.reference         # (q, n_nodes)
    halves = CI95_FACTOR * np.sqrt(variances.T @ basis.squared_modes.T)
    outside = rom.input_norm.extrapolates(dts)
    return [
        FieldPrediction(
            mean_field=field,
            lower_95=field - half,
            upper_95=field + half,
            coeff_means=means[:, i].copy(),
            coeff_variances=variances[:, i].copy(),
            extrapolation=outside[i],
        )
        for i, (field, half) in enumerate(zip(fields, halves))
    ]


def predict_distortion(rom: PodGprRom, dwell_time: float) -> FieldPrediction:
    """Predict the final-layer field at one dwell time, with 95% bands."""
    return predict_distortion_many(rom, [dwell_time])[0]


# Archive I/O =================================================================

def save_rom(rom: PodGprRom, path) -> None:
    """Write the archive directory: ``manifest.json`` and ``basis.bin``.

    The manifest holds the training dwell times, the singular values and,
    per mode in order, the GP hyperparameters and training targets, all as
    JSON floats, which round-trip float64 exactly. ``basis.bin`` is an SNPT
    array of shape (n_nodes, rank + 1): the reference field, then the
    modes. The GP inputs are not stored: they are the normalized training
    dwell times.
    """
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    basis = rom.basis
    write_json(path / "manifest.json", {
        "version": ROM_VERSION,
        "model": "pod-gpr",
        "training_dwell_times": list(rom.training_dwell_times),
        "singular_values": basis.singular_values.tolist(),
        "modes": [
            {
                "signal_variance": g.kernel.signal_variance,
                "length_scale": g.kernel.length_scale,
                "jitter": g.noise_jitter,
                "train_targets": g.train_targets.tolist(),
            }
            for g in rom.gprs
        ],
    })
    write_snapshot_bin(np.column_stack([basis.reference, basis.modes]),
                       path / "basis.bin")


def load_rom(path) -> PodGprRom:
    """Load an archive written by :func:`save_rom`.

    A missing file, malformed JSON or an unknown version is a
    :class:`FormatError`; a missing key or an unusable value is a
    :class:`CorruptionError`.
    """
    path = Path(path)
    with archive_values(path):
        manifest = read_json(path / "manifest.json", ROM_VERSION)
        columns = read_snapshot_bin(path / "basis.bin")
        sigma = np.array(manifest["singular_values"], dtype=np.float64)
        rank = columns.shape[1] - 1
        basis = PodBasis(modes=columns[:, 1:], singular_values=sigma,
                         reference=columns[:, 0], rank=rank,
                         energy_captured=energy_fraction(sigma, rank))
        norm = InputNormalization(manifest["training_dwell_times"])
        inputs = norm.training_inputs
        gprs = tuple(
            make_gpr(inputs, mode["train_targets"],
                     RbfKernel(mode["signal_variance"], mode["length_scale"]),
                     mode["jitter"])
            for mode in manifest["modes"]
        )
        return PodGprRom(basis=basis, gprs=gprs,
                         training_dwell_times=norm.dwell_times)
