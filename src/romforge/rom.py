"""End-to-end POD-GPR surrogate for final-layer distortion fields.

Training computes one POD basis over every snapshot of every training
parameter, projects each parameter's final-step field onto it, and fits one
independent GP per retained mode over the normalized dwell time
(:class:`~romforge.dataset.InputNormalization`); every mode shares those
inputs, so one :class:`~romforge.gpr.GprModel` holds all r GPs and one
batched hyperparameter search fits them. Prediction evaluates the r GPs at
once, reconstructs the mean fields, and propagates the per-mode posterior
variances linearly to per-node 95% bands.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .dataset import (
    InputNormalization,
    SnapshotTensor,
    read_snapshot_bin,
    write_snapshot_bin,
)
from .errors import ConfigurationError, archive_values, read_json, write_json
from .gpr import GprModel, fit_gpr, make_gpr, predict_gpr
from .pod import PodBasis, compute_pod, project

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
    """Deployable surrogate: basis, one GP per mode (row ``j`` of ``gp``
    for mode ``j``) over the normalized training dwell times, and the
    normalization derived from them."""

    basis: PodBasis
    gp: GprModel
    training_dwell_times: tuple[float, ...]
    input_norm: InputNormalization = field(init=False, repr=False,
                                           compare=False)

    def __post_init__(self):
        norm = InputNormalization(self.training_dwell_times)
        object.__setattr__(self, "training_dwell_times", norm.dwell_times)
        object.__setattr__(self, "input_norm", norm)
        n_gps = self.gp.train_targets.shape[0]
        if n_gps != self.basis.rank:
            raise ConfigurationError(
                f"{n_gps} GPs for a rank-{self.basis.rank} basis")
        if not np.array_equal(self.gp.train_inputs, norm.training_inputs):
            raise ConfigurationError("the GP inputs must be the normalized "
                                     "training dwell times")

    @property
    def rank(self) -> int:
        return self.basis.rank


def train_pod_gpr(train: SnapshotTensor, energy_threshold: float = 0.9999,
                  jitter: float | None = None, restarts: int = 8,
                  seed: int = 0) -> PodGprRom:
    """Train the POD-GPR surrogate on a snapshot tensor.

    The basis spans all deposition steps of all training parameters; the GPs
    see only each parameter's final-step coefficients. One :func:`fit_gpr`
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
    gp = fit_gpr(norm.training_inputs, coeffs, jitter=jitter,
                 restarts=restarts, seed=seed)
    return PodGprRom(basis=basis, gp=gp, training_dwell_times=norm.dwell_times)


def predict_distortion_many(rom: PodGprRom, dwell_times
                            ) -> list[FieldPrediction]:
    """Predict the final-layer fields at several dwell times, with 95% bands.

    One posterior evaluates every mode at every dwell time. The
    per-node variance sums the independent mode posteriors through the
    linear reconstruction, ``var_i = sum_j modes[i, j]^2 var_j``. A
    prediction extrapolates where its dwell time lies outside the training
    range.
    """
    dts = [float(dt) for dt in dwell_times]
    means, variances = predict_gpr(rom.gp, rom.input_norm.apply(np.array(dts)))
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
    basis, gp = rom.basis, rom.gp
    write_json(path / "manifest.json", {
        "version": ROM_VERSION,
        "model": "pod-gpr",
        "training_dwell_times": list(rom.training_dwell_times),
        "singular_values": basis.singular_values.tolist(),
        "modes": [
            {
                "signal_variance": sv,
                "length_scale": ls,
                "jitter": jitter,
                "train_targets": targets,
            }
            for sv, ls, jitter, targets in zip(
                gp.signal_variance.tolist(), gp.length_scale.tolist(),
                gp.noise_jitter.tolist(), gp.train_targets.tolist())
        ],
    })
    write_snapshot_bin(np.column_stack([basis.reference, basis.modes]),
                       path / "basis.bin")


def load_rom(path) -> PodGprRom:
    """Load an archive written by :func:`save_rom`.

    A missing file, malformed JSON, an unknown version, a missing key or an
    unusable value is a :class:`DataError`.
    """
    path = Path(path)
    with archive_values(path):
        manifest = read_json(path / "manifest.json", ROM_VERSION)
        columns = read_snapshot_bin(path / "basis.bin")
        basis = PodBasis(modes=columns[:, 1:],
                         singular_values=manifest["singular_values"],
                         reference=columns[:, 0])
        norm = InputNormalization(manifest["training_dwell_times"])
        modes = manifest["modes"]
        gp = make_gpr(norm.training_inputs,
                      [mode["train_targets"] for mode in modes],
                      [mode["signal_variance"] for mode in modes],
                      [mode["length_scale"] for mode in modes],
                      [mode["jitter"] for mode in modes])
        return PodGprRom(basis=basis, gp=gp,
                         training_dwell_times=norm.dwell_times)
