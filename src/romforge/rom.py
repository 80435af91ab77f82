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

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .dataset import (
    InputNormalization,
    SnapshotTensor,
    load_archive,
    save_archive,
)
from .errors import ConfigurationError
from .gpr import GprModel, fit_gpr, make_gpr, predict_gpr
from .pod import PodBasis, compute_pod, project, reconstruct

__all__ = [
    "FieldPrediction",
    "PodGprRom",
    "train_pod_gpr",
    "predict_distortion",
    "predict_distortion_many",
    "save_rom",
    "load_rom",
]

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
    """Deployable surrogate: a mode-major basis (``basis.modes.T`` is
    C-contiguous), one GP per mode (row ``j`` of ``gp`` for mode ``j``)
    over the normalized training dwell times, and their normalization."""

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
        if not self.basis.modes.flags.f_contiguous:
            object.__setattr__(self, "basis", replace(
                self.basis, modes=np.asfortranarray(self.basis.modes)))

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
    basis = compute_pod([m.values for m in train.matrices], energy_threshold)

    norm = InputNormalization(train.dwell_times)
    # on the node-major modes: the fit is sensitive to its targets' last bits
    coeffs = np.column_stack(
        [project(basis, m.values[:, -1]) for m in train.matrices]
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
    range; at +-inf it is the GP prior, and a NaN is refused.
    """
    dts = [float(dt) for dt in dwell_times]
    if any(map(math.isnan, dts)):  # a numpy call would cost ~1 us
        raise ConfigurationError(f"dwell times must not be NaN, got {dts}")
    norm = rom.input_norm
    # Python floats: one array call where normalizing an array takes three
    means, variances = predict_gpr(rom.gp, [norm.apply(dt) for dt in dts])
    fields = reconstruct(rom.basis, means.T)                   # (q, n_nodes)
    halves = variances.T @ rom.basis.squared_modes.T
    np.sqrt(halves, out=halves)
    halves *= CI95_FACTOR
    lowers = fields - halves
    halves += fields  # the upper bounds
    return [
        FieldPrediction(mean_field=field, lower_95=lower, upper_95=upper,
                        coeff_means=coeff_mean, coeff_variances=coeff_var,
                        extrapolation=outside)
        for field, lower, upper, coeff_mean, coeff_var, outside in zip(
            fields, lowers, halves, means.T.copy(), variances.T.copy(),
            norm.extrapolates(dts))
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
    array of shape (rank + 1, n_nodes): row 0 is the reference field and
    row ``j + 1`` is mode ``j``. The GP inputs are not stored: they are the
    normalized training dwell times.
    """
    basis, gp = rom.basis, rom.gp
    save_archive(path, "manifest.json", {
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
    }, {"basis": [basis.reference[None, :], basis.modes.T]})


def load_rom(path) -> PodGprRom:
    """Load an archive written by :func:`save_rom`; any unusable file or
    value is a :class:`DataError`. The basis views ``basis.bin``'s rows."""
    with load_archive(path, "manifest.json", ["basis"]) as (manifest, arrays):
        rows = arrays["basis"]
        basis = PodBasis(modes=rows[1:].T,
                         singular_values=manifest["singular_values"],
                         reference=rows[0])
        norm = InputNormalization(manifest["training_dwell_times"])
        modes = manifest["modes"]
        gp = make_gpr(norm.training_inputs,
                      [mode["train_targets"] for mode in modes],
                      [mode["signal_variance"] for mode in modes],
                      [mode["length_scale"] for mode in modes],
                      [mode["jitter"] for mode in modes])
        return PodGprRom(basis=basis, gp=gp,
                         training_dwell_times=norm.dwell_times)
