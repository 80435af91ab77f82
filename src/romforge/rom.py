"""End-to-end POD-GPR surrogate for final-layer distortion fields.

Training computes one POD basis over every snapshot of every training
parameter, projects each parameter's final-step field onto it, and fits one
independent GP per retained mode over the normalized dwell time; every mode
shares those inputs, so one batched hyperparameter search fits them all.
Prediction evaluates the r GPs at once through their stacked Cholesky
factors, reconstructs the mean fields, and propagates the per-mode posterior
variances linearly to per-node 95% bands.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .dataset import SnapshotTensor, extrapolates
from .errors import (
    ConfigurationError,
    CorruptionError,
    FormatError,
    archive_values,
    read_json,
)
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
from .pod import PodBasis, compute_pod, load_basis, project, save_basis

__all__ = [
    "InputNormalization",
    "FieldPrediction",
    "PodGprRom",
    "train_pod_gpr",
    "predict_distortion",
    "predict_distortion_many",
    "save_rom",
    "load_rom",
]

ROM_VERSION = 1

#: Two-sided 95% confidence half-width in standard deviations.
CI95_FACTOR = 1.96


@dataclass(frozen=True)
class InputNormalization:
    """Affine map sending the training dwell-time range onto [0, 1]."""

    offset: float
    scale: float

    def apply(self, dwell_time: float) -> float:
        return (dwell_time - self.offset) / self.scale


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
    """Deployable surrogate: basis, one GP per mode, and input normalization."""

    basis: PodBasis
    gprs: tuple[GprModel, ...]
    input_norm: InputNormalization
    training_dwell_times: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "gprs", tuple(self.gprs))
        object.__setattr__(
            self, "training_dwell_times", tuple(self.training_dwell_times)
        )
        if len(self.gprs) != self.basis.rank:
            raise ConfigurationError(
                f"{len(self.gprs)} GPs for a rank-{self.basis.rank} basis"
            )
        if self.gprs and any(
            not np.array_equal(g.train_inputs, self.gprs[0].train_inputs)
            for g in self.gprs[1:]
        ):
            raise ConfigurationError("per-mode GPs disagree on training inputs")

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

    dts = np.array(train.dwell_times)
    norm = InputNormalization(offset=float(dts.min()),
                              scale=float(dts.max() - dts.min()))
    inputs = np.array([norm.apply(dt) for dt in dts])
    coeffs = np.column_stack(
        [project(basis, m.final_field) for m in train.matrices]
    )  # (rank, n_mu)
    gprs = fit_gprs(inputs, coeffs, jitter=jitter, restarts=restarts,
                    seed=seed)
    return PodGprRom(
        basis=basis,
        gprs=gprs,
        input_norm=norm,
        training_dwell_times=tuple(float(dt) for dt in dts),
    )


def predict_distortion_many(rom: PodGprRom, dwell_times
                            ) -> list[FieldPrediction]:
    """Predict the final-layer fields at several dwell times, with 95% bands.

    One stacked posterior evaluates every mode at every dwell time. The
    per-node variance sums the independent mode posteriors through the
    linear reconstruction, ``var_i = sum_j modes[i, j]^2 var_j``. A
    prediction extrapolates where its normalized dwell time does
    (:func:`~romforge.dataset.extrapolates`).
    """
    mu = rom.input_norm.apply(np.array([float(dt) for dt in dwell_times]))
    means, variances = predict_stack(rom.gpr_stack, mu)      # (rank, q)
    basis = rom.basis
    fields = means.T @ basis.modes.T + basis.reference         # (q, n_nodes)
    halves = CI95_FACTOR * np.sqrt(variances.T @ basis.squared_modes.T)
    outside = extrapolates(mu.tolist())
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

def _hex(values: np.ndarray) -> str:
    return np.asarray(values, dtype=np.float64).astype("<f8").tobytes().hex()


def _unhex(text: str) -> np.ndarray:
    return np.frombuffer(bytes.fromhex(text), dtype="<f8").copy()


def save_rom(rom: PodGprRom, path) -> None:
    """Write the archive directory: manifest, basis.bin, gprs.json, norm.json.

    GP training arrays are hex-encoded little-endian float64 so the archive
    is human-inspectable yet reproduces predictions bit-exactly.
    """
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    manifest = {
        "version": ROM_VERSION,
        "model": "pod-gpr",
        "rank": rom.rank,
        "n_h": rom.basis.n_nodes,
        "training_dwell_times": list(rom.training_dwell_times),
    }
    (path / "manifest.json").write_bytes(
        json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode()
    )
    save_basis(rom.basis, path / "basis.bin")
    modes = [
        {
            "mode": j,
            "signal_variance": g.kernel.signal_variance,
            "length_scale": g.kernel.length_scale,
            "jitter": g.noise_jitter,
            "mean_constant": g.mean_constant,
            "train_inputs_hex": _hex(g.train_inputs),
            "train_targets_hex": _hex(g.train_targets),
        }
        for j, g in enumerate(rom.gprs)
    ]
    (path / "gprs.json").write_bytes(
        json.dumps({"version": ROM_VERSION, "modes": modes},
                   sort_keys=True, separators=(",", ":")).encode()
    )
    norm = {"offset": rom.input_norm.offset, "scale": rom.input_norm.scale}
    (path / "norm.json").write_bytes(
        json.dumps(norm, sort_keys=True, separators=(",", ":")).encode()
    )


def load_rom(path) -> PodGprRom:
    """Load an archive written by :func:`save_rom`.

    A missing file, malformed JSON or an unknown version is a
    :class:`FormatError`; a missing key or an unusable value is a
    :class:`CorruptionError`.
    """
    path = Path(path)
    with archive_values(path):
        manifest = read_json(path / "manifest.json")
        if manifest.get("version") != ROM_VERSION:
            raise FormatError(
                f"unsupported ROM archive version {manifest.get('version')}"
            )
        basis = load_basis(path / "basis.bin")

        gprs_doc = read_json(path / "gprs.json")
        if gprs_doc.get("version") != ROM_VERSION:
            raise FormatError(
                f"unsupported gprs.json version {gprs_doc.get('version')}")
        by_mode = {entry.get("mode"): entry for entry in gprs_doc["modes"]}
        gprs = []
        for j in range(manifest["rank"]):
            entry = by_mode.get(j)
            if entry is None:
                raise FormatError(f"gprs.json is missing mode {j}")
            kernel = RbfKernel(entry["signal_variance"], entry["length_scale"])
            gprs.append(
                make_gpr(_unhex(entry["train_inputs_hex"]),
                         _unhex(entry["train_targets_hex"]),
                         kernel, entry["jitter"])
            )

        norm_doc = read_json(path / "norm.json")
        offset, scale = float(norm_doc["offset"]), float(norm_doc["scale"])
        dwell_times = tuple(float(dt) for dt in manifest["training_dwell_times"])
        if not all(math.isfinite(v) for v in (offset, scale, *dwell_times)):
            raise CorruptionError(f"{path}: non-finite dwell-time values")
        if scale <= 0.0:
            raise CorruptionError(f"{path}: dwell-time scale must be > 0")
        return PodGprRom(
            basis=basis,
            gprs=tuple(gprs),
            input_norm=InputNormalization(offset, scale),
            training_dwell_times=dwell_times,
        )
