"""Training loop for the graph convolutional autoencoder.

Full-batch denoising training: every epoch the encoder sees Gaussian-corrupted
fields while the reconstruction target stays clean. The learning rate follows
cosine annealing with warm restarts and early stopping restores the weights
with the best validation loss.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dataset import InputNormalization, SnapshotTensor
from .errors import ConfigurationError, NumericalError
from .gca import (
    GcaArchitecture,
    GcaModel,
    Graph,
    batch_loss,
    batch_loss_and_grads,
    init_params,
)
from .optim import adamw_step, cosine_warm_restart_lr, init_adamw_state

__all__ = ["GcaTrainConfig", "EpochRecord", "train_gca", "write_history_csv"]


@dataclass(frozen=True)
class GcaTrainConfig:
    lam: float = 0.5
    lr_max: float = 1e-3
    lr_min: float = 1e-5
    warm_restart_t0: int = 50
    warm_restart_mult: int = 2
    weight_decay: float = 1e-4
    patience: int = 50
    noise_sigma: float | None = None  # None: 1% of the training-field std
    max_epochs: int = 2000
    seed: int = 0
    latent_dim: int = 12

    def __post_init__(self) -> None:
        for name in ("lam", "lr_max", "lr_min", "weight_decay", "noise_sigma"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ConfigurationError(f"{name} must be finite, got {value}")
        if self.lam < 0.0:
            raise ConfigurationError("lam must be non-negative")
        if not (self.lr_max >= self.lr_min >= 0.0):
            raise ConfigurationError("need lr_max >= lr_min >= 0")
        if self.warm_restart_t0 < 1 or self.warm_restart_mult < 1:
            raise ConfigurationError("warm restart period and mult must be >= 1")
        if self.weight_decay < 0.0:
            raise ConfigurationError("weight_decay must be >= 0")
        if self.patience < 1 or self.max_epochs < 1:
            raise ConfigurationError("patience and max_epochs must be >= 1")
        if self.noise_sigma is not None and self.noise_sigma < 0.0:
            raise ConfigurationError("noise_sigma must be non-negative")
        if self.seed < 0:
            raise ConfigurationError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class EpochRecord:
    epoch: int
    lr: float
    train_loss: float
    val_loss: float
    l_rec: float
    l_param: float


@np.errstate(all="ignore")  # a non-finite loss is reported as it happens
def train_gca(train: SnapshotTensor, val: SnapshotTensor | None, graph: Graph,
              config: GcaTrainConfig = GcaTrainConfig()
              ) -> tuple[GcaModel, list[EpochRecord]]:
    """Train on the final-step fields of `train`, early-stop on `val`.

    With no validation samples, early stopping falls back to the training
    loss. Returns the model with the best monitored loss plus the per-epoch
    history.
    """
    if train.n_mu < 1:
        raise ConfigurationError("training set is empty")
    if graph.n_nodes != train.n_nodes:
        raise ConfigurationError(
            f"graph has {graph.n_nodes} nodes, training fields {train.n_nodes}"
        )

    fields = train.final_fields().T.copy()          # (B, n)
    norm = InputNormalization(train.dwell_times)
    ts = norm.training_inputs

    has_val = val is not None and val.n_mu > 0
    if has_val:
        if val.n_nodes != train.n_nodes:
            raise ConfigurationError("validation fields disagree with training fields")
        val_fields = val.final_fields().T.copy()
        val_ts = norm.apply(np.array(val.dwell_times))

    sigma = config.noise_sigma
    if sigma is None:
        sigma = 0.01 * float(fields.std())

    arch = GcaArchitecture(n_nodes=graph.n_nodes, latent_dim=config.latent_dim)
    flat = np.zeros(arch.n_params)  # the weights; params holds views of it
    params = init_params(arch, config.seed, flat)
    state = init_adamw_state(flat)
    noise_rng = np.random.default_rng(config.seed + 1)

    best = math.inf
    best_flat = flat.copy()
    bad_epochs = 0
    history: list[EpochRecord] = []
    # batch-sized buffers, reused: freed ones would fault in every epoch
    noisy = np.empty_like(fields) if sigma > 0.0 else fields
    train_ws, val_ws = {}, {}

    for epoch in range(config.max_epochs):
        lr = cosine_warm_restart_lr(epoch, config.lr_max, config.lr_min,
                                    config.warm_restart_t0,
                                    config.warm_restart_mult)
        if sigma > 0.0:
            # the draws of normal(0.0, sigma), which scales the same stream
            noise_rng.standard_normal(out=noisy)
            noisy *= sigma
            noisy += fields
        loss, l_rec, l_param, _ = batch_loss_and_grads(
            params, graph, noisy, fields, ts, config.lam, train_ws)
        if not math.isfinite(loss):
            raise NumericalError(
                f"training loss became non-finite at epoch {epoch} (lr={lr:.3g})"
            )
        if has_val:
            adamw_step(flat, train_ws["grad"], state, lr, config.weight_decay)
            val_loss = monitored = batch_loss(params, graph, val_fields,
                                              val_fields, val_ts, config.lam,
                                              val_ws)
        else:
            val_loss, monitored = math.nan, loss
        history.append(EpochRecord(epoch=epoch, lr=lr, train_loss=loss,
                                   val_loss=val_loss, l_rec=l_rec,
                                   l_param=l_param))
        if monitored < best:
            best = monitored
            np.copyto(best_flat, flat)
            bad_epochs = 0
        else:
            bad_epochs += 1
            if bad_epochs >= config.patience:
                break
        if not has_val:
            # the training loss predates this step, so it was compared above
            adamw_step(flat, train_ws["grad"], state, lr, config.weight_decay)

    np.copyto(flat, best_flat)  # the best weights, under params' views
    model = GcaModel(arch=arch, params=params,
                     training_dwell_times=norm.dwell_times, seed=config.seed)
    return model, history


def write_history_csv(history: list[EpochRecord], path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["epoch", "lr", "train_loss", "val_loss",
                         "l_rec", "l_param"])
        for row in history:
            writer.writerow([row.epoch, repr(row.lr), repr(row.train_loss),
                             repr(row.val_loss), repr(row.l_rec),
                             repr(row.l_param)])
