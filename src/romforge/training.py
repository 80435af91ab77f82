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
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 1e-4
    patience: int = 50
    noise_sigma: float | None = None  # None: 1% of the training-field std
    max_epochs: int = 2000
    seed: int = 0
    latent_dim: int = 12
    enc_widths: tuple[int, int] = (16, 32)
    fc_width: int = 32

    def __post_init__(self) -> None:
        for name in ("lam", "lr_max", "lr_min", "eps", "weight_decay",
                     "noise_sigma"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ConfigurationError(f"{name} must be finite, got {value}")
        if self.lam < 0.0:
            raise ConfigurationError("lam must be non-negative")
        if not (self.lr_max >= self.lr_min >= 0.0):
            raise ConfigurationError("need lr_max >= lr_min >= 0")
        if self.warm_restart_t0 < 1 or self.warm_restart_mult < 1:
            raise ConfigurationError("warm restart period and mult must be >= 1")
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ConfigurationError("betas must lie in [0, 1)")
        if self.eps <= 0.0 or self.weight_decay < 0.0:
            raise ConfigurationError("eps must be positive, weight_decay >= 0")
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

    arch = GcaArchitecture(n_nodes=graph.n_nodes,
                           enc_widths=config.enc_widths,
                           latent_dim=config.latent_dim,
                           fc_width=config.fc_width)
    params = init_params(arch, config.seed)
    state = init_adamw_state(params)
    noise_rng = np.random.default_rng(config.seed + 1)

    adamw_args = (config.beta1, config.beta2, config.eps, config.weight_decay)
    best = math.inf
    best_params = {k: v.copy() for k, v in params.items()}
    bad_epochs = 0
    history: list[EpochRecord] = []

    for epoch in range(config.max_epochs):
        lr = cosine_warm_restart_lr(epoch, config.lr_max, config.lr_min,
                                    config.warm_restart_t0,
                                    config.warm_restart_mult)
        if sigma > 0.0:
            noisy = fields + noise_rng.normal(0.0, sigma, fields.shape)
        else:
            noisy = fields
        loss, l_rec, l_param, grads = batch_loss_and_grads(
            params, graph, noisy, fields, ts, config.lam
        )
        if not math.isfinite(loss):
            raise NumericalError(
                f"training loss became non-finite at epoch {epoch} (lr={lr:.3g})"
            )
        if has_val:
            adamw_step(params, grads, state, lr, *adamw_args)
            val_loss = monitored = batch_loss(params, graph, val_fields,
                                              val_fields, val_ts, config.lam)
        else:
            val_loss, monitored = math.nan, loss
        history.append(EpochRecord(epoch=epoch, lr=lr, train_loss=loss,
                                   val_loss=val_loss, l_rec=l_rec,
                                   l_param=l_param))
        if monitored < best:
            best = monitored
            for name, value in params.items():
                np.copyto(best_params[name], value)
            bad_epochs = 0
        else:
            bad_epochs += 1
            if bad_epochs >= config.patience:
                break
        if not has_val:
            # the training loss predates this step, so it was compared above
            adamw_step(params, grads, state, lr, *adamw_args)

    model = GcaModel(arch=arch, params=best_params,
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
