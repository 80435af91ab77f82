"""Parameterized graph convolutional autoencoder over the part mesh.

Encoder: two graph-convolution layers, mean pool, dense head to a latent
vector. A parallel fully connected branch (``_param_branch``) maps the dwell
time into the same latent space; the decoder (``_decode``) expands a latent
vector back to a per-node field through a dense head, node broadcast, and two
graph convolutions. Training, validation and :func:`predict_gca` all run
through these two functions; prediction decodes the parameter branch's latent
and skips the encoder. All forward/backward passes are hand-written numpy; no
autograd. Graph features are node-major, ``(n, B, d)``: each aggregation is
one sparse product, each weight product one GEMM (``_dense``), and only the
decoder head crosses from ``(B, n * d)``. The cache holds activations.

Graph convolutions apply ``Â = D^{-1/2} (A + I) D^{-1/2}`` (``_aggregate``) to
their narrower side, as ``Â(HW) = (ÂH)W``: the encoder before its weight
product, the decoder after it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dataset import (
    MESH_ARRAYS,
    InputNormalization,
    MeshGeometry,
    load_archive,
    mesh_arrays,
    mesh_from_arrays,
    save_archive,
)
from .errors import ConfigurationError, DataError

__all__ = ["Graph", "GcaArchitecture", "GcaModel", "build_graph", "elu",
           "init_gca", "predict_gca", "save_gca", "load_gca"]


@dataclass(frozen=True)
class Graph:
    """Normalized adjacency (with self-loops) of the mesh graph, held as a
    SciPy CSR matrix."""

    n_nodes: int
    adjacency_norm: object


def build_graph(mesh: MeshGeometry) -> Graph:
    """Build ``D^{-1/2} (A + I) D^{-1/2}`` from the mesh edges."""
    # the package's only SciPy use, imported here so that POD-GPR commands
    # never load it
    from scipy import sparse

    n = mesh.n_nodes
    e = mesh.edges
    ones = np.ones(len(e))
    adj = sparse.coo_matrix((ones, (e[:, 0], e[:, 1])), shape=(n, n))
    adj = adj + adj.T + sparse.identity(n, format="coo")
    deg = np.asarray(adj.sum(axis=1)).ravel()
    dinv = 1.0 / np.sqrt(deg)
    norm = adj.tocsr().multiply(dinv[:, None]).multiply(dinv[None, :])
    return Graph(n_nodes=n, adjacency_norm=norm.tocsr())


def elu(x: np.ndarray) -> np.ndarray:
    """``max(x, expm1(min(x, 0)))`` in one buffer; bit for bit the usual
    ``where`` form, since ``expm1(s) >= s``."""
    out = np.minimum(x, 0.0)
    np.expm1(out, out=out)
    return np.maximum(x, out, out=out)


def _elu_grad(act: np.ndarray) -> np.ndarray:
    """ELU derivative from the activation ``act = elu(s)``: 1 where s > 0,
    ``exp(s) = act + 1`` elsewhere, without a second ``exp``."""
    grad = np.minimum(act, 0.0)
    return np.add(grad, 1.0, out=grad)


#: Trainable parameters one autoencoder may hold.
MAX_PARAMETERS = 10**9


@dataclass(frozen=True)
class GcaArchitecture:
    """Layer widths, tied to a mesh size by the decoder's seed layer; at
    most ``MAX_PARAMETERS`` parameters."""

    n_nodes: int
    enc_widths: tuple[int, int] = (16, 32)
    latent_dim: int = 12
    fc_width: int = 32

    def __post_init__(self):
        widths = (self.n_nodes, *self.enc_widths, self.latent_dim,
                  self.fc_width)
        if len(self.enc_widths) != 2 or not all(
                isinstance(w, (int, np.integer)) and w >= 1 for w in widths):
            raise ConfigurationError("layer widths and the node count must be "
                                     f"positive integers, got {self}")
        count = sum(math.prod(shape) for _, shape in self.param_shapes())
        if count > MAX_PARAMETERS:
            raise ConfigurationError(f"{self} has {count} parameters, over "
                                     f"MAX_PARAMETERS {MAX_PARAMETERS}")

    def param_shapes(self) -> list[tuple[str, tuple[int, ...]]]:
        h1, h2 = self.enc_widths
        lat, f = self.latent_dim, self.fc_width
        # the decoder head seeds every node with h2 features, giving the
        # graph-convolution stack a spatially resolved starting point
        seed = self.n_nodes * h2
        return [
            ("enc_gc1_w", (1, h1)), ("enc_gc1_b", (h1,)),
            ("enc_gc2_w", (h1, h2)), ("enc_gc2_b", (h2,)),
            ("enc_head_w", (h2, lat)), ("enc_head_b", (lat,)),
            ("dec_head_w", (lat, seed)), ("dec_head_b", (seed,)),
            ("dec_gc1_w", (h2, h1)), ("dec_gc1_b", (h1,)),
            ("dec_gc2_w", (h1, 1)), ("dec_gc2_b", (1,)),
            ("fc1_w", (1, f)), ("fc1_b", (f,)),
            ("fc2_w", (f, f)), ("fc2_b", (f,)),
            ("fc3_w", (f, lat)), ("fc3_b", (lat,)),
        ]


@dataclass(frozen=True)
class GcaModel:
    """Trained (or freshly initialized) autoencoder weights, with the
    training dwell times and the normalization derived from them."""

    arch: GcaArchitecture
    params: dict[str, np.ndarray]
    training_dwell_times: tuple[float, ...]
    seed: int
    input_norm: InputNormalization = field(init=False, repr=False,
                                           compare=False)

    def __post_init__(self):
        if type(self.seed) is not int or self.seed < 0:  # a bool is no seed
            raise ConfigurationError(
                f"seed must be a non-negative int, got {self.seed!r}")
        norm = InputNormalization(self.training_dwell_times)
        object.__setattr__(self, "training_dwell_times", norm.dwell_times)
        object.__setattr__(self, "input_norm", norm)


def init_params(arch: GcaArchitecture, seed: int) -> dict[str, np.ndarray]:
    """Glorot-uniform weights, zero biases, drawn in fixed layer order."""
    rng = np.random.default_rng(seed)
    params = {}
    for name, shape in arch.param_shapes():
        if name.endswith("_b"):
            params[name] = np.zeros(shape)
        else:
            limit = np.sqrt(6.0 / (shape[0] + shape[1]))
            params[name] = rng.uniform(-limit, limit, shape)
    return params


def init_gca(arch: GcaArchitecture, training_dwell_times=(0.0, 1.0),
             seed: int = 0) -> GcaModel:
    return GcaModel(arch=arch, params=init_params(arch, seed),
                    training_dwell_times=training_dwell_times, seed=seed)


def _aggregate(adj, feats: np.ndarray, b=None) -> np.ndarray:
    """``Â`` applied to (n, B, d) node-major features, ``b`` added in place."""
    out = (adj @ feats.reshape(feats.shape[0], -1)).reshape(feats.shape)
    return out if b is None else np.add(out, b, out=out)


def _dense(h: np.ndarray, w: np.ndarray, b=None) -> np.ndarray:
    """``h @ w + b`` over the last axis as one 2-D GEMM, the bias added in
    place; a 3-D ``(n, B, d)`` operand would run as n small products."""
    out = (h.reshape(-1, h.shape[-1]) @ w).reshape(*h.shape[:-1], w.shape[1])
    return out if b is None else np.add(out, b, out=out)


def _weight_grad(h: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Sum over nodes and samples of ``outer(h, d)``, as one matrix product."""
    return h.reshape(-1, h.shape[-1]).T @ d.reshape(-1, d.shape[-1])


def _keep(cache: dict | None, key: str, value: np.ndarray) -> np.ndarray:
    """Store ``value`` for the backward pass if there is a cache. Prediction
    passes none, so each intermediate is freed once the next layer has read
    it; holding them all costs predict_gca ~15% at 1,080 nodes."""
    if cache is not None:
        cache[key] = value
    return value


def _param_branch(p: dict, t: np.ndarray, cache: dict | None = None
                  ) -> np.ndarray:
    """Map (B, 1) normalized dwell times to (B, latent) through fc1-fc3."""
    a1 = _keep(cache, "a1", elu(t @ p["fc1_w"] + p["fc1_b"]))
    a2 = _keep(cache, "a2", elu(a1 @ p["fc2_w"] + p["fc2_b"]))
    return a2 @ p["fc3_w"] + p["fc3_b"]


def _decode(p: dict, graph: Graph, z: np.ndarray, cache: dict | None = None
            ) -> np.ndarray:
    """Expand (B, latent) codes to (n, B, 1) node-major fields: dense head,
    node broadcast, then two graph convolutions ``Â(HW) + b``."""
    adj = graph.adjacency_norm
    h4 = _keep(cache, "h4", elu(z @ p["dec_head_w"] + p["dec_head_b"]))
    # W1 first, in h4's (B, n, h2) layout: only 16 columns turn node-major
    u5 = _dense(h4.reshape(z.shape[0], graph.n_nodes, -1), p["dec_gc1_w"])
    s5 = _aggregate(adj, u5.transpose(1, 0, 2), p["dec_gc1_b"])
    h5 = _keep(cache, "h5", elu(s5))
    return _aggregate(adj, _dense(h5, p["dec_gc2_w"]), p["dec_gc2_b"])


def _forward_batch(p: dict, graph: Graph, x: np.ndarray, t: np.ndarray):
    """Batched forward pass. x: (n, B, 1) fields, t: (B, 1) normalized dts."""
    adj = graph.adjacency_norm
    cache = {"t": t}

    cache["ax"] = _aggregate(adj, x)
    cache["h1"] = elu(_dense(cache["ax"], p["enc_gc1_w"], p["enc_gc1_b"]))
    cache["ah1"] = _aggregate(adj, cache["h1"])
    cache["h2"] = elu(_dense(cache["ah1"], p["enc_gc2_w"], p["enc_gc2_b"]))
    cache["pool"] = cache["h2"].mean(axis=0)                # (B, h2)
    z = cache["pool"] @ p["enc_head_w"] + p["enc_head_b"]  # (B, latent)

    x_hat = _decode(p, graph, z, cache)
    z_p = _param_branch(p, t, cache)
    cache["z"], cache["z_p"] = z, z_p
    return x_hat, z, z_p, cache


def _backward_batch(p: dict, graph: Graph, cache: dict, x_hat: np.ndarray,
                    target: np.ndarray, lam: float) -> dict[str, np.ndarray]:
    """Gradients of the batch-mean loss w.r.t. every parameter array. ``Â`` is
    symmetric: ``Â @ d_s`` serves a decoder layer's weight and input grads."""
    adj = graph.adjacency_norm
    n, b, _ = x_hat.shape
    z, z_p = cache["z"], cache["z_p"]
    g = {}

    d_xhat = 2.0 * (x_hat - target) / (b * n)
    g["dec_gc2_b"] = d_xhat.sum(axis=(0, 1))
    d_u6 = _aggregate(adj, d_xhat)                         # (n, B, 1)
    g["dec_gc2_w"] = _weight_grad(cache["h5"], d_u6)
    d_s5 = _dense(d_u6, p["dec_gc2_w"].T)
    d_s5 *= _elu_grad(cache["h5"])
    g["dec_gc1_b"] = d_s5.sum(axis=(0, 1))
    # one copy of the narrow d_u5 into h4's (B, n, h1) layout
    d_u5 = _aggregate(adj, d_s5).transpose(1, 0, 2).reshape(-1, d_s5.shape[2])
    g["dec_gc1_w"] = cache["h4"].reshape(d_u5.shape[0], -1).T @ d_u5
    d_s4 = (d_u5 @ p["dec_gc1_w"].T).reshape(b, -1)        # (B, n*h2)
    d_s4 *= _elu_grad(cache["h4"])
    g["dec_head_w"] = z.T @ d_s4
    g["dec_head_b"] = d_s4.sum(axis=0)

    d_latent = 2.0 * lam * (z - z_p) / z.size
    d_z = d_s4 @ p["dec_head_w"].T + d_latent
    d_zp = -d_latent

    g["enc_head_w"] = cache["pool"].T @ d_z
    g["enc_head_b"] = d_z.sum(axis=0)
    d_pool = d_z @ p["enc_head_w"].T                       # (B, h2)
    d_s2 = _elu_grad(cache["h2"])
    d_s2 *= d_pool / n                     # the mean pool, broadcast to nodes
    g["enc_gc2_w"] = _weight_grad(cache["ah1"], d_s2)
    g["enc_gc2_b"] = d_s2.sum(axis=(0, 1))
    d_s1 = _aggregate(adj, _dense(d_s2, p["enc_gc2_w"].T))
    d_s1 *= _elu_grad(cache["h1"])
    g["enc_gc1_w"] = _weight_grad(cache["ax"], d_s1)
    g["enc_gc1_b"] = d_s1.sum(axis=(0, 1))

    d_a2 = d_zp @ p["fc3_w"].T
    g["fc3_w"] = cache["a2"].T @ d_zp
    g["fc3_b"] = d_zp.sum(axis=0)
    d_f2 = d_a2 * _elu_grad(cache["a2"])
    g["fc2_w"] = cache["a1"].T @ d_f2
    g["fc2_b"] = d_f2.sum(axis=0)
    d_a1 = d_f2 @ p["fc2_w"].T
    d_f1 = d_a1 * _elu_grad(cache["a1"])
    g["fc1_w"] = cache["t"].T @ d_f1
    g["fc1_b"] = d_f1.sum(axis=0)
    return g


def _loss_terms(params: dict, graph: Graph, inputs: np.ndarray,
                targets: np.ndarray, t: np.ndarray):
    """Forward pass plus the reconstruction and latent-gap mean squares."""
    target = targets.T[:, :, None]
    x_hat, z, z_p, cache = _forward_batch(params, graph, inputs.T[:, :, None],
                                          t[:, None])
    l_rec = float(np.mean((target - x_hat) ** 2))
    l_param = float(np.mean((z - z_p) ** 2))
    return l_rec, l_param, x_hat, target, cache


def batch_loss_and_grads(params: dict, graph: Graph, inputs: np.ndarray,
                         targets: np.ndarray, t: np.ndarray, lam: float):
    """Full-batch loss (and components) plus parameter gradients.

    inputs/targets: (B, n) fields; inputs may be corrupted, targets are clean.
    t: (B,) normalized dwell times.
    """
    l_rec, l_param, x_hat, target, cache = _loss_terms(params, graph, inputs,
                                                       targets, t)
    grads = _backward_batch(params, graph, cache, x_hat, target, lam)
    return l_rec + lam * l_param, l_rec, l_param, grads


def batch_loss(params: dict, graph: Graph, inputs: np.ndarray,
               targets: np.ndarray, t: np.ndarray, lam: float) -> float:
    """Forward-only counterpart of :func:`batch_loss_and_grads`."""
    l_rec, l_param, *_ = _loss_terms(params, graph, inputs, targets, t)
    return l_rec + lam * l_param


def predict_gca(model: GcaModel, graph: Graph, dwell_time: float) -> np.ndarray:
    """Decode the parameter branch's latent vector; the encoder is not used."""
    t = np.array([[model.input_norm.apply(dwell_time)]])
    z_p = _param_branch(model.params, t)
    return _decode(model.params, graph, z_p)[:, 0, 0]


# Checkpoint I/O ==============================================================

def save_gca(model: GcaModel, mesh: MeshGeometry, path) -> None:
    """Write ``gca.json``, the mesh arrays and ``gca_weights.bin``.

    ``gca_weights.bin`` is an SNPT array of shape (n_params, 1): every
    tensor flattened, in the architecture's parameter order.
    """
    save_archive(path, "gca.json", {
        "model": "gca",
        "seed": model.seed,
        "latent_dim": model.arch.latent_dim,
        "enc_widths": list(model.arch.enc_widths),
        "fc_width": model.arch.fc_width,
        "training_dwell_times": list(model.training_dwell_times),
    }, {**mesh_arrays(mesh), "gca_weights": np.concatenate(
        [model.params[name].ravel() for name, _ in model.arch.param_shapes()])})


def load_gca(path) -> tuple[GcaModel, MeshGeometry]:
    """Load a checkpoint written by :func:`save_gca`; any unusable file or
    value, a NaN or infinite weight included, is a :class:`DataError`."""
    with load_archive(path, "gca.json", ["gca_weights", *MESH_ARRAYS]
                      ) as (manifest, arrays):
        mesh = mesh_from_arrays(arrays)
        arch = GcaArchitecture(
            n_nodes=mesh.n_nodes,
            enc_widths=tuple(manifest["enc_widths"]),
            latent_dim=manifest["latent_dim"],
            fc_width=manifest["fc_width"],
        )
        shapes = dict(arch.param_shapes())
        sizes = [int(np.prod(shape)) for shape in shapes.values()]
        weights = arrays["gca_weights"]
        if weights.shape != (sum(sizes), 1):
            raise DataError(f"gca_weights.bin holds shape {weights.shape}, "
                            f"the architecture implies ({sum(sizes)}, 1)")
        params = {name: part.reshape(shape) for (name, shape), part in zip(
            shapes.items(), np.split(weights[:, 0], np.cumsum(sizes)[:-1]))}
        model = GcaModel(arch=arch, params=params,
                         training_dwell_times=manifest["training_dwell_times"],
                         seed=manifest["seed"])
    return model, mesh
