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
decoder head crosses from ``(B, n * d)``. Batch-sized arrays go into the
buffers of a workspace dict that training reuses; prediction passes none.
Weights and gradients are views of flat vectors laid out by param_views.

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
    # SciPy is imported here and in _aggregate, so that POD-GPR commands
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


def elu(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``max(x, expm1(min(x, 0)))`` in one buffer, ``out`` (never ``x``) or a
    new one; bit for bit the usual ``where`` form, since ``expm1(s) >= s``."""
    out = np.minimum(x, 0.0, out=out)
    np.expm1(out, out=out)
    return np.maximum(x, out, out=out)


def _elu_grad(act: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """ELU derivative from the activation ``act = elu(s)``, into ``out``
    (``act`` may be it): 1 where s > 0, ``exp(s) = act + 1`` elsewhere."""
    grad = np.minimum(act, 0.0, out=out)
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
    n_params: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        widths = (self.n_nodes, *self.enc_widths, self.latent_dim,
                  self.fc_width)
        if len(self.enc_widths) != 2 or not all(
                isinstance(w, (int, np.integer)) and w >= 1 for w in widths):
            raise ConfigurationError("layer widths and the node count must be "
                                     f"positive integers, got {self}")
        object.__setattr__(self, "n_params", sum(
            math.prod(shape) for _, shape in self.param_shapes()))
        if self.n_params > MAX_PARAMETERS:
            raise ConfigurationError(f"{self} has {self.n_params} parameters, "
                                     f"over MAX_PARAMETERS {MAX_PARAMETERS}")

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


def param_views(flat: np.ndarray, shapes) -> dict[str, np.ndarray]:
    """Views of the 1-D ``flat`` as the tensors of ``shapes``, ``(name,
    shape)`` pairs laid back to back: the package's only parameter offsets."""
    views, end = {}, 0
    for name, shape in shapes:
        views[name] = flat[end:end + math.prod(shape)].reshape(shape)
        end += views[name].size
    return views


def init_params(arch: GcaArchitecture, seed: int,
                out: np.ndarray | None = None) -> dict[str, np.ndarray]:
    """Glorot-uniform weights, in fixed layer order, and zero biases: views
    of ``out``, a zeroed vector of ``arch.n_params`` values (new if None)."""
    rng = np.random.default_rng(seed)
    params = param_views(np.zeros(arch.n_params) if out is None else out,
                         arch.param_shapes())
    for name, param in params.items():
        if name.endswith("_w"):
            limit = np.sqrt(6.0 / (param.shape[0] + param.shape[1]))
            param[...] = rng.uniform(-limit, limit, param.shape)
    return params


def init_gca(arch: GcaArchitecture, training_dwell_times=(0.0, 1.0),
             seed: int = 0) -> GcaModel:
    return GcaModel(arch=arch, params=init_params(arch, seed),
                    training_dwell_times=training_dwell_times, seed=seed)


def _buf(ws: dict | None, key: str, shape: tuple) -> np.ndarray:
    """Buffer ``key`` of ``ws`` as ``shape``, made if absent or of another
    size; without a workspace, a new array."""
    if ws is None:
        return np.empty(shape)
    if key not in ws or ws[key].size != math.prod(shape):
        ws[key] = np.empty(shape)
    return ws[key].reshape(shape)


def _copy(ws: dict | None, key: str, a: np.ndarray) -> np.ndarray:
    out = _buf(ws, key, a.shape)
    np.copyto(out, a)
    return out


def _aggregate(adj, feats: np.ndarray, ws: dict | None, key: str, b=None
               ) -> np.ndarray:
    """``Â`` applied to (n, B, d) node-major features into buffer ``key``,
    ``b`` added in place, by the kernels of ``adj @ x`` (one column, or
    several): the package's only private SciPy names, pinned by a test."""
    from scipy.sparse._sparsetools import csr_matvec, csr_matvecs
    n, cols = feats.shape[0], feats.size // feats.shape[0]
    out = np.zeros(feats.shape) if ws is None else _buf(ws, key, feats.shape)
    if ws is not None:  # the kernels accumulate: zero a reused buffer
        out.fill(0.0)
    arrays = adj.indptr, adj.indices, adj.data, feats.ravel(), out.ravel()
    if cols == 1:
        csr_matvec(n, n, *arrays)
    else:
        csr_matvecs(n, n, cols, *arrays)
    return out if b is None else np.add(out, b, out=out)


def _dense(h: np.ndarray, w: np.ndarray, ws: dict | None, key: str, b=None
           ) -> np.ndarray:
    """``h @ w + b`` over the last axis into buffer ``key``, as one 2-D GEMM;
    a 3-D ``(n, B, d)`` operand would run as n small products."""
    out = _buf(ws, key, (*h.shape[:-1], w.shape[1]))
    np.matmul(h.reshape(-1, h.shape[-1]), w, out=out.reshape(-1, w.shape[1]))
    return out if b is None else np.add(out, b, out=out)


def _grads(g: dict, layer: str, h: np.ndarray, d: np.ndarray) -> None:
    """``layer``'s gradients into ``g``: its weight's, the sum over nodes and
    samples of ``outer(h, d)`` as one matrix product, and its bias's."""
    d = d.reshape(-1, d.shape[-1])
    np.matmul(h.reshape(-1, h.shape[-1]).T, d, out=g[layer + "_w"])
    d.sum(axis=0, out=g[layer + "_b"])


def _param_branch(p: dict, t: np.ndarray) -> tuple[np.ndarray, ...]:
    """Map (B, 1) normalized dwell times to (B, latent) through fc1-fc3;
    returns both hidden activations, then the latent codes."""
    a1 = elu(t @ p["fc1_w"] + p["fc1_b"])
    a2 = elu(a1 @ p["fc2_w"] + p["fc2_b"])
    return a1, a2, a2 @ p["fc3_w"] + p["fc3_b"]


def _decode(p: dict, graph: Graph, z: np.ndarray, ws: dict | None = None
            ) -> np.ndarray:
    """Expand (B, latent) codes to (n, B, 1) node-major fields: dense head,
    node broadcast, then two graph convolutions ``Â(HW) + b``."""
    adj = graph.adjacency_norm
    # h is rebound layer by layer, so that without a workspace each array
    # goes once read; holding them costs predict_gca ~15% at 1,080 nodes
    h = _dense(z, p["dec_head_w"], ws, "tmp2", p["dec_head_b"])
    h = elu(h, _buf(ws, "h4", h.shape))
    # W1 first, in h4's (B, n, h2) layout: only 16 columns turn node-major
    h = _dense(h.reshape(len(z), graph.n_nodes, -1), p["dec_gc1_w"], ws,
               "tmp1")
    h = _aggregate(adj, _copy(ws, "tmp1b", h.transpose(1, 0, 2)), ws, "tmp1",
                   p["dec_gc1_b"])
    h = elu(h, _buf(ws, "h5", h.shape))
    return _aggregate(adj, _dense(h, p["dec_gc2_w"], ws, "u6"), ws, "x_hat",
                      p["dec_gc2_b"])


def _forward_batch(p: dict, graph: Graph, x: np.ndarray, t: np.ndarray,
                   ws: dict | None = None):
    """Batched forward pass. x: (n, B, 1) fields, t: (B, 1) normalized dts.
    Every array goes into ``ws`` (a new dict if None), the backward pass's
    cache; short-lived ones share the slots tmp1, tmp1b and tmp2."""
    adj = graph.adjacency_norm
    ws = {} if ws is None else ws
    ws["t"] = t

    ax = _aggregate(adj, _copy(ws, "x", x), ws, "ax")
    s = _dense(ax, p["enc_gc1_w"], ws, "tmp1", p["enc_gc1_b"])
    h1 = elu(s, _buf(ws, "h1", s.shape))
    s = _dense(_aggregate(adj, h1, ws, "ah1"), p["enc_gc2_w"], ws, "tmp2",
               p["enc_gc2_b"])
    ws["pool"] = elu(s, _buf(ws, "h2", s.shape)).mean(axis=0)  # (B, h2)
    z = ws["pool"] @ p["enc_head_w"] + p["enc_head_b"]         # (B, latent)

    x_hat = _decode(p, graph, z, ws)
    ws["a1"], ws["a2"], z_p = _param_branch(p, t)
    ws["z"], ws["z_p"] = z, z_p
    return x_hat, z, z_p, ws


def _backward_batch(p: dict, graph: Graph, ws: dict, x_hat: np.ndarray,
                    target: np.ndarray, lam: float) -> dict[str, np.ndarray]:
    """Gradients of the batch-mean loss w.r.t. every parameter array, into
    ``ws["grads"]``: views, laid out like ``p``, of one vector ``ws["grad"]``.
    Each ELU' overwrites its (dead) activation. ``Â`` is symmetric:
    ``Â @ d_s`` serves a decoder layer's weight and input grads."""
    adj = graph.adjacency_norm
    n, b, _ = x_hat.shape
    z, z_p = ws["z"], ws["z_p"]
    if "grads" not in ws:
        ws["grad"] = np.empty(sum(v.size for v in p.values()))
        ws["grads"] = param_views(ws["grad"],
                                  [(k, v.shape) for k, v in p.items()])
    g = ws["grads"]

    d_xhat = np.subtract(x_hat, target, out=_buf(ws, "d_xhat", x_hat.shape))
    d_xhat *= 2.0
    d_xhat /= b * n
    d_xhat.sum(axis=(0, 1), out=g["dec_gc2_b"])
    d_u6 = _aggregate(adj, d_xhat, ws, "d_u6")              # (n, B, 1)
    np.matmul(ws["h5"].reshape(b * n, -1).T, d_u6.reshape(b * n, 1),
              out=g["dec_gc2_w"])
    d_s5 = _dense(d_u6, p["dec_gc2_w"].T, ws, "tmp1")
    d_s5 *= _elu_grad(ws["h5"], out=ws["h5"])
    d_s5.sum(axis=(0, 1), out=g["dec_gc1_b"])
    # one copy of the narrow d_u5 into h4's (B, n, h1) layout
    d_u5 = _copy(ws, "tmp1", _aggregate(adj, d_s5, ws, "tmp1b").transpose(
        1, 0, 2)).reshape(b * n, -1)
    np.matmul(ws["h4"].reshape(b * n, -1).T, d_u5, out=g["dec_gc1_w"])
    d_s4 = _dense(d_u5, p["dec_gc1_w"].T, ws, "tmp2").reshape(b, -1)
    d_s4 *= _elu_grad(ws["h4"], out=ws["h4"])               # (B, n*h2)
    _grads(g, "dec_head", z, d_s4)

    d_latent = 2.0 * lam * (z - z_p) / z.size
    d_z = d_s4 @ p["dec_head_w"].T + d_latent
    d = -d_latent                          # d_zp, then back through fc3-fc1
    for layer, a in (("fc3", ws["a2"]), ("fc2", ws["a1"]), ("fc1", ws["t"])):
        _grads(g, layer, a, d)
        if layer != "fc1":
            d = (d @ p[layer + "_w"].T) * _elu_grad(a)

    _grads(g, "enc_head", ws["pool"], d_z)
    d_s2 = _elu_grad(ws["h2"], out=ws["h2"])
    d_s2 *= d_z @ p["enc_head_w"].T / n    # the mean pool, broadcast to nodes
    _grads(g, "enc_gc2", ws["ah1"], d_s2)
    d_s1 = _aggregate(adj, _dense(d_s2, p["enc_gc2_w"].T, ws, "tmp1"), ws,
                      "tmp1b")
    d_s1 *= _elu_grad(ws["h1"], out=ws["h1"])
    _grads(g, "enc_gc1", ws["ax"], d_s1)
    return g


def _loss_terms(params: dict, graph: Graph, inputs: np.ndarray,
                targets: np.ndarray, t: np.ndarray, ws: dict | None = None):
    """Forward pass plus the reconstruction and latent-gap mean squares."""
    target = targets.T[:, :, None]
    x_hat, z, z_p, ws = _forward_batch(params, graph, inputs.T[:, :, None],
                                       t[:, None], ws)
    sq = np.subtract(target, x_hat, out=_buf(ws, "sq", x_hat.shape))
    l_rec = float(np.mean(np.square(sq, out=sq)))
    l_param = float(np.mean((z - z_p) ** 2))
    return l_rec, l_param, x_hat, target, ws


def batch_loss_and_grads(params: dict, graph: Graph, inputs: np.ndarray,
                         targets: np.ndarray, t: np.ndarray, lam: float,
                         ws: dict | None = None):
    """Full-batch loss (and components) plus parameter gradients.

    inputs/targets: (B, n) fields; inputs may be corrupted, targets are clean.
    t: (B,) normalized dwell times. Batch-sized arrays, gradients included,
    are buffers of ``ws``, kept for the next call with this batch size.
    """
    l_rec, l_param, x_hat, target, ws = _loss_terms(params, graph, inputs,
                                                    targets, t, ws)
    grads = _backward_batch(params, graph, ws, x_hat, target, lam)
    return l_rec + lam * l_param, l_rec, l_param, grads


def batch_loss(params: dict, graph: Graph, inputs: np.ndarray,
               targets: np.ndarray, t: np.ndarray, lam: float,
               ws: dict | None = None) -> float:
    """Forward-only counterpart of :func:`batch_loss_and_grads`."""
    l_rec, l_param, *_ = _loss_terms(params, graph, inputs, targets, t, ws)
    return l_rec + lam * l_param


def predict_gca(model: GcaModel, graph: Graph, dwell_time: float) -> np.ndarray:
    """Decode the parameter branch's latent vector at a finite dwell time;
    the encoder is not used."""
    if not math.isfinite(dwell_time):
        raise ConfigurationError(f"dwell time must be finite: {dwell_time}")
    t = np.array([[model.input_norm.apply(dwell_time)]])
    *_, z_p = _param_branch(model.params, t)
    return _decode(model.params, graph, z_p)[:, 0, 0]


# Checkpoint I/O ==============================================================

def save_gca(model: GcaModel, mesh: MeshGeometry, path) -> None:
    """Write ``gca.json``, the mesh arrays and ``gca_weights.bin``.

    ``gca_weights.bin`` is an SNPT array of shape (n_params, 1): every
    tensor flattened, in the architecture's parameter order, each written
    from its own buffer as one row block.
    """
    save_archive(path, "gca.json", {
        "model": "gca",
        "seed": model.seed,
        "latent_dim": model.arch.latent_dim,
        "enc_widths": list(model.arch.enc_widths),
        "fc_width": model.arch.fc_width,
        "training_dwell_times": list(model.training_dwell_times),
    }, {**mesh_arrays(mesh), "gca_weights": [
        model.params[name].reshape(-1, 1)
        for name, _ in model.arch.param_shapes()]})


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
        weights = arrays["gca_weights"]
        if weights.shape != (arch.n_params, 1):
            raise DataError(f"gca_weights.bin holds shape {weights.shape}, "
                            f"the architecture implies ({arch.n_params}, 1)")
        model = GcaModel(arch=arch, params=param_views(weights[:, 0],
                                                       arch.param_shapes()),
                         training_dwell_times=manifest["training_dwell_times"],
                         seed=manifest["seed"])
    return model, mesh
