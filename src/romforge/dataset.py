"""Snapshot data model, synthetic distortion generator, and bit-exact binary I/O.

The synthetic generator stands in for high-fidelity process simulations: it
builds a structured cylindrical mesh and evaluates a closed-form distortion
field that is monotone in the deposition step (layer-by-layer buildup) and
decreasing in dwell time (longer cooling, less distortion). Because the field
is closed-form, any test can recompute the exact ground truth.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import (
    ConfigurationError,
    CorruptionError,
    DataError,
    DuplicateParameterError,
    FormatError,
    ShapeError,
    SplitError,
    UnknownParameterError,
    archive_values,
    read_json,
)

SNAP_MAGIC = b"SNPT"
SNAP_VERSION = 1
_SNAP_HEADER = struct.Struct("<4sBII")  # magic, version, n_nodes, n_steps

#: Geometry constants of the synthetic cylinder (mm).
CYLINDER_RADIUS_MM = 5.0
LAYER_THICKNESS_MM = 0.5


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class ParameterPoint:
    """A single process-parameter sample: the dwell time in seconds."""

    dwell_time: float

    def __post_init__(self):
        if not np.isfinite(self.dwell_time) or self.dwell_time <= 0.0:
            raise ConfigurationError(
                f"dwell_time must be finite and > 0, got {self.dwell_time}"
            )


@dataclass(frozen=True)
class MeshGeometry:
    """Node coordinates, per-node deposition layer, and undirected edges.

    Parameters
    ----------
    node_coords : (n_nodes, 3) float array
        Cartesian coordinates in mm.
    layer_index : (n_nodes,) int array
        0-based deposition layer each node belongs to.
    edges : (n_edges, 2) int array
        Undirected node-index pairs, stored with the smaller index first.
    """

    node_coords: np.ndarray
    layer_index: np.ndarray
    edges: np.ndarray

    def __post_init__(self):
        coords = np.asarray(self.node_coords, dtype=np.float64)
        layers = np.asarray(self.layer_index, dtype=np.int64)
        edges = np.asarray(self.edges, dtype=np.int64).reshape(-1, 2)
        if coords.ndim != 2 or coords.shape[1] != 3:
            raise ShapeError(f"node_coords must be (n, 3), got {coords.shape}")
        n = coords.shape[0]
        if layers.shape != (n,):
            raise ShapeError("layer_index length must equal the node count")
        if np.any(layers < 0):
            raise ConfigurationError("layer_index values must be >= 0")
        if edges.size:
            if edges.min() < 0 or edges.max() >= n:
                raise ConfigurationError("edge indices must be in [0, n_nodes)")
            if np.any(edges[:, 0] == edges[:, 1]):
                raise ConfigurationError("self-loop edges are not allowed")
            canon = np.sort(edges, axis=1)
            if len(np.unique(canon, axis=0)) != len(canon):
                raise ConfigurationError("duplicate edges are not allowed")
            edges = canon
        object.__setattr__(self, "node_coords", _frozen(coords))
        object.__setattr__(self, "layer_index", _frozen(layers))
        object.__setattr__(self, "edges", _frozen(edges))

    @property
    def n_nodes(self) -> int:
        return self.node_coords.shape[0]


@dataclass(frozen=True)
class SnapshotMatrix:
    """Distortion history for one parameter: column n is the field after step n."""

    values: np.ndarray  # (n_nodes, n_steps), mm
    parameter: ParameterPoint

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 2:
            raise ShapeError(f"values must be a 2-D array, got ndim={values.ndim}")
        if not np.all(np.isfinite(values)):
            raise DataError("snapshot values must all be finite")
        object.__setattr__(self, "values", _frozen(values))

    @property
    def final_field(self) -> np.ndarray:
        """Distortion field after the last deposition step."""
        return self.values[:, -1]


@dataclass(frozen=True)
class SnapshotTensor:
    """All snapshot matrices of a dataset plus the shared mesh."""

    matrices: tuple[SnapshotMatrix, ...]
    mesh: MeshGeometry

    def __post_init__(self):
        object.__setattr__(self, "matrices", tuple(self.matrices))
        shapes = {m.values.shape for m in self.matrices}
        if len(shapes) > 1:
            raise ShapeError(f"snapshot matrices disagree in shape: {shapes}")
        for m in self.matrices:
            if m.values.shape[0] != self.mesh.n_nodes:
                raise ShapeError(
                    f"matrix has {m.values.shape[0]} rows, mesh has "
                    f"{self.mesh.n_nodes} nodes"
                )
        dts = [m.parameter.dwell_time for m in self.matrices]
        if len(set(dts)) != len(dts):
            raise DuplicateParameterError(f"dwell times are not distinct: {dts}")
        if self.matrices and np.any(
            self.mesh.layer_index >= self.matrices[0].values.shape[1]
        ):
            raise ConfigurationError("layer_index must be < the step count")

    @property
    def n_mu(self) -> int:
        return len(self.matrices)

    @property
    def n_nodes(self) -> int:
        return self.mesh.n_nodes

    @property
    def n_steps(self) -> int:
        return self.matrices[0].values.shape[1] if self.matrices else 0

    @property
    def dwell_times(self) -> list[float]:
        return [m.parameter.dwell_time for m in self.matrices]

    def matrix_for(self, dwell_time: float) -> SnapshotMatrix:
        """Return the snapshot matrix whose dwell time matches exactly."""
        for m in self.matrices:
            if m.parameter.dwell_time == dwell_time:
                return m
        raise UnknownParameterError(f"no snapshot matrix for dwell time {dwell_time}")

    def final_fields(self) -> np.ndarray:
        """Stack the final-step fields into an (n_nodes, n_mu) array."""
        return np.column_stack([m.final_field for m in self.matrices])


# Synthetic generator =========================================================

def synthetic_distortion(z, r, theta, layer, step, dwell_time, height,
                         radius=CYLINDER_RADIUS_MM):
    """Closed-form noise-free distortion (mm) at one point of the cylinder.

    Amplitude decays with dwell time, ``0.08 + 0.12 exp(-dt/30)``; the field
    grows linearly in height and radius with a mild angular ripple, and each
    layer's contribution saturates exponentially once deposited.
    """
    return (_amplitude(dwell_time) * _shape(z, r, theta, height, radius)
            * _growth(layer, step))


def _amplitude(dwell_time):
    return 0.08 + 0.12 * np.exp(-np.asarray(dwell_time) / 30.0)


def _shape(z, r, theta, height, radius):
    return (np.asarray(z) / height) * (np.asarray(r) / radius) \
        * (1.0 + 0.3 * np.cos(theta))


def _growth(layer, step):
    lag = np.asarray(step) - np.asarray(layer)
    return np.where(lag < 0, 0.0, -np.expm1(-(lag + 1.0) / 8.0))


def _cylinder_mesh(n_radial: int, n_theta: int, n_layers: int) -> MeshGeometry:
    """Structured cylindrical mesh: n_layers + 1 node levels of n_radial x n_theta."""
    radii = CYLINDER_RADIUS_MM * np.arange(1, n_radial + 1) / n_radial
    angles = 2.0 * np.pi * np.arange(n_theta) / n_theta
    n_levels = n_layers + 1
    per_level = n_radial * n_theta

    coords = np.empty((n_levels * per_level, 3))
    layers = np.empty(n_levels * per_level, dtype=np.int64)
    for k in range(n_levels):
        zs = LAYER_THICKNESS_MM * k
        base = k * per_level
        for i, r in enumerate(radii):
            rows = base + i * n_theta + np.arange(n_theta)
            coords[rows, 0] = r * np.cos(angles)
            coords[rows, 1] = r * np.sin(angles)
            coords[rows, 2] = zs
        # nodes on level k are created with layer k-1; the base plate is layer 0
        layers[base:base + per_level] = max(k - 1, 0)

    def node(k, i, j):
        return k * per_level + i * n_theta + j

    edges = set()
    for k in range(n_levels):
        for i in range(n_radial):
            for j in range(n_theta):
                a = node(k, i, j)
                ring = node(k, i, (j + 1) % n_theta)
                edges.add((min(a, ring), max(a, ring)))
                if i + 1 < n_radial:
                    edges.add((a, node(k, i + 1, j)))
                if k + 1 < n_levels:
                    edges.add((a, node(k + 1, i, j)))
    edge_arr = np.array(sorted(edges), dtype=np.int64)
    return MeshGeometry(coords, layers, edge_arr)


def generate_synthetic_dataset(n_radial: int, n_theta: int, n_layers: int,
                               dwell_times, noise_sigma: float = 0.0,
                               seed: int = 0) -> SnapshotTensor:
    """Generate a full snapshot tensor from the closed-form distortion field.

    Parameters
    ----------
    n_radial, n_theta : int
        Polar-grid resolution of each node level (``n_radial >= 2``,
        ``n_theta >= 4``).
    n_layers : int
        Number of deposition layers; equals the number of time steps. The
        mesh has ``n_layers + 1`` node levels.
    dwell_times : sequence of float
        Distinct dwell times in seconds, one snapshot matrix each.
    noise_sigma : float
        Standard deviation of additive Gaussian noise (mm).
    seed : int
        Seed for the noise generator; irrelevant when ``noise_sigma`` is 0
        but still fixed so equal seeds give byte-identical datasets.
    """
    if n_radial < 2 or n_theta < 4 or n_layers < 2:
        raise ConfigurationError(
            "need n_radial >= 2, n_theta >= 4, n_layers >= 2, got "
            f"({n_radial}, {n_theta}, {n_layers})"
        )
    dwell_times = [float(dt) for dt in dwell_times]
    if not dwell_times:
        raise ConfigurationError("dwell_times must be non-empty")
    if len(set(dwell_times)) != len(dwell_times):
        raise DuplicateParameterError(f"dwell times are not distinct: {dwell_times}")
    if noise_sigma < 0.0:
        raise ConfigurationError(f"noise_sigma must be >= 0, got {noise_sigma}")

    mesh = _cylinder_mesh(n_radial, n_theta, n_layers)
    height = LAYER_THICKNESS_MM * n_layers
    x, y, z = mesh.node_coords.T
    r = np.hypot(x, y)
    theta = np.arctan2(y, x)

    rng = np.random.default_rng(seed)
    # only the amplitude depends on the dwell time; the (nodes, steps) growth
    # factor is computed once
    shape = _shape(z[:, None], r[:, None], theta[:, None], height,
                   CYLINDER_RADIUS_MM)
    growth = _growth(mesh.layer_index[:, None], np.arange(n_layers)[None, :])
    matrices = []
    for dt in dwell_times:
        values = _amplitude(dt) * shape * growth
        if noise_sigma > 0.0:
            values = values + rng.normal(0.0, noise_sigma, values.shape)
        matrices.append(SnapshotMatrix(values, ParameterPoint(dt)))
    return SnapshotTensor(tuple(matrices), mesh)


# Binary I/O ==================================================================

def write_snapshot_bin(values: np.ndarray, path) -> None:
    """Write one snapshot matrix as an SNPT binary file.

    Layout: magic ``SNPT``, u8 version, u32 LE node count, u32 LE step count,
    then the float64 LE values in node-major (row-major) order.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.ndim == 1:
        values = values[:, None]
    header = _SNAP_HEADER.pack(SNAP_MAGIC, SNAP_VERSION, *values.shape)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(values).astype("<f8").tobytes())


def read_snapshot_bin(path) -> np.ndarray:
    """Read an SNPT binary file back into an (n_nodes, n_steps) array."""
    raw = Path(path).read_bytes()
    if len(raw) < 4 or raw[:4] != SNAP_MAGIC:
        raise FormatError(f"{path}: bad magic, not an SNPT file")
    if len(raw) < _SNAP_HEADER.size:
        raise CorruptionError(f"{path}: truncated header")
    _, version, n_nodes, n_steps = _SNAP_HEADER.unpack_from(raw)
    if version != SNAP_VERSION:
        raise FormatError(f"{path}: unsupported SNPT version {version}")
    expected = _SNAP_HEADER.size + 8 * n_nodes * n_steps
    if len(raw) != expected:
        raise CorruptionError(
            f"{path}: payload holds {len(raw) - _SNAP_HEADER.size} bytes, "
            f"header declares {8 * n_nodes * n_steps}"
        )
    values = np.frombuffer(raw, dtype="<f8", offset=_SNAP_HEADER.size)
    values = values.reshape(n_nodes, n_steps)
    if not np.all(np.isfinite(values)):
        raise DataError(f"{path}: payload contains NaN or Inf")
    return values.astype(np.float64)


def _mesh_to_dict(mesh: MeshGeometry) -> dict:
    """JSON-ready form of a mesh, shared by dataset and checkpoint manifests."""
    return {
        "node_coords": mesh.node_coords.tolist(),
        "layer_index": mesh.layer_index.tolist(),
        "edges": mesh.edges.tolist(),
    }


def _mesh_from_dict(raw: dict) -> MeshGeometry:
    """Inverse of :func:`_mesh_to_dict`."""
    return MeshGeometry(
        np.array(raw["node_coords"], dtype=np.float64),
        np.array(raw["layer_index"], dtype=np.int64),
        np.array(raw["edges"], dtype=np.int64).reshape(-1, 2),
    )


def save_snapshot_tensor(tensor: SnapshotTensor, path) -> None:
    """Write ``meta.json`` plus one ``snap_<i>.bin`` per parameter."""
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    meta = {
        "version": SNAP_VERSION,
        "n_mu": tensor.n_mu,
        "n_h": tensor.n_nodes,
        "n_t": tensor.n_steps,
        "dwell_times": tensor.dwell_times,
        "mesh": _mesh_to_dict(tensor.mesh),
    }
    (path / "meta.json").write_bytes(
        json.dumps(meta, sort_keys=True, separators=(",", ":")).encode()
    )
    for i, m in enumerate(tensor.matrices):
        write_snapshot_bin(m.values, path / f"snap_{i}.bin")


def load_snapshot_tensor(path) -> SnapshotTensor:
    """Load a tensor saved by :func:`save_snapshot_tensor`, validating headers.

    A missing file, malformed JSON or an unknown version is a
    :class:`FormatError`; a missing key or an unusable value a
    :class:`CorruptionError`.
    """
    path = Path(path)
    with archive_values(path):
        meta = read_json(path / "meta.json")
        if meta.get("version") != SNAP_VERSION:
            raise FormatError(
                f"unsupported meta.json version {meta.get('version')}")
        mesh = _mesh_from_dict(meta["mesh"])
        matrices = []
        for i, dt in enumerate(meta["dwell_times"]):
            values = read_snapshot_bin(path / f"snap_{i}.bin")
            if values.shape != (meta["n_h"], meta["n_t"]):
                raise CorruptionError(
                    f"snap_{i}.bin holds shape {values.shape}, meta.json "
                    f"declares ({meta['n_h']}, {meta['n_t']})"
                )
            matrices.append(SnapshotMatrix(values, ParameterPoint(dt)))
        if len(matrices) != meta["n_mu"]:
            raise CorruptionError(
                "meta.json n_mu disagrees with dwell_times length")
        return SnapshotTensor(tuple(matrices), mesh)


def split_dataset(tensor: SnapshotTensor, train, test):
    """Split a tensor into train/test tensors by exact dwell-time membership.

    Both outputs share the input's mesh and matrix objects; nothing is copied.
    """
    train = [float(dt) for dt in train]
    test = [float(dt) for dt in test]
    overlap = set(train) & set(test)
    if overlap:
        raise SplitError(f"train and test dwell times overlap: {sorted(overlap)}")
    train_t = SnapshotTensor(tuple(tensor.matrix_for(dt) for dt in train), tensor.mesh)
    test_t = SnapshotTensor(tuple(tensor.matrix_for(dt) for dt in test), tensor.mesh)
    return train_t, test_t
