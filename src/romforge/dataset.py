"""Snapshot data model, synthetic distortion generator, and bit-exact binary I/O.

The synthetic generator stands in for high-fidelity process simulations: it
builds a structured cylindrical mesh and evaluates a closed-form distortion
field that is monotone in the deposition step (layer-by-layer buildup) and
decreasing in dwell time (longer cooling, less distortion). Because the field
is closed-form, any test can recompute the exact ground truth.
"""

from __future__ import annotations

import json
import math
import os
import re
import struct
import zlib
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, DataError

SNAP_MAGIC = b"SNPT"
SNAP_VERSION = 1
_SNAP_HEADER = struct.Struct("<4sBII")  # magic, version, rows, columns

#: Geometry constants of the synthetic cylinder (mm).
CYLINDER_RADIUS_MM = 5.0
LAYER_THICKNESS_MM = 0.5
#: Nodes x steps x dwell times one synthetic dataset may hold.
MAX_DATASET_VALUES = 10**9


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
class InputNormalization:
    """A surrogate's training dwell times, whose range maps onto [0, 1].

    Both surrogates take the dwell time through this one rule: ``offset`` is
    the smallest training dwell time and ``scale`` the range, or 1.0 for a
    single dwell time. A dwell time extrapolates when it lies outside the
    training range; a NaN counts as outside.
    """

    dwell_times: tuple[float, ...]

    def __post_init__(self):
        dts = tuple(float(dt) for dt in self.dwell_times)
        if not dts or not all(math.isfinite(dt) for dt in dts):
            raise ConfigurationError("training dwell times must be finite "
                                     f"and non-empty, got {dts}")
        object.__setattr__(self, "dwell_times", dts)

    @cached_property
    def offset(self) -> float:
        return min(self.dwell_times)

    @cached_property
    def high(self) -> float:
        return max(self.dwell_times)

    @cached_property
    def scale(self) -> float:
        return (self.high - self.offset) or 1.0

    def apply(self, dwell_time):
        """Normalize a dwell time, or an array of them."""
        return (dwell_time - self.offset) / self.scale

    @property
    def training_inputs(self) -> np.ndarray:
        """The training dwell times, normalized: the surrogates' inputs."""
        return self.apply(np.array(self.dwell_times))

    def extrapolates(self, dwell_times) -> list[bool]:
        """Flag each raw dwell time outside [min, max] of the training ones."""
        lo, hi = self.offset, self.high
        return [not lo <= dt <= hi for dt in dwell_times]


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
            raise ConfigurationError(f"node_coords must be (n, 3), got {coords.shape}")
        if not np.all(np.isfinite(coords)):
            raise DataError("node_coords must be finite")
        n = coords.shape[0]
        if layers.shape != (n,):
            raise ConfigurationError("layer_index length must equal the node count")
        if np.any(layers < 0):
            raise ConfigurationError("layer_index values must be >= 0")
        if edges.size:
            if edges.min() < 0 or edges.max() >= n:
                raise ConfigurationError("edge indices must be in [0, n_nodes)")
            if np.any(edges[:, 0] == edges[:, 1]):
                raise ConfigurationError("self-loop edges are not allowed")
            canon = np.sort(edges, axis=1)
            # one integer per pair; a sort puts duplicates side by side
            codes = np.sort(canon[:, 0] * n + canon[:, 1])
            if np.any(codes[1:] == codes[:-1]):
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
            raise ConfigurationError(f"values must be a 2-D array, got ndim={values.ndim}")
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
            raise ConfigurationError(f"snapshot matrices disagree in shape: {shapes}")
        for m in self.matrices:
            if m.values.shape[0] != self.mesh.n_nodes:
                raise ConfigurationError(
                    f"matrix has {m.values.shape[0]} rows, mesh has "
                    f"{self.mesh.n_nodes} nodes"
                )
        dts = [m.parameter.dwell_time for m in self.matrices]
        if len(set(dts)) != len(dts):
            raise ConfigurationError(f"dwell times are not distinct: {dts}")
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
        raise ConfigurationError(f"no snapshot matrix for dwell time {dwell_time}")

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

    # node (k, i, j) is number k * per_level + i * n_theta + j
    node = np.arange(n_levels * per_level, dtype=np.int64).reshape(
        n_levels, n_radial, n_theta)
    k, i, j = np.indices(node.shape).reshape(3, -1)
    coords = np.column_stack([radii[i] * np.cos(angles)[j],
                              radii[i] * np.sin(angles)[j],
                              LAYER_THICKNESS_MM * k])
    # nodes on level k are created with layer k-1; the base plate is layer 0
    layers = np.maximum(k - 1, 0)

    # each node links to its ring neighbour, its outward radial neighbour
    # and the node above it
    ring = np.roll(node, -1, axis=2)
    lo = np.concatenate([np.minimum(node, ring).ravel(),
                         node[:, :-1].ravel(), node[:-1].ravel()])
    hi = np.concatenate([np.maximum(node, ring).ravel(),
                         node[:, 1:].ravel(), node[1:].ravel()])
    # sorting one integer per pair sorts the pairs as tuples; with
    # n_theta >= 3 no pair occurs twice
    n = node.size
    codes = np.sort(lo * n + hi)
    return MeshGeometry(coords, layers, np.column_stack([codes // n,
                                                         codes % n]))


def generate_synthetic_dataset(n_radial: int, n_theta: int, n_layers: int,
                               dwell_times, noise_sigma: float = 0.0,
                               seed: int = 0) -> SnapshotTensor:
    """Generate a full snapshot tensor from the closed-form distortion field.

    Parameters
    ----------
    n_radial, n_theta : int
        Polar-grid resolution of each node level (``n_radial >= 2``,
        ``n_theta >= 4``). The dataset may hold at most
        ``MAX_DATASET_VALUES`` nodes x steps x dwell times.
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
        raise ConfigurationError(f"dwell times are not distinct: {dwell_times}")
    if not (math.isfinite(noise_sigma) and noise_sigma >= 0.0):
        raise ConfigurationError(
            f"noise_sigma must be finite and >= 0, got {noise_sigma}")
    if seed < 0:
        raise ConfigurationError(f"seed must be >= 0, got {seed}")
    size = n_radial * n_theta * (n_layers + 1) * n_layers * len(dwell_times)
    if size > MAX_DATASET_VALUES:
        raise ConfigurationError(
            f"n_radial {n_radial} x n_theta {n_theta} x {n_layers + 1} node "
            f"levels x n_layers {n_layers} steps x {len(dwell_times)} dwell "
            f"times is {size} values, over MAX_DATASET_VALUES "
            f"{MAX_DATASET_VALUES}")

    mesh = _cylinder_mesh(n_radial, n_theta, n_layers)
    height = LAYER_THICKNESS_MM * n_layers
    x, y, z = mesh.node_coords.T
    r = np.hypot(x, y)
    theta = np.arctan2(y, x)

    # only the amplitude depends on the dwell time; the (nodes, steps) growth
    # factor is computed once, for each (layer, step) pair, and each node
    # takes its layer's row
    shape = _shape(z[:, None], r[:, None], theta[:, None], height,
                   CYLINDER_RADIUS_MM)
    steps = np.arange(n_layers)
    growth = _growth(steps[:, None], steps[None, :])[mesh.layer_index]
    rng = None  # numpy.random loads with the first draw
    matrices = []
    for dt in dwell_times:
        values = _amplitude(dt) * shape * growth
        if noise_sigma > 0.0:
            if rng is None:
                rng = np.random.default_rng(seed)
            values = values + rng.normal(0.0, noise_sigma, values.shape)
        matrices.append(SnapshotMatrix(values, ParameterPoint(dt)))
    return SnapshotTensor(tuple(matrices), mesh)


# Binary I/O ==================================================================

ARCHIVE_VERSION = 5  # of every manifest: dataset, POD-GPR and GCA
#: ``mesh_nodes`` (n, 4) holds x, y, z and layer; ``mesh_edges`` is (e, 2)
MESH_ARRAYS = ("mesh_nodes", "mesh_edges")


def _snpt_array(values) -> np.ndarray:
    """The 2-D contiguous little-endian float64 array an SNPT file holds."""
    values = np.ascontiguousarray(values, dtype="<f8")
    return values[:, None] if values.ndim == 1 else values


def _snpt_blocks(values) -> tuple[list[np.ndarray], tuple[int, int]]:
    """The row blocks of an SNPT array, top to bottom, and its shape:
    ``values`` is one array, or a list of 2-D blocks of one column count
    that the file stacks without a stacked copy."""
    blocks = [_snpt_array(b) for b in
              (values if isinstance(values, list) else [values])]
    (columns,) = {b.shape[1] for b in blocks}
    return blocks, (sum(b.shape[0] for b in blocks), columns)


def _record(values) -> dict:
    """A manifest's record of an array: the shape and payload CRC-32 of its
    SNPT file, taken over each float64 block's own buffer, without a copy."""
    blocks, shape = _snpt_blocks(values)
    crc = 0
    for block in blocks:
        crc = zlib.crc32(block, crc)
    return {"shape": list(shape), "crc32": crc}


def write_snapshot_bin(values, path) -> None:
    """Write a 2-D array (a 1-D one as one column), or a list of 2-D row
    blocks, as an SNPT binary file.

    Layout: magic ``SNPT``, u8 version, u32 LE row count, u32 LE column
    count, then the float64 LE values in row-major order. Every array an
    archive stores uses this layout. A contiguous little-endian float64
    array is written straight from its buffer, without a copy.
    """
    blocks, shape = _snpt_blocks(values)
    with open(path, "wb") as fh:
        fh.write(_SNAP_HEADER.pack(SNAP_MAGIC, SNAP_VERSION, *shape))
        for block in blocks:
            fh.write(block.data)


def read_snapshot_bin(path) -> np.ndarray:
    """Read an SNPT binary file back into a 2-D float64 array.

    A bad magic or version, a size that disagrees with the header, or a NaN
    or infinite value is a :class:`DataError`.
    """
    with open(path, "rb") as fh:
        head = fh.read(_SNAP_HEADER.size)
        if len(head) < 4 or head[:4] != SNAP_MAGIC:
            raise DataError(f"{path}: bad magic, not an SNPT file")
        if len(head) < _SNAP_HEADER.size:
            raise DataError(f"{path}: truncated header")
        _, version, n_nodes, n_steps = _SNAP_HEADER.unpack(head)
        if version != SNAP_VERSION:
            raise DataError(f"{path}: unsupported SNPT version {version}")
        declared = 8 * n_nodes * n_steps
        size = os.fstat(fh.fileno()).st_size - _SNAP_HEADER.size
        if size == declared:  # allocate only what the file holds
            values = np.empty((n_nodes, n_steps), dtype="<f8")
            size = fh.readinto(values) + len(fh.read(1))
        if size != declared:
            raise DataError(f"{path}: payload holds {size} bytes, header "
                            f"declares {declared}")
    # min and max propagate NaN and meet any infinity, with no temporary
    if values.size and not np.isfinite([values.min(), values.max()]).all():
        raise DataError(f"{path}: payload contains NaN or Inf")
    return values.astype(np.float64, copy=False)


def save_archive(path, manifest_name: str, doc: dict, arrays: dict) -> None:
    """Write each array as ``<name>.bin``, then the JSON manifest: ``doc``
    plus ``version`` and an ``arrays`` table of each array's shape and the
    CRC-32 of its little-endian payload, with sorted keys and no spaces. An
    array may be given as a list of row blocks (:func:`write_snapshot_bin`).

    Each file goes to a sibling ``.tmp`` file and is moved into place, the
    manifest last, so a save cut short leaves the old manifest, which binds
    only the old arrays. Once the new manifest is in place, the arrays that
    the old one alone bound are removed; other files are left alone.
    """
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    stale = _bound_arrays(path / manifest_name) - set(arrays)
    table = {}
    for name, values in arrays.items():
        table[name] = _record(values)
        write_snapshot_bin(values, path / f"{name}.bin.tmp")
        os.replace(path / f"{name}.bin.tmp", path / f"{name}.bin")
    doc = {**doc, "version": ARCHIVE_VERSION, "arrays": table}
    (path / f"{manifest_name}.tmp").write_bytes(
        json.dumps(doc, sort_keys=True, separators=(",", ":")).encode())
    os.replace(path / f"{manifest_name}.tmp", path / manifest_name)
    for name in stale:
        (path / f"{name}.bin").unlink(missing_ok=True)


def _bound_arrays(manifest: Path) -> set[str]:
    """The array names an existing manifest binds, or none when it cannot be
    read. A name that is not a plain stem could point outside the archive
    directory, so it is skipped."""
    try:
        table = json.loads(manifest.read_bytes())["arrays"]
    except (OSError, ValueError, TypeError, KeyError, RecursionError):
        return set()
    if not isinstance(table, dict):
        return set()
    return {name for name in table if re.fullmatch(r"[A-Za-z0-9_]+", name)}


@contextmanager
def load_archive(path, manifest_name: str, names):
    """Yield ``(doc, arrays)`` of an archive written by :func:`save_archive`
    to a ``with`` body that builds the loaded objects from them.

    The manifest must bind exactly ``names``: a list, or a function of the
    manifest that returns one. Each array passes :func:`read_snapshot_bin`'s
    checks, then must match the shape and CRC-32 the manifest records. Any
    failure, the body's included, is a :class:`DataError` naming ``path``.
    That covers a missing key, a wrong JSON type or an unusable value (a
    KeyError, TypeError, AttributeError, IndexError or ValueError, romforge's
    own validation errors included) and an ArithmeticError: hyperparameters
    factorized when they were saved, and an edited value can overflow.
    """
    path = Path(path)
    manifest = path / manifest_name
    checked = False  # the codec's own DataErrors name their file
    try:
        if not manifest.is_file():
            raise DataError(f"{manifest} is missing")
        try:
            doc = json.loads(manifest.read_bytes())
        # JSONDecodeError, undecodable bytes and nesting too deep to parse
        except (ValueError, RecursionError) as exc:
            raise DataError(f"{manifest} is not valid JSON: {exc}") from None
        if (version := doc.get("version")) != ARCHIVE_VERSION:
            raise DataError(f"{manifest}: unsupported version {version}")
        table = doc["arrays"]
        expected = sorted(names(doc) if callable(names) else names)
        if sorted(table) != expected:
            raise DataError(f"{manifest}: malformed archive: binds arrays "
                            f"{sorted(table)}, expected {expected}")
        arrays = {name: read_snapshot_bin(path / f"{name}.bin")
                  for name in expected}
        for name, values in arrays.items():
            found = _record(values)
            if found != table[name]:
                raise DataError(f"{path / name}.bin: malformed archive: holds "
                                f"{found}, {manifest_name} records {table[name]}")
        checked = True
        yield doc, arrays
    except (KeyError, TypeError, AttributeError, IndexError, ValueError,
            ArithmeticError) as exc:
        if isinstance(exc, DataError) and not checked:
            raise
        raise DataError(
            f"{path}: malformed archive ({type(exc).__name__}: {exc})"
        ) from None


def mesh_arrays(mesh: MeshGeometry) -> dict:
    """The :data:`MESH_ARRAYS` that store ``mesh``."""
    return {"mesh_nodes": np.column_stack([mesh.node_coords,
                                           mesh.layer_index]),
            "mesh_edges": mesh.edges}


def mesh_from_arrays(arrays: dict) -> MeshGeometry:
    """Inverse of :func:`mesh_arrays`; a layer or edge index that is not an
    integer below 2**53 is a :class:`DataError`."""
    nodes, edges = arrays["mesh_nodes"], arrays["mesh_edges"]
    if nodes.shape[1] != 4 or edges.shape[1] != 2:
        raise DataError(f"mesh arrays of shapes {nodes.shape} and "
                        f"{edges.shape}, not (n, 4) and (e, 2)")
    indices = nodes[:, 3], edges
    if not all(np.all((np.abs(v) < 2.0**53) & (v == np.trunc(v)))
               for v in indices):
        raise DataError("a mesh layer or edge index is not an integer")
    return MeshGeometry(nodes[:, :3], *(v.astype(np.int64) for v in indices))


def save_snapshot_tensor(tensor: SnapshotTensor, path) -> None:
    """Write ``meta.json``, the mesh arrays and one ``snap_<i>.bin`` of
    shape (nodes, steps) per dwell time, in ``dwell_times`` order."""
    save_archive(path, "meta.json", {"dwell_times": tensor.dwell_times}, {
        **mesh_arrays(tensor.mesh),
        **{f"snap_{i}": m.values for i, m in enumerate(tensor.matrices)}})


def load_snapshot_tensor(path) -> SnapshotTensor:
    """Load a tensor saved by :func:`save_snapshot_tensor`. Any unusable
    file or value, including snapshot files that disagree with each other
    or with the mesh, is a :class:`DataError`."""
    def names(meta):
        return [*MESH_ARRAYS,
                *(f"snap_{i}" for i in range(len(meta["dwell_times"])))]

    with load_archive(path, "meta.json", names) as (meta, arrays):
        matrices = tuple(
            SnapshotMatrix(arrays[f"snap_{i}"], ParameterPoint(dt))
            for i, dt in enumerate(meta["dwell_times"]))
        return SnapshotTensor(matrices, mesh_from_arrays(arrays))


def split_dataset(tensor: SnapshotTensor, train, test):
    """Split a tensor into train/test tensors by exact dwell-time membership.

    Both outputs share the input's mesh and matrix objects; nothing is copied.
    """
    train = [float(dt) for dt in train]
    test = [float(dt) for dt in test]
    overlap = set(train) & set(test)
    if overlap:
        raise ConfigurationError(f"train and test dwell times overlap: {sorted(overlap)}")
    train_t = SnapshotTensor(tuple(tensor.matrix_for(dt) for dt in train), tensor.mesh)
    test_t = SnapshotTensor(tuple(tensor.matrix_for(dt) for dt in test), tensor.mesh)
    return train_t, test_t
