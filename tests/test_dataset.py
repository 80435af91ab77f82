"""Data model, synthetic generator, SNPT binary format, and file writes."""

import ast
import json
import math
import re
import struct
import zlib
from pathlib import Path

import numpy as np
import pytest

import romforge
from romforge.dataset import (
    ARCHIVE_VERSION,
    CYLINDER_RADIUS_MM,
    LAYER_THICKNESS_MM,
    InputNormalization,
    MeshGeometry,
    ParameterPoint,
    SnapshotMatrix,
    SnapshotTensor,
    _cylinder_mesh,
    generate_synthetic_dataset,
    load_snapshot_tensor,
    read_snapshot_bin,
    save_snapshot_tensor,
    split_dataset,
    synthetic_distortion,
    write_file,
    write_snapshot_bin,
)
from romforge.errors import ConfigurationError, DataError


def oracle_field(z, r, theta, layer, step, dt, height, radius=5.0):
    """Straight-line scalar re-evaluation of the distortion formula."""
    if layer > step:
        return 0.0
    amp = 0.08 + 0.12 * math.exp(-dt / 30.0)
    shape = (z / height) * (r / radius) * (1.0 + 0.3 * math.cos(theta))
    growth = 1.0 - math.exp(-(step - layer + 1.0) / 8.0)
    return amp * shape * growth


def tiny_mesh(n_nodes=2, n_steps=2):
    coords = np.column_stack([np.arange(n_nodes, dtype=float),
                              np.zeros(n_nodes), np.zeros(n_nodes)])
    edges = np.column_stack([np.arange(n_nodes - 1),
                             np.arange(1, n_nodes)])
    return MeshGeometry(coords, np.zeros(n_nodes, dtype=np.int64), edges)


def zeros_tensor(n_nodes=2, n_steps=2):
    mat = SnapshotMatrix(np.zeros((n_nodes, n_steps)), ParameterPoint(20.0))
    return SnapshotTensor((mat,), tiny_mesh(n_nodes, n_steps))


# ParameterPoint, normalization and mesh validation ---------------------------

def test_parameter_point_requires_positive_dwell():
    assert ParameterPoint(20.0).dwell_time == 20.0
    for bad in (0.0, -5.0, math.nan, math.inf):
        with pytest.raises(ConfigurationError):
            ParameterPoint(bad)


def test_input_normalization_range_and_extrapolation():
    norm = InputNormalization([80, 20.0, 50.0])
    assert (norm.offset, norm.scale) == (20.0, 60.0)
    np.testing.assert_array_equal(norm.training_inputs, [1.0, 0.0, 0.5])
    assert norm.extrapolates([20.0, 80.0, 19.9, 80.1, math.nan]) == [
        False, False, True, True, True]
    # one dwell time: the scale only normalizes; every other dwell time is
    # outside the one-point range
    single = InputNormalization([40.0])
    assert (single.offset, single.scale) == (40.0, 1.0)
    assert single.extrapolates([40.0, 40.5, 39.5]) == [False, True, True]
    for bad in ([], [20.0, math.nan], [math.inf]):
        with pytest.raises(ConfigurationError):
            InputNormalization(bad)


def test_mesh_rejects_self_loops_duplicates_and_bad_indices():
    coords = np.zeros((3, 3))
    layers = np.zeros(3, dtype=np.int64)
    with pytest.raises(ConfigurationError):
        MeshGeometry(coords, layers, [[0, 0]])
    with pytest.raises(ConfigurationError):
        MeshGeometry(coords, layers, [[0, 1], [1, 0]])
    with pytest.raises(ConfigurationError):
        MeshGeometry(coords, layers, [[0, 1], [1, 2], [1, 0]])
    with pytest.raises(ConfigurationError):
        MeshGeometry(coords, layers, [[0, 3]])
    with pytest.raises(ConfigurationError):
        MeshGeometry(coords, np.array([0, -1, 0]), [[0, 1]])
    for bad in (np.nan, np.inf, -np.inf):
        coords[1, 2] = bad
        with pytest.raises(DataError, match="finite"):
            MeshGeometry(coords, layers, [[0, 1]])


def reference_cylinder_edges(n_radial, n_theta, n_layers):
    """The cylinder's edge list built node by node: every node links to its
    ring neighbour, its outward radial neighbour and the node above it."""
    per_level = n_radial * n_theta

    def node(k, i, j):
        return k * per_level + i * n_theta + j

    edges = set()
    for k in range(n_layers + 1):
        for i in range(n_radial):
            for j in range(n_theta):
                a = node(k, i, j)
                ring = node(k, i, (j + 1) % n_theta)
                edges.add((min(a, ring), max(a, ring)))
                if i + 1 < n_radial:
                    edges.add((a, node(k, i + 1, j)))
                if k < n_layers:
                    edges.add((a, node(k + 1, i, j)))
    return np.array(sorted(edges), dtype=np.int64)


@pytest.mark.parametrize("n_radial, n_theta, n_layers", [
    (2, 4, 2), (2, 3, 3), (3, 5, 4), (1, 6, 2), (5, 24, 8),
])
def test_cylinder_edges_match_node_by_node_reference(n_radial, n_theta,
                                                     n_layers):
    mesh = _cylinder_mesh(n_radial, n_theta, n_layers)
    assert mesh.n_nodes == n_radial * n_theta * (n_layers + 1)
    np.testing.assert_array_equal(
        mesh.edges, reference_cylinder_edges(n_radial, n_theta, n_layers))


def test_snapshot_matrix_rejects_non_finite():
    bad = np.zeros((2, 2))
    bad[0, 0] = np.nan
    with pytest.raises(DataError):
        SnapshotMatrix(bad, ParameterPoint(20.0))


def test_final_field_is_a_cached_contiguous_copy():
    values = np.arange(12.0).reshape(4, 3)
    matrix = SnapshotMatrix(values, ParameterPoint(20.0))
    field = matrix.final_field
    assert np.array_equal(field, matrix.values[:, -1])
    assert field.flags.c_contiguous and not field.flags.writeable
    assert matrix.final_field is field  # taken once, on first use
    with pytest.raises(ValueError):
        field[0] = 1.0


def test_snapshot_tensor_rejects_duplicate_parameters_and_shape_drift():
    mesh = tiny_mesh()
    a = SnapshotMatrix(np.zeros((2, 2)), ParameterPoint(20.0))
    b = SnapshotMatrix(np.zeros((2, 2)), ParameterPoint(20.0))
    with pytest.raises(ConfigurationError, match="not distinct"):
        SnapshotTensor((a, b), mesh)
    c = SnapshotMatrix(np.zeros((2, 3)), ParameterPoint(25.0))
    with pytest.raises(ConfigurationError, match="disagree in shape"):
        SnapshotTensor((a, c), mesh)


# Synthetic oracle ------------------------------------------------------------

def test_synthetic_long_dwell_limit_at_top_outer_node():
    # amplitude tends to 0.08; top outer node at theta=0 with 34 steps
    height = 34 * LAYER_THICKNESS_MM
    value = synthetic_distortion(
        z=height, r=CYLINDER_RADIUS_MM, theta=0.0, layer=0, step=33,
        dwell_time=1e9, height=height,
    )
    expected = 0.08 * 1.0 * 1.0 * 1.3 * (1.0 - math.exp(-34.0 / 8.0))
    assert value == pytest.approx(expected, rel=1e-12)


def test_synthetic_is_zero_before_node_layer_is_deposited():
    assert synthetic_distortion(1.0, 2.0, 0.3, layer=5, step=4,
                                dwell_time=20.0, height=4.0) == 0.0


def test_full_tensor_matches_independent_reimplementation():
    dts = [20.0 + 5.0 * i for i in range(13)]
    tensor = generate_synthetic_dataset(2, 4, 3, dts, noise_sigma=0.0)
    height = 3 * LAYER_THICKNESS_MM
    x, y, z = tensor.mesh.node_coords.T
    for mat in tensor.matrices:
        dt = mat.parameter.dwell_time
        for p in range(tensor.n_nodes):
            for n in range(tensor.n_steps):
                want = oracle_field(
                    z[p], math.hypot(x[p], y[p]), math.atan2(y[p], x[p]),
                    int(tensor.mesh.layer_index[p]), n, dt, height,
                )
                assert mat.values[p, n] == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("noise_sigma", [0.0, 0.01])
def test_tensor_is_the_closed_form_on_the_full_grid(noise_sigma):
    # the growth factor is evaluated once per (layer, step) pair; every
    # value is still the closed form at its (node, step), bit for bit, plus
    # the seed's noise draws in dwell-time order
    dts = [20.0, 45.0, 70.0]
    tensor = generate_synthetic_dataset(3, 5, 4, dts, noise_sigma=noise_sigma,
                                        seed=2)
    x, y, z = tensor.mesh.node_coords.T
    grid = (z[:, None], np.hypot(x, y)[:, None], np.arctan2(y, x)[:, None],
            tensor.mesh.layer_index[:, None], np.arange(4)[None, :])
    rng = np.random.default_rng(2)
    for mat, dt in zip(tensor.matrices, dts):
        want = synthetic_distortion(*grid, dt, 4 * LAYER_THICKNESS_MM)
        if noise_sigma:
            want = want + rng.normal(0.0, noise_sigma, want.shape)
        assert mat.values.tobytes() == want.tobytes()


def test_synthetic_monotone_in_step_and_decreasing_in_dwell():
    tensor = generate_synthetic_dataset(3, 6, 4, [20.0, 50.0, 80.0])
    for mat in tensor.matrices:
        assert np.all(np.diff(mat.values, axis=1) >= -1e-15)
    # strictly decreasing in dt wherever the field is nonzero
    u20 = tensor.matrix_for(20.0).values
    u50 = tensor.matrix_for(50.0).values
    u80 = tensor.matrix_for(80.0).values
    active = u20 > 0.0
    assert np.all(u20[active] > u50[active])
    assert np.all(u50[active] > u80[active])


def test_generator_validates_sizes_noise_and_duplicates():
    with pytest.raises(ConfigurationError):
        generate_synthetic_dataset(1, 4, 2, [20.0])
    with pytest.raises(ConfigurationError):
        generate_synthetic_dataset(2, 3, 2, [20.0])
    with pytest.raises(ConfigurationError):
        generate_synthetic_dataset(2, 4, 1, [20.0])
    with pytest.raises(ConfigurationError):
        generate_synthetic_dataset(2, 4, 2, [])
    with pytest.raises(ConfigurationError):
        generate_synthetic_dataset(2, 4, 2, [20.0], noise_sigma=-1.0)
    with pytest.raises(ConfigurationError, match="not distinct"):
        generate_synthetic_dataset(2, 4, 2, [20.0, 20.0])


@pytest.mark.parametrize("sigma", [math.nan, math.inf])
def test_generator_rejects_non_finite_noise(sigma):
    # NaN fails every comparison, so a sign check alone lets it through
    with pytest.raises(ConfigurationError, match="noise_sigma must be finite"):
        generate_synthetic_dataset(2, 4, 2, [20.0], noise_sigma=sigma)


def test_generator_mesh_dimensions_and_layers():
    tensor = generate_synthetic_dataset(3, 8, 5, [20.0])
    assert tensor.n_nodes == 6 * 3 * 8          # n_layers+1 levels
    assert tensor.n_steps == 5
    assert tensor.mesh.layer_index.min() == 0
    assert tensor.mesh.layer_index.max() == 4
    radii = np.hypot(*tensor.mesh.node_coords[:, :2].T)
    assert radii.max() == pytest.approx(CYLINDER_RADIUS_MM)
    assert tensor.mesh.node_coords[:, 2].max() == pytest.approx(5 * 0.5)


def test_noise_is_seed_deterministic():
    a = generate_synthetic_dataset(2, 4, 2, [20.0, 40.0], noise_sigma=0.01, seed=3)
    b = generate_synthetic_dataset(2, 4, 2, [20.0, 40.0], noise_sigma=0.01, seed=3)
    c = generate_synthetic_dataset(2, 4, 2, [20.0, 40.0], noise_sigma=0.01, seed=4)
    for ma, mb in zip(a.matrices, b.matrices):
        assert np.array_equal(ma.values, mb.values)
    assert not np.array_equal(a.matrices[0].values, c.matrices[0].values)


# SNPT binary format ----------------------------------------------------------

def test_snap_file_layout_for_zero_tensor(tmp_path):
    save_snapshot_tensor(zeros_tensor(), tmp_path)
    raw = (tmp_path / "snap_0.bin").read_bytes()
    assert len(raw) == 4 + 1 + 4 + 4 + 32
    assert raw[:4] == bytes([0x53, 0x4E, 0x50, 0x54])
    assert raw[4] == 1
    assert struct.unpack("<II", raw[5:13]) == (2, 2)
    assert raw[13:] == b"\x00" * 32


def test_round_trip_is_bit_exact(tmp_path):
    tensor = generate_synthetic_dataset(2, 5, 3, [20.0, 45.0, 70.0],
                                        noise_sigma=0.005, seed=11)
    save_snapshot_tensor(tensor, tmp_path)
    loaded = load_snapshot_tensor(tmp_path)
    assert loaded.dwell_times == tensor.dwell_times
    for ma, mb in zip(tensor.matrices, loaded.matrices):
        assert np.array_equal(ma.values, mb.values)
    assert np.array_equal(loaded.mesh.node_coords, tensor.mesh.node_coords)
    assert np.array_equal(loaded.mesh.layer_index, tensor.mesh.layer_index)
    assert np.array_equal(loaded.mesh.edges, tensor.mesh.edges)


def test_snapshot_values_survive_write_read_exactly(tmp_path):
    rng = np.random.default_rng(0)
    values = rng.normal(size=(7, 4))
    path = tmp_path / "field.snap"
    write_snapshot_bin(values, path)
    assert np.array_equal(read_snapshot_bin(path), values)


def test_bad_magic_is_a_format_error(tmp_path):
    path = tmp_path / "field.snap"
    write_snapshot_bin(np.zeros((2, 2)), path)
    raw = bytearray(path.read_bytes())
    raw[0] = 0x58
    path.write_bytes(bytes(raw))
    with pytest.raises(DataError, match="bad magic"):
        read_snapshot_bin(path)


def test_unknown_version_is_a_format_error(tmp_path):
    path = tmp_path / "field.snap"
    write_snapshot_bin(np.zeros((2, 2)), path)
    raw = bytearray(path.read_bytes())
    raw[4] = 2
    path.write_bytes(bytes(raw))
    with pytest.raises(DataError, match="unsupported SNPT version 2"):
        read_snapshot_bin(path)


def test_truncated_snap_file_is_a_corruption_error(tmp_path):
    path = tmp_path / "field.snap"
    write_snapshot_bin(np.ones((3, 3)), path)
    path.write_bytes(path.read_bytes()[:-5])
    with pytest.raises(DataError, match="payload holds"):
        read_snapshot_bin(path)


def test_nan_payload_is_a_data_error(tmp_path):
    path = tmp_path / "field.snap"
    header = struct.pack("<4sBII", b"SNPT", 1, 1, 1)
    path.write_bytes(header + struct.pack("<d", math.nan))
    with pytest.raises(DataError, match="NaN or Inf"):
        read_snapshot_bin(path)


def test_meta_dimension_mismatch_is_a_corruption_error(tmp_path):
    # meta.json declares no dimensions of its own: the snapshot files must
    # agree with each other and with the mesh
    tensor = generate_synthetic_dataset(2, 4, 3, [20.0, 30.0])
    values = tensor.matrices[1].values
    for bad in (values[:, :2], values[:-1]):  # one step fewer, one node fewer
        save_snapshot_tensor(tensor, tmp_path)
        write_snapshot_bin(bad, tmp_path / "snap_1.bin")
        with pytest.raises(DataError, match="malformed archive"):
            load_snapshot_tensor(tmp_path)


def test_meta_is_valid_json_with_declared_dimensions(tmp_path):
    # the dwell-time list and the SNPT headers declare every dimension
    # once; the manifest binds each array by shape and CRC-32
    tensor = generate_synthetic_dataset(2, 4, 2, [20.0, 30.0])
    save_snapshot_tensor(tensor, tmp_path)
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "mesh_edges.bin", "mesh_nodes.bin", "meta.json", "snap_0.bin",
        "snap_1.bin"]
    meta = json.loads((tmp_path / "meta.json").read_text())
    assert set(meta) == {"version", "dwell_times", "arrays"}
    assert meta["version"] == ARCHIVE_VERSION == 5
    assert meta["dwell_times"] == [20.0, 30.0]
    for name, record in meta["arrays"].items():
        values = read_snapshot_bin(tmp_path / f"{name}.bin")
        assert record == {"shape": list(values.shape),
                          "crc32": zlib.crc32(values)}


def test_mesh_is_stored_as_two_arrays(tmp_path):
    tensor = generate_synthetic_dataset(2, 4, 2, [20.0])
    save_snapshot_tensor(tensor, tmp_path)
    nodes = read_snapshot_bin(tmp_path / "mesh_nodes.bin")
    np.testing.assert_array_equal(nodes[:, :3], tensor.mesh.node_coords)
    np.testing.assert_array_equal(nodes[:, 3], tensor.mesh.layer_index)
    np.testing.assert_array_equal(read_snapshot_bin(
        tmp_path / "mesh_edges.bin"), tensor.mesh.edges)


def rebind(directory, manifest_name, name, values):
    """Rewrite array ``name`` and record its new shape and CRC-32 in the
    manifest, as a consistent hand edit would."""
    write_snapshot_bin(values, directory / f"{name}.bin")
    path = directory / manifest_name
    doc = json.loads(path.read_text())
    doc["arrays"][name] = {"shape": list(np.shape(values)),
                           "crc32": zlib.crc32(np.ascontiguousarray(values))}
    path.write_text(json.dumps(doc))


@pytest.mark.parametrize("name, at, value", [
    ("mesh_nodes", (0, 3), 0.5), ("mesh_nodes", (0, 3), 1e308),
    ("mesh_nodes", (0, 3), -1.0), ("mesh_edges", (0, 1), 1.5),
    ("mesh_edges", (0, 0), 2.0**60), ("mesh_edges", (0, 1), 1e9),
])
def test_rebound_mesh_index_must_be_a_valid_integer(tmp_path, name, at,
                                                     value):
    save_snapshot_tensor(generate_synthetic_dataset(2, 4, 2, [20.0]),
                         tmp_path)
    values = read_snapshot_bin(tmp_path / f"{name}.bin")
    values[at] = value
    rebind(tmp_path, "meta.json", name, values)
    with pytest.raises(DataError,
                       match=f"^{re.escape(str(tmp_path))}: malformed archive"):
        load_snapshot_tensor(tmp_path)


def test_saving_leaves_other_files_and_no_temporaries(tmp_path):
    (tmp_path / "notes.txt").write_text("kept")
    save_snapshot_tensor(zeros_tensor(), tmp_path)
    save_snapshot_tensor(zeros_tensor(), tmp_path)
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "mesh_edges.bin", "mesh_nodes.bin", "meta.json", "notes.txt",
        "snap_0.bin"]


# Writing files ---------------------------------------------------------------

def test_rewrite_gives_a_new_file_and_leaves_no_temporary(tmp_path):
    path = tmp_path / "field.bin"
    write_snapshot_bin(np.zeros((2, 2)), path)
    inode = path.stat().st_ino
    write_snapshot_bin(np.ones((3, 1)), path)
    assert path.stat().st_ino != inode  # replaced, not truncated in place
    assert np.array_equal(read_snapshot_bin(path), np.ones((3, 1)))
    assert [p.name for p in tmp_path.iterdir()] == ["field.bin"]


def test_failed_write_keeps_the_old_file(tmp_path):
    path = tmp_path / "report.json"
    write_file(path, ["old\n"])

    def chunks():
        yield b"new, half written"
        raise OSError("disk full")
    with pytest.raises(OSError, match="disk full"):
        write_file(path, chunks())
    assert path.read_bytes() == b"old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["report.json"]


def test_write_replaces_a_symlink_with_a_regular_file(tmp_path):
    target = tmp_path / "target.txt"
    write_file(target, ["kept"])
    link = tmp_path / "link.txt"
    link.symlink_to(target)
    write_file(link, [b"new"])
    assert not link.is_symlink() and link.read_bytes() == b"new"
    assert target.read_bytes() == b"kept"


def writes_file(call: ast.Call) -> str | None:
    """``write_text``, ``write_bytes`` or ``open`` if ``call`` is one that
    writes: an ``open`` in a mode holding w, x, a or +, or one whose mode
    is not a literal."""
    name = getattr(call.func, "attr", getattr(call.func, "id", None))
    if name in ("write_text", "write_bytes"):
        return name
    if name != "open":
        return None
    at = 1 if isinstance(call.func, ast.Name) else 0  # open(p, m), p.open(m)
    modes = [*call.args[at:at + 1],
             *(kw.value for kw in call.keywords if kw.arg == "mode")]
    if any(not isinstance(m, ast.Constant) or set(str(m.value)) & set("wxa+")
           for m in modes):
        return name
    return None


def file_writes(tree) -> list[tuple[str, str]]:
    """``(function, call)`` for every call in ``tree`` that writes a file,
    named by the innermost function that makes it."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call) and (name := writes_file(child)):
                found.append((where, name))
            visit(child, where)
    visit(tree, "<module>")
    return found


def test_no_file_is_written_outside_the_writer():
    # a truncating write cut short leaves a torn file: every file is
    # written by _write, to write_file's or save_archive's temp files
    package = Path(romforge.__file__).parent
    writes = [(source.name, *call) for source in sorted(package.glob("*.py"))
              for call in file_writes(ast.parse(source.read_text()))]
    assert writes == [("dataset.py", "_write", "open")]


def test_file_writes_finds_every_kind_of_write():
    tree = ast.parse(
        "def f(p, m):\n"
        "    open(p, 'rb'); p.open(); open(p)\n"
        "    p.write_text('x'); p.write_bytes(b'x')\n"
        "    open(p, 'w'); p.open('a'); open(p, mode='r+'); open(p, m)\n")
    assert file_writes(tree) == [("f", name) for name in (
        "write_text", "write_bytes", "open", "open", "open", "open")]


# Splits ----------------------------------------------------------------------

def test_nine_four_split_counts():
    dts = [20.0 + 5.0 * i for i in range(13)]
    tensor = generate_synthetic_dataset(2, 4, 2, dts)
    train, test = split_dataset(
        tensor, [20, 25, 35, 40, 50, 55, 65, 70, 80], [30, 45, 60, 75]
    )
    assert train.n_mu == 9
    assert test.n_mu == 4
    assert train.mesh is tensor.mesh
    assert test.mesh is tensor.mesh


def test_empty_test_split_and_identity_of_matrices():
    tensor = generate_synthetic_dataset(2, 4, 2, [20.0, 40.0, 60.0])
    train, test = split_dataset(tensor, [20, 40, 60], [])
    assert test.n_mu == 0
    # no copy drift: the very same matrix objects are shared
    for got, src in zip(train.matrices, tensor.matrices):
        assert got is src


def test_split_rejects_unknown_and_overlapping_dwell_times():
    tensor = generate_synthetic_dataset(2, 4, 2, [20.0, 40.0])
    with pytest.raises(ConfigurationError, match="no snapshot matrix"):
        split_dataset(tensor, [33.0], [])
    with pytest.raises(ConfigurationError, match="overlap"):
        split_dataset(tensor, [20.0], [20.0])
