"""End-to-end surrogate tests on a small cylinder dataset.

A 108-node mesh trains in well under a second, so every test here exercises
the real pipeline rather than mocks; accuracy budgets are deliberately far
looser than observed errors.
"""

import dataclasses
import json
import math
import tracemalloc
import zlib
from pathlib import Path

import numpy as np
import pytest

from lbfgs_oracle import lbfgs_fit

from romforge.dataset import (
    ARCHIVE_VERSION,
    InputNormalization,
    SnapshotMatrix,
    SnapshotTensor,
    generate_synthetic_dataset,
    read_snapshot_bin,
    split_dataset,
)
from romforge.errors import ConfigurationError, DataError
from romforge.gca import (
    GcaArchitecture,
    GcaModel,
    init_params,
    load_gca,
    save_gca,
)
from romforge.gpr import GprModel, fit_gpr, log_marginal_likelihood
from romforge.pod import PodBasis, compute_pod, project, reconstruct
from romforge.rom import (
    PodGprRom,
    load_rom,
    predict_distortion,
    predict_distortion_many,
    save_rom,
    train_pod_gpr,
)

TRAIN_DTS = [20.0, 27.5, 35.0, 42.5, 50.0, 57.5, 65.0, 72.5, 80.0]
TEST_DTS = [45.0, 75.0]


@pytest.fixture(scope="module")
def dataset():
    full = generate_synthetic_dataset(
        3, 6, 5, sorted(TRAIN_DTS + TEST_DTS), seed=0
    )
    return split_dataset(full, TRAIN_DTS, TEST_DTS)


@pytest.fixture(scope="module")
def rom(dataset):
    train, _ = dataset
    return train_pod_gpr(train, seed=0)


def test_rank_is_positive_and_bounded(dataset, rom):
    train, _ = dataset
    assert 1 <= rom.rank <= train.n_mu * train.n_steps
    # the synthetic fields are separable across layers, so the whole tensor
    # lives in a space of at most n_layers directions
    assert rom.rank <= 5


def test_training_fields_are_reconstructed(dataset, rom):
    train, _ = dataset
    for dt in TRAIN_DTS:
        truth = train.matrix_for(dt).final_field
        rebuilt = reconstruct(rom.basis, project(rom.basis, truth))
        rel = np.linalg.norm(rebuilt - truth) / np.linalg.norm(truth)
        assert rel <= 1e-2


def test_prediction_at_training_points_is_tight(dataset, rom):
    train, _ = dataset
    for dt in TRAIN_DTS:
        truth = train.matrix_for(dt).final_field
        pred = predict_distortion(rom, dt)
        assert np.max(np.abs(pred.mean_field - truth)) <= 1e-3
        assert not pred.extrapolation


def test_interpolation_error_within_budget(dataset, rom):
    _, test = dataset
    for dt in TEST_DTS:
        truth = test.matrix_for(dt).final_field
        pred = predict_distortion(rom, dt)
        rel = np.linalg.norm(pred.mean_field - truth) / np.linalg.norm(truth)
        assert rel <= 0.02
        assert abs(pred.max_displacement - truth.max()) <= 1e-3


def test_confidence_band_brackets_the_mean(rom):
    for dt in (25.0, 52.3, 79.0, 100.0):
        p = predict_distortion(rom, dt)
        assert np.all(p.lower_95 <= p.mean_field)
        assert np.all(p.mean_field <= p.upper_95)
        # the band is symmetric: 1.96 standard deviations each side
        np.testing.assert_allclose(
            p.upper_95 - p.mean_field, p.mean_field - p.lower_95, atol=1e-12
        )


def test_extrapolation_is_flagged(rom):
    assert predict_distortion(rom, 10.0).extrapolation
    assert predict_distortion(rom, 100.0).extrapolation
    assert not predict_distortion(rom, 20.0).extrapolation
    assert not predict_distortion(rom, 80.0).extrapolation


def test_gp_means_track_projected_coefficients(dataset, rom):
    # at a training dwell time each GP nearly interpolates its coefficient,
    # and the miss equals -jitter * alpha_i exactly (regularized interpolation)
    train, _ = dataset
    for i, dt in enumerate(TRAIN_DTS):
        coeffs = project(rom.basis, train.matrix_for(dt).final_field)
        pred = predict_distortion(rom, dt)
        gp = rom.gp
        for j in range(rom.rank):
            dev = pred.coeff_means[j] - coeffs[j]
            scale = np.max(np.abs(gp.train_targets[j] - gp.mean_constant[j]))
            assert abs(dev) <= 1e-3 * scale
            assert dev == pytest.approx(-gp.noise_jitter[j] * gp.alpha[i, j, 0],
                                        abs=1e-9)


def test_mean_field_lies_in_the_affine_span(rom):
    p = predict_distortion(rom, 47.0)
    np.testing.assert_allclose(
        project(rom.basis, p.mean_field), p.coeff_means, atol=1e-10
    )
    again = reconstruct(rom.basis, project(rom.basis, p.mean_field))
    np.testing.assert_allclose(again, p.mean_field, atol=1e-12)


def test_every_protocol_mode_matches_lbfgs_oracle():
    # the 1,080-node acceptance protocol; the oracle fits mode j with seed j,
    # as the per-mode search did
    grid = [20.0 + 5.0 * i for i in range(13)]
    train_dts = [20.0, 25.0, 35.0, 40.0, 50.0, 55.0, 65.0, 70.0, 80.0]
    data = generate_synthetic_dataset(5, 24, 8, grid, seed=0)
    train, _ = split_dataset(data, train_dts, [30.0, 45.0, 60.0, 75.0])
    rom = train_pod_gpr(train, seed=0)
    assert rom.rank >= 5
    fitted = log_marginal_likelihood(rom.gp)
    for j, targets in enumerate(rom.gp.train_targets):
        oracle = log_marginal_likelihood(
            lbfgs_fit(rom.gp.train_inputs, targets, seed=j))[0]
        assert fitted[j] >= oracle - 1e-6 * max(1.0, abs(oracle))


def test_batch_prediction_matches_single_predictions(rom):
    dts = [10.0, 20.0, 33.3, 47.5, 61.0, 80.0, 100.0]
    many = predict_distortion_many(rom, dts)
    assert len(many) == len(dts)
    for dt, batch in zip(dts, many):
        single = predict_distortion(rom, dt)
        np.testing.assert_array_equal(batch.coeff_means, single.coeff_means)
        np.testing.assert_array_equal(batch.coeff_variances,
                                      single.coeff_variances)
        for name in ("mean_field", "lower_95", "upper_95"):
            np.testing.assert_allclose(getattr(batch, name),
                                       getattr(single, name),
                                       rtol=0.0, atol=1e-12)
        assert batch.extrapolation is single.extrapolation
    assert predict_distortion_many(rom, []) == []


def test_band_uses_squared_modes(rom):
    np.testing.assert_array_equal(rom.basis.squared_modes,
                                  rom.basis.modes**2)
    p = predict_distortion(rom, 52.3)
    node_std = np.sqrt((rom.basis.modes**2) @ p.coeff_variances)
    np.testing.assert_allclose(p.upper_95 - p.mean_field, 1.96 * node_std,
                               rtol=1e-12, atol=1e-15)


def test_training_projects_on_node_major_modes():
    # the GP fit is sensitive to the last bits of its targets; they are
    # compute_pod's node-major projections, whatever layout the model keeps
    data = generate_synthetic_dataset(5, 24, 8, TRAIN_DTS, seed=0)
    rom = train_pod_gpr(data, seed=3)
    basis = compute_pod([m.values for m in data.matrices], 0.9999)
    coeffs = np.column_stack([project(basis, m.final_field)
                              for m in data.matrices])
    gp = fit_gpr(InputNormalization(TRAIN_DTS).training_inputs, coeffs,
                 seed=3)
    for name in ("train_targets", "signal_variance", "length_scale",
                 "noise_jitter", "alpha"):
        np.testing.assert_array_equal(getattr(rom.gp, name), getattr(gp, name))
    np.testing.assert_array_equal(rom.basis.modes, basis.modes)


def test_pipeline_is_homogeneous_in_the_field(dataset):
    train, _ = dataset
    scaled = SnapshotTensor(
        mesh=train.mesh,
        matrices=[
            SnapshotMatrix(parameter=m.parameter, values=2.0 * m.values)
            for m in train.matrices
        ],
    )
    a = train_pod_gpr(train, seed=0)
    b = train_pod_gpr(scaled, seed=0)
    for dt in (33.0, 61.0):
        fa = predict_distortion(a, dt).mean_field
        fb = predict_distortion(b, dt).mean_field
        rel = np.linalg.norm(fb - 2.0 * fa) / np.linalg.norm(2.0 * fa)
        assert rel <= 1e-6


def test_training_needs_two_parameters(dataset):
    train, _ = dataset
    single = SnapshotTensor(mesh=train.mesh, matrices=train.matrices[:1])
    with pytest.raises(ConfigurationError):
        train_pod_gpr(single)


def test_gp_input_mismatch_is_rejected(rom):
    from romforge.gpr import make_gpr

    bad = make_gpr(rom.gp.train_inputs + 0.01, rom.gp.train_targets,
                   1.0, 0.5, 1e-8)
    with pytest.raises(ConfigurationError):
        PodGprRom(
            basis=rom.basis,
            gp=bad,
            training_dwell_times=rom.training_dwell_times,
        )


# ------------------------------------------------------------- archive ----


def test_archive_round_trip_is_exact(rom, tmp_path):
    save_rom(rom, tmp_path / "rom")
    back = load_rom(tmp_path / "rom")
    assert back.rank == rom.rank
    assert back.training_dwell_times == rom.training_dwell_times
    for dt in np.random.default_rng(0).uniform(20.0, 80.0, 10):
        a = predict_distortion(rom, float(dt))
        b = predict_distortion(back, float(dt))
        np.testing.assert_array_equal(a.mean_field, b.mean_field)
        np.testing.assert_array_equal(a.lower_95, b.lower_95)
        np.testing.assert_array_equal(a.upper_95, b.upper_95)


def test_archive_round_trip_keeps_every_fact_bit_for_bit(tmp_path):
    # noisy data on which the energy fraction, once summed two ways, read
    # 0.9999023909514766 trained and 0.9999023909514761 reloaded
    data = generate_synthetic_dataset(
        4, 16, 8, [20.0, 25.0, 30.0, 35.0, 40.0, 50.0, 60.0, 80.0],
        noise_sigma=1e-4, seed=0)
    rom = train_pod_gpr(data, seed=0)
    save_rom(rom, tmp_path / "rom")
    back = load_rom(tmp_path / "rom")
    assert back.basis.energy_captured == rom.basis.energy_captured
    for name in ("modes", "singular_values", "reference"):
        np.testing.assert_array_equal(getattr(back.basis, name),
                                      getattr(rom.basis, name))
    for name in ("train_inputs", "train_targets", "signal_variance",
                 "length_scale", "noise_jitter", "chol_factor", "alpha",
                 "mean_constant"):
        np.testing.assert_array_equal(getattr(back.gp, name),
                                      getattr(rom.gp, name))


def test_archive_contents_are_enumerable(rom, tmp_path):
    # each fact is stored once: the GP inputs, the normalization and the
    # rank all follow from the dwell times and basis.bin's row count
    save_rom(rom, tmp_path / "rom")
    names = sorted(p.name for p in (tmp_path / "rom").iterdir())
    assert names == ["basis.bin", "manifest.json"]
    manifest = json.loads((tmp_path / "rom" / "manifest.json").read_text())
    assert set(manifest) == {"version", "model", "training_dwell_times",
                             "singular_values", "modes", "arrays"}
    assert manifest["version"] == ARCHIVE_VERSION == 5
    assert manifest["model"] == "pod-gpr"
    assert manifest["training_dwell_times"] == TRAIN_DTS
    assert manifest["singular_values"] == rom.basis.singular_values.tolist()
    assert len(manifest["modes"]) == rom.rank
    for mode, targets in zip(manifest["modes"], rom.gp.train_targets):
        assert set(mode) == {"signal_variance", "length_scale", "jitter",
                             "train_targets"}
        assert mode["train_targets"] == targets.tolist()
    # basis.bin is one SNPT array of mode-major rows: the reference field,
    # then the modes
    rows = read_snapshot_bin(tmp_path / "rom" / "basis.bin")
    assert rows.shape == (rom.rank + 1, rom.basis.n_nodes)
    np.testing.assert_array_equal(rows[0], rom.basis.reference)
    np.testing.assert_array_equal(rows[1:], rom.basis.modes.T)
    # the manifest binds it by shape and CRC-32
    assert manifest["arrays"] == {"basis": {
        "shape": [rom.rank + 1, rom.basis.n_nodes],
        "crc32": zlib.crc32(rows)}}


def test_basis_is_mode_major_after_train_and_load(rom, tmp_path):
    save_rom(rom, tmp_path / "rom")
    for model in (rom, load_rom(tmp_path / "rom")):
        assert model.rank > 1  # a single mode is both C and F ordered
        assert model.basis.modes.T.flags.c_contiguous
        assert model.basis.squared_modes.T.flags.c_contiguous


def test_loaded_basis_views_one_buffer(rom, tmp_path):
    save_rom(rom, tmp_path / "rom")
    basis = load_rom(tmp_path / "rom").basis
    rows = basis.reference.base  # what basis.bin was read into
    assert rows.shape == (basis.rank + 1, basis.n_nodes)
    assert np.shares_memory(rows, basis.reference)
    assert np.shares_memory(rows, basis.modes)
    assert not basis.modes.flags.writeable
    assert not basis.reference.flags.writeable


@pytest.fixture(scope="module")
def wide(rom):
    # a wide basis, so that basis.bin outweighs the manifest and the GPs
    rng = np.random.default_rng(0)
    n = 50_000
    return PodGprRom(
        basis=PodBasis(modes=rng.normal(size=(n, rom.rank)),
                       singular_values=rom.basis.singular_values,
                       reference=rng.normal(size=n)),
        gp=rom.gp, training_dwell_times=rom.training_dwell_times)


def traced_peak(call):
    """``call()`` and the peak of the memory it traced."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        result = call()
        return result, tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_load_peak_is_one_basis_buffer(wide, tmp_path):
    save_rom(wide, tmp_path / "rom")
    size = (tmp_path / "rom" / "basis.bin").stat().st_size
    back, peak = traced_peak(lambda: load_rom(tmp_path / "rom"))
    np.testing.assert_array_equal(back.basis.modes, wide.basis.modes)
    assert peak <= 1.2 * size


def test_save_writes_the_basis_from_its_own_buffers(wide, tmp_path):
    # basis.bin's rows are the reference and the mode rows, written and
    # checksummed where they lie, with no stacked copy
    _, peak = traced_peak(lambda: save_rom(wide, tmp_path / "rom"))
    size = (tmp_path / "rom" / "basis.bin").stat().st_size
    assert peak <= 0.1 * size
    rows = read_snapshot_bin(tmp_path / "rom" / "basis.bin")
    np.testing.assert_array_equal(rows[0], wide.basis.reference)
    np.testing.assert_array_equal(rows[1:], wide.basis.modes.T)


def test_gca_save_writes_the_weights_from_their_own_buffers(dataset,
                                                            tmp_path):
    # gca_weights.bin's rows are every parameter in order, written and
    # checksummed where each lies, with no concatenated copy
    mesh = dataset[0].mesh
    arch = GcaArchitecture(n_nodes=mesh.n_nodes)
    model = GcaModel(arch=arch, params=init_params(arch, 0),
                     training_dwell_times=tuple(TRAIN_DTS), seed=0)
    _, peak = traced_peak(lambda: save_gca(model, mesh, tmp_path / "gca"))
    size = (tmp_path / "gca" / "gca_weights.bin").stat().st_size
    assert peak <= 0.1 * size
    loaded, _ = load_gca(tmp_path / "gca")
    for name, value in model.params.items():
        np.testing.assert_array_equal(loaded.params[name], value)


def test_version_1_archive_is_a_format_error(rom, tmp_path):
    # no earlier layout is read
    save_rom(rom, tmp_path / "rom")
    for version in (1, 2, 3, 4):
        edit_json(tmp_path / "rom" / "manifest.json",
                  lambda d: d.update(version=version))
        with pytest.raises(DataError, match=f"unsupported version {version}"):
            load_rom(tmp_path / "rom")


def test_prediction_caches_stay_out_of_the_archive(dataset, tmp_path):
    train, _ = dataset
    fresh = train_pod_gpr(train, seed=0)
    save_rom(fresh, tmp_path / "before")
    predict_distortion_many(fresh, [30.0, 60.0])
    save_rom(fresh, tmp_path / "after")
    for name in ("basis.bin", "manifest.json"):
        assert ((tmp_path / "before" / name).read_bytes()
                == (tmp_path / "after" / name).read_bytes())
    # the constants a GprModel derives for queries are never stored: a
    # loaded model derives them again, bit for bit
    derived = [f.name for f in dataclasses.fields(GprModel) if not f.init]
    assert {"input_column", "mean_column", "signal_column", "two_ls2",
            "prior_variance", "posterior_weights"} <= set(derived)
    manifest = (tmp_path / "after" / "manifest.json").read_text()
    back = load_rom(tmp_path / "after")
    for name in derived:
        assert name not in manifest
        assert (getattr(back.gp, name).tobytes()
                == getattr(fresh.gp, name).tobytes())
        assert getattr(back.gp, name).shape == getattr(fresh.gp, name).shape


@pytest.mark.filterwarnings("error")
def test_far_predictions_are_the_prior_exactly(rom):
    # a dwell time so far out that every kernel value is exactly 0: the
    # coefficients are the GP prior and the field its reconstruction, with
    # no overflow warning
    dts = [1e200, -1e200, math.inf, -math.inf]
    prior = rom.gp.signal_variance + rom.gp.noise_jitter
    batch = predict_distortion_many(rom, dts)
    batch_fields = reconstruct(rom.basis, np.tile(rom.gp.mean_constant,
                                                  (len(dts), 1)))
    for dt, pred, field in zip(dts, batch, batch_fields):
        alone = predict_distortion(rom, dt)
        for p, mean_field in ((pred, field), (alone, reconstruct(
                rom.basis, rom.gp.mean_constant))):
            np.testing.assert_array_equal(p.coeff_means, rom.gp.mean_constant)
            np.testing.assert_array_equal(p.coeff_variances, prior)
            np.testing.assert_array_equal(p.mean_field, mean_field)
            assert p.extrapolation
            assert np.all(p.lower_95 <= p.mean_field)
            assert np.all(p.mean_field <= p.upper_95)


@pytest.mark.filterwarnings("error")
def test_a_nan_dwell_time_is_rejected(rom):
    # +-inf is the prior (above); a NaN has no prediction, and gave an
    # all-NaN field
    for dts in ([math.nan], [30.0, math.nan]):
        with pytest.raises(ConfigurationError, match="NaN"):
            predict_distortion_many(rom, dts)
    with pytest.raises(ConfigurationError, match="NaN"):
        predict_distortion(rom, math.nan)


def edit_json(path, edit):
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))


@pytest.mark.parametrize("name, edit", [
    ("manifest.json", lambda d: d.pop("modes")),
    ("manifest.json", lambda d: d.update(training_dwell_times=None)),
    ("manifest.json", lambda d: d.update(training_dwell_times=[])),
    ("manifest.json", lambda d: d["modes"][0].update(length_scale=-0.5)),
    ("manifest.json", lambda d: d["modes"][1].pop("jitter")),
    ("manifest.json", lambda d: d.update(modes=7)),
    ("manifest.json", lambda d: d["modes"][0]["train_targets"].__setitem__(
        0, float("nan"))),
    ("manifest.json", lambda d: d["modes"][0].update(jitter=float("nan"))),
    ("manifest.json", lambda d: d["modes"][0].update(jitter=-1.0)),
    # one mode fewer than the basis has
    ("manifest.json", lambda d: d["modes"].pop(1)),
    ("manifest.json", lambda d: d["training_dwell_times"].__setitem__(
        0, float("nan"))),
    ("manifest.json", lambda d: d["singular_values"].__setitem__(
        0, float("nan"))),
    ("manifest.json", lambda d: d["singular_values"].__setitem__(
        0, float("inf"))),
    ("manifest.json", lambda d: d.update(
        singular_values=[0.0] * len(d["singular_values"]))),
    # fewer singular values than basis.bin has modes
    ("manifest.json", lambda d: d.update(
        singular_values=d["singular_values"][:len(d["modes"]) - 1])),
    # 2 l^2 overflows, or underflows to 0: a kernel of NaNs
    ("manifest.json", lambda d: d["modes"][0].update(length_scale=1e154)),
    ("manifest.json", lambda d: d["modes"][0].update(length_scale=1e-200)),
])
def test_bad_archive_values_are_corruption(rom, tmp_path, name, edit):
    save_rom(rom, tmp_path / "rom")
    edit_json(tmp_path / "rom" / name, edit)
    with pytest.raises(DataError, match="malformed archive"):
        load_rom(tmp_path / "rom")


@pytest.mark.parametrize("name", ["manifest.json"])
def test_malformed_archive_json_is_a_format_error(rom, tmp_path, name):
    save_rom(rom, tmp_path / "rom")
    text = (tmp_path / "rom" / name).read_text()
    (tmp_path / "rom" / name).write_text(text[: len(text) // 2])
    with pytest.raises(DataError, match=f"{name} is not valid JSON"):
        load_rom(tmp_path / "rom")


def test_missing_manifest_is_reported(tmp_path):
    (tmp_path / "rom").mkdir()
    with pytest.raises(DataError, match="manifest.json is missing"):
        load_rom(tmp_path / "rom")


def test_input_normalization_maps_training_range_to_unit(rom):
    lo, hi = min(TRAIN_DTS), max(TRAIN_DTS)
    assert rom.input_norm.apply(lo) == 0.0
    assert rom.input_norm.apply(hi) == 1.0
    assert rom.input_norm.apply((lo + hi) / 2.0) == pytest.approx(0.5)
