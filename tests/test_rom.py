"""End-to-end surrogate tests on a small cylinder dataset.

A 108-node mesh trains in well under a second, so every test here exercises
the real pipeline rather than mocks; accuracy budgets are deliberately far
looser than observed errors.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from lbfgs_oracle import lbfgs_fit

from romforge.dataset import (
    SnapshotMatrix,
    SnapshotTensor,
    generate_synthetic_dataset,
    split_dataset,
)
from romforge.errors import (
    ConfigurationError,
    CorruptionError,
    DataError,
    FormatError,
)
from romforge.gpr import log_marginal_likelihood
from romforge.pod import _BASIS_HEADER, project, reconstruct
from romforge.rom import (
    InputNormalization,
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
        for j, g in enumerate(rom.gprs):
            dev = pred.coeff_means[j] - coeffs[j]
            scale = np.max(np.abs(g.train_targets - g.mean_constant))
            assert abs(dev) <= 1e-3 * scale
            assert dev == pytest.approx(-g.noise_jitter * g.alpha[i], abs=1e-9)


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
    for j, g in enumerate(rom.gprs):
        oracle = log_marginal_likelihood(
            lbfgs_fit(g.train_inputs, g.train_targets, seed=j))
        assert log_marginal_likelihood(g) >= (
            oracle - 1e-6 * max(1.0, abs(oracle)))


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
    from romforge.gpr import RbfKernel, make_gpr

    bad = list(rom.gprs)
    bad[1] = make_gpr(
        np.linspace(0.0, 1.0, bad[1].n_train) + 0.01,
        bad[1].train_targets,
        RbfKernel(1.0, 0.5),
        1e-8,
    )
    with pytest.raises(ConfigurationError):
        PodGprRom(
            basis=rom.basis,
            gprs=tuple(bad),
            input_norm=rom.input_norm,
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


def test_archive_contents_are_enumerable(rom, tmp_path):
    save_rom(rom, tmp_path / "rom")
    names = sorted(p.name for p in (tmp_path / "rom").iterdir())
    assert names == ["basis.bin", "gprs.json", "manifest.json", "norm.json"]
    manifest = json.loads((tmp_path / "rom" / "manifest.json").read_text())
    assert manifest["model"] == "pod-gpr"
    assert manifest["rank"] == rom.rank


def test_missing_mode_entry_is_named(rom, tmp_path):
    save_rom(rom, tmp_path / "rom")
    doc = json.loads((tmp_path / "rom" / "gprs.json").read_text())
    doc["modes"] = [e for e in doc["modes"] if e["mode"] != 1]
    (tmp_path / "rom" / "gprs.json").write_text(json.dumps(doc))
    with pytest.raises(FormatError, match="mode 1"):
        load_rom(tmp_path / "rom")


def test_prediction_caches_stay_out_of_the_archive(dataset, tmp_path):
    train, _ = dataset
    fresh = train_pod_gpr(train, seed=0)
    save_rom(fresh, tmp_path / "before")
    predict_distortion_many(fresh, [30.0, 60.0])
    save_rom(fresh, tmp_path / "after")
    for name in ("basis.bin", "gprs.json", "manifest.json", "norm.json"):
        assert ((tmp_path / "before" / name).read_bytes()
                == (tmp_path / "after" / name).read_bytes())


#: A little-endian float64 NaN, as hex.
NAN_HEX = np.array([np.nan], dtype="<f8").tobytes().hex()


def nan_first(hex_values):
    """Hex-encoded float64 values with the first one replaced by NaN."""
    return NAN_HEX + hex_values[len(NAN_HEX):]


def edit_json(path, edit):
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))


@pytest.mark.parametrize("name, edit", [
    ("manifest.json", lambda d: d.pop("rank")),
    ("manifest.json", lambda d: d.update(training_dwell_times=None)),
    ("gprs.json", lambda d: d["modes"][0].update(length_scale=-0.5)),
    ("gprs.json", lambda d: d["modes"][1].pop("jitter")),
    ("gprs.json", lambda d: d["modes"][0].update(train_inputs_hex="zz")),
    ("gprs.json", lambda d: d.update(modes=7)),
    ("norm.json", lambda d: d.update(scale=0.0)),
    ("norm.json", lambda d: d.pop("offset")),
    ("gprs.json", lambda d: d["modes"][0].update(
        train_targets_hex=nan_first(d["modes"][0]["train_targets_hex"]))),
    ("gprs.json", lambda d: d["modes"][1].update(
        train_inputs_hex=nan_first(d["modes"][1]["train_inputs_hex"]))),
    ("gprs.json", lambda d: d["modes"][0].update(jitter=float("nan"))),
    ("gprs.json", lambda d: d["modes"][0].update(jitter=-1.0)),
    ("manifest.json", lambda d: d.update(training_dwell_times=[])),
])
def test_bad_archive_values_are_corruption(rom, tmp_path, name, edit):
    save_rom(rom, tmp_path / "rom")
    edit_json(tmp_path / "rom" / name, edit)
    with pytest.raises(CorruptionError):
        load_rom(tmp_path / "rom")


@pytest.mark.parametrize("name", ["manifest.json", "gprs.json", "norm.json"])
def test_malformed_archive_json_is_a_format_error(rom, tmp_path, name):
    save_rom(rom, tmp_path / "rom")
    text = (tmp_path / "rom" / name).read_text()
    (tmp_path / "rom" / name).write_text(text[: len(text) // 2])
    with pytest.raises(FormatError, match=name):
        load_rom(tmp_path / "rom")


def test_truncated_basis_is_detected(rom, tmp_path):
    save_rom(rom, tmp_path / "rom")
    blob = (tmp_path / "rom" / "basis.bin").read_bytes()
    (tmp_path / "rom" / "basis.bin").write_bytes(blob[:-16])
    with pytest.raises(CorruptionError):
        load_rom(tmp_path / "rom")


def test_non_finite_basis_is_a_data_error(rom, tmp_path):
    save_rom(rom, tmp_path / "rom")
    blob = (tmp_path / "rom" / "basis.bin").read_bytes()
    at = _BASIS_HEADER.size  # the first reference value
    (tmp_path / "rom" / "basis.bin").write_bytes(
        blob[:at] + np.array([np.nan], "<f8").tobytes() + blob[at + 8:])
    with pytest.raises(DataError, match="basis.bin"):
        load_rom(tmp_path / "rom")


def test_missing_manifest_is_reported(tmp_path):
    (tmp_path / "rom").mkdir()
    with pytest.raises(FormatError):
        load_rom(tmp_path / "rom")


def test_input_normalization_maps_training_range_to_unit(rom):
    lo, hi = min(TRAIN_DTS), max(TRAIN_DTS)
    assert rom.input_norm.apply(lo) == 0.0
    assert rom.input_norm.apply(hi) == 1.0
    assert rom.input_norm.apply((lo + hi) / 2.0) == pytest.approx(0.5)
