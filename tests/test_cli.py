"""Command-line interface: argument handling, exit codes, JSON contract.

Most tests drive ``main()`` in process for speed; one subprocess test checks
the module entry point end to end. Shared dataset and model directories are
built once per module.
"""

import csv
import dataclasses
import fnmatch
import json
import math
import os
import re
import resource
import shutil
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import romforge.cli as cli
from romforge.cli import MAX_RANGE_COUNT, main, parse_dwell_times
from romforge.dataset import (
    _SNAP_HEADER,
    SnapshotTensor,
    load_snapshot_tensor,
    read_snapshot_bin,
    save_snapshot_tensor,
    write_snapshot_bin,
)
from romforge.errors import (
    ConfigurationError,
    DataError,
    NumericalError,
    RomforgeError,
)
from romforge.gca import load_gca, save_gca
from romforge.rom import load_rom, save_rom

GEN_ARGS = ["--dwell-times", "20:80:10", "--layers", "2", "--radial", "2",
            "--theta", "4", "--seed", "0"]


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def reject_constant(name):
    raise ValueError(f"{name} is not strict JSON")


def summary_of(out):
    lines = out.splitlines()
    assert len(lines) == 1, f"expected one stdout line, got {lines!r}"
    return json.loads(lines[0])


def dir_bytes(root):
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "dataset"
    assert main(["gen", "--out", str(out), *GEN_ARGS]) == 0
    return out


@pytest.fixture(scope="module")
def rom_dir(tmp_path_factory, dataset_dir):
    out = tmp_path_factory.mktemp("cli") / "rom"
    assert main(["train", "--model", "pod-gpr", "--data", str(dataset_dir),
                 "--out", str(out), "--seed", "0"]) == 0
    return out


@pytest.fixture(scope="module")
def gca_dir(tmp_path_factory, dataset_dir):
    out = tmp_path_factory.mktemp("cli") / "gca"
    assert main(["train", "--model", "gca", "--data", str(dataset_dir),
                 "--out", str(out), "--max-epochs", "2", "--latent", "2",
                 "--seed", "0"]) == 0
    return out


# ----------------------------------------------------------- dwell parsing ---


def test_parse_dwell_times_range():
    assert parse_dwell_times("20:80:5") == [20.0 + 5.0 * i for i in range(13)]
    assert len(parse_dwell_times(f"1:{MAX_RANGE_COUNT}:1")) == MAX_RANGE_COUNT


def test_parse_dwell_times_range_with_unaligned_stop():
    assert parse_dwell_times("0:10:4") == [0.0, 4.0, 8.0]


def test_parse_dwell_times_lists():
    assert parse_dwell_times("45") == [45.0]
    assert parse_dwell_times("30,45,60") == [30.0, 45.0, 60.0]
    assert parse_dwell_times([1, 2.5]) == [1.0, 2.5]


@pytest.mark.parametrize("bad", ["", "a,b", "1:2:3:4", "1:10:0", "10:5:1",
                                 "1:x:2", "1e308:1e309:1", "20:inf:10",
                                 "nan:80:10", "20:80:nan",
                                 # too many values, counted before any is made
                                 f"0:{MAX_RANGE_COUNT}:1", "-1e308:1e308:1"])
def test_parse_dwell_times_rejects_malformed(bad):
    with pytest.raises(ConfigurationError):
        parse_dwell_times(bad)


# --------------------------------------------------------------------- gen ---


def test_gen_summary_and_files(dataset_dir, capsys):
    out = dataset_dir.parent / "dataset2"
    code, stdout, _ = run(capsys, "gen", "--out", out, *GEN_ARGS)
    assert code == 0
    summary = summary_of(stdout)
    assert summary == {"out": str(out), "n_mu": 7, "n_h": 24, "n_t": 2}
    assert (out / "meta.json").is_file()
    assert len(list(out.glob("snap_*.bin"))) == 7
    tensor = load_snapshot_tensor(out)
    assert tensor.n_nodes == 24
    assert tensor.dwell_times == [20.0 + 10.0 * i for i in range(7)]


def test_gen_same_seed_is_byte_identical(tmp_path, capsys):
    args = ["--dwell-times", "40,60", "--layers", "2", "--radial", "2",
            "--theta", "4", "--noise", "0.01", "--seed", "5"]
    for name in ("a", "b"):
        assert run(capsys, "gen", "--out", tmp_path / name, *args)[0] == 0
    assert dir_bytes(tmp_path / "a") == dir_bytes(tmp_path / "b")

    args[-1] = "6"
    assert run(capsys, "gen", "--out", tmp_path / "c", *args)[0] == 0
    assert dir_bytes(tmp_path / "a") != dir_bytes(tmp_path / "c")


@pytest.mark.parametrize("arrays, removed", [
    ("as saved", {f"d/snap_{i}.bin" for i in range(2, 7)}),
    ("missing", set()), ("not JSON", set()), ([], set()),
    # a name that is not a plain stem is never a path to remove
    ({"../outside": {}, "snap_6": {}}, {"d/snap_6.bin"})])
def test_gen_over_an_older_dataset_removes_only_its_stale_arrays(
        arrays, removed, tmp_path, capsys):
    out = tmp_path / "d"
    assert run(capsys, "gen", "--out", out, *GEN_ARGS)[0] == 0
    # no manifest binds these three
    (out / "notes.txt").write_text("kept\n")
    shutil.copyfile(out / "snap_0.bin", out / "snap_9.bin")
    (tmp_path / "outside.bin").write_bytes(b"x")
    meta = out / "meta.json"
    if arrays == "missing":
        meta.unlink()
    elif arrays == "not JSON":
        meta.write_text("{not json")
    elif arrays != "as saved":
        meta.write_text(json.dumps({**json.loads(meta.read_text()),
                                    "arrays": arrays}))
    before = set(dir_bytes(tmp_path))
    assert run(capsys, "gen", "--out", out, *GEN_ARGS,
               "--dwell-times", "30,40")[0] == 0
    assert before - set(dir_bytes(tmp_path)) == removed
    assert load_snapshot_tensor(out).dwell_times == [30.0, 40.0]


def test_gen_missing_required_flag(capsys, tmp_path):
    code, stdout, stderr = run(capsys, "gen", "--out", tmp_path / "x")
    assert code == 2
    assert stdout == ""
    assert "--dwell-times" in stderr


# ------------------------------------------------------------------- train ---


def test_train_pod_gpr_summary(dataset_dir, rom_dir, capsys):
    out = rom_dir.parent / "rom2"
    code, stdout, _ = run(capsys, "train", "--model", "pod-gpr",
                          "--data", dataset_dir, "--out", out, "--seed", "0")
    assert code == 0
    summary = summary_of(stdout)
    assert summary["model"] == "pod-gpr"
    assert summary["n_train"] == 7
    assert 1 <= summary["rank"] <= 7
    assert 0.0 < summary["energy_captured"] <= 1.0
    assert summary["train_seconds"] > 0.0
    assert (out / "manifest.json").is_file()


def test_train_summary_records_the_fit_decision(rom_dir, dataset_dir,
                                                capsys):
    code, stdout, _ = run(capsys, "train", "--model", "pod-gpr",
                          "--data", dataset_dir,
                          "--out", rom_dir.parent / "rom_fit", "--seed", "0")
    assert code == 0
    summary = json.loads(stdout, parse_constant=reject_constant)
    records = summary["gpr_fit"]
    assert [r["mode"] for r in records] == list(range(summary["rank"]))
    for record in records:
        assert set(record) == {"mode", "signal_variance", "length_scale",
                               "jitter", "jitter_escalated", "lml",
                               "at_bound"}
        assert record["signal_variance"] > 0.0
        assert record["length_scale"] > 0.0
        assert record["jitter"] >= 0.0
        assert isinstance(record["jitter_escalated"], bool)
        assert isinstance(record["at_bound"], bool)
    # the decision record stays out of the archive
    manifest = (rom_dir.parent / "rom_fit" / "manifest.json").read_text()
    assert "lml" not in manifest and "at_bound" not in manifest


@pytest.mark.filterwarnings("error")
def test_huge_jitter_is_reported_without_a_warning(dataset_dir, tmp_path,
                                                    capsys):
    # twice the largest finite jitter overflows; it is not escalated
    code, stdout, stderr = run(capsys, "train", "--model", "pod-gpr",
                               "--data", dataset_dir, "--out", tmp_path / "m",
                               "--jitter", "1e308")
    assert (code, stderr) == (0, "")
    records = summary_of(stdout)["gpr_fit"]
    assert [(r["jitter"], r["jitter_escalated"]) for r in records] == [
        (1e308, False)] * len(records)


@pytest.mark.filterwarnings("error")
def test_train_reports_whether_the_energy_threshold_was_reached(
        dataset_dir, tmp_path, capsys):
    # the test data has two effective modes; 1.0 is beyond their energy
    code, stdout, stderr = run(capsys, "train", "--model", "pod-gpr",
                               "--data", dataset_dir, "--out",
                               tmp_path / "all", "--energy-threshold", "1.0")
    assert (code, stderr) == (0, "")
    summary = summary_of(stdout)
    assert summary["energy_threshold_reached"] is False
    assert summary["rank"] == 2 and summary["energy_captured"] < 1.0
    code, stdout, stderr = run(capsys, "train", "--model", "pod-gpr",
                               "--data", dataset_dir, "--out",
                               tmp_path / "default")
    assert (code, stderr) == (0, "")
    assert summary_of(stdout)["energy_threshold_reached"] is True


def test_train_subset_of_dwell_times(dataset_dir, tmp_path, capsys):
    code, stdout, _ = run(capsys, "train", "--model", "pod-gpr",
                          "--data", dataset_dir, "--out", tmp_path / "rom",
                          "--train", "20,40,60,80")
    assert code == 0
    assert summary_of(stdout)["n_train"] == 4


def test_train_gca_smoke(dataset_dir, tmp_path, capsys):
    out = tmp_path / "gca"
    code, stdout, _ = run(
        capsys, "train", "--model", "gca", "--data", dataset_dir,
        "--out", out, "--train", "20,40,60,80", "--val", "30,70",
        "--max-epochs", "3", "--latent", "2", "--seed", "0",
    )
    assert code == 0
    summary = summary_of(stdout)
    assert summary["model"] == "gca"
    assert summary["epochs"] <= 3
    assert np.isfinite(summary["best_val_loss"])
    assert (out / "history.csv").is_file()
    assert (out / "gca.json").is_file()


@pytest.mark.parametrize("flags, stop", [
    (["--lr-max", "0", "--lr-min", "0", "--patience", "2"], "patience"),
    (["--patience", "50"], "max_epochs")])
def test_train_gca_reports_its_best_epoch_and_why_it_stopped(
        flags, stop, dataset_dir, tmp_path, capsys):
    # frozen weights never beat epoch 0's validation loss, so patience ends
    # the run at epoch 2; otherwise the epoch budget does
    out = tmp_path / "gca"
    code, stdout, _ = run(
        capsys, "train", "--model", "gca", "--data", dataset_dir,
        "--out", out, "--train", "20,40,60,80", "--val", "30,70",
        "--max-epochs", "4", "--latent", "2", "--seed", "0", *flags)
    assert code == 0
    summary = summary_of(stdout)
    with (out / "history.csv").open() as fh:
        val = [float(row["val_loss"]) for row in csv.DictReader(fh)]
    assert summary["stop"] == stop
    assert summary["epochs"] == len(val) == (3 if stop == "patience" else 4)
    assert summary["best_epoch"] == val.index(min(val))
    assert summary["best_val_loss"] == min(val)
    if stop == "patience":
        assert summary["best_epoch"] == 0


def test_train_gca_with_no_improving_epoch_reports_none(dataset_dir,
                                                        tmp_path, capsys):
    # one step at lr 1e30 leaves a non-finite validation loss, which never
    # improves on the start: the summary says so and stays strict JSON
    code, stdout, _ = run(
        capsys, "train", "--model", "gca", "--data", dataset_dir,
        "--out", tmp_path / "gca", "--train", "20,40,60,80", "--val", "30,70",
        "--max-epochs", "1", "--lr-max", "1e30", "--lr-min", "1e30")
    assert code == 0
    summary = summary_of(stdout)
    assert (summary["best_epoch"], summary["best_val_loss"],
            summary["stop"]) == (None, None, "max_epochs")


def test_train_rejects_unknown_model_choice(dataset_dir, tmp_path, capsys):
    code, stdout, stderr = run(capsys, "train", "--model", "bogus",
                               "--data", dataset_dir, "--out", tmp_path / "x")
    assert code == 2
    assert stdout == ""
    assert stderr.splitlines() == [
        "romforge: unknown model 'bogus' (pod-gpr or gca)"]
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, name", [
    pytest.param(["gen", *GEN_ARGS, "--noise", value], "noise_sigma",
                 id=f"gen-noise-{value}") for value in ("nan", "inf")] + [
    pytest.param(["train", "--model", "gca", f"--{flag}", value], name,
                 id=f"train-{flag}-{value}")
    for flag, name in (("noise-sigma", "noise_sigma"), ("lr-max", "lr_max"),
                       ("lr-min", "lr_min"))
    for value in ("nan", "inf")])
def test_non_finite_float_option_is_a_usage_error(argv, name, dataset_dir,
                                                   tmp_path, capsys):
    # the fault is the option: NaN must not read as "no noise", and an
    # infinite rate must not surface later as a numerical failure
    if argv[0] == "train":
        argv = [*argv, "--data", dataset_dir]
    code, stdout, stderr = run(capsys, *argv, "--out", tmp_path / "out")
    assert code == 2
    assert stdout == ""
    [line] = stderr.splitlines()
    assert line.startswith(f"romforge: {name} must be finite")
    assert list(tmp_path.iterdir()) == []


def test_train_degenerate_dataset_is_numerical_failure(dataset_dir, tmp_path,
                                                       capsys):
    tensor = load_snapshot_tensor(dataset_dir)
    flat = tuple(
        dataclasses.replace(m, values=np.ones_like(m.values))
        for m in tensor.matrices
    )
    bad = tmp_path / "flat"
    save_snapshot_tensor(SnapshotTensor(flat, tensor.mesh), bad)
    code, stdout, stderr = run(capsys, "train", "--model", "pod-gpr",
                               "--data", bad, "--out", tmp_path / "rom")
    assert code == 4
    assert stdout == ""
    assert "numerical failure" in stderr


# ----------------------------------------------------------------- predict ---


def test_predict_writes_field_and_sidecar(rom_dir, tmp_path, capsys):
    out = tmp_path / "field.bin"
    code, stdout, _ = run(capsys, "predict", "--model-dir", rom_dir,
                          "--dt", "45", "--out", out)
    assert code == 0
    summary = summary_of(stdout)
    field = read_snapshot_bin(out)
    assert field.shape == (24, 1)
    assert summary["dt"] == 45.0
    assert summary["model"] == "pod-gpr"
    assert summary["extrapolation"] is False
    assert summary["max_displacement"] == field.max()
    sidecar = json.loads((tmp_path / "field.bin.json").read_text())
    assert summary == {**sidecar, "out": str(out),
                       "sidecar": str(tmp_path / "field.bin.json")}


def test_predict_into_a_directory_is_io_failure(rom_dir, tmp_path, capsys):
    (tmp_path / "out").mkdir()
    code, stdout, stderr = run(capsys, "predict", "--model-dir", rom_dir,
                               "--dt", "45", "--out", tmp_path / "out")
    assert code == 3
    assert stdout == "" and len(stderr.splitlines()) == 1
    assert [p.name for p in tmp_path.iterdir()] == ["out"]
    assert list((tmp_path / "out").iterdir()) == []


def test_predict_flags_extrapolation(rom_dir, gca_dir, tmp_path, capsys):
    # both archives were trained on 20..80 s; one rule flags either kind
    capsys.readouterr()
    for model_dir in (rom_dir, gca_dir):
        for dt, expected in ((45, False), (20, False), (80, False),
                             (10, True), (100, True)):
            code, stdout, _ = run(capsys, "predict", "--model-dir", model_dir,
                                  "--dt", dt, "--out", tmp_path / "f.bin")
            assert code == 0
            summary = summary_of(stdout)
            assert summary["extrapolation"] is expected, (model_dir, dt)
            sidecar = json.loads((tmp_path / "f.bin.json").read_text())
            assert sidecar["extrapolation"] is expected


def test_single_dwell_time_gca_flags_every_other_dwell_time(
        dataset_dir, tmp_path, capsys):
    # a GCA trained on 40 s alone has the one-point training range [40, 40]
    out = tmp_path / "gca"
    assert run(capsys, "train", "--model", "gca", "--data", dataset_dir,
               "--out", out, "--train", "40", "--max-epochs", "2",
               "--latent", "2", "--seed", "0")[0] == 0
    dts = [40.0, 40.5, 41.0, 41.5]
    expected = [False, True, True, True]
    flags = []
    for dt in dts:
        code, _, _ = run(capsys, "predict", "--model-dir", out, "--dt", dt,
                         "--out", tmp_path / "f.bin")
        assert code == 0
        sidecar = json.loads((tmp_path / "f.bin.json").read_text())
        flags.append(sidecar["extrapolation"])
    assert flags == expected
    model, _ = load_gca(out)
    assert model.input_norm.extrapolates(dts) == expected


@pytest.mark.parametrize("archive", ["rom_dir", "gca_dir"])
@pytest.mark.parametrize("dt", ["nan", "inf", "-inf", "-5", "0"])
def test_predict_rejects_bad_dwell_time(archive, dt, request, tmp_path,
                                        capsys):
    model_dir = request.getfixturevalue(archive)
    capsys.readouterr()  # drop the fixture's own training summary
    # the `=` form keeps argparse from reading "-inf" as an option
    code, stdout, stderr = run(capsys, "predict", "--model-dir", model_dir,
                               f"--dt={dt}", "--out", tmp_path / "f.bin")
    assert code == 2
    assert stdout == ""
    assert len(stderr.splitlines()) == 1
    assert list(tmp_path.iterdir()) == []


def test_predict_corrupt_archive_is_io_failure(rom_dir, tmp_path, capsys):
    broken = tmp_path / "broken"
    broken.mkdir()
    for p in rom_dir.iterdir():
        (broken / p.name).write_bytes(p.read_bytes())
    payload = (broken / "basis.bin").read_bytes()
    (broken / "basis.bin").write_bytes(payload[:-16])
    code, stdout, stderr = run(capsys, "predict", "--model-dir", broken,
                               "--dt", "45", "--out", tmp_path / "f.bin")
    assert code == 3
    assert stdout == ""
    assert "basis.bin" in stderr


def copy_archive(source, target):
    target.mkdir()
    for p in source.iterdir():
        (target / p.name).write_bytes(p.read_bytes())
    return target


def reader_argv(archive, directory, rom_dir, out):
    """CLI arguments that read ``directory``, a copy of the fixture named
    ``archive``: predict from a model archive, or evaluate the POD-GPR
    model on a dataset. Either writes ``out`` only on success."""
    if archive == "dataset_dir":
        return ["eval", "--model-dir", rom_dir, "--data", directory,
                "--test", "30,50", "--plots", out]
    return ["predict", "--model-dir", directory, "--dt", "45", "--out", out]


def truncate(raw):
    return raw[: len(raw) // 2]


def edited(edit):
    def apply(raw):
        doc = json.loads(raw)
        edit(doc)
        return json.dumps(doc).encode()
    return apply


def nested(raw):
    """JSON nested deeper than the parser's recursion limit."""
    return b"[" * 100_000


def nan_at(offset, value=math.nan):
    """Overwrite the float64 starting ``offset`` bytes in (from the end when
    negative) with NaN, or with ``value``."""
    def nan_payload(raw):
        at = offset % len(raw)
        return raw[:at] + np.array([value], "<f8").tobytes() + raw[at + 8:]
    return nan_payload


@pytest.mark.parametrize("archive, name, change", [
    ("rom_dir", "manifest.json", truncate),
    ("rom_dir", "manifest.json", edited(lambda d: d.pop("modes"))),
    pytest.param("rom_dir", "manifest.json",
                 edited(lambda d: d["modes"][0].update(length_scale=-1.0)),
                 id="rom_dir-manifest.json-length_scale"),
    # a singular kernel with no jitter to escalate cannot be factorized
    pytest.param("rom_dir", "manifest.json",
                 edited(lambda d: [e.update(jitter=0.0, length_scale=50.0)
                                   for e in d["modes"]]),
                 id="rom_dir-manifest.json-singular_kernel"),
    ("gca_dir", "gca.json", truncate),
    ("gca_dir", "gca.json", edited(lambda d: d.pop("training_dwell_times"))),
    ("gca_dir", "gca.json", edited(lambda d: d.update(enc_widths=None))),
    # non-finite binary payloads: the first basis reference value, the last
    # GCA weight
    ("rom_dir", "basis.bin", nan_at(_SNAP_HEADER.size)),
    ("gca_dir", "gca_weights.bin", nan_at(-8)),
    # the GP inputs are derived from the dwell times, so two dwell times no
    # longer fit the seven stored targets
    pytest.param("rom_dir", "manifest.json",
                 edited(lambda d: d.update(training_dwell_times=[1.0, 2.0])),
                 id="rom_dir-manifest.json-dwell_times"),
    pytest.param("gca_dir", "gca.json",
                 edited(lambda d: d.update(training_dwell_times=[math.nan])),
                 id="gca_dir-gca.json-dwell_times_nan"),
    pytest.param("gca_dir", "gca.json",
                 edited(lambda d: d.update(training_dwell_times=[])),
                 id="gca_dir-gca.json-dwell_times_empty"),
    # the archives of the previous layouts are not read
    pytest.param("rom_dir", "manifest.json",
                 edited(lambda d: d.update(version=1)),
                 id="rom_dir-manifest.json-version_1"),
    pytest.param("gca_dir", "gca.json",
                 edited(lambda d: d.update(version=1)),
                 id="gca_dir-gca.json-version_1"),
    pytest.param("rom_dir", "manifest.json",
                 edited(lambda d: d.update(version=2)),
                 id="rom_dir-manifest.json-version_2"),
    pytest.param("gca_dir", "gca.json",
                 edited(lambda d: d.update(version=2)),
                 id="gca_dir-gca.json-version_2"),
    # values past the range of a float or an integer once squared, summed
    # or converted
    pytest.param("rom_dir", "manifest.json",
                 edited(lambda d: d["modes"][0].update(length_scale=1e308)),
                 id="rom_dir-manifest.json-length_scale_1e308"),
    pytest.param("gca_dir", "gca.json",
                 edited(lambda d: d.update(latent_dim=math.inf)),
                 id="gca_dir-gca.json-latent_dim_inf"),
    pytest.param("gca_dir", "gca.json",
                 edited(lambda d: d.update(fc_width=1e308)),
                 id="gca_dir-gca.json-fc_width_1e308"),
    pytest.param("gca_dir", "gca.json",
                 edited(lambda d: d["enc_widths"].__setitem__(0, 1e308)),
                 id="gca_dir-gca.json-enc_widths_1e308"),
    # past gca.MAX_PARAMETERS: rejected before any weight is read
    pytest.param("gca_dir", "gca.json",
                 edited(lambda d: d.update(latent_dim=100_000_000)),
                 id="gca_dir-gca.json-latent_dim_1e8"),
    # the mesh arrays: the first edge index, then the first layer index
    # (column 3 of row 0)
    pytest.param("gca_dir", "mesh_edges.bin",
                 nan_at(_SNAP_HEADER.size, math.inf),
                 id="gca_dir-mesh_edges.bin-edges_inf"),
    pytest.param("gca_dir", "mesh_nodes.bin",
                 nan_at(_SNAP_HEADER.size + 24, 1e308),
                 id="gca_dir-mesh_nodes.bin-layer_index_1e308"),
    pytest.param("dataset_dir", "mesh_edges.bin",
                 nan_at(_SNAP_HEADER.size, 1e308),
                 id="dataset_dir-mesh_edges.bin-edges_1e308"),
    pytest.param("dataset_dir", "mesh_nodes.bin",
                 nan_at(_SNAP_HEADER.size + 24, -math.inf),
                 id="dataset_dir-mesh_nodes.bin-layer_index_-inf"),
    pytest.param("rom_dir", "manifest.json",
                 edited(lambda d: d.update(version=3)),
                 id="rom_dir-manifest.json-version_3"),
    pytest.param("gca_dir", "gca.json",
                 edited(lambda d: d.update(version=3)),
                 id="gca_dir-gca.json-version_3"),
    pytest.param("dataset_dir", "meta.json",
                 edited(lambda d: d.update(version=1)),
                 id="dataset_dir-meta.json-version_1"),
    *(pytest.param(archive, name, edited(lambda d: d.update(version=4)),
                   id=f"{archive}-{name}-version_4")
      for archive, name in (("rom_dir", "manifest.json"),
                            ("gca_dir", "gca.json"),
                            ("dataset_dir", "meta.json"))),
    ("rom_dir", "manifest.json", nested),
    ("gca_dir", "gca.json", nested),
    ("dataset_dir", "meta.json", nested),
])
@pytest.mark.filterwarnings("error")
def test_hand_edited_archive_is_io_failure(archive, name, change, request,
                                           rom_dir, tmp_path, capsys):
    broken = copy_archive(request.getfixturevalue(archive), tmp_path / "m")
    capsys.readouterr()
    (broken / name).write_bytes(change((broken / name).read_bytes()))
    code, stdout, stderr = run(
        capsys, *reader_argv(archive, broken, rom_dir, tmp_path / "f.bin"))
    assert code == 3
    assert stdout == ""
    assert len(stderr.splitlines()) == 1
    assert "Traceback" not in stderr
    assert str(broken) in stderr
    assert not (tmp_path / "f.bin").exists()


def swapped_shape(raw):
    """A well-formed SNPT file whose header swaps the row and column
    counts."""
    rows, cols = struct.unpack_from("<II", raw, 5)
    return raw[:5] + struct.pack("<II", cols, rows) + raw[13:]


@pytest.mark.parametrize("archive, name, load", [
    ("dataset_dir", "snap_0.bin", load_snapshot_tensor),
    ("rom_dir", "basis.bin", load_rom),
    ("gca_dir", "gca_weights.bin", load_gca),
], ids=["snap_0.bin", "basis.bin", "gca_weights.bin"])
@pytest.mark.parametrize("change, fragment", [
    pytest.param(lambda raw: raw[:-8], "payload holds", id="truncated"),
    pytest.param(lambda raw: b"XXXX" + raw[4:], "bad magic", id="bad_magic"),
    pytest.param(lambda raw: raw[:4] + b"\x09" + raw[5:],
                 "unsupported SNPT version 9", id="version_9"),
    pytest.param(nan_at(_SNAP_HEADER.size), "NaN or Inf", id="nan_first"),
    # the reader accepts the file; the archive's own checks reject it
    pytest.param(swapped_shape, "malformed archive|holds shape",
                 id="wrong_shape"),
])
def test_corrupt_archive_binary(archive, name, load, change, fragment,
                                request, tmp_path, capsys):
    # every archive array is one SNPT file, read by one reader
    broken = copy_archive(request.getfixturevalue(archive), tmp_path / "m")
    capsys.readouterr()
    (broken / name).write_bytes(change((broken / name).read_bytes()))
    with pytest.raises(DataError, match=re.escape(str(broken))) as info:
        load(broken)
    assert re.search(fragment, str(info.value))
    if archive == "dataset_dir":
        return
    code, stdout, stderr = run(capsys, "predict", "--model-dir", broken,
                               "--dt", "45", "--out", tmp_path / "f.bin")
    assert code == 3
    assert stdout == ""
    assert len(stderr.splitlines()) == 1
    assert not (tmp_path / "f.bin").exists()


@pytest.mark.parametrize("archive, name, load", [
    ("dataset_dir", "snap_3.bin", load_snapshot_tensor),
    ("dataset_dir", "mesh_edges.bin", load_snapshot_tensor),
    ("rom_dir", "basis.bin", load_rom),
    ("gca_dir", "gca_weights.bin", load_gca),
    ("gca_dir", "mesh_nodes.bin", load_gca),
])
def test_missing_bound_array_is_a_data_error(archive, name, load, request,
                                             tmp_path):
    # the manifest binds a file that is gone: a DataError naming the
    # archive and the file, as for any other unusable archive
    broken = copy_archive(request.getfixturevalue(archive), tmp_path / "m")
    (broken / name).unlink()
    with pytest.raises(DataError, match=re.escape(str(broken))) as info:
        load(broken)
    assert name in str(info.value)


@pytest.mark.parametrize("archive, kind, flags", [
    ("rom_dir", "gca", ["--max-epochs", "2", "--latent", "2"]),
    ("gca_dir", "pod-gpr", []),
])
def test_train_refuses_an_out_holding_the_other_archive_kind(
        archive, kind, flags, request, dataset_dir, tmp_path, capsys):
    # training the other kind into it would leave two archives, and every
    # later predict or eval of the directory would exit 3
    out = copy_archive(request.getfixturevalue(archive), tmp_path / "m")
    before = dir_bytes(out)
    capsys.readouterr()
    code, stdout, stderr = run(capsys, "train", "--model", kind, "--data",
                               dataset_dir, "--out", out, *flags)
    assert code == 2
    assert stdout == ""
    assert len(stderr.splitlines()) == 1 and str(out) in stderr
    assert dir_bytes(out) == before
    code, stdout, _ = run(capsys, "predict", "--model-dir", out, "--dt", "45",
                          "--out", tmp_path / "f.bin")
    assert code == 0 and summary_of(stdout)


def test_directory_holding_both_archives_is_io_failure(rom_dir, gca_dir,
                                                       tmp_path, capsys):
    # training both surrogates into one directory leaves both archives;
    # neither may answer for the other
    both = copy_archive(rom_dir, tmp_path / "m")
    for p in gca_dir.iterdir():
        (both / p.name).write_bytes(p.read_bytes())
    capsys.readouterr()
    code, stdout, stderr = run(capsys, "predict", "--model-dir", both,
                               "--dt", "45", "--out", tmp_path / "f.bin")
    assert code == 3
    assert stdout == ""
    assert len(stderr.splitlines()) == 1
    assert "manifest.json" in stderr and "gca.json" in stderr
    assert not (tmp_path / "f.bin").exists()


def test_predict_missing_archive_is_io_failure(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    code, _, stderr = run(capsys, "predict", "--model-dir", empty,
                          "--dt", "45", "--out", tmp_path / "f.bin")
    assert code == 3
    assert "no model archive" in stderr


# ---------------------------------------------------------- mutation sweep ---

DELETE = object()

# the values written over each JSON leaf, besides deleting it
JSON_VALUES = {"nan": math.nan, "inf": math.inf, "-inf": -math.inf,
               "1e308": 1e308, "-1": -1, "str": "x", "list": [1.0],
               "null": None}

# edits, as fnmatch patterns over "<leaf path>:<edit>", that leave a valid
# archive or dataset and so may exit 0: keys no reader uses and in-range
# values; every edit of a binary breaks its binding to the manifest
MAY_LOAD = {
    "manifest.json": ["model:*", "modes.0.jitter:1e308",
                      "modes.0.signal_variance:1e308",
                      "modes.0.train_targets.0:-1",
                      "singular_values.0:delete",
                      "training_dwell_times.0:1e308",
                      "training_dwell_times.0:-1"],
    "gca.json": ["model:*", "training_dwell_times.0:delete",
                 "training_dwell_times.0:1e308",
                 "training_dwell_times.0:-1"],
    "meta.json": ["dwell_times.0:1e308"],
}


def json_leaves(doc, path=()):
    """The path to every leaf of a JSON document, through the first element
    of each list."""
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from json_leaves(value, path + (key,))
    elif isinstance(doc, list) and doc:
        yield from json_leaves(doc[0], path + (0,))
    else:
        yield path


def with_leaf(raw, path, value):
    doc = json.loads(raw)
    *parents, last = path
    node = doc
    for key in parents:
        node = node[key]
    if value is DELETE:
        del node[last]
    else:
        node[last] = value
    return json.dumps(doc).encode()


def mutations(name, raw):
    """``(label, bytes)`` for every edit of one archive file: cuts inside
    the SNPT header (13 bytes) and the payload; for a binary, one flipped
    byte in the row count, the first and the middle payload byte; and for a
    JSON file every leaf deleted or overwritten."""
    for cut in sorted({0, 3, 4, 8, 12, 13, 21, len(raw) // 2, len(raw) - 1}):
        yield f"cut:{cut}", raw[:cut]
    if name.endswith(".bin"):
        for at in (5, 13, 13 + (len(raw) - 13) // 2):
            yield f"flip:{at}", raw[:at] + bytes([raw[at] ^ 0xFF]) + raw[at + 1:]
    if name.endswith(".json"):
        for path in json_leaves(json.loads(raw)):
            label = ".".join(map(str, path))
            yield f"{label}:delete", with_leaf(raw, path, DELETE)
            for tag, value in JSON_VALUES.items():
                yield f"{label}:{tag}", with_leaf(raw, path, value)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("archive, name", [
    ("rom_dir", "manifest.json"), ("rom_dir", "basis.bin"),
    ("gca_dir", "gca.json"), ("gca_dir", "gca_weights.bin"),
    ("gca_dir", "mesh_nodes.bin"), ("gca_dir", "mesh_edges.bin"),
    ("dataset_dir", "meta.json"), ("dataset_dir", "mesh_nodes.bin"),
    ("dataset_dir", "mesh_edges.bin"),
    *(("dataset_dir", f"snap_{i}.bin") for i in range(7)),
])
def test_every_archive_mutation_exits_cleanly(archive, name, request,
                                              rom_dir, tmp_path, capsys):
    broken = copy_archive(request.getfixturevalue(archive), tmp_path / "m")
    out = tmp_path / "out"
    argv = reader_argv(archive, broken, rom_dir, out)
    capsys.readouterr()
    wrong = []
    for label, raw in mutations(name, (broken / name).read_bytes()):
        (broken / name).write_bytes(raw)
        try:
            code, stdout, stderr = run(capsys, *argv)
        except Exception as exc:  # a traceback, or a warning, in a real run
            wrong.append(f"{label}: raised {type(exc).__name__}: {exc}")
            continue
        if code == 0:
            json.loads(stdout, parse_constant=reject_constant)
            if stderr or not any(fnmatch.fnmatchcase(label, pattern)
                                 for pattern in MAY_LOAD.get(name, ())):
                wrong.append(f"{label}: exit 0, stderr {stderr!r}")
            if out.is_dir():
                shutil.rmtree(out)
            else:
                out.unlink()
                Path(f"{out}.json").unlink()
        elif (code not in (2, 3, 4) or stdout or out.exists()
              or len(stderr.splitlines()) != 1 or "Traceback" in stderr
              or str(broken.resolve()) not in stderr):
            wrong.append(f"{label}: exit {code}, stderr {stderr!r}")
    assert wrong == []


# --------------------------------------------------------- archive binding ---


def predict_exit(capsys, model_dir, out):
    capsys.readouterr()
    code, stdout, stderr = run(capsys, "predict", "--model-dir", model_dir,
                               "--dt", "45", "--out", out)
    return code, stdout, stderr


def test_basis_one_row_short_is_io_failure(rom_dir, tmp_path, capsys):
    # a well-formed SNPT file, but not the one the manifest binds
    short = copy_archive(rom_dir, tmp_path / "m")
    write_snapshot_bin(read_snapshot_bin(short / "basis.bin")[:-1],
                       short / "basis.bin")
    code, stdout, stderr = predict_exit(capsys, short, tmp_path / "f.bin")
    assert (code, stdout) == (3, "")
    assert "basis.bin" in stderr and "shape" in stderr
    assert not (tmp_path / "f.bin").exists()


def test_basis_from_another_archive_is_io_failure(rom_dir, dataset_dir,
                                                  tmp_path, capsys):
    # POD takes no seed, so another --seed alone gives the same basis.bin;
    # another training split gives one of the same shape, other values
    other = tmp_path / "other"
    assert main(["train", "--model", "pod-gpr", "--data", str(dataset_dir),
                 "--out", str(other), "--seed", "1",
                 "--train", "20,30,40,50,60,70"]) == 0
    mixed = copy_archive(rom_dir, tmp_path / "m")
    theirs = read_snapshot_bin(other / "basis.bin")
    assert theirs.shape == read_snapshot_bin(mixed / "basis.bin").shape
    assert (other / "basis.bin").read_bytes() != (
        mixed / "basis.bin").read_bytes()
    (mixed / "basis.bin").write_bytes((other / "basis.bin").read_bytes())
    code, stdout, stderr = predict_exit(capsys, mixed, tmp_path / "f.bin")
    assert (code, stdout) == (3, "")
    assert "basis.bin" in stderr and "crc32" in stderr


def test_dataset_with_a_dwell_time_deleted_is_io_failure(rom_dir,
                                                        dataset_dir,
                                                        tmp_path, capsys):
    # six dwell times no longer match the seven snapshots meta.json binds
    broken = copy_archive(dataset_dir, tmp_path / "d")
    meta = json.loads((broken / "meta.json").read_text())
    del meta["dwell_times"][0]
    (broken / "meta.json").write_text(json.dumps(meta))
    capsys.readouterr()
    code, stdout, stderr = run(capsys, "eval", "--model-dir", rom_dir,
                               "--data", broken, "--test", "40",
                               "--plots", tmp_path / "plots")
    assert (code, stdout) == (3, "")
    assert "meta.json" in stderr and "snap_6" in stderr
    assert not (tmp_path / "plots").exists()


@pytest.mark.parametrize("value", [True, "20"])
def test_a_dataset_dwell_time_that_is_not_a_number_is_io_failure(
        value, dataset_dir, tmp_path, capsys):
    # JSON true is no dwell time of 1 s, nor is the string "20" one of 20 s
    broken = copy_archive(dataset_dir, tmp_path / "d")
    meta = json.loads((broken / "meta.json").read_text())
    meta["dwell_times"][0] = value
    (broken / "meta.json").write_text(json.dumps(meta))
    capsys.readouterr()
    code, stdout, stderr = run(capsys, "train", "--model", "pod-gpr",
                               "--data", broken, "--out", tmp_path / "rom")
    assert (code, stdout) == (3, "")
    assert len(stderr.splitlines()) == 1 and str(broken) in stderr
    assert not (tmp_path / "rom").exists()


@pytest.mark.parametrize("archive", ["rom_dir", "gca_dir", "dataset_dir"])
def test_load_then_save_is_byte_identical(archive, request, tmp_path):
    source = request.getfixturevalue(archive)
    copy = tmp_path / "copy"
    if archive == "rom_dir":
        save_rom(load_rom(source), copy)
    elif archive == "gca_dir":
        save_gca(*load_gca(source), copy)
    else:
        save_snapshot_tensor(load_snapshot_tensor(source), copy)
    saved = dir_bytes(copy)
    assert saved == {name: blob for name, blob in dir_bytes(source).items()
                     if name in saved}
    assert set(saved) == set(dir_bytes(source)) - {"history.csv"}


def failing_replace(fail_at):
    """An ``os.replace`` whose ``fail_at``-th call (from 1) raises, as if
    the process were killed there."""
    calls = []
    real = os.replace

    def replace(src, dst):
        calls.append(dst)
        if len(calls) == fail_at:
            raise OSError(f"killed before moving {src} to {dst}")
        real(src, dst)
    return replace


@pytest.mark.parametrize("fail_at", [1, 2], ids=["basis", "manifest"])
def test_interrupted_retrain_never_loads_a_mix(fail_at, rom_dir, dataset_dir,
                                               tmp_path, capsys, monkeypatch):
    archive = copy_archive(rom_dir, tmp_path / "m")
    code, _, _ = predict_exit(capsys, archive, tmp_path / "old.bin")
    assert code == 0
    old = (tmp_path / "old.bin").read_bytes()
    monkeypatch.setattr(os, "replace", failing_replace(fail_at))
    code, _, _ = run(capsys, "train", "--model", "pod-gpr", "--data",
                     dataset_dir, "--out", archive, "--seed", "1",
                     "--train", "20,30,40,50,60,70")
    monkeypatch.undo()
    assert code == 3
    code, _, stderr = predict_exit(capsys, archive, tmp_path / "f.bin")
    if code == 0:
        assert (tmp_path / "f.bin").read_bytes() == old
    else:
        assert code == 3 and "basis.bin" in stderr
    # the new basis.bin is in place only once its manifest write begins
    assert code == (0 if fail_at == 1 else 3)


@pytest.mark.parametrize("fail_at", [1, 2, 3, 4])
def test_interrupted_dataset_save_never_loads_a_mix(fail_at, dataset_dir,
                                                    rom_dir, tmp_path,
                                                    capsys, monkeypatch):
    # the second dataset has another mesh and fewer dwell times; the
    # replaces run mesh_nodes, mesh_edges, snap_0, snap_1, meta.json
    data = copy_archive(dataset_dir, tmp_path / "d")
    old = load_snapshot_tensor(data)
    monkeypatch.setattr(os, "replace", failing_replace(fail_at))
    code, _, _ = run(capsys, "gen", "--out", data, *GEN_ARGS,
                     "--radial", "3", "--dwell-times", "30,40")
    monkeypatch.undo()
    assert code == 3
    try:
        loaded = load_snapshot_tensor(data)
    except DataError as exc:
        assert str(data) in str(exc)
        return
    assert loaded.dwell_times == old.dwell_times
    assert np.array_equal(loaded.mesh.edges, old.mesh.edges)
    for got, want in zip(loaded.matrices, old.matrices):
        assert np.array_equal(got.values, want.values)


# -------------------------------------------------------------------- eval ---


def test_eval_report_and_plots(rom_dir, dataset_dir, tmp_path, capsys):
    plots = tmp_path / "plots"
    code, stdout, _ = run(capsys, "eval", "--model-dir", rom_dir,
                          "--data", dataset_dir, "--test", "30,50",
                          "--plots", plots)
    assert code == 0
    summary = summary_of(stdout)
    assert summary["model"] == "pod-gpr"
    assert [row["dt"] for row in summary["rows"]] == [30.0, 50.0]
    for name in ("coefficients.csv", "coefficients.svg",
                 "max_displacement.csv", "max_displacement.svg"):
        assert (plots / name).is_file()
    report = json.loads((plots / "report.json").read_text())
    assert report["rows"] == summary["rows"]
    assert "predict_seconds_mean" not in report


def test_eval_rerun_is_byte_identical(rom_dir, dataset_dir, tmp_path, capsys):
    blobs = []
    for name in ("p1", "p2"):
        plots = tmp_path / name
        assert run(capsys, "eval", "--model-dir", rom_dir,
                   "--data", dataset_dir, "--test", "30,50",
                   "--plots", plots)[0] == 0
        blobs.append((plots / "report.json").read_bytes())
    assert blobs[0] == blobs[1]


def test_eval_report_into_a_directory_is_io_failure(rom_dir, dataset_dir,
                                                    tmp_path, capsys):
    (tmp_path / "report").mkdir()
    code, stdout, stderr = run(capsys, "eval", "--model-dir", rom_dir,
                               "--data", dataset_dir, "--test", "30,50",
                               "--plots", tmp_path / "plots",
                               "--report", tmp_path / "report")
    assert code == 3
    assert stdout == "" and len(stderr.splitlines()) == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["plots", "report"]
    assert list((tmp_path / "report").iterdir()) == []
    assert not list((tmp_path / "plots").glob("*.tmp"))


def timed_eval(capsys, model_dir, dataset_dir, tmp_path):
    """The summary of `eval --time`, once every file it writes, report.json
    included, has been checked byte for byte against a run without it."""
    capsys.readouterr()
    written, summaries = [], []
    for name, timing in (("plain", ()),
                         ("timed", ("--time", "--repeats", "2"))):
        code, stdout, _ = run(capsys, "eval", "--model-dir", model_dir,
                              "--data", dataset_dir, "--test", "30,50",
                              "--plots", tmp_path / name, *timing)
        assert code == 0
        written.append(dir_bytes(tmp_path / name))
        summaries.append(summary_of(stdout))
    assert "report.json" in written[0]
    assert written[0] == written[1]
    assert "predict_seconds_mean" not in summaries[0]
    return summaries[1]


def test_eval_with_timing(rom_dir, dataset_dir, tmp_path, capsys):
    summary = timed_eval(capsys, rom_dir, dataset_dir, tmp_path)
    assert summary["model"] == "pod-gpr"
    assert summary["predict_seconds_mean"] > 0.0


def test_eval_with_timing_on_a_gca_archive(gca_dir, dataset_dir, tmp_path,
                                           capsys):
    summary = timed_eval(capsys, gca_dir, dataset_dir, tmp_path)
    assert summary["model"] == "gca"
    assert summary["predict_seconds_mean"] > 0.0


def test_eval_requires_plots_directory(rom_dir, dataset_dir, capsys):
    code, _, stderr = run(capsys, "eval", "--model-dir", rom_dir,
                          "--data", dataset_dir, "--test", "30,50")
    assert code == 2
    assert "--plots" in stderr


def test_eval_names_both_inputs_when_node_counts_differ(dataset_dir,
                                                       tmp_path, capsys):
    # a model of another mesh loads, but cannot be scored against the
    # dataset
    other_data, other = tmp_path / "d", tmp_path / "m"
    assert main(["gen", "--out", str(other_data), *GEN_ARGS,
                 "--radial", "3"]) == 0
    assert main(["train", "--model", "pod-gpr", "--data", str(other_data),
                 "--out", str(other)]) == 0
    capsys.readouterr()
    code, stdout, stderr = run(capsys, "eval", "--model-dir", other,
                               "--data", dataset_dir, "--test", "40",
                               "--plots", tmp_path / "plots")
    assert code == 2
    assert stdout == ""
    [line] = stderr.splitlines()
    n_nodes = load_snapshot_tensor(dataset_dir).n_nodes
    n_other = load_snapshot_tensor(other_data).n_nodes
    assert str(other.resolve()) in line and str(dataset_dir.resolve()) in line
    assert f"predicts {n_other} nodes" in line
    assert f"has {n_nodes}" in line
    assert not (tmp_path / "plots").exists()


# ------------------------------------------------------------------ config ---


def test_config_supplies_defaults_under_explicit_flags(tmp_path, capsys):
    config = tmp_path / "gen.json"
    config.write_text(json.dumps(
        {"layers": 3, "radial": 2, "theta": 4, "noise": 0.01, "seed": 9,
         "dwell_times": "40,60"}
    ))
    code, stdout, _ = run(capsys, "gen", "--out", tmp_path / "via_config",
                          "--config", config, "--layers", "2")
    assert code == 0
    # explicit --layers overrides the config value: 2 layers -> 2 steps
    assert summary_of(stdout)["n_t"] == 2

    code, _, _ = run(capsys, "gen", "--out", tmp_path / "via_flags",
                     "--dwell-times", "40,60", "--layers", "2", "--radial",
                     "2", "--theta", "4", "--noise", "0.01", "--seed", "9")
    assert code == 0
    assert dir_bytes(tmp_path / "via_config") == dir_bytes(tmp_path /
                                                           "via_flags")


def test_config_rejects_unknown_keys(tmp_path, capsys):
    config = tmp_path / "gen.json"
    config.write_text(json.dumps({"dwell_times": "40,60", "bogus": 1}))
    code, _, stderr = run(capsys, "gen", "--out", tmp_path / "d",
                          "--config", config)
    assert code == 2
    assert "bogus" in stderr


def test_config_must_hold_an_object(tmp_path, capsys):
    config = tmp_path / "gen.json"
    config.write_text("[1, 2]")
    code, _, _ = run(capsys, "gen", "--out", tmp_path / "d",
                     "--config", config)
    assert code == 2


@pytest.mark.parametrize("raw", [
    pytest.param(b"[" * 100_000, id="nested"),
    pytest.param(b"\xff\xfe" + json.dumps({"seed": 1}).encode(),
                 id="undecodable"),
])
def test_unparsable_config_names_the_file(raw, tmp_path, capsys):
    config = tmp_path / "gen.json"
    config.write_bytes(raw)
    code, stdout, stderr = run(capsys, "gen", "--out", tmp_path / "d",
                               "--config", config)
    assert code == 2
    assert stdout == ""
    [line] = stderr.splitlines()
    assert str(config) in line
    assert not (tmp_path / "d").exists()


@pytest.mark.parametrize("command, config", [
    ("predict", {"dt": "abc"}),
    ("predict", {"dt": [45]}),
    ("train", {"restarts": "x"}),
    ("train", {"restarts": 2.5}),
    ("train", {"jitter": True}),
    ("train", {"out": 5}),
    ("eval", {"timing": "yes"}),
    ("gen", {"dwell_times": ["a"]}),
])
def test_config_values_are_type_checked(command, config, rom_dir,
                                        dataset_dir, tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    argv = {
        "predict": ["--model-dir", rom_dir, "--out", tmp_path / "f.bin"],
        "train": ["--model", "pod-gpr", "--data", dataset_dir],
        "eval": ["--model-dir", rom_dir, "--data", dataset_dir,
                 "--test", "30", "--plots", tmp_path / "p"],
        "gen": ["--out", tmp_path / "d"],
    }[command]
    if command == "train" and "out" not in config:
        argv += ["--out", tmp_path / "r"]
    capsys.readouterr()
    code, stdout, stderr = run(capsys, command, *argv, "--config", path)
    assert code == 2
    assert stdout == ""
    assert len(stderr.splitlines()) == 1
    assert "Traceback" not in stderr


def test_config_values_convert_like_flags(dataset_dir, tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"restarts": "3", "jitter": 1e-9,
                                "train": [20, 40, 60, 80]}))
    code, stdout, _ = run(capsys, "train", "--model", "pod-gpr",
                          "--data", dataset_dir, "--out", tmp_path / "r",
                          "--config", path)
    assert code == 0
    summary = summary_of(stdout)
    assert summary["n_train"] == 4
    assert {r["jitter"] for r in summary["gpr_fit"]} == {1e-9}


def test_config_missing_file_is_io_failure(tmp_path, capsys):
    code, _, _ = run(capsys, "gen", "--out", tmp_path / "d",
                     "--dwell-times", "40,60",
                     "--config", tmp_path / "absent.json")
    assert code == 3


# ------------------------------------------------------------ option table ---

# per converter: the flag's text (None: an on/off flag), a config value
# that needs converting, and the typed value both must give, which differs
# from every default
SAMPLES = {
    cli._int: ("7", "7", 7),
    cli._float: ("1", 1, 1.0),
    cli._path: ("some/where", "some/where", None),  # resolved in the test
    cli._dwell_times: ("30,40", [30, 40], [30.0, 40.0]),
    cli._dwell_time: ("45", 45, 45.0),
    cli._model_kind: ("gca", "gca", "gca"),
    cli._switch: (None, True, True),
}


def option_argv(key, option):
    text = SAMPLES[option.convert][0]
    flag = cli._flag(key, option)
    return [flag] if text is None else [f"{flag}={text}"]


@pytest.mark.parametrize("command, key", [
    (command, key) for command, (_, options) in cli.COMMANDS.items()
    for key in options])
def test_every_option_is_a_flag_and_a_config_key(command, key, monkeypatch,
                                                  tmp_path, capsys):
    # the option reaches the handler as the same typed value either way
    options = cli.COMMANDS[command][1]
    option = options[key]
    seen = []
    monkeypatch.setattr(f"romforge.cli.cmd_{command}",
                        lambda ns: seen.append(vars(ns)) or {})
    monkeypatch.chdir(tmp_path)
    required = [arg for other, o in options.items()
                if o.default is cli.REQUIRED and other != key
                for arg in option_argv(other, o)]
    config = tmp_path / "config.json"
    config.write_text(json.dumps({key: SAMPLES[option.convert][1]}))
    assert run(capsys, command, *required, *option_argv(key, option)) == (
        0, "{}\n", "")
    assert run(capsys, command, *required, "--config", config) == (
        0, "{}\n", "")
    via_flag, via_config = seen
    typed = SAMPLES[option.convert][2]
    if option.convert is cli._path:
        typed = tmp_path.resolve() / "some" / "where"
    assert repr(via_flag[key]) == repr(via_config[key]) == repr(typed)
    assert via_flag == via_config
    assert typed != option.default


@pytest.mark.parametrize("argv", [
    pytest.param(["gen", "--out", "d", "--dwell-times", "30", "--radial",
                  "abc"], id="bad_int"),
    pytest.param(["gen", "--out", "d", "--dwell-times", "30", "--noise",
                  "abc"], id="bad_float"),
    pytest.param(["train", "--model", "bogus", "--data", "d", "--out", "m"],
                 id="bad_choice"),
    pytest.param(["gen", "--out", "d", "--dwell-times"], id="missing_value"),
    pytest.param(["gen", "--out", "d", "--dwell-times", "30", "--bogus"],
                 id="unknown_flag"),
    pytest.param(["bogus"], id="unknown_subcommand"),
    pytest.param([], id="no_subcommand"),
])
def test_usage_error_is_one_line(argv, monkeypatch, tmp_path, capsys):
    monkeypatch.chdir(tmp_path)
    code, stdout, stderr = run(capsys, *argv)
    assert code == 2
    assert stdout == ""
    [line] = stderr.splitlines()
    assert line.startswith("romforge: ")
    assert list(tmp_path.iterdir()) == []


def test_help_prints_to_stdout_and_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["train", "--help"])
    assert exc.value.code == 0
    captured = capsys.readouterr()
    assert "--energy-threshold" in captured.out and "--config" in captured.out
    assert captured.err == ""


# -------------------------------------------------------------- exit codes ---


class LaterDataError(DataError):
    """A subclass the CLI has never heard of."""


@pytest.mark.parametrize("error, code", [
    pytest.param(ConfigurationError("bad option"), 2, id="configuration"),
    pytest.param(DataError("bad file"), 3, id="data"),
    pytest.param(NumericalError("no convergence"), 4, id="numerical"),
    pytest.param(LaterDataError("new kind"), 3, id="subclass"),
    pytest.param(OSError("disk full"), 3, id="os"),
    pytest.param(np.linalg.LinAlgError("singular"), 4, id="linalg"),
    pytest.param(MemoryError("cannot allocate 671 GiB"), 2, id="memory"),
])
def test_each_error_class_carries_its_exit_code(error, code, monkeypatch,
                                                tmp_path, capsys):
    def handler(ns):
        raise error
    monkeypatch.setattr("romforge.cli.cmd_gen", handler)
    if isinstance(error, RomforgeError):
        assert error.exit_code == code
    result, stdout, stderr = run(capsys, "gen", "--out", tmp_path / "d",
                                 *GEN_ARGS)
    assert result == code
    assert stdout == ""
    prefix = ("out of memory: " if isinstance(error, MemoryError)
              else "numerical failure: " if code == 4 else "")
    assert stderr.splitlines() == [f"romforge: {prefix}{error}"]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command", ["gen", "pod-gpr", "gca"])
def test_negative_seed_is_a_configuration_error(command, dataset_dir,
                                                tmp_path, capsys):
    argv = {
        "gen": ["gen", "--out", tmp_path / "d", *GEN_ARGS],
        "pod-gpr": ["train", "--model", "pod-gpr", "--data", dataset_dir,
                    "--out", tmp_path / "m"],
        "gca": ["train", "--model", "gca", "--data", dataset_dir,
                "--out", tmp_path / "m", "--max-epochs", "2",
                "--latent", "2"],
    }[command]
    capsys.readouterr()
    code, stdout, stderr = run(capsys, *argv, "--seed=-1")
    assert code == 2
    assert stdout == ""
    [line] = stderr.splitlines()
    assert "seed must be >= 0" in line
    assert list(tmp_path.iterdir()) == []


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("option", ["dwell-times", "train", "val", "test"])
def test_non_finite_dwell_time_range_is_a_configuration_error(
        option, dataset_dir, rom_dir, tmp_path, capsys):
    text = "1e308:1e309:1"
    argv = {
        "dwell-times": ["gen", "--out", tmp_path / "d"],
        "train": ["train", "--model", "pod-gpr", "--data", dataset_dir,
                  "--out", tmp_path / "m"],
        "val": ["train", "--model", "gca", "--data", dataset_dir,
                "--out", tmp_path / "m", "--max-epochs", "2"],
        "test": ["eval", "--model-dir", rom_dir, "--data", dataset_dir,
                 "--plots", tmp_path / "p"],
    }[option]
    capsys.readouterr()
    code, stdout, stderr = run(capsys, *argv, f"--{option}={text}")
    assert code == 2
    assert stdout == ""
    assert stderr.splitlines() == [
        f"romforge: non-finite dwell-time range {text!r}"]
    assert list(tmp_path.iterdir()) == []


@pytest.mark.filterwarnings("error")
def test_diverging_gca_training_reports_one_line(dataset_dir, tmp_path,
                                                 capsys):
    # a finite but huge rate diverges (an infinite one is a usage error);
    # the loss check names the epoch; NumPy's overflow warnings stay quiet
    capsys.readouterr()
    code, stdout, stderr = run(capsys, "train", "--model", "gca",
                               "--data", dataset_dir, "--out", tmp_path / "m",
                               "--lr-max", "1e300", "--max-epochs", "5",
                               "--latent", "2")
    assert code == 4
    assert stdout == ""
    [line] = stderr.splitlines()
    assert line.startswith("romforge: numerical failure: training loss")
    assert "epoch" in line
    assert list(tmp_path.iterdir()) == []


# -------------------------------------------------------------- subprocess ---


def test_module_entry_point(tmp_path):
    out = tmp_path / "dataset"
    proc = subprocess.run(
        [sys.executable, "-m", "romforge.cli", "gen", "--out", str(out),
         *GEN_ARGS],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert summary_of(proc.stdout)["n_mu"] == 7
    assert (out / "meta.json").is_file()


def test_predict_far_from_the_training_range_prints_no_warning(rom_dir,
                                                               tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "romforge.cli", "predict", "--model-dir",
         str(rom_dir), "--dt", "1e200", "--out", str(tmp_path / "f.bin")],
        capture_output=True, text=True,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert summary_of(proc.stdout)["extrapolation"] is True


def run_limited(*argv):
    """Run the CLI in a child process with 1.5 GB of address space and a
    60 s timeout; an unbounded size knob shows as a MemoryError traceback
    or a TimeoutExpired failure, not as a hung or swapping suite."""
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (1536 << 20, 1536 << 20))

    return subprocess.run(
        [sys.executable, "-m", "romforge.cli", *map(str, argv)],
        capture_output=True, text=True, timeout=60, preexec_fn=limit)


def test_oversized_restarts_exit_before_allocating(dataset_dir, tmp_path):
    proc = run_limited("train", "--model", "pod-gpr", "--data", dataset_dir,
                       "--out", tmp_path / "r", "--restarts", "1000000000")
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    [line] = proc.stderr.splitlines()
    assert "restarts" in line
    assert not (tmp_path / "r").exists()


def test_oversized_timing_repeats_exit_before_timing(rom_dir, dataset_dir,
                                                     tmp_path):
    proc = run_limited("eval", "--model-dir", rom_dir, "--data", dataset_dir,
                       "--test", "30", "--plots", tmp_path / "p", "--time",
                       "--repeats", "1000000000000")
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    [line] = proc.stderr.splitlines()
    assert "repeats" in line
    assert not (tmp_path / "p").exists()


def test_oversized_dataset_exits_before_allocating(tmp_path):
    proc = run_limited("gen", "--out", tmp_path / "d", "--dwell-times",
                       "20:80:10", "--radial", "100000", "--theta", "100000")
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    [line] = proc.stderr.splitlines()
    assert "n_radial 100000" in line and "MAX_DATASET_VALUES" in line
    assert not (tmp_path / "d").exists()


def test_oversized_gca_latent_exits_before_allocating(dataset_dir, tmp_path):
    proc = run_limited("train", "--model", "gca", "--data", dataset_dir,
                       "--out", tmp_path / "m", "--latent", "100000000")
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    [line] = proc.stderr.splitlines()
    assert "latent_dim=100000000" in line and "MAX_PARAMETERS" in line
    assert not (tmp_path / "m").exists()


def test_cli_import_leaves_scipy_optimize_out(tmp_path):
    # importing the CLI and running a POD-GPR gen/train/predict/eval chain
    # never loads SciPy, which only the GCA graph needs, nor the GCA
    # modules, nor numpy.ma; the metrics module loads with eval. Only the
    # fit's seeded length scales load numpy.random: a noise-free gen does
    # not, and neither do predict and eval in a process of their own
    data, rom = tmp_path / "data", tmp_path / "rom"
    steps = {
        "gen": ["gen", "--out", str(data), *GEN_ARGS],
        "train": ["train", "--model", "pod-gpr", "--data", str(data),
                  "--out", str(rom)],
        "predict": ["predict", "--model-dir", str(rom), "--dt", "45",
                    "--out", str(tmp_path / "f.bin")],
        "eval": ["eval", "--model-dir", str(rom), "--data", str(data),
                 "--test", "30,60", "--plots", str(tmp_path / "plots"),
                 "--time"],
    }

    def chain(*names):
        script = f"""
import json, sys
import romforge.cli
LAZY = ["gca", "training", "optim", "metrics"]
def loaded():
    return [m for m in LAZY if "romforge." + m in sys.modules]
def seen(step, code):
    return [step, code, "scipy" in sys.modules, loaded(),
            "numpy.ma" in sys.modules, "numpy.random" in sys.modules]
log = [seen("import", 0)]
for argv in {[steps[name] for name in names]!r}:
    log.append(seen(argv[0], romforge.cli.main(argv)))
print(json.dumps(log))
"""
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout.splitlines()[-1])

    assert chain("gen", "train", "predict", "eval") == [
        [step, 0, False, ["metrics"] if step == "eval" else [], False,
         step not in ("import", "gen")]
        for step in ("import", "gen", "train", "predict", "eval")]
    assert chain("predict", "eval") == [
        [step, 0, False, ["metrics"] if step == "eval" else [], False, False]
        for step in ("import", "predict", "eval")]
