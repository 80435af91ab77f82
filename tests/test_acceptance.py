"""Acceptance gate: eleven end-to-end checks at fixed tolerances.

Each check emits one ``criterion NN PASS`` / ``criterion NN FAIL`` line,
both inline and replayed in the terminal summary (see conftest), and
enforces a wall-clock budget. The full-pipeline checks share one 1080-node
dataset, its train/test split, and a trained POD-GPR surrogate.
"""

import functools
import json
import subprocess
import sys
import time
from types import SimpleNamespace

import numpy as np
import pytest

import conftest
from romforge.dataset import (
    MeshGeometry,
    generate_synthetic_dataset,
    load_snapshot_tensor,
    save_snapshot_tensor,
    split_dataset,
)
from romforge.gca import (
    GcaArchitecture,
    batch_loss,
    batch_loss_and_grads,
    build_graph,
    init_gca,
    init_params,
    load_gca,
    predict_gca,
    save_gca,
)
from romforge.gpr import (
    fit_gpr,
    log_marginal_likelihood,
    make_gpr,
    predict_gpr,
)
from romforge.metrics import max_displacement_error, relative_l2, time_predict
from romforge.optim import adamw_step, cosine_warm_restart_lr, init_adamw_state
from romforge.pod import compute_pod
from romforge.rom import load_rom, predict_distortion, save_rom, train_pod_gpr
from romforge.training import GcaTrainConfig, train_gca

TRAIN_DTS = [20.0, 25.0, 35.0, 40.0, 50.0, 55.0, 65.0, 70.0, 80.0]
TEST_DTS = [30.0, 45.0, 60.0, 75.0]
VAL_DTS = [30.0, 60.0]
GRID_DTS = [20.0 + 5.0 * i for i in range(13)]


def _announce(line):
    conftest.criterion_lines.append(line)
    sys.__stdout__.write(line + "\n")
    sys.__stdout__.flush()


def criterion(number, budget_seconds):
    """Time a check, enforce its runtime budget, print one PASS/FAIL line."""
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            started = time.perf_counter()
            try:
                fn(*args, **kwargs)
                elapsed = time.perf_counter() - started
                assert elapsed < budget_seconds, (
                    f"check took {elapsed:.1f}s, budget {budget_seconds}s"
                )
            except BaseException:
                _announce(f"criterion {number:02d} FAIL")
                raise
            _announce(f"criterion {number:02d} PASS ({elapsed:.2f}s)")
        return wrapper
    return decorate


def dir_bytes(root):
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.fixture(scope="module")
def protocol():
    """1080-node dataset on the 20..80 s grid plus a trained surrogate."""
    started = time.perf_counter()
    data = generate_synthetic_dataset(5, 24, 8, GRID_DTS, seed=0)
    train, test = split_dataset(data, TRAIN_DTS, TEST_DTS)
    rom = train_pod_gpr(train, seed=0)
    return SimpleNamespace(data=data, train=train, test=test, rom=rom,
                           setup_seconds=time.perf_counter() - started)


@criterion(1, 5.0)
def test_criterion_01_pod_matches_direct_svd():
    rng = np.random.default_rng(0)
    for _ in range(20):
        n = int(rng.integers(5, 65))
        m = int(rng.integers(3, 17))
        snaps = rng.normal(size=(n, m)) * float(rng.uniform(0.1, 100.0))
        basis = compute_pod(snaps, 1.0 - 1e-9)
        centered = snaps - snaps.mean(axis=1, keepdims=True)
        u, s, _ = np.linalg.svd(centered, full_matrices=False)
        r = basis.rank
        np.testing.assert_allclose(basis.singular_values[:r], s[:r],
                                   rtol=1e-8, atol=1e-8 * s[0])
        for j in range(r):
            oracle = u[:, j] * np.sign(u[:, j] @ basis.modes[:, j])
            np.testing.assert_allclose(basis.modes[:, j], oracle, atol=1e-8)


@criterion(2, 1.0)
def test_criterion_02_energy_rank_is_minimal():
    rng = np.random.default_rng(1)
    synth = generate_synthetic_dataset(2, 4, 3,
                                       [20.0, 35.0, 50.0, 65.0, 80.0], seed=1)
    cases = (
        rng.normal(size=(40, 12)),
        np.hstack([m.values for m in synth.matrices]),
    )
    for snaps in cases:
        centered = snaps - snaps.mean(axis=1, keepdims=True)
        s = np.linalg.svd(centered, compute_uv=False)
        s = s[s > 1e-8 * s[0]]
        energy = np.cumsum(s**2) / np.sum(s**2)
        assert np.all(np.diff(energy) > 0.0)
        for threshold in (0.9, 0.99, 0.9999):
            rank = compute_pod(snaps, threshold).rank
            assert energy[rank - 1] >= threshold
            assert rank == 1 or energy[rank - 2] < threshold


@criterion(3, 5.0)
def test_criterion_03_gpr_matches_dense_oracle():
    rng = np.random.default_rng(2)
    for n in range(2, 9):
        x = np.sort(rng.uniform(0.0, 1.0, size=n))
        y = rng.normal(size=n)
        sv = float(10.0 ** rng.uniform(-1.0, 1.0))
        # keep the dense reference itself well-conditioned
        ls = float(10.0 ** rng.uniform(-1.0, -0.5))
        jitter = 1e-8
        model = make_gpr(x, y, sv, ls, jitter)
        gram = sv * np.exp(-0.5 * (x[:, None] - x[None, :])**2 / ls**2)
        regularized = gram + jitter * np.eye(n)
        alpha = np.linalg.solve(regularized, y - y.mean())
        for q in rng.uniform(-0.5, 1.5, size=7):
            k_star = sv * np.exp(-0.5 * (q - x)**2 / ls**2)
            (mean,), (variance,) = predict_gpr(model, q)
            assert mean[0] == pytest.approx(
                y.mean() + k_star @ alpha, abs=1e-8)
            assert variance[0] == pytest.approx(
                sv + jitter - k_star @ np.linalg.solve(regularized, k_star),
                abs=1e-8)

    # near-interpolation through well-conditioned kernels at tiny jitter
    x9 = (np.array(TRAIN_DTS) - 20.0) / 60.0
    families = (
        0.08 + 0.12 * np.exp(-np.array(TRAIN_DTS) / 30.0),
        np.sin(2.0 * np.pi * x9),
    )
    for y9 in families:
        for ls in (0.1, 0.2):
            near = make_gpr(x9, y9, float(np.var(y9)), ls, 1e-10)
            for xi, yi in zip(x9, y9):
                assert abs(predict_gpr(near, xi)[0][0, 0] - yi) <= 1e-6

    # posterior variance stays inside its prior bounds on a dense sweep
    fitted = fit_gpr(x9, families[0], restarts=8, seed=0)
    cap = fitted.signal_variance[0] + fitted.noise_jitter[0] + 1e-10
    for q in np.linspace(-1.0, 2.0, 1000):
        variance = predict_gpr(fitted, float(q))[1][0, 0]
        assert 0.0 <= variance <= cap


@criterion(4, 30.0)
def test_criterion_04_fitted_likelihood_dominates_random_draws():
    rng = np.random.default_rng(42)
    for ds in range(10):
        x = np.sort(rng.uniform(0.0, 1.0, size=9))
        y = np.cumsum(rng.normal(size=9)) * 0.1
        fitted = fit_gpr(x, y, restarts=8, seed=ds)
        best = log_marginal_likelihood(fitted)[0]
        var = float(np.var(y))
        draws = np.random.default_rng(100 + ds)
        for _ in range(20):
            other = make_gpr(x, y, var * 10.0 ** draws.uniform(-2.0, 2.0),
                             10.0 ** draws.uniform(-2.0, 1.0),
                             fitted.noise_jitter)
            assert best >= log_marginal_likelihood(other)[0] - 1e-9


@criterion(5, 60.0)
def test_criterion_05_end_to_end_protocol(protocol):
    eval_started = time.perf_counter()
    assert protocol.data.n_nodes >= 1000
    assert protocol.data.n_steps >= 8
    for dt in TEST_DTS:
        truth = protocol.test.matrix_for(dt).final_field
        pred = predict_distortion(protocol.rom, dt).mean_field
        assert relative_l2(pred, truth) <= 0.02
        assert max_displacement_error(pred, truth)["delta"] <= 1e-3
    total = protocol.setup_seconds + time.perf_counter() - eval_started
    assert total < 60.0, f"generate+train+evaluate took {total:.1f}s"


@criterion(6, 10.0)
def test_criterion_06_prediction_latency(protocol):
    assert protocol.rom.basis.n_nodes <= 5000
    timing = time_predict(lambda dt: predict_distortion(protocol.rom, dt),
                          TEST_DTS, repeats=5)
    assert timing < 0.1


@criterion(7, 30.0)
def test_criterion_07_gca_gradients_match_finite_differences():
    rng = np.random.default_rng(11)
    n = 12
    edges = sorted({tuple(sorted(p)) for p in rng.integers(0, n, (20, 2))
                    if p[0] != p[1]})
    mesh = MeshGeometry(rng.normal(size=(n, 3)), np.arange(n) % 3,
                        np.array(edges, dtype=np.int64))
    graph = build_graph(mesh)
    arch = GcaArchitecture(n_nodes=n, enc_widths=(4, 5), latent_dim=3,
                           fc_width=4)
    params = init_params(arch, seed=2)
    inputs = rng.normal(size=(3, n))
    targets = inputs + 0.1 * rng.normal(size=(3, n))
    t = rng.uniform(0.0, 1.0, size=3)
    lam = 0.5

    _, _, _, grads = batch_loss_and_grads(params, graph, inputs, targets, t,
                                          lam)
    step = 1e-6
    for name, tensor in params.items():
        flat = tensor.reshape(-1)
        picked = rng.choice(flat.size, size=min(6, flat.size), replace=False)
        for i in picked:
            saved = flat[i]
            flat[i] = saved + step
            up = batch_loss(params, graph, inputs, targets, t, lam)
            flat[i] = saved - step
            down = batch_loss(params, graph, inputs, targets, t, lam)
            flat[i] = saved
            fd = (up - down) / (2.0 * step)
            analytic = grads[name].reshape(-1)[i]
            assert analytic == pytest.approx(fd, rel=1e-4, abs=1e-10), name


@criterion(8, 60.0)
def test_criterion_08_training_mechanics():
    # a single sample can be driven three orders of magnitude down
    single = generate_synthetic_dataset(2, 4, 3, [40.0], seed=0)
    graph = build_graph(single.mesh)
    config = GcaTrainConfig(lam=0.0, noise_sigma=0.0, weight_decay=0.0,
                            lr_max=2e-2, lr_min=1e-5, warm_restart_t0=300,
                            max_epochs=3000, patience=3000, seed=0)
    _, history = train_gca(single, None, graph, config)
    assert min(h.l_rec for h in history) < 1e-3 * history[0].l_rec

    # early stopping hands back the best-validation weights
    full = generate_synthetic_dataset(2, 4, 3, [20.0, 40.0, 60.0, 80.0, 50.0],
                                      seed=0)
    train, val = split_dataset(full, [20.0, 40.0, 60.0, 80.0], [50.0])
    stop_cfg = GcaTrainConfig(noise_sigma=0.0, max_epochs=60, patience=10)
    model, stop_hist = train_gca(train, val, graph, stop_cfg)
    fields = val.final_fields().T.copy()
    ts = model.input_norm.apply(np.array(val.dwell_times))
    revalidated = batch_loss(model.params, graph, fields, fields, ts,
                             stop_cfg.lam)
    assert revalidated == min(h.val_loss for h in stop_hist)

    # cosine schedule endpoints
    assert cosine_warm_restart_lr(0.0, 1e-3, 1e-5, 50, 2) == 1e-3
    assert cosine_warm_restart_lr(50.0, 1e-3, 1e-5, 50, 2) == 1e-3
    assert abs(cosine_warm_restart_lr(50.0 - 1e-6, 1e-3, 1e-5, 50, 2)
               - 1e-5) < 1e-12
    assert abs(cosine_warm_restart_lr(150.0 - 1e-6, 1e-3, 1e-5, 50, 2)
               - 1e-5) < 1e-12

    # exact scalar optimizer updates
    params = {"w": np.array([0.0])}
    state = init_adamw_state(params)
    adamw_step(params, {"w": np.array([1.0])}, state, lr=0.1, weight_decay=0.0)
    assert params["w"][0] == -(0.1 * 1.0 / (1.0 + 1e-8))
    decayed = {"w": np.array([1.0])}
    state = init_adamw_state(decayed)
    adamw_step(decayed, {"w": np.array([0.0])}, state, lr=0.1,
               weight_decay=0.1)
    assert decayed["w"][0] == 1.0 - (0.1 * 0.0 / (np.sqrt(0.0) + 1e-8)
                                     + 0.1 * 0.1 * 1.0)


@criterion(9, 300.0)
def test_criterion_09_pod_gpr_outpredicts_gca(protocol):
    graph = build_graph(protocol.data.mesh)
    val, _ = split_dataset(protocol.data, VAL_DTS, [])
    config = GcaTrainConfig(patience=50, max_epochs=400, seed=0)
    gca_model, _ = train_gca(protocol.train, val, graph, config)
    for dt in TEST_DTS:
        truth = protocol.test.matrix_for(dt).final_field
        rel_pod = relative_l2(predict_distortion(protocol.rom, dt).mean_field,
                              truth)
        rel_gca = relative_l2(predict_gca(gca_model, graph, dt), truth)
        assert rel_pod < rel_gca, f"dt {dt}: {rel_pod} vs {rel_gca}"


@criterion(10, 5.0)
def test_criterion_10_serialization_round_trips(protocol, tmp_path):
    # POD-GPR archive
    rom_dir = tmp_path / "rom"
    save_rom(protocol.rom, rom_dir)
    rom_back = load_rom(rom_dir)
    np.testing.assert_array_equal(rom_back.basis.modes,
                                  protocol.rom.basis.modes)
    np.testing.assert_array_equal(rom_back.basis.reference,
                                  protocol.rom.basis.reference)
    resaved = tmp_path / "rom_resaved"
    save_rom(rom_back, resaved)
    assert dir_bytes(rom_dir) == dir_bytes(resaved)
    for dt in (30.0, 75.0):
        first = predict_distortion(protocol.rom, dt)
        second = predict_distortion(rom_back, dt)
        np.testing.assert_allclose(second.mean_field, first.mean_field,
                                   rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(second.upper_95, first.upper_95,
                                   rtol=0.0, atol=1e-12)

    # GCA checkpoint
    small = generate_synthetic_dataset(2, 4, 2, [40.0], seed=3)
    graph = build_graph(small.mesh)
    arch = GcaArchitecture(n_nodes=small.n_nodes, enc_widths=(4, 4),
                           latent_dim=2, fc_width=4)
    model = init_gca(arch, training_dwell_times=(20.0, 80.0), seed=5)
    gca_dir = tmp_path / "gca"
    save_gca(model, small.mesh, gca_dir)
    model_back, mesh_back = load_gca(gca_dir)
    for name, tensor in model.params.items():
        np.testing.assert_array_equal(model_back.params[name], tensor)
    np.testing.assert_array_equal(mesh_back.node_coords,
                                  small.mesh.node_coords)
    gca_resaved = tmp_path / "gca_resaved"
    save_gca(model_back, mesh_back, gca_resaved)
    assert dir_bytes(gca_dir) == dir_bytes(gca_resaved)
    np.testing.assert_allclose(
        predict_gca(model_back, build_graph(mesh_back), 45.0),
        predict_gca(model, graph, 45.0), rtol=0.0, atol=1e-12,
    )

    # snapshot tensor
    tensor_dir = tmp_path / "tensor"
    save_snapshot_tensor(small, tensor_dir)
    tensor_back = load_snapshot_tensor(tensor_dir)
    for original, reloaded in zip(small.matrices, tensor_back.matrices):
        np.testing.assert_array_equal(reloaded.values, original.values)
    tensor_resaved = tmp_path / "tensor_resaved"
    save_snapshot_tensor(tensor_back, tensor_resaved)
    assert dir_bytes(tensor_dir) == dir_bytes(tensor_resaved)


@criterion(11, 120.0)
def test_criterion_11_cli_chain_is_deterministic(tmp_path):
    reports = []
    for run in ("first", "second"):
        root = tmp_path / run
        data, model, plots = root / "data", root / "model", root / "plots"
        for argv in (
            ["gen", "--out", str(data), "--dwell-times", "20:80:10",
             "--layers", "8", "--radial", "4", "--theta", "12",
             "--seed", "7"],
            ["train", "--model", "pod-gpr", "--data", str(data),
             "--out", str(model), "--seed", "7"],
            ["eval", "--model-dir", str(model), "--data", str(data),
             "--test", "30,50", "--plots", str(plots)],
        ):
            proc = subprocess.run(
                [sys.executable, "-m", "romforge.cli", *argv],
                capture_output=True, text=True,
            )
            assert proc.returncode == 0, proc.stderr
            json.loads(proc.stdout)
        reports.append((plots / "report.json").read_bytes())
    assert reports[0] == reports[1]
