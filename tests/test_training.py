"""Optimizer arithmetic, learning-rate schedule, and the training loop.

Single AdamW steps are asserted bit-for-bit on values whose arithmetic is
exact, and 50-step runs against a textbook reference kept in this file;
training-loop behavior is pinned through tiny synthetic datasets that run in
seconds.
"""

import csv
import math
import tracemalloc

import numpy as np
import pytest

from romforge.dataset import generate_synthetic_dataset, split_dataset
from romforge.errors import ConfigurationError, NumericalError
from romforge.gca import (
    GcaArchitecture,
    batch_loss,
    batch_loss_and_grads,
    build_graph,
    init_params,
)
from romforge.optim import (
    BLOCK,
    adamw_step,
    cosine_warm_restart_lr,
    init_adamw_state,
)
from romforge.rom import train_pod_gpr
from romforge.training import (
    EpochRecord,
    GcaTrainConfig,
    train_gca,
    write_history_csv,
)


# ------------------------------------------------------------------ adamw ---


def test_first_step_with_unit_gradient():
    params = np.array([0.0])
    state = init_adamw_state(params)
    adamw_step(params, np.array([1.0]), state, lr=0.1, weight_decay=0.0)
    # bias correction makes m_hat = v_hat = 1 on step one, so the update is
    # exactly lr / (1 + eps)
    assert params[0] == -(0.1 * 1.0 / (1.0 + 1e-8))
    assert state["t"] == 1


def test_pure_decoupled_decay():
    params = np.array([1.0])
    state = init_adamw_state(params)
    adamw_step(params, np.array([0.0]), state, lr=0.1, weight_decay=0.1)
    expected = 1.0 - (0.1 * 0.0 / (np.sqrt(0.0) + 1e-8) + 0.1 * 0.1 * 1.0)
    assert params[0] == expected
    assert params[0] == pytest.approx(0.99, rel=1e-14)


def test_hundred_steps_shrink_a_quadratic():
    params = np.array([1.0])
    state = init_adamw_state(params)
    for _ in range(100):
        adamw_step(params, 2.0 * params, state, lr=0.1, weight_decay=0.0)
    assert abs(params[0]) < 0.05
    assert state["t"] == 100


def test_step_counter_is_shared_across_parameters():
    # two parameters, a (2,) and a (2, 2), laid out in one vector
    params = np.zeros(6)
    state = init_adamw_state(params)
    grads = np.ones(6)
    adamw_step(params, grads, state, lr=0.01, weight_decay=1e-4)
    adamw_step(params, grads, state, lr=0.01, weight_decay=1e-4)
    assert state["t"] == 2
    # identical gradients everywhere must move every entry identically
    assert np.unique(params).size == 1


def test_update_is_in_place():
    # a view is stepped in the buffer it views, as training's flat weights
    # are stepped under the tensors that view them
    buffer = np.array([7.0, 0.5, -0.5, 7.0])
    state = init_adamw_state(buffer[1:3])
    adamw_step(buffer[1:3], np.ones(2), state, lr=0.1, weight_decay=1e-4)
    assert buffer[0] == buffer[3] == 7.0
    assert np.all(buffer[1:3] != [0.5, -0.5])
    # only a flat vector is stepped: a tensor, a dict of tensors or a
    # gradient of another shape is refused
    for params, grads in ((np.zeros((4, 2)), np.ones((4, 2))),
                          ({"w": np.zeros(2)}, {"w": np.ones(2)}),
                          (np.zeros(3), np.ones(4))):
        with pytest.raises(ConfigurationError, match="1-D"):
            adamw_step(params, grads, init_adamw_state(np.zeros(3)),
                       lr=0.1, weight_decay=0.0)


def textbook_adamw(start, grads, lrs, beta1, beta2, eps, weight_decay):
    """Yield the parameters after each step of AdamW as Loshchilov & Hutter
    write it, with fresh arrays and the bias-corrected moments spelled out."""
    p, m, v = start, np.zeros_like(start), np.zeros_like(start)
    for t, (g, lr) in enumerate(zip(grads, lrs), start=1):
        m = beta1 * m + (1.0 - beta1) * g
        v = beta2 * v + (1.0 - beta2) * g * g
        m_hat = m / (1.0 - beta1 ** t)
        v_hat = v / (1.0 - beta2 ** t)
        p = p - lr * m_hat / (np.sqrt(v_hat) + eps) - lr * weight_decay * p
        yield p


@pytest.mark.parametrize("weight_decay", [0.0, 1e-2])
def test_adamw_tracks_the_textbook_reference(weight_decay):
    rng = np.random.default_rng(29)
    start = rng.normal(size=(40, 3))
    grads = rng.normal(size=(50, 40, 3)) * rng.uniform(1e-3, 1e3, (50, 1, 1))
    lrs = rng.uniform(1e-3, 1e-1, 50)
    params = start.ravel().copy()
    state = init_adamw_state(params)
    reference = textbook_adamw(start, grads, lrs, 0.9, 0.999, 1e-8,
                               weight_decay)
    for g, lr, want in zip(grads, lrs, reference):
        adamw_step(params, g.ravel(), state, lr=lr, weight_decay=weight_decay)
        gap = np.abs(params.reshape(40, 3) - want).max()
        assert gap <= 1e-14 * np.abs(want).max()
    assert state["t"] == 50


def test_adamw_step_allocates_no_parameter_sized_array():
    params = np.ones(100_007)
    grads = np.full_like(params, 0.5)
    state = init_adamw_state(params)
    adamw_step(params, grads, state, lr=1e-3, weight_decay=1e-4)
    tracemalloc.start()
    try:
        adamw_step(params, grads, state, lr=1e-3, weight_decay=1e-4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < params.nbytes


def whole_array_adamw(params, grads, state, lr, weight_decay):
    """adamw_step's 14 operations, each over the whole vector."""
    state["t"] += 1
    bc1 = 1.0 - 0.9 ** state["t"]
    bc2 = 1.0 - 0.999 ** state["t"]
    p, g, m, v = params, grads, state["m"], state["v"]
    s = np.empty_like(p)
    m *= 0.9
    m += np.multiply(g, 1.0 - 0.9, out=s)
    v *= 0.999
    v += np.multiply(np.multiply(g, 1.0 - 0.999, out=s), g, out=s)
    np.sqrt(np.divide(v, bc2, out=s), out=s)
    s += 1e-8
    np.divide(m, s, out=s)
    s *= lr / bc1
    p *= 1.0 - lr * weight_decay
    p -= s


def test_blocked_adamw_is_the_whole_array_update_bit_for_bit():
    # the vector spans two full blocks and a partial one
    rng = np.random.default_rng(31)
    size = 2 * (BLOCK + 617) + 7
    blocked = rng.normal(size=size)
    whole = blocked.copy()
    state = init_adamw_state(blocked)
    reference = {"t": 0, "m": np.zeros(size), "v": np.zeros(size)}
    for lr in rng.uniform(1e-3, 1e-1, 6):
        grads = rng.normal(size=size) * rng.uniform(1e-3, 1e3)
        adamw_step(blocked, grads, state, lr=lr, weight_decay=1e-2)
        whole_array_adamw(whole, grads, reference, lr=lr, weight_decay=1e-2)
        assert blocked.tobytes() == whole.tobytes()
        for moment in ("m", "v"):
            assert state[moment].tobytes() == reference[moment].tobytes()


def test_adamw_state_is_moments_and_one_block_of_scratch():
    params = np.ones(3 * BLOCK + 7)
    state = init_adamw_state(params)
    assert set(state) == {"t", "m", "v", "scratch"}
    assert state["scratch"].shape == (BLOCK,)
    for moment in (state["m"], state["v"]):
        np.testing.assert_array_equal(moment, np.zeros_like(params))


def test_a_warmed_training_step_allocates_almost_nothing():
    # at 1,080 nodes one step (loss and gradients into the training
    # workspace, the AdamW update, the validation loss into its own
    # workspace) used to churn ~21.5 MB of activations; once the
    # workspaces are made, a step allocates only small arrays
    data = generate_synthetic_dataset(5, 24, 8, [20.0, 50.0], seed=0)
    graph = build_graph(data.mesh)
    rng = np.random.default_rng(3)
    x, t = rng.normal(size=(9, graph.n_nodes)), np.linspace(0.0, 1.0, 9)
    v, vt = rng.normal(size=(2, graph.n_nodes)), np.array([0.2, 0.7])
    arch = GcaArchitecture(n_nodes=graph.n_nodes)
    flat = np.zeros(arch.n_params)
    params = init_params(arch, seed=0, out=flat)
    state = init_adamw_state(flat)
    train_ws, val_ws = {}, {}

    def step():
        batch_loss_and_grads(params, graph, x, x, t, 0.5, train_ws)
        adamw_step(flat, train_ws["grad"], state, lr=1e-3, weight_decay=1e-4)
        batch_loss(params, graph, v, v, vt, 0.5, val_ws)

    step()
    tracemalloc.start()
    try:
        step()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


# --------------------------------------------------------------- schedule ---


def test_schedule_endpoint_values():
    assert cosine_warm_restart_lr(0.0, 1e-3, 1e-5, 50, 2) == 1e-3
    # just before the first restart the lr has annealed to lr_min
    assert cosine_warm_restart_lr(50.0 - 1e-9, 1e-3, 1e-5, 50, 2) == (
        pytest.approx(1e-5, abs=1e-12)
    )


def test_schedule_restart_boundaries():
    # t0=10, mult=2: periods [0,10), [10,30), [30,70)
    for boundary in (10.0, 30.0):
        assert cosine_warm_restart_lr(boundary, 1.0, 0.0, 10, 2) == 1.0
    assert cosine_warm_restart_lr(20.0, 1.0, 0.0, 10, 2) == pytest.approx(0.5)
    # halfway through the third period
    assert cosine_warm_restart_lr(50.0, 1.0, 0.0, 10, 2) == pytest.approx(0.5)


def test_schedule_constant_period_when_mult_is_one():
    for boundary in (10.0, 20.0, 30.0):
        assert cosine_warm_restart_lr(boundary, 1.0, 0.0, 10, 1) == 1.0


def test_schedule_validates_inputs():
    with pytest.raises(ConfigurationError):
        cosine_warm_restart_lr(-1.0, 1.0, 0.0, 10, 2)
    with pytest.raises(ConfigurationError):
        cosine_warm_restart_lr(0.0, 1.0, 0.0, 0, 2)
    with pytest.raises(ConfigurationError):
        cosine_warm_restart_lr(0.0, 1.0, 0.0, 10, 0)


# ----------------------------------------------------------------- config ---


def test_config_validation():
    GcaTrainConfig()  # defaults are valid
    with pytest.raises(ConfigurationError):
        GcaTrainConfig(lam=-0.1)
    with pytest.raises(ConfigurationError):
        GcaTrainConfig(lr_max=1e-5, lr_min=1e-3)
    with pytest.raises(ConfigurationError):
        GcaTrainConfig(patience=0)
    with pytest.raises(ConfigurationError):
        GcaTrainConfig(noise_sigma=-1.0)
    with pytest.raises(ConfigurationError):
        GcaTrainConfig(warm_restart_t0=0)


@pytest.mark.parametrize("name", ["lr_max", "lr_min", "weight_decay",
                                  "noise_sigma"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_config_rejects_non_finite_floats(name, value):
    with pytest.raises(ConfigurationError, match=f"{name} must be finite"):
        GcaTrainConfig(**{name: value})


# ---------------------------------------------------------------- training ---


@pytest.fixture(scope="module")
def tiny():
    data = generate_synthetic_dataset(2, 4, 3, [40.0], seed=0)
    return data, build_graph(data.mesh)


def test_overfit_single_sample(tiny):
    data, graph = tiny
    config = GcaTrainConfig(
        lam=0.0, noise_sigma=0.0, weight_decay=0.0,
        lr_max=2e-2, lr_min=1e-5, warm_restart_t0=300,
        max_epochs=3000, patience=3000, seed=0,
    )
    _, history = train_gca(data, None, graph, config)
    initial = history[0].l_rec
    assert min(h.l_rec for h in history) < 1e-3 * initial


def test_frozen_weights_trip_patience_immediately(tiny):
    data, graph = tiny
    config = GcaTrainConfig(lr_max=0.0, lr_min=0.0, noise_sigma=0.0,
                            patience=1, max_epochs=50)
    _, history = train_gca(data, None, graph, config)
    # epoch 0 sets the best loss; epoch 1 cannot improve on it and the
    # patience budget of one bad epoch is spent
    assert len(history) == 2
    assert history[0].train_loss == history[1].train_loss


def test_training_is_deterministic(tiny):
    data, graph = tiny
    config = GcaTrainConfig(max_epochs=20, patience=20)
    model_a, hist_a = train_gca(data, None, graph, config)
    model_b, hist_b = train_gca(data, None, graph, config)
    assert hist_a == hist_b
    for name in model_a.params:
        np.testing.assert_array_equal(model_a.params[name],
                                      model_b.params[name])


def test_best_validation_weights_are_returned():
    full = generate_synthetic_dataset(2, 4, 3, [20.0, 40.0, 60.0, 80.0, 50.0],
                                      seed=0)
    train, val = split_dataset(full, [20.0, 40.0, 60.0, 80.0], [50.0])
    graph = build_graph(full.mesh)
    config = GcaTrainConfig(noise_sigma=0.0, max_epochs=60, patience=60)
    model, history = train_gca(train, val, graph, config)

    fields = val.final_fields().T.copy()
    ts = model.input_norm.apply(np.array(val.dwell_times))
    revalidated = batch_loss(model.params, graph, fields, fields, ts,
                             config.lam)
    assert revalidated == min(h.val_loss for h in history)


def test_training_leaves_no_final_field_cached():
    # both trainers copy every last column anyway; only evaluation's
    # matrix_for(dt).final_field keeps a copy on its matrix
    train = generate_synthetic_dataset(2, 4, 3, [20.0, 50.0, 80.0], seed=0)
    train_pod_gpr(train, seed=0)
    train_gca(train, None, build_graph(train.mesh),
              GcaTrainConfig(noise_sigma=0.0, max_epochs=2, patience=2))
    assert not any("final_field" in vars(m) for m in train.matrices)


def test_best_training_weights_are_returned(tiny):
    # without validation the monitored loss is each epoch's training loss,
    # which belongs to the weights before that epoch's step
    data, graph = tiny
    config = GcaTrainConfig(noise_sigma=0.0, lr_max=0.05, lr_min=0.05,
                            max_epochs=40, patience=40)
    model, history = train_gca(data, None, graph, config)
    losses = [h.train_loss for h in history]
    assert len(history) == 40 and losses.index(min(losses)) < 39

    fields = data.final_fields().T.copy()
    ts = model.input_norm.apply(np.array(data.dwell_times))
    assert batch_loss(model.params, graph, fields, fields, ts,
                      config.lam) == min(losses)


@pytest.mark.filterwarnings("error")
def test_divergence_names_epoch_and_lr(tiny):
    # the loss check reports the divergence; NumPy's overflow warnings
    # stay quiet
    data, graph = tiny
    config = GcaTrainConfig(lr_max=1e12, lr_min=1e12, noise_sigma=0.0,
                            max_epochs=50)
    with pytest.raises(NumericalError, match=r"epoch \d+"):
        train_gca(data, None, graph, config)


def test_node_count_mismatch_is_rejected(tiny):
    data, _ = tiny
    other = generate_synthetic_dataset(2, 5, 3, [40.0], seed=0)
    with pytest.raises(ConfigurationError, match="graph has"):
        train_gca(data, None, build_graph(other.mesh), GcaTrainConfig())
    with pytest.raises(ConfigurationError, match="validation fields"):
        train_gca(data, other, build_graph(data.mesh), GcaTrainConfig())


def test_history_records_schedule_and_losses(tiny):
    data, graph = tiny
    config = GcaTrainConfig(noise_sigma=0.0, max_epochs=12, patience=12,
                            warm_restart_t0=5, lr_max=1e-3, lr_min=1e-5)
    _, history = train_gca(data, None, graph, config)
    assert [h.epoch for h in history] == list(range(12))
    for h in history:
        assert h.lr == cosine_warm_restart_lr(h.epoch, 1e-3, 1e-5, 5,
                                              config.warm_restart_mult)
        assert h.train_loss == pytest.approx(h.l_rec + config.lam * h.l_param)
        assert math.isnan(h.val_loss)


# ------------------------------------------------------------ history csv ---


def test_history_csv_round_trip(tmp_path):
    history = [
        EpochRecord(epoch=0, lr=1e-3, train_loss=0.5, val_loss=0.6,
                    l_rec=0.4, l_param=0.2),
        EpochRecord(epoch=1, lr=9.7e-4, train_loss=1.0 / 3.0,
                    val_loss=float("nan"), l_rec=0.3, l_param=1.0 / 15.0),
    ]
    path = tmp_path / "history.csv"
    write_history_csv(history, path)

    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["epoch", "lr", "train_loss", "val_loss", "l_rec",
                       "l_param"]
    assert len(rows) == 3
    for row, record in zip(rows[1:], history):
        assert int(row[0]) == record.epoch
        assert float(row[1]) == record.lr
        assert float(row[2]) == record.train_loss  # repr round-trips exactly
        assert float(row[4]) == record.l_rec
        assert float(row[5]) == record.l_param
    assert math.isnan(float(rows[2][3]))
