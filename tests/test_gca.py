"""Autoencoder forward/backward checks against dense oracles.

The backward pass is validated by central finite differences; the forward
pass by a from-scratch dense reimplementation. Structural facts (permutation
equivariance, loss decomposition, which gradients a loss term can touch) are
asserted exactly.
"""

import json
import math

import numpy as np
import pytest

import romforge.gca as gca
from romforge.dataset import (
    ARCHIVE_VERSION,
    MeshGeometry,
    generate_synthetic_dataset,
    read_snapshot_bin,
)
from romforge.errors import ConfigurationError, DataError
from romforge.gca import (
    GcaArchitecture,
    GcaModel,
    _decode,
    _elu_grad,
    _forward_batch,
    batch_loss,
    batch_loss_and_grads,
    build_graph,
    elu,
    init_gca,
    init_params,
    load_gca,
    predict_gca,
    save_gca,
)


def single_node_mesh():
    return MeshGeometry(
        np.zeros((1, 3)), np.zeros(1, dtype=np.int64),
        np.zeros((0, 2), dtype=np.int64),
    )


def pair_mesh():
    return MeshGeometry(
        np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]),
        np.zeros(2, dtype=np.int64),
        np.array([[0, 1]], dtype=np.int64),
    )


def dense_elu(v):
    return np.where(v > 0, v, np.expm1(np.minimum(v, 0.0)))


def forward_one(params, graph, x, t):
    """Run one field through the batched pass; returns (x_hat, z, z_p)."""
    x_hat, z, z_p, _ = _forward_batch(params, graph, x[:, None, None],
                                      np.array([[t]]))
    return x_hat[:, 0, 0], z[0], z_p[0]


@pytest.fixture(scope="module")
def irregular():
    """A small random graph plus a seeded parameter set."""
    rng = np.random.default_rng(11)
    n = 12
    edges = sorted({tuple(sorted(p)) for p in rng.integers(0, n, (20, 2))
                    if p[0] != p[1]})
    mesh = MeshGeometry(rng.normal(size=(n, 3)), np.arange(n) % 3,
                        np.array(edges, dtype=np.int64))
    graph = build_graph(mesh)
    arch = GcaArchitecture(n_nodes=n, enc_widths=(4, 5), latent_dim=3,
                           fc_width=4)
    return mesh, graph, arch, init_params(arch, seed=2)


# ----------------------------------------------------------------- graph ---


def test_single_node_graph_is_identity():
    graph = build_graph(single_node_mesh())
    np.testing.assert_array_equal(graph.adjacency_norm.toarray(), [[1.0]])


def test_two_node_graph_is_all_halves():
    graph = build_graph(pair_mesh())
    np.testing.assert_allclose(
        graph.adjacency_norm.toarray(), [[0.5, 0.5], [0.5, 0.5]], atol=1e-15
    )


def test_cylinder_graph_normalization():
    mesh = generate_synthetic_dataset(3, 6, 4, [40.0], seed=0).mesh
    graph = build_graph(mesh)
    a = graph.adjacency_norm.toarray()
    np.testing.assert_allclose(a, a.T, atol=1e-14)
    assert np.all(a >= 0.0)
    row_sums = a.sum(axis=1)
    assert np.all(row_sums > 0.0)
    # rows touching lower-degree neighbors may sum slightly above one; the
    # contraction property lives in the spectrum, which stays within [-1, 1]
    assert row_sums.max() <= np.sqrt(7.0 / 5.0)
    eigvals = np.linalg.eigvalsh(a)
    assert eigvals.min() >= -1.0 - 1e-10
    assert eigvals.max() <= 1.0 + 1e-10
    # every self-loop contributes exactly 1/deg on the diagonal
    degrees = np.diff(graph.adjacency_norm.indptr)
    np.testing.assert_allclose(np.diag(a), 1.0 / degrees, atol=1e-14)


# ------------------------------------------------------------- conv layer ---


def test_gc_layer_single_node_identity_weights():
    # on one node A_hat = [[1]], so with identity weights and zero biases
    # each decoder convolution is its activation applied to its input
    graph = build_graph(single_node_mesh())
    arch = GcaArchitecture(n_nodes=1, enc_widths=(2, 2), latent_dim=1,
                           fc_width=1)
    params = {name: np.zeros(shape) for name, shape in arch.param_shapes()}
    feats = np.array([-1.3, 0.7])
    params["dec_head_b"] = feats          # the seed features of the node
    params["dec_gc1_w"] = np.eye(2)
    params["dec_gc2_w"] = np.array([[1.0], [0.0]])
    model = GcaModel(arch=arch, params=params,
                     training_dwell_times=(0.0, 1.0), seed=0)
    np.testing.assert_allclose(predict_gca(model, graph, 0.5),
                               elu(elu(feats))[:1], atol=1e-15)


@pytest.mark.parametrize("seed", [-1, 1.0, True, None, "0"])
def test_model_seed_must_be_a_non_negative_int(seed):
    arch = GcaArchitecture(n_nodes=1, enc_widths=(2, 2), latent_dim=1,
                           fc_width=1)
    params = {name: np.zeros(shape) for name, shape in arch.param_shapes()}
    with pytest.raises(ConfigurationError, match="seed"):
        GcaModel(arch=arch, params=params, training_dwell_times=(0.0, 1.0),
                 seed=seed)


def test_gc_layer_zero_everything_is_zero():
    graph = build_graph(pair_mesh())
    arch = GcaArchitecture(n_nodes=2, enc_widths=(3, 4), latent_dim=2,
                           fc_width=2)
    zeros = {name: np.zeros(shape) for name, shape in arch.param_shapes()}
    x_hat, _, _, cache = _forward_batch(zeros, graph, np.zeros((2, 1, 1)),
                                        np.zeros((1, 1)))
    for key in ("ax", "h1", "ah1", "h2", "h4", "h5"):
        np.testing.assert_array_equal(cache[key], np.zeros_like(cache[key]),
                                      err_msg=key)
    np.testing.assert_array_equal(x_hat, np.zeros((2, 1, 1)))


def test_gc_layer_matches_dense_oracle(irregular):
    # every graph convolution of the batched pass, per sample, against a
    # dense A_hat @ H @ W + b with nonzero biases
    _, graph, _, params = irregular
    rng = np.random.default_rng(5)
    params = {k: v + rng.normal(size=v.shape) if k.endswith("_b") else v
              for k, v in params.items()}
    x = rng.normal(size=(graph.n_nodes, 2, 1))
    x_hat, _, _, cache = _forward_batch(params, graph, x,
                                        rng.uniform(size=(2, 1)))
    a_hat = graph.adjacency_norm.toarray()

    def conv(h, layer):
        return a_hat @ h @ params[layer + "_w"] + params[layer + "_b"]

    for i in range(2):
        seed = cache["h4"][i].reshape(graph.n_nodes, -1)
        for got, want in (
            (cache["h1"][:, i], dense_elu(conv(x[:, i], "enc_gc1"))),
            (cache["h2"][:, i], dense_elu(conv(cache["h1"][:, i], "enc_gc2"))),
            (cache["h5"][:, i], dense_elu(conv(seed, "dec_gc1"))),
            (x_hat[:, i], conv(cache["h5"][:, i], "dec_gc2")),
        ):
            np.testing.assert_allclose(got, want, atol=1e-12)


def counting_aggregate(monkeypatch):
    """Wrap ``gca._aggregate``; returns the list of the column count that
    each application of A_hat meets."""
    columns = []

    def counting(adj, feats, *args, **kwargs):
        columns.append(feats.size // feats.shape[0])
        return aggregate(adj, feats, *args, **kwargs)

    aggregate = gca._aggregate
    monkeypatch.setattr(gca, "_aggregate", counting)
    return columns


def test_each_convolution_aggregates_its_narrower_side(irregular,
                                                       monkeypatch):
    # the encoder aggregates before its weight product, the decoder after
    # it, so A_hat meets 1 and 16 columns per sample, never 32
    _, graph, _, _ = irregular
    arch = GcaArchitecture(n_nodes=graph.n_nodes)
    assert arch.enc_widths == (16, 32)
    model = init_gca(arch, seed=3)
    columns = counting_aggregate(monkeypatch)
    predict_gca(model, graph, 0.4)
    assert columns == [16, 1]

    b = 3
    columns.clear()
    x = np.random.default_rng(29).normal(size=(b, graph.n_nodes))
    batch_loss_and_grads(model.params, graph, x, x, np.linspace(0, 1, b),
                         0.5, {})
    # forward 1 + 16 + 16 + 1, backward 1 + 16 + 16 columns per sample
    assert columns == [b * w for w in (1, 16, 16, 1, 1, 16, 16)]
    assert sum(columns) == 67 * b


@pytest.mark.parametrize("columns", [1, 16, 144, 288])
def test_aggregate_into_a_buffer_is_the_sparse_product(columns):
    # _aggregate calls SciPy's private csr_matvec and csr_matvecs, the
    # kernels behind adj @ x, so that it can write into a buffer it owns:
    # this pins it to the public product, bit for bit, for a contiguous
    # input and a strided view alike
    data = generate_synthetic_dataset(3, 8, 4, [20.0, 40.0], seed=0)
    adj = build_graph(data.mesh).adjacency_norm
    n = adj.shape[0]
    wide = np.random.default_rng(columns).normal(size=(n, 2 * columns))
    ws = {"out": np.full((n, columns), np.nan)}  # a stale buffer is cleared
    for feats in (wide[:, :columns].copy(), wide[:, ::2]):
        got = gca._aggregate(adj, feats, ws, "out")
        assert np.shares_memory(got, ws["out"])
        assert got.tobytes() == (adj @ feats).tobytes()


def test_elu_values():
    assert elu(np.array([0.0]))[0] == 0.0
    assert elu(np.array([2.5]))[0] == 2.5
    assert elu(np.array([-1.0]))[0] == pytest.approx(np.expm1(-1.0))
    # large negative inputs saturate at -1 without overflow
    assert elu(np.array([-1e4]))[0] == pytest.approx(-1.0)


def elu_probe_values():
    rng = np.random.default_rng(31)
    spread = [rng.normal(scale=s, size=500)
              for s in (1e-300, 1e-12, 1e-6, 1.0, 30.0, 300.0)]
    return np.concatenate(
        spread + [[0.0, 1e-300, -1e-300, 700.0, -700.0, 5e-324, -1e4]])


def test_elu_is_bit_identical_to_the_where_form():
    x = elu_probe_values()
    np.testing.assert_array_equal(elu(x).view(np.uint64),
                                  dense_elu(x).view(np.uint64))


def test_elu_grad_from_the_activation_matches_exp():
    # measured in ulps of 1.0, the derivative's scale: for strongly negative
    # s, elu(s) + 1 cancels, and both sides lie within an ulp of 0
    x = elu_probe_values()
    gap = np.abs(_elu_grad(elu(x)) - np.exp(np.minimum(x, 0.0)))
    assert gap.max() <= 2.0 * np.spacing(1.0)


# ----------------------------------------------------------- forward pass ---


def test_zero_weights_give_zero_outputs(irregular):
    _, graph, arch, _ = irregular
    zeros = {name: np.zeros(shape) for name, shape in arch.param_shapes()}
    model = GcaModel(arch=arch, params=zeros,
                     training_dwell_times=(0.0, 1.0), seed=0)
    rng = np.random.default_rng(0)
    x_hat, z, z_p = forward_one(zeros, graph, rng.normal(size=graph.n_nodes),
                                0.4)
    np.testing.assert_array_equal(x_hat, np.zeros(graph.n_nodes))
    np.testing.assert_array_equal(z, np.zeros(arch.latent_dim))
    np.testing.assert_array_equal(z_p, np.zeros(arch.latent_dim))
    np.testing.assert_array_equal(
        predict_gca(model, graph, 0.4), np.zeros(graph.n_nodes)
    )


def test_forward_is_deterministic(irregular):
    _, graph, _, params = irregular
    x = np.random.default_rng(1).normal(size=graph.n_nodes)
    for a, b in zip(forward_one(params, graph, x, 0.3),
                    forward_one(params, graph, x, 0.3)):
        np.testing.assert_array_equal(a, b)


def permute_mesh(mesh: MeshGeometry, perm: np.ndarray):
    inverse = np.empty_like(perm)
    inverse[perm] = np.arange(perm.size)
    edges = inverse[mesh.edges]
    edges = np.sort(edges, axis=1)
    order = np.lexsort((edges[:, 1], edges[:, 0]))
    return MeshGeometry(mesh.node_coords[perm], mesh.layer_index[perm],
                        edges[order])


def test_encoder_is_permutation_invariant(irregular):
    # relabeling nodes (and the adjacency with them) cannot change the
    # pooled latent code; only node-resolved tensors reorder
    mesh, graph, _, params = irregular
    rng = np.random.default_rng(3)
    perm = rng.permutation(graph.n_nodes)
    graph_p = build_graph(permute_mesh(mesh, perm))
    x = rng.normal(size=graph.n_nodes)
    _, z, z_p = forward_one(params, graph, x, 0.6)
    _, z_moved, z_p_moved = forward_one(params, graph_p, x[perm], 0.6)
    np.testing.assert_allclose(z_moved, z, atol=1e-12)
    np.testing.assert_allclose(z_p_moved, z_p, atol=1e-12)


# ------------------------------------------------------------------ loss ---


def test_loss_trivial_cases(irregular):
    _, graph, arch, _ = irregular
    params = {name: np.zeros(shape) for name, shape in arch.param_shapes()}
    x = np.zeros((2, graph.n_nodes))
    t = np.array([0.1, 0.9])
    assert batch_loss(params, graph, x, x, t, 0.5) == 0.0
    # zero weights leave only biases: x_hat = dec_gc2_b, z = enc_head_b and
    # z_p = fc3_b
    params["dec_gc2_b"] = np.ones(1)
    params["enc_head_b"] = np.arange(float(arch.latent_dim))
    params["fc3_b"] = params["enc_head_b"] + 5.0
    assert batch_loss(params, graph, x, x, t, 0.0) == pytest.approx(1.0)
    # ones everywhere: mean-square 1 on both terms
    params["fc3_b"] = params["enc_head_b"] + 1.0
    assert batch_loss(params, graph, x, x, t, 0.5) == pytest.approx(1.5)


def test_loss_decomposition_is_exact(irregular):
    _, graph, _, params = irregular
    rng = np.random.default_rng(7)
    x = rng.normal(size=(3, graph.n_nodes))
    t = rng.uniform(size=3)
    for lam in (0.0, 0.25, 0.5, 2.0):
        loss, l_rec, l_param, _ = batch_loss_and_grads(
            params, graph, x, x, t, lam
        )
        assert loss == l_rec + lam * l_param


# -------------------------------------------------------------- gradients ---


def test_gradients_match_finite_differences(irregular):
    _, graph, arch, params = irregular
    params = {k: v.copy() for k, v in params.items()}
    rng = np.random.default_rng(13)
    x = rng.normal(size=(2, graph.n_nodes))
    target = x + 0.05 * rng.normal(size=x.shape)
    t = np.array([0.2, 0.9])
    lam = 0.5
    _, _, _, grads = batch_loss_and_grads(params, graph, x, target, t, lam)

    step = 1e-6
    for name in [n for n, _ in arch.param_shapes()]:
        flat = params[name].reshape(-1)
        for i in rng.choice(flat.size, size=min(5, flat.size), replace=False):
            saved = flat[i]
            flat[i] = saved + step
            up = batch_loss(params, graph, x, target, t, lam)
            flat[i] = saved - step
            down = batch_loss(params, graph, x, target, t, lam)
            flat[i] = saved
            fd = (up - down) / (2.0 * step)
            an = grads[name].reshape(-1)[i]
            assert an == pytest.approx(fd, rel=1e-4, abs=1e-10), name


def test_gradients_vanish_at_a_perfect_zero_fit(irregular):
    _, graph, arch, _ = irregular
    zeros = {name: np.zeros(shape) for name, shape in arch.param_shapes()}
    x = np.zeros((2, graph.n_nodes))
    loss, _, _, grads = batch_loss_and_grads(
        zeros, graph, x, x, np.array([0.1, 0.8]), 0.5
    )
    assert loss == 0.0
    for name, g in grads.items():
        np.testing.assert_array_equal(g, np.zeros_like(g), err_msg=name)


def test_decoder_gradients_ignore_the_latent_term(irregular):
    _, graph, _, params = irregular
    rng = np.random.default_rng(17)
    x = rng.normal(size=(2, graph.n_nodes))
    t = np.array([0.3, 0.7])
    _, _, _, g0 = batch_loss_and_grads(params, graph, x, x, t, 0.0)
    _, _, _, g1 = batch_loss_and_grads(params, graph, x, x, t, 0.7)
    for name in ("dec_head_w", "dec_head_b", "dec_gc1_w", "dec_gc1_b",
                 "dec_gc2_w", "dec_gc2_b"):
        np.testing.assert_array_equal(g0[name], g1[name], err_msg=name)
    # the parameter branch only feels the latent term, linearly in lam
    _, _, _, g2 = batch_loss_and_grads(params, graph, x, x, t, 0.35)
    np.testing.assert_array_equal(g0["fc3_w"], np.zeros_like(g0["fc3_w"]))
    np.testing.assert_allclose(g1["fc3_w"], 2.0 * g2["fc3_w"], rtol=1e-12)


def test_single_sample_backward_wrapper(irregular):
    _, graph, arch, params = irregular
    x = np.random.default_rng(19).normal(size=(1, graph.n_nodes))
    *_, grads = batch_loss_and_grads(params, graph, x, x, np.array([0.5]),
                                     0.5)
    assert set(grads) == {name for name, _ in arch.param_shapes()}
    for name, shape in arch.param_shapes():
        assert grads[name].shape == shape


# ------------------------------------------------------------ parameters ---


def test_init_params_glorot_bounds_and_determinism(irregular):
    _, _, arch, _ = irregular
    a = init_params(arch, seed=4)
    b = init_params(arch, seed=4)
    c = init_params(arch, seed=5)
    for name, shape in arch.param_shapes():
        assert a[name].shape == shape
        np.testing.assert_array_equal(a[name], b[name])
        if name.endswith("_b"):
            np.testing.assert_array_equal(a[name], np.zeros(shape))
        else:
            limit = np.sqrt(6.0 / (shape[0] + shape[1]))
            assert np.all(np.abs(a[name]) <= limit)
    assert any(not np.array_equal(a[n], c[n]) for n in a if n.endswith("_w"))


def test_predict_matches_dense_reimplementation(irregular):
    _, graph, arch, params = irregular
    model = GcaModel(arch=arch, params=params,
                     training_dwell_times=(20.0, 80.0), seed=2)
    dt = 47.0
    # independent dense-numpy walk through the parameter branch and decoder
    def act(v):
        return np.where(v > 0, v, np.expm1(np.minimum(v, 0.0)))

    a_hat = graph.adjacency_norm.toarray()
    tt = (dt - 20.0) / 60.0
    a1 = act(np.array([[tt]]) @ params["fc1_w"] + params["fc1_b"])
    a2 = act(a1 @ params["fc2_w"] + params["fc2_b"])
    z_p = a2 @ params["fc3_w"] + params["fc3_b"]
    seed_feats = act(z_p @ params["dec_head_w"] + params["dec_head_b"])
    seed_feats = seed_feats.reshape(graph.n_nodes, -1)
    h5 = act(a_hat @ seed_feats @ params["dec_gc1_w"] + params["dec_gc1_b"])
    expected = (a_hat @ h5 @ params["dec_gc2_w"] + params["dec_gc2_b"])[:, 0]

    np.testing.assert_allclose(predict_gca(model, graph, dt), expected,
                               atol=1e-12)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("dt", [math.nan, math.inf, -math.inf])
def test_predict_rejects_a_non_finite_dwell_time(irregular, dt):
    # NaN gave an all-NaN field, and +-inf an "invalid value" warning
    _, graph, arch, params = irregular
    model = GcaModel(arch=arch, params=params,
                     training_dwell_times=(20.0, 80.0), seed=2)
    with pytest.raises(ConfigurationError, match="finite"):
        predict_gca(model, graph, dt)


def test_predict_agrees_with_forward_decoder(irregular):
    # prediction is the training pass's decoder applied to the training
    # pass's parameter-branch latent, bit for bit
    _, graph, arch, params = irregular
    model = GcaModel(arch=arch, params=params,
                     training_dwell_times=(20.0, 80.0), seed=2)
    rng = np.random.default_rng(23)
    for dt in (35.0, 47.0, 95.0):
        x = rng.normal(size=(graph.n_nodes, 1, 1))
        _, _, z_p, _ = _forward_batch(params, graph, x,
                                      np.array([[model.input_norm.apply(dt)]]))
        np.testing.assert_array_equal(predict_gca(model, graph, dt),
                                      _decode(params, graph, z_p)[:, 0, 0])


# ------------------------------------------------------------ checkpoint ---


def test_checkpoint_round_trip_is_bit_exact(irregular, tmp_path):
    mesh, graph, arch, params = irregular
    model = GcaModel(arch=arch, params=params,
                     training_dwell_times=(20.0, 80.0), seed=2)
    save_gca(model, mesh, tmp_path / "ckpt")
    back, mesh_back = load_gca(tmp_path / "ckpt")
    assert back.arch == arch
    assert back.training_dwell_times == (20.0, 80.0)
    for name in params:
        np.testing.assert_array_equal(back.params[name], params[name])
    np.testing.assert_array_equal(mesh_back.node_coords, mesh.node_coords)
    np.testing.assert_array_equal(mesh_back.edges, mesh.edges)
    np.testing.assert_array_equal(
        predict_gca(back, graph, 42.0), predict_gca(model, graph, 42.0)
    )


def test_checkpoint_layout_stores_each_fact_once(irregular, tmp_path):
    # the node count comes from the mesh and the normalization from the
    # training dwell times
    mesh, _, arch, params = irregular
    model = GcaModel(arch=arch, params=params,
                     training_dwell_times=(20.0, 50.0, 80.0), seed=2)
    save_gca(model, mesh, tmp_path / "ckpt")
    assert sorted(p.name for p in (tmp_path / "ckpt").iterdir()) == [
        "gca.json", "gca_weights.bin", "mesh_edges.bin", "mesh_nodes.bin"]
    manifest = json.loads((tmp_path / "ckpt" / "gca.json").read_text())
    assert set(manifest) == {"version", "model", "seed", "latent_dim",
                             "enc_widths", "fc_width",
                             "training_dwell_times", "arrays"}
    assert manifest["version"] == ARCHIVE_VERSION == 5
    assert sorted(manifest["arrays"]) == ["gca_weights", "mesh_edges",
                                          "mesh_nodes"]
    assert manifest["training_dwell_times"] == [20.0, 50.0, 80.0]
    # gca_weights.bin is one SNPT column: every tensor, flattened in order
    weights = read_snapshot_bin(tmp_path / "ckpt" / "gca_weights.bin")
    np.testing.assert_array_equal(weights, np.concatenate(
        [params[name].ravel() for name, _ in arch.param_shapes()])[:, None])


def test_checkpoint_missing_manifest(tmp_path):
    (tmp_path / "empty").mkdir()
    with pytest.raises(DataError, match="gca.json is missing"):
        load_gca(tmp_path / "empty")


def test_init_gca_builds_a_usable_model(irregular):
    _, graph, arch, _ = irregular
    model = init_gca(arch, training_dwell_times=(20.0, 80.0), seed=9)
    assert model.input_norm.apply(50.0) == pytest.approx(0.5)
    field = predict_gca(model, graph, 50.0)
    assert field.shape == (graph.n_nodes,)
