"""POD via the method of snapshots, checked against dense SVD oracles."""

import tracemalloc

import numpy as np
import pytest

from romforge.dataset import generate_synthetic_dataset
from romforge.errors import ConfigurationError, DataError, NumericalError
from romforge.pod import (_ROW_BLOCK, _fix_mode_signs, compute_pod,
                          energy_fraction, project, reconstruct)


def svd_oracle(snapshots):
    """Modes and singular values from a direct SVD of the centered matrix."""
    reference = snapshots.mean(axis=1)
    u, s, _ = np.linalg.svd(snapshots - reference[:, None], full_matrices=False)
    # align signs with the library convention: largest-|entry| positive
    for j in range(u.shape[1]):
        col = u[:, j]
        if col[np.argmax(np.abs(col))] < 0:
            u[:, j] = -col
    return u, s, reference


def test_zero_mean_axis_columns_match_closed_form():
    # zero-mean columns 3*e1, -3*e1, e2 and -e2, which centering leaves as
    # they are: sigma = {3 sqrt 2, sqrt 2, 0, 0}, E_1 = 0.9
    snapshots = np.zeros((5, 4))
    snapshots[0, :2] = 3.0, -3.0
    snapshots[1, 2:] = 1.0, -1.0
    basis = compute_pod(snapshots, 0.95)
    assert basis.rank == 2
    np.testing.assert_allclose(basis.singular_values,
                               [3.0 * np.sqrt(2.0), np.sqrt(2.0), 0.0, 0.0],
                               atol=1e-12)
    np.testing.assert_allclose(basis.modes[:, 0],
                               [1, 0, 0, 0, 0], atol=1e-12)
    np.testing.assert_allclose(basis.modes[:, 1],
                               [0, 1, 0, 0, 0], atol=1e-12)
    assert np.array_equal(basis.reference, np.zeros(5))
    # a threshold of 0.9 keeps only the first mode
    assert compute_pod(snapshots, 0.9).rank == 1


def test_identical_columns_degenerate_after_centering():
    snapshots = np.ones((4, 2))
    with pytest.raises(NumericalError, match="no modes exist"):
        compute_pod(snapshots, 0.99)


def test_empty_and_bad_threshold_rejected():
    with pytest.raises(ConfigurationError):
        compute_pod(np.zeros((4, 0)), 0.99)
    snapshots = np.random.default_rng(0).normal(size=(4, 3))
    for bad in (0.0, 1.5, -0.1):
        with pytest.raises(ConfigurationError):
            compute_pod(snapshots, bad)


def test_matches_dense_svd_on_random_matrix():
    rng = np.random.default_rng(7)
    snapshots = rng.normal(size=(50, 8))
    basis = compute_pod(snapshots, 1.0 - 1e-9)
    u, s, reference = svd_oracle(snapshots)
    np.testing.assert_allclose(basis.reference, reference, atol=1e-12)
    # centering a full-rank 8-column matrix leaves 7 nonzero singular values
    assert basis.rank == 7
    np.testing.assert_allclose(basis.singular_values[:7], s[:7], rtol=1e-8)
    np.testing.assert_allclose(basis.modes, u[:, :7], atol=1e-8)


def test_orthonormality_and_energy_monotonicity():
    rng = np.random.default_rng(21)
    snapshots = rng.normal(size=(40, 10))
    basis = compute_pod(snapshots, 0.9)
    gram = basis.modes.T @ basis.modes
    np.testing.assert_allclose(gram, np.eye(basis.rank), atol=1e-10)
    s = basis.singular_values
    fractions = [energy_fraction(s, r) for r in range(1, len(s) + 1)]
    assert all(b >= a for a, b in zip(fractions, fractions[1:]))
    # chosen rank is minimal for the threshold
    assert fractions[basis.rank - 1] >= 0.9
    if basis.rank > 1:
        assert fractions[basis.rank - 2] < 0.9


def test_singular_values_carry_the_frobenius_energy():
    rng = np.random.default_rng(3)
    snapshots = rng.normal(size=(30, 6))
    basis = compute_pod(snapshots, 0.9)
    centered = snapshots - basis.reference[:, None]
    assert np.sum(basis.singular_values**2) == pytest.approx(
        np.linalg.norm(centered, "fro") ** 2, rel=1e-8
    )


def test_project_reconstruct_identities():
    rng = np.random.default_rng(5)
    snapshots = rng.normal(size=(25, 6))
    basis = compute_pod(snapshots, 1.0 - 1e-9)

    assert np.allclose(project(basis, basis.reference), 0.0, atol=1e-10)

    c = 2.5
    field = basis.reference + c * basis.modes[:, 0]
    coeffs = project(basis, field)
    expected = np.zeros(basis.rank)
    expected[0] = c
    np.testing.assert_allclose(coeffs, expected, atol=1e-10)

    np.testing.assert_allclose(reconstruct(basis, np.zeros(basis.rank)),
                               basis.reference, atol=1e-12)

    # full-rank basis reproduces training columns, one at a time or as rows
    coeffs = [project(basis, col) for col in snapshots.T]
    for col, c in zip(snapshots.T, coeffs):
        np.testing.assert_allclose(reconstruct(basis, c), col, atol=1e-8)
    np.testing.assert_allclose(reconstruct(basis, np.array(coeffs)),
                               snapshots.T, atol=1e-8)


def test_projection_of_reconstruction_residual_vanishes():
    rng = np.random.default_rng(9)
    snapshots = rng.normal(size=(30, 8))
    basis = compute_pod(snapshots, 0.8)   # deliberately truncated
    field = rng.normal(size=30)
    residual = field - reconstruct(basis, project(basis, field))
    # the residual carries no component along any retained mode
    np.testing.assert_allclose(basis.modes.T @ residual, 0.0, atol=1e-10)
    # idempotence
    again = project(basis, reconstruct(basis, project(basis, field)))
    np.testing.assert_allclose(again, project(basis, field), atol=1e-10)


def test_truncation_error_equals_tail_coefficient_energy():
    rng = np.random.default_rng(13)
    snapshots = rng.normal(size=(30, 8))
    full = compute_pod(snapshots, 1.0 - 1e-9)
    truncated = compute_pod(snapshots, 0.7)
    r = truncated.rank
    col = snapshots[:, 2]
    err = np.linalg.norm(col - reconstruct(truncated, project(truncated, col)))
    tail = project(full, col)[r:]
    assert err**2 == pytest.approx(np.sum(tail**2), rel=1e-8)


def test_energy_fraction_examples_and_bounds():
    s = np.array([3.0, 1.0])
    assert energy_fraction(s, 1) == pytest.approx(0.9)
    assert energy_fraction(s, 2) == 1.0
    assert energy_fraction(np.array([2.0, 2.0, 2.0, 2.0]), 2) == pytest.approx(0.5)
    with pytest.raises(IndexError):
        energy_fraction(s, 0)
    with pytest.raises(IndexError):
        energy_fraction(s, 3)
    # no energy at all: the fraction is undefined, not NaN
    with pytest.raises(NumericalError, match="all zero"):
        energy_fraction(np.zeros(2), 1)


@pytest.mark.filterwarnings("error")
def test_threshold_unreachable_keeps_effective_modes():
    # rank-2 data cannot reach 1.0 - eps beyond its effective energy; the
    # basis falls back to every numerically nonzero mode, and its captured
    # energy shows the threshold was missed
    rng = np.random.default_rng(2)
    low_rank = np.outer(rng.normal(size=20), rng.normal(size=5))
    low_rank += np.outer(rng.normal(size=20), rng.normal(size=5))
    basis = compute_pod(low_rank, 1.0)
    assert basis.rank == 2
    assert basis.energy_captured < 1.0


def test_project_and_reconstruct_validate_shapes():
    basis = compute_pod(np.random.default_rng(1).normal(size=(10, 4)), 0.99)
    with pytest.raises(ConfigurationError, match="field has shape"):
        project(basis, np.zeros(9))
    with pytest.raises(ConfigurationError, match="coefficients, got shape"):
        reconstruct(basis, np.zeros(basis.rank + 1))
    for shape in ((), (2, basis.rank + 1), (1, 2, basis.rank)):
        with pytest.raises(ConfigurationError, match="coefficients, got shape"):
            reconstruct(basis, np.zeros(shape))


def test_synthetic_snapshots_have_low_effective_rank():
    # the closed-form field factorizes over layers: at most n_layers
    # independent directions regardless of the dwell-time count
    tensor = generate_synthetic_dataset(3, 8, 6, [20, 35, 50, 65, 80])
    snapshots = np.hstack([m.values for m in tensor.matrices])
    basis = compute_pod(snapshots, 0.999999)
    assert basis.rank <= 6


def uneven_column_blocks(seed=11):
    """Column blocks of 3, 1 and 5 columns over 2 row blocks plus 37 rows,
    so the last row block is partial and no block edges line up."""
    rng = np.random.default_rng(seed)
    n_nodes = 2 * _ROW_BLOCK + 37
    return [rng.normal(size=(n_nodes, k)) for k in (3, 1, 5)]


def test_column_blocks_match_the_joined_matrix_and_dense_svd():
    blocks = uneven_column_blocks()
    joined = np.hstack(blocks)
    basis = compute_pod(blocks, 1.0 - 1e-9)
    whole = compute_pod(joined, 1.0 - 1e-9)
    u, s, _ = svd_oracle(joined)
    # the same row means, summed over the same contiguous values
    assert np.array_equal(basis.reference, joined.mean(axis=1))
    assert np.array_equal(whole.reference, basis.reference)
    assert basis.rank == whole.rank == 8
    np.testing.assert_allclose(basis.singular_values[:8],
                               whole.singular_values[:8], rtol=1e-8)
    np.testing.assert_allclose(basis.modes, whole.modes, atol=1e-8)
    np.testing.assert_allclose(basis.singular_values[:8], s[:8], rtol=1e-8)
    np.testing.assert_allclose(basis.modes, u[:, :8], atol=1e-8)


def test_column_blocks_must_be_2d_with_equal_row_counts():
    blocks = uneven_column_blocks()
    for bad in ([], [blocks[0], blocks[1][:-1]], [blocks[0], blocks[1][:, 0]]):
        with pytest.raises(ConfigurationError):
            compute_pod(bad, 0.99)


def test_non_finite_value_in_the_last_row_block_is_a_data_error():
    blocks = uneven_column_blocks()
    blocks[-1][-1, -1] = np.nan
    with pytest.raises(DataError, match="finite"):
        compute_pod(blocks, 0.99)


def deposited_blocks(seed, widths=(6, 6, 6)):
    """Layer-by-layer column blocks over 2 row blocks plus 37 rows: a node is
    exactly 0 before the step of its layer. Layers ascend from row block to
    row block, so the later ones start with steps that are 0 in every row,
    and each row block's node order is random."""
    rng = np.random.default_rng(seed)
    n_nodes, n_steps = 2 * _ROW_BLOCK + 37, max(widths)
    layers = np.sort(rng.integers(0, n_steps, n_nodes))
    for lo in range(0, n_nodes, _ROW_BLOCK):
        rng.shuffle(layers[lo:lo + _ROW_BLOCK])
    active = np.arange(n_steps) >= layers[:, None]
    return [np.where(active, rng.normal(size=active.shape), 0.0)[:, :k]
            for k in widths]


def matches_the_dense_svd(blocks):
    """The basis of ``blocks``, checked against the joined matrix's SVD."""
    joined = np.hstack(blocks)
    basis = compute_pod(blocks, 1.0 - 1e-9)
    u, s, reference = svd_oracle(joined)
    assert basis.rank == np.count_nonzero(s > 1e-6 * s[0])
    np.testing.assert_allclose(basis.reference, reference, atol=1e-12)
    np.testing.assert_allclose(basis.singular_values[:basis.rank],
                               s[:basis.rank], rtol=1e-8)
    np.testing.assert_allclose(basis.modes, u[:, :basis.rank], atol=1e-8)
    return basis


def test_layers_not_yet_deposited_match_the_dense_svd():
    blocks = deposited_blocks(12)
    assert not any(b[2 * _ROW_BLOCK:, :4].any() for b in blocks)
    matches_the_dense_svd(blocks)


def test_zero_columns_that_are_no_prefix_match_the_dense_svd():
    # zero last steps in every row, and a zero step between active ones
    blocks = deposited_blocks(13)
    for b in blocks:
        b[:, 4:] = 0.0
    matches_the_dense_svd(blocks)
    blocks = deposited_blocks(14)
    for b in blocks:
        b[:, 3] = 0.0
    matches_the_dense_svd(blocks)


def test_negative_zeros_in_a_prefix_change_no_bit():
    blocks = deposited_blocks(15)
    basis = matches_the_dense_svd(blocks)
    for b in blocks:
        b[b == 0.0] = -0.0
    assert np.signbit(blocks[0][-1, 0])
    again = compute_pod(blocks, 1.0 - 1e-9)
    for name in ("modes", "singular_values", "reference"):
        assert np.array_equal(getattr(again, name), getattr(basis, name))


def test_an_all_zero_row_block_matches_the_dense_svd():
    blocks = deposited_blocks(16)
    for b in blocks:
        b[_ROW_BLOCK:2 * _ROW_BLOCK] = 0.0
    basis = matches_the_dense_svd(blocks)
    assert not basis.modes[_ROW_BLOCK:2 * _ROW_BLOCK].any()


def test_deposited_blocks_of_unequal_width_match_the_dense_svd():
    blocks = deposited_blocks(17, widths=(6, 4, 6))
    basis = matches_the_dense_svd(blocks)
    assert np.array_equal(basis.reference, np.hstack(blocks).mean(axis=1))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_value_in_a_zero_prefix_is_a_data_error(value):
    blocks = deposited_blocks(18)
    assert not blocks[1][-1, :4].any()
    blocks[1][-1, 2] = value
    with pytest.raises(DataError, match="finite"):
        compute_pod(blocks, 0.99)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("values", [(1e200, 0.0), (1e154, -1e154)])
def test_finite_values_whose_gram_overflows_are_a_numerical_error(values):
    # a square past float64, or a finite Gram whose largest eigenvalue,
    # about twice 1e308 here, is not
    blocks = deposited_blocks(19)
    blocks[0][5, -2:] = values
    with pytest.raises(NumericalError, match="Gram matrix overflows"):
        compute_pod(blocks, 0.99)


def test_column_blocks_are_never_joined_or_centered_whole():
    # ~30 MB of rank-3 snapshots in four column blocks; joining them and
    # centering the join would trace about twice their size
    rng = np.random.default_rng(4)
    n_nodes, widths = 62_500, (12, 20, 8, 20)
    shapes = rng.normal(size=(n_nodes, 3))
    blocks = [shapes @ rng.normal(size=(3, k)) for k in widths]
    snapshot_bytes = sum(b.nbytes for b in blocks)
    tracemalloc.start()
    try:
        basis = compute_pod(blocks, 0.999)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert basis.rank == 3
    assert peak <= 0.25 * snapshot_bytes


def test_mode_signs_follow_the_first_largest_magnitude_entry():
    # ties within a row block and across row blocks go to the first entry;
    # an all-zero column keeps its sign
    n_nodes = 2 * _ROW_BLOCK + 37
    modes = np.random.default_rng(5).uniform(-0.5, 0.5, size=(n_nodes, 5))
    modes[[3, _ROW_BLOCK + 9], 0] = [-2.0, 2.0]
    modes[[10, 2 * _ROW_BLOCK + 1], 1] = [2.0, -2.0]
    modes[[7, 8], 2] = [-3.0, 3.0]
    modes[-1, 3] = -4.0
    modes[:, 4] = 0.0
    # the whole-matrix rule the row blocks must reproduce bit for bit
    peak = modes[np.argmax(np.abs(modes), axis=0), np.arange(5)]
    expected = modes * np.where(peak < 0.0, -1.0, 1.0)
    _fix_mode_signs(modes)
    assert np.array_equal(modes, expected)
    assert list(modes[[3, 10, 7, -1], [0, 1, 2, 3]]) == [2.0, 2.0, 3.0, 4.0]
    assert not np.signbit(modes[:, 4]).any()


def test_mode_signs_add_no_modes_sized_temporary():
    modes = np.random.default_rng(6).normal(size=(40_000, 20))
    tracemalloc.start()
    try:
        _fix_mode_signs(modes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.25 * modes.nbytes
