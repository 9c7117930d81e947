"""CSR kernels, permutations, and power iteration."""
from functools import partial

import numpy as np
import pytest

from graphfilt import sparse
from graphfilt.errors import DimensionMismatch, NoConvergence
from graphfilt.nn import autograd as ag
from graphfilt.sparse import (Pattern, Permutation, SparseMatrix,
                              permute_shift, permute_signal,
                              power_iteration_lambda_max, spmm, spmv,
                              support_mask)


def random_sparse(rng, n, density=0.4):
    dense = rng.normal(size=(n, n))
    dense[rng.random((n, n)) > density] = 0.0
    return SparseMatrix.from_dense(dense), dense


def k3_adjacency():
    dense = np.ones((3, 3)) - np.eye(3)
    return SparseMatrix.from_dense(dense)


class TestSparseMatrix:
    def test_invariants_on_construction(self):
        S = SparseMatrix(2, 2, [0, 1, 2], [1, 0], [5.0, 7.0])
        assert S.nnz == 2
        assert np.allclose(S.to_dense(), [[0, 5], [7, 0]])

    def test_rejects_bad_row_ptr(self):
        with pytest.raises(ValueError):
            SparseMatrix(2, 2, [0, 2, 1], [0, 1], [1.0, 1.0])

    def test_rejects_unsorted_columns(self):
        with pytest.raises(ValueError):
            SparseMatrix(1, 3, [0, 2], [2, 0], [1.0, 1.0])

    def test_from_coo_merges_duplicates(self):
        S = SparseMatrix.from_coo(2, 2, [0, 0, 1], [1, 1, 0], [1.0, 2.0, 4.0])
        assert S.nnz == 2
        assert S.to_dense()[0, 1] == 3.0

    def test_dense_round_trip(self):
        rng = np.random.default_rng(3)
        S, dense = random_sparse(rng, 7)
        assert np.array_equal(S.to_dense(), dense)

    def test_transpose(self):
        rng = np.random.default_rng(4)
        S, dense = random_sparse(rng, 6)
        assert np.array_equal(S.transpose().to_dense(), dense.T)

    def test_diagonal(self):
        S = SparseMatrix.from_dense(np.diag([1.0, 0.0, 3.0]) + 0)
        assert np.array_equal(S.diagonal(), [1.0, 0.0, 3.0])


class TestSpmv:
    def test_identity(self):
        S = SparseMatrix.identity(5)
        x = np.arange(5.0)
        assert np.array_equal(spmv(S, x), x)

    def test_zero_vector(self):
        S = k3_adjacency()
        assert np.array_equal(spmv(S, np.zeros(3)), np.zeros(3))

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(11)
        S, dense = random_sparse(rng, 5)
        x = rng.normal(size=5)
        assert np.max(np.abs(spmv(S, x) - dense @ x)) < 1e-14

    def test_random_sizes_relative_error(self):
        rng = np.random.default_rng(12)
        for n in range(1, 21):
            S, dense = random_sparse(rng, n)
            x = rng.normal(size=n)
            got, want = spmv(S, x), dense @ x
            denom = max(1.0, float(np.max(np.abs(want))))
            assert np.max(np.abs(got - want)) / denom < 1e-13

    def test_batched_matches_loop(self):
        rng = np.random.default_rng(13)
        S, _ = random_sparse(rng, 6)
        X = rng.normal(size=(4, 6))
        got = spmv(S, X)
        for b in range(4):
            assert np.array_equal(got[b], spmv(S, X[b]))

    def test_dimension_mismatch(self):
        S = k3_adjacency()
        with pytest.raises(DimensionMismatch):
            spmv(S, np.ones(4))


class TestSpmm:
    def test_matches_dense(self):
        rng = np.random.default_rng(21)
        S, dense = random_sparse(rng, 8)
        X = rng.normal(size=(8, 3))
        assert np.max(np.abs(spmm(S, X) - dense @ X)) < 1e-13

    def test_batched(self):
        rng = np.random.default_rng(22)
        S, dense = random_sparse(rng, 5)
        X = rng.normal(size=(3, 5, 2))
        got = spmm(S, X)
        assert got.shape == (3, 5, 2)
        assert np.max(np.abs(got - dense @ X)) < 1e-13

    def test_empty_rows(self):
        S = SparseMatrix.from_dense(np.array([[0.0, 1.0], [0.0, 0.0]]))
        out = spmm(S, np.ones((2, 2)))
        assert np.array_equal(out, [[1.0, 1.0], [0.0, 0.0]])


class TestPermutation:
    def test_identity_leaves_shift(self):
        S = k3_adjacency()
        P = Permutation.identity(3)
        assert np.array_equal(permute_shift(S, P).to_dense(), S.to_dense())

    def test_inverse_round_trip_bit_exact(self):
        rng = np.random.default_rng(31)
        S, _ = random_sparse(rng, 9)
        P = Permutation.random(9, rng)
        back = permute_shift(permute_shift(S, P), P.inverse())
        assert np.array_equal(back.row_ptr, S.row_ptr)
        assert np.array_equal(back.col_idx, S.col_idx)
        assert np.array_equal(back.values, S.values)

    def test_matches_dense_matrix_oracle(self):
        # 3-cycle on the path graph
        dense = np.zeros((3, 3))
        dense[0, 1] = dense[1, 0] = dense[1, 2] = dense[2, 1] = 1.0
        S = SparseMatrix.from_dense(dense)
        P = Permutation([1, 2, 0])
        Pm = P.matrix()
        want = Pm.T @ dense @ Pm
        assert np.array_equal(permute_shift(S, P).to_dense(), want)
        x = np.array([5.0, 6.0, 7.0])
        assert np.array_equal(permute_signal(x, P), Pm.T @ x)

    def test_rejects_non_bijection(self):
        with pytest.raises(ValueError):
            Permutation([0, 0, 2])


class TestPowerIteration:
    def test_identity_is_one(self):
        assert power_iteration_lambda_max(SparseMatrix.identity(4)) == \
            pytest.approx(1.0, abs=1e-9)

    def test_k3_is_two(self, monkeypatch):
        monkeypatch.setattr(sparse, "POWER_TOL", 1e-12)
        lam = power_iteration_lambda_max(k3_adjacency())
        want = np.max(np.abs(np.linalg.eigvalsh(k3_adjacency().to_dense())))
        assert lam == pytest.approx(want, abs=1e-8)
        assert lam == pytest.approx(2.0, abs=1e-8)

    def test_zero_matrix_is_zero(self):
        S = SparseMatrix.from_coo(3, 3, [], [], [])
        assert power_iteration_lambda_max(S) == 0.0

    def test_bipartite_path(self):
        # eigenvalues of the 3-path are {-sqrt2, 0, sqrt2}
        dense = np.zeros((3, 3))
        dense[0, 1] = dense[1, 0] = dense[1, 2] = dense[2, 1] = 1.0
        lam = power_iteration_lambda_max(SparseMatrix.from_dense(dense))
        assert lam == pytest.approx(np.sqrt(2), abs=1e-8)

    def test_no_convergence_raises(self, monkeypatch):
        monkeypatch.setattr(sparse, "POWER_TOL", 1e-16)
        monkeypatch.setattr(sparse, "POWER_MAX_ITER", 3)
        with pytest.raises(NoConvergence, match="in 3 iterations"):
            power_iteration_lambda_max(k3_adjacency())


class TestSupportMask:
    def test_contains_diagonal(self):
        mask = support_mask(k3_adjacency())
        assert mask.nnz == 9  # complete graph plus diagonal
        dpos = mask.diag_positions()
        assert np.array_equal(mask.entry_rows()[dpos], np.arange(3))

    def test_contains_check(self):
        S = k3_adjacency()
        mask = support_mask(S)
        assert mask.contains(S)
        assert mask.contains(SparseMatrix.identity(3))
        off = SparseMatrix.from_dense(np.eye(4))
        assert not mask.contains(off)

    def test_aligned_values_diag_fill(self):
        S = k3_adjacency()
        mask = support_mask(S)
        vals = mask.aligned_values(S, diag_fill_zero=1.0)
        M = mask.matrix(vals).to_dense()
        assert np.array_equal(M, S.to_dense() + np.eye(3))

    def test_aligned_values_rejects_another_shape(self):
        mask = support_mask(k3_adjacency())
        S4 = SparseMatrix.from_dense(np.ones((4, 4)))
        assert not mask.contains(S4)
        with pytest.raises(DimensionMismatch):
            mask.aligned_values(S4)

    def test_full_diagonal_required(self):
        support_mask(k3_adjacency()).require_diagonal()
        for p in (k3_adjacency().pattern,
                  Pattern(2, 3, [0, 1, 2], [0, 1])):
            with pytest.raises(ValueError, match="full diagonal"):
                p.require_diagonal()


class TestPattern:
    def test_derived_layouts_skip_the_checks(self, monkeypatch):
        S = k3_adjacency()
        mask = support_mask(S)

        def refuse(self):
            raise AssertionError("pattern validated again")

        monkeypatch.setattr(Pattern, "_validate", refuse)
        S.with_values(S.values * 2)
        S.scale(3.0)
        S.transpose()
        mask.matrix(np.ones(mask.nnz))
        mask.select(mask.entry_rows() != mask.col_idx)
        with pytest.raises(AssertionError):
            SparseMatrix(2, 2, [0, 1, 2], [1, 0], [5.0, 7.0])

    def test_select_keeps_entries_in_csr_order(self):
        rng = np.random.default_rng(4)
        S, dense = random_sparse(rng, 7)
        keep = rng.random(S.nnz) < 0.5
        sub = S.pattern.select(keep).matrix(S.values[keep])
        rows, cols = S.entry_rows()[keep], S.col_idx[keep]
        want = SparseMatrix.from_coo(7, 7, rows, cols, S.values[keep])
        assert np.array_equal(sub.row_ptr, want.row_ptr)
        assert np.array_equal(sub.col_idx, want.col_idx)
        assert np.array_equal(sub.values, want.values)

    def test_cached_index_arrays_are_read_only(self):
        p = k3_adjacency().pattern
        for a in (p.entry_rows(), p.diag_positions(),
                  p.transpose_permutation()[1]):
            with pytest.raises(ValueError):
                a[0] = 1


def _rectangular():
    return SparseMatrix.from_dense(np.ones((2, 3)))


def _unfit(primitive, vals_shape, x_shape, n):
    """A value-operand primitive on the n-node identity pattern."""
    return getattr(ag, primitive)(ag.Tape(), np.ones(vals_shape),
                                  np.ones(x_shape),
                                  SparseMatrix.identity(n).pattern)


def _unfit_sites():
    """Values or operands that do not fit the pattern, on the dense path
    (4 nodes) and on the CSR path (20): name -> RAISE_SITES row."""
    sites = {}
    for path, n in (("dense", 4), ("csr", 20)):
        assert sparse._dense_fits(n, n, n) == (path == "dense")
        for name, primitive, vals, x in (
                ("values_extra_nodes", "spmm_values", (n,), (2, n + 5, 3)),
                ("values_missing_nodes", "spmm_values", (n,), (2, n - 1, 3)),
                ("values_extra_entry", "spmm_values", (n + 1,), (2, n, 3)),
                ("values_per_sample", "spmm_values", (2, n), (2, n, 3)),
                ("pairwise_extra_nodes", "spmm_pairwise", (n, 2, 3),
                 (2, n + 5, 2, 3)),
                ("pairwise_missing_nodes", "spmm_pairwise", (n, 2, 3),
                 (2, n - 1, 2, 1)),
                ("pairwise_extra_entry", "spmm_pairwise", (n + 1, 2, 3),
                 (2, n, 2, 3))):
            sites[f"{name}_{path}"] = (
                partial(_unfit, primitive, vals, x, n), DimensionMismatch,
                f"values {vals} and operand {x} do not fit {n} entries on "
                f"{n} columns")
        # z's trailing (3, 1) cannot broadcast to the values' (2, 3)
        sites[f"pairwise_unbroadcastable_{path}"] = (
            partial(_unfit, "spmm_pairwise", (n, 2, 3), (2, n, 3, 1), n),
            DimensionMismatch, f"operand (2, {n}, 3, 1) does not broadcast "
            f"to the (f, g) of values ({n}, 2, 3)")
    return sites


# the input checks no other test reaches: (call, error type, message)
RAISE_SITES = {
    "pattern_negative_dimensions": (
        lambda: Pattern(-1, 2, [0], []), ValueError,
        "pattern dimensions must be non-negative"),
    "pattern_row_ptr_length": (
        lambda: Pattern(2, 2, [0, 1], [0]), ValueError,
        "row_ptr must have length n_rows+1"),
    "pattern_col_idx_not_1d": (
        lambda: Pattern(1, 2, [0, 1], [[0]]), ValueError,
        "col_idx must be one-dimensional"),
    "matrix_values_length": (
        lambda: SparseMatrix(2, 2, [0, 1, 2], [0, 1], [1.0]), ValueError,
        "col_idx and values must have equal length"),
    "spmm_vector_operand": (
        lambda: spmm(SparseMatrix.identity(2), np.ones(2)), DimensionMismatch,
        "spmm: matrix has 2 columns, X has shape (2,)"),
    "spmm_node_count": (
        lambda: spmm(SparseMatrix.identity(2), np.ones((3, 1))),
        DimensionMismatch, "spmm: matrix has 2 columns, X has shape (3, 1)"),
    "permute_signal_size": (
        lambda: permute_signal(np.ones(3), Permutation.identity(2)),
        DimensionMismatch, "permute_signal: size mismatch"),
    "permute_shift_size": (
        lambda: permute_shift(SparseMatrix.identity(3),
                              Permutation.identity(2)),
        DimensionMismatch, "permute_shift: size mismatch"),
    "power_iteration_not_square": (
        lambda: power_iteration_lambda_max(_rectangular()), DimensionMismatch,
        "power iteration needs a square matrix"),
    "support_mask_not_square": (
        lambda: support_mask(_rectangular()), DimensionMismatch,
        "support mask needs a square matrix"),
    **_unfit_sites(),
}


@pytest.mark.parametrize("site", sorted(RAISE_SITES))
def test_input_check_raises_its_type_and_message(site):
    call, error, message = RAISE_SITES[site]
    with pytest.raises(error) as err:
        call()
    assert type(err.value) is error and str(err.value) == message
