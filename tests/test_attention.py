"""Attention scores, neighborhood soft maxima, and learned shifts."""
import numpy as np
import pytest

from graphfilt.attention import (LEAKY_SLOPE_DEFAULT, AttentionHead,
                                 edge_scores, edge_varying_gat_shifts,
                                 gcat_shift,
                                 neighborhood_softmax,
                                 weighted_neighborhood_softmax)
from graphfilt.errors import DimensionMismatch
from graphfilt.graphs import Graph, build_shift
from graphfilt.sparse import support_mask


def small_graph_shift(weights=False):
    rng = np.random.default_rng(99)
    edges = ((0, 1, 1.0), (1, 2, 0.5 if weights else 1.0),
             (2, 3, 2.0 if weights else 1.0), (0, 3, 1.0), (1, 3, 1.0))
    return build_shift(Graph(4, edges), "none")


def naive_scores(head, X, mask):
    """Per-edge loop oracle for the score formula."""
    H = X @ head.B
    f = head.B.shape[1]
    out = np.zeros(mask.nnz)
    rows = mask.entry_rows()
    for e, (i, j) in enumerate(zip(rows, mask.col_idx)):
        pre = head.e[:f] @ H[i] + head.e[f:] @ H[j]
        out[e] = pre if pre > 0 else head.leaky_slope * pre
    return out


def naive_softmax(scores, mask, weights=None):
    rows = mask.entry_rows()
    z = scores * (weights if weights is not None else 1.0)
    out = np.zeros_like(z)
    for i in range(mask.n_rows):
        seg = rows == i
        e = np.exp(z[seg])
        out[seg] = e / e.sum()
    return out


class TestEdgeScores:
    def test_zero_scoring_vector(self):
        S = small_graph_shift()
        mask = support_mask(S)
        head = AttentionHead(np.ones((2, 3)), np.zeros(6))
        X = np.random.default_rng(0).normal(size=(4, 2))
        assert np.array_equal(edge_scores(head, X, mask), np.zeros(mask.nnz))

    def test_zero_features(self):
        S = small_graph_shift()
        mask = support_mask(S)
        head = AttentionHead(np.ones((2, 3)), np.ones(6))
        assert np.array_equal(edge_scores(head, np.zeros((4, 2)), mask),
                              np.zeros(mask.nnz))

    def test_matches_per_edge_oracle(self):
        rng = np.random.default_rng(1)
        S = small_graph_shift()
        mask = support_mask(S)
        head = AttentionHead(rng.normal(size=(3, 2)), rng.normal(size=4))
        X = rng.normal(size=(4, 3))
        got = edge_scores(head, X, mask)
        assert np.max(np.abs(got - naive_scores(head, X, mask))) < 1e-13

    def test_feature_mismatch(self):
        S = small_graph_shift()
        mask = support_mask(S)
        head = AttentionHead(np.ones((3, 2)), np.ones(4))
        with pytest.raises(DimensionMismatch):
            edge_scores(head, np.zeros((4, 2)), mask)

    def test_slope_is_fixed(self):
        head = AttentionHead(np.ones((3, 2)), np.ones(4))
        assert head.leaky_slope == LEAKY_SLOPE_DEFAULT
        with pytest.raises(TypeError):
            AttentionHead(np.ones((3, 2)), np.ones(4), leaky_slope=0.5)


class TestNeighborhoodSoftmax:
    def test_equal_scores_uniform(self):
        S = small_graph_shift()
        mask = support_mask(S)
        shift = neighborhood_softmax(np.zeros(mask.nnz), mask)
        dense = shift.matrix.to_dense()
        for i in range(4):
            nnz_row = np.count_nonzero(dense[i])
            assert np.allclose(dense[i][dense[i] > 0], 1.0 / nnz_row)

    def test_dominant_score_saturates(self):
        S = small_graph_shift()
        mask = support_mask(S)
        scores = np.zeros(mask.nnz)
        scores[0] = 50.0  # first stored entry of row 0
        shift = neighborhood_softmax(scores, mask)
        assert shift.matrix.values[0] > 1.0 - 1e-9

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(2)
        S = small_graph_shift()
        mask = support_mask(S)
        scores = rng.normal(size=mask.nnz) * 3.0
        got = neighborhood_softmax(scores, mask).matrix.values
        assert np.max(np.abs(got - naive_softmax(scores, mask))) < 1e-13

    def test_leaves_its_scores_unchanged(self):
        rng = np.random.default_rng(4)
        mask = support_mask(small_graph_shift())
        scores = rng.normal(size=mask.nnz) * 3.0
        kept = scores.copy()
        neighborhood_softmax(scores, mask)
        assert scores.tobytes() == kept.tobytes()

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(3)
        S = small_graph_shift()
        mask = support_mask(S)
        shift = neighborhood_softmax(rng.normal(size=mask.nnz), mask)
        sums = shift.matrix.to_dense().sum(axis=1)
        assert np.max(np.abs(sums - 1.0)) < 1e-12
        vals = shift.matrix.values
        assert np.all((vals > 0) & (vals < 1))

    def test_shift_invariance_per_row(self):
        rng = np.random.default_rng(4)
        S = small_graph_shift()
        mask = support_mask(S)
        scores = rng.normal(size=mask.nnz)
        base = neighborhood_softmax(scores, mask).matrix.values
        shifted = scores + 7.5  # same constant on every row
        again = neighborhood_softmax(shifted, mask).matrix.values
        assert np.max(np.abs(base - again)) < 1e-12

    def test_isolated_nodes_keep_only_their_diagonal(self):
        # nodes 0, 2 and 5 have no edges, so their support rows hold only
        # the diagonal; node 5 is also the last row
        S = build_shift(Graph(6, ((1, 3, 1.0), (3, 4, 1.0), (1, 4, 1.0))),
                        "none")
        mask = support_mask(S)
        rows = mask.entry_rows()
        for i in (0, 2, 5):
            assert np.array_equal(mask.col_idx[rows == i], [i])
        scores = np.random.default_rng(5).normal(size=mask.nnz) * 3.0
        got = neighborhood_softmax(scores, mask).matrix.values
        assert np.max(np.abs(got - naive_softmax(scores, mask))) < 1e-13
        assert np.array_equal(got[np.isin(rows, (0, 2, 5))], np.ones(3))

    def test_rejects_nonfinite(self):
        S = small_graph_shift()
        mask = support_mask(S)
        scores = np.zeros(mask.nnz)
        scores[1] = np.inf
        with pytest.raises(ValueError):
            neighborhood_softmax(scores, mask)


class TestWeightedSoftmax:
    def test_unit_weights_reduce_to_plain(self):
        rng = np.random.default_rng(5)
        S = small_graph_shift(weights=False)
        mask = support_mask(S)
        scores = rng.normal(size=mask.nnz)
        plain = neighborhood_softmax(scores, mask).matrix.values
        weighted = weighted_neighborhood_softmax(scores, S).matrix.values
        assert np.max(np.abs(plain - weighted)) < 1e-13

    def test_zero_scores_uniform_regardless_of_weights(self):
        S = small_graph_shift(weights=True)
        mask = support_mask(S)
        shift = weighted_neighborhood_softmax(np.zeros(mask.nnz), S)
        dense = shift.matrix.to_dense()
        for i in range(4):
            row = dense[i][dense[i] > 0]
            assert np.allclose(row, row[0])

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(6)
        S = small_graph_shift(weights=True)
        mask = support_mask(S)
        scores = rng.normal(size=mask.nnz)
        weights = mask.aligned_values(S, diag_fill_zero=1.0)
        got = weighted_neighborhood_softmax(scores, S).matrix.values
        want = naive_softmax(scores, mask, weights)
        assert np.max(np.abs(got - want)) < 1e-13


class TestGcatShift:
    def test_equals_composition(self):
        rng = np.random.default_rng(7)
        S = small_graph_shift()
        mask = support_mask(S)
        head = AttentionHead(rng.normal(size=(2, 3)), rng.normal(size=6))
        X = rng.normal(size=(4, 2))
        direct = gcat_shift(head, X, mask)
        composed = neighborhood_softmax(edge_scores(head, X, mask), mask)
        assert np.array_equal(direct.matrix.values, composed.matrix.values)

    def test_pattern_is_full_support(self):
        rng = np.random.default_rng(8)
        S = small_graph_shift()
        mask = support_mask(S)
        head = AttentionHead(rng.normal(size=(2, 2)), rng.normal(size=4))
        shift = gcat_shift(head, rng.normal(size=(4, 2)), mask)
        assert np.array_equal(shift.matrix.row_ptr, mask.row_ptr)
        assert np.array_equal(shift.matrix.col_idx, mask.col_idx)

    def test_rows_stochastic(self):
        rng = np.random.default_rng(9)
        S = small_graph_shift()
        mask = support_mask(S)
        head = AttentionHead(rng.normal(size=(2, 2)), rng.normal(size=4))
        shift = gcat_shift(head, rng.normal(size=(4, 2)), mask)
        sums = shift.matrix.to_dense().sum(axis=1)
        assert np.max(np.abs(sums - 1.0)) < 1e-12


class TestEdgeVaryingGatShifts:
    def test_identical_heads_identical_shifts(self):
        rng = np.random.default_rng(10)
        S = small_graph_shift()
        mask = support_mask(S)
        head = AttentionHead(rng.normal(size=(2, 2)), rng.normal(size=4))
        X = rng.normal(size=(4, 2))
        shifts = edge_varying_gat_shifts([head, head, head], X, mask)
        for s in shifts[1:]:
            assert np.array_equal(s.matrix.values, shifts[0].matrix.values)

    def test_order_zero_single_shift(self):
        rng = np.random.default_rng(11)
        S = small_graph_shift()
        mask = support_mask(S)
        head = AttentionHead(rng.normal(size=(2, 2)), rng.normal(size=4))
        shifts = edge_varying_gat_shifts([head], rng.normal(size=(4, 2)), mask)
        assert len(shifts) == 1

    def test_each_matches_single_head_oracle(self):
        rng = np.random.default_rng(12)
        S = build_shift(Graph(5, ((0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0),
                                  (3, 4, 1.0), (0, 4, 1.0))), "none")
        mask = support_mask(S)
        heads = [AttentionHead(rng.normal(size=(2, 2)), rng.normal(size=4))
                 for _ in range(3)]
        X = rng.normal(size=(5, 2))
        shifts = edge_varying_gat_shifts(heads, X, mask)
        for head, s in zip(heads, shifts):
            want = naive_softmax(naive_scores(head, X, mask), mask)
            assert np.max(np.abs(s.matrix.values - want)) < 1e-13


def test_support_without_diagonal_rejected():
    S = small_graph_shift()
    head = AttentionHead(np.eye(2), np.ones(4))
    X = np.ones((4, 2))
    with pytest.raises(ValueError, match="full diagonal"):
        edge_scores(head, X, S.pattern)
    with pytest.raises(ValueError, match="full diagonal"):
        neighborhood_softmax(np.zeros(S.nnz), S.pattern)


def _head(f_in=2, f_out=3):
    return AttentionHead(np.ones((f_in, f_out)), np.ones(2 * f_out))


# the input checks no other test reaches: (call, error type, message)
RAISE_SITES = {
    "head_mixer_not_2d": (
        lambda: AttentionHead(np.ones(3), np.ones(6)), DimensionMismatch,
        "scoring vector must have length 2*F_out"),
    "head_scoring_vector_length": (
        lambda: AttentionHead(np.ones((2, 3)), np.ones(5)), DimensionMismatch,
        "scoring vector must have length 2*F_out"),
    "edge_scores_signal_not_2d": (
        lambda: edge_scores(_head(), np.ones(4),
                            support_mask(small_graph_shift())),
        DimensionMismatch, "X must be N x F_in"),
    "edge_scores_node_count": (
        lambda: edge_scores(_head(), np.ones((5, 2)),
                            support_mask(small_graph_shift())),
        DimensionMismatch, "X must be N x F_in"),
    "softmax_score_count": (
        lambda: neighborhood_softmax(np.ones(3),
                                     support_mask(small_graph_shift())),
        DimensionMismatch, "one score per supported pair required"),
    "weighted_softmax_score_count": (
        lambda: weighted_neighborhood_softmax(np.ones(3),
                                              small_graph_shift(True)),
        DimensionMismatch, "one score per supported pair required"),
    "weighted_softmax_nan_score": (
        lambda: weighted_neighborhood_softmax(
            [np.nan, 0, 0, 0, 0, 0, 0],
            build_shift(Graph(3, ((0, 1, 1.0), (1, 2, 1.0))), "none")),
        ValueError, "scores must be finite"),
}


@pytest.mark.parametrize("site", sorted(RAISE_SITES))
def test_input_check_raises_its_type_and_message(site):
    call, error, message = RAISE_SITES[site]
    with pytest.raises(error) as err:
        call()
    assert type(err.value) is error and str(err.value) == message
