"""Attention-parameterized shift operators.

A scoring head (B, e) turns node features X into one score per supported
(i, j) pair (diagonal included) through the F_in x 2 score matrix
W = B E^T, E = e as (2, F_out); a per-neighborhood soft maximum then
yields a row-stochastic shift matrix on supp(I+S). The private helpers
hold per-entry arrays entry-major: the CSR entry axis first, then any
batch axes, so every row reduction runs on axis 0.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch
from .sparse import Pattern, SparseMatrix, _segment_sums, support_mask

LEAKY_SLOPE_DEFAULT = 0.2
BOUND = 64.0  # scores within +-BOUND skip the soft maximum's row maximum


@dataclass(frozen=True)
class AttentionHead:
    """Feature mixer B (F_in x F_out) and scoring vector e (2 F_out);
    every head scores through the fixed LeakyReLU slope."""

    B: np.ndarray
    e: np.ndarray
    leaky_slope = LEAKY_SLOPE_DEFAULT

    def __post_init__(self):
        B = np.asarray(self.B, dtype=np.float64)
        e = np.asarray(self.e, dtype=np.float64)
        if B.ndim != 2 or e.shape != (2 * B.shape[1],):
            raise DimensionMismatch("scoring vector must have length 2*F_out")
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "e", e)


@dataclass(frozen=True)
class AttentionShift:
    """Row-stochastic shift on supp(I+S)."""

    matrix: SparseMatrix
    support: Pattern


# Private numpy helpers shared with the tape primitives of nn.autograd
# (edge_score, support_softmax, attention_hops, activation), so that each
# piece of the attention math has one home.


def _leaky_factor(pos, slope):
    """LeakyReLU slope per element of the sign mask pos = (x > 0): 1 where
    it is set, else ``slope``; bitwise np.where(pos, 1.0, slope), as
    (1 - slope) + slope rounds to 1 for a slope in [0, 1]."""
    factor = pos.astype(np.float64)
    factor *= 1.0 - slope
    factor += slope
    return factor


def _score_matrix(B, e):
    """W = B E^T (F_in x 2), with E = e as (2, F_out): X W holds each
    node's own and neighbor score projections without forming X B."""
    return B @ e.reshape(2, -1).T


def _edge_scores(proj, pattern, slope):
    """(scores, pos): LeakyReLU(own_i + other_j) per stored (i, j) of
    ``pattern``, entry-major, and its sign mask, from the projections
    proj (..., n, 2) = [own, other] laid out once as (n, 2, ...). For a
    slope in [0, 1], max(x, slope x) is bitwise x * _leaky_factor."""
    P = np.ascontiguousarray(np.moveaxis(proj, (-2, -1), (0, 1)))
    pre = np.take(P[:, 0], pattern.entry_rows(), axis=0)
    pre += np.take(P[:, 1], pattern.col_idx, axis=0)
    np.maximum(pre, slope * pre, out=pre)  # keeps the sign of pre
    return pre, pre > 0


def _edge_scores_adjoint(dpre, pattern):
    """D (..., n, 2), C-ordered: the adjoint of the projections given the
    entry-major adjoint of the pre-activation scores, summed over each
    node's own row (own) and over its column (other)."""
    T, perm = pattern.transpose_permutation()
    d_own = _segment_sums(dpre, pattern.row_ptr, 0)
    d_other = _segment_sums(dpre[perm], T.row_ptr, 0)
    return np.stack([np.moveaxis(d, 0, -1) for d in (d_own, d_other)], -1)


def _projection_weight_adjoint(D, x):
    """dW of proj = x W, for x (..., n, f) and the adjoint D of proj;
    every batch axis is summed. (The x adjoint is D W^T.)"""
    return x.reshape(-1, x.shape[-1]).T @ D.reshape(-1, D.shape[-1])


def _row_exp(z, pattern):
    """(p, s): exp(z - c) per entry of the entry-major z (never written),
    s (n, ...) its row sums; ValueError unless the pattern holds the full
    diagonal, so no row is empty. c = 0 when all of z lies in [-BOUND,
    BOUND]: p then lies within e^+-64, a row sum stays finite below about
    e^645 entries, and the backward's H = G / s grows by at most e^64.
    Otherwise (NaN and +-inf too) c is the row maximum, by reduceat. The
    soft maximum P / s does not depend on c."""
    pattern.require_diagonal()
    if z.size and -BOUND <= z.min() and z.max() <= BOUND:
        p = np.exp(z)
    else:
        p = np.maximum.reduceat(z, pattern.row_ptr[:-1], axis=0)[
            pattern.entry_rows()]
        np.exp(np.subtract(z, p, out=p), out=p)
    return p, _segment_sums(p, pattern.row_ptr, 0)


def _row_softmax(z, pattern):
    """Soft maximum over each row of the entry-major z, in a new array."""
    p, s = _row_exp(z, pattern)
    p /= s[pattern.entry_rows()]
    return p


def _row_softmax_adjoint(g, vals, pattern):
    """Adjoint of the entry-major scores given g, the adjoint of the soft
    maximum's output ``vals``."""
    dz = g * vals
    sdot = _segment_sums(dz, pattern.row_ptr, 0)[pattern.entry_rows()]
    return np.multiply(np.subtract(g, sdot, out=dz), vals, out=dz)


def edge_scores(head, X, support):
    """LeakyReLU(e^T [own features, neighbor features]) per supported pair.

    Scores are aligned with the support's CSR entry order.
    """
    support.require_diagonal()
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] != support.n_rows:
        raise DimensionMismatch("X must be N x F_in")
    if X.shape[1] != head.B.shape[0]:
        raise DimensionMismatch("feature count does not match the head")
    proj = X @ _score_matrix(head.B, head.e)
    return _edge_scores(proj, support, head.leaky_slope)[0]


def _scores_on(support, scores):
    scores = np.asarray(scores, dtype=np.float64)
    if scores.shape != (support.nnz,):
        raise DimensionMismatch("one score per supported pair required")
    return scores


def _softmax_on_support(z, support):
    if not np.all(np.isfinite(z)):
        raise ValueError("scores must be finite")
    return AttentionShift(support.matrix(_row_softmax(z, support)), support)


def neighborhood_softmax(scores, support):
    """Per-row soft maximum, shifted by the row maximum past BOUND."""
    return _softmax_on_support(_scores_on(support, scores), support)


def weighted_neighborhood_softmax(scores, S):
    """Soft maximum of s_ij * score_ij over each neighborhood.

    Weights come from S aligned onto supp(I+S); an absent or zero
    diagonal weight is read as 1 so the self term never drops out.
    """
    mask = support_mask(S)
    weights = mask.aligned_values(S, diag_fill_zero=1.0)
    return _softmax_on_support(weights * _scores_on(mask, scores), mask)


def gcat_shift(head, X, support):
    """Score then soft-max: the one learned shift a convolutional
    attention layer reuses across all polynomial orders."""
    return neighborhood_softmax(edge_scores(head, X, support), support)


def edge_varying_gat_shifts(heads, X, support):
    """Independent learned shift per filter order, one head each."""
    return [gcat_shift(h, X, support) for h in heads]
