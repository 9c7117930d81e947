"""Attention-parameterized shift operators.

A scoring head (B, e) turns node features X into one score per supported
(i, j) pair (diagonal included) through the F_in x 2 score matrix
W = B E^T, E = e as (2, F_out); a per-neighborhood soft maximum then
yields a row-stochastic shift matrix on supp(I+S).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch
from .sparse import Pattern, SparseMatrix, _segment_sums, support_mask

LEAKY_SLOPE_DEFAULT = 0.2


@dataclass(frozen=True)
class AttentionHead:
    """Feature mixer B (F_in x F_out) and scoring vector e (2 F_out)."""

    B: np.ndarray
    e: np.ndarray
    leaky_slope: float = LEAKY_SLOPE_DEFAULT

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
# (edge_score, support_softmax, attention_shift, activation), so that each
# piece of the attention math has one home.


def _leaky_factor(x, slope):
    """LeakyReLU slope per element: 1 where x > 0, else ``slope``.

    Branch-free; bitwise equal to np.where(x > 0, 1.0, slope), which
    costs several times as much.
    """
    pos = x > 0
    return pos * 1.0 + ~pos * slope


def _score_matrix(B, e):
    """W = B E^T (F_in x 2), with E = e as (2, F_out): X W holds each
    node's own and neighbor score projections without forming X B."""
    return B @ e.reshape(2, -1).T


def _edge_scores(proj, pattern, slope):
    """(scores, factor): LeakyReLU(own_i + other_j) per stored (i, j) of
    ``pattern``, in CSR entry order, and its slope factor, from the
    projections proj (..., n, 2) = [own, other]."""
    pre = (proj[..., 0][..., pattern.entry_rows()]
           + proj[..., 1][..., pattern.col_idx])
    factor = _leaky_factor(pre, slope)
    return pre * factor, factor


def _edge_scores_adjoint(dpre, pattern):
    """D (..., n, 2): the adjoint of the projections given the adjoint of
    the pre-activation scores, summed over each node's own row (own) and
    over its column (other)."""
    T, perm = pattern.transpose_permutation()
    d_own = _segment_sums(dpre, pattern.row_ptr)
    d_other = _segment_sums(dpre[..., perm], T.row_ptr)
    return np.stack([d_own, d_other], axis=-1)


def _projection_weight_adjoint(D, x):
    """dW of proj = x W, for x (..., n, f) and the adjoint D of proj;
    every batch axis is summed. (The x adjoint is D W^T.)"""
    return x.reshape(-1, x.shape[-1]).T @ D.reshape(-1, D.shape[-1])


def _row_softmax(z, pattern):
    """Soft maximum over each row's stored entries, with max subtraction.
    Every row must hold an entry, as supp(I+S) holds its diagonal."""
    rows = pattern.entry_rows()
    row_max = np.maximum.reduceat(z, pattern.row_ptr[:-1], axis=-1)
    shifted = np.exp(z - row_max[..., rows])
    denom = _segment_sums(shifted, pattern.row_ptr)
    return shifted / denom[..., rows]


def _row_softmax_adjoint(g, vals, pattern):
    """Adjoint of the scores given g, the adjoint of the soft maximum's
    output ``vals``."""
    sdot = _segment_sums(g * vals, pattern.row_ptr)
    return vals * (g - sdot[..., pattern.entry_rows()])


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


def _softmax_on_support(pre, support):
    return AttentionShift(support.matrix(_row_softmax(pre, support)), support)


def neighborhood_softmax(scores, support):
    """Per-row soft maximum with max subtraction for stability."""
    support.require_diagonal()
    scores = np.asarray(scores, dtype=np.float64)
    if scores.shape != (support.nnz,):
        raise DimensionMismatch("one score per supported pair required")
    if not np.all(np.isfinite(scores)):
        raise ValueError("scores must be finite")
    return _softmax_on_support(scores, support)


def weighted_neighborhood_softmax(scores, S):
    """Soft maximum of s_ij * score_ij over each neighborhood.

    Weights come from S aligned onto supp(I+S); an absent or zero
    diagonal weight is read as 1 so the self term never drops out.
    """
    mask = support_mask(S)
    scores = np.asarray(scores, dtype=np.float64)
    if scores.shape != (mask.nnz,):
        raise DimensionMismatch("one score per supported pair required")
    weights = mask.aligned_values(S, diag_fill_zero=1.0)
    return _softmax_on_support(weights * scores, mask)


def gcat_shift(head, X, support):
    """Score then soft-max: the one learned shift a convolutional
    attention layer reuses across all polynomial orders."""
    return neighborhood_softmax(edge_scores(head, X, support), support)


def edge_varying_gat_shifts(heads, X, support):
    """Independent learned shift per filter order, one head each."""
    return [gcat_shift(h, X, support) for h in heads]
