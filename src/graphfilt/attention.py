"""Attention-parameterized shift operators.

A scoring head turns node features into one score per supported (i, j)
pair (diagonal included); a per-neighborhood soft maximum then yields a
row-stochastic shift matrix on supp(I+S).
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


def _leaky(x, slope):
    return np.where(x > 0, x, slope * x)


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
    H = X @ head.B
    f_out = head.B.shape[1]
    own = H @ head.e[:f_out]
    other = H @ head.e[f_out:]
    pre = own[support.entry_rows()] + other[support.col_idx]
    return _leaky(pre, head.leaky_slope)


def _softmax_on_support(pre, support):
    rows = support.entry_rows()
    # every support row holds its diagonal, so no segment is empty
    row_max = np.maximum.reduceat(pre, support.row_ptr[:-1])
    shifted = np.exp(pre - row_max[rows])
    denom = _segment_sums(shifted, support.row_ptr, axis=-1)
    vals = shifted / denom[rows]
    return AttentionShift(support.matrix(vals), support)


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
