"""Loss functions.

Losses live off the tape: each returns (value, gradient w.r.t. its first
argument) so the training loop can seed the backward pass.
"""
from __future__ import annotations

import numpy as np

from ..errors import LabelOutOfRange


def cross_entropy(logits, labels):
    """Mean cross-entropy over the batch; returns (loss, dloss/dlogits).

    logits: (C,) or (B, C); labels: int or (B,) ints below C.
    """
    logits = np.asarray(logits, dtype=np.float64)
    single = logits.ndim == 1
    L = logits[None, :] if single else logits
    y = np.atleast_1d(np.asarray(labels, dtype=np.int64))
    n, c = L.shape
    if y.min(initial=0) < 0 or y.max(initial=-1) >= c:
        raise LabelOutOfRange(f"labels must lie in [0, {c})")
    m = np.max(L, axis=-1, keepdims=True)
    e = np.exp(L - m)
    s = np.sum(e, axis=-1, keepdims=True)
    rows = np.arange(n)
    loss = float(np.mean(m[:, 0] + np.log(s[:, 0]) - L[rows, y]))
    grad = e / s
    grad[rows, y] -= 1.0
    grad /= n
    return loss, (grad[0] if single else grad)


def smooth_l1(pred, target, delta=1.0, mask=None):
    """Summed smooth-l1: 0.5 r^2 / delta inside |r| < delta, linear
    outside. Returns (loss, dloss/dpred); masked entries contribute zero.
    """
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    r = pred - target
    inside = np.abs(r) < delta
    per = np.where(inside, 0.5 * r * r / delta, np.abs(r) - 0.5 * delta)
    grad = np.where(inside, r / delta, np.sign(r))
    if mask is not None:
        per = per * mask
        grad = grad * mask
    return float(per.sum()), grad
