"""Pointwise nonlinearities and loss functions.

Losses live off the tape: each returns (value, gradient w.r.t. its first
argument) so the training loop can seed the backward pass.
"""
from __future__ import annotations

import numpy as np

from ..attention import _leaky_factor
from ..errors import LabelOutOfRange


def relu(x):
    x = np.asarray(x, dtype=np.float64)
    return np.where(x > 0, x, 0.0)


def leaky_relu(x, slope=0.2):
    x = np.asarray(x, dtype=np.float64)
    return x * _leaky_factor(x, slope)


def log_sum_exp(x, axis=-1):
    """Stable log(sum(exp(x))) via max subtraction."""
    x = np.asarray(x, dtype=np.float64)
    m = np.max(x, axis=axis, keepdims=True)
    return np.squeeze(m, axis=axis) + np.log(
        np.sum(np.exp(x - m), axis=axis))


def softmax_rows(x, axis=-1):
    x = np.asarray(x, dtype=np.float64)
    m = np.max(x, axis=axis, keepdims=True)
    e = np.exp(x - m)
    return e / np.sum(e, axis=axis, keepdims=True)


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
    lse = log_sum_exp(L, axis=-1)
    picked = L[np.arange(n), y]
    loss = float(np.mean(lse - picked))
    grad = softmax_rows(L)
    grad[np.arange(n), y] -= 1.0
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
