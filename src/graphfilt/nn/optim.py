"""ADAM with the standard forgetting factors."""
from __future__ import annotations

import numpy as np

from ..errors import ShapeMismatch

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


class AdamState:
    """First/second moments: one flat vector each, the params raveled."""

    def __init__(self, params, learning_rate=1e-3):
        self.params = list(params)
        self.learning_rate = float(learning_rate)
        self.step_count = 0
        self.m = np.zeros(sum(p.value.size for p in self.params))
        self.v = np.zeros_like(self.m)


def adam_step(state, grads=None):
    """One bias-corrected update of the state's parameters; grads default
    to each tensor's slot.

    A missing gradient (untouched parameter) counts as zero. Every
    gradient is checked before any state changes.
    """
    params = state.params
    if grads is None:
        grads = [p.grad for p in params]
    if len(grads) != len(params):
        raise ShapeMismatch("gradient list does not match the parameters")
    flat = []
    for p, g in zip(params, grads):
        g = np.asarray(np.zeros_like(p.value) if g is None else g, np.float64)
        if g.shape != p.value.shape:
            raise ShapeMismatch(
                f"gradient shape {g.shape} != parameter shape {p.value.shape}")
        flat.append(g.ravel())
    g = np.concatenate(flat)
    state.step_count += 1
    t = state.step_count
    c1 = 1.0 - BETA1 ** t
    c2 = 1.0 - BETA2 ** t
    state.m = BETA1 * state.m + (1.0 - BETA1) * g
    state.v = BETA2 * state.v + (1.0 - BETA2) * g * g
    m_hat = state.m / c1
    v_hat = state.v / c2
    value = np.concatenate([p.value.ravel() for p in params])
    value = value - state.learning_rate * m_hat / (np.sqrt(v_hat) + EPS)
    ends = np.cumsum([p.value.size for p in params])
    for p, part in zip(params, np.split(value, ends[:-1])):
        p.value = part.reshape(p.value.shape)
