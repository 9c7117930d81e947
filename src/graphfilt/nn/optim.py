"""ADAM with the standard forgetting factors."""
from __future__ import annotations

import numpy as np

from ..errors import ShapeMismatch

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


class AdamState:
    """First/second moment accumulators, one pair per parameter tensor."""

    def __init__(self, params, learning_rate=1e-3):
        self.params = list(params)
        self.learning_rate = float(learning_rate)
        self.step_count = 0
        self.m = [np.zeros_like(p.value) for p in self.params]
        self.v = [np.zeros_like(p.value) for p in self.params]


def adam_step(state, grads=None):
    """One bias-corrected update of the state's parameters; grads default
    to each tensor's slot.

    A missing gradient (untouched parameter) counts as zero.
    """
    params = state.params
    if grads is None:
        grads = [p.grad for p in params]
    if len(grads) != len(params):
        raise ShapeMismatch("gradient list does not match the parameters")
    state.step_count += 1
    t = state.step_count
    c1 = 1.0 - BETA1 ** t
    c2 = 1.0 - BETA2 ** t
    for i, (p, g) in enumerate(zip(params, grads)):
        if g is None:
            g = np.zeros_like(p.value)
        g = np.asarray(g, dtype=np.float64)
        if g.shape != p.value.shape:
            raise ShapeMismatch(
                f"gradient shape {g.shape} != parameter shape {p.value.shape}")
        state.m[i] = BETA1 * state.m[i] + (1.0 - BETA1) * g
        state.v[i] = BETA2 * state.v[i] + (1.0 - BETA2) * g * g
        m_hat = state.m[i] / c1
        v_hat = state.v[i] / c2
        p.value = p.value - state.learning_rate * m_hat / (np.sqrt(v_hat)
                                                           + EPS)
