"""Central finite-difference validation of the gradient engine."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .functional import cross_entropy
from .layers import ShiftContext

KINK_RETRIES = 3


@dataclass
class GradCheckReport:
    """Max relative error per parameter class plus the global verdict."""

    tol: float
    h: float
    per_class: dict = field(default_factory=dict)
    passed: bool = True

    def record(self, cls, err):
        self.per_class[cls] = max(self.per_class.get(cls, 0.0), err)
        if err > self.tol:
            self.passed = False

    def summary(self):
        lines = [f"gradcheck tol={self.tol:g} h={self.h:g} "
                 f"{'PASS' if self.passed else 'FAIL'}"]
        for cls in sorted(self.per_class):
            lines.append(f"  {cls:14s} max_rel_err={self.per_class[cls]:.3e}")
        return "\n".join(lines)


def _rel_err(a, n):
    return abs(a - n) / max(abs(a), abs(n), 1e-3)


def finite_difference_check(model, S, X0, loss=None, h=1e-5, tol=1e-4,
                            labels=None):
    """Compare tape gradients against central differences, per scalar.

    loss maps logits to (value, dvalue/dlogits); defaults to mean
    cross-entropy against the given (or all-zero) labels.

    A kink of a piecewise-linear activation inside +-h spoils the central
    difference; it shows as one-sided differences that disagree by more
    than tol. Such a coordinate is re-evaluated at h/10, up to
    KINK_RETRIES times, and fails only if every step fails.
    """
    ctx = S if isinstance(S, ShiftContext) else ShiftContext(S)
    X0 = np.asarray(X0, dtype=np.float64)
    if loss is None:
        if labels is None:
            labels = np.zeros(X0.shape[0] if X0.ndim == 3 else 1,
                              dtype=np.int64)
            if X0.ndim == 2:
                labels = int(labels[0])
        loss = lambda logits: cross_entropy(logits, labels)  # noqa: E731

    def loss_value():
        logits, _ = model.forward(ctx, X0)
        return loss(logits.value)[0]

    model.zero_grad()
    logits, tape = model.forward(ctx, X0)
    base, dlogits = loss(logits.value)
    tape.backward(output_grad=dlogits)

    def coordinate_error(flat, i, analytic):
        keep = flat[i]
        step, err = h, np.inf
        for _ in range(1 + KINK_RETRIES):
            flat[i] = keep + step
            up = loss_value()
            flat[i] = keep - step
            down = loss_value()
            flat[i] = keep
            err = min(err, _rel_err(analytic, (up - down) / (2.0 * step)))
            smooth = _rel_err((up - base) / step, (base - down) / step) <= tol
            if err <= tol or smooth:
                break
            step /= 10.0
        return err

    report = GradCheckReport(tol=tol, h=h)
    for name, t in model.parameters():
        cls = name.split(".")[-1]
        analytic = t.grad if t.grad is not None else np.zeros_like(t.value)
        flat = t.value.reshape(-1)
        aflat = np.asarray(analytic).reshape(-1)
        for i in range(flat.size):
            report.record(cls, coordinate_error(flat, i, aflat[i]))
    return report
