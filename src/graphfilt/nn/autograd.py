"""Reverse-mode gradient engine.

Every primitive computes its value eagerly on numpy arrays and records a
closure on the tape; running the tape backwards accumulates adjoints into
``Tensor.grad`` slots. Conventions:

* arrays are float64; leading axes are batch axes and broadcast freely,
* primitives accept a ``Tensor`` or a plain array for every operand and
  only Tensors receive gradients,
* sparse structure never densifies: parameters attached to a sparsity
  pattern get gradients only on their stored entries.
"""
from __future__ import annotations

import numpy as np

from ..attention import (_edge_scores, _edge_scores_adjoint, _leaky_factor,
                         _projection_adjoint, _row_softmax,
                         _row_softmax_adjoint, _score_matrix)
from ..errors import MissingTape
from ..sparse import _Product, spmm


class Tensor:
    """Value with a gradient slot of the same shape."""

    __slots__ = ("value", "grad", "name")

    def __init__(self, value, name=""):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = None
        self.name = name

    @property
    def shape(self):
        return self.value.shape

    @property
    def size(self):
        return self.value.size

    def zero_grad(self):
        self.grad = None

    def __repr__(self):
        return f"Tensor({self.name or 'anon'}, shape={self.value.shape})"


class Tape:
    """Execution record of one forward pass."""

    def __init__(self):
        self._records = []
        self.output = None

    def record(self, fn):
        self._records.append(fn)

    def backward(self, output=None, output_grad=1.0):
        out = output if output is not None else self.output
        if out is None:
            raise MissingTape("tape has no recorded output")
        out.grad = np.broadcast_to(
            np.asarray(output_grad, dtype=np.float64), out.value.shape).copy()
        for fn in reversed(self._records):
            fn()


def backward(tape, loss_grad):
    """Drive the recorded forward pass backwards from d(loss)/d(output)."""
    if tape is None:
        raise MissingTape("no tape recorded for this forward pass")
    tape.backward(output_grad=loss_grad)


def _val(x):
    return x.value if isinstance(x, Tensor) else np.asarray(x, dtype=np.float64)


def _acc(x, g):
    if isinstance(x, Tensor):
        x.grad = g if x.grad is None else x.grad + g


def _unbroadcast(g, shape):
    """Sum an adjoint down to the shape the operand was broadcast from."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (gs, s) in enumerate(zip(g.shape, shape))
                 if s == 1 and gs != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


# ---------------------------------------------------------------------------
# dense primitives


def add(tape, a, b):
    av, bv = _val(a), _val(b)
    out = Tensor(av + bv)

    def back():
        if out.grad is None:
            return
        _acc(a, _unbroadcast(out.grad, av.shape))
        _acc(b, _unbroadcast(out.grad, bv.shape))

    tape.record(back)
    return out


def sub(tape, a, b):
    av, bv = _val(a), _val(b)
    out = Tensor(av - bv)

    def back():
        if out.grad is None:
            return
        _acc(a, _unbroadcast(out.grad, av.shape))
        _acc(b, _unbroadcast(-out.grad, bv.shape))

    tape.record(back)
    return out


def mul(tape, a, b):
    av, bv = _val(a), _val(b)
    out = Tensor(av * bv)

    def back():
        if out.grad is None:
            return
        _acc(a, _unbroadcast(out.grad * bv, av.shape))
        _acc(b, _unbroadcast(out.grad * av, bv.shape))

    tape.record(back)
    return out


def scale(tape, a, factor):
    av = _val(a)
    out = Tensor(av * float(factor))

    def back():
        if out.grad is None:
            return
        _acc(a, out.grad * float(factor))

    tape.record(back)
    return out


def reciprocal(tape, a):
    av = _val(a)
    inv = 1.0 / av
    out = Tensor(inv)

    def back():
        if out.grad is None:
            return
        _acc(a, -out.grad * inv * inv)

    tape.record(back)
    return out


def matmul(tape, a, b):
    """a @ b with a of shape (..., f) or (..., n, f) and b (f, g) or (f,)."""
    av, bv = _val(a), _val(b)
    out = Tensor(av @ bv)

    def back():
        if out.grad is None:
            return
        g = out.grad
        if bv.ndim == 1 and av.ndim == 1:
            _acc(a, g * bv)
            _acc(b, g * av)
        elif bv.ndim == 1:
            _acc(a, g[..., None] * bv)
            _acc(b, g.reshape(-1) @ av.reshape(-1, av.shape[-1]))
        elif av.ndim == 1:
            _acc(a, g @ bv.T)
            _acc(b, np.outer(av, g))
        else:
            _acc(a, g @ bv.T)
            # sum every leading batch axis into the (f, g) adjoint
            af = av.reshape(-1, av.shape[-1])
            gf = g.reshape(-1, g.shape[-1])
            _acc(b, af.T @ gf)

    tape.record(back)
    return out


def reshape(tape, a, shape):
    av = _val(a)
    out = Tensor(av.reshape(shape))

    def back():
        if out.grad is None:
            return
        _acc(a, out.grad.reshape(av.shape))

    tape.record(back)
    return out


def concat(tape, parts, axis):
    """Join operands along an axis; a single part is returned as it is."""
    if len(parts) == 1:
        return parts[0]
    vals = [_val(p) for p in parts]
    out = Tensor(np.concatenate(vals, axis=axis))
    cuts = np.cumsum([v.shape[axis] for v in vals[:-1]])

    def back():
        if out.grad is None:
            return
        for p, g in zip(parts, np.split(out.grad, cuts, axis=axis)):
            _acc(p, g)

    tape.record(back)
    return out


def expand_last(tape, a):
    """Append a trailing unit axis (view used to broadcast feature pairs)."""
    av = _val(a)
    out = Tensor(av[..., None])

    def back():
        if out.grad is None:
            return
        _acc(a, out.grad[..., 0])

    tape.record(back)
    return out


def sum_axis(tape, a, axis):
    av = _val(a)
    out = Tensor(av.sum(axis=axis))

    def back():
        if out.grad is None:
            return
        _acc(a, np.broadcast_to(np.expand_dims(out.grad, axis), av.shape).copy())

    tape.record(back)
    return out


def take_index(tape, a, index):
    """Select a leading-axis slice a[index] of a parameter tensor."""
    av = _val(a)
    out = Tensor(av[index])

    def back():
        if out.grad is None:
            return
        g = np.zeros_like(av)
        g[index] = out.grad
        _acc(a, g)

    tape.record(back)
    return out


def gather_rows(tape, a, idx):
    """a[..., idx, :] for unique row indices."""
    av = _val(a)
    out = Tensor(av[..., idx, :])

    def back():
        if out.grad is None:
            return
        g = np.zeros_like(av)
        g[..., idx, :] = out.grad
        _acc(a, g)

    tape.record(back)
    return out


def scatter_rows(tape, a, idx, n_rows, trailing=1):
    """Place rows at unique indices of an otherwise-zero node axis.

    ``trailing`` counts the feature axes after the node axis: 1 for
    (..., rows, F) inputs, 2 for pairwise (..., rows, F, G) inputs.
    """
    av = _val(a)
    axis = av.ndim - 1 - trailing
    shape = list(av.shape)
    shape[axis] = n_rows
    buf = np.zeros(shape)
    sl = [slice(None)] * av.ndim
    sl[axis] = idx
    buf[tuple(sl)] = av
    out = Tensor(buf)

    def back():
        if out.grad is None:
            return
        _acc(a, out.grad[tuple(sl)])

    tape.record(back)
    return out


def activation(tape, a, kind, slope=0.2):
    av = _val(a)
    if kind == "identity":
        factor = np.ones_like(av)
        out = Tensor(av.copy())
    elif kind == "relu":
        factor = (av > 0).astype(np.float64)
        out = Tensor(av * factor)
    elif kind == "leaky_relu":
        factor = _leaky_factor(av, slope)
        out = Tensor(av * factor)
    else:
        raise ValueError(f"unknown nonlinearity {kind!r}")

    def back():
        if out.grad is None:
            return
        _acc(a, out.grad * factor)

    tape.record(back)
    return out


def block_mix(tape, x, a, block_of_node):
    """Row-wise mixing with per-block matrices.

    x: (..., n, f); a: (n_blocks, f, g); row i multiplies a[block[i]].
    """
    xv, av = _val(x), _val(a)
    a_exp = av[block_of_node]
    out = Tensor(np.einsum("...nf,nfg->...ng", xv, a_exp))

    def back():
        if out.grad is None:
            return
        g = out.grad
        _acc(x, np.einsum("...ng,nfg->...nf", g, a_exp))
        xb = xv.reshape(-1, xv.shape[-2], xv.shape[-1])
        gb = g.reshape(-1, g.shape[-2], g.shape[-1])
        contrib = np.einsum("bnf,bng->nfg", xb, gb)
        da = np.zeros_like(av)
        np.add.at(da, block_of_node, contrib)
        _acc(a, da)

    tape.record(back)
    return out


def jacobi_shift_values(tape, gamma, s_off, d_off_rows):
    """Entries of R(gamma) = -(D - gamma I)^{-1}(S - D), per feature pair.

    gamma: scalar or (f, g); s_off and d_off_rows: (nnz,) constants giving
    the stored off-diagonal values and the diagonal of their rows. The
    gamma adjoint is the analytic -(D - gamma I)^{-2}(S - D) contraction.
    """
    gv = np.atleast_2d(_val(gamma))
    s = s_off[:, None, None]
    denom = d_off_rows[:, None, None] - gv
    out = Tensor(-s / denom)

    def back():
        if out.grad is None:
            return
        dgam = (out.grad * (-s / (denom * denom))).sum(axis=0)
        _acc(gamma, _unbroadcast(dgam, _val(gamma).shape))

    tape.record(back)
    return out


# ---------------------------------------------------------------------------
# sparse primitives; a ``pattern`` argument is a ``sparse.Pattern``


def spmm_const(tape, S, x, S_transpose=None):
    """Fixed sparse matrix times tensor; gradient flows to x only.

    Callers in a loop should pass the precomputed transpose.
    """
    xv = _val(x)
    if xv.ndim < 2:
        raise ValueError("spmm_const expects (..., n, f) input")
    out = Tensor(spmm(S, xv))
    St = S_transpose if S_transpose is not None else S.transpose()

    def back():
        if out.grad is None:
            return
        _acc(x, spmm(St, out.grad))

    tape.record(back)
    return out


def spmm_values(tape, vals, x, pattern):
    """Sparse product where the stored values are themselves an operand.

    vals: (nnz,) shared across the batch, or (..., nnz) per sample.
    x:    (..., n, f).
    """
    vv, xv = _val(vals), _val(x)
    op = _Product(pattern, vv, per_sample=vv.ndim > 1)
    out = Tensor(op.apply(xv, 1))

    def back():
        if out.grad is None:
            return
        g = out.grad
        _acc(vals, _unbroadcast(op.values_adjoint(g, xv, 1), vv.shape))
        _acc(x, op.apply_transposed(g, 1))

    tape.record(back)
    return out


def spmm_pairwise(tape, vals, z, pattern):
    """Per-feature-pair sparse product.

    vals: (nnz, f, g); z: (..., n, f, g), broadcasting against the
    values' (f, g); the entry axis sits at -3.
    """
    vv, zv = _val(vals), _val(z)
    op = _Product(pattern, vv)
    out = Tensor(op.apply(zv, 2))

    def back():
        if out.grad is None:
            return
        g = out.grad
        _acc(vals, _unbroadcast(op.values_adjoint(g, zv, 2), vv.shape))
        _acc(z, _unbroadcast(op.apply_transposed(g, 2), zv.shape))

    tape.record(back)
    return out


# ---------------------------------------------------------------------------
# attention primitives; ``pattern`` is supp(I+S), so no row is empty


def edge_score(tape, h, e, pattern, slope):
    """LeakyReLU(e_left . h_i + e_right . h_j) per stored (i, j)."""
    hv, ev = _val(h), _val(e)
    E = ev.reshape(2, -1)
    scores, factor = _edge_scores(hv @ E.T, pattern, slope)
    out = Tensor(scores)

    def back():
        if out.grad is None:
            return
        D = _edge_scores_adjoint(out.grad * factor, pattern)
        dh, dEt = _projection_adjoint(D, hv, E.T)
        _acc(h, dh)
        _acc(e, dEt.T.ravel())

    tape.record(back)
    return out


def support_softmax(tape, scores, pattern, weights=None):
    """Row-segment soft maximum with max subtraction; optional constant
    per-entry weights multiply the scores first."""
    sv = _val(scores)
    vals = _row_softmax(sv * weights if weights is not None else sv, pattern)
    out = Tensor(vals)

    def back():
        if out.grad is None:
            return
        dz = _row_softmax_adjoint(out.grad, vals, pattern)
        _acc(scores, dz * weights if weights is not None else dz)

    tape.record(back)
    return out


def attention_shift(tape, x, b, e, pattern, slope, weights=None):
    """Row-stochastic attention values on ``pattern`` scored from x, in
    one record: support_softmax(edge_score(x @ b, e), weights) without
    forming x @ b.

    x: (..., n, f_in); b: (f_in, f_out); e: (2 f_out,). The scores read
    x @ W with the (f_in, 2) score matrix W = b E^T, E = e as (2, f_out).
    The backward is analytic: with D (..., n, 2) the adjoint of x @ W,
    dx = D W^T, dW = x^T D, db = dW E and de = (dW^T b) flattened.
    """
    xv, bv, ev = _val(x), _val(b), _val(e)
    E = ev.reshape(2, -1)
    W = _score_matrix(bv, ev)
    scores, factor = _edge_scores(xv @ W, pattern, slope)
    vals = _row_softmax(scores * weights if weights is not None else scores,
                        pattern)
    out = Tensor(vals)

    def back():
        if out.grad is None:
            return
        dz = _row_softmax_adjoint(out.grad, vals, pattern)
        if weights is not None:
            dz = dz * weights
        D = _edge_scores_adjoint(dz * factor, pattern)
        dx, dW = _projection_adjoint(D, xv, W)
        _acc(x, dx)
        _acc(b, dW @ E)
        _acc(e, (dW.T @ bv).ravel())

    tape.record(back)
    return out
