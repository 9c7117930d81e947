"""Reverse-mode gradient engine.

Every primitive computes its value eagerly on numpy arrays and records a
closure on the tape; running the tape backwards accumulates adjoints into
``Tensor.grad`` slots. Conventions:

* arrays are float64; leading axes are batch axes and broadcast freely,
* primitives accept a ``Tensor`` or a constant for every operand; a
  constant is a plain array or a ``Constant``,
* only Tensors receive gradients, and only Tensors cost adjoint work: a
  backward computes an operand's adjoint only when that operand is a
  Tensor, and a primitive whose operands are all constants records
  nothing and returns a ``Constant``. So a model's data input, passed as
  an array, and everything computed from it alone take no backward work;
  pass the input as a Tensor to get its gradient,
* sparse structure never densifies: parameters attached to a sparsity
  pattern get gradients only on their stored entries.
"""
from __future__ import annotations

import numpy as np

from ..attention import (LEAKY_SLOPE_DEFAULT, _edge_scores,
                         _edge_scores_adjoint, _leaky_factor,
                         _projection_weight_adjoint, _row_softmax,
                         _row_softmax_adjoint, _score_matrix)
from ..errors import MissingTape
from ..sparse import _Product, spmm

NONLINEARITIES = ("identity", "relu", "leaky_relu")


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


class Constant:
    """Result of a primitive whose operands are all constants: the value
    with no gradient slot, so no adjoint is ever computed for it. It keeps
    ``.value`` so that code reading primitive results, such as the
    benchmark's tracer, reads Tensors and Constants alike."""

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = np.asarray(value, dtype=np.float64)


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


def _val(x):
    if isinstance(x, (Tensor, Constant)):
        return x.value
    return np.asarray(x, dtype=np.float64)


def _acc(x, adjoint):
    """Add adjoint() into x.grad. The adjoint is computed only when x is a
    Tensor: a constant operand costs no backward work."""
    if isinstance(x, Tensor):
        g = adjoint()
        x.grad = g if x.grad is None else x.grad + g


def _result(tape, value, operands, back):
    """A primitive's output. With a Tensor among the operands it is a
    Tensor, and the tape records a call of back(output adjoint) for when
    an adjoint reaches it; otherwise it is a Constant and nothing is
    recorded."""
    for x in operands:
        if isinstance(x, Tensor):
            break
    else:
        return Constant(value)
    out = Tensor(value)

    def replay():
        if out.grad is not None:
            back(out.grad)

    tape.record(replay)
    return out


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

    def back(g):
        _acc(a, lambda: _unbroadcast(g, av.shape))
        _acc(b, lambda: _unbroadcast(g, bv.shape))

    return _result(tape, av + bv, (a, b), back)


def sub(tape, a, b):
    av, bv = _val(a), _val(b)

    def back(g):
        _acc(a, lambda: _unbroadcast(g, av.shape))
        _acc(b, lambda: _unbroadcast(-g, bv.shape))

    return _result(tape, av - bv, (a, b), back)


def mul(tape, a, b):
    av, bv = _val(a), _val(b)

    def back(g):
        _acc(a, lambda: _unbroadcast(g * bv, av.shape))
        _acc(b, lambda: _unbroadcast(g * av, bv.shape))

    return _result(tape, av * bv, (a, b), back)


def scale(tape, a, factor):
    av = _val(a)
    factor = float(factor)
    return _result(tape, av * factor, (a,),
                   lambda g: _acc(a, lambda: g * factor))


def reciprocal(tape, a):
    inv = 1.0 / _val(a)
    return _result(tape, inv, (a,), lambda g: _acc(a, lambda: -g * inv * inv))


def matmul(tape, a, b):
    """a @ b with a of shape (..., f) and b (f, g); another b raises
    ValueError."""
    av, bv = _val(a), _val(b)
    if bv.ndim != 2:
        raise ValueError(f"matmul expects a (f, g) matrix b, not {bv.shape}")

    def back(g):
        _acc(a, lambda: g @ bv.T)
        # sum every leading batch axis into the (f, g) adjoint
        _acc(b, lambda: av.reshape(-1, av.shape[-1]).T
             @ g.reshape(-1, g.shape[-1]))

    return _result(tape, av @ bv, (a, b), back)


def reshape(tape, a, shape):
    av = _val(a)
    return _result(tape, av.reshape(shape), (a,),
                   lambda g: _acc(a, lambda: g.reshape(av.shape)))


def concat(tape, parts, axis):
    """Join operands along an axis; a single part is returned as it is."""
    if len(parts) == 1:
        return parts[0]
    vals = [_val(p) for p in parts]
    cuts = np.cumsum([v.shape[axis] for v in vals[:-1]])

    def back(g):
        for p, piece in zip(parts, np.split(g, cuts, axis=axis)):
            _acc(p, lambda: piece)

    return _result(tape, np.concatenate(vals, axis=axis), parts, back)


def expand_last(tape, a):
    """Append a trailing unit axis (view used to broadcast feature pairs)."""
    return _result(tape, _val(a)[..., None], (a,),
                   lambda g: _acc(a, lambda: g[..., 0]))


def sum_axis(tape, a, axis):
    av = _val(a)

    def back(g):
        _acc(a, lambda: np.broadcast_to(np.expand_dims(g, axis),
                                        av.shape).copy())

    return _result(tape, av.sum(axis=axis), (a,), back)


def _placed(shape, index, values):
    """Zeros of ``shape`` with ``values`` written at ``index``."""
    out = np.zeros(shape)
    out[index] = values
    return out


def take_index(tape, a, index):
    """Select a leading-axis slice a[index] of a parameter tensor."""
    av = _val(a)
    return _result(tape, av[index], (a,),
                   lambda g: _acc(a, lambda: _placed(av.shape, index, g)))


def gather_rows(tape, a, idx):
    """a[..., idx, :] for unique row indices."""
    av = _val(a)
    rows = (..., idx, slice(None))
    return _result(tape, av[rows], (a,),
                   lambda g: _acc(a, lambda: _placed(av.shape, rows, g)))


def scatter_rows(tape, a, idx, n_rows):
    """Place the rows of a (..., rows, F) operand at unique indices of an
    otherwise-zero node axis of length n_rows."""
    av = _val(a)
    rows = (..., idx, slice(None))
    return _result(tape, _placed(av.shape[:-2] + (n_rows, av.shape[-1]),
                                 rows, av), (a,),
                   lambda g: _acc(a, lambda: g[rows]))


def activation(tape, a, kind, bias=None):
    """The layer tail sigma(a + bias) as one record, written into one new
    array; "identity" without a bias returns ``a`` itself and records
    nothing. Leaky ReLU uses the fixed LEAKY_SLOPE_DEFAULT.

    The backward reads the nonlinearity's mask from the output, which
    keeps the sign of its input for relu and for a leaky slope >= 0, so no
    factor array stays on the tape.
    """
    if kind not in NONLINEARITIES:
        raise ValueError(f"unknown nonlinearity {kind!r}")
    if kind == "identity" and bias is None:
        return a
    av = _val(a)
    bv = None if bias is None else _val(bias)
    out = av.copy() if bv is None else av + bv
    if kind == "relu":
        np.maximum(out, 0.0, out=out)
    elif kind == "leaky_relu":
        out *= _leaky_factor(out, LEAKY_SLOPE_DEFAULT)

    def back(g):
        if kind == "relu":
            g = g * (out > 0)
        elif kind == "leaky_relu":
            g = g * _leaky_factor(out, LEAKY_SLOPE_DEFAULT)
        _acc(a, lambda: _unbroadcast(g, av.shape))
        _acc(bias, lambda: _unbroadcast(g, bv.shape))

    return _result(tape, out, (a, bias), back)


def block_mix(tape, x, a, block_of_node):
    """Row-wise mixing with per-block matrices.

    x: (..., n, f); a: (n_blocks, f, g); row i multiplies a[block[i]].
    """
    xv, av = _val(x), _val(a)
    a_exp = av[block_of_node]

    def a_adjoint(g):
        xb = xv.reshape(-1, xv.shape[-2], xv.shape[-1])
        gb = g.reshape(-1, g.shape[-2], g.shape[-1])
        contrib = np.einsum("bnf,bng->nfg", xb, gb)
        da = np.zeros_like(av)
        np.add.at(da, block_of_node, contrib)
        return da

    def back(g):
        _acc(x, lambda: np.einsum("...ng,nfg->...nf", g, a_exp))
        _acc(a, lambda: a_adjoint(g))

    return _result(tape, np.einsum("...nf,nfg->...ng", xv, a_exp), (x, a),
                   back)


def jacobi_shift_values(tape, gamma, s_off, d_off_rows):
    """Entries of R(gamma) = -(D - gamma I)^{-1}(S - D), per feature pair.

    gamma: scalar or (f, g); s_off and d_off_rows: (nnz,) constants giving
    the stored off-diagonal values and the diagonal of their rows. The
    gamma adjoint is the analytic -(D - gamma I)^{-2}(S - D) contraction.
    No layer calls it; the tests' ARMA reference and the bench tracer do."""
    gv = _val(gamma)
    s = s_off[:, None, None]
    denom = d_off_rows[:, None, None] - np.atleast_2d(gv)

    def back(g):
        _acc(gamma, lambda: _unbroadcast(
            (g * (-s / (denom * denom))).sum(axis=0), gv.shape))

    return _result(tape, -s / denom, (gamma,), back)


# ---------------------------------------------------------------------------
# sparse primitives; a ``pattern`` argument is a ``sparse.Pattern``


def spmm_const(tape, S, x):
    """Fixed sparse matrix times tensor; gradient flows to x only, as
    S^T g on S's own product operator, so no transposed matrix is built."""
    xv = _val(x)
    if xv.ndim < 2:
        raise ValueError("spmm_const expects (..., n, f) input")

    def back(g):
        _acc(x, lambda: S._operator().apply_transposed(g, 1))

    return _result(tape, spmm(S, xv), (x,), back)


def spmm_values(tape, vals, x, pattern):
    """Sparse product where the stored values are themselves an operand.

    vals: (nnz,) shared across the batch, or (..., nnz) per sample.
    x:    (..., n, f).
    """
    vv, xv = _val(vals), _val(x)
    op = _Product(pattern, vv, per_sample=vv.ndim > 1)

    def back(g):
        _acc(vals, lambda: _unbroadcast(op.values_adjoint(g, xv, 1),
                                        vv.shape))
        _acc(x, lambda: op.apply_transposed(g, 1))

    return _result(tape, op.apply(xv, 1), (vals, x), back)


def spmm_pairwise(tape, vals, z, pattern):
    """Per-feature-pair sparse product.

    vals: (nnz, f, g); z: (..., n, f, g), broadcasting against the
    values' (f, g); the entry axis sits at -3.
    """
    vv, zv = _val(vals), _val(z)
    op = _Product(pattern, vv)

    def back(g):
        _acc(vals, lambda: _unbroadcast(op.values_adjoint(g, zv, 2),
                                        vv.shape))
        _acc(z, lambda: _unbroadcast(op.apply_transposed(g, 2), zv.shape))

    return _result(tape, op.apply(zv, 2), (vals, z), back)


# ---------------------------------------------------------------------------
# attention primitives; ``pattern`` is supp(I+S), so no row is empty


def edge_score(tape, h, e, pattern, slope):
    """LeakyReLU(e_left . h_i + e_right . h_j) per stored (i, j)."""
    hv, ev = _val(h), _val(e)
    E = ev.reshape(2, -1)
    scores, factor = _edge_scores(hv @ E.T, pattern, slope)

    def back(g):
        D = _edge_scores_adjoint(g * factor, pattern)
        _acc(h, lambda: D @ E)
        _acc(e, lambda: _projection_weight_adjoint(D, hv).T.ravel())

    return _result(tape, scores, (h, e), back)


def support_softmax(tape, scores, pattern, weights=None):
    """Row-segment soft maximum with max subtraction; optional constant
    per-entry weights multiply the scores first."""
    sv = _val(scores)
    vals = _row_softmax(sv * weights if weights is not None else sv, pattern)

    def adjoint(g):
        dz = _row_softmax_adjoint(g, vals, pattern)
        return dz * weights if weights is not None else dz

    return _result(tape, vals, (scores,),
                   lambda g: _acc(scores, lambda: adjoint(g)))


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

    def back(g):
        dz = _row_softmax_adjoint(g, vals, pattern)
        if weights is not None:
            dz = dz * weights
        D = _edge_scores_adjoint(dz * factor, pattern)
        _acc(x, lambda: D @ W.T)
        dW = _projection_weight_adjoint(D, xv)
        _acc(b, lambda: dW @ E)
        _acc(e, lambda: (dW.T @ bv).ravel())

    return _result(tape, vals, (x, b, e), back)
