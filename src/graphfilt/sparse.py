"""Compressed sparse row matrices and the kernels the filter stack runs on.

The CSR layout is the carrier for shift operators and for every sparse
parameter matrix in the library. Every sparse product (``spmv``,
``spmm`` and the value-operand tape primitives) goes through one kernel,
``_Product``, which picks one of two paths from the pattern's shape and
nnz and from whether the values are shared across the batch:

* dense: for small or dense patterns whose values are shared, the dense
  matrix is built once and the product is a BLAS ``D @ X``;
* CSR: a gather of the operand rows plus a segment sum per row, for large
  sparse patterns and for per-sample values. It never builds a dense
  matrix.

Results are deterministic for a fixed shape and BLAS thread count, and a
batched ``spmv`` is bitwise equal to a loop of single-vector calls.
"""
from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, NoConvergence

# The dense path serves patterns whose dense matrix holds at most
# _DENSE_FILL slots per stored entry, and never more than _DENSE_MAX_ROWS
# rows, so that a 10k-node graph stays on CSR whatever its density.
_DENSE_FILL = 16
_DENSE_MAX_ROWS = 2048


def _as_index_array(a):
    return np.asarray(a, dtype=np.int64)


def _dense_fits(n_rows, n_cols, nnz):
    """The dispatch rule: True when shared values take the dense path."""
    return n_rows <= _DENSE_MAX_ROWS and n_rows * n_cols <= _DENSE_FILL * nnz


def _segment_sums(contrib, row_ptr, axis):
    """Sum ``contrib`` over CSR row segments along ``axis``.

    ``np.add.reduceat`` reads an empty segment as the single element at
    its start, so empty rows are zeroed afterwards; a start equal to the
    axis length is out of range, so only then is one zero slot appended.
    """
    contrib = np.asarray(contrib, dtype=np.float64)
    axis = axis % contrib.ndim
    starts = row_ptr[:-1]
    if len(starts) and starts[-1] == contrib.shape[axis]:
        pad_shape = list(contrib.shape)
        pad_shape[axis] = 1
        contrib = np.concatenate([contrib, np.zeros(pad_shape)], axis=axis)
    out = np.add.reduceat(contrib, starts, axis=axis)
    empty = row_ptr[1:] == starts
    if empty.any():
        idx = [slice(None)] * out.ndim
        idx[axis] = empty
        out[tuple(idx)] = 0.0
    return out


def _feature_major(X, trailing):
    """(..., n, *F) with ``trailing`` = len(F) as a contiguous (*F, n, B)
    stack, B the flattened batch, so one matmul covers every feature slot."""
    flat = X.reshape((-1,) + X.shape[X.ndim - 1 - trailing:])
    order = tuple(range(2, trailing + 2)) + (1, 0)
    return np.ascontiguousarray(flat.transpose(order))


def _dense_product(D, X, trailing):
    """Dense path: the product over the node axis of X (..., m, *F), which
    precedes its ``trailing`` feature axes.

    D is (n, m), one matrix for every feature slot, or (*F, n, m), one
    matrix per feature slot (broadcasting against F).
    """
    if D.ndim == 2 and trailing == 0:
        # a stack of mat-vecs: bitwise equal to one call per vector
        return (D @ X[..., None])[..., 0]
    if D.ndim == 2 and trailing == 1:
        return D @ X
    out = D @ _feature_major(X, trailing)                       # (*F, n, B)
    out = out.transpose((trailing + 1, trailing) + tuple(range(trailing)))
    return out.reshape(X.shape[:X.ndim - 1 - trailing] + out.shape[1:])


def _csr_product(row_ptr, col_idx, values, X, trailing):
    """CSR path: row i sums values[..., e, *] * X[..., col_idx[e], *] over
    its stored entries e, in entry order.

    values is (..., nnz, *T) with len(T) = ``trailing``, T broadcasting
    against the feature axes of X (..., m, *F).
    """
    tail = (slice(None),) * trailing
    contrib = values * X[(Ellipsis, col_idx) + tail]
    return _segment_sums(contrib, row_ptr, axis=-1 - trailing)


class _Product:
    """Entry values on a CSR pattern as one linear operator, applied
    through the path ``_dense_fits`` picks.

    ``pattern`` supplies n_rows, n_cols, nnz, row_ptr, col_idx and
    entry_rows(); transposed CSR products also use
    transpose_permutation(). ``values`` is (nnz, *T), shared by every
    batch element, where T is empty (one scalar per entry) or has one axis
    per operand feature axis (one scalar per entry and feature slot). With
    ``per_sample`` it is (..., nnz), one scalar per entry and batch
    element; such values always take the CSR path, because a per-sample
    dense stack was slower for the one-feature operands of the attention
    layers' first hop. Operands are (..., n_cols, *F),
    with ``trailing`` = len(F) feature axes. ``dense`` passes in a dense
    copy built earlier for the same pattern and values.
    """

    __slots__ = ("pattern", "values", "carried", "dense")

    def __init__(self, pattern, values, per_sample=False, dense=None):
        self.pattern = pattern
        self.values = values
        # feature axes the values carry after the entry axis
        self.carried = 0 if per_sample else values.ndim - 1
        if dense is None and not per_sample and _dense_fits(
                pattern.n_rows, pattern.n_cols, pattern.nnz):
            vals = np.moveaxis(values, 0, -1)
            dense = np.zeros(vals.shape[:-1]
                             + (pattern.n_rows, pattern.n_cols))
            dense[..., pattern.entry_rows(), pattern.col_idx] = vals
        self.dense = dense

    def _aligned(self, trailing):
        """values with exactly ``trailing`` axes after the entry axis."""
        v = self.values
        return v.reshape(v.shape + (1,) * (trailing - self.carried))

    def apply(self, X, trailing):
        """S X for X of shape (..., n_cols, *F)."""
        if self.dense is not None:
            return _dense_product(self.dense, X, trailing)
        return _csr_product(self.pattern.row_ptr, self.pattern.col_idx,
                            self._aligned(trailing), X, trailing)

    def apply_transposed(self, G, trailing):
        """S^T G for G of shape (..., n_rows, *F)."""
        if self.dense is not None:
            return _dense_product(self.dense.swapaxes(-1, -2), G, trailing)
        t_row_ptr, t_col, perm = self.pattern.transpose_permutation()
        vt = np.take(self._aligned(trailing), perm, axis=-1 - trailing)
        return _csr_product(t_row_ptr, t_col, vt, G, trailing)

    def values_adjoint(self, G, X, trailing):
        """Gradient of sum(G * apply(X)) with respect to the values.

        Feature axes the values do not carry are summed; batch axes are
        summed on the dense path and kept on the CSR path, so callers
        reduce the result to the values' shape.
        """
        rows, cols = self.pattern.entry_rows(), self.pattern.col_idx
        if self.dense is None:
            tail = (slice(None),) * trailing
            gv = G[(Ellipsis, rows) + tail] * X[(Ellipsis, cols) + tail]
            summed = tuple(range(gv.ndim - trailing + self.carried, gv.ndim))
            return gv.sum(axis=summed) if summed else gv
        if self.dense.ndim == 2:
            # (G X^T) over every batch and feature axis at once
            axes = [a for a in range(G.ndim) if a != G.ndim - 1 - trailing]
            return np.tensordot(G, X, axes=(axes, axes))[rows, cols]
        M = (_feature_major(G, trailing)
             @ _feature_major(X, trailing).swapaxes(-1, -2))   # (*F, n, m)
        return np.moveaxis(M[..., rows, cols], -1, 0)


class SparseMatrix:
    """Real CSR matrix with sorted, unique column indices per row.

    ``values`` must not be mutated in place: products cache a dense copy
    of the matrix on first use, which would go stale. ``with_values`` and
    ``scale`` return a new matrix instead.
    """

    __slots__ = ("n_rows", "n_cols", "row_ptr", "col_idx", "values",
                 "_dense")

    def __init__(self, n_rows, n_cols, row_ptr, col_idx, values):
        self.n_rows = int(n_rows)
        self.n_cols = int(n_cols)
        self.row_ptr = _as_index_array(row_ptr)
        self.col_idx = _as_index_array(col_idx)
        self.values = np.asarray(values, dtype=np.float64)
        self._dense = None
        self._validate()

    def _validate(self):
        if self.row_ptr.shape != (self.n_rows + 1,):
            raise ValueError("row_ptr must have length n_rows+1")
        if self.row_ptr[0] != 0 or self.row_ptr[-1] != len(self.values):
            raise ValueError("row_ptr must start at 0 and end at nnz")
        if np.any(np.diff(self.row_ptr) < 0):
            raise ValueError("row_ptr must be non-decreasing")
        if len(self.col_idx) != len(self.values):
            raise ValueError("col_idx and values must have equal length")
        if len(self.col_idx):
            if self.col_idx.min() < 0 or self.col_idx.max() >= self.n_cols:
                raise ValueError("column index out of range")
        # columns must increase at every step that starts no new row
        starts = self.row_ptr[1:-1]
        bad = np.diff(self.col_idx) <= 0
        bad[starts[(starts > 0) & (starts < len(self.col_idx))] - 1] = False
        if bad.any():
            i = int(np.searchsorted(self.row_ptr, np.argmax(bad), "right")) - 1
            raise ValueError(f"columns not strictly increasing in row {i}")

    @property
    def nnz(self):
        return len(self.values)

    def _operator(self):
        """This matrix as a ``_Product``. Only the dense copy is cached: an
        operator kept here would reference the matrix back, and the cycle
        would hold both until the garbage collector ran."""
        op = _Product(self, self.values, dense=self._dense)
        self._dense = op.dense
        return op

    @property
    def shape(self):
        return (self.n_rows, self.n_cols)

    def entry_rows(self):
        """Row index of each stored entry, aligned with col_idx/values."""
        return np.repeat(np.arange(self.n_rows, dtype=np.int64),
                         np.diff(self.row_ptr))

    @classmethod
    def from_coo(cls, n_rows, n_cols, rows, cols, vals):
        """Build from unordered triplets; duplicate positions are summed."""
        rows = _as_index_array(rows)
        cols = _as_index_array(cols)
        vals = np.asarray(vals, dtype=np.float64)
        order = np.lexsort((cols, rows))
        rows, cols, vals = rows[order], cols[order], vals[order]
        if len(rows):
            keep = np.ones(len(rows), dtype=bool)
            keep[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
            group = np.cumsum(keep) - 1
            merged = np.zeros(group[-1] + 1)
            np.add.at(merged, group, vals)
            rows, cols, vals = rows[keep], cols[keep], merged
        row_ptr = np.zeros(n_rows + 1, dtype=np.int64)
        np.add.at(row_ptr, rows + 1, 1)
        row_ptr = np.cumsum(row_ptr)
        return cls(n_rows, n_cols, row_ptr, cols, vals)

    @classmethod
    def from_dense(cls, dense, tol=0.0):
        dense = np.asarray(dense, dtype=np.float64)
        rows, cols = np.nonzero(np.abs(dense) > tol)
        return cls.from_coo(dense.shape[0], dense.shape[1],
                            rows, cols, dense[rows, cols])

    @classmethod
    def identity(cls, n):
        idx = np.arange(n, dtype=np.int64)
        return cls(n, n, np.arange(n + 1, dtype=np.int64), idx, np.ones(n))

    def to_dense(self):
        out = np.zeros((self.n_rows, self.n_cols))
        out[self.entry_rows(), self.col_idx] = self.values
        return out

    def diagonal(self):
        d = np.zeros(min(self.n_rows, self.n_cols))
        rows = self.entry_rows()
        on_diag = rows == self.col_idx
        d[rows[on_diag]] = self.values[on_diag]
        return d

    def transpose(self):
        t_row_ptr, t_col, perm = csr_transpose_permutation(
            self.n_rows, self.n_cols, self.row_ptr, self.col_idx)
        return SparseMatrix(self.n_cols, self.n_rows, t_row_ptr, t_col,
                            self.values[perm])

    def with_values(self, values):
        """Same pattern, new values."""
        return SparseMatrix(self.n_rows, self.n_cols,
                            self.row_ptr, self.col_idx, values)

    def scale(self, factor):
        return self.with_values(self.values * float(factor))

    def __repr__(self):
        return f"SparseMatrix({self.n_rows}x{self.n_cols}, nnz={self.nnz})"


def csr_transpose_permutation(n_rows, n_cols, row_ptr, col_idx):
    """Transpose pattern plus the entry permutation old->transposed order.

    Stable sort by column keeps rows ascending within each column, so the
    transposed pattern is valid CSR.
    """
    perm = np.argsort(col_idx, kind="stable")
    rows = np.repeat(np.arange(n_rows, dtype=np.int64), np.diff(row_ptr))
    t_col = rows[perm]
    t_row_ptr = np.zeros(n_cols + 1, dtype=np.int64)
    np.add.at(t_row_ptr, col_idx[perm] + 1, 1)
    t_row_ptr = np.cumsum(t_row_ptr)
    return t_row_ptr, t_col, perm


def spmv(S, x):
    """Sparse matrix times vector. Accepts batched x of shape (..., n)."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != S.n_cols:
        raise DimensionMismatch(
            f"spmv: matrix has {S.n_cols} columns, vector has {x.shape[-1]}")
    return S._operator().apply(x, 0)


def spmm(S, X):
    """Sparse matrix times dense matrix, columnwise spmv semantics.

    X may carry leading batch axes: shape (..., n, f).
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim < 2 or X.shape[-2] != S.n_cols:
        raise DimensionMismatch(
            f"spmm: matrix has {S.n_cols} columns, X has shape {X.shape}")
    return S._operator().apply(X, 1)


class Permutation:
    """Bijection on [0, n). Result entry i of a permuted object reads
    position map[i] of the original."""

    __slots__ = ("map",)

    def __init__(self, mapping):
        self.map = _as_index_array(mapping)
        n = len(self.map)
        if not np.array_equal(np.sort(self.map), np.arange(n)):
            raise ValueError("mapping is not a bijection on [0, n)")

    @property
    def n(self):
        return len(self.map)

    def inverse(self):
        inv = np.empty_like(self.map)
        inv[self.map] = np.arange(self.n)
        return Permutation(inv)

    @classmethod
    def identity(cls, n):
        return cls(np.arange(n))

    @classmethod
    def random(cls, n, rng):
        return cls(rng.permutation(n))

    def matrix(self):
        """Dense P with P[map[i], i] = 1, so P^T S P == permute_shift."""
        P = np.zeros((self.n, self.n))
        P[self.map, np.arange(self.n)] = 1.0
        return P


def permute_signal(x, perm):
    """P^T x: entry i of the result is x[map[i]] (along the node axis -1
    for vectors, -2 for node-by-feature arrays)."""
    x = np.asarray(x, dtype=np.float64)
    axis = -1 if x.ndim == 1 else -2
    if x.shape[axis] != perm.n:
        raise DimensionMismatch("permute_signal: size mismatch")
    return np.take(x, perm.map, axis=axis)


def permute_shift(S, perm):
    """P^T S P: entry (i, j) of the result is S[map[i], map[j]]."""
    if S.n_rows != perm.n or S.n_cols != perm.n:
        raise DimensionMismatch("permute_shift: size mismatch")
    inv = perm.inverse().map
    rows = inv[S.entry_rows()]
    cols = inv[S.col_idx]
    return SparseMatrix.from_coo(S.n_rows, S.n_cols, rows, cols, S.values)


def power_iteration_lambda_max(S, tol=1e-10, max_iter=10000):
    """Magnitude of the dominant eigenvalue by normalized power iteration.

    The convergence monitor is the norm-growth estimate ||S x_k|| for unit
    x_k (the square root of the Rayleigh quotient of S^T S). Unlike the
    plain Rayleigh quotient of S, it converges to |lambda|_max even when
    the spectrum is symmetric about zero (bipartite adjacencies).
    """
    if S.n_rows != S.n_cols:
        raise DimensionMismatch("power iteration needs a square matrix")
    if tol <= 0:
        raise ValueError("tol must be positive")
    n = S.n_rows
    x = np.ones(n)
    x[0] += 0.5  # deterministic start, not orthogonal to e_0-heavy modes
    x /= np.linalg.norm(x)
    prev = None
    for _ in range(max_iter):
        y = spmv(S, x)
        est = float(np.linalg.norm(y))
        if est == 0.0:
            return 0.0
        if prev is not None and abs(est - prev) < tol:
            return est
        prev = est
        x = y / est
    raise NoConvergence(
        f"power iteration did not converge in {max_iter} iterations")


class SupportMask:
    """Sparsity pattern of I_N + S, always containing every diagonal slot.

    Edge-varying parameter matrices and attention shifts live on this
    pattern; entries are addressed by their CSR position.
    """

    __slots__ = ("n", "row_ptr", "col_idx", "_rows", "_t_cache")

    def __init__(self, n, row_ptr, col_idx):
        self.n = int(n)
        self.row_ptr = _as_index_array(row_ptr)
        self.col_idx = _as_index_array(col_idx)
        self._rows = None
        self._t_cache = None
        diag_ok = np.zeros(self.n, dtype=bool)
        on_diag = self.entry_rows() == self.col_idx
        diag_ok[self.entry_rows()[on_diag]] = True
        if not diag_ok.all():
            raise ValueError("support mask must contain the full diagonal")

    @property
    def nnz(self):
        return len(self.col_idx)

    def entry_rows(self):
        if self._rows is None:
            self._rows = np.repeat(np.arange(self.n, dtype=np.int64),
                                   np.diff(self.row_ptr))
        return self._rows

    def transpose_permutation(self):
        if self._t_cache is None:
            self._t_cache = csr_transpose_permutation(
                self.n, self.n, self.row_ptr, self.col_idx)
        return self._t_cache

    def matrix(self, values):
        return SparseMatrix(self.n, self.n, self.row_ptr, self.col_idx, values)

    def diag_positions(self):
        """CSR positions of the (i, i) entries, in row order."""
        return np.nonzero(self.entry_rows() == self.col_idx)[0]

    def contains(self, S):
        """True when every stored entry of S sits on this pattern."""
        if S.n_rows != self.n or S.n_cols != self.n:
            return False
        if S.nnz == 0:
            return True
        mine = self.entry_rows() * self.n + self.col_idx
        theirs = S.entry_rows() * self.n + S.col_idx
        pos = np.minimum(np.searchsorted(mine, theirs), self.nnz - 1)
        return bool(np.all(mine[pos] == theirs))

    def aligned_values(self, S, diag_fill_zero=None):
        """Values of S read at each mask position (zero where S is absent).

        diag_fill_zero, when given, replaces exact-zero diagonal reads;
        the weighted soft maximum uses 1.0 there.
        """
        keys_s = S.entry_rows() * S.n_cols + S.col_idx
        rows = self.entry_rows()
        keys_m = rows * self.n + self.col_idx
        pos = np.searchsorted(keys_s, keys_m)
        pos_c = np.minimum(pos, max(len(keys_s) - 1, 0))
        out = np.zeros(self.nnz)
        if len(keys_s):
            hit = keys_s[pos_c] == keys_m
            out[hit] = S.values[pos_c[hit]]
        if diag_fill_zero is not None:
            fill = (rows == self.col_idx) & (out == 0.0)
            out[fill] = diag_fill_zero
        return out


def support_mask(S):
    """Pattern of I_N + S for a square shift operator."""
    if S.n_rows != S.n_cols:
        raise DimensionMismatch("support mask needs a square matrix")
    n = S.n_rows
    rows = np.concatenate([S.entry_rows(), np.arange(n, dtype=np.int64)])
    cols = np.concatenate([S.col_idx, np.arange(n, dtype=np.int64)])
    merged = SparseMatrix.from_coo(n, n, rows, cols, np.ones(len(rows)))
    return SupportMask(n, merged.row_ptr, merged.col_idx)
