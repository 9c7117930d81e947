"""Compressed sparse row matrices and the kernels the filter stack runs on.

One immutable CSR layout, ``Pattern``, carries shift operators and every
sparse parameter matrix in the library; a ``SparseMatrix`` is values on
a pattern. Every sparse product with values shared across the batch
(``spmv``, ``spmm`` and the value-operand tape primitives) goes through
one kernel, ``_Product``, which takes one of two paths:

* dense: for small or dense patterns, the dense matrix is built once
  and the product is a BLAS ``D @ X``; ``_dense_fits`` reads only the
  pattern's shape and nnz;
* CSR: for everything else, on the operand (..., n, T) laid out
  node-last, (T, ..., n).

Attention's per-sample hops run entry-major on ``_csr_sums`` and
``_entry_sums``, inside ``nn.autograd.attention_hops``.

Results are deterministic for a fixed shape and BLAS thread count, and a
batched ``spmv`` is bitwise equal to a loop of single-vector calls.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import DimensionMismatch, NoConvergence

# The dense path serves patterns whose dense matrix holds at most
# _DENSE_FILL slots per stored entry, and never more than _DENSE_MAX_ROWS
# rows, so that a 10k-node graph stays on CSR whatever its density.
_DENSE_FILL = 16
_DENSE_MAX_ROWS = 2048
# power iteration stops when two estimates differ by less than POWER_TOL
POWER_TOL = 1e-10
POWER_MAX_ITER = 10000


def _as_index_array(a):
    return np.asarray(a, dtype=np.int64)


def _dense_fits(n_rows, n_cols, nnz):
    """The dispatch rule: True when shared values take the dense path."""
    return n_rows <= _DENSE_MAX_ROWS and n_rows * n_cols <= _DENSE_FILL * nnz


def _segment_sums(contrib, row_ptr, axis=-1):
    """Sum ``contrib`` over CSR row segments of one axis (the last by
    default), in entry order.

    ``np.add.reduceat`` reads an empty segment as the single element at
    its start, so empty rows are zeroed afterwards; a start equal to the
    axis length is out of range, so only then is one zero slot appended.
    """
    starts = row_ptr[:-1]
    if len(starts) and starts[-1] == contrib.shape[axis]:
        pad = list(contrib.shape)
        pad[axis] = 1
        contrib = np.concatenate([contrib, np.zeros(pad)], axis=axis)
    out = np.add.reduceat(contrib, starts, axis=axis)
    empty = row_ptr[1:] == starts
    if empty.any():
        np.moveaxis(out, axis, -1)[..., empty] = 0.0
    return out


def _feature_major(X):
    """(..., n, T) as a contiguous (T, n, B) stack, B the flattened batch,
    so one matmul covers every feature slot."""
    # an explicit batch size, which -1 cannot infer when n = 0
    flat = X.reshape((math.prod(X.shape[:-2]),) + X.shape[-2:])
    return np.ascontiguousarray(flat.transpose(2, 1, 0))


def _laid_out(X):
    """(..., n, T) as a contiguous node-last (T, ..., n) array."""
    return np.ascontiguousarray(np.moveaxis(X, -1, 0))


def _dense_product(D, X):
    """Dense path: the product over the node axis of X (..., m, T).

    D is (n, m), one matrix for every feature slot, or (T, n, m), one
    matrix per feature slot (broadcasting against T).
    """
    if D.ndim == 2:
        return D @ X
    out = (D @ _feature_major(X)).transpose(2, 1, 0)            # (B, n, T)
    return out.reshape(X.shape[:-2] + out.shape[1:])


def _csr_sums(p, values, Xl, axis):
    """CSR kernel on ``p`` for Xl (T first, nodes at ``axis``): gather
    along ``axis``, times the values in place, summed over row segments."""
    out = np.take(Xl, p.col_idx, axis=axis)
    out *= values
    return _segment_sums(out, p.row_ptr, axis)


def _entry_sums(p, Gl, Xl):
    """Per-sample values adjoint of entry-major G and X, (nnz, ...)."""
    gv = np.take(Gl, p.entry_rows(), axis=1)
    gv *= np.take(Xl, p.col_idx, axis=1)
    return gv.sum(axis=0)


def _csr_product(p, values, X):
    """CSR path on the pattern ``p`` for values (nnz, T?) and X (..., m,
    T): the (..., n, T) view of a (T, ..., n) array."""
    v = np.expand_dims(values.T, tuple(range(values.ndim - 1, X.ndim - 1)))
    return np.moveaxis(_csr_sums(p, v, _laid_out(X), -1), 0, -1)


class _Product:
    """Entry values on a CSR pattern as one linear operator.

    ``pattern`` is a ``Pattern``. Operands are (..., n_cols, T): one
    feature axis, so a vector is passed as ``x[..., None]`` and pairwise
    values as f*g slots. ``values`` is (nnz,), shared by every batch
    element and feature slot, or (nnz, T), one scalar per entry and
    feature slot. The dense path serves them when ``_dense_fits`` says
    so, and node-last CSR all else.
    """

    __slots__ = ("pattern", "values", "dense")

    def __init__(self, pattern, values):
        self.pattern = pattern
        self.values = values
        self.dense = None
        if _dense_fits(pattern.n_rows, pattern.n_cols, pattern.nnz):
            vals = np.moveaxis(values, 0, -1)
            self.dense = np.zeros(vals.shape[:-1]
                                  + (pattern.n_rows, pattern.n_cols))
            self.dense[..., pattern.entry_rows(), pattern.col_idx] = vals

    def apply(self, X):
        """S X for X of shape (..., n_cols, T)."""
        if self.dense is not None:
            return _dense_product(self.dense, X)
        return _csr_product(self.pattern, self.values, X)

    def apply_transposed(self, G):
        """S^T G for G of shape (..., n_rows, T)."""
        if self.dense is not None:
            return _dense_product(self.dense.swapaxes(-1, -2), G)
        T, perm = self.pattern.transpose_permutation()
        return _csr_product(T, self.values[perm], G)

    def values_adjoint(self, G, X):
        """Gradient of sum(G * apply(X)) by the values: summed over the
        batch axes, and the feature axis unless the values carry it."""
        rows, cols = self.pattern.entry_rows(), self.pattern.col_idx
        if self.dense is None:
            # G has the output's full shape, so X's gather broadcasts into
            # it; the fancy gathers' F order sets the order of the sums
            gv = _laid_out(G)[..., rows]
            gv *= _laid_out(X)[..., cols]
            summed = tuple(range(self.values.ndim - 1, gv.ndim - 1))
            return np.moveaxis(gv.sum(axis=summed), -1, 0)
        if self.dense.ndim == 2:
            # (G X^T) over every batch and feature axis at once
            axes = [a for a in range(G.ndim) if a != G.ndim - 2]
            return np.tensordot(G, X, axes=(axes, axes))[rows, cols]
        M = _feature_major(G) @ _feature_major(X).swapaxes(-1, -2)  # (T, n, m)
        return np.moveaxis(M[..., rows, cols], -1, 0)


def _row_ptr(sorted_rows, n_rows):
    """CSR row pointers of entries whose row indices are sorted."""
    return np.searchsorted(sorted_rows, np.arange(n_rows + 1))


def _frozen(a):
    a.flags.writeable = False
    return a


class Pattern:
    """Immutable CSR sparsity pattern: sorted, unique columns per row.

    Shift operators, parameter matrices on supp(I+S) and the sparse tape
    primitives' operands share this type. It is validated once, when
    built; entry rows, the transpose and the diagonal positions are
    cached on first use, so the index arrays must not be mutated.
    """

    __slots__ = ("n_rows", "n_cols", "row_ptr", "col_idx", "_rows", "_t",
                 "_diag")

    def __init__(self, n_rows, n_cols, row_ptr, col_idx):
        self._set(n_rows, n_cols, row_ptr, col_idx)
        self._validate()

    @classmethod
    def _derived(cls, n_rows, n_cols, row_ptr, col_idx):
        """Build without the O(nnz) checks, for a layout derived from a
        valid pattern."""
        p = cls.__new__(cls)
        p._set(n_rows, n_cols, row_ptr, col_idx)
        return p

    def _set(self, n_rows, n_cols, row_ptr, col_idx):
        self.n_rows = int(n_rows)
        self.n_cols = int(n_cols)
        self.row_ptr = _as_index_array(row_ptr)
        self.col_idx = _as_index_array(col_idx)
        self._rows = self._t = self._diag = None

    def _validate(self):
        if self.n_rows < 0 or self.n_cols < 0:
            raise ValueError("pattern dimensions must be non-negative")
        if self.row_ptr.shape != (self.n_rows + 1,):
            raise ValueError("row_ptr must have length n_rows+1")
        if self.col_idx.ndim != 1:
            raise ValueError("col_idx must be one-dimensional")
        if self.row_ptr[0] != 0 or self.row_ptr[-1] != self.nnz:
            raise ValueError("row_ptr must start at 0 and end at nnz")
        if np.any(np.diff(self.row_ptr) < 0):
            raise ValueError("row_ptr must be non-decreasing")
        if self.nnz:
            if self.col_idx.min() < 0 or self.col_idx.max() >= self.n_cols:
                raise ValueError("column index out of range")
        # columns must increase at every step that starts no new row
        starts = self.row_ptr[1:-1]
        bad = np.diff(self.col_idx) <= 0
        bad[starts[(starts > 0) & (starts < self.nnz)] - 1] = False
        if bad.any():
            i = int(np.searchsorted(self.row_ptr, np.argmax(bad), "right")) - 1
            raise ValueError(f"columns not strictly increasing in row {i}")

    @property
    def nnz(self):
        return len(self.col_idx)

    @property
    def shape(self):
        return (self.n_rows, self.n_cols)

    def entry_rows(self):
        """Row index of each stored entry, aligned with col_idx."""
        if self._rows is None:
            self._rows = _frozen(np.repeat(
                np.arange(self.n_rows, dtype=np.int64), np.diff(self.row_ptr)))
        return self._rows

    def transpose_permutation(self):
        """(T, perm): the transposed pattern and, per entry of T, the
        position of that entry here. A stable sort by column keeps each
        column's rows ascending, so T is valid CSR."""
        if self._t is None:
            perm = _frozen(np.argsort(self.col_idx, kind="stable"))
            T = Pattern._derived(self.n_cols, self.n_rows,
                                 _row_ptr(self.col_idx[perm], self.n_cols),
                                 self.entry_rows()[perm])
            self._t = (T, perm)
        return self._t

    def diag_positions(self):
        """CSR positions of the (i, i) entries, in row order."""
        if self._diag is None:
            self._diag = _frozen(
                np.flatnonzero(self.entry_rows() == self.col_idx))
        return self._diag

    def require_diagonal(self):
        """Raise ValueError unless this is a square pattern holding every
        diagonal slot, as supp(I+S) does."""
        if (self.n_rows != self.n_cols
                or len(self.diag_positions()) != self.n_rows):
            raise ValueError("support mask must contain the full diagonal")

    def matrix(self, values):
        """A SparseMatrix with the given entry values on this pattern."""
        S = SparseMatrix.__new__(SparseMatrix)
        S._set(self, values)
        return S

    def select(self, keep):
        """Sub-pattern of the entries where the boolean ``keep`` holds."""
        return Pattern._derived(
            self.n_rows, self.n_cols,
            _row_ptr(self.entry_rows()[keep], self.n_rows), self.col_idx[keep])

    def submatrix(self, nodes):
        """(P, pos) for unique indices ``nodes``: P is the square pattern
        of the entries whose row and column both lie in ``nodes``, each
        renumbered by its position in ``nodes``, and pos[e] is the
        position here of P's entry e."""
        local = np.full(max(self.shape), -1, dtype=np.int64)
        local[nodes] = np.arange(len(nodes))
        rows, cols = local[self.entry_rows()], local[self.col_idx]
        keep = np.flatnonzero((rows >= 0) & (cols >= 0))
        pos = keep[np.lexsort((cols[keep], rows[keep]))]
        k = len(nodes)
        return Pattern._derived(k, k, _row_ptr(rows[pos], k), cols[pos]), pos

    def positions(self, other):
        """Position here of each entry of the same-shaped pattern
        ``other``, or -1 where this pattern does not store it."""
        if other.shape != self.shape:
            raise DimensionMismatch(
                f"pattern is {self.n_rows}x{self.n_cols}, "
                f"other is {other.n_rows}x{other.n_cols}")
        mine = self.entry_rows() * self.n_cols + self.col_idx
        theirs = other.entry_rows() * self.n_cols + other.col_idx
        pos = np.searchsorted(mine, theirs)
        hit = pos < self.nnz
        hit[hit] = mine[pos[hit]] == theirs[hit]
        return np.where(hit, pos, -1)

    def contains(self, S):
        """True when every stored entry of S sits on this pattern."""
        return S.shape == self.shape and bool(
            np.all(self.positions(S.pattern) >= 0))

    def aligned_values(self, S, diag_fill_zero=None):
        """Values of S read at each position here (zero where S is absent).

        diag_fill_zero, when given, replaces exact-zero diagonal reads;
        the weighted soft maximum uses 1.0 there.
        """
        pos = self.positions(S.pattern)
        hit = pos >= 0
        out = np.zeros(self.nnz)
        out[pos[hit]] = S.values[hit]
        if diag_fill_zero is not None:
            diag = self.diag_positions()
            out[diag[out[diag] == 0.0]] = diag_fill_zero
        return out

class SparseMatrix:
    """Real CSR matrix: one value per stored entry of a ``Pattern``.

    ``values`` must not be mutated in place: products cache a dense copy
    of the matrix on first use, and ``split_diagonal`` its diagonal and
    off-diagonal part, and both would go stale. ``with_values`` and
    ``scale`` return a new matrix on the same pattern instead.
    """

    __slots__ = ("pattern", "values", "_op", "_split")

    def __init__(self, n_rows, n_cols, row_ptr, col_idx, values):
        self._set(Pattern(n_rows, n_cols, row_ptr, col_idx), values)

    def _set(self, pattern, values):
        self.pattern = pattern
        self.values = np.asarray(values, dtype=np.float64)
        self._op = self._split = None
        if len(self.values) != pattern.nnz:
            raise ValueError("col_idx and values must have equal length")

    # the layout is read through the pattern
    n_rows = property(lambda self: self.pattern.n_rows)
    n_cols = property(lambda self: self.pattern.n_cols)
    row_ptr = property(lambda self: self.pattern.row_ptr)
    col_idx = property(lambda self: self.pattern.col_idx)
    nnz = property(lambda self: self.pattern.nnz)
    shape = property(lambda self: self.pattern.shape)

    def entry_rows(self):
        """Row index of each stored entry, aligned with col_idx/values."""
        return self.pattern.entry_rows()

    def _operator(self):
        """This matrix as a ``_Product``, kept with its dense copy."""
        if self._op is None:
            self._op = _Product(self.pattern, self.values)
        return self._op

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
        return cls(n_rows, n_cols, _row_ptr(rows, n_rows), cols, vals)

    @classmethod
    def from_dense(cls, dense):
        dense = np.asarray(dense, dtype=np.float64)
        rows, cols = np.nonzero(np.abs(dense) > 0.0)
        return cls.from_coo(dense.shape[0], dense.shape[1],
                            rows, cols, dense[rows, cols])

    def to_dense(self):
        out = np.zeros((self.n_rows, self.n_cols))
        out[self.entry_rows(), self.col_idx] = self.values
        return out

    def diagonal(self):
        d = np.zeros(min(self.n_rows, self.n_cols))
        diag = self.pattern.diag_positions()
        d[self.col_idx[diag]] = self.values[diag]
        return d

    def split_diagonal(self):
        """(d, S_off) with S = diag(d) + S_off: the diagonal, read-only,
        and the stored off-diagonal entries on their own pattern; built
        on first use and kept."""
        if self._split is None:
            off = self.entry_rows() != self.col_idx
            self._split = (_frozen(self.diagonal()),
                           self.pattern.select(off).matrix(self.values[off]))
        return self._split

    def transpose(self):
        """S^T, on the pattern's cached transpose."""
        T, perm = self.pattern.transpose_permutation()
        return T.matrix(self.values[perm])

    def with_values(self, values):
        """Same pattern, new values."""
        return self.pattern.matrix(values)

    def scale(self, factor):
        return self.with_values(self.values * float(factor))

    def __repr__(self):
        return f"SparseMatrix({self.n_rows}x{self.n_cols}, nnz={self.nnz})"


def spmv(S, x):
    """Sparse matrix times vector. Accepts batched x of shape (..., n)."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != S.n_cols:
        raise DimensionMismatch(
            f"spmv: matrix has {S.n_cols} columns, vector has {x.shape[-1]}")
    return S._operator().apply(x[..., None])[..., 0]


def spmm(S, X):
    """Sparse matrix times dense matrix, columnwise spmv semantics.

    X may carry leading batch axes: shape (..., n, f).
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim < 2 or X.shape[-2] != S.n_cols:
        raise DimensionMismatch(
            f"spmm: matrix has {S.n_cols} columns, X has shape {X.shape}")
    return S._operator().apply(X)


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


def power_iteration_lambda_max(S):
    """Magnitude of the dominant eigenvalue by normalized power iteration.

    The convergence monitor is the norm-growth estimate ||S x_k|| for unit
    x_k (the square root of the Rayleigh quotient of S^T S). Unlike the
    plain Rayleigh quotient of S, it converges to |lambda|_max even when
    the spectrum is symmetric about zero (bipartite adjacencies).
    """
    if S.n_rows != S.n_cols:
        raise DimensionMismatch("power iteration needs a square matrix")
    n = S.n_rows
    x = np.ones(n)
    x[0] += 0.5  # deterministic start, not orthogonal to e_0-heavy modes
    x /= np.linalg.norm(x)
    prev = None
    for _ in range(POWER_MAX_ITER):
        y = spmv(S, x)
        est = float(np.linalg.norm(y))
        if est == 0.0:
            return 0.0
        if prev is not None and abs(est - prev) < POWER_TOL:
            return est
        prev = est
        x = y / est
    raise NoConvergence(
        f"power iteration did not converge in {POWER_MAX_ITER} iterations")


def support_mask(S):
    """Pattern of I_N + S for a square shift operator."""
    if S.n_rows != S.n_cols:
        raise DimensionMismatch("support mask needs a square matrix")
    n = S.n_rows
    keys = np.union1d(S.entry_rows() * n + S.col_idx,
                      np.arange(n, dtype=np.int64) * (n + 1))
    return Pattern._derived(n, n, _row_ptr(keys // n, n), keys % n)
