"""The size-dispatched sparse product kernel: both paths against dense
numpy and scipy oracles, shared values against the entry-major CSR
kernel the node-last one replaced, the dispatch rule, the transpose-free
backward of the constant shift product, and two-layer gradients of every
family on a graph taking each path, with and across ReLU kinks."""
import gc

import numpy as np
import pytest

from graphfilt.graphs import Graph, build_shift
from graphfilt.nn import (ArmaLayer, BlockVaryingLayer, EdgeVaryingGatLayer,
                          EdgeVaryingLayer, GcatLayer, HybridGcatLayer,
                          HybridLayer, Model, PolynomialLayer, ShiftContext,
                          cross_entropy, finite_difference_check,
                          init_params)
from graphfilt.nn import autograd as ag
from graphfilt.sparse import (SparseMatrix, _dense_fits, _dense_product,
                              _Product, _segment_sums, spmm, spmv)

BATCHES = [(), (3,), (2, 3)]


def random_pattern(rng, n_rows, n_cols, density=0.4):
    """Random CSR pattern whose first and last rows are empty."""
    keep = rng.random((n_rows, n_cols)) < density
    keep[[0, -1]] = False
    keep[n_rows // 2, rng.integers(n_cols)] = True
    rows, cols = np.nonzero(keep)
    S = SparseMatrix.from_coo(n_rows, n_cols, rows, cols,
                              rng.normal(size=len(rows)))
    return S.pattern, S


def dense_stack(p, values):
    """Dense matrices, entry by entry, for values whose first axis runs
    over the stored entries; the other axes lead the (n, m) result."""
    v = np.moveaxis(values, 0, -1)
    D = np.zeros(v.shape[:-1] + (p.n_rows, p.n_cols))
    for e, (i, j) in enumerate(zip(p.entry_rows(), p.col_idx)):
        D[..., i, j] = v[..., e]
    return D


def oracle(p, values, X, feature_axes):
    """Dense numpy reference of the product with shared values; X has
    ``feature_axes`` axes after the node axis (2 for pairwise values)."""
    D = dense_stack(p, values)
    if D.ndim == 2:
        node = X.ndim - 1 - feature_axes
        out = np.einsum("ij,...j->...i", D, np.moveaxis(X, node, -1))
        return np.moveaxis(out, -1, node)
    return np.einsum("fgij,...jfg->...ifg", D, X)


def one_axis(feature_axes, values, *arrays):
    """A case in the kernel's layout, every operand (..., n, T): a vector
    (no feature axis) gains a unit one, and pairwise values (nnz, f, g)
    become (nnz, f*g) slots, each operand (..., n, f, g') broadcast to
    (f, g) and flattened with them. ``read_back`` returns results to
    the caller's shape."""
    if feature_axes == 0:
        return (values,) + tuple(a[..., None] for a in arrays)
    if feature_axes == 1:
        return (values,) + arrays
    fg = values.shape[1:]
    return (values.reshape(len(values), -1),) + tuple(
        np.broadcast_to(a, a.shape[:-2] + fg).reshape(a.shape[:-2] + (-1,))
        for a in arrays)


def read_back(Y, shape):
    """A kernel result (..., n, T) in the caller's ``shape``, whose axes
    after the node axis hold the T slots."""
    assert Y.shape[:-1] == shape[:Y.ndim - 1]
    return Y.reshape(shape)


def aligned(values, feature_axes):
    return values.reshape(values.shape + (1,) * (feature_axes + 1
                                                 - values.ndim))


def close(got, want, tol=1e-12):
    scale = max(1.0, float(np.max(np.abs(want), initial=0.0)))
    assert got.shape == want.shape
    assert np.max(np.abs(got - want), initial=0.0) / scale < tol


def csr_only(op):
    """The same operator forced onto the CSR path."""
    op.dense = None
    return op


# -- the entry-major CSR kernel the node-last one replaced, kept as the
# -- bitwise reference for shared values

def entry_major_segment_sums(contrib, row_ptr, axis):
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


def entry_major_product(row_ptr, col_idx, values, X, feature_axes):
    """Row i sums values[e, *] * X[..., col_idx[e], *] over its entries e;
    values is (nnz, *T) with len(T) = ``feature_axes``."""
    tail = (slice(None),) * feature_axes
    contrib = values * X[(Ellipsis, col_idx) + tail]
    return entry_major_segment_sums(contrib, row_ptr, axis=-1 - feature_axes)


def entry_major_transposed(p, values, G, feature_axes):
    T, perm = p.transpose_permutation()
    return entry_major_product(T.row_ptr, T.col_idx, values[perm], G,
                               feature_axes)


class TestPaths:
    @pytest.mark.parametrize("batch", BATCHES)
    @pytest.mark.parametrize("feature_axes", [0, 1])
    @pytest.mark.parametrize("shape", [(7, 7), (5, 9), (9, 4)])
    def test_shared_values_match_dense_oracle(self, batch, feature_axes,
                                              shape):
        """A vector operand (no feature axis) runs as x[..., None]."""
        rng = np.random.default_rng(sum(shape) + feature_axes + len(batch))
        p, S = random_pattern(rng, *shape)
        X = rng.normal(size=batch + (shape[1],) + (4,) * feature_axes)
        want = oracle(p, S.values, X, feature_axes)
        vals, X1 = one_axis(feature_axes, S.values, X)
        close(read_back(_dense_product(S.to_dense(), X1), want.shape), want)
        close(read_back(csr_only(_Product(p, vals)).apply(X1), want.shape),
              want)

    @pytest.mark.parametrize("batch", BATCHES)
    @pytest.mark.parametrize("g_z", [1, 3])
    def test_pairwise_values_match_dense_oracle(self, batch, g_z):
        """Pairwise values as (nnz, f*g) slots, the operand broadcast."""
        rng = np.random.default_rng(7 + g_z)
        p, _ = random_pattern(rng, 6, 6)
        vals = rng.normal(size=(p.nnz, 2, 3))
        Z = rng.normal(size=batch + (6, 2, g_z))       # broadcast when g_z=1
        want = oracle(p, vals, np.broadcast_to(Z, batch + (6, 2, 3)), 2)
        flat, Z1 = one_axis(2, vals, Z)
        close(read_back(_dense_product(dense_stack(p, flat), Z1), want.shape),
              want)
        close(read_back(csr_only(_Product(p, flat)).apply(Z1), want.shape),
              want)

    @pytest.mark.parametrize("feature_axes", [0, 1])
    def test_paths_match_scipy(self, feature_axes):
        sp = pytest.importorskip("scipy.sparse")
        rng = np.random.default_rng(9)
        p, S = random_pattern(rng, 8, 11)
        A = sp.csr_matrix((S.values, S.col_idx, S.row_ptr), shape=S.shape)
        X = rng.normal(size=(3, 11) + (5,) * feature_axes)
        want = np.stack([A @ x for x in X])
        _, X1 = one_axis(feature_axes, S.values, X)
        close(read_back(_dense_product(S.to_dense(), X1), want.shape), want)
        close(read_back(csr_only(_Product(p, S.values)).apply(X1),
                        want.shape), want)


class TestAdjoints:
    """apply_transposed and values_adjoint, both paths, against dense
    numpy: <G, S X> differentiated by X and by the values. Pairwise
    values run through spmm_pairwise, which flattens them to f*g slots."""

    @staticmethod
    def _want(p, vals, X, G, D):
        pairs = list(zip(p.entry_rows(), p.col_idx))
        if D.ndim == 2:
            want_x = np.moveaxis(np.tensordot(D.T, G, axes=([1], [-2])),
                                 0, -2)
            want_v = np.array([np.sum(G[..., i, :] * X[..., j, :])
                               for i, j in pairs])
        else:
            want_x = ag._unbroadcast(np.einsum("fgji,...jfg->...ifg", D, G),
                                     X.shape)
            want_v = np.stack([
                (G[..., i, :, :] * X[..., j, :, :]).reshape(
                    (-1,) + vals.shape[1:]).sum(axis=0) for i, j in pairs])
        return want_x, want_v

    @pytest.mark.parametrize("force_csr", [False, True])
    @pytest.mark.parametrize("batch", BATCHES)
    def test_scalar_values(self, force_csr, batch):
        rng = np.random.default_rng(11 + len(batch))
        p, S = random_pattern(rng, 7, 5)
        X = rng.normal(size=batch + (5, 3))
        G = rng.normal(size=batch + (7, 3))
        op = _Product(p, S.values)
        assert op.dense is not None
        if force_csr:
            csr_only(op)
        want_x, want_v = self._want(p, S.values, X, G, S.to_dense())
        close(op.apply_transposed(G), want_x)
        close(ag._unbroadcast(op.values_adjoint(G, X), S.values.shape),
              want_v)

    def _check_pairwise(self, p, vals, X, G, force_csr, monkeypatch):
        """spmm_pairwise's value and both adjoints against dense numpy."""
        if force_csr:       # spmm_pairwise builds its operator on the CSR path
            monkeypatch.setattr("graphfilt.sparse._dense_fits",
                                lambda *shape: False)
        v, x, tape = ag.Tensor(vals), ag.Tensor(X), ag.Tape()
        out = ag.spmm_pairwise(tape, v, x, p)
        tape.backward(out, G)
        close(out.value, oracle(p, vals, np.broadcast_to(
            X, X.shape[:-2] + vals.shape[1:]), 2))
        want_x, want_v = self._want(p, vals, X, G, dense_stack(p, vals))
        close(x.grad, want_x)
        close(v.grad, want_v)

    @pytest.mark.parametrize("force_csr", [False, True])
    @pytest.mark.parametrize("g_z", [1, 3])
    def test_pairwise_broadcast_operand(self, force_csr, g_z, monkeypatch):
        rng = np.random.default_rng(13)
        p, _ = random_pattern(rng, 6, 6)
        vals = rng.normal(size=(p.nnz, 2, 3))
        X = rng.normal(size=(4, 6, 2, g_z))
        G = rng.normal(size=(4, 6, 2, 3))
        assert _dense_fits(6, 6, p.nnz)
        self._check_pairwise(p, vals, X, G, force_csr, monkeypatch)

    @pytest.mark.parametrize("force_csr", [False, True])
    @pytest.mark.parametrize("shape", [(4, 6), (6, 4)])
    def test_pairwise_on_a_rectangular_pattern(self, force_csr, shape,
                                               monkeypatch):
        """spmm_pairwise reads its output's node count from the pattern,
        not from z."""
        n, m = shape
        rng = np.random.default_rng(n)
        p, _ = random_pattern(rng, n, m, density=0.6)
        assert _dense_fits(n, m, p.nnz)
        self._check_pairwise(p, rng.normal(size=(p.nnz, 2, 3)),
                             rng.normal(size=(3, m, 2, 1)),
                             rng.normal(size=(3, n, 2, 3)), force_csr,
                             monkeypatch)


SHARED_CASES = {
    # name: (operand feature axes, values' feature axes, operand's ones)
    "scalar_t0": (0, (), ()),
    "scalar_t1": (1, (), (3,)),
    "pairwise": (2, (2, 3), (2, 3)),
    "pairwise_broadcast": (2, (2, 3), (2, 1)),
}
PATTERNS = {"sparse": (7, 5, 0.4), "long_rows": (9, 20, 0.7)}


class TestNodeLastAgainstEntryMajor:
    """Shared values on the CSR path: the node-last product and its
    transpose, on the (..., n, T) operands of ``one_axis``, are bitwise
    equal to the entry-major kernel on the caller's operands, including
    rows longer than numpy's 8-element pairwise-summation block and
    patterns whose first and last rows are empty."""

    @pytest.mark.parametrize("pattern", sorted(PATTERNS))
    @pytest.mark.parametrize("batch", BATCHES)
    @pytest.mark.parametrize("case", sorted(SHARED_CASES))
    def test_bitwise(self, pattern, batch, case):
        axes, t, f = SHARED_CASES[case]
        rng = np.random.default_rng(len(batch) + axes + len(f))
        p, S = random_pattern(rng, *PATTERNS[pattern])
        vals = rng.normal(size=(p.nnz,) + t) if t else S.values
        X = rng.normal(size=batch + (p.n_cols,) + f)
        G = rng.normal(size=batch + (p.n_rows,) + (t or f))
        flat, X1, G1 = one_axis(axes, vals, X, G)
        op = csr_only(_Product(p, flat))
        ref = aligned(vals, axes)
        want = entry_major_product(p.row_ptr, p.col_idx, ref, X, axes)
        assert np.array_equal(read_back(op.apply(X1), want.shape), want)
        want = entry_major_transposed(p, ref, G, axes)
        assert np.array_equal(read_back(op.apply_transposed(G1), want.shape),
                              want)


def scipy_values_adjoint(sp, p, G, X, feature_axes):
    """d<G, S X>/d(value of entry e) as <G, E_e X>, one scipy product per
    entry, E_e holding a single 1 at entry e: (nnz, *batch, *F), with no
    axis summed yet."""
    node = G.ndim - 1 - feature_axes
    Xb = np.broadcast_to(X, G.shape[:node] + X.shape[node:node + 1]
                         + G.shape[node + 1:])
    Xm = np.moveaxis(Xb, node, 0).reshape(p.n_cols, -1)
    Gm = np.moveaxis(G, node, 0)
    out = []
    for e in range(p.nnz):
        E = sp.csr_matrix((np.eye(1, p.nnz, e)[0], p.col_idx, p.row_ptr),
                          shape=p.shape)
        out.append(np.sum(Gm * (E @ Xm).reshape(Gm.shape), axis=0))
    return np.stack(out)


def dense_values_adjoint(p, G, X, feature_axes):
    """The same (nnz, *batch, *F) array from dense numpy."""
    node = G.ndim - 1 - feature_axes
    return np.stack([np.take(G, i, node) * np.take(X, j, node)
                     for i, j in zip(p.entry_rows(), p.col_idx)])


class TestValuesAdjoint:
    """Every values adjoint (shared scalar values on a vector and a
    matrix operand, pairwise values with a full and a broadcast operand)
    on both paths, against dense numpy and scipy to 1e-12."""

    @pytest.mark.parametrize("force_csr", [False, True])
    @pytest.mark.parametrize("batch", BATCHES)
    @pytest.mark.parametrize("case", sorted(SHARED_CASES))
    def test_shared(self, force_csr, batch, case):
        sp = pytest.importorskip("scipy.sparse")
        axes, t, f = SHARED_CASES[case]
        rng = np.random.default_rng(31 + len(batch) + axes)
        p, S = random_pattern(rng, 6, 6)
        vals = rng.normal(size=(p.nnz,) + t) if t else S.values
        X = rng.normal(size=batch + (6,) + f)
        G = rng.normal(size=batch + (6,) + (t or f))
        flat, X1, G1 = one_axis(axes, vals, X, G)
        op = _Product(p, flat)
        assert op.dense is not None
        if force_csr:
            csr_only(op)
        got = ag._unbroadcast(op.values_adjoint(G1, X1),
                              flat.shape).reshape(vals.shape)
        # sum the batch axes, and the feature axes the values do not carry
        summed = tuple(range(1, 1 + len(batch) + axes - len(t)))
        for want in (dense_values_adjoint(p, G, X, axes),
                     scipy_values_adjoint(sp, p, G, X, axes)):
            close(got, want.sum(axis=summed))


class TestDispatch:
    def test_rule(self):
        assert _dense_fits(50, 50, 770)            # the desk-scale SBM
        assert not _dense_fits(10000, 10000, 119000)
        assert not _dense_fits(3000, 3000, 3000 * 3000)
        assert not _dense_fits(60, 60, 180)

    def test_large_sparse_matrix_builds_no_dense_copy(self):
        n = 3000
        idx = np.arange(n)
        S = SparseMatrix.from_coo(n, n, idx, (idx + 1) % n, np.ones(n))
        X = np.random.default_rng(0).normal(size=(2, n, 3))
        assert np.array_equal(spmm(S, X)[:, :-1], X[:, 1:])
        assert S._operator().dense is None

    def test_new_values_new_dense_copy(self):
        rng = np.random.default_rng(2)
        _, S = random_pattern(rng, 6, 6)
        X = rng.normal(size=(6, 2))
        before = spmm(S, X)
        doubled = S.with_values(2.0 * S.values)
        assert np.array_equal(spmm(doubled, X), 2.0 * before)
        assert np.array_equal(spmm(S, X), before)
        assert doubled._operator().dense is not S._operator().dense

    def test_used_matrix_freed_without_cycle_collection(self):
        """A used matrix, its dense copy and its transpose (used too) are
        freed by reference counting alone."""
        def alive():
            return sum(isinstance(o, SparseMatrix) for o in gc.get_objects())

        gc.disable()
        try:
            before = alive()
            _, S = random_pattern(np.random.default_rng(4), 6, 6)
            spmm(S, np.ones((6, 2)))
            spmm(S.transpose(), np.ones((6, 2)))
            del S
            assert alive() == before
        finally:
            gc.enable()

    def test_batched_spmv_bitwise_on_both_paths(self):
        rng = np.random.default_rng(3)
        for n, density in ((6, 0.5), (80, 0.02)):
            _, S = random_pattern(rng, n, n, density)
            X = rng.normal(size=(4, n))
            got = spmv(S, X)
            for b in range(4):
                assert np.array_equal(got[b], spmv(S, X[b]))


class TestTransposeCache:
    """Only the pattern caches its transpose. spmm_const's backward is
    S^T g on S's own cached product operator: no transposed SparseMatrix
    (nor, on the dense path, a second dense copy) is built, and the
    adjoint is the one the transposed matrix gave."""

    @pytest.mark.parametrize("derive", ["with_values", "scale"])
    def test_derived_matrix_gets_a_fresh_cache(self, derive):
        _, S = random_pattern(np.random.default_rng(7), 6, 8)
        G = np.random.default_rng(8).normal(size=(2, 6, 3))
        before = S._operator().apply_transposed(G)
        D = (S.with_values(-S.values) if derive == "with_values"
             else S.scale(-1.0))
        assert D._operator() is not S._operator()
        assert np.array_equal(D._operator().apply_transposed(G), -before)
        assert np.array_equal(D.transpose().to_dense(),
                              -S.transpose().to_dense())
        assert D.transpose().pattern is S.transpose().pattern

    @pytest.mark.parametrize("graph", ["dense", "csr"])
    @pytest.mark.parametrize("family", ["gcnn", "arma"])
    def test_forward_and_backward_build_no_transpose(self, family, graph,
                                                     monkeypatch):
        """A 2-layer gcnn and an ARMA layer with Jacobi order 2 run
        spmm_const's backward on a Tensor operand, yet never call
        SparseMatrix.transpose."""
        made = []
        original = SparseMatrix.transpose

        def spy(self):
            made.append(self)
            return original(self)

        monkeypatch.setattr(SparseMatrix, "transpose", spy)
        ctx = dense_context() if graph == "dense" else ring_context(60)
        if family == "gcnn":
            layers = [PolynomialLayer(1, 2, 2), PolynomialLayer(2, 2, 2)]
        else:
            layers = [FAMILIES["arma"](1, 2, ctx, None)]
            assert layers[0].jacobi_order == 2
        model = Model(layers, ctx.n, 2, readout_mode="mean_pool")
        rng = np.random.default_rng(8)
        init_params(model, rng, shift=ctx)
        logits, tape = model.forward(ctx, rng.normal(size=(3, ctx.n, 1)))
        backward_products = []
        transposed = _Product.apply_transposed

        def counted(op, G):
            backward_products.append(op)
            return transposed(op, G)

        monkeypatch.setattr(_Product, "apply_transposed", counted)
        tape.backward(output_grad=np.ones(logits.shape))
        assert backward_products            # the shift adjoint did run
        assert made == []

    @pytest.mark.parametrize("graph", ["dense", "csr"])
    def test_adjoint_matches_dense_oracle_and_transposed_matrix(self, graph):
        """x-adjoint of spmm_const against D^T g (1e-12) on both paths, and
        on CSR bitwise against the route it replaced, spmm(S^T, g)."""
        ctx = dense_context() if graph == "dense" else ring_context(60)
        rng = np.random.default_rng(9)
        for S in (ctx.S, ctx.S_off):
            assert (S._operator().dense is not None) == (graph == "dense")
            x = ag.Tensor(rng.normal(size=(2, 3, S.n_cols, 4)))
            g = rng.normal(size=(2, 3, S.n_rows, 4))
            tape = ag.Tape()
            out = ag.spmm_const(tape, S, x)
            tape.backward(out, g)
            close(x.grad, S.to_dense().T @ g)
            if graph == "csr":
                assert np.array_equal(x.grad, spmm(S.transpose(), g))


class TestSegmentSums:
    @pytest.mark.parametrize("row_ptr", [[0, 0, 2, 2, 3], [0, 1, 1, 3, 3],
                                         [0, 0, 0], [0, 3], [0, 1, 2, 3]])
    def test_empty_rows_anywhere(self, row_ptr):
        row_ptr = np.asarray(row_ptr)
        contrib = np.arange(1.0, 2.0 * row_ptr[-1] + 1).reshape(2, -1)
        want = np.stack([[contrib[b, a:z].sum() for a, z in
                          zip(row_ptr[:-1], row_ptr[1:])] for b in range(2)])
        assert np.array_equal(_segment_sums(contrib, row_ptr), want)


class TestValidate:
    @pytest.mark.parametrize("row_ptr,cols,bad_row", [
        ([0, 2, 4], [0, 1, 1, 1], 1),
        ([0, 0, 2, 4], [2, 1, 0, 1], 1),
        ([0, 1, 3, 3], [2, 0, 0], 1),
    ])
    def test_names_first_bad_row(self, row_ptr, cols, bad_row):
        with pytest.raises(ValueError, match=f"in row {bad_row}$"):
            SparseMatrix(len(row_ptr) - 1, 3, row_ptr, cols,
                         np.ones(len(cols)))

    def test_row_boundaries_may_decrease(self):
        S = SparseMatrix(3, 3, [0, 2, 2, 4], [1, 2, 0, 1], np.ones(4))
        assert S.nnz == 4


def ring_context(n, seed=0):
    """Ring plus diagonal: S, I+S and every masked pattern stay sparse."""
    rng = np.random.default_rng(seed)
    idx = np.arange(n)
    w = rng.uniform(0.2, 0.4, size=n)
    rows = np.concatenate([idx, (idx + 1) % n, idx])
    cols = np.concatenate([(idx + 1) % n, idx, idx])
    vals = np.concatenate([w, w, rng.uniform(0.0, 0.2, size=n)])
    return ShiftContext(SparseMatrix.from_coo(n, n, rows, cols, vals))


def dense_context(n=7, seed=0):
    rng = np.random.default_rng(seed)
    A = np.triu(rng.uniform(0.5, 1.0, (n, n)) * (rng.random((n, n)) < 0.6), 1)
    A[np.arange(n - 1), np.arange(1, n)] = 1.0
    A = A + A.T
    A = A / np.abs(np.linalg.eigvalsh(A)).max()
    return ShiftContext(SparseMatrix.from_dense(A))


FAMILIES = {
    "gcnn": lambda f, g, ctx, sel, **kw: PolynomialLayer(f, g, 2, **kw),
    "edge_varying": lambda f, g, ctx, sel, **kw: EdgeVaryingLayer(
        f, g, 2, ctx.pattern, **kw),
    "block_varying": lambda f, g, ctx, sel, **kw: BlockVaryingLayer(
        f, g, 2, np.arange(ctx.n) % 3, 3, **kw),
    "hybrid": lambda f, g, ctx, sel, **kw: HybridLayer(
        f, g, 2, sel, ctx.masked_rows_pattern(sel), **kw),
    "arma": lambda f, g, ctx, sel, **kw: ArmaLayer(f, g, 2, 1, 2, **kw),
    "gat": lambda f, g, ctx, sel, **kw: GcatLayer(f, g, 1, include_k0=False,
                                                  **kw),
    "gcat": lambda f, g, ctx, sel, **kw: GcatLayer(f, g, 2, **kw),
    "ev_gat": lambda f, g, ctx, sel, **kw: EdgeVaryingGatLayer(f, g, 2, **kw),
    "hybrid_gcat": lambda f, g, ctx, sel, **kw: HybridGcatLayer(f, g, 2,
                                                                **kw),
}


@pytest.mark.parametrize("graph", ["dense", "csr"])
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_two_layer_gradients(family, graph):
    """Identity activations keep the central differences off ReLU kinks;
    what is checked is the adjoint of every product through two layers,
    including the pairwise products' broadcast operand (F_out > 1)."""
    ctx = dense_context() if graph == "dense" else ring_context(60)
    sel = np.array([1, 4])
    patterns = [ctx.S, ctx.pattern, ctx.S_off.pattern,
                ctx.masked_rows_pattern(sel)]
    fits = [_dense_fits(p.n_rows, p.n_cols, p.nnz) for p in patterns]
    assert all(fits[:3]) if graph == "dense" else not any(fits)
    build = FAMILIES[family]
    layers = [build(1, 2, ctx, sel, nonlinearity="identity"),
              build(2, 3, ctx, sel, nonlinearity="identity")]
    model = Model(layers, ctx.n, 2, readout_mode="mean_pool")
    rng = np.random.default_rng(17)
    init_params(model, rng, shift=ctx)
    X0 = rng.normal(size=(2, ctx.n, 1))
    rep = finite_difference_check(model, ctx, X0, labels=np.array([0, 1]))
    assert rep.passed, rep.summary()


def star_context(n=12):
    """A star: the hub row of supp(I+S) holds every node."""
    return ShiftContext(build_shift(Graph(n, [(0, j) for j in range(1, n)]),
                                    "max_eigenvalue"))


ATTENTION_VARIANTS = [
    ("gat", {}), ("gat", {"weighted": True, "tied": True}),
    ("gcat", {"weighted": True}), ("gcat", {"tied": True}),
    ("ev_gat", {"phi0_mode": "identity"}),
    ("ev_gat", {"weighted": True, "tied": True}),
    ("hybrid_gcat", {"phi0_mode": "identity", "weighted": True}),
    ("hybrid_gcat", {"tied": True})]


@pytest.mark.parametrize("graph", ["dense", "csr", "star"])
@pytest.mark.parametrize("family,kw", ATTENTION_VARIANTS)
def test_two_layer_attention_gradients(family, kw, graph):
    """The fused attention record's adjoints through two layers, where
    layer 2 scores and hops on layer 1's output: weighted, tied and
    identity-phi0 heads, on a hub row too."""
    ctx = {"dense": dense_context, "csr": lambda: ring_context(60),
           "star": star_context}[graph]()
    build = FAMILIES[family]
    layers = [build(1, 2, ctx, None, nonlinearity="identity", **kw),
              build(2, 3, ctx, None, nonlinearity="identity", **kw)]
    model = Model(layers, ctx.n, 2, readout_mode="mean_pool")
    rng = np.random.default_rng(19)
    init_params(model, rng, shift=ctx)
    X0 = rng.normal(size=(2, ctx.n, 1))
    rep = finite_difference_check(model, ctx, X0, labels=np.array([0, 1]))
    assert rep.passed, rep.summary()


def _relu_two_layer(family, graph, seed):
    ctx = dense_context() if graph == "dense" else ring_context(60)
    sel = np.array([1, 4])
    build = FAMILIES[family]
    model = Model([build(1, 2, ctx, sel), build(2, 3, ctx, sel)], ctx.n, 2,
                  readout_mode="mean_pool")
    rng = np.random.default_rng(seed)
    init_params(model, rng, shift=ctx)
    return model, ctx, rng.normal(size=(2, ctx.n, 1))


# the arma and gcat cases put a ReLU kink inside +-h and failed with one
# fixed step (relative errors 6e-2 and 2e-1)
@pytest.mark.parametrize("family,graph,seed", [
    ("gcnn", "csr", 17), ("arma", "csr", 3), ("gcat", "dense", 1)])
def test_relu_gradients_pass_across_kinks(family, graph, seed):
    model, ctx, X0 = _relu_two_layer(family, graph, seed)
    rep = finite_difference_check(model, ctx, X0, labels=np.array([0, 1]))
    assert rep.passed, rep.summary()


def test_corrupted_gradient_still_fails():
    """Shrinking the steps near a kink must not excuse a wrong gradient:
    a 0.1% error in the analytic gradient fails at every step."""
    model, ctx, X0 = _relu_two_layer("arma", "csr", 3)
    labels = np.array([0, 1])

    def skewed(logits):
        value, grad = cross_entropy(logits, labels)
        return value, grad * 1.001

    rep = finite_difference_check(model, ctx, X0, loss=skewed)
    assert not rep.passed
    assert rep.per_class["readout_w"] > rep.tol
