"""The size-dispatched sparse product kernel: both paths against dense
numpy and scipy oracles and against the entry-major CSR kernel the
node-last one replaced, the dispatch rule, the transpose-free backward
of the constant shift product, and two-layer gradients of every family
on a graph taking each path, with and across ReLU kinks."""
import gc

import numpy as np
import pytest

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


def dense_stack(p, values, entry_axis=0):
    """Dense matrices, entry by entry, for values whose ``entry_axis`` runs
    over the stored entries; the other axes lead the (n, m) result."""
    v = np.moveaxis(values, entry_axis, -1)
    D = np.zeros(v.shape[:-1] + (p.n_rows, p.n_cols))
    for e, (i, j) in enumerate(zip(p.entry_rows(), p.col_idx)):
        D[..., i, j] = v[..., e]
    return D


def oracle(p, values, X, trailing):
    """Dense numpy reference of the product with shared values."""
    D = dense_stack(p, values)
    if D.ndim == 2:
        node = X.ndim - 1 - trailing
        out = np.einsum("ij,...j->...i", D, np.moveaxis(X, node, -1))
        return np.moveaxis(out, -1, node)
    return np.einsum("fgij,...jfg->...ifg", D, X)


def aligned(values, trailing):
    return values.reshape(values.shape + (1,) * (trailing + 1 - values.ndim))


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


def entry_major_product(row_ptr, col_idx, values, X, trailing):
    """Row i sums values[e, *] * X[..., col_idx[e], *] over its entries e;
    values is (nnz, *T) with len(T) = ``trailing``."""
    tail = (slice(None),) * trailing
    contrib = values * X[(Ellipsis, col_idx) + tail]
    return entry_major_segment_sums(contrib, row_ptr, axis=-1 - trailing)


def entry_major_transposed(p, values, G, trailing):
    T, perm = p.transpose_permutation()
    return entry_major_product(T.row_ptr, T.col_idx, values[perm], G,
                               trailing)


class TestPaths:
    @pytest.mark.parametrize("batch", BATCHES)
    @pytest.mark.parametrize("trailing", [0, 1])
    @pytest.mark.parametrize("shape", [(7, 7), (5, 9), (9, 4)])
    def test_shared_values_match_dense_oracle(self, batch, trailing, shape):
        rng = np.random.default_rng(sum(shape) + trailing + len(batch))
        p, S = random_pattern(rng, *shape)
        X = rng.normal(size=batch + (shape[1],) + (4,) * trailing)
        want = oracle(p, S.values, X, trailing)
        close(_dense_product(S.to_dense(), X, trailing), want)
        close(csr_only(_Product(p, S.values)).apply(X, trailing), want)

    @pytest.mark.parametrize("batch", BATCHES[1:])
    def test_per_sample_values_match_dense_oracle(self, batch):
        rng = np.random.default_rng(5)
        p, _ = random_pattern(rng, 6, 8)
        vals = rng.normal(size=batch + (p.nnz,))
        X = rng.normal(size=batch + (8, 3))
        op = _Product(p, vals, per_sample=True)
        assert op.dense is None
        close(op.apply(X, 1), dense_stack(p, vals, entry_axis=-1) @ X)

    @pytest.mark.parametrize("batch", BATCHES)
    @pytest.mark.parametrize("g_z", [1, 3])
    def test_pairwise_values_match_dense_oracle(self, batch, g_z):
        rng = np.random.default_rng(7 + g_z)
        p, _ = random_pattern(rng, 6, 6)
        vals = rng.normal(size=(p.nnz, 2, 3))
        Z = rng.normal(size=batch + (6, 2, g_z))       # broadcast when g_z=1
        want = oracle(p, vals, np.broadcast_to(Z, batch + (6, 2, 3)), 2)
        close(_dense_product(dense_stack(p, vals), Z, 2), want)
        close(csr_only(_Product(p, vals)).apply(Z, 2), want)

    @pytest.mark.parametrize("trailing", [0, 1])
    def test_paths_match_scipy(self, trailing):
        sp = pytest.importorskip("scipy.sparse")
        rng = np.random.default_rng(9)
        p, S = random_pattern(rng, 8, 11)
        A = sp.csr_matrix((S.values, S.col_idx, S.row_ptr), shape=S.shape)
        X = rng.normal(size=(3, 11) + (5,) * trailing)
        want = np.stack([A @ x for x in X])
        close(_dense_product(S.to_dense(), X, trailing), want)
        close(csr_only(_Product(p, S.values)).apply(X, trailing), want)


class TestAdjoints:
    """apply_transposed and values_adjoint, both paths, against dense
    numpy: <G, S X> differentiated by X and by the values."""

    def _check(self, op, p, vals, X, G, trailing, D):
        node = G.ndim - 1 - trailing
        pairs = list(zip(p.entry_rows(), p.col_idx))
        if D.ndim == 2:
            want_x = np.moveaxis(np.tensordot(D.T, G, axes=([1], [node])),
                                 0, node)
            want_v = np.array([
                np.sum(np.take(G, i, node) * np.take(X, j, node))
                for i, j in pairs])
        else:
            want_x = ag._unbroadcast(np.einsum("fgji,...jfg->...ifg", D, G),
                                     X.shape)
            want_v = np.stack([
                (G[..., i, :, :] * X[..., j, :, :]).reshape(
                    (-1,) + vals.shape[1:]).sum(axis=0) for i, j in pairs])
        close(ag._unbroadcast(op.apply_transposed(G, trailing), X.shape),
              want_x)
        close(ag._unbroadcast(op.values_adjoint(G, X, trailing), vals.shape),
              want_v)

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
        self._check(op, p, S.values, X, G, 1, S.to_dense())

    @pytest.mark.parametrize("force_csr", [False, True])
    @pytest.mark.parametrize("g_z", [1, 3])
    def test_pairwise_broadcast_operand(self, force_csr, g_z):
        rng = np.random.default_rng(13)
        p, _ = random_pattern(rng, 6, 6)
        vals = rng.normal(size=(p.nnz, 2, 3))
        X = rng.normal(size=(4, 6, 2, g_z))
        G = rng.normal(size=(4, 6, 2, 3))
        op = _Product(p, vals)
        if force_csr:
            csr_only(op)
        self._check(op, p, vals, X, G, 2, dense_stack(p, vals))


SHARED_CASES = {
    # name: (trailing, values' feature axes, operand feature axes)
    "scalar_t0": (0, (), ()),
    "scalar_t1": (1, (), (3,)),
    "pairwise": (2, (2, 3), (2, 3)),
    "pairwise_broadcast": (2, (2, 3), (2, 1)),
}
PATTERNS = {"sparse": (7, 5, 0.4), "long_rows": (9, 20, 0.7)}


class TestNodeLastAgainstEntryMajor:
    """Shared values on the CSR path: the node-last product and its
    transpose are bitwise equal to the entry-major kernel, including
    rows longer than numpy's 8-element pairwise-summation block and
    patterns whose first and last rows are empty."""

    @pytest.mark.parametrize("pattern", sorted(PATTERNS))
    @pytest.mark.parametrize("batch", BATCHES)
    @pytest.mark.parametrize("case", sorted(SHARED_CASES))
    def test_bitwise(self, pattern, batch, case):
        trailing, t, f = SHARED_CASES[case]
        rng = np.random.default_rng(len(batch) + trailing + len(f))
        p, S = random_pattern(rng, *PATTERNS[pattern])
        vals = rng.normal(size=(p.nnz,) + t) if t else S.values
        X = rng.normal(size=batch + (p.n_cols,) + f)
        G = rng.normal(size=batch + (p.n_rows,) + (t or f))
        op = csr_only(_Product(p, vals))
        ref = aligned(vals, trailing)
        assert np.array_equal(op.apply(X, trailing),
                              entry_major_product(p.row_ptr, p.col_idx, ref,
                                                  X, trailing))
        assert np.array_equal(op.apply_transposed(G, trailing),
                              entry_major_transposed(p, ref, G, trailing))


def scipy_values_adjoint(sp, p, G, X, trailing):
    """d<G, S X>/d(value of entry e) as <G, E_e X>, one scipy product per
    entry, E_e holding a single 1 at entry e: (nnz, *batch, *F), with no
    axis summed yet."""
    node = G.ndim - 1 - trailing
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


def dense_values_adjoint(p, G, X, trailing):
    """The same (nnz, *batch, *F) array from dense numpy."""
    node = G.ndim - 1 - trailing
    return np.stack([np.take(G, i, node) * np.take(X, j, node)
                     for i, j in zip(p.entry_rows(), p.col_idx)])


class TestValuesAdjoint:
    """Every values adjoint (shared scalar values at trailing 0 and 1,
    pairwise values with a full and a broadcast operand, per-sample
    values) on both paths, against dense numpy and scipy to 1e-12."""

    @pytest.mark.parametrize("force_csr", [False, True])
    @pytest.mark.parametrize("batch", BATCHES)
    @pytest.mark.parametrize("case", sorted(SHARED_CASES))
    def test_shared(self, force_csr, batch, case):
        sp = pytest.importorskip("scipy.sparse")
        trailing, t, f = SHARED_CASES[case]
        rng = np.random.default_rng(31 + len(batch) + trailing)
        p, S = random_pattern(rng, 6, 6)
        vals = rng.normal(size=(p.nnz,) + t) if t else S.values
        X = rng.normal(size=batch + (6,) + f)
        G = rng.normal(size=batch + (6,) + (t or f))
        op = _Product(p, vals)
        assert op.dense is not None
        if force_csr:
            csr_only(op)
        got = ag._unbroadcast(op.values_adjoint(G, X, trailing), vals.shape)
        # sum the batch axes, and the feature axes the values do not carry
        summed = tuple(range(1, 1 + len(batch) + trailing - len(t)))
        for want in (dense_values_adjoint(p, G, X, trailing),
                     scipy_values_adjoint(sp, p, G, X, trailing)):
            close(got, want.sum(axis=summed))

    @pytest.mark.parametrize("batch", BATCHES)
    @pytest.mark.parametrize("F", [1, 4])
    def test_per_sample(self, batch, F):
        sp = pytest.importorskip("scipy.sparse")
        rng = np.random.default_rng(37 + F + len(batch))
        p, _ = random_pattern(rng, 7, 9)
        vals = rng.normal(size=batch + (p.nnz,))
        X = rng.normal(size=batch + (9, F))
        G = rng.normal(size=batch + (7, F))
        got = _Product(p, vals, per_sample=True).values_adjoint(G, X, 1)
        for want in (dense_values_adjoint(p, G, X, 1),
                     scipy_values_adjoint(sp, p, G, X, 1)):
            close(got, np.moveaxis(want.sum(axis=-1), 0, -1))


class TestFeatureMajorPerSample:
    """Per-sample values: the product, its transpose and the values
    adjoint against dense numpy and scipy, on patterns whose first and
    last rows are empty."""

    @staticmethod
    def _case(batch, F):
        rng = np.random.default_rng(41 + F + len(batch))
        p, _ = random_pattern(rng, 7, 9)
        vals = rng.normal(size=batch + (p.nnz,))
        X = rng.normal(size=batch + (9, F))
        G = rng.normal(size=batch + (7, F))
        return p, vals, X, G, _Product(p, vals, per_sample=True)

    @pytest.mark.parametrize("batch", BATCHES)
    @pytest.mark.parametrize("F", [1, 4, 16])
    def test_matches_dense_oracle(self, batch, F):
        p, vals, X, G, op = self._case(batch, F)
        assert op.dense is None
        D = dense_stack(p, vals, entry_axis=-1)
        close(op.apply(X, 1), D @ X)
        close(op.apply_transposed(G, 1), D.swapaxes(-1, -2) @ G)
        want_v = np.stack([(G[..., i, :] * X[..., j, :]).sum(axis=-1)
                           for i, j in zip(p.entry_rows(), p.col_idx)], -1)
        close(op.values_adjoint(G, X, 1), want_v)

    @pytest.mark.parametrize("batch", BATCHES)
    @pytest.mark.parametrize("F", [1, 4, 16])
    def test_matches_scipy(self, batch, F):
        sp = pytest.importorskip("scipy.sparse")
        p, vals, X, G, op = self._case(batch, F)
        got, got_t = op.apply(X, 1), op.apply_transposed(G, 1)
        for b in np.ndindex(batch):
            A = sp.csr_matrix((vals[b], p.col_idx, p.row_ptr), shape=p.shape)
            close(got[b], A @ X[b])
            close(got_t[b], A.T @ G[b])


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

    def test_per_sample_values_stay_on_csr(self):
        p, _ = random_pattern(np.random.default_rng(1), 6, 6)
        assert _Product(p, np.ones((2, p.nnz)), per_sample=True).dense is None
        assert _Product(p, np.ones(p.nnz)).dense is not None

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
        before = S._operator().apply_transposed(G, 1)
        D = (S.with_values(-S.values) if derive == "with_values"
             else S.scale(-1.0))
        assert D._operator() is not S._operator()
        assert np.array_equal(D._operator().apply_transposed(G, 1), -before)
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

        def counted(op, G, trailing):
            backward_products.append(op)
            return transposed(op, G, trailing)

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
