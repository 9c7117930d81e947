"""Hypothesis properties of the sparse product kernel and its pattern
type: on any pattern, batch shape and feature count, both paths equal the
dense product, and the operator's adjoints satisfy <G, S X> = <S^T G, X>;
any valid CSR layout is accepted, each single corruption of one is
rejected, the cached transpose matches scipy, and a submatrix is the
dense block it names."""
import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from graphfilt.sparse import (Pattern, SparseMatrix,  # noqa: E402
                              _dense_product, _Product)

cases = st.fixed_dictionaries({
    "n_rows": st.integers(1, 12),
    "n_cols": st.integers(1, 12),
    "density": st.floats(0.0, 1.0),
    "batch": st.lists(st.integers(1, 3), max_size=2).map(tuple),
    "features": st.lists(st.integers(1, 3), max_size=1).map(tuple),
    "seed": st.integers(0, 2**32 - 1),
})


def build(case):
    rng = np.random.default_rng(case["seed"])
    n, m = case["n_rows"], case["n_cols"]
    dense = rng.normal(size=(n, m))
    dense[rng.random((n, m)) >= case["density"]] = 0.0
    S = SparseMatrix.from_dense(dense)
    X = rng.normal(size=case["batch"] + (m,) + case["features"])
    G = rng.normal(size=case["batch"] + (n,) + case["features"])
    return S, dense, X, G


@settings(max_examples=60, deadline=None)
@given(cases)
def test_paths_equal_dense_product(case):
    S, dense, X, _ = build(case)
    trailing = len(case["features"])
    node = X.ndim - 1 - trailing
    want = np.moveaxis(np.tensordot(dense, X, axes=([1], [node])), 0, node)
    csr = _Product(S.pattern, S.values)
    csr.dense = None
    for got in (_dense_product(dense, X, trailing), csr.apply(X, trailing)):
        assert got.shape == want.shape
        assert np.allclose(got, want, rtol=0, atol=1e-12 * max(
            1.0, float(np.abs(want).max(initial=0.0))))


@settings(max_examples=60, deadline=None)
@given(cases, st.booleans())
def test_adjoint_identity(case, force_csr):
    S, _, X, G = build(case)
    trailing = len(case["features"])
    op = _Product(S.pattern, S.values)
    if force_csr:
        op.dense = None
    lhs = float(np.sum(G * op.apply(X, trailing)))
    rhs = float(np.sum(op.apply_transposed(G, trailing) * X))
    via_values = float(np.sum(op.values_adjoint(G, X, trailing) * S.values))
    scale = max(1.0, abs(lhs))
    assert abs(lhs - rhs) <= 1e-12 * scale * max(1, X.size)
    assert abs(lhs - via_values) <= 1e-12 * scale * max(1, X.size)


# ---------------------------------------------------------------------------
# Pattern: validation once at construction, cached derived layouts

layouts = st.fixed_dictionaries({
    "n_rows": st.integers(0, 8),
    "n_cols": st.integers(1, 8),
    "density": st.floats(0.0, 1.0),
    "seed": st.integers(0, 2**32 - 1),
})


def random_csr(case):
    """(n_rows, n_cols, row_ptr, col_idx) of a random valid CSR layout."""
    rng = np.random.default_rng(case["seed"])
    n, m = case["n_rows"], case["n_cols"]
    rows, cols = np.nonzero(rng.random((n, m)) < case["density"])
    return n, m, np.searchsorted(rows, np.arange(n + 1)), cols


@settings(max_examples=60, deadline=None)
@given(layouts)
def test_valid_csr_is_accepted(case):
    n, m, row_ptr, cols = random_csr(case)
    p = Pattern(n, m, row_ptr, cols)
    assert p.nnz == len(cols)
    assert np.array_equal(p.entry_rows(),
                          np.repeat(np.arange(n), np.diff(row_ptr)))


@settings(max_examples=60, deadline=None)
@given(layouts, st.sampled_from(["unsorted", "column", "row_ptr", "end"]),
       st.data())
def test_single_corruption_is_rejected(case, kind, data):
    n, m, row_ptr, cols = random_csr(case)
    row_ptr, cols = row_ptr.copy(), cols.copy()
    if kind == "unsorted":
        wide = np.flatnonzero(np.diff(row_ptr) >= 2)
        assume(len(wide))
        r = data.draw(st.sampled_from(wide.tolist()))
        a = row_ptr[r]
        cols[[a, a + 1]] = cols[[a + 1, a]]
        message = f"columns not strictly increasing in row {r}$"
    elif kind == "column":
        assume(len(cols))
        e = data.draw(st.integers(0, len(cols) - 1))
        cols[e] = data.draw(st.sampled_from([-1, m, m + 7]))
        message = "column index out of range"
    elif kind == "row_ptr":
        assume(n >= 2)
        i = data.draw(st.integers(1, n - 1))
        row_ptr[i] = row_ptr[i + 1] + 1
        message = "row_ptr must be non-decreasing"
    else:
        row_ptr[-1] += 1
        message = "row_ptr must start at 0 and end at nnz"
    with pytest.raises(ValueError, match=message):
        Pattern(n, m, row_ptr, cols)


@settings(max_examples=60, deadline=None)
@given(layouts)
def test_transpose_permutation_matches_scipy(case):
    sp = pytest.importorskip("scipy.sparse")
    n, m, row_ptr, cols = random_csr(case)
    p = Pattern(n, m, row_ptr, cols)
    T, perm = p.transpose_permutation()
    ids = np.arange(1.0, p.nnz + 1)
    want = sp.csr_matrix((ids, cols, row_ptr), shape=(n, m)).T.tocsr()
    want.sort_indices()
    assert T.shape == (m, n)
    assert np.array_equal(T.row_ptr, want.indptr)
    assert np.array_equal(T.col_idx, want.indices)
    assert np.array_equal(ids[perm], want.data)
    assert p.transpose_permutation()[0] is T


@settings(max_examples=30, deadline=None)
@given(cases)
def test_derived_matrices_reuse_the_pattern(case):
    S, dense, _, _ = build(case)
    assert S.with_values(-S.values).pattern is S.pattern
    assert S.scale(2.0).pattern is S.pattern
    St = S.transpose()
    assert St.pattern is S.scale(2.0).transpose().pattern
    assert np.array_equal(St.to_dense(), dense.T)


@settings(max_examples=60, deadline=None)
@given(layouts, st.data())
def test_submatrix_is_the_dense_block(case, data):
    """P, pos = p.submatrix(nodes) is a valid CSR pattern holding exactly
    the block dense[nodes][:, nodes], for nodes in any order."""
    n, _, row_ptr, cols = random_csr(dict(case, n_cols=case["n_rows"]))
    p = Pattern(n, n, row_ptr, cols)
    nodes = np.array(data.draw(st.permutations(range(n))), dtype=np.int64)
    nodes = nodes[:data.draw(st.integers(0, n))]
    P, pos = p.submatrix(nodes)
    Pattern(P.n_rows, P.n_cols, P.row_ptr, P.col_idx)   # validates
    ids = np.arange(1.0, p.nnz + 1)
    want = p.matrix(ids).to_dense()[np.ix_(nodes, nodes)]
    assert np.array_equal(P.matrix(ids[pos]).to_dense(), want)
