"""Hypothesis properties of the sparse product kernel: on any pattern,
batch shape and feature count, both paths equal the dense product, and
the operator's adjoints satisfy <G, S X> = <S^T G, X>."""
import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from graphfilt.nn import Pattern  # noqa: E402
from graphfilt.sparse import (SparseMatrix, _csr_product,  # noqa: E402
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
    vals = S.values.reshape(S.values.shape + (1,) * trailing)
    for got in (_dense_product(dense, X, trailing),
                _csr_product(S.row_ptr, S.col_idx, vals, X, trailing)):
        assert got.shape == want.shape
        assert np.allclose(got, want, rtol=0, atol=1e-12 * max(
            1.0, float(np.abs(want).max(initial=0.0))))


@settings(max_examples=60, deadline=None)
@given(cases, st.booleans())
def test_adjoint_identity(case, force_csr):
    S, _, X, G = build(case)
    trailing = len(case["features"])
    op = _Product(Pattern.from_sparse(S), S.values)
    if force_csr:
        op.dense = None
    lhs = float(np.sum(G * op.apply(X, trailing)))
    rhs = float(np.sum(op.apply_transposed(G, trailing) * X))
    via_values = float(np.sum(op.values_adjoint(G, X, trailing) * S.values))
    scale = max(1.0, abs(lhs))
    assert abs(lhs - rhs) <= 1e-12 * scale * max(1, X.size)
    assert abs(lhs - via_values) <= 1e-12 * scale * max(1, X.size)
