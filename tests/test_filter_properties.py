"""Hypothesis property of the parallel Jacobi ARMA filter: apply_arma_jacobi,
every pole on one S_off product per step, equals the per-pole recursion it
replaced (each pole on its own R(gamma)) to 1e-12 relative, for 0-3 poles,
0-3 direct-term coefficients (none: a strictly proper rational), Jacobi
orders 0-4, vector, matrix and batched signals, on shifts served by
the dense product path, on a path graph that stays on CSR, and on shifts
that store a nonzero diagonal."""
import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from graphfilt.filters import ArmaJacobiFilter, apply_arma_jacobi  # noqa: E402
from graphfilt.graphs import Graph, build_shift  # noqa: E402
from graphfilt.sparse import SparseMatrix, _dense_fits  # noqa: E402
from test_filters import per_pole_arma_jacobi  # noqa: E402

PATH_NODES = 40  # 40 x 40 slots > 16 x 78 stored entries: the CSR path

cases = st.fixed_dictionaries({
    "shift": st.sampled_from(["dense", "csr_path", "diagonal"]),
    "poles": st.integers(0, 3),
    "direct": st.integers(0, 3),     # 0: empty alphas, no direct term
    "order": st.integers(0, 4),
    "signal": st.sampled_from([(), (3,), (2, 3)]),
    "seed": st.integers(0, 2**32 - 1),
})


def shift_of(kind, rng):
    """A random weighted shift of the given kind, unit spectral scale or
    less, so every pole drawn outside [-1.5, 1.5] keeps the diagonal
    guard clear."""
    if kind == "csr_path":
        edges = [(i, i + 1, rng.uniform(0.5, 2.0))
                 for i in range(PATH_NODES - 1)]
        return build_shift(Graph(PATH_NODES, edges), "max_eigenvalue")
    n = int(rng.integers(2, 9))
    dense = rng.uniform(-1.0, 1.0, size=(n, n)) / n
    dense[rng.random((n, n)) < 0.3] = 0.0
    np.fill_diagonal(dense, 0.0)
    ring = (np.arange(n), (np.arange(n) + 1) % n)  # no empty S_off
    dense[ring] = rng.uniform(0.1, 1.0, size=n) / n
    if kind == "diagonal":
        dense[np.diag_indices(n)] = rng.uniform(0.2, 1.0, size=n)
    return SparseMatrix.from_dense(dense)


@settings(max_examples=80, deadline=None)
@given(cases)
def test_parallel_jacobi_matches_the_per_pole_reference(case):
    rng = np.random.default_rng(case["seed"])
    S = shift_of(case["shift"], rng)
    S_off = S.split_diagonal()[1]
    on_dense = _dense_fits(S_off.n_rows, S_off.n_cols, S_off.nnz)
    assert on_dense == (case["shift"] != "csr_path")
    if case["shift"] == "diagonal":
        assert np.all(S.diagonal() != 0.0)
    P = case["poles"]
    gammas = rng.choice([-1.0, 1.0], size=P) * rng.uniform(1.5, 4.0, size=P)
    f = ArmaJacobiFilter(rng.normal(size=P), gammas,
                         rng.normal(size=case["direct"]),
                         case["order"])
    n = S.n_rows
    signal = case["signal"]
    X = rng.normal(size=(n,) if signal == () else signal[:-1] + (n,)
                   + signal[-1:])
    want = per_pole_arma_jacobi(f, S, X)
    got = apply_arma_jacobi(f, S, X)
    assert got.shape == want.shape == X.shape
    assert np.max(np.abs(got - want), initial=0.0) <= \
        1e-12 * np.max(np.abs(want), initial=0.0)
