"""Hypothesis properties of the fused attention record: attention_hops
equals the two-record chain it replaced (the shift's values, then one
dense per-sample product per hop) to 1e-12 in its output and in every
gradient, on random supp(I+S) patterns and on hub-row ones (where the row
maximum leaves the row slots for reduceat), for any batch shape, feature
count, hop count, weighting, operand z and tying of the mixer."""
import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from graphfilt.errors import DimensionMismatch  # noqa: E402
from graphfilt.graphs import Graph, build_shift  # noqa: E402
from graphfilt.nn import Tape, Tensor  # noqa: E402
from graphfilt.nn import autograd as ag  # noqa: E402
from graphfilt.sparse import SparseMatrix, support_mask  # noqa: E402
from test_autograd import two_record_hops  # noqa: E402

cases = st.fixed_dictionaries({
    "graph": st.sampled_from(["random", "hub"]),
    "n": st.integers(2, 9),
    "density": st.floats(0.0, 1.0),
    "batch": st.sampled_from([(), (3,), (2, 3)]),
    "T": st.sampled_from([1, 3]),
    "hops": st.integers(0, 3),
    "weighted": st.booleans(),
    "z": st.sampled_from(["x", "other", "constant"]),
    "tied": st.booleans(),
    "seed": st.integers(0, 2**32 - 1),
})


def shift_of(case, rng):
    """A random weighted shift, or a star whose hub row holds every node
    (more than two row slots per stored entry)."""
    n = case["n"]
    if case["graph"] == "hub":      # a star of six nodes or more
        n += 4
        return build_shift(Graph(n, [(0, j, rng.uniform(0.5, 2.0))
                                     for j in range(1, n)]), "none")
    dense = rng.uniform(0.5, 2.0, size=(n, n))
    dense[rng.random((n, n)) >= case["density"]] = 0.0
    return SparseMatrix.from_dense(dense)


def run(case, hops_fn):
    """Output and the gradients of x, b, e and z (zeros for none) of one
    call and a random output adjoint; tied, b also mixes x, as a tied
    head's mixer does."""
    rng = np.random.default_rng(case["seed"])
    S = shift_of(case, rng)
    pat = support_mask(S)
    if case["graph"] == "hub":
        assert pat.row_slots() is None
    weights = (pat.aligned_values(S, diag_fill_zero=1.0) if case["weighted"]
               else None)
    batch, n, T = case["batch"], S.n_rows, case["T"]
    x = Tensor(rng.normal(size=batch + (n, 2)))
    b = Tensor(rng.normal(size=(2, 3)))
    e = Tensor(rng.normal(size=6))
    z = {"x": x, "other": Tensor(rng.normal(size=batch + (n, T))),
         "constant": rng.normal(size=batch + (n, T))}[case["z"]]
    tape = Tape()
    out = hops_fn(tape, x, b, e, pat, z, case["hops"], weights=weights)
    if case["tied"]:
        out = ag.concat(tape, [out, ag.matmul(tape, x, b)], -1)
    g = rng.normal(size=out.value.shape)
    if isinstance(out, Tensor):
        tape.backward(out, g)
    grads = [np.zeros(t.shape) if t.grad is None else t.grad
             for t in (x, b, e, z) if isinstance(t, Tensor)]
    return [out.value] + grads


@settings(max_examples=150, deadline=None)
@given(cases)
def test_fused_record_matches_the_two_record_chain(case):
    got, want = run(case, ag.attention_hops), run(case, two_record_hops)
    assert len(got) == len(want)
    for a, w in zip(got, want):
        assert a.shape == w.shape
        assert np.abs(a - w).max(initial=0.0) <= 1e-12 * max(
            1.0, np.abs(w).max(initial=0.0))


def test_zero_hops_record_nothing():
    pat = support_mask(SparseMatrix.identity(3))
    tape = Tape()
    out = ag.attention_hops(tape, Tensor(np.ones((2, 3, 1))),
                            Tensor(np.ones((1, 2))), Tensor(np.ones(4)), pat,
                            np.ones((2, 3, 4)), 0)
    assert isinstance(out, ag.Constant) and out.value.shape == (2, 3, 0)
    assert tape._records == []


def test_operand_batch_must_match_the_scores():
    pat = support_mask(SparseMatrix.identity(3))
    with pytest.raises(DimensionMismatch, match="differ"):
        ag.attention_hops(Tape(), np.ones((2, 3, 1)), np.ones((1, 2)),
                          np.ones(4), pat, np.ones((3, 1)), 1)
