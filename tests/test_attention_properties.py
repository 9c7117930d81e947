"""Hypothesis properties of the fused attention record: attention_hops
equals the two-record chain it replaced (the shift's values, then one
dense per-sample product per hop) to 1e-12 in its output and in every
gradient, on random supp(I+S) patterns and on hub-row ones, for any batch
shape, feature count, hop count, weighting, operand z and tying of the
mixer; and the soft maximum's shift-free form (every score within
+-BOUND) against its row-maximum form."""
import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from graphfilt.attention import BOUND, _row_softmax  # noqa: E402
from graphfilt.errors import DimensionMismatch  # noqa: E402
from graphfilt.graphs import Graph, build_shift  # noqa: E402
from graphfilt.nn import Tape, Tensor  # noqa: E402
from graphfilt.nn import autograd as ag  # noqa: E402
from graphfilt.sparse import SparseMatrix, support_mask  # noqa: E402
from test_autograd import row_max_exp, two_record_hops  # noqa: E402

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
    """A random weighted shift, or a star whose hub row holds every
    node."""
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
    pat = support_mask(SparseMatrix.from_dense(np.eye(3)))
    tape = Tape()
    out = ag.attention_hops(tape, Tensor(np.ones((2, 3, 1))),
                            Tensor(np.ones((1, 2))), Tensor(np.ones(4)), pat,
                            np.ones((2, 3, 4)), 0)
    assert isinstance(out, ag.Constant) and out.value.shape == (2, 3, 0)
    assert tape._records == []


def test_operand_batch_must_match_the_scores():
    pat = support_mask(SparseMatrix.from_dense(np.eye(3)))
    with pytest.raises(DimensionMismatch, match="differ"):
        ag.attention_hops(Tape(), np.ones((2, 3, 1)), np.ones((1, 2)),
                          np.ones(4), pat, np.ones((3, 1)), 1)


# The largest relative gap measured between the two soft maxima was
# 7.5e-15, over 1792 in-bound examples of the strategy below (7.7e-15 over
# 6000 similar cases); rounding z - row max, up to 128 in magnitude, costs
# up to 7.1e-15 relative after exp.
SHIFT_FREE_RTOL = 1.5e-14

softmax_cases = st.fixed_dictionaries({
    "graph": st.sampled_from(["random", "hub", "isolated"]),
    "n": st.integers(2, 9),
    "density": st.floats(0.0, 1.0),
    "batch": st.sampled_from([(), (0,), (3,), (2, 3)]),
    "scores": st.sampled_from(["normal", "wide", "at_bound", "past_bound",
                               "nan"]),
    "weighted": st.booleans(),
    "seed": st.integers(0, 2**32 - 1),
})


def row_max_softmax(z, pat):
    p, s = row_max_exp(z, pat)
    return p / s[pat.entry_rows()]


@settings(max_examples=300, deadline=None)
@given(softmax_cases)
def test_shift_free_soft_maximum_matches_the_row_max_form(case):
    """Entry-major scores (weighted: times the shift's weights in [0.5,
    2]) on random, hub-row and isolated-node patterns. Within the bound
    the two forms agree to SHIFT_FREE_RTOL per entry; at a score past it,
    a NaN or a size-0 batch the soft maximum is the row-max form's."""
    rng = np.random.default_rng(case["seed"])
    S = shift_of(case, rng)
    if case["graph"] == "isolated":         # node 0 keeps only (0, 0)
        dense = S.to_dense()
        dense[0, :] = dense[:, 0] = 0.0
        S = SparseMatrix.from_dense(dense)
    pat = support_mask(S)
    shape = (pat.nnz,) + case["batch"]
    top = BOUND / 2 if case["weighted"] else BOUND    # a weight is <= 2
    z = {"normal": lambda: 3.0 * rng.normal(size=shape),
         "wide": lambda: rng.uniform(-top, top, size=shape),
         }.get(case["scores"], lambda: rng.uniform(-1.0, 1.0, size=shape))()
    if case["weighted"]:
        z *= pat.aligned_values(S, diag_fill_zero=1.0).reshape(
            (-1,) + (1,) * len(case["batch"]))
    flat = z.reshape(-1)                      # a view: sets entries of z
    pick = rng.integers(0, flat.size, size=3) if flat.size else []
    if case["scores"] == "at_bound":
        flat[pick] = rng.choice([-BOUND, BOUND], size=len(pick))
    elif case["scores"] == "past_bound":
        flat[pick[:1]] = rng.choice([-1, 1]) * np.nextafter(BOUND, np.inf)
    elif case["scores"] == "nan":
        flat[pick[:1]] = np.nan
    got, want = _row_softmax(z, pat), row_max_softmax(z, pat)
    assert got.shape == want.shape == shape
    if z.size and np.abs(z).max() <= BOUND:
        assert case["scores"] not in ("past_bound", "nan")
        assert np.all(np.abs(got - want) <= SHIFT_FREE_RTOL * np.abs(want))
    else:
        np.testing.assert_array_equal(got, want)
