"""Properties of the training step's tail, each bit for bit: the flat
ADAM update against the per-tensor loop, _unbroadcast's bias sums against
``g.sum`` and the one-pass loss against the two-pass one."""
import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from graphfilt.nn import (AdamState, Tensor, adam_step,  # noqa: E402
                          cross_entropy)
from graphfilt.nn import autograd as ag  # noqa: E402
from test_nn import (per_tensor_adam_state, per_tensor_adam_step,  # noqa: E402
                     sum_unbroadcast, two_pass_cross_entropy)

dims = st.integers(1, 5)
param_shapes = st.one_of(st.just(()), st.just((1,)), st.tuples(dims),
                         st.tuples(dims, dims), st.tuples(dims, dims, dims))
seeds = st.integers(0, 2**32 - 1)


def _spread(rng, shape):
    """Normal draws scaled over sixteen decades, so sums round often."""
    return rng.normal(size=shape) * 10.0 ** rng.integers(-8, 8, size=shape)


@settings(max_examples=60, deadline=None)
@given(st.lists(param_shapes, min_size=1, max_size=6), st.integers(1, 30),
       st.floats(1e-5, 1.0), st.booleans(), seeds)
def test_flat_adam_matches_the_per_tensor_loop(shapes, steps, learning_rate,
                                               from_slots, seed):
    """Values and moments after 1-30 steps, some gradients None, passed
    as a list or left in the tensors' slots."""
    rng = np.random.default_rng(seed)
    start = [rng.normal(size=s) for s in shapes]
    flat = [Tensor(v.copy()) for v in start]
    loop = [Tensor(v.copy()) for v in start]
    flat_state = AdamState(flat, learning_rate=learning_rate)
    loop_state = per_tensor_adam_state(loop, learning_rate)
    for _ in range(steps):
        grads = [None if rng.random() < 0.2 else _spread(rng, s)
                 for s in shapes]
        for params, state, step in [(flat, flat_state, adam_step),
                                    (loop, loop_state, per_tensor_adam_step)]:
            if from_slots:
                for p, g in zip(params, grads):
                    p.grad = g
                step(state)
            else:
                step(state, grads=grads)
    for p, q in zip(flat, loop):
        assert p.value.shape == np.shape(q.value)
        assert np.array_equal(p.value, q.value)
    for got, want in [(flat_state.m, loop_state.m),
                      (flat_state.v, loop_state.v)]:
        assert np.array_equal(got, np.concatenate([w.ravel() for w in want]))
    assert flat_state.step_count == loop_state.step_count == steps


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(1, 6), max_size=3), st.integers(1, 20),
       st.sampled_from(["C", "F", "sliced_last", "sliced_lead"]), seeds)
def test_bias_sum_matches_g_sum(lead, f, layout, seed):
    """Sums to (f,) of a C-ordered adjoint (einsum when f > 1), and of a
    Fortran-ordered or sliced one (``g.sum``)."""
    rng = np.random.default_rng(seed)
    base = _spread(rng, (*lead, f))
    if layout == "F":
        g = np.asfortranarray(base)
    elif layout == "sliced_last":
        g = np.zeros((*lead, 2 * f))[..., ::2]
        g[...] = base
    elif layout == "sliced_lead":
        g = np.zeros((2 * base.shape[0], *base.shape[1:]))[::2]
        g[...] = base
    else:
        g = base
    assert np.array_equal(ag._unbroadcast(g, (f,)), sum_unbroadcast(g, (f,)))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 200), st.integers(1, 12), seeds)
def test_one_pass_loss_matches_two_pass(batch, classes, seed):
    rng = np.random.default_rng(seed)
    logits = _spread(rng, (batch, classes))
    labels = rng.integers(classes, size=batch)
    loss, grad = cross_entropy(logits, labels)
    want_loss, want_grad = two_pass_cross_entropy(logits, labels)
    assert loss == want_loss and np.array_equal(grad, want_grad)
