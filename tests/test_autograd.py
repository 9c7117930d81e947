"""Gradient engine primitives against numeric differentiation."""
import numpy as np
import pytest

from graphfilt.attention import _leaky_factor
from graphfilt.errors import MissingTape
from graphfilt.nn import Tape, Tensor, backward, leaky_relu
from graphfilt.nn import autograd as ag
from graphfilt.sparse import SparseMatrix


def numeric_grad(fn, x, h=1e-6):
    """Central differences of a scalar function of an array."""
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + h
        up = fn()
        flat[i] = keep - h
        down = fn()
        flat[i] = keep
        gf[i] = (up - down) / (2 * h)
    return g


def check_primitive(build, params, seed_shape=None, tol=1e-6):
    """build(tape) -> output Tensor; checks every tensor in params."""
    tape = Tape()
    out = build(tape)
    w = np.random.default_rng(123).normal(size=out.value.shape)
    tape.output = out
    tape.backward(output_grad=w)

    def value():
        t2 = Tape()
        return float(np.sum(build(t2).value * w))

    for t in params:
        num = numeric_grad(value, t.value)
        got = t.grad if t.grad is not None else np.zeros_like(t.value)
        assert np.max(np.abs(got - num)) < tol, np.max(np.abs(got - num))


def ring_pattern(n):
    dense = np.zeros((n, n))
    for i in range(n):
        dense[i, (i + 1) % n] = 1.0
        dense[i, i] = 1.0
    S = SparseMatrix.from_dense(dense)
    return S.pattern


class TestElementwise:
    def test_add_mul_broadcast(self):
        rng = np.random.default_rng(0)
        a = Tensor(rng.normal(size=(4, 1)))
        b = Tensor(rng.normal(size=(2, 4, 3)))
        check_primitive(lambda t: ag.mul(t, ag.add(t, a, b), b), [a, b])

    def test_reciprocal_and_sub(self):
        rng = np.random.default_rng(1)
        a = Tensor(rng.normal(size=(3, 2)) + 3.0)
        b = Tensor(rng.normal(size=(2,)))
        check_primitive(lambda t: ag.reciprocal(t, ag.sub(t, a, b)), [a, b])

    def test_scale_and_sum_axis(self):
        rng = np.random.default_rng(2)
        a = Tensor(rng.normal(size=(2, 5, 3)))
        check_primitive(
            lambda t: ag.scale(t, ag.sum_axis(t, a, axis=-2), 0.7), [a])

    def test_reshape_and_expand(self):
        rng = np.random.default_rng(3)
        a = Tensor(rng.normal(size=(6,)))
        check_primitive(
            lambda t: ag.mul(t, ag.reshape(t, a, (2, 3)), 2.0), [a])
        b = Tensor(rng.normal(size=(4, 2)))
        check_primitive(lambda t: ag.expand_last(t, b), [b])

    def test_concat_with_a_repeated_part(self):
        rng = np.random.default_rng(11)
        a = Tensor(rng.normal(size=(2, 3, 2)))
        b = Tensor(rng.normal(size=(2, 3, 1)))
        check_primitive(lambda t: ag.concat(t, [a, b, a], -1), [a, b])
        c = Tensor(rng.normal(size=(1, 3, 2)))
        d = Tensor(rng.normal(size=(2, 3, 2)))
        check_primitive(
            lambda t: ag.mul(t, ag.concat(t, [d, c], 0), 1.5), [d, c])

    def test_concat_of_one_part_is_that_part(self):
        a = Tensor(np.ones((2, 2)))
        assert ag.concat(Tape(), [a], -1) is a


class TestMatmul:
    def test_batched_times_matrix(self):
        rng = np.random.default_rng(4)
        a = Tensor(rng.normal(size=(3, 4, 2)))
        b = Tensor(rng.normal(size=(2, 5)))
        check_primitive(lambda t: ag.matmul(t, a, b), [a, b])

    def test_vector_times_matrix(self):
        rng = np.random.default_rng(5)
        a = Tensor(rng.normal(size=(4,)))
        b = Tensor(rng.normal(size=(4, 3)))
        check_primitive(lambda t: ag.matmul(t, a, b), [a, b])

    def test_matrix_times_vector(self):
        rng = np.random.default_rng(6)
        a = Tensor(rng.normal(size=(3, 4)))
        b = Tensor(rng.normal(size=(4,)))
        check_primitive(lambda t: ag.matmul(t, a, b), [a, b])


class TestSparsePrimitives:
    def test_spmm_const(self):
        rng = np.random.default_rng(7)
        dense = rng.normal(size=(5, 5))
        dense[rng.random((5, 5)) > 0.5] = 0.0
        S = SparseMatrix.from_dense(dense)
        x = Tensor(rng.normal(size=(2, 5, 3)))
        check_primitive(lambda t: ag.spmm_const(t, S, x), [x])

    def test_spmm_values_shared(self):
        rng = np.random.default_rng(8)
        pat = ring_pattern(5)
        vals = Tensor(rng.normal(size=pat.nnz))
        x = Tensor(rng.normal(size=(5, 2)))
        check_primitive(lambda t: ag.spmm_values(t, vals, x, pat), [vals, x])

    def test_spmm_values_batched(self):
        rng = np.random.default_rng(9)
        pat = ring_pattern(4)
        vals = Tensor(rng.normal(size=(3, pat.nnz)))
        x = Tensor(rng.normal(size=(3, 4, 2)))
        check_primitive(lambda t: ag.spmm_values(t, vals, x, pat), [vals, x])

    def test_spmm_pairwise(self):
        rng = np.random.default_rng(10)
        pat = ring_pattern(4)
        vals = Tensor(rng.normal(size=(pat.nnz, 2, 3)))
        z = Tensor(rng.normal(size=(4, 2, 3)))
        check_primitive(lambda t: ag.spmm_pairwise(t, vals, z, pat),
                        [vals, z])

    def test_jacobi_shift_values(self):
        rng = np.random.default_rng(11)
        gamma = Tensor(rng.normal(size=(2, 2)) + 4.0)
        s_off = rng.normal(size=6)
        d_rows = rng.normal(size=6)
        check_primitive(
            lambda t: ag.jacobi_shift_values(t, gamma, s_off, d_rows),
            [gamma])

    def test_block_mix(self):
        rng = np.random.default_rng(12)
        x = Tensor(rng.normal(size=(2, 6, 3)))
        a = Tensor(rng.normal(size=(2, 3, 4)))
        blocks = np.array([0, 1, 0, 0, 1, 1])
        check_primitive(lambda t: ag.block_mix(t, x, a, blocks), [x, a])

    def test_gather_scatter_rows(self):
        rng = np.random.default_rng(13)
        x = Tensor(rng.normal(size=(5, 3)))
        idx = np.array([1, 3])
        check_primitive(
            lambda t: ag.scatter_rows(t, ag.gather_rows(t, x, idx), idx, 5,
                                      trailing=1),
            [x])

    def test_take_index(self):
        rng = np.random.default_rng(14)
        a = Tensor(rng.normal(size=(3, 2, 2)))
        check_primitive(lambda t: ag.mul(t, ag.take_index(t, a, 1), 3.0), [a])


class TestAttentionPrimitives:
    def test_edge_score(self):
        rng = np.random.default_rng(15)
        pat = ring_pattern(5)
        h = Tensor(rng.normal(size=(5, 3)))
        e = Tensor(rng.normal(size=(6,)))
        check_primitive(lambda t: ag.edge_score(t, h, e, pat, 0.2), [h, e],
                        tol=1e-5)

    def test_support_softmax(self):
        rng = np.random.default_rng(16)
        pat = ring_pattern(5)
        s = Tensor(rng.normal(size=(pat.nnz,)))
        check_primitive(lambda t: ag.support_softmax(t, s, pat), [s])

    def test_support_softmax_weighted_batched(self):
        rng = np.random.default_rng(17)
        pat = ring_pattern(4)
        s = Tensor(rng.normal(size=(2, pat.nnz)))
        w = rng.normal(size=pat.nnz)
        check_primitive(
            lambda t: ag.support_softmax(t, s, pat, weights=w), [s])

    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("batch", [(), (2,)])
    def test_attention_shift(self, batch, weighted):
        rng = np.random.default_rng(18 + len(batch))
        pat = ring_pattern(5)
        x = Tensor(rng.normal(size=batch + (5, 3)))
        b = Tensor(rng.normal(size=(3, 2)))
        e = Tensor(rng.normal(size=(4,)))
        w = rng.uniform(0.5, 2.0, size=pat.nnz) if weighted else None
        check_primitive(
            lambda t: ag.attention_shift(t, x, b, e, pat, 0.2, weights=w),
            [x, b, e], tol=1e-5)


class TestActivation:
    def test_relu_subgradient_zero_at_zero(self):
        tape = Tape()
        a = Tensor(np.array([-1.0, 0.0, 2.0]))
        out = ag.activation(tape, a, "relu")
        assert np.array_equal(out.value, [0.0, 0.0, 2.0])
        tape.output = out
        tape.backward(output_grad=np.ones(3))
        assert np.array_equal(a.grad, [0.0, 0.0, 1.0])

    def test_leaky_slope(self):
        tape = Tape()
        a = Tensor(np.array([-2.0, 3.0]))
        out = ag.activation(tape, a, "leaky_relu", slope=0.1)
        assert np.allclose(out.value, [-0.2, 3.0])

    @pytest.mark.parametrize("slope", [0.01, 0.2, 1.5])
    def test_leaky_branch_free_is_bitwise_the_where_form(self, slope):
        rng = np.random.default_rng(19)
        x = np.concatenate([[0.0, -0.0], rng.normal(size=200)])
        where_factor = np.where(x > 0, 1.0, slope)
        factor = _leaky_factor(x, slope)
        assert factor.tobytes() == where_factor.tobytes()
        tape = Tape()
        a = Tensor(x)
        out = ag.activation(tape, a, "leaky_relu", slope=slope)
        assert out.value.tobytes() == (x * where_factor).tobytes()
        assert out.value.tobytes() == np.where(x > 0, x, slope * x).tobytes()
        tape.backward(out, np.ones_like(x))
        assert a.grad.tobytes() == where_factor.tobytes()
        assert leaky_relu(x, slope).tobytes() == out.value.tobytes()

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            ag.activation(Tape(), Tensor(np.zeros(2)), "tanh")


class TestTape:
    def test_grad_accumulates_over_reuse(self):
        tape = Tape()
        a = Tensor(np.array([2.0]))
        out = ag.add(tape, ag.mul(tape, a, a), a)  # a*a + a
        tape.output = out
        tape.backward(output_grad=np.ones(1))
        assert np.allclose(a.grad, [2 * 2.0 + 1.0])

    def test_backward_without_output_raises(self):
        with pytest.raises(MissingTape):
            Tape().backward()

    def test_module_level_backward_requires_tape(self):
        with pytest.raises(MissingTape):
            backward(None, np.ones(1))
