"""Gradient engine primitives against numeric differentiation."""
from functools import partial

import numpy as np
import pytest

from graphfilt.attention import LEAKY_SLOPE_DEFAULT, _leaky_factor
from graphfilt.errors import MissingTape
from graphfilt.nn import Tape, Tensor, leaky_relu
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

    def test_vector_times_matrix_adjoint_is_the_outer_product(self):
        rng = np.random.default_rng(5)
        a = Tensor(rng.normal(size=(4,)))
        b = Tensor(rng.normal(size=(4, 3)))
        g = rng.normal(size=3)
        tape = Tape()
        tape.backward(ag.matmul(tape, a, b), g)
        assert np.array_equal(b.grad, np.outer(a.value, g))

    @pytest.mark.parametrize("shape", [(4,), (2, 4, 3)])
    def test_b_other_than_a_matrix_raises(self, shape):
        a = Tensor(np.ones((3, 4)))
        with pytest.raises(ValueError, match="matmul expects a"):
            ag.matmul(Tape(), a, np.ones(shape))


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
            lambda t: ag.scatter_rows(t, ag.gather_rows(t, x, idx), idx, 5),
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


def _constant_operand_cases():
    """name -> build(tape, wrap): one call of each primitive, whose
    operands are wrap(array)."""
    rng = np.random.default_rng(50)
    pat = ring_pattern(5)
    S = SparseMatrix.from_dense(pat.matrix(rng.normal(size=pat.nnz))
                                .to_dense())
    x = rng.normal(size=(2, 5, 3))
    y = rng.normal(size=(2, 5, 3))
    m = rng.normal(size=(3, 4))
    blocks = np.array([0, 1, 0, 0, 1])
    a = rng.normal(size=(2, 3, 4))
    vals = rng.normal(size=pat.nnz)
    pair = rng.normal(size=(pat.nnz, 3, 4))
    gamma = rng.normal(size=(3, 4)) + 4.0
    b = rng.normal(size=(3, 2))
    e = rng.normal(size=(4,))
    e6 = rng.normal(size=(6,))
    scores = rng.normal(size=(2, pat.nnz))
    idx = np.array([1, 3])
    return {
        "add": lambda t, w: ag.add(t, w(x), w(y)),
        "sub": lambda t, w: ag.sub(t, w(x), w(y)),
        "mul": lambda t, w: ag.mul(t, w(x), w(y)),
        "scale": lambda t, w: ag.scale(t, w(x), 0.3),
        "reciprocal": lambda t, w: ag.reciprocal(t, w(y)),
        "matmul": lambda t, w: ag.matmul(t, w(x), w(m)),
        "reshape": lambda t, w: ag.reshape(t, w(x), (2, 15)),
        "concat": lambda t, w: ag.concat(t, [w(x), w(y)], -1),
        "expand_last": lambda t, w: ag.expand_last(t, w(x)),
        "sum_axis": lambda t, w: ag.sum_axis(t, w(x), -2),
        "take_index": lambda t, w: ag.take_index(t, w(x), 1),
        "gather_rows": lambda t, w: ag.gather_rows(t, w(x), idx),
        "scatter_rows": lambda t, w: ag.scatter_rows(t, w(x[:, :2]), idx, 7),
        "relu": lambda t, w: ag.activation(t, w(x), "relu"),
        "leaky_relu": lambda t, w: ag.activation(t, w(x), "leaky_relu"),
        "biased_relu": lambda t, w: ag.activation(t, w(x), "relu",
                                                  bias=w(m[:, 0])),
        "block_mix": lambda t, w: ag.block_mix(t, w(x), w(a), blocks),
        "jacobi_shift_values": lambda t, w: ag.jacobi_shift_values(
            t, w(gamma), vals, vals + 9.0),
        "spmm_const": lambda t, w: ag.spmm_const(t, S, w(x)),
        "spmm_values": lambda t, w: ag.spmm_values(t, w(vals), w(x), pat),
        "spmm_pairwise": lambda t, w: ag.spmm_pairwise(
            t, w(pair), ag.expand_last(t, w(x)), pat),
        "edge_score": lambda t, w: ag.edge_score(t, w(x), w(e6), pat, 0.2),
        "support_softmax": lambda t, w: ag.support_softmax(t, w(scores),
                                                           pat),
        "attention_shift": lambda t, w: ag.attention_shift(
            t, w(x), w(b), w(e), pat, 0.2, weights=vals),
    }


CONSTANT_CASES = _constant_operand_cases()


class TestConstantOperands:
    """Only Tensors cost adjoint work: constant operands get none, and a
    primitive of constants only records nothing."""

    @pytest.mark.parametrize("name", sorted(CONSTANT_CASES))
    def test_all_constant_primitive_records_nothing(self, name):
        build = CONSTANT_CASES[name]
        tape = Tape()
        out = build(tape, lambda v: v)
        assert isinstance(out, ag.Constant) and not isinstance(out, Tensor)
        assert len(tape._records) == 0
        ref = build(Tape(), Tensor)
        assert isinstance(ref, Tensor)
        assert out.value.tobytes() == ref.value.tobytes()

    def test_constant_result_is_a_constant_operand(self):
        rng = np.random.default_rng(51)
        S = SparseMatrix.from_dense(ring_pattern(4).matrix(
            rng.normal(size=8)).to_dense())
        tape = Tape()
        z = ag.spmm_const(tape, S, ag.spmm_const(tape, S, rng.normal(
            size=(4, 2))))
        w = Tensor(rng.normal(size=(2, 3)))
        out = ag.matmul(tape, z, w)
        assert isinstance(z, ag.Constant) and len(tape._records) == 1
        tape.backward(out, np.ones(out.shape))
        assert np.allclose(w.grad, z.value.sum(axis=0)[:, None])

    @pytest.mark.parametrize("primitive", ["spmm_values", "spmm_pairwise"])
    def test_constant_operand_takes_no_transposed_product(self, primitive,
                                                          monkeypatch):
        from graphfilt.sparse import _Product
        rng = np.random.default_rng(52)
        pat = ring_pattern(5)
        if primitive == "spmm_values":
            v0, x0 = rng.normal(size=pat.nnz), rng.normal(size=(2, 5, 3))
        else:
            v0 = rng.normal(size=(pat.nnz, 3, 2))
            x0 = rng.normal(size=(2, 5, 3, 1))
        calls = []
        transposed = _Product.apply_transposed

        def counted(op, G, trailing):
            calls.append(trailing)
            return transposed(op, G, trailing)

        monkeypatch.setattr(_Product, "apply_transposed", counted)
        grads = []
        for x in (x0, Tensor(x0)):
            del calls[:]
            vals, tape = Tensor(v0), Tape()
            out = getattr(ag, primitive)(tape, vals, x, pat)
            tape.backward(out, np.ones(out.shape))
            grads.append(vals.grad)
            assert len(calls) == isinstance(x, Tensor)
        assert grads[0].tobytes() == grads[1].tobytes()

    def test_mixed_concat_splits_the_adjoint_to_tensors_only(self):
        rng = np.random.default_rng(53)
        x, t = rng.normal(size=(3, 2)), Tensor(rng.normal(size=(3, 4)))
        tape = Tape()
        out = ag.concat(tape, [x, t], -1)
        g = rng.normal(size=(3, 6))
        tape.backward(out, g)
        assert np.array_equal(t.grad, g[:, 2:])


def reference_tail(tape, a, kind, slope=LEAKY_SLOPE_DEFAULT, bias=None):
    """The layer tail as it was before it was fused: an add record for the
    bias, then the nonlinearity as a product with a factor array that the
    backward keeps."""
    if bias is not None:
        a = ag.add(tape, a, bias)
    if kind == "identity":
        return a
    av = ag._val(a)
    if kind == "relu":
        factor = (av > 0).astype(np.float64)
    else:
        factor = _leaky_factor(av, slope)
    return ag._result(tape, av * factor, (a,),
                      lambda g: ag._acc(a, lambda: g * factor))


TAIL_KINDS = [("relu", 0.2), ("leaky_relu", 0.0), ("leaky_relu", 0.2),
              ("leaky_relu", 1.5), ("identity", 0.2)]


class TestFusedTail:
    """activation(..., bias=) against the add + factor pair it replaced;
    the leaky cases set the module's fixed slope to each slope >= 0."""

    @staticmethod
    def _run(tail, kind, operand, biased):
        rng = np.random.default_rng(60)
        x = rng.normal(size=(3, 5, 4))
        b = rng.normal(size=4)
        x[0, 0] = -b                    # pre-activation exactly +0.0
        x[0, 1, :2] = [0.0, -0.0]
        a = Tensor(x) if operand == "tensor" else x
        bias = Tensor(b) if biased else None
        tape = Tape()
        out = tail(tape, a, kind, bias=bias)
        grads = []
        if isinstance(out, Tensor):
            tape.backward(out, rng.normal(size=x.shape))
            grads = [t.grad for t in (a, bias) if isinstance(t, Tensor)]
        return ag._val(out), grads, len(tape._records)

    @pytest.mark.parametrize("operand", ["tensor", "array"])
    @pytest.mark.parametrize("biased", [False, True])
    @pytest.mark.parametrize("kind,slope", TAIL_KINDS)
    def test_matches_the_add_and_factor_pair(self, kind, slope, biased,
                                             operand, monkeypatch):
        monkeypatch.setattr(ag, "LEAKY_SLOPE_DEFAULT", slope)
        out, grads, records = self._run(ag.activation, kind, operand, biased)
        ref, ref_grads, _ = self._run(partial(reference_tail, slope=slope),
                                      kind, operand, biased)
        assert len(grads) == len(ref_grads)
        for g, r in zip(grads, ref_grads):
            assert g.tobytes() == r.tobytes()
        if kind == "relu":
            # max(x, 0) writes +0.0 where x * 0.0 wrote -0.0
            assert np.array_equal(out, ref)
            assert not np.signbit(out).any()
        else:
            assert out.tobytes() == ref.tobytes()
        tensor_operand = operand == "tensor" or biased
        assert records == int(tensor_operand and (kind != "identity"
                                                  or biased))


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
        out = ag.activation(tape, a, "leaky_relu")
        assert LEAKY_SLOPE_DEFAULT == 0.2
        assert np.allclose(out.value, [-0.4, 3.0])

    @pytest.mark.parametrize("slope", [0.01, 0.2, 1.5])
    def test_leaky_branch_free_is_bitwise_the_where_form(self, slope,
                                                        monkeypatch):
        monkeypatch.setattr(ag, "LEAKY_SLOPE_DEFAULT", slope)
        rng = np.random.default_rng(19)
        x = np.concatenate([[0.0, -0.0], rng.normal(size=200)])
        where_factor = np.where(x > 0, 1.0, slope)
        factor = _leaky_factor(x, slope)
        assert factor.tobytes() == where_factor.tobytes()
        tape = Tape()
        a = Tensor(x)
        out = ag.activation(tape, a, "leaky_relu")
        assert out.value.tobytes() == (x * where_factor).tobytes()
        assert out.value.tobytes() == np.where(x > 0, x, slope * x).tobytes()
        tape.backward(out, np.ones_like(x))
        assert a.grad.tobytes() == where_factor.tobytes()
        assert leaky_relu(x, slope).tobytes() == out.value.tobytes()

    @pytest.mark.parametrize("operand", ["tensor", "array"])
    def test_identity_returns_its_operand_and_records_nothing(self, operand):
        x = np.random.default_rng(54).normal(size=(2, 3))
        a = Tensor(x) if operand == "tensor" else x
        tape = Tape()
        assert ag.activation(tape, a, "identity") is a
        assert len(tape._records) == 0

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
