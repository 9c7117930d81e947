"""Layers, model, losses, optimizer, init, tying, and serialization."""
import json
from functools import partial

import numpy as np
import pytest

from graphfilt.attention import (LEAKY_SLOPE_DEFAULT, AttentionHead,
                                 gcat_shift)
from graphfilt.errors import (ConfigError, IncompatibleDims, LabelOutOfRange,
                              ShapeMismatch, SingularDiagonal)
from graphfilt.filters import (EPS_SING, apply_hybrid, apply_polynomial,
                               apply_single_pole_jacobi, HybridFilter,
                               jacobi_spectral_radius, PolynomialFilter)
from graphfilt.graphs import Graph, build_shift, sbm_generate
from graphfilt.nn import (AdamState, ArmaLayer, BlockVaryingLayer,
                          EdgeVaryingGatLayer, EdgeVaryingLayer, GcatLayer,
                          HybridGcatLayer, HybridLayer, Model,
                          PolynomialLayer, ShiftContext, Tape, Tensor,
                          adam_step, cross_entropy, finite_difference_check,
                          init_params, load_model, log_sum_exp, save_model,
                          smooth_l1, softmax_rows)
from graphfilt.nn import autograd as ag
from graphfilt.nn.layers import GnnLayer
from graphfilt.nn.optim import BETA1, BETA2, EPS
from graphfilt.sparse import (Permutation, SparseMatrix, _Product,
                              permute_shift, permute_signal)
from test_autograd import (attention_shift, dense_values_product,
                           reference_tail, two_record_hops)
from test_kernel import FAMILIES, dense_context, ring_context


def loop_post_update(gamma, d):
    """Reference for ArmaLayer.post_update: the per-entry loop it replaced."""
    flat = gamma.reshape(-1).copy()
    for i, g in enumerate(flat):
        gaps = np.abs(d - g)
        j = int(np.argmin(gaps))
        if gaps[j] <= EPS_SING:
            flat[i] = d[j] + 1e-6 if g >= d[j] else d[j] - 1e-6
    return flat.reshape(gamma.shape)


def ctx_for(n=6, seed=0, p=0.55):
    rng = np.random.default_rng(seed)
    while True:
        edges = tuple((i, j, 1.0) for i in range(n) for j in range(i + 1, n)
                      if rng.random() < p)
        g = Graph(n, edges)
        if g.n_edges >= n - 1:
            return ShiftContext(build_shift(g, "max_eigenvalue"))


class TestLayerOracles:
    def test_identity_stack_passes_input_through(self):
        ctx = ctx_for()
        layer = PolynomialLayer(2, 2, 0, nonlinearity="identity",
                                use_bias=False)
        layer.mixing[0].value = np.eye(2)
        model = Model([layer], ctx.n, 2)
        X0 = np.random.default_rng(1).normal(size=(6, 2))
        Z, _ = model.features(ctx, X0)
        assert np.array_equal(Z.value, X0)

    def test_zero_mixing_zero_logits_pre_bias(self):
        ctx = ctx_for()
        layer = PolynomialLayer(1, 3, 2, use_bias=False)
        model = Model([layer], ctx.n, 4)
        model.readout_b.value = np.full(4, 2.5)
        logits, _ = model.forward(ctx, np.ones((6, 1)))
        assert np.allclose(logits.value, 2.5)

    def test_gcnn_matches_composition_oracle(self):
        rng = np.random.default_rng(2)
        ctx = ctx_for()
        layer = PolynomialLayer(2, 3, 2, use_bias=False)
        for t in layer.mixing:
            t.value = rng.normal(size=t.value.shape)
        X = rng.normal(size=(6, 2))
        Z, _ = Model([layer], 6, 1).features(ctx, X)
        dense = ctx.S.to_dense()
        want = X @ layer.mixing[0].value
        power = np.eye(6)
        for k in (1, 2):
            power = dense @ power
            want = want + power @ X @ layer.mixing[k].value
        want = np.where(want > 0, want, 0.0)
        assert np.max(np.abs(Z.value - want)) < 1e-12

    def test_block_layer_single_block_equals_polynomial(self):
        rng = np.random.default_rng(3)
        ctx = ctx_for()
        poly = PolynomialLayer(2, 3, 2, use_bias=False)
        block = BlockVaryingLayer(2, 3, 2, np.zeros(6, dtype=int), 1,
                                  use_bias=False)
        for pt, bt in zip(poly.mixing, block.coeffs):
            pt.value = rng.normal(size=pt.value.shape)
            bt.value = pt.value[None, :, :]
        X = rng.normal(size=(6, 2))
        zp, _ = Model([poly], 6, 1).features(ctx, X)
        zb, _ = Model([block], 6, 1).features(ctx, X)
        assert np.max(np.abs(zp.value - zb.value)) < 1e-13

    def test_edge_varying_layer_matches_library_filters(self):
        rng = np.random.default_rng(4)
        ctx = ctx_for()
        layer = EdgeVaryingLayer(2, 3, 2, ctx.pattern,
                                 nonlinearity="identity", use_bias=False)
        layer.phi0.value = rng.normal(size=6)
        for t in layer.phi + layer.mixing:
            t.value = rng.normal(size=t.value.shape)
        X = rng.normal(size=(6, 2))
        Z, _ = Model([layer], 6, 1).features(ctx, X)
        # oracle: chain the sparse factors densely
        running = np.diag(layer.phi0.value) @ X
        want = running @ layer.mixing[0].value
        for vals, A in zip(layer.phi, layer.mixing[1:]):
            phi = ctx.pattern.matrix(vals.value).to_dense()
            running = phi @ running
            want = want + running @ A.value
        assert np.max(np.abs(Z.value - want)) < 1e-12

    def test_arma_layer_matches_scalar_filter_per_pair(self):
        rng = np.random.default_rng(5)
        ctx = ctx_for()
        layer = ArmaLayer(2, 3, 1, 1, 2, nonlinearity="identity",
                          use_bias=False)
        layer.beta.value = rng.normal(size=(1, 2, 3))
        layer.gamma.value = rng.normal(size=(1, 2, 3)) + 4.0
        for t in layer.mixing:
            t.value = rng.normal(size=t.value.shape)
        X = rng.normal(size=(6, 2))
        Z, _ = Model([layer], 6, 1).features(ctx, X)
        want = apply_polynomial(PolynomialFilter([0.0]), ctx.S, X) @ \
            layer.mixing[0].value * 0.0
        want = X @ layer.mixing[0].value \
            + (ctx.S.to_dense() @ X) @ layer.mixing[1].value
        for f in range(2):
            for g in range(3):
                want[:, g] += apply_single_pole_jacobi(
                    ctx.S, layer.beta.value[0, f, g],
                    layer.gamma.value[0, f, g], 2, X[:, f])
        assert np.max(np.abs(Z.value - want)) < 1e-12

    def test_hybrid_layer_matches_scalar_filter_per_pair(self):
        rng = np.random.default_rng(6)
        ctx = ctx_for()
        important = np.array([1, 4])
        pattern = ctx.masked_rows_pattern(important)
        layer = HybridLayer(2, 2, 1, important, pattern,
                            nonlinearity="identity", use_bias=False)
        layer.phi0.value = rng.normal(size=layer.phi0.value.shape)
        for t in layer.phi + layer.mixing:
            t.value = rng.normal(size=t.value.shape)
        X = rng.normal(size=(6, 2))
        Z, _ = Model([layer], 6, 1).features(ctx, X)
        want = np.zeros((6, 2))
        for f in range(2):
            for g in range(2):
                phis = [SparseMatrix.from_coo(
                    6, 6, important, important, layer.phi0.value[:, f, g])]
                phis.append(SparseMatrix.from_coo(
                    6, 6, pattern.entry_rows(), pattern.col_idx,
                    layer.phi[0].value[:, f, g]))
                scalar = HybridFilter(important, tuple(phis),
                                      [layer.mixing[0].value[f, g],
                                       layer.mixing[1].value[f, g]])
                want[:, g] += apply_hybrid(scalar, ctx.S, X[:, f])
        assert np.max(np.abs(Z.value - want)) < 1e-11

    def test_gcat_layer_matches_attention_module(self):
        rng = np.random.default_rng(7)
        ctx = ctx_for()
        layer = GcatLayer(2, 3, 2, nonlinearity="identity", use_bias=False)
        layer.head.B.value = rng.normal(size=(2, 3))
        layer.head.e.value = rng.normal(size=6)
        for t in layer.mixing:
            t.value = rng.normal(size=t.value.shape)
        X = rng.normal(size=(6, 2))
        Z, _ = Model([layer], 6, 1).features(ctx, X)
        head = AttentionHead(layer.head.B.value, layer.head.e.value)
        phi = gcat_shift(head, X, ctx.pattern).matrix.to_dense()
        want = X @ layer.mixing[0].value
        power = np.eye(6)
        for k in (1, 2):
            power = phi @ power
            want = want + power @ X @ layer.mixing[k].value
        assert np.max(np.abs(Z.value - want)) < 1e-12

    def test_plain_gat_is_k1_without_k0(self):
        rng = np.random.default_rng(8)
        ctx = ctx_for()
        layer = GcatLayer(2, 3, 1, include_k0=False, use_bias=False)
        layer.head.B.value = rng.normal(size=(2, 3))
        layer.head.e.value = rng.normal(size=6)
        layer.mixing[0].value = rng.normal(size=(2, 3))
        X = rng.normal(size=(6, 2))
        Z, _ = Model([layer], 6, 1).features(ctx, X)
        head = AttentionHead(layer.head.B.value, layer.head.e.value)
        phi = gcat_shift(head, X, ctx.pattern).matrix.to_dense()
        want = phi @ X @ layer.mixing[0].value
        want = np.where(want > 0, want, 0.0)
        assert np.max(np.abs(Z.value - want)) < 1e-12

    def test_ev_gat_identity_mode_with_tied_heads_equals_gcat(self):
        rng = np.random.default_rng(9)
        ctx = ctx_for()
        gcat = GcatLayer(2, 3, 2, nonlinearity="identity", use_bias=False)
        gcat.head.B.value = rng.normal(size=(2, 3))
        gcat.head.e.value = rng.normal(size=6)
        for t in gcat.mixing:
            t.value = rng.normal(size=t.value.shape)
        ev = EdgeVaryingGatLayer(2, 3, 2, nonlinearity="identity",
                                 phi0_mode="identity", use_bias=False)
        for h in ev.heads:
            h.B.value = gcat.head.B.value.copy()
            h.e.value = gcat.head.e.value.copy()
        for te, tg in zip(ev.mixing, gcat.mixing):
            te.value = tg.value.copy()
        X = rng.normal(size=(6, 2))
        zg, _ = Model([gcat], 6, 1).features(ctx, X)
        ze, _ = Model([ev], 6, 1).features(ctx, X)
        assert np.max(np.abs(zg.value - ze.value)) < 1e-12

    def test_ev_gat_attention_mode_head_count(self):
        layer = EdgeVaryingGatLayer(2, 3, 2, phi0_mode="attention")
        assert len(layer.heads) == 3
        layer = EdgeVaryingGatLayer(2, 3, 2, phi0_mode="identity")
        assert len(layer.heads) == 2

    def test_hybrid_gcat_inner_chain_is_linear_without_bias(self):
        layer = HybridGcatLayer(2, 3, 2)
        assert layer.gat.bias is None
        assert layer.gat.nonlinearity == "identity"

    @pytest.mark.parametrize("build", [GcatLayer, EdgeVaryingGatLayer,
                                       HybridGcatLayer])
    def test_attention_slope_is_the_fixed_default(self, build):
        # model files store no slope, so no layer may be built with another
        with pytest.raises(TypeError):
            build(2, 3, 1, slope=0.9)
        layer = build(2, 3, 1)
        heads = ([layer.head] if build is GcatLayer else
                 getattr(layer, "gat", layer).heads)
        assert [h.slope for h in heads] == [LEAKY_SLOPE_DEFAULT] * len(heads)

    def test_batched_forward_matches_per_sample(self):
        rng = np.random.default_rng(10)
        ctx = ctx_for()
        layer = GcatLayer(1, 3, 2)
        model = Model([layer], 6, 4)
        init_params(model, rng, shift=ctx)
        X = rng.normal(size=(5, 6, 1))
        batched, _ = model.forward(ctx, X)
        for b in range(5):
            single, _ = model.forward(ctx, X[b])
            assert np.max(np.abs(batched.value[b] - single.value)) < 1e-12


class TestEquivariance:
    def test_gcnn_stack_is_equivariant(self):
        rng = np.random.default_rng(11)
        for trial in range(5):
            ctx = ctx_for(n=8, seed=20 + trial)
            layers = [PolynomialLayer(1, 3, 3), PolynomialLayer(3, 2, 2)]
            model = Model(layers, 8, 2)
            init_params(model, rng, shift=ctx)
            X = rng.normal(size=(8, 1))
            P = Permutation.random(8, rng)
            ctx_p = ShiftContext(permute_shift(ctx.S, P))
            lhs, _ = model.features(ctx_p, permute_signal(X, P))
            rhs, _ = model.features(ctx, X)
            assert np.max(np.abs(lhs.value
                                 - permute_signal(rhs.value, P))) < 1e-10

    def test_edge_varying_witness_breaks_equivariance(self):
        rng = np.random.default_rng(12)
        ctx = ctx_for(n=8, seed=31)
        P = Permutation([1, 2, 3, 4, 5, 6, 7, 0])
        ctx_p = ShiftContext(permute_shift(ctx.S, P))
        layer = EdgeVaryingLayer(1, 2, 2, ctx.pattern)
        layer_p = EdgeVaryingLayer(1, 2, 2, ctx_p.pattern)
        model = Model([layer], 8, 2)
        init_params(model, np.random.default_rng(5), shift=ctx)
        model_p = Model([layer_p], 8, 2)
        init_params(model_p, np.random.default_rng(5), shift=ctx_p)
        X = rng.normal(size=(8, 1))
        lhs, _ = model_p.features(ctx_p, permute_signal(X, P))
        rhs, _ = model.features(ctx, X)
        dev = np.max(np.abs(lhs.value - permute_signal(rhs.value, P)))
        assert dev > 1e-3


class TestTying:
    def test_tie_drops_exactly_fin_fout(self):
        untied = Model([GcatLayer(3, 4, 2)], 6, 2)
        tied = Model([GcatLayer(3, 4, 2, tied=True)], 6, 2)
        assert untied.param_count() - tied.param_count() == 12

    def test_tie_ev_gat_drops_k_plus_one_blocks(self):
        untied = Model([EdgeVaryingGatLayer(3, 4, 2)], 6, 2)
        tied = Model([EdgeVaryingGatLayer(3, 4, 2, tied=True)], 6, 2)
        assert untied.param_count() - tied.param_count() == 3 * 12

    def test_tied_gradients_flow_from_both_roles(self):
        ctx = ctx_for()
        model = Model([GcatLayer(1, 3, 2, tied=True)], 6, 2)
        init_params(model, np.random.default_rng(14), shift=ctx)
        X0 = np.random.default_rng(15).normal(size=(6, 1))
        report = finite_difference_check(model, ctx, X0)
        assert report.passed, report.summary()

    def test_gcat_order_zero_cannot_tie(self):
        for include_k0 in (True, False):
            with pytest.raises(IncompatibleDims,
                               match="^no order-1 mixing matrix to share$"):
                GcatLayer(2, 3, 0, include_k0=include_k0, tied=True)

    def test_non_attention_layer_rejected(self):
        """Only the attention kinds take ``tied``: a layer without heads
        cannot be asked to tie one."""
        ctx = ctx_for()
        for family in sorted(set(FAMILIES) - set(ATTENTION_FAMILIES)):
            with pytest.raises(TypeError, match="'tied'"):
                FAMILIES[family](2, 2, ctx, np.array([0, 2]), tied=True)


# -- tying at construction against the post-construction tie it replaced --

def _reference_attention(layer):
    """(heads, index of the mixing matrix head 0 shares, mixing matrices)
    of an attention layer; a hybrid_gcat layer's are its inner chain's."""
    if isinstance(layer, HybridGcatLayer):
        layer = layer.gat
    if isinstance(layer, GcatLayer):
        return [layer.head], int(layer.include_k0), layer.mixing
    if isinstance(layer, EdgeVaryingGatLayer):
        return (layer.heads, int(layer.phi0_mode != "attention"),
                layer.mixing)
    raise IncompatibleDims(f"layer kind {layer.kind!r} has no attention head")


def reference_tie(layer):
    """Tie a built layer's heads to its mixing matrices after construction:
    the convolutional attention layer ties B to the order-1 matrix, the
    edge-varying variant head k to matrix k."""
    heads, first, mixing = _reference_attention(layer)
    for k, head in enumerate(heads):
        if first + k >= len(mixing):
            raise IncompatibleDims("no order-1 mixing matrix to share")
        if head.B.shape != mixing[first + k].shape:
            raise IncompatibleDims("mixer and mixing matrix shapes differ")
        head.B = mixing[first + k]
        head.tied = True
    return layer


TIE_BUILDS = {
    "gat": lambda f, g, order, **kw: GcatLayer(f, g, order, include_k0=False,
                                               **kw),
    "gcat": GcatLayer, "ev_gat": EdgeVaryingGatLayer,
    "hybrid_gcat": HybridGcatLayer,
}
TIE_CASES = [
    (family, order, weighted, phi0_mode)
    for family in sorted(TIE_BUILDS)
    for order in (0, 1, 2)
    for weighted in (False, True)
    for phi0_mode in ("attention", "identity")
    if family in ("ev_gat", "hybrid_gcat") or phi0_mode == "attention"]


def _tie_case_model(family, order, weighted, phi0_mode, build):
    """A two-layer model of the case made by ``build(cls, f_in, f_out,
    order, **kw)``, or the IncompatibleDims message that refused it."""
    kw = dict(weighted=weighted)
    if family in ("ev_gat", "hybrid_gcat"):
        kw["phi0_mode"] = phi0_mode
    try:
        layers = [build(TIE_BUILDS[family], f, g, order, **kw)
                  for f, g in [(1, 3), (3, 2)]]
    except IncompatibleDims as exc:
        return str(exc)
    return Model(layers, 6, 2)


def _mixer_positions(model):
    """Indices in ``parameters()`` of each head's mixer B, by identity."""
    named = [t for _, t in model.parameters()]
    return [[i for i, t in enumerate(named) if t is head.B]
            for layer in model.layers
            for head in _reference_attention(layer)[0]]


@pytest.mark.parametrize("family,order,weighted,phi0_mode", TIE_CASES)
def test_tied_at_construction_matches_the_reference_tie(
        family, order, weighted, phi0_mode, tmp_path):
    """The records, model file, parameter list, forward and every gradient
    of ``tied=True`` equal those of tying the built layer afterwards."""
    ctx = ctx_for()
    new = _tie_case_model(family, order, weighted, phi0_mode,
                          lambda cls, *a, **kw: cls(*a, **kw, tied=True))
    ref = _tie_case_model(family, order, weighted, phi0_mode,
                          lambda cls, *a, **kw: reference_tie(cls(*a, **kw)))
    if isinstance(ref, str):  # an order-0 gcat: tying keeps its message
        assert new == "no order-1 mixing matrix to share"
        return
    assert [json.dumps(layer.describe()) for layer in new.layers] \
        == [json.dumps(layer.describe()) for layer in ref.layers]
    assert [name for name, _ in new.parameters()] \
        == [name for name, _ in ref.parameters()]
    positions = _mixer_positions(new)
    assert positions == _mixer_positions(ref)
    assert all(len(p) == 1 for p in positions)
    X0 = np.random.default_rng(3).normal(size=(4, 6, 1))
    runs = []
    for i, model in enumerate((new, ref)):
        init_params(model, np.random.default_rng(5), shift=ctx)
        path = tmp_path / f"m{i}.json"
        save_model(model, path, shift=ctx.S)
        logits, tape = model.forward(ctx, X0)
        model.zero_grad()
        tape.backward(output_grad=np.cos(logits.value))
        runs.append([path.read_bytes(), logits.value.tobytes()]
                    + [t.grad.tobytes() for _, t in model.parameters()])
    assert runs[0] == runs[1]


def _ref_glorot(rng, t, fan_in, fan_out):
    s = np.sqrt(6.0 / (fan_in + fan_out))
    t.value = rng.uniform(-s, s, size=t.value.shape)


def _ref_coeff_uniform(rng, t, order):
    s = 1.0 / (order + 1)
    t.value = rng.uniform(-s, s, size=t.value.shape)


def _ref_init_head(rng, head, f_in, f_out):
    if not head.tied:
        _ref_glorot(rng, head.B, f_in, f_out)
    _ref_glorot(rng, head.e, 2 * f_out, 1)


def isinstance_init_params(model, rng, shift=None):
    """Reference for init_params: the per-layer-class dispatch it replaced,
    which draws each family's parameters in its own hand-written order."""
    for layer in model.layers:
        fi, fo = layer.f_in, layer.f_out
        if isinstance(layer, PolynomialLayer):
            for t in layer.mixing:
                _ref_glorot(rng, t, fi, fo)
        elif isinstance(layer, BlockVaryingLayer):
            for t in layer.coeffs:
                _ref_glorot(rng, t, fi, fo)
        elif isinstance(layer, (EdgeVaryingLayer, HybridLayer)):
            _ref_coeff_uniform(rng, layer.phi0, layer.order)
            for t in layer.phi:
                _ref_coeff_uniform(rng, t, layer.order)
            for t in layer.mixing:
                _ref_glorot(rng, t, fi, fo)
        elif isinstance(layer, ArmaLayer):
            top = float(np.max(np.abs(shift.diag), initial=0.0))
            layer.beta.value = rng.uniform(-0.1, 0.1,
                                           size=layer.beta.value.shape)
            g = np.empty_like(layer.gamma.value)
            for p in range(layer.n_poles):
                g[p] = top + 1.0 + (p + 1) * 0.5
            layer.gamma.value = g
            for t in layer.mixing:
                _ref_coeff_uniform(rng, t, layer.order)
        elif isinstance(layer, GcatLayer):
            _ref_init_head(rng, layer.head, fi, fo)
            for t in layer.mixing:
                _ref_glorot(rng, t, fi, fo)
        elif isinstance(layer, EdgeVaryingGatLayer):
            for h in layer.heads:
                _ref_init_head(rng, h, fi, fo)
            for t in layer.mixing:
                _ref_glorot(rng, t, fi, fo)
        elif isinstance(layer, HybridGcatLayer):
            for t in layer.mixing:
                _ref_glorot(rng, t, fi, fo)
            for h in layer.gat.heads:
                _ref_init_head(rng, h, fi, fo)
            for t in layer.gat.mixing:
                _ref_glorot(rng, t, fi, fo)
        if layer.bias is not None:
            layer.bias.value = np.full(layer.f_out, 0.05)
    _ref_glorot(rng, model.readout_w, model.readout_w.value.shape[0],
                model.n_outputs)
    model.readout_b.value = np.zeros(model.n_outputs)


ATTENTION_FAMILIES = ("gat", "gcat", "ev_gat", "hybrid_gcat")
INIT_CASES = [
    (family, tied, n_layers, phi0_mode)
    for family in sorted(FAMILIES)
    for tied in (False, True)
    for n_layers in (1, 2)
    for phi0_mode in ("attention", "identity")
    if (family in ATTENTION_FAMILIES or not tied)
    and (family in ("ev_gat", "hybrid_gcat") or phi0_mode == "attention")]


def _init_case_model(family, tied, n_layers, phi0_mode, ctx):
    kw = ({"phi0_mode": phi0_mode}
          if family in ("ev_gat", "hybrid_gcat") else {})
    layers = []
    for f_in, f_out in [(1, 3), (3, 2)][:n_layers]:
        if tied:
            kw["tied"] = True
        layers.append(FAMILIES[family](f_in, f_out, ctx, np.array([1, 4]),
                                       **kw))
    return Model(layers, ctx.n, 2)


@pytest.mark.parametrize("family,tied,n_layers,phi0_mode", INIT_CASES)
def test_parameters_list_each_tensor_once(family, tied, n_layers, phi0_mode):
    """A tied head lists no att_B, so the mixing matrix it shares appears
    once, and no other tensor is shared: the parameter list and the
    filter counts need no de-duplication."""
    model = _init_case_model(family, tied, n_layers, phi0_mode, ctx_for())
    named = model.parameters()
    assert len({id(t) for _, t in named}) == len(named)
    att_b = [name for name, _ in named if name.endswith(".att_B")]
    assert bool(att_b) == (family in ATTENTION_FAMILIES and not tied)
    for layer in model.layers:
        own = layer.params()
        assert len({id(t) for t in own}) == len(own)
        assert layer.filter_param_count() == sum(t.size for t in own)


@pytest.mark.parametrize("family,tied,n_layers,phi0_mode", INIT_CASES)
def test_stored_names_are_the_tensor_names(family, tied, n_layers, phi0_mode,
                                           tmp_path):
    """Each stored parameter record is named L{i}. plus the name its
    tensor was built with, in params() order with the bias last, and the
    readout's records are readout_w and readout_b."""
    ctx = ctx_for()
    model = _init_case_model(family, tied, n_layers, phi0_mode, ctx)
    want = []
    for i, layer in enumerate(model.layers):
        own = layer.params() + [layer.bias]
        want += [(f"L{i}.{t.name}", t) for t in own]
    want += [("readout_w", model.readout_w), ("readout_b", model.readout_b)]
    assert model.parameters() == want
    save_model(model, tmp_path / "model.json", shift=ctx.S)
    with open(tmp_path / "model.json") as fh:
        stored = json.load(fh)["parameters"]
    assert [rec["name"] for rec in stored] == [name for name, _ in want]
    assert all(t.name and "." not in t.name for _, t in want)


class TestInit:
    @pytest.mark.parametrize("family,tied,n_layers,phi0_mode", INIT_CASES)
    def test_draws_bitwise_equal_to_per_class_dispatch(
            self, family, tied, n_layers, phi0_mode):
        ctx = dense_context()
        got = _init_case_model(family, tied, n_layers, phi0_mode, ctx)
        want = _init_case_model(family, tied, n_layers, phi0_mode, ctx)
        rng, ref_rng = np.random.default_rng(41), np.random.default_rng(41)
        init_params(got, rng, shift=ctx)
        isinstance_init_params(want, ref_rng, shift=ctx)
        assert [n for n, _ in got.parameters()] == \
            [n for n, _ in want.parameters()]
        for (name, a), (_, b) in zip(got.parameters(), want.parameters()):
            assert a.value.dtype == b.value.dtype, name
            assert np.array_equal(a.value, b.value), name
        assert rng.random() == ref_rng.random()

    def test_unknown_parameter_name_rejected(self):
        layer = PolynomialLayer(1, 2, 1)
        layer.mixing[1].name = "mystery"
        with pytest.raises(ValueError, match="parameter 'mystery'"):
            init_params(Model([layer], 6, 2), np.random.default_rng(0))

    def test_same_seed_identical(self):
        ctx = ctx_for()
        models = []
        for _ in range(2):
            layer = ArmaLayer(1, 3, 2, 2, 2)
            model = Model([layer], 6, 2)
            init_params(model, np.random.default_rng(7), shift=ctx)
            models.append(model)
        for (_, a), (_, b) in zip(models[0].parameters(),
                                  models[1].parameters()):
            assert np.array_equal(a.value, b.value)

    def test_values_within_declared_ranges(self):
        ctx = ctx_for()
        layer = PolynomialLayer(3, 5, 2)
        model = Model([layer], 6, 4)
        init_params(model, np.random.default_rng(8), shift=ctx)
        s = np.sqrt(6.0 / (3 + 5))
        for t in layer.mixing:
            assert np.max(np.abs(t.value)) <= s

    def test_arma_guard_holds_over_seeds(self):
        ctx = ctx_for()
        for seed in range(100):
            layer = ArmaLayer(1, 2, 3, 1, 1)
            model = Model([layer], 6, 2)
            init_params(model, np.random.default_rng(seed), shift=ctx)
            gaps = np.abs(ctx.diag[:, None]
                          - layer.gamma.value.reshape(-1)[None, :])
            assert gaps.min() > 1e-9

    def test_arma_without_shift_rejected(self):
        layer = ArmaLayer(1, 2, 1, 1, 1)
        model = Model([layer], 6, 2)
        with pytest.raises(ValueError):
            init_params(model, np.random.default_rng(0))

    def test_gamma_projection_after_update(self):
        ctx = ctx_for()
        layer = ArmaLayer(1, 2, 1, 1, 1)
        layer.gamma.value = np.full((1, 1, 2), ctx.diag[0])
        layer.post_update(ctx)
        gaps = np.abs(ctx.diag[:, None]
                      - layer.gamma.value.reshape(-1)[None, :])
        assert gaps.min() > 1e-9

    def test_gamma_projection_matches_per_entry_loop(self):
        rng = np.random.default_rng(23)
        d = rng.normal(size=6)
        d[4] = d[1]  # a tie: the first nearest entry wins
        dense = np.diag(d) + ctx_for().S.to_dense()
        ctx = ShiftContext(SparseMatrix.from_dense(dense))
        offsets = [0.0, 1e-10, -1e-10, 5e-10, 1e-9, -1e-9, 2e-9, 0.1]
        for _ in range(200):
            gamma = (rng.choice(d, size=(2, 1, 16))
                     + rng.choice(offsets, size=(2, 1, 16)))
            layer = ArmaLayer(1, 16, 2, 1, 1)
            layer.gamma.value = gamma.copy()
            layer.post_update(ctx)
            assert np.array_equal(layer.gamma.value,
                                  loop_post_update(gamma, ctx.diag))

    def test_guard_names_nearest_diagonal_entry(self):
        d = np.array([0.0, 0.5, 1.0, 1.5])
        ctx = ShiftContext(SparseMatrix.from_dense(np.diag(d)))
        layer = ArmaLayer(1, 2, 1, 1, 1)
        layer.gamma.value = np.array([[[3.0, 1.5 + 1e-10]]])
        with pytest.raises(SingularDiagonal) as err:
            layer._check_guard(ctx)
        assert err.value.node == 3
        layer.post_update(ctx)
        layer._check_guard(ctx)

    def test_forward_with_guard_violation_raises(self):
        ctx = ctx_for()
        layer = ArmaLayer(1, 2, 1, 1, 1, use_bias=False)
        layer.gamma.value = np.full((1, 1, 2), ctx.diag[0])
        model = Model([layer], 6, 2)
        with pytest.raises(SingularDiagonal):
            model.forward(ctx, np.zeros((6, 1)))


class TestLosses:
    def test_relu_values(self):
        out = ag.activation(Tape(), np.array([-1.0, 2.0]), "relu")
        assert out.value.tolist() == [0.0, 2.0]

    def test_leaky_values(self):
        out = ag.activation(Tape(), np.array([-1.0, 2.0]), "leaky_relu")
        assert out.value.tolist() == [-LEAKY_SLOPE_DEFAULT, 2.0]

    def test_softmax_uniform(self):
        out = softmax_rows(np.zeros((2, 4)))
        assert np.allclose(out, 0.25)

    def test_log_sum_exp_no_overflow(self):
        val = log_sum_exp(np.array([1000.0, 1000.0]))
        assert val == pytest.approx(1000.0 + np.log(2.0))

    def test_cross_entropy_uniform_is_log_c(self):
        loss, grad = cross_entropy(np.zeros(5), 2)
        assert loss == pytest.approx(np.log(5.0))
        assert grad.shape == (5,)

    def test_cross_entropy_label_range(self):
        with pytest.raises(LabelOutOfRange):
            cross_entropy(np.zeros(3), 3)

    def test_cross_entropy_gradient_matches_numeric(self):
        rng = np.random.default_rng(16)
        logits = rng.normal(size=(4, 3))
        labels = np.array([0, 2, 1, 1])
        _, grad = cross_entropy(logits, labels)
        h = 1e-6
        for i in range(4):
            for c in range(3):
                up = logits.copy()
                up[i, c] += h
                down = logits.copy()
                down[i, c] -= h
                num = (cross_entropy(up, labels)[0]
                       - cross_entropy(down, labels)[0]) / (2 * h)
                assert abs(grad[i, c] - num) < 1e-8

    def test_smooth_l1_zero_at_match(self):
        loss, grad = smooth_l1(np.ones(4), np.ones(4), 1.0)
        assert loss == 0.0 and np.array_equal(grad, np.zeros(4))

    def test_smooth_l1_piecewise_value(self):
        delta = 0.4
        loss, _ = smooth_l1(np.array([2 * delta]), np.array([0.0]), delta)
        assert loss == pytest.approx(1.5 * delta)

    def test_smooth_l1_mask(self):
        loss, grad = smooth_l1(np.array([5.0, 1.0]), np.zeros(2), 1.0,
                               mask=np.array([0.0, 1.0]))
        assert loss == pytest.approx(0.5)
        assert grad[0] == 0.0


def per_tensor_adam_state(params, learning_rate):
    """An AdamState holding its moments as one array per tensor, the
    layout per_tensor_adam_step works on."""
    state = AdamState(params, learning_rate=learning_rate)
    state.m = [np.zeros_like(p.value) for p in state.params]
    state.v = [np.zeros_like(p.value) for p in state.params]
    return state


def per_tensor_adam_step(state, grads=None):
    """Reference for adam_step: the per-tensor loop it replaced."""
    params = state.params
    if grads is None:
        grads = [p.grad for p in params]
    if len(grads) != len(params):
        raise ShapeMismatch("gradient list does not match the parameters")
    state.step_count += 1
    t = state.step_count
    c1 = 1.0 - BETA1 ** t
    c2 = 1.0 - BETA2 ** t
    for i, (p, g) in enumerate(zip(params, grads)):
        if g is None:
            g = np.zeros_like(p.value)
        g = np.asarray(g, dtype=np.float64)
        if g.shape != p.value.shape:
            raise ShapeMismatch(
                f"gradient shape {g.shape} != parameter shape {p.value.shape}")
        state.m[i] = BETA1 * state.m[i] + (1.0 - BETA1) * g
        state.v[i] = BETA2 * state.v[i] + (1.0 - BETA2) * g * g
        m_hat = state.m[i] / c1
        v_hat = state.v[i] / c2
        p.value = p.value - state.learning_rate * m_hat / (np.sqrt(v_hat)
                                                           + EPS)


class TestAdam:
    def test_zero_gradient_keeps_parameters(self):
        p = Tensor(np.array([1.0, -2.0]))
        state = AdamState([p], learning_rate=0.1)
        adam_step(state, grads=[np.zeros(2)])
        assert np.array_equal(p.value, [1.0, -2.0])

    def test_constant_gradient_approaches_signed_rate(self):
        p = Tensor(np.array([0.0]))
        state = AdamState([p], learning_rate=0.01)
        prev = p.value.copy()
        step = None
        for _ in range(200):
            adam_step(state, grads=[np.array([3.0])])
            step = prev - p.value
            prev = p.value.copy()
        assert step[0] == pytest.approx(0.01, rel=1e-3)

    def test_two_runs_bit_identical(self):
        rng = np.random.default_rng(17)
        grads = [rng.normal(size=(3,)) for _ in range(10)]
        results = []
        for _ in range(2):
            p = Tensor(np.zeros(3))
            state = AdamState([p], learning_rate=0.05)
            for g in grads:
                adam_step(state, grads=[g])
            results.append(p.value.copy())
        assert np.array_equal(results[0], results[1])

    def test_shape_mismatch(self):
        p = Tensor(np.zeros(3))
        state = AdamState([p])
        with pytest.raises(ShapeMismatch):
            adam_step(state, grads=[np.zeros(4)])

    def test_gradient_list_of_another_length(self):
        p = Tensor(np.zeros(3))
        state = AdamState([p])
        with pytest.raises(ShapeMismatch, match="gradient list"):
            adam_step(state, grads=[np.zeros(3), np.zeros(3)])
        assert state.step_count == 0

    def test_failed_step_changes_no_state(self):
        """A bad gradient on the second tensor raises before the first
        tensor, the moments or the step count move."""
        a, b = Tensor(np.zeros(2)), Tensor(np.ones((2, 3)))
        state = AdamState([a, b], learning_rate=0.1)
        adam_step(state, grads=[np.array([1.0, -2.0]), None])
        before = (a.value.copy(), b.value.copy(), state.m.copy(),
                  state.v.copy(), state.step_count)
        for grads in ([np.ones(2), np.ones((3, 2))], [None, np.ones(6)],
                      [np.ones(2)]):
            with pytest.raises(ShapeMismatch):
                adam_step(state, grads=grads)
            after = (a.value, b.value, state.m, state.v, state.step_count)
            for x, y in zip(before, after):
                assert np.array_equal(x, y)

    def test_values_stay_one_array_per_tensor(self):
        """Each value is its own array of the tensor's shape, and an
        in-place write to one (as ArmaLayer.post_update makes) reaches the
        next step as it does in the per-tensor loop."""
        runs = []
        for make, step in [(AdamState, adam_step),
                           (per_tensor_adam_state, per_tensor_adam_step)]:
            a, b = Tensor(np.zeros(())), Tensor(np.zeros((2, 2)))
            state = make([a, b], learning_rate=0.1)
            step(state, grads=[np.array(1.0), np.ones((2, 2))])
            assert a.value.shape == () and b.value.shape == (2, 2)
            b.value.reshape(-1)[0] = 5.0
            step(state, grads=[None, np.full((2, 2), 0.5)])
            runs.append((a.value, b.value))
        assert runs[1][1][0, 0] != runs[1][1][0, 1]
        for x, y in zip(*runs):
            assert np.array_equal(x, y)


def two_pass_cross_entropy(logits, labels):
    """Reference for cross_entropy: the row max and exponentials taken
    once for the loss and again for the gradient."""
    n = len(labels)
    m = np.max(logits, axis=-1, keepdims=True)
    lse = np.squeeze(m, axis=-1) + np.log(np.sum(np.exp(logits - m), axis=-1))
    loss = float(np.mean(lse - logits[np.arange(n), labels]))
    m = np.max(logits, axis=-1, keepdims=True)
    e = np.exp(logits - m)
    grad = e / np.sum(e, axis=-1, keepdims=True)
    grad[np.arange(n), labels] -= 1.0
    return loss, grad / n


def sum_unbroadcast(g, shape):
    """Reference for autograd._unbroadcast: ``g.sum`` on every shape."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (gs, s) in enumerate(zip(g.shape, shape))
                 if s == 1 and gs != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


@pytest.mark.parametrize("n_layers", [1, 2])
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_training_steps_match_the_reference_tail(family, n_layers,
                                                 monkeypatch):
    """Training steps (forward, loss, backward, ADAM, post-update) give
    bitwise the losses and parameters of the two-pass loss, ``g.sum``
    bias adjoints and the per-tensor ADAM loop."""
    ctx = ctx_for()
    rng = np.random.default_rng(31)
    batches = [(rng.normal(size=(5, ctx.n, 1)), rng.integers(2, size=5))
               for _ in range(3)]
    runs = []
    for reference in (False, True):
        if reference:
            monkeypatch.setattr(ag, "_unbroadcast", sum_unbroadcast)
        loss_fn, make, step = (
            (two_pass_cross_entropy, per_tensor_adam_state,
             per_tensor_adam_step) if reference
            else (cross_entropy, AdamState, adam_step))
        model = _init_case_model(family, False, n_layers, "attention", ctx)
        init_params(model, np.random.default_rng(32), shift=ctx)
        params = [t for _, t in model.parameters()]
        state = make(params, learning_rate=0.01)
        losses = []
        for X, y in batches:
            logits, tape = model.forward(ctx, X)
            loss, grad = loss_fn(logits.value, y)
            model.zero_grad()
            tape.backward(output_grad=grad)
            step(state)
            model.post_update(ctx)
            losses.append(loss)
        runs.append((losses, [t.value for t in params]))
    assert runs[0][0] == runs[1][0]
    for got, want in zip(runs[0][1], runs[1][1]):
        assert np.array_equal(got, want)


class TestQuadraticLossIdentityModel:
    def test_gradient_matches_analytic_form(self):
        ctx = ctx_for()
        layer = PolynomialLayer(2, 2, 0, nonlinearity="identity",
                                use_bias=False)
        layer.mixing[0].value = np.eye(2)
        model = Model([layer], 6, 3)
        rng = np.random.default_rng(18)
        model.readout_w.value = rng.normal(size=model.readout_w.value.shape)
        X0 = rng.normal(size=(6, 2))
        logits, tape = model.forward(ctx, X0)
        model.zero_grad()
        # the loss 0.5 ||logits||^2 has the logits as its gradient
        tape.backward(output_grad=logits.value.copy())
        flat = X0.reshape(-1)
        want_w = np.outer(flat, logits.value)
        assert np.max(np.abs(model.readout_w.grad - want_w)) < 1e-12
        assert np.max(np.abs(model.readout_b.grad - logits.value)) < 1e-12


class TestSerialization:
    def _roundtrip(self, model, ctx, tmp_path, X):
        out1, _ = model.forward(ctx, X)
        path = tmp_path / "model.json"
        save_model(model, path, shift=ctx.S)
        loaded = load_model(path, shift=ctx.S)
        out2, _ = loaded.forward(ctx, X)
        assert np.array_equal(out1.value, out2.value)

    def test_round_trip_all_families(self, tmp_path):
        rng = np.random.default_rng(19)
        ctx = ctx_for()
        sel = np.array([0, 2])
        layers = [
            PolynomialLayer(1, 3, 2),
            EdgeVaryingLayer(3, 3, 2, ctx.pattern),
            BlockVaryingLayer(3, 3, 1, np.array([0, 1, 0, 1, 0, 1]), 2),
            HybridLayer(3, 3, 1, sel, ctx.masked_rows_pattern(sel)),
            ArmaLayer(3, 3, 1, 1, 2),
            GcatLayer(3, 2, 2),
        ]
        model = Model(layers, 6, 4)
        init_params(model, rng, shift=ctx)
        self._roundtrip(model, ctx, tmp_path, rng.normal(size=(6, 1)))

    def test_round_trip_tied_ev_gat(self, tmp_path):
        rng = np.random.default_rng(20)
        ctx = ctx_for()
        layer = EdgeVaryingGatLayer(1, 3, 1, tied=True)
        model = Model([layer, HybridGcatLayer(3, 2, 1)], 6, 2)
        init_params(model, rng, shift=ctx)
        self._roundtrip(model, ctx, tmp_path, rng.normal(size=(6, 1)))

    def test_rejects_wrong_format_version(self, tmp_path):
        import json
        ctx = ctx_for()
        model = Model([PolynomialLayer(1, 2, 1)], 6, 2)
        path = tmp_path / "m.json"
        save_model(model, path)
        doc = json.loads(path.read_text())
        doc["format_version"] = 999
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError):
            load_model(path)

    def test_rejects_shift_mismatch(self, tmp_path):
        ctx = ctx_for(seed=1)
        other = ctx_for(seed=2)
        model = Model([PolynomialLayer(1, 2, 1)], 6, 2)
        path = tmp_path / "m.json"
        save_model(model, path, shift=ctx.S)
        if np.array_equal(ctx.S.to_dense(), other.S.to_dense()):
            pytest.skip("draws coincided")
        with pytest.raises(ConfigError):
            load_model(path, shift=other.S)


class TestLoadValidatesPatterns:
    """A model file's embedded patterns are checked when it is loaded."""

    @staticmethod
    def _saved(tmp_path):
        import json
        ctx = ctx_for()
        sel = np.array([0, 2])
        layers = [EdgeVaryingLayer(1, 2, 1, ctx.pattern),
                  HybridLayer(2, 2, 1, sel, ctx.masked_rows_pattern(sel))]
        model = Model(layers, 6, 2, readout_mode="mean_pool")
        init_params(model, np.random.default_rng(3), shift=ctx)
        path = tmp_path / "m.json"
        save_model(model, path)
        return path, json.loads(path.read_text())

    @staticmethod
    def _swap_columns(p):
        r = int(np.flatnonzero(np.diff(p["row_ptr"]) >= 2)[0])
        a = p["row_ptr"][r]
        p["col_idx"][a], p["col_idx"][a + 1] = \
            p["col_idx"][a + 1], p["col_idx"][a]

    @staticmethod
    def _column_999(p):
        p["col_idx"][0] = 999

    @staticmethod
    def _decreasing_row_ptr(p):
        p["row_ptr"][2] = p["row_ptr"][3] + 1

    @pytest.mark.parametrize("layer,key,corrupt", [
        (0, "pattern", "_swap_columns"),
        (0, "pattern", "_column_999"),
        (0, "pattern", "_decreasing_row_ptr"),
        (1, "masked_pattern", "_column_999"),
    ])
    def test_corrupt_pattern_raises_config_error(self, tmp_path, layer, key,
                                                 corrupt):
        import json
        path, doc = self._saved(tmp_path)
        getattr(self, corrupt)(doc["architecture"]["layers"][layer][key])
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match=f"^layer {layer} .*{key}"):
            load_model(path)

    @pytest.mark.parametrize("layer,key,field,corrupt", [
        (0, "pattern", "n", lambda p: 6.0),
        (0, "pattern", "n", lambda p: "6"),
        (0, "pattern", "row_ptr", lambda p: [str(v) for v in p]),
        (0, "pattern", "col_idx", lambda p: [p[0] + 0.9] + p[1:]),
        (1, "masked_pattern", "n", lambda p: True),
        (1, "masked_pattern", "row_ptr", lambda p: p[0]),
        (1, "masked_pattern", "col_idx", lambda p: p[:-1] + [None]),
    ], ids=["n-float", "n-string", "row_ptr-strings", "col_idx-fraction",
            "masked-n-bool", "masked-row_ptr-integer", "masked-col_idx-null"])
    def test_non_integer_pattern_field_named(self, tmp_path, layer, key,
                                             field, corrupt):
        import json
        path, doc = self._saved(tmp_path)
        pattern = doc["architecture"]["layers"][layer][key]
        pattern[field] = corrupt(pattern[field])
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match=(
                rf"^layer {layer} \(\w+\): invalid {key}: field '{field}' "
                "must be a")):
            load_model(path)

    @pytest.mark.parametrize("value", [[0, 1], "pattern", None])
    def test_pattern_record_must_be_an_object(self, tmp_path, value):
        import json
        path, doc = self._saved(tmp_path)
        doc["architecture"]["layers"][0]["pattern"] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match=(
                r"^layer 0 \(edge_varying\): field 'pattern' must be an "
                "object")):
            load_model(path)

    def test_pattern_size_must_match_the_model(self, tmp_path):
        import json
        path, doc = self._saved(tmp_path)
        doc["architecture"]["n_nodes"] = 7
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match="6 nodes, the model has 7"):
            load_model(path)


# -- stacked-hop mixing against the per-hop sum it replaced -----------------

def per_hop_chain(tape, ctx, X, matrices):
    """sum_k S^k X A_k as one matmul and one add per hop."""
    acc = ag.matmul(tape, X, matrices[0])
    Z = X
    for A in matrices[1:]:
        Z = ag.spmm_const(tape, ctx.S, Z)
        acc = ag.add(tape, acc, ag.matmul(tape, Z, A))
    return acc


def shift_values(head, tape, ctx, X, weighted):
    """A head's row-stochastic values on supp(I+S) scored from X, as the
    two-record chain's first record."""
    weights = ctx.weighted_vals if weighted else None
    return attention_shift(tape, X, head.B, head.e, ctx.pattern,
                           weights=weights)


def per_hop_ev_gat(layer, tape, ctx, X):
    heads = list(layer.heads)
    if layer.phi0_mode == "attention":
        vals0 = shift_values(heads.pop(0), tape, ctx, X, layer.weighted)
        Z = dense_values_product(tape, vals0, X, ctx.pattern)
    else:
        Z = X
    acc = ag.matmul(tape, Z, layer.mixing[0])
    for head, A in zip(heads, layer.mixing[1:]):
        vals = shift_values(head, tape, ctx, X, layer.weighted)
        Z = dense_values_product(tape, vals, Z, ctx.pattern)
        acc = ag.add(tape, acc, ag.matmul(tape, Z, A))
    return acc


def full_row_hybrid(layer, tape, ctx, X):
    """The hybrid edge-varying chain on (B, N, F_in, F_out) tensors over
    all N rows, as it ran before it was confined to the important block."""
    Xi = ag.gather_rows(tape, X, layer.important)
    Z = ag.mul(tape, layer.phi0, ag.expand_last(tape, Xi))
    f_in, f_out = Z.shape[-2:]
    flat = ag.reshape(tape, Z, Z.shape[:-2] + (f_in * f_out,))
    rows = ag.scatter_rows(tape, flat, layer.important, ctx.n)
    Z = ag.reshape(tape, rows, rows.shape[:-1] + (f_in, f_out))
    acc = Z
    for vals in layer.phi:
        Z = ag.spmm_pairwise(tape, vals, Z, layer.masked_pattern)
        acc = ag.add(tape, acc, Z)
    return ag.sum_axis(tape, acc, axis=-2)


def pairwise_arma_forward(layer, tape, ctx, X):
    """ArmaLayer.forward as it ran before its Jacobi step read the shared
    S_off: R(gamma_p) = -(D - gamma_p I)^{-1}(S - D) as (nnz, F_in, F_out)
    values, and U <- c + R U through spmm_pairwise, c = beta_p X rec."""
    layer._check_guard(ctx)
    acc = per_hop_chain(tape, ctx, X, layer.mixing)
    Xp = ag.expand_last(tape, X)
    d_col = ctx.diag[:, None, None]
    off = ctx.S.entry_rows() != ctx.S.col_idx
    off_pattern = ctx.S.pattern.select(off)
    for p in range(layer.n_poles):
        gamma_p = ag.take_index(tape, layer.gamma, p)
        beta_p = ag.take_index(tape, layer.beta, p)
        rec = ag.reciprocal(tape, ag.sub(tape, d_col, gamma_p))
        c = ag.mul(tape, ag.mul(tape, beta_p, Xp), rec)
        rvals = ag.jacobi_shift_values(
            tape, gamma_p, ctx.S.values[off],
            ctx.diag[off_pattern.entry_rows()])
        U = Xp
        for _ in range(layer.jacobi_order):
            U = ag.add(tape, c,
                       ag.spmm_pairwise(tape, rvals, U, off_pattern))
        acc = ag.add(tape, acc, ag.sum_axis(tape, U, axis=-2))
    return layer._finish(tape, acc)


def per_pole_arma_forward(layer, tape, ctx, X):
    """ArmaLayer.forward as it ran before its order-1 poles became one
    node_matmul: a Jacobi chain per pole on (B, N, F_in, F_out) arrays,
    on the shared S_off; still the layer's path at every other order."""
    layer._check_guard(ctx)
    acc = layer._mix_chain(tape, ctx, X, layer.mixing)
    Xp = ag.expand_last(tape, X)
    d_col = ctx.diag[:, None, None]
    for p in range(layer.n_poles):
        rec = ag.reciprocal(tape, ag.sub(
            tape, d_col, ag.take_index(tape, layer.gamma, p)))
        bx = ag.mul(tape, ag.take_index(tape, layer.beta, p), Xp)
        U = Xp
        for _ in range(layer.jacobi_order):
            flat = ag.reshape(tape, U, U.value.shape[:-2] + (-1,))
            SU = ag.reshape(tape, ag.spmm_const(tape, ctx.S_off, flat),
                            U.value.shape)
            U = ag.mul(tape, rec, ag.sub(tape, bx, SU))
        acc = ag.add(tape, acc, ag.sum_axis(tape, U, axis=-2))
    return layer._finish(tape, acc)


def einsum_block_mix(tape, x, a, block_of_node):
    """ag.block_mix as it ran before node_matmul: np.einsum products with
    the gathered per-node matrices, in one record."""
    xv, av = ag._val(x), ag._val(a)
    a_exp = av[block_of_node]

    def a_adjoint(g):
        xb = xv.reshape(-1, xv.shape[-2], xv.shape[-1])
        gb = g.reshape(-1, g.shape[-2], g.shape[-1])
        contrib = np.einsum("bnf,bng->nfg", xb, gb)
        da = np.zeros_like(av)
        np.add.at(da, block_of_node, contrib)
        return da

    def back(g):
        ag._acc(x, lambda: np.einsum("...ng,nfg->...nf", g, a_exp))
        ag._acc(a, lambda: a_adjoint(g))

    return ag._result(tape, np.einsum("...nf,nfg->...ng", xv, a_exp),
                      (x, a), back)


def per_hop_forward(layer, tape, ctx, X):
    """The layer forward as it was before the hops were stacked (and,
    for hybrid, before its chain ran on the important block only; for
    ARMA, before its Jacobi step read the shared S_off)."""
    if isinstance(layer, ArmaLayer):
        return pairwise_arma_forward(layer, tape, ctx, X)
    if isinstance(layer, HybridLayer):
        acc = ag.add(tape, per_hop_chain(tape, ctx, X, layer.mixing),
                     full_row_hybrid(layer, tape, ctx, X))
    elif isinstance(layer, PolynomialLayer):
        acc = per_hop_chain(tape, ctx, X, layer.mixing)
    elif isinstance(layer, BlockVaryingLayer):
        acc = ag.block_mix(tape, X, layer.coeffs[0], layer.block_of_node)
        Z = X
        for A in layer.coeffs[1:]:
            Z = ag.spmm_const(tape, ctx.S, Z)
            acc = ag.add(tape, acc,
                         ag.block_mix(tape, Z, A, layer.block_of_node))
    elif isinstance(layer, EdgeVaryingLayer):
        Z = ag.mul(tape, ag.reshape(tape, layer.phi0, (ctx.n, 1)), X)
        acc = ag.matmul(tape, Z, layer.mixing[0])
        for vals, A in zip(layer.phi, layer.mixing[1:]):
            Z = ag.spmm_values(tape, vals, Z, layer.pattern)
            acc = ag.add(tape, acc, ag.matmul(tape, Z, A))
    elif isinstance(layer, GcatLayer):
        vals = shift_values(layer.head, tape, ctx, X, layer.weighted)
        mats = list(layer.mixing)
        acc = ag.matmul(tape, X, mats.pop(0)) if layer.include_k0 else None
        Z = X
        for A in mats:
            Z = dense_values_product(tape, vals, Z, ctx.pattern)
            term = ag.matmul(tape, Z, A)
            acc = term if acc is None else ag.add(tape, acc, term)
    elif isinstance(layer, EdgeVaryingGatLayer):
        acc = per_hop_ev_gat(layer, tape, ctx, X)
    elif isinstance(layer, HybridGcatLayer):
        acc = ag.add(tape, per_hop_chain(tape, ctx, X, layer.mixing),
                     per_hop_ev_gat(layer.gat, tape, ctx, X))
    return layer._finish(tape, acc)


def _run_layer(layer, forward_fn, X0, weights):
    model = Model([layer], X0.shape[-2], 2)
    model.zero_grad()
    X = Tensor(X0)
    tape = Tape()
    out = forward_fn(tape, X)
    tape.backward(out, weights)
    return out.value, [t.grad for _, t in model.parameters()[:-2]], X.grad


def _rel(got, want):
    return np.max(np.abs(got - want)) / max(np.max(np.abs(want)), 1e-300)


@pytest.mark.parametrize("graph", ["dense", "csr"])
@pytest.mark.parametrize("f_in", [1, 3])
@pytest.mark.parametrize("family,tied", (
    [(f, False) for f in sorted(FAMILIES)]
    + [(f, True) for f in ("gat", "gcat", "ev_gat", "hybrid_gcat")]))
def test_stacked_mixing_matches_per_hop_sum(family, tied, f_in, graph):
    ctx = dense_context() if graph == "dense" else ring_context(60)
    sel = np.array([1, 4])
    layer = FAMILIES[family](f_in, 2, ctx, sel,
                             **({"tied": True} if tied else {}))
    rng = np.random.default_rng(29)
    init_params(Model([layer], ctx.n, 2), rng, shift=ctx)
    X0 = rng.normal(size=(3, ctx.n, f_in))
    weights = rng.normal(size=(3, ctx.n, 2))

    out, grads, x_grad = _run_layer(
        layer, lambda tape, X: layer.forward(tape, ctx, X), X0, weights)
    ref_out, ref_grads, ref_x_grad = _run_layer(
        layer, lambda tape, X: per_hop_forward(layer, tape, ctx, X),
        X0, weights)
    assert _rel(out, ref_out) <= 1e-12
    assert _rel(x_grad, ref_x_grad) <= 1e-12
    for g, ref in zip(grads, ref_grads):
        assert _rel(g, ref) <= 1e-12


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_two_layer_gradients_with_several_input_features(family):
    ctx = dense_context()
    sel = np.array([1, 4])
    build = FAMILIES[family]
    layers = [build(3, 2, ctx, sel, nonlinearity="identity"),
              build(2, 3, ctx, sel, nonlinearity="identity")]
    model = Model(layers, ctx.n, 2, readout_mode="mean_pool")
    rng = np.random.default_rng(23)
    init_params(model, rng, shift=ctx)
    X0 = rng.normal(size=(2, ctx.n, 3))
    rep = finite_difference_check(model, ctx, X0, labels=np.array([0, 1]))
    assert rep.passed, rep.summary()


# -- constant input: an array X0 takes no adjoint work ---------------------

@pytest.mark.parametrize("graph", ["dense", "csr"])
@pytest.mark.parametrize("f_in", [1, 3])
@pytest.mark.parametrize("family,tied", (
    [(f, False) for f in sorted(FAMILIES)]
    + [(f, True) for f in ("gat", "gcat", "ev_gat", "hybrid_gcat")]))
def test_array_input_leaves_parameter_gradients_bitwise_equal(
        family, tied, f_in, graph):
    ctx = dense_context() if graph == "dense" else ring_context(60)
    layer = FAMILIES[family](f_in, 2, ctx, np.array([1, 4]),
                             **({"tied": True} if tied else {}))
    model = Model([layer], ctx.n, 2)
    rng = np.random.default_rng(41)
    init_params(model, rng, shift=ctx)
    X0 = rng.normal(size=(3, ctx.n, f_in))
    weights = rng.normal(size=(3, ctx.n, 2))

    def run(X):
        model.zero_grad()
        Z, tape = model.features(ctx, X)
        tape.backward(Z, weights)
        return Z.value, [t.grad for _, t in model.parameters()[:-2]]

    out, grads = run(X0)
    X = Tensor(X0)
    t_out, t_grads = run(X)
    assert out.tobytes() == t_out.tobytes()
    assert len(grads) == len(t_grads) > 0
    for g, ref in zip(grads, t_grads):
        assert g.tobytes() == ref.tobytes()
    # a Tensor input still gets dL/dX, equal to the per-hop reference's
    _, _, ref_x_grad = _run_layer(
        layer, lambda tape, X: per_hop_forward(layer, tape, ctx, X),
        X0, weights)
    assert _rel(X.grad, ref_x_grad) <= 1e-12


# -- the fused layer tail against the add + factor pair ---------------------

def _reference_finish(layer, tape, acc):
    return reference_tail(tape, acc, layer.nonlinearity, bias=layer.bias)


@pytest.mark.parametrize("nonlinearity", ["relu", "leaky_relu"])
@pytest.mark.parametrize("f_in", [1, 3])
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_fused_tail_leaves_logits_and_gradients_bitwise_equal(
        family, f_in, nonlinearity, monkeypatch):
    ctx = dense_context()
    build = FAMILIES[family]
    sel = np.array([1, 4])
    layers = [build(f_in, 3, ctx, sel, nonlinearity=nonlinearity),
              build(3, 2, ctx, sel, nonlinearity=nonlinearity)]
    model = Model(layers, ctx.n, 2)
    rng = np.random.default_rng(47)
    init_params(model, rng, shift=ctx)
    for layer in layers:
        layer.bias.value = rng.normal(size=layer.f_out)
    X0 = rng.normal(size=(4, ctx.n, f_in))
    weights = rng.normal(size=(4, 2))

    def run():
        model.zero_grad()
        X = Tensor(X0)
        logits, tape = model.forward(ctx, X)
        tape.backward(output_grad=weights)
        return [logits.value, X.grad] + [t.grad for _, t in
                                         model.parameters()]

    got = run()
    monkeypatch.setattr(GnnLayer, "_finish", _reference_finish)
    want = run()
    for g, w in zip(got, want):
        assert g.tobytes() == w.tobytes()


def _counting(monkeypatch, owner, name):
    """Count the calls of owner.name from now on; returns the counter."""
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


@pytest.mark.parametrize("as_tensor,transposed", [(False, 0), (True, 3)])
def test_gcnn_backward_runs_no_shift_product_for_an_array_input(
        as_tensor, transposed, monkeypatch):
    ctx = dense_context()
    layer = PolynomialLayer(2, 3, 3)
    model = Model([layer], ctx.n, 2)
    rng = np.random.default_rng(43)
    init_params(model, rng, shift=ctx)
    X0 = rng.normal(size=(4, ctx.n, 2))
    logits, tape = model.forward(ctx, Tensor(X0) if as_tensor else X0)
    calls = _counting(monkeypatch, _Product, "apply_transposed")
    tape.backward(output_grad=rng.normal(size=logits.shape))
    assert len(calls) == transposed
    assert layer.mixing[0].grad is not None


# -- ARMA: the Jacobi step on the shared S_off against the pairwise chain ---

def _arma_run(model, ctx, X0, weights):
    """Features, dL/dX and every layer parameter's gradient (None where no
    adjoint reached it) for a Tensor input."""
    model.zero_grad()
    X = Tensor(X0)
    Z, tape = model.features(ctx, X)
    tape.backward(Z, weights)
    return [Z.value, X.grad] + [t.grad for _, t in model.parameters()[:-2]]


@pytest.mark.parametrize("graph", ["dense", "csr"])
@pytest.mark.parametrize("n_layers", [1, 2])
@pytest.mark.parametrize("jacobi_order", [0, 1, 3])
@pytest.mark.parametrize("n_poles", [1, 2])
@pytest.mark.parametrize("f_out", [1, 4])
@pytest.mark.parametrize("f_in", [1, 3])
def test_arma_jacobi_step_matches_pairwise_chain(
        f_in, f_out, n_poles, jacobi_order, n_layers, graph, monkeypatch):
    ctx = dense_context() if graph == "dense" else ring_context(60)
    layers = [ArmaLayer(f, f_out, n_poles, 1, jacobi_order)
              for f in [f_in, f_out][:n_layers]]
    model = Model(layers, ctx.n, 2)
    rng = np.random.default_rng(53)
    init_params(model, rng, shift=ctx)
    X0 = rng.normal(size=(3, ctx.n, f_in))
    weights = rng.normal(size=(3, ctx.n, f_out))

    got = _arma_run(model, ctx, X0, weights)
    monkeypatch.setattr(ArmaLayer, "forward", pairwise_arma_forward)
    want = _arma_run(model, ctx, X0, weights)
    # per layer: beta, gamma, two alpha matrices and the bias
    assert len(got) == len(want) == 2 + 5 * n_layers
    for g, w in zip(got, want):
        assert (g is None) == (w is None)
        assert g is None or _rel(g, w) <= 1e-12
    # beta and gamma reach the output only through a Jacobi step
    assert (got[2] is None) == (jacobi_order == 0)


@pytest.mark.parametrize("graph", ["dense", "csr"])
def test_arma_steps_through_spmm_const_only(graph, monkeypatch):
    ctx = dense_context() if graph == "dense" else ring_context(60)
    layer = ArmaLayer(3, 4, 2, 2, 3)
    model = Model([layer], ctx.n, 2)
    rng = np.random.default_rng(59)
    init_params(model, rng, shift=ctx)
    calls = {name: _counting(monkeypatch, ag, name) for name in (
        "spmm_const", "spmm_values", "spmm_pairwise", "jacobi_shift_values")}
    logits, tape = model.forward(ctx, Tensor(rng.normal(size=(2, ctx.n, 3))))
    tape.backward(output_grad=np.ones(logits.shape))
    # order 2 shift products, then 2 poles x 3 Jacobi steps on S_off
    assert {k: len(v) for k, v in calls.items()} == {
        "spmm_const": 2 + 2 * 3, "spmm_values": 0, "spmm_pairwise": 0,
        "jacobi_shift_values": 0}
    assert layer.gamma.grad is not None and layer.beta.grad is not None


# -- ARMA order 1 and block mixing: node_matmul against the kept chains ----

def _assert_runs_match(got, want, exact):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert (g is None) == (w is None)
        if g is not None and exact:
            assert g.tobytes() == w.tobytes()
        elif g is not None:
            assert _rel(g, w) <= 1e-12


@pytest.mark.parametrize("graph", ["dense", "csr"])
@pytest.mark.parametrize("n_layers", [1, 2])
@pytest.mark.parametrize("jacobi_order", [0, 1, 2, 3])
@pytest.mark.parametrize("n_poles", [1, 2])
@pytest.mark.parametrize("f_in", [1, 3])
def test_arma_matches_per_pole_chain(f_in, n_poles, jacobi_order, n_layers,
                                     graph, monkeypatch):
    """Order 1 runs one node_matmul, to 1e-12 of the per-pole chain; every
    other order still runs that chain, bit for bit."""
    ctx = dense_context() if graph == "dense" else ring_context(60)
    layers = [ArmaLayer(f, 4, n_poles, 2, jacobi_order)
              for f in [f_in, 4][:n_layers]]
    model = Model(layers, ctx.n, 2)
    rng = np.random.default_rng(61)
    init_params(model, rng, shift=ctx)
    X0 = rng.normal(size=(3, ctx.n, f_in))
    weights = rng.normal(size=(3, ctx.n, 4))

    got = _arma_run(model, ctx, X0, weights)
    monkeypatch.setattr(ArmaLayer, "forward", per_pole_arma_forward)
    want = _arma_run(model, ctx, X0, weights)
    assert len(got) == 2 + 6 * n_layers
    _assert_runs_match(got, want, exact=jacobi_order != 1)


@pytest.mark.parametrize("graph", ["dense", "csr"])
@pytest.mark.parametrize("n_layers", [1, 2])
@pytest.mark.parametrize("f_in", [1, 3])
def test_block_mix_matches_einsum_form(f_in, n_layers, graph, monkeypatch):
    ctx = dense_context() if graph == "dense" else ring_context(60)
    layers = [BlockVaryingLayer(f, 4, 2, np.arange(ctx.n) % 3, 3)
              for f in [f_in, 4][:n_layers]]
    model = Model(layers, ctx.n, 2)
    rng = np.random.default_rng(67)
    init_params(model, rng, shift=ctx)
    X0 = rng.normal(size=(3, ctx.n, f_in))
    weights = rng.normal(size=(3, ctx.n, 4))

    got = _arma_run(model, ctx, X0, weights)
    monkeypatch.setattr(ag, "block_mix", einsum_block_mix)
    want = _arma_run(model, ctx, X0, weights)
    assert len(got) == 2 + 4 * n_layers
    _assert_runs_match(got, want, exact=False)


@pytest.mark.parametrize("graph", ["dense", "csr"])
@pytest.mark.parametrize("n_poles", [1, 2])
def test_order_one_arma_runs_one_s_off_product(n_poles, graph, monkeypatch):
    ctx = dense_context() if graph == "dense" else ring_context(60)
    order = 2
    layer = ArmaLayer(3, 4, n_poles, order, 1)
    model = Model([layer], ctx.n, 2)
    rng = np.random.default_rng(71)
    init_params(model, rng, shift=ctx)
    calls = {name: _counting(monkeypatch, ag, name)
             for name in ("spmm_const", "node_matmul", "expand_last")}
    logits, tape = model.forward(ctx, Tensor(rng.normal(size=(2, ctx.n, 3))))
    tape.backward(output_grad=np.ones(logits.shape))
    # the order shift products, then one S_off product for every pole
    assert {k: len(v) for k, v in calls.items()} == {
        "spmm_const": order + 1, "node_matmul": 1, "expand_last": 0}
    assert layer.gamma.grad is not None and layer.beta.grad is not None


@pytest.mark.parametrize("graph", ["dense", "csr"])
@pytest.mark.parametrize("family", ["block_varying", "arma"])
def test_two_layer_node_matmul_gradients(family, graph):
    """Identity activations keep the central differences off ReLU kinks."""
    ctx = dense_context() if graph == "dense" else ring_context(60)
    build = {"block_varying": lambda f, g: BlockVaryingLayer(
        f, g, 2, np.arange(ctx.n) % 3, 3, nonlinearity="identity"),
        "arma": lambda f, g: ArmaLayer(f, g, 2, 1, 1,
                                       nonlinearity="identity")}[family]
    model = Model([build(3, 2), build(2, 3)], ctx.n, 2,
                  readout_mode="mean_pool")
    rng = np.random.default_rng(73)
    init_params(model, rng, shift=ctx)
    X0 = rng.normal(size=(2, ctx.n, 3))
    rep = finite_difference_check(model, ctx, X0, labels=np.array([0, 1]))
    assert rep.passed, rep.summary()


@pytest.mark.parametrize("seed", range(6))
def test_arma_jacobi_bound_holds_the_spectral_radius(seed):
    """The Gershgorin bound is >= rho(R(gamma)) for every pole entry, on
    SBM shifts given a random diagonal."""
    rng = np.random.default_rng(seed)
    A = build_shift(sbm_generate([4, 3, 5], 0.7, 0.2, rng), "max_eigenvalue")
    ctx = ShiftContext(SparseMatrix.from_dense(
        A.to_dense() + np.diag(rng.uniform(-1.0, 1.0, size=A.n_rows))))
    layer = ArmaLayer(2, 3, 2, 1, 1)
    layer.gamma.value = rng.uniform(-2.0, 2.0, size=layer.gamma.shape)
    layer.gamma.value.flat[0] = ctx.diag[seed % ctx.n]  # on the guard
    layer.post_update(ctx)
    bound = layer.jacobi_bound(ctx)
    assert bound.shape == (2, 2, 3)
    for idx in np.ndindex(*bound.shape):
        rho = jacobi_spectral_radius(ctx.S, layer.gamma.value[idx])
        assert bound[idx] >= rho * (1.0 - 1e-12), (idx, bound[idx], rho)


def test_arma_jacobi_bound_reads_inf_on_a_diagonal_entry():
    ctx = ctx_for()
    layer = ArmaLayer(1, 2, 1, 1, 1)
    layer.gamma.value[...] = [[[ctx.diag[2], ctx.diag[2] + 0.5]]]
    bound = layer.jacobi_bound(ctx)
    row_abs = np.abs(ctx.S_off.to_dense()).sum(axis=1)
    assert bound[0, 0, 0] == np.inf
    assert bound[0, 0, 1] == np.max(
        row_abs / np.abs(ctx.diag - ctx.diag[2] - 0.5))


# -- attention: the fused hops against the three-record chain --------------

def three_record_shift(tape, x, b, e, pattern, weights=None):
    """The attention shift as it was before the fused primitives: H = x b,
    the edge scores of H (times the constant weights) and the soft
    maximum, one record each."""
    H = ag.matmul(tape, x, b)
    scores = ag.edge_score(tape, H, e, pattern, LEAKY_SLOPE_DEFAULT)
    if weights is not None:
        scores = ag.mul(tape, scores, weights)
    return ag.support_softmax(tape, scores, pattern)


ATTENTION_CASES = (
    [(f, {}) for f in ("gat", "gcat")]
    + [(f, {"phi0_mode": m}) for f in ("ev_gat", "hybrid_gcat")
       for m in ("attention", "identity")])


@pytest.mark.parametrize("graph", ["dense", "csr"])
@pytest.mark.parametrize("tied", [False, True])
@pytest.mark.parametrize("weighted", [False, True])
@pytest.mark.parametrize("f_in", [1, 3, 16])
@pytest.mark.parametrize("family,kw", ATTENTION_CASES)
def test_fused_attention_shift_matches_three_record_chain(
        family, kw, f_in, weighted, tied, graph, monkeypatch):
    ctx = dense_context() if graph == "dense" else ring_context(60)
    layer = FAMILIES[family](f_in, 2, ctx, None, weighted=weighted, tied=tied,
                             **kw)
    rng = np.random.default_rng(37)
    init_params(Model([layer], ctx.n, 2), rng, shift=ctx)
    X0 = rng.normal(size=(3, ctx.n, f_in))
    weights = rng.normal(size=(3, ctx.n, 2))

    def run():
        return _run_layer(layer, lambda tape, X: layer.forward(tape, ctx, X),
                          X0, weights)

    out, grads, x_grad = run()
    with monkeypatch.context() as m:
        m.setattr(ag, "attention_hops",
                  partial(two_record_hops, shift=three_record_shift))
        ref_out, ref_grads, ref_x_grad = run()
    assert _rel(out, ref_out) <= 1e-12
    assert _rel(x_grad, ref_x_grad) <= 1e-12
    assert len(grads) == len(ref_grads)
    for g, ref in zip(grads, ref_grads):
        assert _rel(g, ref) <= 1e-12


@pytest.mark.parametrize("family,kw", ATTENTION_CASES)
def test_one_attention_record_per_head(family, kw, monkeypatch):
    """gat and gcat call attention_hops once, ev_gat and hybrid_gcat once
    per head, and no spmm_values runs."""
    ctx = ctx_for()
    layer = FAMILIES[family](1, 2, ctx, None, **kw)
    calls = {name: _counting(monkeypatch, ag, name)
             for name in ("attention_hops", "spmm_values")}
    layer.forward(Tape(), ctx, Tensor(np.ones((2, ctx.n, 1))))
    inner = getattr(layer, "gat", layer)
    heads = inner.heads if hasattr(inner, "heads") else [inner.head]
    assert {k: len(v) for k, v in calls.items()} == {
        "attention_hops": len(heads), "spmm_values": 0}


def test_order_zero_gcat_records_no_attention_work(monkeypatch):
    ctx = ctx_for()
    calls = _counting(monkeypatch, ag, "attention_hops")
    layer = GcatLayer(1, 2, 0)
    model = Model([layer], ctx.n, 2)
    init_params(model, np.random.default_rng(41), shift=ctx)
    logits, tape = model.forward(ctx, Tensor(np.ones((2, ctx.n, 1))))
    tape.backward(output_grad=np.ones(logits.shape))
    assert calls == []
    assert layer.head.B.grad is None and layer.head.e.grad is None


# -- hybrid: the local chain against the full-row chain --------------------

HYBRID_SELECTIONS = {
    "pair": [1, 4],
    "unsorted": [5, 1, 3],
    "one_node": [3],          # its local pattern is empty
    "every_node": None,
    "no_node": [],
}


def _selection(name, n):
    picked = HYBRID_SELECTIONS[name]
    return np.arange(n) if picked is None else np.array(picked, dtype=np.int64)


@pytest.mark.parametrize("graph", ["dense", "csr"])
@pytest.mark.parametrize("f_in", [1, 3])
@pytest.mark.parametrize("selection", sorted(HYBRID_SELECTIONS))
def test_hybrid_local_chain_matches_full_row_chain(selection, f_in, graph):
    ctx = dense_context() if graph == "dense" else ring_context(60)
    sel = _selection(selection, ctx.n)
    layer = HybridLayer(f_in, 2, 2, sel, ctx.masked_rows_pattern(sel))
    rng = np.random.default_rng(31)
    init_params(Model([layer], ctx.n, 2), rng, shift=ctx)
    X0 = rng.normal(size=(3, ctx.n, f_in))
    weights = rng.normal(size=(3, ctx.n, 2))

    out, grads, x_grad = _run_layer(
        layer, lambda tape, X: layer.forward(tape, ctx, X), X0, weights)
    ref_out, ref_grads, ref_x_grad = _run_layer(
        layer, lambda tape, X: per_hop_forward(layer, tape, ctx, X),
        X0, weights)
    assert _rel(out, ref_out) <= 1e-12
    assert _rel(x_grad, ref_x_grad) <= 1e-12
    for g, ref in zip(grads, ref_grads):
        assert g.shape == ref.shape
        assert ref.size == 0 or _rel(g, ref) <= 1e-12
    outside = ~np.isin(layer.masked_pattern.col_idx, sel)
    for t in layer.phi:
        assert np.all(t.grad[outside] == 0.0)


@pytest.mark.parametrize("graph", ["dense", "csr"])
@pytest.mark.parametrize("selection", sorted(HYBRID_SELECTIONS))
def test_hybrid_local_pattern_is_the_important_block(selection, graph):
    ctx = dense_context() if graph == "dense" else ring_context(60)
    sel = _selection(selection, ctx.n)
    masked = ctx.masked_rows_pattern(sel)
    layer = HybridLayer(1, 1, 1, sel, masked)
    vals = np.arange(1.0, masked.nnz + 1.0)
    want = masked.matrix(vals).to_dense()[np.ix_(sel, sel)]
    got = layer._local.matrix(vals[layer._local_pos]).to_dense()
    assert np.array_equal(got, want)


class TestHybridValidatesStructure:
    @staticmethod
    def _build(important, masked=None):
        ctx = ctx_for()
        if masked is None:
            masked = ctx.masked_rows_pattern(np.array([1, 4]))
        return HybridLayer(1, 2, 1, important, masked)

    @pytest.mark.parametrize("important,message", [
        ([[1, 4]], "1-D"),
        ([1, 4, 4], "unique"),
        ([1, 4, 99], r"\[0, 6\)"),
        ([-1, 1, 4], r"\[0, 6\)"),
        ([1, 2], "row 4, which is not an important node"),
    ])
    def test_rejects_bad_important_list(self, important, message):
        with pytest.raises(IncompatibleDims, match=message):
            self._build(important)

    def test_rejects_non_square_masked_pattern(self):
        from graphfilt.sparse import Pattern
        with pytest.raises(IncompatibleDims, match="6x7, not square"):
            self._build([1], Pattern(6, 7, [0, 0, 1, 1, 1, 1, 1], [6]))

    def test_important_nodes_without_masked_entries_are_allowed(self):
        layer = self._build([0, 1, 4])
        assert layer.filter_param_count() == (
            3 * 1 * 2 + layer.masked_pattern.nnz * 1 * 2 + 2 * 1 * 2)


class TestConstructorsRejectOutOfRangeValues:
    def test_layer_rejects_unknown_nonlinearity(self):
        with pytest.raises(ConfigError, match="field 'nonlinearity' must be "
                           "one of 'identity', 'relu', 'leaky_relu', "
                           "not 'tanh'"):
            PolynomialLayer(1, 2, 1, nonlinearity="tanh")

    def test_ev_gat_rejects_unknown_phi0_mode(self):
        with pytest.raises(ConfigError, match="field 'phi0_mode'"):
            EdgeVaryingGatLayer(1, 2, 1, phi0_mode="bogus")

    @pytest.mark.parametrize("blocks", [[0, 1, 2, 99, 0, 1],
                                        [0, 1, 2, 3, 0, 1],
                                        [0, -1, 2, 0, 1, 2],
                                        [[0, 1, 2, 0, 1, 2]]])
    def test_block_layer_rejects_blocks_out_of_range(self, blocks):
        with pytest.raises(IncompatibleDims, match=r"1-D .*\[0, 3\)"):
            BlockVaryingLayer(1, 2, 1, blocks, 3)

    @pytest.mark.parametrize("key", ["output", "readout_mode"])
    def test_model_rejects_unknown_head(self, key):
        with pytest.raises(ConfigError, match=f"field '{key}'"):
            Model([PolynomialLayer(1, 2, 1)], 6, 2, **{key: "bogus"})


class TestLoadChecksFields:
    """Model files with missing fields or a hybrid structure that does not
    fit raise ConfigError naming where the fault is."""

    _saved = staticmethod(TestLoadValidatesPatterns._saved)

    def _load(self, tmp_path, doc):
        import json
        path = tmp_path / "edited.json"
        path.write_text(json.dumps(doc))
        return load_model(path)

    @pytest.mark.parametrize("important,message", [
        ([0, 99], r"\[0, 6\)"),
        ([0, 3], "row 2, which is not an important node"),
        ([0, 0], "unique"),
    ])
    def test_hybrid_important_list_checked(self, tmp_path, important,
                                           message):
        _, doc = self._saved(tmp_path)
        doc["architecture"]["layers"][1]["important"] = important
        with pytest.raises(ConfigError,
                           match=rf"^layer 1 \(hybrid\): .*{message}"):
            self._load(tmp_path, doc)

    @pytest.mark.parametrize("layer,key", [
        (0, "order"), (0, "kind"), (1, "important"), (1, "masked_pattern"),
        (1, "nonlinearity"),
    ])
    def test_layer_missing_field_named(self, tmp_path, layer, key):
        _, doc = self._saved(tmp_path)
        del doc["architecture"]["layers"][layer][key]
        with pytest.raises(ConfigError,
                           match=rf"^layer {layer} .*missing field '{key}'"):
            self._load(tmp_path, doc)

    @pytest.mark.parametrize("key", ["n_nodes", "n_outputs", "output",
                                     "readout_mode", "layers"])
    def test_architecture_missing_field_named(self, tmp_path, key):
        _, doc = self._saved(tmp_path)
        del doc["architecture"][key]
        with pytest.raises(ConfigError,
                           match=f"^architecture: missing field '{key}'"):
            self._load(tmp_path, doc)

    @pytest.mark.parametrize("layer,key,value,message", [
        (0, "order", "1", "field 'order' must be a non-negative integer"),
        (0, "f_in", 1.5, "field 'f_in' must be a non-negative integer"),
        (0, "f_out", True, "field 'f_out' must be a non-negative integer"),
        (0, "order", -1, "field 'order' must be a non-negative integer"),
        (1, "important", "ab", "field 'important' must be a list of integers"),
        (1, "important", [0, "2"],
         "field 'important' must be a list of integers"),
    ])
    def test_layer_field_of_wrong_type_named(self, tmp_path, layer, key,
                                             value, message):
        _, doc = self._saved(tmp_path)
        doc["architecture"]["layers"][layer][key] = value
        with pytest.raises(ConfigError, match=rf"^layer {layer} .*{message}"):
            self._load(tmp_path, doc)

    @staticmethod
    def _saved_with(tmp_path, layers):
        import json
        ctx = ctx_for()
        model = Model(layers, 6, 2)
        init_params(model, np.random.default_rng(5), shift=ctx)
        path = tmp_path / "m.json"
        save_model(model, path)
        return json.loads(path.read_text())

    def test_unknown_nonlinearity_named(self, tmp_path):
        _, doc = self._saved(tmp_path)
        doc["architecture"]["layers"][0]["nonlinearity"] = "tanh"
        with pytest.raises(ConfigError, match=(
                r"^layer 0 \(edge_varying\): field 'nonlinearity' must be "
                "one of")):
            self._load(tmp_path, doc)

    @pytest.mark.parametrize("kind", ["ev_gat", "hybrid_gcat"])
    def test_unknown_phi0_mode_named(self, tmp_path, kind):
        layer = (EdgeVaryingGatLayer(1, 2, 1) if kind == "ev_gat"
                 else HybridGcatLayer(1, 2, 1))
        doc = self._saved_with(tmp_path, [layer])
        record = doc["architecture"]["layers"][0]
        (record if kind == "ev_gat" else record["gat"])["phi0_mode"] = "bogus"
        with pytest.raises(ConfigError, match=(
                rf"^layer 0 \({kind}\): field 'phi0_mode' must be one of")):
            self._load(tmp_path, doc)

    @pytest.mark.parametrize("blocks,message", [
        ([0, 1, 2, 99, 0, 1], r"block_of_node must be .*\[0, 3\)"),
        ([0, 1, 2, 0, 1], "field 'block_of_node' has 5 entries, the model "
                          "has 6 nodes"),
    ])
    def test_block_of_node_checked(self, tmp_path, blocks, message):
        layer = BlockVaryingLayer(1, 2, 1, np.arange(6) % 3, 3)
        doc = self._saved_with(tmp_path, [layer])
        doc["architecture"]["layers"][0]["block_of_node"] = blocks
        with pytest.raises(ConfigError, match=(
                rf"^layer 0 \(block_varying\): {message}")):
            self._load(tmp_path, doc)

    @pytest.mark.parametrize("key", ["output", "readout_mode"])
    def test_unknown_model_head_named(self, tmp_path, key):
        _, doc = self._saved(tmp_path)
        doc["architecture"][key] = "bogus"
        with pytest.raises(ConfigError, match=(
                f"^architecture: field '{key}' must be one of")):
            self._load(tmp_path, doc)

    def test_layers_that_do_not_chain_named(self, tmp_path):
        _, doc = self._saved(tmp_path)
        doc["architecture"]["layers"][1]["f_in"] = 3
        with pytest.raises(ConfigError, match=(
                "^architecture: adjacent layer features must chain")):
            self._load(tmp_path, doc)

    def test_model_file_that_is_not_an_object(self, tmp_path):
        with pytest.raises(ConfigError,
                           match="^model file must be an object, not list"):
            self._load(tmp_path, [1])

    def test_layer_record_that_is_not_an_object(self, tmp_path):
        _, doc = self._saved(tmp_path)
        doc["architecture"]["layers"][1] = ["hybrid"]
        with pytest.raises(ConfigError, match=(
                "^layer 1: record must be an object, not list")):
            self._load(tmp_path, doc)

    @pytest.mark.parametrize("key,value,message", [
        ("layers", 5, "field 'layers' must be a list"),
        ("n_nodes", "6", "field 'n_nodes' must be a non-negative integer"),
    ])
    def test_architecture_field_of_wrong_type_named(self, tmp_path, key,
                                                    value, message):
        _, doc = self._saved(tmp_path)
        doc["architecture"][key] = value
        with pytest.raises(ConfigError, match=f"^architecture: {message}"):
            self._load(tmp_path, doc)

    @pytest.mark.parametrize("key", ["name", "shape", "data", None])
    def test_parameter_missing_field_named(self, tmp_path, key):
        _, doc = self._saved(tmp_path)
        if key is None:
            del doc["parameters"]
        else:
            del doc["parameters"][1][key]
        with pytest.raises(ConfigError, match=(
                f"^parameters: missing field '{key or 'parameters'}'")):
            self._load(tmp_path, doc)

    @pytest.mark.parametrize("kind,path,value,message", [
        ("gcat", ["weighted"], "false",
         "field 'weighted' must be true or false, not 'false'"),
        ("gcat", ["include_k0"], "no", "field 'include_k0' must be true"),
        ("ev_gat", ["weighted"], 0.0, "field 'weighted' must be true"),
        ("gcat", ["use_bias"], 1, "field 'use_bias' must be true"),
        ("ev_gat", ["tied"], "yes", "field 'tied' must be true"),
        ("hybrid_gcat", ["gat", "weighted"], "false",
         "field 'weighted' must be true"),
        ("hybrid_gcat", ["gat", "tied"], 1, "field 'tied' must be true"),
        ("hybrid_gcat", ["gat"], 5, "field 'gat' must be an object, not int"),
    ])
    def test_boolean_field_of_wrong_type_named(self, tmp_path, kind, path,
                                               value, message):
        build = {"gcat": GcatLayer, "ev_gat": EdgeVaryingGatLayer,
                 "hybrid_gcat": HybridGcatLayer}[kind]
        doc = self._saved_with(tmp_path, [build(1, 2, 1)])
        record = doc["architecture"]["layers"][0]
        for key in path[:-1]:
            record = record[key]
        record[path[-1]] = value
        with pytest.raises(ConfigError,
                           match=rf"^layer 0 \({kind}\): {message}"):
            self._load(tmp_path, doc)

    # sizes a file could ask to allocate; each is checked against the
    # stored parameter shapes before any array is built from it
    @pytest.mark.parametrize("layers,edits,message", [
        ("gcnn2", {0: {"f_out": 2**40}, 1: {"f_in": 2**40}},
         r"^layer 0 \(polynomial\): field 'f_out' is 1099511627776, but "
         r"the stored parameters have \[2\]"),
        ("gcnn", {0: {"f_out": 2**40}},
         r"^layer 0 \(polynomial\): field 'f_out' is 1099511627776"),
        ("gcnn", {0: {"f_in": 2**40}},
         r"^layer 0 \(polynomial\): field 'f_in' is 1099511627776"),
        ("arma", {0: {"n_poles": 2**40}},
         r"^layer 0 \(arma\): field 'n_poles' is 1099511627776"),
        ("block", {0: {"n_blocks": 2**40}},
         r"^layer 0 \(block_varying\): field 'n_blocks' is 1099511627776"),
        ("gcnn", {"n_outputs": 2**40},
         "^architecture: field 'n_outputs' is 1099511627776"),
        ("gcnn", {"n_nodes": 2**40},
         "^architecture: field 'n_nodes' is 1099511627776"),
        ("gcnn", {0: {"f_out": 2**40}, "shapes": [1, 2**40]},
         r"^layer 0 \(polynomial\): field 'f_in' is 1, but the stored "
         r"parameters have \[\]"),
        ("gcnn", {0: {"order": 2**40}},
         r"^layer 0 \(polynomial\): field 'order' is 1099511627776, but "
         "the layer stores 3 parameters"),
    ], ids=["f_out-chained", "f_out", "f_in", "n_poles", "n_blocks",
            "n_outputs", "n_nodes", "shapes-beyond-data", "order"])
    def test_size_beyond_the_stored_parameters_named(self, tmp_path, layers,
                                                     edits, message):
        build = {"gcnn": [PolynomialLayer(1, 2, 1)],
                 "gcnn2": [PolynomialLayer(1, 2, 1), PolynomialLayer(2, 2, 1)],
                 "arma": [ArmaLayer(1, 2, 1, 1, 1)],
                 "block": [BlockVaryingLayer(1, 2, 1, np.arange(6) % 3, 3)]}
        doc = self._saved_with(tmp_path, build[layers])
        arch = doc["architecture"]
        for key, value in edits.items():
            if key == "shapes":  # every matrix claims more than its data
                for rec in doc["parameters"]:
                    if rec["name"] == "L0.poly":
                        rec["shape"] = value
            elif isinstance(key, int):
                arch["layers"][key].update(value)
            else:
                arch[key] = value
        with pytest.raises(ConfigError, match=message):
            self._load(tmp_path, doc)

    # the gat record of a hybrid_gcat layer repeats what the outer record
    # implies; a contradiction there names the field
    @pytest.mark.parametrize("key,value,message", [
        ("use_bias", "x", "field 'gat.use_bias' must be False, not 'x'"),
        ("use_bias", True, "field 'gat.use_bias' must be False, not True"),
        ("f_in", "y", "field 'gat.f_in' must be 1, not 'y'"),
        ("f_in", True, "field 'gat.f_in' must be 1, not True"),
        ("f_out", 3, "field 'gat.f_out' must be 2, not 3"),
        ("order", 2, "field 'gat.order' must be 1, not 2"),
        ("nonlinearity", "tanh",
         "field 'gat.nonlinearity' must be 'identity', not 'tanh'"),
        ("nonlinearity", "relu",
         "field 'gat.nonlinearity' must be 'identity', not 'relu'"),
        ("kind", "gcat", "field 'gat.kind' must be 'ev_gat', not 'gcat'"),
    ])
    def test_hybrid_gcat_gat_record_must_match_the_layer(self, tmp_path, key,
                                                         value, message):
        doc = self._saved_with(tmp_path, [HybridGcatLayer(1, 2, 1)])
        doc["architecture"]["layers"][0]["gat"][key] = value
        with pytest.raises(ConfigError,
                           match=rf"^layer 0 \(hybrid_gcat\): {message}"):
            self._load(tmp_path, doc)

    @staticmethod
    def _short_data(rec):
        import base64
        raw = base64.b64decode(rec["data"])[:-8]  # one entry fewer
        rec["data"] = base64.b64encode(raw).decode("ascii")

    @pytest.mark.parametrize("edit,message", [
        (lambda doc: doc.update(parameters=5),
         "^field 'parameters' must be a list"),
        (lambda doc: doc["parameters"].__setitem__(1, ["L0.ev_phi"]),
         "^parameter 1: record must be an object, not list"),
        (lambda doc: doc["parameters"][1].update(shape=3),
         "^parameter 1: file has 'L0.ev_phi' of shape 3, model expects "
         r"'L0.ev_phi' of \[\d+\]"),
        (lambda doc: TestLoadChecksFields._short_data(doc["parameters"][1]),
         r"^parameter 1 \(L0.ev_phi\): data does not decode to shape"),
        (lambda doc: doc["parameters"][1].update(data=5),
         r"^parameter 1 \(L0.ev_phi\): data does not decode to shape"),
        (lambda doc: doc["parameters"][1].update(data="é"),
         r"^parameter 1 \(L0.ev_phi\): data does not decode to shape"),
    ], ids=["parameters-int", "record-list", "shape-int", "data-short",
            "data-int", "data-non-ascii"])
    def test_malformed_parameter_record_named(self, tmp_path, edit, message):
        _, doc = self._saved(tmp_path)
        edit(doc)
        with pytest.raises(ConfigError, match=message):
            self._load(tmp_path, doc)

    # a kind outside the kind table, a string or not, is named
    @pytest.mark.parametrize("kind", ["bogus", "base", [], {}, 3, None],
                             ids=["bogus", "base", "list", "object", "int",
                                  "null"])
    def test_unknown_layer_kind_named(self, tmp_path, kind):
        _, doc = self._saved(tmp_path)
        doc["architecture"]["layers"][0]["kind"] = kind
        with pytest.raises(ConfigError) as err:
            self._load(tmp_path, doc)
        assert str(err.value) == (f"layer 0 ({kind}): unknown layer kind "
                                  f"{kind!r}")

    def test_tied_on_a_kind_without_attention_named(self, tmp_path):
        _, doc = self._saved(tmp_path)
        doc["architecture"]["layers"][0]["tied"] = True
        with pytest.raises(ConfigError) as err:
            self._load(tmp_path, doc)
        assert str(err.value) == ("layer 0 (edge_varying): layer kind "
                                  "'edge_varying' has no attention head")

    # a gcat record of order 0 that keeps no hop to mix, or whose head
    # has no order-1 matrix to tie to, is refused when the layer is built
    @pytest.mark.parametrize("include_k0,tied,message", [
        (False, False, "gcat layer of order 0 without include_k0 has no hop "
                       "to mix"),
        (True, True, "no order-1 mixing matrix to share"),
    ], ids=["no-hop", "tied-order-0"])
    def test_gcat_of_order_zero_named(self, tmp_path, include_k0, tied,
                                      message):
        layer = GcatLayer(1, 2, 1 - include_k0, include_k0=include_k0)
        doc = self._saved_with(tmp_path, [layer])
        record = doc["architecture"]["layers"][0]
        record.update(order=0, tied=tied)
        doc["parameters"] = [r for r in doc["parameters"]
                             if include_k0 or r["name"] != "L0.mixing"]
        with pytest.raises(ConfigError) as err:
            self._load(tmp_path, doc)
        assert str(err.value) == f"layer 0 (gcat): {message}"


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_record_holds_the_shared_keys_then_the_declared_fields(family):
    layer = FAMILIES[family](1, 2, dense_context(), np.array([1, 4]))
    assert list(layer.describe()) == ["kind", "f_in", "f_out", "order",
                                      "nonlinearity", "use_bias",
                                      *layer.fields]


def _extra_parameter_record(tmp_path):
    """load_model on a saved model whose file lists one parameter too
    many."""
    import json
    path = tmp_path / "m.json"
    save_model(Model([PolynomialLayer(1, 2, 1)], 6, 2), path)
    doc = json.loads(path.read_text())
    doc["parameters"].insert(0, doc["parameters"][0])
    path.write_text(json.dumps(doc))
    return load_model(path)


# the checks no other test reaches: (call on a scratch directory, error
# type, message)
RAISE_SITES = {
    "model_features_do_not_chain": (
        lambda tmp: Model([PolynomialLayer(1, 2, 1),
                           PolynomialLayer(3, 2, 1)], 6, 2),
        IncompatibleDims, "adjacent layer features must chain"),
    "load_parameter_count": (
        _extra_parameter_record, ConfigError,
        "parameter list length mismatch"),
}


@pytest.mark.parametrize("site", sorted(RAISE_SITES))
def test_input_check_raises_its_type_and_message(site, tmp_path):
    call, error, message = RAISE_SITES[site]
    with pytest.raises(error) as err:
        call(tmp_path)
    assert type(err.value) is error and str(err.value) == message
