"""Differentiable GNN layers over every filter family, plus the model.

Layer math mirrors the filter library exactly; the difference is that
parameters are Tensors and every operation records onto a tape. Feature
mixing follows the layer form sum_k (shift chain)_k X A_k; families whose
scalar filters vary per feature pair (block, hybrid, pole-based) carry
one scalar tensor slot per (input feature, output feature) pair so the
trainable-scalar count matches the published per-layer formulas.
"""
from __future__ import annotations

import numpy as np

from ..attention import LEAKY_SLOPE_DEFAULT
from ..errors import ConfigError, IncompatibleDims, SingularDiagonal
from ..filters import EPS_SING
from ..sparse import Pattern, support_mask
from . import autograd as ag
from .autograd import NONLINEARITIES, Tape, Tensor

PHI0_MODES = ("attention", "identity")
READOUT_MODES = ("flatten", "mean_pool")


def _check_choice(field, value, choices):
    """Raise ConfigError naming ``field`` unless value is one of choices."""
    if value not in choices:
        raise ConfigError(f"field '{field}' must be one of "
                          f"{', '.join(map(repr, choices))}, not {value!r}")


class ShiftContext:
    """Shift operator with the derived structures layers keep reusing:
    the pattern of supp(I+S) and the off-diagonal part S_off = S - D."""

    def __init__(self, S):
        self.S = S
        self.n = S.n_rows
        self.pattern = support_mask(S)
        self.diag, self.S_off = S.split_diagonal()
        self.weighted_vals = self.pattern.aligned_values(S, diag_fill_zero=1.0)

    def masked_rows_pattern(self, important):
        """Off-diagonal pattern of S restricted to the given rows."""
        off = self.S_off.pattern
        return off.select(np.isin(off.entry_rows(), important))


def _hops(tape, ctx, X, count):
    """The ``count`` hops X, S X, ..., S^(count-1) X of the fixed shift."""
    Zs = [X]
    for _ in range(count - 1):
        Zs.append(ag.spmm_const(tape, ctx.S, Zs[-1]))
    return Zs


def _mix(tape, Zs, As):
    """sum_k Z_k A_k as one product of the stacked hops and matrices."""
    return ag.matmul(tape, ag.concat(tape, Zs, -1), ag.concat(tape, As, 0))


class AttentionParams:
    """One attention head: mixer B (F_in x F_out) and scorer e (2 F_out);
    every head scores through the same fixed LeakyReLU slope. A head tied
    to a mixing matrix of its layer takes it as B and lists no att_B."""

    slope = LEAKY_SLOPE_DEFAULT

    def __init__(self, f_in, f_out, tied_to=None):
        self.tied = tied_to is not None
        self.B = tied_to if self.tied else Tensor(np.zeros((f_in, f_out)),
                                                  name="att_B")
        self.e = Tensor(np.zeros(2 * f_out), name="att_e")

    def params(self):
        return [self.e] if self.tied else [self.B, self.e]

    def hops(self, tape, ctx, X, z, count, weighted):
        """A z, ..., A^count z on the feature axis, A scored from X."""
        weights = ctx.weighted_vals if weighted else None
        return ag.attention_hops(tape, X, self.B, self.e, ctx.pattern, z,
                                 count, weights=weights)


def _record_value(value):
    """A layer attribute as the model file holds it: an array as a list,
    a pattern as its n, row_ptr and col_idx, an inner layer as its record."""
    if isinstance(value, Pattern):
        return {"n": value.n_rows, "row_ptr": value.row_ptr.tolist(),
                "col_idx": value.col_idx.tolist()}
    if isinstance(value, np.ndarray):
        return value.tolist()
    return value.describe() if isinstance(value, GnnLayer) else value


class GnnLayer:
    """Base layer: filter-family parameters plus an optional per-feature
    bias added before the nonlinearity.

    The bias is not part of any filter family's parameter formula (those
    are reported by filter_param_count); it keeps rectified units
    receptive when the input signals live on a nonnegative cone.
    """

    kind = "base"
    fields = ()  # the kind's own model-file record fields, in record order

    def __init__(self, f_in, f_out, order, nonlinearity="relu",
                 use_bias=True):
        _check_choice("nonlinearity", nonlinearity, NONLINEARITIES)
        self.f_in = f_in
        self.f_out = f_out
        self.order = order
        self.nonlinearity = nonlinearity
        self.bias = Tensor(np.zeros(f_out), name="bias") if use_bias else None

    def params(self):
        """The filter family's tensors in model-file order; each one's
        ``name`` is the name the model file and ``init_params`` use."""
        raise NotImplementedError

    def named_params(self):
        out = self.params() + ([self.bias] if self.bias is not None else [])
        return [(t.name, t) for t in out]

    def filter_param_count(self):
        """Trainable scalars of the filter family, bias excluded."""
        return sum(t.size for t in self.params())

    def _finish(self, tape, acc):
        return ag.activation(tape, acc, self.nonlinearity, bias=self.bias)

    def forward(self, tape, ctx, X):
        raise NotImplementedError

    def post_update(self, ctx):
        pass

    def describe(self):
        """The model-file record: the keys every kind shares, then the
        kind's ``fields``."""
        return {"kind": self.kind, "f_in": self.f_in, "f_out": self.f_out,
                "order": self.order, "nonlinearity": self.nonlinearity,
                "use_bias": self.bias is not None,
                **{k: _record_value(getattr(self, k)) for k in self.fields}}

    def _make_mixing(self, count, name="mixing"):
        return [Tensor(np.zeros((self.f_in, self.f_out)), name=name)
                for _ in range(count)]

    def _make_heads(self, count, first, tied):
        """``count`` attention heads; tied, head k shares mixing matrix
        first + k, and gradients reach it from both roles."""
        if tied and first + count > len(self.mixing):
            raise IncompatibleDims("no order-1 mixing matrix to share")
        return [AttentionParams(self.f_in, self.f_out,
                                self.mixing[first + k] if tied else None)
                for k in range(count)]

    def _mix_chain(self, tape, ctx, X, matrices):
        """sum_k S^k X A_k for the fixed graph shift."""
        return _mix(tape, _hops(tape, ctx, X, len(matrices)), matrices)


class PolynomialLayer(GnnLayer):
    """Graph convolutional layer: sigma(sum_k S^k X A_k)."""

    kind = "polynomial"

    def __init__(self, f_in, f_out, order, nonlinearity="relu",
                 use_bias=True):
        super().__init__(f_in, f_out, order, nonlinearity, use_bias)
        self.mixing = self._make_mixing(order + 1, "poly")

    def params(self):
        return list(self.mixing)

    def forward(self, tape, ctx, X):
        return self._finish(tape, self._mix_chain(tape, ctx, X, self.mixing))


class BlockVaryingLayer(GnnLayer):
    """Per-block mixing matrices: node i uses A_k[block_of_node[i]]."""

    kind = "block_varying"
    fields = ("n_blocks", "block_of_node")

    def __init__(self, f_in, f_out, order, block_of_node, n_blocks,
                 nonlinearity="relu", use_bias=True):
        super().__init__(f_in, f_out, order, nonlinearity, use_bias)
        self.block_of_node = np.asarray(block_of_node, dtype=np.int64)
        self.n_blocks = int(n_blocks)
        if self.block_of_node.ndim != 1 or np.any(
                (self.block_of_node < 0) | (self.block_of_node >= n_blocks)):
            raise IncompatibleDims(
                f"block_of_node must be a 1-D list of blocks in "
                f"[0, {self.n_blocks})")
        self.coeffs = [Tensor(np.zeros((n_blocks, f_in, f_out)), name="block")
                       for _ in range(order + 1)]

    def params(self):
        return list(self.coeffs)

    def forward(self, tape, ctx, X):
        Zs = _hops(tape, ctx, X, len(self.coeffs))
        acc = ag.block_mix(tape, ag.concat(tape, Zs, -1),
                           ag.concat(tape, self.coeffs, 1), self.block_of_node)
        return self._finish(tape, acc)


class EdgeVaryingLayer(GnnLayer):
    """Full edge-varying recursion with one shared factor set.

    Z_0 = diag(phi0) X, Z_k = Phi_k Z_{k-1}; output sum_k Z_k A_k. The
    per-order factors live on supp(I+S) and gradients exist only there.
    """

    kind = "edge_varying"
    fields = ("pattern",)

    def __init__(self, f_in, f_out, order, pattern, nonlinearity="relu",
                 use_bias=True):
        super().__init__(f_in, f_out, order, nonlinearity, use_bias)
        self.pattern = pattern
        self.phi0 = Tensor(np.zeros(pattern.n_rows), name="ev_phi0")
        self.phi = [Tensor(np.zeros(pattern.nnz), name="ev_phi")
                    for _ in range(order)]
        self.mixing = self._make_mixing(order + 1)

    def params(self):
        return [self.phi0, *self.phi, *self.mixing]

    def forward(self, tape, ctx, X):
        Zs = [ag.mul(tape, ag.reshape(tape, self.phi0, (ctx.n, 1)), X)]
        for vals in self.phi:
            Zs.append(ag.spmm_values(tape, vals, Zs[-1], self.pattern))
        return self._finish(tape, _mix(tape, Zs, self.mixing))


def _check_hybrid_structure(important, masked):
    """Raise IncompatibleDims unless ``important`` is a 1-D list of unique
    nodes of the square ``masked`` and every masked row is important."""
    n = masked.n_rows
    if masked.n_cols != n:
        raise IncompatibleDims(
            f"masked pattern is {n}x{masked.n_cols}, not square")
    if important.ndim != 1:
        raise IncompatibleDims("important nodes must be a 1-D list")
    if len(important) and (important.min() < 0 or important.max() >= n):
        raise IncompatibleDims(f"important nodes must lie in [0, {n})")
    is_important = np.zeros(n, dtype=bool)
    is_important[important] = True
    if np.count_nonzero(is_important) != len(important):
        raise IncompatibleDims("important nodes must be unique")
    outside = ~is_important[masked.entry_rows()]
    if outside.any():
        node = masked.entry_rows()[np.argmax(outside)]
        raise IncompatibleDims(
            f"masked pattern has entries in row {node}, "
            "which is not an important node")


class HybridLayer(GnnLayer):
    """Edge-varying factors on an important node set plus a global
    convolutional chain, each feature pair owning its scalars.

    The edge-varying chain Z_0 = diag(phi0) X, Z_k = Phi_k Z_{k-1} is
    nonzero only on the I important rows, because phi0 and every masked
    Phi_k have rows only there. So it runs on (B, I, F_in, F_out) tensors
    over a local I x I pattern: the masked entries whose column is also
    important. A masked entry whose column is not important always
    multiplies a zero row of Z_{k-1}, so the local chain is exact, and
    the entry's gradient is exactly zero: ADAM never moves it. That is a
    property of the paper's hybrid construction, not of the local chain.
    """

    kind = "hybrid"
    fields = ("important", "masked_pattern")

    def __init__(self, f_in, f_out, order, important, masked_pattern,
                 nonlinearity="relu", use_bias=True):
        super().__init__(f_in, f_out, order, nonlinearity, use_bias)
        self.important = np.asarray(important, dtype=np.int64)
        self.masked_pattern = masked_pattern
        _check_hybrid_structure(self.important, masked_pattern)
        # the masked entries whose column is important, as an I x I pattern
        self._local, self._local_pos = masked_pattern.submatrix(
            self.important)
        n_imp = len(self.important)
        self.phi0 = Tensor(np.zeros((n_imp, f_in, f_out)), name="hybrid_phi0")
        self.phi = [Tensor(np.zeros((masked_pattern.nnz, f_in, f_out)),
                           name="hybrid_phi") for _ in range(order)]
        self.mixing = self._make_mixing(order + 1)

    def params(self):
        return [self.phi0, *self.phi, *self.mixing]

    def forward(self, tape, ctx, X):
        conv = self._mix_chain(tape, ctx, X, self.mixing)
        Xi = ag.gather_rows(tape, X, self.important)
        Z = ag.mul(tape, self.phi0, ag.expand_last(tape, Xi))
        acc = Z
        for vals in self.phi:
            local = ag.take_index(tape, vals, self._local_pos)
            Z = ag.spmm_pairwise(tape, local, Z, self._local)
            acc = ag.add(tape, acc, Z)
        ev = ag.scatter_rows(tape, ag.sum_axis(tape, acc, axis=-2),
                             self.important, ctx.n)
        return self._finish(tape, ag.add(tape, conv, ev))


class ArmaLayer(GnnLayer):
    """Pole branches, Jacobi steps U <- (D - gamma_p I)^{-1}(beta_p X -
    S_off U) from U = X, plus a direct polynomial chain; beta and gamma
    vary per feature pair, and one S_off product serves every pair. At
    Jacobi order 1 all poles are one node_matmul of [X, S_off X] by W =
    [sum_p rec_p beta_p; -sum_p rec_p], rec_p = (D - gamma_p I)^{-1}; at
    other orders rec sits inside the recursion, which runs per pole."""

    kind = "arma"
    fields = ("n_poles", "jacobi_order")

    def __init__(self, f_in, f_out, n_poles, order, jacobi_order,
                 nonlinearity="relu", use_bias=True):
        super().__init__(f_in, f_out, order, nonlinearity, use_bias)
        self.n_poles = int(n_poles)
        self.jacobi_order = int(jacobi_order)
        self.beta = Tensor(np.zeros((n_poles, f_in, f_out)), name="arma_beta")
        self.gamma = Tensor(np.zeros((n_poles, f_in, f_out)), name="arma_gamma")
        self.mixing = self._make_mixing(order + 1, "arma_alpha")

    def params(self):
        return [self.beta, self.gamma, *self.mixing]

    def _nearest_diagonal(self, ctx):
        """For each gamma entry in flat order: the index of the diagonal
        entry of S nearest to it (the first on ties) and their distance."""
        flat = self.gamma.value.reshape(-1)
        gaps = np.abs(ctx.diag[:, None] - flat[None, :])
        j = np.argmin(gaps, axis=0)
        return j, gaps[j, np.arange(len(flat))]

    def _check_guard(self, ctx):
        j, gap = self._nearest_diagonal(ctx)
        bad = j[gap <= EPS_SING]
        if len(bad):
            raise SingularDiagonal(int(bad.min()))

    def forward(self, tape, ctx, X):
        self._check_guard(ctx)
        acc = self._mix_chain(tape, ctx, X, self.mixing)
        if self.jacobi_order == 1:
            rec = ag.reciprocal(tape, ag.sub(
                tape, ctx.diag[:, None, None, None], self.gamma))
            W = ag.concat(tape, [
                ag.sum_axis(tape, ag.mul(tape, rec, self.beta), 1),
                ag.scale(tape, ag.sum_axis(tape, rec, 1), -1.0)], 1)
            Y = ag.concat(tape, [X, ag.spmm_const(tape, ctx.S_off, X)], -1)
            return self._finish(tape, ag.add(tape, acc,
                                             ag.node_matmul(tape, Y, W)))
        Xp = ag.expand_last(tape, X)
        d_col = ctx.diag[:, None, None]
        for p in range(self.n_poles):
            rec = ag.reciprocal(tape, ag.sub(
                tape, d_col, ag.take_index(tape, self.gamma, p)))
            bx = ag.mul(tape, ag.take_index(tape, self.beta, p), Xp)
            U = Xp
            for _ in range(self.jacobi_order):
                flat = ag.reshape(tape, U, U.value.shape[:-2] + (-1,))
                SU = ag.reshape(tape, ag.spmm_const(tape, ctx.S_off, flat),
                                U.value.shape)
                U = ag.mul(tape, rec, ag.sub(tape, bx, SU))
            acc = ag.add(tape, acc, ag.sum_axis(tape, U, axis=-2))
        return self._finish(tape, acc)

    def jacobi_bound(self, ctx):
        """(P, F_in, F_out) Gershgorin bounds max_i sum_{j != i} |S_ij| /
        |d_i - gamma| on the spectral radius of each Jacobi step R(gamma),
        inf where gamma sits on a diagonal entry."""
        off = np.bincount(ctx.S_off.entry_rows(), np.abs(ctx.S_off.values),
                          minlength=ctx.n)[:, None, None, None]
        gap = np.abs(ctx.diag[:, None, None, None] - self.gamma.value)
        return np.divide(off, gap, out=np.full(gap.shape, np.inf),
                         where=gap > 0).max(axis=0, initial=0.0)

    def post_update(self, ctx):
        """Project gamma entries off the diagonal singularity guard."""
        j, gap = self._nearest_diagonal(ctx)
        hit = gap <= EPS_SING
        near = ctx.diag[j[hit]]
        flat = self.gamma.value.reshape(-1)
        flat[hit] = np.where(flat[hit] >= near, near + 1e-6, near - 1e-6)


class GcatLayer(GnnLayer):
    """Polynomial filter in a shift learned from the features by one
    attention head; ``include_k0=False`` with order 1 is the plain
    single-shift attention layer."""

    kind = "gcat"
    fields = ("include_k0", "weighted", "tied")
    tied = property(lambda self: self.head.tied)

    def __init__(self, f_in, f_out, order, nonlinearity="relu",
                 include_k0=True, weighted=False, use_bias=True, tied=False):
        super().__init__(f_in, f_out, order, nonlinearity, use_bias)
        self.include_k0 = include_k0
        self.weighted = weighted
        self.mixing = self._make_mixing(order + 1 if include_k0 else order)
        self.head = self._make_heads(1, int(include_k0), tied)[0]
        if not self.mixing:  # checked after tying, which names its own fault
            raise IncompatibleDims("gcat layer of order 0 without include_k0 "
                                   "has no hop to mix")

    def params(self):
        return self.head.params() + self.mixing

    def forward(self, tape, ctx, X):
        hops = [X] if self.include_k0 else []
        if self.order:
            hops.append(self.head.hops(tape, ctx, X, X, self.order,
                                       self.weighted))
        return self._finish(tape, _mix(tape, hops, self.mixing))


class EdgeVaryingGatLayer(GnnLayer):
    """Edge-varying recursion whose per-order factors come from
    independent attention heads.

    phi0_mode "attention" scores the order-0 factor with its own head;
    "identity" starts the recursion from X and drops that head.
    """

    kind = "ev_gat"
    fields = ("phi0_mode", "weighted", "tied")
    tied = property(lambda self: any(h.tied for h in self.heads))

    def __init__(self, f_in, f_out, order, nonlinearity="relu",
                 phi0_mode="attention", weighted=False, use_bias=True,
                 tied=False):
        super().__init__(f_in, f_out, order, nonlinearity, use_bias)
        _check_choice("phi0_mode", phi0_mode, PHI0_MODES)
        self.phi0_mode = phi0_mode
        self.weighted = weighted
        self.mixing = self._make_mixing(order + 1)
        identity = phi0_mode == "identity"
        self.heads = self._make_heads(order + 1 - identity, identity, tied)

    def params(self):
        return [t for h in self.heads for t in h.params()] + self.mixing

    def forward(self, tape, ctx, X):
        Zs = [X]
        for head in self.heads:
            Zs.append(head.hops(tape, ctx, X, Zs[-1], 1, self.weighted))
        hops = Zs[1:] if self.phi0_mode == "attention" else Zs
        return self._finish(tape, _mix(tape, hops, self.mixing))


class HybridGcatLayer(GnnLayer):
    """Convolutional chain in the graph shift plus an attention-built
    edge-varying chain, each with its own mixing matrices."""

    kind = "hybrid_gcat"
    fields = ("gat",)

    def __init__(self, f_in, f_out, order, nonlinearity="relu",
                 phi0_mode="attention", weighted=False, use_bias=True,
                 tied=False):
        super().__init__(f_in, f_out, order, nonlinearity, use_bias)
        self.gat = EdgeVaryingGatLayer(f_in, f_out, order,
                                       nonlinearity="identity",
                                       phi0_mode=phi0_mode, weighted=weighted,
                                       use_bias=False, tied=tied)
        self.mixing = self._make_mixing(order + 1)

    def params(self):
        return self.mixing + self.gat.params()

    def forward(self, tape, ctx, X):
        conv = self._mix_chain(tape, ctx, X, self.mixing)
        gat_part = self.gat.forward(tape, ctx, X)
        return self._finish(tape, ag.add(tape, conv, gat_part))


class Model:
    """Ordered layer stack with a fully connected readout.

    The readout flattens the N x F_L feature block to the C outputs
    ("flatten"), or averages over nodes first ("mean_pool").
    """

    def __init__(self, layers, n_nodes, n_outputs, output="softmax",
                 readout_mode="flatten"):
        _check_choice("output", output, ("softmax", "linear"))
        _check_choice("readout_mode", readout_mode, READOUT_MODES)
        for a, b in zip(layers[:-1], layers[1:]):
            if a.f_out != b.f_in:
                raise IncompatibleDims("adjacent layer features must chain")
        self.layers = list(layers)
        self.n_nodes = int(n_nodes)
        self.n_outputs = int(n_outputs)
        self.output = output
        self.readout_mode = readout_mode
        f_last = layers[-1].f_out if layers else 1
        in_dim = n_nodes * f_last if readout_mode == "flatten" else f_last
        self.readout_w = Tensor(np.zeros((in_dim, n_outputs)), name="readout_w")
        self.readout_b = Tensor(np.zeros(n_outputs), name="readout_b")

    def parameters(self):
        """Named tensors in declaration order; a tied attention mixer is
        listed once, as the mixing matrix it shares."""
        named = [(f"L{i}.{name}", t) for i, layer in enumerate(self.layers)
                 for name, t in layer.named_params()]
        return named + [(t.name, t) for t in (self.readout_w, self.readout_b)]

    def param_count(self):
        return int(sum(t.size for _, t in self.parameters()))

    def zero_grad(self):
        for _, t in self.parameters():
            t.zero_grad()

    def post_update(self, ctx):
        for layer in self.layers:
            layer.post_update(ctx)

    def features(self, ctx, X0):
        """Layer-stack output (the permutation-equivariance surface).

        An array X0 stays a constant, so the backward spends no work on
        its adjoint; pass a Tensor to get dL/dX0 in its ``grad``.
        """
        tape = Tape()
        Z = X0 if isinstance(X0, Tensor) else np.asarray(X0, dtype=np.float64)
        for layer in self.layers:
            Z = layer.forward(tape, ctx, Z)
        return Z, tape

    def forward(self, ctx, X0):
        """Logits through the readout; returns (logits Tensor, tape)."""
        Z, tape = self.features(ctx, X0)
        if self.readout_mode == "flatten":
            shape = Z.shape
            F = ag.reshape(tape, Z, shape[:-2] + (shape[-2] * shape[-1],))
        else:
            F = ag.scale(tape, ag.sum_axis(tape, Z, axis=-2),
                         1.0 / self.n_nodes)
        logits = ag.add(tape, ag.matmul(tape, F, self.readout_w),
                        self.readout_b)
        tape.output = logits
        return logits, tape

    def snapshot(self):
        return [t.value.copy() for _, t in self.parameters()]

    def restore(self, snap):
        for (_, t), v in zip(self.parameters(), snap):
            t.value = v.copy()
