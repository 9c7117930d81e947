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
from ..sparse import support_mask
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
        self.diag = S.diagonal()
        off = S.entry_rows() != S.col_idx
        self.S_off = S.pattern.select(off).matrix(S.values[off])
        self.weighted_vals = self.pattern.aligned_values(S, diag_fill_zero=1.0)

    def masked_rows_pattern(self, important):
        """Off-diagonal pattern of S restricted to the given rows."""
        off = self.S_off.pattern
        return off.select(np.isin(off.entry_rows(), important))


def _mix(tape, Zs, As):
    """sum_k Z_k A_k as one product of the stacked hops and matrices."""
    return ag.matmul(tape, ag.concat(tape, Zs, -1), ag.concat(tape, As, 0))


class AttentionParams:
    """One attention head: mixer B (F_in x F_out) and scorer e (2 F_out);
    every head scores through the same fixed LeakyReLU slope."""

    slope = LEAKY_SLOPE_DEFAULT

    def __init__(self, f_in, f_out):
        self.B = Tensor(np.zeros((f_in, f_out)), name="att_B")
        self.e = Tensor(np.zeros(2 * f_out), name="att_e")
        self.tied = False

    def params(self):
        out = [] if self.tied else [("att_B", self.B)]
        return out + [("att_e", self.e)]

    def shift_values(self, tape, ctx, X, weighted):
        """Row-stochastic shift values on supp(I+S) scored from X; B
        serves only the scores, through the score matrix B E^T."""
        weights = ctx.weighted_vals if weighted else None
        return ag.attention_shift(tape, X, self.B, self.e, ctx.pattern,
                                  self.slope, weights=weights)


class GnnLayer:
    """Base layer: filter-family parameters plus an optional per-feature
    bias added before the nonlinearity.

    The bias is not part of any filter family's parameter formula (those
    are reported by filter_param_count); it keeps rectified units
    receptive when the input signals live on a nonnegative cone.
    """

    kind = "base"

    def __init__(self, f_in, f_out, order, nonlinearity="relu",
                 use_bias=True):
        _check_choice("nonlinearity", nonlinearity, NONLINEARITIES)
        self.f_in = f_in
        self.f_out = f_out
        self.order = order
        self.nonlinearity = nonlinearity
        self.bias = Tensor(np.zeros(f_out), name="bias") if use_bias else None

    def params(self):
        raise NotImplementedError

    def named_params(self):
        out = list(self.params())
        if self.bias is not None:
            out.append(("bias", self.bias))
        return out

    def filter_param_count(self):
        """Trainable scalars of the filter family, bias excluded."""
        return sum(t.size for _, t in self.params())

    def _finish(self, tape, acc):
        return ag.activation(tape, acc, self.nonlinearity, bias=self.bias)

    def forward(self, tape, ctx, X):
        raise NotImplementedError

    def post_update(self, ctx):
        pass

    def describe(self):
        return {
            "kind": self.kind,
            "f_in": self.f_in,
            "f_out": self.f_out,
            "order": self.order,
            "nonlinearity": self.nonlinearity,
            "use_bias": self.bias is not None,
        }

    def _make_mixing(self, count, name="mixing"):
        return [Tensor(np.zeros((self.f_in, self.f_out)), name=name)
                for _ in range(count)]

    def _mix_chain(self, tape, ctx, X, matrices):
        """sum_k S^k X A_k for the fixed graph shift."""
        Zs = [X]
        for _ in matrices[1:]:
            Zs.append(ag.spmm_const(tape, ctx.S, Zs[-1]))
        return _mix(tape, Zs, matrices)


class PolynomialLayer(GnnLayer):
    """Graph convolutional layer: sigma(sum_k S^k X A_k)."""

    kind = "polynomial"

    def __init__(self, f_in, f_out, order, nonlinearity="relu",
                 use_bias=True):
        super().__init__(f_in, f_out, order, nonlinearity, use_bias)
        self.mixing = self._make_mixing(order + 1, "poly")

    def params(self):
        return [("poly", t) for t in self.mixing]

    def forward(self, tape, ctx, X):
        return self._finish(tape, self._mix_chain(tape, ctx, X, self.mixing))


class BlockVaryingLayer(GnnLayer):
    """Per-block mixing matrices: node i uses A_k[block_of_node[i]]."""

    kind = "block_varying"

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
        return [("block", t) for t in self.coeffs]

    def forward(self, tape, ctx, X):
        Zs = [X]
        for _ in self.coeffs[1:]:
            Zs.append(ag.spmm_const(tape, ctx.S, Zs[-1]))
        acc = ag.block_mix(tape, ag.concat(tape, Zs, -1),
                           ag.concat(tape, self.coeffs, 1), self.block_of_node)
        return self._finish(tape, acc)

    def describe(self):
        d = super().describe()
        d["n_blocks"] = self.n_blocks
        d["block_of_node"] = self.block_of_node.tolist()
        return d


class EdgeVaryingLayer(GnnLayer):
    """Full edge-varying recursion with one shared factor set.

    Z_0 = diag(phi0) X, Z_k = Phi_k Z_{k-1}; output sum_k Z_k A_k. The
    per-order factors live on supp(I+S) and gradients exist only there.
    """

    kind = "edge_varying"

    def __init__(self, f_in, f_out, order, pattern, nonlinearity="relu",
                 use_bias=True):
        super().__init__(f_in, f_out, order, nonlinearity, use_bias)
        self.pattern = pattern
        self.phi0 = Tensor(np.zeros(pattern.n_rows), name="ev_phi0")
        self.phi = [Tensor(np.zeros(pattern.nnz), name="ev_phi")
                    for _ in range(order)]
        self.mixing = self._make_mixing(order + 1)

    def params(self):
        named = [("ev_phi0", self.phi0)]
        named += [("ev_phi", t) for t in self.phi]
        named += [("mixing", t) for t in self.mixing]
        return named

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
        named = [("hybrid_phi0", self.phi0)]
        named += [("hybrid_phi", t) for t in self.phi]
        named += [("mixing", t) for t in self.mixing]
        return named

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

    def describe(self):
        d = super().describe()
        d["important"] = self.important.tolist()
        return d


class ArmaLayer(GnnLayer):
    """Pole branches, Jacobi steps U <- (D - gamma_p I)^{-1}(beta_p X -
    S_off U) from U = X, plus a direct polynomial chain; beta and gamma
    vary per feature pair, and one S_off product serves every pair."""

    kind = "arma"

    def __init__(self, f_in, f_out, n_poles, order, jacobi_order,
                 nonlinearity="relu", use_bias=True):
        super().__init__(f_in, f_out, order, nonlinearity, use_bias)
        self.n_poles = int(n_poles)
        self.jacobi_order = int(jacobi_order)
        self.beta = Tensor(np.zeros((n_poles, f_in, f_out)), name="arma_beta")
        self.gamma = Tensor(np.zeros((n_poles, f_in, f_out)), name="arma_gamma")
        self.mixing = self._make_mixing(order + 1, "arma_alpha")

    def params(self):
        return ([("arma_beta", self.beta), ("arma_gamma", self.gamma)]
                + [("arma_alpha", t) for t in self.mixing])

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

    def post_update(self, ctx):
        """Project gamma entries off the diagonal singularity guard."""
        j, gap = self._nearest_diagonal(ctx)
        hit = gap <= EPS_SING
        near = ctx.diag[j[hit]]
        flat = self.gamma.value.reshape(-1)
        flat[hit] = np.where(flat[hit] >= near, near + 1e-6, near - 1e-6)

    def describe(self):
        d = super().describe()
        d["n_poles"] = self.n_poles
        d["jacobi_order"] = self.jacobi_order
        return d


class GcatLayer(GnnLayer):
    """Polynomial filter in a shift learned from the features by one
    attention head; ``include_k0=False`` with order 1 is the plain
    single-shift attention layer."""

    kind = "gcat"

    def __init__(self, f_in, f_out, order, nonlinearity="relu",
                 include_k0=True, weighted=False, use_bias=True):
        super().__init__(f_in, f_out, order, nonlinearity, use_bias)
        self.include_k0 = include_k0
        self.weighted = weighted
        self.head = AttentionParams(f_in, f_out)
        n_mix = order + 1 if include_k0 else order
        self.mixing = self._make_mixing(n_mix)

    def params(self):
        return self.head.params() + [("mixing", t) for t in self.mixing]

    def forward(self, tape, ctx, X):
        vals = self.head.shift_values(tape, ctx, X, self.weighted)
        Zs = [X]
        for _ in range(self.order):
            Zs.append(ag.spmm_values(tape, vals, Zs[-1], ctx.pattern))
        hops = Zs if self.include_k0 else Zs[1:]
        return self._finish(tape, _mix(tape, hops, self.mixing))

    def describe(self):
        d = super().describe()
        d.update(include_k0=self.include_k0, weighted=self.weighted,
                 tied=self.head.tied)
        return d


class EdgeVaryingGatLayer(GnnLayer):
    """Edge-varying recursion whose per-order factors come from
    independent attention heads.

    phi0_mode "attention" scores the order-0 factor with its own head;
    "identity" starts the recursion from X and drops that head.
    """

    kind = "ev_gat"

    def __init__(self, f_in, f_out, order, nonlinearity="relu",
                 phi0_mode="attention", weighted=False, use_bias=True):
        super().__init__(f_in, f_out, order, nonlinearity, use_bias)
        _check_choice("phi0_mode", phi0_mode, PHI0_MODES)
        self.phi0_mode = phi0_mode
        self.weighted = weighted
        n_heads = order + 1 if phi0_mode == "attention" else order
        self.heads = [AttentionParams(f_in, f_out) for _ in range(n_heads)]
        self.mixing = self._make_mixing(order + 1)

    def params(self):
        named = []
        for h in self.heads:
            named += h.params()
        return named + [("mixing", t) for t in self.mixing]

    def forward(self, tape, ctx, X):
        Zs = [X]
        for head in self.heads:
            vals = head.shift_values(tape, ctx, X, self.weighted)
            Zs.append(ag.spmm_values(tape, vals, Zs[-1], ctx.pattern))
        hops = Zs[1:] if self.phi0_mode == "attention" else Zs
        return self._finish(tape, _mix(tape, hops, self.mixing))

    def describe(self):
        d = super().describe()
        d.update(phi0_mode=self.phi0_mode, weighted=self.weighted,
                 tied=any(h.tied for h in self.heads))
        return d


class HybridGcatLayer(GnnLayer):
    """Convolutional chain in the graph shift plus an attention-built
    edge-varying chain, each with its own mixing matrices."""

    kind = "hybrid_gcat"

    def __init__(self, f_in, f_out, order, nonlinearity="relu",
                 phi0_mode="attention", weighted=False, use_bias=True):
        super().__init__(f_in, f_out, order, nonlinearity, use_bias)
        self.gat = EdgeVaryingGatLayer(f_in, f_out, order,
                                       nonlinearity="identity",
                                       phi0_mode=phi0_mode,
                                       weighted=weighted, use_bias=False)
        self.mixing = self._make_mixing(order + 1)

    def params(self):
        return [("mixing", t) for t in self.mixing] + self.gat.params()

    def forward(self, tape, ctx, X):
        conv = self._mix_chain(tape, ctx, X, self.mixing)
        gat_part = self.gat.forward(tape, ctx, X)
        return self._finish(tape, ag.add(tape, conv, gat_part))

    def describe(self):
        d = super().describe()
        d["gat"] = self.gat.describe()
        return d


def _attention(layer):
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


def tie_attention_to_mixing(layer):
    """Share the attention mixer storage with the layer's mixing matrices.

    The convolutional attention layer ties B to the order-1 matrix; the
    edge-varying variant ties head k to matrix k. Gradients accumulate
    into the shared tensor from both roles.
    """
    heads, first, mixing = _attention(layer)
    for k, head in enumerate(heads):
        if first + k >= len(mixing):
            raise IncompatibleDims("no order-1 mixing matrix to share")
        if head.B.shape != mixing[first + k].shape:
            raise IncompatibleDims("mixer and mixing matrix shapes differ")
        head.B = mixing[first + k]
        head.tied = True
    return layer


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
        return named + [("readout_w", self.readout_w),
                        ("readout_b", self.readout_b)]

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
