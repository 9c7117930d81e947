"""Linear filter families against dense oracles."""
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import graphfilt
from graphfilt.errors import (DimensionMismatch, NonFiniteValue,
                              NonRealValue, RepeatedPoles, SingularDiagonal,
                              SingularSystem, SupportViolation, TooLarge)
from graphfilt.filters import (ArmaJacobiFilter, ArmaRational,
                               BlockVaryingFilter, EdgeVaryingFilter,
                               HybridFilter, PolynomialFilter,
                               apply_arma_exact, apply_arma_jacobi,
                               apply_block_varying, apply_edge_varying,
                               apply_hybrid, apply_polynomial,
                               apply_single_pole_jacobi,
                               arma_to_edge_varying, jacobi_shift,
                               jacobi_spectral_radius, param_count,
                               partial_fraction_decompose)
from graphfilt.graphs import Graph, build_shift
from graphfilt.nn.layers import ShiftContext
from graphfilt.sparse import (Permutation, SparseMatrix, permute_shift,
                              permute_signal, support_mask)


def k3_shift(scale=1.0):
    A = np.ones((3, 3)) - np.eye(3)
    return SparseMatrix.from_dense(A * scale)


def random_graph_shift(rng, n, p=0.5, normalized=True):
    for _ in range(50):
        edges = [(i, j, 1.0) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < p]
        g = Graph(n, tuple(edges))
        if g.n_edges:
            return build_shift(g, "max_eigenvalue" if normalized else "none")
    raise RuntimeError("no edges drawn")


def random_supported_matrix(rng, mask, scale=1.0):
    return mask.matrix(rng.normal(size=mask.nnz) * scale)


def per_pole_arma_jacobi(f, S, X):
    """apply_arma_jacobi as it ran before the poles shared one S_off
    product per step: the direct term (none for empty alphas), then each
    pole's own recursion
    u <- beta (D - gamma I)^{-1} x + R(gamma) u on its own R(gamma),
    added in pole order."""
    X = np.asarray(X, dtype=np.float64)
    out = (apply_polynomial(PolynomialFilter(f.alphas), S, X)
           if len(f.alphas) else np.zeros(X.shape))
    for beta, gamma in zip(f.betas, f.gammas):
        out = out + apply_single_pole_jacobi(S, beta, gamma,
                                             f.jacobi_order, X)
    return out


def diagonal_shift():
    """A 4-node path whose shift stores the diagonal 1, 2, 3, 2."""
    dense = np.diag([1.0, 2.0, 3.0, 2.0])
    dense[[0, 1, 2], [1, 2, 3]] = dense[[1, 2, 3], [0, 1, 2]] = 0.5
    return SparseMatrix.from_dense(dense)


class TestApplyPolynomial:
    def test_identity_coefficients(self):
        S = k3_shift()
        X = np.arange(6.0).reshape(3, 2)
        out = apply_polynomial(PolynomialFilter([1.0]), S, X)
        assert np.array_equal(out, X)

    def test_single_shift(self):
        S = k3_shift()
        X = np.arange(6.0).reshape(3, 2)
        out = apply_polynomial(PolynomialFilter([0.0, 1.0]), S, X)
        assert np.allclose(out, S.to_dense() @ X)

    def test_matches_dense_powers(self):
        rng = np.random.default_rng(0)
        S = random_graph_shift(rng, 6)
        X = rng.normal(size=(6, 2))
        f = PolynomialFilter([1.0, 2.0, 3.0])
        dense = S.to_dense()
        want = X + 2.0 * dense @ X + 3.0 * dense @ dense @ X
        assert np.max(np.abs(apply_polynomial(f, S, X) - want)) < 1e-12

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            S = random_graph_shift(rng, 8)
            X = rng.normal(size=(8, 3))
            f = PolynomialFilter(rng.normal(size=4))
            P = Permutation.random(8, rng)
            lhs = apply_polynomial(f, permute_shift(S, P), permute_signal(X, P))
            rhs = permute_signal(apply_polynomial(f, S, X), P)
            assert np.max(np.abs(lhs - rhs)) < 1e-13


class TestApplyEdgeVarying:
    def test_order_zero_identity(self):
        S = k3_shift()
        mask = support_mask(S)
        f = EdgeVaryingFilter(np.ones(3), (), mask)
        X = np.arange(3.0).reshape(3, 1)
        assert np.array_equal(apply_edge_varying(f, X), X)

    def test_reduces_to_unit_polynomial(self):
        S = k3_shift(0.4)
        mask = support_mask(S)
        phis = tuple(mask.matrix(mask.aligned_values(S)) for _ in range(3))
        f = EdgeVaryingFilter(np.ones(3), phis, mask)
        X = np.array([[1.0], [2.0], [-1.0]])
        want = apply_polynomial(PolynomialFilter([1.0] * 4), S, X)
        assert np.max(np.abs(apply_edge_varying(f, X) - want)) < 1e-12

    def test_matches_dense_cumulative_product(self):
        rng = np.random.default_rng(2)
        S = random_graph_shift(rng, 5)
        mask = support_mask(S)
        phi0 = rng.normal(size=5)
        phis = tuple(random_supported_matrix(rng, mask) for _ in range(3))
        f = EdgeVaryingFilter(phi0, phis, mask)
        X = rng.normal(size=(5, 2))
        running = np.diag(phi0) @ X
        want = running.copy()
        for phi in phis:
            running = phi.to_dense() @ running
            want += running
        assert np.max(np.abs(apply_edge_varying(f, X) - want)) < 1e-12

    def test_telescoping_coefficient_chain(self):
        # phi0 = a0 I and phi_k = (a_k / a_{k-1}) S telescope to the
        # plain polynomial filter
        rng = np.random.default_rng(3)
        S = random_graph_shift(rng, 6)
        mask = support_mask(S)
        a = np.array([0.7, -1.3, 0.5, 2.0])
        phis = []
        for k in range(1, 4):
            vals = mask.aligned_values(S.scale(a[k] / a[k - 1]))
            phis.append(mask.matrix(vals))
        f = EdgeVaryingFilter(np.full(6, a[0]), tuple(phis), mask)
        X = rng.normal(size=(6, 2))
        want = apply_polynomial(PolynomialFilter(a), S, X)
        assert np.max(np.abs(apply_edge_varying(f, X) - want)) < 1e-10

    def test_support_violation_at_construction(self):
        g = Graph(4, ((0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)))
        S = build_shift(g, "none")
        mask = support_mask(S)
        offender = SparseMatrix.from_dense(np.ones((4, 4)))
        with pytest.raises(SupportViolation):
            EdgeVaryingFilter(np.ones(4), (offender,), mask)

    def test_support_without_diagonal_rejected(self):
        S = k3_shift()
        with pytest.raises(ValueError, match="full diagonal"):
            EdgeVaryingFilter(np.ones(3), (), S.pattern)


class TestApplyBlockVarying:
    def test_single_block_is_polynomial(self):
        rng = np.random.default_rng(4)
        S = random_graph_shift(rng, 6)
        coeffs = rng.normal(size=(1, 4))
        f = BlockVaryingFilter(np.zeros(6, dtype=int), coeffs)
        X = rng.normal(size=(6, 2))
        want = apply_polynomial(PolynomialFilter(coeffs[0]), S, X)
        assert np.max(np.abs(apply_block_varying(f, S, X) - want)) < 1e-13

    def test_zero_row_blanks_block(self):
        rng = np.random.default_rng(5)
        S = random_graph_shift(rng, 6)
        coeffs = np.vstack([rng.normal(size=3), np.zeros(3)])
        block = np.array([0, 0, 0, 1, 1, 1])
        out = apply_block_varying(BlockVaryingFilter(block, coeffs), S,
                                  rng.normal(size=(6, 2)))
        assert np.array_equal(out[3:], np.zeros((3, 2)))

    def test_matches_dense_expansion(self):
        rng = np.random.default_rng(6)
        S = random_graph_shift(rng, 9)
        block = rng.integers(0, 3, size=9)
        block[:3] = [0, 1, 2]  # every block nonempty
        coeffs = rng.normal(size=(3, 3))
        X = rng.normal(size=(9, 2))
        dense = S.to_dense()
        want = np.zeros_like(X)
        power = np.eye(9)
        for k in range(3):
            want += np.diag(coeffs[block, k]) @ power @ X
            power = dense @ power
        out = apply_block_varying(BlockVaryingFilter(block, coeffs), S, X)
        assert np.max(np.abs(out - want)) < 1e-12


def hybrid_fixture(rng, n, important, order):
    S = random_graph_shift(rng, n)
    rows = S.entry_rows()
    imp = np.asarray(important)
    phis = [SparseMatrix.from_coo(
        n, n, imp, imp, rng.normal(size=len(imp)))]
    off = (rows != S.col_idx) & np.isin(rows, imp)
    for _ in range(order):
        phis.append(SparseMatrix.from_coo(
            n, n, rows[off], S.col_idx[off], rng.normal(size=off.sum())))
    coeffs = rng.normal(size=order + 1)
    return S, HybridFilter(imp, tuple(phis), coeffs)


class TestApplyHybrid:
    def test_empty_set_is_polynomial(self):
        rng = np.random.default_rng(7)
        S = random_graph_shift(rng, 5)
        coeffs = rng.normal(size=3)
        empty = SparseMatrix.from_coo(5, 5, [], [], [])
        f = HybridFilter(np.array([], dtype=int), (empty, empty, empty),
                         coeffs)
        X = rng.normal(size=(5, 2))
        want = apply_polynomial(PolynomialFilter(coeffs), S, X)
        assert np.max(np.abs(apply_hybrid(f, S, X) - want)) < 1e-13

    def test_zero_global_full_masks_match_edge_varying(self):
        rng = np.random.default_rng(8)
        n, order = 5, 2
        S, f = hybrid_fixture(rng, n, np.arange(n), order)
        f = HybridFilter(f.important, f.masked_phis,
                         np.zeros(order + 1))
        mask = support_mask(S)
        phis_ev = tuple(
            mask.matrix(mask.aligned_values(p)) for p in f.masked_phis[1:])
        ev = EdgeVaryingFilter(f.masked_phis[0].diagonal(), phis_ev, mask)
        X = rng.normal(size=(n, 2))
        assert np.max(np.abs(apply_hybrid(f, S, X)
                             - apply_edge_varying(ev, X))) < 1e-12

    def test_matches_dense_two_term_oracle(self):
        rng = np.random.default_rng(9)
        S, f = hybrid_fixture(rng, 7, [2], 2)
        X = rng.normal(size=(7, 2))
        running = f.masked_phis[0].to_dense() @ X
        want = running.copy()
        for phi in f.masked_phis[1:]:
            running = phi.to_dense() @ running
            want += running
        dense = S.to_dense()
        power = np.eye(7)
        for k, a in enumerate(f.global_coeffs):
            want += a * power @ X
            power = dense @ power
        assert np.max(np.abs(apply_hybrid(f, S, X) - want)) < 1e-12

    def test_row_outside_important_rejected(self):
        rng = np.random.default_rng(10)
        S, f = hybrid_fixture(rng, 6, [1, 3], 1)
        bad = list(f.masked_phis)
        bad[1] = SparseMatrix.from_coo(6, 6, [0], [1], [1.0]) \
            if S.to_dense()[0, 1] != 0 else \
            SparseMatrix.from_coo(6, 6, [0], [int(S.col_idx[0])], [1.0])
        with pytest.raises(SupportViolation):
            apply_hybrid(HybridFilter(f.important, tuple(bad),
                                      f.global_coeffs), S,
                         np.zeros((6, 1)))

    @staticmethod
    def _reject(S, f, phis, message):
        with pytest.raises(SupportViolation, match=message):
            apply_hybrid(HybridFilter(f.important, phis, f.global_coeffs),
                         S, np.zeros((6, 1)))

    def test_order_zero_not_diagonal_rejected(self):
        rng = np.random.default_rng(11)
        S, f = hybrid_fixture(rng, 6, [1, 3], 1)
        phi0 = SparseMatrix.from_coo(6, 6, [1, 3], [1, 1], [1.0, 1.0])
        self._reject(S, f, (phi0,) + f.masked_phis[1:],
                     "^order-0 hybrid factor must be diagonal$")

    def test_order_zero_outside_important_rejected(self):
        rng = np.random.default_rng(12)
        S, f = hybrid_fixture(rng, 6, [1, 3], 1)
        phi0 = SparseMatrix.from_coo(6, 6, [1, 2], [1, 2], [1.0, 1.0])
        self._reject(S, f, (phi0,) + f.masked_phis[1:],
                     "^order-0 factor outside the important set$")

    def test_first_entry_off_graph_support_named(self):
        rng = np.random.default_rng(13)
        S, f = hybrid_fixture(rng, 6, [1, 3], 2)
        dense = S.to_dense()
        gap = int(np.flatnonzero(dense[3] == 0)[-1])
        # (1,1) is diagonal, so off the stored off-diagonal pattern; the
        # later (3,gap) and row-5 entries are bad too but come after it
        bad = SparseMatrix.from_coo(6, 6, [1, 3, 5], [1, gap, 0], np.ones(3))
        self._reject(S, f, f.masked_phis[:2] + (bad,),
                     r"^factor 2 entry \(1,1\) off the graph support$")
        bad = SparseMatrix.from_coo(6, 6, [3, 5], [gap, 0], np.ones(2))
        self._reject(S, f, f.masked_phis[:2] + (bad,),
                     rf"^factor 2 entry \(3,{gap}\) off the graph support$")


class TestSplitDiagonal:
    def test_second_call_returns_the_same_objects(self):
        S = diagonal_shift()
        d, S_off = S.split_diagonal()
        again = S.split_diagonal()
        assert again[0] is d and again[1] is S_off

    def test_diagonal_is_read_only(self):
        d = diagonal_shift().split_diagonal()[0]
        with pytest.raises(ValueError):
            d[0] = 0.0

    @pytest.mark.parametrize("make", [
        diagonal_shift, k3_shift,
        lambda: build_shift(Graph(3, ((0, 1), (1, 2))), "none")],
        ids=["diagonal", "k3", "path"])
    def test_shift_context_is_the_select_construction_bitwise(self, make):
        S = make()
        ctx = ShiftContext(S)
        off = S.entry_rows() != S.col_idx
        old = S.pattern.select(off).matrix(S.values[off])
        assert ctx.diag.tobytes() == S.diagonal().tobytes()
        for got, want in ((ctx.S_off.row_ptr, old.row_ptr),
                          (ctx.S_off.col_idx, old.col_idx),
                          (ctx.S_off.values, old.values)):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert ctx.S_off.shape == old.shape


class TestJacobiShift:
    def test_zero_diagonal_halves(self):
        S = k3_shift()
        R = jacobi_shift(S, 2.0)
        assert np.max(np.abs(R.to_dense() - S.to_dense() / 2.0)) < 1e-15

    def test_gamma_on_diagonal_rejected(self):
        dense = np.array([[1.0, 1.0], [1.0, 2.0]])
        with pytest.raises(SingularDiagonal) as err:
            jacobi_shift(SparseMatrix.from_dense(dense), 2.0)
        assert err.value.node == 1

    def test_matches_dense_formula(self):
        dense = np.array([[1.0, 0.5], [0.25, 2.0]])
        S = SparseMatrix.from_dense(dense)
        R = jacobi_shift(S, 0.0)
        D = np.diag(np.diag(dense))
        want = -np.linalg.inv(D) @ (dense - D)
        assert np.max(np.abs(R.to_dense() - want)) < 1e-15


class TestSinglePoleJacobi:
    def test_zeroth_iterate_is_input(self):
        S = k3_shift(0.5)
        x = np.array([1.0, -2.0, 0.5])
        out = apply_single_pole_jacobi(S, 0.7, 3.0, 0, x)
        assert np.array_equal(out, x)

    def test_first_iterate_formula(self):
        # one step of the recursion: beta (D - g I)^{-1} x + R x
        S = k3_shift(0.5)
        x = np.array([1.0, -2.0, 0.5])
        beta, gamma = 0.7, 3.0
        d = S.diagonal()
        R = jacobi_shift(S, gamma).to_dense()
        want = beta * x / (d - gamma) + R @ x
        out = apply_single_pole_jacobi(S, beta, gamma, 1, x)
        assert np.max(np.abs(out - want)) < 1e-15

    def test_converges_to_dense_solve(self):
        # K3 with S = A/2: rho(R(3)) = rho(S/3) < 1
        S = k3_shift(0.5)
        x = np.array([1.0, -2.0, 0.5])
        beta, gamma = 1.0, 3.0
        assert jacobi_spectral_radius(S, gamma) < 1.0
        want = beta * np.linalg.solve(S.to_dense() - gamma * np.eye(3), x)
        out = apply_single_pole_jacobi(S, beta, gamma, 60, x)
        assert np.max(np.abs(out - want)) < 1e-8

    def test_monotone_convergence_tail(self):
        rng = np.random.default_rng(12)
        S = random_graph_shift(rng, 12)
        gamma = 1.0 / 0.8 + 0.05  # rho(S) = 1, so rho(R) < 0.8
        assert jacobi_spectral_radius(S, gamma) <= 0.8
        x = rng.normal(size=12)
        want = np.linalg.solve(S.to_dense() - gamma * np.eye(12), x)
        errs = [np.max(np.abs(apply_single_pole_jacobi(S, 1.0, gamma, k, x)
                              - want)) for k in (10, 40, 80, 200)]
        assert errs[-1] < 1e-8
        assert errs[0] >= errs[1] >= errs[2] >= errs[3]


class TestArmaJacobi:
    @pytest.mark.parametrize("gammas", [[0.5, 2.0, 3.0], [3.0, 1.0],
                                        [2.0 + 1e-10, -1.0], [1.0]])
    def test_multi_pole_singular_diagonal_names_the_reference_node(
            self, gammas):
        # the diagonal is 1, 2, 3, 2: node 1 before node 3 for gamma 2,
        # and the first bad pole decides even when a later one hits an
        # earlier node
        S = diagonal_shift()
        f = ArmaJacobiFilter(np.ones(len(gammas)), gammas, [1.0], 2)
        X = np.ones((4, 2))
        with pytest.raises(SingularDiagonal) as want:
            per_pole_arma_jacobi(f, S, X)
        with pytest.raises(SingularDiagonal) as got:
            apply_arma_jacobi(f, S, X)
        assert got.value.node == want.value.node

    def test_no_poles_is_direct_polynomial(self):
        rng = np.random.default_rng(13)
        S = random_graph_shift(rng, 6)
        alphas = rng.normal(size=3)
        f = ArmaJacobiFilter(np.zeros(0), np.zeros(0), alphas, 4)
        X = rng.normal(size=(6, 2))
        want = apply_polynomial(PolynomialFilter(alphas), S, X)
        assert np.array_equal(apply_arma_jacobi(f, S, X), want)

    def test_zero_direct_term_single_pole(self):
        rng = np.random.default_rng(14)
        S = random_graph_shift(rng, 6)
        f = ArmaJacobiFilter([0.8], [2.5], [0.0], 3)
        X = rng.normal(size=(6, 2))
        want = np.column_stack([
            apply_single_pole_jacobi(S, 0.8, 2.5, 3, X[:, j])
            for j in range(2)])
        assert np.max(np.abs(apply_arma_jacobi(f, S, X) - want)) < 1e-14

    def test_matches_sum_of_dense_branches(self):
        rng = np.random.default_rng(15)
        S = random_graph_shift(rng, 7)
        f = ArmaJacobiFilter([0.5, -0.2], [2.0, -3.0],
                             rng.normal(size=3), 2)
        X = rng.normal(size=(7, 2))
        want = apply_polynomial(PolynomialFilter(f.alphas), S, X)
        for beta, gamma in zip(f.betas, f.gammas):
            want = want + np.column_stack([
                apply_single_pole_jacobi(S, beta, gamma, 2, X[:, j])
                for j in range(2)])
        assert np.max(np.abs(apply_arma_jacobi(f, S, X) - want)) < 1e-12


class TestArmaExact:
    def test_identity_rational(self):
        S = k3_shift(0.5)
        X = np.arange(3.0).reshape(3, 1)
        out = apply_arma_exact(ArmaRational([], [1.0]), S, X)
        assert np.max(np.abs(out - X)) < 1e-14

    def test_pure_moving_average(self):
        rng = np.random.default_rng(16)
        S = random_graph_shift(rng, 5)
        b = rng.normal(size=3)
        X = rng.normal(size=(5, 2))
        want = apply_polynomial(PolynomialFilter(b), S, X)
        out = apply_arma_exact(ArmaRational([], b), S, X)
        assert np.max(np.abs(out - want)) < 1e-13

    def test_residual_self_check(self):
        S = k3_shift(0.5)
        X = np.arange(3.0).reshape(3, 1)
        f = ArmaRational([0.3], [1.0])
        U = apply_arma_exact(f, S, X)
        dense = S.to_dense()
        P = np.eye(3) + 0.3 * dense
        assert np.max(np.abs(P @ U - X)) < 1e-10

    def test_size_cap(self):
        S = SparseMatrix.from_dense(np.eye(501))
        with pytest.raises(TooLarge):
            apply_arma_exact(ArmaRational([], [1.0]), S, np.zeros((501, 1)))


class TestPartialFractions:
    def test_single_real_pole(self):
        alphas, poles, residues = partial_fraction_decompose(
            ArmaRational([1.0], [1.0]))
        assert len(alphas) == 0
        assert np.allclose(poles, [-1.0], atol=1e-10)
        assert np.allclose(residues, [1.0], atol=1e-10)

    def test_no_denominator_passthrough(self):
        b = np.array([2.0, -1.0, 0.5])
        alphas, poles, residues = partial_fraction_decompose(
            ArmaRational([], b))
        assert np.array_equal(alphas, b)
        assert len(poles) == 0 and len(residues) == 0

    def test_conjugate_poles(self):
        alphas, poles, residues = partial_fraction_decompose(
            ArmaRational([0.0, 1.0], [1.0]))
        order = np.argsort(poles.imag)
        assert np.allclose(poles[order], [-1j, 1j], atol=1e-10)
        assert np.allclose(residues[order], [0.5j, -0.5j], atol=1e-10)

    def test_pointwise_agreement_random(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            P = rng.integers(1, 5)
            Q = rng.integers(0, 5)
            a = rng.normal(size=P) * 0.5
            b = rng.normal(size=Q + 1)
            f = ArmaRational(a, b)
            try:
                alphas, poles, residues = partial_fraction_decompose(f)
            except RepeatedPoles:
                continue
            lam = rng.normal(size=20) * 2.0
            lam = lam[np.min(np.abs(lam[:, None] - poles[None, :].real),
                             axis=1) > 1e-2]
            num = sum(bq * lam ** q for q, bq in enumerate(b))
            den = 1.0 + sum(ap * lam ** p for p, ap in enumerate(a, start=1))
            want = num / den
            got = sum(res / (lam - pol) for res, pol
                      in zip(residues, poles))
            got = got + sum(al * lam ** k for k, al in enumerate(alphas))
            rel = np.max(np.abs(got - want) / np.maximum(np.abs(want), 1e-9))
            assert rel < 1e-9

    def test_repeated_poles_rejected(self):
        # (1 + lam)^2 = 1 + 2 lam + lam^2
        with pytest.raises(RepeatedPoles):
            partial_fraction_decompose(ArmaRational([2.0, 1.0], [1.0]))


class TestStrictlyProperRational:
    """deg Q < deg P: partial fractions give no direct term, so alphas is
    empty, and the Jacobi filter is the pole branches alone."""

    @staticmethod
    def _filter(order):
        # (1 + 0.5 l) / (1 - l^2 / 9): poles at +-3, both real
        alphas, poles, residues = partial_fraction_decompose(
            ArmaRational([0.0, -1.0 / 9.0], [1.0, 0.5]))
        assert len(alphas) == 0
        assert np.allclose(np.sort(poles.real), [-3.0, 3.0])
        assert not poles.imag.any() and not residues.imag.any()
        return ArmaJacobiFilter(residues.real, poles.real, alphas, order)

    @pytest.mark.parametrize("signal", [(6,), (6, 2)])
    def test_order_80_jacobi_matches_the_exact_solve(self, signal):
        rng = np.random.default_rng(19)
        S = random_graph_shift(rng, 6)       # rho(R(+-3)) = 1/3
        X = rng.normal(size=signal)
        want = apply_arma_exact(ArmaRational([0.0, -1.0 / 9.0], [1.0, 0.5]),
                                S, X)
        got = apply_arma_jacobi(self._filter(80), S, X)
        assert got.shape == X.shape
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_edge_varying_form_matches_the_jacobi_filter(self):
        rng = np.random.default_rng(20)
        S = random_graph_shift(rng, 6)
        f = self._filter(3)
        X = rng.normal(size=(6, 2))
        terms = arma_to_edge_varying(f, S)
        assert np.max(np.abs(terms.apply(X) - apply_arma_jacobi(f, S, X))) \
            < 1e-12


class TestArmaToEdgeVarying:
    def test_single_pole_order_zero_is_identity(self):
        S = k3_shift(0.5)
        f = ArmaJacobiFilter([0.8], [3.0], [0.0], 0)
        terms = arma_to_edge_varying(f, S)
        order_terms = terms.order_terms()
        assert len(order_terms) == 1
        assert np.max(np.abs(order_terms[0] - np.eye(3))) < 1e-15

    def test_application_matches_arma_jacobi(self):
        rng = np.random.default_rng(18)
        S = random_graph_shift(rng, 6)
        f = ArmaJacobiFilter([0.5, -0.3], [2.2, -2.7],
                             rng.normal(size=4), 3)
        terms = arma_to_edge_varying(f, S)
        x = rng.normal(size=(6, 2))
        want = apply_arma_jacobi(f, S, x)
        assert np.max(np.abs(terms.apply(x) - want)) < 1e-12

    def test_per_pole_pattern_containment(self):
        S = k3_shift(0.5)
        mask = support_mask(S)
        f = ArmaJacobiFilter([0.5, -0.3], [2.0, 4.0], [0.0], 2)
        terms = arma_to_edge_varying(f, S)
        for per_pole in terms.pole_terms:
            for M in per_pole:
                sparse = SparseMatrix.from_dense(
                    np.where(np.abs(M) > 1e-14, M, 0.0))
                assert mask.contains(sparse)


class TestParamCount:
    def test_arma_formula(self):
        assert param_count("arma", P=2, K=3, F_in=4, F_out=4) == 128

    def test_block_formula(self):
        assert param_count("block", B=5, K=2, F_in=2, F_out=2) == 60

    def test_edge_varying_formula(self):
        assert param_count("edge_varying", K=2, M=6, N=3) == 21

    def test_hybrid_formula(self):
        assert param_count("hybrid", I=2, K=3, M_I=7, F_in=2, F_out=3) == \
            (2 + 21 + 4) * 6

    def test_missing_dims_rejected(self):
        with pytest.raises(ValueError):
            param_count("arma", P=2)


def test_import_leaves_numpy_polynomial_unloaded():
    """numpy.polynomial is loaded only by the functions that use it."""
    src = os.path.dirname(os.path.dirname(graphfilt.__file__))
    code = ("import sys, graphfilt, graphfilt.harness; "
            "print('numpy.polynomial' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


def _path3():
    """Shift of the path 0-1-2, whose supp(I+S) lacks (0, 2)."""
    return build_shift(Graph(3, ((0, 1), (1, 2))), "none")


def _swap2():
    return SparseMatrix.from_dense(np.array([[0.0, 1.0], [1.0, 0.0]]))


# the checks no other test reaches: (call, error type, message, or a
# compiled pattern where the message carries a measured number)
RAISE_SITES = {
    "polynomial_no_coefficient": (
        lambda: PolynomialFilter(np.zeros(0)), ValueError,
        "need at least the order-0 coefficient"),
    "polynomial_coefficient_matrix": (
        lambda: PolynomialFilter(np.ones((2, 2))), ValueError,
        "need at least the order-0 coefficient"),
    "edge_varying_support_without_diagonal": (
        lambda: EdgeVaryingFilter(np.ones(3), (), k3_shift().pattern),
        ValueError, "support mask must contain the full diagonal"),
    "edge_varying_phi0_length": (
        lambda: EdgeVaryingFilter(np.ones(2), (), support_mask(_path3())),
        DimensionMismatch, "phi0 must have one entry per node"),
    "edge_varying_factor_off_support": (
        lambda: EdgeVaryingFilter(np.ones(3), (k3_shift(),),
                                  support_mask(_path3())),
        SupportViolation, "factor 1 leaves the support of I+S"),
    "block_varying_coeffs_not_2d": (
        lambda: BlockVaryingFilter([0, 1], np.ones(3)), DimensionMismatch,
        "coeffs must be B x (K+1)"),
    "block_varying_block_id_too_large": (
        lambda: BlockVaryingFilter([0, 2], np.ones((2, 2))), ValueError,
        "block id out of range"),
    "block_varying_negative_block_id": (
        lambda: BlockVaryingFilter([-1, 0], np.ones((2, 2))), ValueError,
        "block id out of range"),
    "block_varying_empty_block": (
        lambda: BlockVaryingFilter([0, 0], np.ones((2, 2))), ValueError,
        "every block must contain a node"),
    "hybrid_factor_count": (
        lambda: HybridFilter([0], (SparseMatrix.from_dense(np.eye(3)),),
                             [1.0, 0.5]),
        DimensionMismatch,
        "need K+1 masked factors to match the K+1 global coefficients"),
    "arma_jacobi_unpaired_poles": (
        lambda: ArmaJacobiFilter([1.0, 2.0], [0.5], [1.0], 1),
        DimensionMismatch, "betas and gammas must pair up"),
    "arma_jacobi_negative_order": (
        lambda: ArmaJacobiFilter([1.0], [0.5], [1.0], -1), ValueError,
        "jacobi_order must be non-negative"),
    "arma_jacobi_fractional_order": (
        lambda: ArmaJacobiFilter([1.0], [0.5], [1.0], 2.7), ValueError,
        "jacobi_order must be an integer"),
    "arma_jacobi_nan_beta": (
        lambda: ArmaJacobiFilter([1.0, np.nan], [0.5, 2.0], [1.0], 1),
        NonFiniteValue, "betas must be finite"),
    "arma_jacobi_nan_gamma": (
        lambda: ArmaJacobiFilter([1.0], [np.nan], [1.0], 1),
        NonFiniteValue, "gammas must be finite"),
    "arma_jacobi_infinite_alpha": (
        lambda: ArmaJacobiFilter([1.0], [0.5], [1.0, -np.inf], 1),
        NonFiniteValue, "alphas must be finite"),
    "arma_jacobi_complex_betas": (
        lambda: ArmaJacobiFilter(np.array([1 + 2j, 1 - 2j]),
                                 np.array([3 + 1j, 3 - 1j]), [0.5], 2),
        NonRealValue, "betas must be real"),
    "arma_jacobi_complex_gamma_list": (
        lambda: ArmaJacobiFilter([1.0, 1.0], [3 + 1j, 3 - 1j], [0.5], 2),
        NonRealValue, "gammas must be real"),
    "arma_jacobi_complex_alphas": (
        lambda: ArmaJacobiFilter([1.0], [3.0], np.array([0.5 + 0j]), 2),
        NonRealValue, "alphas must be real"),
    "apply_arma_jacobi_not_square": (
        lambda: apply_arma_jacobi(ArmaJacobiFilter([1.0], [0.5], [1.0], 1),
                                  SparseMatrix.from_dense(np.ones((2, 3))),
                                  np.ones((3, 2))),
        DimensionMismatch, "the Jacobi recursion needs a square shift"),
    "arma_rational_empty_numerator": (
        lambda: ArmaRational([0.5], []), ValueError,
        "numerator needs at least one coefficient"),
    "apply_edge_varying_signal_length": (
        lambda: apply_edge_varying(
            EdgeVaryingFilter(np.ones(3), (), support_mask(_path3())),
            np.ones(2)),
        DimensionMismatch, "signal length does not match the filter"),
    "apply_block_varying_signal_length": (
        lambda: apply_block_varying(
            BlockVaryingFilter([0, 1, 0], np.ones((2, 2))), _path3(),
            np.ones((4, 2))),
        DimensionMismatch, "signal length does not match the filter"),
    "jacobi_shift_not_square": (
        lambda: jacobi_shift(SparseMatrix.from_dense(np.ones((2, 3))), 0.5),
        DimensionMismatch, "the Jacobi recursion needs a square shift"),
    # P(S) = I - S is exactly singular: the LU solve fails
    "arma_exact_singular_solve": (
        lambda: apply_arma_exact(ArmaRational([-1.0], [1.0]), _swap2(),
                                 np.ones(2)),
        SingularSystem, "Singular matrix"),
    # P(S) = I - (1 - 2^-44) S solves, but with a residual far past 1e-8
    "arma_exact_near_singular_residual": (
        lambda: apply_arma_exact(ArmaRational([-(1.0 - 2.0**-44)], [1.0]),
                                 _swap2(), np.array([1.0, 0.3])),
        SingularSystem, re.compile(
            r"solve residual \S+ indicates a near-singular P\(S\)")),
}


@pytest.mark.parametrize("site", sorted(RAISE_SITES))
def test_input_check_raises_its_type_and_message(site):
    call, error, message = RAISE_SITES[site]
    with pytest.raises(error) as err:
        call()
    assert type(err.value) is error
    if isinstance(message, str):
        assert str(err.value) == message
    else:
        assert message.fullmatch(str(err.value)), str(err.value)
