"""Frequency-domain machinery: transforms, responses, basis kernels."""
import numpy as np
import pytest

from graphfilt.errors import (DimensionMismatch, NotSymmetric,
                              PoleAtEigenvalue, SupportLeak)
from graphfilt.filters import (ArmaRational, PolynomialFilter,
                               apply_arma_exact, apply_polynomial)
from graphfilt.graphs import Graph, build_shift, sbm_generate
from graphfilt.linalg import NULLSPACE_TOL, null_space_basis, sym_eig
from graphfilt.spectral import (SpectralBasisKernel,
                                SpectralEdgeVaryingFilter, arma_response,
                                build_basis_kernel, gft, igft, poly_response,
                                reconstruct_phi, spectral_ev_response,
                                support_constraint_matrix)
from graphfilt.sparse import SparseMatrix, support_mask


def k3_shift():
    return SparseMatrix.from_dense(np.ones((3, 3)) - np.eye(3))


def p3_shift():
    dense = np.zeros((3, 3))
    dense[0, 1] = dense[1, 0] = dense[1, 2] = dense[2, 1] = 1.0
    return SparseMatrix.from_dense(dense)


def complete_shift(n):
    return SparseMatrix.from_dense(np.ones((n, n)) - np.eye(n))


def random_symmetric_shift(rng, n, p=0.6):
    while True:
        edges = [(i, j, 1.0) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < p]
        if edges:
            return build_shift(Graph(n, tuple(edges)), "max_eigenvalue")


class TestGft:
    def test_eigenvector_maps_to_basis_vector(self):
        eig = sym_eig(k3_shift().to_dense())
        for j in range(3):
            xt = gft(eig.eigenvectors, eig.eigenvectors[:, j])
            want = np.zeros(3)
            want[j] = 1.0
            assert np.max(np.abs(np.abs(xt) - want)) < 1e-12

    def test_round_trip(self):
        rng = np.random.default_rng(0)
        eig = sym_eig(random_symmetric_shift(rng, 7).to_dense())
        x = rng.normal(size=7)
        assert np.max(np.abs(igft(eig.eigenvectors,
                                  gft(eig.eigenvectors, x)) - x)) < 1e-11

    def test_constant_on_k3_concentrates_on_top(self):
        eig = sym_eig(k3_shift().to_dense())
        xt = gft(eig.eigenvectors, np.ones(3))
        # ascending order puts lambda = 2 last
        assert abs(xt[-1]) > 1.7
        assert np.max(np.abs(xt[:-1])) < 1e-10

    def test_dimension_mismatch(self):
        eig = sym_eig(k3_shift().to_dense())
        with pytest.raises(DimensionMismatch):
            gft(eig.eigenvectors, np.ones(4))


class TestPolyResponse:
    def test_constant(self):
        assert np.array_equal(poly_response([1.0], np.array([0.0, 2.0])),
                              [1.0, 1.0])

    def test_linear(self):
        lam = np.array([-1.0, 0.5, 2.0])
        assert np.array_equal(poly_response([0.0, 1.0], lam), lam)

    def test_vertex_spectral_agreement(self):
        rng = np.random.default_rng(1)
        S = random_symmetric_shift(rng, 8)
        eig = sym_eig(S.to_dense())
        coeffs = rng.normal(size=4)
        x = rng.normal(size=(8, 1))
        resp = poly_response(coeffs, eig.eigenvalues)
        V = eig.eigenvectors
        want = V @ (resp[:, None] * (V.T @ x))
        got = apply_polynomial(PolynomialFilter(coeffs), S, x)
        assert np.max(np.abs(got - want)) < 1e-10


class TestArmaResponse:
    def test_empty_denominator(self):
        lam = np.linspace(-1, 1, 5)
        f = ArmaRational([], [1.0, 0.5])
        assert np.allclose(arma_response(f, lam),
                           poly_response([1.0, 0.5], lam))

    def test_at_origin(self):
        f = ArmaRational([1.0], [1.0])
        assert arma_response(f, np.array([0.0]))[0] == pytest.approx(1.0)

    def test_vertex_spectral_agreement(self):
        rng = np.random.default_rng(2)
        S = random_symmetric_shift(rng, 6)
        eig = sym_eig(S.to_dense())
        f = ArmaRational([0.4, 0.1], [1.0, -0.3])
        x = rng.normal(size=(6, 1))
        resp = arma_response(f, eig.eigenvalues)
        V = eig.eigenvectors
        want = V @ (resp[:, None] * (V.T @ x))
        got = apply_arma_exact(f, S, x)
        assert np.max(np.abs(got - want)) < 1e-9

    def test_pole_at_eigenvalue(self):
        f = ArmaRational([-1.0], [1.0])  # pole at lambda = 1
        with pytest.raises(PoleAtEigenvalue):
            arma_response(f, np.array([1.0]))


def full_constraint_matrix(eig, support):
    """Reference constraint: one row per ordered zero position (i, j) of
    the support, so a symmetric support stores every row twice."""
    V = eig.eigenvectors
    zero = np.ones((V.shape[0], V.shape[0]), dtype=bool)
    zero[support.entry_rows(), support.col_idx] = False
    rows_i, cols_j = np.nonzero(zero)
    return V[rows_i, :] * V[cols_j, :]


def reference_basis(S, tol=NULLSPACE_TOL):
    """Null-space basis of the full constraint at the unadjusted tol."""
    A = full_constraint_matrix(sym_eig(S.to_dense()), support_mask(S))
    return null_space_basis(A, tol=tol) if A.shape[0] else np.eye(S.n_rows)


def assert_kernel_matches_reference(S):
    kern = build_basis_kernel(S)
    B = reference_basis(S)
    assert kern.nullity == B.shape[1]
    assert np.max(np.abs(kern.basis @ kern.basis.T - B @ B.T)) <= 1e-12


def filter_analysis_shift(seed):
    """The graph of the filter_analysis benchmark workload (SBM 5x10)."""
    g = sbm_generate([10] * 5, 0.3, 0.02, np.random.default_rng(seed))
    return build_shift(g, "max_eigenvalue")


class TestBasisKernelAgainstFullConstraint:
    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_filter_analysis_graphs(self, seed):
        assert_kernel_matches_reference(filter_analysis_shift(seed))

    @pytest.mark.parametrize("seed", range(16))
    def test_random_sbms(self, seed):
        rng = np.random.default_rng(1000 + seed)
        n = int(rng.integers(4, 61))
        cuts = np.sort(rng.choice(np.arange(1, n), size=min(n - 1, 3),
                                  replace=False))
        blocks = np.diff(np.concatenate([[0], cuts, [n]])).tolist()
        g = sbm_generate(blocks, rng.uniform(0.3, 0.9),
                         rng.uniform(0.02, 0.3), rng)
        assert_kernel_matches_reference(build_shift(g, "max_eigenvalue"))

    def test_structurally_asymmetric_support(self):
        # one stored 1e-13 entry at (i, j) with (j, i) unstored: S stays
        # symmetric within 1e-12, but only the pair's (j, i) position is
        # a zero, and the reference stores that row once
        S = filter_analysis_shift(1)
        dense = S.to_dense()
        i, j = map(int, np.argwhere(np.triu(dense == 0.0, k=1))[0])
        rows = np.append(S.entry_rows(), i)
        cols = np.append(S.col_idx, j)
        vals = np.append(S.values, 1e-13)
        T = SparseMatrix.from_coo(S.n_rows, S.n_cols, rows, cols, vals)
        mask = support_mask(T)
        keep = np.zeros((T.n_rows, T.n_rows), dtype=bool)
        keep[mask.entry_rows(), mask.col_idx] = True
        assert keep[i, j] and not keep[j, i]
        assert_kernel_matches_reference(T)

    def test_one_row_per_unordered_zero_pair(self):
        eig = sym_eig(p3_shift().to_dense())
        A = support_constraint_matrix(eig, support_mask(p3_shift()))
        V = eig.eigenvectors
        assert A.shape == (1, 3)
        assert np.array_equal(A[0], V[0] * V[2])

    def test_halves_the_full_constraint(self):
        S = filter_analysis_shift(1)
        eig, mask = sym_eig(S.to_dense()), support_mask(S)
        full = full_constraint_matrix(eig, mask)
        pairs = support_constraint_matrix(eig, mask)
        assert 2 * pairs.shape[0] == full.shape[0] == 2274
        assert np.array_equal(np.unique(pairs, axis=0),
                              np.unique(full, axis=0))


class TestBasisKernel:
    def test_complete_graph_full_freedom(self):
        kern = build_basis_kernel(complete_shift(4))
        assert kern.nullity == 4
        assert np.max(np.abs(kern.basis.T @ kern.basis - np.eye(4))) < 1e-10

    def test_constant_response_always_admissible(self):
        rng = np.random.default_rng(3)
        for n in (4, 6, 8):
            S = random_symmetric_shift(rng, n)
            kern = build_basis_kernel(S)
            ones = np.ones(n)
            proj = kern.basis @ (kern.basis.T @ ones)
            assert np.max(np.abs(proj - ones)) < 1e-8

    def test_rejects_directed_shift(self):
        dense = np.zeros((3, 3))
        dense[0, 1] = 1.0
        with pytest.raises(NotSymmetric):
            build_basis_kernel(SparseMatrix.from_dense(dense))

    def test_p3_reconstructions_respect_support(self):
        rng = np.random.default_rng(4)
        kern = build_basis_kernel(p3_shift())
        mask = support_mask(p3_shift())
        keep = np.zeros((3, 3), dtype=bool)
        keep[mask.entry_rows(), mask.col_idx] = True
        V = kern.eig.eigenvectors
        for _ in range(10):
            mu = rng.normal(size=kern.nullity)
            lam = kern.basis @ mu
            phi = (V * lam[None, :]) @ V.T
            assert np.max(np.abs(phi[~keep]), initial=0.0) < 1e-8


class TestReconstructPhi:
    def test_constant_gives_identity(self):
        kern = build_basis_kernel(p3_shift())
        # coefficients reproducing lambda = 1 exactly
        mu = kern.basis.T @ np.ones(3)
        phi, residual = reconstruct_phi(kern, mu)
        assert residual < 1e-10
        assert np.max(np.abs(phi.to_dense() - np.eye(3))) < 1e-8

    def test_complete_graph_never_leaks(self):
        rng = np.random.default_rng(5)
        kern = build_basis_kernel(complete_shift(4))
        for _ in range(5):
            phi, residual = reconstruct_phi(kern, rng.normal(size=4))
            assert residual == 0.0

    def test_response_off_the_kernel_raises_support_leak(self):
        kern = build_basis_kernel(p3_shift())
        # the identity basis admits every response; lambda = e_0 gives
        # v_0 v_0^T, whose (0, 2) entry lies off supp(I+S) of the path
        free = SpectralBasisKernel(np.eye(3), kern.eig, kern.support)
        V = kern.eig.eigenvectors
        leak = abs(V[0, 0] * V[2, 0])
        assert leak > 0.1
        with pytest.raises(SupportLeak, match=f"^off-support magnitude "
                           f"{leak:.3e} exceeds 1e-06"):
            reconstruct_phi(free, np.eye(3)[0])

    def test_in_basis_mu_never_leaks(self):
        rng = np.random.default_rng(6)
        S = random_symmetric_shift(rng, 6)
        kern = build_basis_kernel(S)
        for _ in range(10):
            _, residual = reconstruct_phi(kern, rng.normal(size=kern.nullity))
            assert residual < 1e-8


class TestSpectralEdgeVarying:
    def test_single_term(self):
        kern = build_basis_kernel(p3_shift())
        mu = np.zeros(kern.nullity)
        mu[0] = 2.0
        f = SpectralEdgeVaryingFilter(kern, (mu,))
        assert np.allclose(spectral_ev_response(f), 2.0 * kern.basis[:, 0])

    def test_zero_first_term_annihilates(self):
        kern = build_basis_kernel(p3_shift())
        zero = np.zeros(kern.nullity)
        f = SpectralEdgeVaryingFilter(kern, (zero, np.ones(kern.nullity)))
        assert np.array_equal(spectral_ev_response(f),
                              np.zeros(3))

    def test_vertex_domain_cross_check(self):
        # response read through the transform of the reconstructed factors
        rng = np.random.default_rng(7)
        S = p3_shift()
        kern = build_basis_kernel(S)
        mask = support_mask(S)
        mus = tuple(rng.normal(size=kern.nullity) for _ in range(2))
        f = SpectralEdgeVaryingFilter(kern, mus)
        want = spectral_ev_response(f)
        phis = [reconstruct_phi(kern, mu)[0] for mu in mus]
        for phi in phis:
            assert mask.contains(phi)
        V = kern.eig.eigenvectors
        # chain the factors exactly as the edge-varying recursion does,
        # starting the sum at the first factor
        total = np.zeros((3, 3))
        running = np.eye(3)
        for phi in phis:
            running = phi.to_dense() @ running
            total += running
        got = np.diag(V.T @ total @ V)
        assert np.max(np.abs(got - want)) < 1e-8
