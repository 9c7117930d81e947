"""Dense eigensolver, null spaces, root finding."""
import numpy as np
import pytest

from graphfilt.errors import (DegreeZero, DimensionMismatch,
                              NoConvergence, NotSymmetric)
from graphfilt.linalg import (EigenDecomposition, null_space_basis,
                              poly_roots, sym_eig)


def random_symmetric(rng, n):
    A = rng.normal(size=(n, n))
    return (A + A.T) / 2


class TestSymEig:
    def test_diagonal_matrix(self):
        eig = sym_eig(np.diag([3.0, 1.0, 2.0]))
        assert np.allclose(eig.eigenvalues, [1.0, 2.0, 3.0])
        # eigenvectors are signed unit vectors hitting the right slots
        V = np.abs(eig.eigenvectors)
        assert np.allclose(V[:, 0], [0, 1, 0], atol=1e-12)
        assert np.allclose(V[:, 2], [1, 0, 0], atol=1e-12)

    def test_k3_spectrum(self):
        # characteristic polynomial oracle: (lam - 2)(lam + 1)^2
        A = np.ones((3, 3)) - np.eye(3)
        eig = sym_eig(A)
        assert np.allclose(eig.eigenvalues, [-1.0, -1.0, 2.0], atol=1e-10)

    def test_reconstruction_random(self):
        rng = np.random.default_rng(17)
        S = random_symmetric(rng, 8)
        eig = sym_eig(S)
        V, lam = eig.eigenvectors, eig.eigenvalues
        assert np.max(np.abs(V @ np.diag(lam) @ V.T - S)) < 1e-10
        assert np.max(np.abs(V.T @ V - np.eye(8))) < 1e-10

    def test_matches_numpy_oracle(self):
        rng = np.random.default_rng(18)
        for n in (2, 5, 11):
            S = random_symmetric(rng, n)
            mine = sym_eig(S).eigenvalues
            ref = np.linalg.eigvalsh(S)
            assert np.max(np.abs(mine - ref)) < 1e-9

    def test_rejects_asymmetric(self):
        with pytest.raises(NotSymmetric):
            sym_eig(np.array([[0.0, 1.0], [0.5, 0.0]]))

    def test_zero_matrix(self):
        eig = sym_eig(np.zeros((3, 3)))
        assert np.array_equal(eig.eigenvalues, np.zeros(3))

    def test_symmetry_tolerance_is_1e_12(self):
        S = random_symmetric(np.random.default_rng(19), 5)
        S[0, 1] += 1e-13
        sym_eig(S)
        S[0, 1] += 1e-11
        with pytest.raises(NotSymmetric):
            sym_eig(S)

    def test_nonfinite_input_rejected(self):
        with pytest.raises(NoConvergence):
            sym_eig(np.array([[np.nan, 1.0], [1.0, 0.0]]))


class TestNullSpace:
    def test_zero_matrix_full_nullity(self):
        N = null_space_basis(np.zeros((2, 3)))
        assert N.shape == (3, 3)
        assert np.allclose(N.T @ N, np.eye(3), atol=1e-12)

    def test_identity_trivial_null_space(self):
        N = null_space_basis(np.eye(3))
        assert N.shape == (3, 0)

    def test_hand_row_reduction_case(self):
        A = np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        N = null_space_basis(A)
        assert N.shape == (3, 1)
        want = np.array([1.0, -1.0, 0.0]) / np.sqrt(2)
        assert np.allclose(np.abs(N[:, 0]), np.abs(want), atol=1e-12)

    def test_invariants_on_random_rank_deficient(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            m, n, r = 6, 8, 4
            A = rng.normal(size=(m, r)) @ rng.normal(size=(r, n))
            N = null_space_basis(A, tol=1e-10)
            assert N.shape[1] == n - r
            scale = np.max(np.abs(A))
            assert np.max(np.abs(A @ N)) <= 10 * 1e-10 * scale
            assert np.max(np.abs(N.T @ N - np.eye(N.shape[1]))) < 1e-10


class TestNullSpaceMemory:
    def test_tall_matrix_skips_the_full_left_factor(self, monkeypatch):
        seen = []
        svd = np.linalg.svd

        def spy(A, full_matrices=True, **kw):
            seen.append(full_matrices)
            return svd(A, full_matrices=full_matrices, **kw)

        monkeypatch.setattr(np.linalg, "svd", spy)
        rng = np.random.default_rng(29)
        assert null_space_basis(rng.normal(size=(40, 5))).shape == (5, 0)
        assert null_space_basis(rng.normal(size=(5, 40))).shape == (40, 35)
        assert seen == [False, True]

    def test_tall_matrix_svd_sees_only_the_square_factor(self, monkeypatch):
        shapes = []
        svd = np.linalg.svd

        def spy(A, *args, **kw):
            shapes.append(A.shape)
            return svd(A, *args, **kw)

        monkeypatch.setattr(np.linalg, "svd", spy)
        rng = np.random.default_rng(31)
        A = rng.normal(size=(200, 3)) @ rng.normal(size=(3, 7))
        N = null_space_basis(A)
        assert shapes == [(7, 7)]
        assert N.shape == (7, 4)
        assert np.max(np.abs(A @ N)) <= 1e-9 * np.max(np.abs(A))


class TestScipyOracle:
    """scipy.linalg as an independent oracle for the LAPACK wrappers."""

    def test_eigenvalues_match_scipy_eigh(self):
        sla = pytest.importorskip("scipy.linalg")
        rng = np.random.default_rng(37)
        for n in (2, 5, 11, 40):
            S = random_symmetric(rng, n)
            ref = sla.eigh(S, eigvals_only=True)
            assert np.max(np.abs(sym_eig(S).eigenvalues - ref)) < 1e-12

    def test_repeated_eigenvalue_vectors_orthonormal(self):
        sla = pytest.importorskip("scipy.linalg")
        A = np.ones((3, 3)) - np.eye(3)
        eig = sym_eig(A)
        V = eig.eigenvectors
        assert np.max(np.abs(V.T @ V - np.eye(3))) < 1e-12
        assert np.max(np.abs(A @ V - V * eig.eigenvalues)) < 1e-12
        # the -1 eigenspace has the same projector as scipy's
        W = sla.eigh(A)[1][:, :2]
        assert np.max(np.abs(V[:, :2] @ V[:, :2].T - W @ W.T)) < 1e-12

    @pytest.mark.parametrize("m,n,rank,scale", [
        (6, 8, 4, 1.0), (12, 5, 3, 1.0), (6, 8, 4, 1e6), (12, 5, 3, 1e6)])
    def test_null_space_matches_scipy(self, m, n, rank, scale):
        sla = pytest.importorskip("scipy.linalg")
        rng = np.random.default_rng(43)
        A = scale * rng.normal(size=(m, rank)) @ rng.normal(size=(rank, n))
        N = null_space_basis(A)
        ref = sla.null_space(A)
        assert N.shape == ref.shape == (n, n - rank)
        assert np.max(np.abs(N @ N.T - ref @ ref.T)) < 1e-10


class TestPolyRoots:
    def test_linear(self):
        roots = poly_roots([1.0, 1.0])
        assert np.allclose(roots, [-1.0], atol=1e-12)

    def test_quadratic_real(self):
        roots = np.sort_complex(poly_roots([-1.0, 0.0, 1.0]))
        assert np.allclose(roots, [-1.0, 1.0], atol=1e-10)

    def test_quadratic_imaginary(self):
        roots = poly_roots([1.0, 0.0, 1.0])
        # evaluation oracle: residual at returned roots below 1e-10
        vals = roots ** 2 + 1.0
        assert np.max(np.abs(vals)) < 1e-10
        assert np.allclose(np.sort(roots.imag), [-1.0, 1.0], atol=1e-10)

    def test_rebuild_from_roots(self):
        rng = np.random.default_rng(41)
        for deg in range(1, 9):
            coeffs = rng.normal(size=deg + 1)
            coeffs[-1] = coeffs[-1] if abs(coeffs[-1]) > 0.3 else 1.0
            roots = poly_roots(coeffs)
            rebuilt = np.poly(roots) * coeffs[-1]  # descending coefficients
            want = coeffs[::-1]
            scale = np.max(np.abs(want))
            assert np.max(np.abs(rebuilt.real - want)) / scale < 1e-8

    def test_degree_zero_rejected(self):
        with pytest.raises(DegreeZero):
            poly_roots([2.0])

    def test_real_roots_come_back_complex(self):
        roots = poly_roots([-1.0, 0.0, 1.0])
        assert roots.dtype == np.complex128
        assert np.array_equal(roots.imag, np.zeros(2))

    def test_zero_leading_coefficient_rejected(self):
        with pytest.raises(ValueError):
            poly_roots([1.0, 2.0, 0.0])

    def test_nonfinite_coefficients_rejected(self):
        with pytest.raises(NoConvergence):
            poly_roots([np.nan, 1.0])


def test_eigendecomposition_is_frozen():
    eig = sym_eig(np.eye(2))
    assert isinstance(eig, EigenDecomposition)
    with pytest.raises(AttributeError):
        eig.eigenvalues = None


# the input checks no other test reaches: (call, error type, message)
RAISE_SITES = {
    "sym_eig_not_square": (
        lambda: sym_eig(np.ones((2, 3))), DimensionMismatch,
        "sym_eig needs a square matrix"),
    "null_space_of_a_vector": (
        lambda: null_space_basis(np.ones(3)), DimensionMismatch,
        "null_space_basis needs a matrix"),
    "null_space_zero_tol": (
        lambda: null_space_basis(np.ones((2, 2)), tol=0.0), ValueError,
        "tol must be positive"),
    "null_space_negative_tol": (
        lambda: null_space_basis(np.ones((2, 2)), tol=-1e-9), ValueError,
        "tol must be positive"),
}


@pytest.mark.parametrize("site", sorted(RAISE_SITES))
def test_input_check_raises_its_type_and_message(site):
    call, error, message = RAISE_SITES[site]
    with pytest.raises(error) as err:
        call()
    assert type(err.value) is error and str(err.value) == message
