"""Dense linear algebra for the analysis paths: numpy/LAPACK wrappers that
keep the library's typed errors, ascending eigenvalues, a null-space
tolerance relative to max|A|, and complex roots."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegreeZero, DimensionMismatch, NoConvergence, NotSymmetric

SYMMETRY_TOL = 1e-12
NULLSPACE_TOL = 1e-10


@dataclass(frozen=True)
class EigenDecomposition:
    """Ascending eigenvalues with orthonormal eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def _require_finite(A, what):
    if not np.all(np.isfinite(A)):
        raise NoConvergence(f"{what} got a non-finite entry")


def sym_eig(S):
    """Eigendecomposition of a symmetric matrix (LAPACK ``eigh``).

    Raises NotSymmetric when S differs from its transpose by more than
    1e-12 anywhere.
    """
    S = np.asarray(S, dtype=np.float64)
    if S.ndim != 2 or S.shape[0] != S.shape[1]:
        raise DimensionMismatch("sym_eig needs a square matrix")
    _require_finite(S, "sym_eig")
    if S.size and float(np.max(np.abs(S - S.T))) > SYMMETRY_TOL:
        raise NotSymmetric("matrix is not symmetric within 1e-12")
    lam, V = np.linalg.eigh(S)
    return EigenDecomposition(lam, V)


def null_space_basis(A, tol=NULLSPACE_TOL):
    """Orthonormal basis of the numerical null space of A.

    The basis is the right singular vectors past the numerical rank, which
    counts the singular values above tol * max|A|.
    """
    A = np.asarray(A, dtype=np.float64)
    if A.ndim != 2:
        raise DimensionMismatch("null_space_basis needs a matrix")
    m, n = A.shape
    if tol <= 0:
        raise ValueError("tol must be positive")
    _require_finite(A, "null_space_basis")
    scale = float(np.max(np.abs(A), initial=0.0))
    if scale == 0.0:
        return np.eye(n)
    # a tall A = QR has the singular values and right vectors of its n x n R
    R = np.linalg.qr(A, mode="r") if m > n else A
    _, sigma, Vt = np.linalg.svd(R, full_matrices=m < n)
    rank = int(np.count_nonzero(sigma > tol * scale))
    return Vt[rank:].T


def poly_roots(coeffs):
    """All complex roots of sum_k coeffs[k] * x^k (companion-matrix
    eigenvalues), as complex128 even when every root is real."""
    coeffs = np.asarray(coeffs, dtype=np.float64)
    if coeffs.ndim != 1 or len(coeffs) < 2:
        raise DegreeZero("polynomial degree must be at least 1")
    if coeffs[-1] == 0.0:
        raise ValueError("leading coefficient must be nonzero")
    _require_finite(coeffs, "poly_roots")
    return np.roots(coeffs[::-1]).astype(np.complex128)
