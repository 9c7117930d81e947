"""Frequency-domain views of graph filters.

Restricted to symmetric shift operators, where the eigenvector basis is
orthonormal and every spectral statement below is numerically testable.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, PoleAtEigenvalue, SupportLeak
from .linalg import NULLSPACE_TOL, null_space_basis, poly_roots, sym_eig
from .sparse import support_mask

OFF_SUPPORT_LEAK = 1e-6


def gft(V, x):
    """Graph Fourier transform V^T x (V orthonormal eigenvectors)."""
    V = np.asarray(V, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    if x.shape[0] != V.shape[0]:
        raise DimensionMismatch("gft: signal does not match the basis")
    return V.T @ x


def igft(V, xt):
    """Inverse transform V x~."""
    V = np.asarray(V, dtype=np.float64)
    xt = np.asarray(xt, dtype=np.float64)
    if xt.shape[0] != V.shape[1]:
        raise DimensionMismatch("igft: coefficients do not match the basis")
    return V @ xt


def poly_response(coeffs, lambdas):
    """Pointwise polynomial gain sum_k coeffs[k] lambda^k."""
    lambdas = np.asarray(lambdas, dtype=np.float64)
    coeffs = np.atleast_1d(coeffs)
    if len(coeffs) == 0:
        return np.zeros_like(lambdas)
    # imported here: loading numpy.polynomial costs every process ~0.8 MB
    from numpy.polynomial.polynomial import polyval
    return polyval(lambdas, coeffs)


def arma_response(f, lambdas):
    """Rational gain (sum_q b_q l^q) / (1 + sum_p a_p l^p).

    Refuses evaluation when any lambda sits within 1e-10 of a denominator
    root.
    """
    lambdas = np.asarray(lambdas, dtype=np.float64)
    num = poly_response(f.b, lambdas)
    if len(f.a) == 0:
        return num
    roots = poly_roots(np.concatenate([[1.0], f.a]))
    gap = np.min(np.abs(lambdas[:, None] - roots[None, :]), axis=1)
    if np.any(gap < 1e-10):
        idx = int(np.argmin(gap))
        raise PoleAtEigenvalue(
            f"lambda={lambdas[idx]:.6g} within 1e-10 of a denominator root")
    den = 1.0 + poly_response(np.concatenate([[0.0], f.a]), lambdas)
    return num / den


@dataclass(frozen=True)
class SpectralBasisKernel:
    """Orthonormal basis of spectral responses whose vertex-domain filters
    respect supp(I+S)."""

    basis: np.ndarray
    eig: object
    support: object

    @property
    def nullity(self):
        return self.basis.shape[1]


@dataclass(frozen=True)
class SpectralEdgeVaryingFilter:
    """Per-order expansion coefficients in a basis kernel."""

    kernel: SpectralBasisKernel
    mus: tuple

    def __post_init__(self):
        mus = tuple(np.asarray(m, dtype=np.float64) for m in self.mus)
        for m in mus:
            if m.shape != (self.kernel.nullity,):
                raise DimensionMismatch(
                    "every coefficient vector must have length b")
        object.__setattr__(self, "mus", mus)


def support_constraint_matrix(eig, support):
    """Rows of the vectorized eigen-outer-product matrix, one for each
    unordered pair {i, j}, i <= j, with (i, j) or (j, i) off supp(I+S).

    Convention: the row for pair (i, j) is the elementwise product
    V[i, :] * V[j, :], which makes
    ``row @ lambda == (V diag(lambda) V^T)[i, j]`` hold identically. That
    row is also the one for (j, i), so the ordered zero positions of a
    symmetric support would store each row twice.
    """
    V = eig.eigenvectors
    zero = np.ones((V.shape[0], V.shape[0]), dtype=bool)
    zero[support.entry_rows(), support.col_idx] = False
    rows_i, cols_j = np.nonzero(np.triu(zero | zero.T))
    return V[rows_i, :] * V[cols_j, :]


def build_basis_kernel(S):
    """Basis kernel of admissible spectral responses for supp(I+S).

    The rank rule runs at NULLSPACE_TOL / sqrt(2): the matrix of all
    ordered zero positions repeats every off-diagonal row, which scales
    each singular value by sqrt(2) and leaves max|A| alone, so on a
    symmetric support this counts the singular values that NULLSPACE_TOL
    counts on that matrix. A shift that is not symmetric within 1e-12
    raises NotSymmetric.
    """
    eig = sym_eig(S.to_dense())
    mask = support_mask(S)
    constraint = support_constraint_matrix(eig, mask)
    if constraint.shape[0] == 0:
        basis = np.eye(S.n_rows)
    else:
        basis = null_space_basis(constraint,
                                 tol=NULLSPACE_TOL / np.sqrt(2.0))
    return SpectralBasisKernel(basis, eig, mask)


def spectral_ev_response(f):
    """sum_{k=1..K} prod_{k'<=k} (B mu^{k'}) with elementwise products."""
    lam_ks = [f.kernel.basis @ m for m in f.mus]
    acc = np.zeros(f.kernel.basis.shape[0])
    running = np.ones(f.kernel.basis.shape[0])
    for lam in lam_ks:
        running = running * lam
        acc = acc + running
    return acc


def reconstruct_phi(kernel, mu):
    """Vertex-domain factor V diag(B mu) V^T snapped onto supp(I+S).

    Off-support entries are discarded; the largest discarded magnitude is
    returned alongside. A discarded entry above 1e-6 raises SupportLeak.
    """
    mu = np.asarray(mu, dtype=np.float64)
    if mu.shape != (kernel.nullity,):
        raise DimensionMismatch("mu must have length b")
    V = kernel.eig.eigenvectors
    lam = kernel.basis @ mu
    phi = (V * lam[None, :]) @ V.T
    mask = kernel.support
    values = phi[mask.entry_rows(), mask.col_idx]
    phi[mask.entry_rows(), mask.col_idx] = 0.0
    residual = float(np.max(np.abs(phi), initial=0.0))
    if residual > OFF_SUPPORT_LEAK:
        raise SupportLeak(
            f"off-support magnitude {residual:.3e} exceeds {OFF_SUPPORT_LEAK}")
    return mask.matrix(values), residual
