"""Linear graph filters: edge-varying, polynomial, block, hybrid, and ARMA.

Every filter here maps node signals to node signals through sparse
products with the shift operator (or with learned matrices sharing its
support). The rational family is realized two ways: an exact dense solve
for analysis, and the truncated Jacobi recursion that scales, whose
partial-fraction branches run in parallel: every pole shares one product
with the off-diagonal part of the shift per step.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (DimensionMismatch, NonFiniteValue, NonRealValue,
                     RepeatedPoles, SingularDiagonal, SingularSystem,
                     SupportViolation, TooLarge)
from .linalg import poly_roots
from .sparse import Pattern, spmm, spmv

EPS_SING = 1e-9
ARMA_EXACT_MAX_N = 500
POLE_SEPARATION = 1e-8


# ---------------------------------------------------------------------------
# filter value types


@dataclass(frozen=True)
class PolynomialFilter:
    """Convolutional filter sum_k coeffs[k] S^k."""

    coeffs: np.ndarray

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.coeffs, dtype=np.float64))
        if c.ndim != 1 or len(c) < 1:
            raise ValueError("need at least the order-0 coefficient")
        object.__setattr__(self, "coeffs", c)

    @property
    def order(self):
        return len(self.coeffs) - 1


@dataclass(frozen=True)
class EdgeVaryingFilter:
    """Diagonal order-0 factor plus K sparse factors on supp(I+S)."""

    phi0: np.ndarray
    phis: tuple
    support: Pattern

    def __post_init__(self):
        self.support.require_diagonal()
        phi0 = np.asarray(self.phi0, dtype=np.float64)
        if phi0.shape != (self.support.n_rows,):
            raise DimensionMismatch("phi0 must have one entry per node")
        for k, phi in enumerate(self.phis):
            if not self.support.contains(phi):
                raise SupportViolation(
                    f"factor {k + 1} leaves the support of I+S")
        object.__setattr__(self, "phi0", phi0)
        object.__setattr__(self, "phis", tuple(self.phis))

    @property
    def order(self):
        return len(self.phis)


@dataclass(frozen=True)
class BlockVaryingFilter:
    """Per-block coefficient rows; node i uses row block_of_node[i]."""

    block_of_node: np.ndarray
    coeffs: np.ndarray

    def __post_init__(self):
        blocks = np.asarray(self.block_of_node, dtype=np.int64)
        coeffs = np.asarray(self.coeffs, dtype=np.float64)
        if coeffs.ndim != 2:
            raise DimensionMismatch("coeffs must be B x (K+1)")
        n_blocks = coeffs.shape[0]
        if blocks.min(initial=0) < 0 or blocks.max(initial=-1) >= n_blocks:
            raise ValueError("block id out of range")
        present = np.bincount(blocks, minlength=n_blocks)
        if np.any(present == 0):
            raise ValueError("every block must contain a node")
        object.__setattr__(self, "block_of_node", blocks)
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def order(self):
        return self.coeffs.shape[1] - 1


@dataclass(frozen=True)
class HybridFilter:
    """Edge-varying factors confined to an important node set, plus a
    global convolutional part."""

    important: np.ndarray
    masked_phis: tuple
    global_coeffs: np.ndarray

    def __post_init__(self):
        imp = np.unique(np.asarray(self.important, dtype=np.int64))
        coeffs = np.atleast_1d(np.asarray(self.global_coeffs, dtype=np.float64))
        phis = tuple(self.masked_phis)
        if len(phis) != len(coeffs):
            raise DimensionMismatch(
                "need K+1 masked factors to match the K+1 global coefficients")
        object.__setattr__(self, "important", imp)
        object.__setattr__(self, "masked_phis", phis)
        object.__setattr__(self, "global_coeffs", coeffs)

    @property
    def order(self):
        return len(self.global_coeffs) - 1

    def validate_against(self, S):
        """Mask checks: rows confined to the important set, order-0 factor
        diagonal, higher factors on the stored off-diagonal pattern of S.
        The first offending entry in CSR order is named."""
        phi0 = self.masked_phis[0]
        rows0 = phi0.entry_rows()
        if np.any(rows0 != phi0.col_idx):
            raise SupportViolation("order-0 hybrid factor must be diagonal")
        if not np.all(np.isin(rows0, self.important)):
            raise SupportViolation("order-0 factor outside the important set")
        for k, phi in enumerate(self.masked_phis[1:], start=1):
            rows, cols = phi.entry_rows(), phi.col_idx
            inside = np.isin(rows, self.important)
            on_graph = (S.pattern.positions(phi.pattern) >= 0) & (rows != cols)
            bad = np.flatnonzero(~(inside & on_graph))
            if len(bad) == 0:
                continue
            e = bad[0]
            if not inside[e]:
                raise SupportViolation(
                    f"factor {k} has a row outside the important set")
            raise SupportViolation(f"factor {k} entry ({rows[e]},{cols[e]}) "
                                   "off the graph support")


@dataclass(frozen=True)
class ArmaJacobiFilter:
    """Pole/residue pairs plus direct-term coefficients, applied through
    a truncated Jacobi recursion of the given order."""

    betas: np.ndarray
    gammas: np.ndarray
    alphas: np.ndarray
    jacobi_order: int

    def __post_init__(self):
        for name in ("betas", "gammas", "alphas"):
            if np.iscomplexobj(getattr(self, name)):
                raise NonRealValue(f"{name} must be real")
        betas = np.atleast_1d(np.asarray(self.betas, dtype=np.float64))
        gammas = np.atleast_1d(np.asarray(self.gammas, dtype=np.float64))
        alphas = np.atleast_1d(np.asarray(self.alphas, dtype=np.float64))
        if betas.shape != gammas.shape:
            raise DimensionMismatch("betas and gammas must pair up")
        for name, values in (("betas", betas), ("gammas", gammas),
                             ("alphas", alphas)):
            if not np.all(np.isfinite(values)):
                raise NonFiniteValue(f"{name} must be finite")
        if not isinstance(self.jacobi_order, (int, np.integer)):
            raise ValueError("jacobi_order must be an integer")
        if self.jacobi_order < 0:
            raise ValueError("jacobi_order must be non-negative")
        object.__setattr__(self, "betas", betas)
        object.__setattr__(self, "gammas", gammas)
        object.__setattr__(self, "alphas", alphas)

    @property
    def n_poles(self):
        return len(self.betas)


@dataclass(frozen=True)
class ArmaRational:
    """Rational filter (I + sum_p a_p S^p)^{-1} (sum_q b_q S^q)."""

    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.a, dtype=np.float64).reshape(-1)
        b = np.atleast_1d(np.asarray(self.b, dtype=np.float64))
        if len(b) < 1:
            raise ValueError("numerator needs at least one coefficient")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)


# ---------------------------------------------------------------------------
# application kernels


def _shift_apply(S, X):
    return spmv(S, X) if X.ndim == 1 else spmm(S, X)


def apply_polynomial(f, S, X):
    """sum_k coeffs[k] S^k X with exactly K shift applications."""
    X = np.asarray(X, dtype=np.float64)
    acc = f.coeffs[0] * X
    Z = X
    for k in range(1, len(f.coeffs)):
        Z = _shift_apply(S, Z)
        acc = acc + f.coeffs[k] * Z
    return acc


def apply_edge_varying(f, X):
    """Running-product form: Z_0 = diag(phi0) X, Z_k = Phi_k Z_{k-1},
    output sum_k Z_k."""
    X = np.asarray(X, dtype=np.float64)
    if X.shape[0] != f.support.n_rows:
        raise DimensionMismatch("signal length does not match the filter")
    Z = f.phi0[:, None] * X if X.ndim > 1 else f.phi0 * X
    acc = Z
    for phi in f.phis:
        Z = _shift_apply(phi, Z)
        acc = acc + Z
    return acc


def apply_block_varying(f, S, X):
    """sum_k diag(per-node coefficient of order k) S^k X."""
    X = np.asarray(X, dtype=np.float64)
    per_node = f.coeffs[f.block_of_node]  # (N, K+1)
    if X.shape[0] != per_node.shape[0]:
        raise DimensionMismatch("signal length does not match the filter")
    col = (slice(None), None) if X.ndim > 1 else slice(None)
    acc = per_node[:, 0][col] * X
    Z = X
    for k in range(1, per_node.shape[1]):
        Z = _shift_apply(S, Z)
        acc = acc + per_node[:, k][col] * Z
    return acc


def apply_hybrid(f, S, X):
    """Masked edge-varying cumulative products plus the global polynomial."""
    f.validate_against(S)
    X = np.asarray(X, dtype=np.float64)
    Z = _shift_apply(f.masked_phis[0], X)
    acc = Z
    for phi in f.masked_phis[1:]:
        Z = _shift_apply(phi, Z)
        acc = acc + Z
    return acc + apply_polynomial(PolynomialFilter(f.global_coeffs), S, X)


# ---------------------------------------------------------------------------
# rational filters


def check_pole_guard(S, gamma):
    """The diagonal d of the square shift S, once no pole in ``gamma`` (a
    scalar or a vector of poles) lies within EPS_SING of an entry of d.
    SingularDiagonal names the first such node of the first such pole."""
    if S.n_rows != S.n_cols:
        raise DimensionMismatch("the Jacobi recursion needs a square shift")
    d = S.split_diagonal()[0]
    bad = np.flatnonzero(np.abs(d - np.reshape(gamma, (-1, 1))) <= EPS_SING)
    if len(bad):
        raise SingularDiagonal(int(bad[0] % len(d)))
    return d


def jacobi_shift(S, gamma, d=None):
    """R(gamma) = -(D - gamma I)^{-1} S_off, S = D + S_off, on the stored
    off-diagonal pattern of S. A caller that has run check_pole_guard
    passes the diagonal it returned as d."""
    d = check_pole_guard(S, gamma) if d is None else d
    S_off = S.split_diagonal()[1]
    return S_off.with_values(-S_off.values / (d[S_off.entry_rows()] - gamma))


def apply_single_pole_jacobi(S, beta, gamma, k_jacobi, x):
    """Truncated Jacobi solve of (S - gamma I) u = beta x.

    Iterates u_k = beta (D - gamma I)^{-1} x + R(gamma) u_{k-1} from
    u_0 = x, which converges to beta (S - gamma I)^{-1} x whenever the
    spectral radius of R(gamma) is below one. Truncation is the model;
    no convergence check happens here.
    """
    x = np.asarray(x, dtype=np.float64)
    d = check_pole_guard(S, gamma)
    if int(k_jacobi) == 0:
        return x.copy()
    R = jacobi_shift(S, gamma, d)
    dcol = d if x.ndim == 1 else d[:, None]
    c = beta * x / (dcol - gamma)
    u = x
    for _ in range(int(k_jacobi)):
        u = c + _shift_apply(R, u)
    return u


def jacobi_spectral_radius(S, gamma):
    """Spectral radius of R(gamma), dense diagnostic for small graphs."""
    R = jacobi_shift(S, gamma).to_dense()
    return float(np.max(np.abs(np.linalg.eigvals(R))))


def apply_arma_jacobi(f, S, X):
    """The direct polynomial term (none when alphas is empty, as for a
    strictly proper rational) plus one truncated Jacobi solve of
    (S - gamma_p I) U_p = beta_p X per pole, summed in pole order.

    With S = D + S_off, each branch runs jacobi_order steps of
    U_p <- (D - gamma_p I)^{-1} (beta_p X - S_off U_p) from U_p = X. The
    branches are one (P, ..., n, F) stack, so a step is one S_off product
    for every pole: the parallel form of the partial fractions.
    """
    X = np.asarray(X, dtype=np.float64)
    out = (apply_polynomial(PolynomialFilter(f.alphas), S, X)
           if len(f.alphas) else np.zeros(X.shape))
    d = check_pole_guard(S, f.gammas)
    S_off = S.split_diagonal()[1]
    Xn = X[:, None] if X.ndim == 1 else X            # (..., n, F)
    per_pole = (f.n_poles,) + (1,) * Xn.ndim
    gap = d[:, None] - f.gammas.reshape(per_pole)
    bx = f.betas.reshape(per_pole) * Xn
    U = Xn  # every branch starts at X, so the first product serves all
    for _ in range(f.jacobi_order):
        U = (bx - spmm(S_off, U)) / gap
    for u in np.broadcast_to(U, bx.shape):
        out = out + u.reshape(X.shape)
    return out


def apply_arma_exact(f, S, X):
    """Dense LU solve of P(S) U = Q(S) X; analysis path, capped at 500
    nodes."""
    if S.n_rows > ARMA_EXACT_MAX_N:
        raise TooLarge(f"exact ARMA is capped at {ARMA_EXACT_MAX_N} nodes")
    X = np.asarray(X, dtype=np.float64)
    Sd = S.to_dense()
    n = Sd.shape[0]
    powers = [Sd]  # S, S^2, ..., read by both P(S) and Q(S)
    while len(powers) < max(len(f.a), len(f.b) - 1):
        powers.append(powers[-1] @ Sd)
    P = np.eye(n)
    for ap, power in zip(f.a, powers):
        P = P + ap * power
    Q = f.b[0] * np.eye(n)
    for bq, power in zip(f.b[1:], powers):
        Q = Q + bq * power
    rhs = Q @ X
    try:
        U = np.linalg.solve(P, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(str(exc)) from None
    residual = np.max(np.abs(P @ U - rhs))
    scale = max(1.0, float(np.max(np.abs(rhs))))
    if residual > 1e-8 * scale:
        raise SingularSystem(
            f"solve residual {residual:.3e} indicates a near-singular P(S)")
    return U


def partial_fraction_decompose(f):
    """Direct terms, poles, and residues of the rational response.

    Returns (alphas, poles, residues) such that
    Q(l)/P(l) = sum_p residues[p] / (l - poles[p]) + sum_k alphas[k] l^k
    for simple poles. alphas is empty when deg Q < deg P.
    """
    # imported here: loading numpy.polynomial costs every process ~0.8 MB
    from numpy.polynomial.polynomial import polyder, polydiv, polyval
    if len(f.a) == 0:
        return (f.b.copy(), np.zeros(0, dtype=np.complex128),
                np.zeros(0, dtype=np.complex128))
    den = np.concatenate([[1.0], f.a])
    poles = poly_roots(den)
    alphas, rem = polydiv(f.b, den)
    if len(f.b) < len(den):
        alphas = np.zeros(0)
    dden = polyder(den)
    dvals = polyval(poles, dden)
    if len(poles) > 1:
        dist = np.abs(poles[:, None] - poles[None, :])
        np.fill_diagonal(dist, np.inf)
        # a numerically double root separates only to ~sqrt(machine eps),
        # so also test the derivative, which vanishes exactly there
        dscale = max(1.0, float(np.max(np.abs(dden))))
        if dist.min() <= POLE_SEPARATION or \
                np.min(np.abs(dvals)) <= 1e-7 * dscale:
            raise RepeatedPoles(
                f"poles closer than {POLE_SEPARATION} are unsupported")
    residues = polyval(poles, rem) / dvals
    return alphas, poles, residues


@dataclass(frozen=True)
class EdgeVaryingTerms:
    """Per-order parameter matrices of the ARMA filter rewritten as an
    edge-varying filter: pole_terms[p][k] and direct_terms[k]."""

    pole_terms: tuple
    direct_terms: tuple

    def order_terms(self):
        """Matrices summed per order k; applying their sum reproduces the
        Jacobi ARMA output."""
        n_orders = len(self.direct_terms)
        out = []
        for k in range(n_orders):
            acc = self.direct_terms[k].copy()
            for per_pole in self.pole_terms:
                acc = acc + per_pole[k]
            out.append(acc)
        return out

    def apply(self, X):
        X = np.asarray(X, dtype=np.float64)
        acc = np.zeros_like(X)
        for term in self.order_terms():
            acc = acc + term @ X
        return acc


def arma_to_edge_varying(f, S):
    """Materialize the ARMA filter's edge-varying parameter matrices.

    Pole p contributes beta_p R^k (D - gamma_p I)^{-1} for k < K and
    R^K for k = K (the unrolled Jacobi iterate); the direct term
    contributes alpha_k S^k. Matrices are dense, analysis scale.
    """
    n = S.n_rows
    K = f.jacobi_order
    d = S.split_diagonal()[0]
    pole_terms = []
    for beta, gamma in zip(f.betas, f.gammas):
        R = jacobi_shift(S, gamma)
        inv_diag = 1.0 / (d - gamma)
        terms = []
        power = np.eye(n)  # R^k, advanced in-loop
        for k in range(K + 1):
            if k == K:
                terms.append(power.copy())
            else:
                terms.append(beta * power * inv_diag[None, :])
                power = spmm(R, power)
        pole_terms.append(tuple(terms))
    direct = []
    power = np.eye(n)
    Sd = S.to_dense()
    for k, alpha in enumerate(f.alphas):
        direct.append(alpha * power)
        power = power @ Sd
    # pad shorter side so order_terms can sum by index
    n_orders = max(K + 1, len(direct))
    direct += [np.zeros((n, n))] * (n_orders - len(direct))
    pole_terms = [tuple(list(t) + [np.zeros((n, n))] * (n_orders - len(t)))
                  for t in pole_terms]
    return EdgeVaryingTerms(tuple(pole_terms), tuple(direct))


# ---------------------------------------------------------------------------
# parameter accounting


def param_count(kind, **dims):
    """Exact trainable-scalar counts for the filter families.

    Scalar counts become per-layer counts by multiplying with
    F^2 = F_in * F_out wherever the family allocates an independent
    scalar filter per feature pair.
    """
    def need(*names):
        missing = [k for k in names if dims.get(k) is None]
        if missing:
            raise ValueError(f"param_count({kind!r}) needs {missing}")
        return [dims[k] for k in names]

    if kind in ("polynomial", "gcnn"):
        K, fi, fo = need("K", "F_in", "F_out")
        return (K + 1) * fi * fo
    if kind in ("block", "block_varying"):
        B, K, fi, fo = need("B", "K", "F_in", "F_out")
        return B * (K + 1) * fi * fo
    if kind == "edge_varying":
        K, M, N = need("K", "M", "N")
        return K * (M + N) + N
    if kind == "hybrid":
        I, K, MI, fi, fo = need("I", "K", "M_I", "F_in", "F_out")
        return (I + K * MI + K + 1) * fi * fo
    if kind == "arma":
        P, K, fi, fo = need("P", "K", "F_in", "F_out")
        return (2 * P + K + 1) * fi * fo
    raise ValueError(f"unknown filter kind {kind!r}")
