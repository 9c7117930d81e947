"""Acceptance criteria, one test per criterion, printed pass/fail.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the one-line
verdicts as they complete.
"""
import time

import numpy as np
import pytest

from graphfilt.attention import (AttentionHead, edge_varying_gat_shifts,
                                 gcat_shift, weighted_neighborhood_softmax,
                                 edge_scores)
from graphfilt.errors import RepeatedPoles
from graphfilt.filters import (ArmaJacobiFilter, ArmaRational,
                               PolynomialFilter, apply_arma_exact,
                               apply_arma_jacobi, apply_polynomial,
                               apply_single_pole_jacobi,
                               arma_to_edge_varying, jacobi_spectral_radius,
                               param_count, partial_fraction_decompose)
from graphfilt.graphs import Graph, build_shift
from graphfilt.harness import ExperimentConfig, metrics_to_csv, train, \
    build_dataset, evaluate
from graphfilt.linalg import sym_eig
from graphfilt.nn import (ArmaLayer, BlockVaryingLayer, EdgeVaryingGatLayer,
                          EdgeVaryingLayer, GcatLayer, HybridGcatLayer,
                          HybridLayer, Model, PolynomialLayer, ShiftContext,
                          finite_difference_check, init_params)
from graphfilt.sparse import Permutation, permute_shift, permute_signal, \
    support_mask


def report(number, ok, detail):
    line = f"criterion {number:2d} {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    assert ok, line


def random_connected_shift(rng, n, p=0.4, normalization="max_eigenvalue"):
    from graphfilt.graphs import is_connected
    while True:
        edges = tuple((i, j, 1.0) for i in range(n)
                      for j in range(i + 1, n) if rng.random() < p)
        g = Graph(n, edges)
        if g.n_edges and is_connected(g):
            return build_shift(g, normalization)


def test_criterion_01_permutation_equivariance():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(8, 31))
        S = random_connected_shift(rng, n)
        ctx = ShiftContext(S)
        n_layers = int(rng.integers(1, 3))
        feats = [1] + [int(rng.integers(2, 5)) for _ in range(n_layers)]
        layers = [PolynomialLayer(feats[i], feats[i + 1],
                                  int(rng.integers(0, 5)))
                  for i in range(n_layers)]
        model = Model(layers, n, 2)
        init_params(model, rng, shift=ctx)
        X = rng.normal(size=(n, 1))
        P = Permutation.random(n, rng)
        ctx_p = ShiftContext(permute_shift(S, P))
        lhs, _ = model.features(ctx_p, permute_signal(X, P))
        rhs, _ = model.features(ctx, X)
        worst = max(worst, float(np.max(np.abs(
            lhs.value - permute_signal(rhs.value, P)))))
    elapsed = time.perf_counter() - t0
    report(1, worst <= 1e-10 and elapsed < 10.0,
           f"equivariance max deviation {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_edge_varying_witness():
    rng = np.random.default_rng(102)
    best = 0.0
    for trial in range(5):
        n = 10
        S = random_connected_shift(rng, n)
        ctx = ShiftContext(S)
        P = Permutation.random(n, rng)
        if np.array_equal(P.map, np.arange(n)):
            continue
        ctx_p = ShiftContext(permute_shift(S, P))
        seed = 500 + trial
        model = Model([EdgeVaryingLayer(1, 2, 2, ctx.pattern)], n, 2)
        init_params(model, np.random.default_rng(seed), shift=ctx)
        model_p = Model([EdgeVaryingLayer(1, 2, 2, ctx_p.pattern)], n, 2)
        init_params(model_p, np.random.default_rng(seed), shift=ctx_p)
        X = rng.normal(size=(n, 1))
        lhs, _ = model_p.features(ctx_p, permute_signal(X, P))
        rhs, _ = model.features(ctx, X)
        best = max(best, float(np.max(np.abs(
            lhs.value - permute_signal(rhs.value, P)))))
    report(2, best > 1e-3, f"edge-varying witness deviation {best:.2e}")


def test_criterion_03_jacobi_convergence():
    rng = np.random.default_rng(103)
    worst = 0.0
    for _ in range(10):
        n = int(rng.integers(6, 21))
        S = random_connected_shift(rng, n)
        gamma = 1.0 / 0.8 + 0.01
        rho = jacobi_spectral_radius(S, gamma)
        assert rho <= 0.8
        x = rng.normal(size=n)
        beta = float(rng.uniform(0.5, 1.5))
        want = beta * np.linalg.solve(S.to_dense() - gamma * np.eye(n), x)
        got = apply_single_pole_jacobi(S, beta, gamma, 200, x)
        worst = max(worst, float(np.max(np.abs(got - want))))
    report(3, worst <= 1e-8, f"Jacobi vs dense solve, max {worst:.2e}")


def test_criterion_04_arma_reexpression_exactness():
    rng = np.random.default_rng(104)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(5, 16))
        S = random_connected_shift(rng, n)
        P = int(rng.integers(1, 4))
        K = int(rng.integers(0, 5))
        gammas = rng.uniform(2.0, 4.0, size=P) * rng.choice([-1, 1], size=P)
        f = ArmaJacobiFilter(rng.normal(size=P), gammas,
                             rng.normal(size=K + 1), K)
        x = rng.normal(size=(n, 2))
        direct = apply_arma_jacobi(f, S, x)
        terms = arma_to_edge_varying(f, S)
        worst = max(worst, float(np.max(np.abs(terms.apply(x) - direct))))
    report(4, worst <= 1e-12, f"re-expression agreement, max {worst:.2e}")


def test_criterion_05_spectral_consistency():
    rng = np.random.default_rng(105)
    worst = 0.0
    for _ in range(10):
        n = int(rng.integers(5, 13))
        S = random_connected_shift(rng, n)
        eig = sym_eig(S.to_dense())
        V = eig.eigenvalues, eig.eigenvectors
        lam, vec = V
        x = rng.normal(size=(n, 1))
        coeffs = rng.normal(size=int(rng.integers(1, 7)))
        from graphfilt.spectral import arma_response, poly_response
        resp = poly_response(coeffs, lam)
        want = vec @ (resp[:, None] * (vec.T @ x))
        got = apply_polynomial(PolynomialFilter(coeffs), S, x)
        worst = max(worst, float(np.max(np.abs(got - want))))
        a = rng.uniform(-0.25, 0.25, size=2)
        f = ArmaRational(a, rng.normal(size=2))
        resp = arma_response(f, lam)
        want = vec @ (resp[:, None] * (vec.T @ x))
        got = apply_arma_exact(f, S, x)
        worst = max(worst, float(np.max(np.abs(got - want))))
    report(5, worst <= 1e-9, f"vertex/spectral agreement, max {worst:.2e}")


def test_criterion_06_basis_kernel_support():
    from graphfilt.spectral import build_basis_kernel, reconstruct_phi
    from graphfilt.sparse import SparseMatrix
    rng = np.random.default_rng(106)
    worst = 0.0
    for _ in range(10):
        n = int(rng.integers(4, 11))
        S = random_connected_shift(rng, n)
        kern = build_basis_kernel(S)
        for _ in range(3):
            _, residual = reconstruct_phi(kern, rng.normal(size=kern.nullity))
            worst = max(worst, residual)
    complete = SparseMatrix.from_dense(np.ones((6, 6)) - np.eye(6))
    nullity = build_basis_kernel(complete).nullity
    report(6, worst < 1e-8 and nullity == 6,
           f"off-support max {worst:.2e}, complete-graph nullity {nullity}")


def test_criterion_07_partial_fraction_pointwise():
    rng = np.random.default_rng(107)
    worst = 0.0
    checked = 0
    while checked < 20:
        P = int(rng.integers(1, 5))
        Q = int(rng.integers(0, 5))
        a = rng.normal(size=P) * 0.5
        b = rng.normal(size=Q + 1)
        f = ArmaRational(a, b)
        try:
            alphas, poles, residues = partial_fraction_decompose(f)
        except RepeatedPoles:
            continue
        lam = rng.normal(size=40) * 2.0
        lam = lam[np.min(np.abs(lam[:, None] - poles[None, :]), axis=1) > 0.05]
        lam = lam[:20]
        num = sum(bq * lam ** q for q, bq in enumerate(b))
        den = 1.0 + sum(ap * lam ** p for p, ap in enumerate(a, start=1))
        want = num / den
        got = sum(r / (lam - p) for r, p in zip(residues, poles))
        got = got + sum(al * lam ** k for k, al in enumerate(alphas))
        rel = float(np.max(np.abs(got - want)
                           / np.maximum(np.abs(want), 1e-12)))
        worst = max(worst, rel)
        checked += 1
    report(7, worst <= 1e-9, f"partial-fraction pointwise rel {worst:.2e}")


def test_criterion_08_gradient_checks_all_classes():
    rng = np.random.default_rng(108)
    t0 = time.perf_counter()
    n = 6
    S = random_connected_shift(rng, n)
    ctx = ShiftContext(S)
    sel = np.array([1, 4])
    layer_builders = [
        lambda: PolynomialLayer(1, 3, 2),
        lambda: BlockVaryingLayer(1, 3, 2, np.array([0, 1, 2, 0, 1, 2]), 3),
        lambda: EdgeVaryingLayer(1, 3, 2, ctx.pattern),
        lambda: HybridLayer(1, 3, 2, sel, ctx.masked_rows_pattern(sel)),
        lambda: ArmaLayer(1, 3, 1, 2, 2),
        lambda: GcatLayer(1, 3, 2),
        lambda: EdgeVaryingGatLayer(1, 3, 2),
        lambda: HybridGcatLayer(1, 3, 2),
    ]
    classes = {}
    ok = True
    for build in layer_builders:
        model = Model([build()], n, 2)
        init_params(model, rng, shift=ctx)
        X0 = rng.normal(size=(n, 1))
        rep = finite_difference_check(model, ctx, X0, h=1e-5, tol=1e-4)
        ok = ok and rep.passed
        for cls, err in rep.per_class.items():
            classes[cls] = max(classes.get(cls, 0.0), err)
    want_classes = {"poly", "block", "ev_phi0", "ev_phi", "hybrid_phi0",
                    "hybrid_phi", "arma_beta", "arma_gamma", "arma_alpha",
                    "att_B", "att_e", "mixing", "bias",
                    "readout_w", "readout_b"}
    elapsed = time.perf_counter() - t0
    covered = want_classes.issubset(classes)
    report(8, ok and covered and elapsed < 60.0,
           f"all {len(classes)} classes <= 1e-4 "
           f"(worst {max(classes.values()):.1e}), {elapsed:.1f}s")


def test_criterion_09_parameter_count_identities():
    rng = np.random.default_rng(109)
    S = random_connected_shift(rng, 7)
    ctx = ShiftContext(S)
    M = int(ctx.S_off.pattern.nnz)
    N = 7
    checks = []

    poly = PolynomialLayer(3, 4, 2, use_bias=False)
    checks.append(poly.filter_param_count()
                  == param_count("polynomial", K=2, F_in=3, F_out=4) == 36)

    block = BlockVaryingLayer(3, 4, 2, np.array([0, 1, 2, 3, 4, 0, 1]), 5,
                              use_bias=False)
    checks.append(block.filter_param_count()
                  == param_count("block", B=5, K=2, F_in=3, F_out=4) == 180)

    ev = EdgeVaryingLayer(3, 4, 2, ctx.pattern, use_bias=False)
    scalar_part = ev.phi0.size + sum(t.size for t in ev.phi)
    checks.append(scalar_part
                  == param_count("edge_varying", K=2, M=M, N=N)
                  == 2 * (M + N) + N)

    sel = np.array([0, 3])
    masked = ctx.masked_rows_pattern(sel)
    hyb = HybridLayer(2, 3, 2, sel, masked, use_bias=False)
    checks.append(hyb.filter_param_count()
                  == param_count("hybrid", I=2, K=2, M_I=int(masked.nnz),
                                 F_in=2, F_out=3))

    arma = ArmaLayer(4, 4, 2, 3, 3, use_bias=False)
    checks.append(arma.filter_param_count()
                  == param_count("arma", P=2, K=3, F_in=4, F_out=4) == 128)

    report(9, all(checks), f"count identities {checks}")


def test_criterion_10_attention_row_stochastic():
    rng = np.random.default_rng(110)
    worst = 0.0
    pattern_ok = True
    for _ in range(10):
        n = int(rng.integers(4, 12))
        S = random_connected_shift(rng, n)
        mask = support_mask(S)
        f_in, f_out = 2, 3
        X = rng.normal(size=(n, f_in))
        heads = [AttentionHead(rng.normal(size=(f_in, f_out)),
                               rng.normal(size=2 * f_out))
                 for _ in range(3)]
        shifts = [gcat_shift(heads[0], X, mask)]
        shifts += edge_varying_gat_shifts(heads, X, mask)
        shifts.append(weighted_neighborhood_softmax(
            edge_scores(heads[1], X, mask), S))
        for s in shifts:
            sums = np.zeros(n)
            np.add.at(sums, s.matrix.entry_rows(), s.matrix.values)
            worst = max(worst, float(np.max(np.abs(sums - 1.0))))
            pattern_ok = pattern_ok and \
                np.array_equal(s.matrix.row_ptr, mask.row_ptr) and \
                np.array_equal(s.matrix.col_idx, mask.col_idx)
    report(10, worst <= 1e-12 and pattern_ok,
           f"row sums off by {worst:.2e}, pattern exact: {pattern_ok}")


def desk_scale_config(seed):
    return ExperimentConfig.from_dict({
        "task": "sbm_source_localization",
        "seed": seed,
        "architecture": {"family": "gcnn", "order": 5, "features": 16,
                         "layers": 1},
        "training": {"epochs": 40, "batch_size": 100,
                     "learning_rate": 1e-3},
        "dataset": {"block_sizes": [10, 10, 10, 10, 10],
                    "p_intra": 0.8, "p_inter": 0.2, "t_max": 50,
                    "n_train": 2048, "n_val": 512, "n_test": 512},
    })


def _run_desk_scale(seed):
    cfg = desk_scale_config(seed)
    data_rng = np.random.default_rng(np.random.SeedSequence(cfg.seed).spawn(3)[0])
    ds = build_dataset(cfg, data_rng)
    model, records = train(cfg, ds)
    _, err = evaluate(model, ds, "test", cfg)
    return err, metrics_to_csv(records)


def test_criterion_11_desk_scale_end_to_end():
    t0 = time.perf_counter()
    errs = [_run_desk_scale(seed)[0] for seed in (0, 1, 2)]
    elapsed = time.perf_counter() - t0
    mean_err = float(np.mean(errs))
    report(11, mean_err <= 0.30 and elapsed < 300.0,
           f"mean test error {mean_err:.3f} over seeds 0-2 "
           f"(each {['%.3f' % e for e in errs]}), {elapsed:.0f}s")


def test_criterion_12_determinism_byte_identical():
    _, csv1 = _run_desk_scale(0)
    _, csv2 = _run_desk_scale(0)
    identical = csv1.encode() == csv2.encode()
    report(12, identical,
           f"same-seed metrics CSV byte-identical: {identical}")
