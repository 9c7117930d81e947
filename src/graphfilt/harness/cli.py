"""Command-line entry point.

Exit codes: 0 success, 1 runtime failure, 2 usage error.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from ..errors import GraphFiltError
from ..filters import ArmaRational, param_count
from ..graphs import Graph, build_shift, diffusion_centrality, load_graph
from ..linalg import sym_eig
from ..nn import ShiftContext, finite_difference_check, init_params, \
    load_model, save_model
from ..spectral import arma_response, poly_response
from .config import FAMILIES, ExperimentConfig
from .data import build_dataset, dataset_hash, export_dataset
from .train import (build_model, evaluate, metrics_to_csv, run_experiment,
                    seed_streams)


def _load_config(args):
    cfg = ExperimentConfig.from_json(args.config)
    if args.seed is not None:
        cfg.seed = args.seed
    return cfg


def _cmd_generate(args):
    cfg = _load_config(args)
    ds = build_dataset(cfg, seed_streams(cfg.seed)[0])
    graph_path, signals_path = export_dataset(ds, args.out)
    print(f"graph: {graph_path}")
    print(f"signals: {signals_path}")
    print(f"hash: {dataset_hash(ds)}")
    return 0


def _cmd_train(args):
    cfg = _load_config(args)
    model, records, ds, summary = run_experiment(cfg)
    os.makedirs(args.out, exist_ok=True)
    metrics_path = os.path.join(args.out, "metrics.csv")
    with open(metrics_path, "w", encoding="utf-8") as fh:
        fh.write(metrics_to_csv(records))
    model_path = os.path.join(args.out, "model.json")
    save_model(model, model_path, shift=ds.S)
    print(f"metrics: {metrics_path}")
    print(f"model: {model_path}")
    print(f"test_loss: {summary['test_loss']!r}")
    print(f"test_metric: {summary['test_metric']!r}")
    return 0


def _cmd_eval(args):
    cfg = _load_config(args)
    ds = build_dataset(cfg, seed_streams(cfg.seed)[0])
    model = load_model(args.model, shift=ds.S if args.check_shift else None)
    loss, metric = evaluate(model, ds, args.split, cfg)
    print(f"split: {args.split}")
    print(f"loss: {loss!r}")
    print(f"metric: {metric!r}")
    return 0


def _coeffs(d, name, default=None):
    """Field ``name`` of a --filter object as a 1-D array of finite floats."""
    if name not in d and default is None:
        raise GraphFiltError(f"--filter field {name!r} is missing")
    value = d.pop(name, default)
    try:
        c = np.asarray(value, dtype=np.float64)
    except (TypeError, ValueError):
        c = None
    if c is None or c.ndim != 1 or not np.isfinite(c).all():
        raise GraphFiltError(f"--filter field {name!r} must be a list of "
                             f"finite numbers, not {value!r}")
    return c


def _parse_filter(spec):
    try:
        d = json.loads(spec)
    except json.JSONDecodeError as exc:
        raise GraphFiltError(f"--filter is not valid JSON: {exc}") from None
    if not isinstance(d, dict):
        raise GraphFiltError(f"--filter must be a JSON object, not {spec}")
    kind = d.pop("kind", None)
    if kind == "polynomial":
        return ("polynomial", _coeffs(d, "coeffs"), d)
    if kind == "arma":
        return ("arma", ArmaRational(_coeffs(d, "a", []), _coeffs(d, "b")), d)
    raise GraphFiltError(f"unknown filter kind {kind!r}")


def _cmd_spectrum(args):
    graph = load_graph(args.graph)
    S = build_shift(graph, args.normalization)
    eig = sym_eig(S.to_dense())
    kind, f, extra = _parse_filter(args.filter)
    if extra:
        raise GraphFiltError(f"unknown filter keys {sorted(extra)}")
    if kind == "polynomial":
        resp = poly_response(f, eig.eigenvalues)
    else:
        resp = arma_response(f, eig.eigenvalues)
    lines = ["lambda,response"]
    for lam, r in zip(eig.eigenvalues, resp):
        lines.append(f"{float(lam)!r},{float(r)!r}")
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_centrality(args):
    graph = load_graph(args.graph)
    S = build_shift(graph, args.normalization)
    delta = diffusion_centrality(S, args.k)
    print("node,score")
    for i, v in enumerate(delta):
        print(f"{i},{float(v)!r}")
    return 0


def _cmd_paramcount(args):
    dims = dict(K=args.k, F_in=args.f, F_out=args.f_out or args.f,
                B=args.b, M=args.m, N=args.n, I=args.i, M_I=args.m_i,
                P=args.p)
    print(param_count(args.kind, **dims))
    return 0


def _cmd_gradcheck(args):
    rng = np.random.default_rng(args.seed)
    edges = tuple((i, j, 1.0) for i in range(6) for j in range(i + 1, 6)
                  if (i + j) % 2 or j == i + 1)
    S = build_shift(Graph(6, edges), "max_eigenvalue")
    ctx = ShiftContext(S)
    failures = []
    for family in FAMILIES:
        cfg = ExperimentConfig.from_dict({
            "task": "sbm_source_localization",
            "architecture": {"family": family, "order": 2, "features": 3,
                             "layers": 1, "n_poles": 1, "jacobi_order": 2,
                             "n_selected": 2},
        })
        model = build_model(cfg, ctx, 2)
        init_params(model, rng, shift=ctx)
        X0 = rng.normal(size=(6, 1))
        report = finite_difference_check(model, ctx, X0,
                                         h=args.h, tol=args.tol)
        status = "PASS" if report.passed else "FAIL"
        worst = max(report.per_class.values())
        print(f"{family:12s} {status} max_rel_err={worst:.3e}")
        if not report.passed:
            failures.append(family)
    if failures:
        print(f"failed: {failures}", file=sys.stderr)
        return 1
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="graphfilt",
        description="Graph filter and GNN experiment harness.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="build a dataset and export it")
    p.add_argument("-c", "--config", required=True)
    p.add_argument("-o", "--out", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(fn=_cmd_generate)

    p = sub.add_parser("train", help="train a model from a config")
    p.add_argument("-c", "--config", required=True)
    p.add_argument("-o", "--out", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(fn=_cmd_train)

    p = sub.add_parser("eval", help="evaluate a saved model")
    p.add_argument("-c", "--config", required=True)
    p.add_argument("-m", "--model", required=True)
    p.add_argument("--split", default="test",
                   choices=("train", "val", "test"))
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--check-shift", action="store_true")
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("spectrum", help="dump (lambda, response) pairs")
    p.add_argument("--graph", required=True, help="edge-list file")
    p.add_argument("--filter", required=True,
                   help='JSON, e.g. {"kind":"polynomial","coeffs":[1,0.5]}')
    p.add_argument("--normalization", default="max_eigenvalue",
                   choices=("none", "max_eigenvalue", "row_stochastic"))
    p.add_argument("-o", "--out", default=None)
    p.set_defaults(fn=_cmd_spectrum)

    p = sub.add_parser("centrality", help="diffusion centrality per node")
    p.add_argument("--graph", required=True)
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--normalization", default="none",
                   choices=("none", "max_eigenvalue", "row_stochastic"))
    p.set_defaults(fn=_cmd_centrality)

    p = sub.add_parser("paramcount", help="per-layer parameter formulas")
    p.add_argument("--kind", required=True)
    for dim in ("k", "f", "f-out", "b", "m", "n", "i", "m-i", "p"):
        p.add_argument(f"--{dim}", type=int, default=None)
    p.set_defaults(fn=_cmd_paramcount)

    p = sub.add_parser("gradcheck", help="finite-difference gradient suite")
    p.add_argument("--h", type=float, default=1e-5)
    p.add_argument("--tol", type=float, default=1e-4)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_gradcheck)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 2
    try:
        return args.fn(args)
    except (GraphFiltError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
