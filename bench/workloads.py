"""The four benchmark workloads.

Each workload is a closed loop: one caller in one process issues the
next operation only after the previous one has returned. Inputs come
from the workload seed alone and the library receives only the
generated inputs. Every library call goes through a module attribute
(``gtrain.evaluate``, not a name imported here), so the tracer's
rebinding sees it. Why each workload exists, and which layer metric
should move which end-to-end metric on it, is in README.md.

A workload has three parts:

* ``setup(seed)`` builds everything before the first timed operation;
  run.py times it several times and reports the median as ``setup_s``.
* ``measure(run, state, budget)`` runs the untraced, time-boxed loops the
  end-to-end metrics come from, then the correctness checks.
* ``traced(tracer, seed)`` repeats the workload as a fixed amount of work
  (a fixed number of epochs, steps, rounds and calls) inside the tracer,
  so that call counts repeat exactly for a seed.
"""
from __future__ import annotations

import hashlib
import importlib
import os
import time

import numpy as np

from graphfilt import attention, filters, graphs, linalg, sparse, spectral
from graphfilt.harness.config import ExperimentConfig
from graphfilt.nn import autograd as ag
from graphfilt.nn import functional, gradcheck, optim, serialize
from graphfilt.nn.init import init_params
from graphfilt.nn.layers import ShiftContext

from measure import p50

# the package re-exports the functions train and evaluate under the
# submodule names, so the modules themselves come from importlib
gdata = importlib.import_module("graphfilt.harness.data")
gtrain = importlib.import_module("graphfilt.harness.train")

FAMILIES = ("gcnn", "edge_varying", "block_varying", "hybrid", "arma",
            "gat", "gcat", "ev_gat", "hybrid_gcat")
ATTENTION_FAMILIES = ("gat", "gcat", "ev_gat", "hybrid_gcat")


def _config(seed, size, family="gcnn", epochs=1, **arch):
    blocks, p_intra, p_inter, t_max = size["graph"]
    n_train, n_val, n_test = size["samples"]
    architecture = {"family": family, "order": size["order"],
                    "features": size["features"], "layers": 1}
    architecture.update(arch)
    return ExperimentConfig.from_dict({
        "task": "sbm_source_localization",
        "seed": seed,
        "architecture": architecture,
        "training": {"epochs": epochs, "batch_size": size["batch"],
                     "learning_rate": 1e-3},
        "dataset": {"block_sizes": blocks, "p_intra": p_intra,
                    "p_inter": p_inter, "t_max": t_max, "n_train": n_train,
                    "n_val": n_val, "n_test": n_test},
    })


def _data_rng(seed):
    """The generator ``run_experiment`` hands to ``build_dataset``."""
    return np.random.default_rng(np.random.SeedSequence(seed).spawn(3)[0])


def _fresh_model(cfg, ctx, n_outputs, seed):
    model = gtrain.build_model(cfg, ctx, n_outputs)
    init_params(model, np.random.default_rng(seed), shift=ctx)
    state = optim.AdamState([t for _, t in model.parameters()],
                            learning_rate=cfg.training.learning_rate)
    return model, state


def train_step(model, ctx, state, X, y, sel):
    """One step of ``harness.train.train``'s inner loop: forward, loss,
    backward, ADAM and the post-update projection."""
    logits, tape = model.forward(ctx, X[sel][:, :, None])
    loss, grad = functional.cross_entropy(logits.value, y[sel])
    model.zero_grad()
    tape.backward(output_grad=grad)
    optim.adam_step(state)
    model.post_update(ctx)
    return loss


def _batches(n, batch, seed):
    """Endless closed-loop batch order: seeded permutations of the split."""
    rng = np.random.default_rng(seed)
    while True:
        order = rng.permutation(n)
        for start in range(0, n - batch + 1, batch):
            yield order[start:start + batch]


def _max_rel(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return float(np.max(np.abs(a - b)) / max(np.max(np.abs(b)), 1e-300))


def report_step_and_eval(run, step_prefix, eval_key, n_eval):
    """The metrics every workload reports under one name: its step time
    (``step_ms_p50`` by wall time, ``step_ms_cal`` calibrated) and the
    samples its evaluation call handles per second (``eval_samples_per_s``
    at the wall-time median, ``eval_samples_per_s_cal`` at the median
    calibrated time)."""
    run.report("step_ms_p50", run.metrics[f"{step_prefix}_ms_p50"][0], "ms")
    run.report("step_ms_cal", run.metrics[f"{step_prefix}_ms_cal"][0], "ms")
    run.report("eval_samples_per_s", n_eval / p50(run.wall[eval_key]),
               "samples/s")
    run.report("eval_samples_per_s_cal", n_eval / run.calibrated(eval_key),
               "samples/s")


def runs_dir():
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "runs")
    os.makedirs(path, exist_ok=True)
    return path


# ---------------------------------------------------------------------------
# training workloads: desk_gcnn and large_sbm


class Training:
    """build_dataset -> train (validating every epoch) -> evaluate, plus a
    closed loop of training steps and of test-split evaluations."""

    unit = "bench.step.gcnn"
    reference = "interpreter"
    gated = True          # listed in BENCHMARK.json
    round_trip = None    # save/load of the trained model, where timed
    sizes = {}

    def __init__(self, size):
        self.size = self.sizes[size]

    def config(self, seed, epochs=1):
        return _config(seed, self.size, epochs=epochs, **self.size["arch"])

    def setup(self, seed):
        cfg = self.config(seed)
        ds = gdata.build_dataset(cfg, _data_rng(seed))
        ctx = ShiftContext(ds.S)
        model, state = _fresh_model(cfg, ctx, ds.n_outputs, seed)
        X, y, _ = ds.split_arrays("train")
        return {"cfg": cfg, "ds": ds, "ctx": ctx, "model": model,
                "adam": state, "X": X, "y": y,
                "batches": _batches(len(X), self.size["batch"], seed)}

    def inputs_digest(self, st):
        return gdata.dataset_hash(st["ds"])

    def _train(self, st, epochs):
        cfg = self.config(st["cfg"].seed, epochs)
        cfg.timing = True
        model, records = gtrain.train(cfg, st["ds"])
        st["trained"] = model
        return records

    def _step(self, st):
        return train_step(st["model"], st["ctx"], st["adam"], st["X"],
                          st["y"], next(st["batches"]))

    def _evaluate(self, st):
        return gtrain.evaluate(st["trained"], st["ds"], "test", st["cfg"])

    def measure(self, run, st, budget):
        ok, records, _ = run.op("train", self._train, st, self.size["epochs"])
        if ok:
            run.wall["epoch"] = [r.seconds for r in records]
            run.check("train losses finite", lambda: (
                all(np.isfinite([r.train_loss, r.val_loss]).all()
                    for r in records), "non-finite epoch loss"))
        if self.round_trip:
            run.timed("save_load", self.round_trip, st)
        # the budget covers the loop of steps and evaluate calls, whose
        # samples the medians come from; the fixed train epochs precede it
        steps, evals = self.size["cycle"]
        run.loop([("step", lambda: self._step(st))] * steps
                 + [("eval", lambda: self._evaluate(st))] * evals,
                 time.perf_counter() + budget, self.size["min_cycles"])
        n_test = len(st["ds"].splits["test"])
        run.report("epoch_s_p50", p50(run.wall["epoch"]), "s")
        run.report_timings("step", "train_step_ms")
        report_step_and_eval(run, "train_step", "eval", n_test)
        self.checks(run, st)

    def traced(self, tracer, seed):
        with tracer:
            st = tracer.span("bench.setup", self.setup, seed)
            self._train(st, self.size["trace"]["epochs"])
            if self.round_trip:
                self.round_trip(st)
        tracer.paired_units(self.unit, self._step, self.size["trace"]["steps"],
                            st)
        with tracer:
            for _ in range(self.size["trace"]["evals"]):
                self._evaluate(st)

    def checks(self, run, st):
        pass


class DeskGcnn(Training):
    """The criterion-11 run users make: SBM 5x10, gcnn K=5, F=16, B=100."""

    name = "desk_gcnn"
    why = ("The criterion-11 gcnn run users make: small CSR products, "
           "Python overhead and a per-epoch validation pass.")
    sizes = {
        "full": {"graph": ([10] * 5, 0.8, 0.2, 50),
                 "samples": (2048, 512, 512), "order": 5, "features": 16,
                 "arch": {}, "batch": 100, "epochs": 3,
                 "cycle": (8, 1), "min_cycles": 5,
                 "trace": {"epochs": 1, "steps": (4, 10), "evals": 3}},
        "tiny": {"graph": ([4] * 3, 0.8, 0.3, 5),
                 "samples": (64, 32, 32), "order": 2, "features": 4,
                 "arch": {}, "batch": 16, "epochs": 1,
                 "cycle": (2, 1), "min_cycles": 2,
                 "trace": {"epochs": 1, "steps": (1, 3), "evals": 1}},
    }

    def round_trip(self, st):
        """save_model then load_model of the trained model."""
        path = os.path.join(runs_dir(), f"model-{os.getpid()}.json")
        try:
            serialize.save_model(st["trained"], path, shift=st["ds"].S)
            st["loaded"] = serialize.load_model(path, shift=st["ds"].S)
        finally:
            if os.path.exists(path):
                os.remove(path)

    def _evaluate(self, st):
        return gtrain.evaluate(st["loaded"], st["ds"], "test", st["cfg"])

    def checks(self, run, st):
        ds, cfg = st["ds"], st["cfg"]

        def oracle():
            # dense power chain S^k X A_k with the trained parameters
            model = st["trained"]
            layer = model.layers[0]
            xb = ds.X[ds.splits["test"][:cfg.training.batch_size]]
            logits, _ = model.forward(st["ctx"], xb[:, :, None])
            Sd = ds.S.to_dense()
            Z = xb[:, :, None]
            acc = Z @ layer.mixing[0].value
            for A in layer.mixing[1:]:
                Z = Sd @ Z
                acc = acc + Z @ A.value
            H = np.maximum(acc + layer.bias.value, 0.0)
            ref = (H.reshape(len(xb), -1) @ model.readout_w.value
                   + model.readout_b.value)
            err = float(np.max(np.abs(logits.value - ref)))
            return err <= 1e-10, f"forward vs dense oracle: {err:.3e}"

        run.check("dense oracle", oracle)
        ok, trained, _ = run.op("test evaluate", gtrain.evaluate,
                                st["trained"], ds, "test", cfg)
        if ok:
            run.report("test_error", trained[1], "fraction")
            loaded = gtrain.evaluate(st["loaded"], ds, "test", cfg)
            run.check("loaded model evaluates equal", lambda: (
                loaded == trained, f"trained {trained} != loaded {loaded}"))


class LargeSbm(Training):
    """Kernel-bound: SBM N=10k, nnz ~119k, gcnn K=3, F=16, 2 layers, B=16."""

    name = "large_sbm"
    reference = "memory"
    # Not in BENCHMARK.json: a step takes 4-6 s, so a 30 s run holds three
    # or four steps, and even calibrated its medians spread by 16-18% over
    # five seeds (set-up too), from process to process, not within one.
    gated = False
    why = ("Kernel-bound training on an N=10k SBM (nnz ~119k): spmm "
           "dominates the step, and setup carries the O(N^2) graph draw.")
    sizes = {
        "full": {"graph": ([200] * 50, 0.05, 0.0002, 20),
                 "samples": (16, 16, 16), "order": 3, "features": 16,
                 "arch": {"layers": 2, "readout_mode": "mean_pool"},
                 "batch": 16, "epochs": 1, "cycle": (1, 1), "min_cycles": 2,
                 "trace": {"epochs": 1, "steps": (2, 1), "evals": 1}},
        "tiny": {"graph": ([20] * 5, 0.3, 0.02, 5),
                 "samples": (8, 8, 8), "order": 2, "features": 4,
                 "arch": {"layers": 2, "readout_mode": "mean_pool"},
                 "batch": 4, "epochs": 1, "cycle": (1, 1), "min_cycles": 2,
                 "trace": {"epochs": 1, "steps": (2, 1), "evals": 1}},
    }

    def checks(self, run, st):
        S = st["ds"].S
        rng = np.random.default_rng(st["cfg"].seed)
        X = rng.normal(size=(self.size["batch"], S.n_cols,
                             self.size["features"]))

        def spmm_matches():
            got = sparse.spmm(S, X)
            try:
                import scipy.sparse as sp
            except ImportError:
                sp = None
            if sp is not None:
                A = sp.csr_matrix((S.values, S.col_idx, S.row_ptr),
                                  shape=S.shape)
                ref = np.stack([A @ x for x in X])
            else:
                ref = np.zeros_like(got)
                rows = S.entry_rows()
                np.add.at(ref, (slice(None), rows),
                          S.values[:, None] * X[:, S.col_idx, :])
            err = _max_rel(got, ref)
            return err <= 1e-12, f"spmm relative error {err:.3e}"

        run.check("spmm oracle", spmm_matches)


# ---------------------------------------------------------------------------
# family_sweep


class FamilySweep:
    """One training step of each of the nine families per round, then
    forward-only passes, on the desk graph at (B=100, N=50, F=16, K=3)."""

    name = "family_sweep"
    gated = True
    why = ("A training step of all nine layer families plus forward-only "
           "passes: the only user of the attention, pairwise and Jacobi "
           "primitives.")
    unit = "bench.round"
    reference = "interpreter"
    sizes = {
        "full": {"graph": ([10] * 5, 0.8, 0.2, 50),
                 "samples": (2048, 512, 512), "order": 3, "features": 16,
                 "batch": 100, "min_cycles": 10,
                 "trace": {"rounds": (4, 2), "passes": 2}},
        "tiny": {"graph": ([4] * 3, 0.8, 0.3, 5),
                 "samples": (64, 32, 32), "order": 2, "features": 3,
                 "batch": 8, "min_cycles": 2,
                 "trace": {"rounds": (1, 2), "passes": 1}},
    }
    arch = {"n_poles": 2, "jacobi_order": 1, "n_selected": 5}

    def __init__(self, size):
        self.size = self.sizes[size]

    def setup(self, seed):
        cfg = _config(seed, self.size)
        ds = gdata.build_dataset(cfg, _data_rng(seed))
        ctx = ShiftContext(ds.S)
        models = {}
        for family in FAMILIES:
            fcfg = _config(seed, self.size, family=family, **self.arch)
            models[family] = _fresh_model(fcfg, ctx, ds.n_outputs, seed)
        X, y, _ = ds.split_arrays("train")
        return {"ds": ds, "ctx": ctx, "models": models, "X": X, "y": y,
                "seed": seed,
                "batches": _batches(len(X), self.size["batch"], seed)}

    def inputs_digest(self, st):
        return gdata.dataset_hash(st["ds"])

    def _round(self, st, tracer=None):
        sel = next(st["batches"])
        losses = []
        for family, (model, state) in st["models"].items():
            args = (model, st["ctx"], state, st["X"], st["y"], sel)
            if tracer is None or not tracer.active:
                losses.append(train_step(*args))
            else:
                losses.append(tracer.span(f"bench.step.{family}",
                                          train_step, *args))
        return losses

    def _forward_pass(self, st):
        xb = st["X"][next(st["batches"])][:, :, None]
        return [m.forward(st["ctx"], xb)[0] for m, _ in st["models"].values()]

    def measure(self, run, st, budget):
        run.loop([("round", lambda: self._round(st)),
                  ("forward", lambda: self._forward_pass(st))],
                 time.perf_counter() + budget, self.size["min_cycles"])
        run.report_timings("round", "train_step_ms")
        report_step_and_eval(run, "train_step", "forward", self.size["batch"])
        self.checks(run, st)

    def traced(self, tracer, seed):
        with tracer:
            st = tracer.span("bench.setup", self.setup, seed)
        tracer.paired_units(self.unit, self._round,
                            self.size["trace"]["rounds"], st, tracer)
        with tracer:
            for _ in range(self.size["trace"]["passes"]):
                self._forward_pass(st)

    def checks(self, run, st):
        rng = np.random.default_rng(st["seed"])
        g = graphs.sbm_generate([3, 3], 0.9, 0.3, rng)
        small = ShiftContext(graphs.build_shift(g, "max_eigenvalue"))
        for family in FAMILIES:
            def fd_check(family=family):
                cfg = ExperimentConfig.from_dict({
                    "task": "sbm_source_localization",
                    "architecture": {"family": family, "order": 2,
                                     "features": 2, "n_poles": 1,
                                     "jacobi_order": 2, "n_selected": 2,
                                     "readout_mode": "mean_pool"}})
                model = gtrain.build_model(cfg, small, 2)
                init_params(model, rng, shift=small)
                X0 = rng.normal(size=(2, small.n, 1))
                report = gradcheck.finite_difference_check(
                    model, small, X0, labels=np.array([0, 1]))
                return report.passed, report.summary()
            run.check(f"finite differences {family}", fd_check)

        ctx = st["ctx"]
        xb = st["X"][:self.size["batch"]][:, :, None]
        for family in ATTENTION_FAMILIES:
            layer = st["models"][family][0].layers[0]
            heads = ([layer.head] if family in ("gat", "gcat") else
                     layer.heads if family == "ev_gat" else layer.gat.heads)

            def rows_sum_to_one(heads=heads):
                worst = 0.0
                for head in heads:
                    tape = ag.Tape()
                    H = ag.matmul(tape, xb, head.B)
                    scores = ag.edge_score(tape, H, head.e, ctx.pattern,
                                           head.slope)
                    vals = ag.support_softmax(tape, scores, ctx.pattern)
                    sums = np.add.reduceat(vals.value,
                                           ctx.pattern.row_ptr[:-1], axis=-1)
                    worst = max(worst, float(np.max(np.abs(sums - 1.0))))
                return worst <= 1e-12, f"attention row sum off by {worst:.3e}"
            run.check(f"attention rows {family}", rows_sum_to_one)


# ---------------------------------------------------------------------------
# filter_analysis


class FilterAnalysis:
    """Spectrum, basis kernel, rational-filter algebra, vertex-domain
    filters and tape-free attention shifts on an SBM 5x10 (N=50).

    N=50 rather than 100: a round at N=100 takes about 3 s, which leaves
    eight or nine samples in a run, too few for a median that holds from
    run to run (its quartile spread over ten seeds was 11-17%). A round
    at N=50 takes about 0.6 s.
    """

    name = "filter_analysis"
    gated = True
    why = ("Spectral and vertex-domain filter analysis at N=50: the only "
           "workload reaching linalg, spectral, filters and attention.")
    unit = "bench.round"
    reference = "interpreter"
    sizes = {
        "full": {"graph": ([10] * 5, 0.3, 0.02), "signals": 64, "order": 5,
                 "jacobi_order": 3, "features": 4, "heads": 3,
                 "min_cycles": 3, "trace": {"rounds": (6, 1)}},
        "tiny": {"graph": ([6] * 3, 0.6, 0.1), "signals": 8, "order": 3,
                 "jacobi_order": 2, "features": 2, "heads": 2,
                 "min_cycles": 2, "trace": {"rounds": (1, 1)}},
    }

    def __init__(self, size):
        self.size = self.sizes[size]

    def setup(self, seed):
        rng = np.random.default_rng(seed)
        blocks, p_intra, p_inter = self.size["graph"]
        g = graphs.sbm_generate(blocks, p_intra, p_inter, rng)
        S = graphs.build_shift(g, "max_eigenvalue")
        n, f = S.n_rows, self.size["features"]
        # poles outside [-1, 1] (the spectrum of S), so every Jacobi
        # recursion R(gamma) = S / gamma contracts
        p1, p2 = rng.uniform(2.0, 4.0), -rng.uniform(2.0, 4.0)
        rational = filters.ArmaRational(
            a=[-(1.0 / p1 + 1.0 / p2), 1.0 / (p1 * p2)], b=rng.normal(size=3))
        heads = [attention.AttentionHead(rng.normal(size=(f, f)),
                                         rng.normal(size=2 * f))
                 for _ in range(self.size["heads"])]
        return {
            "S": S, "dense": S.to_dense(), "support": sparse.support_mask(S),
            "X": rng.normal(size=(n, self.size["signals"])),
            "F": rng.normal(size=(n, f)),
            "poly": filters.PolynomialFilter(
                rng.uniform(-1, 1, size=self.size["order"] + 1)),
            "rational": rational, "heads": heads,
        }

    def inputs_digest(self, st):
        h = hashlib.sha256()
        for arr in (st["S"].values, st["S"].col_idx, st["X"], st["F"]):
            h.update(np.ascontiguousarray(arr).tobytes())
        return h.hexdigest()

    def jacobi_filter(self, st, order):
        """The rational filter's partial fractions as pole-wise Jacobi
        branches: residue beta over (lambda - gamma) per pole."""
        alphas, poles, residues = filters.partial_fraction_decompose(
            st["rational"])
        return filters.ArmaJacobiFilter(betas=residues.real,
                                        gammas=poles.real, alphas=alphas,
                                        jacobi_order=order)

    def _round(self, st, run=None):
        def clock(key, fn, *args):
            if run is None:
                return fn(*args)
            return run.clocked(key, fn, *args)

        def spectrum():
            eig = linalg.sym_eig(st["dense"])
            lam = eig.eigenvalues
            return (spectral.poly_response(st["poly"].coeffs, lam),
                    spectral.arma_response(st["rational"], lam),
                    spectral.gft(eig.eigenvectors, st["X"]))

        def basis():
            kernel = spectral.build_basis_kernel(st["S"])
            mu = np.ones(kernel.nullity) / max(kernel.nullity, 1)
            return spectral.reconstruct_phi(kernel, mu)[0].values

        S, X = st["S"], st["X"]
        out = [clock("spectrum", spectrum), clock("basis", basis)]
        jf = self.jacobi_filter(st, self.size["jacobi_order"])
        out.append(filters.arma_to_edge_varying(jf, S).order_terms())
        out += clock("signals", lambda: [
            clock("apply", filters.apply_polynomial, st["poly"], S, X),
            clock("apply", filters.apply_arma_jacobi, jf, S, X),
            clock("apply", filters.apply_arma_exact, st["rational"], S, X)])
        head = st["heads"][0]
        out.append(clock("apply", attention.gcat_shift, head, st["F"],
                         st["support"]).matrix.values)
        out += [a.matrix.values for a in clock(
            "apply", attention.edge_varying_gat_shifts, st["heads"], st["F"],
            st["support"])]
        return out

    def measure(self, run, st, budget):
        run.loop([("round", lambda: self._round(st, run))],
                 time.perf_counter() + budget, self.size["min_cycles"])
        run.report_timings("round", "step_ms")
        run.report_timings("spectrum", "spectrum_ms")
        run.report_timings("basis", "basis_kernel_ms")
        run.report_timings("apply", "filter_apply_ms")
        report_step_and_eval(run, "step", "signals", self.size["signals"])
        self.checks(run, st)

    def traced(self, tracer, seed):
        with tracer:
            st = tracer.span("bench.setup", self.setup, seed)
        tracer.paired_units(self.unit, self._round,
                            self.size["trace"]["rounds"], st)

    def checks(self, run, st):
        S, X, rational = st["S"], st["X"], st["rational"]

        def eigenvalues():
            got = linalg.sym_eig(st["dense"]).eigenvalues
            ref = np.linalg.eigh(st["dense"])[0]
            err = float(np.max(np.abs(got - ref)))
            return err <= 1e-10, f"sym_eig differs from eigh by {err:.3e}"

        def jacobi_converges():
            high = filters.apply_arma_jacobi(self.jacobi_filter(st, 80), S, X)
            exact = filters.apply_arma_exact(rational, S, X)
            err = _max_rel(high, exact)
            return err <= 1e-9, f"order-80 Jacobi vs exact: {err:.3e}"

        def partial_fractions():
            alphas, poles, residues = filters.partial_fraction_decompose(
                rational)
            lam = np.linalg.eigh(st["dense"])[0]
            rebuilt = (spectral.poly_response(alphas, lam)
                       + np.sum(residues[None, :]
                                / (lam[:, None] - poles[None, :]), axis=1))
            ref = spectral.arma_response(rational, lam)
            err = _max_rel(rebuilt, ref)
            real = float(np.max(np.abs(np.imag(rebuilt))))
            return (err <= 1e-10 and real <= 1e-10,
                    f"partial fractions vs arma_response: {err:.3e}")

        def edge_varying_form():
            jf = self.jacobi_filter(st, self.size["jacobi_order"])
            ev = filters.arma_to_edge_varying(jf, S).apply(X)
            err = _max_rel(ev, filters.apply_arma_jacobi(jf, S, X))
            return err <= 1e-10, f"edge-varying form vs Jacobi: {err:.3e}"

        def attention_rows():
            shifts = attention.edge_varying_gat_shifts(st["heads"], st["F"],
                                                       st["support"])
            worst = 0.0
            for a in shifts:
                sums = np.add.reduceat(a.matrix.values,
                                       a.matrix.row_ptr[:-1])
                worst = max(worst, float(np.max(np.abs(sums - 1.0))))
            return worst <= 1e-12, f"attention row sum off by {worst:.3e}"

        for what, fn in (("sym_eig vs eigh", eigenvalues),
                         ("Jacobi converges to exact", jacobi_converges),
                         ("partial fractions", partial_fractions),
                         ("edge-varying form", edge_varying_form),
                         ("attention rows", attention_rows)):
            run.check(what, fn)


WORKLOADS = {w.name: w for w in (DeskGcnn, FamilySweep, LargeSbm,
                                 FilterAnalysis)}

