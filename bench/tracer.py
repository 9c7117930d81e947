"""Timing spans around the library's public functions, from outside it.

A ``Tracer`` wraps each listed function or method in a span that records
its name, start, end and parent span; all spans of one run share the run
id. Spans stay in memory and are written out when the run ends. A span's
self time is its duration minus the durations of its direct children
(calls are strictly nested, the library being single-threaded).

Functions are rebound at every import site, not only in the defining
module: ``graphfilt.nn.autograd.spmm`` is the same object as
``graphfilt.sparse.spmm`` and the backward closures look it up there, and
``graphfilt.harness.train`` calls its own imported ``evaluate``. Methods
are patched on their class, which every caller shares. ``uninstall``
restores every original binding.
"""
from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict

# (module, attribute or Class.method, span name)
_FUNCTIONS = [
    ("graphfilt.graphs", "sbm_generate", "graphs.sbm_generate"),
    ("graphfilt.graphs", "build_shift", "graphs.build_shift"),
    ("graphfilt.harness.data", "build_dataset", "data.build_dataset"),
    ("graphfilt.sparse", "spmm", "sparse.spmm"),
    ("graphfilt.sparse", "spmv", "sparse.spmv"),
    ("graphfilt.sparse", "SparseMatrix.__init__", "sparse.SparseMatrix"),
    ("graphfilt.nn.layers", "ShiftContext.__init__", "layers.ShiftContext"),
    ("graphfilt.nn.layers", "Model.post_update", "layers.post_update"),
    ("graphfilt.nn.autograd", "Tape.backward", "autograd.Tape.backward"),
    ("graphfilt.nn.functional", "cross_entropy", "functional.cross_entropy"),
    ("graphfilt.nn.optim", "adam_step", "optim.adam_step"),
    ("graphfilt.harness.train", "train", "train.train"),
    ("graphfilt.harness.train", "evaluate", "train.evaluate"),
    ("graphfilt.nn.serialize", "save_model", "serialize.save_model"),
    ("graphfilt.nn.serialize", "load_model", "serialize.load_model"),
    ("graphfilt.linalg", "sym_eig", "linalg.sym_eig"),
    ("graphfilt.linalg", "null_space_basis", "linalg.null_space_basis"),
    ("graphfilt.linalg", "poly_roots", "linalg.poly_roots"),
    ("graphfilt.spectral", "build_basis_kernel",
     "spectral.build_basis_kernel"),
    ("graphfilt.spectral", "reconstruct_phi", "spectral.reconstruct_phi"),
    ("graphfilt.spectral", "poly_response", "spectral.poly_response"),
    ("graphfilt.spectral", "arma_response", "spectral.arma_response"),
    ("graphfilt.spectral", "gft", "spectral.gft"),
    ("graphfilt.filters", "apply_polynomial", "filters.apply_polynomial"),
    ("graphfilt.filters", "apply_arma_jacobi", "filters.apply_arma_jacobi"),
    ("graphfilt.filters", "apply_arma_exact", "filters.apply_arma_exact"),
    ("graphfilt.filters", "partial_fraction_decompose",
     "filters.partial_fraction_decompose"),
    ("graphfilt.filters", "arma_to_edge_varying",
     "filters.arma_to_edge_varying"),
    ("graphfilt.attention", "gcat_shift", "attention.gcat_shift"),
    ("graphfilt.attention", "edge_varying_gat_shifts",
     "attention.edge_varying_gat_shifts"),
]

# every tape primitive, so that a training step is covered end to end
PRIMITIVES = [
    "add", "sub", "mul", "scale", "reciprocal", "matmul", "reshape",
    "expand_last", "sum_axis", "take_index", "gather_rows", "scatter_rows",
    "activation", "block_mix", "jacobi_shift_values", "spmm_const",
    "spmm_values", "spmm_pairwise", "edge_score", "support_softmax",
]

# layer class -> the family name the harness config uses
FAMILY_OF_LAYER = {
    "PolynomialLayer": "gcnn", "EdgeVaryingLayer": "edge_varying",
    "BlockVaryingLayer": "block_varying", "HybridLayer": "hybrid",
    "ArmaLayer": "arma", "EdgeVaryingGatLayer": "ev_gat",
    "HybridGcatLayer": "hybrid_gcat",
}


def _resolve(module_name, attr):
    owner = importlib.import_module(module_name)
    if "." in attr:
        cls_name, meth = attr.split(".")
        owner = getattr(owner, cls_name)
        attr = meth
    return owner, attr


class Tracer:
    """In-memory span recorder plus the counters measured at the same
    boundaries: spmm bytes computed, tape records made and replayed, and
    primitive output bytes."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []          # [name, parent, start_ns, end_ns]
        self.spmm_bytes = 0          # gathered entries x columns x 8
        self.records_made = 0
        self.records_replayed = 0
        self.units = 0               # steps or rounds traced
        self.unit_records = 0        # tape records made inside them
        self.unit_out_bytes = 0      # primitive output bytes inside them
        self.reference_ns = []       # untraced runs paired with the units
        self._in_unit = False
        self._stack = []
        self._restore = []

    # -- spans -------------------------------------------------------------

    def call(self, name, fn, args, kwargs):
        sid = len(self.spans)
        span = [name, self._stack[-1] if self._stack else -1, 0, 0]
        self.spans.append(span)
        self._stack.append(sid)
        span[2] = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            span[3] = time.perf_counter_ns()
            self._stack.pop()

    def span(self, name, fn, *args):
        """Run fn inside a span of the benchmark's own."""
        return self.call(name, fn, args, {})

    def unit(self, name, fn, *args):
        """Run one unit of work (a training step, a round) in a span; the
        per-step counters and the coverage check count these."""
        self.units += 1
        self._in_unit = True
        try:
            return self.call(name, fn, args, {})
        finally:
            self._in_unit = False

    @property
    def active(self):
        """True while the wrappers are installed."""
        return bool(self._restore)

    def paired_units(self, name, fn, blocks, *args):
        """Alternate untraced and traced blocks of calls to fn; ``blocks``
        is (number of blocks, calls per block). The tracer is installed
        only for the traced blocks, whose calls are units. The untraced
        durations are the reference that coverage and overhead compare
        against, so both halves see the same stretch of the machine's
        speed. Call with the tracer uninstalled."""
        count, size = blocks
        for _ in range(count):
            for _ in range(size):
                t0 = time.perf_counter_ns()
                fn(*args)
                self.reference_ns.append(time.perf_counter_ns() - t0)
            with self:
                for _ in range(size):
                    self.unit(name, fn, *args)

    def _current(self):
        return self.spans[self._stack[-1]][0] if self._stack else ""

    # -- installation --------------------------------------------------------

    def _wrap(self, name, fn, counter=None):
        call = self.call

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            out = call(name, fn, args, kwargs)
            if counter is not None:
                counter(args, out)
            return out
        return traced

    def _bind(self, owner, attr, new):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _rebind_everywhere(self, original, new):
        """Replace ``original`` in every loaded graphfilt module."""
        for mod_name, mod in list(sys.modules.items()):
            if not mod_name.startswith("graphfilt") or mod is None:
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._bind(mod, attr, new)

    def install(self):
        """Wrap every listed function; call ``uninstall`` to undo."""
        import graphfilt  # noqa: F401  (loads every module to rebind)
        from graphfilt.nn import autograd, layers

        def count_spmm(args, out):
            S, X = args[0], args[1]
            self.spmm_bytes += 8 * S.nnz * (X.size // X.shape[-2])

        def count_out(args, out):
            if self._in_unit:
                self.unit_out_bytes += out.value.nbytes

        for module_name, attr, name in _FUNCTIONS:
            owner, key = _resolve(module_name, attr)
            original = owner.__dict__[key]
            new = self._wrap(name, original,
                             count_spmm if name == "sparse.spmm" else None)
            if isinstance(owner, type):
                self._bind(owner, key, new)
            else:
                self._rebind_everywhere(original, new)
        for prim in PRIMITIVES:
            original = getattr(autograd, prim)
            self._rebind_everywhere(
                original, self._wrap(f"autograd.{prim}", original, count_out))
        for cls_name, family in FAMILY_OF_LAYER.items():
            cls = getattr(layers, cls_name)
            self._bind(cls, "forward", self._wrap(
                f"layers.{family}.forward", cls.__dict__["forward"]))
        # GcatLayer serves both "gat" (no order-0 term) and "gcat"
        gcat_forward = layers.GcatLayer.__dict__["forward"]
        gat = self._wrap("layers.gat.forward", gcat_forward)
        gcat = self._wrap("layers.gcat.forward", gcat_forward)

        def gcat_or_gat(layer, *args):
            return (gcat if layer.include_k0 else gat)(layer, *args)
        self._bind(layers.GcatLayer, "forward", gcat_or_gat)

        record = autograd.Tape.__dict__["record"]

        def traced_record(tape, fn):
            """Run the closure in a span named after the primitive that
            recorded it, and count records made and replayed."""
            self.records_made += 1
            self.unit_records += self._in_unit
            name = self._current() + ".backward"

            def replay():
                self.records_replayed += 1
                return self.call(name, fn, (), {})
            return record(tape, replay)
        self._bind(autograd.Tape, "record", traced_record)

    def uninstall(self):
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def __enter__(self):
        try:
            self.install()
        except BaseException:
            self.uninstall()
            raise
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- analysis ------------------------------------------------------------

    def self_times_ns(self):
        """Self time of every span: its duration minus its children's."""
        own = [s[3] - s[2] for s in self.spans]
        for name, parent, start, end in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def write(self, path, meta):
        """A JSON header line, then one [name, parent, start, end] per span."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"run_id": self.run_id, **meta}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


# ---------------------------------------------------------------------------
# per-module metrics

FAMILIES = ("gcnn", "edge_varying", "block_varying", "hybrid", "arma",
            "gat", "gcat", "ev_gat", "hybrid_gcat")
LISTED_PRIMITIVES = ("spmm_const", "spmm_values", "spmm_pairwise",
                     "edge_score", "support_softmax", "block_mix",
                     "jacobi_shift_values", "matmul", "add", "mul",
                     "activation")
def per_layer_units():
    """Every per-module metric name with its unit, in report order."""
    out = [("graphs.sbm_generate.ms", "ms"), ("graphs.build_shift.ms", "ms"),
           ("data.build_dataset.ms", "ms"),
           ("sparse.spmm.self_ms", "ms"), ("sparse.spmm.calls", "count"),
           ("sparse.spmm.bytes_computed", "bytes"),
           ("sparse.spmv.self_ms", "ms"),
           ("sparse.SparseMatrix.init_ms", "ms"),
           ("sparse.SparseMatrix.calls", "count"),
           ("layers.ShiftContext.ms", "ms"),
           ("layers.ShiftContext.calls", "count"),
           ("layers.post_update.ms", "ms")]
    for fam in FAMILIES:
        out += [(f"layers.{fam}.forward_ms", "ms"),
                (f"layers.{fam}.forward_total_ms", "ms"),
                (f"layers.{fam}.backward_total_ms", "ms")]
    for prim in LISTED_PRIMITIVES:
        out += [(f"autograd.{prim}.self_ms", "ms"),
                (f"autograd.{prim}.calls", "count")]
    out += [("autograd.other.self_ms", "ms"),
            ("autograd.Tape.backward.ms", "ms"),
            ("autograd.Tape.backward.total_ms", "ms"),
            ("autograd.records_per_step", "count"),
            ("autograd.out_bytes_per_step", "bytes"),
            ("autograd.useful_record_ratio", "ratio"),
            ("functional.cross_entropy.ms", "ms"),
            ("optim.adam_step.ms", "ms"),
            ("train.train.ms", "ms"), ("train.evaluate.ms", "ms"),
            ("train.evaluate.calls", "count"),
            ("serialize.save_model.ms", "ms"),
            ("serialize.load_model.ms", "ms"),
            ("linalg.sym_eig.ms", "ms"), ("linalg.null_space_basis.ms", "ms"),
            ("linalg.poly_roots.ms", "ms"),
            ("spectral.build_basis_kernel.self_ms", "ms"),
            ("spectral.reconstruct_phi.ms", "ms"),
            ("spectral.poly_response.ms", "ms"),
            ("spectral.arma_response.ms", "ms"), ("spectral.gft.ms", "ms")]
    out += [(f"filters.{f}.ms", "ms") for f in (
        "apply_polynomial", "apply_arma_jacobi", "apply_arma_exact",
        "partial_fraction_decompose", "arma_to_edge_varying")]
    out += [("attention.gcat_shift.ms", "ms"),
            ("attention.edge_varying_gat_shifts.ms", "ms"),
            ("trace.coverage", "ratio"), ("trace.overhead_ms", "ms"),
            ("trace.spans", "count")]
    return out


def unit_spans(tracer, unit_name):
    """(duration, module time) in ns of every traced unit span.

    Module time is the summed self time of the library spans inside the
    unit, leaving out the benchmark's own spans (``bench.*``).
    """
    own = tracer.self_times_ns()
    spans = tracer.spans
    unit_of = [-1] * len(spans)
    for i, (name, parent, _, _) in enumerate(spans):
        if name == unit_name:
            unit_of[i] = i
        elif parent >= 0:
            unit_of[i] = unit_of[parent]
    module = defaultdict(int)
    for i, (name, _, _, _) in enumerate(spans):
        if unit_of[i] >= 0 and not name.startswith("bench."):
            module[unit_of[i]] += own[i]
    return [(spans[i][3] - spans[i][2], module[i])
            for i in range(len(spans)) if spans[i][0] == unit_name]


def per_layer_metrics(tracer):
    """Per-module metrics of a traced run, ms totals over its fixed work.

    The ``trace.*`` entries need the untraced run and are filled by the
    caller.
    """
    own = tracer.self_times_ns()
    self_ns, total_ns = defaultdict(int), defaultdict(int)
    calls, backward_ns = defaultdict(int), defaultdict(int)
    for i, (name, parent, start, end) in enumerate(tracer.spans):
        self_ns[name] += own[i]
        total_ns[name] += end - start
        calls[name] += 1
        if name == "autograd.Tape.backward" and parent >= 0:
            backward_ns[tracer.spans[parent][0]] += end - start

    def ms(ns):
        return ns / 1e6

    m = {name: ms(self_ns[name[:-3]]) for name, _ in per_layer_units()
         if name.endswith(".ms")}
    m.update({
        "sparse.spmm.self_ms": ms(self_ns["sparse.spmm"]),
        "sparse.spmm.calls": calls["sparse.spmm"],
        "sparse.spmm.bytes_computed": tracer.spmm_bytes,
        "sparse.spmv.self_ms": ms(self_ns["sparse.spmv"]),
        "sparse.SparseMatrix.init_ms": ms(self_ns["sparse.SparseMatrix"]),
        "sparse.SparseMatrix.calls": calls["sparse.SparseMatrix"],
        "train.evaluate.calls": calls["train.evaluate"],
        "layers.ShiftContext.calls": calls["layers.ShiftContext"],
        "spectral.build_basis_kernel.self_ms":
            ms(self_ns["spectral.build_basis_kernel"]),
        "autograd.Tape.backward.total_ms":
            ms(total_ns["autograd.Tape.backward"]),
        "autograd.records_per_step":
            tracer.unit_records / max(tracer.units, 1),
        "autograd.out_bytes_per_step":
            tracer.unit_out_bytes / max(tracer.units, 1),
        "autograd.useful_record_ratio":
            tracer.records_replayed / max(tracer.records_made, 1),
        "trace.spans": len(tracer.spans),
    })
    for fam in FAMILIES:
        span = f"layers.{fam}.forward"
        m[f"{span}_ms"] = ms(self_ns[span])
        m[f"{span}_total_ms"] = ms(total_ns[span])
        m[f"layers.{fam}.backward_total_ms"] = ms(
            backward_ns[f"bench.step.{fam}"])
    other = 0
    for prim in PRIMITIVES:
        prim_ns = (self_ns[f"autograd.{prim}"]
                   + self_ns[f"autograd.{prim}.backward"])
        if prim in LISTED_PRIMITIVES:
            m[f"autograd.{prim}.self_ms"] = ms(prim_ns)
            m[f"autograd.{prim}.calls"] = calls[f"autograd.{prim}"]
        else:
            other += prim_ns
    m["autograd.other.self_ms"] = ms(other)
    return m
