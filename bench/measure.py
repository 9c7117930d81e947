"""Closed-loop timing, operation accounting and summary statistics.

Every timed operation is clocked twice: by the process's CPU time and by
wall time. The benchmark is one thread in one process (BLAS included), so
its CPU time is the time it computed; unlike wall time, it leaves out the
time the process waited for a CPU, whether for another process on its
core or for the host running another virtual machine there (the kernel's
steal-time accounting takes that out).

CPU time is not enough on a shared machine. Other tenants on the same
physical cores and caches make the same call's CPU time drift by up to
1.7x, in stretches of seconds to minutes; on a 2-core virtual machine the
median step of two same-seed processes differed by 30%. So the loop also
times a fixed piece of reference work that does not use the library,
about once per ``REFERENCE_PERIOD`` seconds of the run. Each sample is
divided by the median of the reference calls nearest to it in time,
which ran on the machine in the same state, and the gated metrics are
medians of these ratios, scaled by the reference's nominal time: a
*calibrated* time is the time the call would take on a machine that runs
the reference in its nominal time. The reference is bound by what the
workload is bound by (``REFERENCES``): interpreted Python on small
arrays, or memory bandwidth. Raw wall-time and CPU-time medians are
printed beside the calibrated ones.

Every timed operation and every correctness check is one attempted
operation. An operation fails when it raises, returns a non-finite
value, or fails its check; failures are counted, reported on stderr with
their traceback, and never stop the run.
"""
from __future__ import annotations

import bisect
import math
import statistics
import sys
import time
import traceback

import numpy as np

REFERENCE_PERIOD = 0.1   # wall seconds of run per reference call
REFERENCE_BACKLOG = 10   # most reference calls made in a row
REFERENCE_WINDOW = 3     # reference calls on each side that scale a sample
_REF_RNG = np.random.default_rng(0)
_REF_U, _REF_V = _REF_RNG.normal(size=50), _REF_RNG.normal(size=50)
_REF_STREAM = []


def interpreter_work():
    """Interpreted Python and numpy calls on short vectors (the rotations
    of a Jacobi sweep): what most of the library's time is made of."""
    s = 0
    for i in range(30000):
        s += i * i
    a, b = _REF_U.copy(), _REF_V.copy()
    for _ in range(600):
        a, b = 0.8 * a - 0.6 * b, 0.6 * a + 0.8 * b
    return s, a


def memory_work():
    """Three passes over a 16 MiB array into another: bound by memory
    bandwidth, like a sparse product on a 10k-node graph."""
    if not _REF_STREAM:
        src = _REF_RNG.normal(size=2 << 20)
        _REF_STREAM.extend((src, np.empty_like(src)))
    src, dst = _REF_STREAM
    for _ in range(3):
        np.multiply(src, 1.0001, out=dst)
    return dst[0]


# reference kind -> (work, nominal CPU ms: about its time on a quiet core
# of a 2.1 GHz Xeon)
REFERENCES = {"interpreter": (interpreter_work, 4.0),
              "memory": (memory_work, 10.0)}


def finite(value):
    """True when every number reachable in value is finite."""
    if value is None:
        return True
    if isinstance(value, (tuple, list)):
        return all(finite(v) for v in value)
    if hasattr(value, "value") and isinstance(value.value, np.ndarray):
        value = value.value           # an autograd Tensor
    if isinstance(value, np.ndarray):
        return value.dtype.kind not in "fc" or bool(np.all(np.isfinite(value)))
    if isinstance(value, (float, int, np.floating, np.integer)):
        return math.isfinite(value)
    return True


def p50(samples):
    return float(statistics.median(samples))


def p90(samples):
    return float(np.percentile(samples, 90))


class Run:
    """Operation counters, timing samples and reported metrics of one run."""

    def __init__(self, workload, reference="interpreter"):
        self.workload = workload
        self.reference = reference
        self._reference_work, self.reference_ms = REFERENCES[reference]
        self._reference_work()       # warm: first-touch pages, caches
        self.attempted = 0
        self.failed = 0
        self.samples = {}            # sample key -> list of CPU seconds
        self.wall = {}               # sample key -> list of wall seconds
        self.at = {}                 # sample key -> list of wall midpoints
        self.metrics = {}            # metric name -> (value, unit)
        self.inputs = None           # digest of the generated inputs
        self.coverage = None         # traced runs: (untraced, traced, covered)
        self.spans_path = None
        self._reference_due = None

    def fail(self, what, detail):
        self.failed += 1
        print(f"FAILED {self.workload} {what}: {detail}", file=sys.stderr)

    def op(self, what, fn, *args):
        """Run one operation; returns (ok, result, (cpu s, wall s, start))."""
        self.attempted += 1
        t0, w0 = time.process_time(), time.perf_counter()
        try:
            out = fn(*args)
        except Exception:  # a failing operation is counted, not fatal
            self.fail(what, traceback.format_exc())
            return False, None, None
        dt = (time.process_time() - t0, time.perf_counter() - w0, w0)
        if not finite(out):
            self.fail(what, "non-finite result")
            return False, out, dt
        return True, out, dt

    def add_sample(self, key, dt):
        cpu, wall, start = dt
        self.samples.setdefault(key, []).append(cpu)
        self.wall.setdefault(key, []).append(wall)
        self.at.setdefault(key, []).append(start + wall / 2)

    def clocked(self, key, fn, *args):
        """Call fn and add its duration to the ``key`` samples, without
        counting it as an operation of its own."""
        t0, w0 = time.process_time(), time.perf_counter()
        out = fn(*args)
        self.add_sample(key, (time.process_time() - t0,
                              time.perf_counter() - w0, w0))
        return out

    def timed(self, key, fn, *args):
        """One timed operation whose duration joins the ``key`` samples."""
        ok, out, dt = self.op(key, fn, *args)
        if ok:
            self.add_sample(key, dt)
        return ok, out

    def pace_reference(self):
        """Time the reference work once per ``REFERENCE_PERIOD`` of wall
        time since the last call, at most ``REFERENCE_BACKLOG`` in a row;
        called between operations."""
        now = time.perf_counter()
        if self._reference_due is None:
            self._reference_due = now
        self._reference_due = max(self._reference_due,
                                  now - REFERENCE_BACKLOG * REFERENCE_PERIOD)
        while time.perf_counter() >= self._reference_due:
            self.clocked("reference", self._reference_work)
            self._reference_due += REFERENCE_PERIOD

    def loop(self, cycle, until, min_cycles):
        """Closed loop over a cycle of (sample key, operation) pairs: each
        call starts only when the previous one has returned. Interleaving
        the operations spreads every key's samples over the whole run, so
        a slow stretch of the machine weighs the same on each of them."""
        count = 0
        self.pace_reference()
        while count < min_cycles or time.perf_counter() < until:
            for key, fn in cycle:
                self.timed(key, fn)
                self.pace_reference()
            count += 1

    def calibrated(self, key):
        """Median calibrated CPU time of the ``key`` samples, in seconds:
        each sample over the median of the ``REFERENCE_WINDOW`` reference
        calls on either side of it, times the reference's nominal time."""
        ref_at, ref_cpu = self.at["reference"], self.samples["reference"]
        ratios = []
        for at, cpu in zip(self.at[key], self.samples[key]):
            i = bisect.bisect_left(ref_at, at)
            near = ref_cpu[max(0, i - REFERENCE_WINDOW):i + REFERENCE_WINDOW]
            ratios.append(cpu / statistics.median(near))
        return self.reference_ms / 1000.0 * p50(ratios)

    def check(self, what, fn, *args):
        """A correctness check outside the timed regions: fn returns
        (passed, detail)."""
        ok, out, _ = self.op(what, fn, *args)
        if ok:
            passed, detail = out
            if not passed:
                self.fail(what, detail)

    def report(self, name, value, unit):
        self.metrics[name] = (float(value), unit)

    def report_timings(self, key, prefix):
        """``<prefix>_p50``: the wall-time median in ms, plus ``_p90`` when
        at least ten samples lie beyond it; ``<prefix>_cpu``: the same by
        CPU time; and ``<prefix>_cal``, the median calibrated time
        (``prefix`` ends in ``_ms``)."""
        for name, samples in ((prefix, self.wall[key]),
                              (f"{prefix}_cpu", self.samples[key])):
            self.report(f"{name}_p50", 1000.0 * p50(samples), "ms")
            if len(samples) >= 100:
                self.report(f"{name}_p90", 1000.0 * p90(samples), "ms")
        self.report(f"{prefix}_cal", 1000.0 * self.calibrated(key), "ms")
