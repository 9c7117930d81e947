"""graphfilt benchmark: four closed-loop workloads, end-to-end and
per-module metrics, and a traced run.

    python3 bench/run.py --workload desk_gcnn --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1   # all four, one process
    python3 bench/run.py --manifest                # rewrite BENCHMARK.json

The library is imported from ``src/`` next to this directory, never from
an installed copy. Output: one ``metric`` line per reported metric, an
``env`` line, coverage and overhead lines for a traced run, and as the
last line one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. With ``--trace 0`` the metrics are the end-to-end ones of
BENCHMARK.json; with ``--trace 1`` they are the per-module ones, from a
fixed amount of traced work that follows a half-length untraced run.
See README.md for the workloads and the metric map.
"""
from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

SETUP_REPEATS = 3
SETUP_SECONDS = 1.0
RUN_SECONDS = 30
COVERAGE_LIMIT = 0.10
MMAP_THRESHOLD = 32 << 20      # glibc's largest allowed value
TRIM_THRESHOLD = 1 << 30

# name, unit, better, bound: the end-to-end metrics every workload reports
# in its result line. Times are calibrated medians (see measure.py); the
# wall-time medians step_ms_p50 and eval_samples_per_s are printed beside.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("step_ms_cal", "ms", "lower", 0.25),
    ("eval_samples_per_s_cal", "samples/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.2),
]


def _pin_environment():
    """Fix the process settings that otherwise make runs disagree.

    BLAS gets one thread: its calls here are small, and a second thread
    stalls whenever the other core is busy. glibc's mmap threshold
    normally moves with the allocation history, so the same multi-MB
    temporary comes from fresh zeroed pages in one process and from
    reused heap in the next; fixing it at 32 MiB, and never trimming the
    heap, gives every process the same policy. Returns the malloc setting.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        os.environ[var] = "1"
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return "default"
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    m_trim_threshold, m_mmap_threshold = -1, -3
    if mallopt(m_mmap_threshold, MMAP_THRESHOLD) and \
            mallopt(m_trim_threshold, TRIM_THRESHOLD):
        return (f"mmap_threshold={MMAP_THRESHOLD} "
                f"trim_threshold={TRIM_THRESHOLD}")
    return "default"


def _import_library():
    """Import graphfilt from this checkout's src/ or exit non-zero."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    sys.path.insert(0, HERE)
    try:
        import graphfilt
    except ImportError as exc:
        print(f"error: cannot import graphfilt from {src}: {exc}",
              file=sys.stderr)
        sys.exit(2)
    if not os.path.abspath(graphfilt.__file__).startswith(src + os.sep):
        print(f"error: graphfilt was imported from {graphfilt.__file__}, "
              f"not from {src}", file=sys.stderr)
        sys.exit(2)


def environment(seed, malloc):
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": len(os.sched_getaffinity(0)), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
            "malloc": malloc, "python": platform.python_version(),
            "commit": git_commit(), "seed": seed}


def git_commit():
    """HEAD of the checkout's git repository, or "unknown" outside one."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs")) as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return "unknown"


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_workload(name, seed, seconds, trace, size="full"):
    """Set up, measure and check one workload; returns its Run, plus the
    per-module metrics when traced."""
    import measure
    import tracer as tracing
    import workloads

    wl = workloads.WORKLOADS[name](size)
    run = measure.Run(name, wl.reference)
    run.pace_reference()
    while (len(run.wall.get("setup", ())) < SETUP_REPEATS
           or sum(run.wall["setup"]) < SETUP_SECONDS):
        state = run.clocked("setup", wl.setup, seed)
        run.pace_reference()
    run.report("setup_s", run.calibrated("setup"), "s")
    run.report("setup_wall_s", statistics.median(run.wall["setup"]), "s")
    run.inputs = wl.inputs_digest(state)
    wl.measure(run, state, seconds / 2 if trace else seconds)
    del state
    per_layer = None
    if trace:
        run_id = f"{name}-s{seed}-{os.getpid()}-{time.time_ns()}"
        tr = tracing.Tracer(run_id)
        wl.traced(tr, seed)
        per_layer = tracing.per_layer_metrics(tr)
        units = tracing.unit_spans(tr, wl.unit)
        untraced = statistics.median(tr.reference_ns) / 1e6
        traced = statistics.median(d for d, _ in units) / 1e6
        covered = statistics.median(c for _, c in units) / 1e6
        per_layer["trace.coverage"] = covered / untraced
        per_layer["trace.overhead_ms"] = traced - untraced
        run.coverage = (untraced, traced, covered)
        path = os.path.join(workloads.runs_dir(),
                            f"spans-{name}-s{seed}.jsonl")
        tr.write(path, {"workload": name, "seed": seed, "size": size})
        run.spans_path = path
    run.report("peak_rss_mb", peak_rss_mb(), "MB")
    run.report("failure_rate", run.failed / max(run.attempted, 1),
               "failed/attempted")
    return run, per_layer


def print_run(run, per_layer):
    for key, (value, unit) in run.metrics.items():
        print(f"metric {run.workload} {key} {value!r} {unit}")
    import numpy as np
    for clock, table in (("cpu", run.samples), ("wall", run.wall)):
        for key, samples in table.items():
            print(f"samples {run.workload} {key} {clock} n={len(samples)} "
                  f"min={1000 * min(samples):.3f} ms "
                  f"p10={1000 * float(np.percentile(samples, 10)):.3f} ms "
                  f"median={1000 * statistics.median(samples):.3f} ms "
                  f"max={1000 * max(samples):.3f} ms")
    print(f"inputs {run.workload} {run.inputs}")
    if per_layer is not None:
        import tracer as tracing
        for key, unit in tracing.per_layer_units():
            print(f"layer {run.workload} {key} {per_layer[key]!r} {unit}")
        untraced, traced, covered = run.coverage
        shortfall = 1.0 - covered / untraced
        verdict = "PASS" if abs(shortfall) <= COVERAGE_LIMIT else "FAIL"
        print(f"coverage {run.workload} {verdict}: module self times "
              f"{covered:.3f} ms per step vs untraced step median "
              f"{untraced:.3f} ms, shortfall {100 * shortfall:.1f}%")
        print(f"overhead {run.workload}: traced step {traced:.3f} ms minus "
              f"untraced {untraced:.3f} ms = {traced - untraced:.3f} ms "
              f"({100 * (traced / untraced - 1):.1f}%)")
        print(f"spans {run.workload} {run.spans_path}")


def manifest():
    import tracer as tracing
    import workloads
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why}
                      for w in workloads.WORKLOADS.values() if w.gated],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": _better(n)}
                      for n, u in tracing.per_layer_units()],
    }


def _better(name):
    if name in ("trace.coverage", "autograd.useful_record_ratio"):
        return "higher"
    return "lower"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--manifest", action="store_true",
                        help="write BENCHMARK.json and exit")
    args = parser.parse_args(argv)
    malloc = _pin_environment()
    _import_library()
    import tracer as tracing
    import workloads

    if args.manifest:
        with open(os.path.join(ROOT, "BENCHMARK.json"), "w") as fh:
            json.dump(manifest(), fh, indent=2)
            fh.write("\n")
        return 0
    if args.workload == "all":
        # ascending memory, since peak RSS is a process-wide high-water mark
        names = ["desk_gcnn", "family_sweep", "filter_analysis", "large_sbm"]
    elif args.workload in workloads.WORKLOADS:
        names = [args.workload]
    else:
        parser.error(f"unknown workload {args.workload!r}")

    print("env " + json.dumps(environment(args.seed, malloc)))
    attempted = failed = 0
    metrics = {}
    for name in names:
        run, per_layer = run_workload(name, args.seed, args.seconds,
                                      args.trace, args.size)
        print_run(run, per_layer)
        attempted += run.attempted
        failed += run.failed
        if per_layer is not None:
            chosen = {n: (per_layer[n], u)
                      for n, u in tracing.per_layer_units()}
        else:
            chosen = {n: run.metrics[n] for n, _, _, _ in END_TO_END}
        prefix = "" if len(names) == 1 else f"{name}."
        metrics.update({prefix + k: {"value": v, "unit": u}
                        for k, (v, u) in chosen.items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
