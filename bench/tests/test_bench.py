"""Tests of the benchmark itself, at tiny sizes.

Run from the repository root: ``python3 -m pytest bench/tests -q``.
"""
import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH)

import measure  # noqa: E402
import run as bench  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

NAMES = sorted(workloads.WORKLOADS)
END_TO_END = [name for name, _, _, _ in bench.END_TO_END]


def tiny(name, seed=1, trace=0):
    return bench.run_workload(name, seed, 0.2, trace, size="tiny")


@pytest.mark.parametrize("name", NAMES)
def test_tiny_smoke_run(name):
    run, per_layer = tiny(name)
    assert per_layer is None
    assert run.failed == 0 and run.attempted > 0
    for metric in END_TO_END:
        assert run.metrics[metric][0] > 0, metric


@pytest.mark.parametrize("name", NAMES)
def test_traced_counts_repeat_for_a_seed(name):
    first, layers_1 = tiny(name, seed=3, trace=1)
    second, layers_2 = tiny(name, seed=3, trace=1)
    assert first.failed == 0 and second.failed == 0
    for key in ("autograd.records_per_step", "sparse.spmm.calls",
                "layers.ShiftContext.calls", "train.evaluate.calls",
                "trace.spans"):
        assert layers_1[key] == layers_2[key], key
    if name == "desk_gcnn":
        assert first.metrics["test_error"] == second.metrics["test_error"]
    assert set(layers_1) == {n for n, _ in tracing.per_layer_units()}


def test_training_workloads_trace_module_calls():
    _, layers = tiny("desk_gcnn", trace=1)
    assert layers["sparse.spmm.calls"] > 0
    assert layers["layers.ShiftContext.calls"] > 0
    assert 0 < layers["autograd.useful_record_ratio"] < 1
    assert layers["autograd.spmm_const.calls"] > 0


def test_tracer_restores_every_binding():
    import graphfilt.sparse as sparse
    from graphfilt.nn import autograd, layers
    originals = (sparse.spmm, autograd.spmm, autograd.matmul,
                 layers.ShiftContext.__init__, autograd.Tape.record,
                 workloads.gtrain.evaluate)
    with tracing.Tracer("restore-test") as tr:
        assert autograd.spmm is not originals[1]
        assert workloads.gtrain.evaluate is not originals[5]
    assert tr.spans == []
    assert (sparse.spmm, autograd.spmm, autograd.matmul,
            layers.ShiftContext.__init__, autograd.Tape.record,
            workloads.gtrain.evaluate) == originals


def test_self_time_subtracts_children():
    tr = tracing.Tracer("self-time")
    tr.span("outer", lambda: tr.span("inner", lambda: sum(range(10000))))
    (_, parent_o, s_o, e_o), (_, parent_i, s_i, e_i) = tr.spans
    assert parent_o == -1 and parent_i == 0
    assert tr.self_times_ns() == [(e_o - s_o) - (e_i - s_i), e_i - s_i]


def test_calibration_cancels_machine_speed():
    run = measure.Run("synthetic")
    nominal = run.reference_ms / 1000.0
    for k in range(200):             # the machine halves its speed at 10 s
        slow = 2.0 if k >= 100 else 1.0
        run.add_sample("reference", (nominal * slow, nominal * slow, 0.1 * k))
        run.add_sample("op", (0.01 * slow, 0.01 * slow, 0.1 * k + 0.05))
    assert run.calibrated("op") == pytest.approx(0.01)
    assert measure.p50(run.samples["op"]) == pytest.approx(0.015)


@pytest.mark.parametrize("name", NAMES)
def test_seed_determines_inputs(name):
    wl = workloads.WORKLOADS[name]("tiny")
    one = wl.inputs_digest(wl.setup(1))
    assert wl.inputs_digest(wl.setup(1)) == one
    assert wl.inputs_digest(wl.setup(2)) != one


def test_manifest_matches_committed_file():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        assert json.load(fh) == bench.manifest()


def _cli(args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join("bench", "run.py"),
                           *args], cwd=cwd, capture_output=True, text=True,
                          timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
def test_last_line_is_the_result_object(trace):
    out = _cli(["--workload", "filter_analysis", "--seed", "2",
                "--seconds", "0.2", "--trace", str(trace), "--size", "tiny"])
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    expected = (END_TO_END if trace == 0 else
                [n for n, _ in tracing.per_layer_units()])
    assert list(result["metrics"]) == expected


def test_fails_without_the_library(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("runs", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    out = _cli(["--workload", "desk_gcnn", "--seed", "1", "--seconds", "1",
                "--trace", "0"], cwd=tmp_path)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
