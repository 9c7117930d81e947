"""The benchmark's tracer (bench/tracer.py) binds library functions,
methods and tape primitives by name. Every one must resolve, or the
benchmark breaks; this checks that from the library's own tests, by
installing and uninstalling a tracer."""
import importlib
import importlib.util
import os

import pytest

TRACER_PATH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "bench", "tracer.py")


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_bound_name_resolves(tracing):
    for module_name, attr, _ in tracing._FUNCTIONS:
        owner, key = tracing._resolve(module_name, attr)
        assert key in vars(owner), f"{module_name}.{attr}"
    autograd = importlib.import_module("graphfilt.nn.autograd")
    layers = importlib.import_module("graphfilt.nn.layers")
    for prim in tracing.PRIMITIVES:
        assert callable(getattr(autograd, prim, None)), prim
    for cls_name in list(tracing.FAMILY_OF_LAYER) + ["GcatLayer"]:
        assert "forward" in vars(getattr(layers, cls_name)), cls_name
    assert "record" in vars(autograd.Tape)


def test_install_then_uninstall_restores_every_binding(tracing):
    tracer = tracing.Tracer("bindings")
    with tracer:  # uninstalls on leaving, also when install fails
        bound = list(tracer._restore)
        assert tracer.active and bound
        for owner, attr, original in bound:
            assert vars(owner)[attr] is not original, attr
    assert not tracer.active
    for owner, attr, original in bound:
        assert vars(owner)[attr] is original, attr
