"""The benchmark's tracer wraps package functions by name; a deleted or
renamed one must fail here, not only in a traced benchmark run."""

import importlib.util
import pathlib
import sys

from orbitforge import group_core as gc

TRACING_PATH = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING_PATH)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_tracer_finds_every_wrapped_name(monkeypatch):
    tracer = _tracing(monkeypatch).Tracer()
    original = gc.cyclic
    try:
        tracer.install()
        assert gc.cyclic is not original
        assert gc.cyclic(4).order == 4
        assert tracer.calls["group_core.constructors"] == 1
    finally:
        tracer.uninstall()
    assert gc.cyclic is original
