"""The benchmark's tracer wraps named public functions; they must keep existing."""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACE_CHILD = Path(__file__).resolve().parent.parent / "bench" / "trace_child.py"


def test_traced_names_are_module_level_callables(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)   # leave bench/ untouched
    spec = importlib.util.spec_from_file_location("trace_child", TRACE_CHILD)
    trace_child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(trace_child)
    assert trace_child.TRACED
    for layer, names in trace_child.TRACED.items():
        module = importlib.import_module(f"morreyheat.{layer}")
        for name in names:
            assert callable(vars(module).get(name)), f"morreyheat.{layer}.{name}"
