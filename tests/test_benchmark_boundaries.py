"""The benchmark's traced run wraps package functions by name; they must exist."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_every_traced_boundary_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [f"{module}.{name}" for module, name, _ in tracing.BOUNDARIES
               if not callable(getattr(importlib.import_module(module), name, None))]
    assert tracing.BOUNDARIES and missing == []
