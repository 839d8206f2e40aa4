"""The traced benchmark run (`benchmarks/run.py --trace 1`) swaps the functions
listed in `benchmarks/spans.TRACED` for timing wrappers by module attribute.
A function moved or renamed in the package must not silently drop out."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "benchmarks" / "spans.py"


def test_traced_functions_resolve():
    spec = importlib.util.spec_from_file_location("benchmark_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [
        f"ontosem.{module}.{function}"
        for module, functions in spans.TRACED.items()
        for function in functions
        if not callable(getattr(importlib.import_module(f"ontosem.{module}"), function, None))
    ]
    assert missing == []
