"""The benchmark reaches the package by module attribute: the traced run
(`benchmarks/run.py --trace 1`) swaps the functions listed in
`benchmarks/spans.TRACED` for timing wrappers, and `benchmarks/run.py` calls
`P.<module>.<name>`, with `P.<module>` the module `ontosem.<module>`. A name
moved, renamed or deleted in the package must not silently drop out of, or
break, the benchmark."""

import importlib
import importlib.util
import re
from pathlib import Path

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


def test_traced_functions_resolve():
    spec = importlib.util.spec_from_file_location("benchmark_spans", BENCHMARKS / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [
        f"ontosem.{module}.{function}"
        for module, functions in spans.TRACED.items()
        for function in functions
        if not callable(getattr(importlib.import_module(f"ontosem.{module}"), function, None))
    ]
    assert missing == []


def test_names_the_benchmark_calls_resolve():
    text = (BENCHMARKS / "run.py").read_text(encoding="utf-8")
    named = sorted(set(re.findall(r"\bP\.(\w+)\.(\w+)", text)))
    assert len(named) >= 10  # the pattern still finds the benchmark's calls
    missing = [
        f"ontosem.{module}.{name}"
        for module, name in named
        if not hasattr(importlib.import_module(f"ontosem.{module}"), name)
    ]
    assert missing == []
