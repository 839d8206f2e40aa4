"""Span tracing from outside the program, for the traced run only.

`Tracer` replaces public functions of the ontosem modules with wrappers at
their module attribute, so calls between the program's own functions are
seen too (they look the name up in the module at call time), and puts the
originals back on exit. Each span records its name, start, end, parent span
and the utterance it works on; the arguments and result are kept by
reference so that counts are taken after the pass, outside the timed spans.
"""

from __future__ import annotations

import importlib
import json
from collections import defaultdict
from pathlib import Path
from time import perf_counter_ns

TRACED = {
    "normalize": (
        "normalize", "tokenize", "transliterate", "expand_clitics",
        "merge_compounds", "radicalize", "load_tables",
    ),
    "annotate": ("annotate", "annotate_token"),
    "interpret": ("interpret", "merge", "resolve_token"),
    "evaluate": ("report",),
    "serialize": ("interpreted_to_tsv", "interpreted_to_xml"),
    "corpus": ("load_utterances", "load_gold"),
    "ontology_io": ("load_ontology",),
}

NAME, START, END, PARENT, ARGS, RESULT = range(6)


class Tracer:
    """Context manager that records spans while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        for module_name, functions in TRACED.items():
            module = importlib.import_module(f"ontosem.{module_name}")
            for function in functions:
                original = getattr(module, function)
                self._saved.append((module, function, original))
                setattr(module, function, self._wrap(f"{module_name}.{function}", original))
        return self

    def __exit__(self, *exc) -> None:
        for module, function, original in reversed(self._saved):
            setattr(module, function, original)
        self._saved.clear()

    def _wrap(self, name: str, function):
        stack = self._stack

        def traced(*args, **kwargs):
            spans = self.spans
            record = [name, 0, 0, stack[-1] if stack else -1, args, None]
            stack.append(len(spans))
            spans.append(record)
            record[START] = perf_counter_ns()
            try:
                record[RESULT] = function(*args, **kwargs)
            finally:
                record[END] = perf_counter_ns()
                stack.pop()
            return record[RESULT]

        return traced

    def take(self) -> list[list]:
        """Hand over the spans recorded so far and start a new list."""
        spans, self.spans = self.spans, []
        return spans


def utterance_ids(spans: list[list]) -> list[str | None]:
    """A span's utterance is its first argument's id, else its parent's."""
    ids: list[str | None] = []
    for record in spans:
        own = next(
            (a.id for a in record[ARGS][:2] if isinstance(getattr(a, "id", None), str)), None
        )
        ids.append(own if own is not None else (ids[record[PARENT]] if record[PARENT] >= 0 else None))
    return ids


def write(spans: list[list], path: Path) -> None:
    """Write spans as JSON lines: name, start/end in ns, parent index, utterance id."""
    with path.open("w", encoding="utf-8") as out:
        for record, uid in zip(spans, utterance_ids(spans)):
            out.write(json.dumps({
                "name": record[NAME], "start_ns": record[START], "end_ns": record[END],
                "parent": record[PARENT], "utterance": uid,
            }) + "\n")


class Summary:
    """Calls, total time and self time (span minus its child spans) per span name."""

    def __init__(self, spans: list[list]):
        children = [0] * len(spans)
        for record in spans:
            if record[PARENT] >= 0:
                children[record[PARENT]] += record[END] - record[START]
        self.by_name: dict[str, list[list]] = defaultdict(list)
        self._total: dict[str, int] = defaultdict(int)
        self._self: dict[str, int] = defaultdict(int)
        for record, child in zip(spans, children):
            duration = record[END] - record[START]
            self.by_name[record[NAME]].append(record)
            self._total[record[NAME]] += duration
            self._self[record[NAME]] += duration - child

    def calls(self, name: str) -> int:
        return len(self.by_name.get(name, ()))

    def total_s(self, name: str) -> float:
        return self._total.get(name, 0) / 1e9

    def self_s(self, name: str) -> float:
        return self._self.get(name, 0) / 1e9


def setup_metrics(spans: list[list]) -> dict[str, float]:
    s = Summary(spans)
    return {
        "ontology_io.load_s": s.total_s("ontology_io.load_ontology"),
        "normalize.load_tables_s": s.total_s("normalize.load_tables"),
    }


def pass_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics of one pass of work."""
    s = Summary(spans)
    spans_of = s.by_name.__getitem__
    surfaces = [r[ARGS][0] for r in spans_of("annotate.annotate_token")]
    statuses = [r[RESULT].status.value for r in spans_of("annotate.annotate_token")]
    outcomes = [r[RESULT].outcome for r in spans_of("interpret.resolve_token")]
    metrics = {
        "corpus.load_utterances_s": s.total_s("corpus.load_utterances"),
        "corpus.load_gold_s": s.total_s("corpus.load_gold"),
        "normalize.self_s": s.self_s("normalize.normalize"),
        "normalize.tokenize_s": s.total_s("normalize.tokenize"),
        "buckwalter.transliterate_s": s.total_s("normalize.transliterate"),
        "normalize.expand_clitics_s": s.total_s("normalize.expand_clitics"),
        "normalize.merge_compounds_s": s.total_s("normalize.merge_compounds"),
        "normalize.radicalize_s": s.total_s("normalize.radicalize"),
        "normalize.tokens_out": sum(len(r[RESULT].tokens) for r in spans_of("normalize.normalize")),
        "normalize.clitic_rewrites": sum(
            len(set(r[ARGS][0]) - set(r[RESULT])) for r in spans_of("normalize.expand_clitics")
        ),
        "normalize.compound_merges": sum(
            len(set(r[RESULT]) - set(r[ARGS][0])) for r in spans_of("normalize.merge_compounds")
        ),
        "normalize.variant_rewrites": sum(
            r[RESULT] != r[ARGS][0] for r in spans_of("normalize.radicalize")
        ),
        "annotate.self_s": s.self_s("annotate.annotate"),
        "annotate.annotate_token_s": s.total_s("annotate.annotate_token"),
        "annotate.annotate_token_calls": len(surfaces),
        "annotate.distinct_surface_ratio": len(set(surfaces)) / len(surfaces) if surfaces else 0.0,
        "interpret.merge_calls": s.calls("interpret.merge"),
        "interpret.merge_s": s.total_s("interpret.merge"),
        "interpret.self_s": s.self_s("interpret.interpret"),
        "interpret.resolve_token_s": s.total_s("interpret.resolve_token"),
        "interpret.resolve_token_calls": len(outcomes),
        "interpret.resolved": outcomes.count("resolved"),
        "interpret.unresolved": outcomes.count("unresolved"),
        "evaluate.report_s": s.total_s("evaluate.report"),
        "evaluate.tokens_scored": sum(r[RESULT].counts.total for r in spans_of("evaluate.report")),
        "serialize.tsv_s": s.total_s("serialize.interpreted_to_tsv"),
        "serialize.xml_s": s.total_s("serialize.interpreted_to_xml"),
        "serialize.bytes_out": sum(
            len(r[RESULT].encode("utf-8"))
            for name in ("serialize.interpreted_to_tsv", "serialize.interpreted_to_xml")
            for r in spans_of(name)
        ),
    }
    for status in ("labeled", "ambiguous", "relation_marker", "not_recognized"):
        metrics[f"annotate.status.{status}"] = statuses.count(status)
    return metrics
