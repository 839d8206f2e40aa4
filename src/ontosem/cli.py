"""Batch command-line interface for the annotation pipeline.

Subcommands: annotate, interpret, eval, validate, export-owl, stats.
Machine-readable output goes to the path given with --out ('-' for stdout);
human-readable diagnostics go to stderr only, so outputs stay pipeable.

Exit codes: 0 success, 1 input or parse error, 2 validation failure,
3 predicted/gold alignment error. A refused input or argument raises an
`InputError`, exit 2 if it lists findings; `main` prints it as one line.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import samples
from ._input import EXIT_ALIGNMENT, EXIT_INPUT, EXIT_OK, EXIT_VALIDATION, InputError
from .annotate import annotate_all
from .corpus import load_gold, load_utterances, stats
from .interpret import TIE_BREAKS, UNRESOLVED_POLICIES, interpret_all
from .normalize import load_tables, normalize_all
from .ontology import merge, pair_findings, validate
from .ontology_io import OntologyValidationError, load_ontology, parse_ontology_file


def _write_out(target: str, text: str) -> None:
    """Write `text` as UTF-8, to stdout as to a file, whatever the locale."""
    data = text.encode("utf-8")
    if target == "-":
        sys.stdout.flush()
        sys.stdout.buffer.write(data)
    else:
        Path(target).write_bytes(data)


def _info(message: str) -> None:
    print(message, file=sys.stderr)


def _json_text(document: object) -> str:
    return json.dumps(document, ensure_ascii=False, indent=2, sort_keys=True) + "\n"


def _add_ontology_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--domain",
        default=str(samples.domain_ontology_path()),
        help="domain ontology file (default: bundled railway sample)",
    )
    parser.add_argument(
        "--task",
        default=str(samples.task_ontology_path()),
        help="task ontology file (default: bundled railway sample)",
    )


def _add_pipeline_options(parser: argparse.ArgumentParser) -> None:
    _add_ontology_options(parser)
    parser.add_argument(
        "--tables",
        default=str(samples.tables_path()),
        help="normalization tables file (default: bundled railway sample)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ontosem",
        description="Ontology-based semantic annotation and interpretation of transcribed utterances.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    p_annotate = commands.add_parser("annotate", help="label tokens by ontology lookup")
    p_interpret = commands.add_parser(
        "interpret", help="annotate, then disambiguate multi-label tokens"
    )
    for p in (p_annotate, p_interpret):
        _add_pipeline_options(p)
        p.add_argument("--in", dest="input", required=True, help="raw corpus file (id<TAB>text)")
        p.add_argument("--out", default="-", help="output path ('-' for stdout)")
        p.add_argument("--format", choices=("xml", "tsv"), default="xml")
    p_interpret.add_argument("--tie-break", choices=TIE_BREAKS, default="left")

    p_eval = commands.add_parser("eval", help="score the pipeline against gold annotations")
    _add_pipeline_options(p_eval)
    p_eval.add_argument(
        "--in", dest="input", help="raw corpus file (required unless --from-counts)"
    )
    p_eval.add_argument("--out", default="-", help="report path ('-' for stdout)")
    p_eval.add_argument("--gold", help="gold TSV file (required unless --from-counts)")
    p_eval.add_argument("--tie-break", choices=TIE_BREAKS, default="left")
    p_eval.add_argument("--unresolved", choices=UNRESOLVED_POLICIES, default="not-recognized")
    p_eval.add_argument(
        "--from-counts",
        metavar="A,B,C,D",
        help="skip the pipeline and report metrics for injected counts",
    )

    p_validate = commands.add_parser("validate", help="check ontology invariants")
    _add_ontology_options(p_validate)
    p_validate.add_argument("--out", default="-", help="findings path ('-' for stdout)")

    p_export = commands.add_parser("export-owl", help="export the merged ontology pair as OWL")
    _add_ontology_options(p_export)
    p_export.add_argument("--out", default="-", help="output path ('-' for stdout)")

    p_stats = commands.add_parser("stats", help="corpus utterance/word statistics")
    p_stats.add_argument("--in", dest="input", required=True, help="raw corpus file")
    p_stats.add_argument("--out", default="-", help="output path ('-' for stdout)")

    return parser


def _load_pair(args: argparse.Namespace):
    """Load the ontology pair, unmerged, and refuse it on the findings
    `validate` lists for the pair as a whole."""
    ontologies = (load_ontology(args.domain), load_ontology(args.task))
    if findings := pair_findings(ontologies):
        raise OntologyValidationError(findings, f"{args.domain}, {args.task}: ontology pair")
    return ontologies


def _run_pipeline(args: argparse.Namespace):
    """Load the checked ontology pair, the tables checked against the pair,
    the corpus and, for `eval`, the gold file, so a bad input is refused
    before any work; normalize and annotate."""
    ontologies = _load_pair(args)
    tables = load_tables(args.tables, *ontologies)
    utterances = load_utterances(args.input)
    gold = load_gold(args.gold, *ontologies) if args.command == "eval" else None
    normalized = normalize_all(utterances, tables, *ontologies)
    return ontologies, gold, annotate_all(normalized, *ontologies)


def cmd_annotate(args: argparse.Namespace) -> int:
    from .serialize import annotated_to_tsv, annotated_to_xml

    *_, annotated = _run_pipeline(args)
    text = annotated_to_xml(annotated) if args.format == "xml" else annotated_to_tsv(annotated)
    _write_out(args.out, text)
    _info(f"annotated {len(annotated)} utterance(s)")
    return EXIT_OK


def cmd_interpret(args: argparse.Namespace) -> int:
    from .serialize import interpreted_to_tsv, interpreted_to_xml

    ontologies, _, annotated = _run_pipeline(args)
    interpreted = interpret_all(annotated, *ontologies, tie_break=args.tie_break)
    text = (
        interpreted_to_xml(interpreted) if args.format == "xml" else interpreted_to_tsv(interpreted)
    )
    _write_out(args.out, text)
    _info(f"interpreted {len(interpreted)} utterance(s)")
    return EXIT_OK


def cmd_eval(args: argparse.Namespace) -> int:
    from .evaluate import (AlignmentError, EvaluationCounts, counts_to_document, render_counts_table,
                           render_report, report, report_to_document)

    if args.from_counts is not None:
        parts = [part.strip() for part in args.from_counts.split(",")]
        try:  # ASCII digits only, as a gold token index: `int` also takes a sign, `_` and other digits
            if bad := [part for part in parts if not (part.isascii() and part.isdigit())]:
                raise ValueError(f"count {bad[0]!r} is not an integer")
            a, b, c, d = map(int, parts)
            counts = EvaluationCounts(a, b, c, d)
        except ValueError as err:
            raise InputError(f"bad --from-counts value: {err}") from None
        _write_out(args.out, _json_text(counts_to_document(counts)))
        _info(render_counts_table(counts))
        return EXIT_OK

    if not args.input or not args.gold:
        raise InputError("eval requires --in and --gold (or --from-counts)")
    ontologies, gold, annotated = _run_pipeline(args)
    interpreted = interpret_all(annotated, *ontologies, tie_break=args.tie_break)
    try:
        result = report(interpreted, gold, unresolved_policy=args.unresolved)
    except AlignmentError as err:
        _info(f"ontosem: alignment error: {err}")
        return EXIT_ALIGNMENT
    _write_out(args.out, _json_text(report_to_document(result)))
    _info(render_report(result))
    return EXIT_OK


def cmd_validate(args: argparse.Namespace) -> int:
    pair = [parse_ontology_file(args.domain), parse_ontology_file(args.task)]
    findings = [(label, f) for label, ontology in zip(("domain", "task"), pair) for f in validate(ontology)]
    # a finding of one file may show again for the pair; list it once
    listed = {f for _, f in findings}
    findings += [("merged", f) for f in pair_findings(pair) if f not in listed]

    document = [
        {"ontology": label, "code": f.code, "detail": f.detail} for label, f in findings
    ]
    _write_out(args.out, _json_text(document))
    if findings:
        for label, finding in findings:
            _info(f"{label}: {finding}")
        return EXIT_VALIDATION
    _info("ontologies are well-formed")
    return EXIT_OK


def cmd_export_owl(args: argparse.Namespace) -> int:
    from .serialize import export_owl

    merged = merge(*_load_pair(args))
    _write_out(args.out, export_owl(merged))
    _info(f"exported {len(merged.concepts)} classes, {len(merged.relations)} object properties")
    return EXIT_OK


def cmd_stats(args: argparse.Namespace) -> int:
    utterances = load_utterances(args.input)
    result = stats(utterances)
    average = result.avg_words_per_utterance
    document = {
        "format_version": 1,
        "utterance_count": result.utterance_count,
        "word_count": result.word_count,
        "avg_words_per_utterance": None if average is None else round(average, 2),
    }
    _write_out(args.out, _json_text(document))
    shown = "n/a" if average is None else f"{average:.2f}"
    _info(
        f"utterances: {result.utterance_count}  words: {result.word_count}  avg words/utterance: {shown}"
    )
    return EXIT_OK


_HANDLERS = {
    "annotate": cmd_annotate,
    "interpret": cmd_interpret,
    "eval": cmd_eval,
    "validate": cmd_validate,
    "export-owl": cmd_export_owl,
    "stats": cmd_stats,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handler = _HANDLERS[args.command]
    try:
        return handler(args)
    except OSError as err:
        _info(f"ontosem: {err.filename}: {err.strerror}" if err.filename else f"ontosem: {err}")
        return EXIT_INPUT
    except InputError as err:
        _info(f"ontosem: {err}")
        return err.exit_code


if __name__ == "__main__":
    sys.exit(main())
