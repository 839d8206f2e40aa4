"""The paths of the bundled sample data.

The package ships a small railway-information ontology pair (domain + task),
the normalization tables that go with it, and a mini corpus with gold
annotations: a handful of attested utterances plus composed ones built from
the sample lexicon. They are the CLI's defaults; load them as the CLI loads
any input (see the README's quickstart).
"""

from __future__ import annotations

from pathlib import Path


def data_path(name: str) -> Path:
    return Path(__file__).parent / "data" / name


def domain_ontology_path() -> Path:
    return data_path("railway_domain.json")


def task_ontology_path() -> Path:
    return data_path("railway_task.json")


def tables_path() -> Path:
    return data_path("railway_tables.json")


def corpus_path() -> Path:
    return data_path("mini_corpus.tsv")


def gold_path() -> Path:
    return data_path("mini_corpus_gold.tsv")


def regression_report_path() -> Path:
    return data_path("mini_corpus_report.json")
