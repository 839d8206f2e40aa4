"""Access to the bundled sample data.

The package ships a small railway-information ontology pair (domain + task),
the normalization tables that go with it, and a mini corpus with gold
annotations: a handful of attested utterances plus composed ones built from
the sample lexicon. These power the test suite and make the CLI runnable out
of the box.
"""

from __future__ import annotations

from pathlib import Path

from .corpus import GoldUtterance, load_gold, load_utterances
from .normalize import NormalizationTables, RawUtterance, load_tables
from .ontology import Ontology
from .ontology_io import load_ontology


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


def load_sample_domain() -> Ontology:
    return load_ontology(domain_ontology_path())


def load_sample_task() -> Ontology:
    return load_ontology(task_ontology_path())


def load_sample_tables() -> NormalizationTables:
    return load_tables(tables_path())


def load_sample_corpus() -> list[RawUtterance]:
    return load_utterances(corpus_path())


def load_sample_gold(*ontologies: Ontology) -> dict[str, GoldUtterance]:
    return load_gold(gold_path(), *ontologies)
