"""The benchmark's `large-lexicon` inputs through the pipeline, without timings.

`benchmarks/workloads.py` inflates the sample lexicon with 20,000 filler
instances, 2,000 filler compounds and 500 filler variants, none of which
occurs in the corpus, and appends out-of-vocabulary noise words to each
utterance. Filler must not change the label of any original token, whatever
the size of the tables and ontologies. The noise words rarely repeat, so
`normalize_all` works out most clitic expansions afresh.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from ontosem import samples
from ontosem.annotate import annotate_all, committed_label
from ontosem.corpus import load_gold, load_utterances
from ontosem.interpret import interpret_all
from ontosem.normalize import load_tables, normalize, normalize_all
from ontosem.ontology import merge
from ontosem.ontology_io import load_ontology

WORKLOADS = Path(__file__).resolve().parents[1] / "benchmarks" / "workloads.py"


def load_workloads():
    spec = importlib.util.spec_from_file_location("benchmark_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through it
    spec.loader.exec_module(module)
    return module


def committed(utterances, tables, ontology):
    """Utterance id -> [(surface, committed label)] after normalize, annotate, interpret."""
    normalized = normalize_all(utterances, tables, ontology)
    interpreted = interpret_all(annotate_all(normalized, ontology), ontology)
    return {u.id: [(t.surface, committed_label(t)) for t in u.tokens] for u in interpreted}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    workloads = load_workloads()
    return workloads.generate(
        workloads.WORKLOADS["large-lexicon"], 1, samples.corpus_path().parent, tmp_path_factory.mktemp("large")
    )


def test_inflated_lexicon_keeps_committed_labels(inputs, domain, task, tables):
    assert inputs.instances > 20_000 and inputs.compounds > 2_000

    sample = committed(load_utterances(samples.corpus_path()), tables, merge(domain, task))
    big_domain, big_task = load_ontology(inputs.domain), load_ontology(inputs.task)
    big_tables = load_tables(inputs.tables, big_domain, big_task)  # as the CLI checks them
    assert big_tables == load_tables(inputs.tables)  # as the benchmark loads them
    inflated = committed(load_utterances(inputs.corpus), big_tables, merge(big_domain, big_task))
    assert len(inflated) == len(sample) == 25
    for uid, tokens in inflated.items():
        original = sample[inputs.base_of[uid]]
        assert tokens[:len(original)] == original, uid
        noise = tokens[len(original):]
        assert noise and all(label is None for _, label in noise), uid

    gold = load_gold(inputs.gold, domain, task)
    assert {uid: tuple((t.surface, t.label) for t in u.tokens) for uid, u in gold.items()} == inputs.gold_of


def test_normalize_all_equals_normalize_per_utterance_on_the_inflated_lexicon(inputs):
    pair = load_ontology(inputs.domain), load_ontology(inputs.task)
    big_tables = load_tables(inputs.tables, *pair)
    utterances = load_utterances(inputs.corpus)
    assert len(big_tables.compounds) > 2_000 and len(big_tables.variants) > 500
    assert normalize_all(utterances, big_tables, *pair) == [normalize(u, big_tables, *pair) for u in utterances]
