"""Memory the pipeline's results hold per token, and a loaded lexicon per
instance, measured with tracemalloc.

The per-token and per-record types are NamedTuples, annotation shares the
ontology index's label sets, `annotate_all` shares one `TokenAnnotation` per
distinct surface, and `interpret_all` shares one unchanged `Resolution` per
candidate set and one resolved `TokenAnnotation` per (surface, label). So a
batch's results hold about 361 B per token (Python 3.11; about 440 B when
`annotate` builds a `TokenAnnotation` per token, about 497 B when
`interpret_all` builds its records afresh per token, about 1,170 B with a
`__dict__` per record and fresh sets per token), of which `interpret_all`'s
output is about 84 B (221 B built afresh). The bounds sit between those
figures: they fail on a record per token again, on a record type that gains
a `__dict__` or on new per-token allocation, and are deterministic, unlike a
process-wide peak RSS.
"""

import gc
import json
import tracemalloc
from fractions import Fraction

import pytest

from ontosem import samples
from ontosem.annotate import AnnotatedUtterance, Status, TokenAnnotation, annotate_all
from ontosem.corpus import CorpusStats, GoldToken, GoldUtterance, load_utterances
from ontosem.evaluate import EvaluationCounts, Metrics
from ontosem.interpret import RESOLVED, InterpretedUtterance, Resolution, interpret_all
from ontosem.normalize import (
    CliticRule,
    CompoundRule,
    NormalizationTables,
    NormalizedUtterance,
    RawUtterance,
    Token,
    normalize_all,
)
from ontosem.ontology import Concept, Finding, Instance, Ontology, Relation, TaxonomyEdge, lookup
from ontosem.ontology_io import load_ontology

BYTES_PER_TOKEN_BOUND = 400
INTERPRETED_BYTES_PER_TOKEN_BOUND = 100
COPIES = 40
BYTES_PER_INSTANCE_BOUND = 100
INSTANCES = 20_000


def test_bytes_held_per_token(domain, task, tables):
    corpus = load_utterances(samples.corpus_path())
    raws = [RawUtterance(f"{u.id}.{copy}", u.text) for copy in range(COPIES) for u in corpus]
    # one pass first, so the ontologies' lazy indexes are not counted
    interpret_all(annotate_all(normalize_all(corpus, tables, domain, task), domain, task), domain, task)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        normalized = normalize_all(raws, tables, domain, task)
        annotated = annotate_all(normalized, domain, task)
        gc.collect()
        annotated_at = tracemalloc.get_traced_memory()[0]
        interpreted = interpret_all(annotated, domain, task)
        gc.collect()
        held_at = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    tokens = sum(len(u.tokens) for u in normalized)
    assert len(interpreted) == len(raws) and tokens > 2000
    held, interpreted_held = (held_at - before) / tokens, (held_at - annotated_at) / tokens
    assert held < BYTES_PER_TOKEN_BOUND, f"{held:.0f} B per token"
    assert interpreted_held <= INTERPRETED_BYTES_PER_TOKEN_BOUND, f"interpret_all: {interpreted_held:.0f} B per token"


def test_bytes_held_per_loaded_instance(tmp_path):
    """Instances with equal concept lists share one set and a loaded lexicon
    keeps only its surface index, the records derived when asked, so it holds
    about 76 B per instance (about 148 B with an `Instance` record per
    instance beside the index, about 430 B with a set per record as well).
    The bound fails on a record or a set per instance again."""
    lists = [["Alpha"], ["Beta"], ["Alpha", "Gamma"], ["Beta", "Gamma"]]
    doc = {
        "format_version": 1,
        "kind": "domain",
        "concepts": [{"name": name} for name in ("Alpha", "Beta", "Gamma")],
        "instances": [
            {"surface": f"w{i:05d}", "concepts": lists[i % len(lists)]} for i in range(INSTANCES)
        ],
    }
    path = tmp_path / "domain.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    del doc
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        ontology = load_ontology(path)
        assert lookup("w00000", [ontology])[0] == {"Alpha"}  # reads the index the load built
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    # every record is its index entry: counted without deriving a record
    assert len(ontology.instances) == len(ontology.instances.surfaces) == INSTANCES
    assert held / INSTANCES < BYTES_PER_INSTANCE_BOUND, f"{held / INSTANCES:.0f} B per instance"


RECORDS = [
    RawUtterance("u", "OtrAn"),
    Token("OtrAn", (0, 5), ("variant:AltrAn",)),
    NormalizedUtterance("u", ("OtrAn",)),
    CompoundRule(("IlmADy", "sAEh"), "IlmADy_sAEh"),
    CliticRule("l", ("Ily",)),
    TokenAnnotation("twns", frozenset({"Arrival_City"}), frozenset(), Status.LABELED),
    AnnotatedUtterance("u", (TokenAnnotation("zzz", frozenset(), frozenset(), Status.NOT_RECOGNIZED),)),
    Resolution(RESOLVED, frozenset({"A", "B"}), "A", "rel_a", 0),
    InterpretedUtterance("u", (), (Resolution("unchanged"),)),
    GoldToken("OtrAn", "Train"),
    GoldUtterance("u", (GoldToken("OtrAn", "Train"),)),
    CorpusStats(1, 3, 3.0),
    Metrics(Fraction(1, 2), Fraction(1, 3), None),
    Concept("Train", "domain", "a train"),
    TaxonomyEdge("Arrival_City", "City"),
    Instance("OtrAn", frozenset({"Train"})),
    Relation("rel_a", frozenset({"Ily"}), "Train", "City"),
    Finding("code", "detail"),
]


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_record_is_slotted_and_keeps_eq_hash_repr(record):
    assert not hasattr(record, "__dict__")
    cls = type(record)
    values = {name: getattr(record, name) for name in record._fields}
    twin = cls(**values)
    assert twin == record and twin is not record
    shown = ", ".join(f"{name}={value!r}" for name, value in values.items())
    assert repr(record) == f"{cls.__name__}({shown})"
    assert hash(twin) == hash(record)
    for name in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, values[name])
        with pytest.raises(AttributeError):
            delattr(record, name)


# the records whose construction does more than store its arguments, with
# the fields they are built from, in constructor order
CONSTRUCTED = [
    (Ontology, {
        "concepts": (Concept("Train", "domain"), Concept("City", "domain")),
        "taxonomy": (TaxonomyEdge("Arrival_City", "City"),),
        "instances": (Instance("twns", frozenset({"City"})), Instance("OtrAn", frozenset({"Train"}))),
        "relations": (Relation("rel_a", frozenset({"Ily"}), "Train", "City"),),
    }),
    (NormalizationTables, {
        "compounds": (CompoundRule(("a", "b"), "a_b"), CompoundRule(("a", "b", "c"), "a_b_c")),
        "clitics": (CliticRule("l", ("Ily",)), CliticRule("wl", ("w", "Ily"))),
        "variants": {"x": "y"},
    }),
    (EvaluationCounts, {"correct": 1, "incorrect": 2, "not_recognized": 3, "total": 6}),
]


@pytest.mark.parametrize("cls, values", CONSTRUCTED, ids=[cls.__name__ for cls, _ in CONSTRUCTED])
def test_constructed_record_keeps_eq_hash_repr_and_is_read_only(cls, values):
    record, twin = cls(**values), cls(**values)
    if cls is not Ontology:  # its indexes are built on first use, into a __dict__
        assert not hasattr(record, "__dict__")
    assert twin == record and twin is not record
    assert hash(twin) == hash(record)
    shown = ", ".join(f"{name}={getattr(record, name)!r}" for name in values)
    assert repr(record) == f"{cls.__name__}({shown})"
    for name in values:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))
        with pytest.raises(AttributeError):
            delattr(record, name)
