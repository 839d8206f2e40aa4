"""Memory the pipeline's results hold per token, measured with tracemalloc.

The per-token and per-record types are slotted dataclasses and annotation
shares the ontology index's label sets, so a batch's results hold about
520 B per token (Python 3.11; about 1,170 B with a `__dict__` per record and
fresh sets per token). The bound sits about 30% above that figure: it fails
on a record type that loses its slots or on new per-token allocation, and is
deterministic, unlike a process-wide peak RSS.
"""

import gc
import tracemalloc
from dataclasses import fields

import pytest

from ontosem import samples
from ontosem.annotate import AnnotatedUtterance, Status, TokenAnnotation, annotate_all
from ontosem.corpus import CorpusStats, GoldToken, GoldUtterance
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
from ontosem.ontology import Concept, Finding, Instance, Relation, TaxonomyEdge

BYTES_PER_TOKEN_BOUND = 680
COPIES = 40


def test_bytes_held_per_token():
    domain, task = samples.load_sample_domain(), samples.load_sample_task()
    tables = samples.load_sample_tables()
    corpus = samples.load_sample_corpus()
    raws = [RawUtterance(f"{u.id}.{copy}", u.text) for copy in range(COPIES) for u in corpus]
    # one pass first, so the ontologies' lazy indexes are not counted
    interpret_all(annotate_all(normalize_all(corpus, tables, domain, task), domain, task), domain, task)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        normalized = normalize_all(raws, tables, domain, task)
        annotated = annotate_all(normalized, domain, task)
        interpreted = interpret_all(annotated, domain, task)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    tokens = sum(len(u.tokens) for u in normalized)
    assert len(interpreted) == len(raws) and tokens > 2000
    assert held / tokens < BYTES_PER_TOKEN_BOUND, f"{held / tokens:.0f} B per token"


RECORDS = [
    RawUtterance("u", "OtrAn"),
    Token("OtrAn", (0, 5), ("variant:AltrAn",)),
    NormalizedUtterance("u", (Token("OtrAn", (0, 5)),)),
    CompoundRule(("IlmADy", "sAEh"), "IlmADy_sAEh"),
    CliticRule("l", ("Ily",)),
    NormalizationTables((CompoundRule(("a", "b"), "a_b"),), (CliticRule("l", ("Ily",)),), {"x": "y"}),
    TokenAnnotation("twns", frozenset({"Arrival_City"}), frozenset(), Status.LABELED),
    AnnotatedUtterance("u", (TokenAnnotation("zzz", frozenset(), frozenset(), Status.NOT_RECOGNIZED),)),
    Resolution(1, RESOLVED, frozenset({"A", "B"}), "A", "rel_a", 0),
    InterpretedUtterance("u", (), (Resolution(0, "unchanged"),)),
    GoldToken(0, "OtrAn", "Train"),
    GoldUtterance("u", (GoldToken(0, "OtrAn", "Train"),)),
    CorpusStats(1, 3, 3.0),
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
    values = {f.name: getattr(record, f.name) for f in fields(record) if f.init}
    twin = cls(**values)
    assert twin == record and twin is not record
    shown = ", ".join(f"{f.name}={getattr(record, f.name)!r}" for f in fields(record) if f.repr)
    assert repr(record) == f"{cls.__name__}({shown})"
    if cls is NormalizationTables:  # holds a dict, so it never had a hash
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(twin) == hash(record)
