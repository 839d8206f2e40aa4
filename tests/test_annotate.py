import logging
import random

import pytest

from ontosem import samples
from ontosem.annotate import (
    SEMANTIC_RELATION_LABEL,
    Status,
    TokenAnnotation,
    annotate,
    annotate_token,
    committed_label,
)
from ontosem.normalize import NormalizedUtterance, RawUtterance, Token, normalize
from ontosem.ontology import Concept, Instance, Ontology, Relation


@pytest.fixture(scope="module")
def ontologies():
    return samples.load_sample_domain(), samples.load_sample_task()


@pytest.fixture(scope="module")
def tables():
    return samples.load_sample_tables()


def normalized(surfaces_list, uid="u"):
    tokens = tuple(Token(s, (i * 10, i * 10 + len(s))) for i, s in enumerate(surfaces_list))
    return NormalizedUtterance(id=uid, tokens=tokens)


def test_time_question_annotation_sets(ontologies):
    result = annotate(normalized(["wqtA$", "yxrj", "OtrAn"]), *ontologies)
    first, second, third = result.tokens
    assert first.labels == {"Departure_Time_Request", "Arrival_Time_Request"}
    assert first.status is Status.AMBIGUOUS
    assert second.status is Status.RELATION_MARKER
    assert second.relation_ids == {"rel_departure_time"}
    assert third.labels == {"Train"}
    assert third.status is Status.LABELED


def test_destination_annotation_sets(ontologies):
    result = annotate(normalized(["Ily", "twns", "IlmADy_sAEh"]), *ontologies)
    marker, city, hour = result.tokens
    assert marker.status is Status.RELATION_MARKER
    assert city.labels == {"Arrival_City", "Departure_City"}
    assert city.status is Status.AMBIGUOUS
    assert hour.labels == {"Exact_Hour"}
    assert hour.status is Status.LABELED


def test_out_of_vocabulary_token(ontologies):
    result = annotate(normalized(["zzz"]), *ontologies)
    assert result.tokens[0].status is Status.NOT_RECOGNIZED
    assert result.tokens[0].labels == frozenset()
    assert result.tokens[0].relation_ids == frozenset()


def test_no_token_dropped(ontologies, tables):
    for raw in samples.load_sample_corpus():
        norm = normalize(raw, tables, *ontologies)
        assert len(annotate(norm, *ontologies).tokens) == len(norm.tokens)


def test_status_matches_label_cardinality(ontologies, tables):
    for raw in samples.load_sample_corpus():
        norm = normalize(raw, tables, *ontologies)
        for token in annotate(norm, *ontologies).tokens:
            if token.status is Status.AMBIGUOUS:
                assert len(token.labels) >= 2
            elif token.status is Status.LABELED:
                assert len(token.labels) == 1
            elif token.status is Status.RELATION_MARKER:
                assert token.relation_ids and not token.labels
            else:
                assert not token.labels and not token.relation_ids


def test_labels_are_declared_concepts(ontologies, tables):
    known = set()
    for ontology in ontologies:
        known |= ontology.concept_names
    for raw in samples.load_sample_corpus():
        norm = normalize(raw, tables, *ontologies)
        for token in annotate(norm, *ontologies).tokens:
            assert token.labels <= known


def test_annotation_is_context_free(ontologies):
    rng = random.Random(7)
    surfaces = ["wqtA$", "yxrj", "OtrAn", "twns", "zzz", "klAs"]
    base = {t.surface: t for t in annotate(normalized(surfaces), *ontologies).tokens}
    for _ in range(20):
        shuffled = surfaces[:]
        rng.shuffle(shuffled)
        for token in annotate(normalized(shuffled), *ontologies).tokens:
            assert token == base[token.surface]


def test_annotation_is_deterministic(ontologies):
    first = annotate(normalized(["wqtA$", "yxrj", "OtrAn"]), *ontologies)
    second = annotate(normalized(["wqtA$", "yxrj", "OtrAn"]), *ontologies)
    assert first == second


def test_relation_wins_over_instance_on_unvalidated_ontology(caplog):
    # impossible after validation; annotation must still prefer the marker
    broken = Ontology(
        concepts=(Concept("A", "domain"), Concept("B", "domain")),
        instances=(Instance("w", frozenset({"A"})),),
        relations=(Relation("rel_w", frozenset({"w"}), "A", "B"),),
    )
    with caplog.at_level(logging.WARNING, logger="ontosem.annotate"):
        token = annotate_token("w", broken)
    assert token.status is Status.RELATION_MARKER
    assert token.labels == frozenset()
    assert any("both instance and relation trigger" in r.message for r in caplog.records)


def test_three_plus_candidate_labels_allowed():
    ontology = Ontology(
        concepts=(Concept("A", "domain"), Concept("B", "domain"), Concept("C", "domain")),
        instances=(Instance("w", frozenset({"A", "B", "C"})),),
    )
    token = annotate_token("w", ontology)
    assert token.status is Status.AMBIGUOUS
    assert token.labels == {"A", "B", "C"}


@pytest.mark.parametrize(
    "status, labels, relation_ids, expected",
    [
        (Status.LABELED, {"Train"}, set(), "Train"),
        (Status.AMBIGUOUS, {"Arrival_City", "Departure_City"}, set(), None),
        (Status.RELATION_MARKER, set(), {"rel_x"}, SEMANTIC_RELATION_LABEL),
        (Status.NOT_RECOGNIZED, set(), set(), None),
    ],
)
def test_committed_label_per_status(status, labels, relation_ids, expected):
    token = TokenAnnotation("w", frozenset(labels), frozenset(relation_ids), status)
    assert committed_label(token) == expected
