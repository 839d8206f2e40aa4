import importlib

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    SYNTH,
    annotate_surfaces,
    enumerate_surface_tuples,
    oracle_interpret,
    oracle_resolve,
)
from ontosem import samples
from ontosem.annotate import AnnotatedUtterance, Status, TokenAnnotation, annotate, annotate_all
from ontosem.interpret import (
    RESOLVED,
    UNCHANGED,
    UNRESOLVED,
    interpret,
    interpret_all,
    resolve_token,
)
from ontosem.normalize import RawUtterance, normalize, normalize_all
from ontosem.ontology import Concept, Ontology, Relation, UnknownRelationError, merge


@pytest.fixture(scope="module")
def ontologies():
    return samples.load_sample_domain(), samples.load_sample_task()


@pytest.fixture(scope="module")
def merged(ontologies):
    return merge(*ontologies)


@pytest.fixture(scope="module")
def tables():
    return samples.load_sample_tables()


def label_of(interpreted, index):
    token = interpreted.tokens[index]
    assert len(token.labels) == 1, token
    return next(iter(token.labels))


# -- worked examples --------------------------------------------------------------

def test_city_resolved_by_direction_marker(ontologies, tables):
    raw = RawUtterance("u", "ltwns IlmADy sAEh")
    interpreted = interpret(annotate(normalize(raw, tables, *ontologies), *ontologies), *ontologies)
    assert label_of(interpreted, 1) == "Arrival_City"
    resolution = interpreted.resolutions[1]
    assert resolution.outcome == RESOLVED
    assert resolution.via_relation == "rel_to_arrival"
    assert resolution.relation_token_index == 0
    assert interpreted.tokens[0].surface == "Ily"


def test_class_marker_resolves_number_class_ambiguity(ontologies):
    interpreted = interpret(annotate_surfaces(["klAs", "On"], *ontologies), *ontologies)
    assert label_of(interpreted, 1) == "Ticket_Class"
    assert interpreted.resolutions[1].via_relation == "rel_class"


def test_time_request_resolved_by_departure_verb(ontologies):
    interpreted = interpret(annotate_surfaces(["wqtA$", "yxrj", "OtrAn"], *ontologies), *ontologies)
    assert label_of(interpreted, 0) == "Departure_Time_Request"
    assert interpreted.resolutions[0].via_relation == "rel_departure_time"


def test_unambiguous_utterance_is_identity(ontologies):
    annotated = annotate_surfaces(["OtrAn", "nwrmAl", "zzz"], *ontologies)
    interpreted = interpret(annotated, *ontologies)
    assert interpreted.tokens == annotated.tokens
    assert all(r.outcome == UNCHANGED for r in interpreted.resolutions)
    assert interpreted.consumed_relations == frozenset()


def test_no_marker_leaves_token_unresolved(ontologies):
    interpreted = interpret(annotate_surfaces(["twns"], *ontologies), *ontologies)
    resolution = interpreted.resolutions[0]
    assert resolution.outcome == UNRESOLVED
    assert resolution.candidates == {"Arrival_City", "Departure_City"}
    assert interpreted.tokens[0].status is Status.AMBIGUOUS


def test_output_token_count_matches_input(ontologies, tables):
    for raw in samples.load_sample_corpus():
        annotated = annotate(normalize(raw, tables, *ontologies), *ontologies)
        assert len(interpret(annotated, *ontologies).tokens) == len(annotated.tokens)


# -- marker selection -------------------------------------------------------------

def test_nearest_marker_wins():
    # m2 at distance 1 beats m1 at distance 2
    annotated = annotate_surfaces(["m1", "pln", "m2", "amb"], SYNTH)
    interpreted = interpret(annotated, SYNTH)
    assert interpreted.resolutions[3].via_relation == "rel_b"
    assert label_of(interpreted, 3) == "C2"


def test_equidistant_markers_prefer_left():
    annotated = annotate_surfaces(["m1", "amb", "m2"], SYNTH)
    interpreted = interpret(annotated, SYNTH)
    assert interpreted.resolutions[1].via_relation == "rel_a"
    assert interpreted.resolutions[1].relation_token_index == 0


def test_tie_break_right_flips_preference():
    annotated = annotate_surfaces(["m1", "amb", "m2"], SYNTH)
    interpreted = interpret(annotated, SYNTH, tie_break="right")
    assert interpreted.resolutions[1].via_relation == "rel_b"
    assert interpreted.resolutions[1].relation_token_index == 2


def test_equidistant_only_right_qualifies():
    # mx's target is outside the candidates, so the right marker wins the tie
    annotated = annotate_surfaces(["mx", "amb", "m1"], SYNTH)
    interpreted = interpret(annotated, SYNTH)
    resolution = interpreted.resolutions[1]
    assert resolution.outcome == RESOLVED
    assert resolution.via_relation == "rel_a"
    assert resolution.relation_token_index == 2
    # matches the exhaustive oracle
    assert oracle_resolve(annotated, 1, SYNTH, set()) == ("resolved", "C1", "rel_a", 2)


def test_multi_relation_marker_tries_sorted_ids():
    annotated = annotate_surfaces(["m12", "amb"], SYNTH)
    interpreted = interpret(annotated, SYNTH)
    # rel_cc sorts before rel_dd and its target qualifies
    assert interpreted.resolutions[1].via_relation == "rel_cc"
    assert label_of(interpreted, 1) == "C2"


def test_marker_occurrence_consumed_once():
    annotated = annotate_surfaces(["amb", "m1", "amb"], SYNTH)
    interpreted = interpret(annotated, SYNTH)
    first, second = interpreted.resolutions[0], interpreted.resolutions[2]
    assert first.outcome == RESOLVED and first.relation_token_index == 1
    assert second.outcome == UNRESOLVED
    assert interpreted.consumed_relations == {("rel_a", 1)}


def test_repeated_marker_surfaces_are_distinct_occurrences():
    annotated = annotate_surfaces(["amb", "m1", "m1", "amb"], SYNTH)
    interpreted = interpret(annotated, SYNTH)
    assert interpreted.resolutions[0].relation_token_index == 1
    assert interpreted.resolutions[3].relation_token_index == 2
    assert len(interpreted.consumed_relations) == 2


def test_resolve_token_validates_tie_break(ontologies):
    annotated = annotate_surfaces(["twns"], *ontologies)
    with pytest.raises(ValueError, match="tie_break"):
        resolve_token(0, annotated, ontologies, set(), tie_break="sideways")


def test_interpret_validates_tie_break_without_ambiguous_tokens(ontologies):
    annotated = annotate_surfaces(["OtrAn"], *ontologies)
    assert annotated.tokens[0].status is not Status.AMBIGUOUS
    with pytest.raises(ValueError, match="tie_break"):
        interpret(annotated, *ontologies, tie_break="sideways")


def test_interpret_all_validates_tie_break_on_empty_input(ontologies):
    with pytest.raises(ValueError, match="tie_break"):
        interpret_all([], *ontologies, tie_break="bogus")


# -- properties ---------------------------------------------------------------------

def test_soundness_and_consumption_on_shipped_corpus(ontologies, tables):
    for raw in samples.load_sample_corpus():
        annotated = annotate(normalize(raw, tables, *ontologies), *ontologies)
        interpreted = interpret(annotated, *ontologies)
        marker_count = sum(1 for t in annotated.tokens if t.relation_ids)
        assert len(interpreted.consumed_relations) <= marker_count
        indexes = [j for _, j in interpreted.consumed_relations]
        assert len(indexes) == len(set(indexes))
        for resolution in interpreted.resolutions:
            if resolution.outcome == RESOLVED:
                assert resolution.label in resolution.candidates
                marker = annotated.tokens[resolution.relation_token_index]
                assert marker.relation_ids


def test_interpretation_is_local_to_one_utterance(ontologies, tables):
    # batch interpretation equals interpreting each utterance in isolation
    annotated = [
        annotate(normalize(raw, tables, *ontologies), *ontologies)
        for raw in samples.load_sample_corpus()
    ]
    batch = interpret_all(annotated, *ontologies)
    solo = [interpret(a, *ontologies) for a in annotated]
    assert batch == solo


def test_interpret_matches_oracle_on_enumeration():
    alphabet = ("amb", "m1", "m2", "mx", "pln")
    for tie_break in ("left", "right"):
        for surfaces in enumerate_surface_tuples(alphabet, 4):
            annotated = annotate_surfaces(list(surfaces), SYNTH)
            interpreted = interpret(annotated, SYNTH, tie_break=tie_break)
            expected = oracle_interpret(annotated, SYNTH, tie_break=tie_break)
            got = [
                (r.outcome, r.label, r.via_relation, r.relation_token_index)
                for r in interpreted.resolutions
            ]
            assert got == expected, (surfaces, tie_break)


# -- no merge per call ----------------------------------------------------------------
# `interpret` reads each relation's target from the ontologies in order; the
# answer must be the one the merged ontology gives, including which of two
# conflicting declarations wins and when no ontology declares the id.

CONCEPTS = ("A", "B", "C")


@st.composite
def ontology_pair(draw):
    """`shared` is declared in both ontologies (targets drawn apart, so they
    may differ), `second` only in the second, `first` only in the first; an
    id may be declared twice in one ontology."""
    target = st.sampled_from(CONCEPTS)

    def ontology(ids, always):
        relation = st.builds(
            Relation, st.sampled_from(ids), st.frozensets(st.sampled_from(("m", "n")), min_size=1),
            st.just("A"), target,
        )
        relations = draw(st.lists(relation, max_size=4))
        relations += [Relation(i, frozenset({"m"}), "A", draw(target)) for i in always]
        return Ontology(tuple(Concept(c, "domain") for c in CONCEPTS), relations=tuple(relations))

    return ontology(("shared", "first"), ("shared",)), ontology(("shared", "second"), ("shared", "second"))


token_annotation = st.one_of(
    st.frozensets(st.sampled_from(CONCEPTS), min_size=2).map(
        lambda labels: TokenAnnotation("amb", labels, frozenset(), Status.AMBIGUOUS)
    ),
    # `nowhere` is declared by neither ontology
    st.frozensets(st.sampled_from(("shared", "first", "second", "nowhere")), min_size=1).map(
        lambda ids: TokenAnnotation("m", frozenset(), ids, Status.RELATION_MARKER)
    ),
    st.just(TokenAnnotation("x", frozenset({"A"}), frozenset(), Status.LABELED)),
)


def outcome(function, *args, **kwargs):
    try:
        return function(*args, **kwargs)
    except UnknownRelationError as err:
        return ("UnknownRelationError", err.args)


@settings(max_examples=300, deadline=None)
@given(
    pair=ontology_pair(),
    tokens=st.lists(token_annotation, max_size=6),
    tie_break=st.sampled_from(("left", "right")),
)
def test_property_interpret_pair_equals_interpret_merged(pair, tokens, tie_break):
    annotated = AnnotatedUtterance("u", tuple(tokens))
    merged = merge(*pair)
    assert outcome(interpret, annotated, *pair, tie_break=tie_break) == outcome(
        interpret, annotated, merged, tie_break=tie_break
    )
    assert outcome(interpret_all, [annotated], *pair, tie_break=tie_break) == outcome(
        interpret_all, [annotated], merged, tie_break=tie_break
    )


def test_interpret_never_merges(ontologies, tables, monkeypatch):
    normalized = normalize_all(samples.load_sample_corpus(), tables, *ontologies)
    annotated = annotate_all(normalized, *ontologies)
    expected = interpret_all(annotated, merge(*ontologies))

    def no_merge(*args):
        raise AssertionError("interpret merged the ontologies")

    monkeypatch.setattr(importlib.import_module("ontosem.interpret"), "merge", no_merge)
    assert interpret_all(annotated, *ontologies) == expected
    assert [interpret(a, *ontologies) for a in annotated] == expected
    assert interpret_all(annotated, *ontologies, tie_break="right") == interpret_all(
        annotated, merge(*ontologies), tie_break="right"
    )
