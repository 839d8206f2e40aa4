"""The XML writer, the interpreted-TSV writer and `report` do their per-token
work once per distinct token. The references below do it once per token; on
any corpus both must give the same bytes and the same report."""

from __future__ import annotations

import itertools
from collections import Counter, defaultdict

import pytest
from hypothesis import Phase, find, given, settings, strategies as st

from conftest import make_normalized
from ontosem.annotate import SEMANTIC_RELATION_LABEL, Status, annotate, committed_label
from ontosem.corpus import OOV_LABEL, GoldToken, GoldUtterance
from ontosem.evaluate import AlignmentError, EvaluationCounts, EvaluationReport, metrics, report
from ontosem.interpret import RESOLVED, TIE_BREAKS, UNCHANGED, UNRESOLVED, UNRESOLVED_POLICIES, interpret
from ontosem.ontology import Concept, Instance, Ontology, Relation
from ontosem.serialize import (
    INTERPRETED_TSV_HEADER,
    annotated_to_xml,
    escape,
    interpreted_to_tsv,
    interpreted_to_xml,
    quoteattr,
)

# -- references: the per-token loops ---------------------------------------------------


def reference_token_xml(token):
    is_marker = token.status is Status.RELATION_MARKER
    labels = [SEMANTIC_RELATION_LABEL] if is_marker else sorted(token.labels)
    opening = f"    <token value={quoteattr(token.surface)}"
    if not labels:
        return [opening + "/>"]
    lines = [opening + ">"]
    lines.extend(f"      <annotation>{escape(label)}</annotation>" for label in labels)
    lines.append("    </token>")
    return lines


def reference_xml(utterances):
    lines = ['<?xml version="1.0" encoding="UTF-8"?>', "<utterances>"]
    for utterance in utterances:
        lines.append(f"  <utterance id={quoteattr(utterance.id)}>")
        for token in utterance.tokens:
            lines.extend(reference_token_xml(token))
        lines.append("  </utterance>")
    lines.append("</utterances>")
    return "\n".join(lines) + "\n"


def reference_interpreted_tsv(utterances):
    lines = [INTERPRETED_TSV_HEADER]
    for utterance in utterances:
        pairs = zip(utterance.tokens, utterance.resolutions, strict=True)
        for index, (token, resolution) in enumerate(pairs):
            lines.append(
                "\t".join(
                    (
                        utterance.id,
                        str(index),
                        token.surface,
                        token.status.value,
                        committed_label(token) or "-",
                        "|".join(sorted(resolution.candidates)) or "-",
                        resolution.outcome,
                        resolution.via_relation or "-",
                        "-" if resolution.relation_token_index is None else str(resolution.relation_token_index),
                    )
                )
            )
    return "\n".join(lines) + "\n"


def reference_report(predicted, gold, unresolved_policy="not-recognized"):
    """The utterance-level checks are shared with `report`; this is its token loop."""
    predicted_by_id = {u.id: u for u in predicted}
    overall, single = Counter(), Counter()
    per_concept = defaultdict(Counter)
    for uid, gold_utterance in gold.items():
        prediction = predicted_by_id[uid]
        if len(prediction.tokens) != len(gold_utterance.tokens):
            raise AlignmentError(
                f"utterance {uid!r}: {len(prediction.tokens)} predicted tokens"
                f" vs {len(gold_utterance.tokens)} gold tokens"
            )
        rows = zip(prediction.tokens, prediction.resolutions, gold_utterance.tokens, strict=True)
        for index, (token, resolution, gold_token) in enumerate(rows):
            if token.surface != gold_token.surface:
                raise AlignmentError(
                    f"utterance {uid!r} token {index}: surface {token.surface!r}"
                    f" vs gold {gold_token.surface!r}"
                )
            committed = committed_label(token)
            if token.status is Status.AMBIGUOUS:
                bucket = "b" if unresolved_policy == "incorrect" else "c"
            elif committed is None:
                bucket = "c"
            elif committed == gold_token.label:
                bucket = "a"
            else:
                bucket = "b"

            overall[bucket] += 1
            per_concept[gold_token.label][bucket] += 1
            if token.status is Status.LABELED and resolution.outcome == UNCHANGED:
                single[bucket] += 1

    counts = EvaluationCounts.tally(overall["a"], overall["b"], overall["c"])
    return EvaluationReport(
        counts=counts,
        metrics=metrics(counts),
        per_concept={
            label: EvaluationCounts.tally(t["a"], t["b"], t["c"])
            for label, t in sorted(per_concept.items())
        },
        single_label_counts=EvaluationCounts.tally(single["a"], single["b"], single["c"]),
    )


# -- a synthetic pair and corpora over it ------------------------------------------------

# `amb` is ambiguous within the domain and gains a task label; `m12` triggers
# two relations; `m1` and `mu` resolve `amb` to C1 through two relations;
# `a&b` and `q"'<` need escaping; `zzz` is unknown to both
DOMAIN = Ontology(
    concepts=(Concept("C1", "domain"), Concept("C2", "domain"), Concept("C3", "domain")),
    instances=(
        Instance("amb", frozenset({"C1", "C2"})),
        Instance("pln", frozenset({"C3"})),
        Instance("a&b", frozenset({"C1"})),
        Instance("q\"'<", frozenset({"C2", "C3"})),
    ),
    relations=(
        Relation("rel_a", frozenset({"m1"}), "C3", "C1"),
        Relation("rel_b", frozenset({"m2", "m12"}), "C3", "C2"),
    ),
)
TASK = Ontology(
    concepts=(Concept("T1", "task"),),
    instances=(Instance("amb", frozenset({"T1"})), Instance("tsk", frozenset({"T1"}))),
    relations=(
        Relation("rel_t", frozenset({"mt", "m12"}), "C1", "T1"),
        Relation("rel_u", frozenset({"mu"}), "T1", "C1"),
    ),
)
SURFACES = ["amb", "pln", "a&b", "q\"'<", "tsk", "zzz", "m1", "m2", "m12", "mt", "mu"]
OUTCOMES = [RESOLVED, UNRESOLVED, UNCHANGED]
CANDIDATES = [frozenset(), frozenset({"C1"}), frozenset({"C1", "C2"}), frozenset({"C1", "C2", "T1"})]
VIAS = [None, "rel_a", "rel_u"]
GOLD_LABELS = ["C1", "C2", "C3", "T1", SEMANTIC_RELATION_LABEL, OOV_LABEL]


@st.composite
def corpora(draw):
    """Annotated and interpreted utterances over the pair, with a gold label
    per token. Surfaces repeat within and across utterances, and every token
    is its own object, except in a repeated utterance, which shares the
    token objects of the one it repeats. Some utterances get resolutions
    drawn at random, as a caller of the writers or `report` may pass: the
    same token then meets each outcome, candidate set and relation."""
    tie_break = draw(st.sampled_from(TIE_BREAKS))
    annotated, interpreted, gold = [], [], {}
    for u in range(draw(st.integers(1, 6))):
        uid = f"u{u}"
        if interpreted and draw(st.booleans()):
            earlier = draw(st.sampled_from(range(len(interpreted))))
            annotated.append(annotated[earlier]._replace(id=uid))
            interpreted.append(interpreted[earlier]._replace(id=uid))
            gold[uid] = gold[interpreted[earlier].id]._replace(id=uid)
            continue
        surfaces = draw(st.lists(st.sampled_from(SURFACES), min_size=1, max_size=8))
        annotated.append(annotate(make_normalized(surfaces, uid=uid), DOMAIN, TASK))
        interpreted.append(interpret(annotated[-1], DOMAIN, TASK, tie_break=tie_break))
        if draw(st.booleans()):
            resolutions = tuple(
                r._replace(
                    outcome=draw(st.sampled_from(OUTCOMES)),
                    candidates=draw(st.sampled_from(CANDIDATES)),
                    via_relation=draw(st.sampled_from(VIAS)),
                )
                for r in interpreted[-1].resolutions
            )
            interpreted[-1] = interpreted[-1]._replace(resolutions=resolutions)
        labels = [draw(st.sampled_from(GOLD_LABELS)) for _ in surfaces]
        rows = enumerate(zip(surfaces, labels))
        gold[uid] = GoldUtterance(uid, tuple(GoldToken(i, s, label) for i, (s, label) in rows))
    order = draw(st.permutations(list(gold)))
    return annotated, interpreted, {uid: gold[uid] for uid in order}


@settings(max_examples=300, deadline=None)
@given(corpora(), st.sampled_from(UNRESOLVED_POLICIES))
def test_writers_and_report_equal_the_per_token_references(corpus, policy):
    annotated, interpreted, gold = corpus
    assert annotated_to_xml(annotated) == reference_xml(annotated)
    assert interpreted_to_xml(interpreted) == reference_xml(interpreted)
    assert interpreted_to_tsv(interpreted) == reference_interpreted_tsv(interpreted)
    assert report(interpreted, gold, policy) == reference_report(interpreted, gold, policy)


def _tokens(corpus):
    _, interpreted, _ = corpus
    return [(t, r) for u in interpreted for t, r in zip(u.tokens, u.resolutions)]


def _equal_not_same(corpus):
    tokens = [t for t, _ in _tokens(corpus)]
    return any(a == b and a is not b for a, b in itertools.combinations(tokens, 2))


def _shared(corpus):
    tokens = [t for t, _ in _tokens(corpus)]
    return len({id(t) for t in tokens}) < len(tokens)


@pytest.mark.parametrize("holds", [
    lambda c: any(t.status is Status.RELATION_MARKER for t, _ in _tokens(c)),
    # interpretation's own outcomes, not drawn ones: an ambiguous surface that
    # became labeled, and a token left ambiguous
    lambda c: any(t.status is Status.LABELED and t.surface in ("amb", "q\"'<") for t, _ in _tokens(c)),
    lambda c: any(t.status is Status.AMBIGUOUS for t, _ in _tokens(c)),
    lambda c: any(t.status is Status.NOT_RECOGNIZED for t, _ in _tokens(c)),
    _equal_not_same,
    _shared,
], ids=["marker", "resolved", "unresolved", "unknown", "equal-not-same", "shared"])
def test_the_corpora_hold_what_the_property_needs(holds):
    find(corpora(), holds, settings=settings(database=None, phases=[Phase.generate]))


def test_the_first_alignment_fault_in_gold_order_raises():
    """Two utterances each hold a fault, and the predictions list them in one
    order: the fault of the utterance gold lists first is the one raised."""
    left = annotate(make_normalized(["amb", "m1", "pln"], uid="u1"), DOMAIN, TASK)
    right = annotate(make_normalized(["pln", "tsk"], uid="u2"), DOMAIN, TASK)
    predicted = [interpret(left, DOMAIN, TASK), interpret(right, DOMAIN, TASK)]
    surface_fault = GoldUtterance("u1", tuple(GoldToken(i, s, "C1") for i, s in enumerate(("amb", "m2", "pln"))))
    count_fault = GoldUtterance("u2", (GoldToken(0, "pln", "C3"),))
    messages = {
        "u1": "utterance 'u1' token 1: surface 'm1' vs gold 'm2'",
        "u2": "utterance 'u2': 2 predicted tokens vs 1 gold tokens",
    }
    for first, second in ((surface_fault, count_fault), (count_fault, surface_fault)):
        gold = {first.id: first, second.id: second}
        for policy in UNRESOLVED_POLICIES:
            with pytest.raises(AlignmentError) as err:
                report(predicted, gold, policy)
            with pytest.raises(AlignmentError) as expected:
                reference_report(predicted, gold, policy)
            assert str(err.value) == str(expected.value) == messages[first.id]
