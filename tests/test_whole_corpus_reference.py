"""The whole-corpus functions do their per-token work once per distinct
token: `annotate_all` annotates each distinct surface once, the XML writers
render and check each distinct token once, the interpreted-TSV writer and
`report` join and score each distinct reading once, and `interpret_all` and
`load_gold` give equal readings one shared record. The references below do
it once per token, `load_gold`'s reference is its earlier per-line loop and
`load_utterances`' reference reads README's corpus rules line by line; on
any input both must give the same result or raise the same error. The XML
writers and `export_owl` check each piece as they build it; their reference
checks the whole document."""

from __future__ import annotations

import itertools
import re
from collections import Counter, defaultdict
from html import unescape
from pathlib import Path
from unittest.mock import patch

import pytest
from hypothesis import Phase, find, given, settings, strategies as st

from conftest import make_normalized
from ontosem import annotate as annotate_module, serialize
from ontosem._input import read
from ontosem.annotate import (
    SEMANTIC_RELATION_LABEL,
    AnnotatedUtterance,
    Status,
    TokenAnnotation,
    annotate,
    annotate_all,
    committed_label,
)
from ontosem.corpus import (
    OOV_LABEL,
    CorpusFormatError,
    DuplicateUtteranceIdError,
    GoldToken,
    GoldUtterance,
    UnknownGoldLabelError,
    load_gold,
    load_utterances,
)
from ontosem.evaluate import AlignmentError, EvaluationCounts, EvaluationReport, report
from ontosem.interpret import (
    RESOLVED,
    TIE_BREAKS,
    UNCHANGED,
    UNRESOLVED,
    UNRESOLVED_POLICIES,
    interpret,
    interpret_all,
)
from ontosem.normalize import RawUtterance
from ontosem.ontology import EMPTY, Concept, Instance, Ontology, Relation, TaxonomyEdge
from ontosem.serialize import (
    INTERPRETED_TSV_HEADER,
    XMLCharacterError,
    annotated_to_xml,
    escape,
    export_owl,
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


_NOT_XML = re.compile("[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]")
_TOP_ELEMENT = re.compile(r"""  <([\w:]+) [\w:]+=("[^"]*"|'[^']*')""")


def reference_checked_xml(document):
    """The whole-document check: the first forbidden character, and the
    top-level element whose line last opened before it."""
    if bad := _NOT_XML.search(document):
        where = ""
        if element := _TOP_ELEMENT.match(document, document.rfind("\n  <", 0, bad.start()) + 1):
            where = f" for {element[1]} {unescape(element[2][1:-1])!r}"
        raise XMLCharacterError(f"cannot write XML{where}: U+{ord(bad[0]):04X} is not allowed in XML 1.0")
    return document


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

    return EvaluationReport(
        counts=EvaluationCounts.tally(overall["a"], overall["b"], overall["c"]),
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
    same token then meets each outcome, candidate set and relation. Half the
    corpora hold one or two faults (`_misalign`) that `report` refuses, and
    the TSV writer too when resolutions are cut short."""
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
        gold[uid] = GoldUtterance(uid, tuple(GoldToken(s, label) for s, label in zip(surfaces, labels)))
    if draw(st.booleans()):
        for _ in range(draw(st.integers(1, 2))):
            _misalign(draw, interpreted, gold)
    order = draw(st.permutations(list(gold)))
    return annotated, interpreted, {uid: gold[uid] for uid in order}


def _misalign(draw, interpreted, gold):
    """Put one fault into a random utterance: a gold token dropped or added,
    a gold surface changed, or the resolutions cut short."""
    u = draw(st.sampled_from(range(len(interpreted))))
    prediction = interpreted[u]
    tokens = list(gold[prediction.id].tokens)
    fault = draw(st.sampled_from(["drop", "add", "surface", "cut"]))
    if fault == "cut":
        cut = draw(st.integers(0, max(len(prediction.resolutions) - 1, 0)))
        interpreted[u] = prediction._replace(resolutions=prediction.resolutions[:cut])
    elif fault == "add" or not tokens:
        added = GoldToken(draw(st.sampled_from(SURFACES)), draw(st.sampled_from(GOLD_LABELS)))
        tokens.insert(draw(st.integers(0, len(tokens))), added)
    else:
        index = draw(st.integers(0, len(tokens) - 1))
        if fault == "drop":
            del tokens[index]
        else:
            tokens[index] = tokens[index]._replace(surface=tokens[index].surface + "~")
    gold[prediction.id] = gold[prediction.id]._replace(tokens=tuple(tokens))


def _outcome(function, *args):
    try:
        return function(*args)
    except ValueError as err:  # AlignmentError, or zip's for resolutions cut short
        return type(err), str(err)


@settings(max_examples=300, deadline=None)
@given(corpora(), st.sampled_from(UNRESOLVED_POLICIES))
def test_writers_and_report_equal_the_per_token_references(corpus, policy):
    annotated, interpreted, gold = corpus
    assert annotated_to_xml(annotated) == reference_xml(annotated)
    assert interpreted_to_xml(interpreted) == reference_xml(interpreted)
    assert _outcome(interpreted_to_tsv, interpreted) == _outcome(reference_interpreted_tsv, interpreted)
    assert _outcome(report, interpreted, gold, policy) == _outcome(reference_report, interpreted, gold, policy)


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
    lambda c: "predicted tokens vs" in str(_outcome(report, *c[1:])),
    lambda c: "vs gold" in str(_outcome(report, *c[1:])),
    lambda c: "zip() argument 2 is shorter" in str(_outcome(report, *c[1:])),
    lambda c: isinstance(_outcome(report, *c[1:]), EvaluationReport),
], ids=[
    "marker", "resolved", "unresolved", "unknown", "equal-not-same", "shared",
    "count-fault", "surface-fault", "resolutions-cut-short", "aligned",
])
def test_the_corpora_hold_what_the_property_needs(holds):
    find(corpora(), holds, settings=settings(database=None, phases=[Phase.generate], max_examples=1000))


def test_the_first_alignment_fault_in_gold_order_raises():
    """Two utterances each hold a fault, and the predictions list them in one
    order: the fault of the utterance gold lists first is the one raised."""
    left = annotate(make_normalized(["amb", "m1", "pln"], uid="u1"), DOMAIN, TASK)
    right = annotate(make_normalized(["pln", "tsk"], uid="u2"), DOMAIN, TASK)
    predicted = [interpret(left, DOMAIN, TASK), interpret(right, DOMAIN, TASK)]
    surface_fault = GoldUtterance("u1", tuple(GoldToken(s, "C1") for s in ("amb", "m2", "pln")))
    count_fault = GoldUtterance("u2", (GoldToken("pln", "C3"),))
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


# -- annotate_all: each distinct surface annotated once ------------------------------------

# the same surfaces under other labels: `amb` is plain, `zzz` ambiguous, `pln`
# a marker and `m1` a task instance
OTHER_DOMAIN = Ontology(
    concepts=(Concept("D1", "domain"), Concept("D2", "domain")),
    instances=(Instance("amb", frozenset({"D1"})), Instance("zzz", frozenset({"D1", "D2"}))),
    relations=(Relation("rel_p", frozenset({"pln"}), "D1", "D2"),),
)
OTHER_TASK = Ontology(concepts=(Concept("T9", "task"),), instances=(Instance("m1", frozenset({"T9"})),))
PAIRS = [(DOMAIN, TASK), (TASK, DOMAIN), (OTHER_DOMAIN, OTHER_TASK), (DOMAIN,), ()]


@st.composite
def normalized_corpora(draw):
    """Normalized utterances over SURFACES (plus OOV `new`). A surface repeats
    within and across utterances, sometimes as a distinct string object equal
    to an earlier one."""
    utterances = []
    for u in range(draw(st.integers(0, 6))):
        surfaces = draw(st.lists(st.sampled_from(SURFACES + ["new"]), max_size=8))
        # `(s + "~")[:-1]` is a new object equal to `s`
        surfaces = [(s + "~")[:-1] if draw(st.booleans()) else s for s in surfaces]
        utterances.append(make_normalized(surfaces, uid=f"u{u}"))
    return utterances


@settings(max_examples=300, deadline=None)
@given(normalized_corpora(), st.sampled_from(PAIRS))
def test_annotate_all_equals_annotate_per_utterance(utterances, pair):
    assert annotate_all(utterances, *pair) == [annotate(u, *pair) for u in utterances]


def _surfaces(utterances):
    return [s for u in utterances for s in u.tokens]


@pytest.mark.parametrize("holds", [
    lambda c: {"zzz", "amb", "m12"} <= set(_surfaces(c)),  # OOV, ambiguous and marker
    lambda c: len(set(_surfaces(c))) < len(_surfaces(c)),
    lambda c: any(a == b and a is not b for a, b in itertools.combinations(_surfaces(c), 2)),
], ids=["oov-ambiguous-marker", "repeated", "equal-not-same"])
def test_the_normalized_corpora_hold_what_the_property_needs(holds):
    find(normalized_corpora(), holds, settings=settings(database=None, phases=[Phase.generate]))


def test_annotate_all_annotates_each_distinct_surface_once_per_call(monkeypatch):
    calls = []

    def counted(surface, *ontologies):
        calls.append(surface)
        return annotate_token(surface, *ontologies)

    annotate_token = annotate_module.annotate_token
    monkeypatch.setattr(annotate_module, "annotate_token", counted)
    utterances = [make_normalized(["amb", "zzz", "amb"], uid="u0"), make_normalized(["zzz", "m1"], uid="u1")]
    annotated = annotate_all(utterances, DOMAIN, TASK)
    assert calls == ["amb", "zzz", "m1"]
    assert annotated[0].tokens[0] is annotated[0].tokens[2] is not None
    assert annotate_all(utterances, DOMAIN, TASK) == annotated
    assert calls == ["amb", "zzz", "m1"] * 2  # nothing was kept from the first call


def test_successive_calls_over_different_pairs_give_each_pairs_own_labels():
    utterances = [make_normalized(["amb", "pln", "m1", "zzz"])]
    first = annotate_all(utterances, DOMAIN, TASK)
    second = annotate_all(utterances, OTHER_DOMAIN, OTHER_TASK)
    assert first == [annotate(u, DOMAIN, TASK) for u in utterances]
    assert second == [annotate(u, OTHER_DOMAIN, OTHER_TASK) for u in utterances]
    assert [t.status for t in first[0].tokens] == [
        Status.AMBIGUOUS, Status.LABELED, Status.RELATION_MARKER, Status.NOT_RECOGNIZED,
    ]
    assert [t.status for t in second[0].tokens] == [
        Status.LABELED, Status.RELATION_MARKER, Status.LABELED, Status.AMBIGUOUS,
    ]


# -- interpret_all: one record per distinct reading -----------------------------------------


@st.composite
def annotated_corpora(draw):
    """Annotated utterances over the pair, annotated one by one or by
    `annotate_all`. An utterance may repeat an earlier one under a new id,
    sharing its tokens tuple; a token may be a copy of its annotation with
    a new surface string and label set equal to the old ones."""
    utterances = []
    for u in range(draw(st.integers(0, 6))):
        uid = f"u{u}"
        if utterances and draw(st.booleans()):
            utterances.append(draw(st.sampled_from(utterances))._replace(id=uid))
            continue
        surfaces = draw(st.lists(st.sampled_from(SURFACES), max_size=8))
        tokens = annotate(make_normalized(surfaces, uid=uid), DOMAIN, TASK).tokens
        tokens = tuple(
            t._replace(surface=(t.surface + "~")[:-1], labels=frozenset(list(t.labels)))
            if draw(st.booleans()) else t
            for t in tokens
        )
        utterances.append(AnnotatedUtterance(uid, tokens))
    if draw(st.booleans()):
        normalized = [make_normalized([t.surface for t in u.tokens], u.id) for u in utterances]
        utterances = annotate_all(normalized, DOMAIN, TASK)
    return utterances


def _readings(utterances, tie_break):
    return [
        (token, resolution)
        for u in utterances
        for token, resolution in zip(*interpret(u, DOMAIN, TASK, tie_break=tie_break)[1:])
    ]


def _resolved(utterances):
    return [(t.surface, r.label) for t, r in _readings(utterances, "left") if r.outcome == RESOLVED]


@settings(max_examples=300, deadline=None)
@given(annotated_corpora())
def test_interpret_all_equals_interpret_per_utterance_and_shares_equal_readings(utterances):
    for tie_break in TIE_BREAKS:
        interpreted = interpret_all(utterances, DOMAIN, TASK, tie_break=tie_break)
        assert interpreted == [interpret(u, DOMAIN, TASK, tie_break=tie_break) for u in utterances]
        unchanged, resolved = {}, {}
        for annotated, result in zip(utterances, interpreted):
            if RESOLVED not in {r.outcome for r in result.resolutions}:
                assert result.tokens is annotated.tokens
            for token, resolution in zip(result.tokens, result.resolutions):
                if resolution.outcome == UNCHANGED:
                    assert unchanged.setdefault(resolution.candidates, resolution) is resolution
                elif resolution.outcome == RESOLVED:
                    assert resolved.setdefault((token.surface, resolution.label), token) is token


@pytest.mark.parametrize("holds", [
    # equal candidate sets left unchanged, as distinct objects
    lambda c: any(
        a.outcome == b.outcome == UNCHANGED and a.candidates == b.candidates and a.candidates is not b.candidates
        for (_, a), (_, b) in itertools.combinations(_readings(c, "left"), 2)
    ),
    # one (surface, label) resolved twice, and a non-empty utterance with nothing resolved
    lambda c: len(set(_resolved(c))) < len(_resolved(c)),
    lambda c: any(u.tokens and RESOLVED not in {r.outcome for r in interpret(u, DOMAIN, TASK).resolutions} for u in c),
    lambda c: _readings(c, "left") != _readings(c, "right"),
], ids=["unchanged-equal-not-same", "resolved-twice", "nothing-resolved", "tie-breaks-differ"])
def test_the_annotated_corpora_hold_what_the_property_needs(holds):
    # 4 to 83 draws in 20 runs per case; the default budget of about 100 would be flaky
    find(annotated_corpora(), holds, settings=settings(database=None, phases=[Phase.generate], max_examples=1000))


# -- the XML writers check each piece once, in document order ---------------------------


def _written(utterances):
    try:
        return annotated_to_xml(utterances)
    except XMLCharacterError as err:
        return f"error: {err}"


def _reference_written(utterances):
    try:
        return reference_checked_xml(reference_xml(utterances))
    except XMLCharacterError as err:
        return f"error: {err}"


def _marker(surface):
    return TokenAnnotation(surface, EMPTY, frozenset({"rel_a"}), Status.RELATION_MARKER)


def _plain(surface, *labels):
    status = Status.LABELED if len(labels) == 1 else Status.AMBIGUOUS if labels else Status.NOT_RECOGNIZED
    return TokenAnnotation(surface, frozenset(labels), EMPTY, status)


CLEAN = _plain("pln", "C3")
BAD_TOKEN = _plain("b\x01d")
CASES = {
    "id": [AnnotatedUtterance("u0", (CLEAN,)), AnnotatedUtterance("u\x1f1", (CLEAN,))],
    "token-first-seen-later": [
        AnnotatedUtterance("u0", (CLEAN, _marker("m1"))),
        AnnotatedUtterance("u1", (CLEAN, _plain("amb", "C1", "C\ufffe"))),
    ],
    "reused-token": [
        AnnotatedUtterance("u0", (CLEAN,)),
        AnnotatedUtterance("u1", (BAD_TOKEN, CLEAN)),
        AnnotatedUtterance("u2", (CLEAN, BAD_TOKEN)),
    ],
    "id-and-token": [AnnotatedUtterance("u0", (CLEAN,)), AnnotatedUtterance("u\x0b1", (CLEAN, BAD_TOKEN))],
    "token-then-id": [AnnotatedUtterance("u0", (CLEAN, BAD_TOKEN)), AnnotatedUtterance("u\x0b1", (CLEAN,))],
    "two-in-one-token": [AnnotatedUtterance("u'\"0", (_marker("x\ud800y\x02"),))],
}
MESSAGES = {
    "id": "cannot write XML for utterance 'u\\x1f1': U+001F is not allowed in XML 1.0",
    "token-first-seen-later": "cannot write XML for utterance 'u1': U+FFFE is not allowed in XML 1.0",
    "reused-token": "cannot write XML for utterance 'u1': U+0001 is not allowed in XML 1.0",
    "id-and-token": "cannot write XML for utterance 'u\\x0b1': U+000B is not allowed in XML 1.0",
    "token-then-id": "cannot write XML for utterance 'u0': U+0001 is not allowed in XML 1.0",
    "two-in-one-token": "cannot write XML for utterance 'u\\'\"0': U+D800 is not allowed in XML 1.0",
}


@pytest.mark.parametrize("case", CASES)
def test_a_forbidden_character_is_named_as_the_whole_document_check_names_it(case):
    utterances = CASES[case]
    assert _written(utterances) == _reference_written(utterances) == f"error: {MESSAGES[case]}"


XML_TEXT = st.text(st.sampled_from(["a", "&", "'", '"', "<", "\n", "\t", "\x01", "\x0b", "\ud800", "\ufffe", "é"]), max_size=3)


@st.composite
def xml_corpora(draw):
    """Utterances whose ids, surfaces and labels may hold forbidden characters;
    a token is fresh, or shared with an earlier one."""
    pool = draw(st.lists(st.builds(
        TokenAnnotation, XML_TEXT, st.frozensets(XML_TEXT, max_size=2), st.just(EMPTY), st.sampled_from(Status),
    ), min_size=1, max_size=4))
    return [
        AnnotatedUtterance(draw(XML_TEXT), tuple(draw(st.lists(st.sampled_from(pool), max_size=4))))
        for _ in range(draw(st.integers(0, 4)))
    ]


@settings(max_examples=300, deadline=None)
@given(xml_corpora())
def test_the_xml_writers_refuse_what_the_whole_document_check_refuses(utterances):
    assert _written(utterances) == _reference_written(utterances)


# -- export_owl checks each element as it builds it -------------------------------------


@st.composite
def xml_ontologies(draw):
    """Ontologies, unvalidated, whose concept names and glosses, taxonomy
    parents, relation ids and endpoints, and instance surfaces and types may
    hold forbidden characters."""
    names = draw(st.lists(XML_TEXT, max_size=3))
    concepts = tuple(Concept(name, "domain", draw(st.none() | XML_TEXT)) for name in names)
    edges = draw(st.lists(st.builds(TaxonomyEdge, st.sampled_from(names), XML_TEXT), max_size=3)) if names else []
    relations = draw(st.lists(st.builds(Relation, XML_TEXT, st.just(frozenset({"m"})), XML_TEXT, XML_TEXT), max_size=2))
    instances = draw(st.lists(st.builds(Instance, XML_TEXT, st.frozensets(XML_TEXT, max_size=2)), max_size=3))
    return Ontology(concepts=concepts, taxonomy=tuple(edges), relations=tuple(relations), instances=tuple(instances))


def _owl_written(ontology):
    try:
        return export_owl(ontology)
    except XMLCharacterError as err:
        return f"error: {err}"


def _owl_reference_written(ontology):
    with patch.object(serialize, "_checked_xml", lambda text, *where: text):
        document = export_owl(ontology)
    try:
        return reference_checked_xml(document)
    except XMLCharacterError as err:
        return f"error: {err}"


@settings(max_examples=300, deadline=None)
@given(xml_ontologies())
def test_export_owl_refuses_what_the_whole_document_check_refuses(ontology):
    assert _owl_written(ontology) == _owl_reference_written(ontology)


# -- load_utterances: README's corpus rules, line by line -------------------------------


def reference_load_utterances(path):
    """UTF-8 less a leading BOM; `\r\n` and a lone `\r` end a line as `\n`
    does, and nothing else does; blank, whitespace-only and `#` lines are
    skipped; every other line is `id<TAB>text`, both stripped, with a
    non-empty id seen once."""
    path = Path(path)
    text = path.read_bytes().decode("utf-8").removeprefix("\ufeff")
    utterances, seen = [], set()
    for lineno, line in enumerate(text.replace("\r\n", "\n").replace("\r", "\n").split("\n"), 1):
        if not line.strip() or line.startswith("#"):
            continue
        if "\t" not in line:
            raise CorpusFormatError(f"{path}:{lineno}: expected 'id<TAB>text'")
        utterance_id, text = (part.strip() for part in line.split("\t", 1))
        if not utterance_id:
            raise CorpusFormatError(f"{path}:{lineno}: empty utterance id")
        if utterance_id in seen:
            raise DuplicateUtteranceIdError(f"{path}:{lineno}: duplicate id {utterance_id!r}")
        seen.add(utterance_id)
        utterances.append(RawUtterance(utterance_id, text))
    return utterances


# lines a corpus file may hold: padded ids and texts, a tab in the text, an
# empty text, U+2028 and a `\r` inside a line, blank, whitespace-only and
# `#` lines, a missing tab, an empty id and a repeated id
CORPUS_LINES = [
    "u1\tpln amb", "\u3000u2 \t m1  tsk\x1c", "u3\tpln\tzzz", "u4\t", "u5\tpln\u2028amb", "u6\tpln\ru7\tamb",
    "", " ", "\u3000\t\x1c", "# comment", "#u8\tpln", "u9 pln", " \tpln", "u1\tzzz",
]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(CORPUS_LINES), max_size=8), st.sampled_from(["\n", "\r\n"]), st.booleans())
def test_load_utterances_equals_its_per_line_reference(gold_dir, lines, newline, bom):
    path = gold_dir / "c.tsv"
    path.write_bytes((("\ufeff" if bom else "") + newline.join(lines) + newline).encode("utf-8"))
    assert _loaded(load_utterances, path, ()) == _loaded(reference_load_utterances, path, ())


@pytest.mark.parametrize("holds", [
    lambda loaded: isinstance(loaded, list) and len(loaded) > 2,
    lambda loaded: "expected 'id<TAB>text'" in str(loaded),
    lambda loaded: "empty utterance id" in str(loaded),
    lambda loaded: isinstance(loaded, tuple) and loaded[0] is DuplicateUtteranceIdError,
], ids=["read", "missing-tab", "empty-id", "duplicate-id"])
def test_the_corpus_files_hold_what_the_property_needs(gold_dir, holds):
    def loaded(lines):
        path = gold_dir / "c.tsv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return _loaded(reference_load_utterances, path, ())

    strategy = st.lists(st.sampled_from(CORPUS_LINES), max_size=8)
    find(strategy, lambda lines: holds(loaded(lines)),
         settings=settings(database=None, phases=[Phase.generate], max_examples=1000))


# -- load_gold: the per-line loop it replaced -----------------------------------------------


def reference_load_gold(path, *ontologies):
    path = Path(path)
    known = {SEMANTIC_RELATION_LABEL, OOV_LABEL}.union(*(o.concept_names for o in ontologies))
    grouped = {}
    block = None
    for lineno, line in enumerate(read(path, CorpusFormatError, str).split("\n"), 1):
        if not line.strip() or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 4:
            raise CorpusFormatError(f"{path}:{lineno}: expected 4 tab-separated fields, got {len(parts)}")
        utterance_id, index_text, surface, label = (p.strip() for p in parts)
        if not (index_text.isascii() and index_text.isdigit()):
            raise CorpusFormatError(f"{path}:{lineno}: token index {index_text!r} is not an integer")
        index = int(index_text)
        if ontologies and label not in known:
            raise UnknownGoldLabelError(f"{path}:{lineno}: unknown gold label {label!r}")
        if utterance_id != block or index == 0:
            if utterance_id in grouped:
                raise DuplicateUtteranceIdError(f"{path}:{lineno}: duplicate id {utterance_id!r}")
            block = utterance_id
            tokens = grouped[utterance_id] = []
        if index != len(tokens):
            raise CorpusFormatError(f"{path}:{lineno}: token index {index} out of order (expected {len(tokens)})")
        tokens.append(GoldToken(surface=surface, label=label))
    return {uid: GoldUtterance(id=uid, tokens=tuple(tokens)) for uid, tokens in grouped.items()}


def _loaded(load, path, ontologies):
    try:
        return load(path, *ontologies)
    except CorpusFormatError as err:
        return type(err), str(err)


# lines a gold file may hold: token lines of two utterances with padded fields,
# blank and whitespace-only lines (U+3000 and U+001C are whitespace too),
# comments, and one line of each malformed kind
GOLD_LINES = [
    "u1\t0\tpln\tC3", "u1\t1\tamb\tC1", "u1\t2\tm1\tSemantic_Relation", " u2 \t 0\tzzz \t OOV",
    "u2\t1\ttsk\tT1", "", " ", "\t \u3000", "\x1c", "# comment", "#u1\t0\tx\tC1",
    "u1\t0\tpln", "u1\t0\tpln\tC3\textra",  # field count
    "u1\tx\tpln\tC3", "u1\t-1\tpln\tC3", "u1\t١\tpln\tC3",  # not an ASCII integer
    "u1\t0\tpln\tNope",  # unknown label
    "u1\t3\tpln\tC3",  # out of order
]


@pytest.fixture(scope="module")
def gold_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("gold")


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(GOLD_LINES), max_size=10), st.booleans())
def test_load_gold_equals_its_per_line_reference(gold_dir, lines, with_pair):
    path = gold_dir / "g.tsv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    ontologies = (DOMAIN, TASK) if with_pair else ()
    assert _loaded(load_gold, path, ontologies) == _loaded(reference_load_gold, path, ontologies)


@st.composite
def gold_files(draw):
    """Gold files whose utterances may repeat earlier ones under a new id and
    whose readings repeat, with fields padded at random; one line may be
    malformed."""
    pad = st.sampled_from(["", " ", "\u3000"])
    blocks = []
    for u in range(draw(st.integers(0, 5))):
        if blocks and draw(st.booleans()):
            readings = draw(st.sampled_from(blocks))
        else:
            reading = st.tuples(st.sampled_from(SURFACES), st.sampled_from(GOLD_LABELS))
            readings = draw(st.lists(reading, min_size=1, max_size=6))
        blocks.append(readings)
    lines = [
        f"{draw(pad)}u{u}\t{i}\t{surface}{draw(pad)}\t{draw(pad)}{label}"
        for u, readings in enumerate(blocks)
        for i, (surface, label) in enumerate(readings)
    ]
    if draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(GOLD_LINES)))
    return "\n".join(lines) + "\n"


@settings(max_examples=300, deadline=None)
@given(gold_files(), st.booleans())
def test_load_gold_shares_equal_tokens_and_refuses_as_its_reference_does(gold_dir, text, with_pair):
    path = gold_dir / "g.tsv"
    path.write_text(text, encoding="utf-8")
    ontologies = (DOMAIN, TASK) if with_pair else ()
    loaded = _loaded(load_gold, path, ontologies)
    assert loaded == _loaded(reference_load_gold, path, ontologies)
    if isinstance(loaded, dict):
        shared = {}
        assert all(shared.setdefault(t, t) is t for u in loaded.values() for t in u.tokens)


def _gold_tokens(text, tmp_path):
    path = tmp_path / "g.tsv"
    path.write_text(text, encoding="utf-8")
    loaded = _loaded(reference_load_gold, path, ())
    return [t for u in loaded.values() for t in u.tokens] if isinstance(loaded, dict) else None


@pytest.mark.parametrize("holds", [
    lambda tokens: tokens is not None and len(set(tokens)) < len(tokens),
    lambda tokens: tokens is None,
], ids=["repeated-reading", "refused"])
def test_the_gold_files_hold_what_the_property_needs(tmp_path, holds):
    find(gold_files(), lambda text: holds(_gold_tokens(text, tmp_path)),
         settings=settings(database=None, phases=[Phase.generate], max_examples=1000))


VALID_GOLD = "# gold\nu1\t0\tpln\tC3\nu1\t1\tamb\tC1\n\t\n u2 \t 0\tzzz \t OOV\n\nu1x\t0\tm1\tSemantic_Relation\n"
MALFORMED_GOLD = {
    "field-count": ("u1\t0\tpln\n", CorpusFormatError),
    "index": ("u1\t+0\tpln\tC3\n", CorpusFormatError),
    "unknown-label": ("u1\t0\tpln\tNope\n", UnknownGoldLabelError),
    "duplicate-id": ("u1\t0\tpln\tC3\nu2\t0\tpln\tC3\nu1\t1\tpln\tC3\n", DuplicateUtteranceIdError),
    "out-of-order": ("u1\t0\tpln\tC3\n\u3000\nu1\t2\tpln\tC3\n", CorpusFormatError),
}


def test_load_gold_reads_a_valid_file_as_its_reference_does(tmp_path):
    path = tmp_path / "g.tsv"
    path.write_text(VALID_GOLD, encoding="utf-8")
    loaded = load_gold(path, DOMAIN, TASK)
    assert loaded == reference_load_gold(path, DOMAIN, TASK) == reference_load_gold(path)
    assert list(loaded) == ["u1", "u2", "u1x"] and loaded["u2"].tokens == (GoldToken("zzz", "OOV"),)


@pytest.mark.parametrize("kind", MALFORMED_GOLD)
def test_load_gold_raises_as_its_reference_does(tmp_path, kind):
    text, error = MALFORMED_GOLD[kind]
    path = tmp_path / "g.tsv"
    path.write_text(text, encoding="utf-8")
    raised = _loaded(load_gold, path, (DOMAIN, TASK))
    assert raised == _loaded(reference_load_gold, path, (DOMAIN, TASK))
    assert raised[0] is error
