import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ontosem import samples
from ontosem.annotate import SEMANTIC_RELATION_LABEL, Status, TokenAnnotation, annotate_all
from ontosem.corpus import GoldToken, GoldUtterance, load_gold, load_utterances
from ontosem.evaluate import (
    AlignmentError,
    EvaluationCounts,
    metrics,
    render_counts_table,
    render_report,
    report,
    report_to_document,
)
from ontosem.interpret import Resolution, InterpretedUtterance, UNCHANGED, interpret_all
from ontosem.normalize import normalize_all
from ontosem.ontology import merge


def make_predicted(uid, rows):
    """rows: (surface, status, labels). Builds a pass-through interpretation."""
    tokens = []
    resolutions = []
    for surface, status, labels in rows:
        relation_ids = frozenset({"rel_x"}) if status is Status.RELATION_MARKER else frozenset()
        tokens.append(TokenAnnotation(surface, frozenset(labels), relation_ids, status))
        resolutions.append(Resolution(outcome=UNCHANGED, candidates=frozenset(labels)))
    return InterpretedUtterance(id=uid, tokens=tuple(tokens), resolutions=tuple(resolutions))


def make_gold(uid, rows):
    return {
        uid: GoldUtterance(
            id=uid,
            tokens=tuple(GoldToken(surface, label) for surface, label in rows),
        )
    }


# -- metrics -------------------------------------------------------------------------

def test_reference_arithmetic():
    m = metrics(EvaluationCounts(448, 14, 208, 670))
    assert m.precision == pytest.approx(0.9697, abs=0.0001)
    assert m.f_measure == pytest.approx(0.6687, abs=0.0001)
    assert m.precision_display == "0.96"
    assert m.f_measure_display == "0.66"
    assert m.precision_exact == Fraction(448, 462)
    assert m.f_measure_exact == Fraction(448, 670)


def test_counts_invariant_enforced():
    EvaluationCounts(448, 14, 208, 670)  # consistent
    with pytest.raises(ValueError):
        EvaluationCounts(448, 14, 208, 600)
    with pytest.raises(ValueError):
        EvaluationCounts(-1, 0, 1, 0)


def test_replace_and_make_check_the_counts():
    assert EvaluationCounts(1, 1, 1, 3)._replace(correct=2, total=4) == EvaluationCounts(2, 1, 1, 4)
    with pytest.raises(ValueError, match="total 9"):
        EvaluationCounts(1, 1, 1, 3)._replace(total=9)
    with pytest.raises(ValueError, match="non-negative"):
        EvaluationCounts._make((-1, 0, 1, 0))


def test_perfect_run_metrics():
    m = metrics(EvaluationCounts.tally(correct=7))
    assert m.precision == 1.0
    assert m.f_measure == 1.0
    assert m.precision_display == "1.00"


def test_nothing_annotated_metrics():
    m = metrics(EvaluationCounts.tally(not_recognized=5))
    assert m.precision is None
    assert m.precision_display is None
    assert m.f_measure == 0.0


def test_empty_counts_metrics():
    m = metrics(EvaluationCounts.tally())
    assert m.precision is None
    assert m.f_measure is None
    assert m.f1_conventional is None


def test_f_measure_never_exceeds_precision():
    rng = random.Random(3)
    for _ in range(200):
        a, b, c = rng.randrange(50), rng.randrange(50), rng.randrange(50)
        m = metrics(EvaluationCounts.tally(a, b, c))
        if m.precision_exact is not None and m.f_measure_exact is not None:
            assert 0 <= m.f_measure_exact <= m.precision_exact <= 1


@given(st.integers(0, 60), st.integers(0, 60), st.integers(0, 60))
def test_f1_is_the_harmonic_mean_of_precision_and_f_measure(a, b, c):
    m = metrics(EvaluationCounts.tally(a, b, c))
    p, f = m.precision_exact, m.f_measure_exact
    defined = p is not None and f is not None and p + f > 0
    assert m.f1_exact == (2 * p * f / (p + f) if defined else None)


def test_truncation_is_floor_not_round():
    # 199/200 = 0.995 must display as 0.99
    m = metrics(EvaluationCounts.tally(correct=199, incorrect=1))
    assert m.precision_display == "0.99"


# -- counts ----------------------------------------------------------------------------

def test_all_correct_three_tokens():
    rows = [("x", Status.LABELED, {"A"}), ("y", Status.LABELED, {"B"}), ("z", Status.RELATION_MARKER, set())]
    gold = make_gold("u", [("x", "A"), ("y", "B"), ("z", SEMANTIC_RELATION_LABEL)])
    counts = report([make_predicted("u", rows)], gold).counts
    assert counts == EvaluationCounts(3, 0, 0, 3)


def test_hand_counted_mixed_case():
    # five tokens: three right, one committed wrong, one out of vocabulary
    rows = [
        ("t1", Status.LABELED, {"A"}),
        ("t2", Status.LABELED, {"B"}),
        ("t3", Status.LABELED, {"A"}),
        ("t4", Status.LABELED, {"B"}),
        ("t5", Status.NOT_RECOGNIZED, set()),
    ]
    gold = make_gold("u", [("t1", "A"), ("t2", "B"), ("t3", "A"), ("t4", "A"), ("t5", "C")])
    counts = report([make_predicted("u", rows)], gold).counts
    assert counts == EvaluationCounts(3, 1, 1, 5)


def test_unresolved_scored_as_not_recognized_by_default():
    rows = [("w", Status.AMBIGUOUS, {"A", "B"})]
    gold = make_gold("u", [("w", "A")])
    assert report([make_predicted("u", rows)], gold).counts == EvaluationCounts(0, 0, 1, 1)


def test_unresolved_policy_incorrect():
    rows = [("w", Status.AMBIGUOUS, {"A", "B"})]
    gold = make_gold("u", [("w", "A")])
    counts = report([make_predicted("u", rows)], gold, unresolved_policy="incorrect").counts
    assert counts == EvaluationCounts(0, 1, 0, 1)


def test_unknown_policy_rejected():
    with pytest.raises(ValueError, match="unresolved_policy"):
        report([], {}, unresolved_policy="coin-flip")


def test_marker_scored_against_reserved_label():
    rows = [("m", Status.RELATION_MARKER, set())]
    gold = make_gold("u", [("m", "A")])  # gold disagrees with the marker reading
    assert report([make_predicted("u", rows)], gold).counts == EvaluationCounts(0, 1, 0, 1)


def test_token_count_mismatch_is_alignment_error():
    rows = [("x", Status.LABELED, {"A"})]
    gold = make_gold("u", [("x", "A"), ("y", "B")])
    with pytest.raises(AlignmentError, match="tokens"):
        report([make_predicted("u", rows)], gold)


def test_missing_utterance_is_alignment_error():
    gold = make_gold("u", [("x", "A")])
    with pytest.raises(AlignmentError, match="ids differ"):
        report([], gold)


def test_predicted_utterance_with_no_token_that_gold_lacks_is_aligned():
    rows = [("x", Status.LABELED, {"A"})]
    gold = make_gold("u", [("x", "A")])
    expected = report([make_predicted("u", rows)], gold)
    assert report([make_predicted("v", []), make_predicted("u", rows)], gold) == expected
    # every other id mismatch still raises: a token, a repeat, or a gold utterance left out
    with pytest.raises(AlignmentError, match=r"missing from predictions \[\], not in gold \['v'\]$"):
        report([make_predicted("v", rows), make_predicted("u", rows)], gold)
    with pytest.raises(AlignmentError, match=r"repeated in predictions: \['v'\]$"):
        report([make_predicted("v", []), make_predicted("v", []), make_predicted("u", rows)], gold)
    with pytest.raises(AlignmentError, match=r"missing from predictions \['u'\], not in gold \[\]$"):
        report([make_predicted("v", [])], gold)
    with pytest.raises(AlignmentError, match="0 predicted tokens vs 1 gold tokens"):
        report([make_predicted("u", [])], gold)


def test_repeated_predicted_id_is_alignment_error():
    rows = [("x", Status.LABELED, {"A"})]
    gold = {**make_gold("u1", [("x", "A")]), **make_gold("u2", [("x", "A")])}
    once = [make_predicted("u2", rows), make_predicted("u1", rows)]
    assert report(once, gold).counts == EvaluationCounts(2, 0, 0, 2)
    with pytest.raises(AlignmentError, match=r"repeated in predictions: \['u1', 'u2'\]$"):
        report(once + once, gold)
    # a second, different prediction under one id is not silently dropped either
    other = make_predicted("u1", [("x", Status.NOT_RECOGNIZED, set())])
    with pytest.raises(AlignmentError, match=r"repeated in predictions: \['u1'\]$"):
        report(iter(once + [other]), gold)


def test_surface_mismatch_is_alignment_error():
    rows = [("x", Status.LABELED, {"A"})]
    gold = make_gold("u", [("y", "A")])
    with pytest.raises(AlignmentError, match="surface"):
        report([make_predicted("u", rows)], gold)


def test_compare_invariant_under_utterance_order():
    rng = random.Random(11)
    predicted = []
    gold = {}
    for i in range(8):
        rows = [(f"t{i}{j}", Status.LABELED, {"A"}) for j in range(3)]
        predicted.append(make_predicted(f"u{i}", rows))
        gold.update(make_gold(f"u{i}", [(f"t{i}{j}", "A" if j else "B") for j in range(3)]))
    baseline = report(predicted, gold).counts
    for _ in range(5):
        shuffled = predicted[:]
        rng.shuffle(shuffled)
        assert report(shuffled, gold).counts == baseline


_STATUSES = st.sampled_from(
    [Status.LABELED, Status.AMBIGUOUS, Status.RELATION_MARKER, Status.NOT_RECOGNIZED]
)


@st.composite
def aligned_pair(draw):
    labels = ["A", "B", "C"]
    predicted = []
    gold = {}
    for u in range(draw(st.integers(1, 4))):
        rows = []
        gold_rows = []
        for t in range(draw(st.integers(1, 5))):
            status = draw(_STATUSES)
            if status is Status.LABELED:
                token_labels = {draw(st.sampled_from(labels))}
            elif status is Status.AMBIGUOUS:
                token_labels = set(draw(st.sampled_from([("A", "B"), ("B", "C"), ("A", "B", "C")])))
            else:
                token_labels = set()
            surface = f"s{u}_{t}"
            rows.append((surface, status, token_labels))
            gold_rows.append(
                (surface, draw(st.sampled_from(labels + [SEMANTIC_RELATION_LABEL, "OOV"])))
            )
        predicted.append(make_predicted(f"u{u}", rows))
        gold.update(make_gold(f"u{u}", gold_rows))
    return predicted, gold


@settings(max_examples=200, deadline=None)
@given(aligned_pair(), st.sampled_from(["not-recognized", "incorrect"]))
def test_count_conservation_on_random_comparisons(pair, policy):
    predicted, gold = pair
    counts = report(predicted, gold, unresolved_policy=policy).counts
    assert counts.correct + counts.incorrect + counts.not_recognized == counts.total
    assert counts.total == sum(len(g.tokens) for g in gold.values())


# -- report ------------------------------------------------------------------------------

@pytest.fixture(scope="module")
def mini_corpus_report(domain, task, tables):
    normalized = normalize_all(load_utterances(samples.corpus_path()), tables, domain, task)
    interpreted = interpret_all(annotate_all(normalized, domain, task), domain, task)
    gold = load_gold(samples.gold_path(), merge(domain, task))
    return report(interpreted, gold)


def test_report_regression_counts(mini_corpus_report):
    assert mini_corpus_report.counts == EvaluationCounts(64, 2, 9, 75)


def test_report_per_concept_rows(mini_corpus_report):
    per = mini_corpus_report.per_concept
    assert per["Train"] == EvaluationCounts(9, 0, 0, 9)
    assert per["Arrival_City"] == EvaluationCounts(7, 0, 1, 8)
    assert per["Ticket_Class"] == EvaluationCounts(3, 0, 0, 3)
    assert sum(c.total for c in per.values()) == mini_corpus_report.counts.total


def test_report_single_label_slice(mini_corpus_report):
    counts = mini_corpus_report.single_label_counts
    assert counts.total > 0
    assert counts.correct + counts.incorrect + counts.not_recognized == counts.total
    assert mini_corpus_report.single_label_precision is not None


def test_perfect_predictions_per_concept_precision():
    rows = [("x", Status.LABELED, {"A"}), ("y", Status.LABELED, {"B"})]
    gold = make_gold("u", [("x", "A"), ("y", "B")])
    rep = report([make_predicted("u", rows)], gold)
    for counts in rep.per_concept.values():
        assert metrics(counts).precision == 1.0


def test_render_counts_table_shape():
    text = render_counts_table(EvaluationCounts(448, 14, 208, 670))
    lines = text.splitlines()
    assert len(lines) == 6
    assert lines[0].startswith("Correct Annotation")
    assert "0.66" in lines[4]
    assert "0.96" in lines[5]


def test_report_document_is_json_friendly(mini_corpus_report):
    import json

    document = report_to_document(mini_corpus_report)
    encoded = json.dumps(document, sort_keys=True)
    assert "precision" in encoded
    assert document["counts"]["total"] == 75


def test_render_report_includes_breakdown(mini_corpus_report):
    text = render_report(mini_corpus_report)
    assert "single-label precision" in text
    assert "Train" in text
