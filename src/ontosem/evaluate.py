"""Token-level scoring of interpreted utterances against gold annotations.

Each token falls into one of three buckets:

    a  correct        committed label equals the gold label
    b  incorrect      committed label differs from the gold label
    c  not recognized the pipeline produced no label (out-of-vocabulary
                      tokens, and by default unresolved-ambiguous tokens)

with d = a + b + c the total. Two ratios are derived:

    precision = a / (a + b)      quality of committed labels
    f_measure = a / d            coverage-weighted quality

`f_measure` keeps that historical name and formula even though it is
recall-shaped; the conventional harmonic mean of the two ratios is reported
alongside as `f1_conventional`. Ratios are computed exactly as rationals and
reported both rounded to 4 decimals and truncated to 2 decimals (the display
form); zero-denominator cases are reported as absent, never as numbers.

Relation-marker tokens are scored like any other token against the reserved
gold label `Semantic_Relation`. Unresolved-ambiguous tokens count as not
recognized by default (`unresolved_policy="not-recognized"`); set
`"incorrect"` to treat a surviving candidate set as a wrong commitment
instead.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from fractions import Fraction
from itertools import chain
from typing import Iterable, Mapping, NamedTuple

from .annotate import Status, committed_label
from .corpus import GoldUtterance
from .interpret import UNCHANGED, UNRESOLVED_POLICIES, InterpretedUtterance


class AlignmentError(ValueError):
    """Predicted and gold corpora disagree on ids, token counts or surfaces."""


class _Counts(NamedTuple):
    correct: int
    incorrect: int
    not_recognized: int
    total: int


class EvaluationCounts(_Counts):
    """Checked counts: none negative, and `total` is the sum of the others."""

    __slots__ = ()

    def __new__(cls, correct: int, incorrect: int, not_recognized: int, total: int):
        parts = (correct, incorrect, not_recognized)
        if any(n < 0 for n in parts) or total < 0:
            raise ValueError("counts must be non-negative")
        if sum(parts) != total:
            raise ValueError(f"total {total} != correct+incorrect+not_recognized {sum(parts)}")
        return super().__new__(cls, correct, incorrect, not_recognized, total)

    @classmethod
    def _make(cls, iterable) -> "EvaluationCounts":  # `_replace` calls it: check there too
        return cls(*iterable)

    @classmethod
    def tally(cls, correct: int = 0, incorrect: int = 0, not_recognized: int = 0) -> "EvaluationCounts":
        return cls(correct, incorrect, not_recognized, correct + incorrect + not_recognized)


class Metrics(NamedTuple):
    precision_exact: Fraction | None
    f_measure_exact: Fraction | None
    f1_exact: Fraction | None

    @property
    def precision(self) -> float | None:
        return _round4(self.precision_exact)

    @property
    def f_measure(self) -> float | None:
        return _round4(self.f_measure_exact)

    @property
    def f1_conventional(self) -> float | None:
        return _round4(self.f1_exact)

    @property
    def precision_display(self) -> str | None:
        return _truncate2(self.precision_exact)

    @property
    def f_measure_display(self) -> str | None:
        return _truncate2(self.f_measure_exact)


class EvaluationReport(NamedTuple):
    """The ratios of `counts` are `metrics(report.counts)`."""

    counts: EvaluationCounts
    per_concept: dict[str, EvaluationCounts]
    single_label_counts: EvaluationCounts

    @property
    def single_label_precision(self) -> float | None:
        return metrics(self.single_label_counts).precision


def _round4(value: Fraction | None) -> float | None:
    return None if value is None else round(float(value), 4)


def _truncate2(value: Fraction | None) -> str | None:
    if value is None:
        return None
    hundredths = int(value * 100)  # exact rational, truncated toward zero
    return f"{hundredths // 100}.{hundredths % 100:02d}"


def metrics(counts: EvaluationCounts) -> Metrics:
    """Exact precision, f-measure and F1 (2PF/(P+F) = 2a/(a+b+d), defined when a > 0)."""
    a, b, d = counts.correct, counts.incorrect, counts.total
    precision = Fraction(a, a + b) if a + b else None
    f_measure = Fraction(a, d) if d else None
    f1 = Fraction(2 * a, a + b + d) if a else None
    return Metrics(precision_exact=precision, f_measure_exact=f_measure, f1_exact=f1)


def _raise_first_fault(
    predicted_by_id: Mapping[str, InterpretedUtterance], gold: Mapping[str, GoldUtterance]
) -> None:
    """Raise AlignmentError (or zip's ValueError for resolutions that do not
    match the tokens) at the first utterance or token, in gold order, that
    does not line up with gold."""
    for uid, gold_utterance in gold.items():
        prediction = predicted_by_id[uid]
        if len(prediction.tokens) != len(gold_utterance.tokens):
            raise AlignmentError(
                f"utterance {uid!r}: {len(prediction.tokens)} predicted tokens"
                f" vs {len(gold_utterance.tokens)} gold tokens"
            )
        rows = zip(prediction.tokens, prediction.resolutions, gold_utterance.tokens, strict=True)
        for index, (token, _, gold_token) in enumerate(rows):
            if token.surface != gold_token.surface:
                raise AlignmentError(
                    f"utterance {uid!r} token {index}: surface {token.surface!r}"
                    f" vs gold {gold_token.surface!r}"
                )


def report(
    predicted: Iterable[InterpretedUtterance],
    gold: Mapping[str, GoldUtterance],
    unresolved_policy: str = "not-recognized",
) -> EvaluationReport:
    """Full evaluation: overall counts, per-gold-label breakdown, and the
    precision of tokens committed from a single-label annotation. Raises
    AlignmentError unless the predictions hold each gold utterance once, with
    the same tokens, and any utterance gold lacks with no token (it adds 0)."""
    if unresolved_policy not in UNRESOLVED_POLICIES:
        raise ValueError(
            f"unresolved_policy must be one of {UNRESOLVED_POLICIES}, got {unresolved_policy!r}"
        )
    predicted = list(predicted)
    predicted_by_id = {u.id: u for u in predicted}
    if len(predicted_by_id) < len(predicted):
        repeated = sorted(uid for uid, n in Counter(u.id for u in predicted).items() if n > 1)
        raise AlignmentError(f"utterance ids repeated in predictions: {repeated}")
    missing = sorted(set(gold) - set(predicted_by_id))
    extra = sorted(uid for uid, u in predicted_by_id.items() if u.tokens and uid not in gold)
    if missing or extra:
        raise AlignmentError(
            f"utterance ids differ: missing from predictions {missing}, not in gold {extra}"
        )

    # a token's bucket follows from its (token, gold token, resolution) reading
    # alone: count the readings over the whole corpus, check each distinct
    # one's surfaces and pick its bucket once; on a fault walk token by token
    # to raise the one a per-token pass would
    predictions = [predicted_by_id[uid] for uid in gold]
    tokens, golds = [p.tokens for p in predictions], [g.tokens for g in gold.values()]
    resolutions = [p.resolutions for p in predictions]
    if not list(map(len, tokens)) == list(map(len, golds)) == list(map(len, resolutions)):
        _raise_first_fault(predicted_by_id, gold)
    readings = Counter(chain.from_iterable(map(zip, tokens, golds, resolutions)))
    overall, single = Counter(), Counter()  # bucket -> tokens
    per_concept: dict[str, Counter] = defaultdict(Counter)
    for (token, gold_token, resolution), n in readings.items():
        if token.surface != gold_token.surface:
            _raise_first_fault(predicted_by_id, gold)
        committed = committed_label(token)
        if token.status is Status.AMBIGUOUS:
            bucket = "b" if unresolved_policy == "incorrect" else "c"
        elif committed is None:
            bucket = "c"
        elif committed == gold_token.label:
            bucket = "a"
        else:
            bucket = "b"

        overall[bucket] += n
        per_concept[gold_token.label][bucket] += n
        if token.status is Status.LABELED and resolution.outcome == UNCHANGED:
            single[bucket] += n

    return EvaluationReport(
        counts=EvaluationCounts.tally(overall["a"], overall["b"], overall["c"]),
        per_concept={
            label: EvaluationCounts.tally(t["a"], t["b"], t["c"])
            for label, t in sorted(per_concept.items())
        },
        single_label_counts=EvaluationCounts.tally(single["a"], single["b"], single["c"]),
    )


def counts_to_document(counts: EvaluationCounts) -> dict:
    """JSON-serializable form of bare counts: `format_version`, the four
    counts and their metrics. `eval --from-counts` writes exactly this, and
    report_to_document() extends it, so both documents share one shape."""
    m = metrics(counts)
    return {
        "format_version": 1,
        "counts": counts._asdict(),
        "metrics": {
            "precision": m.precision,
            "f_measure": m.f_measure,
            "precision_display": m.precision_display,
            "f_measure_display": m.f_measure_display,
            "f1_conventional": m.f1_conventional,
        },
    }


def report_to_document(rep: EvaluationReport) -> dict:
    """JSON-serializable form of a report (deterministic content)."""
    return {
        **counts_to_document(rep.counts),
        "single_label_precision": rep.single_label_precision,
        "per_concept": {label: c._asdict() for label, c in sorted(rep.per_concept.items())},
    }


def render_counts_table(counts: EvaluationCounts) -> str:
    """Human-readable six-row summary of counts and both ratios."""
    m = metrics(counts)
    rows = [
        ("Correct Annotation", "(a)", str(counts.correct)),
        ("Incorrect Annotation", "(b)", str(counts.incorrect)),
        ("Not Recognized", "(c)", str(counts.not_recognized)),
        ("Total", "(d)", str(counts.total)),
        ("F-Measure", "(a / d)", m.f_measure_display or "n/a"),
        ("Precision", "(a/(a+b))", m.precision_display or "n/a"),
    ]
    return "\n".join(f"{name:<22}{formula:<11}{value:>8}" for name, formula, value in rows)


def render_report(rep: EvaluationReport) -> str:
    """Counts table plus 4-decimal metrics and the per-label breakdown."""
    lines = [render_counts_table(rep.counts), ""]
    m = metrics(rep.counts)

    def show(value: float | None) -> str:
        return "n/a" if value is None else f"{value:.4f}"

    lines.append(f"precision (4dp):              {show(m.precision)}")
    lines.append(f"f-measure (4dp):              {show(m.f_measure)}")
    lines.append(f"conventional F1 (4dp):        {show(m.f1_conventional)}")
    lines.append(f"single-label precision (4dp): {show(rep.single_label_precision)}")
    lines.append("")
    lines.append(f"{'gold label':<28}{'a':>6}{'b':>6}{'c':>6}{'d':>6}")
    for label, c in sorted(rep.per_concept.items()):
        lines.append(
            f"{label:<28}{c.correct:>6}{c.incorrect:>6}{c.not_recognized:>6}{c.total:>6}"
        )
    return "\n".join(lines)
