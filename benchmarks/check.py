"""Correctness gate that scores outputs with its own few lines.

Nothing here calls `ontosem.evaluate`, so a defect there cannot hide a wrong
label: committed labels are read straight off the interpreted tokens and
tallied against the generated gold, and the tally must equal the frozen
sample report scaled to the workload (see `workloads.generate`).

Every check returns a list of problems; an empty list means correct.
"""

from __future__ import annotations

RELATION_LABEL = "Semantic_Relation"
BUCKETS = ("correct", "incorrect", "not_recognized", "total")


def committed_labels(interpreted) -> tuple[str | None, ...]:
    """The label each token commits to; None for unresolved or unknown tokens."""
    labels = []
    for token in interpreted.tokens:
        status = token.status.value
        if status == "relation_marker":
            labels.append(RELATION_LABEL)
        elif status == "labeled":
            (label,) = token.labels
            labels.append(label)
        else:
            labels.append(None)
    return tuple(labels)


def tally(interpreted, gold_of) -> tuple[list[str], dict]:
    """Score utterances against gold; returns (problems, report subset)."""
    counts = dict.fromkeys(BUCKETS, 0)
    per_concept: dict[str, dict[str, int]] = {}
    problems = []
    for utterance in interpreted:
        gold = gold_of.get(utterance.id)
        surfaces = tuple(t.surface for t in utterance.tokens)
        if gold is None or surfaces != tuple(s for s, _ in gold):
            problems.append(f"{utterance.id}: tokens {surfaces} do not align with gold")
            continue
        for label, (_, gold_label) in zip(committed_labels(utterance), gold):
            bucket = "not_recognized" if label is None else (
                "correct" if label == gold_label else "incorrect"
            )
            for record in (counts, per_concept.setdefault(gold_label, dict.fromkeys(BUCKETS, 0))):
                record[bucket] += 1
                record["total"] += 1
    return problems, {"counts": counts, "per_concept": per_concept}


def same_report(what: str, got: dict, expected: dict) -> list[str]:
    """Compare the counts and per_concept parts of a report document."""
    problems = []
    for key in ("counts", "per_concept"):
        if got.get(key) != expected[key]:
            problems.append(f"{what} {key} differ from the expected report: {got.get(key)}")
    return problems


def check_labels(interpreted, expected_labels) -> list[str]:
    """Each utterance commits to exactly the expected labels."""
    return [
        f"{u.id}: labels {committed_labels(u)} != expected {expected_labels.get(u.id)}"
        for u in interpreted
        if committed_labels(u) != expected_labels.get(u.id)
    ]


def check_batch(inputs, expected_labels, interpreted, report_doc, tsv: str, xml: str) -> list[str]:
    """Gate one in-process batch: labels, own tally, the program's report, both serializations."""
    ids = [u.id for u in interpreted]
    if ids != [uid for uid, _ in inputs.utterances]:
        return ["interpreted utterances are not the corpus utterances in order"]
    problems = check_labels(interpreted, expected_labels)
    misaligned, own = tally(interpreted, inputs.gold_of)
    problems += misaligned + same_report("own tally", own, inputs.expected)
    problems += same_report("ontosem report", report_doc, inputs.expected)

    rows = tsv.splitlines()[1:]
    expected_column = [
        label or "-" for u in interpreted for label in committed_labels(u)
    ]
    if [row.split("\t")[4] for row in rows] != expected_column:
        problems.append("TSV label column differs from the interpreted labels")
    tokens = len(expected_column)
    if xml.count("<utterance ") != len(ids) or xml.count("<token ") != tokens:
        problems.append("XML does not list every utterance and token")
    return problems
