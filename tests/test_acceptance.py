"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (run with `pytest tests/test_acceptance.py -s -q` to see them).
"""

import functools
import json
import random
import xml.etree.ElementTree as ET

import pytest

from conftest import (
    SYNTH,
    annotate_surfaces,
    consumed_relations,
    enumerate_surface_tuples,
    oracle_interpret,
    surface_vocabulary,
    write_ontology,
)
from ontosem import samples
from ontosem.annotate import Status, annotate, annotate_all
from ontosem.corpus import load_gold, load_utterances, stats
from ontosem.evaluate import EvaluationCounts, metrics, report, report_to_document
from ontosem.interpret import RESOLVED, interpret, interpret_all
from ontosem.normalize import RawUtterance, normalize, normalize_all
from ontosem.ontology import Concept, Instance, Ontology, Relation, TaxonomyEdge, merge, validate
from ontosem.ontology_io import load_ontology
from ontosem.serialize import export_owl
from ontosem.corpus import GoldToken, GoldUtterance
from ontosem.annotate import SEMANTIC_RELATION_LABEL, TokenAnnotation
from ontosem.interpret import Resolution, UNCHANGED, InterpretedUtterance


def criterion(number, title):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {number} FAIL: {title}")
                raise
            print(f"criterion {number} PASS: {title}")
        return wrapper
    return decorate


@criterion(1, "reference counts reproduce 0.9697/0.6687 and display 0.96/0.66")
def test_reference_metric_arithmetic():
    m = metrics(EvaluationCounts(448, 14, 208, 670))
    assert m.precision == pytest.approx(0.9697, abs=0.0001)
    assert m.f_measure == pytest.approx(0.6687, abs=0.0001)
    assert m.precision_display == "0.96"
    assert m.f_measure_display == "0.66"


@criterion(2, "golden annotation of 'wqtA$ yxrj OtrAn'")
def test_golden_annotation_sets(domain, task, tables):
    normalized = normalize(RawUtterance("u", "wqtA$ yxrj OtrAn"), tables, domain, task)
    annotated = annotate(normalized, domain, task)
    first, second, third = annotated.tokens
    assert first.labels == {"Departure_Time_Request", "Arrival_Time_Request"}
    assert second.status is Status.RELATION_MARKER
    assert third.labels == {"Train"}


@criterion(3, "'ltwns IlmADy sAEh' end-to-end resolves twns -> Arrival_City")
def test_direction_example_end_to_end(domain, task, tables):
    normalized = normalize(RawUtterance("u", "ltwns IlmADy sAEh"), tables, domain, task)
    assert normalized.tokens == ("Ily", "twns", "IlmADy_sAEh")
    interpreted = interpret(annotate(normalized, domain, task), domain, task)
    resolution = interpreted.resolutions[1]
    assert interpreted.tokens[1].labels == {"Arrival_City"}
    assert resolution.outcome == RESOLVED
    assert resolution.relation_token_index == 0
    assert interpreted.tokens[0].surface == "Ily"
    assert resolution.via_relation == "rel_to_arrival"


@criterion(4, "'klAs On' resolves On -> Ticket_Class via the klAs relation")
def test_class_example_end_to_end(domain, task, tables):
    normalized = normalize(RawUtterance("u", "klAs On"), tables, domain, task)
    interpreted = interpret(annotate(normalized, domain, task), domain, task)
    assert interpreted.tokens[1].labels == {"Ticket_Class"}
    resolution = interpreted.resolutions[1]
    assert resolution.via_relation == "rel_class"
    assert interpreted.tokens[resolution.relation_token_index].surface == "klAs"


@criterion(5, "corpus of 194 utterances / 701 words averages 3.61 +/- 0.005")
def test_corpus_average_statistic():
    rng = random.Random(194701)
    lengths = [4] * 119 + [3] * 75  # 119*4 + 75*3 = 701 words over 194 utterances
    rng.shuffle(lengths)
    corpus = [
        RawUtterance(f"u{i}", " ".join(f"w{j}" for j in range(n)))
        for i, n in enumerate(lengths)
    ]
    result = stats(corpus)
    assert (result.utterance_count, result.word_count) == (194, 701)
    assert result.avg_words_per_utterance == pytest.approx(3.61, abs=0.005)
    assert round(result.avg_words_per_utterance, 2) == 3.61


# -- criterion 6: property suite -------------------------------------------------


def _lexicon(domain, task, tables):
    vocabulary = sorted(
        surface_vocabulary(domain) | surface_vocabulary(task) | set(tables.variants)
    )
    multiword = [list(rule.parts) for rule in tables.compounds]
    clitic_hosts = [
        rule.prefix + host
        for rule in tables.clitics
        for host in ("twns", "SfAqs", "tskrh")
    ]
    return vocabulary, multiword, clitic_hosts


@criterion(6, "property (a): normalization idempotent on 1000 randomized inputs")
def test_property_normalize_idempotence(domain, task, tables):
    rng = random.Random(0xC0FFEE)
    vocabulary, multiword, clitic_hosts = _lexicon(domain, task, tables)
    for _ in range(1000):
        words: list[str] = []
        for _ in range(rng.randint(0, 7)):
            kind = rng.random()
            if kind < 0.70:
                words.append(rng.choice(vocabulary))
            elif kind < 0.85:
                words.extend(rng.choice(multiword))
            else:
                words.append(rng.choice(clitic_hosts))
        if words and rng.random() < 0.3:
            words[-1] += rng.choice("؟?!.,")
        text = (" " * rng.randint(1, 2)).join(words)
        once = normalize(RawUtterance("r", text), tables, domain, task).tokens
        again = normalize(RawUtterance("r", " ".join(once)), tables, domain, task).tokens
        assert again == once, text


@criterion(6, "property (b): interpretation soundness and relation consumption")
def test_property_soundness_and_consumption(domain, task, tables):
    rng = random.Random(0xB0B)
    vocabulary, _, _ = _lexicon(domain, task, tables)
    for _ in range(500):
        surfaces = [rng.choice(vocabulary) for _ in range(rng.randint(1, 8))]
        normalized = normalize(RawUtterance("r", " ".join(surfaces)), tables, domain, task)
        annotated = annotate(normalized, domain, task)
        interpreted = interpret(annotated, domain, task)
        assert len(interpreted.tokens) == len(annotated.tokens)

        marker_occurrences = {j for j, t in enumerate(annotated.tokens) if t.relation_ids}
        used = [j for _, j in consumed_relations(interpreted)]
        assert len(used) == len(set(used))  # no occurrence consumed twice
        assert set(used) <= marker_occurrences
        assert len(consumed_relations(interpreted)) <= len(marker_occurrences)

        for resolution in interpreted.resolutions:
            if resolution.outcome == RESOLVED:
                assert resolution.label in resolution.candidates  # never invents a label


@criterion(6, "property (c): resolver equals brute-force oracle on all <=6-token utterances")
def test_property_resolver_matches_oracle():
    checked = 0
    for alphabet, max_len in ((("amb", "m1", "m2", "mx", "pln"), 6), (("amb", "m12", "mx", "pln"), 4)):
        for surfaces in enumerate_surface_tuples(alphabet, max_len):
            annotated = annotate_surfaces(list(surfaces), SYNTH)
            interpreted = interpret(annotated, SYNTH)
            expected = oracle_interpret(annotated, SYNTH)
            got = [
                (r.outcome, r.label, r.via_relation, r.relation_token_index)
                for r in interpreted.resolutions
            ]
            assert got == expected, surfaces
            checked += 1
    assert checked > 19000


@criterion(6, "property (d): ontology save/load round-trip is structural identity")
def test_property_round_trip(tmp_path):
    rng = random.Random(0xD1CE)
    kinds = ("domain", "task")
    for case in range(200):
        names = [f"K{i}" for i in range(rng.randint(1, 7))]
        concepts = tuple(
            Concept(n, rng.choice(kinds), rng.choice([None, "غلوس", "gloss"])) for n in names
        )
        edges = tuple(
            TaxonomyEdge(names[i], names[rng.randrange(i)])
            for i in range(1, len(names))
            if rng.random() < 0.5
        )
        instances = tuple(
            Instance(f"i{j}~$*", frozenset(rng.sample(names, rng.randint(1, len(names)))))
            for j in range(rng.randint(0, 4))
        )
        relations = tuple(
            Relation(f"rel_{j}", frozenset({f"t{j}"}), rng.choice(names), rng.choice(names))
            for j in range(rng.randint(0, 3))
        )
        ontology = Ontology(concepts, edges, instances, relations)
        assert validate(ontology) == []
        path = tmp_path / f"case{case}.json"
        write_ontology(ontology, path)
        assert load_ontology(path) == ontology


@criterion(6, "property (e): count conservation a+b+c=d on randomized comparisons")
def test_property_count_conservation():
    rng = random.Random(0xABCD)
    labels = ["A", "B", "C"]
    statuses = [Status.LABELED, Status.AMBIGUOUS, Status.RELATION_MARKER, Status.NOT_RECOGNIZED]
    for _ in range(500):
        predicted = []
        gold = {}
        for u in range(rng.randint(1, 4)):
            tokens = []
            resolutions = []
            gold_tokens = []
            for t in range(rng.randint(1, 6)):
                status = rng.choice(statuses)
                if status is Status.LABELED:
                    token_labels = frozenset({rng.choice(labels)})
                elif status is Status.AMBIGUOUS:
                    token_labels = frozenset(rng.sample(labels, 2))
                else:
                    token_labels = frozenset()
                relation_ids = frozenset({"rel_x"}) if status is Status.RELATION_MARKER else frozenset()
                surface = f"s{t}"
                tokens.append(TokenAnnotation(surface, token_labels, relation_ids, status))
                resolutions.append(Resolution(UNCHANGED, token_labels))
                gold_tokens.append(
                    GoldToken(surface, rng.choice(labels + [SEMANTIC_RELATION_LABEL, "OOV"]))
                )
            uid = f"u{u}"
            predicted.append(InterpretedUtterance(uid, tuple(tokens), tuple(resolutions)))
            gold[uid] = GoldUtterance(uid, tuple(gold_tokens))
        policy = rng.choice(["not-recognized", "incorrect"])
        counts = report(predicted, gold, unresolved_policy=policy).counts
        assert counts.correct + counts.incorrect + counts.not_recognized == counts.total


@criterion(7, "OWL export: well-formed, 21 classes, one property per relation")
def test_owl_export_well_formed(domain, task):
    merged = merge(domain, task)
    text = export_owl(merged)
    root = ET.fromstring(text)
    owl = "{http://www.w3.org/2002/07/owl#}"
    assert len(root.findall(f"{owl}Class")) == 21
    assert len(root.findall(f"{owl}ObjectProperty")) == len(merged.relations) == 4


@criterion(8, "frozen mini-corpus evaluation report reproduced byte-for-byte")
def test_regression_report_frozen(domain, task, tables):
    normalized = normalize_all(load_utterances(samples.corpus_path()), tables, domain, task)
    interpreted = interpret_all(annotate_all(normalized, domain, task), domain, task)
    gold = load_gold(samples.gold_path(), merge(domain, task))
    result = report(interpreted, gold)
    produced = (
        json.dumps(report_to_document(result), ensure_ascii=False, indent=2, sort_keys=True) + "\n"
    ).encode("utf-8")
    frozen = samples.regression_report_path().read_bytes()
    assert produced == frozen
