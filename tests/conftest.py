"""Shared fixtures and independent oracles for the test suite."""

from __future__ import annotations

import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ontosem import samples
from ontosem.annotate import AnnotatedUtterance, Status, annotate
from ontosem.interpret import RESOLVED, InterpretedUtterance
from ontosem.normalize import NormalizedUtterance, load_tables
from ontosem.ontology import Concept, Instance, Ontology, Relation, pair_findings
from ontosem.ontology_io import load_ontology


# The bundled sample, loaded as the CLI loads any input: each ontology file
# validated, the pair checked as a whole, the tables checked against the pair.
@pytest.fixture(scope="session")
def domain():
    return load_ontology(samples.domain_ontology_path())


@pytest.fixture(scope="session")
def task(domain):
    task = load_ontology(samples.task_ontology_path())
    assert pair_findings((domain, task)) == []
    return task


@pytest.fixture(scope="session")
def ontologies(domain, task):
    return domain, task


@pytest.fixture(scope="session")
def tables(domain, task):
    return load_tables(samples.tables_path(), domain, task)


# Tiny synthetic ontology for interpreter enumeration tests: one ambiguous
# surface, markers whose relation targets do / do not qualify, one plain
# surface, plus a marker triggering two relations.
SYNTH = Ontology(
    concepts=(Concept("C1", "domain"), Concept("C2", "domain"), Concept("C3", "domain")),
    instances=(
        Instance("amb", frozenset({"C1", "C2"})),
        Instance("pln", frozenset({"C3"})),
    ),
    relations=(
        Relation("rel_a", frozenset({"m1"}), "C3", "C1"),
        Relation("rel_b", frozenset({"m2"}), "C3", "C2"),
        Relation("rel_cc", frozenset({"m12"}), "C3", "C2"),
        Relation("rel_dd", frozenset({"m12"}), "C3", "C1"),
        Relation("rel_x", frozenset({"mx"}), "C3", "C3"),
    ),
)


SRC = Path(__file__).resolve().parents[1] / "src"


def run_python(code: str, cwd=None) -> str:
    """The standard output of `code` run by a fresh interpreter that imports
    ontosem from this checkout's `src/`; the run must succeed."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                          cwd=cwd, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stdout


def write_ontology(ontology, path) -> None:
    """Write `ontology` as a native ontology file. Every concept record names
    its kind, so the document kind is required but never read."""
    document = {
        "format_version": 1,
        "kind": "domain",
        "concepts": [{"name": c.name, "kind": c.kind, "gloss": c.gloss} for c in ontology.concepts],
        "taxonomy": [{"child": e.child, "parent": e.parent} for e in ontology.taxonomy],
        "instances": [{"surface": i.surface, "concepts": sorted(i.concepts)} for i in ontology.instances],
        "relations": [
            {"id": r.id, "triggers": sorted(r.triggers), "source": r.source, "target": r.target}
            for r in ontology.relations
        ],
    }
    Path(path).write_text(json.dumps(document, ensure_ascii=False), encoding="utf-8")


def surface_vocabulary(ontology):
    """Every surface an ontology records, read off its instance and relation
    records: the reference for the surfaces `lookup` answers."""
    return {i.surface for i in ontology.instances} | {
        t for r in ontology.relations for t in r.triggers
    }


def make_normalized(surfaces, uid="u"):
    return NormalizedUtterance(id=uid, tokens=tuple(surfaces))


def annotate_surfaces(surfaces, *ontologies, uid="u"):
    return annotate(make_normalized(surfaces, uid=uid), *ontologies)


def enumerate_surface_tuples(alphabet, max_length):
    for length in range(1, max_length + 1):
        yield from itertools.product(alphabet, repeat=length)


def consumed_relations(interpreted: InterpretedUtterance) -> frozenset[tuple[str, int]]:
    """The marker occurrences an interpretation used up, as (relation id,
    marker token index) pairs, read off its RESOLVED resolutions."""
    return frozenset(
        (r.via_relation, r.relation_token_index)
        for r in interpreted.resolutions
        if r.outcome == RESOLVED and r.via_relation is not None
    )


def oracle_resolve(
    annotated: AnnotatedUtterance, index, ontology, consumed, tie_break="left"
):
    """Exhaustive search over (marker, relation) pairs for the minimal key.

    Key = (distance to the ambiguous token, tie-break side, relation id).
    Returns (outcome, label, relation_id, marker_index).
    """
    candidates = annotated.tokens[index].labels
    best = None
    for j, token in enumerate(annotated.tokens):
        if j in consumed or not token.relation_ids:
            continue
        for relation_id in token.relation_ids:
            # the first record of that id
            target = next(r.target for r in ontology.relations if r.id == relation_id)
            if target not in candidates:
                continue
            on_preferred_side = (j < index) == (tie_break == "left")
            key = (abs(j - index), 0 if on_preferred_side else 1, relation_id)
            if best is None or key < best[0]:
                best = (key, target, relation_id, j)
    if best is None:
        return ("unresolved", None, None, None)
    return ("resolved", best[1], best[2], best[3])


def oracle_interpret(annotated: AnnotatedUtterance, ontology, tie_break="left"):
    """Left-to-right pass over ambiguous tokens using only oracle_resolve."""
    consumed: set[int] = set()
    outcomes = []
    for index, token in enumerate(annotated.tokens):
        if token.status is not Status.AMBIGUOUS:
            outcomes.append(("unchanged", None, None, None))
            continue
        outcome, label, relation_id, marker = oracle_resolve(
            annotated, index, ontology, consumed, tie_break
        )
        if outcome == "resolved":
            consumed.add(marker)
        outcomes.append((outcome, label, relation_id, marker))
    return outcomes
