"""`load_ontology` reads the instances in one pass into the surface index,
noting only the claims `validate` lists one by one, and derives the records
when asked; `validate` checks the index per distinct concept set, one by one
only when that check fails. The references below are the earlier loader: a
field reader that checks each record through the generic reader, the
records sorted by surface, a separate `validate` loop over every instance,
and `lookup` answers read off the records by a scan. On any document both
must raise the same error or build equal ontologies with the same records
that answer every lookup alike."""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest
from hypothesis import Phase, find, given, settings, strategies as st

from conftest import write_ontology
from ontosem._input import InputError, read
from ontosem.ontology import (
    EMPTY,
    KINDS,
    Concept,
    Finding,
    Instance,
    Ontology,
    Relation,
    TaxonomyEdge,
    _cycle_nodes,
    lookup,
    validate,
)
from ontosem.ontology_io import (
    OntologyFormatError,
    OntologyValidationError,
    load_ontology,
    parse_ontology_file,
)
from test_ontology import CONCEPT_NAMES, drawn_ontology

# -- references: the earlier loader ----------------------------------------------------

_IDENT = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")


def reference_reader(doc, source, error):
    if not isinstance(doc, dict):
        raise error(f"{source}: top level must be an object")
    version = doc.get("format_version")
    if type(version) is not int or version != 1:
        raise error(f"{source}: unsupported format_version {version!r} (expected 1)")

    def records(key):
        value = doc.get(key, [])
        if not isinstance(value, list) or any(not isinstance(r, dict) for r in value):
            raise error(f"{source}: {key!r} must be an array of objects")
        return value

    def field(record, key, where, default=..., array=False):
        value = record.get(key, default)
        if value is ...:
            raise error(f"{source}: {where} record missing {key!r}")
        if array and isinstance(value, list) and all(isinstance(v, str) for v in value):
            return tuple(value)
        if value is default or (not array and isinstance(value, str)):
            return value
        raise error(f"{source}: {where} {key!r} must be {'an array of strings' if array else 'a string'}")

    return records, field


def reference_parse(path):
    path = Path(path)
    doc = read(path, OntologyFormatError)
    records, field = reference_reader(doc, str(path), OntologyFormatError)
    default_kind = doc.get("kind")
    if default_kind not in KINDS:
        raise OntologyFormatError(f"{path}: 'kind' must be one of {list(KINDS)}, got {default_kind!r}")
    concepts = [
        Concept(field(r, "name", "concept"), field(r, "kind", "concept", default_kind), field(r, "gloss", "concept", None))
        for r in records("concepts")
    ]
    taxonomy = [TaxonomyEdge(field(r, "child", "taxonomy"), field(r, "parent", "taxonomy")) for r in records("taxonomy")]
    instances = [
        Instance(field(r, "surface", "instance"), frozenset(field(r, "concepts", "instance", array=True)))
        for r in records("instances")
    ]
    relations = [
        Relation(
            field(r, "id", "relation"),
            frozenset(field(r, "triggers", "relation", array=True)),
            field(r, "source", "relation"),
            field(r, "target", "relation"),
        )
        for r in records("relations")
    ]
    return Ontology(concepts, taxonomy, instances, relations)


def reference_validate(ontology):
    findings = []
    add = findings.append
    names_seen = set()
    for concept in ontology.concepts:
        if not _IDENT.match(concept.name):
            add(Finding("bad-concept-name", f"concept name {concept.name!r} is not an identifier"))
        if concept.kind not in KINDS:
            add(Finding("unknown-kind", f"concept {concept.name!r} has kind {concept.kind!r}"))
        if concept.name in names_seen:
            add(Finding("duplicate-concept", f"concept name {concept.name!r} declared more than once"))
        names_seen.add(concept.name)
    known = {c.name for c in ontology.concepts}
    parents_of = {}
    for edge in ontology.taxonomy:
        for endpoint in (edge.child, edge.parent):
            if endpoint not in known:
                add(Finding("dangling-taxonomy", f"taxonomy edge {edge.child!r} < {edge.parent!r} references unknown concept {endpoint!r}"))
        parents_of.setdefault(edge.child, []).append(edge.parent)
    for child, parents in parents_of.items():
        if len(set(parents)) > 1:
            add(Finding("multiple-parents", f"concept {child!r} has parents {sorted(set(parents))}"))
    for node in _cycle_nodes(parents_of):
        add(Finding("taxonomy-cycle", f"concept {node!r} is its own ancestor"))
    surfaces_seen = set()
    for instance in ontology.instances:
        if not instance.surface:
            add(Finding("bad-surface", "instance with empty surface form"))
        if not instance.concepts:
            add(Finding("empty-instance", f"instance {instance.surface!r} maps to no concept"))
        for name in sorted(instance.concepts - known):
            add(Finding("dangling-instance-concept", f"instance {instance.surface!r} references unknown concept {name!r}"))
        if instance.surface in surfaces_seen:
            add(Finding("duplicate-surface", f"surface {instance.surface!r} claimed by more than one instance record"))
        surfaces_seen.add(instance.surface)
    relation_ids_seen = set()
    for relation in ontology.relations:
        if not _IDENT.match(relation.id):
            add(Finding("bad-relation-id", f"relation id {relation.id!r} is not an identifier"))
        if relation.id in relation_ids_seen:
            add(Finding("duplicate-relation", f"relation id {relation.id!r} declared more than once"))
        relation_ids_seen.add(relation.id)
        if not relation.triggers:
            add(Finding("empty-triggers", f"relation {relation.id!r} has no trigger forms"))
        for endpoint, role in ((relation.source, "source"), (relation.target, "target")):
            if endpoint not in known:
                add(Finding("dangling-relation-concept", f"relation {relation.id!r} {role} {endpoint!r} is not a declared concept"))
        if "" in relation.triggers:
            add(Finding("bad-surface", f"relation {relation.id!r} has an empty trigger form"))
    claims = {}
    for relation in ontology.relations:
        for trigger in relation.triggers:
            claims[trigger] = min(claims.get(trigger, relation.id), relation.id)
    surfaces = {i.surface for i in ontology.instances}
    findings += [
        Finding("trigger-instance-overlap", f"surface {surface!r} is both an instance and a trigger of relation {claims[surface]!r}")
        for surface in sorted(claims)
        if surface in surfaces
    ]
    return findings


def reference_load(path):
    ontology = reference_parse(path)
    if findings := reference_validate(ontology):
        raise OntologyValidationError(findings, f"{path}: ontology")
    return ontology


def reference_records(path):
    """The instance records `reference_parse` reads, sorted by surface with ties in file order."""
    records, field = reference_reader(read(Path(path), OntologyFormatError), str(path), OntologyFormatError)
    instances = [
        Instance(field(r, "surface", "instance"), frozenset(field(r, "concepts", "instance", array=True)))
        for r in records("instances")
    ]
    return tuple(sorted(instances, key=lambda i: i.surface))


def reference_lookup(surface, ontology):
    labels = frozenset().union(*(i.concepts for i in ontology.instances if i.surface == surface))
    relation_ids = frozenset(r.id for r in ontology.relations if surface in r.triggers)
    return labels, relation_ids


def outcome(load, path):
    try:
        return load(path)
    except InputError as err:
        return type(err), str(err)


# -- drawn documents ------------------------------------------------------------------

SURFACES = ("", "shared", "first", "marker", "neither")
NAME_LISTS = st.lists(st.sampled_from(CONCEPT_NAMES + ("D", "not a name")), max_size=3)
BAD_CONCEPTS = (5, "A", None, [1], [["A"]], ["A", None], {"A": 1})
BAD_SURFACES = (5, None, ["shared"])


@st.composite
def ontology_documents(draw):
    """The document of a drawn ontology, its instance records in shuffled
    file order, with up to three more of them (duplicate surfaces, concept
    lists unsorted, repeating, empty or dangling) and up to two fields or
    sections of the wrong JSON type, so that the first refusal must be the
    one the earlier loader gives."""
    ontology = draw(drawn_ontology("first"))
    doc = {
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
    extra = draw(st.lists(st.fixed_dictionaries({"surface": st.sampled_from(SURFACES), "concepts": NAME_LISTS}), max_size=3))
    doc["instances"] = draw(st.permutations(doc["instances"] + extra))
    instances = doc["instances"]
    for fault in draw(st.lists(st.sampled_from(("concepts", "surface", "missing", "section", "relation")), max_size=2)):
        if fault in ("concepts", "surface", "missing") and instances:
            record = instances[draw(st.integers(0, len(instances) - 1))]
            if fault == "missing":
                record.pop(draw(st.sampled_from(("surface", "concepts"))), None)
            else:
                record[fault] = draw(st.sampled_from(BAD_CONCEPTS if fault == "concepts" else BAD_SURFACES))
        elif fault == "section":
            doc["instances"] = draw(st.sampled_from(({}, "x", [1], instances + [["shared"]])))
        elif fault == "relation" and doc["relations"]:
            doc["relations"][0]["triggers"] = draw(st.sampled_from(("marker", [1], None)))
    return doc


@settings(max_examples=300, deadline=None)
@given(doc=ontology_documents())
def test_property_load_ontology_equals_the_earlier_loader(tmp_path_factory, doc):
    path = tmp_path_factory.getbasetemp() / "loader_reference.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    for load, reference in ((load_ontology, reference_load), (parse_ontology_file, reference_parse)):
        got, want = outcome(load, path), outcome(reference, path)
        assert got == want
        if isinstance(want, Ontology):
            assert tuple(got.instances) == reference_records(path)
            for surface in SURFACES + ("second",):
                assert lookup(surface, [got]) == reference_lookup(surface, want)


@settings(max_examples=400, deadline=None)
@given(ontology=drawn_ontology("first"))
def test_property_validate_equals_the_earlier_validate(ontology):
    assert validate(ontology) == reference_validate(ontology)
    for surface in SURFACES + ("second",):
        assert lookup(surface, [ontology]) == reference_lookup(surface, ontology)


@pytest.mark.parametrize("reason", [
    "loaded", "must be an array of strings", "must be a string", "record missing", "must be an array of objects",
    "duplicate-surface", "bad-surface", "empty-instance", "dangling-instance-concept",
])
def test_the_documents_hold_what_the_property_needs(tmp_path, reason):
    """The earlier loader accepts some drawn documents and refuses others
    for each reason the property is about."""
    path = tmp_path / "doc.json"

    def holds(doc):
        path.write_text(json.dumps(doc), encoding="utf-8")
        got = outcome(reference_load, path)
        return reason == "loaded" if isinstance(got, Ontology) else reason in got[1]

    find(ontology_documents(), holds, settings=settings(database=None, phases=[Phase.generate], max_examples=1000))


@pytest.mark.parametrize("surface, claims", [("shared", 3), ("", 2)])
def test_a_surface_claimed_again_is_listed_as_the_earlier_validate_lists_it(tmp_path, surface, claims):
    """A drawn document whose instance records claim `surface` `claims` times
    parses; `validate` lists its findings as the earlier validate does."""
    path = tmp_path / "doc.json"

    def holds(doc):
        path.write_text(json.dumps(doc), encoding="utf-8")
        parsed = outcome(reference_parse, path)
        return isinstance(parsed, Ontology) and [i.surface for i in reference_records(path)].count(surface) == claims

    doc = find(ontology_documents(), holds, settings=settings(database=None, phases=[Phase.generate], max_examples=2000))
    path.write_text(json.dumps(doc), encoding="utf-8")
    parsed = parse_ontology_file(path)
    assert tuple(parsed.instances) == reference_records(path)
    assert validate(parsed) == reference_validate(reference_parse(path))
    assert Finding("duplicate-surface", f"surface {surface!r} claimed by more than one instance record") in validate(parsed)


def test_a_surface_claimed_twice_unites_its_sets_in_the_index(tmp_path):
    # the file is refused, but `parse_ontology_file` answers as `merge` would
    path = tmp_path / "twice.json"
    write_ontology(Ontology(concepts=(Concept("A", "domain"), Concept("B", "domain"))), path)
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc["instances"] = [{"surface": "w", "concepts": ["A"]}, {"surface": "v", "concepts": ["A"]},
                        {"surface": "w", "concepts": ["B"]}]
    path.write_text(json.dumps(doc), encoding="utf-8")
    parsed = parse_ontology_file(path)
    assert lookup("w", [parsed]) == ({"A", "B"}, EMPTY)
    assert validate(parsed) == reference_validate(parsed) == [
        Finding("duplicate-surface", "surface 'w' claimed by more than one instance record")
    ]
