"""Load and save the native ontology file format; export an OWL subset.

The working format is a JSON document (grammar documented in the README):

    {
      "format_version": 1,
      "kind": "domain",
      "concepts":  [{"name": ..., "kind": ..., "gloss": ...}, ...],
      "taxonomy":  [{"child": ..., "parent": ...}, ...],
      "instances": [{"surface": ..., "concepts": [...]}, ...],
      "relations": [{"id": ..., "triggers": [...], "source": ..., "target": ...}, ...]
    }

A concept record may omit "kind", inheriting the document kind; this is how a
file declares a concept shared with its companion ontology. Loading always
validates and refuses malformed ontologies. Saving is deterministic:
collections are sorted by identifier, so equal ontologies serialize to
identical bytes.

OWL export is one-way. It emits one owl:Class per concept, one
rdfs:subClassOf per taxonomy edge, one owl:ObjectProperty per relation with
its rdfs:domain and rdfs:range, and instances as owl:NamedIndividual elements
typed by their concepts.
"""

from __future__ import annotations

import json
from pathlib import Path

from ._input import FORMAT_VERSION, read, reader
from .ontology import (
    Concept,
    Finding,
    Instance,
    KINDS,
    Ontology,
    Relation,
    TaxonomyEdge,
    validate,
)

_RDF_NS = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"
_RDFS_NS = "http://www.w3.org/2000/01/rdf-schema#"
_OWL_NS = "http://www.w3.org/2002/07/owl#"


class OntologyFormatError(ValueError):
    """Malformed ontology document (bad JSON, schema violation, bad version)."""


class OntologyValidationError(ValueError):
    """Structurally parseable ontology that violates model invariants."""

    def __init__(self, findings: list[Finding]):
        self.findings = findings
        lines = "; ".join(str(f) for f in findings)
        super().__init__(f"ontology failed validation: {lines}")


def parse_ontology_file(path: str | Path) -> Ontology:
    """Parse a native ontology file without validating model invariants.

    Raises OntologyFormatError, naming the file, for bytes that are not
    UTF-8, bad JSON, or a section or field of the wrong JSON type.
    """
    path = Path(path)
    doc = read(path, OntologyFormatError)
    records, field = reader(doc, str(path), OntologyFormatError)
    default_kind = doc.get("kind")
    if default_kind not in KINDS:
        raise OntologyFormatError(
            f"{path}: 'kind' must be one of {list(KINDS)}, got {default_kind!r}"
        )
    concepts = tuple(
        Concept(
            name=field(r, "name", "concept"),
            kind=field(r, "kind", "concept", default_kind),
            gloss=field(r, "gloss", "concept", None),
        )
        for r in records("concepts")
    )
    taxonomy = tuple(
        TaxonomyEdge(
            child=field(r, "child", "taxonomy"),
            parent=field(r, "parent", "taxonomy"),
        )
        for r in records("taxonomy")
    )
    # A lexicon has far fewer distinct concept lists than instances, so every
    # instance with the same list holds the same set. The fields are type
    # checked inline; `field` runs only on a record that fails the check and
    # on a list not seen before, so the messages stay the reader's own.
    shared: dict[tuple[str, ...], frozenset[str]] = {}
    instances = []
    for r in records("instances"):
        surface, names = r.get("surface"), r.get("concepts")
        if type(surface) is not str or type(names) is not list:
            surface = field(r, "surface", "instance")
            names = field(r, "concepts", "instance", array=True)
        key = tuple(names)
        try:
            members = shared[key]
        except (KeyError, TypeError):  # TypeError: the list holds an unhashable value
            members = shared[key] = frozenset(field(r, "concepts", "instance", array=True))
        instances.append(Instance(surface, members))
    relations = tuple(
        Relation(
            id=field(r, "id", "relation"),
            triggers=frozenset(field(r, "triggers", "relation", array=True)),
            source=field(r, "source", "relation"),
            target=field(r, "target", "relation"),
        )
        for r in records("relations")
    )
    return Ontology(
        concepts=concepts, taxonomy=taxonomy, instances=tuple(instances), relations=relations
    )


def load_ontology(path: str | Path) -> Ontology:
    """Parse, build and validate an ontology file.

    Raises OntologyFormatError for unparseable documents and
    OntologyValidationError when the parsed ontology has a non-empty
    validation report.
    """
    ontology = parse_ontology_file(path)
    findings = validate(ontology)
    if findings:
        raise OntologyValidationError(findings)
    return ontology


def ontology_to_document(ontology: Ontology) -> dict:
    """Serializable record mirror of an ontology.

    The document kind is the majority kind among the declared concepts (ties
    and empty ontologies fall back to "domain"). Every concept record carries
    its kind explicitly, so the document kind is informational on save.
    """
    tally = {k: 0 for k in KINDS}
    for concept in ontology.concepts:
        if concept.kind in tally:
            tally[concept.kind] += 1
    kind = max(KINDS, key=lambda k: tally[k])  # first KINDS entry wins ties

    def concept_record(c: Concept) -> dict:
        record: dict = {"name": c.name, "kind": c.kind}
        if c.gloss is not None:
            record["gloss"] = c.gloss
        return record

    return {
        "format_version": FORMAT_VERSION,
        "kind": kind,
        "concepts": [concept_record(c) for c in ontology.concepts],
        "taxonomy": [{"child": e.child, "parent": e.parent} for e in ontology.taxonomy],
        "instances": [
            {"surface": i.surface, "concepts": sorted(i.concepts)} for i in ontology.instances
        ],
        "relations": [
            {"id": r.id, "triggers": sorted(r.triggers), "source": r.source, "target": r.target}
            for r in ontology.relations
        ],
    }


def save_ontology(ontology: Ontology, path: str | Path) -> None:
    """Write the native document for a validated ontology (deterministic bytes)."""
    doc = ontology_to_document(ontology)
    text = json.dumps(doc, ensure_ascii=False, indent=2, sort_keys=True) + "\n"
    Path(path).write_text(text, encoding="utf-8")


def export_owl(ontology: Ontology) -> str:
    """Render a validated ontology as an OWL (RDF/XML subset) document.

    Output is deterministic: elements are sorted by identifier. Only the
    constructs the model uses are emitted; the document is well-formed XML
    with the rdf/rdfs/owl namespaces declared on the single rdf:RDF root.
    """
    from .serialize import _checked_xml, escape, quoteattr

    def element(tag: str, about: str, children: list[str]) -> list[str]:
        opening = f"  <{tag} rdf:about={quoteattr(about)}"
        if not children:
            return [opening + "/>"]
        return [opening + ">", *children, f"  </{tag}>"]

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        "<rdf:RDF",
        f'    xmlns:rdf={quoteattr(_RDF_NS)}',
        f'    xmlns:rdfs={quoteattr(_RDFS_NS)}',
        f'    xmlns:owl={quoteattr(_OWL_NS)}>',
    ]
    parents: dict[str, list[str]] = {}
    for edge in ontology.taxonomy:
        parents.setdefault(edge.child, []).append(edge.parent)

    for concept in ontology.concepts:
        children: list[str] = []
        for parent in sorted(parents.get(concept.name, [])):
            children.append(f"    <rdfs:subClassOf rdf:resource={quoteattr(parent)}/>")
        if concept.gloss is not None:
            children.append(f"    <rdfs:label>{escape(concept.gloss)}</rdfs:label>")
        lines.extend(element("owl:Class", concept.name, children))

    for relation in ontology.relations:
        children = [
            f"    <rdfs:domain rdf:resource={quoteattr(relation.source)}/>",
            f"    <rdfs:range rdf:resource={quoteattr(relation.target)}/>",
        ]
        lines.extend(element("owl:ObjectProperty", relation.id, children))

    for instance in ontology.instances:
        children = [
            f"    <rdf:type rdf:resource={quoteattr(name)}/>" for name in sorted(instance.concepts)
        ]
        lines.extend(element("owl:NamedIndividual", instance.surface, children))

    lines.append("</rdf:RDF>")
    return _checked_xml("\n".join(lines) + "\n")

