"""Load the native ontology file format.

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
validates and refuses malformed ontologies; `ontosem.serialize.export_owl`
writes the one-way OWL form.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable, Iterable, Iterator

from ._input import InputError, read, reader
from .ontology import (
    Concept,
    Finding,
    Instances,
    KINDS,
    Ontology,
    Relation,
    TaxonomyEdge,
    validate,
)


class OntologyFormatError(InputError):
    """Malformed ontology document (bad JSON, schema violation, bad version)."""


class OntologyValidationError(InputError):
    """Structurally parseable ontology that violates model invariants."""

    def __init__(self, findings: list[Finding], subject: str):
        """`subject` names what failed, file first: `<path>: ontology`."""
        super().__init__(f"{subject} failed validation", findings)


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
    instances = Instances(read_instances(records("instances"), field))
    relations = tuple(
        Relation(
            id=field(r, "id", "relation"),
            triggers=frozenset(field(r, "triggers", "relation", array=True)),
            source=field(r, "source", "relation"),
            target=field(r, "target", "relation"),
        )
        for r in records("relations")
    )
    return Ontology(concepts, taxonomy, instances, relations)


def read_instances(records: Iterable[dict], field: Callable) -> Iterator[tuple[str, frozenset[str]]]:
    """The (surface, concept set) pair of each instance of the JSON `records`,
    for `Instances`. Equal concept lists share one set (a lexicon has few);
    `field`, the file's reader, runs only on a record that fails the inline
    type check and on a list not seen before, so its messages are the reader's."""
    shared: dict[tuple[str, ...], frozenset[str]] = {}
    for r in records:
        surface, names = r.get("surface"), r.get("concepts")
        if type(surface) is not str or type(names) is not list:
            surface = field(r, "surface", "instance")
            names = field(r, "concepts", "instance", array=True)
        key = tuple(names)
        try:
            members = shared[key]
        except (KeyError, TypeError):  # TypeError: the list holds an unhashable value
            members = shared[key] = frozenset(field(r, "concepts", "instance", array=True))
        yield surface, members


def load_ontology(path: str | Path) -> Ontology:
    """Parse, build and validate an ontology file.

    Raises OntologyFormatError for unparseable documents and
    OntologyValidationError when the parsed ontology has a non-empty
    validation report.
    """
    ontology = parse_ontology_file(path)
    findings = validate(ontology)
    if findings:
        raise OntologyValidationError(findings, f"{path}: ontology")
    return ontology
