"""Render annotated and interpreted utterances as XML or TSV, and an
ontology as OWL: the one module that writes XML.

The XML form is a token listing:

    <utterances>
      <utterance id="a01">
        <token value="wqtA$">
          <annotation>Arrival_Time_Request</annotation>
          <annotation>Departure_Time_Request</annotation>
        </token>
        <token value="yxrj">
          <annotation>Semantic_Relation</annotation>
        </token>
        ...
      </utterance>
    </utterances>

Relation markers carry the single annotation `Semantic_Relation`; tokens the
ontology does not know carry none. After interpretation a resolved token
carries exactly one annotation, while an unresolved one keeps its candidate
list.

The TSV forms are line-oriented with one token per line and `-` for absent
fields; the interpreted variant appends resolution provenance columns
(outcome, the resolving relation id and the marker's token index).

OWL export is one-way. It emits one owl:Class per concept, one
rdfs:subClassOf per taxonomy edge, one owl:ObjectProperty per relation with
its rdfs:domain and rdfs:range, and instances as owl:NamedIndividual elements
typed by their concepts.

The XML writers check each piece as they build it (an utterance line, a
token block, an OWL element): the first to hold a character XML 1.0 forbids
raises `XMLCharacterError`, an `InputError` (exit 1) naming its element.
"""

from __future__ import annotations

import re
from typing import Iterable

from ._input import InputError
from .annotate import AnnotatedUtterance, SEMANTIC_RELATION_LABEL, Status, TokenAnnotation, committed_label
from .interpret import InterpretedUtterance, Resolution
from .ontology import Ontology

ANNOTATED_TSV_HEADER = "# ontosem annotations v1: utterance_id\ttoken_index\tsurface\tstatus\tlabels\trelation_ids"
INTERPRETED_TSV_HEADER = (
    "# ontosem interpretations v1: utterance_id\ttoken_index\tsurface\tstatus\tlabel"
    "\tcandidates\toutcome\tvia_relation\trelation_token_index"
)

_ABSENT = "-"

_RDF_NS = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"
_RDFS_NS = "http://www.w3.org/2000/01/rdf-schema#"
_OWL_NS = "http://www.w3.org/2002/07/owl#"

_NOT_XML = re.compile("[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]")


class XMLCharacterError(InputError):
    """A text holds a character that XML 1.0 forbids, escaped or not."""


def _checked_xml(text: str, element: str, name: str) -> str:
    """`text`, refused if it holds a character XML 1.0 forbids, naming the
    `element` called `name` that it belongs to."""
    if bad := _NOT_XML.search(text):
        raise XMLCharacterError(f"cannot write XML for {element} {name!r}: U+{ord(bad[0]):04X} is not allowed in XML 1.0")
    return text


# `xml.sax.saxutils` has these two, but importing it imports `urllib.request`
# and with it the network stack (`http.client`, `email`, `ssl`, `socket`)
def escape(text: str) -> str:
    """`text` with &, < and > escaped, as `xml.sax.saxutils.escape` gives it."""
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def quoteattr(text: str) -> str:
    """`text` escaped and quoted as an XML attribute value, as
    `xml.sax.saxutils.quoteattr` gives it."""
    text = escape(text).replace("\n", "&#10;").replace("\r", "&#13;").replace("\t", "&#9;")
    if '"' not in text:
        return f'"{text}"'
    if "'" not in text:
        return f"'{text}'"
    return '"' + text.replace('"', "&quot;") + '"'


def _token_xml(token: TokenAnnotation) -> str:
    is_marker = token.status is Status.RELATION_MARKER
    labels = [SEMANTIC_RELATION_LABEL] if is_marker else sorted(token.labels)
    opening = f"    <token value={quoteattr(token.surface)}"
    if not labels:
        return opening + "/>"
    annotations = "".join(f"\n      <annotation>{escape(label)}</annotation>" for label in labels)
    return f"{opening}>{annotations}\n    </token>"


def annotated_to_xml(utterances: Iterable[AnnotatedUtterance | InterpretedUtterance]) -> str:
    lines = ['<?xml version="1.0" encoding="UTF-8"?>', "<utterances>"]
    # equal tokens render alike: each is rendered and checked once, at first
    # sight, so pieces are checked in document order
    blocks: dict[TokenAnnotation, str] = {}
    for utterance in utterances:
        lines.append(_checked_xml(f"  <utterance id={quoteattr(utterance.id)}>", "utterance", utterance.id))
        for token in utterance.tokens:
            block = blocks.get(token)
            if block is None:
                block = blocks[token] = _checked_xml(_token_xml(token), "utterance", utterance.id)
            lines.append(block)
        lines.append("  </utterance>")
    lines.append("</utterances>")
    return "\n".join(lines) + "\n"


# both stages list tokens the same way; only the labels they carry differ
interpreted_to_xml = annotated_to_xml


def annotated_to_tsv(utterances: Iterable[AnnotatedUtterance]) -> str:
    lines = [ANNOTATED_TSV_HEADER]
    for utterance in utterances:
        for index, token in enumerate(utterance.tokens):
            lines.append(
                "\t".join(
                    (
                        utterance.id,
                        str(index),
                        token.surface,
                        token.status.value,
                        "|".join(sorted(token.labels)) or _ABSENT,
                        "|".join(sorted(token.relation_ids)) or _ABSENT,
                    )
                )
            )
    return "\n".join(lines) + "\n"


def interpreted_to_tsv(utterances: Iterable[InterpretedUtterance]) -> str:
    lines = [INTERPRETED_TSV_HEADER]
    # the seven columns after the token index, joined once per distinct
    # (token, resolution) pair
    rests: dict[tuple[TokenAnnotation, Resolution], str] = {}
    for utterance in utterances:
        for index, pair in enumerate(zip(utterance.tokens, utterance.resolutions, strict=True)):
            rest = rests.get(pair)
            if rest is None:
                token, resolution = pair
                marker = resolution.relation_token_index
                rest = rests[pair] = "\t".join(
                    (
                        token.surface,
                        token.status.value,
                        committed_label(token) or _ABSENT,
                        "|".join(sorted(resolution.candidates)) or _ABSENT,
                        resolution.outcome,
                        resolution.via_relation or _ABSENT,
                        _ABSENT if marker is None else str(marker),
                    )
                )
            lines.append(f"{utterance.id}\t{index}\t{rest}")
    return "\n".join(lines) + "\n"


def export_owl(ontology: Ontology) -> str:
    """Render a validated ontology as an OWL (RDF/XML subset) document.

    Output is deterministic: elements are sorted by identifier. Only the
    constructs the model uses are emitted; the document is well-formed XML
    with the rdf/rdfs/owl namespaces declared on the single rdf:RDF root.
    """

    def element(tag: str, about: str, children: list[str]) -> str:
        opening = f"  <{tag} rdf:about={quoteattr(about)}"
        text = "\n".join([opening + ">", *children, f"  </{tag}>"]) if children else opening + "/>"
        return _checked_xml(text, tag, about)

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
        lines.append(element("owl:Class", concept.name, children))

    for relation in ontology.relations:
        children = [
            f"    <rdfs:domain rdf:resource={quoteattr(relation.source)}/>",
            f"    <rdfs:range rdf:resource={quoteattr(relation.target)}/>",
        ]
        lines.append(element("owl:ObjectProperty", relation.id, children))

    for instance in ontology.instances:
        children = [
            f"    <rdf:type rdf:resource={quoteattr(name)}/>" for name in sorted(instance.concepts)
        ]
        lines.append(element("owl:NamedIndividual", instance.surface, children))

    lines.append("</rdf:RDF>")
    return "\n".join(lines) + "\n"
