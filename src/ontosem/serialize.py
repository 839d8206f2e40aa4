"""Render annotated and interpreted utterances as XML or TSV.

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
"""

from __future__ import annotations

import re
from typing import Iterable

from .annotate import AnnotatedUtterance, SEMANTIC_RELATION_LABEL, Status, TokenAnnotation, committed_label
from .interpret import InterpretedUtterance

ANNOTATED_TSV_HEADER = "# ontosem annotations v1: utterance_id\ttoken_index\tsurface\tstatus\tlabels\trelation_ids"
INTERPRETED_TSV_HEADER = (
    "# ontosem interpretations v1: utterance_id\ttoken_index\tsurface\tstatus\tlabel"
    "\tcandidates\toutcome\tvia_relation\trelation_token_index"
)

_ABSENT = "-"

_NOT_XML = re.compile("[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]")


class XMLCharacterError(ValueError):
    """A text holds a character that XML 1.0 forbids, escaped or not."""


# the writers open each top-level element (an utterance, an OWL class,
# property or individual) on a line of its own, indented by two spaces and
# naming it in its first attribute
_TOP_ELEMENT = re.compile(r"""  <([\w:]+) [\w:]+=("[^"]*"|'[^']*')""")


def _checked_xml(document: str) -> str:
    if bad := _NOT_XML.search(document):
        where = ""
        if element := _TOP_ELEMENT.match(document, document.rfind("\n  <", 0, bad.start()) + 1):
            from html import unescape

            where = f" for {element[1]} {unescape(element[2][1:-1])!r}"
        raise XMLCharacterError(f"cannot write XML{where}: U+{ord(bad[0]):04X} is not allowed in XML 1.0")
    return document


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
    blocks: dict[TokenAnnotation, str] = {}  # equal tokens render alike: each is rendered once
    for utterance in utterances:
        lines.append(f"  <utterance id={quoteattr(utterance.id)}>")
        for token in utterance.tokens:
            block = blocks.get(token)
            if block is None:
                block = blocks[token] = _token_xml(token)
            lines.append(block)
        lines.append("  </utterance>")
    lines.append("</utterances>")
    return _checked_xml("\n".join(lines) + "\n")


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
    # the six columns between the token index and the marker's index, joined
    # once per distinct (token, candidates, outcome, via_relation)
    middles: dict[tuple, str] = {}
    for utterance in utterances:
        pairs = zip(utterance.tokens, utterance.resolutions, strict=True)
        for index, (token, resolution) in enumerate(pairs):
            key = (token, resolution.candidates, resolution.outcome, resolution.via_relation)
            middle = middles.get(key)
            if middle is None:
                middle = middles[key] = "\t".join(
                    (
                        token.surface,
                        token.status.value,
                        committed_label(token) or _ABSENT,
                        "|".join(sorted(resolution.candidates)) or _ABSENT,
                        resolution.outcome,
                        resolution.via_relation or _ABSENT,
                    )
                )
            marker = resolution.relation_token_index
            lines.append(f"{utterance.id}\t{index}\t{middle}\t{_ABSENT if marker is None else marker}")
    return "\n".join(lines) + "\n"
