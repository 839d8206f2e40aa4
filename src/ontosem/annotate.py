"""Context-free semantic annotation of normalized tokens by ontology lookup.

Every token independently receives the union of concept labels its surface
instantiates in the consulted ontologies, plus the ids of any semantic
relations it triggers. No relationship between tokens is considered here;
disambiguation of multi-label tokens is the interpreter's job.
"""

from __future__ import annotations

from enum import Enum
from functools import cache
from typing import Iterable, NamedTuple

from .normalize import NormalizedUtterance
from .ontology import EMPTY, Ontology, lookup

# label under which relation-marker tokens are reported and scored
SEMANTIC_RELATION_LABEL = "Semantic_Relation"


class Status(str, Enum):
    LABELED = "labeled"
    AMBIGUOUS = "ambiguous"
    RELATION_MARKER = "relation_marker"
    NOT_RECOGNIZED = "not_recognized"


class TokenAnnotation(NamedTuple):
    surface: str
    labels: frozenset[str]
    relation_ids: frozenset[str]
    status: Status


class AnnotatedUtterance(NamedTuple):
    id: str
    tokens: tuple[TokenAnnotation, ...]


def committed_label(token: TokenAnnotation) -> str | None:
    """The single label a token commits to: `Semantic_Relation` for a marker,
    the only label of a labeled token, None for ambiguous and unknown ones."""
    if token.status is Status.RELATION_MARKER:
        return SEMANTIC_RELATION_LABEL
    if token.status is Status.LABELED:
        (label,) = token.labels
        return label
    return None


def annotate_token(surface: str, *ontologies: Ontology) -> TokenAnnotation:
    """Annotate one surface with the label and relation sets `lookup` gives."""
    labels, relation_ids = lookup(surface, ontologies)
    if relation_ids:
        if labels:
            # impossible on validated ontologies; relation wins so that
            # interpretation can still find its markers
            import logging

            logging.getLogger(__name__).warning(
                "surface %r is both instance and relation trigger; treating as marker", surface
            )
        return TokenAnnotation(surface, EMPTY, relation_ids, Status.RELATION_MARKER)
    if len(labels) >= 2:
        return TokenAnnotation(surface, labels, EMPTY, Status.AMBIGUOUS)
    if labels:
        return TokenAnnotation(surface, labels, EMPTY, Status.LABELED)
    return TokenAnnotation(surface, EMPTY, EMPTY, Status.NOT_RECOGNIZED)


def annotate(normalized: NormalizedUtterance, *ontologies: Ontology) -> AnnotatedUtterance:
    """Label every token of a normalized utterance (`annotate_all` of it); no token is dropped."""
    return annotate_all([normalized], *ontologies)[0]


def annotate_all(utterances: Iterable[NormalizedUtterance], *ontologies: Ontology) -> list[AnnotatedUtterance]:
    """Each utterance's annotated tokens, with each distinct surface annotated
    once per call by a cache that keeps nothing after it (an unvalidated pair's
    overlap warning logs once per surface)."""
    annotation = cache(lambda surface: annotate_token(surface, *ontologies))
    return [AnnotatedUtterance(u.id, tuple(map(annotation, u.tokens))) for u in utterances]
