"""Context-free semantic annotation of normalized tokens by ontology lookup.

Every token independently receives the union of concept labels its surface
instantiates in the consulted ontologies, plus the ids of any semantic
relations it triggers. No relationship between tokens is considered here;
disambiguation of multi-label tokens is the interpreter's job.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from enum import Enum
from typing import Iterable

from .normalize import NormalizedUtterance
from .ontology import EMPTY, Ontology

logger = logging.getLogger(__name__)

# label under which relation-marker tokens are reported and scored
SEMANTIC_RELATION_LABEL = "Semantic_Relation"


class Status(str, Enum):
    LABELED = "labeled"
    AMBIGUOUS = "ambiguous"
    RELATION_MARKER = "relation_marker"
    NOT_RECOGNIZED = "not_recognized"


@dataclass(frozen=True, slots=True)
class TokenAnnotation:
    surface: str
    labels: frozenset[str]
    relation_ids: frozenset[str]
    status: Status

    def __post_init__(self):
        object.__setattr__(self, "labels", frozenset(self.labels))
        object.__setattr__(self, "relation_ids", frozenset(self.relation_ids))


@dataclass(frozen=True, slots=True)
class AnnotatedUtterance:
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
    """Annotate one surface. The label and relation sets are the ontologies'
    own index entries, or the shared EMPTY; a new set is built only when two
    ontologies both know the surface."""
    labels = relation_ids = EMPTY
    for ontology in ontologies:
        if found := ontology.lookup_concepts(surface):
            labels = labels | found if labels else found
        if found := ontology.lookup_relations(surface):
            relation_ids = relation_ids | found if relation_ids else found

    if relation_ids:
        if labels:
            # impossible on validated ontologies; relation wins so that
            # interpretation can still find its markers
            logger.warning(
                "surface %r is both instance and relation trigger; treating as marker", surface
            )
        return TokenAnnotation(surface, EMPTY, relation_ids, Status.RELATION_MARKER)
    if len(labels) >= 2:
        return TokenAnnotation(surface, labels, EMPTY, Status.AMBIGUOUS)
    if labels:
        return TokenAnnotation(surface, labels, EMPTY, Status.LABELED)
    return TokenAnnotation(surface, EMPTY, EMPTY, Status.NOT_RECOGNIZED)


def annotate(normalized: NormalizedUtterance, *ontologies: Ontology) -> AnnotatedUtterance:
    """Label every token of a normalized utterance; no token is dropped."""
    return AnnotatedUtterance(
        id=normalized.id,
        tokens=tuple(annotate_token(token.surface, *ontologies) for token in normalized.tokens),
    )


def annotate_all(
    utterances: Iterable[NormalizedUtterance], *ontologies: Ontology
) -> list[AnnotatedUtterance]:
    return [annotate(u, *ontologies) for u in utterances]
