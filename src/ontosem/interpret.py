"""Within-utterance disambiguation of multi-label tokens via semantic relations.

A token carrying two or more candidate labels is resolved by scanning the
relation-marker tokens of the same utterance in order of increasing distance.
The first marker triggering a relation whose target concept is among the
token's candidates decides the label, and that marker occurrence is consumed:
it cannot resolve a later token. Ambiguous tokens are processed left to
right. When left and right markers are equidistant the preceding one is
preferred by default (`tie_break="left"`); markers triggering several
relations try them in sorted id order.

Interpretation is strictly local to one utterance; no dialogue context is
consulted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import AbstractSet, Iterable, Sequence

from .annotate import AnnotatedUtterance, Status, TokenAnnotation
# `merge` is no longer called here. The name stays because code that wraps
# `ontosem.interpret.merge` by module attribute still looks it up:
# `benchmarks/spans.py` does, and its `interpret.merge_calls` now reads 0.
from .ontology import EMPTY, Ontology, UnknownRelationError, merge  # noqa: F401

RESOLVED = "resolved"
UNRESOLVED = "unresolved"
UNCHANGED = "unchanged"

TIE_BREAKS = ("left", "right")


@dataclass(frozen=True, slots=True)
class Resolution:
    """Outcome of interpreting one token position."""

    token_index: int
    outcome: str  # RESOLVED, UNRESOLVED or UNCHANGED
    candidates: frozenset[str] = EMPTY
    label: str | None = None
    via_relation: str | None = None
    relation_token_index: int | None = None


@dataclass(frozen=True, slots=True)
class InterpretedUtterance:
    id: str
    tokens: tuple[TokenAnnotation, ...]
    resolutions: tuple[Resolution, ...]

    @property
    def consumed_relations(self) -> frozenset[tuple[str, int]]:
        """The marker occurrences used up, as (relation id, marker token index)
        pairs, read off the RESOLVED resolutions."""
        return frozenset(
            (r.via_relation, r.relation_token_index)
            for r in self.resolutions
            if r.outcome == RESOLVED and r.via_relation is not None
        )


def _prefers_left(tie_break: str) -> bool:
    if tie_break not in TIE_BREAKS:
        raise ValueError(f"tie_break must be one of {TIE_BREAKS}, got {tie_break!r}")
    return tie_break == "left"


def _relation_target(relation_id: str, ontologies: Sequence[Ontology]) -> str:
    """The target of `relation_id` in the first ontology declaring it: the
    answer `merge(*ontologies).relation_target(relation_id)` gives, without
    building the merged ontology."""
    for ontology in ontologies:
        relation = ontology._relation_by_id.get(relation_id)
        if relation is not None:
            return relation.target
    raise UnknownRelationError(relation_id)


def resolve_token(
    index: int,
    annotated: AnnotatedUtterance,
    ontologies: Sequence[Ontology],
    consumed: AbstractSet[int],
    tie_break: str = "left",
) -> Resolution:
    """Resolve one ambiguous token against the nearest qualifying marker.

    A relation's target is read from `ontologies` in order: the first that
    declares the relation id wins, and none raises UnknownRelationError.
    `consumed` holds the token indexes of markers already used. Returns a
    RESOLVED resolution naming the winning relation and its marker position,
    or UNRESOLVED with the surviving candidate set.
    """
    preferred_left = _prefers_left(tie_break)
    candidates = annotated.tokens[index].labels

    markers = [
        j
        for j, token in enumerate(annotated.tokens)
        if token.relation_ids and j not in consumed
    ]
    markers.sort(key=lambda j: (abs(j - index), (j < index) != preferred_left))

    for j in markers:
        for relation_id in sorted(annotated.tokens[j].relation_ids):
            target = _relation_target(relation_id, ontologies)
            if target in candidates:
                return Resolution(
                    token_index=index,
                    outcome=RESOLVED,
                    candidates=candidates,
                    label=target,
                    via_relation=relation_id,
                    relation_token_index=j,
                )
    return Resolution(token_index=index, outcome=UNRESOLVED, candidates=candidates)


def interpret(
    annotated: AnnotatedUtterance, *ontologies: Ontology, tie_break: str = "left"
) -> InterpretedUtterance:
    """Disambiguate every multi-label token of one annotated utterance.

    Unambiguous tokens pass through unchanged. The result records one
    Resolution per token position; the consumed marker occurrences follow
    from those. `tie_break` is checked on entry, even with no ambiguous token.
    The ontologies are consulted in order and never merged, so passing the
    domain/task pair costs the same as passing their merge.
    """
    _prefers_left(tie_break)
    consumed: set[int] = set()
    tokens: list[TokenAnnotation] = []
    resolutions: list[Resolution] = []

    for index, token in enumerate(annotated.tokens):
        if token.status is not Status.AMBIGUOUS:
            tokens.append(token)
            resolutions.append(
                Resolution(token_index=index, outcome=UNCHANGED, candidates=token.labels)
            )
            continue
        resolution = resolve_token(index, annotated, ontologies, consumed, tie_break=tie_break)
        resolutions.append(resolution)
        if resolution.outcome == RESOLVED:
            assert resolution.relation_token_index is not None
            consumed.add(resolution.relation_token_index)
            tokens.append(
                TokenAnnotation(
                    surface=token.surface,
                    labels=frozenset({resolution.label}),
                    relation_ids=EMPTY,
                    status=Status.LABELED,
                )
            )
        else:
            tokens.append(token)

    return InterpretedUtterance(
        id=annotated.id, tokens=tuple(tokens), resolutions=tuple(resolutions)
    )


def interpret_all(
    utterances: Iterable[AnnotatedUtterance], *ontologies: Ontology, tie_break: str = "left"
) -> list[InterpretedUtterance]:
    _prefers_left(tie_break)
    return [interpret(u, *ontologies, tie_break=tie_break) for u in utterances]
