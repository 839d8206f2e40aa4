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
consulted. `interpret_all` shares one UNCHANGED Resolution per candidate set
and one resolved TokenAnnotation per (surface, label) across its call, and
an utterance with nothing resolved keeps its tokens tuple; `interpret` is
`interpret_all` of one utterance and keeps nothing between calls.
"""

from __future__ import annotations

from typing import AbstractSet, Iterable, NamedTuple, Sequence

from .annotate import AnnotatedUtterance, Status, TokenAnnotation
# `merge` is not called here; `benchmarks/spans.py` traces `interpret.merge` by name
from .ontology import EMPTY, Ontology, merge, relation_target  # noqa: F401

RESOLVED = "resolved"
UNRESOLVED = "unresolved"
UNCHANGED = "unchanged"

TIE_BREAKS = ("left", "right")
# how `evaluate.report` may score a token left UNRESOLVED
UNRESOLVED_POLICIES = ("not-recognized", "incorrect")


class Resolution(NamedTuple):
    """Outcome of interpreting the token at its own index in `resolutions`."""

    outcome: str  # RESOLVED, UNRESOLVED or UNCHANGED
    candidates: frozenset[str] = EMPTY
    label: str | None = None
    via_relation: str | None = None
    relation_token_index: int | None = None


class InterpretedUtterance(NamedTuple):
    """`resolutions[i]` is the Resolution of `tokens[i]`: one per token, in order."""

    id: str
    tokens: tuple[TokenAnnotation, ...]
    resolutions: tuple[Resolution, ...]


def _prefers_left(tie_break: str) -> bool:
    if tie_break not in TIE_BREAKS:
        raise ValueError(f"tie_break must be one of {TIE_BREAKS}, got {tie_break!r}")
    return tie_break == "left"


def resolve_token(
    index: int,
    annotated: AnnotatedUtterance,
    ontologies: Sequence[Ontology],
    consumed: AbstractSet[int],
    tie_break: str = "left",
) -> Resolution:
    """Resolve one ambiguous token against the nearest qualifying marker.

    A relation's target is `relation_target(relation_id, ontologies)`: the
    first ontology that declares the id wins, and none raises
    UnknownRelationError.
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
            target = relation_target(relation_id, ontologies)
            if target in candidates:
                return Resolution(RESOLVED, candidates, target, relation_id, j)
    return Resolution(UNRESOLVED, candidates)


def interpret(
    annotated: AnnotatedUtterance, *ontologies: Ontology, tie_break: str = "left"
) -> InterpretedUtterance:
    """Disambiguate every multi-label token of one annotated utterance: `interpret_all` of it.

    Unambiguous tokens pass through unchanged. The result records one
    Resolution per token position; the consumed marker occurrences follow
    from those. `tie_break` is checked on entry, even with no ambiguous token.
    The ontologies are consulted in order and never merged, so passing the
    domain/task pair costs the same as passing their merge.
    """
    return interpret_all([annotated], *ontologies, tie_break=tie_break)[0]


def interpret_all(
    utterances: Iterable[AnnotatedUtterance], *ontologies: Ontology, tie_break: str = "left"
) -> list[InterpretedUtterance]:
    """Each utterance interpreted, with one memo for the call: a candidate set
    maps to its shared UNCHANGED Resolution and a (surface, label) pair to its
    shared resolved TokenAnnotation."""
    _prefers_left(tie_break)
    memo: dict = {}
    interpreted: list[InterpretedUtterance] = []
    for annotated in utterances:
        consumed: set[int] = set()
        tokens: list[TokenAnnotation] = []
        resolutions: list[Resolution] = []
        for index, token in enumerate(annotated.tokens):
            if token.status is not Status.AMBIGUOUS:
                if (resolution := memo.get(token.labels)) is None:
                    resolution = memo[token.labels] = Resolution(UNCHANGED, token.labels)
            else:
                resolution = resolve_token(index, annotated, ontologies, consumed, tie_break=tie_break)
                if resolution.outcome == RESOLVED:
                    consumed.add(resolution.relation_token_index)
                    key = (token.surface, resolution.label)
                    if key not in memo:
                        memo[key] = TokenAnnotation(token.surface, frozenset({resolution.label}), EMPTY, Status.LABELED)
                    token = memo[key]
            tokens.append(token)
            resolutions.append(resolution)
        kept = tuple(tokens) if consumed else annotated.tokens
        interpreted.append(InterpretedUtterance(annotated.id, kept, tuple(resolutions)))
    return interpreted
