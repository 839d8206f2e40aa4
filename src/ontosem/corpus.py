"""Corpus I/O: raw utterances, gold token annotations, and corpus statistics.

Raw corpus files are UTF-8 text, one utterance per line as `id<TAB>text`.
Gold files are TSV with one token per line:

    utterance_id<TAB>token_index<TAB>surface<TAB>gold_label

with a blank line between utterances. Token indexes are zero-based and refer
to the *normalized* token sequence. The gold label is a concept name, the
reserved marker label `Semantic_Relation`, or the reserved label `OOV` for
tokens that have no in-domain meaning. Lines starting with `#` are header or
comment lines in both formats.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterator, NamedTuple, Sequence

from ._input import read
from .annotate import SEMANTIC_RELATION_LABEL
from .normalize import RawUtterance
from .ontology import Ontology

OOV_LABEL = "OOV"


class CorpusFormatError(ValueError):
    """Malformed corpus or gold file; message carries path and line number."""


class DuplicateUtteranceIdError(CorpusFormatError):
    pass


class UnknownGoldLabelError(CorpusFormatError):
    pass


class GoldToken(NamedTuple):
    index: int
    surface: str
    label: str


class GoldUtterance(NamedTuple):
    id: str
    tokens: tuple[GoldToken, ...]


class CorpusStats(NamedTuple):
    utterance_count: int
    word_count: int
    avg_words_per_utterance: float | None


def _lines(path: Path) -> Iterator[tuple[int, str]]:
    """The numbered lines of `path` that hold a record. Only "\n" ends a line
    (`str.splitlines` also splits at U+2028, form feed, ...); blank lines and
    `#` lines are skipped."""
    for lineno, line in enumerate(read(path, CorpusFormatError, str).split("\n"), 1):
        if line.strip() and not line.startswith("#"):
            yield lineno, line


def load_utterances(path: str | Path) -> list[RawUtterance]:
    """Read a raw corpus file; rejects malformed lines and duplicate ids."""
    path = Path(path)
    utterances: list[RawUtterance] = []
    seen: set[str] = set()
    for lineno, line in _lines(path):
        if "\t" not in line:
            raise CorpusFormatError(f"{path}:{lineno}: expected 'id<TAB>text'")
        utterance_id, text = line.split("\t", 1)
        utterance_id = utterance_id.strip()
        if not utterance_id:
            raise CorpusFormatError(f"{path}:{lineno}: empty utterance id")
        if utterance_id in seen:
            raise DuplicateUtteranceIdError(f"{path}:{lineno}: duplicate id {utterance_id!r}")
        seen.add(utterance_id)
        utterances.append(RawUtterance(id=utterance_id, text=text.strip()))
    return utterances


def load_gold(path: str | Path, *ontologies: Ontology) -> dict[str, GoldUtterance]:
    """Read a gold file into an ordered id -> GoldUtterance mapping.

    When ontologies are supplied (normally the domain/task pair), every gold
    label must be a reserved label or a concept one of them declares.
    """
    path = Path(path)
    known = {SEMANTIC_RELATION_LABEL, OOV_LABEL}.union(*(o.concept_names for o in ontologies))
    grouped: dict[str, list[GoldToken]] = {}
    block = None  # the id of the utterance the previous token line belongs to
    for lineno, line in _lines(path):
        parts = line.split("\t")
        if len(parts) != 4:
            raise CorpusFormatError(
                f"{path}:{lineno}: expected 4 tab-separated fields, got {len(parts)}"
            )
        utterance_id, index_text, surface, label = (p.strip() for p in parts)
        # ASCII digits only: `int` also takes a sign, `_` and other scripts' digits
        if not (index_text.isascii() and index_text.isdigit()):
            raise CorpusFormatError(f"{path}:{lineno}: token index {index_text!r} is not an integer")
        index = int(index_text)
        if ontologies and label not in known:
            raise UnknownGoldLabelError(f"{path}:{lineno}: unknown gold label {label!r}")
        if utterance_id != block or index == 0:  # the line starts an utterance
            if utterance_id in grouped:
                raise DuplicateUtteranceIdError(f"{path}:{lineno}: duplicate id {utterance_id!r}")
            block = utterance_id
            tokens = grouped[utterance_id] = []
        if index != len(tokens):
            raise CorpusFormatError(
                f"{path}:{lineno}: token index {index} out of order (expected {len(tokens)})"
            )
        tokens.append(GoldToken(index=index, surface=surface, label=label))
    return {uid: GoldUtterance(id=uid, tokens=tuple(tokens)) for uid, tokens in grouped.items()}


def stats(utterances: Sequence[RawUtterance]) -> CorpusStats:
    """Utterance/word counts and their ratio, over raw (pre-normalization)
    whitespace-separated words."""
    utterance_count = len(utterances)
    word_count = sum(len(u.text.split()) for u in utterances)
    average = word_count / utterance_count if utterance_count else None
    return CorpusStats(
        utterance_count=utterance_count,
        word_count=word_count,
        avg_words_per_utterance=average,
    )
