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

from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Sequence

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


@dataclass(frozen=True, slots=True)
class GoldToken:
    index: int
    surface: str
    label: str


@dataclass(frozen=True, slots=True)
class GoldUtterance:
    id: str
    tokens: tuple[GoldToken, ...]


@dataclass(frozen=True, slots=True)
class CorpusStats:
    utterance_count: int
    word_count: int
    avg_words_per_utterance: float | None


def load_utterances(path: str | Path) -> list[RawUtterance]:
    """Read a raw corpus file; rejects malformed lines and duplicate ids."""
    path = Path(path)
    utterances: list[RawUtterance] = []
    seen: set[str] = set()
    for lineno, line in enumerate(read(path, CorpusFormatError, str.splitlines), 1):
        if not line.strip() or line.startswith("#"):
            continue
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


def load_gold(path: str | Path, ontology: Ontology | None = None) -> dict[str, GoldUtterance]:
    """Read a gold file into an ordered id -> GoldUtterance mapping.

    When an ontology is supplied (normally the merged domain/task pair),
    every gold label must be one of its concepts or a reserved label.
    """
    path = Path(path)
    reserved = {SEMANTIC_RELATION_LABEL, OOV_LABEL}
    grouped: dict[str, list[GoldToken]] = {}
    for lineno, line in enumerate(read(path, CorpusFormatError, str.splitlines), 1):
        if not line.strip() or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 4:
            raise CorpusFormatError(
                f"{path}:{lineno}: expected 4 tab-separated fields, got {len(parts)}"
            )
        utterance_id, index_text, surface, label = (p.strip() for p in parts)
        try:
            index = int(index_text)
        except ValueError:
            raise CorpusFormatError(f"{path}:{lineno}: token index {index_text!r} is not an integer") from None
        if ontology is not None and label not in reserved and label not in ontology.concept_names:
            raise UnknownGoldLabelError(f"{path}:{lineno}: unknown gold label {label!r}")
        tokens = grouped.setdefault(utterance_id, [])
        if index != len(tokens):
            raise CorpusFormatError(
                f"{path}:{lineno}: token index {index} out of order (expected {len(tokens)})"
            )
        tokens.append(GoldToken(index=index, surface=surface, label=label))
    return {uid: GoldUtterance(id=uid, tokens=tuple(tokens)) for uid, tokens in grouped.items()}


def save_gold(gold: dict[str, GoldUtterance], path: str | Path) -> None:
    """Write a gold mapping back to the TSV form load_gold() reads."""
    lines = ["# ontosem gold corpus v1: utterance_id<TAB>token_index<TAB>surface<TAB>gold_label"]
    for utterance in gold.values():
        for token in utterance.tokens:
            lines.append(f"{utterance.id}\t{token.index}\t{token.surface}\t{token.label}")
        lines.append("")
    Path(path).write_text("\n".join(lines), encoding="utf-8")


def stats(
    utterances: Sequence[RawUtterance],
    tokenizer: Callable[[str], Iterable[str]] = str.split,
) -> CorpusStats:
    """Utterance/word counts and their ratio, over raw (pre-normalization) words."""
    utterance_count = len(utterances)
    word_count = sum(len(list(tokenizer(u.text))) for u in utterances)
    average = word_count / utterance_count if utterance_count else None
    return CorpusStats(
        utterance_count=utterance_count,
        word_count=word_count,
        avg_words_per_utterance=average,
    )
