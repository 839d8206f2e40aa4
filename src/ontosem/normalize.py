"""Utterance standardization: tokenize, expand clitics, merge compounds, radicalize.

Raw transcribed utterances are turned into the token sequence the ontology
lexicon was standardized against. The pipeline is:

    transliterate -> tokenize -> expand_clitics -> merge_compounds -> radicalize

All knowledge lives in a NormalizationTables file (JSON, three sections):

    {
      "format_version": 1,
      "compounds": [{"parts": ["IlmADy", "sAEh"], "replacement": "IlmADy_sAEh"}, ...],
      "clitics":   [{"prefix": "l", "expansion": ["Ily"]}, ...],
      "variants":  {"AltrAn": "OtrAn", ...}
    }

Compound replacement defaults to the underscore-joined parts. A clitic rule
rewrites a token `<prefix><rest>` into its expansion tokens followed by
`<rest>`, but only when `<rest>` is a surface form known to the ontology or
the variant table; unknown remainders leave the token untouched. The variant
table maps orthographic and morphological variants (plurals, alternative
spellings) to the base form used by the ontology and must be idempotent.

Each token costs a few dict lookups whatever the size of the tables and
ontologies: compounds are indexed by their first part when the tables are
built, and the clitic gate asks the variant table and each ontology's own
surface indexes instead of copying them.

Normalization is a pure function and a fixed point: running it over its own
output changes nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Container, Iterable, Sequence

from ._input import read, reader
from .buckwalter import transliterate
from .ontology import Ontology

# characters discarded during tokenization (never become tokens)
PUNCTUATION = frozenset("؟?!.,")


class TablesError(ValueError):
    """Malformed or invariant-violating normalization tables file."""

    def __init__(self, message: str, findings: list[str] | None = None):
        self.findings = findings or []
        if self.findings:
            message = message + ": " + "; ".join(self.findings)
        super().__init__(message)


@dataclass(frozen=True, slots=True)
class RawUtterance:
    id: str
    text: str


@dataclass(frozen=True, slots=True)
class Token:
    """A normalized token with its character range in the raw text.

    `trace` records the rewrite steps that produced the surface, e.g.
    ("clitic:l",) or ("compound", "variant:AltrAn"). Untouched tokens have an
    empty trace.
    """

    surface: str
    span: tuple[int, int]
    trace: tuple[str, ...] = ()


@dataclass(frozen=True, slots=True)
class NormalizedUtterance:
    id: str
    tokens: tuple[Token, ...]

    def surfaces(self) -> list[str]:
        return [token.surface for token in self.tokens]


@dataclass(frozen=True, slots=True)
class CompoundRule:
    parts: tuple[str, ...]
    replacement: str


@dataclass(frozen=True, slots=True)
class CliticRule:
    prefix: str
    expansion: tuple[str, ...]


@dataclass(frozen=True, slots=True)
class NormalizationTables:
    """Normalization rules, with precedence fixed at construction: compounds
    longest first (ties keep declaration order), clitics longest prefix first
    (ties by prefix). The first matching rule wins; callers never re-sort.

    Construction also indexes the compounds by their first part, each bucket
    in that same precedence order, so matching at a token position looks at
    no rule starting with another surface. The index is derived data: it
    takes no part in `==` or `repr`. A compound rule with no parts matches
    everywhere without consuming a token and is rejected with ValueError.
    """

    compounds: tuple[CompoundRule, ...] = ()
    clitics: tuple[CliticRule, ...] = ()
    variants: dict[str, str] | None = None
    _compounds_by_first: dict[str, list[CompoundRule]] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self):
        compounds = tuple(sorted(self.compounds, key=lambda r: -len(r.parts)))
        empty = [rule for rule in compounds if not rule.parts]
        if empty:
            raise ValueError(f"compound rules with no parts: {empty!r}")
        by_first: dict[str, list[CompoundRule]] = {}
        for rule in compounds:
            by_first.setdefault(rule.parts[0], []).append(rule)
        object.__setattr__(self, "compounds", compounds)
        object.__setattr__(self, "_compounds_by_first", by_first)
        object.__setattr__(
            self, "clitics", tuple(sorted(self.clitics, key=lambda r: (-len(r.prefix), r.prefix)))
        )
        object.__setattr__(self, "variants", dict(self.variants or {}))


class _KnownSurfaces:
    """The surfaces that gate clitic expansion: variant keys plus every
    surface the ontologies know. A view over their own indexes; nothing is
    copied, so building one costs the same for any lexicon size."""

    __slots__ = ("variants", "ontologies")

    def __init__(self, variants: dict[str, str], ontologies: Sequence[Ontology]):
        self.variants = variants
        self.ontologies = ontologies

    def __contains__(self, surface: object) -> bool:
        return surface in self.variants or any(o.knows_surface(surface) for o in self.ontologies)


def load_tables(path: str | Path) -> NormalizationTables:
    """Parse and check a normalization tables file.

    Raises TablesError for bytes that are not UTF-8, bad JSON or a section or
    field of the wrong JSON type, and for invariant violations: compound
    entries with fewer than two parts, duplicate compound part sequences,
    empty clitic rules, a variant table that is not idempotent (chained
    entries a->b->c), or a compound part that is another surface's variant
    base or a compound's replacement (either would make a second
    normalization merge again).
    """
    path = Path(path)
    doc = read(path, TablesError)
    records, field = reader(doc, str(path), TablesError)
    variants = doc.get("variants", {})
    if not isinstance(variants, dict):
        raise TablesError(f"{path}: 'variants' must be an object")
    variants = {original: field(variants, original, "variant") for original in variants}
    bases = {base: original for original, base in sorted(variants.items()) if base != original}

    findings: list[str] = []
    compounds: list[CompoundRule] = []
    seen_parts: set[tuple[str, ...]] = set()
    for record in records("compounds"):
        parts = field(record, "parts", "compound", (), array=True)
        replacement = field(record, "replacement", "compound", "_".join(parts))
        if len(parts) < 2:
            findings.append(f"compound {parts!r} needs at least two parts")
        if parts in seen_parts:
            findings.append(f"compound {parts!r} declared more than once")
        seen_parts.add(parts)
        for part in parts:
            if part in bases:
                findings.append(f"compound {parts!r} part {part!r} is the base of variant {bases[part]!r}")
        compounds.append(CompoundRule(parts, replacement))
    replaced = {}
    for rule in compounds:
        replaced.setdefault(rule.replacement, rule.parts)
    for rule in compounds:
        for part in rule.parts:
            if part in replaced:
                findings.append(
                    f"compound {rule.parts!r} part {part!r} is the replacement of compound {replaced[part]!r}"
                )

    clitics: list[CliticRule] = []
    for record in records("clitics"):
        prefix = field(record, "prefix", "clitic", "")
        expansion = field(record, "expansion", "clitic", (), array=True)
        if not prefix:
            findings.append("clitic rule with empty prefix")
        if not expansion:
            findings.append(f"clitic rule {prefix!r} with empty expansion")
        clitics.append(CliticRule(prefix, expansion))

    for original, base in sorted(variants.items()):
        if variants.get(base, base) != base:
            findings.append(f"variant chain {original!r} -> {base!r} -> {variants[base]!r}")

    if findings:
        raise TablesError(f"{path}: invalid tables", findings)
    return NormalizationTables(tuple(compounds), tuple(clitics), variants)


def tokenize(raw: RawUtterance) -> list[Token]:
    """Split on whitespace, discarding punctuation; spans index the raw text.

    Arabic script is transliterated first; the mapping is one-to-one so spans
    are valid for the original text as well.
    """
    text = transliterate(raw.text)
    tokens: list[Token] = []
    start = None
    for pos, char in enumerate(text):
        if char.isspace() or char in PUNCTUATION:
            if start is not None:
                tokens.append(Token(text[start:pos], (start, pos)))
                start = None
        elif start is None:
            start = pos
    if start is not None:
        tokens.append(Token(text[start:], (start, len(text))))
    return tokens


def expand_clitics(
    tokens: Sequence[Token], tables: NormalizationTables, vocabulary: Container[str]
) -> list[Token]:
    """Rewrite clitic-prefixed tokens into marker tokens plus their host.

    Longest prefix wins (the tables hold clitics in that order). Expansion
    only fires when the remainder after stripping the prefix is a known
    surface form (ontology vocabulary or variant table); everything else
    passes through unchanged, so unknown words that merely start with a
    clitic letter are left intact. `vocabulary` is only asked `rest in
    vocabulary`, once per matching prefix, so any container works: a set, or
    the view over the ontologies' indexes that `normalize` passes.
    """
    out: list[Token] = []
    for token in tokens:
        rewritten = None
        for rule in tables.clitics:
            rest = token.surface[len(rule.prefix):]
            if token.surface.startswith(rule.prefix) and rest and rest in vocabulary:
                rewritten = (rule, rest)
                break
        if rewritten is None:
            out.append(token)
            continue
        rule, rest = rewritten
        step = f"clitic:{rule.prefix}"
        cut = token.span[0] + len(rule.prefix)
        cut = min(cut, token.span[1])
        for offset, surface in enumerate(rule.expansion):
            # first expansion token covers the prefix; any further ones are zero-width
            span = (token.span[0], cut) if offset == 0 else (cut, cut)
            out.append(Token(surface, span, token.trace + (step,)))
        out.append(Token(rest, (cut, token.span[1]), token.trace + (step,)))
    return out


def merge_compounds(tokens: Sequence[Token], tables: NormalizationTables) -> list[Token]:
    """Replace contiguous runs found in the compound dictionary, longest match
    first, scanning left to right.

    At each position one dict lookup finds the rules whose first part is the
    current surface (the tables index them, in precedence order); the first
    of them whose parts all match wins. Cost per token depends on the rules
    sharing that first part, not on the size of the dictionary.
    """
    surfaces = [t.surface for t in tokens]
    out: list[Token] = []
    i = 0
    while i < len(tokens):
        for rule in tables._compounds_by_first.get(surfaces[i], ()):
            n = len(rule.parts)
            if tuple(surfaces[i:i + n]) == rule.parts:
                break
        else:
            out.append(tokens[i])
            i += 1
            continue
        trace = tuple(dict.fromkeys(s for t in tokens[i:i + n] for s in t.trace))
        out.append(
            Token(
                rule.replacement,
                (tokens[i].span[0], tokens[i + n - 1].span[1]),
                trace + ("compound",),
            )
        )
        i += n
    return out


def radicalize(surface: str, tables: NormalizationTables) -> str:
    """Reduce a lexical variant to its base form; unknown tokens are unchanged.

    The variant table is idempotent (enforced at load), so the result is a
    fixed point.
    """
    return tables.variants.get(surface, surface)


def normalize(
    raw: RawUtterance, tables: NormalizationTables, *ontologies: Ontology
) -> NormalizedUtterance:
    """Full standardization pipeline for one utterance.

    The ontologies supply the surface vocabulary that gates clitic expansion;
    pass every ontology the annotator will consult (normally the domain/task
    pair). The gate asks the variant table and the indexes each ontology
    already keeps for annotation, so no vocabulary is built per call and the
    cost per token does not grow with the lexicon or the tables.
    """
    tokens = tokenize(raw)
    tokens = expand_clitics(tokens, tables, _KnownSurfaces(tables.variants, ontologies))
    tokens = merge_compounds(tokens, tables)

    final: list[Token] = []
    for token in tokens:
        base = radicalize(token.surface, tables)
        if base != token.surface:
            token = Token(base, token.span, token.trace + (f"variant:{token.surface}",))
        final.append(token)
    return NormalizedUtterance(id=raw.id, tokens=tuple(final))


def normalize_all(
    utterances: Iterable[RawUtterance], tables: NormalizationTables, *ontologies: Ontology
) -> list[NormalizedUtterance]:
    return [normalize(raw, tables, *ontologies) for raw in utterances]
