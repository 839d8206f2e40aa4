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
built, a token no clitic prefix starts is passed by one `startswith`, and
the clitic gate asks the variant table and `ontology.lookup`; `normalize_all`
runs `normalize`'s loop per utterance with a gate that answers each
remainder once per call.

Normalization is a pure function and a fixed point: running it over its own
output changes nothing. `load_tables(path, *ontologies)` is the one check of
this: it rejects tables under which a second pass would change the output,
given the ontologies `normalize` will be passed.
"""

from __future__ import annotations

import re
from functools import cache
from itertools import chain
from pathlib import Path
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

from ._input import InputError, read, reader
from .buckwalter import transliterate
from .ontology import Ontology, lookup

# characters discarded during tokenization (never become tokens)
PUNCTUATION = frozenset("؟?!.,")

# the token rule: a token is a maximal run of characters that are neither
# whitespace (`str.isspace`, which `\s` matches) nor PUNCTUATION
_TOKEN = re.compile(f"[^\\s{re.escape(''.join(sorted(PUNCTUATION)))}]+")


def _is_token(surface: str) -> bool:
    """Whether `tokenize` reads `surface` as itself (ASCII is a fixed point of `transliterate`)."""
    return _TOKEN.fullmatch(surface) is not None and (surface.isascii() or transliterate(surface) == surface)


class TablesError(InputError):
    """Malformed (exit 1) or invariant-violating (exit 2) tables file."""


class RawUtterance(NamedTuple):
    id: str
    text: str


class Token(NamedTuple):
    """A normalized token with its character range in the raw text.

    `trace` records the rewrite steps that produced the surface, e.g.
    ("clitic:l",) or ("compound", "variant:AltrAn"). Untouched tokens have an
    empty trace.
    """

    surface: str
    span: tuple[int, int]
    trace: tuple[str, ...] = ()


class NormalizedUtterance(NamedTuple):
    id: str
    tokens: tuple[Token, ...]


class CompoundRule(NamedTuple):
    parts: tuple[str, ...]
    replacement: str


class CliticRule(NamedTuple):
    prefix: str
    expansion: tuple[str, ...]


class NormalizationTables:
    """Normalization rules, with precedence fixed at construction: compounds
    longest first (ties keep declaration order), clitics longest prefix first
    (ties by prefix). The first matching rule wins; callers never re-sort.

    Construction also indexes the compounds by their first part, each bucket
    in that same precedence order, so matching at a token position looks at
    no rule starting with another surface, and keeps the tuple of clitic
    prefixes. Both are derived data: they take no part in `==`, `hash` or
    `repr`. A compound rule with no parts matches everywhere without
    consuming a token, and a clitic rule with an empty prefix splits every
    token again on each pass; both are rejected with ValueError.
    `variants` is copied into a read-only mapping, left out of the hash, so
    the tables cannot change after `load_tables` has checked them; no
    attribute can be assigned.
    """

    __slots__ = ("compounds", "clitics", "variants", "_compounds_by_first", "_clitic_prefixes")

    def __init__(self, compounds: Iterable[CompoundRule] = (), clitics: Iterable[CliticRule] = (),
                 variants: Mapping[str, str] | None = None):
        compounds = tuple(sorted(compounds, key=lambda r: -len(r.parts)))
        if empty := [rule for rule in compounds if not rule.parts]:
            raise ValueError(f"compound rules with no parts: {empty!r}")
        by_first: dict[str, list[CompoundRule]] = {}
        for rule in compounds:
            by_first.setdefault(rule.parts[0], []).append(rule)
        clitics = tuple(sorted(clitics, key=lambda r: (-len(r.prefix), r.prefix)))
        if empty := [rule for rule in clitics if not rule.prefix]:
            raise ValueError(f"clitic rules with an empty prefix: {empty!r}")
        variants = MappingProxyType(dict(variants or {}))
        prefixes = tuple(rule.prefix for rule in clitics)
        for name, value in zip(self.__slots__, (compounds, clitics, variants, by_first, prefixes)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"cannot set or delete {name!r}: the tables are read-only")

    __delattr__ = __setattr__

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.compounds, self.clitics, self.variants) == (other.compounds, other.clitics, other.variants)

    def __hash__(self) -> int:
        return hash((self.compounds, self.clitics))

    def __repr__(self) -> str:
        return f"NormalizationTables(compounds={self.compounds!r}, clitics={self.clitics!r}, variants={self.variants!r})"


def load_tables(path: str | Path, *ontologies: Ontology) -> NormalizationTables:
    """Parse and check a normalization tables file for use with `ontologies`,
    the ones `normalize` will be given.

    Raises TablesError (exit 1) for bytes that are not UTF-8, bad JSON or a
    section or field of the wrong JSON type (read by `reader`), and with its
    findings (exit 2) for invariant violations: compound entries with fewer
    than two parts, duplicate compound part sequences, clitic rules with an
    empty expansion or an empty or repeated prefix, a variant table that is
    not idempotent (chained entries a->b->c), a compound part, variant key
    or clitic prefix that no token can equal or start with (see `_is_token`),
    or a compound part that is another surface's variant base or a
    compound's replacement (either would make a second normalization merge
    again). Those raise first, as such tables cannot be built. Then
    `normalize` with these tables and `ontologies` must be a fixed point
    under its clitic gate, which with no ontologies knows only the variant
    keys. Each compound replacement, variant base and clitic expansion
    token, after `radicalize`, must tokenize as
    itself (`x.y`, `x y`, `""` and Arabic script do not) and no clitic rule
    may split it: with the compound `a b -> ltwns`, `a b` would normalize to
    `ltwns` and that again to `Ily twns` when an ontology knows `twns`. Nor
    may a clitic rule split a surface the gate knows, as it can be left as a
    clitic's host: with the instance `ltwns`, `mnltwns` would give `mn ltwns`,
    then `mn Ily twns`; these findings come sorted. The hosts are the known
    surfaces, instances, variant keys and triggers, that start with a prefix.
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
    replaced: dict[str, tuple[str, ...]] = {}
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
            if not _is_token(part):
                findings.append(f"compound {parts!r} part {part!r} can never be a token")
        replaced.setdefault(replacement, parts)
        compounds.append(CompoundRule(parts, replacement))
    findings += [
        f"compound {rule.parts!r} part {part!r} is the replacement of compound {replaced[part]!r}"
        for rule in compounds for part in rule.parts if part in replaced
    ]

    clitics: list[CliticRule] = []
    for record in records("clitics"):
        prefix = field(record, "prefix", "clitic", "")
        expansion = field(record, "expansion", "clitic", (), array=True)
        if not prefix:
            findings.append("clitic rule with empty prefix")
        elif any(rule.prefix == prefix for rule in clitics):
            findings.append(f"clitic prefix {prefix!r} declared more than once")
        elif not _is_token(prefix):
            findings.append(f"clitic prefix {prefix!r} can never start a token")
        if not expansion:
            findings.append(f"clitic rule {prefix!r} with empty expansion")
        clitics.append(CliticRule(prefix, expansion))

    for original, base in sorted(variants.items()):
        if not _is_token(original):
            findings.append(f"variant key {original!r} can never be a token")
        if variants.get(base, base) != base:
            findings.append(f"variant chain {original!r} -> {base!r} -> {variants[base]!r}")

    if findings:
        raise TablesError(f"{path}: invalid tables", findings)
    tables = NormalizationTables(tuple(compounds), tuple(clitics), variants)

    known, prefixes = _clitic_gate(tables, ontologies), tables._clitic_prefixes
    split = lambda s: [t.surface for t in expand_clitics([Token(s, (0, len(s)))], tables, known)]
    emitted = [("compound", rule.parts, rule.replacement) for rule in tables.compounds]
    emitted += [("variant", key, base) for key, base in sorted(variants.items()) if base != key]
    emitted += [("clitic", rule.prefix, s) for rule in tables.clitics for s in rule.expansion]
    for kind, key, surface in emitted:
        surface = radicalize(surface, tables)
        if not _is_token(surface):
            parts = [t.surface for t in tokenize(RawUtterance("", surface))]
            findings.append(f"{kind} {key!r} emits {surface!r}, which a second pass tokenizes into {parts!r}")
        elif surface.startswith(prefixes) and len(pieces := split(surface)) > 1:
            findings.append(f"{kind} {key!r} emits {surface!r}, which a second pass splits into {pieces!r}")
    # a surface a variant rewrites leaves as its base, checked above as emitted
    triggers = (r.triggers for o in ontologies for r in o.relations)
    vocabulary = chain(variants, *(o.instances.surfaces for o in ontologies), *triggers)
    hosts = {s for s in vocabulary if s.startswith(prefixes)}
    for host in sorted(hosts):
        if radicalize(host, tables) == host and len(pieces := split(host)) > 1:
            findings.append(f"known surface {host!r} is a clitic host that a second pass splits into {pieces!r}")
    if findings:
        raise TablesError(f"{path}: invalid tables", findings)
    return tables


def tokenize(raw: RawUtterance) -> list[Token]:
    """The tokens of `raw`: the runs the token rule (`_TOKEN`) finds in the
    transliterated text. Transliteration maps one character to one, so the
    spans index the raw text as well.
    """
    text = transliterate(raw.text)
    return [Token(match[0], match.span()) for match in _TOKEN.finditer(text)]


def expand_clitics(
    tokens: Sequence[Token], tables: NormalizationTables, known: Callable[[str], bool]
) -> list[Token]:
    """Rewrite clitic-prefixed tokens, each as long as its span, into markers plus their host.

    Longest prefix wins (the tables hold clitics in that order). A token that
    no prefix starts passes after one `startswith`. Expansion only fires when
    the remainder after stripping the prefix is a known surface form, i.e.
    `known(rest)` is true; everything else passes through unchanged, so
    unknown words that merely start with a clitic letter are left intact.
    `known` is asked once per matching prefix: `normalize` passes a gate over
    the variant table and the ontologies; a set's `__contains__` works as well.
    """
    out: list[Token] = []
    for token in tokens:
        for rule in tables.clitics if token.surface.startswith(tables._clitic_prefixes) else ():
            rest = token.surface[len(rule.prefix):]
            if token.surface.startswith(rule.prefix) and rest and known(rest):
                break
        else:
            out.append(token)
            continue
        step = f"clitic:{rule.prefix}"
        cut = token.span[0] + len(rule.prefix)
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


def _clitic_gate(
    tables: NormalizationTables, ontologies: Sequence[Ontology]
) -> Callable[[str], bool]:
    """The `known` predicate `normalize` passes to `expand_clitics`."""
    return lambda surface: surface in tables.variants or any(lookup(surface, ontologies))


def normalize(
    raw: RawUtterance, tables: NormalizationTables, *ontologies: Ontology
) -> NormalizedUtterance:
    """Full standardization pipeline for one utterance.

    The ontologies supply the surface vocabulary that gates clitic expansion;
    pass every ontology the annotator will consult (normally the domain/task
    pair). A remainder is known when it is a variant key or `lookup` gives it
    a label or a relation id, so no vocabulary is built per call and the
    cost per token does not grow with the lexicon or the tables.
    """
    return _normalize(raw, tables, _clitic_gate(tables, ontologies))


def normalize_all(
    utterances: Iterable[RawUtterance], tables: NormalizationTables, *ontologies: Ontology
) -> list[NormalizedUtterance]:
    """`normalize` of each utterance, with a clitic gate that answers each
    remainder once per call and keeps nothing after it."""
    known = cache(_clitic_gate(tables, ontologies))
    return [_normalize(raw, tables, known) for raw in utterances]


def _normalize(raw: RawUtterance, tables: NormalizationTables, known: Callable[[str], bool]) -> NormalizedUtterance:
    """`normalize` with the clitic gate `known`: clitics, compounds, then each token's variant base."""
    final: list[Token] = []
    for token in merge_compounds(expand_clitics(tokenize(raw), tables, known), tables):
        base = radicalize(token.surface, tables)
        if base != token.surface:
            token = Token(base, token.span, token.trace + (f"variant:{token.surface}",))
        final.append(token)
    return NormalizedUtterance(id=raw.id, tokens=tuple(final))
