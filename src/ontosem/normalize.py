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
the clitic gate asks the variant table and `ontology.lookup`. The pipeline
carries surface strings only; `normalize` is `normalize_all` on one
utterance. `explain` rebuilds one utterance's `Token`s with their spans and
rewrite traces, replaying the same rule helpers, so each rule is written once.

Normalization is a pure function and a fixed point: running it over its own
output changes nothing. `load_tables(path, *ontologies)` is the one check of
this: it rejects tables under which a second pass would change the output,
given the ontologies `normalize` will be passed.
"""

from __future__ import annotations

import re
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
    """A normalized token with its character range in the raw text, as `explain` gives it.

    `trace` records the rewrite steps that produced the surface, e.g.
    ("clitic:l",) or ("compound", "variant:AltrAn"). Untouched tokens have an
    empty trace.
    """

    surface: str
    span: tuple[int, int]
    trace: tuple[str, ...] = ()


class NormalizedUtterance(NamedTuple):
    """The normalized token surfaces of one utterance (`explain` gives their spans and traces)."""

    id: str
    tokens: tuple[str, ...]


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
    split = lambda s: expand_clitics([s], tables, known)
    emitted = [("compound", rule.parts, rule.replacement) for rule in tables.compounds]
    emitted += [("variant", key, base) for key, base in sorted(variants.items()) if base != key]
    emitted += [("clitic", rule.prefix, s) for rule in tables.clitics for s in rule.expansion]
    for kind, key, surface in emitted:
        surface = radicalize(surface, tables)
        if not _is_token(surface):
            parts = tokenize(RawUtterance("", surface))
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


def tokenize(raw: RawUtterance) -> list[str]:
    """The token surfaces of `raw`: the runs the token rule (`_TOKEN`) finds in the transliterated text."""
    return _TOKEN.findall(transliterate(raw.text))


def _clitic_rule(surface: str, tables: NormalizationTables, known: Callable[[str], bool]) -> CliticRule | None:
    """The rule that splits `surface`: the longest prefix whose non-empty remainder is `known`."""
    for rule in tables.clitics:
        rest = surface[len(rule.prefix):]
        if surface.startswith(rule.prefix) and rest and known(rest):
            return rule
    return None


def expand_clitics(surfaces: Sequence[str], tables: NormalizationTables, known: Callable[[str], bool]) -> list[str]:
    """Rewrite each clitic-prefixed surface into its rule's markers plus its host.

    Longest prefix wins (the tables hold clitics in that order). A surface that
    no prefix starts passes after one `startswith`. Expansion only fires when
    the remainder after stripping the prefix is a known surface form, i.e.
    `known(rest)` is true; everything else passes through unchanged, so
    unknown words that merely start with a clitic letter are left intact.
    `known` is asked once per matching prefix: `normalize` passes a gate over
    the variant table and the ontologies; a set's `__contains__` works as well.
    """
    prefixes, out = tables._clitic_prefixes, []
    for surface in surfaces:
        if surface.startswith(prefixes) and (rule := _clitic_rule(surface, tables, known)):
            out += rule.expansion
            out.append(surface[len(rule.prefix):])
        else:
            out.append(surface)
    return out


def _compound_rule(surfaces: Sequence[str], i: int, tables: NormalizationTables) -> CompoundRule | None:
    """The rule that merges the run at `surfaces[i]`: the first rule of that
    surface's bucket (in precedence order) whose parts all match."""
    for rule in tables._compounds_by_first.get(surfaces[i], ()):
        if tuple(surfaces[i:i + len(rule.parts)]) == rule.parts:
            return rule
    return None


def merge_compounds(surfaces: Sequence[str], tables: NormalizationTables) -> list[str]:
    """Replace contiguous runs found in the compound dictionary, longest match
    first, scanning left to right.

    At each position one dict lookup finds the rules whose first part is the
    current surface (the tables index them, in precedence order); the first
    of them whose parts all match wins. Cost per token depends on the rules
    sharing that first part, not on the size of the dictionary.
    """
    if tables._compounds_by_first.keys().isdisjoint(surfaces):  # no surface starts a compound
        return list(surfaces)
    out: list[str] = []
    i = 0
    while i < len(surfaces):
        rule = _compound_rule(surfaces, i, tables)
        out.append(rule.replacement if rule else surfaces[i])
        i += len(rule.parts) if rule else 1
    return out


def radicalize(surface: str, tables: NormalizationTables) -> str:
    """Reduce a lexical variant to its base form, a fixed point since the variant
    table is idempotent (enforced at load); unknown tokens are unchanged."""
    return tables.variants.get(surface, surface)


def _clitic_gate(tables: NormalizationTables, ontologies: Sequence[Ontology]) -> Callable[[str], bool]:
    """The `known` predicate `normalize` passes to `expand_clitics`."""
    return lambda surface: surface in tables.variants or any(lookup(surface, ontologies))


def normalize(raw: RawUtterance, tables: NormalizationTables, *ontologies: Ontology) -> NormalizedUtterance:
    """Full standardization pipeline for one utterance: `normalize_all` of it.

    The ontologies supply the surface vocabulary that gates clitic expansion;
    pass every ontology the annotator will consult (normally the domain/task
    pair). A remainder is known when it is a variant key or `lookup` gives it
    a label or a relation id, so no vocabulary is built per call and the
    cost per token does not grow with the lexicon or the tables.
    """
    return normalize_all([raw], tables, *ontologies)[0]


def normalize_all(
    utterances: Iterable[RawUtterance], tables: NormalizationTables, *ontologies: Ontology
) -> list[NormalizedUtterance]:
    """Each utterance's surfaces: tokenized, clitics expanded, compounds merged,
    then each surface's variant base."""
    known = _clitic_gate(tables, ontologies)
    rewrite = lambda raw: merge_compounds(expand_clitics(tokenize(raw), tables, known), tables)
    return [NormalizedUtterance(raw.id, tuple([radicalize(s, tables) for s in rewrite(raw)])) for raw in utterances]


def explain(raw: RawUtterance, tables: NormalizationTables, *ontologies: Ontology) -> tuple[Token, ...]:
    """The tokens `normalize` gives `raw`, each with its span in the raw text
    and its rewrite steps, replayed through the rule helpers `expand_clitics`
    and `merge_compounds` call. Transliteration maps one character to one, so
    the spans of the transliterated text index the raw text as well. A clitic
    expansion's first marker covers the prefix and any further one is
    zero-width; a compound spans its parts and keeps their steps, once each.
    """
    known = _clitic_gate(tables, ontologies)
    tokens: list[Token] = []
    for match in _TOKEN.finditer(transliterate(raw.text)):
        surface, (start, end) = match[0], match.span()
        if (rule := _clitic_rule(surface, tables, known)) is None:
            tokens.append(Token(surface, (start, end)))
            continue
        step, cut = (f"clitic:{rule.prefix}",), start + len(rule.prefix)
        tokens += [Token(s, (start, cut) if k == 0 else (cut, cut), step) for k, s in enumerate(rule.expansion)]
        tokens.append(Token(surface[len(rule.prefix):], (cut, end), step))
    surfaces = [t.surface for t in tokens]
    out: list[Token] = []
    i = 0
    while i < len(tokens):
        token, n = tokens[i], 1
        if rule := _compound_rule(surfaces, i, tables):
            n = len(rule.parts)
            steps = tuple(dict.fromkeys(s for t in tokens[i:i + n] for s in t.trace)) + ("compound",)
            token = Token(rule.replacement, (token.span[0], tokens[i + n - 1].span[1]), steps)
        if (base := radicalize(token.surface, tables)) != token.surface:
            token = Token(base, token.span, token.trace + (f"variant:{token.surface}",))
        out.append(token)
        i += n
    return tuple(out)
