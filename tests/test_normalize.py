import json
import re
from itertools import chain, combinations

import pytest
from hypothesis import Phase, find, given, settings, strategies as st

from conftest import surface_vocabulary
from ontosem import samples
from ontosem.buckwalter import BUCKWALTER_MAP, _TABLE, transliterate
from ontosem.corpus import load_utterances
from ontosem.normalize import (
    CliticRule,
    CompoundRule,
    NormalizationTables,
    PUNCTUATION,
    NormalizedUtterance,
    RawUtterance,
    TablesError,
    Token,
    expand_clitics,
    explain,
    load_tables,
    merge_compounds,
    normalize,
    normalize_all,
    radicalize,
    tokenize,
)
from ontosem.ontology import Concept, Instance, Ontology, Relation


# -- reference implementations ---------------------------------------------------
# The straightforward forms the indexed code must agree with: every clitic
# rule tried on every token, every compound rule tried at every position, and
# the clitic gate's vocabulary built as the set union of the variant keys and
# every ontology's surface vocabulary. They carry spans and traces, which
# `explain` must give, and whose surfaces `normalize` must give.

def reference_expand_clitics(tokens, tables, known):
    out = []
    for token in tokens:
        matched = None
        for rule in tables.clitics:
            rest = token.surface[len(rule.prefix):]
            if token.surface.startswith(rule.prefix) and rest and known(rest):
                matched = rule
                break
        if matched is None:
            out.append(token)
            continue
        step = f"clitic:{matched.prefix}"
        cut = token.span[0] + len(matched.prefix)
        for offset, surface in enumerate(matched.expansion):
            out.append(Token(surface, (token.span[0], cut) if offset == 0 else (cut, cut), token.trace + (step,)))
        out.append(Token(rest, (cut, token.span[1]), token.trace + (step,)))
    return out


def reference_merge_compounds(tokens, tables):
    out = []
    i = 0
    while i < len(tokens):
        matched = None
        for rule in tables.compounds:
            n = len(rule.parts)
            if tuple(t.surface for t in tokens[i:i + n]) == rule.parts:
                matched = rule
                break
        if matched is None:
            out.append(tokens[i])
            i += 1
            continue
        n = len(matched.parts)
        trace = tuple(dict.fromkeys(s for t in tokens[i:i + n] for s in t.trace))
        out.append(
            Token(
                matched.replacement,
                (tokens[i].span[0], tokens[i + n - 1].span[1]),
                trace + ("compound",),
            )
        )
        i += n
    return out


def reference_vocabulary(tables, ontologies):
    vocabulary = set(tables.variants)
    for ontology in ontologies:
        vocabulary.update(surface_vocabulary(ontology))
    return vocabulary


def reference_normalize(raw, tables, *ontologies):
    tokens = reference_expand_clitics(reference_tokenize(raw), tables, reference_vocabulary(tables, ontologies).__contains__)
    final = []
    for token in reference_merge_compounds(tokens, tables):
        base = radicalize(token.surface, tables)
        if base != token.surface:
            token = Token(base, token.span, token.trace + (f"variant:{token.surface}",))
        final.append(token)
    return NormalizedUtterance(id=raw.id, tokens=tuple(final))


@pytest.fixture(scope="module")
def vocabulary(tables, ontologies):
    return reference_vocabulary(tables, ontologies)


def surfaces(tokens):
    return [t.surface for t in tokens]


# -- transliteration -----------------------------------------------------------

def test_transliterate_is_identity_on_ascii():
    assert transliterate("wqtA$ yxrj OtrAn?") == "wqtA$ yxrj OtrAn?"


def test_transliterate_worked_example():
    assert transliterate("لتونس إلماضي ساعة") == "ltwns IlmADy sAEh"


@settings(max_examples=300, deadline=None)
@given(st.text(st.sampled_from([*"a $?\t~", *BUCKWALTER_MAP, *"éœ\u2028\u0600\U0001f600"]), max_size=12))
def test_transliterate_preserves_length(text):
    # ASCII text is returned as it is, other text goes through the table:
    # both give what the table gives
    assert transliterate(text) == text.translate(_TABLE)
    assert len(transliterate(text)) == len(text)
    arabic = "وقتاش يخرج التران؟"
    assert len(transliterate(arabic)) == len(arabic)


def test_transliterate_maps_both_arabic_digit_sets():
    # Arabic-Indic U+0660-U+0669 and Extended Arabic-Indic U+06F0-U+06F9
    assert transliterate("٠١٢٣٤٥٦٧٨٩") == "0123456789"
    assert transliterate("۰۱۲۳۴۵۶۷۸۹") == "0123456789"
    raw = RawUtterance("u", "sAEh ۱۲؟")
    assert tokenize(raw) == ["sAEh", "12"]
    assert explain(raw, NormalizationTables())[1].span == (5, 7) and raw.text[5:7] == "۱۲"


# -- tokenize --------------------------------------------------------------------

def test_tokenize_strips_trailing_question_mark():
    assert tokenize(RawUtterance("u", "wqtA$ yxrj OtrAn?")) == ["wqtA$", "yxrj", "OtrAn"]


def test_tokenize_empty_text():
    assert tokenize(RawUtterance("u", "")) == []


def test_tokenize_collapses_whitespace():
    raw = RawUtterance("u", "a  b")
    assert tokenize(raw) == ["a", "b"]
    assert [t.span for t in explain(raw, NormalizationTables())] == [(0, 1), (3, 4)]


def test_tokenize_punctuation_set():
    assert tokenize(RawUtterance("u", "x, y. z! w؟ $keep")) == ["x", "y", "z", "w", "$keep"]


def test_tokenize_spans_index_raw_text():
    raw = RawUtterance("u", "وقتاش يخرج التران؟")
    tokens = explain(raw, NormalizationTables())
    assert surfaces(tokens) == tokenize(raw)
    for token in tokens:
        start, end = token.span
        assert transliterate(raw.text[start:end]) == token.surface


def reference_tokenize(raw):
    """The token rule as a loop over characters: a token ends at whitespace
    (`str.isspace`) or a PUNCTUATION character."""
    text = transliterate(raw.text)
    tokens = []
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


token_text = st.text(
    st.sampled_from(
        sorted(PUNCTUATION)
        + list(" \t\n\r\x0b\x0c\x1c\x1d\x1e\x1f\x85\xa0\u2028\u3000")
        + list("تونسالقطرحةء،؛٣۴")  # Arabic letters, punctuation and digits
        + ["\u200c"]  # zero-width non-joiner
        + list("lwqA$x_")
    ),
    max_size=12,
)


@settings(max_examples=500, deadline=None)
@given(text=token_text)
def test_property_tokenize_matches_the_character_loop(text):
    raw = RawUtterance("u", text)
    assert tokenize(raw) == surfaces(reference_tokenize(raw))
    assert explain(raw, NormalizationTables()) == tuple(reference_tokenize(raw))


@settings(max_examples=200, deadline=None)
@given(surface=token_text)
def test_property_read_back_accepts_exactly_the_single_tokens(tmp_path_factory, surface):
    # a variant base is an emitted surface; nothing else in these tables can fail
    path = tmp_path_factory.getbasetemp() / "read_back_tables.json"
    path.write_text(json.dumps({"format_version": 1, "variants": {"KEY": surface}}, ensure_ascii=False),
                    encoding="utf-8")
    try:
        load_tables(path)
        accepted = True
    except TablesError:
        accepted = False
    assert accepted == (tokenize(RawUtterance("u", surface)) == [surface])


# -- clitic expansion ---------------------------------------------------------------

def test_expand_clitic_before_known_host(tables, vocabulary):
    tokens = tokenize(RawUtterance("u", "ltwns"))
    assert expand_clitics(tokens, tables, vocabulary.__contains__) == ["Ily", "twns"]


def test_no_clitic_no_change(tables, vocabulary):
    tokens = tokenize(RawUtterance("u", "twns"))
    assert expand_clitics(tokens, tables, vocabulary.__contains__) == ["twns"]


def test_expansion_is_vocabulary_gated(tables, vocabulary):
    assert "XYZ" not in vocabulary  # the remainder really is unknown
    tokens = tokenize(RawUtterance("u", "lXYZ"))
    assert expand_clitics(tokens, tables, vocabulary.__contains__) == ["lXYZ"]


def test_known_word_starting_with_clitic_letter_survives(tables, vocabulary):
    # lksbrAs is a train type, not Ily + ksbrAs
    assert "ksbrAs" not in vocabulary
    tokens = tokenize(RawUtterance("u", "lksbrAs"))
    assert expand_clitics(tokens, tables, vocabulary.__contains__) == ["lksbrAs"]


def test_multi_token_expansion_spans():
    custom = NormalizationTables(clitics=(CliticRule("b", ("B1", "B2")),))
    raw = RawUtterance("u", "bhost")
    assert expand_clitics(tokenize(raw), custom, {"host"}.__contains__) == ["B1", "B2", "host"]
    tokens = explain(raw, custom, boundary_ontology(["host"], ()))
    assert surfaces(tokens) == ["B1", "B2", "host"]
    assert {t.trace for t in tokens} == {("clitic:b",)}
    spans = [t.span for t in tokens]
    assert spans == [(0, 1), (1, 1), (1, 5)]
    assert all(a[1] <= b[0] for a, b in zip(spans, spans[1:]))


def test_prefix_only_token_not_expanded(tables, vocabulary):
    # a bare clitic form has no remainder to expand
    tokens = tokenize(RawUtterance("u", "mn"))
    assert expand_clitics(tokens, tables, vocabulary.__contains__) == ["mn"]


def test_expanded_spans_stay_ordered(tables, ontologies):
    tokens = explain(RawUtterance("u", "ltwns mnSfAqs"), tables, *ontologies)
    assert surfaces(tokens) == ["Ily", "twns", "mn", "SfAqs"]
    spans = [t.span for t in tokens]
    assert spans == sorted(spans)
    assert all(a[1] <= b[0] for a, b in zip(spans, spans[1:]))


# -- compound merging -----------------------------------------------------------------

def test_merge_known_compound(tables):
    assert merge_compounds(["IlmADy", "sAEh"], tables) == ["IlmADy_sAEh"]
    assert explain(RawUtterance("u", "IlmADy sAEh"), tables) == (Token("IlmADy_sAEh", (0, 11), ("compound",)),)


def test_partial_compound_unchanged(tables):
    assert merge_compounds(["IlmADy"], tables) == ["IlmADy"]


def enumerate_segmentations(parts_list, rules):
    """Brute-force oracle: all possible non-overlapping rule applications."""
    if not parts_list:
        return [[]]
    results = []
    for rule in rules:
        n = len(rule.parts)
        if tuple(parts_list[:n]) == rule.parts:
            results.extend([rule.replacement] + rest for rest in enumerate_segmentations(parts_list[n:], rules))
    results.extend([parts_list[0]] + rest for rest in enumerate_segmentations(parts_list[1:], rules))
    return results


def test_overlapping_compounds_leftmost_wins():
    rules = (CompoundRule(("A", "B"), "A_B"), CompoundRule(("B", "C"), "B_C"))
    tables = NormalizationTables(compounds=rules)
    result = merge_compounds(["A", "B", "C"], tables)

    candidates = enumerate_segmentations(["A", "B", "C"], rules)
    assert ["A_B", "C"] in candidates and ["A", "B_C"] in candidates
    assert result == ["A_B", "C"]  # leftmost merge wins
    assert result in candidates


def test_longest_compound_wins():
    rules = (CompoundRule(("A", "B"), "A_B"), CompoundRule(("A", "B", "C"), "A_B_C"))
    tables = NormalizationTables(compounds=rules)
    assert merge_compounds(["A", "B", "C"], tables) == ["A_B_C"]


def test_rule_precedence_fixed_at_construction():
    tables = NormalizationTables(
        compounds=(CompoundRule(("A", "B"), "A_B"), CompoundRule(("A", "B", "C"), "A_B_C")),
        clitics=(CliticRule("w", ("w",)), CliticRule("wl", ("w", "l"))),
    )
    assert [rule.replacement for rule in tables.compounds] == ["A_B_C", "A_B"]
    assert [rule.prefix for rule in tables.clitics] == ["wl", "w"]
    assert merge_compounds(["A", "B", "C"], tables) == ["A_B_C"]
    # both prefixes leave a known remainder; the longer one must win
    raw = tokenize(RawUtterance("u", "wlhost"))
    assert expand_clitics(raw, tables, {"host", "lhost"}.__contains__) == ["w", "l", "host"]


def test_merged_surface_comes_from_replacement_column(tables):
    replacements = {rule.replacement for rule in tables.compounds}
    tokens = explain(RawUtterance("u", "rwHh wjyh zz"), tables)
    assert [t.trace for t in tokens] == [("compound",), ()]
    assert tokens[0].surface in replacements


def test_compound_rule_with_no_parts_rejected():
    # it would match everywhere without consuming a token
    with pytest.raises(ValueError, match=re.escape("CompoundRule(parts=(), replacement='x')")):
        NormalizationTables(compounds=(CompoundRule(("a", "b"), "a_b"), CompoundRule((), "x")))
    # every token starts with "", so each pass would split it again:
    # `twns` -> `x twns` -> `x x twns`
    with pytest.raises(ValueError, match=re.escape("CliticRule(prefix='', expansion=('x',))")):
        NormalizationTables(clitics=(CliticRule("l", ("Ily",)), CliticRule("", ("x",))))


def test_empty_compound_parts_reported_by_load(tmp_path):
    path = tmp_path / "tables.json"
    path.write_text(
        json.dumps({"format_version": 1, "compounds": [{"parts": [], "replacement": "x"}]}),
        encoding="utf-8",
    )
    with pytest.raises(TablesError, match="needs at least two parts"):
        load_tables(path)


def test_variants_are_read_only_and_equal_tables_hash_equal(tables, ontologies):
    with pytest.raises(TypeError):
        tables.variants["zz"] = "qq"
    assert "zz" not in tables.variants
    assert hash(tables) == hash(load_tables(samples.tables_path(), *ontologies))
    source = {"x": "y"}
    built = NormalizationTables(variants=source)
    source["x"] = "z"
    assert built.variants == {"x": "y"}
    assert built == NormalizationTables(variants={"x": "y"}) != NormalizationTables(variants=source)
    assert len({built, NormalizationTables(variants={"x": "y"})}) == 1


def test_compound_index_stays_out_of_equality_and_repr():
    rules = (CompoundRule(("A", "B"), "A_B"), CompoundRule(("C", "D"), "C_D"))
    tables = NormalizationTables(compounds=rules)
    assert tables == NormalizationTables(compounds=rules) != NormalizationTables()
    assert repr(tables) == (
        "NormalizationTables(compounds=(CompoundRule(parts=('A', 'B'), replacement='A_B'), "
        "CompoundRule(parts=('C', 'D'), replacement='C_D')), clitics=(), variants=mappingproxy({}))"
    )
    # the clitic prefix tuple is derived the same way
    clitics = (CliticRule("l", ("Ily",)), CliticRule("mn", ("mn",)))
    prefixed = NormalizationTables(clitics=clitics)
    assert prefixed._clitic_prefixes == ("mn", "l")
    assert prefixed == NormalizationTables(clitics=clitics[::-1]) != NormalizationTables()
    assert hash(prefixed) == hash(NormalizationTables(clitics=clitics[::-1]))
    assert repr(prefixed) == (
        "NormalizationTables(compounds=(), clitics=(CliticRule(prefix='mn', expansion=('mn',)), "
        "CliticRule(prefix='l', expansion=('Ily',))), variants=mappingproxy({}))"
    )


# Small alphabets so that generated rules share first parts, clitic remainders
# hit the vocabulary, and one surface sits in one ontology, both, or only in
# the variant table.
SURFACES = ("a", "b", "c", "la", "lb", "mna", "x")
surface = st.sampled_from(SURFACES)
compound_rules = st.builds(
    CompoundRule,
    st.lists(surface, min_size=1, max_size=3).map(tuple),
    st.sampled_from(("R1", "R2", "a", "x")),
)
generated_tables = st.builds(
    NormalizationTables,
    compounds=st.lists(compound_rules, max_size=8).map(tuple),
    # one rule per prefix, as `load_tables` requires
    clitics=st.lists(
        st.builds(
            CliticRule,
            st.sampled_from(("l", "m", "mn")),
            st.lists(st.sampled_from(("Ily", "mn")), min_size=1, max_size=2).map(tuple),
        ),
        max_size=3,
        unique_by=lambda rule: rule.prefix,
    ).map(tuple),
    variants=st.dictionaries(surface, surface, max_size=3),
)


@st.composite
def generated_ontology(draw):
    instances = draw(st.sets(surface, max_size=4))
    triggers = draw(st.sets(surface, max_size=2))
    return Ontology(
        concepts=(Concept("C", "domain"),),
        instances=tuple(Instance(s, frozenset({"C"})) for s in instances),
        relations=(Relation("rel", frozenset(triggers), "C", "C"),),
    )


@settings(max_examples=300, deadline=None)
@given(
    tables=generated_tables,
    surfaces=st.lists(surface, max_size=8),
    traced=st.lists(st.booleans(), min_size=8, max_size=8),
)
def test_property_indexed_merge_matches_linear_scan(tables, surfaces, traced):
    tokens = [Token(s, (2 * i, 2 * i + 1)) for i, s in enumerate(surfaces)]
    assert merge_compounds(surfaces, tables) == [t.surface for t in reference_merge_compounds(tokens, tables)]
    # traced parts: a word behind the clitic `q`, whose rule emits no marker,
    # reaches the merge as itself with the step `clitic:q`
    raw = RawUtterance("u", " ".join("q" * traced[i] + s for i, s in enumerate(surfaces)))
    quoted = NormalizationTables(tables.compounds, (CliticRule("q", ()),))
    traced_tokens = reference_expand_clitics(reference_tokenize(raw), quoted, set(SURFACES).__contains__)
    assert [t.surface for t in traced_tokens] == surfaces
    assert explain(raw, quoted, boundary_ontology(SURFACES, ())) == tuple(reference_merge_compounds(traced_tokens, quoted))


@settings(max_examples=300, deadline=None)
@given(
    tables=generated_tables,
    ontologies=st.lists(generated_ontology(), min_size=0, max_size=2),
    words=st.lists(st.sampled_from(SURFACES + ("lx", "mnb", "mc", "a?")), max_size=8),
)
def test_property_normalize_matches_set_union_vocabulary(tables, ontologies, words):
    raw = RawUtterance("u", " ".join(words))
    expected = reference_normalize(raw, tables, *ontologies).tokens
    assert explain(raw, tables, *ontologies) == expected
    assert normalize(raw, tables, *ontologies) == NormalizedUtterance("u", tuple(surfaces(expected)))


# -- radicalization -----------------------------------------------------------------

def test_radicalize_plural_to_base_and_fixed_point(tables):
    base = radicalize("tsAkr", tables)
    assert base == "tskrh"
    assert radicalize(base, tables) == base  # reapplying changes nothing


def test_radicalize_unknown_unchanged(tables):
    assert radicalize("twns", tables) == "twns"


def test_variant_chain_rejected_at_load(tmp_path):
    path = tmp_path / "tables.json"
    path.write_text(
        json.dumps({"format_version": 1, "variants": {"a": "b", "b": "c"}}), encoding="utf-8"
    )
    with pytest.raises(TablesError, match="variant chain"):
        load_tables(path)


def test_clitic_prefix_declared_twice_rejected_at_load(tmp_path, ontologies):
    # the first rule of a prefix always wins, so `ltwns` could never give `ElY twns`
    twice = NormalizationTables(clitics=(CliticRule("l", ("Ily",)), CliticRule("l", ("ElY",))))
    assert two_passes("ltwns", twice, *ontologies)[0] == ["Ily", "twns"]
    path = write_tables(tmp_path / "tables.json", twice)
    assert load_findings(path, *ontologies) == load_findings(path) == ["clitic prefix 'l' declared more than once"]


def test_compound_part_that_is_a_variant_base_rejected_at_load(tmp_path, ontologies):
    # matched before variants are reduced, `trAn X` would normalize to
    # [OtrAn, X], and that output again to [OtrAn_X]
    doc = {"format_version": 1, "compounds": [{"parts": ["OtrAn", "X"]}], "variants": {"trAn": "OtrAn"}}
    path = tmp_path / "tables.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(TablesError) as err:
        load_tables(path)
    assert err.value.findings == ["compound ('OtrAn', 'X') part 'OtrAn' is the base of variant 'trAn'"]

    doc["compounds"] = [{"parts": ["trAn", "X"]}]  # a part that is a variant key is fine
    path.write_text(json.dumps(doc), encoding="utf-8")
    tables = load_tables(path)
    for text in ("trAn X", "OtrAn X"):
        once, again = two_passes(text, tables, *ontologies)
        assert again == once


@pytest.mark.parametrize(
    "compounds, text, finding",
    [
        # `a b e` would normalize to [c, e], and that again to [c_e]
        ([{"parts": ["a", "b"], "replacement": "c"}, {"parts": ["c", "e"]}],
         "a b e", "compound ('c', 'e') part 'c' is the replacement of compound ('a', 'b')"),
        # `x a b` would normalize to [x, c], and that again to [y]
        ([{"parts": ["a", "b"], "replacement": "c"}, {"parts": ["x", "c"], "replacement": "y"}],
         "x a b", "compound ('x', 'c') part 'c' is the replacement of compound ('a', 'b')"),
    ],
)
def test_compound_part_that_is_a_replacement_rejected_at_load(
    tmp_path, ontologies, compounds, text, finding
):
    rules = [CompoundRule(tuple(c["parts"]), c.get("replacement", "_".join(c["parts"]))) for c in compounds]
    tables = NormalizationTables(tuple(rules))
    once, again = two_passes(text, tables, *ontologies)
    assert again != once  # the hole the check closes

    path = tmp_path / "tables.json"
    path.write_text(json.dumps({"format_version": 1, "compounds": compounds}), encoding="utf-8")
    with pytest.raises(TablesError) as err:
        load_tables(path)
    assert err.value.findings == [finding]


@pytest.mark.parametrize("version, shown", [(True, "True"), (1.0, "1.0")])
def test_tables_format_version_must_be_the_integer_1(tmp_path, version, shown):
    path = tmp_path / "tables.json"
    path.write_text(json.dumps({"format_version": version}), encoding="utf-8")
    with pytest.raises(TablesError) as err:
        load_tables(path)
    assert str(err.value) == f"{path}: unsupported format_version {shown} (expected 1)"
    assert err.value.findings == []


def test_single_part_compound_rejected(tmp_path):
    path = tmp_path / "tables.json"
    path.write_text(
        json.dumps({"format_version": 1, "compounds": [{"parts": ["only"]}]}), encoding="utf-8"
    )
    with pytest.raises(TablesError, match="two parts"):
        load_tables(path)


@pytest.mark.parametrize(
    "section, value, message",
    [
        ("compounds", {"parts": ["a", "b"]}, "'compounds' must be an array of objects"),
        ("compounds", ["a b"], "'compounds' must be an array of objects"),
        ("compounds", [{"parts": "ab"}], "compound 'parts' must be an array of strings"),
        ("compounds", [{"parts": ["a", 1]}], "compound 'parts' must be an array of strings"),
        ("clitics", {"prefix": "l"}, "'clitics' must be an array of objects"),
        ("clitics", [{"prefix": "l", "expansion": "Ily"}], "clitic 'expansion' must be an array of strings"),
        ("variants", [["a", "b"]], "'variants' must be an object"),
        ("compounds", [{"parts": ["a", "b"], "replacement": ["x"]}], "compound 'replacement' must be a string"),
        ("clitics", [{"prefix": 5, "expansion": ["Ily"]}], "clitic 'prefix' must be a string"),
        ("variants", {"AltrAn": ["OtrAn"]}, "variant 'AltrAn' must be a string"),
        ("variants", {"AltrAn": None}, "variant 'AltrAn' must be a string"),
        # each inline type check fails over to the reader, which words the error
        ("compounds", [{"parts": None}], "compound 'parts' must be an array of strings"),
        ("compounds", [{"parts": [["a"], "b"]}], "compound 'parts' must be an array of strings"),
        ("compounds", [{"parts": ["a", "b"], "replacement": None}], "compound 'replacement' must be a string"),
        ("compounds", [{"parts": ["a", "b"]}, {"parts": 5, "replacement": 5}], "compound 'parts' must be an array of strings"),
        ("compounds", [{"parts": [], "replacement": 5}], "compound 'replacement' must be a string"),
        ("clitics", [{"prefix": None, "expansion": ["Ily"]}], "clitic 'prefix' must be a string"),
        ("clitics", [{"prefix": "l", "expansion": None}], "clitic 'expansion' must be an array of strings"),
        ("clitics", [{"prefix": "l", "expansion": ["Ily", 1]}], "clitic 'expansion' must be an array of strings"),
        ("clitics", [{"prefix": ["l"], "expansion": "Ily"}], "clitic 'prefix' must be a string"),
        ("clitics", [{"prefix": "l", "expansion": ["Ily"]}, "l"], "'clitics' must be an array of objects"),
    ],
)
def test_malformed_tables_schema_rejected(tmp_path, section, value, message):
    path = tmp_path / "tables.json"
    path.write_text(json.dumps({"format_version": 1, section: value}), encoding="utf-8")
    with pytest.raises(TablesError, match=re.escape(f"{path}: {message}")) as err:
        load_tables(path)
    assert err.value.findings == []


def test_tables_bad_json_reports_position(tmp_path):
    path = tmp_path / "tables.json"
    path.write_text("{", encoding="utf-8")
    with pytest.raises(TablesError) as err:
        load_tables(path)
    assert ":1:" in str(err.value)
    assert err.value.findings == []


# -- full pipeline ---------------------------------------------------------------------

def test_normalize_worked_example(tables, ontologies):
    result = normalize(RawUtterance("u", "ltwns IlmADy sAEh"), tables, *ontologies)
    assert result == NormalizedUtterance("u", ("Ily", "twns", "IlmADy_sAEh"))


def test_normalize_time_question(tables, ontologies):
    result = normalize(RawUtterance("u", "wqtA$ yxrj OtrAn?"), tables, *ontologies)
    assert result.tokens == ("wqtA$", "yxrj", "OtrAn")


def test_normalize_arabic_script_variant(tables, ontologies):
    raw = RawUtterance("u", "وقتاش يخرج التران؟")
    assert normalize(raw, tables, *ontologies).tokens == ("wqtA$", "yxrj", "OtrAn")
    assert explain(raw, tables, *ontologies)[2] == Token("OtrAn", (11, 17), ("variant:AltrAn",))


def test_normalize_idempotent_on_shipped_corpus(tables, ontologies):
    for raw in load_utterances(samples.corpus_path()):
        once = normalize(raw, tables, *ontologies).tokens
        again = normalize(RawUtterance(raw.id, " ".join(once)), tables, *ontologies).tokens
        assert again == once, raw.id


def write_tables(path, tables):
    """Write `tables` as a tables file, so that `load_tables` checks them."""
    doc = {
        "format_version": 1,
        "compounds": [{"parts": list(r.parts), "replacement": r.replacement} for r in tables.compounds],
        "clitics": [{"prefix": r.prefix, "expansion": list(r.expansion)} for r in tables.clitics],
        "variants": dict(tables.variants),
    }
    path.write_text(json.dumps(doc, ensure_ascii=False), encoding="utf-8")
    return path


def two_passes(text, tables, *ontologies):
    once = list(normalize(RawUtterance("u", text), tables, *ontologies).tokens)
    return once, list(normalize(RawUtterance("u", " ".join(once)), tables, *ontologies).tokens)


def load_findings(path, *ontologies):
    with pytest.raises(TablesError) as err:
        load_tables(path, *ontologies)
    assert str(err.value).startswith(f"{path}: invalid tables: ")
    return err.value.findings


def test_load_tables_names_what_a_clitic_rule_splits_again(tmp_path, tables, ontologies):
    path = tmp_path / "tables.json"
    assert load_tables(write_tables(path, tables), *ontologies) == tables
    broken = NormalizationTables(
        tables.compounds, tables.clitics + (CliticRule("w", ("ltwns",)),), tables.variants
    )
    assert two_passes("wtwns", broken, *ontologies) == (["ltwns", "twns"], ["Ily", "twns", "twns"])
    assert load_findings(write_tables(path, broken), *ontologies) == [
        "clitic 'w' emits 'ltwns', which a second pass splits into ['Ily', 'twns']"
    ]
    # the split depends on the ontologies: without them no remainder is known
    assert load_tables(path) == broken
    # a replacement that is a variant key leaves as its base, which is all a
    # second pass sees
    reduced = NormalizationTables(
        (CompoundRule(("c", "d"), "ltwns"),), tables.clitics, {"ltwns": "twns"}
    )
    assert normalize(RawUtterance("u", "c d"), reduced, *ontologies).tokens == ("twns",)
    assert load_tables(write_tables(path, reduced), *ontologies) == reduced
    # an entry mapping a surface to itself rewrites nothing, but makes the
    # surface a known clitic host
    identity = NormalizationTables(clitics=tables.clitics, variants={"ltwns": "ltwns"})
    assert two_passes("mnltwns", identity, *ontologies) == (["mn", "ltwns"], ["mn", "Ily", "twns"])
    assert load_findings(write_tables(path, identity), *ontologies) == [
        "known surface 'ltwns' is a clitic host that a second pass splits into ['Ily', 'twns']"
    ]


# each emits a surface that `tokenize` does not read back as itself
@pytest.mark.parametrize(
    "compounds, clitics, variants, text, once, again, finding",
    [
        ([CompoundRule(("c", "d"), "x.y")], [], {}, "c d", ["x.y"], ["x", "y"],
         "compound ('c', 'd') emits 'x.y', which a second pass tokenizes into ['x', 'y']"),
        ([], [], {"zz": "x y"}, "zz", ["x y"], ["x", "y"],
         "variant 'zz' emits 'x y', which a second pass tokenizes into ['x', 'y']"),
        ([CompoundRule(("c", "d"), "")], [], {}, "c d e", ["", "e"], ["e"],
         "compound ('c', 'd') emits '', which a second pass tokenizes into []"),
        ([], [CliticRule("q", ("",))], {}, "qtwns", ["", "twns"], ["twns"],
         "clitic 'q' emits '', which a second pass tokenizes into []"),
        ([CompoundRule(("c", "d"), "تونس")], [], {}, "c d", ["تونس"], ["twns"],
         "compound ('c', 'd') emits 'تونس', which a second pass tokenizes into ['twns']"),
    ],
)
def test_load_tables_rejects_an_emitted_surface_that_does_not_read_back(
    tmp_path, tables, ontologies, compounds, clitics, variants, text, once, again, finding
):
    broken = NormalizationTables(
        tables.compounds + tuple(compounds),
        tables.clitics + tuple(clitics),
        {**tables.variants, **variants},
    )
    assert two_passes(text, broken, *ontologies) == (once, again)
    path = write_tables(tmp_path / "tables.json", broken)
    assert load_findings(path, *ontologies) == load_findings(path) == [finding]  # no ontology needed


@pytest.mark.parametrize(
    "instances, relations",
    [
        ((Instance("ltwns", frozenset({"City"})),), ()),
        ((), (Relation("to", frozenset({"ltwns"}), "City", "City"),)),
    ],
)
def test_load_tables_rejects_a_known_surface_that_a_clitic_rule_splits(
    tmp_path, tables, ontologies, instances, relations
):
    extra = Ontology(concepts=(Concept("City", "domain"),), instances=instances, relations=relations)
    assert two_passes("mnltwns", tables, *ontologies, extra) == (["mn", "ltwns"], ["mn", "Ily", "twns"])
    path = write_tables(tmp_path / "tables.json", tables)
    assert load_findings(path, *ontologies, extra) == [
        "known surface 'ltwns' is a clitic host that a second pass splits into ['Ily', 'twns']"
    ]
    assert load_tables(path, *ontologies) == tables


def reference_host_findings(tables, ontologies):
    """The clitic-host findings of `load_tables`, by a linear scan over every
    variant key, trigger and instance surface with the set-union gate."""
    known = reference_vocabulary(tables, ontologies).__contains__
    prefixes = tuple(rule.prefix for rule in tables.clitics)
    hosts = chain(tables.variants, *(r.triggers for o in ontologies for r in o.relations),
                  (i.surface for o in ontologies for i in o.instances))
    findings = []
    for host in sorted({s for s in hosts if s.startswith(prefixes)}):
        parts = surfaces(reference_expand_clitics([Token(host, (0, len(host)))], tables, known))
        if radicalize(host, tables) == host and len(parts) > 1:
            findings.append(f"known surface {host!r} is a clitic host that a second pass splits into {parts!r}")
    return findings


# Surfaces on the edges of the prefix ranges of `l`, `ll`, `m` and `mn`: each
# prefix alone, heads just below (`k`, `lk`, `mm`) and just above (`lm`,
# `l~`, `mo`, `n`) a range in sort order, each alone or before a host.
HOST_HEADS = ("", "k", "l", "lk", "ll", "lll", "lm", "l~", "m", "mm", "mn", "mo", "n")
boundary_surface = st.tuples(st.sampled_from(HOST_HEADS), st.sampled_from(("", "a", "twns"))).map("".join).filter(bool)


def boundary_ontology(instances, triggers):
    return Ontology(
        concepts=(Concept("C", "domain"),),
        instances=tuple(Instance(s, frozenset({"C"})) for s in instances),
        relations=(Relation("rel", frozenset(triggers), "C", "C"),) if triggers else (),
    )


def host_findings(path, ontologies):
    try:
        load_tables(path, *ontologies)
    except TablesError as err:
        return [f for f in err.findings if f.startswith("known surface")]
    return []


def test_clitic_hosts_on_the_range_edges_equal_the_linear_scan(tmp_path):
    tables = NormalizationTables(clitics=[CliticRule(p, ("Ily",)) for p in ("l", "ll", "m", "mn")])
    hosts = ("l", "ll", "lla", "lka", "l~a", "lma", "m", "mn", "ma", "mma", "mna", "moa")
    ontology = boundary_ontology(hosts + ("a", "ka", "k", "oa", "~a", "n", "na"), ())
    want = reference_host_findings(tables, [ontology])
    assert [f.split("'")[1] for f in want] == ["lka", "ll", "lla", "lma", "l~a", "ma", "mma", "mn", "mna", "moa"]
    assert host_findings(write_tables(tmp_path / "tables.json", tables), [ontology]) == want


@settings(max_examples=300, deadline=None)
@given(
    prefixes=st.lists(st.sampled_from(("l", "ll", "m", "mn")), min_size=1, unique=True),
    expansion=st.sampled_from((("Ily",), ("mn",), ("Ily", "mn"))),
    pair=st.lists(st.tuples(st.sets(boundary_surface, max_size=8), st.sets(boundary_surface, max_size=2)),
                  min_size=1, max_size=2),
    variant_keys=st.sets(boundary_surface, max_size=2),
)
def test_property_clitic_hosts_found_by_prefix_range_equal_the_linear_scan(
    tmp_path_factory, prefixes, expansion, pair, variant_keys
):
    tables = NormalizationTables(
        clitics=[CliticRule(p, expansion) for p in prefixes], variants={k: k for k in variant_keys}
    )
    ontologies = [boundary_ontology(instances, triggers) for instances, triggers in pair]
    path = write_tables(tmp_path_factory.getbasetemp() / "boundary_tables.json", tables)
    assert host_findings(path, ontologies) == reference_host_findings(tables, ontologies)


# Clitic-prefix letters, surfaces the sample pair knows and surfaces that do
# not read back, each alone or behind a clitic prefix, so that drawn rules
# emit surfaces a second pass could split, merge or tokenize differently.
PREFIXES = ("l", "mn", "w")
word = st.tuples(
    st.sampled_from(("",) + PREFIXES),
    st.sampled_from(PREFIXES + ("twns", "Ily", "OtrAn", "trAn", "x.y", "x y", "", "تو")),
).map("".join)


tables_document = st.fixed_dictionaries({
    "format_version": st.just(1),
    "compounds": st.lists(st.fixed_dictionaries(
        {"parts": st.lists(word, min_size=2, max_size=3)}, optional={"replacement": word}
    ), max_size=3),
    "clitics": st.lists(st.fixed_dictionaries(
        {"prefix": st.sampled_from(PREFIXES), "expansion": st.lists(word, min_size=1, max_size=2)}
    ), max_size=3, unique_by=lambda rule: rule["prefix"]),
    "variants": st.dictionaries(word, word, max_size=3),
})


@settings(max_examples=300, deadline=None)
@given(
    doc=tables_document,
    instances=st.sets(word, max_size=3),
    triggers=st.sets(word, max_size=2),
    words=st.lists(word, max_size=6),
)
def test_property_normalize_is_a_fixed_point_under_accepted_tables(
    tmp_path_factory, ontologies, doc, instances, triggers, words
):
    extra = Ontology(
        concepts=(Concept("C", "domain"),),
        instances=tuple(Instance(s, frozenset({"C"})) for s in instances),
        relations=(Relation("rel", frozenset(triggers), "C", "C"),),
    )
    path = tmp_path_factory.getbasetemp() / "generated_tables.json"
    path.write_text(json.dumps(doc, ensure_ascii=False), encoding="utf-8")
    try:
        tables = load_tables(path, *ontologies, extra)
    except TablesError:
        return
    once, again = two_passes(" ".join(words), tables, *ontologies, extra)
    assert again == once


def test_normalize_spans_strictly_increasing(tables, ontologies):
    for raw in load_utterances(samples.corpus_path()):
        spans = [t.span for t in explain(raw, tables, *ontologies)]
        assert all(0 <= s <= e <= len(raw.text) for s, e in spans)
        assert all(a[1] <= b[0] for a, b in zip(spans, spans[1:]))


def test_clitic_expansion_never_creates_unknown_remainder(tables, ontologies, vocabulary):
    for raw in load_utterances(samples.corpus_path()):
        for token in explain(raw, tables, *ontologies):
            if any(step.startswith("clitic:") for step in token.trace):
                known = token.surface in vocabulary
                is_marker = any(token.surface in r.expansion for r in tables.clitics)
                assert known or is_marker, token


# -- normalize_all and explain over generated corpora -------------------------------

@st.composite
def raw_corpora(draw):
    """Generated tables and ontologies, and raw utterances over SURFACES plus
    clitic forms. A word repeats within and across utterances at other
    character offsets, with spaces and punctuation between the words."""
    tables = draw(generated_tables)
    ontologies = draw(st.lists(generated_ontology(), min_size=0, max_size=2))
    words = st.sampled_from(SURFACES + ("lx", "mnb", "mc", "lla", "mnla"))
    gaps = st.sampled_from((" ", "  ", ", ", "? ", "!"))
    raws = []
    for u in range(draw(st.integers(0, 5))):
        text = "".join(w + draw(gaps) for w in draw(st.lists(words, max_size=8)))
        raws.append(RawUtterance(f"u{u}", draw(st.sampled_from(("", " ", "."))) + text))
    return tables, ontologies, raws


@settings(max_examples=300, deadline=None)
@given(raw_corpora())
def test_property_normalize_all_equals_normalize_per_utterance(corpus):
    tables, ontologies, raws = corpus
    assert normalize_all(raws, tables, *ontologies) == [normalize(r, tables, *ontologies) for r in raws]


@settings(max_examples=300, deadline=None)
@given(raw_corpora())
def test_property_explain_gives_normalize_surfaces_with_spans_in_the_raw_text(corpus):
    tables, ontologies, raws = corpus
    for raw, normalized in zip(raws, normalize_all(raws, tables, *ontologies), strict=True):
        tokens = explain(raw, tables, *ontologies)
        assert tuple(surfaces(tokens)) == normalized.tokens
        spans = [t.span for t in tokens]
        assert all(0 <= start <= end <= len(raw.text) for start, end in spans)
        assert all(a[1] <= b[0] for a, b in zip(spans, spans[1:]))  # in order, none overlapping
        for token in tokens:
            if not token.trace:
                assert transliterate(raw.text[token.span[0]:token.span[1]]) == token.surface


def _explained_tokens(corpus):
    tables, ontologies, raws = corpus
    return [t for r in raws for t in explain(r, tables, *ontologies)]


def _host_at_two_offsets(corpus):
    tables, ontologies, raws = corpus
    starts = {}
    for t in (t for r in raws for t in explain(r, NormalizationTables())):
        starts.setdefault(t.surface, set()).add(t.span[0])
    steps = lambda s: (step for t in explain(RawUtterance("", s), tables, *ontologies) for step in t.trace)
    return any(len(at) > 1 and any(step.startswith("clitic:") for step in steps(s)) for s, at in starts.items())


def _equal_not_same(corpus):
    _, _, raws = corpus
    surfaces = [s for r in raws for s in tokenize(r)]
    return any(a == b and a is not b for a, b in combinations(surfaces, 2))


@pytest.mark.parametrize("holds", [
    _host_at_two_offsets,
    lambda c: any(t.span[0] == t.span[1] for t in _explained_tokens(c)),
    lambda c: any(t.trace[0].startswith("clitic:") and "compound" in t.trace for t in _explained_tokens(c) if t.trace),
    lambda c: any(step.startswith("variant:") for t in _explained_tokens(c) for step in t.trace),
    _equal_not_same,
], ids=["repeated-host", "two-token-expansion", "compound-over-rest", "variant", "equal-not-same"])
def test_the_raw_corpora_hold_what_the_property_needs(holds):
    find(raw_corpora(), holds, settings=settings(database=None, phases=[Phase.generate], max_examples=1000))


def test_successive_calls_under_other_tables_or_ontologies_give_their_own_output(tables, ontologies):
    raws = [RawUtterance("u", "ltwns mn ltwns")]
    split = normalize_all(raws, tables, *ontologies)
    assert split[0].tokens == ("Ily", "twns", "mn", "Ily", "twns")
    for other in [(tables,), (NormalizationTables(variants=tables.variants), *ontologies)]:
        whole = normalize_all(raws, *other)
        assert whole == [normalize(raws[0], *other)]
        assert whole[0].tokens == ("ltwns", "mn", "ltwns")
    assert normalize_all(raws, tables, *ontologies) == split
