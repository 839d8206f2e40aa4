import json
import re

import pytest
from hypothesis import given, settings, strategies as st

from ontosem import samples
from ontosem.buckwalter import transliterate
from ontosem.normalize import (
    CliticRule,
    CompoundRule,
    NormalizationTables,
    NormalizedUtterance,
    RawUtterance,
    TablesError,
    Token,
    expand_clitics,
    load_tables,
    merge_compounds,
    normalize,
    radicalize,
    tokenize,
)
from ontosem.ontology import Concept, Instance, Ontology, Relation


# -- reference implementations ---------------------------------------------------
# The straightforward forms the indexed code must agree with: every compound
# rule tried at every position, and the clitic gate's vocabulary built as the
# set union of the variant keys and every ontology's surface vocabulary.

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
        vocabulary.update(ontology.surface_vocabulary())
    return vocabulary


def reference_normalize(raw, tables, *ontologies):
    tokens = expand_clitics(tokenize(raw), tables, reference_vocabulary(tables, ontologies))
    final = []
    for token in reference_merge_compounds(tokens, tables):
        base = radicalize(token.surface, tables)
        if base != token.surface:
            token = Token(base, token.span, token.trace + (f"variant:{token.surface}",))
        final.append(token)
    return NormalizedUtterance(id=raw.id, tokens=tuple(final))


@pytest.fixture(scope="module")
def tables():
    return samples.load_sample_tables()


@pytest.fixture(scope="module")
def ontologies():
    return samples.load_sample_domain(), samples.load_sample_task()


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


def test_transliterate_preserves_length():
    text = "وقتاش يخرج التران؟"
    assert len(transliterate(text)) == len(text)


# -- tokenize --------------------------------------------------------------------

def test_tokenize_strips_trailing_question_mark():
    tokens = tokenize(RawUtterance("u", "wqtA$ yxrj OtrAn?"))
    assert surfaces(tokens) == ["wqtA$", "yxrj", "OtrAn"]


def test_tokenize_empty_text():
    assert tokenize(RawUtterance("u", "")) == []


def test_tokenize_collapses_whitespace():
    tokens = tokenize(RawUtterance("u", "a  b"))
    assert surfaces(tokens) == ["a", "b"]
    assert [t.span for t in tokens] == [(0, 1), (3, 4)]


def test_tokenize_punctuation_set():
    tokens = tokenize(RawUtterance("u", "x, y. z! w؟ $keep"))
    assert surfaces(tokens) == ["x", "y", "z", "w", "$keep"]


def test_tokenize_spans_index_raw_text():
    raw = RawUtterance("u", "وقتاش يخرج التران؟")
    for token in tokenize(raw):
        start, end = token.span
        assert transliterate(raw.text[start:end]) == token.surface


# -- clitic expansion ---------------------------------------------------------------

def test_expand_clitic_before_known_host(tables, vocabulary):
    tokens = tokenize(RawUtterance("u", "ltwns"))
    assert surfaces(expand_clitics(tokens, tables, vocabulary)) == ["Ily", "twns"]


def test_no_clitic_no_change(tables, vocabulary):
    tokens = tokenize(RawUtterance("u", "twns"))
    assert surfaces(expand_clitics(tokens, tables, vocabulary)) == ["twns"]


def test_expansion_is_vocabulary_gated(tables, vocabulary):
    assert "XYZ" not in vocabulary  # the remainder really is unknown
    tokens = tokenize(RawUtterance("u", "lXYZ"))
    assert surfaces(expand_clitics(tokens, tables, vocabulary)) == ["lXYZ"]


def test_known_word_starting_with_clitic_letter_survives(tables, vocabulary):
    # lksbrAs is a train type, not Ily + ksbrAs
    assert "ksbrAs" not in vocabulary
    tokens = tokenize(RawUtterance("u", "lksbrAs"))
    assert surfaces(expand_clitics(tokens, tables, vocabulary)) == ["lksbrAs"]


def test_multi_token_expansion_spans(tables):
    from ontosem.normalize import CliticRule

    custom = NormalizationTables(clitics=(CliticRule("b", ("B1", "B2")),))
    tokens = expand_clitics(tokenize(RawUtterance("u", "bhost")), custom, {"host"})
    assert surfaces(tokens) == ["B1", "B2", "host"]
    spans = [t.span for t in tokens]
    assert spans == [(0, 1), (1, 1), (1, 5)]
    assert all(a[1] <= b[0] for a, b in zip(spans, spans[1:]))


def test_prefix_only_token_not_expanded(tables, vocabulary):
    # a bare clitic form has no remainder to expand
    tokens = tokenize(RawUtterance("u", "mn"))
    assert surfaces(expand_clitics(tokens, tables, vocabulary)) == ["mn"]


def test_expanded_spans_stay_ordered(tables, vocabulary):
    tokens = expand_clitics(tokenize(RawUtterance("u", "ltwns mnSfAqs")), tables, vocabulary)
    assert surfaces(tokens) == ["Ily", "twns", "mn", "SfAqs"]
    spans = [t.span for t in tokens]
    assert spans == sorted(spans)
    assert all(a[1] <= b[0] for a, b in zip(spans, spans[1:]))


# -- compound merging -----------------------------------------------------------------

def test_merge_known_compound(tables):
    tokens = [Token("IlmADy", (0, 6)), Token("sAEh", (7, 11))]
    merged = merge_compounds(tokens, tables)
    assert surfaces(merged) == ["IlmADy_sAEh"]
    assert merged[0].span == (0, 11)


def test_partial_compound_unchanged(tables):
    tokens = [Token("IlmADy", (0, 6))]
    assert surfaces(merge_compounds(tokens, tables)) == ["IlmADy"]


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
    tokens = [Token(s, (i * 2, i * 2 + 1)) for i, s in enumerate(["A", "B", "C"])]
    result = surfaces(merge_compounds(tokens, tables))

    candidates = enumerate_segmentations(["A", "B", "C"], rules)
    assert ["A_B", "C"] in candidates and ["A", "B_C"] in candidates
    assert result == ["A_B", "C"]  # leftmost merge wins
    assert result in candidates


def test_longest_compound_wins():
    rules = (CompoundRule(("A", "B"), "A_B"), CompoundRule(("A", "B", "C"), "A_B_C"))
    tables = NormalizationTables(compounds=rules)
    tokens = [Token(s, (i * 2, i * 2 + 1)) for i, s in enumerate(["A", "B", "C"])]
    assert surfaces(merge_compounds(tokens, tables)) == ["A_B_C"]


def test_rule_precedence_fixed_at_construction():
    tables = NormalizationTables(
        compounds=(CompoundRule(("A", "B"), "A_B"), CompoundRule(("A", "B", "C"), "A_B_C")),
        clitics=(CliticRule("w", ("w",)), CliticRule("wl", ("w", "l"))),
    )
    assert [rule.replacement for rule in tables.compounds] == ["A_B_C", "A_B"]
    assert [rule.prefix for rule in tables.clitics] == ["wl", "w"]
    tokens = [Token(s, (i * 2, i * 2 + 1)) for i, s in enumerate(["A", "B", "C"])]
    assert surfaces(merge_compounds(tokens, tables)) == ["A_B_C"]
    # both prefixes leave a known remainder; the longer one must win
    raw = tokenize(RawUtterance("u", "wlhost"))
    assert surfaces(expand_clitics(raw, tables, {"host", "lhost"})) == ["w", "l", "host"]


def test_merged_surface_comes_from_replacement_column(tables):
    replacements = {rule.replacement for rule in tables.compounds}
    tokens = [Token("rwHh", (0, 4)), Token("wjyh", (5, 9)), Token("zz", (10, 12))]
    for token in merge_compounds(tokens, tables):
        if "compound" in token.trace:
            assert token.surface in replacements


def test_compound_rule_with_no_parts_rejected():
    # it would match everywhere without consuming a token
    with pytest.raises(ValueError, match=re.escape("CompoundRule(parts=(), replacement='x')")):
        NormalizationTables(compounds=(CompoundRule(("a", "b"), "a_b"), CompoundRule((), "x")))


def test_empty_compound_parts_reported_by_load(tmp_path):
    path = tmp_path / "tables.json"
    path.write_text(
        json.dumps({"format_version": 1, "compounds": [{"parts": [], "replacement": "x"}]}),
        encoding="utf-8",
    )
    with pytest.raises(TablesError, match="needs at least two parts"):
        load_tables(path)


def test_compound_index_stays_out_of_equality_and_repr():
    rules = (CompoundRule(("A", "B"), "A_B"), CompoundRule(("C", "D"), "C_D"))
    tables = NormalizationTables(compounds=rules)
    assert tables == NormalizationTables(compounds=rules) != NormalizationTables()
    assert repr(tables) == (
        "NormalizationTables(compounds=(CompoundRule(parts=('A', 'B'), replacement='A_B'), "
        "CompoundRule(parts=('C', 'D'), replacement='C_D')), clitics=(), variants={})"
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
    clitics=st.lists(
        st.builds(
            CliticRule,
            st.sampled_from(("l", "m", "mn")),
            st.lists(st.sampled_from(("Ily", "mn")), min_size=1, max_size=2).map(tuple),
        ),
        max_size=3,
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
    tokens = [
        Token(s, (2 * i, 2 * i + 1), ("clitic:l",) if traced[i] else ())
        for i, s in enumerate(surfaces)
    ]
    assert merge_compounds(tokens, tables) == reference_merge_compounds(tokens, tables)


@settings(max_examples=300, deadline=None)
@given(
    tables=generated_tables,
    ontologies=st.lists(generated_ontology(), min_size=0, max_size=2),
    words=st.lists(st.sampled_from(SURFACES + ("lx", "mnb", "mc", "a?")), max_size=8),
)
def test_property_normalize_matches_set_union_vocabulary(tables, ontologies, words):
    raw = RawUtterance("u", " ".join(words))
    assert normalize(raw, tables, *ontologies) == reference_normalize(raw, tables, *ontologies)


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
        once = normalize(RawUtterance("u", text), tables, *ontologies)
        again = normalize(RawUtterance("u", " ".join(once.surfaces())), tables, *ontologies)
        assert again.surfaces() == once.surfaces()


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
    once = normalize(RawUtterance("u", text), tables, *ontologies)
    again = normalize(RawUtterance("u", " ".join(once.surfaces())), tables, *ontologies)
    assert again.surfaces() != once.surfaces()  # the hole the check closes

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
    assert result.surfaces() == ["Ily", "twns", "IlmADy_sAEh"]


def test_normalize_time_question(tables, ontologies):
    result = normalize(RawUtterance("u", "wqtA$ yxrj OtrAn?"), tables, *ontologies)
    assert result.surfaces() == ["wqtA$", "yxrj", "OtrAn"]


def test_normalize_arabic_script_variant(tables, ontologies):
    result = normalize(RawUtterance("u", "وقتاش يخرج التران؟"), tables, *ontologies)
    assert result.surfaces() == ["wqtA$", "yxrj", "OtrAn"]
    assert "variant:AltrAn" in result.tokens[2].trace


def test_normalize_idempotent_on_shipped_corpus(tables, ontologies):
    for raw in samples.load_sample_corpus():
        once = normalize(raw, tables, *ontologies)
        again = normalize(RawUtterance(raw.id, " ".join(once.surfaces())), tables, *ontologies)
        assert again.surfaces() == once.surfaces(), raw.id


def test_normalize_spans_strictly_increasing(tables, ontologies):
    for raw in samples.load_sample_corpus():
        result = normalize(raw, tables, *ontologies)
        spans = [t.span for t in result.tokens]
        assert all(0 <= s <= e <= len(raw.text) for s, e in spans)
        assert all(a[1] <= b[0] for a, b in zip(spans, spans[1:]))


def test_clitic_expansion_never_creates_unknown_remainder(tables, ontologies, vocabulary):
    for raw in samples.load_sample_corpus():
        result = normalize(raw, tables, *ontologies)
        for token in result.tokens:
            if any(step.startswith("clitic:") for step in token.trace):
                known = token.surface in vocabulary
                is_marker = any(token.surface in r.expansion for r in tables.clitics)
                assert known or is_marker, token
