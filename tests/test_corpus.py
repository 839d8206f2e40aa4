import pytest

from ontosem import samples
from ontosem.corpus import (
    CorpusFormatError,
    DuplicateUtteranceIdError,
    GoldToken,
    UnknownGoldLabelError,
    load_gold,
    load_utterances,
    stats,
)
from ontosem.normalize import RawUtterance, normalize_all, tokenize
from ontosem.ontology import merge


@pytest.fixture(scope="module")
def merged():
    return merge(samples.load_sample_domain(), samples.load_sample_task())


# -- raw corpus -----------------------------------------------------------------

def test_load_two_line_file(tmp_path):
    path = tmp_path / "c.tsv"
    path.write_text("u1\twqtA$ yxrj OtrAn\nu2\tklAs On\n", encoding="utf-8")
    utterances = load_utterances(path)
    assert [u.id for u in utterances] == ["u1", "u2"]
    assert utterances[0].text == "wqtA$ yxrj OtrAn"


def test_line_without_tab_rejected(tmp_path):
    path = tmp_path / "c.tsv"
    path.write_text("u1\tok\nbroken line\n", encoding="utf-8")
    with pytest.raises(CorpusFormatError, match=r":2:"):
        load_utterances(path)


def test_duplicate_id_rejected(tmp_path):
    path = tmp_path / "c.tsv"
    path.write_text("u1\ta\nu1\tb\n", encoding="utf-8")
    with pytest.raises(DuplicateUtteranceIdError):
        load_utterances(path)


# characters `str.splitlines` breaks a line at, beside \n and \r
LINE_BREAKS_OF_SPLITLINES = ["\u2028", "\u2029", "\x85", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e"]


@pytest.mark.parametrize("char", LINE_BREAKS_OF_SPLITLINES, ids=lambda c: f"U+{ord(c):04X}")
def test_only_newline_ends_a_corpus_line(tmp_path, char):
    path = tmp_path / "c.tsv"
    path.write_text(f"u1\tOtrAn{char}twns\nu2\tltwns\nu3\tOtrAn{char}u9\ttwns", encoding="utf-8")
    utterances = load_utterances(path)
    assert [(u.id, u.text) for u in utterances] == [
        ("u1", f"OtrAn{char}twns"), ("u2", "ltwns"), ("u3", f"OtrAn{char}u9\ttwns"),
    ]
    assert [t.surface for t in tokenize(utterances[0])] == ["OtrAn", "twns"]
    assert [t.surface for t in tokenize(utterances[2])] == ["OtrAn", "u9", "twns"]


@pytest.mark.parametrize("char", LINE_BREAKS_OF_SPLITLINES, ids=lambda c: f"U+{ord(c):04X}")
def test_corpus_error_lines_count_newlines(tmp_path, char):
    path = tmp_path / "c.tsv"
    path.write_text(f"u1\tOtrAn{char}u2\ttwns\nbroken line\n", encoding="utf-8")
    with pytest.raises(CorpusFormatError) as err:
        load_utterances(path)
    assert str(err.value) == f"{path}:2: expected 'id<TAB>text'"


@pytest.mark.parametrize("char", LINE_BREAKS_OF_SPLITLINES, ids=lambda c: f"U+{ord(c):04X}")
def test_only_newline_ends_a_gold_line(tmp_path, char):
    path = tmp_path / "g.tsv"
    path.write_text(f"u1\t0\tOtrAn{char}\tTrain\nu1\t1\ttwns\n", encoding="utf-8")
    with pytest.raises(CorpusFormatError) as err:
        load_gold(path)
    assert str(err.value) == f"{path}:2: expected 4 tab-separated fields, got 3"
    path.write_text(f"u1\t0\tOtrAn{char}\tTrain\n", encoding="utf-8")
    assert load_gold(path)["u1"].tokens == (GoldToken(0, "OtrAn", "Train"),)


@pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=["CRLF", "CR"])
def test_crlf_and_cr_files_read_as_newline_files(tmp_path, newline):
    corpus = samples.corpus_path().read_text(encoding="utf-8")
    gold = samples.gold_path().read_text(encoding="utf-8")
    for name, text in (("c.tsv", corpus), ("g.tsv", gold)):
        (tmp_path / name).write_bytes(text.replace("\n", newline).encode("utf-8"))
    assert load_utterances(tmp_path / "c.tsv") == samples.load_sample_corpus()
    assert load_gold(tmp_path / "g.tsv") == load_gold(samples.gold_path())


def test_shipped_corpus_size():
    assert len(samples.load_sample_corpus()) == 25


# -- gold ------------------------------------------------------------------------

def test_gold_accepts_known_label(tmp_path, merged):
    path = tmp_path / "g.tsv"
    path.write_text("u1\t0\tOtrAn\tTrain\n", encoding="utf-8")
    gold = load_gold(path, merged)
    assert gold["u1"].tokens[0].label == "Train"


def test_gold_rejects_unknown_label(tmp_path, merged):
    path = tmp_path / "g.tsv"
    path.write_text("u1\t0\tOtrAn\tTrian\n", encoding="utf-8")
    with pytest.raises(UnknownGoldLabelError, match="Trian"):
        load_gold(path, merged)


def test_gold_with_the_pair_accepts_a_label_only_the_task_declares(tmp_path, merged):
    domain, task = samples.load_sample_domain(), samples.load_sample_task()
    assert "Booking_Request" in task.concept_names - domain.concept_names
    path = tmp_path / "g.tsv"
    path.write_text("u1\t0\tHjz\tBooking_Request\n", encoding="utf-8")
    assert load_gold(path, domain, task)["u1"].tokens[0].label == "Booking_Request"
    with pytest.raises(UnknownGoldLabelError, match="Booking_Request"):
        load_gold(path, domain)
    assert samples.load_sample_gold(domain, task) == samples.load_sample_gold(merged)


def test_gold_with_the_pair_rejects_a_label_neither_declares(tmp_path):
    path = tmp_path / "g.tsv"
    path.write_text("u1\t0\tOtrAn\tTrain\nu1\t1\tOtrAn\tTrian\n", encoding="utf-8")
    with pytest.raises(UnknownGoldLabelError) as err:
        load_gold(path, samples.load_sample_domain(), samples.load_sample_task())
    assert str(err.value) == f"{path}:2: unknown gold label 'Trian'"


def test_gold_unknown_label_allowed_without_ontology(tmp_path):
    path = tmp_path / "g.tsv"
    path.write_text("u1\t0\tOtrAn\tTrian\n", encoding="utf-8")
    assert load_gold(path)["u1"].tokens[0].label == "Trian"


def test_gold_field_count_checked(tmp_path):
    path = tmp_path / "g.tsv"
    path.write_text("u1\t0\tOtrAn\n", encoding="utf-8")
    with pytest.raises(CorpusFormatError, match="4 tab-separated"):
        load_gold(path)


def test_gold_index_order_checked(tmp_path):
    path = tmp_path / "g.tsv"
    path.write_text("u1\t1\tOtrAn\tTrain\n", encoding="utf-8")
    with pytest.raises(CorpusFormatError, match="out of order"):
        load_gold(path)


@pytest.mark.parametrize("index", ["0_0", "+1", "-1", "٠"], ids=["underscore", "plus", "minus", "arabic-indic-zero"])
def test_gold_index_takes_ascii_digits_only(tmp_path, index):
    """`int` reads each of these as an integer; a gold file may not."""
    path = tmp_path / "g.tsv"
    path.write_text(f"u1\t{index}\tOtrAn\tTrain\n", encoding="utf-8")
    with pytest.raises(CorpusFormatError) as err:
        load_gold(path)
    assert str(err.value) == f"{path}:1: token index {index!r} is not an integer"


def test_shipped_gold_aligns_with_normalized_corpus(merged):
    domain = samples.load_sample_domain()
    task = samples.load_sample_task()
    tables = samples.load_sample_tables()
    gold = samples.load_sample_gold(merged)
    normalized = normalize_all(samples.load_sample_corpus(), tables, domain, task)
    assert {n.id for n in normalized} == set(gold)
    for norm in normalized:
        assert norm.surfaces() == [t.surface for t in gold[norm.id].tokens], norm.id


def write_gold(gold, path):
    """Write a gold mapping in the TSV form `load_gold` reads."""
    lines = ["# ontosem gold corpus v1: utterance_id<TAB>token_index<TAB>surface<TAB>gold_label"]
    for utterance in gold.values():
        for token in utterance.tokens:
            lines.append(f"{utterance.id}\t{token.index}\t{token.surface}\t{token.label}")
        lines.append("")
    path.write_text("\n".join(lines), encoding="utf-8")


def test_gold_round_trip(tmp_path, merged):
    gold = samples.load_sample_gold(merged)
    path = tmp_path / "g.tsv"
    write_gold(gold, path)
    assert load_gold(path, merged) == gold


@pytest.mark.parametrize(
    "text, line",
    [
        # u1 split across two blocks by u2
        ("u1\t0\tOtrAn\tTrain\nu2\t0\tOtrAn\tTrain\nu1\t1\tOtrAn\tTrain\n", 3),
        # a whole u1 block repeated
        ("u1\t0\tOtrAn\tTrain\nu1\t1\tOtrAn\tTrain\n\nu1\t0\tOtrAn\tTrain\n", 4),
    ],
    ids=["split", "repeated"],
)
def test_gold_duplicate_id_rejected(tmp_path, text, line):
    path = tmp_path / "g.tsv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(DuplicateUtteranceIdError) as err:
        load_gold(path)
    assert str(err.value) == f"{path}:{line}: duplicate id 'u1'"


# -- stats ------------------------------------------------------------------------

def test_stats_single_utterance():
    result = stats([RawUtterance("u", "a b c d")])
    assert (result.utterance_count, result.word_count) == (1, 4)
    assert result.avg_words_per_utterance == 4.0


def test_stats_empty_corpus():
    result = stats([])
    assert (result.utterance_count, result.word_count) == (0, 0)
    assert result.avg_words_per_utterance is None


def test_stats_counts_raw_words_before_normalization():
    # punctuation stays attached to the raw word count
    result = stats([RawUtterance("u", "wqtA$ yxrj OtrAn?")])
    assert result.word_count == 3


def test_stats_invariant_under_reordering():
    utterances = samples.load_sample_corpus()
    forward = stats(utterances)
    assert stats(list(reversed(utterances))) == forward


def test_stats_word_count_matches_whitespace_split_sum():
    utterances = samples.load_sample_corpus()
    result = stats(utterances)
    assert result.word_count == sum(len(u.text.split()) for u in utterances)
