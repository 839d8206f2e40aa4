import json
import os
import subprocess
import sys
import xml.etree.ElementTree as ET

import pytest

from conftest import SRC
from ontosem import cli, ontology, samples
from ontosem._input import InputError
from ontosem.cli import main
from ontosem.corpus import CorpusFormatError, DuplicateUtteranceIdError, UnknownGoldLabelError
from ontosem.normalize import RawUtterance, TablesError, load_tables, normalize
from ontosem.ontology import Finding, merge
from ontosem.ontology_io import OntologyFormatError, OntologyValidationError
from ontosem.serialize import XMLCharacterError

OWL_NS = "{http://www.w3.org/2002/07/owl#}"
# how `main` names the sample pair when it refuses the pair as a whole
PAIR_REFUSED = f"ontosem: {samples.domain_ontology_path()}, {{task}}: ontology pair failed validation: "


def run(argv):
    return main(argv)


@pytest.fixture()
def out(tmp_path):
    return tmp_path / "out"


def test_annotate_xml_output(out, capsys):
    code = run(["annotate", "--in", str(samples.corpus_path()), "--out", str(out)])
    assert code == 0
    root = ET.fromstring(out.read_text(encoding="utf-8"))
    assert len(root.findall("utterance")) == 25
    assert capsys.readouterr().out == ""  # diagnostics go to stderr only


def test_annotate_tsv_output(out):
    code = run(
        ["annotate", "--in", str(samples.corpus_path()), "--out", str(out), "--format", "tsv"]
    )
    assert code == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0].startswith("#")
    assert lines[1].split("\t")[0] == "a01"


def test_annotate_empty_input(out, tmp_path):
    source = tmp_path / "empty.tsv"
    source.write_text("", encoding="utf-8")
    code = run(["annotate", "--in", str(source), "--out", str(out)])
    assert code == 0
    assert ET.fromstring(out.read_text(encoding="utf-8")).findall("utterance") == []


def test_annotate_missing_ontology_names_path(out, capsys):
    code = run(
        [
            "annotate",
            "--domain",
            "/no/such/ontology.json",
            "--in",
            str(samples.corpus_path()),
            "--out",
            str(out),
        ]
    )
    assert code == 1
    assert "/no/such/ontology.json" in capsys.readouterr().err


def test_annotate_outputs_are_deterministic(tmp_path):
    first, second = tmp_path / "a", tmp_path / "b"
    for target in (first, second):
        assert run(["annotate", "--in", str(samples.corpus_path()), "--out", str(target)]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_interpret_worked_example(out, tmp_path):
    source = tmp_path / "one.tsv"
    source.write_text("u1\tltwns IlmADy sAEh\n", encoding="utf-8")
    code = run(["interpret", "--in", str(source), "--out", str(out)])
    assert code == 0
    tokens = ET.fromstring(out.read_text(encoding="utf-8")).findall("utterance/token")
    by_value = {t.get("value"): [a.text for a in t.findall("annotation")] for t in tokens}
    assert by_value["twns"] == ["Arrival_City"]


def test_interpret_class_example(out, tmp_path):
    source = tmp_path / "one.tsv"
    source.write_text("u1\tklAs On\n", encoding="utf-8")
    assert run(["interpret", "--in", str(source), "--out", str(out), "--format", "tsv"]) == 0
    rows = [line.split("\t") for line in out.read_text(encoding="utf-8").splitlines()[1:]]
    assert rows[1][4] == "Ticket_Class"
    assert rows[1][7] == "rel_class"


def test_interpret_unambiguous_matches_annotate(tmp_path):
    source = tmp_path / "one.tsv"
    source.write_text("u1\tOtrAn nwrmAl\n", encoding="utf-8")
    annotated_out = tmp_path / "annotated.xml"
    interpreted_out = tmp_path / "interpreted.xml"
    assert run(["annotate", "--in", str(source), "--out", str(annotated_out)]) == 0
    assert run(["interpret", "--in", str(source), "--out", str(interpreted_out)]) == 0
    assert annotated_out.read_text(encoding="utf-8") == interpreted_out.read_text(encoding="utf-8")


def test_eval_on_shipped_corpus(out, capsys):
    code = run(
        [
            "eval",
            "--in",
            str(samples.corpus_path()),
            "--gold",
            str(samples.gold_path()),
            "--out",
            str(out),
        ]
    )
    assert code == 0
    document = json.loads(out.read_text(encoding="utf-8"))
    assert document["counts"] == {
        "correct": 64,
        "incorrect": 2,
        "not_recognized": 9,
        "total": 75,
    }
    assert out.read_bytes() == samples.regression_report_path().read_bytes()
    err = capsys.readouterr().err
    assert "Correct Annotation" in err


PIPELINE_COMMANDS = {
    "annotate": ["annotate", "--in", str(samples.corpus_path())],
    "interpret": ["interpret", "--in", str(samples.corpus_path())],
    "eval": ["eval", "--in", str(samples.corpus_path()), "--gold", str(samples.gold_path())],
}


@pytest.mark.parametrize("command", PIPELINE_COMMANDS)
def test_pipeline_commands_read_the_pair_unmerged(out, monkeypatch, command):
    def no_merge(*ontologies):
        raise AssertionError(f"{command} merged the ontology pair")

    monkeypatch.setattr(cli, "merge", no_merge)
    assert run([*PIPELINE_COMMANDS[command], "--out", str(out)]) == 0
    if command == "eval":
        assert out.read_bytes() == samples.regression_report_path().read_bytes()


@pytest.mark.parametrize("command", PIPELINE_COMMANDS)
def test_pipeline_commands_reject_a_pair_that_validate_rejects(out, tmp_path, capsys, command):
    # each file is valid alone; the task claims the domain's trigger `klAs`
    doc = json.loads(samples.task_ontology_path().read_text(encoding="utf-8"))
    doc["instances"].append({"surface": "klAs", "concepts": ["Booking_Request"]})
    task = tmp_path / "task.json"
    task.write_text(json.dumps(doc), encoding="utf-8")
    detail = "trigger-instance-overlap: surface 'klAs' is both an instance and a trigger of relation 'rel_class'"

    assert run([*PIPELINE_COMMANDS[command], "--task", str(task), "--out", str(out)]) == 2
    assert capsys.readouterr().err == PAIR_REFUSED.format(task=task) + f"{detail}\n"
    assert not out.exists()
    assert run(["validate", "--task", str(task), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"merged: {detail}\n"


def test_export_owl_rejects_the_pair_as_interpret_does(out, tmp_path, capsys):
    # the task makes the domain instance `Alywm` a trigger
    doc = json.loads(samples.task_ontology_path().read_text(encoding="utf-8"))
    doc["relations"][0]["triggers"].append("Alywm")
    task = tmp_path / "task.json"
    task.write_text(json.dumps(doc), encoding="utf-8")

    assert run([*PIPELINE_COMMANDS["interpret"], "--task", str(task), "--out", str(out)]) == 2
    rejected = capsys.readouterr().err
    assert rejected.startswith(PAIR_REFUSED.format(task=task) + "trigger-instance-overlap: surface 'Alywm'")
    assert run(["export-owl", "--task", str(task), "--out", str(out)]) == 2
    assert capsys.readouterr().err == rejected
    assert not out.exists()


def _redeclare_arrival_city(doc):
    doc["concepts"].append({"name": "Arrival_City", "kind": "task"})


def _redeclare_rel_class(doc):
    # the domain's relation with another trigger, and its two concepts as the domain declares them
    doc["concepts"] += [{"name": "Ticket", "kind": "domain"}, {"name": "Ticket_Class", "kind": "domain"}]
    doc["relations"].append({"id": "rel_class", "triggers": ["drjp"], "source": "Ticket", "target": "Ticket_Class"})


def _give_exact_day_a_second_parent(doc):
    # the domain makes `Exact_Day` a `Departure_Hour`; the task makes it a `Train`
    doc["concepts"].append({"name": "Exact_Day", "kind": "domain"})
    doc["taxonomy"] = [{"child": "Exact_Day", "parent": "Train"}]


def _close_a_cycle_through_exact_day(doc):
    # the domain's edge `Exact_Day` < `Departure_Hour`, turned round
    doc["concepts"] += [{"name": "Exact_Day", "kind": "domain"}, {"name": "Departure_Hour", "kind": "domain"}]
    doc["taxonomy"] = [{"child": "Departure_Hour", "parent": "Exact_Day"}]


# each conflict with the findings `validate` lists for it under `merged`
CONFLICTING_TASKS = {
    "concept-with-two-kinds": (_redeclare_arrival_city, ["duplicate-concept: concept name 'Arrival_City' declared more than once"]),
    "relation-with-two-contents": (_redeclare_rel_class, ["duplicate-relation: relation id 'rel_class' declared more than once"]),
    "concept-with-two-parents": (_give_exact_day_a_second_parent, ["multiple-parents: concept 'Exact_Day' has parents ['Departure_Hour', 'Train']"]),
    # both concepts on the cycle are their own ancestors
    "taxonomy-cycle": (_close_a_cycle_through_exact_day, [
        "taxonomy-cycle: concept 'Departure_Hour' is its own ancestor",
        "taxonomy-cycle: concept 'Exact_Day' is its own ancestor",
    ]),
}


@pytest.mark.parametrize("command", ["eval", "export-owl"])
@pytest.mark.parametrize("conflict", CONFLICTING_TASKS)
def test_pair_commands_reject_a_declaration_the_files_make_twice(out, tmp_path, capsys, command, conflict):
    mutate, details = CONFLICTING_TASKS[conflict]
    doc = json.loads(samples.task_ontology_path().read_text(encoding="utf-8"))
    mutate(doc)
    task = tmp_path / "task.json"
    task.write_text(json.dumps(doc), encoding="utf-8")
    argv = PIPELINE_COMMANDS.get(command, [command])

    assert run(["validate", "--task", str(task), "--out", str(out)]) == 2
    assert capsys.readouterr().err == "".join(f"merged: {detail}\n" for detail in details)
    out.unlink()
    assert run([*argv, "--task", str(task), "--out", str(out)]) == 2
    assert capsys.readouterr().err == PAIR_REFUSED.format(task=task) + f"{'; '.join(details)}\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["export-owl"])
def test_merged_document_commands_merge_the_pair(out, monkeypatch, command):
    merged = []

    def spy(*ontologies):
        merged.append(len(ontologies))
        return merge(*ontologies)

    monkeypatch.setattr(cli, "merge", spy)
    assert run([command, "--out", str(out)]) == 0
    assert merged == [2]


def test_validate_merges_no_instance(out, monkeypatch):
    # the pair is checked as a whole from its declarations and edges; the
    # instance sets are read by the overlap check, never merged
    merged = []

    def spy(*ontologies):
        merged.append([len(o.instances) for o in ontologies])
        return merge(*ontologies)

    monkeypatch.setattr(ontology, "merge", spy)
    monkeypatch.setattr(cli, "merge", spy)
    assert run(["validate", "--out", str(out)]) == 0
    assert merged == [[0, 0]]
    assert json.loads(out.read_text(encoding="utf-8")) == []


def test_eval_from_counts_prints_reference_table(out, capsys):
    code = run(["eval", "--from-counts", "448,14,208,670", "--out", str(out)])
    assert code == 0
    err = capsys.readouterr().err
    assert "0.66" in err
    assert "0.96" in err
    # exactly the counts part of a full report: no per-concept or single-label keys
    assert json.loads(out.read_text(encoding="utf-8")) == {
        "format_version": 1,
        "counts": {"correct": 448, "incorrect": 14, "not_recognized": 208, "total": 670},
        "metrics": {
            "precision": 0.9697,
            "f_measure": 0.6687,
            "precision_display": "0.96",
            "f_measure_display": "0.66",
            "f1_conventional": 0.7915,
        },
    }


@pytest.mark.parametrize("value, message", [
    ("4,5", "not enough values to unpack (expected 4, got 2)"),
    ("1,2,3,4,5", "too many values to unpack (expected 4)"),
    ("448,14,208,671", "total 671 != correct+incorrect+not_recognized 670"),
    # a count is ASCII digits, as a gold token index; `int` would take these
    ("+448,14,208,670", "count '+448' is not an integer"),
    ("4_48,14,208,670", "count '4_48' is not an integer"),
    ("\u0664\u0664\u0668,14,208,670", "count '\u0664\u0664\u0668' is not an integer"),
    ("448,14,208,-670", "count '-670' is not an integer"),
    ("448,,208,670", "count '' is not an integer"),
    ("", "count '' is not an integer"),  # given, though empty: not "eval requires --in and --gold"
    ("a,b,c,d", "count 'a' is not an integer"),
])
def test_eval_from_counts_refuses_a_bad_value(out, capsys, value, message):
    assert run(["eval", "--from-counts", value, "--out", str(out)]) == 1
    assert capsys.readouterr() == ("", f"ontosem: bad --from-counts value: {message}\n")
    assert not out.exists()


def test_eval_from_counts_strips_each_count(out):
    assert run(["eval", "--from-counts", " 448, 14 ,208 ,670 ", "--out", str(out)]) == 0
    assert json.loads(out.read_text(encoding="utf-8"))["counts"]["total"] == 670


def test_eval_requires_input_and_gold(out, capsys):
    for argv in (["--in", str(samples.corpus_path())], ["--gold", str(samples.gold_path())]):
        assert run(["eval", *argv, "--out", str(out)]) == 1
        assert capsys.readouterr() == ("", "ontosem: eval requires --in and --gold (or --from-counts)\n")
        assert not out.exists()


def test_eval_refuses_a_malformed_gold_file_before_running_the_pipeline(out, tmp_path, capsys, monkeypatch):
    gold = tmp_path / "g.tsv"
    gold.write_text("u1\t0\tOtrAn\n", encoding="utf-8")

    def no_pipeline(*args):
        raise AssertionError("eval normalized the corpus before reading gold")

    monkeypatch.setattr(cli, "normalize_all", no_pipeline)
    argv = ["eval", "--in", str(samples.corpus_path()), "--gold", str(gold), "--out", str(out)]
    assert run(argv) == 1
    assert capsys.readouterr().err == f"ontosem: {gold}:1: expected 4 tab-separated fields, got 3\n"
    assert not out.exists()
    # the corpus is still read first, so a bad corpus is the error reported
    corpus = tmp_path / "c.tsv"
    corpus.write_text("no tab\n", encoding="utf-8")
    assert run(["eval", "--in", str(corpus), "--gold", str(gold), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"ontosem: {corpus}:1: expected 'id<TAB>text'\n"


def test_empty_utterance_id_exits_1(out, tmp_path, capsys):
    corpus = tmp_path / "c.tsv"
    corpus.write_text("u1\tOtrAn\n\tltwns\n", encoding="utf-8")
    assert run(["interpret", "--in", str(corpus), "--out", str(out)]) == 1
    assert capsys.readouterr() == ("", f"ontosem: {corpus}:2: empty utterance id\n")
    assert not out.exists()


def test_eval_scores_a_turn_that_normalizes_to_no_token(out, tmp_path, capsys):
    # the gold format cannot list an utterance with no token; it adds 0 to every count
    corpus = tmp_path / "c.tsv"
    corpus.write_text(samples.corpus_path().read_text(encoding="utf-8") + "z1\t?!\n", encoding="utf-8")
    argv = ["eval", "--gold", str(samples.gold_path()), "--out", str(out)]
    assert run(argv + ["--in", str(corpus)]) == 0
    assert out.read_bytes() == samples.regression_report_path().read_bytes()
    assert "Correct Annotation" in capsys.readouterr().err
    # an extra utterance with a token is still an alignment error
    corpus.write_text(samples.corpus_path().read_text(encoding="utf-8") + "z1\t?! OtrAn\n", encoding="utf-8")
    assert run(argv + ["--in", str(corpus), "--out", str(tmp_path / "other")]) == 3
    assert capsys.readouterr().err == (
        "ontosem: alignment error: utterance ids differ: missing from predictions [], not in gold ['z1']\n"
    )


def test_eval_alignment_failure_exits_3(out, tmp_path, capsys):
    source = tmp_path / "c.tsv"
    source.write_text("u1\tOtrAn nwrmAl\n", encoding="utf-8")
    gold = tmp_path / "g.tsv"
    gold.write_text("u1\t0\tOtrAn\tTrain\n", encoding="utf-8")  # one token short
    code = run(["eval", "--in", str(source), "--gold", str(gold), "--out", str(out)])
    assert code == 3
    assert "alignment" in capsys.readouterr().err


def test_non_utf8_input_exits_1(out, tmp_path, capsys):
    source = tmp_path / "latin1.tsv"
    # the offset is the file's: a leading byte order mark counts
    for bom, offset in ((b"", 6), (b"\xef\xbb\xbf", 9)):
        source.write_bytes(bom + "u1\tcafé\n".encode("latin-1"))
        assert run(["annotate", "--in", str(source), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == f"ontosem: {source}: not UTF-8: invalid continuation byte at byte {offset}\n"


@pytest.mark.parametrize("option", ["--domain", "--task", "--tables", "--in", "--gold"])
def test_non_utf8_file_named_in_diagnostic(out, tmp_path, capsys, option):
    bad = tmp_path / "latin1.bin"
    bad.write_bytes("u1\t0\tcafé\tTrain\n".encode("latin-1"))
    files = {
        "--domain": samples.domain_ontology_path(),
        "--task": samples.task_ontology_path(),
        "--tables": samples.tables_path(),
        "--in": samples.corpus_path(),
        "--gold": samples.gold_path(),
    }
    files[option] = bad
    argv = ["eval", "--out", str(out)]
    for name, path in files.items():
        argv += [name, str(path)]
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err == f"ontosem: {bad}: not UTF-8: invalid continuation byte at byte 8\n"
    assert "Traceback" not in err


@pytest.mark.parametrize("option", ["--domain", "--task", "--tables", "--in", "--gold"])
def test_a_leading_byte_order_mark_is_not_content(tmp_path, capsys, option):
    files = {
        "--domain": samples.domain_ontology_path(),
        "--task": samples.task_ontology_path(),
        "--tables": samples.tables_path(),
        "--in": samples.corpus_path(),
        "--gold": samples.gold_path(),
    }

    def outputs(path):
        given = {**files, option: path}
        results = []
        for command, output_format in (("eval", "json"), ("interpret", "tsv"), ("interpret", "xml")):
            out = tmp_path / f"{command}.{output_format}"
            argv = [command, "--out", str(out)] + (["--format", output_format] if command == "interpret" else [])
            for name, file in given.items():
                if command == "eval" or name != "--gold":
                    argv += [name, str(file)]
            results.append((run(argv), out.read_bytes(), capsys.readouterr()))
        return results

    with_bom = tmp_path / files[option].name
    with_bom.write_bytes(b"\xef\xbb\xbf" + files[option].read_bytes())
    plain = outputs(files[option])
    assert outputs(with_bom) == plain and plain[0][0] == 0


@pytest.mark.parametrize("option", ["--domain", "--task", "--tables"])
def test_deeply_nested_json_exits_1_naming_file(out, tmp_path, capsys, option):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000, encoding="utf-8")  # beyond the parser's recursion limit
    argv = ["interpret", option, str(deep), "--in", str(samples.corpus_path())]
    assert run(argv + ["--out", str(out)]) == 1
    assert capsys.readouterr().err == f"ontosem: {deep}: JSON nested too deeply\n"


def test_directory_input_exits_1_naming_path(out, tmp_path, capsys):
    assert run(["annotate", "--in", str(tmp_path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"ontosem: {tmp_path}: ") and err.count("\n") == 1


def test_malformed_tables_exits_1(out, tmp_path, capsys):
    tables = tmp_path / "tables.json"
    tables.write_text(json.dumps({"format_version": 1, "variants": ["a"]}), encoding="utf-8")
    argv = ["annotate", "--tables", str(tables), "--in", str(samples.corpus_path())]
    assert run(argv + ["--out", str(out)]) == 1
    assert capsys.readouterr().err == f"ontosem: {tables}: 'variants' must be an object\n"


def _bundled_with(option, tmp_path, mutate):
    source = {"--domain": samples.domain_ontology_path(), "--tables": samples.tables_path()}[option]
    doc = json.loads(source.read_text(encoding="utf-8"))
    mutate(doc)
    path = tmp_path / source.name
    path.write_text(json.dumps(doc, ensure_ascii=False), encoding="utf-8")
    return path


def _set_relation(relation_id, key, value):
    def mutate(doc):
        next(r for r in doc["relations"] if r["id"] == relation_id)[key] = value
    return mutate


# one field of a bundled file replaced by a value of the wrong JSON type; unchecked,
# these crashed, split a string into letters, or loaded as str(value)
@pytest.mark.parametrize(
    "option, mutate, message, commands",
    [
        ("--domain", lambda d: d["instances"][0].update(concepts=5),
         "instance 'concepts' must be an array of strings", ("eval", "validate", "export-owl")),
        ("--domain", _set_relation("rel_class", "triggers", "Ily"),
         "relation 'triggers' must be an array of strings", ("eval", "validate", "export-owl")),
        ("--domain", lambda d: d["instances"][0].update(surface=["a"]),
         "instance 'surface' must be a string", ("eval", "validate", "export-owl")),
        ("--domain", lambda d: d["concepts"][0].update(gloss=["a"]),
         "concept 'gloss' must be a string", ("eval", "validate", "export-owl")),
        ("--tables", lambda d: d["compounds"][0].update(replacement=["x"]),
         "compound 'replacement' must be a string", ("eval",)),
        ("--tables", lambda d: d["variants"].update(AltrAn=["OtrAn"]),
         "variant 'AltrAn' must be a string", ("eval",)),
        ("--tables", lambda d: d["clitics"][0].update(prefix=5),
         "clitic 'prefix' must be a string", ("eval",)),
    ],
)
def test_wrongly_typed_field_exits_1_naming_file(out, tmp_path, capsys, option, mutate, message, commands):
    path = _bundled_with(option, tmp_path, mutate)
    corpus = ["--in", str(samples.corpus_path()), "--gold", str(samples.gold_path())]
    for command in commands:
        argv = [command, option, str(path), "--out", str(out)] + (corpus if command == "eval" else [])
        assert run(argv) == 1, command
        assert capsys.readouterr().err == f"ontosem: {path}: {message}\n", command


# a value of the right JSON type that a loader refuses
@pytest.mark.parametrize(
    "option, mutate, code, message",
    [
        ("--domain", lambda d: d.update(kind="Domain"), 1, "'kind' must be one of ['domain', 'task'], got 'Domain'"),
        ("--domain", lambda d: d.pop("kind"), 1, "'kind' must be one of ['domain', 'task'], got None"),
        ("--tables", lambda d: d["clitics"].append({"prefix": "", "expansion": ["ElY"]}), 2,
         "invalid tables: clitic rule with empty prefix"),
        ("--tables", lambda d: d["clitics"].append({"expansion": ["ElY"]}), 2,
         "invalid tables: clitic rule with empty prefix"),
        ("--tables", lambda d: d["clitics"].append({"prefix": "q", "expansion": []}), 2,
         "invalid tables: clitic rule 'q' with empty expansion"),
        ("--tables", lambda d: d["clitics"].append({"prefix": "q"}), 2,
         "invalid tables: clitic rule 'q' with empty expansion"),
        # rules no token can fire: a token is a run of the token rule in the
        # transliterated text, so it holds no whitespace, punctuation or Arabic script
        ("--tables", lambda d: d["compounds"].append({"parts": ["x", "تونس"]}), 2,
         "invalid tables: compound ('x', 'تونس') part 'تونس' can never be a token"),
        ("--tables", lambda d: d["variants"].update({"AltrAn?": "OtrAn"}), 2,
         "invalid tables: variant key 'AltrAn?' can never be a token"),
        ("--tables", lambda d: d["clitics"].append({"prefix": "ل", "expansion": ["Ily"]}), 2,
         "invalid tables: clitic prefix 'ل' can never start a token"),
        ("--tables", lambda d: d.update(
            compounds=[{"parts": ["IlmADy sAEh", "x"], "replacement": "ok1"}, {"parts": ["", ""], "replacement": "zz"}],
            variants={"a b": "c"},
            clitics=[{"prefix": "l ", "expansion": ["Ily"]}],
        ), 2,
         "invalid tables: compound ('IlmADy sAEh', 'x') part 'IlmADy sAEh' can never be a token; "
         "compound ('', '') part '' can never be a token; compound ('', '') part '' can never be a token; "
         "clitic prefix 'l ' can never start a token; "
         "variant key 'a b' can never be a token"),
    ],
)
def test_a_refused_value_exits_with_its_code_naming_file(out, tmp_path, capsys, option, mutate, code, message):
    path = _bundled_with(option, tmp_path, mutate)
    corpus = ["--in", str(samples.corpus_path()), "--gold", str(samples.gold_path())]
    assert run(["eval", option, str(path), "--out", str(out)] + corpus) == code
    assert capsys.readouterr() == ("", f"ontosem: {path}: {message}\n")
    assert not out.exists()


def test_compound_part_that_is_a_variant_base_exits_2(out, tmp_path, capsys):
    def mutate(doc):
        doc["compounds"].append({"parts": ["OtrAn", "X"]})
        doc["variants"]["trAn"] = "OtrAn"

    path = _bundled_with("--tables", tmp_path, mutate)
    argv = ["interpret", "--tables", str(path), "--in", str(samples.corpus_path())]
    assert run(argv + ["--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"ontosem: {path}: invalid tables: "
        "compound ('OtrAn', 'X') part 'OtrAn' is the base of variant 'trAn'\n"
    )


def test_clitic_prefix_declared_twice_exits_2(out, tmp_path, capsys):
    # rules are tried longest prefix first, ties in file order: `l -> [ElY]` could never fire
    def mutate(doc):
        doc["clitics"].append({"prefix": "l", "expansion": ["ElY"]})

    path = _bundled_with("--tables", tmp_path, mutate)
    corpus = ["--in", str(samples.corpus_path()), "--gold", str(samples.gold_path())]
    assert run(["eval", "--tables", str(path), "--out", str(out)] + corpus) == 2
    assert capsys.readouterr().err == f"ontosem: {path}: invalid tables: clitic prefix 'l' declared more than once\n"
    assert not out.exists()


# each makes a surface that a clitic rule splits on a second normalization;
# `load_tables` without the ontologies accepts them, as the split depends on
# what the ontologies know
@pytest.mark.parametrize(
    "mutate, text, finding",
    [
        (lambda d: d["compounds"].append({"parts": ["a", "b"], "replacement": "ltwns"}), "a b",
         "compound ('a', 'b') emits 'ltwns', which a second pass splits into ['Ily', 'twns']"),
        (lambda d: d["variants"].update(zz="ltwns"), "zz",
         "variant 'zz' emits 'ltwns', which a second pass splits into ['Ily', 'twns']"),
    ],
)
def test_tables_that_break_the_fixed_point_exit_2(out, tmp_path, capsys, ontologies, mutate, text, finding):
    path = _bundled_with("--tables", tmp_path, mutate)
    tables = load_tables(path)
    assert normalize(RawUtterance("u", text), tables, *ontologies).tokens == ("ltwns",)
    assert normalize(RawUtterance("u", "ltwns"), tables, *ontologies).tokens == ("Ily", "twns")

    corpus = ["--in", str(samples.corpus_path()), "--gold", str(samples.gold_path())]
    assert run(["eval", "--tables", str(path), "--out", str(out)] + corpus) == 2
    assert capsys.readouterr().err == f"ontosem: {path}: invalid tables: {finding}\n"
    assert not out.exists()


# a surface a rewrite emits that `tokenize` reads back as other tokens, and a
# known surface that a clitic rule splits when it is left as a clitic's host
@pytest.mark.parametrize(
    "option, mutate, finding",
    [
        ("--tables", lambda d: d["compounds"].append({"parts": ["c", "d"], "replacement": "x.y"}),
         "compound ('c', 'd') emits 'x.y', which a second pass tokenizes into ['x', 'y']"),
        ("--tables", lambda d: d["variants"].update(zz="x y"),
         "variant 'zz' emits 'x y', which a second pass tokenizes into ['x', 'y']"),
        ("--tables", lambda d: d["compounds"].append({"parts": ["c", "d"], "replacement": ""}),
         "compound ('c', 'd') emits '', which a second pass tokenizes into []"),
        ("--tables", lambda d: d["clitics"].append({"prefix": "q", "expansion": [""]}),
         "clitic 'q' emits '', which a second pass tokenizes into []"),
        ("--tables", lambda d: d["compounds"].append({"parts": ["c", "d"], "replacement": "تونس"}),
         "compound ('c', 'd') emits 'تونس', which a second pass tokenizes into ['twns']"),
        ("--tables", lambda d: d["variants"].update(ltwns="ltwns"),
         "known surface 'ltwns' is a clitic host that a second pass splits into ['Ily', 'twns']"),
        ("--domain", lambda d: d["instances"].append({"surface": "ltwns", "concepts": ["Arrival_City"]}),
         "known surface 'ltwns' is a clitic host that a second pass splits into ['Ily', 'twns']"),
    ],
)
def test_emitted_surfaces_and_clitic_hosts_that_break_the_fixed_point_exit_2(
    out, tmp_path, capsys, option, mutate, finding
):
    path = _bundled_with(option, tmp_path, mutate)
    tables = path if option == "--tables" else samples.tables_path()
    corpus = ["--in", str(samples.corpus_path()), "--gold", str(samples.gold_path())]
    assert run(["eval", option, str(path), "--out", str(out)] + corpus) == 2
    assert capsys.readouterr().err == f"ontosem: {tables}: invalid tables: {finding}\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["export-owl", "validate", "eval"])
def test_lone_surrogate_escape_exits_1_naming_file(out, tmp_path, capsys, command):
    # valid JSON, but a string that cannot be written out as UTF-8
    doc = json.loads(samples.domain_ontology_path().read_text(encoding="utf-8"))
    doc["concepts"][0]["gloss"] = "\ud800"
    path = tmp_path / "domain.json"
    path.write_text(json.dumps(doc), encoding="utf-8")  # ASCII: the escape stays an escape
    corpus = ["--in", str(samples.corpus_path()), "--gold", str(samples.gold_path())]
    argv = [command, "--domain", str(path), "--out", str(out)] + (corpus if command == "eval" else [])
    assert run(argv) == 1
    assert capsys.readouterr().err == (
        f"ontosem: {path}: string escape \\ud800 is not valid Unicode (a lone surrogate)\n"
    )


def test_validate_shipped_ontologies(out, capsys):
    assert run(["validate", "--out", str(out)]) == 0
    assert json.loads(out.read_text(encoding="utf-8")) == []
    assert "well-formed" in capsys.readouterr().err


def test_validate_broken_ontology_exits_2(out, tmp_path, capsys):
    broken = tmp_path / "broken.json"
    broken.write_text(
        json.dumps(
            {
                "format_version": 1,
                "kind": "domain",
                "concepts": [{"name": "A"}],
                "taxonomy": [{"child": "A", "parent": "A"}],
            }
        ),
        encoding="utf-8",
    )
    code = run(["validate", "--domain", str(broken), "--out", str(out)])
    assert code == 2
    findings = json.loads(out.read_text(encoding="utf-8"))
    # the merge has the cycle too; it is listed once, for the file that has it
    detail = "concept 'A' is its own ancestor"
    assert findings == [{"ontology": "domain", "code": "taxonomy-cycle", "detail": detail}]
    assert capsys.readouterr().err == f"domain: taxonomy-cycle: {detail}\n"


def test_pipeline_command_names_the_ontology_file_it_refuses(out, tmp_path, capsys):
    broken = tmp_path / "broken.json"
    doc = {"format_version": 1, "kind": "task", "concepts": [{"name": "A"}], "taxonomy": [{"child": "A", "parent": "A"}]}
    broken.write_text(json.dumps(doc), encoding="utf-8")
    argv = ["interpret", "--task", str(broken), "--in", str(samples.corpus_path()), "--out", str(out)]
    assert run(argv) == 2
    detail = "taxonomy-cycle: concept 'A' is its own ancestor"
    assert capsys.readouterr().err == f"ontosem: {broken}: ontology failed validation: {detail}\n"
    assert not out.exists()


def test_validate_unparseable_ontology_exits_1(out, tmp_path):
    broken = tmp_path / "broken.json"
    broken.write_text("not json", encoding="utf-8")
    assert run(["validate", "--domain", str(broken), "--out", str(out)]) == 1


def test_export_owl_is_well_formed(out):
    assert run(["export-owl", "--out", str(out)]) == 0
    root = ET.fromstring(out.read_text(encoding="utf-8"))
    assert len(root.findall(f"{OWL_NS}Class")) == 21


def test_xml_output_with_a_control_character_exits_1_writing_nothing(out, tmp_path, capsys):
    corpus = tmp_path / "c.tsv"
    corpus.write_text("u1\tOtrAn \x01 twns\n", encoding="utf-8")
    for command in ("annotate", "interpret"):
        assert run([command, "--in", str(corpus), "--out", str(out)]) == 1
        assert capsys.readouterr().err == "ontosem: cannot write XML for utterance 'u1': U+0001 is not allowed in XML 1.0\n"
        assert not out.exists()
        assert run([command, "--in", str(corpus), "--out", str(out), "--format", "tsv"]) == 0
        assert "\x01" in out.read_text(encoding="utf-8")
        out.unlink()
        capsys.readouterr()


def test_export_owl_with_a_control_character_exits_1_writing_nothing(out, tmp_path, capsys):
    document = json.loads(samples.domain_ontology_path().read_text(encoding="utf-8"))
    document["concepts"][0]["gloss"] = "\u0001"
    domain = tmp_path / "domain.json"
    domain.write_text(json.dumps(document), encoding="utf-8")
    assert run(["export-owl", "--domain", str(domain), "--out", str(out)]) == 1
    assert capsys.readouterr().err == "ontosem: cannot write XML for owl:Class 'Arrival_City': U+0001 is not allowed in XML 1.0\n"
    assert not out.exists()


def test_xml_error_names_the_utterance_in_the_sample_corpus(out, tmp_path, capsys):
    lines = samples.corpus_path().read_text(encoding="utf-8").split("\n")
    at = next(i for i, line in enumerate(lines) if line.startswith("a03\t"))
    lines[at] = lines[at].replace(" ", " \x01", 1)
    corpus = tmp_path / "c.tsv"
    corpus.write_text("\n".join(lines), encoding="utf-8")
    for command in ("annotate", "interpret"):
        assert run([command, "--in", str(corpus), "--out", str(out)]) == 1
        assert capsys.readouterr().err == "ontosem: cannot write XML for utterance 'a03': U+0001 is not allowed in XML 1.0\n"
        assert not out.exists()


def test_stats_on_shipped_corpus(out, capsys):
    assert run(["stats", "--in", str(samples.corpus_path()), "--out", str(out)]) == 0
    document = json.loads(out.read_text(encoding="utf-8"))
    assert document["utterance_count"] == 25
    assert document["word_count"] == 75
    assert document["avg_words_per_utterance"] == 3.0
    assert "avg words/utterance: 3.00" in capsys.readouterr().err


def test_stdout_default_target(capsys):
    assert run(["stats", "--in", str(samples.corpus_path())]) == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out)["utterance_count"] == 25


@pytest.mark.parametrize("output_format", ["tsv", "xml"])
@pytest.mark.parametrize("encoding", ["ascii", "latin-1"])
def test_stdout_gets_the_bytes_of_out_whatever_the_locale(tmp_path, encoding, output_format):
    corpus = tmp_path / "c.tsv"
    corpus.write_text("u1\tOtrAn café\n", encoding="utf-8")
    argv = [sys.executable, "-m", "ontosem", "annotate", "--in", str(corpus), "--format", output_format]
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path, "PYTHONIOENCODING": encoding}
    to_stdout = subprocess.run(argv, env=env, capture_output=True, timeout=60)
    assert to_stdout.returncode == 0, to_stdout.stderr
    to_file = subprocess.run(argv + ["--out", str(tmp_path / "out")], env=env, capture_output=True, timeout=60)
    assert to_file.returncode == 0, to_file.stderr
    assert to_stdout.stdout == (tmp_path / "out").read_bytes()
    assert "café".encode("utf-8") in to_stdout.stdout


# every refusal is an `InputError` that carries the exit code `main` returns
REFUSALS = {
    "ontology-format": (OntologyFormatError("o.json: top level must be an object"), 1),
    "corpus-format": (CorpusFormatError("c.tsv:1: no tab"), 1),
    "duplicate-utterance-id": (DuplicateUtteranceIdError("c.tsv:2: duplicate id 'a'"), 1),
    "unknown-gold-label": (UnknownGoldLabelError("g.tsv:3: unknown label 'X'"), 1),
    "xml-character": (XMLCharacterError("cannot write XML for utterance 'a': U+0001 is not allowed in XML 1.0"), 1),
    "tables-format": (TablesError("t.json: top level must be an object"), 1),
    "tables-findings": (TablesError("t.json: tables are not a fixed point", ["variant 'a' is a base"]), 2),
    "ontology-validation": (
        OntologyValidationError([Finding("taxonomy-cycle", "concept 'A' is its own ancestor")], "o.json: ontology"), 2
    ),
    "input-findings": (InputError("m", ["f1", "f2"]), 2),
}


def test_a_refusal_joins_its_findings_to_its_message():
    error = InputError("m", ["f1", "f2"])
    assert (str(error), error.findings, error.exit_code) == ("m: f1; f2", ["f1", "f2"], 2)
    plain = CorpusFormatError("m")
    assert (str(plain), plain.findings, plain.exit_code) == ("m", [], 1)


@pytest.mark.parametrize("refusal", REFUSALS)
def test_each_refusal_is_an_input_error_with_its_exit_code(monkeypatch, capsys, refusal):
    error, code = REFUSALS[refusal]
    assert isinstance(error, InputError)
    assert error.exit_code == code

    def handler(args):
        raise error

    monkeypatch.setitem(cli._HANDLERS, "stats", handler)
    assert run(["stats", "--in", "-"]) == code
    assert capsys.readouterr() == ("", f"ontosem: {error}\n")


def test_a_value_error_that_is_no_refusal_escapes_main(monkeypatch):
    def handler(args):
        raise ValueError("a fault of the program")

    monkeypatch.setitem(cli._HANDLERS, "stats", handler)
    with pytest.raises(ValueError, match="a fault of the program"):
        run(["stats", "--in", "-"])
