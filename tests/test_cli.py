import json
import xml.etree.ElementTree as ET

import pytest

from ontosem import samples
from ontosem.cli import main

OWL_NS = "{http://www.w3.org/2002/07/owl#}"


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


def test_eval_from_counts_rejects_garbage(out):
    assert run(["eval", "--from-counts", "4,5", "--out", str(out)]) == 1


def test_eval_requires_input_and_gold(out):
    assert run(["eval", "--in", str(samples.corpus_path()), "--out", str(out)]) == 1
    assert run(["eval", "--gold", str(samples.gold_path()), "--out", str(out)]) == 1


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
    source.write_bytes("u1\tcafé\n".encode("latin-1"))
    assert run(["annotate", "--in", str(source), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == f"ontosem: {source}: not UTF-8: invalid continuation byte at byte 6\n"


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
    assert any(f["code"] == "taxonomy-cycle" for f in findings)
    assert "taxonomy-cycle" in capsys.readouterr().err


def test_validate_unparseable_ontology_exits_1(out, tmp_path):
    broken = tmp_path / "broken.json"
    broken.write_text("not json", encoding="utf-8")
    assert run(["validate", "--domain", str(broken), "--out", str(out)]) == 1


def test_export_owl_is_well_formed(out):
    assert run(["export-owl", "--out", str(out)]) == 0
    root = ET.fromstring(out.read_text(encoding="utf-8"))
    assert len(root.findall(f"{OWL_NS}Class")) == 21


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
