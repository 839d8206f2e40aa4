"""The same input gives byte-identical output whatever the string hash seed.

Set iteration order follows `PYTHONHASHSEED`, so an output that iterated a
label or relation set unsorted would differ between two seeds. Each command
runs as `python -m ontosem` in a child process, since the seed is fixed when
an interpreter starts.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from ontosem import samples

SRC = Path(__file__).resolve().parents[1] / "src"
CORPUS, GOLD = str(samples.corpus_path()), str(samples.gold_path())
COMMANDS = {
    "interpret-xml": ["interpret", "--in", CORPUS, "--format", "xml"],
    "interpret-tsv": ["interpret", "--in", CORPUS, "--format", "tsv"],
    "eval": ["eval", "--in", CORPUS, "--gold", GOLD],
}


def run_child(argv, seed):
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONHASHSEED": str(seed), "PYTHONPATH": path}
    done = subprocess.run(
        [sys.executable, "-m", "ontosem", *argv], env=env, capture_output=True, timeout=120
    )
    return done.returncode, done.stdout, done.stderr


@pytest.mark.parametrize("command", COMMANDS)
def test_output_bytes_do_not_depend_on_the_hash_seed(command):
    first, second = (run_child(COMMANDS[command], seed) for seed in (0, 1))
    assert first == second
    assert first[0] == 0, first[2]
    if command == "eval":
        assert first[1] == samples.regression_report_path().read_bytes()


def test_tables_findings_do_not_depend_on_the_hash_seed(tmp_path):
    # a read-back finding, and known clitic hosts that `load_tables` gathers
    # in a set and must report sorted
    doc = json.loads(samples.tables_path().read_text(encoding="utf-8"))
    doc["compounds"].append({"parts": ["c", "d"], "replacement": "x.y"})
    doc["variants"].update({s: s for s in ("mntwns", "ltwns", "mnOtrAn", "lOtrAn")})
    tables = tmp_path / "tables.json"
    tables.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "report.json"
    argv = COMMANDS["eval"] + ["--tables", str(tables), "--out", str(out)]
    first, second = (run_child(argv, seed) for seed in (0, 1))
    assert first == second
    code, _, stderr = first
    assert code == 2 and not out.exists()
    assert stderr.decode().startswith(
        f"ontosem: {tables}: invalid tables: compound ('c', 'd') emits 'x.y', "
    )
    assert re.findall(r"known surface '(\w+)'", stderr.decode()) == ["lOtrAn", "ltwns", "mnOtrAn", "mntwns"]
