"""The same input gives byte-identical output whatever the string hash seed.

Set iteration order follows `PYTHONHASHSEED`, so an output that iterated a
label or relation set unsorted would differ between two seeds. Each command
runs as `python -m ontosem` in a child process, since the seed is fixed when
an interpreter starts.
"""

import os
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
        [sys.executable, "-m", "ontosem", *argv],
        env=env,
        capture_output=True,
        timeout=120,
        check=True,
    )
    return done.stdout, done.stderr


@pytest.mark.parametrize("command", COMMANDS)
def test_output_bytes_do_not_depend_on_the_hash_seed(command):
    first, second = (run_child(COMMANDS[command], seed) for seed in (0, 1))
    assert first == second
    if command == "eval":
        assert first[0] == samples.regression_report_path().read_bytes()
