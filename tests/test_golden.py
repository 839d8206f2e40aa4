"""The command line's outputs on the bundled sample, pinned byte for byte.

Each file under `tests/golden/` is what one subcommand writes to `--out`,
or, for the cases in `SUMMARIES`, the summary it prints to stderr.
When an output change is intended, regenerate them from the repository root:

    PYTHONPATH=src python tests/test_golden.py

and review the diff of `tests/golden/` before committing it.
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
from pathlib import Path

from ontosem import samples
from ontosem.cli import main

GOLDEN = Path(__file__).parent / "golden"
CORPUS, GOLD = str(samples.corpus_path()), str(samples.gold_path())

CASES = {
    "annotate.xml": ["annotate", "--in", CORPUS],
    "annotate.tsv": ["annotate", "--in", CORPUS, "--format", "tsv"],
    "interpret-left.xml": ["interpret", "--in", CORPUS],
    "interpret-left.tsv": ["interpret", "--in", CORPUS, "--format", "tsv"],
    "interpret-right.xml": ["interpret", "--in", CORPUS, "--tie-break", "right"],
    "interpret-right.tsv": ["interpret", "--in", CORPUS, "--format", "tsv", "--tie-break", "right"],
    "validate.json": ["validate"],
    "export-owl.xml": ["export-owl"],
    "stats.json": ["stats", "--in", CORPUS],
}
# `eval`'s `--out` is the frozen report `data/mini_corpus_report.json`
SUMMARIES = {
    "eval-summary.txt": ["eval", "--in", CORPUS, "--gold", GOLD],
}


def _write(name: str, target: Path) -> None:
    if name in SUMMARIES:
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            assert main(SUMMARIES[name] + ["--out", os.devnull]) == 0
        target.write_text(stderr.getvalue(), encoding="utf-8")
    else:
        assert main(CASES[name] + ["--out", str(target)]) == 0


def test_outputs_match_golden(tmp_path):
    assert sorted(p.name for p in GOLDEN.iterdir()) == sorted([*CASES, *SUMMARIES])
    for name in [*CASES, *SUMMARIES]:
        _write(name, tmp_path / name)
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes(), name


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name in [*CASES, *SUMMARIES]:
        _write(name, GOLDEN / name)
    print(f"wrote {len(CASES) + len(SUMMARIES)} files to {GOLDEN}", file=sys.stderr)
