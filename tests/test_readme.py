"""Every ```python block of README.md runs as written, from the repository root."""

import re

import pytest

from conftest import SRC, run_python

ROOT = SRC.parent
BLOCKS = re.findall(r"^```python\n(.*?)^```$", (ROOT / "README.md").read_text(encoding="utf-8"), re.M | re.S)


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("code", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_python_block_runs(code):
    run_python(code, cwd=ROOT)
