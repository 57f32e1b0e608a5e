"""Every ```python block of README.md runs as written.

reprolint's R12 reads README's python blocks as callers of the public
surface, so they have to stay code that runs.  Each block runs in a
fresh interpreter with an empty working directory, so a block can rely
on nothing but ``repro`` and the standard library.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
README = REPO_ROOT / "README.md"

_BLOCK_RE = re.compile(r"^```python[ \t]*\n(.*?)^```", re.M | re.S)

_TEXT = README.read_text(encoding="utf-8")

#: (first line, source) of each block
BLOCKS = [(_TEXT.count("\n", 0, m.start(1)) + 1, m.group(1))
          for m in _BLOCK_RE.finditer(_TEXT)]


def test_readme_has_python_blocks():
    assert len(BLOCKS) >= 5


@pytest.mark.parametrize("line, source", BLOCKS,
                         ids=[f"block{n}" for n in range(1, len(BLOCKS) + 1)])
def test_readme_block_runs(tmp_path, line, source):
    env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
    done = subprocess.run([sys.executable, "-c", source], cwd=tmp_path,
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, (
        f"README.md block at line {line} failed:\n{done.stderr}")
