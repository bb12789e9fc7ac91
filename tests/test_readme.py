"""The README's Python examples must run as written.

Each ```` ```python ```` block of ``README.md`` runs in a fresh interpreter
with ``src`` on the path, and must exit 0.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

BLOCKS = re.findall(r"^```python\n(.*?)^```$", (ROOT / "README.md").read_text(), re.M | re.S)


def test_readme_has_python_examples():
    assert BLOCKS


@pytest.mark.parametrize("source", BLOCKS, ids=[f"block {i}" for i in range(len(BLOCKS))])
def test_readme_example_runs(source):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", source], capture_output=True, text=True, env=env, timeout=60
    )
    assert done.returncode == 0, done.stderr
