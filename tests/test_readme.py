"""The README's Python examples must run as written, and its module map
must match the package.

Each ```` ```python ```` block of ``README.md`` runs in a fresh interpreter
with ``src`` on the path, and must exit 0.  The README states the contract
and the docstrings state the mechanisms, so the module map has one short
entry per module and the README names nothing private.  Its "Runtime is
pure standard library" holds for every import the package makes.
"""

import ast
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

README = (ROOT / "README.md").read_text()

BLOCKS = re.findall(r"^```python\n(.*?)^```$", README, re.M | re.S)


def test_readme_has_python_examples():
    assert BLOCKS


@pytest.mark.parametrize("source", BLOCKS, ids=[f"block {i}" for i in range(len(BLOCKS))])
def test_readme_example_runs(source, source_env):
    done = subprocess.run(
        [sys.executable, "-c", source], capture_output=True, text=True, env=source_env, timeout=60
    )
    assert done.returncode == 0, done.stderr


def test_module_map_names_each_module_once():
    section = re.search(r"^## Modules\n.*?(?=^## )", README, re.M | re.S).group()
    entries = re.findall(r"^\* `linrel\.(\w+)`", section, re.M)
    modules = {p.stem for p in (ROOT / "src" / "linrel").glob("*.py")} - {"__init__", "__main__"}
    assert sorted(entries) == sorted(modules)
    assert len(section.splitlines()) <= 40


def test_readme_names_nothing_private():
    assert re.findall(r"(?<!\w)_[A-Za-z]\w*", README) == []


def test_runtime_imports_only_the_standard_library():
    assert "Runtime is pure standard library" in README
    imported = {}
    for path in sorted((ROOT / "src" / "linrel").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                imported.setdefault(name.partition(".")[0], path.name)
    assert imported
    outside = {top: where for top, where in imported.items() if top not in sys.stdlib_module_names}
    assert outside == {}
