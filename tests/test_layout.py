"""Checks on the repository around the library: the README's Python runs,
and every name the library defines is used by the library or the benchmark.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = sorted((ROOT / "src" / "vreslab").glob("*.py"))
CALLERS = LIBRARY + sorted((ROOT / "bench").glob("*.py"))


def test_readme_python_blocks_run():
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    assert blocks
    for code in blocks:
        exec(compile(code, "README.md", "exec"), {})


def _definitions(path):
    """(name, line) of every function, class and method but the dunders."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if not (node.name.startswith("__") and node.name.endswith("__")):
                yield node.name, node.lineno


def test_every_library_name_is_named_outside_its_definition():
    # code that only the tests call belongs in tests/oracles.py; a name
    # matches as a whole word on any line but its own def or class line
    sources = {path: path.read_text().splitlines() for path in CALLERS}
    unused = []
    for path in LIBRARY:
        for name, lineno in _definitions(path):
            word = re.compile(rf"\b{re.escape(name)}\b")
            if not any(word.search(line)
                       for where, lines in sources.items()
                       for k, line in enumerate(lines, 1)
                       if (where, k) != (path, lineno)):
                unused.append(f"{path.name}:{lineno} {name}")
    assert unused == []
