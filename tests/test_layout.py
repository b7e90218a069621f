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


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _definitions(path):
    """(name, line, pattern) of every function, class and method but the
    dunders.  A method or property counts as used where ``.name`` occurs,
    any other name where it occurs as a whole word."""
    tree = ast.parse(path.read_text())
    members = {}
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef):
            names = {node.name for node in cls.body if isinstance(node, FUNCTIONS)}
            members.update((node, names) for node in cls.body
                           if isinstance(node, FUNCTIONS))
    for node in ast.walk(tree):
        if not isinstance(node, FUNCTIONS + (ast.ClassDef,)):
            continue
        if node.name.startswith("__") and node.name.endswith("__"):
            continue
        if node not in members:
            yield node.name, node.lineno, rf"\b{re.escape(node.name)}\b"
        elif not (node.name == "from_json" and "to_json" in members[node]):
            # a from_json reader stays next to its to_json writer
            yield node.name, node.lineno, rf"\.{re.escape(node.name)}\b"


def test_every_library_name_is_named_outside_its_definition():
    # code that only the tests call belongs in tests/oracles.py; a name
    # must match its pattern on some line of src/ or bench/ but its own
    # def or class line
    sources = {path: path.read_text().splitlines() for path in CALLERS}
    unused = []
    for path in LIBRARY:
        for name, lineno, pattern in _definitions(path):
            use = re.compile(pattern)
            if not any(use.search(line)
                       for where, lines in sources.items()
                       for k, line in enumerate(lines, 1)
                       if (where, k) != (path, lineno)):
                unused.append(f"{path.name}:{lineno} {name}")
    assert unused == []
