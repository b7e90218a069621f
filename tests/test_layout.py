"""Checks on the repository around the library: the README's Python and
its ``vres-lab`` lines run, every name and dataclass field the library
defines is used by the library or the benchmark, and every name a library
module imports is used by that module.
"""

import ast
import re
from pathlib import Path

from vreslab.cli import main

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = sorted((ROOT / "src" / "vreslab").glob("*.py"))
CALLERS = LIBRARY + sorted((ROOT / "bench").glob("*.py"))


def test_readme_python_blocks_run():
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    assert blocks
    for code in blocks:
        exec(compile(code, "README.md", "exec"), {})


def test_readme_cli_lines_exit_zero(capsys, monkeypatch):
    monkeypatch.delenv("VRES_PRIME", raising=False)
    blocks = re.findall(r"```sh\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    commands = [line.split("#")[0].split() for code in blocks
                for line in code.splitlines() if line.startswith("vres-lab ")]
    assert commands
    for argv in commands:
        assert main(argv[1:]) == 0, " ".join(argv)
        capsys.readouterr()


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _is_dataclass(cls):
    return any(getattr(d.func if isinstance(d, ast.Call) else d, "id", None)
               == "dataclass" for d in cls.decorator_list)


def _definitions(path):
    """(name, line, pattern) of every function, class, method and
    dataclass field but the dunders.  A method, property or field counts as
    used where ``.name`` occurs, any other name where it occurs as a whole
    word."""
    tree = ast.parse(path.read_text())
    members = set()
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef):
            members.update(node for node in cls.body if isinstance(node, FUNCTIONS))
            if _is_dataclass(cls):
                for node in cls.body:
                    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                        field = node.target.id
                        yield (f"{cls.name}.{field}", node.lineno,
                               rf"\.{re.escape(field)}\b")
    for node in ast.walk(tree):
        if not isinstance(node, FUNCTIONS + (ast.ClassDef,)):
            continue
        if node.name.startswith("__") and node.name.endswith("__"):
            continue
        prefix = r"\." if node in members else r"\b"
        yield node.name, node.lineno, rf"{prefix}{re.escape(node.name)}\b"


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


def test_library_modules_use_every_name_they_import():
    # __init__.py imports to re-export; any other module's imports are for
    # its own use, so a name it never reads is left over from removed code
    stale = []
    for path in LIBRARY:
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name not in used:
                        stale.append(f"{path.name}:{node.lineno} {name}")
    assert stale == []
