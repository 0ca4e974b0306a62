"""Every module-level `def` and `class` in `src/superkw/` has a reference
outside its own definition, in `src/superkw/` or in the benchmark scripts
(`perfbench/*.py`).  A name that only tests reach belongs in the tests.
Every name a test file imports is used in that file."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "superkw").glob("*.py"))
SCRIPTS = sorted((ROOT / "perfbench").glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))


def unreferenced(sources, scripts):
    """(file name, definition name) of every module-level def or class of
    `sources` whose name occurs nowhere in `sources` or `scripts` outside
    the lines of its own definition."""
    texts = {path: path.read_text(encoding="utf-8") for path in [*sources, *scripts]}
    out = []
    for path in sources:
        lines = texts[path].splitlines()
        for node in ast.parse(texts[path]).body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            start = min([node.lineno, *(d.lineno for d in node.decorator_list)])
            rest = "\n".join(lines[: start - 1] + lines[node.end_lineno:])
            word = re.compile(rf"\b{re.escape(node.name)}\b")
            if not any(word.search(rest if other == path else text)
                       for other, text in texts.items()):
                out.append((path.name, node.name))
    return out


def test_every_definition_in_src_has_a_reference():
    assert unreferenced(SOURCES, SCRIPTS) == []


def test_an_unreferenced_definition_is_reported(tmp_path):
    lib = tmp_path / "lib.py"
    lib.write_text("def used():\n    return 1\n\n\n@staticmethod\ndef unused():\n"
                   "    # unused calls itself\n    return unused()\n\n\nclass Kept:\n"
                   "    pass\n\n\nVALUE = used()\n")
    script = tmp_path / "script.py"
    script.write_text("from lib import Kept\n")
    assert unreferenced([lib], [script]) == [("lib.py", "unused")]


def unused_imports(paths):
    """(file name, name) of every name an import statement of `paths` binds
    that occurs nowhere in the same file outside that statement."""
    out = []
    for path in paths:
        text = path.read_text(encoding="utf-8")
        lines = text.splitlines()
        for node in ast.walk(ast.parse(text)):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            rest = "\n".join(lines[: node.lineno - 1] + lines[node.end_lineno:])
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if not re.search(rf"\b{re.escape(name)}\b", rest):
                    out.append((path.name, name))
    return out


def test_every_name_a_test_imports_is_used():
    assert unused_imports(TESTS) == []


def test_an_unused_import_is_reported(tmp_path):
    mod = tmp_path / "test_mod.py"
    mod.write_text("from __future__ import annotations\n\nimport os.path\nimport numpy as np\n"
                   "from lib import (\n    kept,\n    dropped,\n)\n\n\n"
                   "def test_it():\n    assert kept(os.sep) == np.pi\n")
    assert unused_imports([mod]) == [("test_mod.py", "dropped")]
