"""Every module-level `def` and `class` in `src/superkw/`, and every method
and property of its classes other than a dunder, has a code reference
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


def references(tree, strings):
    """The names that code in a syntax tree refers to: names, attributes,
    imported names, and, when `strings` is set, string constants that are
    identifiers (`perfbench/tracer.py` names the functions it wraps by
    string; in `src/` such a string is data, as a report's keys are).  Words
    in comments and in prose strings do not count."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.update(node.name.split("."))
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                out.add(node.value)
    return out


DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def unreferenced(sources, scripts):
    """(file name, definition name) of every module-level def or class of
    `sources`, and every method or property of such a class that is not a
    dunder (named `Class.method`), that no code in `sources` or `scripts`
    outside its own definition refers to (`references`, with the string
    names of `scripts` only)."""
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in [*sources, *scripts]}
    # the references of each top-level statement, so that a definition's
    # own body is left out
    refs = {path: [references(node, path in scripts) for node in tree.body]
            for path, tree in trees.items()}
    out = []
    for path in sources:
        elsewhere = set().union(*(r for other, rs in refs.items() if other != path for r in rs))
        for i, node in enumerate(trees[path].body):
            if not isinstance(node, DEFS):
                continue
            outside = elsewhere.union(*(r for j, r in enumerate(refs[path]) if j != i))
            if node.name not in outside:
                out.append((path.name, node.name))
            if not isinstance(node, ast.ClassDef):
                continue
            # likewise for each statement of the class body
            body = [references(stmt, False) for stmt in node.body]
            for k, stmt in enumerate(node.body):
                if not isinstance(stmt, DEFS) or stmt.name.startswith("__"):
                    continue
                if stmt.name not in outside.union(*(r for j, r in enumerate(body) if j != k)):
                    out.append((path.name, f"{node.name}.{stmt.name}"))
    return out


def test_every_definition_in_src_has_a_reference():
    assert unreferenced(SOURCES, SCRIPTS) == []


def test_an_unreferenced_definition_is_reported(tmp_path):
    lib = tmp_path / "lib.py"
    lib.write_text("def used():\n    return 1\n\n\n@staticmethod\ndef unused():\n"
                   "    # unused calls itself\n    return unused()\n\n\nclass Kept:\n"
                   "    pass\n\n\ndef prose():\n    pass\n\n\n"
                   "def named():\n    pass\n\n\nVALUE = used()\n")
    script = tmp_path / "script.py"
    # prose is named only in a comment and a docstring, named in a string
    # that is an identifier, as a tracer names what it wraps
    script.write_text("\"\"\"Calls the prose of lib.\"\"\"\n"
                      "from lib import Kept  # not prose\n\nWRAPPED = [(\"lib\", \"named\")]\n")
    assert unreferenced([lib], [script]) == [("lib.py", "unused"), ("lib.py", "prose")]


def test_an_unreferenced_method_is_reported(tmp_path):
    lib = tmp_path / "lib.py"
    lib.write_text("class Box:\n    def __init__(self):\n        self.n = self.size\n\n"
                   "    @property\n    def size(self):\n        return 1\n\n"
                   "    def used(self):\n        return self.n\n\n"
                   "    def unused(self):\n        return self.unused()\n\n"
                   "    def __repr__(self):\n        return 'Box'\n\n"
                   "    class Inner:\n        pass\n\n\nKEYS = {'unused': 1}\n")
    script = tmp_path / "script.py"
    # a name in prose or in a string of the library (a dict key) does not
    # count, an attribute does
    script.write_text("\"\"\"The unused method and the Inner class.\"\"\"\n"
                      "from lib import Box\n\nprint(Box().used())\n")
    assert unreferenced([lib], [script]) == [("lib.py", "Box.unused"), ("lib.py", "Box.Inner")]


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
