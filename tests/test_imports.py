"""Every module of the package imports at its top.

An import inside a function body hides a dependency from a reader of the
module's head, and is the usual way an import cycle between two modules
is papered over.  So none may run inside a function under ``mdelab``.
And every name that an import at a module's top binds is used there, so
that a deletion leaves no import behind (``__init__``, whose imports are
the package's re-exports, aside).
"""

import ast
from pathlib import Path

import mdelab

ROOT = Path(mdelab.__file__).parent


def function_imports(source: str, name: str) -> list[str]:
    """Imports inside a function body of a module's source, as name:line."""
    found = []
    for node in ast.walk(ast.parse(source, filename=name)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            found += [f"{name}:{inner.lineno}" for inner in ast.walk(node)
                      if isinstance(inner, (ast.Import, ast.ImportFrom))]
    return found


def test_no_import_runs_inside_a_function():
    assert [hit for path in sorted(ROOT.glob("*.py"))
            for hit in function_imports(path.read_text(), path.name)] == []


def test_the_check_sees_an_import_in_a_method():
    # guards the test above against a pattern that would leave it vacuous
    sample = "import os\n\nclass A:\n    def f(self):\n        from . import b\n"
    assert function_imports(sample, "m.py") == ["m.py:5"]


def unused_imports(source: str, name: str) -> list[str]:
    """Names bound by a module's top-level imports and never read in it, as name:line:binding."""
    tree = ast.parse(source, filename=name)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound.update({a.asname or a.name.partition(".")[0]: node.lineno for a in node.names})
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update({a.asname or a.name: node.lineno for a in node.names})
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name}:{line}:{key}" for key, line in bound.items() if key not in used]


def test_every_top_level_import_is_used():
    assert [hit for path in sorted(ROOT.glob("*.py")) if path.name != "__init__.py"
            for hit in unused_imports(path.read_text(), path.name)] == []


def test_the_check_sees_an_unused_import():
    # guards the test above against a pattern that would leave it vacuous
    sample = ("from __future__ import annotations\nimport os.path\nimport sys as system\n"
              "from json import dumps, loads\n\ndef f(x: dumps):\n    return os.sep\n")
    assert unused_imports(sample, "m.py") == ["m.py:3:system", "m.py:4:loads"]
