"""Every module of the package imports at its top.

An import inside a function body hides a dependency from a reader of the
module's head, and is the usual way an import cycle between two modules
is papered over.  So none may run inside a function under ``mdelab``.
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
