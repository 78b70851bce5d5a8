"""The package's public names, and the code-line counter that ROADMAP.md quotes."""

import types

import code_lines
import mdelab


def test_star_import_binds_the_public_names():
    namespace = {}
    exec("from mdelab import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(mdelab.__all__)
    assert len(set(mdelab.__all__)) == len(mdelab.__all__)
    modules = [name for name, value in namespace.items() if isinstance(value, types.ModuleType)]
    assert modules == ["artifacts"]
    # a deliberate change to the API updates this count
    assert len(namespace) == 74


SAMPLE = '''"""A module docstring
over two lines."""

# a comment line


class A:
    """A class docstring."""

    x = [1,  # a trailing comment
         2]

    def f(self):
        """A function docstring."""
        s = """a string
that is not a docstring"""
        return s
'''


def test_code_lines_counts_tokens_outside_docstrings():
    # class A, x = [1, 2] over two lines, def f, s = over two lines, return
    assert code_lines.code_lines(SAMPLE) == 7
    assert code_lines.code_lines("") == 0
    assert code_lines.code_lines('"""only a docstring"""\n') == 0


def test_code_lines_prints_the_total_of_a_tree(tmp_path, capsys):
    (tmp_path / "sub").mkdir()
    (tmp_path / "a.py").write_text(SAMPLE)
    (tmp_path / "sub" / "b.py").write_text("x = 1\n")
    (tmp_path / "notes.txt").write_text("y = 2\n")
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out == "8\n"
