"""The code-line count that CI prints for ``src/treelift``."""

import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# 11 code lines: the import, the class line, ``x = 1``, both ``def`` lines,
# the three lines of the returned string, the two assignments on one line
# and the two lines of the parenthesised sum.  Docstrings of the module, the
# class and both functions, comments and blank lines do not count.
SOURCE = '''"""Module docstring,
on two lines."""

# a comment

import os  # a trailing comment


class Thing:
    """Class docstring."""

    x = 1

    def method(self):
        """Method docstring
        over two lines."""
        # a comment in a body
        return """not a docstring,
but a string
over three lines"""


def f():
    'single-quoted docstring'
    s = "a"; t = 'b'
    return (s +
            t)
'''


def _code_lines():
    spec = importlib.util.spec_from_file_location(
        "code_lines", os.path.join(ROOT, "tools", "code_lines.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_code_lines_of_crafted_file(tmp_path, capsys):
    tool = _code_lines()
    path = tmp_path / "crafted.py"
    path.write_text(SOURCE)
    assert tool.code_lines(path) == 11
    assert tool.main([str(path)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "    11 total"
    # a directory counts each of its files
    (tmp_path / "again.py").write_text(SOURCE)
    assert tool.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "    22 total"
