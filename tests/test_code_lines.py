"""``tools/code_lines.py``, the code-line count of the package: non-blank,
non-comment lines, with docstrings excluded."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).parent.parent / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

SOURCE = '''"""Module docstring,
over two lines."""

import os  # a comment after code


# a whole-line comment
class A:
    """Class docstring."""

    def f(self):
        """Function
        docstring."""
        text = """not a docstring,
        two lines"""
        return (text,
                os.sep)


async def g():
    'one-line docstring'
    "a later string statement is no docstring"
    return 1
'''


def test_counts_code_lines_only():
    # import, class, def, the two lines of ``text``, the two of the
    # return, async def, the second string and its return
    assert code_lines.code_lines(SOURCE) == 10
    assert code_lines.code_lines("") == 0
    assert code_lines.code_lines('"""A docstring."""\n# and a note\n') == 0


def test_prints_each_file_then_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "b.py").write_text("x = 1\n\ny = 2\n")
    (tmp_path / "notes.txt").write_text("not python\n")
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out == "10 a\n2 b\n12 total\n"
