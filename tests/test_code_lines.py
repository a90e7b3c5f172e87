import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "code_lines", Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

SOURCE = '''"""Module docstring,
over two lines."""

import os  # a trailing comment


# a comment-only line
class Chain:
    """Class docstring."""

    def size(self, x):
        """Function docstring,
        over two lines."""
        return max(
            x,
            len(os.sep),
        )


NOTE = """a string that is
not a docstring"""
'''

# The lines of SOURCE that hold code: the import, the class and def
# lines, the four lines of the call and the two lines of NOTE.
SOURCE_CODE_LINES = 9


def test_fixed_source_counts_only_code_lines():
    assert code_lines.code_lines(SOURCE) == SOURCE_CODE_LINES


@pytest.mark.parametrize("source, want", [
    ('"""Module docstring."""\n', 0),
    ('\n# a comment-only line\n\n', 0),
    ("x = 1  # a trailing comment\n", 1),
    ("f(\n    1,\n    2,\n)\n", 4),
    ('x = """a\nb"""\n', 2),
    ('class C:\n    """Doc."""\n\n    def f(self):\n        """Doc,\n        two."""\n'
     "        return 1\n", 3),
    ('def f():\n    x = 1\n    "not first, so not a docstring"\n', 3),
], ids=["module-docstring", "comment-and-blank", "trailing-comment", "multi-line-call",
        "multi-line-string", "class-and-function-docstrings", "later-string"])
def test_each_kind_of_line(source, want):
    assert code_lines.code_lines(source) == want


def test_main_prints_each_file_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SOURCE, encoding="utf-8")
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "b.py").write_text("x = 1\n", encoding="utf-8")
    (tmp_path / "notes.txt").write_text("x = 1\n", encoding="utf-8")
    assert code_lines.main([str(tmp_path)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [
        [str(SOURCE_CODE_LINES), str(tmp_path / "a.py")],
        ["1", str(tmp_path / "sub" / "b.py")],
        [str(SOURCE_CODE_LINES + 1), "total"],
    ]
