"""tools/code_lines.py: physical lines and code lines, those that hold a
token outside comments and docstrings."""
import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_PATH = ROOT / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", _PATH)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

SOURCE = '''"""Module docstring,
over two lines."""
import math  # a trailing comment keeps its line

# A comment line.


class A:
    """Class docstring."""

    x = 1

    def f(self, y):
        """Function docstring,

        over three lines."""
        total = (y
                 + 1)
        "a string statement that is no docstring"
        return """a string
over two lines"""
'''


def test_counts_lines_with_a_token_outside_comments_and_docstrings():
    # Code: import, class, x, def, the two lines of total, the string
    # statement and the two lines of the returned string.
    assert code_lines.count(SOURCE) == (21, 9)


def test_a_tree_is_counted_file_by_file_with_a_total(tmp_path):
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "b.py").write_text("x = 1\n\n# c\n")
    out = subprocess.run([sys.executable, str(_PATH), str(tmp_path)],
                         check=True, capture_output=True, text=True).stdout
    assert out.splitlines()[-1].split() == ["24", "10", "total"]
