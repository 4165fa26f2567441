import subprocess
import sys
from pathlib import Path

COUNTER = Path(__file__).resolve().parent.parent / "tools" / "count_code_lines.py"

SAMPLE = '''"""A module docstring
over two lines."""

import os  # a comment after code counts its line


class A:
    """A class docstring."""

    # a comment line
    def f(self):
        """A function
        docstring."""
        text = """a string that is
        no docstring"""
        return text


def g():
    return (1,
            2)
'''


def test_code_line_counter_drops_docstrings_comments_and_blank_lines(tmp_path):
    """The counter keeps the lines of code, also every line of a multi-line
    string that is no docstring and of a statement split over lines, and
    drops docstrings, comment lines and blank lines: 9 code lines here, per
    file and in the total, for a file and for its directory."""
    (tmp_path / "sample.py").write_text(SAMPLE)
    for arg in (tmp_path / "sample.py", tmp_path):
        out = subprocess.run([sys.executable, str(COUNTER), str(arg)],
                             capture_output=True, text=True, check=True).stdout
        assert out.split() == ["9", str(tmp_path / "sample.py"), "9", "total"]
