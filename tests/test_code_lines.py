"""The rules of the code-line counter that the line counts of ``src/`` come from."""

from __future__ import annotations

import subprocess
import sys
import textwrap
from pathlib import Path

from code_lines import count_code_lines

ROOT = Path(__file__).resolve().parent.parent


def count(source: str) -> int:
    return count_code_lines(textwrap.dedent(source))


def test_docstrings_comments_and_blanks_are_not_counted():
    source = '''
        """Module docstring,
        over two lines."""

        # a comment
        import math  # a trailing comment counts as its line's code


        class Shape:
            """Class docstring."""

            def area(self):
                """Function
                docstring."""
                # another comment
                return math.pi
    '''
    assert count(source) == 4


def test_other_strings_and_continuation_lines_are_counted():
    source = '''
        def f():
            """Docstring."""
            text = """first
        second
        third"""
            total = 1 + \\
                2
            return (text,
                    total)
    '''
    # def, the three string lines, both halves of the backslash sum, and both return lines
    assert count(source) == 8


def test_a_string_that_is_not_first_in_its_body_is_counted():
    source = '''
        x = 1
        """Not a docstring: the module body opens with x."""
    '''
    assert count(source) == 2


def test_the_command_prints_each_file_and_the_total(tmp_path):
    (tmp_path / "a.py").write_text("x = 1\n\n# comment\n")
    (tmp_path / "b.py").write_text('"""Doc."""\ny = 2\nz = 3\n')
    out = subprocess.run(
        [sys.executable, str(ROOT / "tests" / "code_lines.py"), str(tmp_path)],
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    assert out.splitlines() == [
        f"     1  {tmp_path / 'a.py'}",
        f"     2  {tmp_path / 'b.py'}",
        "     3  total",
    ]
