"""The code-line count of tools/code_lines.py."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

SOURCE = '''"""Module docstring,
two lines."""

import math  # a trailing comment keeps its line

# a comment alone


class Thing:
    """Class docstring."""

    def method(self):
        """Method docstring
        over two lines."""
        text = """a string that is
        not a docstring"""
        return text


async def waits():
    x = 1
    """an expression that is not the first statement"""
    return x
'''


def test_blanks_comments_and_docstrings_are_left_out():
    # import, class, def, two string lines, return, async def, x = 1,
    # the later string expression, return
    assert code_lines.code_lines(SOURCE) == 10


def test_the_working_tree_counts_every_module():
    counts = code_lines.in_tree()
    assert "dynamics.py" in counts and "__init__.py" in counts
    assert all(count > 0 for count in counts.values())
