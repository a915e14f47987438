import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).parents[1] / "tools" / "src_lines.py"


@pytest.fixture(scope="module")
def code_lines():
    spec = importlib.util.spec_from_file_location("src_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.code_lines


# the lines marked "# code" are the code lines, and so is the one after the
# return: the string it closes is not a docstring.  Every other line is a
# docstring, a comment or blank
SOURCE = '''"""Module docstring
over two lines."""

# a comment on its own line
import os  # code


class Thing:  # code
    """Class docstring."""

    def method(self):  # code
        """Method docstring
        over three lines.
        """
        # a comment
        return """a string  # code
that is not a docstring"""


async def task():  # code
    """Async function docstring."""
    await os.sep  # code


def function():  # code
    """Function docstring."""
    x = 1  # code

    return x  # code
'''


def test_code_lines_counts_neither_docstrings_nor_comments_nor_blanks(code_lines):
    assert sum("# code" in line for line in SOURCE.splitlines()) == 9
    assert code_lines(SOURCE) == 10


def test_code_lines_counts_a_module_string_after_the_first_statement(code_lines):
    assert code_lines('"""Docstring."""\n') == 0
    assert code_lines('x = 1\n"""Not a docstring."""\n') == 2
