"""tests/linecount.py puts every line of a module in exactly one class."""

import pytest

from linecount import ROOT, count

SNIPPET = '''"""Module docstring,
two lines."""

# a comment
x = """a string
that is code"""  # trailing comment


def f():
    """One line."""
    return x
'''


def test_each_class_on_a_known_module():
    assert count(SNIPPET) == {"code": 4, "docstring": 3, "comment": 1, "blank": 3}


@pytest.mark.parametrize("path", sorted((ROOT / "src" / "pricecoord").glob("*.py")),
                         ids=lambda p: p.name)
def test_the_four_counts_sum_to_the_line_count(path):
    source = path.read_text()
    assert sum(count(source).values()) == len(source.splitlines())
