"""tests/linecover.py counts the lines a line event can fire on, and allows
only cli's __main__ guard to go unexecuted."""

from linecover import ALLOWED, SRC, _code_lines, executable_lines

SNIPPET = '''"""Module docstring."""


def f(x):
    """Docstring."""
    if x:
        return 1
    return 2
'''


def test_the_executable_lines_of_a_known_module():
    assert _code_lines(compile(SNIPPET, "snippet", "exec")) == {1, 4, 6, 7, 8}


def test_the_one_allowed_line_is_the_body_of_the_main_guard():
    text = (SRC / "cli.py").read_text().splitlines()
    allowed = [n for n in executable_lines()["cli.py"] if ("cli.py", text[n - 1].strip()) in ALLOWED]
    assert len(allowed) == 1
    assert text[allowed[0] - 2] == 'if __name__ == "__main__":'
