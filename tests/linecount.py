"""Count code, docstring, comment and blank lines per module of src/pricecoord.

    python tests/linecount.py [FILE_OR_DIR ...]

prints one row per file (default: every module of src/pricecoord) and a
total. Each line falls in exactly one class, so the four counts of a file
sum to its line count:

- docstring: a line of a module, class or function docstring (the string
  that is the first statement of its body);
- code: any other line holding a token, the lines a multi-line string
  spans and the lines of a statement with a trailing comment included;
- comment: a line whose only token is a comment;
- blank: a line with no token.
"""

import ast
import io
import pathlib
import sys
import tokenize

ROOT = pathlib.Path(__file__).resolve().parent.parent
CLASSES = ("code", "docstring", "comment", "blank")
_LAYOUT = {tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.AST) -> set:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> dict:
    """The four line counts of one module's source."""
    kind = {}  # line number -> "code" or "comment", from the tokens on it
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _LAYOUT:
            continue
        if tok.type == tokenize.COMMENT:
            kind.setdefault(tok.start[0], "comment")
        else:
            for line in range(tok.start[0], tok.end[0] + 1):
                kind[line] = "code"
    docstrings = _docstring_lines(ast.parse(source))
    out = dict.fromkeys(CLASSES, 0)
    for line in range(1, len(source.splitlines()) + 1):
        out["docstring" if line in docstrings else kind.get(line, "blank")] += 1
    return out


def main(argv: list) -> None:
    paths = [pathlib.Path(a) for a in argv] or [ROOT / "src" / "pricecoord"]
    files = sorted(f for p in paths for f in (p.glob("*.py") if p.is_dir() else [p]))
    total = dict.fromkeys(CLASSES, 0)
    print(f"{'file':<16}" + "".join(f"{c:>11}" for c in CLASSES))
    for f in files:
        counts = count(f.read_text())
        for c in CLASSES:
            total[c] += counts[c]
        print(f"{f.name:<16}" + "".join(f"{counts[c]:>11,}" for c in CLASSES))
    print(f"{'total':<16}" + "".join(f"{total[c]:>11,}" for c in CLASSES))


if __name__ == "__main__":
    main(sys.argv[1:])
