"""List every line of src/pricecoord that tier-1 never executes.

    python tests/linecover.py [PYTEST_ARGS ...]

runs tier-1 (or the given pytest arguments) in this process under
sys.settrace, restricted to the modules of src/pricecoord, and prints each
executable line that no test reached as file:line and its text. A line is
executable when the compiler gives it an instruction, the lines a line
event can fire on. The one line allowed to go unexecuted is the body of
cli's `if __name__ == "__main__":` guard, which tier-1 runs only in a
subprocess. Exits 1 when any other line goes unexecuted, or pytest fails.
Needs no package beyond pytest. On a shared 2-core Xeon, tier-1 took 25-31 s
under the tracer against 17 s without it.
"""

import dis
import os
import pathlib
import sys
import threading

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "pricecoord"
ALLOWED = {("cli.py", 'sys.exit(main())')}


def _code_lines(code) -> set:
    """Every line holding an instruction of code or of a code object nested in it."""
    lines = {line for _, line in dis.findlinestarts(code) if line}  # 0: compiler-made
    for const in code.co_consts:
        if hasattr(const, "co_code"):
            lines |= _code_lines(const)
    return lines


def executable_lines() -> dict:
    """file name -> the set of its executable line numbers, per module of SRC."""
    return {f.name: _code_lines(compile(f.read_text(), str(f), "exec"))
            for f in sorted(SRC.glob("*.py"))}


def trace(pytest_args: list) -> tuple:
    """(pytest's exit code, file name -> executed line numbers) of one run."""
    executed = {}
    prefix = str(SRC) + "/"

    def local(frame, event, arg):
        if event == "line":
            executed.setdefault(frame.f_code.co_filename, set()).add(frame.f_lineno)
        return local

    def global_(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    sys.path.insert(0, str(ROOT / "src"))  # as tier-1's PYTHONPATH=src, for subprocesses too
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                             os.environ.get("PYTHONPATH")]))
    import pytest  # imported before tracing: its import is not under test

    threading.settrace(global_)
    sys.settrace(global_)
    try:
        code = pytest.main(pytest_args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return code, {pathlib.Path(f).name: lines for f, lines in executed.items()}


def main(argv: list) -> int:
    code, executed = trace(argv or ["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])
    missed = 0
    for name, lines in executable_lines().items():
        text = (SRC / name).read_text().splitlines()
        for line in sorted(lines - executed.get(name, set())):
            allowed = (name, text[line - 1].strip()) in ALLOWED
            missed += not allowed
            print(f"{name}:{line}: {text[line - 1].strip()}" + ("  (allowed)" if allowed else ""))
    print(f"{missed} unexecuted line(s) outside the allowed list; pytest exit code {int(code)}")
    return 1 if missed or code else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
