"""The mutation manifest: wrong answers that tier-1 must catch without the byte goldens.

Each entry of ``MUTANTS`` is one edit of one module of src/pricecoord: the
exact text it replaces, which occurs once under src/, the text it puts there,
and what the edit breaks. A suite that passes with the edit in place cannot
tell that wrong answer from the right one. ``tests/test_mutants.py`` checks
in tier-1 that every old text still occurs exactly once, so the manifest
cannot rot unnoticed.

    python tests/mutants.py run [REV]

applies each mutant to its own copy of ``git archive REV src`` (default
``HEAD``) and runs tier-1 from the working tree against that copy, with
``-k "not golden"`` so that the byte-golden cases catch nothing, stopping at
the first failure. It first checks that the unmutated copy passes, then
prints each mutant with the test that caught it, and exits 1 naming every
mutant that no test caught. A run takes a few minutes; CI runs it on one
Python version.
"""

import os
import pathlib
import subprocess
import sys
import tempfile
from typing import NamedTuple, Optional

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "pricecoord"


class Mutant(NamedTuple):
    name: str
    file: str  # a module of src/pricecoord
    old: str
    new: str
    breaks: str


MUTANTS = (
    Mutant("barrier_slope_sign", "scenario.py",
           "-4.0 * beta * sig * (sig", "4.0 * beta * sig * (sig",
           "the barrier's pair weight derivative w' flips sign, so its Hessians are wrong"),
    Mutant("loose_stage_residual", "mechanism.py",
           "f_inf <= 10 * tol", "f_inf <= 1e4 * tol",
           "a stage converges with a reward field 1e3 times too large"),
    Mutant("default_step_099", "equilibrium.py",
           "min(0.9 * 2.0 * c_hat, 1.0)", "min(0.99 * 2.0 * c_hat, 1.0)",
           "the default step sits at 0.99, not 0.9, of the 2 c_hat bound"),
    Mutant("newton_stops_at_1e-7", "numerics.py",
           "stop = gnorm <= 1e-10", "stop = gnorm <= 1e-7",
           "every Newton solve stops at a gradient sup-norm of 1e-7"),
    Mutant("price_at_current_states", "mechanism.py",
           "_utility_gradients(sys._fleet, U, _fleet_step(sys._fleet, U))",
           "_utility_gradients(sys._fleet, U, np.array(sys.states))",
           "price_from_target reads the utility gradients at x(t), not at X(U)"),
    Mutant("two_stage_half_step", "equilibrium.py",
           "_proximal_round(sys, U, X, lam, gamma, start)",
           "_proximal_round(sys, U, X, lam, 0.5 * gamma, start)",
           "two-stage play takes half its step gamma"),
    Mutant("oscillation_exits_1", "cli.py",
           'code = 2 if failure is not None and failure["reason"] == "oscillation" else 1',
           'code = 1 if failure is not None and failure["reason"] == "oscillation" else 1',
           "simulate exits 1, not 2, on an oscillating stage"),
    Mutant("no_maximum_check", "numerics.py",
           "if maximize and solved:", "if False and solved:",
           "newton_root accepts a stationary point that is not a maximum"),
    Mutant("double_process_noise", "cli.py",
           "new_states + cfg.noise_std * np.array(",
           "new_states + 2.0 * cfg.noise_std * np.array(",
           "simulate applies twice the configured process noise"),
    Mutant("multistart_keeps_worst", "oracle.py",
           'np.argsort(-w, kind="stable")', 'np.argsort(w, kind="stable")',
           "the oracle's multistart keeps its worst maximum, not its best"),
    Mutant("alternation_cos_05", "mechanism.py",
           "_ALT_COS = -0.99", "_ALT_COS = -0.5",
           "a decaying alternation with cos between -0.99 and -0.5 is flagged as oscillation"),
    Mutant("identify_rcond_1e-3", "parametric.py",
           "np.linalg.lstsq(Z, Y, rcond=1e-10)", "np.linalg.lstsq(Z, Y, rcond=1e-3)",
           "identify calls a full-rank design with a singular value below 1e-3 rank-deficient"),
)


def occurrences(mutant: Mutant, src: pathlib.Path = SRC) -> dict:
    """{module name: count of mutant.old in it} over the modules of src that hold it."""
    counts = {f.name: f.read_text().count(mutant.old) for f in sorted(src.glob("*.py"))}
    return {name: n for name, n in counts.items() if n}


def first_failure(archive: bytes, mutant: Optional[Mutant] = None) -> Optional[str]:
    """The first test of tier-1 without the byte goldens that fails on the
    archive's src with mutant applied (None: unmutated), or None when every
    test passes."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = pathlib.Path(tmp)
        subprocess.run(["tar", "-x", "-C", str(tmp)], input=archive, check=True)
        if mutant is not None:
            occurs = occurrences(mutant, tmp / "src" / "pricecoord")
            if occurs != {mutant.file: 1}:
                sys.exit(f"mutants: {mutant.name}: old text occurs {occurs}, "
                         f"not once in {mutant.file}")
            module = tmp / "src" / "pricecoord" / mutant.file
            module.write_text(module.read_text().replace(mutant.old, mutant.new))
        env = dict(os.environ, PYTHONPATH=str(tmp / "src"))
        proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p",
                               "no:cacheprovider", "-k", "not golden", "tests"],
                              cwd=ROOT, env=env, capture_output=True, text=True)
    if proc.returncode == 0:
        return None
    failed = [line.split()[1] for line in proc.stdout.splitlines()
              if line.startswith(("FAILED ", "ERROR "))]
    return failed[0] if failed else f"pytest exit code {proc.returncode}"


def run(rev: str) -> None:
    """Apply every mutant to the src/ of rev and exit 1 naming the survivors."""
    proc = subprocess.run(["git", "archive", rev, "src"], cwd=ROOT, capture_output=True)
    if proc.returncode != 0:
        sys.exit(f"mutants: git archive {rev}: {proc.stderr.decode().strip()}")
    unmutated = first_failure(proc.stdout)
    if unmutated is not None:
        sys.exit(f"mutants: tier-1 already fails on {rev} unmutated: {unmutated}")
    survivors = []
    for mutant in MUTANTS:
        failure = first_failure(proc.stdout, mutant)
        print(f"{mutant.name:<26} {'SURVIVED' if failure is None else 'caught by ' + failure}",
              flush=True)
        if failure is None:
            survivors.append(f"{mutant.name} ({mutant.breaks})")
    if survivors:
        sys.exit("mutants: no test catches " + "; ".join(survivors))
    print(f"mutants: all {len(MUTANTS)} caught without the byte goldens")


if __name__ == "__main__":
    if len(sys.argv) not in (2, 3) or sys.argv[1] != "run":
        sys.exit("usage: python tests/mutants.py run [REV]")
    run(sys.argv[2] if len(sys.argv) == 3 else "HEAD")
