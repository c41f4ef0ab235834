"""The golden runs: which command and config write which file under tests/data.

Each entry of ``GOLDENS`` is one command-line run. Its output ``<output>`` is
pinned by ``tests/data/<name>_<output>`` and compared byte for byte, except
that a ``report.json`` is compared without its ``"wall_time_ms"`` line, the one
field that differs between reruns. ``tests/test_cli.py`` runs every entry
in-process against its files.

    python tests/goldens.py write REV

runs every entry on ``git archive REV src``, each in a fresh
``python -m pricecoord.cli`` process, and writes their outputs into
tests/data; ``git diff tests/data`` then shows what moved. The manifest is
read from the working tree, the code from REV: goldens never come from
uncommitted code.
"""

import json
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
from typing import NamedTuple, Optional

ROOT = pathlib.Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data"

SIMULATE = ("trace.csv", "report.json")


class Golden(NamedTuple):
    command: str
    name: str
    config: Optional[dict]  # written to a file and passed as --config
    flags: tuple = ()  # "{data}" stands for the directory the goldens are read from
    exit_code: int = 0
    outputs: tuple = SIMULATE

    def file(self, output: str) -> str:
        return f"{self.name}_{output}"


# the README config, spelled sparsely so that a change of a default shows
README = {"N": 3, "d": 2, "seed": 13, "horizon": 40, "coupling_strength": 50.0,
          "safety_radius": 6.0, "noise_std": 0.01,
          "mode": {"mode": "simultaneous", "max_rounds": 500}}
CROSS_TERM = dict(README, horizon=10, utility_spec="cross_term", mode={})
DECOMPOSABLE_SMOOTH = dict(README, horizon=10, utility_spec="decomposable_smooth", mode={})

GOLDENS = (
    # the documented run: oracle_welfare, oracle_method and gap bit for bit;
    # its trace and dynamics are the identify entry's inputs
    Golden("simulate", "readme", README, outputs=SIMULATE + ("dynamics.json",)),
    # two_stage converges in 291 rounds, each handed X(U) with its start
    Golden("simulate", "readme_two_stage", dict(README, horizon=5), ("--mode", "two_stage")),
    # tikhonov ends stage 0 on max_rounds
    Golden("simulate", "readme_tikhonov", dict(README, horizon=5), ("--mode", "tikhonov"), 1),
    # single_stage ends stage 0 on max_rounds at a residual of 1.239e-04; its
    # recent_residuals are read off each round's own reward field
    Golden("simulate", "readme_single_stage", README, ("--mode", "single_stage"), 1),
    # sequential play: one agent's one-row Newton solve per round
    Golden("simulate", "readme_sequential", dict(README, horizon=10), ("--mode", "sequential")),
    # a closed-form utility Hessian on the per-row SmoothUtility path
    Golden("simulate", "cross_term", CROSS_TERM),
    # a finite-difference utility Hessian on the same path
    Golden("simulate", "decomposable_smooth", DECOMPOSABLE_SMOOTH),
    # N = 30 on the barrier 1 / 0.5 circle, every pair pass on 29 others
    Golden("simulate", "fleet_n30",
           dict(README, N=30, horizon=10, coupling_strength=1.0, safety_radius=0.5),
           outputs=("trace.csv",)),
    # every mode's README gap, which reads the barrier welfare through the
    # oracle's stencils
    Golden("compare", "readme", dict(README, utility_spec="quadratic_random"),
           outputs=("compare.json",)),
    # the stacked proximal rounds on rows whose utility is not quadratic
    Golden("compare", "cross_term", CROSS_TERM, outputs=("compare.json",)),
    Golden("compare", "decomposable_smooth", DECOMPOSABLE_SMOOTH, outputs=("compare.json",)),
    # quadratic consensus welfare: tikhonov and single_stage spend 500 rounds,
    # two_stage 70
    Golden("compare", "consensus",
           {"N": 3, "d": 2, "seed": 13, "coupling_spec": "consensus_quadratic",
            "coupling_strength": 0.5, "utility_spec": "quadratic_random"},
           outputs=("compare.json",)),
    # identification from the README trace and dynamics, so after the entry
    # that writes them
    Golden("identify", "readme", None,
           ("--log", "{data}/readme_trace.csv", "--dynamics", "{data}/readme_dynamics.json"),
           outputs=("models.json",)),
)


def golden_bytes(path: pathlib.Path) -> bytes:
    """What a golden holds of the output at path: a report.json without its
    wall_time_ms line, any other file whole."""
    if path.name != "report.json":
        return path.read_bytes()
    lines = path.read_bytes().splitlines(keepends=True)
    return b"".join(line for line in lines if b'"wall_time_ms"' not in line)


def run(golden: Golden, main, tmp: pathlib.Path, data: pathlib.Path = DATA) -> tuple:
    """Run golden through main(argv) -> exit code, with its inputs read from
    data; returns the exit code and the output directory."""
    stem = tmp / f"{golden.command}_{golden.name}"
    argv = [golden.command]
    if golden.config is not None:
        stem.with_suffix(".json").write_text(json.dumps(golden.config))
        argv += ["--config", str(stem.with_suffix(".json"))]
    argv += [flag.format(data=data) for flag in golden.flags]
    return main(argv + ["--out", str(stem), "--quiet"]), stem


def write(rev: str) -> None:
    """Write every golden from the src/ of the committed revision rev."""
    sha = _git("rev-parse", "--verify", f"{rev}^{{commit}}").decode().strip()
    with tempfile.TemporaryDirectory() as tmp:
        tmp = pathlib.Path(tmp).resolve()
        subprocess.run(["tar", "-x", "-C", str(tmp)], input=_git("archive", sha, "src"),
                       check=True)
        env = dict(os.environ, PYTHONPATH=str(tmp / "src"))
        probe = subprocess.run([sys.executable, "-c", "import pricecoord; print(pricecoord.__file__)"],
                               cwd=tmp, env=env, capture_output=True, text=True, check=True)
        if not pathlib.Path(probe.stdout.strip()).is_relative_to(tmp / "src"):
            sys.exit(f"goldens: pricecoord imports from {probe.stdout.strip()}, "
                     f"not from the archive of {rev}")

        def main(argv):
            return subprocess.run([sys.executable, "-m", "pricecoord.cli", *argv],
                                  cwd=tmp, env=env).returncode

        staged = tmp / "data"
        staged.mkdir()
        for golden in GOLDENS:
            code, out = run(golden, main, tmp, staged)
            if code != golden.exit_code:
                sys.exit(f"goldens: {golden.command} {golden.name} exited {code}, "
                         f"not {golden.exit_code}; nothing written")
            for output in golden.outputs:
                (staged / golden.file(output)).write_bytes(golden_bytes(out / output))
        written = sorted(staged.iterdir())
        for path in written:
            shutil.copyfile(path, DATA / path.name)
    print(f"goldens: wrote {len(written)} files under tests/data from {rev} ({sha[:12]})")


def _git(*args: str) -> bytes:
    proc = subprocess.run(["git", *args], cwd=ROOT, capture_output=True)
    if proc.returncode != 0:
        sys.exit(f"goldens: git {args[0]}: {proc.stderr.decode().strip()}")
    return proc.stdout


if __name__ == "__main__":
    if len(sys.argv) != 3 or sys.argv[1] != "write":
        sys.exit("usage: python tests/goldens.py write REV")
    write(sys.argv[2])
