"""Smoke tests of the benchmark itself: every workload at a tiny size, with
its output checks on, untraced and traced.

Run from the root of the checkout:

    python3 -m pytest perfbench/test_smoke.py -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("simulate_readme", "fleet_n30", "compare_consensus", "learn_fields")


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _run(root, *args):
    return subprocess.run([sys.executable, os.path.join(root, "perfbench", "run.py"), *args],
                          capture_output=True, text=True, timeout=170, cwd=root)


@pytest.mark.parametrize("trace", ("0", "1"))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_reports_every_declared_metric(workload, trace):
    res = _run(ROOT, "--workload", workload, "--seed", "5", "--seconds", "1",
               "--trace", trace, "--smoke")
    assert res.returncode == 0, res.stderr
    result = json.loads(res.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    kind = "end_to_end" if trace == "0" else "per_layer"
    declared = {m["name"]: m["unit"] for m in _spec()[kind]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == declared
    for m in result["metrics"].values():
        assert set(m) == {"value", "unit"} and isinstance(m["value"], (int, float))


def test_declared_workloads_match():
    assert [w["name"] for w in _spec()["workloads"]] == list(WORKLOADS)


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    res = _run(str(tmp_path), "--workload", "fleet_n30", "--seed", "1", "--seconds", "1",
               "--trace", "0")
    assert res.returncode != 0
    assert '"metrics"' not in res.stdout


def test_host_speed_sampler_restores_the_alarm_handler():
    import signal
    import time

    sys.path.insert(0, HERE)
    import hostspeed

    before = signal.getsignal(signal.SIGALRM)
    with hostspeed.Sampler() as sampler:
        t_end = time.perf_counter() + 0.3
        while time.perf_counter() < t_end:
            pass
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(sampler.samples) > 2 * hostspeed.EDGE_SAMPLES
    assert 0.0 < sampler.spent < 0.3
    assert sampler.factor() > 0.0


def test_trimmed_mean_drops_both_tails():
    sys.path.insert(0, HERE)
    import hostspeed

    assert hostspeed.trimmed_mean([100.0] + [1.0] * 18 + [-100.0]) == 1.0
