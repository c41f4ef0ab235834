#!/usr/bin/env python3
"""pricecoord benchmark: one workload per process, closed loop, one caller.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload simulate_readme --seed 13 --seconds 25 --trace 0

Workloads: simulate_readme, fleet_n30, compare_consensus, learn_fields (see
BENCHMARK.json and perfbench/BASELINE.md). The program under test is
imported from ``src/`` of the checkout the script sits in; BLAS threads are
pinned to one before numpy loads.

With ``--trace 0`` the end-to-end metrics are measured with no tracing: the
body is repeated while another repetition of typical length still fits in
``--seconds`` (at least once), and medians are reported. Times are scaled to
a reference host speed sampled while they are measured (see hostspeed.py). With ``--trace 1`` the body runs once untraced, for
the stage latencies, and once with spans and counters at every layer
boundary, for everything else; the spans are written to
``.bench_work/spans/``. ``--smoke`` runs the workload once at a tiny size
with every output check on.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it hold the full
record (environment, sample counts, failure fractions). The exit code is 0
when every output check passed, 1 when one failed, and 2 when the program
under test is missing.
"""

from __future__ import annotations

import os
import sys
import time

BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_PIN)  # must precede the first numpy import

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import warnings  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
SETUP_PROBES = 5
SETUP_REF_SAMPLES = 50  # reference units run before and after each set-up probe

END_TO_END = (("setup_s", "s"), ("run_s", "s"), ("peak_rss_mb", "MB"))
PER_LAYER = (
    ("mechanism.stage_ms.p50", "ms"),
    ("mechanism.stage_ms.p75", "ms"),
    ("scenario.generate_ms", "ms"),
    ("cli.io_ms", "ms"),
    ("cli.trace_bytes", "bytes"),
    ("mechanism.run_stage.calls", "count"),
    ("mechanism.run_stage.self_ms", "ms"),
    ("mechanism.run_stage.nonconverged", "count"),
    ("mechanism.rounds", "count"),
    ("mechanism.social_welfare.calls", "count"),
    ("mechanism.social_welfare_ms", "ms"),
    ("mechanism.price_from_target_ms", "ms"),
    ("equilibrium.round.calls", "count"),
    ("equilibrium.round_ms.p50", "ms"),
    ("equilibrium.round.self_ms", "ms"),
    ("equilibrium.reward_field.calls", "count"),
    ("equilibrium.reward_field_ms", "ms"),
    ("equilibrium.default_schedule_ms", "ms"),
    ("agents.best_response.calls", "count"),
    ("agents.best_response_ms.p50", "ms"),
    ("agents.best_response.self_ms", "ms"),
    ("agents.grad_evals", "count"),
    ("agents.grad_evals_per_br", "ratio"),
    ("agents.br_failures", "count"),
    ("model.coupling_grad.calls", "count"),
    ("model.coupling_grad_ms", "ms"),
    ("model.coupling_value.calls", "count"),
    ("model.step.calls", "count"),
    ("model.as_vector.calls", "count"),
    ("oracle.joint_welfare_opt_ms", "ms"),
    ("oracle.welfare_evals", "count"),
    ("oracle.fallbacks", "count"),
    ("parametric.save_log_ms", "ms"),
    ("parametric.load_log_ms", "ms"),
    ("parametric.identify_ms", "ms"),
    ("parametric.optimal_price_ms", "ms"),
    ("geometry.fit_decomposable_ms", "ms"),
    ("geometry.fit_decomposable.design_mb", "MB-computed"),
    ("geometry.fit_connection_ms", "ms"),
    ("geometry.predict_field_ms", "ms"),
    ("trace.run_s", "s"),
    ("trace.untraced_run_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.spans", "count"),
)


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description="pricecoord benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=13)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny sizes, one repetition, all output checks on")
    ap.add_argument("--setup-probe", type=float, metavar="SPAWNED_AT",
                    help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def import_program():
    """Imports pricecoord from the checkout's src/ or exits 2."""
    if not os.path.isfile(os.path.join(SRC, "pricecoord", "__init__.py")):
        print(f"benchmark: no program under test at {os.path.relpath(SRC)}/pricecoord",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    import pricecoord
    if os.path.dirname(os.path.dirname(os.path.abspath(pricecoord.__file__))) != SRC:
        print(f"benchmark: pricecoord imported from {pricecoord.__file__}, not {SRC}",
              file=sys.stderr)
        sys.exit(2)
    return pricecoord


def src_digest() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "pricecoord")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def environment(args, wl) -> dict:
    import numpy as np
    return {"git_sha": git_sha(), "src_sha256": src_digest(),
            "python": platform.python_version(), "numpy": np.__version__,
            "nproc": os.cpu_count(), "blas_pin": BLAS_PIN, "seed": args.seed,
            "seconds": args.seconds, "smoke": args.smoke, "workload": wl.name,
            "params": wl.params()}


def make_workload(args):
    from workloads import WORKLOADS, DigestStore
    if args.workload not in WORKLOADS:
        print(f"benchmark: unknown workload {args.workload!r}; "
              f"expected one of {sorted(WORKLOADS)}", file=sys.stderr)
        sys.exit(2)
    work = os.path.join(WORK, f"{args.workload}-{args.seed}" + ("-smoke" if args.smoke else ""))
    return WORKLOADS[args.workload](args.seed, work, DigestStore(os.path.join(WORK, "digests"),
                                                                 src_digest()), args.smoke)


def setup_times(args, probes: int) -> tuple:
    """Seconds from process spawn to the end of set-up (import, config
    writing, generate, warm-up), one fresh process per sample, and the
    host-speed factor sampled around each."""
    from hostspeed import factor, samples_now
    out, factors = [], []
    for _ in range(probes):
        around = samples_now(SETUP_REF_SAMPLES)
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
               "--seed", str(args.seed), "--setup-probe", repr(time.time())]
        if args.smoke:
            cmd.append("--smoke")
        res = subprocess.run(cmd, capture_output=True, text=True, timeout=170, cwd=ROOT)
        if res.returncode != 0:
            sys.stderr.write(res.stderr)
            raise RuntimeError(f"set-up probe exited {res.returncode}")
        out.append(float(res.stdout.strip().splitlines()[-1]))
        factors.append(factor(around + samples_now(SETUP_REF_SAMPLES)))
    return out, factors


def timed_body(wl, sampler=None):
    """Runs one repetition, inside ``sampler`` if one is given; returns
    (wall seconds, ops, fallback warnings, error). The sampler's own time
    is not counted."""
    from workloads import CheckFailed
    ops, error = [], None
    with sampler or contextlib.nullcontext():
        t0 = time.perf_counter()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                wl.body(ops)
            except CheckFailed as exc:
                error = str(exc)
        seconds = time.perf_counter() - t0 - (sampler.spent if sampler else 0.0)
    fallbacks = sum(str(w.message).startswith("closed_form:") for w in caught)
    return seconds, ops, fallbacks, error


def percentile(values, q: float) -> float:
    import numpy as np
    return float(np.percentile(np.asarray(values, dtype=float), q))


def layer_metrics(tracer, wl, stage_ms, traced_s, untraced_s, fallbacks) -> dict:
    summ = tracer.summary()

    def calls(name):
        return summ.get(name, (0, 0.0, []))[0]

    def self_ms(name):
        return summ.get(name, (0, 0.0, []))[1]

    def p50(name):
        durs = summ.get(name, (0, 0.0, []))[2]
        return percentile(durs, 50) if durs else 0.0

    c = tracer.counts.get
    br_calls = calls("agents.best_response")
    return {
        "mechanism.stage_ms.p50": percentile(stage_ms, 50) if stage_ms else 0.0,
        "mechanism.stage_ms.p75": percentile(stage_ms, 75) if stage_ms else 0.0,
        "scenario.generate_ms": self_ms("scenario.generate"),
        "cli.io_ms": self_ms("cli.io"),
        "cli.trace_bytes": wl.trace_bytes,
        "mechanism.run_stage.calls": calls("mechanism.run_stage"),
        "mechanism.run_stage.self_ms": self_ms("mechanism.run_stage"),
        "mechanism.run_stage.nonconverged": c("mechanism.run_stage.nonconverged", 0),
        "mechanism.rounds": c("mechanism.rounds", 0),
        "mechanism.social_welfare.calls": calls("mechanism.social_welfare"),
        "mechanism.social_welfare_ms": self_ms("mechanism.social_welfare"),
        "mechanism.price_from_target_ms": self_ms("mechanism.price_from_target"),
        "equilibrium.round.calls": calls("equilibrium.round"),
        "equilibrium.round_ms.p50": p50("equilibrium.round"),
        "equilibrium.round.self_ms": self_ms("equilibrium.round"),
        "equilibrium.reward_field.calls": calls("equilibrium.reward_field"),
        "equilibrium.reward_field_ms": self_ms("equilibrium.reward_field"),
        "equilibrium.default_schedule_ms": self_ms("equilibrium.default_schedule"),
        "agents.best_response.calls": br_calls,
        "agents.best_response_ms.p50": p50("agents.best_response"),
        "agents.best_response.self_ms": self_ms("agents.best_response"),
        "agents.grad_evals": c("agents.grad_evals", 0),
        "agents.grad_evals_per_br": c("agents.grad_evals", 0) / br_calls if br_calls else 0.0,
        "agents.br_failures": c("agents.br_failures", 0),
        "model.coupling_grad.calls": calls("model.coupling_grad"),
        "model.coupling_grad_ms": self_ms("model.coupling_grad"),
        "model.coupling_value.calls": c("model.coupling_value.calls", 0),
        "model.step.calls": c("model.step.calls", 0),
        "model.as_vector.calls": c("model.as_vector.calls", 0),
        "oracle.joint_welfare_opt_ms": self_ms("oracle.joint_welfare_opt"),
        "oracle.welfare_evals": c("oracle.welfare_evals", 0),
        "oracle.fallbacks": fallbacks,
        "parametric.save_log_ms": self_ms("parametric.save_log"),
        "parametric.load_log_ms": self_ms("parametric.load_log"),
        "parametric.identify_ms": self_ms("parametric.identify"),
        "parametric.optimal_price_ms": self_ms("parametric.optimal_price"),
        "geometry.fit_decomposable_ms": self_ms("geometry.fit_decomposable"),
        "geometry.fit_decomposable.design_mb": tracer.design_bytes / 1e6,
        "geometry.fit_connection_ms": self_ms("geometry.fit_connection"),
        "geometry.predict_field_ms": self_ms("geometry.predict_field"),
        "trace.run_s": traced_s,
        "trace.untraced_run_s": untraced_s,
        "trace.overhead_s": traced_s - untraced_s,
        "trace.spans": len(tracer.spans),
    }


def run(args) -> int:
    import_program()
    wl = make_workload(args)
    if args.setup_probe is not None:
        wl.setup()
        print(time.time() - args.setup_probe)
        return 0

    from hostspeed import Sampler
    from tracer import Tracer
    from workloads import FAILED, NONCONVERGED

    if not args.trace:
        setup_raw, setup_factors = setup_times(args, 1 if args.smoke else SETUP_PROBES)
    wl.setup()
    reps, rep_seconds, rep_factors, errors, fallbacks = [], [], [], [], 0
    record = {"environment": environment(args, wl)}

    def rep(sampler=None):
        nonlocal fallbacks
        seconds, rep_ops, fb, error = timed_body(wl, sampler)
        reps.append(rep_ops)
        fallbacks += fb
        if error is not None:
            errors.append(error)
        return seconds

    if args.trace:
        untraced_s = rep()
        tracer = Tracer()
        fallbacks = 0
        with tracer.installed():
            traced_s = rep()
        os.makedirs(os.path.join(WORK, "spans"), exist_ok=True)
        spans_path = os.path.join(WORK, "spans", f"{wl.name}-{args.seed}.csv")
        tracer.write(spans_path)
        # stage latencies come from the untraced repetition
        stage_ms = [op.seconds * 1e3 for op in reps[0]] if wl.ops_are_stages else []
        metrics = layer_metrics(tracer, wl, stage_ms, traced_s, untraced_s, fallbacks)
        units = dict(PER_LAYER)
        record["spans_file"] = os.path.relpath(spans_path, ROOT)
    else:
        # Repeat while a typical repetition still ends inside the window, so
        # a workload whose repetition is longer than half of it runs once.
        deadline = time.perf_counter() + args.seconds
        while True:
            sampler = Sampler()
            rep_seconds.append(rep(sampler))
            rep_factors.append(sampler.factor())
            if errors or args.smoke:
                break
            if time.perf_counter() + statistics.median(rep_seconds) > deadline:
                break
        lat_ms = [op.seconds * 1e3 for r in reps for op in r]
        setup_scaled = [s * f for s, f in zip(setup_raw, setup_factors)]
        rep_scaled = [s * f for s, f in zip(rep_seconds, rep_factors)]
        metrics = {
            "setup_s": statistics.median(setup_scaled),
            "run_s": statistics.median(rep_scaled if wl.host_scaled else rep_seconds),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = dict(END_TO_END)
        record.update({"setup_wall_s": setup_raw, "setup_host_factor": setup_factors,
                       "setup_scaled_s": setup_scaled, "rep_wall_s": rep_seconds,
                       "rep_host_factor": rep_factors, "rep_scaled_s": rep_scaled,
                       "run_s_host_scaled": wl.host_scaled,
                       "op_seconds_per_rep": [sum(op.seconds for op in r) for r in reps],
                       "op_ms": {"p50": percentile(lat_ms, 50), "p75": percentile(lat_ms, 75),
                                 "samples": len(lat_ms)},
                       "oracle_fallbacks": fallbacks})

    ops = [op for r in reps for op in r]
    failed = sum(op.outcome == FAILED for op in ops)
    unconverged = sum(op.outcome == NONCONVERGED for op in ops)
    record.update({
        "operations": {"attempted": len(ops), "failed": failed, "nonconverged": unconverged,
                       "fail_frac": (failed + unconverged) / len(ops) if ops else None,
                       "base": wl.op_base},
        "check_errors": errors,
    })
    correct = not errors and bool(ops)
    result = {"correct": correct, "attempted": max(len(ops), 1), "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    with open(os.path.join(WORK, "results", f"{wl.name}-{args.seed}-trace{args.trace}.json"),
              "w") as fh:
        json.dump({"record": record, "result": result}, fh, indent=2)
    print(json.dumps({"record": record}, indent=2))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(run(parse_args()))
