"""The four benchmark workloads.

Each workload is a closed loop with one caller: the next call into
pricecoord starts only after the previous one returns. A workload builds its
inputs (config files and sample arrays) from the seed in ``setup``, and
``body`` runs one repetition, checks every output and appends one ``Op`` per
operation (a stage, a play mode, or a fit). A wrong output raises
``CheckFailed``; an operation that fails is recorded as such and is not a
crash.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import time
from dataclasses import dataclass

import numpy as np

import pricecoord as pc
from pricecoord import cli
from pricecoord.errors import CoordinationError, NonConvergenceError

OK, NONCONVERGED, FAILED = "ok", "nonconverged", "failed"


class CheckFailed(Exception):
    """An output of the program is wrong."""


@dataclass(frozen=True)
class Op:
    seconds: float
    outcome: str


def check(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


class DigestStore:
    """Remembers the first output digest seen per key and checks later runs
    against it. Keys carry a digest of the sources under test, so outputs
    are compared across runs of one commit only."""

    def __init__(self, directory: str, src_digest: str):
        self.directory = directory
        self.src_digest = src_digest
        os.makedirs(directory, exist_ok=True)

    def check(self, key: str, digest: str, what: str) -> None:
        path = os.path.join(self.directory, f"{key}-{self.src_digest[:16]}.sha256")
        if os.path.exists(path):
            with open(path) as fh:
                first = fh.read().strip()
            check(first == digest, f"{what} differs from an earlier run of the same "
                                   f"sources ({digest[:12]} != {first[:12]})")
        else:
            with open(path, "w") as fh:
                fh.write(digest + "\n")


def _sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _write_config(data: dict, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)


@contextlib.contextmanager
def _rebound(owner, attr, new):
    old = getattr(owner, attr)
    setattr(owner, attr, new)
    try:
        yield
    finally:
        setattr(owner, attr, old)


class StageClock:
    """Times the stages a CLI command runs, at its binding of ``run_stage``.

    A stage starts at ``run_stage`` entry. With ``end_attr`` set, it ends
    when the command's next call of that binding returns, i.e. once the
    stage's action has been applied (``cmd_simulate`` calls
    ``replace_states`` last in each stage); otherwise it ends when
    ``run_stage`` returns.
    """

    def __init__(self, ops: list, end_attr: str | None = None):
        self.end_attr = end_attr
        self.ops = ops
        self._start = None

    def _run_stage(self, inner):
        def run_stage(*args, **kwargs):
            self._start = time.perf_counter()
            try:
                out = inner(*args, **kwargs)
            except NonConvergenceError as exc:
                outcome = NONCONVERGED if exc.reason == "max_rounds" else FAILED
                self.ops.append(Op(time.perf_counter() - self._start, outcome))
                raise
            except CoordinationError:
                self.ops.append(Op(time.perf_counter() - self._start, FAILED))
                raise
            if self.end_attr is None:
                self.ops.append(Op(time.perf_counter() - self._start, OK))
            return out
        return run_stage

    def _end(self, inner):
        def end(*args, **kwargs):
            out = inner(*args, **kwargs)
            self.ops.append(Op(time.perf_counter() - self._start, OK))
            return out
        return end

    @contextlib.contextmanager
    def installed(self):
        with contextlib.ExitStack() as stack:
            stack.enter_context(_rebound(cli, "run_stage", self._run_stage(cli.run_stage)))
            if self.end_attr is not None:
                stack.enter_context(_rebound(cli, self.end_attr,
                                             self._end(getattr(cli, self.end_attr))))
            yield self


class Workload:
    name = ""
    op_base = ""     # what one operation is, the base of fail_frac
    ops_are_stages = True
    # run_s is scaled to the reference host speed (see hostspeed.py) when the
    # workload's time is in interpreter-bound code, which the host's swings
    # move as much as they move the reference unit
    host_scaled = True
    trace_bytes = 0  # size of the trace.csv a CLI workload writes

    def __init__(self, seed: int, work: str, digests: DigestStore, smoke: bool):
        self.seed = seed
        self.work = work
        self.digests = digests
        self.smoke = smoke
        os.makedirs(work, exist_ok=True)

    def params(self) -> dict:
        raise NotImplementedError

    def setup(self) -> None:
        raise NotImplementedError

    def body(self, ops: list) -> None:
        """One repetition; appends an ``Op`` per operation to ``ops``."""
        raise NotImplementedError

    def _digest_key(self) -> str:
        blob = json.dumps(self.params(), sort_keys=True).encode()
        return f"{self.name}-{hashlib.sha256(blob).hexdigest()[:12]}"


def _warm_stage(cfg_path: str) -> None:
    """Generates the instance and plays its first stage once, so lazy
    imports and first-call costs are paid before timing starts."""
    cfg = pc.load_config(cfg_path)
    inst = pc.generate(cfg)
    pc.run_stage(inst, np.zeros((cfg.N, cfg.d)), pc.polling_config(cfg))


class SimulateReadme(Workload):
    """``pricecoord simulate`` in-process on the README config."""

    name = "simulate_readme"
    op_base = "stages"

    def params(self):
        # The README config, its seed included: the scenario seed decides the
        # regime (seed 0 oscillates, seed 1 never activates the barrier and
        # runs 80 rounds instead of 1265), so it is not taken from --seed.
        return {"N": 3, "d": 2, "seed": 13, "horizon": 3 if self.smoke else 40,
                "coupling_strength": 50.0, "safety_radius": 6.0, "noise_std": 0.01,
                "mode": {"mode": "simultaneous", "max_rounds": 500}}

    def setup(self):
        self.cfg_path = os.path.join(self.work, "readme.json")
        self.out_dir = os.path.join(self.work, "readme_out")
        _write_config(self.params(), self.cfg_path)
        _warm_stage(self.cfg_path)

    def body(self, ops):
        clock = StageClock(ops, end_attr="replace_states")
        with clock.installed():
            rc = cli.main(["simulate", "--config", self.cfg_path, "--out", self.out_dir,
                           "--quiet"])
        check(rc == 0, f"simulate exited {rc}")
        with open(os.path.join(self.out_dir, "report.json")) as fh:
            report = json.load(fh)
        check(report["converged"], "simulate did not converge")
        check(abs(report["gap"]) <= 1e-6, f"welfare gap {report['gap']:.3e} > 1e-6")
        check(len(ops) == self.params()["horizon"],
              f"{len(ops)} stages timed, expected {self.params()['horizon']}")
        trace = os.path.join(self.out_dir, "trace.csv")
        self.trace_bytes = os.path.getsize(trace)
        self.digests.check(self._digest_key(), _sha256_file(trace), "trace.csv")


class FleetN30(Workload):
    """The stage loop of ``cmd_simulate`` at N = 30, driven directly, without
    the oracle."""

    name = "fleet_n30"
    op_base = "stages"

    def params(self):
        return {"N": 6 if self.smoke else 30, "d": 2, "seed": self.seed,
                "horizon": 3 if self.smoke else 40, "coupling_strength": 1.0,
                "safety_radius": 0.5, "noise_std": 0.01,
                "mode": {"mode": "simultaneous", "max_rounds": 500}}

    def setup(self):
        self.cfg_path = os.path.join(self.work, "fleet.json")
        _write_config(self.params(), self.cfg_path)
        _warm_stage(self.cfg_path)

    def body(self, ops):
        cfg = pc.load_config(self.cfg_path)
        pcfg = pc.polling_config(cfg)
        inst = pc.generate(cfg)
        noise = pc.noise_streams(cfg)
        u = np.zeros((cfg.N, cfg.d))
        rows = []
        for _ in range(cfg.horizon):
            t0 = time.perf_counter()
            try:
                st = pc.run_stage(inst, u, pcfg)
            except CoordinationError:
                ops.append(Op(time.perf_counter() - t0, FAILED))
                break
            u = st.u_final
            prices = pc.price_from_target(inst, u)
            rows.append((np.array(inst.states), u.copy(), prices))
            new_states = np.empty((cfg.N, cfg.d))
            for n in range(cfg.N):
                w = cfg.noise_std * noise[n].normal(size=cfg.d)
                new_states[n] = pc.step(inst.dynamics[n], inst.states[n], u[n], w)
            inst = pc.replace_states(inst, new_states)
            ops.append(Op(time.perf_counter() - t0, OK))
        check(all(op.outcome == OK for op in ops) and len(ops) == cfg.horizon,
              f"{sum(op.outcome != OK for op in ops)} of {len(ops)} stages failed")
        h = hashlib.sha256()
        for arrs in rows:
            for a in arrs:
                h.update(np.ascontiguousarray(a, dtype=float).tobytes())
        self.digests.check(self._digest_key(), h.hexdigest(), "stage trace")


class CompareConsensus(Workload):
    """``pricecoord compare`` in-process on a quadratic consensus config."""

    name = "compare_consensus"
    op_base = "play modes"

    def params(self):
        out = {"N": 3, "d": 2, "seed": self.seed, "coupling_spec": "consensus_quadratic",
               "coupling_strength": 0.5, "utility_spec": "quadratic_random"}
        if self.smoke:
            out["mode"] = {"max_rounds": 40}
        return out

    def setup(self):
        self.cfg_path = os.path.join(self.work, "compare.json")
        self.out_dir = os.path.join(self.work, "compare_out")
        _write_config(self.params(), self.cfg_path)
        _warm_stage(self.cfg_path)

    def body(self, ops):
        clock = StageClock(ops)
        with clock.installed():
            rc = cli.main(["compare", "--config", self.cfg_path, "--out", self.out_dir,
                           "--quiet"])
        check(rc == 0, f"compare exited {rc}")
        path = os.path.join(self.out_dir, "compare.json")
        with open(path) as fh:
            table = json.load(fh)["modes"]
        check(len(ops) == len(pc.PLAY_MODES) == len(table),
              f"{len(ops)} modes timed, expected {len(pc.PLAY_MODES)}")
        for mode, row in table.items():
            if row["converged"]:
                check(abs(row["gap"]) <= 1e-6,
                      f"{mode}: converged {row['gap']:.3e} away from the oracle welfare")
            else:
                check(row["reason"] == "max_rounds", f"{mode}: stopped by {row['reason']}")
        self.digests.check(self._digest_key(), _sha256_file(path), "compare.json")


class LearnFields(Workload):
    """Both identification paths: parametric identification from open-loop
    price probes, and the two geometric fits."""

    name = "learn_fields"
    op_base = "fits and identifications"
    ops_are_stages = False
    # The time is in dense LAPACK calls, which the host's swings move far
    # less than the reference unit: scaling raised the repetition-to-
    # repetition variation from 5 % to 13 %, so run_s stays wall time.
    host_scaled = False

    def params(self):
        return {"N": 3, "d": 2, "seed": self.seed, "probes_per_agent": 8,
                "walk_samples": 60 if self.smoke else 200, "window": 50, "stride": 25,
                "kernel_samples": 150 if self.smoke else 300, "kernel_holdout": 40}

    def setup(self):
        p = self.params()
        base = {"N": p["N"], "d": p["d"], "seed": p["seed"]}
        rng = np.random.default_rng(p["seed"])
        d = p["d"]

        # parametric path: open-loop probes of a quadratic consensus instance
        self.quad = pc.generate(pc.config_from_dict(
            dict(base, coupling_spec="consensus_quadratic", coupling_strength=0.5,
                 utility_spec="quadratic_random")))
        rows = []
        for n in range(p["N"]):
            dyn, util = self.quad.dynamics[n], self.quad.utilities[n]
            for t in range(p["probes_per_agent"]):
                x = self.quad.states[n] + rng.normal(size=d)
                u = rng.normal(size=d)
                rows.append((t, n, x, u, util.grad_u(dyn, x, u)))
        self.log = pc.ObservationLog.from_rows(rows)
        self.log_path = os.path.join(self.work, "probes.csv")

        # connection path: random walks through (x, u) under cross-term utilities
        bent = pc.generate(pc.config_from_dict(dict(base, utility_spec="cross_term")))
        self.walks = []
        for n in range(p["N"]):
            dyn, util = bent.dynamics[n], bent.utilities[n]
            z = np.concatenate([bent.states[n], np.zeros(d)])
            walk = []
            for _ in range(p["walk_samples"]):
                walk.append(pc.TrajectorySample(z=z.copy(), xi=util.grad_u(dyn, z[:d], z[d:])))
                z = z + 0.3 * rng.normal(size=2 * d)
            self.walks.append(walk)

        # kernel path: (x_next, u, p) samples of decomposable utilities
        dec = pc.generate(pc.config_from_dict(dict(base, utility_spec="decomposable_smooth")))
        self.kernel_sets = []
        for n in range(p["N"]):
            dyn, util = dec.dynamics[n], dec.utilities[n]
            x0 = dec.states[n]

            def draw(m, half):
                X = x0 + rng.uniform(-half, half, size=(m, d))
                U = rng.uniform(-half, half, size=(m, d))
                Xn = np.array([pc.step(dyn, x, u) for x, u in zip(X, U)])
                P = np.array([util.grad_u(dyn, x, u) for x, u in zip(X, U)])
                return Xn, U, P

            self.kernel_sets.append((dyn, draw(p["kernel_samples"], 2.0),
                                     draw(p["kernel_holdout"], 1.5)))
        dyn, train, _ = self.kernel_sets[0]
        pc.fit_decomposable(tuple(a[:20] for a in train), dyn)  # warm-up

    @staticmethod
    def _timed(ops, what, fn):
        t0 = time.perf_counter()
        try:
            out = fn()
        except (CoordinationError, ValueError, np.linalg.LinAlgError) as exc:
            ops.append(Op(time.perf_counter() - t0, FAILED))
            raise CheckFailed(f"{what}: {exc}") from None
        ops.append(Op(time.perf_counter() - t0, OK))
        return out

    def body(self, ops):
        p = self.params()
        inst = self.quad

        pc.save_log(self.log, self.log_path)
        back = pc.load_log(self.log_path)
        for a, b in ((self.log.t, back.t), (self.log.n, back.n), (self.log.x, back.x),
                     (self.log.u, back.u), (self.log.p, back.p)):
            check(np.array_equal(a, b), "save_log/load_log round trip changed the log")

        models = []
        for n in range(p["N"]):
            util = inst.utilities[n]
            m = self._timed(ops, f"identify agent {n}", lambda n=n, util=util: pc.identify(
                back, n, inst.dynamics[n], util.x0))
            err = max(np.max(np.abs(m.Q_hat - util.Q)), np.max(np.abs(m.R_hat - util.R)))
            check(err <= 1e-6, f"agent {n}: identified Q/R off by {err:.3e}")
            models.append(m)

        prices = pc.optimal_price(models, inst)
        resp = np.array([pc.best_response(pc.GameSpec(utility=inst.utilities[n], price=prices[n]),
                                          inst.states[n], inst.dynamics[n], np.zeros(p["d"]))
                         for n in range(p["N"])])
        back_p = pc.price_from_target(inst, resp)
        err = float(np.max(np.abs(back_p - np.array(prices))))
        check(err <= 1e-6, f"optimal-price round trip off by {err:.3e}")
        stat = float(np.max(np.abs(pc.reward_field(inst)(resp))))
        check(stat <= 1e-6, f"priced responses miss the welfare optimum (|F| = {stat:.3e})")

        for n, walk in enumerate(self.walks):
            fits = self._timed(ops, f"sliding_connection agent {n}",
                               lambda walk=walk: pc.sliding_connection(
                                   walk, window=p["window"], stride=p["stride"]))
            expected = (len(walk) - p["window"]) // p["stride"] + 1
            check(len(fits) == expected, f"agent {n}: {len(fits)} of {expected} windows fitted")
            bend = min(m.gamma_frobenius() for _, m in fits)
            check(bend > 1e-3, f"agent {n}: cross terms not detected (|Gamma| = {bend:.2e})")

        for n, (dyn, train, held) in enumerate(self.kernel_sets):
            def fit_and_predict(dyn=dyn, train=train, held=held):
                model = pc.fit_decomposable(train, dyn)
                return pc.predict_field(model, dyn, held[0], held[1])
            pred = self._timed(ops, f"fit_decomposable agent {n}", fit_and_predict)
            rel = float(np.linalg.norm(pred - held[2]) / np.linalg.norm(held[2]))
            check(rel <= 1e-2, f"agent {n}: kernel held-out relative error {rel:.3e} > 1e-2")


WORKLOADS = {w.name: w for w in (SimulateReadme, FleetN30, CompareConsensus, LearnFields)}
