"""Command-line driver: simulate a configured instance end to end, identify
utilities from logged observations, and compare play modes against the
oracle.

Exit codes: 0 success, 1 error (bad input, solver failure, round budget
exhausted), 2 oscillation detected during simulate, 3 rank-deficient
identification. stdout carries only the written report path; diagnostics go
to stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time

import numpy as np

from .errors import (BestResponseError, ConfigError, CoordinationError, NonConvergenceError,
                     RankDeficiencyError)
from .mechanism import PLAY_MODES, StageTrace, price_from_target, run_stage, social_welfare
from .model import LinearDynamics, joint_next_state, replace_states
from .oracle import joint_welfare_opt
from .parametric import ObservationLog, identify, load_log, save_log
from .scenario import (
    ScenarioConfig,
    generate,
    load_config,
    noise_streams,
    polling_config,
    _waypoint,
)


def _json_default(obj):
    """json.dump's hook for the numpy values a report holds. np.float64 is a
    float subclass and never reaches it."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _write_json(data: dict, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(data, fh, indent=2, sort_keys=True, default=_json_default)
        fh.write("\n")


def _announce(path: str, quiet: bool) -> None:
    if not quiet:
        print(path)


def _stage_welfare(inst, st: StageTrace) -> float:
    """Social welfare at a stage's final action: the trace's last row, which
    holds exactly that value, or one evaluation for a stage with no round."""
    return float(st.welfare[-1]) if st.iterations else social_welfare(inst, st.u_final)


def _failure(exc: CoordinationError) -> dict:
    """What a failed stage or play mode reports: the reason, the message,
    and the trace tail or the solver state the error carries."""
    out = {"message": str(exc)}
    if isinstance(exc, NonConvergenceError):
        tr = exc.trace
        out.update(reason=exc.reason, rounds=tr.iterations)
        if tr.iterations:
            out.update(recent_actions=tr.actions[-6:], recent_residuals=tr.residual[-6:])
    elif isinstance(exc, BestResponseError):
        out.update(reason="best_response", agent=exc.agent, round=exc.round,
                   residual=exc.residual, last_iterate=exc.last_iterate)
    else:  # a stage raises no other error than ConfigError
        out["reason"] = "config"
    return out


def _write_dynamics(cfg: ScenarioConfig, inst, path: str) -> None:
    agents = []
    for n in range(cfg.N):
        agents.append({"A": inst.dynamics[n].A, "B": inst.dynamics[n].B,
                       "x0": _waypoint(n, cfg.N, cfg.d)})
    _write_json({"N": cfg.N, "d": cfg.d, "agents": agents}, path)


def cmd_simulate(config_path: str, out_dir: str, mode=None, seed=None,
                 quiet: bool = False) -> int:
    t_start = time.perf_counter()
    cfg = load_config(config_path)
    if seed is not None:
        cfg = dataclasses.replace(cfg, seed=int(seed))
    pcfg = polling_config(cfg, mode_override=mode)
    inst = generate(cfg)
    noise = noise_streams(cfg) if cfg.noise_std > 0 else None

    os.makedirs(out_dir, exist_ok=True)
    trace_path = os.path.join(out_dir, "trace.csv")
    report_path = os.path.join(out_dir, "report.json")
    _write_dynamics(cfg, inst, os.path.join(out_dir, "dynamics.json"))

    states, actions, prices = [], [], []  # (N, d) per completed stage
    welfare_series = []
    iterations = 0
    failure = None
    u_warm = np.zeros((cfg.N, cfg.d))
    stage_inst = inst  # instance the final completed stage ran on

    for t in range(cfg.horizon):
        try:
            st = run_stage(inst, u_warm, pcfg)
        except CoordinationError as exc:
            failure = {"stage": t, **_failure(exc)}
            iterations += failure.get("rounds", 0)
            break
        iterations += st.iterations
        u_star = st.u_final
        stage_inst = inst
        welfare_series.append(_stage_welfare(inst, st))
        states.append(np.array(inst.states))
        actions.append(u_star)
        prices.append(price_from_target(inst, u_star))
        new_states = joint_next_state(inst, u_star)
        if noise is not None:
            new_states = new_states + cfg.noise_std * np.array([g.normal(size=cfg.d)
                                                                for g in noise])
        inst = replace_states(inst, new_states)
        u_warm = u_star

    stages = len(actions)
    save_log(ObservationLog(t=np.repeat(np.arange(stages), cfg.N),
                            n=np.tile(np.arange(cfg.N), stages),
                            x=np.reshape(states, (-1, cfg.d)),
                            u=np.reshape(actions, (-1, cfg.d)),
                            p=np.reshape(prices, (-1, cfg.d))), trace_path)

    final_welfare = welfare_series[-1] if welfare_series else None
    oracle_welfare = None
    oracle_method = None
    gap = None
    if failure is None:
        # oracle at the same states the final stage converged on
        res = joint_welfare_opt(stage_inst, box=pcfg.box)
        oracle_welfare, oracle_method = res.welfare, res.method
        gap = oracle_welfare - final_welfare

    report = {
        "config": cfg.to_dict(),
        "mode": pcfg.mode,
        "welfare_series": welfare_series,
        "final_welfare": final_welfare,
        "oracle_welfare": oracle_welfare,
        "oracle_method": oracle_method,
        "gap": gap,
        "iterations": iterations,
        "converged": failure is None,
        "wall_time_ms": (time.perf_counter() - t_start) * 1000.0,
    }
    if failure is not None:
        report["failure"] = failure
    _write_json(report, report_path)
    _announce(report_path, quiet)

    if failure is None:
        return 0
    print(f"simulate: {failure['message']}", file=sys.stderr)
    return 2 if failure["reason"] == "oscillation" else 1


def _agent_array(path: str, i: int, entry: dict, key: str, shape: tuple) -> np.ndarray:
    """Field key of agent entry i as a finite float array of the given shape."""
    try:
        arr = np.asarray(entry[key])
        ok = arr.dtype.kind in "if" and arr.shape == shape and np.all(np.isfinite(arr))
    except ValueError:  # ragged nested lists
        ok = False
    if not ok:
        raise ConfigError(f"{path}: agent {i}: field {key!r} must be a finite array of "
                          f"numbers of shape {shape}, got {entry[key]!r}")
    return arr.astype(float)


def _load_dynamics(path: str):
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: malformed JSON at line {exc.lineno}: {exc.msg}") from None
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: root must be a JSON object")
    for key in ("N", "d", "agents"):
        if key not in data:
            raise ConfigError(f"{path}: missing field {key!r}")
    for key in ("N", "d"):
        if isinstance(data[key], bool) or not isinstance(data[key], int) or data[key] < 1:
            raise ConfigError(f"{path}: field {key!r} must be a positive integer, "
                              f"got {data[key]!r}")
    if not isinstance(data["agents"], list):
        raise ConfigError(f"{path}: field 'agents' must be a list of agent objects")
    if len(data["agents"]) != data["N"]:
        raise ConfigError(f"{path}: expected {data['N']} agent entries")
    d = data["d"]
    out = []
    for i, entry in enumerate(data["agents"]):
        if not isinstance(entry, dict):
            raise ConfigError(f"{path}: agent {i}: entry in 'agents' must be an object")
        for key in ("A", "B", "x0"):
            if key not in entry:
                raise ConfigError(f"{path}: agent {i}: missing field {key!r}")
        A, B, x0 = (_agent_array(path, i, entry, key, shape)
                    for key, shape in (("A", (d, d)), ("B", (d, d)), ("x0", (d,))))
        out.append((LinearDynamics(A=A, B=B), x0))
    return out


def cmd_identify(log_path: str, dynamics_path: str, out_dir: str,
                 quiet: bool = False) -> int:
    log = load_log(log_path)
    agents = _load_dynamics(dynamics_path)
    os.makedirs(out_dir, exist_ok=True)
    entries = []
    deficient = []
    for n, (dyn, x0) in enumerate(agents):
        try:
            m = identify(log, n, dyn, x0)
        except RankDeficiencyError as exc:
            deficient.append((n, exc))
            entries.append({"agent": n, "error": str(exc), "rank": exc.rank,
                            "required": exc.required})
            continue
        entries.append({"agent": n, "C": m.C, "D": m.D, "Q_hat": m.Q_hat,
                        "R_hat": m.R_hat, "residual": m.residual, "rank": m.rank,
                        "x0_check": m.x0_check, "b_condition": m.b_condition})
    out_path = os.path.join(out_dir, "models.json")
    _write_json({"agents": entries}, out_path)
    _announce(out_path, quiet)
    if deficient:
        for n, exc in deficient:
            print(f"identify: agent {n}: rank {exc.rank} < required {exc.required}",
                  file=sys.stderr)
        return 3
    return 0


def cmd_compare(config_path: str, out_dir: str, seed=None, quiet: bool = False) -> int:
    cfg = load_config(config_path)
    if seed is not None:
        cfg = dataclasses.replace(cfg, seed=int(seed))
    inst = generate(cfg)
    base_pcfg = polling_config(cfg)
    oracle = joint_welfare_opt(inst, box=base_pcfg.box)
    oracle_welfare = oracle.welfare

    # the damped modes share inst, so run_stage estimates their default step once
    table = {}
    u0 = np.zeros((cfg.N, cfg.d))
    for mode in PLAY_MODES:
        try:
            st, outcome = run_stage(inst, u0, polling_config(cfg, mode_override=mode)), {}
        except NonConvergenceError as exc:
            st, outcome = exc.trace, {"reason": exc.reason}
        except CoordinationError as exc:
            table[mode] = {"converged": False, **_failure(exc)}
            continue
        final = _stage_welfare(inst, st)
        table[mode] = {"iterations": st.iterations, "final_welfare": final,
                       "gap": oracle_welfare - final, "converged": st.converged, **outcome}

    os.makedirs(out_dir, exist_ok=True)
    out_path = os.path.join(out_dir, "compare.json")
    _write_json({"config": cfg.to_dict(), "oracle_welfare": oracle_welfare,
                 "oracle_method": oracle.method, "modes": table}, out_path)
    _announce(out_path, quiet)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pricecoord",
        description="Price-based coordination of selfish linear-dynamics agents: "
                    "simulate, identify, compare.")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run the staged coordination loop")
    sim.add_argument("--config", required=True, help="scenario JSON path")
    sim.add_argument("--out", required=True, help="output directory")
    sim.add_argument("--mode", choices=PLAY_MODES, help="override the config's play mode")
    sim.add_argument("--seed", type=int, help="override the config's seed")
    sim.add_argument("--quiet", action="store_true", help="suppress the report path on stdout")

    idf = sub.add_parser("identify", help="fit quadratic utilities from a trace")
    idf.add_argument("--log", required=True, help="observation CSV (trace.csv)")
    idf.add_argument("--dynamics", required=True, help="dynamics JSON from simulate")
    idf.add_argument("--out", required=True, help="output directory")
    idf.add_argument("--quiet", action="store_true")

    cmp_p = sub.add_parser("compare", help="run every play mode plus the oracle once")
    cmp_p.add_argument("--config", required=True, help="scenario JSON path")
    cmp_p.add_argument("--out", default=".", help="output directory (default: cwd)")
    cmp_p.add_argument("--seed", type=int, help="override the config's seed")
    cmp_p.add_argument("--quiet", action="store_true")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "simulate":
            return cmd_simulate(args.config, args.out, mode=args.mode,
                                seed=args.seed, quiet=args.quiet)
        if args.command == "identify":
            return cmd_identify(args.log, args.dynamics, args.out, quiet=args.quiet)
        return cmd_compare(args.config, args.out, seed=args.seed, quiet=args.quiet)
    except (ConfigError, CoordinationError, OSError, ValueError) as exc:
        print(f"pricecoord: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
