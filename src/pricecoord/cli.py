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


def _strict(obj, path: str, nonfinite: list):
    """obj with numpy values as Python ones and each non-finite float as
    None, its dotted path (keys and list indices) appended to nonfinite in
    the written file's order."""
    if isinstance(obj, (np.ndarray, np.generic)):
        obj = obj.tolist()
    if isinstance(obj, dict):
        return {k: _strict(v, f"{path}{k}.", nonfinite) for k, v in sorted(obj.items())}
    if isinstance(obj, (list, tuple)):
        return [_strict(v, f"{path}{i}.", nonfinite) for i, v in enumerate(obj)]
    if isinstance(obj, float) and not np.isfinite(obj):
        nonfinite.append(path[:-1])
        return None
    return obj


def _write_json(data: dict, path: str) -> None:
    """data as strict JSON: a non-finite float is written as null and named
    in a top-level "nonfinite" list, which is there only when not empty."""
    nonfinite = []
    data = _strict(data, "", nonfinite)
    if nonfinite:
        data["nonfinite"] = nonfinite
    with open(path, "w") as fh:
        json.dump(data, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def _load(config_path: str, seed) -> ScenarioConfig:
    """The config at config_path, with the --seed override when given."""
    cfg = load_config(config_path)
    return cfg if seed is None else dataclasses.replace(cfg, seed=int(seed))


def _oracle(inst, box, stage: int):
    """(welfare, method, None) of the optimum on the box, or (None, None, the
    stage's oracle failure) when the oracle finds no maximum."""
    try:
        res = joint_welfare_opt(inst, box=box)
    except ValueError as exc:
        return None, None, {"reason": "oracle", "stage": stage, "message": str(exc)}
    return res.welfare, res.method, None


def _finish(command: str, data: dict, path: str, quiet: bool, failure, code: int = 1) -> int:
    """Writes data, with the failure if any, prints path unless quiet and
    returns 0, or code after the failure's message on stderr."""
    if failure is not None:
        data["failure"] = failure
    _write_json(data, path)
    if not quiet:
        print(path)
    if failure is None:
        return 0
    print(f"{command}: {failure['message']}", file=sys.stderr)
    return code


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
    agents = [{"A": dyn.A, "B": dyn.B, "x0": _waypoint(n, cfg.N, cfg.d)}
              for n, dyn in enumerate(inst.dynamics)]
    _write_json({"N": cfg.N, "d": cfg.d, "agents": agents}, path)


def cmd_simulate(config_path: str, out_dir: str, mode=None, seed=None,
                 quiet: bool = False) -> int:
    t_start = time.perf_counter()
    cfg = _load(config_path, seed)
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
            with np.errstate(over="ignore"):  # an overflow is a state failure below
                new_states = new_states + cfg.noise_std * np.array([g.normal(size=cfg.d)
                                                                    for g in noise])
        if not np.all(np.isfinite(new_states)):
            failure = {"reason": "state", "stage": t,
                       "message": f"the states after stage {t} contain non-finite entries"}
            break
        inst = replace_states(inst, new_states)
        u_warm = u_star

    stages = len(actions)
    save_log(ObservationLog(t=np.repeat(np.arange(stages), cfg.N),
                            n=np.tile(np.arange(cfg.N), stages),
                            x=np.reshape(states, (-1, cfg.d)),
                            u=np.reshape(actions, (-1, cfg.d)),
                            p=np.reshape(prices, (-1, cfg.d))), trace_path)

    final_welfare = welfare_series[-1] if welfare_series else None
    oracle_welfare = oracle_method = None
    if failure is None:  # the oracle at the same states the final stage converged on
        oracle_welfare, oracle_method, failure = _oracle(stage_inst, pcfg.box, stages - 1)

    report = {
        "config": cfg.to_dict(),
        "mode": pcfg.mode,
        "welfare_series": welfare_series,
        "final_welfare": final_welfare,
        "oracle_welfare": oracle_welfare,
        "oracle_method": oracle_method,
        "gap": None if failure else oracle_welfare - final_welfare,
        "iterations": iterations,
        "converged": failure is None,
        "wall_time_ms": (time.perf_counter() - t_start) * 1000.0,
    }
    code = 2 if failure is not None and failure["reason"] == "oscillation" else 1
    return _finish("simulate", report, report_path, quiet, failure, code)


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
    _finish("identify", {"agents": entries}, os.path.join(out_dir, "models.json"), quiet, None)
    for n, exc in deficient:
        print(f"identify: agent {n}: rank {exc.rank} < required {exc.required}", file=sys.stderr)
    return 3 if deficient else 0


def cmd_compare(config_path: str, out_dir: str, seed=None, quiet: bool = False) -> int:
    cfg = _load(config_path, seed)
    inst = generate(cfg)
    oracle_welfare, oracle_method, failure = _oracle(inst, polling_config(cfg).box, 0)

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
                       "gap": None if failure else oracle_welfare - final,
                       "converged": st.converged, **outcome}

    os.makedirs(out_dir, exist_ok=True)
    out_path = os.path.join(out_dir, "compare.json")
    out = {"config": cfg.to_dict(), "oracle_welfare": oracle_welfare,
           "oracle_method": oracle_method, "modes": table}
    return _finish("compare", out, out_path, quiet, failure)


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
