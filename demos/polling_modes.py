#!/usr/bin/env python3
"""Poll two selfish agents into a welfare optimum, five ways.

Two agents want opposite actions (targets +1 and -1) while a shared
consensus reward -eps (u_1 - u_2)^2 pulls them together. Because the
coupling is shared, the welfare optimum is a Nash point, and the
coordinator can reach it by polling virtual actions. This script runs
every play mode on a weakly and a strongly coupled copy of that game and
prints what each one does: the strong instance makes naive simultaneous
best response overshoot in an alternating pattern, which the coordinator
flags instead of trusting.

Usage: python3 demos/polling_modes.py
"""

import numpy as np

import pricecoord as pc


def consensus_instance(eps):
    dyn = pc.LinearDynamics(A=np.eye(1), B=np.eye(1))
    utils = tuple(
        pc.SmoothUtility(
            value_fn=lambda x_next, u, a=a: -float((u[0] - a) ** 2),
            gradient_u=lambda x_next, u, dyn, a=a: np.array([-2.0 * (u[0] - a)]))
        for a in (1.0, -1.0))
    return pc.SystemInstance(dynamics=(dyn, dyn), utilities=utils,
                             coupling=pc.pairwise_quadratic_coupling(eps, 2, 1),
                             states=np.zeros((2, 1)))


def run_mode(sys, mode):
    kwargs = {"max_rounds": 3000}
    if mode in ("two_stage", "single_stage"):
        kwargs["box"] = (-2.0, 2.0)
    if mode == "tikhonov":
        kwargs["lam"] = 20.0
    try:
        trace = pc.run_stage(sys, np.zeros((2, 1)), pc.PollingConfig(mode=mode, **kwargs))
    except pc.NonConvergenceError as exc:
        return exc.reason, exc.trace.iterations, None
    return "converged", trace.iterations, trace.u_final


def main():
    for eps, label in ((0.1, "weak"), (10.0, "strong")):
        sys = consensus_instance(eps)
        diag = pc.weak_coupling_diagnostic(sys)
        opt = pc.joint_welfare_opt(sys)
        print(f"\n--- {label} coupling (eps={eps}) ---")
        print(f"coupling/utility curvature ratio {diag.ratio:.3f} "
              f"({'passes' if diag.passes else 'fails'} the weak-coupling check)")
        print(f"welfare optimum u* = {opt.u_star.ravel()}, welfare {opt.welfare:.6f}")
        for mode in pc.PLAY_MODES:
            outcome, rounds, u = run_mode(sys, mode)
            if u is None:
                print(f"  {mode:13s} {outcome} after {rounds} rounds")
            else:
                err = np.linalg.norm(u - opt.u_star)
                print(f"  {mode:13s} {outcome} in {rounds:4d} rounds, "
                      f"|u - u*| = {err:.2e}")
    print("\nThe flagged run is the point: the coordinator reports oscillation "
          "instead of publishing a bad equilibrium, and a damped mode finishes "
          "the job.")


if __name__ == "__main__":
    main()
