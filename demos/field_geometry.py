#!/usr/bin/env python3
"""Tell quadratic from non-quadratic agents by the shape of their fields.

When the coordinator cannot assume a parametric family it can still watch
how the observed price field changes along a trajectory. For quadratic
utilities the gradient field is affine, so a transport fit needs no
quadratic coefficients: the space is flat. State-action cross terms bend
it, and the fitted transport coefficients say so. For decomposable
utilities U(x, u) = U^x(x) + U^u(u) a kernel fit learns the two component
fields from samples, up to the gauge shift that moves constants between
them without changing anything observable.

Each verdict is computed from the fit, with the bounds of acceptance
criteria 8 and 9 and a bound of 1e-6 on the gauge-shifted drift; the script
exits non-zero when one comes out wrong.

Usage: python3 demos/field_geometry.py
"""

import sys

import numpy as np

import pricecoord as pc


def walk_samples(rng, dyn, util, count, step=0.3):
    z = rng.normal(size=2 * dyn.d)
    out = []
    for _ in range(count):
        out.append(pc.TrajectorySample(z=z.copy(),
                                       xi=util.grad_u(dyn, z[:dyn.d], z[dyn.d:])))
        z = z + step * rng.normal(size=2 * dyn.d)
    return out


def spd(rng, d):
    M = rng.normal(size=(d, d))
    return M @ M.T / d + 0.5 * np.eye(d)


FLAT_BELOW, BENT_ABOVE = 1e-6, 1e-3   # criterion 8, on max |Gamma_j|_F
HELD_OUT_BOUND = 1e-2                 # criterion 9, relative error
GAUGE_BOUND = 1e-6                    # gauge-shifted prediction drift


def curvature_verdict(gamma_norm):
    if gamma_norm < FLAT_BELOW:
        return "flat"
    if gamma_norm > BENT_ABOVE:
        return "bent"
    return "undecided"


def main():
    failures = []
    rng = np.random.default_rng(2)
    d = 2

    dyn = pc.LinearDynamics(A=rng.normal(size=(d, d)), B=rng.normal(size=(d, d)))
    quad = pc.QuadraticUtility(Q=spd(rng, d), R=spd(rng, d), x0=rng.normal(size=d))
    flat = pc.fit_connection(walk_samples(rng, dyn, quad, 40))
    print("quadratic utility:")
    verdict = curvature_verdict(flat.gamma_frobenius())
    if verdict != "flat":
        failures.append(f"quadratic utility judged {verdict}")
    print(f"  max |Gamma_j|_F = {flat.gamma_frobenius():.2e}  ({verdict})")
    print(f"  transport residual {flat.residual:.2e}")

    K = [0.5 * rng.normal(size=(d, d)) for _ in range(d)]
    bent_util = pc.cross_term_utility(np.eye(d), np.eye(d), np.zeros(d), K)
    dyn_id = pc.LinearDynamics(A=np.eye(d), B=np.eye(d))
    bent = pc.fit_connection(walk_samples(rng, dyn_id, bent_util, 80))
    print("cross-term utility:")
    verdict = curvature_verdict(bent.gamma_frobenius())
    if verdict != "bent":
        failures.append(f"cross-term utility judged {verdict}")
    print(f"  max |Gamma_j|_F = {bent.gamma_frobenius():.2e}  ({verdict})")

    # decomposable field: B g(x) + h(u) with g = h = -2 id
    dyn_k = pc.LinearDynamics(A=np.eye(d), B=0.5 * np.eye(d) + 0.1)
    X = rng.uniform(-2, 2, size=(150, d))
    U = rng.uniform(-2, 2, size=(150, d))
    P = (-2.0 * X) @ dyn_k.B.T + (-2.0 * U)
    model = pc.fit_decomposable((X, U, P), dyn_k)
    Xh = rng.uniform(-1.5, 1.5, size=(40, d))
    Uh = rng.uniform(-1.5, 1.5, size=(40, d))
    Ph = (-2.0 * Xh) @ dyn_k.B.T + (-2.0 * Uh)
    pred = pc.predict_field(model, dyn_k, Xh, Uh)
    rel = np.linalg.norm(pred - Ph) / np.linalg.norm(Ph)
    if not rel < HELD_OUT_BOUND:
        failures.append(f"held-out relative error {rel:.2e} >= {HELD_OUT_BOUND:.0e}")
    print("decomposable kernel fit:")
    print(f"  held-out relative error {rel:.2e} from 150 samples")

    # the gauge: moving a constant c from g to h leaves the field unchanged
    c = np.array([0.7, -0.3])
    P_shift = (-2.0 * X - c) @ dyn_k.B.T + (-2.0 * U + (dyn_k.B @ c))
    m_shift = pc.fit_decomposable((X, U, P_shift), dyn_k)
    drift = np.max(np.abs(pc.predict_field(m_shift, dyn_k, Xh, Uh) - pred))
    if not drift <= GAUGE_BOUND:
        failures.append(f"gauge-shifted prediction drift {drift:.2e} > {GAUGE_BOUND:.0e}")
    print(f"  gauge-shifted data predicts the same field to {drift:.2e}")

    for failure in failures:
        print(f"FAILED: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
