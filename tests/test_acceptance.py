"""Acceptance gate: one test per release criterion, numbered to match the
project checklist. Run `pytest -v tests/test_acceptance.py` to get one
pass/fail line per criterion. Everything is seeded and self-contained; the
whole file is expected to finish well under two minutes.
"""

import json

import numpy as np
import pytest

import pricecoord as pc
from pricecoord.cli import main as cli_main
from conftest import make_two_agent_scalar, random_spd
from goldens import golden_bytes


def fresh_rng(seed=0):
    return np.random.default_rng(seed)


def make_quadratic_agent(rng, d):
    A = np.eye(d) + 0.3 * rng.normal(size=(d, d)) / np.sqrt(d)
    B = np.eye(d) + 0.3 * rng.normal(size=(d, d)) / np.sqrt(d)
    dyn = pc.LinearDynamics(A=A, B=B)
    util = pc.QuadraticUtility(Q=random_spd(rng, d), R=random_spd(rng, d),
                               x0=rng.normal(size=d))
    return dyn, util


def log_from_samples(dyn, util, X, U, noise=None):
    rows = []
    for i in range(X.shape[0]):
        p = util.grad_u(dyn, X[i], U[i])
        if noise is not None:
            p = p + noise[i]
        rows.append((i, 0, X[i], U[i], p))
    return pc.ObservationLog.from_rows(rows)


# --------------------------------------------------------------- criterion 1

def test_c01_gradient_consistency():
    """Analytic gradients agree with central differences to 1e-6 relative
    error on at least 100 random points for every utility/coupling class."""
    rng = fresh_rng()
    for d in (1, 2, 3):
        dyn = pc.LinearDynamics(A=rng.normal(size=(d, d)),
                                B=rng.normal(size=(d, d)))
        util = pc.QuadraticUtility(Q=random_spd(rng, d), R=random_spd(rng, d),
                                   x0=rng.normal(size=d))
        pts = [(rng.normal(size=d), rng.normal(size=d)) for _ in range(35)]
        assert pc.utility_gradient_error(util, dyn, pts) < 1e-6

    d = 2
    dyn = pc.LinearDynamics(A=rng.normal(size=(d, d)), B=rng.normal(size=(d, d)))
    K = [rng.normal(size=(d, d)) for _ in range(d)]
    cross = pc.cross_term_utility(random_spd(rng, d), random_spd(rng, d),
                                  rng.normal(size=d), K)
    pts = [(rng.normal(size=d), rng.normal(size=d)) for _ in range(100)]
    assert pc.utility_gradient_error(cross, dyn, pts) < 1e-6

    d = 3
    dyn = pc.LinearDynamics(A=rng.normal(size=(d, d)), B=rng.normal(size=(d, d)))
    decomp = pc.decomposable_utility(
        value_x=lambda x: -float(x @ x),
        grad_x=lambda x: -2.0 * x,
        value_u=lambda u: -float(np.sum(np.cosh(u) - 1.0)),
        grad_u=lambda u: -np.sinh(u),
    )
    pts = [(0.5 * rng.normal(size=d), 0.5 * rng.normal(size=d))
           for _ in range(100)]
    assert pc.utility_gradient_error(decomp, dyn, pts) < 1e-6

    # the separation barrier is checked at N = 2, where value and gradient
    # vanish together in the softplus tail and central differences stay
    # resolvable at every sample
    rng_b = fresh_rng(3)
    G = pc.separation_barrier_coupling(beta=5.0, radius=2.0, N=2, d=2)
    pts = [rng_b.normal(scale=2.0, size=(2, 2)) for _ in range(100)]
    assert pc.coupling_gradient_error(G, pts) < 1e-6


# --------------------------------------------------------------- criterion 2

def test_c02_incentive_round_trip():
    """Posting the gradient price at a target action makes the target each
    agent's best response, to 1e-8, across 50 random quadratic instances."""
    rng = fresh_rng()
    for i in range(50):
        d = (i % 3) + 1
        dyns, utils = zip(*(make_quadratic_agent(rng, d) for _ in range(2)))
        sys = pc.SystemInstance(dynamics=dyns, utilities=utils,
                                coupling=pc.zero_coupling(2, d),
                                states=rng.normal(size=(2, d)))
        target = rng.normal(size=(2, d))
        prices = pc.price_from_target(sys, target)
        for n in range(2):
            game = pc.GameSpec(utility=sys.utilities[n], price=prices[n])
            u = pc.best_response(game, sys.states[n], sys.dynamics[n],
                                 np.zeros(d))
            np.testing.assert_allclose(u, target[n], atol=1e-8)


# --------------------------------------------------------------- criterion 3

def test_c03_minimum_sample_identification():
    """2d generic price observations pin down the 2 d^2 quadratic unknowns
    exactly; 2d - 1 observations fail with a rank report; the message-space
    count matches 2 N d^2."""
    rng = fresh_rng()
    for d in (1, 2, 3):
        dyn, util = make_quadratic_agent(rng, d)
        X = rng.normal(size=(2 * d, d))
        U = rng.normal(size=(2 * d, d))
        model = pc.identify(log_from_samples(dyn, util, X, U), 0, dyn, util.x0)
        assert np.linalg.norm(model.Q_hat - util.Q) <= 1e-8 * np.linalg.norm(util.Q)
        assert np.linalg.norm(model.R_hat - util.R) <= 1e-8 * np.linalg.norm(util.R)
        assert model.C.size + model.D.size == 2 * d * d

        short = log_from_samples(dyn, util, X[:2 * d - 1], U[:2 * d - 1])
        with pytest.raises(pc.RankDeficiencyError) as exc:
            pc.identify(short, 0, dyn, util.x0)
        assert exc.value.required == 2 * d

    for N, d in ((1, 1), (2, 3), (5, 2)):
        assert pc.message_space_dimension(N, d) == 2 * N * d * d


# --------------------------------------------------------------- criterion 4

def test_c04_parametric_recovery_and_noise_decay():
    """Noise-free recovery is exact to 1e-8 relative error over 100 random
    instances; under price noise the median error falls monotonically as the
    sample count doubles."""
    rng = fresh_rng()
    for i in range(100):
        d = (i % 3) + 1
        dyn, util = make_quadratic_agent(rng, d)
        X = rng.normal(size=(2 * d, d))
        U = rng.normal(size=(2 * d, d))
        model = pc.identify(log_from_samples(dyn, util, X, U), 0, dyn, util.x0)
        rel = (np.linalg.norm(model.Q_hat - util.Q)
               + np.linalg.norm(model.R_hat - util.R)) / (
                  np.linalg.norm(util.Q) + np.linalg.norm(util.R))
        assert rel < 1e-8

    rng = fresh_rng(7)
    d = 2
    dyn, util = make_quadratic_agent(rng, d)
    sigma = 0.01
    medians = []
    for M in (2 * d, 4 * d, 8 * d, 16 * d):
        errs = []
        for _ in range(50):
            X = rng.normal(size=(M, d))
            U = rng.normal(size=(M, d))
            noise = sigma * rng.normal(size=(M, d))
            model = pc.identify(log_from_samples(dyn, util, X, U, noise),
                                0, dyn, util.x0)
            errs.append(np.linalg.norm(model.Q_hat - util.Q)
                        + np.linalg.norm(model.R_hat - util.R))
        medians.append(float(np.median(errs)))
    assert all(b <= a for a, b in zip(medians, medians[1:]))


# --------------------------------------------------------------- criterion 5

def test_c05_weak_coupling_converges_strong_flagged():
    """Weak coupling: simultaneous play has a non-decreasing welfare trace
    and lands on the oracle optimum. Strong coupling: simultaneous play is
    flagged as oscillating while sequential and Tikhonov runs converge."""
    weak = make_two_agent_scalar(0.1)
    assert pc.weak_coupling_diagnostic(weak).passes
    opt_weak = pc.joint_welfare_opt(weak)
    trace = pc.run_stage(weak, np.zeros((2, 1)),
                         pc.PollingConfig(mode="simultaneous"))
    assert trace.converged
    assert all(b >= a - 1e-9 for a, b in zip(trace.welfare, trace.welfare[1:]))
    np.testing.assert_allclose(trace.u_final, opt_weak.u_star, atol=1e-6)

    strong = make_two_agent_scalar(10.0)
    assert not pc.weak_coupling_diagnostic(strong).passes
    opt_strong = pc.joint_welfare_opt(strong)
    with pytest.raises(pc.NonConvergenceError) as exc:
        pc.run_stage(strong, np.zeros((2, 1)),
                     pc.PollingConfig(mode="simultaneous"))
    assert exc.value.reason == "oscillation"

    seq = pc.run_stage(strong, np.zeros((2, 1)),
                       pc.PollingConfig(mode="sequential", max_rounds=200))
    assert seq.converged
    np.testing.assert_allclose(seq.u_final, opt_strong.u_star, atol=1e-6)

    tik = pc.run_stage(strong, np.zeros((2, 1)),
                       pc.PollingConfig(mode="tikhonov", lam=20.0))
    assert tik.converged
    np.testing.assert_allclose(tik.u_final, opt_strong.u_star, atol=1e-6)


# --------------------------------------------------------------- criterion 6

def test_c06_vi_step_rule_and_cocoercivity():
    """Projection iteration on F(u) = b - u converges for every step in
    (0, 2) and diverges at 2.5; the co-coercivity probe recovers 1/lambda_max
    within 5% on random SPD affine fields."""
    b = np.array([1.0, 0.5, -0.25])

    def field(u):
        return b - u

    for tau in (0.1, 0.5, 1.0, 1.5, 1.9):
        u, _ = pc.vi_project_iterate(field, np.zeros(3), tau, tol=1e-10)
        np.testing.assert_allclose(u, b, atol=1e-8)
    with pytest.raises(pc.NonConvergenceError) as exc:
        pc.vi_project_iterate(field, np.zeros(3), 2.5, max_iter=50)
    assert exc.value.trace[-1][1] > exc.value.trace[0][1]

    rng = fresh_rng()
    for d in (2, 4):
        M = random_spd(rng, d, 0.5, 3.0)
        c_true = 1.0 / np.max(np.linalg.eigvalsh(M))
        c_hat = pc.estimate_cocoercivity(lambda U: np.array([-M @ u for u in U]),
                                         (-5.0, 5.0), d, n_pairs=2000)
        assert c_hat > 0
        assert abs(c_hat - c_true) <= 0.05 * c_true


# --------------------------------------------------------------- criterion 7

def test_c07_proximal_gap_and_stage_limits():
    """The stage-1 proximal responses never move further from the anchor
    than N * D / lam, with D estimated on a grid; with steps below twice
    both estimated co-coercivity constants, the two-stage and single-stage
    iterations converge to the oracle optimum."""
    box = (-2.0, 2.0)
    for eps, max_rounds in ((0.1, 400), (10.0, 150)):
        sys = make_two_agent_scalar(eps)
        D = pc.grid_gradient_bound(sys, box)
        lam, gamma = 100.0, pc.default_schedule(sys, box)
        F = pc.reward_field(sys)
        c1 = pc.estimate_cocoercivity(F, box, 2)

        def residual_field(u_flat, sys=sys, F=F):
            u = u_flat.reshape(2, 1)
            upd = pc.two_stage_update(sys, u, 100.0, 1.0)
            return F(u_flat) - F(upd.u_hat.ravel())

        c2 = pc.estimate_cocoercivity(lambda U: np.array([residual_field(u) for u in U]),
                                      box, 2, n_pairs=200)
        assert gamma < 2.0 * min(c1, c2)

        u = np.zeros((2, 1))
        for _ in range(max_rounds):
            upd = pc.two_stage_update(sys, u, lam, gamma)
            gap = float(np.linalg.norm(upd.u_hat - u))
            assert gap <= sys.N * D / lam + 1e-9
            delta = float(np.linalg.norm(upd.u - u))
            u = upd.u
            if delta < 1e-10:
                break
        opt = pc.joint_welfare_opt(sys)
        np.testing.assert_allclose(u, opt.u_star, atol=1e-6)

    weak = make_two_agent_scalar(0.1)
    opt = pc.joint_welfare_opt(weak)
    single = pc.run_stage(weak, np.zeros((2, 1)),
                          pc.PollingConfig(mode="single_stage", box=box,
                                           max_rounds=2000))
    assert single.converged
    np.testing.assert_allclose(single.u_final, opt.u_star, atol=1e-6)


# --------------------------------------------------------------- criterion 8

def test_c08_flat_space_detection():
    """Quadratic-utility trajectories fit a connection with vanishing
    quadratic part and tiny residual; state-action cross terms produce
    clearly nonzero transport coefficients."""
    rng = fresh_rng()
    d = 2
    dyn = pc.LinearDynamics(A=rng.normal(size=(d, d)), B=rng.normal(size=(d, d)))
    util = pc.QuadraticUtility(Q=random_spd(rng, d), R=random_spd(rng, d),
                               x0=rng.normal(size=d))
    z = rng.normal(size=2 * d)
    samples = []
    for _ in range(40):
        samples.append(pc.TrajectorySample(
            z=z.copy(), xi=util.grad_u(dyn, z[:d], z[d:])))
        z = z + 0.3 * rng.normal(size=2 * d)
    model = pc.fit_connection(samples)
    assert model.gamma_frobenius() < 1e-6
    assert model.residual < 1e-8

    rng = fresh_rng()
    dyn = pc.LinearDynamics(A=np.eye(d), B=np.eye(d))
    K = [0.5 * rng.normal(size=(d, d)) for _ in range(d)]
    cross = pc.cross_term_utility(np.eye(d), np.eye(d), np.zeros(d), K)
    z = rng.normal(size=2 * d)
    samples = []
    for _ in range(80):
        samples.append(pc.TrajectorySample(
            z=z.copy(), xi=cross.grad_u(dyn, z[:d], z[d:])))
        z = z + 0.3 * rng.normal(size=2 * d)
    bent = pc.fit_connection(samples)
    assert bent.gamma_frobenius() > 1e-3


# --------------------------------------------------------------- criterion 9

def test_c09_decomposable_kernel_generalization():
    """The kernel fit of the field of U = -|x|^2 - |u|^2 predicts held-out
    points inside the sampled box to 1e-2 relative error, and two
    gauge-equivalent data sets give predictions equal to 1e-10 at d = 1 and
    to 1e-7 of the largest prediction at d = 2, 3 with a non-diagonal B."""
    rng = fresh_rng()
    d = 2
    dyn = pc.LinearDynamics(A=np.eye(d), B=0.5 * np.eye(d) + 0.1)
    X = rng.uniform(-2, 2, size=(150, d))
    U = rng.uniform(-2, 2, size=(150, d))
    P = (-2.0 * X) @ dyn.B.T + (-2.0 * U)
    model = pc.fit_decomposable((X, U, P), dyn)
    Xh = rng.uniform(-1.5, 1.5, size=(40, d))
    Uh = rng.uniform(-1.5, 1.5, size=(40, d))
    Ph = (-2.0 * Xh) @ dyn.B.T + (-2.0 * Uh)
    pred = pc.predict_field(model, dyn, Xh, Uh)
    assert np.linalg.norm(pred - Ph) / np.linalg.norm(Ph) < 1e-2

    rng = fresh_rng()
    d = 1
    dyn = pc.LinearDynamics(A=np.eye(d), B=2.0 * np.eye(d))
    X = rng.normal(size=(30, d))
    U = rng.normal(size=(30, d))
    c = np.array([0.7])
    P1 = (-2.0 * X) @ dyn.B.T + (-2.0 * U)
    P2 = (-2.0 * X - c) @ dyn.B.T + (-2.0 * U + dyn.B @ c)
    m1 = pc.fit_decomposable((X, U, P1), dyn)
    m2 = pc.fit_decomposable((X, U, P2), dyn)
    probe_x, probe_u = rng.normal(size=(5, d)), rng.normal(size=(5, d))
    np.testing.assert_allclose(pc.predict_field(m1, dyn, probe_x, probe_u),
                               pc.predict_field(m2, dyn, probe_x, probe_u),
                               atol=1e-10)

    for d in (2, 3):
        rng = fresh_rng(d)
        dyn = pc.LinearDynamics(A=np.eye(d), B=rng.normal(size=(d, d)))
        X = rng.normal(size=(30, d))
        U = rng.normal(size=(30, d))
        c = rng.normal(size=d)
        P1 = (-2.0 * X) @ dyn.B.T + (-2.0 * U)
        P2 = (-2.0 * X - c) @ dyn.B.T + (-2.0 * U + dyn.B @ c)
        m1 = pc.fit_decomposable((X, U, P1), dyn)
        m2 = pc.fit_decomposable((X, U, P2), dyn)
        probe_x, probe_u = rng.normal(size=(5, d)), rng.normal(size=(5, d))
        pred1 = pc.predict_field(m1, dyn, probe_x, probe_u)
        pred2 = pc.predict_field(m2, dyn, probe_x, probe_u)
        assert np.max(np.abs(pred1 - pred2)) <= 1e-7 * np.max(np.abs(pred1))


# -------------------------------------------------------------- criterion 10

def test_c10_tracking_error_bound_holds():
    """On a slow-dynamics instance the measured distance between the played
    action and the per-stage equilibrium never exceeds the a priori bound."""
    dyn = pc.LinearDynamics(A=np.eye(1), B=0.1 * np.eye(1))
    lam_B = float(np.max(np.abs(np.linalg.eigvals(dyn.B))))
    assert lam_B <= 0.5
    utils = tuple(pc.QuadraticUtility(Q=np.eye(1), R=np.eye(1), x0=np.array([t]))
                  for t in (1.0, -1.0))
    base = pc.SystemInstance(dynamics=(dyn, dyn), utilities=utils,
                             coupling=pc.pairwise_quadratic_coupling(0.1, 2, 1),
                             states=np.array([[0.5], [-0.25]]))

    def br_round(sys, u):
        return pc.play_simultaneous(sys, u)

    def stage_nash(sys):
        u = np.zeros((2, 1))
        for _ in range(60):
            u = br_round(sys, u)
        return u

    # one-round decay factor of the best-response map, probed column by
    # column (the map is affine in the previous action)
    zero_img = br_round(base, np.zeros((2, 1)))
    cols = []
    for j in range(2):
        e = np.zeros((2, 1))
        e[j, 0] = 1.0
        cols.append((br_round(base, e) - zero_img).ravel())
    M_br = np.column_stack(cols)
    E = [float(np.linalg.norm(np.linalg.matrix_power(M_br, n), 2))
         for n in range(1, 5)]

    # sensitivity of the per-stage equilibrium to the stacked state
    u_origin = stage_nash(pc.replace_states(base, np.zeros((2, 1))))
    h_cols = []
    for j in range(2):
        e = np.zeros((2, 1))
        e[j, 0] = 1.0
        h_cols.append((stage_nash(pc.replace_states(base, e)) - u_origin).ravel())
    h_F = float(np.linalg.norm(np.column_stack(h_cols), 2))

    # dry run to measure the action-norm bound, then replay against it
    def staged_run(n_polls, stages=40):
        u = np.zeros((2, 1))
        states = np.stack([np.asarray(x, dtype=float) for x in base.states])
        errors, norms = [], []
        for _ in range(stages):
            sys = pc.replace_states(base, states)
            for _ in range(n_polls):
                u = br_round(sys, u)
            target = stage_nash(sys)
            errors.append(float(np.linalg.norm(u - target)))
            norms.append(max(np.linalg.norm(u), np.linalg.norm(target)))
            states = np.stack([pc.step(dyn, states[n], u[n]) for n in range(2)])
        return errors, max(norms)

    _, seen = staged_run(1)
    u_m = 1.5 * seen
    bound = pc.tracking_error_bound(lam_B, u_m, h_F, E)
    per_n = [pc.tracking_error_bound(lam_B, u_m, h_F, E[:n + 1])
             for n in range(len(E))]
    n_star = 1 + int(np.argmin(per_n))
    errors, _ = staged_run(n_star)
    assert max(errors) <= bound


# -------------------------------------------------------------- criterion 11

def test_c11_byte_identical_reruns(tmp_path):
    """The same config and seed produce byte-identical trace files, and
    reports that differ only in their wall_time_ms line."""
    cfg = {"N": 3, "d": 2, "seed": 9, "horizon": 3, "coupling_strength": 50.0,
           "safety_radius": 3.0, "noise_std": 0.01,
           "mode": {"mode": "simultaneous", "max_rounds": 500}}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli_main(["simulate", "--config", str(path), "--out", str(out_a),
                     "--quiet"]) == 0
    assert cli_main(["simulate", "--config", str(path), "--out", str(out_b),
                     "--quiet"]) == 0
    assert (out_a / "trace.csv").read_bytes() == (out_b / "trace.csv").read_bytes()
    assert golden_bytes(out_a / "report.json") == golden_bytes(out_b / "report.json")
