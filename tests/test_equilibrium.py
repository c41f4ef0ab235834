"""VI iteration, co-coercivity, play operators, bounds."""

import itertools

import numpy as np
import pytest

import pricecoord as pc
from conftest import make_two_agent_scalar, random_quadratic_instance, scalar_nash
from per_agent import coupling_slice, response


# ------------------------------------------------------------- VI iteration

def _affine_field(b):
    return lambda u: b - u


def test_vi_converges_in_one_step_at_unit_tau():
    b = np.array([2.0, -1.0])
    u, trace = pc.vi_project_iterate(_affine_field(b), np.zeros(2), 1.0)
    np.testing.assert_allclose(u, b, atol=1e-12)
    assert len(trace) == 1


def test_vi_converges_for_tau_below_two():
    b = np.array([1.0, 0.5, -0.25])
    for tau in (0.5, 1.5, 1.9):
        u, _ = pc.vi_project_iterate(_affine_field(b), np.zeros(3), tau, tol=1e-10)
        np.testing.assert_allclose(u, b, atol=1e-8)


def test_vi_diverges_beyond_two():
    b = np.ones(1)
    with pytest.raises(pc.NonConvergenceError) as exc:
        pc.vi_project_iterate(_affine_field(b), np.zeros(1), 2.5, max_iter=50)
    assert exc.value.reason == "max_rounds"
    assert len(exc.value.trace) == 50
    # residual grew, it did not stall near the solution
    assert exc.value.trace[-1][1] > exc.value.trace[0][1]


def test_vi_respects_box_constraint():
    # b outside the box: the VI solution is the boundary point
    b = np.array([2.0, -3.0])
    u, _ = pc.vi_project_iterate(_affine_field(b), np.zeros(2), 0.7, box=(-1.0, 1.0))
    np.testing.assert_allclose(u, [1.0, -1.0], atol=1e-8)


def test_vi_zero_rounds_when_started_at_solution():
    b = np.array([0.5])
    u, trace = pc.vi_project_iterate(_affine_field(b), b.copy(), 1.0)
    assert trace == []
    np.testing.assert_allclose(u, b)


@pytest.mark.parametrize("tau", [-0.1, 0.0, np.inf, np.nan])
def test_vi_rejects_nonpositive_or_nonfinite_tau(tau):
    with pytest.raises(ValueError, match="tau"):
        pc.vi_project_iterate(_affine_field(np.ones(1)), np.zeros(1), tau)


# ------------------------------------------------------------ co-coercivity

def _rows(field):
    """A field on single flat points, applied to each row of a batch."""
    return lambda U: np.array([field(u) for u in U])


def test_cocoercivity_identity_field():
    c_hat = pc.estimate_cocoercivity(lambda U: 3.0 - U, (-2.0, 2.0), 3)
    assert c_hat > 0
    assert np.isclose(c_hat, 1.0, rtol=1e-6)


def test_cocoercivity_spd_field_matches_eigenvalue(rng):
    from conftest import random_spd
    for d in (2, 4):
        M = random_spd(rng, d, 0.5, 3.0)
        c_true = 1.0 / np.max(np.linalg.eigvalsh(M))
        c_hat = pc.estimate_cocoercivity(_rows(lambda u: -M @ u), (-5.0, 5.0), d,
                                         n_pairs=2000)
        assert c_hat > 0
        assert abs(c_hat - c_true) <= 0.05 * c_true


def test_cocoercivity_rotation_is_flagged():
    R = np.array([[0.0, -1.0], [1.0, 0.0]])
    assert not pc.estimate_cocoercivity(_rows(lambda u: R @ u), (-1.0, 1.0), 2) > 0


def test_cocoercivity_constant_field_rejected():
    with pytest.raises(ValueError, match="degenerate"):
        pc.estimate_cocoercivity(_rows(lambda u: np.ones(2)), (-1.0, 1.0), 2)


def _loop_cocoercivity(F, box, m, n_pairs=500):
    """The estimate one pair at a time, the reference for the batched one."""
    lo, hi = box
    rng = np.random.default_rng(0)
    best = np.inf
    for _ in range(n_pairs):
        x = lo + (hi - lo) * rng.random(m)
        y = lo + (hi - lo) * rng.random(m)
        dF = F(x) - F(y)
        denom = float(dF @ dF)
        if denom >= 1e-24:
            best = min(best, float(-(dF @ (x - y))) / denom)
    return best


@pytest.mark.parametrize("coupling_spec", ["separation_barrier", "consensus_quadratic"])
@pytest.mark.parametrize("N", [2, 5, 12])
def test_cocoercivity_batch_equals_the_loop_over_pairs(coupling_spec, N):
    sys = pc.generate(pc.config_from_dict({"N": N, "d": 2, "seed": 13, "coupling_strength": 3.0,
                                           "safety_radius": 8.0,
                                           "coupling_spec": coupling_spec}))
    F = pc.reward_field(sys)
    box = (-20.0, 20.0)
    assert pc.estimate_cocoercivity(F, box, N * 2) == _loop_cocoercivity(F, box, N * 2)


def test_default_schedule_uses_estimated_constant():
    # two-agent scalar field is b - M u with eigenvalues {2, 2 + 4 eps};
    # c = 1/2.4 at eps = 0.1, so tau = min(0.9 * 2c, 1) = 0.75
    sys = make_two_agent_scalar(0.1)
    tau = pc.default_schedule(sys, (-2.0, 2.0))
    assert abs(tau - 0.75) < 0.01


def test_default_schedule_rejects_an_overflowing_box():
    # an affine field: its constant does not depend on the box, but on
    # (-1e300, 1e300) every sampled product overflows
    cfg = pc.config_from_dict({"N": 3, "d": 2, "seed": 13, "coupling_strength": 0.5,
                               "coupling_spec": "consensus_quadratic",
                               "utility_spec": "quadratic_random"})
    sys = pc.generate(cfg)
    assert abs(pc.default_schedule(sys, cfg.box) - 0.464) < 1e-3
    with pytest.raises(ValueError, match="not finite on the box"):
        pc.default_schedule(sys, (-1e300, 1e300))


# ------------------------------------------------------------- reward field

def test_reward_field_is_welfare_gradient(rng):
    # utilities plus a shared coupling form an exact potential: the stacked
    # agent payoff gradients equal the welfare gradient
    sys = random_quadratic_instance(rng, N=3, d=2, coupling=0.4)
    F = pc.reward_field(sys)
    for _ in range(5):
        u = rng.normal(size=6)
        g = pc.fd_gradient(lambda v: pc.joint_welfare(sys, v.reshape(3, 2)), u)
        np.testing.assert_allclose(F(u), g, rtol=1e-5, atol=1e-6)


@pytest.mark.parametrize("utility_spec", ["quadratic_random", "cross_term"])
def test_reward_field_answers_in_the_input_shape(rng, utility_spec):
    # the README instance, and the same fleet with SmoothUtility agents
    sys = pc.generate(pc.config_from_dict({"N": 3, "d": 2, "seed": 13,
                                           "coupling_strength": 50.0, "safety_radius": 6.0,
                                           "utility_spec": utility_spec}))
    F = pc.reward_field(sys)
    U = rng.normal(size=(3, 2))
    assert F(U).shape == (3, 2)
    assert np.array_equal(F(U.ravel()), F(U).ravel())


def test_one_reward_field_evaluation_steps_the_fleet_once(rng, monkeypatch):
    # the utility and the coupling derivative share the rows' next states
    sys = pc.generate(pc.config_from_dict({"N": 3, "d": 2, "seed": 13,
                                           "coupling_strength": 50.0, "safety_radius": 6.0}))
    F = pc.reward_field(sys)
    calls = []
    real = pc.equilibrium._fleet_step
    monkeypatch.setattr(pc.equilibrium, "_fleet_step",
                        lambda *args: calls.append(args) or real(*args))
    F(rng.normal(size=(3, 2)))
    assert len(calls) == 1


_ROUND_INSTANCES = {
    "readme_barrier": {"N": 3, "d": 2, "seed": 13, "coupling_strength": 50.0,
                       "safety_radius": 6.0},
    "consensus": {"N": 3, "d": 2, "seed": 13, "coupling_spec": "consensus_quadratic",
                  "coupling_strength": 0.5},
    "cross_term": {"N": 3, "d": 2, "seed": 13, "coupling_strength": 50.0,
                   "safety_radius": 6.0, "utility_spec": "cross_term"},
    "decomposable_smooth": {"N": 3, "d": 2, "seed": 13, "coupling_strength": 50.0,
                            "safety_radius": 6.0, "utility_spec": "decomposable_smooth"},
}


def _round_instance(name):
    """(instance, a joint action inside its coupling's reach) by name."""
    if name == "two_agent_scalar":
        return make_two_agent_scalar(0.1), np.zeros((2, 1))
    if name == "random_dynamics":
        # general A and B, so that a product's order shows in its bits, under
        # an active barrier
        base = random_quadratic_instance(np.random.default_rng(8), N=4, d=2)
        return (pc.SystemInstance(base.dynamics, base.utilities,
                                  pc.separation_barrier_coupling(0.5, 1.5, 4, 2), base.states),
                np.zeros((4, 2)))
    sys = pc.generate(pc.config_from_dict(_ROUND_INSTANCES[name]))
    # where the agents' next states overlap, inside the barrier
    return sys, -7.0 * (np.array(sys.states) - np.mean(sys.states, axis=0))


@pytest.mark.parametrize("instance", ["readme_barrier", "consensus", "cross_term",
                                      "random_dynamics"])
def test_fleet_derivative_equals_the_loop_over_agents(instance, rng):
    sys = _round_instance(instance)[0]
    U = 5.0 * rng.normal(size=(4, sys.N, sys.d))
    G = sys.coupling.grad(pc.joint_next_state(sys, U[0]))
    loop_field = [sys.utilities[n].grad_u(sys.dynamics[n], sys.states[n], U[0, n])
                  + sys.dynamics[n].B.T @ G[n] for n in range(sys.N)]
    loop_prices = [sys.utilities[n].grad_u(sys.dynamics[n], sys.states[n], U[0, n])
                   for n in range(sys.N)]
    F = pc.reward_field(sys)
    assert np.array_equal(F(U[0]), loop_field)
    assert np.array_equal(pc.price_from_target(sys, U[0]), loop_prices)
    assert np.array_equal(F(U), [F(Uk) for Uk in U])


def test_coupling_slice_freezes_opponents(rng):
    sys = random_quadratic_instance(rng, N=3, d=2, coupling=0.7)
    u_frozen = rng.normal(size=(3, 2))
    value, grad, _ = coupling_slice(sys, pc.joint_next_state(sys, u_frozen), 1)
    u1 = rng.normal(size=2)
    X = pc.joint_next_state(sys, u_frozen)
    X[1] = pc.step(sys.dynamics[1], sys.states[1], u1)
    assert np.isclose(value(u1), sys.coupling.value(X))
    np.testing.assert_allclose(grad(u1),
                               sys.dynamics[1].B.T @ sys.coupling.grad(X)[1],
                               atol=1e-12)


def test_simultaneous_round_steps_the_frozen_fleet_once(rng, monkeypatch):
    sys = random_quadratic_instance(rng, N=5, d=2, coupling=0.2)
    calls = []
    real = pc.equilibrium.joint_next_state

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(pc.equilibrium, "joint_next_state", counted)
    pc.play_simultaneous(sys, rng.normal(size=(5, 2)))
    assert len(calls) == 1


# ------------------------------------------------------------ play operators

def test_simultaneous_play_contracts_to_nash():
    sys = make_two_agent_scalar(0.1)
    u = np.zeros((2, 1))
    for _ in range(40):
        u = pc.play_simultaneous(sys, u)
    np.testing.assert_allclose(u, scalar_nash(0.1), atol=1e-8)


def test_sequential_play_updates_one_agent_per_call():
    sys = make_two_agent_scalar(0.1)
    u0 = np.zeros((2, 1))
    u1 = pc.play_sequential(sys, u0, 0)
    assert u1[0, 0] != 0.0 and u1[1, 0] == 0.0
    u2 = pc.play_sequential(sys, u1, 1)
    assert u2[1, 0] != 0.0
    np.testing.assert_array_equal(u2[0], u1[0])


def test_two_stage_update_probe_identities():
    sys = make_two_agent_scalar(0.1)
    lam, gamma = 50.0, 0.75
    u_prev = np.array([[0.3], [-0.2]])
    upd = pc.two_stage_update(sys, u_prev, lam, gamma)
    X_hat = pc.joint_next_state(sys, upd.u_hat)
    for n in range(2):
        g_true = sys.utilities[n].gradient_u(X_hat[n], upd.u_hat[n], sys.dynamics[n])
        # extracted utility gradient matches the analytic one
        np.testing.assert_allclose(upd.utility_grads[n], g_true, atol=1e-6)
        # stage-1 stationarity (opponents frozen at the anchor):
        # grad U + slice grad = lam (u_hat - anchor)
        slice_grad = coupling_slice(sys, pc.joint_next_state(sys, u_prev), n)[1]
        resid = g_true + slice_grad(upd.u_hat[n]) - lam * (upd.u_hat[n] - u_prev[n])
        np.testing.assert_allclose(resid, 0.0, atol=1e-6)
        # stage-2 probe lands on anchor + gamma * estimated welfare gradient,
        # with the coupling part re-evaluated at the stage-1 responses
        g_coup = sys.dynamics[n].B.T @ sys.coupling.grad(X_hat)[n]
        target = u_prev[n] + gamma * (upd.utility_grads[n] + g_coup)
        np.testing.assert_allclose(upd.u[n], target, atol=1e-7)


def test_proximal_response_stays_within_gap_bound():
    sys = make_two_agent_scalar(0.1)
    D = pc.grid_gradient_bound(sys, (-2.0, 2.0))
    for lam in (10.0, 100.0, 1000.0):
        upd = pc.two_stage_update(sys, np.zeros((2, 1)), lam, 0.5)
        gap = float(np.linalg.norm(upd.u_hat - np.zeros((2, 1))))
        assert gap <= sys.N * D / lam + 1e-9


def test_single_stage_freezes_slice_at_auxiliary_sequence():
    sys = make_two_agent_scalar(0.1)
    lam = 20.0
    u_prev = np.array([[0.1], [0.2]])
    u_tilde_prev = np.array([[-0.4], [0.6]])
    upd = pc.single_stage_update(sys, u_prev, u_tilde_prev, lam, 0.5)
    for n in range(2):
        # responses (.u) anchor at u_prev but see opponents frozen at the
        # coordinator sequence u_tilde_prev
        slice_grad = coupling_slice(sys, pc.joint_next_state(sys, u_tilde_prev), n)[1]
        x_next = pc.step(sys.dynamics[n], sys.states[n], upd.u[n])
        g = sys.utilities[n].gradient_u(x_next, upd.u[n], sys.dynamics[n])
        resid = g + slice_grad(upd.u[n]) - lam * (upd.u[n] - u_prev[n])
        np.testing.assert_allclose(resid, 0.0, atol=1e-6)


def test_tikhonov_play_fixes_nash():
    sys = make_two_agent_scalar(10.0)
    nash = scalar_nash(10.0)
    u = pc.play_tikhonov(sys, nash, 20.0)
    np.testing.assert_allclose(u, nash, atol=1e-8)


_ROUND_FUNCTIONS = {
    "play_simultaneous": lambda sys, u: pc.play_simultaneous(sys, u),
    "play_sequential": lambda sys, u: pc.play_sequential(sys, u, 0),
    "play_tikhonov": lambda sys, u: pc.play_tikhonov(sys, u, 20.0),
    "two_stage_update": lambda sys, u: pc.two_stage_update(sys, u, 100.0, 0.5),
    "single_stage_update": lambda sys, u: pc.single_stage_update(sys, u, np.zeros((2, 1)),
                                                                 100.0, 0.5),
}


@pytest.mark.parametrize("u_prev, match", [
    pytest.param([[0.5], [np.nan]], "non-finite", id="nan"),
    pytest.param([[np.inf], [0.0]], "non-finite", id="inf"),
    pytest.param(np.zeros(3), "reshape", id="too_long"),
    pytest.param(np.zeros((1, 1)), "reshape", id="too_short"),
])
@pytest.mark.parametrize("name", list(_ROUND_FUNCTIONS))
def test_a_round_function_checks_its_joint_action(name, u_prev, match):
    # run_stage checks its start once, so the public rounds are where an
    # outside caller's joint action is checked
    with pytest.raises(ValueError, match=match):
        _ROUND_FUNCTIONS[name](make_two_agent_scalar(0.1), u_prev)


# ------------------------------------------------------------------- bounds

# ------------------------------------------- stacked rounds vs a loop over agents

def _loop_responses(sys, frozen, anchors, lam=None):
    """The per-agent loop the stacked Jacobi round replaces: every agent
    against opponents frozen at `frozen`, and the frozen next states."""
    X = pc.joint_next_state(sys, frozen)
    out = anchors.copy()
    for n in range(sys.N):
        out[n] = response(sys, X, anchors, n, lam)
    return out, X


def _loop_sweep(sys, U):
    """One Gauss-Seidel sweep, the loop sequential play replaces: agent
    n = 0, 1, ... best-responds to everyone's latest action, from its own."""
    U = U.copy()
    for n in range(sys.N):
        U[n] = response(sys, pc.joint_next_state(sys, U), U, n)
    return U


def _loop_proximal_round(sys, U, frozen, lam, gamma):
    resp, X = _loop_responses(sys, frozen, U, lam)
    G = sys.coupling.grad(pc.joint_next_state(sys, resp))
    g_util = lam * (resp - U) - np.array([coupling_slice(sys, X, n)[1](r)
                                          for n, r in enumerate(resp)])
    g_coup = np.array([dyn.B.T @ g for dyn, g in zip(sys.dynamics, G)])
    return resp, U + gamma * (g_util + g_coup), g_util


def _loop_round(sys, mode, U, U_tilde, lam, gamma):
    """(next joint action, next coordinator sequence, the round's other
    outputs) of one round, from the per-agent loop."""
    if mode == "simultaneous":
        return _loop_responses(sys, U, U)[0], U_tilde, ()
    if mode == "sequential":
        return _loop_sweep(sys, U), U_tilde, ()
    if mode == "tikhonov":
        return _loop_responses(sys, U, U, lam)[0], U_tilde, ()
    if mode == "two_stage":
        u_hat, u, g_util = _loop_proximal_round(sys, U, U, lam, gamma)
        return u, U_tilde, (u_hat, g_util)
    resp, u_tilde, g_util = _loop_proximal_round(sys, U, U_tilde, lam, gamma)
    return resp, u_tilde, (g_util, pc.reward_field(sys)(resp))


def _stacked_round(sys, mode, U, U_tilde, lam, gamma):
    if mode == "simultaneous":
        return pc.play_simultaneous(sys, U), U_tilde, ()
    if mode == "sequential":
        for t in range(sys.N):
            U = pc.play_sequential(sys, U, t)
        return U, U_tilde, ()
    if mode == "tikhonov":
        return pc.play_tikhonov(sys, U, lam), U_tilde, ()
    if mode == "two_stage":
        upd = pc.two_stage_update(sys, U, lam, gamma)
        return upd.u, U_tilde, (upd.u_hat, upd.utility_grads)
    upd = pc.single_stage_update(sys, U, U_tilde, lam, gamma)
    return upd.u, upd.u_tilde, (upd.utility_grads, upd.field)


@pytest.mark.parametrize("mode", ["simultaneous", "two_stage", "single_stage", "tikhonov",
                                  "sequential"])
@pytest.mark.parametrize("instance", list(_ROUND_INSTANCES) + ["random_dynamics",
                                                              "two_agent_scalar"])
def test_stacked_rounds_equal_the_loop_over_agents(instance, mode):
    sys, U = _round_instance(instance)
    U_tilde = U.copy()
    for lam, gamma in ((100.0, 0.5), (5.0, 0.2)):
        for _ in range(4):
            expected = _loop_round(sys, mode, U, U_tilde, lam, gamma)
            got = _stacked_round(sys, mode, U, U_tilde, lam, gamma)
            for e, g in zip((expected[0], expected[1], *expected[2]),
                            (got[0], got[1], *got[2])):
                assert np.array_equal(e, g)
            U, U_tilde = got[0], got[1]


def test_stacked_round_failure_names_the_loop_agent_and_its_state():
    # 20 vehicles on the 10 m waypoint circle with a 6 m safety radius: in
    # the first round agent 0's response settles on a non-maximum, in a
    # Jacobi round and in a Gauss-Seidel sweep alike
    sys = pc.generate(pc.config_from_dict({"N": 20, "d": 2, "seed": 13,
                                           "coupling_strength": 50.0, "safety_radius": 6.0}))
    U = np.zeros((sys.N, sys.d))
    for mode, loop_round in (("simultaneous", lambda: _loop_responses(sys, U, U)),
                             ("sequential", lambda: _loop_sweep(sys, U))):
        with pytest.raises(pc.BestResponseError) as loop:
            loop_round()
        with pytest.raises(pc.BestResponseError) as stacked:
            pc.run_stage(sys, U, pc.PollingConfig(mode=mode))
        assert (stacked.value.agent, stacked.value.round) == (0, 1)
        assert loop.value.agent == 0
        assert str(stacked.value) == str(loop.value)
        assert "not a local maximum" in str(stacked.value)
        assert np.array_equal(stacked.value.last_iterate, loop.value.last_iterate)
        assert stacked.value.residual == loop.value.residual


def test_grid_gradient_bound_hand_value():
    # |F_1| on [-2,2]^2 peaks at u = (-2, 2): 2*3 + 0.2*4 = 6.8
    sys = make_two_agent_scalar(0.1)
    D = pc.grid_gradient_bound(sys, (-2.0, 2.0))
    assert np.isclose(D, 6.8, atol=1e-12)
    # three scalar agents (x_next = u), U_n = -(u_n - a_n)^2 - u_n^2, under a
    # consensus coupling: F_n(u) = -2 (u_n - a_n) - 2 u_n + sum_m w (u_n - u_m)
    # with w = -2 eps, the pair sum in index order; the bound is the max
    # |F_n| over the 51^3 grid points
    dyn = pc.LinearDynamics(A=np.eye(1), B=np.eye(1))
    targets = (1.0, -1.0, 0.5)
    sys = pc.SystemInstance((dyn,) * 3,
                            tuple(pc.QuadraticUtility(np.eye(1), np.eye(1), [a]) for a in targets),
                            pc.pairwise_quadratic_coupling(0.3, 3, 1), np.zeros((3, 1)))
    w = -2.0 * 0.3
    axis = [float(v) for v in np.linspace(-2.0, 2.0, 51)]
    loop = max(abs(-2.0 * (un - a) - 2.0 * un + (w * (un - u[0]) + w * (un - u[1])
                                                  + w * (un - u[2])))
               for u in itertools.product(axis, repeat=3) for un, a in zip(u, targets))
    assert pc.grid_gradient_bound(sys, (-2.0, 2.0)) == loop


def test_grid_gradient_bound_dimension_limit(rng):
    sys = random_quadratic_instance(rng, N=2, d=2)
    with pytest.raises(ValueError, match="N\\*d"):
        pc.grid_gradient_bound(sys, (-1.0, 1.0))


def test_tracking_error_bound_hand_values():
    # n = 1 drift terms cancel: bound = 2 E_1 u_m when E_1 is the minimizer
    assert np.isclose(pc.tracking_error_bound(0.5, 1.0, 2.0, [0.5, 0.1]), 1.0)
    # lambda_B = 0: pure static decay
    assert np.isclose(pc.tracking_error_bound(0.0, 2.0, 7.0, [0.3, 0.2, 0.05]), 0.2)
    with pytest.raises(ValueError):
        pc.tracking_error_bound(1.0, 1.0, 1.0, [0.1])
    with pytest.raises(ValueError):
        pc.tracking_error_bound(-0.1, 1.0, 1.0, [0.1])
    with pytest.raises(ValueError):
        pc.tracking_error_bound(0.5, 1.0, 1.0, [])


@pytest.mark.parametrize("args, name", [
    ((0.5, 1.0, np.nan, [0.1]), "h_F"),
    ((0.5, 1.0, 1.0, [np.nan]), "E"),
    ((0.5, np.nan, 1.0, [0.1]), "u_m"),
    ((0.5, np.inf, 1.0, [0.1]), "u_m"),
    ((0.5, 1.0, -1.0, [0.1]), "h_F"),
    ((0.5, 1.0, 1.0, [0.1, np.inf]), "E"),
    ((0.5, 1.0, 1.0, [0.1, -0.2]), "E"),
])
def test_tracking_error_bound_rejects_a_non_finite_or_negative_input(args, name):
    with pytest.raises(ValueError, match=f"^{name} must be finite and >= 0"):
        pc.tracking_error_bound(*args)
