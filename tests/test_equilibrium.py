"""VI iteration, co-coercivity, play operators, bounds."""

import numpy as np
import pytest

import pricecoord as pc
from conftest import make_two_agent_scalar, random_quadratic_instance, scalar_nash


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

def test_cocoercivity_identity_field():
    c_hat = pc.estimate_cocoercivity(lambda u: 3.0 - u, (-2.0, 2.0), 3)
    assert c_hat > 0
    assert np.isclose(c_hat, 1.0, rtol=1e-6)


def test_cocoercivity_spd_field_matches_eigenvalue(rng):
    from conftest import random_spd
    for d in (2, 4):
        M = random_spd(rng, d, 0.5, 3.0)
        c_true = 1.0 / np.max(np.linalg.eigvalsh(M))
        c_hat = pc.estimate_cocoercivity(lambda u: -M @ u, (-5.0, 5.0), d, n_pairs=2000)
        assert c_hat > 0
        assert abs(c_hat - c_true) <= 0.05 * c_true


def test_cocoercivity_rotation_is_flagged():
    R = np.array([[0.0, -1.0], [1.0, 0.0]])
    assert not pc.estimate_cocoercivity(lambda u: R @ u, (-1.0, 1.0), 2) > 0


def test_cocoercivity_constant_field_rejected():
    with pytest.raises(ValueError, match="degenerate"):
        pc.estimate_cocoercivity(lambda u: np.ones(2), (-1.0, 1.0), 2)


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
    F = pc.flat_reward_field(sys)
    for _ in range(5):
        u = rng.normal(size=6)
        g = pc.fd_gradient(lambda v: pc.joint_welfare(sys, v.reshape(3, 2)), u)
        np.testing.assert_allclose(F(u), g, rtol=1e-5, atol=1e-6)


def test_coupling_slice_freezes_opponents(rng):
    sys = random_quadratic_instance(rng, N=3, d=2, coupling=0.7)
    u_frozen = rng.normal(size=(3, 2))
    slc = pc.coupling_slices(sys, u_frozen)[1]
    u1 = rng.normal(size=2)
    X = pc.joint_next_state(sys, u_frozen)
    X[1] = pc.step(sys.dynamics[1], sys.states[1], u1)
    assert np.isclose(slc.value(u1), sys.coupling.value(X))
    np.testing.assert_allclose(slc.grad(u1),
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
        slc = pc.coupling_slices(sys, u_prev)[n]
        resid = g_true + slc.grad(upd.u_hat[n]) - lam * (upd.u_hat[n] - u_prev[n])
        np.testing.assert_allclose(resid, 0.0, atol=1e-6)
        # stage-2 probe lands on anchor + gamma * estimated welfare gradient,
        # with the coupling part re-evaluated at the stage-1 responses
        g_coup = sys.dynamics[n].B.T @ sys.coupling.grad(X_hat)[n]
        target = pc.stage2_probe_target(u_prev[n], gamma, upd.utility_grads[n], g_coup)
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
        slc = pc.coupling_slices(sys, u_tilde_prev)[n]
        x_next = pc.step(sys.dynamics[n], sys.states[n], upd.u[n])
        g = sys.utilities[n].gradient_u(x_next, upd.u[n], sys.dynamics[n])
        resid = g + slc.grad(upd.u[n]) - lam * (upd.u[n] - u_prev[n])
        np.testing.assert_allclose(resid, 0.0, atol=1e-6)


def test_tikhonov_play_fixes_nash():
    sys = make_two_agent_scalar(10.0)
    nash = scalar_nash(10.0)
    u = pc.play_tikhonov(sys, nash, 20.0)
    np.testing.assert_allclose(u, nash, atol=1e-8)


# ------------------------------------------------------------------- bounds

def test_grid_gradient_bound_hand_value():
    # |F_1| on [-2,2]^2 peaks at u = (-2, 2): 2*3 + 0.2*4 = 6.8
    sys = make_two_agent_scalar(0.1)
    D = pc.grid_gradient_bound(sys, (-2.0, 2.0))
    assert np.isclose(D, 6.8, atol=1e-12)


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
