"""Dynamics, utilities, coupling terms, and their gradient consistency."""

import numpy as np
import pytest

import pricecoord as pc
from conftest import make_two_agent_scalar, random_spd


def test_linear_dynamics_validation():
    with pytest.raises(ValueError):
        pc.LinearDynamics(A=np.ones((2, 3)), B=np.eye(2))
    with pytest.raises(ValueError):
        pc.LinearDynamics(A=np.eye(2), B=np.eye(3))
    dyn = pc.LinearDynamics(A=2 * np.eye(2), B=np.eye(2))
    assert dyn.d == 2


def test_step_matches_affine_map(rng):
    A = rng.normal(size=(3, 3))
    B = rng.normal(size=(3, 3))
    dyn = pc.LinearDynamics(A=A, B=B)
    x, u, w = rng.normal(size=3), rng.normal(size=3), rng.normal(size=3)
    np.testing.assert_allclose(pc.step(dyn, x, u), A @ x + B @ u, atol=1e-14)
    np.testing.assert_allclose(pc.step(dyn, x, u, w), A @ x + B @ u + w, atol=1e-14)


def test_quadratic_utility_requires_spd():
    with pytest.raises(ValueError):
        pc.QuadraticUtility(Q=-np.eye(2), R=np.eye(2), x0=np.zeros(2))
    with pytest.raises(ValueError):
        pc.QuadraticUtility(Q=np.eye(2), R=np.zeros((2, 2)), x0=np.zeros(2))
    with pytest.raises(ValueError):
        pc.QuadraticUtility(Q=np.array([[1.0, 0.5], [0.0, 1.0]]),
                            R=np.eye(2), x0=np.zeros(2))


def test_quadratic_gradient_matches_finite_differences(rng):
    for d in (1, 2, 3):
        dyn = pc.LinearDynamics(A=rng.normal(size=(d, d)), B=rng.normal(size=(d, d)))
        util = pc.QuadraticUtility(Q=random_spd(rng, d), R=random_spd(rng, d),
                                   x0=rng.normal(size=d))
        pts = [(rng.normal(size=d), rng.normal(size=d)) for _ in range(20)]
        assert pc.utility_gradient_error(util, dyn, pts) < 1e-6


def test_smooth_utility_fd_fallback(rng):
    dyn = pc.LinearDynamics(A=np.eye(2), B=np.eye(2))
    util = pc.SmoothUtility(value_fn=lambda x_next, u: -float(np.sum(x_next ** 4) + u @ u))
    x, u = rng.normal(size=2), rng.normal(size=2)
    g = util.grad_u(dyn, x, u)
    expected = -4.0 * (x + u) ** 3 - 2.0 * u
    np.testing.assert_allclose(g, expected, rtol=1e-5, atol=1e-7)


def test_cross_term_gradient_matches_finite_differences(rng):
    d = 2
    dyn = pc.LinearDynamics(A=rng.normal(size=(d, d)), B=rng.normal(size=(d, d)))
    K = [rng.normal(size=(d, d)) for _ in range(d)]
    util = pc.cross_term_utility(random_spd(rng, d), random_spd(rng, d),
                                 rng.normal(size=d), K)
    pts = [(rng.normal(size=d), rng.normal(size=d)) for _ in range(20)]
    assert pc.utility_gradient_error(util, dyn, pts) < 1e-6


def test_decomposable_gradient_matches_finite_differences(rng):
    d = 3
    dyn = pc.LinearDynamics(A=rng.normal(size=(d, d)), B=rng.normal(size=(d, d)))
    util = pc.decomposable_utility(
        value_x=lambda x: -float(x @ x),
        grad_x=lambda x: -2.0 * x,
        value_u=lambda u: -float(np.sum(np.cosh(u) - 1.0)),
        grad_u=lambda u: -np.sinh(u),
    )
    pts = [(0.5 * rng.normal(size=d), 0.5 * rng.normal(size=d)) for _ in range(20)]
    assert pc.utility_gradient_error(util, dyn, pts) < 1e-6


def test_pairwise_coupling_value_and_gradient(rng):
    N, d = 3, 2
    G = pc.pairwise_quadratic_coupling(0.7, N, d)
    X = rng.normal(size=(N, d))
    expected = -0.7 * sum(
        np.sum((X[i] - X[j]) ** 2) for i in range(N) for j in range(i + 1, N))
    assert np.isclose(G.value(X), expected)
    assert pc.coupling_gradient_error(G, [rng.normal(size=(N, d)) for _ in range(10)]) < 1e-6


def test_zero_coupling_is_identically_zero(rng):
    G = pc.zero_coupling(2, 3)
    X = rng.normal(size=(2, 3))
    assert G.value(X) == 0.0
    np.testing.assert_array_equal(G.grad(X)[1], np.zeros(3))


def test_system_instance_shape_validation():
    dyn = pc.LinearDynamics(A=np.eye(1), B=np.eye(1))
    util = pc.QuadraticUtility(Q=np.eye(1), R=np.eye(1), x0=np.zeros(1))
    with pytest.raises(ValueError):
        pc.SystemInstance(dynamics=(dyn,), utilities=(util, util),
                          coupling=pc.zero_coupling(1, 1), states=np.zeros((1, 1)))
    with pytest.raises(ValueError):
        pc.SystemInstance(dynamics=(dyn,), utilities=(util,),
                          coupling=pc.zero_coupling(2, 1), states=np.zeros((1, 1)))
    with pytest.raises(ValueError):
        pc.SystemInstance(dynamics=(dyn,), utilities=(util,),
                          coupling=pc.zero_coupling(1, 1), states=np.zeros((1, 2)))


@pytest.mark.parametrize("call", [
    lambda sys: pc.replace_states(sys, [np.array([np.nan]), np.zeros(1)]),
    lambda sys: pc.social_welfare(sys, [[np.nan], [0.0]]),
    lambda sys: pc.reward_field(sys)(np.array([[np.nan], [0.0]])),
    lambda sys: pc.best_response(pc.GameSpec(utility=sys.utilities[0]), sys.states[0],
                                 sys.dynamics[0], [np.nan]),
    lambda sys: pc.best_response(pc.GameSpec(utility=sys.utilities[0]), sys.states[0],
                                 sys.dynamics[0], [0.0, 0.0]),
    lambda sys: pc.GameSpec(price=[np.nan]),
    lambda sys: pc.GameSpec(proximal=(1.0, [np.nan])),
    lambda sys: pc.GameSpec(linear_probe=[np.nan]),
], ids=["replace_states", "social_welfare", "reward_field", "best_response_nan_start",
        "best_response_short_start", "game_price", "game_proximal_anchor", "game_linear_probe"])
def test_entry_points_reject_bad_input(call):
    # the inner arithmetic trusts its arrays; these are the checks in front of it
    with pytest.raises(ValueError):
        call(make_two_agent_scalar(0.1))


def test_replace_states_is_nonmutating():
    sys = make_two_agent_scalar(0.1)
    u = np.array([[0.25], [-0.5]])
    X_next = pc.joint_next_state(sys, u)
    np.testing.assert_allclose(X_next, u)  # A = B = I at x = 0
    stepped = pc.replace_states(sys, X_next)
    np.testing.assert_allclose(stepped.states, u)
    np.testing.assert_array_equal(sys.states, np.zeros((2, 1)))


def test_joint_action_accepts_flat_and_matrix():
    sys = make_two_agent_scalar(0.1)
    U = pc.joint_action(sys, [0.25, -0.5])
    np.testing.assert_allclose(U, np.array([[0.25], [-0.5]]))
    with pytest.raises(ValueError):
        pc.joint_action(sys, np.zeros(3))
