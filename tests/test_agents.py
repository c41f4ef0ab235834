"""Posed games and the damped-Newton best response."""

import numpy as np
import pytest

import pricecoord as pc
from conftest import make_two_agent_scalar, random_spd


def _scalar_setup():
    dyn = pc.LinearDynamics(A=np.eye(1), B=np.eye(1))
    util = pc.QuadraticUtility(Q=np.eye(1), R=np.eye(1), x0=np.array([2.0]))
    return dyn, util


def test_game_spec_requires_a_term():
    with pytest.raises(ValueError):
        pc.GameSpec()
    with pytest.raises(ValueError):
        pc.GameSpec(price=np.zeros(1), proximal=(0.0, np.zeros(1)))


def test_payoff_value_sums_terms():
    dyn, util = _scalar_setup()
    x = np.zeros(1)
    u = np.array([0.5])
    game = pc.GameSpec(utility=util, price=np.array([0.3]),
                       proximal=(2.0, np.array([1.0])),
                       linear_probe=np.array([-1.0]))
    expected = (util.value(pc.step(dyn, x, u), u)
                - 0.3 * 0.5
                - 2.0 * (0.5 - 1.0) ** 2
                - (0.5 - (-1.0)) ** 2)
    assert np.isclose(pc.agents.payoff_value(game, x, dyn, u), expected)


def test_payoff_gradient_matches_fd(rng):
    d = 2
    dyn = pc.LinearDynamics(A=rng.normal(size=(d, d)), B=rng.normal(size=(d, d)))
    util = pc.QuadraticUtility(Q=random_spd(rng, d), R=random_spd(rng, d),
                               x0=rng.normal(size=d))
    slc = pc.CouplingSlice(value=lambda u: -float(np.sum(u ** 2) + np.sum(u ** 4)),
                           grad=lambda u: -(2.0 * u + 4.0 * u ** 3))
    game = pc.GameSpec(utility=util, price=rng.normal(size=d), coupling=slc,
                       proximal=(0.7, rng.normal(size=d)),
                       linear_probe=rng.normal(size=d))
    x = rng.normal(size=d)
    for _ in range(10):
        u = rng.normal(size=d)
        g = pc.agents.payoff_gradient(game, x, dyn, u)
        g_fd = pc.fd_gradient(lambda v: pc.agents.payoff_value(game, x, dyn, v), u)
        np.testing.assert_allclose(g, g_fd, rtol=1e-5, atol=1e-7)


def test_best_response_quadratic_exact():
    # unconstrained maximizer of -(u-2)^2 - u^2 (A=B=I, x=0, x0=2) is u = 1
    dyn, util = _scalar_setup()
    game = pc.GameSpec(utility=util)
    u = pc.best_response(game, np.zeros(1), dyn, np.array([7.0]))
    np.testing.assert_allclose(u, [1.0], atol=1e-9)


def test_best_response_price_shifts_stationarity(rng):
    # at the BR of a priced game the utility gradient equals the price
    d = 2
    dyn = pc.LinearDynamics(A=np.eye(d) + 0.1 * rng.normal(size=(d, d)),
                            B=np.eye(d) + 0.1 * rng.normal(size=(d, d)))
    util = pc.QuadraticUtility(Q=random_spd(rng, d), R=random_spd(rng, d),
                               x0=rng.normal(size=d))
    p = rng.normal(size=d)
    x = rng.normal(size=d)
    u = pc.best_response(pc.GameSpec(utility=util, price=p), x, dyn, np.zeros(d))
    np.testing.assert_allclose(util.grad_u(dyn, x, u), p, atol=1e-8)


def test_best_response_strong_proximal_pins_anchor():
    # stationarity gives |u - anchor| = |grad U(u)| / (2 lam) <= D / (2 lam)
    dyn, util = _scalar_setup()
    anchor = np.array([0.25])
    lam = 1e4
    game = pc.GameSpec(utility=util, proximal=(lam, anchor))
    u = pc.best_response(game, np.zeros(1), dyn, np.zeros(1))
    grad_bound = abs(util.grad_u(dyn, np.zeros(1), anchor)[0]) + 1.0
    assert abs(u[0] - anchor[0]) <= grad_bound / (2.0 * lam)
    assert abs(u[0] - 1.0) > 0.5  # far from the unconstrained utility optimum


def test_best_response_linear_probe_returns_target(rng):
    # -||u - v||^2 alone has BR exactly v
    dyn = pc.LinearDynamics(A=np.eye(3), B=np.eye(3))
    v = rng.normal(size=3)
    u = pc.best_response(pc.GameSpec(linear_probe=v), np.zeros(3), dyn, np.zeros(3))
    np.testing.assert_allclose(u, v, atol=1e-10)


def test_best_response_rejects_convex_payoff():
    dyn = pc.LinearDynamics(A=np.eye(1), B=np.eye(1))
    util = pc.SmoothUtility(value_fn=lambda x_next, u: float(u @ u))
    with pytest.raises(pc.BestResponseError):
        pc.best_response(pc.GameSpec(utility=util), np.zeros(1), dyn, np.ones(1))
