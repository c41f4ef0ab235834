"""Posed games and the damped-Newton best response."""

import numpy as np
import pytest

import pricecoord as pc
from pricecoord.equilibrium import _payoff_derivatives
from conftest import flat_utility, make_two_agent_scalar, make_utility, random_spd


def _scalar_setup():
    dyn = pc.LinearDynamics(A=np.eye(1), B=np.eye(1))
    util = pc.QuadraticUtility(Q=np.eye(1), R=np.eye(1), x0=np.array([2.0]))
    return dyn, util


def test_game_spec_requires_a_term():
    with pytest.raises(ValueError):
        pc.GameSpec()


def test_payoff_value_sums_terms():
    dyn, util = _scalar_setup()
    x = np.zeros(1)
    u = np.array([0.5])
    game = pc.GameSpec(utility=util, price=np.array([0.3]))
    expected = util.value(pc.step(dyn, x, u), u) - 0.3 * 0.5
    assert np.isclose(pc.agents.payoff_value(game, x, dyn, u), expected)


def test_payoff_gradient_matches_fd(rng):
    d = 2
    dyn = pc.LinearDynamics(A=rng.normal(size=(d, d)), B=rng.normal(size=(d, d)))
    util = pc.QuadraticUtility(Q=random_spd(rng, d), R=random_spd(rng, d),
                               x0=rng.normal(size=d))
    game = pc.GameSpec(utility=util, price=rng.normal(size=d))
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
    # a Tikhonov round poses the proximal gradient -lam (u - anchor):
    # stationarity gives |u - anchor| = |grad U(u)| / lam <= D / lam
    dyn, util = _scalar_setup()
    sys = pc.SystemInstance((dyn,), (util,), pc.zero_coupling(1, 1), (np.zeros(1),))
    anchor = np.array([[0.25]])
    lam = 2e4
    u = pc.play_tikhonov(sys, anchor, lam)[0]
    grad_bound = abs(util.grad_u(dyn, np.zeros(1), anchor[0])[0]) + 1.0
    assert abs(u[0] - anchor[0, 0]) <= grad_bound / lam
    assert abs(u[0] - 1.0) > 0.5  # far from the unconstrained utility optimum


def test_best_response_rejects_convex_payoff():
    dyn = pc.LinearDynamics(A=np.eye(1), B=np.eye(1))
    util = pc.SmoothUtility(value_fn=lambda x_next, u: float(u @ u))
    with pytest.raises(pc.BestResponseError):
        pc.best_response(pc.GameSpec(utility=util), np.zeros(1), dyn, np.ones(1))


_TERMS = ("utility", "price")


def _fd_instance(family):
    """(rng, a 3-agent instance in d = 3 with general A and B, the family's
    utilities and a barrier whose 2.5 radius reaches the sampled states)."""
    rng = np.random.default_rng(3)
    N, d = 3, 3
    return rng, pc.SystemInstance(
        dynamics=tuple(pc.LinearDynamics(A=np.eye(d) + 0.3 * rng.normal(size=(d, d)),
                                         B=np.eye(d) + 0.3 * rng.normal(size=(d, d)))
                       for _ in range(N)),
        utilities=tuple(make_utility(family, rng, d) for _ in range(N)),
        coupling=pc.separation_barrier_coupling(3.0, 2.5, N, d),
        states=rng.normal(size=(N, d)))


def _assert_symmetrized_fd(H, fd):
    fd = 0.5 * (fd + fd.T)
    np.testing.assert_allclose(H, fd, rtol=1e-6, atol=1e-6 * max(1.0, float(np.max(np.abs(fd)))))


@pytest.mark.parametrize("terms", [(t,) for t in _TERMS] + [_TERMS])
@pytest.mark.parametrize("family", ["quadratic", "cross_term", "decomposable", "smooth"])
def test_payoff_hessian_matches_fd_of_payoff_gradient(family, terms):
    rng, sys = _fd_instance(family)
    n = 1
    dyn, x = sys.dynamics[n], sys.states[n]
    available = {"utility": sys.utilities[n], "price": rng.normal(size=sys.d)}
    game = pc.GameSpec(**{t: available[t] for t in terms})
    for _ in range(5):
        u = 0.5 * rng.normal(size=sys.d)
        H = pc.agents.payoff_hessian(game, x, dyn, u)
        fd = pc.numerics.fd_jacobian(lambda v: pc.agents.payoff_gradient(game, x, dyn, v), u)
        _assert_symmetrized_fd(H, fd)


@pytest.mark.parametrize("family", ["quadratic", "cross_term", "decomposable", "smooth"])
def test_stacked_payoff_hessian_matches_fd_of_its_gradient(family):
    # the play modes' payoff rows: utility plus the coupling chain-ruled
    # through B, B^T g and B^T H B, against opponents frozen at X
    rng, sys = _fd_instance(family)
    X = pc.joint_next_state(sys, 0.5 * rng.normal(size=(sys.N, sys.d)))
    rows = np.arange(sys.N)
    for _ in range(5):
        V = 0.5 * rng.normal(size=(sys.N, sys.d))
        H = _payoff_derivatives(sys, V, X, rows)[1]
        for n in rows:
            fd = pc.numerics.fd_jacobian(
                lambda v: _payoff_derivatives(sys, v[None], X, rows[n:n + 1])[0][0], V[n])
            _assert_symmetrized_fd(H[n], fd)


@pytest.mark.parametrize("cfg", [
    {"N": 3, "d": 2, "seed": 13, "coupling_strength": 50.0, "safety_radius": 6.0},
    {"N": 3, "d": 2, "seed": 13, "coupling_spec": "consensus_quadratic",
     "coupling_strength": 0.5},
    {"N": 3, "d": 2, "seed": 13, "coupling_strength": 50.0, "safety_radius": 6.0,
     "utility_spec": "cross_term"},
])
def test_closed_form_best_responses_take_no_finite_differences(cfg, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("finite-difference Jacobian evaluated")

    monkeypatch.setattr(pc.model, "fd_jacobian", refuse)
    monkeypatch.setattr(pc.numerics, "fd_jacobian", refuse)
    sys = pc.generate(pc.config_from_dict(cfg))
    U = np.zeros((sys.N, sys.d))
    for _ in range(3):
        U = pc.play_simultaneous(sys, U)
    p = np.ones(sys.d)
    for n in range(sys.N):
        game = pc.GameSpec(utility=sys.utilities[n], price=p)
        x, dyn = sys.states[n], sys.dynamics[n]
        u = pc.best_response(game, x, dyn, U[n])
        assert np.max(np.abs(pc.agents.payoff_gradient(game, x, dyn, u))) <= 1e-9


def test_best_response_stops_at_the_gradient_noise_floor():
    # consensus strength 1e6: the payoff Hessian norm is ~4e4 at |u| ~ 120, so
    # the gradient's rounding floor (~9e-9) lies above the 1e-10 tolerance;
    # agent 1's first response used to fail its line search at 3.0e-10
    sys = pc.generate(pc.config_from_dict(
        {"N": 3, "d": 2, "seed": 13, "coupling_spec": "consensus_quadratic",
         "coupling_strength": 1e6}))
    U = pc.play_simultaneous(sys, np.zeros((sys.N, sys.d)))
    assert np.all(np.isfinite(U)) and np.max(np.abs(U)) > 100.0


def test_best_response_names_a_singular_payoff_hessian():
    dyn = pc.LinearDynamics(A=np.eye(1), B=np.eye(1))
    with pytest.raises(pc.BestResponseError, match="^singular payoff Hessian$") as info:
        pc.best_response(pc.GameSpec(utility=flat_utility()), np.zeros(1), dyn, np.zeros(1))
    np.testing.assert_array_equal(info.value.last_iterate, [0.0])
    assert info.value.residual == 1.0 and info.value.agent is None


def test_play_simultaneous_names_the_agent_with_a_singular_payoff_hessian():
    dyn = pc.LinearDynamics(A=np.eye(1), B=np.eye(1))
    sys = pc.SystemInstance(dynamics=(dyn, dyn), states=(np.zeros(1), np.zeros(1)),
                            utilities=(pc.QuadraticUtility(Q=np.eye(1), R=np.eye(1),
                                                           x0=np.ones(1)),
                                       flat_utility()),
                            coupling=pc.pairwise_quadratic_coupling(0.0, 2, 1))
    with pytest.raises(pc.BestResponseError, match="^singular payoff Hessian$") as info:
        pc.play_simultaneous(sys, np.zeros((2, 1)))
    assert info.value.agent == 1
