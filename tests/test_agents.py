"""Posed games and the damped-Newton best response."""

import numpy as np
import pytest

import pricecoord as pc
from conftest import flat_utility, make_two_agent_scalar, make_utility, random_spd


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
                           grad=lambda u: -(2.0 * u + 4.0 * u ** 3),
                           hess=lambda u: -np.diag(2.0 + 12.0 * u ** 2))
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


_TERMS = ("utility", "price", "coupling", "proximal", "linear_probe")


@pytest.mark.parametrize("terms", [(t,) for t in _TERMS] + [_TERMS])
@pytest.mark.parametrize("family", ["quadratic", "cross_term", "decomposable", "smooth"])
def test_payoff_hessian_matches_fd_of_payoff_gradient(family, terms):
    rng = np.random.default_rng(3)
    N, d = 3, 3
    sys = pc.SystemInstance(
        dynamics=tuple(pc.LinearDynamics(A=np.eye(d) + 0.3 * rng.normal(size=(d, d)),
                                         B=np.eye(d) + 0.3 * rng.normal(size=(d, d)))
                       for _ in range(N)),
        utilities=tuple(make_utility(family, rng, d) for _ in range(N)),
        coupling=pc.separation_barrier_coupling(3.0, 2.5, N, d),
        states=rng.normal(size=(N, d)))
    n = 1
    dyn, x = sys.dynamics[n], sys.states[n]
    available = {"utility": sys.utilities[n], "price": rng.normal(size=d),
                 "coupling": pc.coupling_slices(sys, 0.5 * rng.normal(size=(N, d)))[n],
                 "proximal": (0.7, rng.normal(size=d)), "linear_probe": rng.normal(size=d)}
    game = pc.GameSpec(**{t: available[t] for t in terms})
    for _ in range(5):
        u = 0.5 * rng.normal(size=d)
        H = pc.agents.payoff_hessian(game, x, dyn, u)
        fd = pc.numerics.fd_jacobian(lambda v: pc.agents.payoff_gradient(game, x, dyn, v), u)
        fd = 0.5 * (fd + fd.T)
        np.testing.assert_allclose(H, fd, rtol=1e-6,
                                   atol=1e-6 * max(1.0, float(np.max(np.abs(fd)))))


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
    slices = pc.coupling_slices(sys, U)
    p = np.ones(sys.d)
    for n in range(sys.N):
        game = pc.GameSpec(utility=sys.utilities[n], price=p, coupling=slices[n])
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
