"""Reference welfare maximizer and finite differences."""

import numpy as np
import pytest

import pricecoord as pc
from pricecoord import oracle
from conftest import make_two_agent_scalar, random_quadratic_instance


@pytest.fixture
def welfare_calls(monkeypatch):
    """Counts the oracle's welfare evaluations and Hessians."""
    calls = {"welfare": 0, "hessian": 0}
    joint_welfare, fd_hessian = oracle.joint_welfare, oracle._fd_hessian

    def counted_welfare(*args):
        calls["welfare"] += 1
        return joint_welfare(*args)

    def counted_hessian(*args, **kwargs):
        calls["hessian"] += 1
        return fd_hessian(*args, **kwargs)

    monkeypatch.setattr(oracle, "joint_welfare", counted_welfare)
    monkeypatch.setattr(oracle, "_fd_hessian", counted_hessian)
    return calls


def test_fd_gradient_on_known_functions(rng):
    g = pc.fd_gradient(lambda v: float(v @ v), np.array([1.0, 0.0]))
    np.testing.assert_allclose(g, [2.0, 0.0], atol=1e-9)
    g = pc.fd_gradient(lambda v: 3.0, np.zeros(4))
    np.testing.assert_allclose(g, np.zeros(4), atol=1e-12)
    A = rng.normal(size=(3, 3))
    b = rng.normal(size=3)
    for _ in range(5):
        v = rng.normal(size=3)
        g = pc.fd_gradient(lambda u: float(u @ A @ u + b @ u), v)
        np.testing.assert_allclose(g, (A + A.T) @ v + b, rtol=1e-7, atol=1e-9)


def test_joint_welfare_decoupled_peaks_at_private_optima():
    sys = make_two_agent_scalar(0.0)
    assert np.isclose(pc.joint_welfare(sys, np.array([[1.0], [-1.0]])), 0.0)
    assert pc.joint_welfare(sys, np.zeros((2, 1))) < 0.0


def test_closed_form_matches_known_nash_welfare():
    # welfare optimum of the eps = 0.1 two-agent instance: u = +-(5/6),
    # welfare -1/3 (the coupled optimum, not the private targets)
    sys = make_two_agent_scalar(0.1)
    res = pc.joint_welfare_opt(sys)
    np.testing.assert_allclose(res.u_star, [[5.0 / 6.0], [-5.0 / 6.0]], atol=1e-9)
    assert np.isclose(res.welfare, -1.0 / 3.0, atol=1e-10)
    assert res.method == "closed_form"


def test_grid_cross_checks_closed_form():
    sys = make_two_agent_scalar(0.1)
    closed = pc.joint_welfare_opt(sys)
    grid = pc.joint_welfare_opt(sys, box=(-2.0, 2.0), method="grid")
    np.testing.assert_allclose(grid.u_star, closed.u_star, atol=1e-7)
    assert abs(grid.welfare - closed.welfare) < 1e-10


def test_multistart_cross_checks_closed_form(rng):
    sys = random_quadratic_instance(rng, N=2, d=1, coupling=0.3)
    closed = pc.joint_welfare_opt(sys)
    multi = pc.joint_welfare_opt(sys, box=(-10.0, 10.0), method="newton_multistart")
    np.testing.assert_allclose(multi.u_star, closed.u_star, atol=1e-7)


def test_closed_form_on_random_quadratic_instances(rng):
    # stationarity of the welfare field at the reported optimum
    for trial in range(5):
        sys = random_quadratic_instance(rng, N=2, d=2, coupling=0.2)
        res = pc.joint_welfare_opt(sys)
        field = pc.flat_reward_field(sys)
        # welfare field = utility gradients + coupling part; welfare optimum of
        # a shared coupling zeroes the full welfare gradient
        g = pc.fd_gradient(lambda v: pc.joint_welfare(sys, v.reshape(2, 2)),
                           res.u_star.ravel())
        assert np.max(np.abs(g)) < 1e-6


def test_nonquadratic_welfare_falls_back_with_warning():
    dyn = pc.LinearDynamics(A=np.eye(1), B=np.eye(1))
    util = pc.SmoothUtility(
        value_fn=lambda x_next, u: -float((u[0] ** 2 - 1.0) ** 2))
    sys = pc.SystemInstance(dynamics=(dyn,), utilities=(util,),
                            coupling=pc.zero_coupling(1, 1),
                            states=np.zeros((1, 1)))
    with pytest.warns(UserWarning):
        res = pc.joint_welfare_opt(sys, box=(-2.0, 2.0))
    assert np.isclose(abs(res.u_star[0, 0]), 1.0, atol=1e-6)
    assert np.isclose(res.welfare, 0.0, atol=1e-9)
    assert res.method == "newton_multistart"


def test_unknown_method_rejected():
    sys = make_two_agent_scalar(0.1)
    with pytest.raises(ValueError):
        pc.joint_welfare_opt(sys, method="annealing")


def test_grid_requires_box():
    sys = make_two_agent_scalar(0.1)
    with pytest.raises(ValueError):
        pc.joint_welfare_opt(sys, method="grid")


def test_closed_form_cost_on_quadratic_welfare(rng, welfare_calls):
    sys = random_quadratic_instance(rng, N=3, d=2, coupling=0.3)
    res = pc.joint_welfare_opt(sys, method="closed_form")
    assert res.method == "closed_form"
    assert welfare_calls["welfare"] <= 2000


def test_polish_at_the_optimum_stops_after_one_failed_line_search(rng, welfare_calls):
    sys = random_quadratic_instance(rng, N=3, d=2, coupling=0.3)
    u_star = pc.joint_welfare_opt(sys, method="closed_form").u_star.ravel()
    welfare_calls.update(welfare=0, hessian=0)
    u = oracle._newton_polish(sys, u_star)
    m = u_star.size
    # one field at the start (2m values), one Hessian (1 + 2m^2) and 34
    # halvings from alpha = 1 down to alpha <= 1e-10, none reducing ||F||
    assert welfare_calls["hessian"] == 1
    assert welfare_calls["welfare"] == 2 * m + (1 + 2 * m * m) + 34 * 2 * m
    np.testing.assert_array_equal(u, u_star)


def test_fd_hessian_is_exact_on_quadratics(rng):
    A = rng.normal(size=(4, 4))
    b = rng.normal(size=4)
    H = oracle._fd_hessian(lambda u: float(u @ A @ u + b @ u), rng.normal(size=4))
    np.testing.assert_allclose(H, A + A.T, atol=1e-6)
    np.testing.assert_array_equal(H, H.T)
