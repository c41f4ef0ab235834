"""Reference welfare maximizer and finite differences."""

import numpy as np
import pytest

import pricecoord as pc
from pricecoord import oracle
from pricecoord.numerics import fd_gradients
from conftest import make_two_agent_scalar, random_quadratic_instance


def readme_instance():
    cfg = pc.config_from_dict({"N": 3, "d": 2, "seed": 13, "coupling_strength": 50.0,
                               "safety_radius": 6.0})
    return pc.generate(cfg)


@pytest.fixture
def welfare_calls(monkeypatch):
    """Counts the oracle's welfare evaluations (the rows of its batched
    welfare calls) and its Hessians."""
    calls = {"welfare": 0, "hessian": 0}
    batch_welfare, fd_hessian = oracle.batch_welfare, oracle._fd_hessian

    def counted_welfare(sys, U):
        calls["welfare"] += len(U)
        return batch_welfare(sys, U)

    def counted_hessian(*args, **kwargs):
        calls["hessian"] += 1
        return fd_hessian(*args, **kwargs)

    monkeypatch.setattr(oracle, "batch_welfare", counted_welfare)
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
        field = pc.reward_field(sys)
        # welfare field = utility gradients + coupling part; welfare optimum of
        # a shared coupling zeroes the full welfare gradient
        g = pc.fd_gradient(lambda v: pc.joint_welfare(sys, v.reshape(2, 2)),
                           res.u_star.ravel())
        assert np.max(np.abs(g)) < 1e-6


def double_well_instance():
    """One agent with the non-quadratic welfare -(u^2 - 1)^2, maximized at u = +-1."""
    dyn = pc.LinearDynamics(A=np.eye(1), B=np.eye(1))
    util = pc.SmoothUtility(
        value_fn=lambda x_next, u: -float((u[0] ** 2 - 1.0) ** 2))
    return pc.SystemInstance(dynamics=(dyn,), utilities=(util,),
                             coupling=pc.zero_coupling(1, 1), states=np.zeros((1, 1)))


def test_nonquadratic_welfare_falls_back_with_warning():
    sys = double_well_instance()
    with pytest.warns(UserWarning):
        res = pc.joint_welfare_opt(sys, box=(-2.0, 2.0))
    assert np.isclose(abs(res.u_star[0, 0]), 1.0, atol=1e-6)
    assert np.isclose(res.welfare, 0.0, atol=1e-9)
    assert res.method == "newton_multistart"


def test_multistart_skips_starts_whose_welfare_overflows(rng):
    sys = random_quadratic_instance(rng, N=2, d=1, coupling=0.3)
    closed = pc.joint_welfare_opt(sys)
    multi = pc.joint_welfare_opt(sys, box=(-1e300, 1e300), method="newton_multistart")
    np.testing.assert_allclose(multi.u_star, closed.u_star, atol=1e-7)


def test_multistart_without_a_finite_start_names_the_box():
    with pytest.raises(ValueError, match="box"):
        pc.joint_welfare_opt(double_well_instance(), box=(1e300, 1.5e300),
                             method="newton_multistart")


def test_grid_without_a_finite_welfare_names_the_box():
    # every grid point's welfare overflows; the scan raises no RuntimeWarning
    sys = pc.generate(pc.config_from_dict({"N": 1, "d": 2, "seed": 13}))
    with pytest.raises(ValueError, match=r"box \(1e\+300, 1.5e\+300\)"):
        pc.joint_welfare_opt(sys, box=(1e300, 1.5e300), method="grid")


def test_multistart_keeps_a_maximum_of_the_double_well():
    res = pc.joint_welfare_opt(double_well_instance(), box=(-3.0, 3.0),
                               method="newton_multistart")
    assert np.isclose(abs(res.u_star[0, 0]), 1.0, atol=1e-6)
    assert np.isclose(res.welfare, 0.0, atol=1e-9)


def test_multistart_rejects_the_double_well_minimum_on_a_huge_box():
    # every random start's welfare overflows; the box centre u = 0 polishes to
    # the stationary point it starts on, the double well's local minimum
    with pytest.raises(ValueError, match="box .*maximum"):
        pc.joint_welfare_opt(double_well_instance(), box=(-1e300, 1e300),
                             method="newton_multistart")


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
    H = oracle._fd_hessian(lambda P: np.sum((P @ A) * P, axis=1) + P @ b, rng.normal(size=4))
    np.testing.assert_allclose(H, A + A.T, atol=1e-6)
    np.testing.assert_array_equal(H, H.T)


@pytest.mark.parametrize("make", [readme_instance,
                                  lambda: random_quadratic_instance(np.random.default_rng(3),
                                                                    N=3, d=2, coupling=0.3)])
def test_batched_field_equals_fd_gradient_of_the_scalar_welfare(rng, make):
    sys = make()
    m, h = sys.N * sys.d, 1e-5
    E = h * np.eye(m)

    def scalar(v):
        return pc.joint_welfare(sys, v.reshape(sys.N, sys.d))

    points = 3.0 * rng.normal(size=(4, m))
    fields = fd_gradients(oracle._welfare_rows(sys), points, h)
    for p, field in zip(points, fields):
        np.testing.assert_array_equal(field, pc.fd_gradient(scalar, p, h))
        np.testing.assert_array_equal(
            field, [(scalar(p + E[j]) - scalar(p - E[j])) / (2.0 * h) for j in range(m)])


def test_welfare_rows_caps_the_rows_per_call(rng, monkeypatch):
    sys = random_quadratic_instance(rng, N=30, d=2, coupling=0.3)
    cap = 2 ** 18 // (30 * 30 * 2)
    P = rng.normal(size=(2 * cap + 7, 60))
    sizes = []
    batch_welfare = oracle.batch_welfare

    def recorded(sys, U):
        sizes.append(len(U))
        return batch_welfare(sys, U)

    monkeypatch.setattr(oracle, "batch_welfare", recorded)
    w = oracle._welfare_rows(sys)(P)
    assert sizes == [cap, cap, 7]
    np.testing.assert_array_equal(w, batch_welfare(sys, P.reshape(-1, 30, 2)))
