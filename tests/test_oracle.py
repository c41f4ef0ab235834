"""Reference welfare maximizer and finite differences."""

from contextlib import nullcontext
from functools import partial

import numpy as np
import pytest

import pricecoord as pc
from pricecoord import oracle
from pricecoord.model import batch_welfare
from pricecoord.numerics import fd_gradients
from conftest import make_two_agent_scalar, random_quadratic_instance


def readme_instance():
    cfg = pc.config_from_dict({"N": 3, "d": 2, "seed": 13, "coupling_strength": 50.0,
                               "safety_radius": 6.0})
    return pc.generate(cfg)


@pytest.fixture
def welfare_calls(monkeypatch):
    """Counts the oracle's welfare evaluations (the rows of its batched
    welfare calls), those calls, its field stencils and its Hessians."""
    calls = {"welfare": 0, "batch": 0, "field": 0, "hessian": 0}
    fd_hessian = oracle._fd_hessian

    def counted_welfare(sys, U):
        calls["welfare"] += len(U)
        calls["batch"] += 1
        return batch_welfare(sys, U)

    def counted_field(*args, **kwargs):
        calls["field"] += 1
        return fd_gradients(*args, **kwargs)

    def counted_hessian(*args, **kwargs):
        calls["hessian"] += 1
        return fd_hessian(*args, **kwargs)

    monkeypatch.setattr(oracle, "batch_welfare", counted_welfare)
    monkeypatch.setattr(oracle, "fd_gradients", counted_field)
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


@pytest.mark.parametrize("make, method, named", [
    (lambda: make_two_agent_scalar(0.1), "grid", "grid"),
    (lambda: make_two_agent_scalar(0.1), "newton_multistart", "newton_multistart"),
    (double_well_instance, "closed_form", "newton_multistart"),  # after the fallback
])
def test_a_box_method_without_a_box_names_the_method(make, method, named):
    with pytest.warns(UserWarning) if method == "closed_form" else nullcontext():
        with pytest.raises(ValueError, match=f"^{named} requires a box$"):
            pc.joint_welfare_opt(make(), method=method)


def test_closed_form_cost_on_quadratic_welfare(rng, welfare_calls):
    sys = random_quadratic_instance(rng, N=3, d=2, coupling=0.3)
    res = pc.joint_welfare_opt(sys, method="closed_form")
    assert res.method == "closed_form"
    assert welfare_calls["welfare"] <= 2000


def test_closed_form_reads_its_stationarity_from_the_polish(rng, welfare_calls, monkeypatch):
    # a successful closed_form evaluates the probe's m + 1 fields, the
    # polish and one Hessian for the maximum check: the stationarity check
    # reads the polish's last field instead of a fresh 2m-point stencil
    sys = random_quadratic_instance(rng, N=3, d=2, coupling=0.3)
    m = sys.N * sys.d
    polish, spent = oracle._newton_polish, {}

    def recorded_polish(*args):
        before = dict(welfare_calls)
        out = polish(*args)
        spent.update({k: welfare_calls[k] - before[k] for k in welfare_calls})
        return out

    monkeypatch.setattr(oracle, "_newton_polish", recorded_polish)
    assert pc.joint_welfare_opt(sys).method == "closed_form"
    assert welfare_calls["field"] == 1 + spent["field"]
    assert welfare_calls["hessian"] == spent["hessian"] + 1
    # the final joint_welfare is one more row
    assert welfare_calls["welfare"] == ((m + 1) * 2 * m + spent["welfare"]
                                        + (1 + 2 * m * m) + 1)


def test_polish_at_the_optimum_stops_after_one_failed_line_search(rng, welfare_calls):
    sys = random_quadratic_instance(rng, N=3, d=2, coupling=0.3)
    u_star = pc.joint_welfare_opt(sys, method="closed_form").u_star.ravel()
    welfare_calls.update(welfare=0, hessian=0)
    u, g = oracle._newton_polish(sys, u_star)
    m = u_star.size
    # one field at the start (2m values), one Hessian (1 + 2m^2) and 19
    # trial fields from alpha = 1 down to the last alpha whose step does not
    # round back to u_star, none reducing ||F||
    assert welfare_calls["hessian"] == 1
    assert welfare_calls["welfare"] == 2 * m + (1 + 2 * m * m) + 19 * 2 * m
    np.testing.assert_array_equal(u, u_star)
    np.testing.assert_array_equal(g, fd_gradients(partial(batch_welfare, sys), u_star)[0])


def _reference_polish(sys, u):
    """The polish loop without the stop on a step that rounds back to u:
    it backtracks until alpha <= 1e-10."""
    f = partial(batch_welfare, sys)
    g = fd_gradients(f, u)[0]
    for _ in range(20):
        gn = np.max(np.abs(g))
        if gn < 1e-11:
            break
        try:
            delta = np.linalg.solve(oracle._fd_hessian(f, u)[0], -g)
        except np.linalg.LinAlgError:
            break
        alpha = 1.0
        while True:
            trial = u + alpha * delta
            g_trial = fd_gradients(f, trial)[0]
            if np.max(np.abs(g_trial)) < gn:
                break
            alpha *= 0.5
            if alpha <= 1e-10:
                return u
        u, g = trial, g_trial
    return u


@pytest.mark.parametrize("make, box", [
    (readme_instance, (-20.0, 20.0)),
    (lambda: random_quadratic_instance(np.random.default_rng(3), N=3, d=2, coupling=0.3),
     (-10.0, 10.0)),
])
def test_polish_stopping_on_a_rounded_step_changes_no_end_point(make, box):
    sys = make()
    starts = np.random.default_rng(5).uniform(*box, size=(32, sys.N * sys.d))
    for start in starts:
        assert np.array_equal(oracle._newton_polish(sys, start)[0], _reference_polish(sys, start))


def _assert_rows_equal_one_row_polishes(sys, starts):
    """Polishes starts as one stack and asserts that each row's (u, F(u))
    equals its one-row polish bit for bit, or that both drop the row with
    the same ValueError; returns the stack's (U, G, errors)."""
    with np.errstate(over="ignore", invalid="ignore"):  # overflowing starts are dropped
        U, G, errors = oracle._newton_polish_rows(sys, starts)
        for k, start in enumerate(starts):
            if k in errors:
                with pytest.raises(ValueError) as alone:
                    oracle._newton_polish(sys, start)
                assert str(alone.value) == str(errors[k])
                continue
            u, g = oracle._newton_polish(sys, start)
            assert np.array_equal(U[k], u) and np.array_equal(G[k], g)
    return U, G, errors


def test_stacked_rows_equal_one_row_and_reference_polishes():
    sys = readme_instance()
    starts = np.random.default_rng(5).uniform(-20.0, 20.0, size=(32, sys.N * sys.d))
    U, G, errors = _assert_rows_equal_one_row_polishes(sys, starts)
    assert not errors
    for start, u, g in zip(starts, U, G):
        assert np.array_equal(u, _reference_polish(sys, start))
        assert np.array_equal(g, fd_gradients(partial(batch_welfare, sys), u)[0])


def test_a_stack_drops_the_starts_whose_welfare_overflows():
    # the multistart's starts on the box +-1e300: every random start's field
    # overflows, the centre polishes to the optimum +-5/6
    starts = np.vstack([np.zeros(2), -1e300 + 2e300 * np.random.default_rng(0).random((31, 2))])
    U, _, errors = _assert_rows_equal_one_row_polishes(make_two_agent_scalar(0.1), starts)
    assert sorted(errors) == list(range(1, 32))
    np.testing.assert_allclose(U[0], [5.0 / 6.0, -5.0 / 6.0], atol=1e-9)


def test_singular_hessians_end_only_their_rows():
    # welfare -max(u_0 - 1, 0)^2 - (u_1 - 2)^2 is flat in u_0 below 1: a
    # start there has a singular Hessian and a nonzero field, so it ends
    # where it starts, while the other rows step to the kink at (1, 2)
    dyn = pc.LinearDynamics(A=np.eye(1), B=np.eye(1))
    utils = (pc.SmoothUtility(value_fn=lambda x_next, u: -max(u[0] - 1.0, 0.0) ** 2),
             pc.SmoothUtility(value_fn=lambda x_next, u: -(u[0] - 2.0) ** 2))
    sys = pc.SystemInstance(dynamics=(dyn, dyn), utilities=utils,
                            coupling=pc.zero_coupling(2, 1), states=np.zeros((2, 1)))
    starts = np.random.default_rng(5).uniform(-3.0, 3.0, size=(32, 2))
    U, G, errors = _assert_rows_equal_one_row_polishes(sys, starts)
    assert not errors
    flat = starts[:, 0] < 1.0
    assert 0 < np.count_nonzero(flat) < 32
    np.testing.assert_array_equal(U[flat], starts[flat])
    assert np.all(np.max(np.abs(G[flat]), axis=1) >= 1e-11)
    np.testing.assert_allclose(U[~flat], np.tile([1.0, 2.0], (np.count_nonzero(~flat), 1)),
                               atol=1e-4)


def test_multistart_polishes_its_starts_as_one_stack(welfare_calls, monkeypatch):
    # the same welfare rows as its 32 starts polished one after another
    # (about 900 batch_welfare calls); the row count follows the polish's step
    # counts, which follow the last bits of the host's exp and LAPACK, so it
    # is compared with the one-row polishes run here, not with a literal
    sys = readme_instance()
    polish, stacks = oracle._newton_polish_rows, []

    def spied(sys_, starts):
        rows = welfare_calls["welfare"]
        out = polish(sys_, starts)
        stacks.append((np.array(starts), welfare_calls["welfare"] - rows))
        return out

    monkeypatch.setattr(oracle, "_newton_polish_rows", spied)
    res = pc.joint_welfare_opt(sys, box=(-20.0, 20.0), method="newton_multistart")
    assert res.method == "newton_multistart"
    assert welfare_calls["batch"] <= 200
    [(starts, stacked_rows)] = stacks
    assert len(starts) == 32
    rows = welfare_calls["welfare"]
    for start in starts:
        polish(sys, start[None])
    assert welfare_calls["welfare"] - rows == stacked_rows


def test_fd_hessian_is_exact_on_quadratics(rng):
    A = rng.normal(size=(4, 4))
    b = rng.normal(size=4)
    H = oracle._fd_hessian(lambda P: np.sum((P @ A) * P, axis=1) + P @ b, rng.normal(size=4))[0]
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
    fields = fd_gradients(partial(batch_welfare, sys), points, h)
    for p, field in zip(points, fields):
        np.testing.assert_array_equal(field, pc.fd_gradient(scalar, p, h))
        np.testing.assert_array_equal(
            field, [(scalar(p + E[j]) - scalar(p - E[j])) / (2.0 * h) for j in range(m)])
