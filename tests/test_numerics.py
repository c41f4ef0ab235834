"""Shared finite differences and the damped-Newton root finder."""

import numpy as np
import pytest

import pricecoord as pc
from pricecoord.numerics import fd_jacobian, newton_root

# any exception taking (message, last_iterate, residual) will do
Failed = pc.BestResponseError


def test_fd_jacobian_is_exact_on_an_affine_map(rng):
    A = rng.normal(size=(3, 4))
    b = rng.normal(size=3)
    x = rng.normal(size=4)
    np.testing.assert_allclose(fd_jacobian(lambda v: A @ v + b, x), A, atol=1e-8)
    np.testing.assert_allclose(fd_jacobian(lambda v: A @ v + b, x, 1e-3), A, atol=1e-8)


def test_fd_gradient_names_the_non_finite_coordinate():
    with pytest.raises(ValueError, match="coordinate 1"):
        pc.fd_gradient(lambda v: np.inf if v[1] > 0 else 0.0, np.zeros(3))


def test_newton_root_solves_an_affine_field_in_one_step(rng):
    M = np.array([[2.0, 0.5], [0.5, 1.0]])
    b = rng.normal(size=2)
    calls = []

    def F(x):
        calls.append(x.copy())
        return b - M @ x

    x, resid = newton_root(F, lambda x: -M, np.zeros(2), tol=1e-10, max_iter=5, error=Failed)
    np.testing.assert_allclose(x, np.linalg.solve(M, b), atol=1e-12)
    assert resid <= 1e-10
    assert len(calls) == 2  # the start and one full step


def test_newton_root_reports_a_singular_jacobian():
    x0 = np.array([1.0, -2.0])
    with pytest.raises(Failed, match="^singular Jacobian$") as info:
        newton_root(lambda x: -x, lambda x: np.zeros((2, 2)), x0, tol=1e-10, max_iter=5,
                    error=Failed)
    np.testing.assert_array_equal(info.value.last_iterate, x0)
    assert info.value.residual == 2.0


def test_newton_root_reports_a_failed_line_search():
    # the Jacobian has the wrong sign, so every step points uphill in ||F||
    x0 = np.array([0.5, 1.0])
    with pytest.raises(Failed, match="^line search failed") as info:
        newton_root(lambda x: -x, lambda x: np.eye(2), x0, tol=1e-10, max_iter=5,
                    error=Failed)
    np.testing.assert_array_equal(info.value.last_iterate, x0)
    assert info.value.residual == 1.0


def test_newton_root_reports_the_iteration_cap():
    # Newton on -x^3 contracts by exactly 2/3 per step
    with pytest.raises(Failed, match="^no convergence after 2 Newton iterations$") as info:
        newton_root(lambda x: -x ** 3, lambda x: np.diag(-3.0 * x ** 2), np.array([1.0]),
                    tol=1e-10, max_iter=2, error=Failed)
    np.testing.assert_allclose(info.value.last_iterate, [4.0 / 9.0], rtol=1e-15)
    assert info.value.residual == pytest.approx((4.0 / 9.0) ** 3, rel=1e-14)


def test_best_response_iteration_cap_keeps_its_message_and_state():
    dyn = pc.LinearDynamics(A=np.eye(2), B=np.eye(2))
    quartic = pc.SmoothUtility(lambda x_next, u: -float(np.sum(u ** 4)),
                               lambda x_next, u, dyn: -4.0 * u ** 3)
    game = pc.GameSpec(utility=quartic)
    # each Newton step on -4 u^3 contracts by 2/3, so from 1e30 the fixed cap
    # of 100 steps is reached far from the root
    with pytest.raises(pc.BestResponseError,
                       match="^no convergence after 100 Newton iterations$") as info:
        pc.best_response(game, np.zeros(2), dyn, np.full(2, 1e30))
    exc = info.value
    last = 1e30 * (2.0 / 3.0) ** 100
    np.testing.assert_allclose(exc.last_iterate, [last] * 2, rtol=1e-6)
    assert exc.residual == pytest.approx(4.0 * last ** 3, rel=1e-5)
    assert exc.agent is None and exc.round is None
