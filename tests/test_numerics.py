"""Shared finite differences and the damped-Newton root finder."""

import numpy as np
import pytest

import pricecoord as pc
from pricecoord.numerics import fd_jacobian, newton_root

# any exception taking (message, last_iterate, residual, row) will do
Failed = pc.BestResponseError


def one_row(F, J):
    """A field and its Jacobian at one point as newton_root's row-stacked
    callable."""
    return lambda X, rows: (F(X[0])[None], J(X[0])[None])


def solve_one(F, J, x0, **kwargs):
    """newton_root on the single row x0: (root, residual)."""
    x, resid = newton_root(one_row(F, J), np.array(x0, dtype=float)[None], **kwargs)
    return x[0], resid[0]


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

    x, resid = solve_one(F, lambda x: -M, np.zeros(2), error=Failed, maximize=True)
    np.testing.assert_allclose(x, np.linalg.solve(M, b), atol=1e-12)
    assert resid <= 1e-10
    # the start and one full step: the maximize test reads the Jacobian the
    # step was evaluated with, and nothing is evaluated after the loop
    assert len(calls) == 2


def test_newton_root_rejects_a_minimum_without_another_call(rng):
    # b + M x, M positive definite, reaches its root in one step, and the
    # Jacobian evaluated there shows a minimum of the potential
    M = np.array([[2.0, 0.5], [0.5, 1.0]])
    b = rng.normal(size=2)
    calls = []

    def F(x):
        calls.append(x.copy())
        return b + M @ x

    with pytest.raises(Failed, match="^stationary point is not a local maximum$") as info:
        solve_one(F, lambda x: M, np.zeros(2), error=Failed, maximize=True)
    np.testing.assert_allclose(info.value.last_iterate, np.linalg.solve(M, -b), atol=1e-12)
    assert len(calls) == 2


def test_newton_root_reports_a_singular_jacobian():
    x0 = np.array([1.0, -2.0])
    with pytest.raises(Failed, match="^singular Jacobian$") as info:
        solve_one(lambda x: -x, lambda x: np.zeros((2, 2)), x0, error=Failed)
    np.testing.assert_array_equal(info.value.last_iterate, x0)
    assert info.value.residual == 2.0


def test_newton_root_reports_a_failed_line_search():
    # the Jacobian has the wrong sign, so every step points uphill in ||F||
    x0 = np.array([0.5, 1.0])
    with pytest.raises(Failed, match="^line search failed") as info:
        solve_one(lambda x: -x, lambda x: np.eye(2), x0, error=Failed)
    np.testing.assert_array_equal(info.value.last_iterate, x0)
    assert info.value.residual == 1.0


def test_newton_root_reports_the_iteration_cap():
    # Newton on -x^3 contracts by 2/3 per step, so from 1e30 the 100 steps
    # end far from the root
    with pytest.raises(Failed, match="^no convergence after 100 Newton iterations$") as info:
        solve_one(lambda x: -x ** 3, lambda x: np.diag(-3.0 * x ** 2), np.array([1e30]),
                  error=Failed)
    last = 1e30 * (2.0 / 3.0) ** 100
    np.testing.assert_allclose(info.value.last_iterate, [last], rtol=1e-13)
    assert info.value.residual == pytest.approx(last ** 3, rel=1e-13)


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


@pytest.mark.parametrize("c, scale, x0, stops", [
    (1e-9, 1e5, [0.0, 0.0], False),     # floor 8 eps 1e5 = 1.8e-10
    (1e-9, 1e7, [0.0, 0.0], True),      # floor scales with ||J||_2
    (1e-9, 1e5, [100.0, -3.0], True),   # and with ||x||_inf above 1
], ids=["fails", "J-scaled", "x-scaled"])
def test_newton_root_accepts_a_stalled_line_search_at_the_rounding_floor(c, scale, x0, stops):
    # a constant field never decreases, so every line search stalls
    args = (lambda x: np.full(2, c), lambda x: -scale * np.eye(2), np.array(x0))
    if stops:
        x, resid = solve_one(*args, error=Failed)
        np.testing.assert_array_equal(x, x0)
        assert resid == c
    else:
        with pytest.raises(Failed, match="^line search failed"):
            solve_one(*args, error=Failed)


def test_newton_root_with_a_non_finite_jacobian_reports_its_line_search():
    with pytest.raises(Failed, match="^line search failed"):
        solve_one(lambda x: np.full(2, 1e-9), lambda x: np.full((2, 2), np.nan),
                  np.zeros(2), error=Failed)


def _cubic_rows(c):
    """Rows of the field c - x^3 (elementwise), each with its own c, and
    their Jacobians."""
    return lambda X, rows: (c[rows] - X ** 3, -3.0 * X[:, :, None] ** 2 * np.eye(X.shape[1]))


def test_newton_root_rows_equal_one_row_solves(rng):
    # rows that need different numbers of steps and line-search halvings
    c = rng.normal(size=(6, 2)) * 10.0 ** np.arange(-3, 3)[:, None]
    x0 = rng.normal(size=(6, 2))
    X, resid = newton_root(_cubic_rows(c), x0, error=Failed)
    for i in range(6):
        x, r = solve_one(lambda x: c[i] - x ** 3, lambda x: np.diag(-3.0 * x ** 2), x0[i],
                         error=Failed)
        assert np.array_equal(X[i], x) and resid[i] == r


def test_newton_root_raises_for_the_lowest_failing_row():
    # row 1 hits a singular Jacobian at its start, row 2 at its start too, and
    # row 3 never converges; row 1 is the one a loop over rows meets first
    c = np.array([[1.0], [1.0], [1.0], [1.0]])
    x0 = np.array([[0.5], [0.0], [0.0], [1e30]])
    F = _cubic_rows(c)
    with pytest.raises(Failed, match="^singular Jacobian$") as info:
        newton_root(F, x0, error=Failed)
    assert info.value.agent == 1
    np.testing.assert_array_equal(info.value.last_iterate, [0.0])
    assert info.value.residual == 1.0
    with pytest.raises(Failed, match="^no convergence after 100 Newton") as info:
        newton_root(F, x0[[0, 3]], error=Failed)
    assert info.value.agent == 1


def test_newton_root_decides_every_outcome_in_one_stacked_call():
    # row 0 stalls at its rounding floor (8 eps 1e7 = 1.8e-8) and stops, row 1
    # converges, row 2 has a singular Jacobian, row 3's line search fails
    fields = [lambda x: np.full_like(x, 1e-9), lambda x: 2.0 - x ** 3, lambda x: -x,
              lambda x: -x]
    slopes = [lambda x: np.full_like(x, -1e7), lambda x: -3.0 * x ** 2, np.zeros_like,
              np.ones_like]

    def F(X, rows):
        return (np.array([fields[r](x) for r, x in zip(rows, X)]),
                np.array([slopes[r](x) for r, x in zip(rows, X)])[:, :, None])

    x0 = np.array([[0.5], [1.0], [0.5], [0.5]])
    with pytest.raises(Failed, match="^singular Jacobian$") as info:
        newton_root(F, x0, error=Failed)
    assert info.value.agent == 2
    np.testing.assert_array_equal(info.value.last_iterate, [0.5])
    assert info.value.residual == 0.5
    X, resid = newton_root(F, x0[:2], error=Failed)
    assert X[0, 0] == 0.5 and resid[0] == 1e-9
    np.testing.assert_allclose(X[1], [2.0 ** (1.0 / 3.0)], rtol=1e-15)
    assert resid[1] <= 1e-10


def test_newton_root_maximize_rejects_a_minimum_in_its_row():
    # c - x^3 is the gradient of c x - x^4 / 4: its root is a maximum, while
    # the root of x^3 - c is a minimum of the negated function
    def F(X, rows):
        sign = np.where(rows[:, None] == 1, -1.0, 1.0)
        return sign * (1.0 - X ** 3), (sign * -3.0 * X ** 2)[:, :, None]

    X, _ = newton_root(F, np.array([[2.0], [2.0]])[:1], error=Failed, maximize=True)
    np.testing.assert_allclose(X, [[1.0]], rtol=1e-12)
    with pytest.raises(Failed, match="^stationary point is not a local maximum$") as info:
        newton_root(F, np.array([[2.0], [2.0]]), error=Failed, maximize=True)
    assert info.value.agent == 1
    np.testing.assert_allclose(info.value.last_iterate, [1.0], rtol=1e-12)
