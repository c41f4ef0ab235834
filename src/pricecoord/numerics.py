"""Finite differences and the damped-Newton root finder the solvers share.

Every derivative the solvers do not get analytically is a central
difference from this module, and every Newton solve on a gradient field
(an agent's best response, the coordinator's welfare-optimal price) runs
the one loop below. fd_gradients evaluates the stencil of fd_gradient at
many points in one call of a batched function; the oracle uses it on the
welfare and keeps its own polish loop (see oracle), so the reference stays
independent of the code it checks. fd_jacobian keeps its loop over
columns: it runs in every best-response Newton step on d-vectors, where a
stacked stencil costs more per call than the loop.
"""

from __future__ import annotations

import numpy as np


def fd_gradient(f, point, h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of a scalar function at point. Raises
    ValueError naming the first coordinate whose difference is non-finite."""
    return _finite(fd_jacobian(f, point, h))


def fd_gradients(f_rows, points, h: float = 1e-5) -> np.ndarray:
    """Central-difference gradients at each row of points, (B, m) or (m,),
    as a (B, m) array, from one call of f_rows on all 2 m B stencil points:
    f_rows maps a (K, m) array of points to their K values. Row b is
    (f(p_b + h e_j) - f(p_b - h e_j)) / 2h, so it equals fd_gradient of the
    row function bit for bit. Raises ValueError naming the first coordinate
    whose difference is non-finite."""
    X = np.atleast_2d(np.asarray(points, dtype=float))
    m = X.shape[1]
    E = h * np.eye(m)
    w = f_rows(np.concatenate([X[:, None] + E, X[:, None] - E], axis=1).reshape(-1, m))
    w = w.reshape(len(X), 2, m)
    with np.errstate(invalid="ignore", over="ignore"):
        return _finite((w[:, 0] - w[:, 1]) / (2.0 * h))


def _finite(g: np.ndarray) -> np.ndarray:
    bad = np.argwhere(~np.isfinite(g))
    if bad.size:
        raise ValueError(f"non-finite evaluation near coordinate {bad[0, -1]}")
    return g


def fd_jacobian(F, x, h: float | None = None) -> np.ndarray:
    """Central-difference Jacobian of F at x: column j is
    (F(x + h e_j) - F(x - h e_j)) / 2h, so a scalar F gives its gradient.
    h defaults to the relative step 1e-6 max(1, ||x||_inf)."""
    x = np.asarray(x, dtype=float)
    if h is None:
        h = 1e-6 * max(1.0, float(np.max(np.abs(x))))
    cols = []
    for j in range(x.size):
        e = np.zeros(x.size)
        e[j] = h
        cols.append((F(x + e) - F(x - e)) / (2.0 * h))
    return np.array(cols).T


def newton_root(F, jacobian, x0, tol: float, max_iter: int, *, error,
                jacobian_name: str = "Jacobian"):
    """Damped Newton for F(x) = 0, F a gradient field.

    Each step solves jacobian(x) s = -F(x) and halves alpha = 1, 1/2, 1/4,
    ... while alpha > 1e-12 (40 trials) until ||F||_inf decreases. Returns
    (x, ||F(x)||_inf) at the first iterate with ||F||_inf <= tol. On a
    singular Jacobian, a failed line search, or after max_iter steps it
    raises error(message, last iterate, its residual), so each caller keeps
    its own exception type.
    """
    x = np.array(x0, dtype=float)
    g = F(x)
    for _ in range(max_iter):
        gnorm = float(np.max(np.abs(g)))
        if gnorm <= tol:
            return x, gnorm
        try:
            step = np.linalg.solve(jacobian(x), -g)
        except np.linalg.LinAlgError:
            raise error(f"singular {jacobian_name}", x, gnorm) from None
        alpha = 1.0
        while alpha > 1e-12:
            x_try = x + alpha * step
            g_try = F(x_try)
            if np.max(np.abs(g_try)) < gnorm:
                x, g = x_try, g_try
                break
            alpha *= 0.5
        else:
            raise error("line search failed to reduce the gradient", x, gnorm)
    raise error(f"no convergence after {max_iter} Newton iterations",
                x, float(np.max(np.abs(g))))
