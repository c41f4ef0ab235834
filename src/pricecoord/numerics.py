"""Finite differences and the one damped-Newton loop the solvers share.

Every derivative the solvers do not get analytically is a central
difference from this module, and every Newton solve on a gradient field
(an agent's best response, a Jacobi round's N best responses, the
coordinator's welfare-optimal price) runs the one row-stacked loop below:
newton_root solves k independent problems at once, each row with its own
stopping test, line search and failure, from one field-and-Jacobian call
per iterate; a single solve is its one-row case. A caller that holds the
fields and Jacobians at x0 passes them as start: a stage's simultaneous,
two-stage or Tikhonov round starts from the payoff derivatives its
convergence test computed (mechanism.run_stage), the coupling's gradient and
Hessian from one pair pass. The oracle differences the welfare itself, term
by term (see oracle), so the reference stays independent of the code it
checks; it shares only _newton_steps, the stacked solve of a Newton step.
fd_jacobian keeps its loop over columns: its callers (the welfare-optimal
price's Newton steps, the weak-coupling diagnostic, the Hessian block of a
utility given without one) difference small fields, where a stacked stencil
costs more per call than the loop.
"""

from __future__ import annotations

import numpy as np


def fd_gradient(f, point, h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of a scalar function at point. Raises
    ValueError naming the first coordinate whose difference is non-finite."""
    return _finite(fd_jacobian(f, point, h))


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


def _rounding_floor(J: np.ndarray, x: np.ndarray) -> float:
    """8 eps ||J||_2 max(1, ||x||_inf): the size below which rounding alone
    can keep a field with Jacobian J from decreasing near x (0 when J is not
    finite)."""
    if not np.all(np.isfinite(J)):
        return 0.0
    x_inf = float(np.max(np.abs(x)))
    return 8.0 * np.finfo(float).eps * float(np.linalg.norm(J, 2)) * max(1.0, x_inf)


def newton_root(F, x0, *, error, jacobian_name: str = "Jacobian", maximize: bool = False,
                start=None):
    """Damped Newton for F(x) = 0, F a gradient field, on every row of x0.

    x0 is (k, m): each row is its own problem, solved exactly as if alone,
    and all rows step together. Each iterate or line-search trial is one
    call F(X, rows), answering the fields and Jacobians, (len(rows), m) and
    (len(rows), m, m), of the rows of the index array rows at their points
    X; each iteration makes one np.linalg.solve. start, when given, is
    F(x0, arange(k)) already evaluated by the caller, and the loop takes it
    (and may overwrite it) in place of its first call.

    Per row, each step solves J s = -F(x) and halves alpha = 1, 1/2, 1/4,
    ... while alpha > 1e-12 (40 trials) until ||F||_inf decreases. A row
    stops at the first iterate with ||F||_inf <= 1e-10. A row that does not
    move is decided in one place: a singular Jacobian fails, a line search
    that stalls at the rounding floor of F, 8 eps ||J||_2 max(1, ||x||_inf),
    stops, and one that stalls above it fails. With maximize the Jacobian a
    row stopped with must also be negative definite, a local maximum of the
    function F is the gradient of; nothing is evaluated after the loop.
    Returns (X, residuals), the rows' last iterates and their ||F||_inf.

    A row also fails after 100 steps, or under maximize at a point that is
    not a maximum. The rows above a failed one stop iterating, and the
    lowest failed row raises error(message, last iterate, its residual,
    row), so each caller keeps its own exception type.
    """
    x = np.array(x0, dtype=float)
    k, m = x.shape
    live = np.arange(k)              # the rows still stepping, at their iterates x
    G, J = F(x, live) if start is None else start  # and their fields and Jacobians
    gnorm = _row_norms(G)            # and ||F||_inf
    done = []                        # (rows, iterates, residuals, Jacobians) that stopped
    failures = []                    # (row, message, last iterate, residual)
    solved = k                       # rows 0 .. solved-1 are below every failure
    for _ in range(100):
        stop = gnorm <= 1e-10
        stopped = np.count_nonzero(stop)
        if stopped == len(live):
            done.append((live, x, gnorm, J))
            break
        if stopped:
            done.append((live[stop], x[stop], gnorm[stop], J[stop]))
            go = ~stop
            live, x, G, J, gnorm = live[go], x[go], G[go], J[go], gnorm[go]
        S, singular = _newton_steps(J, G)
        x, G, J, gnorm, unmoved = _line_search(F, x, G, J, gnorm, S, live, singular)
        if unmoved is None:
            continue
        for i in unmoved:
            if singular is not None and singular[i]:
                failures.append((live[i], f"singular {jacobian_name}", x[i].copy(), gnorm[i]))
            elif gnorm[i] <= _rounding_floor(J[i], x[i]):
                done.append((live[i:i + 1], x[i:i + 1], gnorm[i:i + 1], J[i:i + 1]))
            else:
                failures.append((live[i], "line search failed to reduce the gradient",
                                 x[i].copy(), gnorm[i]))
        keep = np.ones(len(live), dtype=bool)
        keep[unmoved] = False
        if failures:
            solved = min(f[0] for f in failures)
            keep &= live < solved
        live, x, G, J, gnorm = live[keep], x[keep], G[keep], J[keep], gnorm[keep]
        if not live.size:
            break
    else:
        failures.extend((r, "no convergence after 100 Newton iterations", xr, gn)
                        for r, xr, gn in zip(live, x, gnorm))
        solved = min(f[0] for f in failures)
    if len(done) == 1 and len(done[0][0]) == k:  # every row stopped at the same iteration
        _, X, residual, J_stop = done[0]
    else:  # rows 0 .. solved-1 have all stopped
        X, residual, J_stop = np.empty((k, m)), np.empty(k), np.empty((k, m, m))
        for rows, xs, gs, Js in done:
            X[rows], residual[rows], J_stop[rows] = xs, gs, Js
    if maximize and solved:
        # eigvalsh sorts ascending: the last eigenvalue is the largest
        not_max = np.linalg.eigvalsh(J_stop[:solved])[:, -1] >= 0.0
        if np.count_nonzero(not_max):
            r = np.argmax(not_max)
            failures.append((r, "stationary point is not a local maximum", X[r], residual[r]))
    if failures:
        row, message, last, resid = min(failures, key=lambda f: f[0])
        raise error(message, last, float(resid), int(row))
    return X, residual


def _row_norms(G: np.ndarray) -> np.ndarray:
    """||g||_inf of each row."""
    return np.maximum.reduce(np.abs(G), axis=1)


def _line_search(F, x, G, J, gnorm, S, live, singular):
    """The halving line search of newton_root on the rows of live whose
    Jacobian is not singular (singular is their mask, or None when none
    is): alpha = 1, 1/2, ... while alpha > 1e-12, until a row's ||F||_inf
    drops below its gnorm. Returns (x, G, J, gnorm, unmoved): the iterates,
    fields, Jacobians and ||F||_inf, with each row that found its step
    moved to it, and the sorted positions in live that did not move
    (singular or stalled), or None when every row moved."""
    alpha = 1.0
    if singular is None:  # the first trial, on every row without gathers
        x_try = x + S
        G_try, J_try = F(x_try, live)
        gn = _row_norms(G_try)
        better = gn < gnorm
        if np.count_nonzero(better) == len(x):
            return x_try, G_try, J_try, gn, None
        x[better], G[better], J[better] = x_try[better], G_try[better], J_try[better]
        gnorm[better] = gn[better]
        todo, alpha = np.flatnonzero(~better), 0.5
    else:
        todo = np.flatnonzero(~singular)
    while alpha > 1e-12 and todo.size:
        x_try = x[todo] + alpha * S[todo]
        G_try, J_try = F(x_try, live[todo])
        gn = _row_norms(G_try)
        better = gn < gnorm[todo]
        moved = todo[better]
        x[moved], G[moved], J[moved] = x_try[better], G_try[better], J_try[better]
        gnorm[moved] = gn[better]
        todo = todo[~better]
        alpha *= 0.5
    if singular is not None:
        todo = np.sort(np.concatenate((np.flatnonzero(singular), todo)))
    return x, G, J, gnorm, todo if todo.size else None


def _newton_steps(J: np.ndarray, G: np.ndarray):
    """(steps s solving J s = -g for each row, mask of the singular rows or
    None when no row is singular): one stacked solve, or one solve per row
    when some J is singular."""
    try:
        return np.linalg.solve(J, -G[..., None])[..., 0], None
    except np.linalg.LinAlgError:
        pass
    S = np.zeros_like(G)
    singular = np.zeros(len(G), dtype=bool)
    for i in range(len(G)):
        try:
            S[i] = np.linalg.solve(J[i], -G[i])
        except np.linalg.LinAlgError:
            singular[i] = True
    return S, singular if np.count_nonzero(singular) else None
