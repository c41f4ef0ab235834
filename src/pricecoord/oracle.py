"""Independent reference computations used by tests and acceptance checks.

Everything here is deliberately assembled from utility and coupling VALUES
only (finite differences, grid scans, probed affine systems), so it shares no
gradient code with the solvers: numerics.fd_gradients only differences the
welfare value. The Newton polish behind every method is one loop that
polishes a (k, m) stack of starts in lockstep: newton_multistart sends its
32 starts through it at once, and closed_form and grid run its one-row case.
It takes its field from central first differences of the welfare value and
its Hessian from central second differences of the same value. A row stops
when its field's sup-norm drops below 1e-11 or when no backtracking step
down to alpha = 1e-10 reduces it, which is where the finite-difference field
reaches its noise floor; it takes exactly the steps it would take alone. The
loop does not use numerics.newton_root, so the reference never runs the
loop it checks.

Every stencil is one model.batch_welfare call on its flat points, each row
equal to the scalar welfare bit for bit: the fields of all rows still in a
polish are one call of 2m points each (m = N d), their Hessians one call per
piece of rows whose 1 + 2m^2 points each fit in _HESSIAN_PIECE_POINTS (at
least one row), the closed-form probe m + 1 fields, and the grid scan one
batch per value of the first coordinate (201^(m-1) points). batch_welfare
splits a batch into its own pieces, so the pair differences stay under 2 MB
whatever the fleet size; the stencil points of one Hessian piece take at
most max(600, 1 + 2m^2) m floats. joint_welfare is the same welfare at one
joint action.

Note on why oracle equivalence is a valid acceptance test at all: the test
instances in this package are potential games by construction. The coupling G
is one shared function added to every agent's reward, so the stacked Nash
stationarity field equals the gradient field of the social welfare
sum_n U_n + G, and the welfare maximizer IS the Nash point the play modes
converge to. For games without a shared coupling this equivalence would not
hold and these oracles would not bound equilibria.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import partial

import numpy as np

from .model import SystemInstance, batch_welfare, joint_action
from .numerics import fd_gradients


def joint_welfare(sys: SystemInstance, u) -> float:
    """Social welfare sum_n U_n(x_n(t+1), u_n) + G(x(t+1)), w = 0: the
    oracle's batch_welfare at K = 1."""
    return float(batch_welfare(sys, joint_action(sys, u)[None])[0])


@dataclass(frozen=True)
class OracleResult:
    u_star: np.ndarray
    welfare: float
    method: str


def _closed_form(sys: SystemInstance) -> np.ndarray | None:
    """The Newton-polished solution of the probed stationarity system if it
    is a verified welfare maximum, else None."""
    # Probe the welfare-gradient field at zero and at the unit vectors, all
    # m + 1 fields in one batch. For quadratic welfare central differences are
    # exact up to roundoff, so the probed system is the true linear
    # stationarity system J u* = -f0; on other welfare it is only a secant.
    m = sys.N * sys.d
    f = partial(batch_welfare, sys)
    fields = fd_gradients(f, np.vstack([np.zeros(m), np.eye(m)]))
    f0 = fields[0]
    J = (fields[1:] - f0).T  # column i is F(e_i) - f0
    sym = 0.5 * (J + J.T)
    scale = max(np.max(np.abs(sym)), 1.0)
    if np.max(np.linalg.eigvalsh(sym)) > -1e-12 * scale:
        return None  # not negative definite, stationary point may not be a max
    u, g = _newton_polish(sys, np.linalg.solve(J, -f0))
    # stationary is not enough: the secant probe can look negative definite
    # on quartic welfare whose curvature at the solve point is positive
    if np.max(np.abs(g)) > 1e-7 * (1.0 + np.max(np.abs(u))) or not _is_maximum(f, u):
        return None
    return u


# The most Hessian stencil points _fd_hessian puts into one batch_welfare
# call: 8 stencils at m = 6. A piece always holds at least one stencil, so
# stacking rows never multiplies the (1 + 2 m^2) m floats of one stencil.
_HESSIAN_PIECE_POINTS = 600


def _fd_hessian(f_rows, points) -> np.ndarray:
    """Symmetric central second-difference Hessians, step h = 1e-4, at each
    row of points, (B, m) or (m,), as a (B, m, m) array. Each row's stencil
    is 1 + 2 m^2 points: the diagonal from f(u) and f(u +- h e_i), each
    off-diagonal pair from the four corners u +- h e_i +- h e_j. f_rows is
    called once per piece of rows whose stencils fit in
    _HESSIAN_PIECE_POINTS points (at least one row per piece)."""
    X = np.atleast_2d(np.asarray(points, dtype=float))
    m, h = X.shape[1], 1e-4
    E = h * np.eye(m)
    I, J = np.tril_indices(m, -1)
    H = np.empty((len(X), m, m))
    piece = max(1, _HESSIAN_PIECE_POINTS // (1 + 2 * m * m))
    for a in range(0, len(X), piece):
        u = X[a:a + piece, None]
        up, um = u + E, u - E
        w = f_rows(np.concatenate([u, up, um, up[:, I] + E[J], up[:, I] - E[J],
                                   um[:, I] + E[J], um[:, I] - E[J]], axis=1).reshape(-1, m))
        w = w.reshape(len(u), -1)
        f0, wp, wm = w[:, :1], w[:, 1:m + 1], w[:, m + 1:2 * m + 1]
        corners = w[:, 2 * m + 1:].reshape(len(u), 4, -1)
        Hp = H[a:a + piece]
        Hp[:, np.arange(m), np.arange(m)] = (wp - 2.0 * f0 + wm) / (h * h)
        Hp[:, I, J] = Hp[:, J, I] = (corners[:, 0] - corners[:, 1] - corners[:, 2]
                                     + corners[:, 3]) / (4.0 * h * h)
    return H


def _fields(f_rows, X: np.ndarray, rows: np.ndarray, errors: dict):
    """(fields, finite): fd_gradients at the rows of X, and the mask of the
    rows whose field is finite. The ValueError of each other row goes into
    errors under its label in rows. One stencil call for all rows, then one
    per row only when that call raises."""
    try:
        return fd_gradients(f_rows, X), np.ones(len(X), dtype=bool)
    except ValueError as exc:
        if len(X) == 1:  # the error is this row's own
            errors[rows[0]] = exc
            return np.full_like(X, np.nan), np.zeros(1, dtype=bool)
    G, finite = np.full_like(X, np.nan), np.ones(len(X), dtype=bool)
    for i in range(len(X)):
        try:
            G[i] = fd_gradients(f_rows, X[i])[0]
        except ValueError as exc:
            errors[rows[i]], finite[i] = exc, False
    return G, finite


def _newton_steps(H: np.ndarray, G: np.ndarray):
    """(steps solving H s = -g for each row, mask of the singular rows): one
    stacked solve, or one solve per row when some H is singular."""
    try:
        return np.linalg.solve(H, -G[..., None])[..., 0], np.zeros(len(G), dtype=bool)
    except np.linalg.LinAlgError:
        pass
    S, singular = np.zeros_like(G), np.zeros(len(G), dtype=bool)
    for i in range(len(G)):
        try:
            S[i] = np.linalg.solve(H[i], -G[i])
        except np.linalg.LinAlgError:
            singular[i] = True
    return S, singular


def _newton_polish_rows(sys: SystemInstance, starts) -> tuple[np.ndarray, np.ndarray, dict]:
    """Damped Newton on the finite-difference welfare field F from each row
    of starts, (k, m), all rows in lockstep: (U, G, errors), each row's end
    point and F there, and the ValueError of each row dropped because its
    field stopped being finite (its rows of U and G are then meaningless).

    A row stops when ||F||_inf < 1e-11, after 20 steps, at a singular
    Hessian, or when backtracking finds no step that reduces ||F||_inf
    before alpha <= 1e-10 or before u + alpha delta rounds to u (every
    shorter step then does too): F has then reached its noise floor and
    further steps only cost evaluations. The field at the accepted step is
    the next residual. Every row takes exactly the steps it takes alone:
    each iteration evaluates the Hessians of all live rows in one
    _fd_hessian call and solves them in one stacked solve, and each halving
    of alpha evaluates the fields of the rows still searching in one
    stencil.
    """
    f = partial(batch_welfare, sys)
    U = np.array(starts, dtype=float)
    errors = {}
    G, finite = _fields(f, U, np.arange(len(U)), errors)
    live = np.flatnonzero(finite)      # the rows still stepping
    for _ in range(20):
        gn = np.max(np.abs(G[live]), axis=1)
        live, gn = live[gn >= 1e-11], gn[gn >= 1e-11]
        if not live.size:
            break
        delta, singular = _newton_steps(_fd_hessian(f, U[live]), G[live])
        live, gn, delta = live[~singular], gn[~singular], delta[~singular]
        # the halving line search of every row at one alpha; i holds the
        # positions in live of the rows still searching
        moved = np.zeros(len(live), dtype=bool)
        alpha, i = 1.0, np.arange(len(live))
        while i.size:
            u = U[live[i]]
            trial = u + alpha * delta[i]
            fresh = np.any(trial != u, axis=1)  # a step that rounds to u ends its row
            i, trial = i[fresh], trial[fresh]
            if not i.size:
                break
            g_trial, finite = _fields(f, trial, live[i], errors)
            better = finite & (np.max(np.abs(g_trial), axis=1) < gn[i])
            U[live[i[better]]], G[live[i[better]]] = trial[better], g_trial[better]
            moved[i[better]] = True
            i = i[finite & ~better]
            alpha *= 0.5
            if alpha <= 1e-10:
                break
        live = live[moved]
    return U, G, errors


def _newton_polish(sys: SystemInstance, u_flat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The one-row case of _newton_polish_rows: (u, F(u)), raising the
    ValueError of a field that stops being finite."""
    U, G, errors = _newton_polish_rows(sys, u_flat[None])
    if errors:
        raise errors[0]
    return U[0], G[0]


def _grid(sys: SystemInstance, box) -> np.ndarray:
    m = sys.N * sys.d
    if m > 3:
        raise ValueError(f"grid oracle supports N*d <= 3, got {m}")
    f = partial(batch_welfare, sys)
    axes = [np.linspace(box[0], box[1], 201)] * m  # pitch width/200
    best_w = -np.inf
    best_u = None
    # one batch per value of the first coordinate, 201^(m-1) points each; the
    # first point of the scan that attains the maximum wins
    for first in axes[0]:
        points = np.stack(np.meshgrid(first, *axes[1:], indexing="ij"), axis=-1).reshape(-1, m)
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite welfare is skipped
            w = f(points)
        w[np.isnan(w)] = -np.inf
        k = np.argmax(w)
        if w[k] > best_w:
            best_w = w[k]
            best_u = points[k]
    if best_u is None:
        raise ValueError(f"no grid point on the box {tuple(box)!r} has a finite welfare")
    return _newton_polish(sys, best_u)[0]


def _is_maximum(f_rows, u: np.ndarray) -> bool:
    """Whether the finite-difference welfare Hessian at u is negative
    definite: finite, with its largest eigenvalue below
    -1e-9 max(max |H_ij|, 1e-12)."""
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite Hessian is no maximum
        H = _fd_hessian(f_rows, u)[0]
    if not np.all(np.isfinite(H)):
        return False
    return not np.max(np.linalg.eigvalsh(H)) >= -1e-9 * max(np.max(np.abs(H)), 1e-12)


def _multistart(sys: SystemInstance, box) -> np.ndarray:
    m = sys.N * sys.d
    lo, hi = box
    # the box centre, then 31 uniform starts: one (31, m) draw is the stream
    # of 31 draws of m
    starts = np.vstack([np.full(m, 0.5 * (lo + hi)),
                        lo + (hi - lo) * np.random.default_rng(0).random((31, m))])
    f = partial(batch_welfare, sys)
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite welfare is skipped
        U, _, errors = _newton_polish_rows(sys, starts)
        ends = np.array([k for k in range(len(starts)) if k not in errors], dtype=int)
        w = f(U[ends])
    # the best finite end that is a maximum; the first start wins a tie
    ends, w = ends[np.isfinite(w)], w[np.isfinite(w)]
    for k in ends[np.argsort(-w, kind="stable")]:
        if _is_maximum(f, U[k]):
            return U[k]
    raise ValueError(f"no multistart start on the box {tuple(box)!r} ends at a finite "
                     "welfare maximum")


def joint_welfare_opt(sys: SystemInstance, box=None, method: str = "closed_form") -> OracleResult:
    """Reference joint welfare maximizer.

    method "closed_form" probes the stationarity system (quadratic welfare
    only; falls back to multistart with a warning unless the polished solve
    point is a verified maximum), "grid" scans the box at pitch width/200 for N*d <= 3
    and polishes with Newton, "newton_multistart" polishes 32 starts, the
    box centre and random box starts, as one stack and keeps the end with
    the highest finite welfare whose finite-difference Hessian is negative
    definite (a start whose welfare overflows is skipped; ValueError naming
    the box when no start ends at such a maximum). Without a box, grid and
    newton_multistart (the fallback too) raise "<method> requires a box".

    Every polish runs one damped Newton loop on welfare values only, the 32
    starts in lockstep and closed_form's and grid's point as its one-row
    case: the field is a central first difference and the Hessian a
    symmetric central second difference of the welfare. Each iteration
    evaluates the Hessians of all rows still stepping as batches of stencil
    points and makes one stacked solve, and each halving of the line search
    evaluates the fields of the rows still searching as one batch (as the
    closed-form probe and each slice of the grid scan are one batch). A row
    stops at ||field||_inf < 1e-11, after 20 steps, at a singular Hessian,
    or as soon as backtracking to alpha <= 1e-10 (or to a step that rounds
    to no move) finds no reducing step, exactly where it stops when
    polished alone. The result's method names the one that produced
    u_star, so a closed_form request that fell back reports
    "newton_multistart".
    """
    if method not in ("closed_form", "grid", "newton_multistart"):
        raise ValueError(f"unknown oracle method: {method}")
    u = _closed_form(sys) if method == "closed_form" else None
    if method == "closed_form" and u is None:
        warnings.warn("closed_form: probed stationarity system unreliable "
                      "(non-quadratic or indefinite welfare), falling back "
                      "to newton_multistart")
        method = "newton_multistart"
    if u is None:
        if box is None:
            raise ValueError(f"{method} requires a box")
        u = (_grid if method == "grid" else _multistart)(sys, box)
    u_star = u.reshape(sys.N, sys.d)
    return OracleResult(u_star=u_star, welfare=joint_welfare(sys, u_star), method=method)
