"""Independent reference computations used by tests and acceptance checks.

Everything here is deliberately assembled from utility and coupling VALUES
only (finite differences, grid scans, probed affine systems), so it shares no
gradient code with the solvers: numerics.fd_gradients only differences the
welfare value. The Newton polish behind every method takes its field from
central first differences of the welfare value and its Hessian from central
second differences of the same value. It stops when the field's sup-norm
drops below 1e-11 or when no backtracking step down to alpha = 1e-10 reduces
it, which is where the finite-difference field reaches its noise floor. It
does not use numerics.newton_root, so the reference never runs the loop it
checks.

Every stencil is one batch of model.batch_welfare rows, each row equal to
the scalar welfare bit for bit: a field is 2m points (m = N d), a Hessian
1 + 2m^2, the closed-form probe m + 1 fields, and the grid scan one batch
per value of the first coordinate (201^(m-1) points). A batch is one
batch_welfare call of up to 2^18 / (N^2 d) rows (14,563 at N = 3, d = 2),
so the pair differences of a call stay under 2 MB whatever the fleet size;
the stencil points themselves take (1 + 2m^2) m floats for a Hessian.
joint_welfare is the same welfare at one joint action.

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


# a batch_welfare call holds (K, N, N, d) pair differences and a few (K, N, N)
# pair arrays; K is capped so that the differences stay below 2^18 floats
_PAIR_FLOATS = 2 ** 18


def _welfare_rows(sys: SystemInstance):
    """Welfare at each row of a (K, N*d) array of flat joint actions, in
    batch_welfare calls of at most 2^18 / (N^2 d) rows each."""
    rows = max(1, _PAIR_FLOATS // (sys.N * sys.N * sys.d))

    def f(P):
        U = P.reshape(-1, sys.N, sys.d)
        return np.concatenate([batch_welfare(sys, U[k:k + rows]) for k in range(0, len(U), rows)])

    return f


def _closed_form(sys: SystemInstance) -> np.ndarray | None:
    # Probe the welfare-gradient field at zero and at the unit vectors, all
    # m + 1 fields in one batch. For quadratic welfare central differences are
    # exact up to roundoff, so the probed system is the true linear
    # stationarity system J u* = -f0.
    m = sys.N * sys.d
    fields = fd_gradients(_welfare_rows(sys), np.vstack([np.zeros(m), np.eye(m)]))
    f0 = fields[0]
    J = (fields[1:] - f0).T  # column i is F(e_i) - f0
    sym = 0.5 * (J + J.T)
    scale = max(np.max(np.abs(sym)), 1.0)
    if np.max(np.linalg.eigvalsh(sym)) > -1e-12 * scale:
        return None  # not negative definite, stationary point may not be a max
    return np.linalg.solve(J, -f0)


def _fd_hessian(f_rows, u: np.ndarray) -> np.ndarray:
    """Symmetric central second-difference Hessian, step h = 1e-4, from one
    call of f_rows on 1 + 2 m^2 points: the diagonal from f(u) and
    f(u +- h e_i), each off-diagonal pair from the four corners
    u +- h e_i +- h e_j."""
    m, h = u.size, 1e-4
    E = h * np.eye(m)
    I, J = np.tril_indices(m, -1)
    up, um = u + E, u - E
    w = f_rows(np.concatenate([u[None], up, um, up[I] + E[J], up[I] - E[J],
                               um[I] + E[J], um[I] - E[J]]))
    f0, wp, wm, corners = w[0], w[1:m + 1], w[m + 1:2 * m + 1], w[2 * m + 1:].reshape(4, -1)
    H = np.empty((m, m))
    H[np.diag_indices(m)] = (wp - 2.0 * f0 + wm) / (h * h)
    H[I, J] = H[J, I] = (corners[0] - corners[1] - corners[2] + corners[3]) / (4.0 * h * h)
    return H


def _newton_polish(sys: SystemInstance, u_flat: np.ndarray) -> np.ndarray:
    """Damped Newton on the finite-difference welfare field F.

    Stops when ||F||_inf < 1e-11, after 20 steps, or when backtracking to
    alpha <= 1e-10 finds no step that reduces ||F||_inf: F has then reached
    its finite-difference noise floor and further steps only cost
    evaluations. The field at the accepted step is the next residual.
    """
    f = _welfare_rows(sys)
    u = u_flat.copy()
    g = fd_gradients(f, u)[0]
    for _ in range(20):
        gn = np.max(np.abs(g))
        if gn < 1e-11:
            break
        try:
            delta = np.linalg.solve(_fd_hessian(f, u), -g)
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


def _grid(sys: SystemInstance, box) -> np.ndarray:
    m = sys.N * sys.d
    if m > 3:
        raise ValueError(f"grid oracle supports N*d <= 3, got {m}")
    f = _welfare_rows(sys)
    axes = [np.linspace(box[0], box[1], 201)] * m  # pitch width/200
    best_w = -np.inf
    best_u = None
    # one batch per value of the first coordinate, 201^(m-1) points each; the
    # first point of the scan that attains the maximum wins
    for first in axes[0]:
        points = np.stack(np.meshgrid(first, *axes[1:], indexing="ij"), axis=-1).reshape(-1, m)
        w = f(points)
        w[np.isnan(w)] = -np.inf
        k = np.argmax(w)
        if w[k] > best_w:
            best_w = w[k]
            best_u = points[k]
    return _newton_polish(sys, best_u)


def _multistart(sys: SystemInstance, box) -> np.ndarray:
    m = sys.N * sys.d
    lo, hi = box
    rng = np.random.default_rng(0)
    f = _welfare_rows(sys)
    best_w = -np.inf
    best_u = None
    for k in range(32):
        start = lo + (hi - lo) * rng.random(m) if k else np.full(m, 0.5 * (lo + hi))
        u = _newton_polish(sys, start)
        w = f(u[None])[0]
        if np.isfinite(w) and w > best_w:
            best_w = w
            best_u = u
    return best_u


def joint_welfare_opt(sys: SystemInstance, box=None, method: str = "closed_form") -> OracleResult:
    """Reference joint welfare maximizer.

    method "closed_form" probes the stationarity system (quadratic welfare
    only; falls back to multistart with a warning if the probed Hessian is not
    negative definite), "grid" scans the box at pitch width/200 for N*d <= 3
    and polishes with Newton, "newton_multistart" runs 32 damped Newton solves
    from random box starts and keeps the best.

    Every Newton solve works on welfare values only: the field is a central
    first difference and the Hessian a symmetric central second difference
    of the welfare, each evaluated as one batch of stencil points (as are
    the closed-form probe and each slice of the grid scan). A solve stops at
    ||field||_inf < 1e-11, after 20 steps, or as soon as backtracking to
    alpha <= 1e-10 finds no reducing step.
    The result's method names the one that produced u_star, so a
    closed_form request that fell back reports "newton_multistart".
    """
    if method == "closed_form":
        u = _closed_form(sys)
        if u is not None:
            # Newton-polish and verify: on genuinely quadratic welfare the
            # polish stops at the noise floor within a step or two, on anything
            # else the probed affine system was only a secant approximation
            # and polish/fallback corrects it.
            u = _newton_polish(sys, u)
            f = _welfare_rows(sys)
            if np.max(np.abs(fd_gradients(f, u))) > 1e-7 * (1.0 + np.max(np.abs(u))):
                u = None
            else:
                # stationary is not enough: the unit-vector secant probe can
                # look negative definite on quartic welfare whose true
                # curvature at the solve point is positive, so check the local
                # Hessian before trusting the point as a maximizer
                H = _fd_hessian(f, u)
                if np.max(np.linalg.eigvalsh(H)) >= -1e-9 * max(np.max(np.abs(H)), 1e-12):
                    u = None
        if u is None:
            warnings.warn("closed_form: probed stationarity system unreliable "
                          "(non-quadratic or indefinite welfare), falling back "
                          "to newton_multistart")
            if box is None:
                raise ValueError("multistart fallback requires a box")
            u = _multistart(sys, box)
            method = "newton_multistart"
    elif method == "grid":
        if box is None:
            raise ValueError("grid method requires a box")
        u = _grid(sys, box)
    elif method == "newton_multistart":
        if box is None:
            raise ValueError("newton_multistart requires a box")
        u = _multistart(sys, box)
    else:
        raise ValueError(f"unknown oracle method: {method}")
    u_star = u.reshape(sys.N, sys.d)
    return OracleResult(u_star=u_star, welfare=joint_welfare(sys, u_star), method=method)
