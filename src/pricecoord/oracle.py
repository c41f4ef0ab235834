"""Independent reference computations used by tests and acceptance checks.

Everything here is deliberately assembled from utility and coupling VALUES
only (finite differences, grid scans, probed affine systems), so it shares no
gradient code with the solvers: numerics.fd_gradient only differences the
welfare value. The Newton polish behind every method takes its field from
central first differences of the welfare value and its Hessian from central
second differences of the same value. It stops when the field's sup-norm
drops below 1e-11 or when no backtracking step down to alpha = 1e-10 reduces
it, which is where the finite-difference field reaches its noise floor. It
does not use numerics.newton_root, so the reference never runs the loop it
checks.

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

from .model import SystemInstance, joint_action, joint_next_state
from .numerics import fd_gradient


def joint_welfare(sys: SystemInstance, u) -> float:
    """Social welfare sum_n U_n(x_n(t+1), u_n) + G(x(t+1)), w = 0."""
    U = joint_action(sys, u)
    X_next = joint_next_state(sys, U)
    total = sum(sys.utilities[n].value(X_next[n], U[n]) for n in range(sys.N))
    return float(total + sys.coupling.value(X_next))


@dataclass(frozen=True)
class OracleResult:
    u_star: np.ndarray
    welfare: float
    method: str


def _welfare_flat(sys: SystemInstance):
    def f(u_flat):
        return joint_welfare(sys, u_flat.reshape(sys.N, sys.d))

    return f


def _fd_field(sys: SystemInstance):
    f = _welfare_flat(sys)
    return lambda u_flat: fd_gradient(f, u_flat, 1e-5)


def _closed_form(sys: SystemInstance) -> np.ndarray | None:
    # Probe the welfare-gradient field at unit vectors. For quadratic welfare
    # central differences are exact up to roundoff, so the probed system is the
    # true linear stationarity system J u* = -f0.
    m = sys.N * sys.d
    F = _fd_field(sys)
    f0 = F(np.zeros(m))
    J = np.empty((m, m))
    for i in range(m):
        e = np.zeros(m)
        e[i] = 1.0
        J[:, i] = F(e) - f0
    sym = 0.5 * (J + J.T)
    scale = max(np.max(np.abs(sym)), 1.0)
    if np.max(np.linalg.eigvalsh(sym)) > -1e-12 * scale:
        return None  # not negative definite, stationary point may not be a max
    return np.linalg.solve(J, -f0)


def _fd_hessian(f, u: np.ndarray, h: float = 1e-4) -> np.ndarray:
    """Symmetric central second-difference Hessian of a scalar function from
    1 + 2 m^2 values: the diagonal from f(u) and f(u +- h e_i), each
    off-diagonal pair from the four corners u +- h e_i +- h e_j."""
    m = u.size
    E = h * np.eye(m)
    f0 = f(u)
    H = np.empty((m, m))
    for i in range(m):
        H[i, i] = (f(u + E[i]) - 2.0 * f0 + f(u - E[i])) / (h * h)
        for j in range(i):
            H[i, j] = H[j, i] = (f(u + E[i] + E[j]) - f(u + E[i] - E[j])
                                 - f(u - E[i] + E[j]) + f(u - E[i] - E[j])) / (4.0 * h * h)
    return H


def _newton_polish(sys: SystemInstance, u_flat: np.ndarray, iters: int = 20) -> np.ndarray:
    """Damped Newton on the finite-difference welfare field F.

    Stops when ||F||_inf < 1e-11, after iters steps, or when backtracking to
    alpha <= 1e-10 finds no step that reduces ||F||_inf: F has then reached
    its finite-difference noise floor and further steps only cost
    evaluations. The field at the accepted step is the next residual.
    """
    f = _welfare_flat(sys)
    F = _fd_field(sys)
    u = u_flat.copy()
    g = F(u)
    for _ in range(iters):
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
            g_trial = F(trial)
            if np.max(np.abs(g_trial)) < gn:
                break
            alpha *= 0.5
            if alpha <= 1e-10:
                return u
        u, g = trial, g_trial
    return u


def _box_arrays(sys: SystemInstance, box) -> tuple[np.ndarray, np.ndarray]:
    m = sys.N * sys.d
    lo, hi = box
    lo = np.broadcast_to(np.asarray(lo, dtype=float), (m,)).copy()
    hi = np.broadcast_to(np.asarray(hi, dtype=float), (m,)).copy()
    return lo, hi


def _grid(sys: SystemInstance, box) -> np.ndarray:
    m = sys.N * sys.d
    if m > 3:
        raise ValueError(f"grid oracle supports N*d <= 3, got {m}")
    lo, hi = _box_arrays(sys, box)
    f = _welfare_flat(sys)
    axes = [np.linspace(lo[i], hi[i], 201) for i in range(m)]  # pitch width/200
    best_w = -np.inf
    best_u = None
    for point in np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, m):
        w = f(point)
        if w > best_w:
            best_w = w
            best_u = point
    return _newton_polish(sys, best_u)


def _multistart(sys: SystemInstance, box, n_starts: int = 32, seed: int = 0) -> np.ndarray:
    lo, hi = _box_arrays(sys, box)
    rng = np.random.default_rng(seed)
    f = _welfare_flat(sys)
    best_w = -np.inf
    best_u = None
    for k in range(n_starts):
        start = lo + (hi - lo) * rng.random(lo.size) if k else 0.5 * (lo + hi)
        u = _newton_polish(sys, start)
        w = f(u)
        if np.isfinite(w) and w > best_w:
            best_w = w
            best_u = u
    return best_u


def joint_welfare_opt(sys: SystemInstance, box=None, method: str = "closed_form",
                      seed: int = 0) -> OracleResult:
    """Reference joint welfare maximizer.

    method "closed_form" probes the stationarity system (quadratic welfare
    only; falls back to multistart with a warning if the probed Hessian is not
    negative definite), "grid" scans the box at pitch width/200 for N*d <= 3
    and polishes with Newton, "newton_multistart" runs 32 damped Newton solves
    from random box starts and keeps the best.

    Every Newton solve works on welfare values only: the field is a central
    first difference and the Hessian a symmetric central second difference
    of the welfare. A solve stops at ||field||_inf < 1e-11, after 20 steps,
    or as soon as backtracking to alpha <= 1e-10 finds no reducing step.
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
            F = _fd_field(sys)
            if np.max(np.abs(F(u))) > 1e-7 * (1.0 + np.max(np.abs(u))):
                u = None
            else:
                # stationary is not enough: the unit-vector secant probe can
                # look negative definite on quartic welfare whose true
                # curvature at the solve point is positive, so check the local
                # Hessian before trusting the point as a maximizer
                H = _fd_hessian(_welfare_flat(sys), u)
                if np.max(np.linalg.eigvalsh(H)) >= -1e-9 * max(np.max(np.abs(H)), 1e-12):
                    u = None
        if u is None:
            warnings.warn("closed_form: probed stationarity system unreliable "
                          "(non-quadratic or indefinite welfare), falling back "
                          "to newton_multistart")
            if box is None:
                raise ValueError("multistart fallback requires a box")
            u = _multistart(sys, box, seed=seed)
            method = "newton_multistart"
    elif method == "grid":
        if box is None:
            raise ValueError("grid method requires a box")
        u = _grid(sys, box)
    elif method == "newton_multistart":
        if box is None:
            raise ValueError("newton_multistart requires a box")
        u = _multistart(sys, box, seed=seed)
    else:
        raise ValueError(f"unknown oracle method: {method}")
    u_star = u.reshape(sys.N, sys.d)
    return OracleResult(u_star=u_star, welfare=joint_welfare(sys, u_star), method=method)
