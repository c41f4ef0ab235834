"""Ground-truth world: per-subsystem linear dynamics, private utilities, and
the shared coupling term.

States and actions are plain float ndarrays of length d. Inputs are checked
where data enters the package: the constructors (so replace_states too),
joint_action, GameSpec, the best_response start and price length,
utility_gradient_error and the CSV and JSON loaders. step, the utility
methods and agents.payoff_* trust 1-D length-d float arrays. Everything
here is immutable after construction and pure, so instances can be shared
freely across solver threads (a SystemInstance builds its fleet table,
the read-only RowTable of every agent's stacked model arrays, on first
use, and gathers one from it per set of agent rows a derivative pass asks
for).

batch_welfare evaluates the social welfare at K joint actions in one call,
each row bit for bit the scalar formula. as_vector and as_matrix return
C-ordered arrays, which keeps a product the same whether it runs alone or
stacked.

Sign convention used by the whole package: the coupling G is ADDED everywhere.
Social welfare is sum_n U_n + G and each agent's posed reward is U_n + G, so
penalties (collision terms) must enter as G = -penalty. This removes the sign
drift that otherwise creeps in between the welfare and the agent-reward sides.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .numerics import fd_gradient, fd_jacobian


def as_vector(v, d: int | None = None, name: str = "vector") -> np.ndarray:
    """Coerce to a finite contiguous float 1-D array, optionally checking
    length."""
    arr = np.asarray(v, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got shape {arr.shape}")
    if d is not None and arr.shape[0] != d:
        raise ValueError(f"{name} has length {arr.shape[0]}, expected {d}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite entries")
    return np.ascontiguousarray(arr)


def as_matrix(m, shape=None, name: str = "matrix") -> np.ndarray:
    """Coerce to a finite C-ordered float 2-D array, optionally checking
    shape. C order keeps a matrix's products bit for bit the same whether it
    is used alone or stacked with others (see batch_welfare)."""
    arr = np.asarray(m, dtype=float)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {arr.shape}")
    if shape is not None and arr.shape != tuple(shape):
        raise ValueError(f"{name} has shape {arr.shape}, expected {tuple(shape)}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite entries")
    return np.ascontiguousarray(arr)


@dataclass(frozen=True)
class LinearDynamics:
    """State evolution x(t+1) = A x(t) + B u(t) + w(t), with the noise w
    passed to step. B must be invertible for parametric identification (its
    condition number is reported there, not enforced here).
    """

    A: np.ndarray
    B: np.ndarray

    def __post_init__(self):
        A = as_matrix(self.A, name="A")
        d = A.shape[0]
        if A.shape[1] != d:
            raise ValueError(f"A must be square, got {A.shape}")
        B = as_matrix(self.B, (d, d), name="B")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)

    @property
    def d(self) -> int:
        return self.A.shape[0]


def step(dyn: LinearDynamics, x, u, w=None) -> np.ndarray:
    """One step of the linear dynamics, x(t+1) = A x + B u + w."""
    out = dyn.A @ x + dyn.B @ u
    if w is not None:
        out = out + w
    return out


def _check_spd(M: np.ndarray, name: str) -> np.ndarray:
    if not np.allclose(M, M.T, atol=1e-12):
        raise ValueError(f"{name} must be symmetric within 1e-12")
    M = 0.5 * (M + M.T)
    if np.min(np.linalg.eigvalsh(M)) <= 0.0:
        raise ValueError(f"{name} must be positive definite")
    return M


@dataclass(frozen=True)
class QuadraticUtility:
    """U(x_next, u) = -(x_next - x0)^T Q (x_next - x0) - u^T R u, Q, R SPD."""

    Q: np.ndarray
    R: np.ndarray
    x0: np.ndarray

    def __post_init__(self):
        Q = _check_spd(as_matrix(self.Q, name="Q"), "Q")
        d = Q.shape[0]
        R = _check_spd(as_matrix(self.R, (d, d), name="R"), "R")
        x0 = as_vector(self.x0, d, "x0")
        object.__setattr__(self, "Q", Q)
        object.__setattr__(self, "R", R)
        object.__setattr__(self, "x0", x0)

    def value(self, x_next, u) -> float:
        e = x_next - self.x0
        return float(-(e @ self.Q @ e) - u @ self.R @ u)

    def grad_u(self, dyn: LinearDynamics, x, u) -> np.ndarray:
        """Total derivative of U w.r.t. u through x_next (w = 0)."""
        x_next = step(dyn, x, u)
        return -2.0 * dyn.B.T @ (self.Q @ (x_next - self.x0)) - 2.0 * (self.R @ u)

    def hess_u(self, dyn: LinearDynamics, x, u) -> np.ndarray:
        """Second total derivative of U w.r.t. u, -2 (B^T Q B + R): constant."""
        return -2.0 * (dyn.B.T @ self.Q @ dyn.B + self.R)


@dataclass(frozen=True)
class SmoothUtility:
    """General smooth utility given as value(x_next, u) -> float.

    gradient_u, when present, is the total derivative of U w.r.t. u through
    x_next, with signature (x_next, u, dyn) -> vector. When absent it is
    defined by central finite differences of value through the dynamics.
    hessian_u, when present, is the second total derivative with the same
    signature, returning a (d, d) matrix; without it hess_u is the
    symmetrized central difference of grad_u. Analytic gradients must
    match finite differences to rel. err <= 1e-5; tests enforce this on
    sampled points, and on the Hessians too.
    """

    value_fn: Callable[[np.ndarray, np.ndarray], float]
    gradient_u: Callable | None = None
    hessian_u: Callable | None = None

    def value(self, x_next, u) -> float:
        return float(self.value_fn(x_next, u))

    def grad_u(self, dyn: LinearDynamics, x, u) -> np.ndarray:
        if self.gradient_u is not None:
            return self.gradient_u(step(dyn, x, u), u, dyn)
        return fd_gradient(lambda v: self.value(step(dyn, x, v), v), u, 1e-6)

    def hess_u(self, dyn: LinearDynamics, x, u) -> np.ndarray:
        if self.hessian_u is None:
            H = fd_jacobian(lambda v: self.grad_u(dyn, x, v), u)
            return 0.5 * (H + H.T)
        return self.hessian_u(step(dyn, x, u), u, dyn)


def cross_term_utility(Q, R, x0, K: Sequence[np.ndarray]) -> SmoothUtility:
    """Quadratic utility plus higher-order cross terms.

    U = -(x_next-x0)^T Q (x_next-x0) - u^T R u - 0.5 * sum_i x_next[i] * u^T K_i u.
    The cross part makes the gradient field genuinely curved (nonflat), which
    the connection fit in `geometry` is designed to detect.
    """
    base = QuadraticUtility(Q, R, x0)
    Ks = [as_matrix(Ki, (base.Q.shape[0],) * 2, "K_i") for Ki in K]

    def value(x_next, u):
        cross = sum(x_next[i] * (u @ Ki @ u) for i, Ki in enumerate(Ks))
        return base.value(x_next, u) - 0.5 * cross

    def gradient(x_next, u, dyn):
        g = -2.0 * dyn.B.T @ (base.Q @ (x_next - base.x0)) - 2.0 * base.R @ u
        for i, Ki in enumerate(Ks):
            # d/du [x_next_i(u) * u^T K_i u]: product rule through x_next = Ax + Bu
            g = g - 0.5 * ((u @ Ki @ u) * dyn.B.T[:, i] + x_next[i] * (Ki + Ki.T) @ u)
        return g

    def hessian(x_next, u, dyn):
        H = -2.0 * (dyn.B.T @ base.Q @ dyn.B + base.R)
        for i, Ki in enumerate(Ks):
            # d/du of the gradient above: b v^T + v b^T + x_next_i (K_i + K_i^T),
            # with b = B[i, :] and v = (K_i + K_i^T) u
            S = Ki + Ki.T
            b, v = dyn.B[i], S @ u
            H = H - 0.5 * (np.outer(b, v) + np.outer(v, b) + x_next[i] * S)
        return H

    return SmoothUtility(value, gradient, hessian)


def decomposable_utility(value_x, grad_x, value_u, grad_u) -> SmoothUtility:
    """Utility U(x_next, u) = U^x(x_next) + U^u(u) with analytic parts.

    The total u-gradient is B^T grad_x(x_next) + grad_u(u); this split
    structure is what the kernel learner in `geometry` exploits.
    """

    def value(x_next, u):
        return float(value_x(x_next) + value_u(u))

    def gradient(x_next, u, dyn):
        return dyn.B.T @ np.asarray(grad_x(x_next), float) + np.asarray(grad_u(u), float)

    return SmoothUtility(value, gradient)


def _squared_norms(D: np.ndarray) -> np.ndarray:
    """||D||^2 along the last axis: a stacked matmul with the exact bits of
    diff @ diff."""
    return (D[..., None, :] @ D[..., :, None])[..., 0, 0]


def _ordered_sum(terms: np.ndarray, axis: int = 0) -> np.ndarray:
    # in index order, as a loop over pairs adds: np.sum reassociates 8+ terms
    return terms.cumsum(axis=axis).take(-1, axis=axis)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class CouplingFunction:
    """Shared regulation term G over the joint next-state X, an (N, d) array,
    ADDED to welfare and to every agent's reward (penalties enter with a
    minus sign). G is a sum of radial pair terms: with s = ||x_n - x_m||^2,
    G = scale * sum_{n<m} pair_value(s). pair_terms(s) is (w(s), w'(s)),
    w = 2 * scale * pair_value' the pair weight of the gradient
    dG/dx_n = sum_{m != n} w(s) (x_n - x_m) and w' = dw/ds its curvature,
    which gives agent n's Hessian block d^2G/dx_n^2 = sum_{m != n} [w(s) I
    + 2 w'(s) D D^T] with D = x_n - x_m.

    _grad_hess_rows(Y, X, others) is the one pass that sums these pair
    derivatives, for the agents rows[i] with others = _others[rows]: row
    i is dG/dx_n for n = rows[i] with x_n replaced by Y[..., i, :] against
    the joint states X, (..., N, d), over agent n's N - 1 other agents,
    (..., k, d); and, for one joint state (Y of shape (k, d)), its Hessian
    block, (k, d, d). grad(X) is the pass's all-rows gradient at each
    (N, d) joint state of X. values(Xs) is value at each (N, d) row of a
    (K, N, d) array, bit for bit. Neither pass nor sum forms a self pair,
    so the pair functions only ever see pairs of two agents. A coupling
    with scale 0 is identically zero, and one with N = 1 has no pairs: both
    return zeros without touching their pair functions."""

    N: int
    d: int
    scale: float
    pair_value: Callable[[np.ndarray], np.ndarray]
    pair_terms: Callable[[np.ndarray], tuple]

    def value(self, X) -> float:
        return float(self.values(np.reshape(X, (1, self.N, self.d)))[0])

    def values(self, Xs) -> np.ndarray:
        Xs = np.asarray(Xs, dtype=float).reshape(-1, self.N, self.d)
        if self.scale == 0.0:
            return np.zeros(len(Xs))
        if self.N == 1:
            return self.scale * np.zeros(len(Xs))
        n, m = self._upper
        sq = _squared_norms(Xs[:, n] - Xs[:, m])
        return self.scale * _ordered_sum(self.pair_value(sq), axis=1)

    @cached_property
    def _upper(self) -> tuple:
        """values' pairs n < m in row-major order, np.triu_indices(N, 1),
        built once."""
        return np.triu_indices(self.N, 1)

    def grad(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        X = X.reshape(X.shape[:-2] + (self.N, self.d))
        return self._grad_hess_rows(X, X, self._others, hessian=False)

    @cached_property
    def _others(self) -> np.ndarray:
        """Row n: the indices m != n in order, (N, N - 1), built once, read-only."""
        m = np.arange(self.N - 1)
        return _read_only(m + (m >= np.arange(self.N)[:, None]))

    @cached_property
    def _eye(self) -> np.ndarray:
        """The d x d identity of the Hessian's w I term, built once, read-only."""
        return _read_only(np.eye(self.d))

    def _grad_hess_rows(self, Y, X, others: np.ndarray, hessian: bool = True):
        """(gradient rows, Hessian rows) for Y of shape (k, d), or with
        hessian False the gradient rows alone for Y of shape (..., k, d),
        from one pass over each row's N - 1 other agents with
        others = _others[rows]: one D, one squared norm and one
        pair_terms per pair. Each sum keeps its own order, bit for bit."""
        if self.scale == 0.0 or self.N == 1:
            g = np.zeros(np.shape(Y))
            return (g, np.zeros((len(Y), self.d, self.d))) if hessian else g
        D = Y[..., :, None, :] - X.take(others, axis=-2)
        w, c = self.pair_terms(_squared_norms(D))
        g = _ordered_sum(w[..., None] * D, axis=-2)
        if not hessian:
            return g
        # sum over the N - 1 other pairs of w I + 2 w' D D^T
        return g, (np.add.reduce(w, axis=-1)[:, None, None] * self._eye
                   + 2.0 * (D.transpose(0, 2, 1) * c[:, None, :]) @ D)


def zero_coupling(N: int, d: int) -> CouplingFunction:
    return CouplingFunction(N, d, 0.0, np.zeros_like, lambda sq: (np.zeros_like(sq),) * 2)


def pairwise_quadratic_coupling(strength: float, N: int, d: int) -> CouplingFunction:
    """Consensus-type coupling G(X) = -strength * sum_{n<m} ||x_n - x_m||^2.

    With strength = eps, N = 2, d = 1 this is the canonical weak/strong test
    coupling -eps (x_1 - x_2)^2.
    """
    return CouplingFunction(N, d, -strength, lambda sq: sq,
                            lambda sq: (np.full(sq.shape, -2.0 * strength), np.zeros(sq.shape)))


@dataclass(frozen=True)
class SystemInstance:
    """The world one coordination problem lives in: N subsystems with common
    d, their dynamics, private utilities, the shared coupling, and current
    physical states. Immutable; advancing time means building a new instance
    with updated states (see `replace_states`).
    """

    dynamics: tuple
    utilities: tuple
    coupling: CouplingFunction
    states: tuple

    def __post_init__(self):
        dynamics = tuple(self.dynamics)
        utilities = tuple(self.utilities)
        if len(dynamics) == 0 or len(dynamics) != len(utilities):
            raise ValueError("dynamics and utilities must be non-empty, equal length")
        d = dynamics[0].d
        if any(dy.d != d for dy in dynamics):
            raise ValueError("all subsystems must share the same d")
        states = tuple(as_vector(x, d, f"states[{i}]") for i, x in enumerate(self.states))
        if len(states) != len(dynamics):
            raise ValueError("states must have one entry per subsystem")
        if self.coupling.N != len(dynamics) or self.coupling.d != d:
            raise ValueError("coupling shape does not match instance")
        object.__setattr__(self, "dynamics", dynamics)
        object.__setattr__(self, "utilities", utilities)
        object.__setattr__(self, "states", states)

    @property
    def N(self) -> int:
        return len(self.dynamics)

    @cached_property
    def _fleet(self) -> RowTable:
        """The RowTable of all agents in order, built once: what the fleet
        step, batch_welfare, the derivative passes and the oracle read, and
        what every row subset's table is gathered from."""
        A, B = (np.array([getattr(dy, k) for dy in self.dynamics]) for k in "AB")
        Bt = B.swapaxes(1, 2)
        if all(isinstance(ut, QuadraticUtility) for ut in self.utilities):
            quadratic = tuple(_read_only(np.array([getattr(ut, k) for ut in self.utilities]))
                              for k in ("Q", "R", "x0"))
            hessians, agents = _read_only(-2.0 * (Bt @ quadratic[0] @ B + quadratic[1])), None
        else:
            quadratic = hessians = None
            agents = tuple(zip(self.utilities, self.dynamics, self.states))
        Ax = (A @ np.array(self.states)[..., None])[..., 0]
        return RowTable(*map(_read_only, (Ax, B, Bt, -2.0 * Bt)), quadratic, hessians, agents,
                        self.coupling._others)

    @cached_property
    def _row_tables(self) -> dict:
        """_row_table's tables, keyed by the bytes of their row array."""
        return {}

    def _row_table(self, rows: np.ndarray) -> RowTable:
        """The RowTable of the agents rows, an intp array, built on first
        use and kept on the instance, which is immutable: a stage's tables
        go when its instance does."""
        key = rows.tobytes()
        table = self._row_tables.get(key)
        if table is None:
            table = self._row_tables[key] = _build_row_table(self, rows)
        return table

    @cached_property
    def _default_steps(self) -> dict:
        """mechanism.stage_step's estimated default steps, keyed by box."""
        return {}

    @property
    def d(self) -> int:
        return self.dynamics[0].d


class RowTable(NamedTuple):
    """Everything a pass reads by agent for the agents rows[i] of one
    instance, (k, ...) arrays, each the product a pass would make: A x and
    B, B^T and -2 B^T; when every utility is quadratic (Q, R, x0) and the
    utility Hessians -2 (B^T Q B + R), else None and each row's (utility,
    dynamics, state); and the indices of each row's N - 1 other agents in
    order, the coupling's _others[rows]. A row subset's table holds its
    rows of the instance's fleet table. Read-only. No module but this one
    reads quadratic, hessians or agents."""

    Ax: np.ndarray
    B: np.ndarray
    Bt: np.ndarray
    minus_2Bt: np.ndarray
    quadratic: tuple | None
    hessians: np.ndarray | None
    agents: tuple | None
    others: np.ndarray


def _build_row_table(sys: SystemInstance, rows: np.ndarray) -> RowTable:
    """The fleet table itself for all rows in order, else its rows of each
    array."""
    if rows.dtype != np.intp:
        raise TypeError(f"rows must be an intp array, got {rows.dtype}")
    fleet = sys._fleet
    if np.array_equal(rows, np.arange(sys.N)):
        return fleet

    def take(a):
        return None if a is None else _read_only(a[rows])

    quadratic = fleet.quadratic and tuple(map(take, fleet.quadratic))
    agents = fleet.agents and tuple(fleet.agents[n] for n in rows)
    return RowTable(*map(take, fleet[:4]), quadratic, take(fleet.hessians), agents,
                    take(fleet.others))


def joint_action(sys: SystemInstance, u) -> np.ndarray:
    """Coerce a joint action to a finite (N, d) float array."""
    arr = np.asarray(u, dtype=float).reshape(sys.N, sys.d)
    if not np.isfinite(arr).all():
        raise ValueError("joint action contains non-finite entries")
    return arr


def joint_next_state(sys: SystemInstance, u) -> np.ndarray:
    """Noise-free next states for all subsystems as an (N, d) array."""
    return _fleet_step(sys._fleet, np.ascontiguousarray(joint_action(sys, u)))


def _fleet_step(table: RowTable, U: np.ndarray) -> np.ndarray:
    """A_n x_n + B_n u_n for the table's agent n = rows[i] at U[..., i, :],
    (..., k, d) C-ordered, as one stacked matmul: each row is
    step(dyn_n, x_n, u_n) bit for bit."""
    return table.Ax + (table.B @ U[..., None])[..., 0]


# The most pair-difference floats one batched pair computation forms: 2 MB.
PAIR_BATCH_FLOATS = 2 ** 18


def _batches(sys: SystemInstance, units: int, pairs: int) -> list:
    """Slices of range(units) in order, each of at most
    max(1, PAIR_BATCH_FLOATS // (d pairs)) units, so that a batched
    computation forming pairs length-d pair differences per unit stays
    under 2 MB whatever the fleet size."""
    step = max(1, PAIR_BATCH_FLOATS // (sys.d * max(pairs, 1)))
    return [slice(k, min(k + step, units)) for k in range(0, units, step)]


def _utility_values(sys: SystemInstance, agents: np.ndarray, X, U) -> np.ndarray:
    """U_n(x, u) of agent n = agents[...] at each next state and action of X
    and U, (..., d), the intp array agents broadcasting against their
    leading axes. Quadratic utilities are QuadraticUtility.value bit for
    bit, every product a stacked matmul of the scalar one's shapes; any
    other utility is called once per point in row-major order (a
    SmoothUtility's value_fn is an arbitrary callable of one point)."""
    quadratic = sys._fleet.quadratic
    if quadratic is None:
        agents = np.broadcast_to(agents, X.shape[:-1])
        d = X.shape[-1]
        return np.reshape([sys.utilities[n].value(x, u) for n, x, u in
                           zip(agents.ravel(), X.reshape(-1, d), U.reshape(-1, d))],
                          agents.shape)
    Q, R, x0 = (q[agents] for q in quadratic)
    E = X - x0
    return (-((E[..., None, :] @ Q) @ E[..., :, None])
            - ((U[..., None, :] @ R) @ U[..., :, None]))[..., 0, 0]


def _utility_gradients(table: RowTable, V, Y) -> np.ndarray:
    """Row i: the private utility gradient of the table's agent rows[i] at
    the action V[..., i, :], (..., k, d). Y is the rows' next states,
    _fleet_step(table, V), read only by the quadratic body, which is
    QuadraticUtility.grad_u bit for bit; any other utility answers
    through each row's grad_u."""
    if table.quadratic is None:
        out = [[ut.grad_u(dyn, x, v) for (ut, dyn, x), v in zip(table.agents, Vb)]
               for Vb in V.reshape(-1, len(table.agents), V.shape[-1])]
        return np.reshape(out, np.shape(V))
    Q, R, x0 = table.quadratic
    e = Y - x0
    return ((table.minus_2Bt @ (Q @ e[..., None]))[..., 0]
            - 2.0 * (R @ V[..., None])[..., 0])


def _utility_hessians(table: RowTable, V) -> np.ndarray:
    """The u-Hessians, (k, d, d), of the table's agents at their actions V,
    (k, d): the quadratic utilities' constant ones, else each row's
    hess_u."""
    if table.hessians is not None:
        return table.hessians
    return np.array([ut.hess_u(dyn, x, v) for (ut, dyn, x), v in zip(table.agents, V)])


def batch_welfare(sys: SystemInstance, U) -> np.ndarray:
    """Social welfare sum_n U_n(x_n(t+1), u_n) + G(x(t+1)), w = 0, at each of
    K joint actions, (K, N, d) or flat (K, N*d) -> (K,), in the _batches of
    N^2 pairs per row. Row k is the scalar formula
    sum(U_n.value(step(dyn_n, x_n, u_n), u_n)) + G.value(X) bit for bit:
    every product is a stacked matmul of C-ordered arrays with the shapes
    of the scalar one and every sum runs in the scalar order. Trusts finite
    input (see joint_action)."""
    U = np.ascontiguousarray(U, dtype=float).reshape(-1, sys.N, sys.d)
    out = np.empty(len(U))
    for s in _batches(sys, len(U), sys.N * sys.N):
        X = _fleet_step(sys._fleet, U[s])
        vals = _utility_values(sys, np.arange(sys.N), X, U[s])
        # the scalar sum starts from 0, so a row of zero utilities adds up to +0.0
        out[s] = (_ordered_sum(vals, axis=1) + 0.0) + sys.coupling.values(X)
    return out


def replace_states(sys: SystemInstance, states) -> SystemInstance:
    return SystemInstance(sys.dynamics, sys.utilities, sys.coupling, tuple(states))


def _relative_error(g: np.ndarray, fd: np.ndarray) -> np.ndarray:
    """||g - fd|| / ||fd|| along the last axis, the denominator floored at
    1e-12 so a zero reference gradient does not divide by zero."""
    return np.linalg.norm(g - fd, axis=-1) / np.maximum(np.linalg.norm(fd, axis=-1), 1e-12)


def utility_gradient_error(utility, dyn: LinearDynamics, points) -> float:
    """Max relative error of the analytic u-gradient vs central differences
    (step 1e-5) of value(step(x, u), u) over (x, u) sample points."""
    worst = 0.0
    for x, u in points:
        x = as_vector(x, dyn.d, "x")
        u = as_vector(u, dyn.d, "u")
        fd = fd_gradient(lambda v: utility.value(step(dyn, x, v), v), u)
        worst = max(worst, float(_relative_error(utility.grad_u(dyn, x, u), fd)))
    return worst


def coupling_gradient_error(G: CouplingFunction, joint_points) -> float:
    """Max relative error of a row of G.grad vs central differences (step
    1e-5) of G.value over (N, d) joint sample points."""
    worst = 0.0
    for X in joint_points:
        X = np.asarray(X, dtype=float).reshape(G.N, G.d)
        fd = fd_gradient(G.value, X.ravel()).reshape(G.N, G.d)
        worst = max(worst, float(np.max(_relative_error(G.grad(X), fd))))
    return worst
