"""Parametric identification of quadratic private utilities from observed
(state, action, price) samples, and welfare-optimal price computation.

Each logged sample satisfies the agent's stationarity grad U_n(x, u) = p for
the price it faced. For the quadratic utility the gradient is

    grad U = -C x - D u + 2 B^T Q x0,   C = 2 B^T Q A,  D = 2 (B^T Q B + R),

so with the state shifted by the known rest target, x_tilde = x - A^{-1} x0,
the samples obey the linear model C x_tilde + D u = -p exactly. Regressing
-p on (x_tilde, u) leaves 2d unknown columns per output row; 2d independent
samples identify them (the Kronecker-vectorized stacking collapses to this
matrix least squares). When at least 2d + 1 samples are available an
auxiliary free-intercept fit reconciles the bias with x0 as a diagnostic.

Recovery inverts the definitions directly: Q_hat = (1/2) B^{-T} C A^{-1} and
R_hat = D/2 - B^T Q_hat B, both symmetrized. (A commonly quoted shortcut
Q = B^{-1} C / 2, R = D - C is dimensionally inconsistent for A != B; the
noise-free round-trip test pins the version used here.)

Orientation note: the map from posted price to the agent's response is
u(p) = -D^{-1} p - D^{-1} C x + 2 D^{-1} B^T Q_hat x0. The sign on p is
fixed by the round trip p = grad U(u_target) => u(p) = u_target.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigError, NonConvergenceError, RankDeficiencyError
from .model import (
    LinearDynamics,
    SystemInstance,
    as_vector,
    joint_next_state,
)
from .numerics import fd_jacobian, newton_root

_SINGULAR_COND = 1e12


@dataclass(frozen=True)
class ObservationLog:
    """Columnar log of (t, n, x, u, p) observations, append-only by
    convention: extend by building a new log over concatenated rows."""

    t: np.ndarray  # (M,) int round indices
    n: np.ndarray  # (M,) int agent ids
    x: np.ndarray  # (M, d) states
    u: np.ndarray  # (M, d) actions
    p: np.ndarray  # (M, d) prices

    def __post_init__(self):
        t = np.asarray(self.t, dtype=int)
        n = np.asarray(self.n, dtype=int)
        x = np.atleast_2d(np.asarray(self.x, dtype=float))
        u = np.atleast_2d(np.asarray(self.u, dtype=float))
        p = np.atleast_2d(np.asarray(self.p, dtype=float))
        M = t.size
        if not (n.size == M and x.shape[0] == M and u.shape[0] == M and p.shape[0] == M):
            raise ValueError("log columns disagree on the number of rows")
        if not (x.shape == u.shape == p.shape):
            raise ValueError("x, u, p must share the dimension d")
        for name, arr in (("x", x), ("u", u), ("p", p)):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"log column {name} contains non-finite values")
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "p", p)

    @property
    def d(self) -> int:
        return self.x.shape[1]

    def __len__(self) -> int:
        return self.t.size

    @classmethod
    def from_rows(cls, rows) -> "ObservationLog":
        """rows: iterable of (t, n, x, u, p)."""
        rows = list(rows)
        if not rows:
            raise ValueError("empty observation log")
        return cls(t=np.array([r[0] for r in rows]),
                   n=np.array([r[1] for r in rows]),
                   x=np.array([np.atleast_1d(r[2]) for r in rows], dtype=float),
                   u=np.array([np.atleast_1d(r[3]) for r in rows], dtype=float),
                   p=np.array([np.atleast_1d(r[4]) for r in rows], dtype=float))

    def for_agent(self, n: int):
        """(X, U, P) sample matrices for one agent, in log order."""
        mask = self.n == n
        return self.x[mask], self.u[mask], self.p[mask]


def csv_header(d: int) -> str:
    cols = ["t", "n"]
    for prefix in ("x", "u", "p"):
        cols += [f"{prefix}_{i}" for i in range(d)]
    return ",".join(cols)


def write_csv(path, header: str, rows) -> None:
    with open(path, "w") as fh:
        fh.write("\n".join([header, *rows]) + "\n")


def save_log(log: ObservationLog, path) -> None:
    """Writes the log as CSV in the one observation schema: the header
    t,n,x_*,u_*,p_*, then one row per observation with integer t and n and
    17-significant-digit floats, so load_log reads back the same bits."""
    write_csv(path, csv_header(log.d),
              (",".join([str(int(log.t[i])), str(int(log.n[i]))]
                        + [f"{v:.17g}" for arr in (log.x[i], log.u[i], log.p[i]) for v in arr])
               for i in range(len(log))))


def load_log(path) -> ObservationLog:
    """Parses a CSV of the t,n,x_*,u_*,p_* schema, as save_log writes it,
    into an ObservationLog; blank lines are skipped. Raises ConfigError
    naming the file and the offending 1-based line (blank lines counted) on
    a header off the schema, a wrong field count, a non-integer t or n, an
    unparseable or non-finite float, and on no data rows."""
    with open(path) as fh:
        lines = [(idx, ln) for idx, ln in enumerate((raw.strip() for raw in fh), start=1) if ln]
    if not lines:
        raise ConfigError(f"{path}: empty CSV (header row is mandatory)")
    head_idx, head = lines[0]
    header = head.split(",")
    d = (len(header) - 2) // 3
    if d < 1 or header != csv_header(d).split(","):
        raise ConfigError(f"{path}: line {head_idx}: header {head!r} does not match the "
                          "t,n,x_*,u_*,p_* schema")
    width = len(header)
    rows = []
    for idx, ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != width:
            raise ConfigError(f"{path}: line {idx}: expected {width} fields, got {len(parts)}")
        try:
            t, n = int(parts[0]), int(parts[1])
            vals = [float(v) for v in parts[2:]]
        except ValueError as exc:
            raise ConfigError(f"{path}: line {idx}: unparseable field ({exc})") from None
        if not all(np.isfinite(vals)):
            raise ConfigError(f"{path}: line {idx}: non-finite value")
        rows.append((t, n, vals[:d], vals[d:2 * d], vals[2 * d:]))
    if not rows:
        raise ConfigError(f"{path}: no data rows")
    return ObservationLog.from_rows(rows)


# ---------------------------------------------------------------------------
# identification

@dataclass(frozen=True)
class EstimatedQuadraticModel:
    """Identified quadratic utility for one agent.

    C and D are the gradient coefficients (grad U = -C x - D u + 2 B^T Q x0),
    Q_hat and R_hat the recovered symmetric weights. residual is the RMS fit
    error, rank the numerical rank of the regressor block (2d when
    identifiable). x0 is echoed for downstream price formulas, b_condition
    is the condition number of B, and x0_check, when enough samples allowed
    the free-intercept cross-fit, is the mismatch between the fitted bias
    and the one implied by x0 (near 0 on clean consistent data).
    """

    C: np.ndarray
    D: np.ndarray
    Q_hat: np.ndarray
    R_hat: np.ndarray
    residual: float
    rank: int
    x0: np.ndarray
    b_condition: float
    x0_check: Optional[float] = None


def _require_invertible(mat: np.ndarray, name: str) -> float:
    cond = float(np.linalg.cond(mat))
    if not np.isfinite(cond) or cond > _SINGULAR_COND:
        raise ValueError(f"dynamics matrix {name} is numerically singular "
                         f"(condition number {cond:.3e}); identification needs it invertible")
    return cond


def identify(log: ObservationLog, n: int, dyn: LinearDynamics, x0) -> EstimatedQuadraticModel:
    """Least-squares identification of agent n's quadratic utility.

    Needs at least 2d observations of the agent whose shifted regressors
    (x - A^{-1} x0, u) have full rank 2d; otherwise raises
    RankDeficiencyError (there are 2 d^2 scalar unknowns per agent, and each
    observation contributes d equations). Rank uses a relative singular
    value cutoff of 1e-10.
    """
    d = dyn.d
    x0 = as_vector(x0, d, "x0")
    _require_invertible(dyn.A, "A")
    b_cond = _require_invertible(dyn.B, "B")
    X, U, P = log.for_agent(n)
    M = X.shape[0]
    if log.d != d:
        raise ValueError(f"log dimension {log.d} does not match dynamics dimension {d}")

    shift = np.linalg.solve(dyn.A, x0)
    Z = np.hstack([X - shift, U])          # (M, 2d)
    Y = -P                                 # (M, d)

    if M == 0:
        raise RankDeficiencyError(f"no observations for agent {n}", rank=0, required=2 * d)
    sv = np.linalg.svd(Z, compute_uv=False)
    rank = int(np.sum(sv > 1e-10 * sv[0])) if sv.size and sv[0] > 0 else 0
    if rank < 2 * d:
        raise RankDeficiencyError(
            f"identification for agent {n} is under-determined: regressor rank {rank} < {2 * d} "
            f"({M} observations cover {M * d} of the {2 * d * d} scalar unknowns; "
            "supply more informative samples)", rank=rank, required=2 * d)

    Et, *_ = np.linalg.lstsq(Z, Y, rcond=1e-10)
    E = Et.T                               # (d, 2d)
    C, D = E[:, :d].copy(), E[:, d:].copy()
    residual = float(np.sqrt(np.mean((Z @ Et - Y) ** 2)))

    Q_hat = 0.5 * np.linalg.solve(dyn.B.T, C) @ np.linalg.inv(dyn.A)
    Q_hat = 0.5 * (Q_hat + Q_hat.T)
    R_hat = 0.5 * D - dyn.B.T @ Q_hat @ dyn.B
    R_hat = 0.5 * (R_hat + R_hat.T)

    x0_check = None
    if M >= 2 * d + 1:
        Zc = np.hstack([X, U, np.ones((M, 1))])
        Ec, *_ = np.linalg.lstsq(Zc, Y, rcond=1e-10)
        bias = Ec.T[:, -1]
        implied = -2.0 * dyn.B.T @ Q_hat @ x0
        x0_check = float(np.max(np.abs(bias - implied)))

    return EstimatedQuadraticModel(C=C, D=D, Q_hat=Q_hat, R_hat=R_hat,
                                   residual=residual, rank=rank, x0=x0,
                                   b_condition=b_cond, x0_check=x0_check)


def estimated_gradient(model: EstimatedQuadraticModel, dyn: LinearDynamics, x, u) -> np.ndarray:
    """grad U under the identified model: -C x - D u + 2 B^T Q_hat x0."""
    return -model.C @ x - model.D @ u + 2.0 * dyn.B.T @ model.Q_hat @ model.x0


def price_to_action_map(model: EstimatedQuadraticModel, x, dyn: LinearDynamics):
    """Affine response map of the identified agent to a posted price.

    Returns (gain, offset) with u(p) = gain @ p + offset, where
    gain = -D^{-1} and offset = D^{-1} (2 B^T Q_hat x0 - C x), x0 being the
    rest target identify echoed into model.x0. The gain sign follows from
    the payoff's -p^T u term: stationarity is grad U(u) = p.
    """
    x = as_vector(x, dyn.d, "x")
    if np.linalg.cond(model.D) > _SINGULAR_COND:
        raise ValueError("estimated D is numerically singular; no price-response map")
    Dinv = np.linalg.inv(model.D)
    gain = -Dinv
    offset = Dinv @ (2.0 * dyn.B.T @ model.Q_hat @ model.x0 - model.C @ x)
    return gain, offset


def optimal_price(models: Sequence[EstimatedQuadraticModel], sys: SystemInstance):
    """Welfare-optimal prices from identified models at sys's states.

    Solves the stationarity system of the estimated social welfare,
    grad U_hat_n(x_n, u_n) + B_n^T grad_{x_n} G(X_next) = 0 for all n, by
    damped Newton, then prices each agent at its private estimated gradient
    there: posting p_n* makes u_n* the agent's best response. Returns the
    list of p_n*. G identically zero yields p* = 0.
    """
    if len(models) != sys.N:
        raise ValueError(f"need one model per agent ({sys.N}), got {len(models)}")
    N, d = sys.N, sys.d
    for m in models:
        if np.linalg.cond(m.D) > _SINGULAR_COND:
            raise ValueError("estimated D is numerically singular")

    def est_grad(n, U):
        return estimated_gradient(models[n], sys.dynamics[n], sys.states[n], U[n])

    def field(u_flat):
        U = u_flat.reshape(N, d)
        G = sys.coupling.grad(joint_next_state(sys, U))
        out = np.empty_like(U)
        for n in range(N):
            out[n] = est_grad(n, U) + sys.dynamics[n].B.T @ G[n]
        return out.ravel()

    def error(message, last, residual, row):
        return NonConvergenceError(f"optimal-price Newton solve: {message}",
                                   reason="newton", last=last.reshape(N, d))

    u, _ = newton_root(lambda U, rows: field(U[0])[None],
                       lambda U, rows: fd_jacobian(field, U[0])[None], np.zeros((1, N * d)),
                       tol=1e-10, max_iter=100, error=error)

    return [est_grad(n, u.reshape(N, d)) for n in range(N)]
