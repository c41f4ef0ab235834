"""Independent reference computations used by tests and acceptance checks.

Everything here is assembled from utility and coupling VALUES only (finite
differences of the welfare and a probed affine system), so it shares no
gradient code with the solvers. The welfare is partially separable: a sum
of one-agent utilities and two-agent pair terms of the coupling, and the
differences use that. Field component (a, i) is the central difference,
step 1e-5, of W_a = U_a + scale sum_{m != a} pair_value(||x_a - x_m||^2),
the only welfare terms agent a's action moves. A Hessian's block (a, a) is
the central second difference, step 1e-4, of W_a on its 1 + 2 d^2 points,
and block (a, b) the four-corner difference of pair (a, b)'s value alone:
utilities add nothing across agents. The utility terms come from
model._utility_values, stacked for quadratic utilities and one value call
per point for the one agent a point moves otherwise. The stencils run in
model._batches, so each pair_value call takes at most
model.PAIR_BATCH_FLOATS / d squared distances and the pair differences
stay under 2 MB whatever the fleet size; a row's stencil spans several
calls when it needs more.

The Newton polish behind both paths is one loop, _newton_polish_rows, that
polishes a (k, m) stack of starts in lockstep: newton_multistart sends its
32 starts through it at once, and closed_form runs its one-row case. Its
stopping rule is stated there and its backtracking at _line_search. The
loop does not use numerics.newton_root, so the reference never runs the
loop it checks; it shares only the stacked linear solve of a Newton step
(numerics._newton_steps) and the non-finite error. joint_welfare and the
multistart's choice among its ends are model.batch_welfare, whose rows
equal the scalar welfare bit for bit.

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

from .model import (SystemInstance, _batches, _fleet_step, _squared_norms, _utility_values,
                    batch_welfare, joint_action)
from .numerics import _finite, _newton_steps, _nonfinite

# _line_search's alphas and the blocks of them one field call evaluates (see there)
_ALPHAS = 0.5 ** np.arange(34)
_BLOCKS = ((0, 1), (1, 3), (3, 7), (7, 15), (15, 31), (31, 34))


def joint_welfare(sys: SystemInstance, u) -> float:
    """Social welfare sum_n U_n(x_n(t+1), u_n) + G(x(t+1)), w = 0: the
    oracle's batch_welfare at K = 1."""
    return float(batch_welfare(sys, joint_action(sys, u)[None])[0])


@dataclass(frozen=True)
class OracleResult:
    """joint_welfare_opt's maximizer (N, d), its welfare and the method that found it."""

    u_star: np.ndarray
    welfare: float
    method: str


def _agent_terms(sys: SystemInstance, U: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """W_a = U_a(x_a', v) + scale sum_{m != a} pair_value(||x_a' - x_m||^2)
    for agent a of each joint action of U, (K, N, d), moved to each action
    v = u_a + offsets[p], (P, d), with its next state x_a' moved along and
    the others' held: (K, N, P). The units (joint action, agent) go through
    in the model._batches of their pair differences."""
    K, N, d = U.shape
    G = sys.coupling
    X = _fleet_step(sys._fleet, U).reshape(-1, d)
    U = U.reshape(-1, d)
    shifts = offsets @ sys._fleet.Bt  # (N, P, d): agent a's next-state moves
    pairs = G.scale != 0.0 and N > 1
    out = np.empty((K * N, len(offsets)))
    for s in _batches(sys, K * N, len(offsets) * (N - 1)):
        unit = np.arange(s.start, s.stop)
        a = unit % N
        Xs, Us = X[s, None] + shifts[a], U[s, None] + offsets  # (c, P, d)
        vals = _utility_values(sys, a[:, None], Xs, Us)
        if pairs:
            D = Xs[:, :, None] - X[(unit - a)[:, None] + G._others[a]][:, None]
            vals = vals + G.scale * G.pair_value(_squared_norms(D)).sum(axis=-1)
        out[s] = vals
    return out.reshape(K, N, -1)


def _field(sys: SystemInstance, X) -> np.ndarray:
    """The central-difference welfare field, step 1e-5, at each row of X,
    (K, m), as (K, m): component (a, i) differences W_a alone. Non-finite
    where a difference is."""
    d, h = sys.d, 1e-5
    E = h * np.eye(d)
    X = np.ascontiguousarray(X, dtype=float)
    W = _agent_terms(sys, X.reshape(len(X), sys.N, d), np.vstack([E, -E]))
    with np.errstate(invalid="ignore", over="ignore"):
        return ((W[..., :d] - W[..., d:]) / (2.0 * h)).reshape(len(X), -1)


def _hessian(sys: SystemInstance, X) -> np.ndarray:
    """Symmetric central second-difference welfare Hessians, step 1e-4, at
    each row of X, (K, m), as (K, m, m). Block (a, a) differences W_a on
    the 1 + 2 d^2 points u_a, u_a +- h e_i and the four corners u_a +- h e_i
    +- h e_j; block (a, b) is the four-corner difference of pair (a, b)'s
    value, 4 d^2 squared distances."""
    N, d, h = sys.N, sys.d, 1e-4
    X = np.ascontiguousarray(X, dtype=float)
    K = len(X)
    U = X.reshape(K, N, d)
    E = h * np.eye(d)
    I, J = np.tril_indices(d, -1)
    W = _agent_terms(sys, U, np.vstack([np.zeros((1, d)), E, -E, E[I] + E[J], E[I] - E[J],
                                        -E[I] + E[J], -E[I] - E[J]]))
    blocks = np.empty((K, N, d, d))
    i = np.arange(d)
    blocks[..., i, i] = (W[..., 1:d + 1] - 2.0 * W[..., :1] + W[..., d + 1:2 * d + 1]) / (h * h)
    c = W[..., 2 * d + 1:].reshape(K, N, 4, len(I))
    blocks[..., I, J] = blocks[..., J, I] = (c[:, :, 0] - c[:, :, 1] - c[:, :, 2]
                                             + c[:, :, 3]) / (4.0 * h * h)
    H = np.zeros((K, N, d, N, d))
    a = np.arange(N)
    H[:, a, :, a, :] = blocks.swapaxes(0, 1)
    G = sys.coupling
    if G.scale != 0.0 and N > 1:
        n, m = G._upper
        Xn = _fleet_step(sys._fleet, U)
        D0 = (Xn[:, n] - Xn[:, m]).reshape(-1, d)
        hB = h * sys._fleet.Bt  # row i of agent a: h B_a e_i
        pair = np.empty((len(D0), d, d))
        for s in _batches(sys, len(D0), 4 * d * d):
            p = np.arange(s.start, s.stop) % len(n)
            Sa, Sb = hB[n[p], :, None], hB[m[p], None]
            # x_n - x_m moves by +-same at the corners ++ and --, by +-cross at +- and -+
            same, cross = Sa - Sb, Sa + Sb
            v = G.pair_value(_squared_norms(
                D0[s, None, None, None] + np.stack([same, cross, -cross, -same], axis=1)))
            pair[s] = G.scale * (v[:, 0] - v[:, 1] - v[:, 2] + v[:, 3]) / (4.0 * h * h)
        pair = pair.reshape(K, len(n), d, d).swapaxes(0, 1)
        H[:, n, :, m, :] = pair
        H[:, m, :, n, :] = pair.swapaxes(2, 3)
    return H.reshape(K, N * d, N * d)


def _closed_form(sys: SystemInstance) -> np.ndarray | None:
    """The Newton-polished solution of the probed stationarity system if it
    is a verified welfare maximum, else None."""
    # Probe the welfare-gradient field at zero and at the unit vectors, all
    # m + 1 fields in one call. For quadratic welfare central differences are
    # exact up to roundoff, so the probed system is the true linear
    # stationarity system J u* = -f0; on other welfare it is only a secant.
    m = sys.N * sys.d
    fields = _finite(_field(sys, np.vstack([np.zeros(m), np.eye(m)])))
    f0 = fields[0]
    J = (fields[1:] - f0).T  # column i is F(e_i) - f0
    sym = 0.5 * (J + J.T)
    scale = max(np.max(np.abs(sym)), 1.0)
    if np.max(np.linalg.eigvalsh(sym)) > -1e-12 * scale:
        return None  # not negative definite, stationary point may not be a max
    u, g = _newton_polish(sys, np.linalg.solve(J, -f0))
    # stationary is not enough: the secant probe can look negative definite
    # on quartic welfare whose curvature at the solve point is positive
    if np.max(np.abs(g)) > 1e-7 * (1.0 + np.max(np.abs(u))) or not _is_maximum(sys, u):
        return None
    return u


def _fields(sys: SystemInstance, X: np.ndarray, rows: np.ndarray, errors: dict):
    """(fields, finite): _field at the rows of X, and the mask of the rows
    whose field is finite. The ValueError of each other row, naming its
    first non-finite coordinate, goes into errors under its label in rows."""
    G = _field(sys, X)
    finite = np.all(np.isfinite(G), axis=1)
    for i in np.flatnonzero(~finite):
        errors[rows[i]] = _nonfinite(G[i])
    return G, finite


def _newton_polish_rows(sys: SystemInstance, starts) -> tuple[np.ndarray, np.ndarray, dict]:
    """Damped Newton on the finite-difference welfare field F from each row
    of starts, (k, m), all rows in lockstep: (U, G, errors), each row's end
    point and F there, and the ValueError of each row dropped because its
    field stopped being finite (its rows of U and G are then meaningless).

    A row stops when ||F||_inf < 1e-11, after 20 steps, at a singular
    Hessian, or when backtracking finds no step that reduces ||F||_inf
    down to alpha = 2^-33 or before u + alpha delta rounds to u (every
    shorter step then does too): F has then reached its noise floor and
    further steps only cost evaluations. The field at the accepted step is
    the next residual. Every row takes exactly the steps it takes alone:
    each iteration evaluates the Hessians of all live rows in one _hessian
    call and solves them in one stacked solve, then backtracks them in
    _line_search.
    """
    U = np.array(starts, dtype=float)
    errors = {}
    G, finite = _fields(sys, U, np.arange(len(U)), errors)
    live = np.flatnonzero(finite)      # the rows still stepping
    for _ in range(20):
        gn = np.max(np.abs(G[live]), axis=1)
        live, gn = live[gn >= 1e-11], gn[gn >= 1e-11]
        if not live.size:
            break
        delta, singular = _newton_steps(_hessian(sys, U[live]), G[live])
        if singular is not None:
            live, gn, delta = live[~singular], gn[~singular], delta[~singular]
        live = live[_line_search(sys, U, G, live, gn, delta, errors)]
    return U, G, errors


def _line_search(sys: SystemInstance, U, G, live, gn, delta, errors) -> np.ndarray:
    """The backtracking of the rows live, from U[live] along delta, as the
    mask of the rows that moved; U and G take each moved row's step and
    field. A row ends at the first alpha of 1, 1/2, ..., 2^-33 (every
    halving above 1e-10) whose step reduces ||F||_inf below gn (it moves),
    whose step rounds to U (it stays) or whose field is not finite (its
    ValueError goes into errors and it stays), or stays after the last:
    the step of a one-at-a-time halving loop. One _field call per doubling
    block of _BLOCKS, (1), (1/2, 1/4), (1/8 ... 1/64), ..., evaluates the
    trials of every row still searching, each up to its first step that
    rounds to U, so a row costs at most about twice the halving loop's
    evaluations: a trial behind a row's end in its block is evaluated and
    ignored."""
    moved = np.zeros(len(live), dtype=bool)
    i = np.arange(len(live))           # positions in live still searching
    for lo, hi in _BLOCKS:
        u = U[live[i]][:, None]
        trial = u + _ALPHAS[lo:hi, None] * delta[i][:, None]
        fresh = np.logical_and.accumulate(np.any(trial != u, axis=2), axis=1)
        if not np.any(fresh):
            break
        g = np.full(trial.shape, np.nan)
        g[fresh] = _field(sys, trial[fresh])
        finite = np.all(np.isfinite(g), axis=2)
        better = finite & (np.max(np.abs(g), axis=2) < gn[i, None])
        k = np.argmax(better | ~finite, axis=1)  # where each row's loop would stop
        at = np.arange(len(i))
        stop, step = ~finite[at, k] | better[at, k], better[at, k]
        U[live[i[step]]], G[live[i[step]]] = trial[step, k[step]], g[step, k[step]]
        moved[i[step]] = True
        for j in np.flatnonzero(stop & ~step & fresh[at, k]):
            errors[live[i[j]]] = _nonfinite(g[j, k[j]])
        i = i[~stop]
        if not i.size:
            break
    return moved


def _newton_polish(sys: SystemInstance, u_flat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The one-row case of _newton_polish_rows: (u, F(u)), raising the
    ValueError of a field that stops being finite."""
    U, G, errors = _newton_polish_rows(sys, u_flat[None])
    if errors:
        raise errors[0]
    return U[0], G[0]


def _is_maximum(sys: SystemInstance, u: np.ndarray) -> bool:
    """Whether the finite-difference welfare Hessian at u is negative
    definite: finite, with its largest eigenvalue below
    -1e-9 max(max |H_ij|, 1e-12)."""
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite Hessian is no maximum
        H = _hessian(sys, u[None])[0]
    if not np.all(np.isfinite(H)):
        return False
    return not np.max(np.linalg.eigvalsh(H)) >= -1e-9 * max(np.max(np.abs(H)), 1e-12)


def _starts(m: int, box) -> np.ndarray:
    """The multistart's 32 starts in R^m: the box centre, then 31 uniform
    starts (one (31, m) draw is the stream of 31 draws of m)."""
    lo, hi = box
    return np.vstack([np.full(m, 0.5 * (lo + hi)),
                      lo + (hi - lo) * np.random.default_rng(0).random((31, m))])


def _multistart(sys: SystemInstance, box) -> np.ndarray:
    starts = _starts(sys.N * sys.d, box)
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite welfare is skipped
        U, _, errors = _newton_polish_rows(sys, starts)
        ends = np.array([k for k in range(len(starts)) if k not in errors], dtype=int)
        w = batch_welfare(sys, U[ends])
    # the best finite end that is a maximum; the first start wins a tie
    ends, w = ends[np.isfinite(w)], w[np.isfinite(w)]
    for k in ends[np.argsort(-w, kind="stable")]:
        if _is_maximum(sys, U[k]):
            return U[k]
    raise ValueError(f"no multistart start on the box {tuple(box)!r} ends at a finite "
                     "welfare maximum")


def joint_welfare_opt(sys: SystemInstance, box=None) -> OracleResult:
    """Reference joint welfare maximizer.

    First the closed form: probe the stationarity system (exact on
    quadratic welfare only), solve it and polish the solve point, kept only
    if it is a verified maximum. Otherwise, with a warning, the multistart
    ("newton_multistart"): polish 32 starts, the box centre and random box
    starts, as one stack and keep the end with the highest finite welfare
    whose finite-difference Hessian is negative definite (a start whose
    welfare overflows is skipped; ValueError naming the box when no start
    ends at such a maximum, and "newton_multistart requires a box" without
    a box).

    Every polish is the damped Newton loop _newton_polish_rows on welfare
    values only, each start stopping exactly where it stops when polished
    alone. The result's method names the path that produced u_star:
    "closed_form" or "newton_multistart".
    """
    method, u = "closed_form", _closed_form(sys)
    if u is None:
        warnings.warn("closed_form: probed stationarity system unreliable "
                      "(non-quadratic or indefinite welfare), falling back "
                      "to newton_multistart")
        if box is None:
            raise ValueError("newton_multistart requires a box")
        method, u = "newton_multistart", _multistart(sys, box)
    u_star = u.reshape(sys.N, sys.d)
    return OracleResult(u_star=u_star, welfare=joint_welfare(sys, u_star), method=method)
