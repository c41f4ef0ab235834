"""Fictitious-play iterations and the variational-inequality projection
solver they reduce to, plus co-coercivity estimation and the default step.

The stacked operator F(u) = (grad_{u_1} R_1, ..., grad_{u_N} R_N) collects
each agent's reward gradient (private utility plus the shared coupling,
chain-ruled through that agent's next state). Nash stationarity is F(u*) = 0,
equivalently the VI: (y - u*)^T F(u*) >= 0 rewritten for the ascent
orientation used here. F and every agent's payoff gradients come from the
model's stacked utility gradients (model._utility_gradients) and the
coupling's one pair pass (CouplingFunction._grad_hess_rows, whose all-rows
gradient is grad), chain-ruled through each row's B^T, and every play mode
solves its best responses as one row-stacked Newton iteration
(numerics.newton_root): all N agents in the simultaneous,
two-stage, single-stage and Tikhonov plays, the one agent t mod N in
sequential play. Each row is bit for bit a one-row newton_root solve of
that agent's game alone, as agents.best_response solves a priced game: its
utility, the shared coupling with everyone else frozen, and in the proximal
plays the term whose gradient is -lam (u - anchor). This module never asks
whether a utility is quadratic. What a round's _start holds, and why it
saves the round a fleet step, is stated once, at mechanism.run_stage.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from .errors import BestResponseError, NonConvergenceError
from .model import (SystemInstance, _batches, _fleet_step, _utility_gradients, _utility_hessians,
                    joint_action, joint_next_state)
from .numerics import newton_root


# ---------------------------------------------------------------------------
# the projection solver and the co-coercivity estimate

def vi_project_iterate(F, u0, tau: float, box=None, tol: float = 1e-8, max_iter: int = 1000):
    """Projection iteration u^k = Pi_K(u^{k-1} + tau F(u^{k-1})).

    F is an ascent (reward-gradient) field, a callable on flat points; K is
    the box (lo, hi)^m, so Pi_K clips every coordinate to the pair box, and
    box None means (-inf, inf). The convergence theory wants 0 < tau < 2c
    for the field's co-coercivity c. Stops at the first iterate whose
    projected residual ||Pi_K(u + F(u)) - u||_inf is <= tol, evaluating F
    once per iterate. Returns (u, trace) where trace rows are (k, residual)
    for k >= 1. Raises NonConvergenceError with the trace after max_iter.
    """
    if not 0 < tau < np.inf:
        raise ValueError(f"tau must be finite and > 0, got {tau!r}")
    lo, hi = (-np.inf, np.inf) if box is None else box
    u = np.asarray(u0, dtype=float).copy()
    trace = []
    for k in range(max_iter + 1):
        Fu = F(u)
        resid = float(np.max(np.abs(np.clip(u + Fu, lo, hi) - u)))
        if k:
            trace.append((k, resid))
        if resid <= tol:
            return u, trace
        if k < max_iter:
            u = np.clip(u + tau * Fu, lo, hi)
    raise NonConvergenceError(
        f"projection iteration residual {resid:.3e} > tol after {max_iter} iters",
        reason="max_rounds", trace=trace, last=u)


def estimate_cocoercivity(F, box, m: int, n_pairs: int = 500) -> float:
    """Sampled co-coercivity constant c_hat of an ascent field over the box
    (lo, hi)^m.

    F is a callable on a (K, m) batch of flat points (reward_field, say),
    called once on all 2 n_pairs sampled points.
    c_hat = min over pairs of <-(F(x) - F(y)), x - y> / ||F(x) - F(y)||^2,
    the pairs drawn uniformly from the box with seed 0; the orientation
    treats F as a reward gradient, so F(u) = b - u gives c_hat = 1. For
    F(u) = b - M u with SPD M the true constant is 1/lambda_max(M), but a
    pair's ratio reaches it only when x - y lies along M's top
    eigenvector; every other pair gives more. So the sampled minimum can
    only overstate the true constant, and does so in many dimensions
    (0.319 against 1/lambda_max = 0.249 on the local model of an N = 30
    barrier fleet, m = 60). Pairs with
    ||F(x) - F(y)|| < 1e-12 are skipped; c_hat <= 0 flags the field as
    non-co-coercive. Raises ValueError when every pair is skipped, or when a
    ratio's terms are not finite (they overflow on a box too large).
    """
    if n_pairs < 2:
        raise ValueError("n_pairs must be >= 2")
    lo, hi = box
    P = lo + (hi - lo) * np.random.default_rng(0).random((n_pairs, 2, m))
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is checked below
        FP = F(P.reshape(-1, m)).reshape(n_pairs, 2, m)
        dF = (FP[:, 0] - FP[:, 1])[:, None, :]
        denom = (dF @ dF.swapaxes(1, 2))[:, 0, 0]
        num = -(dF @ (P[:, 0] - P[:, 1])[:, :, None])[:, 0, 0]
    kept = ~(denom < 1e-24)  # ||dF|| < 1e-12
    if not (np.all(np.isfinite(num[kept])) and np.all(np.isfinite(denom[kept]))):
        raise ValueError(f"co-coercivity ratio is not finite on the box {tuple(box)!r}; "
                         "use a smaller box or supply an explicit gamma")
    if not kept.any():
        raise ValueError("all sampled pairs were degenerate (constant field?)")
    return float(np.min(num[kept] / denom[kept]))


# ---------------------------------------------------------------------------
# the stacked reward field of a system instance

def _payoff_derivatives(sys: SystemInstance, V, X, rows, Y=None):
    """(g, H): the payoff gradients and Hessians, (k, d) and (k, d, d), of
    the agents rows[i] at their actions V, (k, d), against opponents frozen
    at the next states X; Y is the rows' own next states when the caller has
    them, else one fleet step makes them. Everything read by agent (A x, B,
    B^T, -2 B^T, the pair indices, the utilities) comes from the instance's
    RowTable for rows: the fleet table for all rows, else a gather of them
    made once per row subset and instance. The coupling's B^T g and
    B^T H B, g and H its gradient and Hessian rows, come from one pair pass
    (CouplingFunction._grad_hess_rows); no proximal term."""
    table = sys._row_table(rows)
    if Y is None:
        Y = _fleet_step(table, V)
    g, H = sys.coupling._grad_hess_rows(Y, X, table.others)
    return (_utility_gradients(table, V, Y) + (table.Bt @ g[..., None])[..., 0],
            _utility_hessians(table, V) + table.Bt @ H @ table.B)


def reward_field(sys: SystemInstance):
    """F(u) stacking the per-agent reward gradients, in the shape of the joint
    actions it is given: (..., N, d) -> (..., N, d), or flat (..., N*d) ->
    (..., N*d). Each row is agent n's utility gradient plus B_n^T times
    row n of the coupling gradient, from one fleet step; a batch is taken
    in the model._batches of N^2 pairs per joint action."""
    table = sys._fleet

    def F(u):
        U = np.ascontiguousarray(np.reshape(u, (-1, sys.N, sys.d)), dtype=float)
        if not np.all(np.isfinite(U)):
            raise ValueError("joint action contains non-finite entries")
        out = np.empty(U.shape)
        for s in _batches(sys, len(U), sys.N * sys.N):
            Y = _fleet_step(table, U[s])
            out[s] = (_utility_gradients(table, U[s], Y)
                      + (table.Bt @ sys.coupling.grad(Y)[..., None])[..., 0])
        return out.reshape(np.shape(u))

    return F


def default_schedule(sys: SystemInstance, box) -> float:
    """The default step gamma = min(0.9 * 2 * c_hat, 1), with c_hat estimated
    for the instance's reward field over the box (lo, hi)^{N d}: 0.9 times
    the 2 c_hat bound of the convergence theory. c_hat can overstate the
    true constant c (see estimate_cocoercivity), so gamma is not sure to be
    below 2c: on the N = 30 barrier fleet it exceeds it."""
    c_hat = estimate_cocoercivity(reward_field(sys), box, sys.N * sys.d)
    if not c_hat > 0:
        raise ValueError(f"reward field not co-coercive on the box (c_hat={c_hat:.3e}); "
                         "supply an explicit gamma")
    return min(0.9 * 2.0 * c_hat, 1.0)


# ---------------------------------------------------------------------------
# play modes (one iteration each; the loop lives in mechanism.run_stage)

def _jacobi_responses(sys: SystemInstance, X_frozen: np.ndarray, anchors: np.ndarray,
                      lam: float | None = None, rows=None, start=None) -> np.ndarray:
    """The best responses of the agents in rows (default all N, in order)
    against opponents frozen at the next states X_frozen, solved as one
    row-stacked Newton iteration: row i is bit for bit the one-row solve
    of agent n = rows[i]'s game alone, and starts at anchors[n]. With lam the
    game adds the proximal term anchored there. Each evaluation is one
    _payoff_derivatives pass; start, when given, is that pass at the first
    Newton point, to which the proximal term is added as to every point.
    Returns (len(rows), d). A failure raises the lowest failing row's
    BestResponseError, naming its agent rows[i]."""
    rows = np.arange(sys.N) if rows is None else np.asarray(rows, dtype=np.intp)
    x0 = anchors[rows]
    if lam is None:
        def derivatives(V, i):
            return _payoff_derivatives(sys, V, X_frozen, rows[i])
    else:
        lam_eye = lam * sys.coupling._eye

        def proximal(V, n, g, H):
            return g - lam * (V - anchors[n]), H - lam_eye

        def derivatives(V, i):
            n = rows[i]
            return proximal(V, n, *_payoff_derivatives(sys, V, X_frozen, n))

        if start is not None:
            start = proximal(x0, rows, *start)

    def error(message, last, residual, i):
        return BestResponseError(message, last, residual, int(rows[i]))

    U, _ = newton_root(derivatives, x0, error=error,
                       jacobian_name="payoff Hessian", maximize=True, start=start)
    return U


def play_simultaneous(sys: SystemInstance, u_prev, *, _start=None) -> np.ndarray:
    """All agents best-respond in parallel against u_prev. _start is the
    round start mechanism.run_stage hands over (see there)."""
    U = joint_action(sys, u_prev)
    X, start = _start or (joint_next_state(sys, U), None)
    return _jacobi_responses(sys, X, U, start=start)


def play_sequential(sys: SystemInstance, u_prev, t: int) -> np.ndarray:
    """Only agent t mod N best-responds; everyone else copies u_prev.
    Chaining t = 0, 1, ... yields a Gauss-Seidel sweep."""
    U = joint_action(sys, u_prev)
    n = t % sys.N
    out = U.copy()
    out[n] = _jacobi_responses(sys, joint_next_state(sys, U), U, rows=[n])[0]
    return out


def probe_utility_gradient(lam: float, response, anchor, coupling_grad) -> np.ndarray:
    """Private-gradient extraction from a proximal probe response.

    Stage-1 stationarity grad U(u_hat) + grad G(u_hat) - lam (u_hat - anchor)
    = 0 rearranges to grad U(u_hat) = lam (u_hat - anchor) - grad G(u_hat):
    the coordinator reads the agent's private utility gradient using only the
    observed response and quantities it knows.
    """
    return lam * (response - anchor) - coupling_grad


def _proximal_round(sys: SystemInstance, U: np.ndarray, X_frozen: np.ndarray, lam: float,
                    gamma: float, start=None, field: bool = False):
    """(responses, net update, extracted grad U, F at the responses or None):
    proximal responses anchored at U against opponents frozen at the next
    states X_frozen, and U + gamma (grad U_n + grad_n G). Both coupling
    gradients, against X_frozen and at the responses' own next states Y,
    come from one stacked pair pass. With field, the fourth entry is the
    reward field at the responses, reward_field's bits, from the same Y and
    B^T grad G(Y). start is _jacobi_responses' first Newton point, when
    already known."""
    table = sys._fleet
    resp = _jacobi_responses(sys, X_frozen, U, lam, start=start)
    Y = _fleet_step(table, resp)
    # one pass: the coupling gradient against the frozen opponents, and at Y itself
    G = sys.coupling._grad_hess_rows(np.stack((Y, Y)), np.stack((X_frozen, Y)), table.others,
                                     hessian=False)
    g_frozen, g_own = (table.Bt @ G[..., None])[..., 0]
    g_util = probe_utility_gradient(lam, resp, U, g_frozen)
    F = _utility_gradients(table, resp, Y) + g_own if field else None
    with np.errstate(over="ignore"):  # an overflow is a divergence run_stage reports
        return resp, U + gamma * (g_util + g_own), g_util, F


class TwoStageUpdate(NamedTuple):
    """One two-stage round: the net update, the probe responses and the extracted gradients."""

    u: np.ndarray              # net update u^k
    u_hat: np.ndarray          # stage-1 probe responses
    utility_grads: np.ndarray  # extracted grad U_n(u_hat_n), coordinator-side


def two_stage_update(sys: SystemInstance, u_prev, lam: float, gamma: float, *,
                     _start=None) -> TwoStageUpdate:
    """One round of two-stage play, exposing the probe internals.

    Stage 1: each agent solves grad U_n(u_hat) + grad_n G(u_hat, u_prev_{-n})
    - lam (u_hat - u_prev_n) = 0. Stage 2 is applied as the derived net
    update u^k = u^{k-1} + gamma (grad U_n(u_hat_n) + grad_n G(u_hat)),
    with grad U extracted via probe_utility_gradient. That is the response
    to the posed stage-2 probe game -||u - v_n||^2 with target
    v_n = u_prev_n + gamma (grad U_n + grad_n G). _start is stage 1's round
    start (see mechanism.run_stage).
    """
    U = joint_action(sys, u_prev)
    X, start = _start or (joint_next_state(sys, U), None)
    u_hat, u_next, g_util, _ = _proximal_round(sys, U, X, lam, gamma, start)
    return TwoStageUpdate(u=u_next, u_hat=u_hat, utility_grads=g_util)


class SingleStageUpdate(NamedTuple):
    """One single-stage round: responses, coordinator sequence, extracted gradients, field."""

    u: np.ndarray              # agent responses u^k
    u_tilde: np.ndarray        # coordinator sequence u_tilde^k
    utility_grads: np.ndarray  # extracted grad U_n(u_n^k)
    field: np.ndarray          # reward field F(u^k), bit for bit reward_field's


def single_stage_update(sys: SystemInstance, u_prev, u_tilde_prev, lam: float,
                        gamma: float) -> SingleStageUpdate:
    """One round of single-stage play.

    Agents best-respond to the proximal probe anchored at their own previous
    response, with opponents frozen at the coordinator sequence
    u_tilde^{k-1}; the coordinator then advances
    u_tilde^k = u^{k-1} + gamma (grad U_n(u_n^k) + grad_n G(u^k)) using only
    known quantities (grad U extracted via the probe identity). The round
    also returns the reward field at the responses, from the next states
    and coupling gradient the update already formed, so the coordinator's
    convergence test evaluates no point again.
    """
    U = joint_action(sys, u_prev)
    resp, u_tilde, g_util, F = _proximal_round(sys, U, joint_next_state(sys, u_tilde_prev),
                                               lam, gamma, field=True)
    return SingleStageUpdate(u=resp, u_tilde=u_tilde, utility_grads=g_util, field=F)


def play_tikhonov(sys: SystemInstance, u_prev, lam: float, *, _start=None) -> np.ndarray:
    """Proximally regularized full step: each agent maximizes its reward plus
    the Tikhonov anchor term; the responses are the next iterate directly
    (a perturbed projection step with effective step 1/lam). _start is the
    round start (see mechanism.run_stage)."""
    U = joint_action(sys, u_prev)
    X, start = _start or (joint_next_state(sys, U), None)
    return _jacobi_responses(sys, X, U, lam, start=start)


def grid_gradient_bound(sys: SystemInstance, box) -> float:
    """Dense-grid estimate of D = max_n sup ||grad_{u_n}(U_n + G)|| over the
    joint action box (lo, hi)^{N d} (pitch = width / 50 per dimension). This
    is the constant in the proximal-gap bound ||u_hat - u_prev|| <= N D / lam.
    Practical for N * d <= 3: the grid has 51^(N d) points."""
    m = sys.N * sys.d
    if m > 3:
        raise ValueError(f"grid bound supports N*d <= 3, got {m}")
    axes = [np.linspace(box[0], box[1], 51)] * m
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, sys.N, sys.d)
    vals = reward_field(sys)(grid)
    return float(np.max(np.linalg.norm(vals, axis=-1), initial=0.0))


# ---------------------------------------------------------------------------
# dynamic-tracking diagnostic bound

def tracking_error_bound(lambda_B: float, u_m: float, h_F: float, E: Sequence[float]) -> float:
    """Tracking-error bound for per-stage play against drifting states.

    lambda_B is the largest absolute eigenvalue of the input matrix B (must
    be < 1), u_m the action-norm bound, h_F the sensitivity of the per-stage
    Nash target to the state, and E the static-play decay factors E_n after n
    iterations. Returns the minimum over n = 1..len(E) of

        h_F lambda_B n u_m / (1 - lambda_B)
        - h_F lambda_B (1 - lambda_B^n) u_m / (1 - lambda_B)^2
        + 2 E_n u_m.

    At n = 1 the two drift terms cancel exactly, leaving 2 E_1 u_m; with
    lambda_B = 0 the bound is 2 u_m min_n E_n. Raises ValueError naming the
    argument when lambda_B is not in [0, 1), when E is empty, or when u_m,
    h_F or an entry of E is not finite and >= 0.
    """
    if not 0.0 <= lambda_B:
        raise ValueError("lambda_B must be >= 0")
    if lambda_B >= 1.0:
        raise ValueError("lambda_B must be < 1")
    E = np.asarray(E, dtype=float)
    if E.size == 0:
        raise ValueError("E must be non-empty")
    for name, value in (("u_m", u_m), ("h_F", h_F), ("E", E)):
        if not np.all((0.0 <= value) & (value < np.inf)):
            raise ValueError(f"{name} must be finite and >= 0, got {value!r}")
    n = np.arange(1, E.size + 1, dtype=float)
    drift = (h_F * lambda_B * n * u_m / (1.0 - lambda_B)
             - h_F * lambda_B * (1.0 - lambda_B ** n) * u_m / (1.0 - lambda_B) ** 2)
    return float(np.min(drift + 2.0 * E * u_m))
