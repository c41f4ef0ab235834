"""Fictitious-play iterations and the variational-inequality projection
solver they reduce to, plus co-coercivity estimation and the default step.

The stacked operator F(u) = (grad_{u_1} R_1, ..., grad_{u_N} R_N) collects
each agent's reward gradient (private utility plus the shared coupling,
chain-ruled through that agent's next state). Nash stationarity is F(u*) = 0,
equivalently the VI: (y - u*)^T F(u*) >= 0 rewritten for the ascent
orientation used here.

Proximal bookkeeping: GameSpec's proximal term is -lam ||u - anchor||^2 with
gradient -2 lam (u - anchor). The two-stage, single-stage, and Tikhonov plays
pose lam / 2 so their stationarity condition carries the coefficient
lam (u - anchor) exactly as the step-size analysis assumes; the gap bound
||u_hat - u_prev|| <= N D / lam and the probe-identity extraction of the
agent's private gradient both rely on this.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from .agents import CouplingSlice, GameSpec, best_response
from .errors import BestResponseError, NonConvergenceError
from .model import SystemInstance, joint_action, joint_next_state, step


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

    F is a callable on flat length-m points (flat_reward_field, say).
    c_hat = min over pairs of <-(F(x) - F(y)), x - y> / ||F(x) - F(y)||^2,
    the pairs drawn uniformly from the box with seed 0; the orientation
    treats F as a reward gradient, so F(u) = b - u gives c_hat = 1 and
    F(u) = b - M u gives 1/lambda_max(M) for SPD M. Pairs with
    ||F(x) - F(y)|| < 1e-12 are skipped; c_hat <= 0 flags the field as
    non-co-coercive. Raises ValueError when every pair is skipped, or when a
    ratio's terms are not finite (they overflow on a box too large).
    """
    if n_pairs < 2:
        raise ValueError("n_pairs must be >= 2")
    lo, hi = box
    rng = np.random.default_rng(0)
    best = np.inf
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is checked below
        for _ in range(n_pairs):
            x = lo + (hi - lo) * rng.random(m)
            y = lo + (hi - lo) * rng.random(m)
            dF = F(x) - F(y)
            denom = float(dF @ dF)
            if denom < 1e-24:  # ||dF|| < 1e-12
                continue
            num = float(-(dF @ (x - y)))
            if not np.isfinite(num) or not np.isfinite(denom):
                raise ValueError(f"co-coercivity ratio is not finite on the box {tuple(box)!r}; "
                                 "use a smaller box or supply an explicit gamma")
            best = min(best, num / denom)
    if best == np.inf:
        raise ValueError("all sampled pairs were degenerate (constant field?)")
    return best


# ---------------------------------------------------------------------------
# the stacked reward field of a system instance

def reward_field(sys: SystemInstance):
    """F(U) as an (N, d) -> (N, d) map stacking per-agent reward gradients."""

    def F(U):
        U = joint_action(sys, U)
        G = sys.coupling.grad(joint_next_state(sys, U))
        out = np.empty_like(U)
        for n in range(sys.N):
            dyn = sys.dynamics[n]
            out[n] = sys.utilities[n].grad_u(dyn, sys.states[n], U[n]) + dyn.B.T @ G[n]
        return out

    return F


def flat_reward_field(sys: SystemInstance):
    """Same field flattened to length N*d vectors, for the VI machinery."""
    F = reward_field(sys)
    return lambda u_flat: F(u_flat.reshape(sys.N, sys.d)).ravel()


def default_schedule(sys: SystemInstance, box) -> float:
    """The default step gamma = min(0.9 * 2 * c_hat, 1), with c_hat estimated
    for the instance's reward field over the box (lo, hi)^{N d}: a 0.9 margin
    under the 2c bound of the convergence theory."""
    c_hat = estimate_cocoercivity(flat_reward_field(sys), box, sys.N * sys.d)
    if not c_hat > 0:
        raise ValueError(f"reward field not co-coercive on the box (c_hat={c_hat:.3e}); "
                         "supply an explicit gamma")
    return min(0.9 * 2.0 * c_hat, 1.0)


def coupling_slices(sys: SystemInstance, u_frozen) -> list[CouplingSlice]:
    """The shared coupling as seen by each agent n with opponents frozen at
    u_frozen, chain-ruled through agent n's next state x_n = A x + B u_n:
    gradient B^T grad_row, Hessian B^T hess_row B. The frozen joint next
    state is computed once for all N slices."""
    X_frozen = joint_next_state(sys, u_frozen)
    G = sys.coupling

    def slice_of(n):
        dyn, x_n = sys.dynamics[n], sys.states[n]

        def states_with(un):
            X = X_frozen.copy()
            X[n] = step(dyn, x_n, un)
            return X

        return CouplingSlice(value=lambda un: G.value(states_with(un)),
                             grad=lambda un: dyn.B.T @ G.grad_row(states_with(un), n),
                             hess=lambda un: dyn.B.T @ G.hess_row(states_with(un), n) @ dyn.B)

    return [slice_of(n) for n in range(sys.N)]


# ---------------------------------------------------------------------------
# play modes (one iteration each; the loop lives in mechanism.run_stage)

def _responses(sys: SystemInstance, agents, frozen: np.ndarray, anchors: np.ndarray,
               lam: float | None = None):
    """(anchors with the rows of `agents` replaced by their best responses
    against opponents frozen at `frozen`, the coupling slices). Each response
    starts at its anchor; with lam the game adds the proximal term anchored
    there. A failure names the agent."""
    slices = coupling_slices(sys, frozen)
    out = anchors.copy()
    for n in agents:
        # GameSpec's proximal payoff is -c ||u - anchor||^2; posing c = lam/2
        # makes the stationarity coefficient exactly lam (see module docstring).
        game = GameSpec(utility=sys.utilities[n], coupling=slices[n],
                        proximal=None if lam is None else (0.5 * lam, anchors[n]))
        try:
            out[n] = best_response(game, sys.states[n], sys.dynamics[n], anchors[n])
        except BestResponseError as exc:
            exc.agent = n
            raise
    return out, slices


def play_simultaneous(sys: SystemInstance, u_prev) -> np.ndarray:
    """All agents best-respond in parallel against u_prev."""
    U = joint_action(sys, u_prev)
    return _responses(sys, range(sys.N), U, U)[0]


def play_sequential(sys: SystemInstance, u_prev, t: int) -> np.ndarray:
    """Only agent t mod N best-responds; everyone else copies u_prev.
    Chaining t = 0, 1, ... yields a Gauss-Seidel sweep."""
    U = joint_action(sys, u_prev)
    return _responses(sys, [t % sys.N], U, U)[0]


def probe_utility_gradient(lam: float, response, anchor, coupling_grad) -> np.ndarray:
    """Private-gradient extraction from a proximal probe response.

    Stage-1 stationarity grad U(u_hat) + grad G(u_hat) - lam (u_hat - anchor)
    = 0 rearranges to grad U(u_hat) = lam (u_hat - anchor) - grad G(u_hat):
    the coordinator reads the agent's private utility gradient using only the
    observed response and quantities it knows.
    """
    return lam * (response - anchor) - coupling_grad


def stage2_probe_target(anchor, gamma: float, utility_grad, coupling_grad) -> np.ndarray:
    """Target v of the stage-2 probe game -||u - v||^2; best-responding to it
    reproduces the net update anchor + gamma (grad U + grad G)."""
    return np.asarray(anchor, float) + gamma * (
        np.asarray(utility_grad, float) + np.asarray(coupling_grad, float))


def _proximal_round(sys: SystemInstance, U: np.ndarray, frozen: np.ndarray, lam: float,
                    gamma: float):
    """(responses, net update, extracted grad U): proximal responses anchored
    at U against `frozen` opponents, and U + gamma (grad U_n + grad_n G)."""
    resp, slices = _responses(sys, range(sys.N), frozen, U, lam)
    G = sys.coupling.grad(joint_next_state(sys, resp))
    slice_grads = np.array([s.grad(r) for s, r in zip(slices, resp)])
    g_util = probe_utility_gradient(lam, resp, U, slice_grads)
    g_coup = np.array([dyn.B.T @ g for dyn, g in zip(sys.dynamics, G)])
    return resp, U + gamma * (g_util + g_coup), g_util


class TwoStageUpdate(NamedTuple):
    u: np.ndarray              # net update u^k
    u_hat: np.ndarray          # stage-1 probe responses
    utility_grads: np.ndarray  # extracted grad U_n(u_hat_n), coordinator-side


def two_stage_update(sys: SystemInstance, u_prev, lam: float, gamma: float) -> TwoStageUpdate:
    """One round of two-stage play, exposing the probe internals.

    Stage 1: each agent solves grad U_n(u_hat) + grad_n G(u_hat, u_prev_{-n})
    - lam (u_hat - u_prev_n) = 0. Stage 2 is applied as the derived net
    update u^k = u^{k-1} + gamma (grad U_n(u_hat_n) + grad_n G(u_hat)),
    with grad U extracted via probe_utility_gradient; the equivalent posed
    probe game is available through stage2_probe_target.
    """
    U = joint_action(sys, u_prev)
    u_hat, u_next, g_util = _proximal_round(sys, U, U, lam, gamma)
    return TwoStageUpdate(u=u_next, u_hat=u_hat, utility_grads=g_util)


class SingleStageUpdate(NamedTuple):
    u: np.ndarray              # agent responses u^k
    u_tilde: np.ndarray        # coordinator sequence u_tilde^k
    utility_grads: np.ndarray  # extracted grad U_n(u_n^k)


def single_stage_update(sys: SystemInstance, u_prev, u_tilde_prev, lam: float,
                        gamma: float) -> SingleStageUpdate:
    """One round of single-stage play.

    Agents best-respond to the proximal probe anchored at their own previous
    response, with opponents frozen at the coordinator sequence
    u_tilde^{k-1}; the coordinator then advances
    u_tilde^k = u^{k-1} + gamma (grad U_n(u_n^k) + grad_n G(u^k)) using only
    known quantities (grad U extracted via the probe identity).
    """
    U = joint_action(sys, u_prev)
    resp, u_tilde, g_util = _proximal_round(sys, U, joint_action(sys, u_tilde_prev),
                                            lam, gamma)
    return SingleStageUpdate(u=resp, u_tilde=u_tilde, utility_grads=g_util)


def play_tikhonov(sys: SystemInstance, u_prev, lam: float) -> np.ndarray:
    """Proximally regularized full step: each agent maximizes its reward plus
    the Tikhonov anchor term; the responses are the next iterate directly
    (a perturbed projection step with effective step 1/lam)."""
    U = joint_action(sys, u_prev)
    return _responses(sys, range(sys.N), U, U, lam)[0]


def grid_gradient_bound(sys: SystemInstance, box) -> float:
    """Dense-grid estimate of D = max_n sup ||grad_{u_n}(U_n + G)|| over the
    joint action box (lo, hi)^{N d} (pitch = width / 50 per dimension). This
    is the constant in the proximal-gap bound ||u_hat - u_prev|| <= N D / lam.
    Practical for N * d <= 3, like the grid oracle."""
    m = sys.N * sys.d
    if m > 3:
        raise ValueError(f"grid bound supports N*d <= 3, got {m}")
    F = reward_field(sys)
    axes = [np.linspace(box[0], box[1], 51)] * m
    best = 0.0
    for point in np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, m):
        vals = F(point.reshape(sys.N, sys.d))
        best = max(best, float(np.max(np.linalg.norm(vals, axis=1))))
    return best


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
    lambda_B = 0 the bound is 2 u_m min_n E_n.
    """
    if not 0.0 <= lambda_B:
        raise ValueError("lambda_B must be >= 0")
    if lambda_B >= 1.0:
        raise ValueError("lambda_B must be < 1")
    E = np.asarray(E, dtype=float)
    if E.size == 0:
        raise ValueError("E must be non-empty")
    n = np.arange(1, E.size + 1, dtype=float)
    drift = (h_F * lambda_B * n * u_m / (1.0 - lambda_B)
             - h_F * lambda_B * (1.0 - lambda_B ** n) * u_m / (1.0 - lambda_B) ** 2)
    return float(np.min(drift + 2.0 * E * u_m))
