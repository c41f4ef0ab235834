"""Coordinator-facing layer: welfare accounting, incentive prices, stage
polling loops, and weak-coupling diagnostics.

A stage holds every agent's state fixed and iterates one of the play modes
until the joint action settles; only then does the physical system advance
(the caller applies the converged action once and starts the next stage from
it). Convergence of a stage means both the action increment and the stacked
reward field are small: ||u^k - u^{k-1}||_inf <= tol and
||F(u^k)||_inf <= 10 tol.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .agents import BestResponseConfig
from .errors import BestResponseError, ConfigError, NonConvergenceError
from .model import SystemInstance, joint_action, joint_next_state
from .numerics import fd_jacobian
from .equilibrium import (
    StepSchedule,
    default_schedule,
    flat_reward_field,
    play_sequential,
    play_simultaneous,
    play_tikhonov,
    reward_field,
    single_stage_update,
    two_stage_update,
)

PLAY_MODES = ("simultaneous", "sequential", "two_stage", "single_stage", "tikhonov")


def social_welfare(sys: SystemInstance, u) -> float:
    """Sum of private utilities plus the shared coupling at the joint action
    (the coupling is added; penalties enter as negative coupling values)."""
    U = joint_action(sys, u)
    X_next = joint_next_state(sys, U)
    total = sys.coupling.value(X_next)
    for n in range(sys.N):
        total += sys.utilities[n].value(X_next[n], U[n])
    return float(total)


def price_from_target(sys: SystemInstance, u_target) -> np.ndarray:
    """Per-agent prices making u_target stationary for the priced games.

    Posing GameSpec(utility=U_n, price=p_n) gives the payoff U_n(u) - p_n^T u,
    stationary where grad U_n(u) = p_n, so p_n is the private utility
    gradient at the target. With concave utilities the target is the priced
    game's unique best response.
    """
    U = joint_action(sys, u_target)
    p = np.empty_like(U)
    for n in range(sys.N):
        p[n] = sys.utilities[n].grad_u(sys.dynamics[n], sys.states[n], U[n])
    return p


def message_space_dimension(N: int, d: int) -> int:
    """Real numbers exchanged per polling round: each of the N agents
    receives a d x d quadratic probe and a length-d linear term and replies
    with its length-d response, totalling 2 N d^2 once the symmetric probe
    is counted by its d^2 free parametrization."""
    if N < 1 or d < 1:
        raise ValueError("N and d must be positive")
    return 2 * N * d * d


# ---------------------------------------------------------------------------
# weak-coupling diagnostic

@dataclass(frozen=True)
class WeakCouplingReport:
    cross_norm: float    # max spectral norm of off-diagonal Jacobian blocks
    diag_margin: float   # min over agents of lambda_min(-sym(J_nn))
    ratio: float         # cross_norm / diag_margin (inf if margin <= 0)
    passes: bool


def weak_coupling_diagnostic(sys: SystemInstance, u=None, h: float = 1e-5) -> WeakCouplingReport:
    """Checks the contraction condition behind simultaneous-play convergence.

    Finite-differences the stacked reward field's Jacobian at u (default the
    zero action) and compares the strongest cross-agent block against the
    weakest per-agent curvature. Passing, ratio <= 0.1 with positive margin,
    indicates the interaction is weak enough for parallel best responses to
    contract; failing predicts the alternation seen in strongly coupled
    instances.
    """
    N, d = sys.N, sys.d
    U0 = np.zeros((N, d)) if u is None else joint_action(sys, u)
    J = fd_jacobian(flat_reward_field(sys), U0.ravel(), h)
    blocks = J.reshape(N, d, N, d).transpose(0, 2, 1, 3)  # blocks[n, m]: d(F_n)/d(u_m)
    own = blocks[np.arange(N), np.arange(N)]
    diag_margin = float(np.min(np.linalg.eigvalsh(-0.5 * (own + own.swapaxes(1, 2)))[:, 0]))
    off = blocks[~np.eye(N, dtype=bool)]
    cross = float(np.max(np.linalg.norm(off, 2, axis=(1, 2)), initial=0.0))
    ratio = cross / diag_margin if diag_margin > 0 else math.inf
    return WeakCouplingReport(cross_norm=cross, diag_margin=float(diag_margin),
                              ratio=float(ratio), passes=bool(diag_margin > 0 and ratio <= 0.1))


# ---------------------------------------------------------------------------
# stage polling

@dataclass(frozen=True)
class PollingConfig:
    """Knobs for run_stage.

    mode is one of PLAY_MODES. schedule supplies (tau, lam, gamma) for the
    damped modes; when omitted, two_stage and single_stage estimate one from
    box (which is then required) and tikhonov falls back to lam = 100.
    Oscillation classification (simultaneous and sequential modes only)
    flags sustained alternation: osc_window consecutive rounds whose
    successive increments point in opposing directions (cosine <= osc_cos)
    without decaying fast enough (ratio >= osc_decay) while still far from
    convergence. An exact period-2 cycle raises immediately in any mode.
    """

    mode: str = "simultaneous"
    tol: float = 1e-8
    max_rounds: int = 500
    schedule: Optional[StepSchedule] = None
    box: Optional[tuple] = None
    osc_window: int = 10
    osc_cos: float = -0.99
    osc_decay: float = 0.8
    detect_oscillation: bool = True
    br: BestResponseConfig = field(default_factory=BestResponseConfig)
    seed: int = 0

    def __post_init__(self):
        if self.mode not in PLAY_MODES:
            raise ConfigError(f"unknown mode {self.mode!r}; expected one of {PLAY_MODES}")
        if self.tol <= 0 or self.max_rounds < 1 or self.osc_window < 2:
            raise ConfigError("tol must be > 0, max_rounds >= 1, osc_window >= 2")


@dataclass(frozen=True)
class StageTrace:
    """Per-round record of one stage. Arrays are aligned: rounds[i] is the
    1-based round index, actions[i] the joint action after it, welfare[i]
    and residual[i] the social welfare and ||F||_inf there, delta[i] the
    inf-norm increment from the previous round."""

    mode: str
    u0: np.ndarray
    rounds: np.ndarray
    actions: np.ndarray
    welfare: np.ndarray
    residual: np.ndarray
    delta: np.ndarray
    converged: bool

    @property
    def iterations(self) -> int:
        return int(self.rounds.size)

    @property
    def u_final(self) -> np.ndarray:
        return self.actions[-1] if self.rounds.size else self.u0

    def rows(self):
        """(round, action, welfare, residual) tuples, one per round."""
        return [(int(self.rounds[i]), self.actions[i], float(self.welfare[i]),
                 float(self.residual[i])) for i in range(self.rounds.size)]


def _resolve_schedule(sys, cfg: PollingConfig) -> Optional[StepSchedule]:
    if cfg.mode in ("simultaneous", "sequential"):
        return cfg.schedule
    sched = cfg.schedule
    if cfg.mode == "tikhonov":
        # only lam is consumed; any placeholder tau keeps the schedule valid
        return sched if sched is not None else StepSchedule(tau=1.0, lam=100.0)
    if sched is not None and (sched.gamma is not None or sched.tau is not None):
        return sched
    if cfg.box is None:
        raise ConfigError(f"mode {cfg.mode!r} needs a step size (gamma or tau in the "
                          "schedule) or a box to estimate one from")
    try:
        est = default_schedule(sys, cfg.box, seed=cfg.seed)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    if sched is None:
        return est
    return StepSchedule(tau=est.tau, lam=sched.lam, gamma=est.tau)


class _AlternationClassifier:
    """Flags sustained sign-flipping increments that refuse to decay.

    Strong symmetric coupling drives parallel best responses into an
    alternation u^k = c +/- r^k v with ratio r close to 1: each increment
    nearly reverses the previous one and shrinks slowly. Requiring both for
    osc_window consecutive rounds, while the stage is still unconverged,
    separates that from ordinary damped overshoot, whose increments decay
    fast even when they alternate in sign.
    """

    def __init__(self, window: int, cos_thresh: float, decay_thresh: float):
        self.window = window
        self.cos_thresh = cos_thresh
        self.decay_thresh = decay_thresh
        self.prev_delta = None
        self.streak = 0

    def update(self, delta: np.ndarray) -> bool:
        dn = float(np.linalg.norm(delta))
        hit = False
        if self.prev_delta is not None:
            pn = float(np.linalg.norm(self.prev_delta))
            if dn > 0 and pn > 0:
                cos = float(delta.ravel() @ self.prev_delta.ravel()) / (dn * pn)
                if cos <= self.cos_thresh and dn / pn >= self.decay_thresh:
                    hit = True
        self.streak = self.streak + 1 if hit else 0
        self.prev_delta = delta.copy()
        return self.streak >= self.window


def run_stage(sys: SystemInstance, u0, cfg: PollingConfig) -> StageTrace:
    """Iterates the configured play mode at frozen states until convergence.

    Returns the StageTrace on success. Raises NonConvergenceError with
    reason "oscillation" when play cycles (exact period-2, or sustained
    alternation under simultaneous or sequential play) and reason
    "max_rounds" when the budget runs out; the partial trace rides on the
    exception. One sequential round is a full sweep of all N agents. A
    BestResponseError leaves with the 1-based round it happened in; a damped
    mode whose step size cannot be estimated raises ConfigError.
    """
    U = joint_action(sys, u0).copy()
    sched = _resolve_schedule(sys, cfg)
    F = reward_field(sys)
    tol = cfg.tol

    rounds, actions, welfare, residual, delta_log = [], [], [], [], []

    def snapshot(k, u_new, d_inf, f_inf):
        rounds.append(k)
        actions.append(u_new.copy())
        welfare.append(social_welfare(sys, u_new))
        residual.append(f_inf)
        delta_log.append(d_inf)

    def trace(converged):
        return StageTrace(mode=cfg.mode, u0=joint_action(sys, u0).copy(),
                          rounds=np.asarray(rounds, dtype=int),
                          actions=np.asarray(actions, dtype=float),
                          welfare=np.asarray(welfare, dtype=float),
                          residual=np.asarray(residual, dtype=float),
                          delta=np.asarray(delta_log, dtype=float),
                          converged=converged)

    if float(np.max(np.abs(F(U)))) <= tol:
        return trace(True)

    classify = (cfg.detect_oscillation and cfg.mode in ("simultaneous", "sequential"))
    alt = _AlternationClassifier(cfg.osc_window, cfg.osc_cos, cfg.osc_decay)
    u_two_ago = None
    u_tilde = U.copy()  # single_stage coordinator sequence
    t = 0               # sequential agent pointer

    for k in range(1, cfg.max_rounds + 1):
        try:
            if cfg.mode == "simultaneous":
                u_new = play_simultaneous(sys, U, cfg.br)
            elif cfg.mode == "sequential":
                u_new = U
                for _ in range(sys.N):
                    u_new = play_sequential(sys, u_new, t, cfg.br)
                    t += 1
            elif cfg.mode == "two_stage":
                u_new = two_stage_update(sys, U, k, sched, cfg.br).u
            elif cfg.mode == "single_stage":
                upd = single_stage_update(sys, U, u_tilde, k, sched, cfg.br)
                u_new, u_tilde = upd.u, upd.u_tilde
            else:
                u_new = play_tikhonov(sys, U, k, sched, cfg.br)
        except BestResponseError as exc:
            exc.round = k
            raise

        d_inf = float(np.max(np.abs(u_new - U)))
        f_inf = float(np.max(np.abs(F(u_new))))
        snapshot(k, u_new, d_inf, f_inf)

        if d_inf <= tol and f_inf <= 10 * tol:
            return trace(True)

        # A true period-2 cycle repeats to solver precision while the
        # round-to-round delta stays large; a decaying alternation (ratio
        # rho < 1) keeps ||u^k - u^{k-2}|| at a fixed fraction (1 - rho) of
        # the delta, so the relative threshold separates the two.
        if u_two_ago is not None and d_inf > tol \
                and float(np.max(np.abs(u_new - u_two_ago))) <= 1e-3 * d_inf:
            raise NonConvergenceError(
                f"exact period-2 cycle detected at round {k}",
                reason="oscillation", trace=trace(False), last=u_new)
        if classify and alt.update(u_new - U):
            raise NonConvergenceError(
                f"sustained alternation over {cfg.osc_window} rounds at round {k} "
                f"(residual {f_inf:.3e})",
                reason="oscillation", trace=trace(False), last=u_new)

        u_two_ago = U
        U = u_new

    raise NonConvergenceError(
        f"stage did not converge within {cfg.max_rounds} rounds "
        f"(last residual {residual[-1]:.3e})",
        reason="max_rounds", trace=trace(False), last=U)
