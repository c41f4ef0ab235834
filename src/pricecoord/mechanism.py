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
from dataclasses import dataclass
from numbers import Integral, Real
from typing import Optional

import numpy as np

from .errors import BestResponseError, ConfigError, NonConvergenceError
from .model import SystemInstance, _fleet_step, _utility_gradients, batch_welfare, joint_action
from .numerics import _inf_norm, fd_jacobian
from .equilibrium import (
    _payoff_derivatives,
    default_schedule,
    play_sequential,
    play_simultaneous,
    play_tikhonov,
    reward_field,
    single_stage_update,
    two_stage_update,
)

PLAY_MODES = ("simultaneous", "sequential", "two_stage", "single_stage", "tikhonov")
DAMPED_MODES = ("two_stage", "single_stage")  # the modes that take a step gamma


def social_welfare(sys: SystemInstance, u) -> float:
    """Sum of private utilities plus the shared coupling at the joint action
    (the coupling is added; penalties enter as negative coupling values):
    batch_welfare at K = 1."""
    return float(batch_welfare(sys, joint_action(sys, u)[None])[0])


def price_from_target(sys: SystemInstance, u_target) -> np.ndarray:
    """Per-agent prices making u_target stationary for the priced games.

    Posing GameSpec(utility=U_n, price=p_n) gives the payoff U_n(u) - p_n^T u,
    stationary where grad U_n(u) = p_n, so p_n is the private utility
    gradient at the target. With concave utilities the target is the priced
    game's unique best response.
    """
    U = np.ascontiguousarray(joint_action(sys, u_target))
    return _utility_gradients(sys._fleet, U, _fleet_step(sys._fleet, U))


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
    """The result of weak_coupling_diagnostic: passes is ratio <= 0.1 with margin > 0."""

    cross_norm: float    # max spectral norm of off-diagonal Jacobian blocks
    diag_margin: float   # min over agents of lambda_min(-sym(J_nn))
    ratio: float         # cross_norm / diag_margin (inf if margin <= 0)
    passes: bool


def weak_coupling_diagnostic(sys: SystemInstance, u=None) -> WeakCouplingReport:
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
    J = fd_jacobian(reward_field(sys), U0.ravel(), 1e-5)
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
    """Settings for run_stage.

    mode is one of PLAY_MODES. lam is the proximal weight of two_stage,
    single_stage and tikhonov; gamma is the step of two_stage and
    single_stage, which estimate it from box (then required) when it is
    None. box is None or the (lo, hi) pair, finite with lo < hi, that
    bounds every action coordinate, kept as a tuple of floats; run_stage
    uses it only for that estimate and never clamps a response to it.
    The stopping and oscillation rules are fixed (see run_stage).
    """

    mode: str = "simultaneous"
    tol: float = 1e-8
    max_rounds: int = 500
    lam: float = 100.0
    gamma: Optional[float] = None
    box: Optional[tuple] = None

    def __post_init__(self):
        if self.mode not in PLAY_MODES:
            raise ConfigError(f"unknown mode {self.mode!r}; expected one of {PLAY_MODES}")
        if isinstance(self.max_rounds, bool) or not isinstance(self.max_rounds, Integral) \
                or self.max_rounds < 1:
            raise ConfigError(f"max_rounds must be an integer >= 1, got {self.max_rounds!r}")
        for name, value in (("tol", self.tol), ("lam", self.lam), ("gamma", self.gamma)):
            if name == "gamma" and value is None:
                continue  # run_stage estimates it from box
            if isinstance(value, bool) or not isinstance(value, Real) or not 0 < value < math.inf:
                raise ConfigError(f"polling field {name!r} must be a finite number > 0, "
                                  f"got {value!r}")
        if self.box is not None:
            try:
                lo, hi = self.box
            except (TypeError, ValueError):
                lo = hi = None
            if not all(isinstance(v, Real) and not isinstance(v, bool) for v in (lo, hi)) \
                    or not -math.inf < lo < hi < math.inf:
                raise ConfigError("polling field 'box' must be (lo, hi) with finite lo < hi, "
                                  f"got {self.box!r}")
            object.__setattr__(self, "box", (float(lo), float(hi)))


@dataclass(frozen=True)
class StageTrace:
    """Per-round record of one stage from u0, one entry per round: actions[i]
    is the joint action after round i + 1, welfare[i] and residual[i] the
    social welfare and ||F||_inf there, delta[i] the inf-norm increment from
    the previous round. converged is False on a NonConvergenceError's trace."""

    u0: np.ndarray
    actions: np.ndarray
    welfare: np.ndarray
    residual: np.ndarray
    delta: np.ndarray
    converged: bool

    @property
    def iterations(self) -> int:
        return len(self.actions)

    @property
    def u_final(self) -> np.ndarray:
        return self.actions[-1] if self.iterations else self.u0


def stage_step(sys: SystemInstance, cfg: PollingConfig) -> Optional[float]:
    """gamma for the stage: cfg.gamma, or for a damped mode without one the
    default step estimated from cfg.box. The estimate is made once per
    instance and box and remembered on the instance; one that fails raises
    ConfigError, each time it is asked for."""
    if cfg.gamma is not None or cfg.mode not in DAMPED_MODES:
        return cfg.gamma
    if cfg.box is None:
        raise ConfigError(f"mode {cfg.mode!r} needs a step size (gamma) or a box to "
                          "estimate one from")
    if cfg.box not in sys._default_steps:
        try:
            sys._default_steps[cfg.box] = default_schedule(sys, cfg.box)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
    return sys._default_steps[cfg.box]


# Strong symmetric coupling drives parallel best responses into an
# alternation u^k = c +/- r^k v with ratio r close to 1: each increment nearly
# reverses the previous one and shrinks slowly. Requiring both for
# _ALT_WINDOW consecutive rounds, while the stage is still unconverged,
# separates that from ordinary damped overshoot, whose increments decay fast
# even when they alternate in sign.
_ALT_WINDOW = 10
_ALT_COS = -0.99
_ALT_RATIO = 0.8


def _alternates(delta: np.ndarray, prev: np.ndarray) -> bool:
    """Whether an increment nearly reverses the previous one without shrinking
    much. delta and prev are C-ordered, so each norm is np.linalg.norm's
    sqrt of the raveled dot product, bit for bit."""
    d, p = delta.ravel(), prev.ravel()
    dn, pn = math.sqrt(d.dot(d)), math.sqrt(p.dot(p))
    return dn > 0 and pn > 0 and (float(d @ p) / (dn * pn) <= _ALT_COS
                                  and dn / pn >= _ALT_RATIO)


def run_stage(sys: SystemInstance, u0, cfg: PollingConfig) -> StageTrace:
    """Iterates the configured play mode at frozen states until convergence.

    Returns the StageTrace on success. Raises NonConvergenceError with
    reason "oscillation" when play cycles (an exact period-2 cycle in any
    mode, or _ALT_WINDOW rounds of sustained alternation under simultaneous
    or sequential play), reason "diverged" when a round leaves a non-finite
    joint action (or single_stage a non-finite coordinator sequence) for the
    next round, and reason "max_rounds" when the budget runs out; the
    partial trace, of the rounds before a divergence, always rides on the
    exception. One sequential round is a full sweep of all N agents. A
    BestResponseError leaves with the 1-based round it happened in; a
    damped mode takes its step from stage_step and raises its ConfigError
    when the step cannot be estimated.

    u0 is checked once, at entry: every later joint action is a round's
    output, and the stage ends as "diverged" before a round reads one that
    is not finite. The round functions keep their own checks for outside
    callers.

    Every residual run_stage computes is read off one derivative pass at U:
    the reward field at U is the agents' payoff gradient against opponents
    frozen at U's next states X(U), so one fleet step for X(U) (also the
    rows' own next states) and one _payoff_derivatives pass there give it.
    That pair, X(U) and the derivatives, is handed to the next round as
    its frozen states and first Newton point when the round starts at U
    against X(U), as simultaneous, two_stage and tikhonov rounds do; such a
    round steps no fleet at U. A single_stage round returns the reward
    field at its responses, and the residual is read off that.
    """
    U0 = joint_action(sys, u0).copy()
    gamma = stage_step(sys, cfg)
    tol = cfg.tol
    rows = np.arange(sys.N)

    def residual_at(U):
        """(||F(U)||_inf, (X(U), the payoff derivatives at U against it))."""
        X = _fleet_step(sys._fleet, U)
        start = _payoff_derivatives(sys, U, X, rows, X)
        return _inf_norm(start[0]), (X, start)

    actions, residual, delta_log = [], [], []

    def trace(converged):
        acts = np.asarray(actions, dtype=float)
        return StageTrace(u0=U0, actions=acts,
                          welfare=batch_welfare(sys, acts) if actions else np.empty(0),
                          residual=np.asarray(residual, dtype=float),
                          delta=np.asarray(delta_log, dtype=float),
                          converged=converged)

    U = U0
    f_inf, start = residual_at(U)
    if f_inf <= tol:
        return trace(True)

    streak = 0          # consecutive alternating rounds
    u_two_ago = None
    prev_step = None    # U - u_two_ago
    u_tilde = U.copy()  # single_stage coordinator sequence

    for k in range(1, cfg.max_rounds + 1):
        field = None
        try:
            if cfg.mode == "simultaneous":
                u_new = play_simultaneous(sys, U, _start=start)
            elif cfg.mode == "sequential":
                u_new = U
                for n in range(sys.N):
                    u_new = play_sequential(sys, u_new, n)
            elif cfg.mode == "two_stage":
                u_new = two_stage_update(sys, U, cfg.lam, gamma, _start=start).u
            elif cfg.mode == "single_stage":
                upd = single_stage_update(sys, U, u_tilde, cfg.lam, gamma)
                u_new, u_tilde, field = upd.u, upd.u_tilde, upd.field
            else:
                u_new = play_tikhonov(sys, U, cfg.lam, _start=start)
        except BestResponseError as exc:
            exc.round = k
            raise

        step = u_new - U
        d_inf = _inf_norm(step)
        # what the next round reads must be finite; U is, so a finite d_inf
        # shows that u_new is too
        if not (math.isfinite(d_inf) or np.isfinite(u_new).all()) \
                or cfg.mode == "single_stage" and not np.isfinite(u_tilde).all():
            raise NonConvergenceError(
                f"stage diverged: round {k} produced non-finite actions",
                reason="diverged", trace=trace(False), last=U)
        f_inf, start = residual_at(u_new) if field is None else (_inf_norm(field), None)
        actions.append(u_new)
        residual.append(f_inf)
        delta_log.append(d_inf)

        if d_inf <= tol and f_inf <= 10 * tol:
            return trace(True)

        # A true period-2 cycle repeats to solver precision while the
        # round-to-round delta stays large; a decaying alternation (ratio
        # rho < 1) keeps ||u^k - u^{k-2}|| at a fixed fraction (1 - rho) of
        # the delta, so the relative threshold separates the two.
        if u_two_ago is not None and d_inf > tol \
                and _inf_norm(u_new - u_two_ago) <= 1e-3 * d_inf:
            raise NonConvergenceError(
                f"exact period-2 cycle detected at round {k}",
                reason="oscillation", trace=trace(False), last=u_new)
        if cfg.mode in ("simultaneous", "sequential") and u_two_ago is not None:
            streak = streak + 1 if _alternates(step, prev_step) else 0
        if streak >= _ALT_WINDOW:
            raise NonConvergenceError(
                f"sustained alternation over {_ALT_WINDOW} rounds at round {k} "
                f"(residual {f_inf:.3e})",
                reason="oscillation", trace=trace(False), last=u_new)

        u_two_ago, prev_step = U, step
        U = u_new

    raise NonConvergenceError(
        f"stage did not converge within {cfg.max_rounds} rounds "
        f"(last residual {residual[-1]:.3e})",
        reason="max_rounds", trace=trace(False), last=U)
