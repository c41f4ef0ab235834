"""Exception types shared across the package."""

from __future__ import annotations


class CoordinationError(Exception):
    """Base class for all errors raised by this package."""


class BestResponseError(CoordinationError):
    """Agent solver failed (non-convergence, singular or indefinite Hessian).

    Carries the last iterate and its gradient-norm residual so callers can
    inspect how far the solve got. agent (0-based) and round (1-based
    polling round) are filled in by the play modes and the stage loop when
    the failure happens inside them.
    """

    def __init__(self, message, last_iterate=None, residual=None, agent=None, round=None):
        super().__init__(message)
        self.last_iterate = last_iterate
        self.residual = residual
        self.agent = agent
        self.round = round


class NonConvergenceError(CoordinationError):
    """An iteration loop stopped without meeting its tolerance.

    reason is "oscillation" (the detector fired), "max_rounds", "diverged"
    (a stage round left a non-finite joint action for the next round), or
    "newton". trace carries the per-round history: run_stage always
    attaches the stage's partial StageTrace, vi_project_iterate its
    (k, residual) rows, and the optimal-price Newton solve none.
    """

    def __init__(self, message, reason="max_rounds", trace=None, last=None):
        super().__init__(message)
        self.reason = reason
        self.trace = trace
        self.last = last


class RankDeficiencyError(CoordinationError):
    """A least-squares system is under-determined.

    rank is the achieved numerical rank, required the full column count.
    """

    def __init__(self, message, rank=None, required=None):
        super().__init__(message)
        self.rank = rank
        self.required = required


class ConfigError(CoordinationError):
    """Invalid configuration file or serialized data."""
