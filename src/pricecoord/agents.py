"""Selfish subsystem behavior: each agent maximizes the payoff the
coordinator poses to it, by damped Newton on the payoff gradient with the
payoff Hessian in closed form.

A posed game (GameSpec) is the agent's private utility, a linear price
charge -p^T u, or both. Agents are truthful automata: they always
best-respond to the posed game. The play modes of equilibrium pose the
shared coupling and proximal terms to all agents at once, in one stacked
Newton iteration whose rows are each the one-row solve made here, on that
agent's game.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BestResponseError
from .model import LinearDynamics, as_vector, step
from .numerics import newton_root


@dataclass(frozen=True)
class GameSpec:
    """One agent's posed payoff: sum of the enabled terms.

    utility: private utility (QuadraticUtility or SmoothUtility);
    price: vector p, contributes -p^T u.
    """

    utility: object | None = None
    price: np.ndarray | None = None

    def __post_init__(self):
        if self.utility is None and self.price is None:
            raise ValueError("GameSpec needs at least one payoff term")
        if self.price is not None:
            object.__setattr__(self, "price", as_vector(self.price, name="price"))


def payoff_value(game: GameSpec, x, dyn: LinearDynamics, u) -> float:
    total = 0.0
    if game.utility is not None:
        x_next = step(dyn, x, u)
        total += game.utility.value(x_next, u)
    if game.price is not None:
        total -= float(game.price @ u)
    return float(total)


def payoff_gradient(game: GameSpec, x, dyn: LinearDynamics, u) -> np.ndarray:
    g = np.zeros(dyn.d)
    if game.utility is not None:
        g += game.utility.grad_u(dyn, x, u)
    if game.price is not None:
        g -= game.price
    return g


def payoff_hessian(game: GameSpec, x, dyn: LinearDynamics, u) -> np.ndarray:
    """The Hessian of the posed payoff in u: the utility's hess_u, as the
    price term is linear."""
    H = np.zeros((dyn.d, dyn.d))
    if game.utility is not None:
        H += game.utility.hess_u(dyn, x, u)
    return H


def best_response(game: GameSpec, x, dyn: LinearDynamics, u_start) -> np.ndarray:
    """Maximize the posed payoff: damped Newton on payoff_gradient, with
    payoff_hessian as its Jacobian (both evaluated at each iterate and
    line-search trial), as the one-row case of newton_root.

    Starts at u_start, which implements the closest-root selection rule when
    payoffs have several stationary points. Stops at ||grad||_inf <= 1e-10,
    or where the line search stalls at the gradient's rounding floor, with at
    most 100 Newton steps and the halving line search of newton_root.
    Raises ValueError naming u_start or price when either is not of length
    dyn.d. Raises BestResponseError on a singular Hessian, on a stalled line
    search above that floor, on convergence to a non-maximum (the Hessian at
    the result is not negative definite), or at the iteration cap.
    """
    if game.price is not None:
        as_vector(game.price, dyn.d, "price")

    def derivatives(U, rows):
        return (payoff_gradient(game, x, dyn, U[0])[None],
                payoff_hessian(game, x, dyn, U[0])[None])

    def error(message, last, residual, row):
        return BestResponseError(message, last_iterate=last, residual=residual)

    U, _ = newton_root(derivatives, as_vector(u_start, dyn.d, "u_start")[None],
                       error=error, jacobian_name="payoff Hessian", maximize=True)
    return U[0]
