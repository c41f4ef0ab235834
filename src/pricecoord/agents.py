"""Selfish subsystem behavior: each agent maximizes the payoff the
coordinator poses to it, by damped Newton on the payoff gradient with the
payoff Hessian in closed form.

A posed game (GameSpec) is a sum of optional terms: the agent's private
utility, a linear price charge -p^T u, a frozen coupling slice (the shared
G with all other agents' values fixed), a proximal penalty
-lam ||u - anchor||^2, and a linear-quadratic probe -||u - target||^2 used by
the coordinator's two-stage protocol. Agents are truthful automata: they
always best-respond to the posed game.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import BestResponseError
from .model import LinearDynamics, as_vector, step
from .numerics import newton_root


@dataclass(frozen=True)
class CouplingSlice:
    """The shared coupling as a function of one agent's action only,
    opponents frozen. value(u_n) -> float, grad(u_n) -> d-vector,
    hess(u_n) -> (d, d) matrix (both already chain-ruled through the agent's
    next state)."""

    value: Callable[[np.ndarray], float]
    grad: Callable[[np.ndarray], np.ndarray]
    hess: Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class GameSpec:
    """One agent's posed payoff: sum of the enabled terms.

    utility: private utility (QuadraticUtility or SmoothUtility);
    price: vector p, contributes -p^T u;
    coupling: frozen CouplingSlice, contributes its value;
    proximal: (lam, anchor), contributes -lam ||u - anchor||^2, lam > 0;
    linear_probe: target vector v, contributes -||u - v||^2.
    """

    utility: object | None = None
    price: np.ndarray | None = None
    coupling: CouplingSlice | None = None
    proximal: tuple | None = None
    linear_probe: np.ndarray | None = None

    def __post_init__(self):
        terms = (self.utility, self.price, self.coupling, self.proximal, self.linear_probe)
        if all(t is None for t in terms):
            raise ValueError("GameSpec needs at least one payoff term")
        if self.price is not None:
            object.__setattr__(self, "price", as_vector(self.price, name="price"))
        if self.linear_probe is not None:
            object.__setattr__(self, "linear_probe",
                               as_vector(self.linear_probe, name="linear_probe"))
        if self.proximal is not None:
            lam, anchor = self.proximal
            if not lam > 0:
                raise ValueError("proximal lam must be > 0")
            object.__setattr__(self, "proximal",
                               (float(lam), as_vector(anchor, name="proximal anchor")))


def payoff_value(game: GameSpec, x, dyn: LinearDynamics, u) -> float:
    total = 0.0
    if game.utility is not None:
        x_next = step(dyn, x, u)
        total += game.utility.value(x_next, u)
    if game.price is not None:
        total -= float(game.price @ u)
    if game.coupling is not None:
        total += float(game.coupling.value(u))
    if game.proximal is not None:
        lam, anchor = game.proximal
        diff = u - anchor
        total -= lam * float(diff @ diff)
    if game.linear_probe is not None:
        diff = u - game.linear_probe
        total -= float(diff @ diff)
    return float(total)


def payoff_gradient(game: GameSpec, x, dyn: LinearDynamics, u) -> np.ndarray:
    g = np.zeros(dyn.d)
    if game.utility is not None:
        g += game.utility.grad_u(dyn, x, u)
    if game.price is not None:
        g -= game.price
    if game.coupling is not None:
        g += game.coupling.grad(u)
    if game.proximal is not None:
        lam, anchor = game.proximal
        g -= 2.0 * lam * (u - anchor)
    if game.linear_probe is not None:
        g -= 2.0 * (u - game.linear_probe)
    return g


def payoff_hessian(game: GameSpec, x, dyn: LinearDynamics, u) -> np.ndarray:
    """The Hessian of the posed payoff in u, term by term: the utility's
    hess_u, 0 for the price, the coupling slice's hess, -2 lam I for the
    proximal term and -2 I for the probe."""
    H = np.zeros((dyn.d, dyn.d))
    if game.utility is not None:
        H += game.utility.hess_u(dyn, x, u)
    if game.coupling is not None:
        H += game.coupling.hess(u)
    if game.proximal is not None:
        H -= 2.0 * game.proximal[0] * np.eye(dyn.d)
    if game.linear_probe is not None:
        H -= 2.0 * np.eye(dyn.d)
    return H


def best_response(game: GameSpec, x, dyn: LinearDynamics, u_start) -> np.ndarray:
    """Maximize the posed payoff: damped Newton on payoff_gradient, with
    payoff_hessian as its Jacobian (both evaluated at each iterate and
    line-search trial), as the one-row case of newton_root.

    Starts at u_start, which implements the closest-root selection rule when
    payoffs have several stationary points. Stops at ||grad||_inf <= 1e-10,
    or where the line search stalls at the gradient's rounding floor, with at
    most 100 Newton steps and the halving line search of newton_root.
    Raises BestResponseError on a singular Hessian, on a stalled line search
    above that floor, on convergence to a non-maximum (the Hessian at the
    result is not negative definite), or at the iteration cap.
    """
    def derivatives(U, rows):
        return (payoff_gradient(game, x, dyn, U[0])[None],
                payoff_hessian(game, x, dyn, U[0])[None])

    def error(message, last, residual, row):
        return BestResponseError(message, last_iterate=last, residual=residual)

    U, _ = newton_root(derivatives, as_vector(u_start, dyn.d, "u_start")[None],
                       error=error, jacobian_name="payoff Hessian", maximize=True)
    return U[0]
