"""Shared instance builders for the test suite."""

import numpy as np
import pytest

import pricecoord as pc


def make_two_agent_scalar(eps: float) -> pc.SystemInstance:
    """Two scalar agents with targets +1/-1 and a quadratic disagreement penalty.

    Dynamics are the identity (x_next = x + u at x = 0), so each agent's
    private utility is -(u_n - a_n)^2 and the coupling is -eps (u_1 - u_2)^2.
    The Nash equilibrium is u = (1/(1 + 2 eps)) (1, -1), which is also the
    welfare optimum since the shared coupling makes this an exact potential.
    """
    dyn = pc.LinearDynamics(A=np.eye(1), B=np.eye(1))
    utils = [
        pc.SmoothUtility(
            value_fn=lambda x_next, u, a=a: -float((u[0] - a) ** 2),
            gradient_u=lambda x_next, u, dyn, a=a: np.array([-2.0 * (u[0] - a)]),
        )
        for a in (1.0, -1.0)
    ]
    G = pc.pairwise_quadratic_coupling(eps, 2, 1)
    return pc.SystemInstance(
        dynamics=(dyn, dyn),
        utilities=tuple(utils),
        coupling=G,
        states=np.zeros((2, 1)),
    )


def scalar_nash(eps: float) -> np.ndarray:
    """Closed-form Nash actions for make_two_agent_scalar."""
    v = 1.0 / (1.0 + 2.0 * eps)
    return np.array([[v], [-v]])


def random_spd(rng, d: int, lo: float = 0.5, hi: float = 2.0) -> np.ndarray:
    M = rng.normal(size=(d, d))
    Qm, _ = np.linalg.qr(M)
    eigs = rng.uniform(lo, hi, size=d)
    return Qm @ np.diag(eigs) @ Qm.T


def random_quadratic_instance(rng, N: int, d: int, coupling: float = 0.0,
                              spread: float = 1.0) -> pc.SystemInstance:
    """Random well-conditioned quadratic instance, optionally coupled."""
    dynamics = []
    utilities = []
    for _ in range(N):
        A = np.eye(d) + 0.3 * rng.normal(size=(d, d)) / np.sqrt(d)
        B = np.eye(d) + 0.3 * rng.normal(size=(d, d)) / np.sqrt(d)
        dynamics.append(pc.LinearDynamics(A=A, B=B))
        utilities.append(pc.QuadraticUtility(
            Q=random_spd(rng, d),
            R=random_spd(rng, d),
            x0=spread * rng.normal(size=d),
        ))
    if coupling != 0.0 and N > 1:
        G = pc.pairwise_quadratic_coupling(coupling, N, d)
    else:
        G = pc.zero_coupling(N, d)
    return pc.SystemInstance(
        dynamics=tuple(dynamics),
        utilities=tuple(utilities),
        coupling=G,
        states=spread * rng.normal(size=(N, d)),
    )


def make_utility(family: str, rng, d: int):
    """A random utility of one family: quadratic, cross_term,
    decomposable, or (any other name) a value-only SmoothUtility."""
    Q, R, x0 = random_spd(rng, d), random_spd(rng, d), rng.normal(size=d)
    if family == "quadratic":
        return pc.QuadraticUtility(Q=Q, R=R, x0=x0)
    if family == "cross_term":
        return pc.cross_term_utility(Q, R, x0, [rng.normal(size=(d, d)) for _ in range(d)])
    if family == "decomposable":
        return pc.decomposable_utility(
            value_x=lambda x, x0=x0: -float(np.sum(np.cosh(x - x0) - 1.0)),
            grad_x=lambda x, x0=x0: -np.sinh(x - x0),
            value_u=lambda u, R=R: -float(u @ R @ u),
            grad_u=lambda u, R=R: -2.0 * R @ u)
    return pc.SmoothUtility(value_fn=lambda x_next, u, x0=x0: -float(np.sum((x_next - x0) ** 4)
                                                                      + u @ u))


def flat_utility():
    """A scalar utility with gradient [1] and Hessian [[0]] everywhere: a
    Newton step on it alone has a singular payoff Hessian."""
    return pc.SmoothUtility(value_fn=lambda x_next, u: float(u[0]),
                            gradient_u=lambda x_next, u, dyn: np.ones(1),
                            hessian_u=lambda x_next, u, dyn: np.zeros((1, 1)))


@pytest.fixture
def rng():
    return np.random.default_rng(0)
