"""The per-agent reference the stacked play rounds are tested against: one
agent's game with everyone else frozen, solved alone as the one-row case of
newton_root, its payoff terms summed in the order utility, coupling,
proximal."""

import numpy as np

import pricecoord as pc
from test_row_tables import reference_grad_hess_rows


def coupling_slice(sys, X, n):
    """(value, grad, hess) of the shared coupling as a function of agent n's
    action u, opponents frozen at the next states X, chain-ruled through
    agent n's next state A x + B u."""
    dyn, row = sys.dynamics[n], np.array([n])
    G, Ax, B = sys.coupling, dyn.A @ sys.states[n], dyn.B

    def value(u):
        Xu = X.copy()
        Xu[n] = Ax + B @ u
        return G.value(Xu)

    def grad(u):
        return B.T @ reference_grad_hess_rows(G, (Ax + B @ u)[None], X, row)[0][0]

    def hess(u):
        return B.T @ reference_grad_hess_rows(G, (Ax + B @ u)[None], X, row)[1][0] @ B

    return value, grad, hess


def response(sys, X, anchors, n, lam=None):
    """Agent n's best response from anchors[n] against opponents frozen at
    the next states X: utility plus coupling slice, and with lam the
    proximal term whose gradient is -lam (u - anchors[n]). A failure names
    agent n."""
    ut, dyn, x = sys.utilities[n], sys.dynamics[n], sys.states[n]
    _, grad, hess = coupling_slice(sys, X, n)

    def derivatives(U, rows):
        u = U[0]
        g = ut.grad_u(dyn, x, u) + grad(u)
        H = ut.hess_u(dyn, x, u) + hess(u)
        if lam is not None:
            g = g - lam * (u - anchors[n])
            H = H - lam * np.eye(sys.d)
        return g[None], H[None]

    def error(message, last, residual, row):
        return pc.BestResponseError(message, last, residual, n)

    U, _ = pc.numerics.newton_root(derivatives, anchors[n][None], error=error,
                                   jacobian_name="payoff Hessian", maximize=True)
    return U[0]
