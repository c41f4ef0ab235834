"""Geometric learning of utility-gradient fields along trajectories.

Connection view: the observed field xi(t) = grad_u U at z(t) = (x(t), u(t))
is transported along the trajectory by an affine rule

    delta xi_j ~ Dz^T d_j + Dz^T Gamma_j xi_lift,   j = 1..d,

where Dz is the step z(t+1) - z(t), d_j collects the constant linear
coefficients, and Gamma_j is the Christoffel block for component j, treated
as locally constant (slowly varying utilities). The field has no
x-components, so its lift into the 2d-dimensional tangent is
xi_lift = (0, xi); the x-slot columns of each Gamma_j are therefore not
identifiable from trajectory data and the minimum-norm fit pins them to
zero. That gauge choice is safe: every prediction this module makes
contracts Gamma_j with a lifted field whose x-slots vanish.

For purely quadratic utilities the field is affine in z, so the fitted
Gamma_j vanish (flat case) and d stacks (-C, -D) from the gradient formula;
a genuinely state-coupled utility (cross terms x_i u^T K_i u) shows up as
nonzero Gamma.

Kernel view: a decomposable utility U(x, u) = U^x(x) + U^u(u) has
grad_u U(x, u) = B^T-free form B g(x) + h(u) with g = grad U^x, h = grad U^u
(B maps the state part through the dynamics). Both unknown fields are
represented in a scalar Gaussian kernel times identity and fitted jointly by
ridge least squares against observed prices. Only the sum B g(x) + h(u) is
identified: shifting g by a constant v and h by -B v changes nothing. The
fit is therefore solved in its dual (representer) form, whose Gram matrix is
that of the identified sum; no gauge is imposed and none is needed. That
Gram, kron(Kx^2, B B^T) + kron(Ku^2, I), is a sum of separable terms whose
output factors B B^T and I share an eigenbasis, so in that basis the
md x md dual system splits into d independent m x m systems, one per
eigenvalue of B B^T.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral
from typing import Optional, Sequence

import numpy as np

from .errors import RankDeficiencyError
from .model import LinearDynamics, as_matrix


@dataclass(frozen=True)
class TrajectorySample:
    """One trajectory point: base point z = (x, u) of length 2d and the
    observed gradient xi of length d (the posted price, at agent
    stationarity). segment groups consecutive points; differences are only
    formed within a segment."""

    z: np.ndarray
    xi: np.ndarray
    segment: int = 0

    def __post_init__(self):
        z = np.asarray(self.z, dtype=float).ravel()
        xi = np.asarray(self.xi, dtype=float).ravel()
        if z.size != 2 * xi.size:
            raise ValueError(f"z has length {z.size}, expected twice xi's {xi.size}")
        if not (np.all(np.isfinite(z)) and np.all(np.isfinite(xi))):
            raise ValueError("trajectory sample contains non-finite values")
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "xi", xi)


def _lift(xi: np.ndarray) -> np.ndarray:
    return np.concatenate([np.zeros_like(xi), xi], axis=-1)


@dataclass(frozen=True)
class ConnectionModel:
    """Fitted transport rule. d_mat stacks the d_j as rows (d x 2d); gammas
    stacks the Gamma_j (d x 2d x 2d, x-slot columns zero by gauge).
    residual is the RMS misfit of the difference equations; rank the
    achieved regressor rank."""

    d_mat: np.ndarray
    gammas: np.ndarray
    residual: float
    rank: int

    @property
    def d(self) -> int:
        return self.d_mat.shape[0]

    def gamma_frobenius(self) -> float:
        """max_j ||Gamma_j||_F; near zero exactly when transport is linear
        (flat case, e.g. quadratic utilities)."""
        return float(max(np.linalg.norm(g) for g in self.gammas))


def fit_connection(samples: Sequence[TrajectorySample]) -> ConnectionModel:
    """Least-squares fit of the transport coefficients from one window.

    Builds one difference row per consecutive same-segment pair, with
    regressors (Dz, kron(Dz, xi_lift)) against delta xi, and solves all d
    components in one minimum-norm least-squares solve. Requires at least
    2d + 4d^2 difference rows (the stacked unknown count per component) and
    full rank on the identifiable columns: that solve's rank at identify's
    relative singular value cutoff 1e-10. Raises RankDeficiencyError with
    the achieved rank otherwise.
    """
    if len(samples) < 2:
        raise RankDeficiencyError("need at least two samples", rank=0, required=1)
    d = samples[0].xi.size
    if any(s.xi.size != d for s in samples):
        raise ValueError("samples disagree on dimension")
    Z = np.array([s.z for s in samples])
    Xi = np.array([s.xi for s in samples])
    segment = np.array([s.segment for s in samples])
    same = segment[1:] == segment[:-1]
    dz = np.diff(Z, axis=0)[same]
    xi = Xi[:-1][same]
    target = np.diff(Xi, axis=0)[same]     # (rows, d)
    n_unknown = 2 * d + 4 * d * d           # stated stacking width per component
    n_ident = 2 * d + 2 * d * d             # identifiable after the lift gauge
    if len(dz) < n_unknown:
        raise RankDeficiencyError(
            f"{len(dz)} difference rows < {n_unknown} unknowns per component",
            rank=len(dz), required=n_unknown)

    design = np.hstack([dz, (dz[:, :, None] * _lift(xi)[:, None, :]).reshape(len(dz), -1)])
    coeffs, _, rank, _ = np.linalg.lstsq(design, target, rcond=1e-10)  # (2d+4d^2, d)
    rank = int(rank)
    if rank < n_ident:
        raise RankDeficiencyError(
            f"transport regressors are rank-deficient: rank {rank} < {n_ident} "
            "identifiable columns (vary the trajectory directions)",
            rank=rank, required=n_ident)
    gammas = np.ascontiguousarray(coeffs[2 * d:].T).reshape(d, 2 * d, 2 * d)
    residual = float(np.sqrt(np.mean((design @ coeffs - target) ** 2)))
    return ConnectionModel(d_mat=coeffs[:2 * d].T, gammas=gammas, residual=residual, rank=rank)


def sliding_connection(samples: Sequence[TrajectorySample], window: int = 50,
                       stride: Optional[int] = None):
    """Fits one ConnectionModel per sliding window of `window` samples
    (stride defaults to the window, i.e. non-overlapping). Returns a list of
    (start_index, model). Windows without enough difference rows are
    skipped; treating the symbols as constant only within a window is what
    lets slowly varying utilities pass through the constant-coefficient fit."""
    if isinstance(window, bool) or not isinstance(window, Integral) or window < 2:
        raise ValueError(f"window must be an integer >= 2, got {window!r}")
    stride = window if stride is None else stride
    if isinstance(stride, bool) or not isinstance(stride, Integral) or stride < 1:
        raise ValueError(f"stride must be an integer >= 1, got {stride!r}")
    out = []
    for start in range(0, max(len(samples) - window + 1, 1), stride):
        try:
            out.append((start, fit_connection(samples[start:start + window])))
        except RankDeficiencyError:
            continue
    return out


def transport(model: ConnectionModel, xi, dz) -> np.ndarray:
    """Transports the field value xi along the step dz:
    xi + [dz^T d_j + dz^T Gamma_j xi_lift]_j. Linear in dz for fixed xi and
    affine in xi for fixed dz, by construction; the coefficients are locally
    constant, so the base point does not enter."""
    xi = np.asarray(xi, dtype=float).ravel()
    dz = np.asarray(dz, dtype=float).ravel()
    if xi.size != model.d or dz.size != 2 * model.d:
        raise ValueError("dimension mismatch with the fitted model")
    lifted = _lift(xi)
    corr = model.d_mat @ dz + np.array([dz @ g @ lifted for g in model.gammas])
    return xi + corr


# ---------------------------------------------------------------------------
# decomposable utilities via matrix-valued kernel regression

@dataclass(frozen=True)
class KernelFieldModel:
    """Gaussian-kernel representation of the decomposed gradient field:
    g(x) = sum_i k(x, centers_x[i]) coeff_x[i] and likewise h(u); the
    identified object is B g(x) + h(u) (see module docstring on gauge).
    Centres and coefficients must be finite 2-D arrays of one width, which
    is checked here, so predict_field does not check them again."""

    centers_x: np.ndarray
    coeff_x: np.ndarray
    centers_u: np.ndarray
    coeff_u: np.ndarray
    sigma: float
    ridge: float

    def __post_init__(self):
        for name in ("centers_x", "coeff_x", "centers_u", "coeff_u"):
            arr = as_matrix(getattr(self, name), name=name)
            object.__setattr__(self, name, arr)
            if arr.shape[1] != self.centers_x.shape[1]:
                raise ValueError(f"{name} has {arr.shape[1]} columns, "
                                 f"centers_x has {self.centers_x.shape[1]}")
        if not (len(self.centers_x) == len(self.coeff_x)
                and len(self.centers_u) == len(self.coeff_u)):
            raise ValueError("centers and coefficients disagree in length")
        _check_width(self.sigma)
        if not 0 <= self.ridge < np.inf:
            raise ValueError(f"ridge must be finite and >= 0, got {self.ridge!r}")


def _squared_distances(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """||a - b||^2 for all pairs of rows of the 2-D arrays A and B; (len A,
    len B). The coordinates are summed in index order, one (len A, len B)
    pass each, which gives the same bits as a pairwise-summed reduction
    over d < 8 coordinates (NumPy reassociates only 8 or more terms)."""
    sq = np.zeros((A.shape[0], B.shape[0]))
    for j in range(A.shape[1]):
        sq += (A[:, j, None] - B[None, :, j]) ** 2
    return sq


def _median_distance(sq: np.ndarray) -> float:
    """Median of the positive distances over pairs n < m of one point set,
    read from its square matrix of squared distances; 1.0 when there are
    none."""
    vals = np.sqrt(sq[np.triu_indices(sq.shape[0], k=1)])
    vals = vals[vals > 0]
    return float(np.median(vals)) if vals.size else 1.0


def _check_width(sigma) -> None:
    if not 0 < sigma < np.inf:
        raise ValueError(f"sigma must be finite and > 0, got {sigma!r}")


def _gaussian(sq: np.ndarray, sigma: float) -> np.ndarray:
    return np.exp(-sq / (2.0 * sigma * sigma))


def _finite_points(points, name: str) -> np.ndarray:
    """points as a 2-D float array; ValueError naming them when an entry is
    not finite."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if not np.all(np.isfinite(pts)):
        raise ValueError(f"{name} contain non-finite values")
    return pts


def gaussian_kernel(A, B_pts, sigma: float) -> np.ndarray:
    """k(a, b) = exp(-||a - b||^2 / (2 sigma^2)) for all pairs; (len A, len B).
    Raises ValueError when the width sigma is not finite and > 0, when
    either point set has a non-finite entry, or when the two differ in
    dimension."""
    _check_width(sigma)
    A = _finite_points(A, "points A")
    B_pts = _finite_points(B_pts, "centres B_pts")
    if A.shape[1] != B_pts.shape[1]:
        raise ValueError(f"points have dimension {A.shape[1]}, "
                         f"centres have {B_pts.shape[1]}")
    return _gaussian(_squared_distances(A, B_pts), sigma)


def median_pairwise(points) -> float:
    """Median distance over distinct pairs of the rows of points, ignoring
    zero distances (duplicates); 1.0 for fewer than two points or when
    every pair coincides. The default kernel width heuristic. Raises
    ValueError when a point has a non-finite coordinate."""
    pts = _finite_points(points, "points")
    if pts.shape[0] < 2:
        return 1.0
    return _median_distance(_squared_distances(pts, pts))


def _as_xup(samples):
    if not (isinstance(samples, tuple) and len(samples) == 3):
        raise ValueError("samples must be an (X, U, P) tuple of (m, d) arrays")
    X, U, P = (_finite_points(a, f"{name} samples") for a, name in zip(samples, "xup"))
    if not (X.shape == U.shape == P.shape):
        raise ValueError("x, u, p samples must share one shape")
    return X, U, P


def fit_decomposable(samples, dyn: LinearDynamics, sigma: Optional[float] = None,
                     ridge: Optional[float] = None) -> KernelFieldModel:
    """Fits the decomposable-gradient model to an (X, U, P) tuple of (m, d)
    arrays.

    Minimizes sum_i ||B g(x_i) + h(u_i) - p_i||^2 + ridge ||c||^2 over the
    kernel coefficients c of g and h jointly, in dual form: the minimizer is
    c_x = Kx A B, c_u = Ku A with the (m, d) matrix A the solution of
    Kx^2 A B B^T + Ku^2 A + ridge A = P, the md x md system
    (kron(Kx^2, B B^T) + kron(Ku^2, I) + ridge I) A.ravel() = P.ravel(). With
    B B^T = V diag(lam) V^T that system is d stacked m x m systems
    (lam_k Kx^2 + Ku^2 + ridge I) b_k = (P V)[:, k], and A = b V^T; the fit
    solves those, never forming the md x md Gram.
    sigma defaults to the median of median_pairwise over the x centers and
    over the u centers, read from the same squared distances as the two
    kernels; ridge defaults to 1e-8 (tr Kx + tr Ku) = 2m 1e-8. ridge = 0
    gives the minimum-norm interpolant while those systems are nonsingular;
    duplicate samples make them singular and raise np.linalg.LinAlgError.
    Non-finite samples raise ValueError naming the array, and samples whose
    dimension is not the dynamics' raise ValueError naming both.
    """
    X, U, P = _as_xup(samples)
    m, d = X.shape
    if m < 2:
        raise ValueError("need at least 2 samples")
    if d != dyn.d:
        raise ValueError(f"sample dimension {d} does not match dynamics dimension {dyn.d}")
    sq_x = _squared_distances(X, X)
    sq_u = _squared_distances(U, U)
    if sigma is None:
        sigma = float(np.median([_median_distance(sq_x), _median_distance(sq_u)]))
    _check_width(sigma)
    Kx = _gaussian(sq_x, sigma)
    Ku = _gaussian(sq_u, sigma)
    if ridge is None:
        ridge = 1e-8 * float(np.trace(Kx) + np.trace(Ku))
    if not 0 <= ridge < np.inf:
        raise ValueError(f"ridge must be finite and >= 0, got {ridge!r}")

    # B B^T = V diag(lam) V^T splits the dual into d stacked m x m systems
    lam, V = np.linalg.eigh(dyn.B @ dyn.B.T)
    grams = lam[:, None, None] * (Kx @ Kx) + Ku @ Ku
    grams[:, np.arange(m), np.arange(m)] += ridge
    b = np.linalg.solve(grams, (P @ V).T[:, :, None])
    A = b[:, :, 0].T @ V.T
    return KernelFieldModel(centers_x=X.copy(), coeff_x=Kx @ A @ dyn.B,
                            centers_u=U.copy(), coeff_u=Ku @ A,
                            sigma=float(sigma), ridge=float(ridge))


def predict_field(model: KernelFieldModel, dyn: LinearDynamics, x, u) -> np.ndarray:
    """B g(x) + h(u) under the fitted model. Raises ValueError when the
    model's dimension is not the dynamics', or when x or u has a non-finite
    entry or another dimension. The model's centres and width were checked
    when it was built."""
    d = model.coeff_x.shape[1]
    if d != dyn.d:
        raise ValueError(f"model dimension {d} does not match dynamics dimension {dyn.d}")
    x = _finite_points(x, "x points")
    u = _finite_points(u, "u points")
    for name, pts in (("x", x), ("u", u)):
        if pts.shape[1] != d:
            raise ValueError(f"{name} points have dimension {pts.shape[1]}, the model has {d}")
    gx = _gaussian(_squared_distances(x, model.centers_x), model.sigma) @ model.coeff_x
    hu = _gaussian(_squared_distances(u, model.centers_u), model.sigma) @ model.coeff_u
    out = gx @ dyn.B.T + hu
    return out[0] if out.shape[0] == 1 else out


def kernel_fit_residual(model: KernelFieldModel, dyn: LinearDynamics, samples) -> float:
    """RMS training error of a fitted model on an (X, U, P) tuple of (m, d)
    arrays."""
    X, U, P = _as_xup(samples)
    pred = np.atleast_2d(predict_field(model, dyn, X, U))
    return float(np.sqrt(np.mean((pred - P) ** 2)))

