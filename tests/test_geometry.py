"""Transport-coefficient fits and decomposable kernel field learning."""

import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import pricecoord as pc
from conftest import random_spd


def gradient_trajectory(rng, dyn, util, n_samples, step=0.3, segment=0, start=None):
    """TrajectorySamples along a random walk in z = (x, u) with xi = grad U."""
    d = dyn.d
    z = rng.normal(size=2 * d) if start is None else np.asarray(start, float)
    out = []
    for _ in range(n_samples):
        x, u = z[:d], z[d:]
        xi = util.grad_u(dyn, x, u)
        out.append(pc.TrajectorySample(z=z.copy(), xi=xi, segment=segment))
        z = z + step * rng.normal(size=2 * d)
    return out


# ------------------------------------------------------------ connection fit

def test_quadratic_field_is_flat(rng):
    d = 2
    dyn = pc.LinearDynamics(A=rng.normal(size=(d, d)), B=rng.normal(size=(d, d)))
    util = pc.QuadraticUtility(Q=random_spd(rng, d), R=random_spd(rng, d),
                               x0=rng.normal(size=d))
    samples = gradient_trajectory(rng, dyn, util, 40)
    model = pc.fit_connection(samples)
    assert model.gamma_frobenius() < 1e-6
    assert model.residual < 1e-8
    C = 2.0 * dyn.B.T @ util.Q @ dyn.A
    D = 2.0 * (dyn.B.T @ util.Q @ dyn.B + util.R)
    np.testing.assert_allclose(model.d_mat[:, :d], -C, atol=1e-8)
    np.testing.assert_allclose(model.d_mat[:, d:], -D, atol=1e-8)


def test_known_transport_coefficients_recovered(rng):
    # synthesize a path that satisfies the transport model exactly and check
    # that the identifiable coefficient blocks come back
    d = 1
    T = np.array([[0.3, -0.7]])
    Gamma = np.array([[[0.0, 0.2], [0.0, -0.4]]])  # x-columns zero (the gauge)
    z = np.zeros(2)
    xi = np.array([1.0])
    samples = [pc.TrajectorySample(z=z.copy(), xi=xi.copy())]
    for _ in range(20):
        dz = 0.5 * rng.normal(size=2)
        lifted = np.concatenate([np.zeros(1), xi])
        xi = xi + T @ dz + np.array([dz @ Gamma[0] @ lifted])
        z = z + dz
        samples.append(pc.TrajectorySample(z=z.copy(), xi=xi.copy()))
    model = pc.fit_connection(samples)
    np.testing.assert_allclose(model.d_mat, T, atol=1e-9)
    np.testing.assert_allclose(model.gammas[0][:, 1:], Gamma[0][:, 1:], atol=1e-9)
    np.testing.assert_allclose(model.gammas[0][:, :1], 0.0, atol=1e-9)
    assert model.residual < 1e-10


def test_cross_terms_bend_the_field(rng):
    # curvature from state-action cross terms shows up as nonzero gammas that
    # explain variance a purely linear transport cannot
    d = 2
    dyn = pc.LinearDynamics(A=np.eye(d), B=np.eye(d))
    K = [0.5 * rng.normal(size=(d, d)) for _ in range(d)]
    util = pc.cross_term_utility(np.eye(d), np.eye(d), np.zeros(d), K)
    samples = gradient_trajectory(rng, dyn, util, 80)
    model = pc.fit_connection(samples)
    assert model.gamma_frobenius() > 1e-3
    dz = np.array([b.z - a.z for a, b in zip(samples[:-1], samples[1:])])
    dxi = np.array([b.xi - a.xi for a, b in zip(samples[:-1], samples[1:])])
    T_lin, *_ = np.linalg.lstsq(dz, dxi, rcond=None)
    linear_resid = float(np.sqrt(np.mean((dz @ T_lin - dxi) ** 2)))
    assert model.residual < 0.5 * linear_resid


def test_connection_requires_enough_rows(rng):
    d = 1
    dyn = pc.LinearDynamics(A=np.eye(d), B=np.eye(d))
    util = pc.QuadraticUtility(Q=np.eye(d), R=np.eye(d), x0=np.zeros(d))
    samples = gradient_trajectory(rng, dyn, util, 6)  # 5 rows < 6 unknowns
    with pytest.raises(pc.RankDeficiencyError) as exc:
        pc.fit_connection(samples)
    assert exc.value.required == 6


def test_connection_rejects_straight_line_paths(rng):
    # plenty of rows, but every step in the same direction
    d = 1
    dyn = pc.LinearDynamics(A=np.eye(d), B=np.eye(d))
    util = pc.QuadraticUtility(Q=np.eye(d), R=np.eye(d), x0=np.zeros(d))
    direction = np.array([0.4, -0.2])
    z = np.zeros(2)
    samples = []
    for _ in range(12):
        samples.append(pc.TrajectorySample(
            z=z.copy(), xi=util.grad_u(dyn, z[:1], z[1:])))
        z = z + direction
    with pytest.raises(pc.RankDeficiencyError, match="vary the trajectory"):
        pc.fit_connection(samples)


def test_segment_breaks_are_not_differenced(rng):
    d = 1
    dyn = pc.LinearDynamics(A=np.eye(d), B=np.eye(d))
    util = pc.QuadraticUtility(Q=np.eye(d), R=np.eye(d), x0=np.zeros(d))
    seg_a = gradient_trajectory(rng, dyn, util, 8, segment=0)
    # a wild jump between segments would wreck the fit if differenced
    seg_b = gradient_trajectory(rng, dyn, util, 8, segment=1,
                                start=np.array([100.0, -100.0]))
    model = pc.fit_connection(seg_a + seg_b)
    assert model.residual < 1e-8


def test_transport_shape_checks_and_zero_step(rng):
    d = 2
    dyn = pc.LinearDynamics(A=np.eye(d), B=np.eye(d))
    util = pc.QuadraticUtility(Q=np.eye(d), R=np.eye(d), x0=np.zeros(d))
    model = pc.fit_connection(gradient_trajectory(rng, dyn, util, 40))
    xi = rng.normal(size=d)
    np.testing.assert_allclose(pc.transport(model, xi, np.zeros(2 * d)), xi)
    with pytest.raises(ValueError):
        pc.transport(model, xi, np.zeros(d))


def test_sliding_connection_windows(rng):
    d = 1
    dyn = pc.LinearDynamics(A=np.eye(d), B=np.eye(d))
    util = pc.QuadraticUtility(Q=np.eye(d), R=np.eye(d), x0=np.zeros(d))
    samples = gradient_trajectory(rng, dyn, util, 120)
    fits = pc.sliding_connection(samples, window=50, stride=25)
    assert [start for start, _ in fits] == [0, 25, 50]
    for _, model in fits:
        assert model.gamma_frobenius() < 1e-6
    for stride in (0, -5, True):
        with pytest.raises(ValueError, match="stride"):
            pc.sliding_connection(samples, window=50, stride=stride)
    with pytest.raises(ValueError, match="window"):
        pc.sliding_connection(samples, window=10.0)


def _loop_connection(samples):
    """The fit one difference row at a time, with a separate SVD for the rank,
    the reference for the stacked fit with the rank of its own solve."""
    d = samples[0].xi.size
    rows, targets = [], []
    for a, b in zip(samples[:-1], samples[1:]):
        if a.segment == b.segment:
            dz = b.z - a.z
            rows.append(np.concatenate([dz, np.kron(dz, np.concatenate([np.zeros(d), a.xi]))]))
            targets.append(b.xi - a.xi)
    design, target = np.array(rows), np.array(targets)
    sv = np.linalg.svd(design, compute_uv=False)
    rank = int(np.sum(sv > 1e-10 * sv[0])) if sv[0] > 0 else 0
    coeffs, *_ = np.linalg.lstsq(design, target, rcond=1e-10)
    gammas = np.array([coeffs[2 * d:, j].reshape(2 * d, 2 * d) for j in range(d)])
    residual = float(np.sqrt(np.mean((design @ coeffs - target) ** 2)))
    return coeffs[:2 * d].T, gammas, residual, rank


@pytest.mark.parametrize("d", [1, 2, 3])
def test_connection_fit_equals_the_loop_over_rows(rng, d):
    dyn = pc.LinearDynamics(A=rng.normal(size=(d, d)), B=rng.normal(size=(d, d)))
    K = [0.5 * rng.normal(size=(d, d)) for _ in range(d)]
    util = pc.cross_term_utility(np.eye(d), np.eye(d), rng.normal(size=d), K)
    n = 2 * d + 4 * d * d + 10
    samples = (gradient_trajectory(rng, dyn, util, n, segment=0)
               + gradient_trajectory(rng, dyn, util, n, segment=1))
    model = pc.fit_connection(samples)
    d_mat, gammas, residual, rank = _loop_connection(samples)
    assert np.array_equal(model.d_mat, d_mat) and np.array_equal(model.gammas, gammas)
    assert model.residual == residual and model.rank == rank and type(model.rank) is int
    # transport's last bits depend on the memory layout of the gammas
    reference = pc.ConnectionModel(d_mat=d_mat, gammas=gammas, residual=residual, rank=rank)
    for _ in range(8):
        xi, dz = rng.normal(size=d), rng.normal(size=2 * d)
        assert np.array_equal(pc.transport(model, xi, dz), pc.transport(reference, xi, dz))


def test_sliding_connection_on_fewer_than_two_samples(rng):
    dyn = pc.LinearDynamics(A=np.eye(1), B=np.eye(1))
    util = pc.QuadraticUtility(Q=np.eye(1), R=np.eye(1), x0=np.zeros(1))
    assert pc.sliding_connection([], window=2) == []
    assert pc.sliding_connection(gradient_trajectory(rng, dyn, util, 1), window=2) == []


# ------------------------------------------------------------- kernel field

def decomposable_samples(rng, dyn, m, scale=1.5):
    d = dyn.d
    X = scale * rng.normal(size=(m, d))
    U = scale * rng.normal(size=(m, d))
    P = (-2.0 * X) @ dyn.B.T + (-2.0 * U)   # B g(x) + h(u), g = h = -2 id
    return X, U, P


def fit_residual(model, dyn, X, U, P):
    """RMS training error of a fitted model on its samples."""
    return float(np.sqrt(np.mean((np.atleast_2d(pc.predict_field(model, dyn, X, U)) - P) ** 2)))


def test_gaussian_kernel_and_median_heuristic():
    # a model whose one x coefficient sits on the first centre predicts that
    # centre's kernel column; the default width is the median distance 2
    pts = np.array([[0.0], [1.0], [3.0]])
    dyn = pc.LinearDynamics(A=np.eye(1), B=np.eye(1))
    model = pc.KernelFieldModel(centers_x=pts, coeff_x=[[1.0], [0.0], [0.0]], centers_u=pts,
                                coeff_u=np.zeros((3, 1)), sigma=1.0, ridge=0.0)
    K0 = pc.predict_field(model, dyn, pts, pts)[:, 0]
    np.testing.assert_allclose(K0, [1.0, np.exp(-0.5), np.exp(-4.5)])
    assert np.isclose(pc.fit_decomposable((pts, pts, pts), dyn).sigma, 2.0)


def test_kernel_fit_interpolates_training_data(rng):
    # a narrow kernel with near-zero ridge interpolates the samples
    d = 2
    dyn = pc.LinearDynamics(A=np.eye(d), B=np.eye(d))
    X, U, P = decomposable_samples(rng, dyn, 40, scale=1.0)
    model = pc.fit_decomposable((X, U, P), dyn, sigma=1.0, ridge=1e-12)
    assert fit_residual(model, dyn, X, U, P) < 1e-6


def test_kernel_fit_generalizes_near_training_box(rng):
    d = 2
    dyn = pc.LinearDynamics(A=np.eye(d), B=0.5 * np.eye(d) + 0.1)
    X = rng.uniform(-2, 2, size=(150, d))
    U = rng.uniform(-2, 2, size=(150, d))
    P = (-2.0 * X) @ dyn.B.T + (-2.0 * U)
    model = pc.fit_decomposable((X, U, P), dyn)
    Xh = rng.uniform(-1.5, 1.5, size=(40, d))
    Uh = rng.uniform(-1.5, 1.5, size=(40, d))
    Ph = (-2.0 * Xh) @ dyn.B.T + (-2.0 * Uh)
    pred = pc.predict_field(model, dyn, Xh, Uh)
    rel = np.linalg.norm(pred - Ph) / np.linalg.norm(Ph)
    assert rel < 1e-2


def test_kernel_fit_error_shrinks_with_more_samples(rng):
    d = 1
    dyn = pc.LinearDynamics(A=np.eye(d), B=np.eye(d))
    Xh = np.linspace(-1, 1, 30)[:, None]
    Uh = np.linspace(1, -1, 30)[:, None]
    Ph = (-2.0 * Xh) @ dyn.B.T + (-2.0 * Uh)
    errs = []
    for m in (10, 40, 160):
        X, U, P = decomposable_samples(rng, dyn, m)
        model = pc.fit_decomposable((X, U, P), dyn)
        pred = np.atleast_2d(pc.predict_field(model, dyn, Xh, Uh))
        errs.append(float(np.linalg.norm(pred - Ph)))
    assert errs[-1] < errs[0]


def test_kernel_gauge_only_the_sum_is_identified(rng):
    # shifting mass between g and h leaves the observable field unchanged, so
    # two gauge-equivalent data sets produce identical predictions
    d = 1
    dyn = pc.LinearDynamics(A=np.eye(d), B=2.0 * np.eye(d))
    X = rng.normal(size=(30, d))
    U = rng.normal(size=(30, d))
    c = np.array([0.7])
    P1 = (-2.0 * X) @ dyn.B.T + (-2.0 * U)
    P2 = (-2.0 * X - c) @ dyn.B.T + (-2.0 * U + dyn.B @ c)
    np.testing.assert_allclose(P1, P2, atol=1e-12)
    m1 = pc.fit_decomposable((X, U, P1), dyn)
    m2 = pc.fit_decomposable((X, U, P2), dyn)
    probe_x, probe_u = rng.normal(size=(5, d)), rng.normal(size=(5, d))
    np.testing.assert_allclose(pc.predict_field(m1, dyn, probe_x, probe_u),
                               pc.predict_field(m2, dyn, probe_x, probe_u),
                               atol=1e-10)


@pytest.mark.parametrize("d", [2, 3])
def test_kernel_gauge_holds_with_a_non_diagonal_b(rng, d):
    # at d = 1 the eigenbasis of B B^T is trivial; here it mixes components
    dyn = pc.LinearDynamics(A=np.eye(d), B=rng.normal(size=(d, d)))
    X = rng.normal(size=(30, d))
    U = rng.normal(size=(30, d))
    c = rng.normal(size=d)
    P1 = (-2.0 * X) @ dyn.B.T + (-2.0 * U)
    P2 = (-2.0 * X - c) @ dyn.B.T + (-2.0 * U + dyn.B @ c)
    m1 = pc.fit_decomposable((X, U, P1), dyn)
    m2 = pc.fit_decomposable((X, U, P2), dyn)
    probe_x, probe_u = rng.normal(size=(5, d)), rng.normal(size=(5, d))
    pred1 = pc.predict_field(m1, dyn, probe_x, probe_u)
    pred2 = pc.predict_field(m2, dyn, probe_x, probe_u)
    assert np.max(np.abs(pred1 - pred2)) <= 1e-7 * np.max(np.abs(pred1))


def test_kernel_fit_matches_the_primal_ridge_solution(rng):
    # the dual solve and ridge least squares over all 2md coefficients have
    # one minimizer
    m, d = 25, 2
    dyn = pc.LinearDynamics(A=np.eye(d), B=rng.normal(size=(d, d)))
    X, U, P = decomposable_samples(rng, dyn, m)
    model = pc.fit_decomposable((X, U, P), dyn)

    Kx = reference_kernel(X, X, model.sigma)
    Ku = reference_kernel(U, U, model.sigma)
    design = np.hstack([np.kron(Kx, dyn.B), np.kron(Ku, np.eye(d))])
    aug = np.vstack([design, np.sqrt(model.ridge) * np.eye(2 * m * d)])
    y = np.concatenate([P.ravel(), np.zeros(2 * m * d)])
    coeffs = np.linalg.lstsq(aug, y, rcond=None)[0]
    # relative to the coefficient norm: single entries near zero carry the
    # absolute error of the large ones
    dual = np.concatenate([model.coeff_x.ravel(), model.coeff_u.ravel()])
    assert np.linalg.norm(dual - coeffs) <= 1e-6 * np.linalg.norm(coeffs)

    Xh, Uh = rng.normal(size=(10, d)), rng.normal(size=(10, d))
    primal = (reference_kernel(Xh, X, model.sigma) @ coeffs[:m * d].reshape(m, d) @ dyn.B.T
              + reference_kernel(Uh, U, model.sigma) @ coeffs[m * d:].reshape(m, d))
    np.testing.assert_allclose(pc.predict_field(model, dyn, Xh, Uh), primal, rtol=0, atol=1e-8)


def test_kernel_fit_without_ridge_interpolates_distinct_samples(rng):
    d = 1
    dyn = pc.LinearDynamics(A=np.eye(d), B=np.eye(d))
    X, U, P = decomposable_samples(rng, dyn, 10)
    model = pc.fit_decomposable((X, U, P), dyn, ridge=0.0)
    assert model.ridge == 0.0
    assert fit_residual(model, dyn, X, U, P) < 1e-6


def test_kernel_fit_input_validation(rng):
    d = 1
    dyn = pc.LinearDynamics(A=np.eye(d), B=np.eye(d))
    X, U, P = decomposable_samples(rng, dyn, 10)
    with pytest.raises(ValueError):
        pc.fit_decomposable((X, U, P[:-1]), dyn)
    with pytest.raises(ValueError):
        pc.fit_decomposable((X[:1], U[:1], P[:1]), dyn)
    with pytest.raises(ValueError):
        pc.fit_decomposable((X, U, P), dyn, sigma=-1.0)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="sigma"):
            pc.fit_decomposable((X, U, P), dyn, sigma=bad)
        with pytest.raises(ValueError, match="ridge"):
            pc.fit_decomposable((X, U, P), dyn, ridge=bad)
    with pytest.raises(ValueError, match="sigma"):
        pc.KernelFieldModel(centers_x=X, coeff_x=P, centers_u=U, coeff_u=P,
                            sigma=np.nan, ridge=0.0)
    X2 = np.vstack([X, X[:1]])
    U2 = np.vstack([U, U[:1]])
    P2 = np.vstack([P, P[:1]])
    with pytest.raises(np.linalg.LinAlgError, match="samples 0 and 10 have equal x and u"):
        pc.fit_decomposable((X2, U2, P2), dyn, ridge=0.0)


_DUPLICATE_FIT = """
import numpy as np
import pricecoord as pc
dyn = pc.LinearDynamics(A=np.eye(1), B=np.eye(1))
rng = np.random.default_rng(0)
X, U = 1.5 * rng.normal(size=(10, 1)), 1.5 * rng.normal(size=(10, 1))
X, U = np.vstack([X, X[:1]]), np.vstack([U, U[:1]])
try:
    pc.fit_decomposable((X, U, -2.0 * X - 2.0 * U), dyn, ridge=0.0)
except np.linalg.LinAlgError as exc:
    print(exc)
"""


def test_a_ridge_free_fit_refuses_a_duplicate_sample_on_another_blas_kernel():
    # OpenBLAS's Haswell LU meets no exact zero pivot on this singular dual
    # and returns finite coefficients: the duplicate is found before the solve
    env = dict(os.environ, OPENBLAS_CORETYPE="Haswell",
               PYTHONPATH=str(pathlib.Path(pc.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", _DUPLICATE_FIT], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.startswith("samples 0 and 10 have equal x and u")


@pytest.mark.parametrize("sigma", [0.0, -1.0, np.nan, np.inf])
def test_gaussian_kernel_rejects_a_bad_width(sigma):
    # 0 divides by zero, -1 squares to a valid-looking width, nan gives a nan
    # kernel and inf a kernel of ones: the fit and a hand-built model refuse it
    pts = np.array([[0.0, 0.0], [1.0, 2.0]])
    dyn = pc.LinearDynamics(A=np.eye(2), B=np.eye(2))
    with pytest.raises(ValueError, match="sigma must be finite and > 0"):
        pc.fit_decomposable((pts, pts, pts), dyn, sigma=sigma)
    with pytest.raises(ValueError, match="sigma must be finite and > 0"):
        pc.KernelFieldModel(centers_x=pts, coeff_x=pts, centers_u=pts, coeff_u=pts,
                            sigma=sigma, ridge=0.0)


def test_kernel_rejects_mismatched_dimensions(rng):
    d = 2
    dyn = pc.LinearDynamics(A=np.eye(d), B=np.eye(d))
    model = pc.fit_decomposable(decomposable_samples(rng, dyn, 10), dyn)
    with pytest.raises(ValueError, match="dimension"):
        pc.predict_field(model, dyn, np.zeros((3, 1)), np.zeros((3, d)))
    with pytest.raises(ValueError, match="dimension"):
        pc.predict_field(model, dyn, np.zeros((3, d)), np.zeros(3))


def test_kernel_model_checks_its_centres_and_coefficients_when_built():
    # unchecked, a 3-column coeff_u next to 2-column centres and NaN centres
    # are accepted here and fail later in predict_field
    good = np.zeros((4, 2))
    parts = dict(centers_x=good, coeff_x=good, centers_u=good, coeff_u=good,
                 sigma=1.0, ridge=0.0)
    for name, bad, message in (("coeff_u", np.zeros((4, 3)), "coeff_u has 3 columns"),
                               ("centers_x", np.zeros((4, 3)), "coeff_x has 2 columns"),
                               ("centers_u", np.full((4, 2), np.nan), "centers_u contains non"),
                               ("coeff_x", np.zeros(4), "coeff_x must be 2-D")):
        with pytest.raises(ValueError, match=message):
            pc.KernelFieldModel(**{**parts, name: bad})
    model = pc.KernelFieldModel(**{**parts, "coeff_u": [[1.0, 2.0]] * 4})
    assert model.coeff_u.dtype == float and model.coeff_u.shape == (4, 2)


@pytest.mark.parametrize("d_dyn", [1, 3])
def test_kernel_entry_points_reject_dynamics_of_another_dimension(monkeypatch, rng, d_dyn):
    d = 2
    dyn = pc.LinearDynamics(A=np.eye(d), B=np.eye(d))
    samples = decomposable_samples(rng, dyn, 10)
    model = pc.fit_decomposable(samples, dyn)
    other = pc.LinearDynamics(A=np.eye(d_dyn), B=np.eye(d_dyn))

    def no_solve(a, b):
        raise AssertionError("solved before checking the dimensions")

    monkeypatch.setattr(np.linalg, "solve", no_solve)
    with pytest.raises(ValueError, match=f"sample dimension 2 does not match "
                                         f"dynamics dimension {d_dyn}"):
        pc.fit_decomposable(samples, other)
    with pytest.raises(ValueError, match=f"model dimension 2 does not match "
                                         f"dynamics dimension {d_dyn}"):
        pc.predict_field(model, other, samples[0], samples[1])


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_kernel_helpers_reject_non_finite_points(bad):
    # unchecked, a NaN point predicts NaN and an inf one a silent zero kernel row
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [bad, 0.0], [3.0, 0.0]])
    dyn = pc.LinearDynamics(A=np.eye(2), B=np.eye(2))
    model = pc.fit_decomposable((pts[:2], pts[:2], pts[:2]), dyn)
    with pytest.raises(ValueError, match="x points contain non-finite"):
        pc.predict_field(model, dyn, pts, np.zeros((4, 2)))
    with pytest.raises(ValueError, match="u points contain non-finite"):
        pc.predict_field(model, dyn, np.zeros((4, 2)), pts)


@pytest.mark.parametrize("which", [0, 1, 2])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_kernel_fit_rejects_non_finite_samples(rng, which, bad):
    d = 2
    dyn = pc.LinearDynamics(A=np.eye(d), B=np.eye(d))
    samples = [a.copy() for a in decomposable_samples(rng, dyn, 10)]
    samples[which][3, 1] = bad
    name = "xup"[which]
    with pytest.raises(ValueError, match=f"{name} samples contain non-finite"):
        pc.fit_decomposable(tuple(samples), dyn)
    with pytest.raises(ValueError, match=f"{name} samples contain non-finite"):
        pc.fit_decomposable(tuple(samples), dyn, sigma=1.0)


# The kernel formulas as they read before the squared distances were summed
# one coordinate at a time, and the fit as one md x md Gram solve. For d < 8
# the kernels, sigma, ridge and centres must reproduce them bit for bit. The
# fit solves d stacked m x m systems in the eigenbasis of B B^T instead: at d = 1
# that basis is [[1]] and the fit is bit-equal too; from d = 2 it agrees with
# the Gram solve to that Gram's condition number.

def reference_kernel(A, B_pts, sigma):
    sq = np.sum((A[:, None, :] - B_pts[None, :, :]) ** 2, axis=2)
    return np.exp(-sq / (2.0 * sigma * sigma))


def reference_median(pts):
    if pts.shape[0] < 2:
        return 1.0
    dists = np.sqrt(np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=2))
    vals = dists[np.triu_indices(pts.shape[0], k=1)]
    vals = vals[vals > 0]
    return float(np.median(vals)) if vals.size else 1.0


def reference_gram(Kx, Ku, B, ridge):
    gram = np.kron(Kx @ Kx, B @ B.T) + np.kron(Ku @ Ku, np.eye(B.shape[0]))
    gram[np.diag_indices_from(gram)] += ridge
    return gram


def reference_fit(X, U, P, B, sigma, ridge):
    m, d = X.shape
    if sigma is None:
        sigma = float(np.median([reference_median(X), reference_median(U)]))
    Kx = reference_kernel(X, X, sigma)
    Ku = reference_kernel(U, U, sigma)
    if ridge is None:
        ridge = 1e-8 * float(np.trace(Kx) + np.trace(Ku))
    gram = reference_gram(Kx, Ku, B, ridge)
    A = np.linalg.solve(gram, P.ravel()).reshape(m, d)
    return gram, dict(centers_x=X, coeff_x=Kx @ A @ B, centers_u=U, coeff_u=Ku @ A,
                      sigma=sigma, ridge=ridge)


def bit_equal(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


KERNEL_CASES = [  # (m, duplicate, B, sigma, ridge); B: False 0.1 I, True normal
    (2, False, False, None, None),
    (2, False, True, 0.7, 1e-3),
    (40, True, True, None, None),
    (40, False, False, 0.9, None),
    (40, False, True, None, 1e-6),
]


@pytest.mark.parametrize(
    "d, m, duplicate, random_b, sigma, ridge",
    [(d, *case) for d in range(1, 8) for case in KERNEL_CASES]
    # the (m d)^2 reference Gram at m = 300 is kept to d <= 3 for the suite's time
    + [(d, 300, False, True, None, None) for d in range(1, 4)]
    # "singular": normal with its last column a copy of the first, so that
    # B B^T has a zero eigenvalue
    + [(d, 40, False, "singular", None, None) for d in (2, 3)])
def test_kernel_outputs_match_the_reference_bit_for_bit(monkeypatch, d, m, duplicate,
                                                        random_b, sigma, ridge):
    rng = np.random.default_rng(100 * d + m)
    B = rng.normal(size=(d, d)) if random_b else 0.1 * np.eye(d)
    if random_b == "singular":
        B[:, -1] = B[:, 0]
    dyn = pc.LinearDynamics(A=np.eye(d), B=B)
    X, U, P = decomposable_samples(rng, dyn, m)
    if duplicate:
        X[-1], U[-1], P[-1] = X[0], U[0], P[0]

    geo = pc.geometry
    for pts in (X, U, np.vstack([X, U])):
        assert geo._median_distance(geo._squared_distances(pts, pts)) == reference_median(pts)
    assert bit_equal(geo._gaussian(geo._squared_distances(X, U), 0.8),
                     reference_kernel(X, U, 0.8))

    calls = []
    solve = np.linalg.solve

    def spy(a, b):
        calls.append((a.copy(), b.shape))
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", spy)
    model = pc.fit_decomposable((X, U, P), dyn, sigma=sigma, ridge=ridge)
    monkeypatch.undo()
    ref_gram, ref = reference_fit(X, U, P, B, sigma, ridge)
    for field in ("centers_x", "centers_u", "sigma", "ridge"):
        assert bit_equal(getattr(model, field), ref[field]), field

    # one stacked solve of the d systems lam_k Kx^2 + Ku^2 + ridge I
    assert len(calls) == 1
    grams, rhs_shape = calls[0]
    assert grams.shape == (d, m, m) and rhs_shape == (d, m, 1)
    Kx = reference_kernel(X, X, ref["sigma"])
    Ku = reference_kernel(U, U, ref["sigma"])
    lam = np.linalg.eigh(B @ B.T)[0]
    for k in range(d):
        assert bit_equal(grams[k], lam[k] * (Kx @ Kx) + Ku @ Ku + ref["ridge"] * np.eye(m))

    Xh, Uh, _ = decomposable_samples(rng, dyn, 7)
    ref_pred = (reference_kernel(Xh, X, ref["sigma"]) @ ref["coeff_x"] @ B.T
                + reference_kernel(Uh, U, ref["sigma"]) @ ref["coeff_u"])
    pred = pc.predict_field(model, dyn, Xh, Uh)
    if d == 1:
        for field in ("coeff_x", "coeff_u"):
            assert bit_equal(getattr(model, field), ref[field]), field
        assert bit_equal(pred, ref_pred)
        return
    # the two solves round differently; both are backward stable, so they
    # differ by at most a modest multiple of cond(Gram) eps
    tol = 10 * np.linalg.cond(ref_gram) * np.finfo(float).eps
    for got, want in ((model.coeff_x, ref["coeff_x"]), (model.coeff_u, ref["coeff_u"]),
                      (pred, ref_pred)):
        assert np.max(np.abs(got - want)) <= tol * np.max(np.abs(want))


def test_one_distance_pass_per_sample_set(monkeypatch, rng):
    calls = []
    squared_distances = pc.geometry._squared_distances

    def counting(A, B_pts):
        calls.append((A.shape, B_pts.shape))
        return squared_distances(A, B_pts)

    monkeypatch.setattr(pc.geometry, "_squared_distances", counting)
    d = 2
    dyn = pc.LinearDynamics(A=np.eye(d), B=np.eye(d))
    samples = decomposable_samples(rng, dyn, 30)
    model = pc.fit_decomposable(samples, dyn)
    assert calls == [((30, d), (30, d))] * 2
    calls.clear()
    pc.fit_decomposable(samples, dyn, sigma=1.0)
    assert len(calls) == 2
    calls.clear()
    pc.predict_field(model, dyn, samples[0][:5], samples[1][:5])
    assert calls == [((5, d), (30, d))] * 2
