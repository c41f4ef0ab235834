"""Transport-coefficient fits and decomposable kernel field learning."""

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


def test_gaussian_kernel_and_median_heuristic():
    pts = np.array([[0.0], [1.0], [3.0]])
    K = pc.gaussian_kernel(pts, pts, sigma=1.0)
    assert np.isclose(K[0, 1], np.exp(-0.5))
    assert np.isclose(K[0, 2], np.exp(-4.5))
    np.testing.assert_allclose(np.diag(K), 1.0)
    assert np.isclose(pc.median_pairwise(pts), 2.0)


def test_kernel_fit_interpolates_training_data(rng):
    # a narrow kernel with near-zero ridge interpolates the samples
    d = 2
    dyn = pc.LinearDynamics(A=np.eye(d), B=np.eye(d))
    X, U, P = decomposable_samples(rng, dyn, 40, scale=1.0)
    model = pc.fit_decomposable((X, U, P), dyn, sigma=1.0, ridge=1e-12)
    assert pc.kernel_fit_residual(model, dyn, (X, U, P)) < 1e-6


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


def test_kernel_fit_matches_the_primal_ridge_solution(rng):
    # the dual solve and ridge least squares over all 2md coefficients have
    # one minimizer
    m, d = 25, 2
    dyn = pc.LinearDynamics(A=np.eye(d), B=rng.normal(size=(d, d)))
    X, U, P = decomposable_samples(rng, dyn, m)
    model = pc.fit_decomposable((X, U, P), dyn)

    Kx = pc.gaussian_kernel(X, X, model.sigma)
    Ku = pc.gaussian_kernel(U, U, model.sigma)
    design = np.hstack([np.kron(Kx, dyn.B), np.kron(Ku, np.eye(d))])
    aug = np.vstack([design, np.sqrt(model.ridge) * np.eye(2 * m * d)])
    y = np.concatenate([P.ravel(), np.zeros(2 * m * d)])
    coeffs = np.linalg.lstsq(aug, y, rcond=None)[0]
    # relative to the coefficient norm: single entries near zero carry the
    # absolute error of the large ones
    dual = np.concatenate([model.coeff_x.ravel(), model.coeff_u.ravel()])
    assert np.linalg.norm(dual - coeffs) <= 1e-6 * np.linalg.norm(coeffs)

    Xh, Uh = rng.normal(size=(10, d)), rng.normal(size=(10, d))
    primal = (pc.gaussian_kernel(Xh, X, model.sigma) @ coeffs[:m * d].reshape(m, d) @ dyn.B.T
              + pc.gaussian_kernel(Uh, U, model.sigma) @ coeffs[m * d:].reshape(m, d))
    np.testing.assert_allclose(pc.predict_field(model, dyn, Xh, Uh), primal, rtol=0, atol=1e-8)


def test_kernel_fit_without_ridge_interpolates_distinct_samples(rng):
    d = 1
    dyn = pc.LinearDynamics(A=np.eye(d), B=np.eye(d))
    X, U, P = decomposable_samples(rng, dyn, 10)
    model = pc.fit_decomposable((X, U, P), dyn, ridge=0.0)
    assert model.ridge == 0.0
    assert pc.kernel_fit_residual(model, dyn, (X, U, P)) < 1e-6


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
    with pytest.raises(np.linalg.LinAlgError):
        pc.fit_decomposable((X2, U2, P2), dyn, ridge=0.0)
