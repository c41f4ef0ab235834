"""Observation logs and quadratic-utility identification from price data."""

import numpy as np
import pytest

import pricecoord as pc
from conftest import random_quadratic_instance, random_spd


def make_quadratic_agent(rng, d):
    A = np.eye(d) + 0.3 * rng.normal(size=(d, d)) / np.sqrt(d)
    B = np.eye(d) + 0.3 * rng.normal(size=(d, d)) / np.sqrt(d)
    dyn = pc.LinearDynamics(A=A, B=B)
    util = pc.QuadraticUtility(Q=random_spd(rng, d), R=random_spd(rng, d),
                               x0=rng.normal(size=d))
    return dyn, util


def log_from_samples(dyn, util, X, U, noise=None):
    rows = []
    for i in range(X.shape[0]):
        p = util.grad_u(dyn, X[i], U[i])
        if noise is not None:
            p = p + noise[i]
        rows.append((i, 0, X[i], U[i], p))
    return pc.ObservationLog.from_rows(rows)


# --------------------------------------------------------------------- logs

def test_log_validation_and_agent_masks(rng):
    log = pc.ObservationLog.from_rows(
        [(0, 0, [1.0], [2.0], [3.0]), (0, 1, [4.0], [5.0], [6.0]),
         (1, 0, [7.0], [8.0], [9.0])])
    assert log.d == 1 and len(log) == 3
    X, U, P = log.for_agent(0)
    assert X.shape == (2, 1)
    np.testing.assert_array_equal(X.ravel(), [1.0, 7.0])
    with pytest.raises(ValueError):
        pc.ObservationLog.from_rows([])


def test_csv_round_trip_is_exact(tmp_path, rng):
    rows = [(t, n, rng.normal(size=2), rng.normal(size=2), rng.normal(size=2))
            for t in range(3) for n in range(2)]
    log = pc.ObservationLog.from_rows(rows)
    path = tmp_path / "log.csv"
    pc.save_log(log, path)
    text = path.read_text().splitlines()
    assert text[0] == "t,n,x_0,x_1,u_0,u_1,p_0,p_1"
    back = pc.load_log(path)
    np.testing.assert_array_equal(back.x, log.x)
    np.testing.assert_array_equal(back.u, log.u)
    np.testing.assert_array_equal(back.p, log.p)


@pytest.mark.parametrize("mutate, lineno", [
    (lambda lines: lines.__setitem__(0, "time,n,x_0,u_0,p_0"), 1),
    (lambda lines: lines.__setitem__(2, "1,0,0.5,0.5"), 3),
    (lambda lines: lines.__setitem__(1, "0,0,oops,0.5,0.5"), 2),
    (lambda lines: lines.__setitem__(1, "0,0,inf,0.5,0.5"), 2),
    # a blank line still counts: the bad row is the file's fourth line
    (lambda lines: lines.__setitem__(slice(1, 3), ["", lines[1], "1,0,x,0.5,0.5"]), 4),
])
def test_malformed_csv_names_the_line(tmp_path, mutate, lineno):
    log = pc.ObservationLog.from_rows(
        [(0, 0, [0.1], [0.2], [0.3]), (1, 0, [0.4], [0.5], [0.6])])
    path = tmp_path / "log.csv"
    pc.save_log(log, path)
    lines = path.read_text().splitlines()
    mutate(lines)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(pc.ConfigError, match=f"line {lineno}"):
        pc.load_log(path)


# ----------------------------------------------------------- identification

def test_identify_hand_example():
    # A = B = 1, Q = 2, R = 1, x0 = 1: p = -4x - 6u + 4
    dyn = pc.LinearDynamics(A=np.eye(1), B=np.eye(1))
    util = pc.QuadraticUtility(Q=2 * np.eye(1), R=np.eye(1), x0=np.ones(1))
    X = np.array([[0.0], [2.0], [1.0]])
    U = np.array([[1.0], [0.0], [1.0]])
    log = log_from_samples(dyn, util, X, U)
    model = pc.identify(log, 0, dyn, np.ones(1))
    np.testing.assert_allclose(model.C, [[4.0]], atol=1e-10)
    np.testing.assert_allclose(model.D, [[6.0]], atol=1e-10)
    np.testing.assert_allclose(model.Q_hat, [[2.0]], atol=1e-10)
    np.testing.assert_allclose(model.R_hat, [[1.0]], atol=1e-10)
    assert model.rank == 2


@pytest.mark.parametrize("d", [1, 2, 3])
def test_identify_exact_at_minimum_sample_count(rng, d):
    # 2d generic observations determine the 2 d^2 unknowns exactly
    for _ in range(5):
        dyn, util = make_quadratic_agent(rng, d)
        X = rng.normal(size=(2 * d, d))
        U = rng.normal(size=(2 * d, d))
        log = log_from_samples(dyn, util, X, U)
        model = pc.identify(log, 0, dyn, util.x0)
        np.testing.assert_allclose(model.Q_hat, util.Q, rtol=1e-8, atol=1e-9)
        np.testing.assert_allclose(model.R_hat, util.R, rtol=1e-8, atol=1e-9)
        assert np.allclose(model.Q_hat, model.Q_hat.T)
        assert np.allclose(model.R_hat, model.R_hat.T)
        # the recovered gradient map generalizes off the sample set
        x, u = rng.normal(size=d), rng.normal(size=d)
        np.testing.assert_allclose(pc.estimated_gradient(model, dyn, x, u),
                                   util.grad_u(dyn, x, u), rtol=1e-7, atol=1e-8)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_identify_needs_two_d_samples(rng, d):
    dyn, util = make_quadratic_agent(rng, d)
    X = rng.normal(size=(2 * d - 1, d))
    U = rng.normal(size=(2 * d - 1, d))
    log = log_from_samples(dyn, util, X, U)
    with pytest.raises(pc.RankDeficiencyError) as exc:
        pc.identify(log, 0, dyn, util.x0)
    assert exc.value.required == 2 * d
    assert exc.value.rank < 2 * d


def test_identify_rejects_collinear_samples(rng):
    # many samples, but all on a line through the regressor origin
    d = 2
    dyn, util = make_quadratic_agent(rng, d)
    shift = np.linalg.solve(dyn.A, util.x0)
    direction_x = rng.normal(size=d)
    direction_u = rng.normal(size=d)
    ts = rng.normal(size=12)
    X = shift[None, :] + ts[:, None] * direction_x[None, :]
    U = ts[:, None] * direction_u[None, :]
    log = log_from_samples(dyn, util, X, U)
    with pytest.raises(pc.RankDeficiencyError):
        pc.identify(log, 0, dyn, util.x0)


def test_identify_noise_error_shrinks_with_samples():
    rng = np.random.default_rng(7)
    d = 2
    dyn, util = make_quadratic_agent(rng, d)
    sigma = 0.01
    counts = [2 * d, 4 * d, 8 * d, 16 * d]
    medians = []
    for M in counts:
        errs = []
        for _ in range(50):
            X = rng.normal(size=(M, d))
            U = rng.normal(size=(M, d))
            noise = sigma * rng.normal(size=(M, d))
            model = pc.identify(log_from_samples(dyn, util, X, U, noise),
                                0, dyn, util.x0)
            errs.append(np.linalg.norm(model.Q_hat - util.Q)
                        + np.linalg.norm(model.R_hat - util.R))
        medians.append(float(np.median(errs)))
    assert all(b <= a for a, b in zip(medians, medians[1:]))
    assert medians[-1] < 0.5 * medians[0]


def test_x0_cross_check_reported_with_spare_samples(rng):
    d = 2
    dyn, util = make_quadratic_agent(rng, d)
    X = rng.normal(size=(2 * d, d))
    U = rng.normal(size=(2 * d, d))
    exact = pc.identify(log_from_samples(dyn, util, X, U), 0, dyn, util.x0)
    assert exact.x0_check is None  # no spare row to fit an intercept
    X = rng.normal(size=(2 * d + 3, d))
    U = rng.normal(size=(2 * d + 3, d))
    spare = pc.identify(log_from_samples(dyn, util, X, U), 0, dyn, util.x0)
    assert spare.x0_check is not None and spare.x0_check < 1e-7


def test_identify_rejects_singular_dynamics(rng):
    util = pc.QuadraticUtility(Q=np.eye(1), R=np.eye(1), x0=np.zeros(1))
    dyn_ok = pc.LinearDynamics(A=np.eye(1), B=np.eye(1))
    log = log_from_samples(dyn_ok, util, np.array([[1.0], [0.0]]),
                           np.array([[0.0], [1.0]]))
    with pytest.raises(ValueError, match="singular"):
        pc.identify(log, 0, pc.LinearDynamics(A=np.zeros((1, 1)), B=np.eye(1)),
                    np.zeros(1))


# ---------------------------------------------------------------- price map

def test_price_to_action_map_matches_best_response(rng):
    d = 2
    dyn, util = make_quadratic_agent(rng, d)
    X = rng.normal(size=(2 * d, d))
    U = rng.normal(size=(2 * d, d))
    model = pc.identify(log_from_samples(dyn, util, X, U), 0, dyn, util.x0)
    x = rng.normal(size=d)
    gain, offset = pc.price_to_action_map(model, x, util.x0, dyn)
    for _ in range(3):
        p = rng.normal(size=d)
        predicted = gain @ p + offset
        actual = pc.best_response(pc.GameSpec(utility=util, price=p),
                                  x, dyn, np.zeros(d))
        np.testing.assert_allclose(predicted, actual, atol=1e-8)


def test_optimal_price_zero_for_decoupled(rng):
    sys = random_quadratic_instance(rng, N=2, d=1, coupling=0.0)
    models = []
    for n in range(2):
        X = rng.normal(size=(2, 1))
        U = rng.normal(size=(2, 1))
        rows = [(i, 0, X[i], U[i],
                 sys.utilities[n].grad_u(sys.dynamics[n], X[i], U[i]))
                for i in range(2)]
        models.append(pc.identify(pc.ObservationLog.from_rows(rows), 0,
                                  sys.dynamics[n], sys.utilities[n].x0))
    prices = pc.optimal_price(models, sys)
    for p in prices:
        np.testing.assert_allclose(p, 0.0, atol=1e-7)


def test_optimal_price_recovers_welfare_optimum(rng):
    sys = random_quadratic_instance(rng, N=2, d=1, coupling=0.4)
    models = []
    for n in range(2):
        X = rng.normal(size=(4, 1))
        U = rng.normal(size=(4, 1))
        rows = [(i, 0, X[i], U[i],
                 sys.utilities[n].grad_u(sys.dynamics[n], X[i], U[i]))
                for i in range(4)]
        models.append(pc.identify(pc.ObservationLog.from_rows(rows), 0,
                                  sys.dynamics[n], sys.utilities[n].x0))
    prices = pc.optimal_price(models, sys)
    # posting p_n* and letting each agent best-respond to price plus the
    # true coupling-free private utility reaches the welfare optimum
    oracle = pc.joint_welfare_opt(sys)
    u_resp = np.empty((2, 1))
    for n in range(2):
        game = pc.GameSpec(utility=sys.utilities[n], price=prices[n])
        u_resp[n] = pc.best_response(game, sys.states[n], sys.dynamics[n],
                                     np.zeros(1))
    assert abs(pc.joint_welfare(sys, u_resp) - oracle.welfare) < 1e-6
