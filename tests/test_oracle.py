"""Reference welfare maximizer and finite differences."""

import dataclasses
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import pricecoord as pc
from pricecoord import oracle
from pricecoord.model import PAIR_BATCH_FLOATS, batch_welfare
from pricecoord.numerics import _newton_steps
from conftest import make_two_agent_scalar, random_quadratic_instance
from goldens import DATA, README


def readme_instance():
    cfg = pc.config_from_dict({"N": 3, "d": 2, "seed": 13, "coupling_strength": 50.0,
                               "safety_radius": 6.0})
    return pc.generate(cfg)


def readme_final_stage():
    """The README run's last stage, at the states its golden trace holds
    for stage 39: the instance its oracle call sees."""
    cfg = pc.config_from_dict(README)
    log = pc.load_log(DATA / "readme_trace.csv")
    return pc.replace_states(pc.generate(cfg), log.x[log.t == cfg.horizon - 1])


def reference_field(sys, points, h=1e-5):
    """Central-difference gradients of the whole welfare at each row of
    points, from one batch_welfare call on all 2 m B stencil points: row b
    is (W(p_b + h e_j) - W(p_b - h e_j)) / 2h, fd_gradient of the scalar
    welfare bit for bit."""
    X = np.atleast_2d(np.asarray(points, dtype=float))
    m = X.shape[1]
    E = h * np.eye(m)
    w = batch_welfare(sys, np.concatenate([X[:, None] + E, X[:, None] - E], axis=1))
    w = w.reshape(len(X), 2, m)
    return (w[:, 0] - w[:, 1]) / (2.0 * h)


def reference_hessian(f_rows, points, h=1e-4):
    """Symmetric central second-difference Hessians of the batched function
    f_rows at each row of points, (B, m) or (m,), as (B, m, m): each row's
    stencil is 1 + 2 m^2 points, the diagonal from f(u) and f(u +- h e_i),
    each off-diagonal pair from the four corners u +- h e_i +- h e_j."""
    X = np.atleast_2d(np.asarray(points, dtype=float))
    m = X.shape[1]
    E = h * np.eye(m)
    I, J = np.tril_indices(m, -1)
    u = X[:, None]
    up, um = u + E, u - E
    w = f_rows(np.concatenate([u, up, um, up[:, I] + E[J], up[:, I] - E[J],
                               um[:, I] + E[J], um[:, I] - E[J]], axis=1).reshape(-1, m))
    w = w.reshape(len(X), -1)
    f0, wp, wm = w[:, :1], w[:, 1:m + 1], w[:, m + 1:2 * m + 1]
    corners = w[:, 2 * m + 1:].reshape(len(X), 4, -1)
    H = np.empty((len(X), m, m))
    H[:, np.arange(m), np.arange(m)] = (wp - 2.0 * f0 + wm) / (h * h)
    H[:, I, J] = H[:, J, I] = (corners[:, 0] - corners[:, 1] - corners[:, 2]
                               + corners[:, 3]) / (4.0 * h * h)
    return H


def fleet_config(N):
    """The fleet whose gap oracle dominates a run: barrier 1 / 0.5, one stage."""
    return {"N": N, "d": 2, "seed": 13, "horizon": 1, "coupling_strength": 1.0,
            "safety_radius": 0.5, "noise_std": 0.01, "mode": {"mode": "simultaneous"}}


def grid_scan(sys, box):
    """The scan reference: the first best welfare on the grid of pitch
    width/200 over the box (N d <= 3), one batch_welfare call per value of
    the first coordinate, polished by the oracle's Newton loop."""
    m = sys.N * sys.d
    axes = [np.linspace(box[0], box[1], 201)] * m
    best_w, best_u = -np.inf, None
    for first in axes[0]:
        points = np.stack(np.meshgrid(first, *axes[1:], indexing="ij"), axis=-1).reshape(-1, m)
        w = batch_welfare(sys, points)
        k = np.argmax(w)
        if w[k] > best_w:
            best_w, best_u = w[k], points[k]
    return oracle._newton_polish(sys, best_u)[0]


@pytest.fixture
def welfare_calls(monkeypatch):
    """Counts the oracle's field and Hessian calls and the rows each
    evaluates, the agent terms W_a those rows evaluate (one per agent and
    stencil point) and the welfare rows of its batch_welfare calls."""
    calls = dict.fromkeys(("welfare", "field", "field_rows", "hessian", "hessian_rows",
                           "terms"), 0)
    field, hessian, terms = oracle._field, oracle._hessian, oracle._agent_terms

    def counted(name, f):
        def wrapper(sys, X):
            calls[name] += 1
            calls[name + "_rows"] += len(X)
            return f(sys, X)
        return wrapper

    def counted_terms(sys, U, offsets):
        calls["terms"] += U.shape[0] * U.shape[1] * len(offsets)
        return terms(sys, U, offsets)

    def counted_welfare(sys, U):
        calls["welfare"] += len(U)
        return batch_welfare(sys, U)

    monkeypatch.setattr(oracle, "batch_welfare", counted_welfare)
    monkeypatch.setattr(oracle, "_field", counted("field", field))
    monkeypatch.setattr(oracle, "_hessian", counted("hessian", hessian))
    monkeypatch.setattr(oracle, "_agent_terms", counted_terms)
    return calls


def test_fd_gradient_on_known_functions(rng):
    g = pc.fd_gradient(lambda v: float(v @ v), np.array([1.0, 0.0]))
    np.testing.assert_allclose(g, [2.0, 0.0], atol=1e-9)
    g = pc.fd_gradient(lambda v: 3.0, np.zeros(4))
    np.testing.assert_allclose(g, np.zeros(4), atol=1e-12)
    A = rng.normal(size=(3, 3))
    b = rng.normal(size=3)
    for _ in range(5):
        v = rng.normal(size=3)
        g = pc.fd_gradient(lambda u: float(u @ A @ u + b @ u), v)
        np.testing.assert_allclose(g, (A + A.T) @ v + b, rtol=1e-7, atol=1e-9)


def test_joint_welfare_decoupled_peaks_at_private_optima():
    sys = make_two_agent_scalar(0.0)
    assert np.isclose(pc.joint_welfare(sys, np.array([[1.0], [-1.0]])), 0.0)
    assert pc.joint_welfare(sys, np.zeros((2, 1))) < 0.0


def test_closed_form_matches_known_nash_welfare():
    # welfare optimum of the eps = 0.1 two-agent instance: u = +-(5/6),
    # welfare -1/3 (the coupled optimum, not the private targets)
    sys = make_two_agent_scalar(0.1)
    res = pc.joint_welfare_opt(sys)
    np.testing.assert_allclose(res.u_star, [[5.0 / 6.0], [-5.0 / 6.0]], atol=1e-9)
    assert np.isclose(res.welfare, -1.0 / 3.0, atol=1e-10)
    assert res.method == "closed_form"


def test_grid_cross_checks_closed_form():
    sys = make_two_agent_scalar(0.1)
    closed = pc.joint_welfare_opt(sys)
    grid = grid_scan(sys, (-2.0, 2.0)).reshape(sys.N, sys.d)
    np.testing.assert_allclose(grid, closed.u_star, atol=1e-7)
    assert abs(pc.joint_welfare(sys, grid) - closed.welfare) < 1e-10


def test_multistart_cross_checks_closed_form(rng):
    sys = random_quadratic_instance(rng, N=2, d=1, coupling=0.3)
    closed = pc.joint_welfare_opt(sys)
    multi = oracle._multistart(sys, (-10.0, 10.0))
    np.testing.assert_allclose(multi, closed.u_star.ravel(), atol=1e-7)


def test_closed_form_on_random_quadratic_instances(rng):
    # stationarity of the welfare field at the reported optimum
    for trial in range(5):
        sys = random_quadratic_instance(rng, N=2, d=2, coupling=0.2)
        res = pc.joint_welfare_opt(sys)
        field = pc.reward_field(sys)
        # welfare field = utility gradients + coupling part; welfare optimum of
        # a shared coupling zeroes the full welfare gradient
        g = pc.fd_gradient(lambda v: pc.joint_welfare(sys, v.reshape(2, 2)),
                           res.u_star.ravel())
        assert np.max(np.abs(g)) < 1e-6


def double_well_instance():
    """One agent with the non-quadratic welfare -(u^2 - 1)^2, maximized at u = +-1."""
    dyn = pc.LinearDynamics(A=np.eye(1), B=np.eye(1))
    util = pc.SmoothUtility(
        value_fn=lambda x_next, u: -float((u[0] ** 2 - 1.0) ** 2))
    return pc.SystemInstance(dynamics=(dyn,), utilities=(util,),
                             coupling=pc.zero_coupling(1, 1), states=np.zeros((1, 1)))


def test_nonquadratic_welfare_falls_back_with_warning():
    sys = double_well_instance()
    with pytest.warns(UserWarning):
        res = pc.joint_welfare_opt(sys, box=(-2.0, 2.0))
    assert np.isclose(abs(res.u_star[0, 0]), 1.0, atol=1e-6)
    assert np.isclose(res.welfare, 0.0, atol=1e-9)
    assert res.method == "newton_multistart"


def test_multistart_skips_starts_whose_welfare_overflows(rng):
    sys = random_quadratic_instance(rng, N=2, d=1, coupling=0.3)
    closed = pc.joint_welfare_opt(sys)
    multi = oracle._multistart(sys, (-1e300, 1e300))
    np.testing.assert_allclose(multi, closed.u_star.ravel(), atol=1e-7)


def test_multistart_without_a_finite_start_names_the_box():
    with pytest.raises(ValueError, match="box"):
        oracle._multistart(double_well_instance(), (1e300, 1.5e300))


def test_multistart_keeps_a_maximum_of_the_double_well():
    sys = double_well_instance()
    u = oracle._multistart(sys, (-3.0, 3.0))
    assert np.isclose(abs(u[0]), 1.0, atol=1e-6)
    assert np.isclose(pc.joint_welfare(sys, u), 0.0, atol=1e-9)


def test_the_fallback_returns_the_higher_of_two_maxima():
    # -(u^2 - 1)^2 + 0.1 u has maxima near u = 1.0123 (welfare 0.1006) and
    # u = -0.9873 (welfare -0.0994); the multistart's ends reach both
    dyn = pc.LinearDynamics(A=np.eye(1), B=np.eye(1))
    util = pc.SmoothUtility(
        value_fn=lambda x_next, u: -float((u[0] ** 2 - 1.0) ** 2) + 0.1 * float(u[0]))
    sys = pc.SystemInstance(dynamics=(dyn,), utilities=(util,),
                            coupling=pc.zero_coupling(1, 1), states=np.zeros((1, 1)))
    with pytest.warns(UserWarning, match="falling back"):
        res = pc.joint_welfare_opt(sys, box=(-3.0, 3.0))
    assert res.method == "newton_multistart"
    assert np.isclose(res.u_star[0, 0], 1.0123, atol=1e-4)
    assert res.welfare > 0.09


def test_multistart_rejects_the_double_well_minimum_on_a_huge_box():
    # every random start's welfare overflows; the box centre u = 0 polishes to
    # the stationary point it starts on, the double well's local minimum
    with pytest.raises(ValueError, match="box .*maximum"):
        oracle._multistart(double_well_instance(), (-1e300, 1e300))


def test_a_point_whose_welfare_hessian_is_not_finite_is_no_maximum():
    # the double well's welfare overflows at u = 1e200, so its differences are nan
    assert not oracle._is_maximum(double_well_instance(), np.array([1e200]))
    assert oracle._is_maximum(double_well_instance(), np.array([1.0]))


def test_the_fallback_without_a_box_names_the_multistart():
    with pytest.warns(UserWarning):
        with pytest.raises(ValueError, match="^newton_multistart requires a box$"):
            pc.joint_welfare_opt(double_well_instance())


def test_closed_form_cost_on_quadratic_welfare(rng, welfare_calls):
    sys = random_quadratic_instance(rng, N=3, d=2, coupling=0.3)
    res = pc.joint_welfare_opt(sys)
    assert res.method == "closed_form"
    assert welfare_calls["terms"] <= 2000


def test_closed_form_reads_its_stationarity_from_the_polish(rng, welfare_calls, monkeypatch):
    # a successful closed_form evaluates the probe's m + 1 fields in one
    # call, the polish and one Hessian for the maximum check: the
    # stationarity check reads the polish's last field instead of a fresh one
    sys = random_quadratic_instance(rng, N=3, d=2, coupling=0.3)
    m = sys.N * sys.d
    polish, spent = oracle._newton_polish, {}

    def recorded_polish(*args):
        before = dict(welfare_calls)
        out = polish(*args)
        spent.update({k: welfare_calls[k] - before[k] for k in welfare_calls})
        return out

    monkeypatch.setattr(oracle, "_newton_polish", recorded_polish)
    assert pc.joint_welfare_opt(sys).method == "closed_form"
    assert welfare_calls["field"] == 1 + spent["field"]
    assert welfare_calls["field_rows"] == (m + 1) + spent["field_rows"]
    assert welfare_calls["hessian"] == spent["hessian"] + 1
    assert welfare_calls["hessian_rows"] == spent["hessian_rows"] + 1
    # each field row is N agents at 2d points, each Hessian row N at 1 + 2d^2
    N, d = sys.N, sys.d
    assert welfare_calls["terms"] == (N * 2 * d * welfare_calls["field_rows"]
                                      + N * (1 + 2 * d * d) * welfare_calls["hessian_rows"])
    # the final joint_welfare is the one welfare row
    assert welfare_calls["welfare"] == 1


def test_polish_at_the_optimum_stops_after_one_failed_line_search(rng, welfare_calls):
    sys = random_quadratic_instance(rng, N=3, d=2, coupling=0.3)
    u_star = pc.joint_welfare_opt(sys).u_star.ravel()
    g_star = oracle._field(sys, u_star[None])[0]
    delta = np.linalg.solve(oracle._hessian(sys, u_star[None])[0], -g_star)
    # the trials from alpha = 1 down to the last alpha whose step does not
    # round back to u_star, and the line-search calls that cover them
    trials = sum(np.any(u_star + alpha * delta != u_star) for alpha in oracle._ALPHAS)
    blocks = sum(lo < trials for lo, _ in oracle._BLOCKS)
    assert 10 < trials < len(oracle._ALPHAS)
    for key in welfare_calls:
        welfare_calls[key] = 0
    u, g = oracle._newton_polish(sys, u_star)
    # one field at the start, one Hessian and the trial fields, none
    # reducing ||F||
    assert welfare_calls["hessian"] == welfare_calls["hessian_rows"] == 1
    assert welfare_calls["field"] == 1 + blocks
    assert welfare_calls["field_rows"] == 1 + trials
    assert welfare_calls["welfare"] == 0
    np.testing.assert_array_equal(u, u_star)
    np.testing.assert_array_equal(g, g_star)


def _reference_polish(sys, u, field=oracle._field, hessian=oracle._hessian):
    """The polish loop, one halving at a time, without the stop on a step
    that rounds back to u: it backtracks until alpha <= 1e-10. field and
    hessian map (K, m) points to their fields and Hessians."""
    g = field(sys, u[None])[0]
    for _ in range(20):
        gn = np.max(np.abs(g))
        if gn < 1e-11:
            break
        try:
            delta = np.linalg.solve(hessian(sys, u[None])[0], -g)
        except np.linalg.LinAlgError:
            break
        alpha = 1.0
        while True:
            trial = u + alpha * delta
            g_trial = field(sys, trial[None])[0]
            if np.max(np.abs(g_trial)) < gn:
                break
            alpha *= 0.5
            if alpha <= 1e-10:
                return u
        u, g = trial, g_trial
    return u


def _whole_welfare_hessian(sys, points):
    return reference_hessian(lambda P: batch_welfare(sys, P), points)


@pytest.mark.parametrize("make, box", [
    (readme_instance, (-20.0, 20.0)),
    (lambda: random_quadratic_instance(np.random.default_rng(3), N=3, d=2, coupling=0.3),
     (-10.0, 10.0)),
])
def test_polish_stopping_on_a_rounded_step_changes_no_end_point(make, box):
    sys = make()
    starts = np.random.default_rng(5).uniform(*box, size=(32, sys.N * sys.d))
    for start in starts:
        assert np.array_equal(oracle._newton_polish(sys, start)[0], _reference_polish(sys, start))


def _assert_rows_equal_one_row_polishes(sys, starts):
    """Polishes starts as one stack and asserts that each row's (u, F(u))
    equals its one-row polish bit for bit, or that both drop the row with
    the same ValueError; returns the stack's (U, G, errors)."""
    with np.errstate(over="ignore", invalid="ignore"):  # overflowing starts are dropped
        U, G, errors = oracle._newton_polish_rows(sys, starts)
        for k, start in enumerate(starts):
            if k in errors:
                with pytest.raises(ValueError) as alone:
                    oracle._newton_polish(sys, start)
                assert str(alone.value) == str(errors[k])
                continue
            u, g = oracle._newton_polish(sys, start)
            assert np.array_equal(U[k], u) and np.array_equal(G[k], g)
    return U, G, errors


def test_stacked_rows_equal_one_row_and_reference_polishes():
    sys = readme_instance()
    starts = np.random.default_rng(5).uniform(-20.0, 20.0, size=(32, sys.N * sys.d))
    U, G, errors = _assert_rows_equal_one_row_polishes(sys, starts)
    assert not errors
    for start, u, g in zip(starts, U, G):
        assert np.array_equal(u, _reference_polish(sys, start))
        assert np.array_equal(g, oracle._field(sys, u[None])[0])
        # the whole-welfare stencils differ by their rounding: the field by
        # at most about eps |W| / h = 3e-9 here (|W| <= 150, h = 1e-5), and
        # the end point by that over the curvature, which is at least 1
        np.testing.assert_allclose(g, reference_field(sys, u)[0], rtol=0, atol=1e-8)
        np.testing.assert_allclose(
            u, _reference_polish(sys, start, reference_field, _whole_welfare_hessian),
            rtol=0, atol=1e-8)


def test_a_stack_drops_the_starts_whose_welfare_overflows():
    # the multistart's starts on the box +-1e300: every random start's field
    # overflows, the centre polishes to the optimum +-5/6
    starts = np.vstack([np.zeros(2), -1e300 + 2e300 * np.random.default_rng(0).random((31, 2))])
    U, _, errors = _assert_rows_equal_one_row_polishes(make_two_agent_scalar(0.1), starts)
    assert sorted(errors) == list(range(1, 32))
    np.testing.assert_allclose(U[0], [5.0 / 6.0, -5.0 / 6.0], atol=1e-9)


def test_singular_hessians_end_only_their_rows():
    # welfare -max(u_0 - 1, 0)^2 - (u_1 - 2)^2 is flat in u_0 below 1: a
    # start there has a singular Hessian and a nonzero field, so it ends
    # where it starts, while the other rows step to the kink at (1, 2)
    dyn = pc.LinearDynamics(A=np.eye(1), B=np.eye(1))
    utils = (pc.SmoothUtility(value_fn=lambda x_next, u: -max(u[0] - 1.0, 0.0) ** 2),
             pc.SmoothUtility(value_fn=lambda x_next, u: -(u[0] - 2.0) ** 2))
    sys = pc.SystemInstance(dynamics=(dyn, dyn), utilities=utils,
                            coupling=pc.zero_coupling(2, 1), states=np.zeros((2, 1)))
    starts = np.random.default_rng(5).uniform(-3.0, 3.0, size=(32, 2))
    U, G, errors = _assert_rows_equal_one_row_polishes(sys, starts)
    assert not errors
    flat = starts[:, 0] < 1.0
    assert 0 < np.count_nonzero(flat) < 32
    np.testing.assert_array_equal(U[flat], starts[flat])
    assert np.all(np.max(np.abs(G[flat]), axis=1) >= 1e-11)
    np.testing.assert_allclose(U[~flat], np.tile([1.0, 2.0], (np.count_nonzero(~flat), 1)),
                               atol=1e-4)


def test_multistart_polishes_its_starts_as_one_stack(welfare_calls, monkeypatch):
    # the same field and Hessian rows as its 32 starts polished one after
    # another (310 calls on this instance) in far fewer calls; the row counts follow the
    # polish's step counts, which follow the last bits of the host's exp and
    # LAPACK, so they are compared with the one-row polishes run here, not
    # with a literal
    sys = readme_instance()
    polish, stacks = oracle._newton_polish_rows, []

    def rows():
        return welfare_calls["field_rows"], welfare_calls["hessian_rows"]

    def spied(sys_, starts):
        before = rows()
        out = polish(sys_, starts)
        stacks.append((np.array(starts), np.subtract(rows(), before)))
        return out

    monkeypatch.setattr(oracle, "_newton_polish_rows", spied)
    oracle._multistart(sys, (-20.0, 20.0))
    assert welfare_calls["field"] + welfare_calls["hessian"] <= 40
    [(starts, stacked_rows)] = stacks
    assert len(starts) == 32
    before = rows()
    for start in starts:
        polish(sys, start[None])
    np.testing.assert_array_equal(np.subtract(rows(), before), stacked_rows)


def test_fd_hessian_is_exact_on_quadratics(rng):
    # the whole-function reference stencil is exact up to rounding on a
    # quadratic, and the oracle's pair-structured Hessian agrees with it on
    # quadratic welfare within the reference's rounding, about
    # eps |W| / h^2 = 2e-8 |W| (h = 1e-4), taken 1e-6 max(1, |W|) here
    A = rng.normal(size=(4, 4))
    b = rng.normal(size=4)
    H = reference_hessian(lambda P: np.sum((P @ A) * P, axis=1) + P @ b, rng.normal(size=4))[0]
    np.testing.assert_allclose(H, A + A.T, atol=1e-6)
    np.testing.assert_array_equal(H, H.T)
    sys = random_quadratic_instance(rng, N=4, d=2, coupling=0.3)
    points = 3.0 * rng.normal(size=(3, sys.N * sys.d))
    H = oracle._hessian(sys, points)
    np.testing.assert_array_equal(H, H.swapaxes(1, 2))
    W = np.max(np.abs(batch_welfare(sys, points)))
    np.testing.assert_allclose(H, _whole_welfare_hessian(sys, points), rtol=0,
                               atol=1e-6 * max(1.0, W))


@pytest.mark.parametrize("make", [readme_instance,
                                  lambda: random_quadratic_instance(np.random.default_rng(3),
                                                                    N=3, d=2, coupling=0.3)])
def test_batched_field_equals_fd_gradient_of_the_scalar_welfare(rng, make):
    # the whole-welfare reference field is fd_gradient of the scalar welfare
    # bit for bit; the oracle's field, which differences only the terms each
    # coordinate moves, agrees with it within the reference's rounding, about
    # eps |W| / h = 2e-11 |W| (h = 1e-5), taken 1e-9 max(1, |W|) here
    sys = make()
    m, h = sys.N * sys.d, 1e-5
    E = h * np.eye(m)

    def scalar(v):
        return pc.joint_welfare(sys, v.reshape(sys.N, sys.d))

    points = 3.0 * rng.normal(size=(4, m))
    fields = reference_field(sys, points, h)
    for p, field in zip(points, fields):
        np.testing.assert_array_equal(field, pc.fd_gradient(scalar, p, h))
        np.testing.assert_array_equal(
            field, [(scalar(p + E[j]) - scalar(p - E[j])) / (2.0 * h) for j in range(m)])
    W = np.max(np.abs(batch_welfare(sys, points)))
    np.testing.assert_allclose(oracle._field(sys, points), fields, rtol=0,
                               atol=1e-9 * max(1.0, W))


def halving_polish_rows(sys, starts):
    """_newton_polish_rows with the line search it had before the doubling
    blocks: each halving of alpha evaluates the fields of the rows still
    searching in one call, and a row ends at the first better, non-finite
    or rounded trial. The reference the doubling search equals bit for bit."""
    U = np.array(starts, dtype=float)
    errors = {}
    G, finite = oracle._fields(sys, U, np.arange(len(U)), errors)
    live = np.flatnonzero(finite)
    for _ in range(20):
        gn = np.max(np.abs(G[live]), axis=1)
        live, gn = live[gn >= 1e-11], gn[gn >= 1e-11]
        if not live.size:
            break
        delta, singular = _newton_steps(oracle._hessian(sys, U[live]), G[live])
        if singular is not None:
            live, gn, delta = live[~singular], gn[~singular], delta[~singular]
        moved = np.zeros(len(live), dtype=bool)
        alpha, i = 1.0, np.arange(len(live))
        while i.size:
            u = U[live[i]]
            trial = u + alpha * delta[i]
            fresh = np.any(trial != u, axis=1)
            i, trial = i[fresh], trial[fresh]
            if not i.size:
                break
            g_trial, finite = oracle._fields(sys, trial, live[i], errors)
            better = finite & (np.max(np.abs(g_trial), axis=1) < gn[i])
            U[live[i[better]]], G[live[i[better]]] = trial[better], g_trial[better]
            moved[i[better]] = True
            i = i[finite & ~better]
            alpha *= 0.5
            if alpha <= 1e-10:
                break
        live = live[moved]
    return U, G, errors


def _assert_same_polish(sys, starts):
    """Polishes starts with the doubling and the halving line search and
    asserts equal error rows and messages, ends and fields; returns the
    errors."""
    with np.errstate(over="ignore", invalid="ignore"):  # overflowing starts are dropped
        U, G, errors = oracle._newton_polish_rows(sys, starts)
        U_ref, G_ref, errors_ref = halving_polish_rows(sys, starts)
    assert sorted(errors) == sorted(errors_ref)
    assert [str(errors[k]) for k in sorted(errors)] == [str(errors_ref[k]) for k in sorted(errors)]
    kept = [k for k in range(len(starts)) if k not in errors]
    assert np.array_equal(U[kept], U_ref[kept]) and np.array_equal(G[kept], G_ref[kept])
    return errors


@pytest.mark.parametrize("make, box", [
    (readme_final_stage, (-20.0, 20.0)),
    (double_well_instance, (-3.0, 3.0)),
    (double_well_instance, (-1e300, 1e300)),
])
def test_the_doubling_line_search_is_the_halving_loop_bit_for_bit(make, box):
    sys = make()
    errors = _assert_same_polish(sys, oracle._starts(sys.N * sys.d, box))
    if box[1] > 1e299:  # every random start's welfare overflows
        assert sorted(errors) == list(range(1, 32))
    else:
        assert not errors


def trap_instance():
    """One scalar agent whose welfare is -(u - 2)^2, except NaN on (0.25,
    0.75) and 10 u above 1.5. From u = 0 the Newton step is about 2: it
    fails at alpha = 1 (u = 2), reduces the field at 1/2 (u = 1) and meets
    the NaN at 1/4, in the same block. From u = -1 the step is about 3: it
    fails at 1 and meets the NaN at 1/2, where the loop stops."""
    def value(x_next, u):
        v = float(u[0])
        if 0.25 < v < 0.75:
            return float("nan")
        return 10.0 * v if v > 1.5 else -(v - 2.0) ** 2

    dyn = pc.LinearDynamics(A=np.eye(1), B=np.eye(1))
    return pc.SystemInstance(dynamics=(dyn,), utilities=(pc.SmoothUtility(value_fn=value),),
                             coupling=pc.zero_coupling(1, 1), states=np.zeros((1, 1)))


def test_a_better_alpha_before_a_non_finite_trial_in_its_block_keeps_its_step():
    sys = trap_instance()
    start = np.zeros((1, 1))
    U, G = start.copy(), oracle._field(sys, start)
    delta, _ = _newton_steps(oracle._hessian(sys, start), G)
    errors = {}
    moved = oracle._line_search(sys, U, G, np.array([0]), np.abs(G[:, 0]), delta, errors)
    assert moved[0] and not errors
    np.testing.assert_array_equal(U, start + 0.5 * delta)
    np.testing.assert_array_equal(G, oracle._field(sys, U))
    # the whole polish, with a row that stops at its non-finite trial
    errors = _assert_same_polish(sys, np.array([[0.0], [-1.0], [1.0]]))
    assert {k: str(e) for k, e in errors.items()} == {
        1: "non-finite evaluation near coordinate 0"}


_MEASURED = """
import resource, subprocess, sys
code = subprocess.run(sys.argv[1:]).returncode
print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
sys.exit(code)
"""


def test_simulate_at_n100_finds_its_gap_in_seconds_and_little_memory(tmp_path):
    # the closed-form oracle at N = 100 (m = 200): differencing the whole
    # welfare took 97 s and 346 MB on a shared 2-core Xeon, differencing only
    # the terms each coordinate moves 0.7 s and 46 MB. The peak RSS is read
    # in a wrapper process, so earlier tests' memory does not count.
    config = tmp_path / "fleet.json"
    config.write_text(json.dumps(fleet_config(100)))
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(pc.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", _MEASURED, sys.executable, "-m",
                           "pricecoord.cli", "simulate", "--config", str(config),
                           "--out", str(tmp_path / "out"), "--quiet"],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["oracle_method"] == "closed_form"
    assert abs(report["gap"]) <= 1e-6
    assert int(proc.stdout.split()[-1]) <= 100 * 1024  # ru_maxrss is in KiB on Linux


def counted_pair_values(sys):
    """sys with a coupling whose pair_value appends the number of squared
    distances of each call to the returned list."""
    sizes, pair_value = [], sys.coupling.pair_value

    def counted(sq):
        sizes.append(np.size(sq))
        return pair_value(sq)

    coupling = dataclasses.replace(sys.coupling, pair_value=counted)
    return pc.SystemInstance(sys.dynamics, sys.utilities, coupling, sys.states), sizes


@pytest.mark.parametrize("N", [30, 200])
def test_one_hessian_row_evaluates_order_n2_d2_pair_values(N):
    # N (N - 1)(1 + 2 d^2) for the agent blocks and 2 N (N - 1) d^2 for the
    # pair blocks: 14,790 at N = 30, where differencing the whole welfare
    # took (1 + 2 (N d)^2) N (N - 1) / 2 = 3.1 million. At N = 200 the row
    # spans several calls, each under 2 MB of pair differences.
    sys, sizes = counted_pair_values(pc.generate(pc.config_from_dict(fleet_config(N))))
    d = sys.d
    H = oracle._hessian(sys, np.random.default_rng(0).normal(size=(1, N * d)))
    assert sum(sizes) <= 8 * N * N * d * d
    assert max(sizes) <= PAIR_BATCH_FLOATS // d
    # one call for the agent blocks and one for the pair blocks while each
    # stays under 2 MB of pair differences
    assert len(sizes) == 2 if N == 30 else len(sizes) > 2
    np.testing.assert_array_equal(H, H.swapaxes(1, 2))


def test_a_smooth_utility_is_valued_only_for_the_agent_a_point_moves():
    cfg = pc.config_from_dict({"N": 4, "d": 2, "seed": 13, "utility_spec": "cross_term"})
    base = pc.generate(cfg)
    calls = np.zeros(base.N, dtype=int)

    def counted(n, ut):
        return pc.SmoothUtility(lambda x, u: (calls.__setitem__(n, calls[n] + 1),
                                              ut.value(x, u))[1])

    sys = pc.SystemInstance(base.dynamics, tuple(counted(n, ut) for n, ut in
                                                 enumerate(base.utilities)),
                            base.coupling, base.states)
    u = np.random.default_rng(0).normal(size=(3, sys.N * sys.d))
    oracle._field(sys, u)
    np.testing.assert_array_equal(calls, 3 * 2 * sys.d)
    calls[:] = 0
    oracle._hessian(sys, u)
    np.testing.assert_array_equal(calls, 3 * (1 + 2 * sys.d ** 2))
