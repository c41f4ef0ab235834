"""Dynamics, utilities, coupling terms, and their gradient consistency."""

import dataclasses
import inspect

import numpy as np
import pytest

import pricecoord as pc
from pricecoord.model import _batches, batch_welfare
from conftest import make_two_agent_scalar, make_utility, random_quadratic_instance, random_spd
from test_row_tables import reference_grad_hess_rows


def test_linear_dynamics_validation():
    with pytest.raises(ValueError):
        pc.LinearDynamics(A=np.ones((2, 3)), B=np.eye(2))
    with pytest.raises(ValueError):
        pc.LinearDynamics(A=np.eye(2), B=np.eye(3))
    dyn = pc.LinearDynamics(A=2 * np.eye(2), B=np.eye(2))
    assert dyn.d == 2


def test_step_matches_affine_map(rng):
    A = rng.normal(size=(3, 3))
    B = rng.normal(size=(3, 3))
    dyn = pc.LinearDynamics(A=A, B=B)
    x, u, w = rng.normal(size=3), rng.normal(size=3), rng.normal(size=3)
    np.testing.assert_allclose(pc.step(dyn, x, u), A @ x + B @ u, atol=1e-14)
    np.testing.assert_allclose(pc.step(dyn, x, u, w), A @ x + B @ u + w, atol=1e-14)


def test_quadratic_utility_requires_spd():
    with pytest.raises(ValueError):
        pc.QuadraticUtility(Q=-np.eye(2), R=np.eye(2), x0=np.zeros(2))
    with pytest.raises(ValueError):
        pc.QuadraticUtility(Q=np.eye(2), R=np.zeros((2, 2)), x0=np.zeros(2))
    with pytest.raises(ValueError):
        pc.QuadraticUtility(Q=np.array([[1.0, 0.5], [0.0, 1.0]]),
                            R=np.eye(2), x0=np.zeros(2))


def test_quadratic_gradient_matches_finite_differences(rng):
    for d in (1, 2, 3):
        dyn = pc.LinearDynamics(A=rng.normal(size=(d, d)), B=rng.normal(size=(d, d)))
        util = pc.QuadraticUtility(Q=random_spd(rng, d), R=random_spd(rng, d),
                                   x0=rng.normal(size=d))
        pts = [(rng.normal(size=d), rng.normal(size=d)) for _ in range(20)]
        assert pc.utility_gradient_error(util, dyn, pts) < 1e-6


def test_smooth_utility_fd_fallback(rng):
    dyn = pc.LinearDynamics(A=np.eye(2), B=np.eye(2))
    util = pc.SmoothUtility(value_fn=lambda x_next, u: -float(np.sum(x_next ** 4) + u @ u))
    x, u = rng.normal(size=2), rng.normal(size=2)
    g = util.grad_u(dyn, x, u)
    expected = -4.0 * (x + u) ** 3 - 2.0 * u
    np.testing.assert_allclose(g, expected, rtol=1e-5, atol=1e-7)


def test_cross_term_gradient_matches_finite_differences(rng):
    d = 2
    dyn = pc.LinearDynamics(A=rng.normal(size=(d, d)), B=rng.normal(size=(d, d)))
    K = [rng.normal(size=(d, d)) for _ in range(d)]
    util = pc.cross_term_utility(random_spd(rng, d), random_spd(rng, d),
                                 rng.normal(size=d), K)
    pts = [(rng.normal(size=d), rng.normal(size=d)) for _ in range(20)]
    assert pc.utility_gradient_error(util, dyn, pts) < 1e-6


def test_decomposable_gradient_matches_finite_differences(rng):
    d = 3
    dyn = pc.LinearDynamics(A=rng.normal(size=(d, d)), B=rng.normal(size=(d, d)))
    util = pc.decomposable_utility(
        value_x=lambda x: -float(x @ x),
        grad_x=lambda x: -2.0 * x,
        value_u=lambda u: -float(np.sum(np.cosh(u) - 1.0)),
        grad_u=lambda u: -np.sinh(u),
    )
    pts = [(0.5 * rng.normal(size=d), 0.5 * rng.normal(size=d)) for _ in range(20)]
    assert pc.utility_gradient_error(util, dyn, pts) < 1e-6


def test_pairwise_coupling_value_and_gradient(rng):
    N, d = 3, 2
    G = pc.pairwise_quadratic_coupling(0.7, N, d)
    X = rng.normal(size=(N, d))
    expected = -0.7 * sum(
        np.sum((X[i] - X[j]) ** 2) for i in range(N) for j in range(i + 1, N))
    assert np.isclose(G.value(X), expected)
    assert pc.coupling_gradient_error(G, [rng.normal(size=(N, d)) for _ in range(10)]) < 1e-6


def test_zero_coupling_is_identically_zero(rng):
    G = pc.zero_coupling(2, 3)
    X = rng.normal(size=(2, 3))
    assert G.value(X) == 0.0
    np.testing.assert_array_equal(G.grad(X)[1], np.zeros(3))


def test_system_instance_shape_validation():
    dyn = pc.LinearDynamics(A=np.eye(1), B=np.eye(1))
    util = pc.QuadraticUtility(Q=np.eye(1), R=np.eye(1), x0=np.zeros(1))
    with pytest.raises(ValueError):
        pc.SystemInstance(dynamics=(dyn,), utilities=(util, util),
                          coupling=pc.zero_coupling(1, 1), states=np.zeros((1, 1)))
    with pytest.raises(ValueError):
        pc.SystemInstance(dynamics=(dyn,), utilities=(util,),
                          coupling=pc.zero_coupling(2, 1), states=np.zeros((1, 1)))
    with pytest.raises(ValueError):
        pc.SystemInstance(dynamics=(dyn,), utilities=(util,),
                          coupling=pc.zero_coupling(1, 1), states=np.zeros((1, 2)))


@pytest.mark.parametrize("call", [
    lambda sys: pc.replace_states(sys, [np.array([np.nan]), np.zeros(1)]),
    lambda sys: pc.social_welfare(sys, [[np.nan], [0.0]]),
    lambda sys: pc.reward_field(sys)(np.array([[np.nan], [0.0]])),
    lambda sys: pc.best_response(pc.GameSpec(utility=sys.utilities[0]), sys.states[0],
                                 sys.dynamics[0], [np.nan]),
    lambda sys: pc.best_response(pc.GameSpec(utility=sys.utilities[0]), sys.states[0],
                                 sys.dynamics[0], [0.0, 0.0]),
    lambda sys: pc.best_response(
        pc.GameSpec(utility=pc.QuadraticUtility(np.eye(2), np.eye(2), np.ones(2)), price=[0.3]),
        np.zeros(2), pc.LinearDynamics(A=np.eye(2), B=np.eye(2)), np.zeros(2)),
    lambda sys: pc.GameSpec(utility=sys.utilities[0], price=[np.nan]),
], ids=["replace_states", "social_welfare", "reward_field", "best_response_nan_start",
        "best_response_short_start", "best_response_short_price", "game_price"])
def test_entry_points_reject_bad_input(call):
    # the inner arithmetic trusts its arrays; these are the checks in front of it
    with pytest.raises(ValueError):
        call(make_two_agent_scalar(0.1))


def test_the_public_names_are_pinned():
    # a name added to or removed from the package shows up here; the
    # submodules stay importable as attributes but are not exported
    assert sorted(pc.__all__) == [
        "BestResponseError", "COUPLING_SPECS", "ConfigError", "ConnectionModel",
        "CoordinationError", "CouplingFunction", "EstimatedQuadraticModel", "GameSpec",
        "KernelFieldModel", "LinearDynamics", "NonConvergenceError", "ObservationLog",
        "OracleResult", "PLAY_MODES", "PollingConfig", "QuadraticUtility",
        "RankDeficiencyError", "ScenarioConfig", "SingleStageUpdate", "SmoothUtility",
        "StageTrace", "SystemInstance", "TrajectorySample", "TwoStageUpdate",
        "UTILITY_SPECS", "WeakCouplingReport", "best_response", "config_from_dict",
        "coupling_gradient_error", "cross_term_utility", "decomposable_utility",
        "default_schedule", "estimate_cocoercivity", "estimated_gradient", "fd_gradient",
        "fit_connection", "fit_decomposable", "generate", "grid_gradient_bound", "identify",
        "joint_action", "joint_next_state", "joint_welfare", "joint_welfare_opt",
        "load_config", "load_log", "message_space_dimension", "noise_streams",
        "optimal_price", "pairwise_quadratic_coupling", "play_sequential",
        "play_simultaneous", "play_tikhonov", "polling_config", "predict_field",
        "price_from_target", "probe_utility_gradient", "replace_states", "reward_field",
        "run_stage", "save_log", "separation_barrier_coupling", "single_stage_update",
        "sliding_connection", "social_welfare", "step", "tracking_error_bound", "transport",
        "two_stage_update", "utility_gradient_error", "vi_project_iterate",
        "weak_coupling_diagnostic", "zero_coupling"]
    namespace = {}
    exec("from pricecoord import *", namespace)
    assert "agents" not in namespace and "model" not in namespace
    assert pc.agents.best_response is pc.best_response


def test_every_public_function_and_class_states_its_contract():
    # each has its own docstring: a dataclass's or NamedTuple's generated
    # signature ("Name(field, ...)") and an inherited one do not count
    def documented(obj):
        doc = vars(obj).get("__doc__") if inspect.isclass(obj) else obj.__doc__
        return bool(doc and doc.strip()) and not doc.startswith(f"{obj.__name__}(")

    public = [getattr(pc, name) for name in pc.__all__]
    assert [obj.__name__ for obj in public if (inspect.isclass(obj) or inspect.isfunction(obj))
            and not documented(obj)] == []


def test_replace_states_is_nonmutating():
    sys = make_two_agent_scalar(0.1)
    u = np.array([[0.25], [-0.5]])
    X_next = pc.joint_next_state(sys, u)
    np.testing.assert_allclose(X_next, u)  # A = B = I at x = 0
    stepped = pc.replace_states(sys, X_next)
    np.testing.assert_allclose(stepped.states, u)
    np.testing.assert_array_equal(sys.states, np.zeros((2, 1)))


def test_joint_action_accepts_flat_and_matrix():
    sys = make_two_agent_scalar(0.1)
    U = pc.joint_action(sys, [0.25, -0.5])
    np.testing.assert_allclose(U, np.array([[0.25], [-0.5]]))
    with pytest.raises(ValueError):
        pc.joint_action(sys, np.zeros(3))


@pytest.mark.parametrize("K", [1, 73])
@pytest.mark.parametrize("N", [1, 3, 7])
@pytest.mark.parametrize("coupling", ["quadratic", "barrier"])
@pytest.mark.parametrize("family", ["quadratic", "cross_term", "decomposable", "smooth", "mixed"])
def test_batch_welfare_matches_a_loop_over_rows(family, coupling, N, K):
    rng = np.random.default_rng(11)
    d = 3
    families = ["quadratic", "cross_term", "decomposable", "smooth"]
    utilities = tuple(make_utility(families[n % 4] if family == "mixed" else family, rng, d)
                      for n in range(N))
    dynamics = tuple(pc.LinearDynamics(A=np.eye(d) + 0.3 * rng.normal(size=(d, d)),
                                       B=np.eye(d) + 0.3 * rng.normal(size=(d, d)))
                     for _ in range(N))
    G = (pc.pairwise_quadratic_coupling(0.3, N, d) if coupling == "quadratic"
         else pc.separation_barrier_coupling(3.0, 2.5, N, d))
    sys = pc.SystemInstance(dynamics=dynamics, utilities=utilities, coupling=G,
                            states=rng.normal(size=(N, d)))
    U = rng.normal(size=(K, N, d))
    expected = []
    for k in range(K):
        X = np.stack([pc.step(sys.dynamics[n], sys.states[n], U[k, n]) for n in range(N)])
        np.testing.assert_array_equal(pc.joint_next_state(sys, U[k]), X)
        total = 0.0
        for n in range(N):
            total += sys.utilities[n].value(X[n], U[k, n])
        expected.append(total + G.value(X))
    W = batch_welfare(sys, U)
    assert W.shape == (K,)
    np.testing.assert_array_equal(W, expected)
    assert pc.social_welfare(sys, U[0]) == pc.joint_welfare(sys, U[0]) == expected[0]


def test_batch_welfare_caps_the_pair_rows_per_piece(rng):
    # N = 30, d = 2: pieces of 2^18 / (N^2 d) = 145 joint actions, recorded
    # where the pair terms see them
    base = random_quadratic_instance(rng, N=30, d=2, coupling=0.3)
    sizes = []

    def recorded(sq):
        sizes.append(len(sq))
        return base.coupling.pair_value(sq)

    sys = pc.SystemInstance(base.dynamics, base.utilities,
                            dataclasses.replace(base.coupling, pair_value=recorded), base.states)
    cap = 2 ** 18 // (30 * 30 * 2)
    P = rng.normal(size=(2 * cap + 7, 60))
    w = batch_welfare(sys, P)
    assert sizes == [cap, cap, 7]
    np.testing.assert_array_equal(w, [batch_welfare(base, p[None])[0] for p in P])


@pytest.mark.parametrize("N", [1, 2, 30, 300])
@pytest.mark.parametrize("d", [1, 3])
def test_batches_cover_the_units_in_order_each_once(N, d):
    # batch_welfare's N^2 pairs per joint action and the oracle's N - 1 per
    # agent unit, which is none at N = 1
    sys = pc.SystemInstance([pc.LinearDynamics(np.eye(d), np.eye(d))] * N,
                            [pc.QuadraticUtility(np.eye(d), np.eye(d), np.zeros(d))] * N,
                            pc.zero_coupling(N, d), np.zeros((N, d)))
    for pairs in (N * N, N - 1):
        step = max(1, 2 ** 18 // (d * max(pairs, 1)))
        for units in (0, 1, step, step + 1):
            slices = _batches(sys, units, pairs)
            assert [k for s in slices for k in range(units)[s]] == list(range(units))
            assert all(0 < s.stop - s.start <= step for s in slices)


def test_zero_scale_coupling_never_evaluates_its_pair_terms(rng):
    def unreachable(sq):
        raise AssertionError("pair term evaluated")

    G = pc.CouplingFunction(3, 2, 0.0, unreachable, unreachable)
    X = rng.normal(size=(3, 2))
    others = G._others[np.array([1, 2])]
    for out, shape in ((G.value(X), ()), (G.grad(X), (3, 2)),
                       (G.grad(rng.normal(size=(4, 3, 2))), (4, 3, 2)),
                       (G._grad_hess_rows(X[1:], X, others, hessian=False), (2, 2)),
                       *zip(G._grad_hess_rows(X[1:], X, others), ((2, 2), (2, 2, 2))),
                       (G.values(rng.normal(size=(5, 3, 2))), (5,))):
        assert np.shape(out) == shape
        assert np.all(out == 0.0) and not np.any(np.signbit(out))


def _couplings(N, d):
    return {"zero": pc.zero_coupling(N, d),
            "quadratic": pc.pairwise_quadratic_coupling(0.7, N, d),
            "barrier": pc.separation_barrier_coupling(50.0, 6.0, N, d)}


@pytest.mark.parametrize("kind", ["zero", "quadratic", "barrier"])
def test_hess_row_matches_fd_of_grad_row(kind):
    rng = np.random.default_rng(5)
    for N in range(1, 13):
        for d in range(1, 5):
            G = _couplings(N, d)[kind]
            X = 3.0 * rng.normal(size=(N, d))
            if N > 2:
                X[2] = X[1]  # a coincident pair that is not the self pair
            H = G._grad_hess_rows(X, X, G._others[np.arange(N)])[1]
            assert H.shape == (N, d, d)
            for n in range(N):
                def row(v, others=G._others[np.array([n])]):
                    return G._grad_hess_rows(v[None], X, others, hessian=False)[0]

                fd = pc.numerics.fd_jacobian(row, X[n])
                np.testing.assert_allclose(H[n], fd, rtol=1e-6,
                                           atol=1e-6 * max(1.0, float(np.max(np.abs(fd)))))


@pytest.mark.parametrize("rows", ["all", "subset", "one"])
@pytest.mark.parametrize("N", [2, 3, 10, 30])
@pytest.mark.parametrize("kind", ["zero", "quadratic", "barrier"])
def test_one_pair_pass_gives_grad_rows_and_hess_rows_bit_for_bit(kind, N, rows):
    # N = 30 sums 29 pair weights per Hessian row, where np.sum reassociates
    rng = np.random.default_rng(N)
    d = 2
    G = _couplings(N, d)[kind]
    X = 3.0 * rng.normal(size=(N, d))
    X[1] = X[0]  # a coincident pair that is not the self pair
    idx = {"all": np.arange(N), "subset": np.array([N - 1, 0, N // 2][:max(2, N - 1)]),
           "one": np.array([N // 2])}[rows]
    Y = X[idx] + 0.5 * rng.normal(size=(len(idx), d))
    others = G._others[idx]
    g_ref, H_ref = reference_grad_hess_rows(G, Y, X, idx)
    g, H = G._grad_hess_rows(Y, X, others)
    assert np.array_equal(g, g_ref) and np.array_equal(H, H_ref)
    assert np.array_equal(G._grad_hess_rows(Y, X, others, hessian=False), g_ref)
    assert np.array_equal(G.grad(X), reference_grad_hess_rows(G, X, X, np.arange(N))[0])
    if kind != "zero":
        assert np.any(g != 0.0) and np.any(H != 0.0)


def test_a_pair_weight_infinite_at_zero_separation_never_sees_a_self_pair():
    # pair_value(s) = 1/s has w and w' infinite at s = 0, where a self pair
    # would put them: its w(0) * (0 - 0) = inf * 0 would be NaN in every
    # gradient row
    scale, seen = 0.5, []

    def pair_terms(s):
        seen.append(np.array(s))
        return 2.0 * scale * (-1.0 / s**2), 2.0 * scale * (2.0 / s**3)

    G = pc.CouplingFunction(3, 2, scale, lambda s: 1.0 / s, pair_terms)
    X = np.array([[0.0, 0.0], [1.5, 0.0], [0.3, 2.0]])
    others = G._others[np.array([2, 0])]
    g, H = G._grad_hess_rows(X[[2, 0]], X, others)
    for out in (G.grad(X), g, H, G._grad_hess_rows(X[[2, 0]], X, others, hessian=False)):
        assert np.all(np.isfinite(out))
    assert pc.coupling_gradient_error(G, [X]) < 1e-6
    assert seen and all(np.all(s > 0.0) for s in seen)


def test_hess_row_of_well_separated_barrier_agents_is_zero():
    # the self pair has D = 0 but its pair weight w(0) = 4 beta softplus(r^2) sigma(r^2)
    # = 7,200 here, so a Hessian that kept it would read 7,200 I
    G = pc.separation_barrier_coupling(50.0, 6.0, 4, 2)
    X = 30.0 * np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    assert G.pair_terms(np.zeros(1))[0][0] == pytest.approx(7200.0)
    assert np.max(np.abs(G._grad_hess_rows(X, X, G._others[np.arange(4)])[1])) < 1e-12


@pytest.mark.parametrize("kind", ["zero", "quadratic", "barrier"])
def test_pair_curvature_is_the_derivative_of_pair_weight(kind):
    G = _couplings(3, 2)[kind]
    s = np.linspace(0.0, 100.0, 201)
    h = 1e-6 * np.maximum(1.0, s)
    fd = (G.pair_terms(s + h)[0] - G.pair_terms(s - h)[0]) / (2.0 * h)
    np.testing.assert_allclose(G.pair_terms(s)[1], fd, rtol=1e-6,
                               atol=1e-6 * max(1.0, float(np.max(np.abs(fd)))))


def test_a_coupling_declared_by_its_five_fields_differentiates_its_pair_value():
    # a pair function no scenario uses: pair_value(s) = s^2, so the pair
    # weight is w = 2 scale pair_value' = 4 scale s and w' = 4 scale
    N, d, scale = 4, 3, -0.3
    G = pc.CouplingFunction(N, d, scale, lambda s: s * s,
                            lambda s: (4.0 * scale * s, np.full_like(s, 4.0 * scale)))
    rng = np.random.default_rng(11)
    Xs = rng.normal(size=(6, N, d))
    assert pc.coupling_gradient_error(G, Xs) < 1e-7
    for X in Xs:
        H = G._grad_hess_rows(X, X, G._others[np.arange(N)])[1]
        for n in range(N):
            def row(v, others=G._others[np.array([n])]):
                return G._grad_hess_rows(v[None], X, others, hessian=False)[0]

            fd = pc.numerics.fd_jacobian(row, X[n])
            np.testing.assert_allclose(H[n], fd, rtol=1e-6,
                                       atol=1e-6 * max(1.0, float(np.max(np.abs(fd)))))
    batch = G.grad(Xs)
    assert batch.shape == (6, N, d)
    for X, g in zip(Xs, batch):
        assert np.array_equal(g, G.grad(X))
