"""Synthetic vehicle-coordination instances and their JSON configs."""

import json

import numpy as np
import pytest

import pricecoord as pc


def base_config(**over):
    kw = dict(N=3, d=2, seed=42)
    kw.update(over)
    return pc.ScenarioConfig(**kw)


# ------------------------------------------------------------------ configs

def test_config_validation():
    with pytest.raises(pc.ConfigError):
        base_config(N=0)
    with pytest.raises(pc.ConfigError):
        base_config(horizon=0)
    with pytest.raises(pc.ConfigError):
        base_config(coupling_strength=-1.0)
    with pytest.raises(pc.ConfigError):
        base_config(safety_radius=0.0)
    with pytest.raises(pc.ConfigError):
        base_config(noise_std=-0.1)
    with pytest.raises(pc.ConfigError):
        base_config(box=(2.0, -2.0))
    with pytest.raises(pc.ConfigError):
        base_config(utility_spec="cubic")
    with pytest.raises(pc.ConfigError):
        base_config(coupling_spec="gravity")
    with pytest.raises(pc.ConfigError):
        base_config(mode={"mode": "parallel"})
    with pytest.raises(pc.ConfigError):
        base_config(mode={"step": 0.5})  # unknown mode key
    for key, value in (("osc_window", 10), ("osc_cos", -0.99), ("osc_decay", 0.8),
                       ("detect_oscillation", True), ("seed", 0)):
        with pytest.raises(pc.ConfigError, match=key):  # removed: the oscillation rule is fixed
            base_config(mode={key: value})
    with pytest.raises(pc.ConfigError, match="tau"):  # removed: gamma is the only step key
        base_config(mode={"tau": 0.5})


def test_a_barrier_whose_pair_value_overflows_is_refused():
    # beta softplus(r^2)^2, the pair value at zero separation, overflows from
    # r ~ 1.2e77 at beta = 1
    for strength, radius in ((1.0, 1e154), (1.0, 1.2e77), (1.0, 1e200), (1e300, 1e5)):
        with pytest.raises(pc.ConfigError, match="coupling_strength.*safety_radius"):
            base_config(coupling_strength=strength, safety_radius=radius)
    base_config(coupling_strength=1.0, safety_radius=1e77)
    base_config(coupling_strength=0.0, safety_radius=1e154)  # no coupling
    base_config(coupling_spec="consensus_quadratic", safety_radius=1e154)  # no radius


def test_config_dict_round_trip():
    cfg = base_config(horizon=4, noise_std=0.05,
                      mode={"mode": "tikhonov", "lam": 20.0})
    back = pc.config_from_dict(cfg.to_dict())
    assert back == cfg


def test_config_from_dict_strictness():
    with pytest.raises(pc.ConfigError, match="N"):
        pc.config_from_dict({"d": 2, "seed": 1})
    with pytest.raises(pc.ConfigError, match="wind"):
        pc.config_from_dict({"N": 2, "d": 2, "seed": 1, "wind": 3.0})
    with pytest.raises(pc.ConfigError, match=r"^config must be a JSON object, got \[2, 2, 1\]$"):
        pc.config_from_dict([2, 2, 1])


def test_config_json_round_trip(tmp_path):
    cfg = base_config(mode={"mode": "sequential", "max_rounds": 50})
    path = tmp_path / "cfg.json"
    with open(path, "w") as fh:
        json.dump(cfg.to_dict(), fh)
    assert pc.load_config(path) == cfg
    data = json.loads(path.read_text())
    assert data["N"] == 3 and data["utility_spec"] == "quadratic_random"


def test_malformed_json_reports_position(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"N": 2, "d": 2\n "seed": 1}')
    with pytest.raises(pc.ConfigError, match="line"):
        pc.load_config(path)


def test_a_config_byte_that_is_not_utf8_is_refused_naming_the_file(tmp_path):
    path = tmp_path / "c.json"
    path.write_bytes(b'{"N": 2, "d": 1, "seed": 1, "utility_spec": "quadratic\xff"}')
    with pytest.raises(pc.ConfigError, match="c.json: unknown utility_spec 'quadratic\ufffd'"):
        pc.load_config(path)


def test_polling_config_mapping():
    cfg = base_config(mode={"mode": "two_stage", "tol": 1e-6, "max_rounds": 99,
                            "lam": 30.0, "gamma": 0.25})
    pcfg = pc.polling_config(cfg)
    assert pcfg.mode == "two_stage"
    assert pcfg.tol == 1e-6 and pcfg.max_rounds == 99
    assert pcfg.lam == 30.0 and pcfg.gamma == 0.25
    assert pcfg.box == (-20.0, 20.0)
    override = pc.polling_config(cfg, mode_override="sequential")
    assert override.mode == "sequential"


# ----------------------------------------------------------------- coupling

def test_barrier_gradient_matches_finite_differences():
    # pairwise term checked by FD at N = 2, where value and gradient vanish
    # together in the softplus tail and central differences stay resolvable
    rng = np.random.default_rng(3)
    G = pc.separation_barrier_coupling(beta=5.0, radius=2.0, N=2, d=2)
    pts = [rng.normal(scale=2.0, size=(2, 2)) for _ in range(100)]
    assert pc.coupling_gradient_error(G, pts) < 1e-6


def test_barrier_gradient_is_pairwise_additive():
    # multi-vehicle gradient equals the sum of two-vehicle contributions,
    # an exact identity free of finite-difference cancellation
    rng = np.random.default_rng(4)
    N, d = 4, 3
    G = pc.separation_barrier_coupling(beta=7.0, radius=2.0, N=N, d=d)
    pair = pc.separation_barrier_coupling(beta=7.0, radius=2.0, N=2, d=d)
    for _ in range(25):
        X = rng.normal(scale=1.5, size=(N, d))
        for n in range(N):
            expected = np.zeros(d)
            for m in range(N):
                if m != n:
                    expected += pair.grad(np.array([X[n], X[m]]))[0]
            np.testing.assert_allclose(G.grad(X)[n], expected, rtol=1e-12, atol=1e-15)


def _pair_loop_coupling(kind, X, strength, radius):
    """Value and (N, d) gradient of a coupling by an explicit loop over pairs."""
    N, d = X.shape
    value, grad = 0.0, np.zeros((N, d))
    for n in range(N):
        for m in range(N):
            if m == n:
                continue
            diff = X[n] - X[m]
            if kind == "barrier":
                s = radius ** 2 - diff @ diff
                softplus, sigmoid = np.logaddexp(0.0, s), 0.5 * (1.0 + np.tanh(0.5 * s))
                term, slope = softplus ** 2, 4.0 * strength * softplus * sigmoid * diff
            else:
                term, slope = diff @ diff, -2.0 * strength * diff
            if n < m:
                value += term
            grad[n] += slope
    return -strength * value, grad


# a single vehicle gets the barrier's zero coupling (see the test below)
@pytest.mark.parametrize("kind, case", [("barrier", "random"), ("barrier", "coincident"),
                                        ("quadratic", "random"), ("quadratic", "coincident"),
                                        ("quadratic", "single")])
def test_vectorized_couplings_match_a_loop_over_pairs(kind, case):
    rng = np.random.default_rng(5)
    N, d, strength, radius = (1 if case == "single" else 5), 3, 7.0, 2.0
    G = (pc.separation_barrier_coupling(strength, radius, N, d) if kind == "barrier"
         else pc.pairwise_quadratic_coupling(strength, N, d))
    for _ in range(10):
        X = rng.normal(scale=1.5, size=(N, d))
        if case == "coincident":
            X[3] = X[1]
        value, grad = _pair_loop_coupling(kind, X, strength, radius)
        assert G.grad(X).shape == (N, d)
        assert np.all(np.isfinite(G.grad(X)))
        np.testing.assert_allclose(G.value(X), value, rtol=1e-12)
        np.testing.assert_allclose(G.grad(X), grad, rtol=1e-12, atol=1e-12)
        for n in range(N):
            row = G._grad_hess_rows(X[n][None], X, G._others[np.array([n])], hessian=False)
            assert np.array_equal(row[0], G.grad(X)[n])


def test_barrier_penalizes_proximity_only():
    G = pc.separation_barrier_coupling(beta=1.0, radius=1.0, N=2, d=2)
    near = np.array([[0.0, 0.0], [0.1, 0.0]])
    far = np.array([[0.0, 0.0], [10.0, 0.0]])
    assert G.value(near) < G.value(far) < 0.0
    # softplus tail: separated pairs contribute essentially nothing
    assert abs(G.value(far)) < 1e-12


def test_zero_strength_or_single_vehicle_drops_coupling():
    X = np.zeros((1, 2))
    G = pc.separation_barrier_coupling(beta=0.0, radius=1.0, N=2, d=2)
    assert G.value(np.zeros((2, 2))) == 0.0
    G1 = pc.separation_barrier_coupling(beta=5.0, radius=1.0, N=1, d=2)
    assert G1.value(X) == 0.0


# ----------------------------------------------------------------- generate

def test_generate_is_deterministic():
    cfg = base_config()
    a = pc.generate(cfg)
    b = pc.generate(cfg)
    assert a.N == 3 and a.d == 2
    for n in range(3):
        np.testing.assert_array_equal(a.dynamics[n].A, b.dynamics[n].A)
        np.testing.assert_array_equal(a.utilities[n].Q, b.utilities[n].Q)
        np.testing.assert_array_equal(a.utilities[n].x0, b.utilities[n].x0)
    np.testing.assert_array_equal(a.states, b.states)


def test_generate_seed_changes_instance():
    a = pc.generate(base_config(seed=1))
    b = pc.generate(base_config(seed=2))
    assert not np.array_equal(a.states, b.states)


def test_generated_instance_is_well_posed():
    sys = pc.generate(base_config(utility_spec="quadratic_random"))
    for n in range(sys.N):
        eigs_Q = np.linalg.eigvalsh(sys.utilities[n].Q)
        eigs_R = np.linalg.eigvalsh(sys.utilities[n].R)
        assert np.all(eigs_Q >= 0.5 - 1e-9) and np.all(eigs_Q <= 2.0 + 1e-9)
        assert np.all(eigs_R >= 0.5 - 1e-9) and np.all(eigs_R <= 2.0 + 1e-9)
        # stable drift: A stays near 0.95 I
        assert np.linalg.norm(sys.dynamics[n].A - 0.95 * np.eye(2), 2) <= 0.04 + 1e-9
        np.testing.assert_allclose(sys.dynamics[n].B, 0.1 * np.eye(2))


def test_generated_utility_specs_are_consistent():
    rng = np.random.default_rng(0)
    for spec in pc.UTILITY_SPECS:
        sys = pc.generate(base_config(utility_spec=spec, coupling_spec="consensus_quadratic",
                                      coupling_strength=0.1))
        pts = [(rng.normal(size=2), rng.normal(size=2)) for _ in range(20)]
        for n in range(sys.N):
            assert pc.utility_gradient_error(sys.utilities[n], sys.dynamics[n], pts) < 1e-6


def test_waypoints_spread_on_a_circle():
    sys = pc.generate(base_config(N=4, utility_spec="quadratic_fixed"))
    targets = np.array([u.x0 for u in sys.utilities])
    radii = np.linalg.norm(targets, axis=1)
    np.testing.assert_allclose(radii, 10.0, atol=1e-9)
    assert len({tuple(np.round(t, 6)) for t in targets}) == 4


def test_noise_streams_are_reproducible_and_distinct():
    cfg = base_config(noise_std=0.1)
    streams_a = pc.noise_streams(cfg)
    streams_b = pc.noise_streams(cfg)
    draws_a = [s.normal(size=4) for s in streams_a]
    draws_b = [s.normal(size=4) for s in streams_b]
    assert len(draws_a) == cfg.N
    for da, db in zip(draws_a, draws_b):
        np.testing.assert_array_equal(da, db)
    assert not np.array_equal(draws_a[0], draws_a[1])
    # noise draws do not recycle the generation streams
    inst = pc.generate(cfg)
    assert not np.array_equal(draws_a[0][:2], inst.states[0])
