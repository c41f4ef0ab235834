"""Coordinator loop: welfare, prices, diagnostics, stage runs, detectors."""

import dataclasses

import numpy as np
import pytest

import pricecoord as pc
from conftest import make_two_agent_scalar, scalar_nash


def make_cycling_instance():
    """Two agents targeting +1 each with a convex disagreement reward
    +0.5 (u_1 - u_2)^2. Each payoff stays concave (-2 + 1 < 0) but the best
    responses u_1 = 2 - u_2, u_2 = 2 - u_1 cycle exactly with period two
    from any start off the diagonal fixed line."""
    dyn = pc.LinearDynamics(A=np.eye(1), B=np.eye(1))
    utils = tuple(
        pc.SmoothUtility(
            value_fn=lambda x_next, u: -float((u[0] - 1.0) ** 2),
            gradient_u=lambda x_next, u, dyn: np.array([-2.0 * (u[0] - 1.0)]))
        for _ in range(2))
    G = pc.pairwise_quadratic_coupling(-0.5, 2, 1)
    return pc.SystemInstance(dynamics=(dyn, dyn), utilities=utils, coupling=G,
                             states=np.zeros((2, 1)))


# ------------------------------------------------------------ small helpers

def test_social_welfare_agrees_with_oracle_helper(rng):
    sys = make_two_agent_scalar(0.1)
    for _ in range(5):
        u = rng.normal(size=(2, 1))
        assert np.isclose(pc.social_welfare(sys, u), pc.joint_welfare(sys, u))


def test_price_from_target_round_trip():
    # posting p_n = grad U_n(u*) makes u* each agent's best response
    sys = make_two_agent_scalar(0.1)
    target = scalar_nash(0.1)
    prices = pc.price_from_target(sys, target)
    np.testing.assert_allclose(prices, [[1.0 / 3.0], [-1.0 / 3.0]], atol=1e-12)
    for n in range(2):
        game = pc.GameSpec(utility=sys.utilities[n], price=prices[n])
        u = pc.best_response(game, sys.states[n], sys.dynamics[n], np.zeros(1))
        np.testing.assert_allclose(u, target[n], atol=1e-9)


def test_message_space_dimension():
    assert pc.message_space_dimension(4, 3) == 2 * 4 * 9
    assert pc.message_space_dimension(1, 1) == 2
    with pytest.raises(ValueError):
        pc.message_space_dimension(0, 3)
    with pytest.raises(ValueError):
        pc.message_space_dimension(2, -1)


def test_weak_coupling_diagnostic_splits_regimes():
    weak = pc.weak_coupling_diagnostic(make_two_agent_scalar(0.1))
    assert weak.passes
    assert np.isclose(weak.ratio, 0.2 / 2.2, atol=1e-3)
    strong = pc.weak_coupling_diagnostic(make_two_agent_scalar(10.0))
    assert not strong.passes
    assert strong.ratio > 0.5


def test_polling_config_validation():
    with pytest.raises(pc.ConfigError):
        pc.PollingConfig(mode="gradient_descent")
    with pytest.raises(pc.ConfigError):
        pc.PollingConfig(tol=0.0)
    for bad in (dict(tol=float("nan")), dict(tol=float("inf")), dict(max_rounds=2.5),
                dict(max_rounds=True), dict(max_rounds=0)):
        with pytest.raises(pc.ConfigError):
            pc.PollingConfig(**bad)
    for name, values in (("tol", (0, -1, float("inf"), float("nan"), True, "1e-8", None)),
                         ("lam", (0, -1, float("inf"), float("nan"), True)),
                         ("gamma", (0, -1, float("inf"), float("nan")))):
        for value in values:
            with pytest.raises(pc.ConfigError, match=name):
                pc.PollingConfig(**{name: value})
    assert pc.PollingConfig(gamma=None).gamma is None
    assert pc.PollingConfig(box=[-1, 2]).box == (-1.0, 2.0)


@pytest.mark.parametrize("box", [(2.0, -2.0), ("a", "b"), (float("nan"), 1.0), (0.0,),
                                 (0, 10 ** 400), (2 ** 60, 2 ** 60 + 1), 5],
                         ids=["reversed", "text", "nan", "one_value", "past_the_float_range",
                              "equal_as_floats", "not_a_pair"])
def test_polling_config_rejects_a_bad_box(box):
    with pytest.raises(pc.ConfigError, match="'box'"):
        pc.PollingConfig(mode="two_stage", box=box)


# ---------------------------------------------------------------- run_stage

def test_simultaneous_stage_converges_with_monotone_welfare():
    sys = make_two_agent_scalar(0.1)
    trace = pc.run_stage(sys, np.zeros((2, 1)), pc.PollingConfig(mode="simultaneous"))
    assert trace.converged
    assert trace.iterations == 9
    np.testing.assert_allclose(trace.u_final, scalar_nash(0.1), atol=1e-7)
    welfare = trace.welfare
    assert all(b >= a - 1e-9 for a, b in zip(welfare, welfare[1:]))
    assert np.isclose(welfare[-1], -1.0 / 3.0, atol=1e-8)


def test_stage_welfare_is_the_social_welfare_of_each_round_on_every_exit():
    sys = make_two_agent_scalar(0.1)
    done = pc.run_stage(sys, np.zeros((2, 1)), pc.PollingConfig(mode="simultaneous"))
    with pytest.raises(pc.NonConvergenceError) as exc:
        pc.run_stage(sys, np.zeros((2, 1)), pc.PollingConfig(mode="simultaneous", max_rounds=3))
    for trace in (done, exc.value.trace):
        assert trace.welfare.shape == (trace.iterations,)
        assert trace.welfare.tolist() == [pc.social_welfare(sys, u) for u in trace.actions]
    idle = pc.run_stage(sys, scalar_nash(0.1), pc.PollingConfig(mode="simultaneous"))
    assert idle.welfare.shape == (0,)


def test_sequential_stage_counts_full_sweeps():
    sys = make_two_agent_scalar(0.1)
    trace = pc.run_stage(sys, np.zeros((2, 1)), pc.PollingConfig(mode="sequential"))
    assert trace.converged
    assert trace.iterations == 6  # sweeps, not per-agent updates
    np.testing.assert_allclose(trace.u_final, scalar_nash(0.1), atol=1e-7)


def test_stage_returns_immediately_at_equilibrium():
    sys = make_two_agent_scalar(0.1)
    trace = pc.run_stage(sys, scalar_nash(0.1), pc.PollingConfig(mode="simultaneous"))
    assert trace.converged and trace.iterations == 0


def test_strong_coupling_simultaneous_flags_alternation():
    sys = make_two_agent_scalar(10.0)
    with pytest.raises(pc.NonConvergenceError) as exc:
        pc.run_stage(sys, np.zeros((2, 1)), pc.PollingConfig(mode="simultaneous"))
    assert exc.value.reason == "oscillation"
    assert exc.value.trace.iterations == 11
    # the recorded tail hops back and forth around the equilibrium:
    # successive increments oppose each other coordinate-wise
    tail = exc.value.trace.actions[-4:]
    steps = np.diff(tail[:, :, 0], axis=0)
    assert np.all(steps[:-1] * steps[1:] < 0)


@pytest.mark.parametrize("degrees, alternates", [(135.0, False), (175.0, True)])
def test_alternation_is_a_near_reversal_of_the_previous_increment(degrees, alternates):
    # at ratio 0.9, an increment at cos -0.71 to the previous one is damped
    # overshoot; at cos -0.996 it reverses it
    prev = np.array([[1.0], [0.0]])
    angle = np.deg2rad(degrees)
    delta = 0.9 * np.array([[np.cos(angle)], [np.sin(angle)]])
    assert pc.mechanism._alternates(delta, prev) == alternates


def test_strong_coupling_sequential_still_converges():
    sys = make_two_agent_scalar(10.0)
    trace = pc.run_stage(sys, np.zeros((2, 1)),
                         pc.PollingConfig(mode="sequential", max_rounds=200))
    assert trace.converged
    assert trace.iterations == 77
    np.testing.assert_allclose(trace.u_final, scalar_nash(10.0), atol=1e-7)


def test_strong_coupling_tikhonov_converges():
    # lam = 20 equals twice the coupling slope, annihilating the alternating
    # mode of this antisymmetric instance in a couple of rounds
    sys = make_two_agent_scalar(10.0)
    cfg = pc.PollingConfig(mode="tikhonov", lam=20.0)
    trace = pc.run_stage(sys, np.zeros((2, 1)), cfg)
    assert trace.converged
    assert trace.iterations <= 5
    np.testing.assert_allclose(trace.u_final, scalar_nash(10.0), atol=1e-7)


def test_exact_period_two_cycle_detected_early():
    sys = make_cycling_instance()
    with pytest.raises(pc.NonConvergenceError) as exc:
        pc.run_stage(sys, np.zeros((2, 1)), pc.PollingConfig(mode="simultaneous"))
    assert exc.value.reason == "oscillation"
    assert exc.value.trace.iterations <= 4
    # cycle visits (2,2) and (0,0)
    last = np.asarray(exc.value.last)
    assert np.allclose(np.abs(last), np.abs(last[0]), atol=1e-8)


def test_two_stage_converges_with_default_schedule():
    sys = make_two_agent_scalar(0.1)
    cfg = pc.PollingConfig(mode="two_stage", box=(-2.0, 2.0), max_rounds=500)
    trace = pc.run_stage(sys, np.zeros((2, 1)), cfg)
    assert trace.converged
    assert trace.iterations == 69
    np.testing.assert_allclose(trace.u_final, scalar_nash(0.1), atol=1e-6)


def test_single_stage_converges_slower_than_two_stage():
    sys = make_two_agent_scalar(0.1)
    cfg = pc.PollingConfig(mode="single_stage", box=(-2.0, 2.0), max_rounds=2000)
    trace = pc.run_stage(sys, np.zeros((2, 1)), cfg)
    assert trace.converged
    assert trace.iterations > 69
    np.testing.assert_allclose(trace.u_final, scalar_nash(0.1), atol=1e-6)


def test_two_stage_requires_schedule_or_box():
    sys = make_two_agent_scalar(0.1)
    cfg = pc.PollingConfig(mode="two_stage")
    with pytest.raises((pc.ConfigError, ValueError)):
        pc.run_stage(sys, np.zeros((2, 1)), cfg)


def test_stage_trace_rows_and_fields():
    sys = make_two_agent_scalar(0.1)
    trace = pc.run_stage(sys, np.zeros((2, 1)), pc.PollingConfig(mode="simultaneous"))
    assert trace.iterations > 0
    for series in (trace.actions, trace.welfare, trace.residual, trace.delta):
        assert len(series) == trace.iterations
    # residual and delta series are recorded and end below tolerance
    assert trace.residual[-1] <= 10 * 1e-8
    assert trace.delta[-1] <= 1e-8


_README = {"N": 3, "d": 2, "seed": 13, "coupling_strength": 50.0, "safety_radius": 6.0,
           "noise_std": 0.01}


def _readme_stage(stage):
    """(instance, warm start) of the README run's stage, stepped as simulate
    steps it: each earlier stage run to convergence in simultaneous play,
    its action applied with the seeded noise."""
    cfg = pc.config_from_dict(_README)
    pcfg, inst, noise = pc.polling_config(cfg), pc.generate(cfg), pc.noise_streams(cfg)
    u = np.zeros((cfg.N, cfg.d))
    for _ in range(stage):
        u = pc.run_stage(inst, u, pcfg).u_final
        inst = pc.replace_states(inst, pc.joint_next_state(inst, u) + cfg.noise_std * np.array(
            [g.normal(size=cfg.d) for g in noise]))
    return inst, u


@pytest.mark.parametrize("mode, stage, max_rounds", [
    pytest.param("simultaneous", 0, 30, id="simultaneous"),
    pytest.param("tikhonov", 0, 30, id="tikhonov"),
    pytest.param("two_stage", 0, 30, id="two_stage"),
    # 60 rounds to convergence, in which Newton rows stop at different iterations
    pytest.param("simultaneous", 16, 500, id="readme_stage_16"),
])
def test_a_round_starts_from_the_residual_it_was_tested_with(mode, stage, max_rounds,
                                                               monkeypatch):
    # README config: the residual at U and the next round's first Newton
    # point are one _payoff_derivatives evaluation, and reward_field is not
    # evaluated at all
    sys, u0 = _readme_stage(stage)
    pcfg = dataclasses.replace(pc.polling_config(pc.config_from_dict(_README), mode),
                               max_rounds=max_rounds)
    pc.mechanism.stage_step(sys, pcfg)  # two_stage's default step, estimated once
    counts = {"field": 0, "derivatives": 0, "newton": 0, "started": 0, "subsets": 0}
    real_field, real_derivatives = pc.mechanism.reward_field, pc.equilibrium._payoff_derivatives
    real_newton = pc.equilibrium.newton_root

    def reward_field(sys_):
        F = real_field(sys_)

        def counted(u):
            counts["field"] += 1
            return F(u)
        return counted

    def derivatives(*args):
        counts["derivatives"] += 1
        return real_derivatives(*args)

    def newton_root(F, x0, **kwargs):
        def counted(X, rows):
            counts["newton"] += 1
            counts["subsets"] += len(rows) < len(x0)
            return F(X, rows)
        counts["started"] += kwargs["start"] is not None
        return real_newton(counted, x0, **kwargs)

    monkeypatch.setattr(pc.mechanism, "reward_field", reward_field)
    monkeypatch.setattr(pc.mechanism, "_payoff_derivatives", derivatives)
    monkeypatch.setattr(pc.equilibrium, "_payoff_derivatives", derivatives)
    monkeypatch.setattr(pc.equilibrium, "newton_root", newton_root)
    try:
        trace = pc.run_stage(sys, u0, pcfg)
    except pc.NonConvergenceError as exc:
        trace = exc.trace
    rounds = trace.iterations
    assert rounds > 1
    if stage:
        assert trace.converged and rounds == 60 and counts["subsets"] > 0
    assert counts["field"] == 0 and counts["started"] == rounds
    # one evaluation per Newton point: each round's start (the residual before
    # it) and the points newton_root asks for, plus the residual after the last
    assert counts["derivatives"] == rounds + 1 + counts["newton"]
    # the residual is the reward field's, bit for bit
    F = pc.reward_field(sys)
    assert trace.residual.tolist() == [float(np.max(np.abs(F(u)))) for u in trace.actions]


@pytest.mark.parametrize("mode", ["simultaneous", "tikhonov", "two_stage"])
def test_a_round_steps_the_fleet_at_its_start_once(mode, monkeypatch):
    # README config, stage 0: the residual's X(U) is the round's frozen next
    # state, so each residual steps the fleet once and no round steps it again;
    # run_stage steps it with _fleet_step, a round function with joint_next_state
    cfg = pc.config_from_dict(_README)
    sys = pc.generate(cfg)
    pcfg = dataclasses.replace(pc.polling_config(cfg, mode), max_rounds=30)
    pc.mechanism.stage_step(sys, pcfg)  # two_stage's default step, estimated once
    calls = []

    def counted(real):
        def fleet_step(*args):
            calls.append(1)
            return real(*args)
        return fleet_step

    monkeypatch.setattr(pc.mechanism, "_fleet_step", counted(pc.model._fleet_step))
    monkeypatch.setattr(pc.equilibrium, "joint_next_state", counted(pc.model.joint_next_state))
    try:
        trace = pc.run_stage(sys, np.zeros((3, 2)), pcfg)
    except pc.NonConvergenceError as exc:
        trace = exc.trace
    assert trace.iterations > 1
    assert len(calls) == trace.iterations + 1


@pytest.mark.parametrize("mode", pc.mechanism.PLAY_MODES)
def test_every_residual_is_one_derivative_pass_and_never_reward_field(mode, monkeypatch):
    # README config, stage 0: whatever the mode, the stage reads each residual
    # off the payoff derivatives at X(U) (or single_stage's handed-over field)
    # and never evaluates reward_field, yet each equals its bits
    sys, u0 = _readme_stage(0)
    pcfg = dataclasses.replace(pc.polling_config(pc.config_from_dict(_README), mode),
                               max_rounds=30)
    pc.mechanism.stage_step(sys, pcfg)  # a damped mode's default step, estimated once
    evaluated = []
    real_field = pc.equilibrium.reward_field

    def reward_field(sys_):
        F = real_field(sys_)

        def counted(u):
            evaluated.append(1)
            return F(u)
        return counted

    for module in (pc.mechanism, pc.equilibrium):
        monkeypatch.setattr(module, "reward_field", reward_field)
    trace = _stage_trace(sys, pcfg)
    assert trace.iterations > 1 and not evaluated
    F = real_field(sys)
    assert trace.residual.tolist() == [float(np.max(np.abs(F(u)))) for u in trace.actions]


_SINGLE_STAGE_CONFIGS = {
    "consensus": {"N": 3, "d": 2, "seed": 13, "coupling_spec": "consensus_quadratic",
                  "coupling_strength": 0.5},
    "readme_barrier": {"N": 3, "d": 2, "seed": 13, "coupling_strength": 50.0,
                       "safety_radius": 6.0, "noise_std": 0.01},
    "cross_term": {"N": 3, "d": 2, "seed": 13, "coupling_strength": 50.0,
                   "safety_radius": 6.0, "noise_std": 0.01, "utility_spec": "cross_term"},
}


def _single_stage(name, max_rounds):
    """(instance, polling config) of single_stage play on one of
    _SINGLE_STAGE_CONFIGS, its default step estimated."""
    cfg = pc.config_from_dict(_SINGLE_STAGE_CONFIGS[name])
    sys = pc.generate(cfg)
    pcfg = dataclasses.replace(pc.polling_config(cfg, "single_stage"), max_rounds=max_rounds)
    pc.mechanism.stage_step(sys, pcfg)
    return sys, pcfg


def _stage_trace(sys, pcfg):
    try:
        return pc.run_stage(sys, np.zeros((sys.N, sys.d)), pcfg)
    except pc.NonConvergenceError as exc:
        return exc.trace


@pytest.mark.parametrize("name", list(_SINGLE_STAGE_CONFIGS))
def test_a_single_stage_residual_is_the_reward_field_of_its_round(name):
    # the residual after each round is read off the field the round formed
    # (cross_term: the per-row utility gradients), bit for bit reward_field's
    sys, pcfg = _single_stage(name, 60)
    trace = _stage_trace(sys, pcfg)
    assert trace.iterations > 1
    F = pc.reward_field(sys)
    assert trace.residual.tolist() == [float(np.max(np.abs(F(u)))) for u in trace.actions]


def test_a_single_stage_round_and_its_residual_make_three_pair_passes(monkeypatch):
    # consensus instance: two Newton points per response, then one stacked
    # pass for the coupling gradients against the frozen opponents and at
    # the responses, which the residual reuses; the stage's first residual
    # is one reward_field pass
    sys, pcfg = _single_stage("consensus", 5)
    calls = []
    real = pc.CouplingFunction._grad_hess_rows

    def counted(self, *args, **kwargs):
        calls.append(1)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(pc.CouplingFunction, "_grad_hess_rows", counted)
    trace = _stage_trace(sys, pcfg)
    assert trace.iterations == 5
    assert len(calls) == 1 + 3 * trace.iterations
