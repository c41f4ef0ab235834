"""End-to-end command-line pipeline: simulate, identify, compare."""

import dataclasses
import json
import subprocess
import sys

import numpy as np
import pytest

import pricecoord as pc
from pricecoord.cli import _write_json, main
from conftest import flat_utility
from goldens import DATA, GOLDENS, golden_bytes, run as run_golden


def write_config(tmp_path, name, **over):
    cfg = {"N": 2, "d": 1, "seed": 7, "horizon": 3,
           "coupling_strength": 0.0, "mode": {"mode": "simultaneous"}}
    cfg.update(over)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def coupled_config(tmp_path, name="coupled.json", **over):
    return write_config(tmp_path, name, seed=3, horizon=6,
                        coupling_strength=5.0,
                        coupling_spec="consensus_quadratic",
                        utility_spec="quadratic_random", **over)


def test_simulate_decoupled_closes_the_gap(tmp_path, capsys):
    cfg = write_config(tmp_path, "c.json")
    out = tmp_path / "out"
    rc = main(["simulate", "--config", str(cfg), "--out", str(out)])
    assert rc == 0
    printed = capsys.readouterr().out.strip()
    assert printed == str(out / "report.json")
    report = json.loads((out / "report.json").read_text())
    assert report["converged"] is True
    assert abs(report["gap"]) < 1e-8
    assert report["mode"] == "simultaneous"
    assert len(report["welfare_series"]) == 3
    assert (out / "trace.csv").exists() and (out / "dynamics.json").exists()


def test_simulate_trace_schema(tmp_path):
    cfg = write_config(tmp_path, "c.json", N=3, d=2, horizon=3,
                       coupling_strength=50.0, safety_radius=3.0,
                       noise_std=0.01, seed=9,
                       mode={"mode": "simultaneous", "max_rounds": 500})
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
    lines = (out / "trace.csv").read_text().splitlines()
    assert lines[0] == "t,n,x_0,x_1,u_0,u_1,p_0,p_1"
    assert len(lines) == 1 + 3 * 3  # header + horizon * N
    log = pc.load_log(out / "trace.csv")
    assert log.d == 2 and len(log) == 9
    dyn = json.loads((out / "dynamics.json").read_text())
    assert dyn["N"] == 3 and dyn["d"] == 2 and len(dyn["agents"]) == 3


def test_simulate_then_identify_round_trip(tmp_path):
    cfg = coupled_config(tmp_path)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
    rc = main(["identify", "--log", str(out / "trace.csv"),
               "--dynamics", str(out / "dynamics.json"),
               "--out", str(out), "--quiet"])
    assert rc == 0
    models = json.loads((out / "models.json").read_text())
    inst = pc.generate(pc.load_config(cfg))
    for n, entry in enumerate(models["agents"]):
        assert entry["agent"] == n
        np.testing.assert_allclose(entry["Q_hat"], inst.utilities[n].Q, atol=1e-6)
        np.testing.assert_allclose(entry["R_hat"], inst.utilities[n].R, atol=1e-6)
        assert entry["residual"] < 1e-8


def test_identify_reports_rank_deficiency(tmp_path, capsys):
    cfg = coupled_config(tmp_path)
    out = tmp_path / "out"
    main(["simulate", "--config", str(cfg), "--out", str(out), "--quiet"])
    lines = (out / "trace.csv").read_text().splitlines()
    (out / "short.csv").write_text("\n".join(lines[:3]) + "\n")  # one row per agent
    rc = main(["identify", "--log", str(out / "short.csv"),
               "--dynamics", str(out / "dynamics.json"), "--out", str(out)])
    assert rc == 3
    assert capsys.readouterr().err.splitlines() == [
        f"identify: agent {n}: rank 1 < required 2" for n in range(2)]
    models = json.loads((out / "models.json").read_text())
    assert all("error" in entry for entry in models["agents"])
    assert models["agents"][0]["required"] == 2


def test_identify_rejects_corrupt_log(tmp_path, capsys):
    cfg = coupled_config(tmp_path)
    out = tmp_path / "out"
    main(["simulate", "--config", str(cfg), "--out", str(out), "--quiet"])
    lines = (out / "trace.csv").read_text().splitlines()
    lines[4] = lines[4].replace(",", ";", 1)
    (out / "bad.csv").write_text("\n".join(lines) + "\n")
    rc = main(["identify", "--log", str(out / "bad.csv"),
               "--dynamics", str(out / "dynamics.json"), "--out", str(out)])
    assert rc == 1
    assert "line 5" in capsys.readouterr().err


def test_simulate_flags_oscillation_with_exit_two(tmp_path):
    cfg = write_config(tmp_path, "c.json", seed=11, horizon=2,
                       coupling_strength=1000.0,
                       coupling_spec="consensus_quadratic",
                       utility_spec="quadratic_fixed",
                       mode={"mode": "simultaneous", "max_rounds": 600})
    out = tmp_path / "out"
    rc = main(["simulate", "--config", str(cfg), "--out", str(out), "--quiet"])
    assert rc == 2
    report = json.loads((out / "report.json").read_text())
    assert report["converged"] is False
    failure = report["failure"]
    assert failure["reason"] == "oscillation"
    recent = np.asarray(failure["recent_actions"])
    steps = np.diff(recent[:, :, 0], axis=0)
    assert np.all(steps[:-1] * steps[1:] < 0)  # alternating tail


# dense fleets on the default 10 m waypoint circle with a 6 m safety radius:
# agent 0's first best response fails in each of newton_root's three ways
@pytest.mark.parametrize("N, mode, message", [
    (20, "simultaneous", "stationary point is not a local maximum"),
    (20, "tikhonov", "line search failed to reduce the gradient"),
    (30, "simultaneous", "no convergence after 100 Newton iterations"),
], ids=["N20-not_a_maximum", "N20-tikhonov-line_search", "N30-no_convergence"])
def test_simulate_best_response_failure_leaves_valid_output(tmp_path, capsys, N, mode, message):
    cfg = write_config(tmp_path, "c.json", N=N, d=2, seed=13, horizon=3,
                       coupling_strength=50.0, safety_radius=6.0, mode={"mode": mode})
    out = tmp_path / "out"
    rc = main(["simulate", "--config", str(cfg), "--out", str(out), "--quiet"])
    assert rc == 1
    assert message in capsys.readouterr().err
    lines = (out / "trace.csv").read_text().splitlines()
    assert lines == ["t,n,x_0,x_1,u_0,u_1,p_0,p_1"]
    report = json.loads((out / "report.json").read_text())
    assert report["converged"] is False
    assert report["oracle_welfare"] is None and report["gap"] is None
    failure = report["failure"]
    assert failure["reason"] == "best_response"
    assert failure["stage"] == 0
    assert failure["agent"] == 0
    assert failure["round"] == 1
    assert failure["message"] == message
    assert failure["residual"] >= 0.0
    assert len(failure["last_iterate"]) == 2


def _with_flat_agent(monkeypatch, tmp_path):
    """A two-agent scalar config whose generated instance gives agent 1 the
    flat utility: its first best response has a singular payoff Hessian."""
    generate = pc.cli.generate

    def with_flat_agent(cfg):
        inst = generate(cfg)
        return dataclasses.replace(inst, utilities=(inst.utilities[0], flat_utility()))

    monkeypatch.setattr(pc.cli, "generate", with_flat_agent)
    return write_config(tmp_path, "c.json", mode={"mode": "simultaneous", "max_rounds": 20})


def test_simulate_reports_a_singular_payoff_hessian(tmp_path, monkeypatch):
    cfg = _with_flat_agent(monkeypatch, tmp_path)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out", str(out), "--quiet"]) == 1
    assert (out / "trace.csv").read_text() == "t,n,x_0,u_0,p_0\n"
    report = json.loads((out / "report.json").read_text())
    assert report["converged"] is False and report["iterations"] == 0
    failure = report["failure"]
    assert failure["reason"] == "best_response" and failure["stage"] == 0
    assert failure["agent"] == 1 and failure["round"] == 1
    assert failure["residual"] == 1.0 and failure["last_iterate"] == [0.0]


@pytest.mark.filterwarnings("ignore::UserWarning")  # the oracle's fallback notice
def test_compare_records_a_singular_payoff_hessian(tmp_path, monkeypatch):
    cfg = _with_flat_agent(monkeypatch, tmp_path)
    out = tmp_path / "out"
    main(["compare", "--config", str(cfg), "--out", str(out), "--quiet"])
    modes = json.loads((out / "compare.json").read_text())["modes"]
    assert set(modes) == set(pc.PLAY_MODES)
    for mode in ("simultaneous", "sequential"):
        row = modes[mode]
        assert row["converged"] is False and row["reason"] == "best_response"
        assert row["agent"] == 1 and row["round"] == 1
        assert row["residual"] == 1.0 and row["last_iterate"] == [0.0]


def test_simulate_reports_a_state_overflow_after_its_stage(tmp_path, capsys):
    # the noise overflows every state after stage 0; that stage stays in the trace
    cfg = write_config(tmp_path, "c.json", N=3, d=2, seed=13, horizon=3,
                       coupling_strength=0.0, noise_std=1.7e308, mode={})
    out = tmp_path / "out"
    rc = main(["simulate", "--config", str(cfg), "--out", str(out), "--quiet"])
    assert rc == 1
    message = "the states after stage 0 contain non-finite entries"
    assert f"simulate: {message}" in capsys.readouterr().err
    assert len((out / "trace.csv").read_text().splitlines()) == 1 + 3
    report = json.loads((out / "report.json").read_text())
    assert report["failure"] == {"reason": "state", "stage": 0, "message": message}
    assert report["converged"] is False and report["iterations"] == 2
    assert len(report["welfare_series"]) == 1
    assert report["oracle_welfare"] is None and report["gap"] is None


def _strict_json(path):
    def refuse(name):
        raise ValueError(f"non-strict JSON constant {name}")

    return json.loads(path.read_text(), parse_constant=refuse)


@pytest.fixture(scope="module")
def golden_run(tmp_path_factory):
    """golden -> (exit code, output directory), each entry run once per module."""
    runs = {}

    def get(golden):
        key = (golden.command, golden.name)
        if key not in runs:
            runs[key] = run_golden(golden, main, tmp_path_factory.mktemp("golden"))
        return runs[key]

    return get


README_SIMULATE = next(g for g in GOLDENS if (g.command, g.name) == ("simulate", "readme"))


@pytest.mark.filterwarnings("ignore::UserWarning")  # the oracle's fallback notice
@pytest.mark.parametrize("golden", GOLDENS, ids=lambda g: f"{g.command}-{g.name}")
def test_golden_run_reproduces_its_files_byte_for_byte(golden_run, golden):
    code, out = golden_run(golden)
    assert code == golden.exit_code
    assert [output for output in golden.outputs
            if golden_bytes(out / output) != (DATA / golden.file(output)).read_bytes()] == []


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_simulate_readme_trace_matches_the_golden_file(golden_run):
    # the README run shared with its manifest case, read back as numbers: a
    # header and one row per stage and agent
    code, out = golden_run(README_SIMULATE)
    assert code == 0
    golden = DATA / README_SIMULATE.file("trace.csv")
    assert (out / "trace.csv").read_text().splitlines()[0] == golden.read_text().splitlines()[0]
    rows = np.loadtxt(out / "trace.csv", delimiter=",", skiprows=1)
    assert rows.shape[0] == README_SIMULATE.config["horizon"] * README_SIMULATE.config["N"]
    np.testing.assert_array_equal(rows, np.loadtxt(golden, delimiter=",", skiprows=1))


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_simulate_readme_report_matches_the_golden_file(golden_run):
    # the report pins oracle_welfare, oracle_method and gap bit for bit; its
    # wall_time_ms is the one field a golden leaves out
    code, out = golden_run(README_SIMULATE)
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["wall_time_ms"] >= 0
    report.pop("wall_time_ms")
    assert report == _strict_json(DATA / README_SIMULATE.file("report.json"))


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_simulate_steps_each_stage_with_its_noise_draw(golden_run):
    # the README run's stage t + 1 starts at the noiseless next states of stage
    # t's states and actions plus noise_std times stage t's draws from
    # noise_streams, one per agent in order, bit for bit
    code, out = golden_run(README_SIMULATE)
    assert code == 0
    cfg = pc.config_from_dict(README_SIMULATE.config)
    inst, noise = pc.generate(cfg), pc.noise_streams(cfg)
    log = pc.load_log(out / "trace.csv")
    X, U = (a.reshape(cfg.horizon, cfg.N, cfg.d) for a in (log.x, log.u))
    np.testing.assert_array_equal(X[0], inst.states)
    for t in range(1, cfg.horizon):
        draws = np.array([g.normal(size=cfg.d) for g in noise])
        np.testing.assert_array_equal(
            X[t], pc.joint_next_state(pc.replace_states(inst, X[t - 1]), U[t - 1])
            + cfg.noise_std * draws)


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_simulate_is_byte_deterministic(tmp_path, golden_run):
    # a rerun of the README run in the same process, after the module's other
    # runs have filled every cache, writes the same bytes as its first run
    first = golden_run(README_SIMULATE)[1]
    code, again = run_golden(README_SIMULATE, main, tmp_path)
    assert code == 0
    assert [output for output in README_SIMULATE.outputs
            if golden_bytes(again / output) != golden_bytes(first / output)] == []


def test_simulate_on_an_asymmetric_box_is_byte_deterministic(tmp_path):
    # the two-stage default step is estimated on a box not centred at zero
    cfg = write_config(tmp_path, "c.json", N=3, d=2, seed=13, horizon=3,
                       coupling_spec="consensus_quadratic", coupling_strength=0.5,
                       utility_spec="quadratic_random", box=[-3.0, 7.5],
                       mode={"mode": "two_stage"})
    traces = []
    for out in (tmp_path / "a", tmp_path / "b"):
        assert main(["simulate", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
        traces.append((out / "trace.csv").read_bytes())
    assert traces[0] == traces[1]


def test_every_golden_file_is_written_by_exactly_one_run():
    files = [golden.file(output) for golden in GOLDENS for output in golden.outputs]
    assert len(files) == len(set(files))
    assert set(files) == {path.name for path in DATA.iterdir()}
    for name in files:
        if name.endswith(".json"):
            _strict_json(DATA / name)


@pytest.mark.filterwarnings("ignore::UserWarning", "ignore::RuntimeWarning")
def test_compare_writes_a_diverged_residual_as_null_and_names_it(tmp_path):
    # a consensus of strength 1e150 with step 1e3: both damped modes diverge
    # to a residual that is NaN, and the oracle finds no maximum
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"N": 3, "d": 2, "seed": 13, "coupling_spec": "consensus_quadratic",
                               "coupling_strength": 1e150, "utility_spec": "quadratic_random",
                               "mode": {"gamma": 1000.0, "max_rounds": 50}}))
    out = tmp_path / "out"
    assert main(["compare", "--config", str(cfg), "--out", str(out), "--quiet"]) == 1
    report = _strict_json(out / "compare.json")
    assert report["nonfinite"] == ["modes.single_stage.residual", "modes.two_stage.residual"]
    for mode in ("single_stage", "two_stage"):
        assert report["modes"][mode]["reason"] == "best_response"
        assert report["modes"][mode]["residual"] is None


_DIVERGING = {"N": 3, "d": 2, "seed": 13, "coupling_spec": "consensus_quadratic",
              "coupling_strength": 1e3, "utility_spec": "quadratic_random", "horizon": 1,
              "mode": {"mode": "two_stage", "gamma": 1e306, "max_rounds": 50}}
_DIVERGED = "stage diverged: round 1 produced non-finite actions"


@pytest.mark.parametrize("mode", ["two_stage", "single_stage"])
def test_a_damped_stage_that_overflows_is_reported_as_diverged(tmp_path, capsys, mode):
    # the step 1e306 overflows the first damped update (single_stage: its
    # coordinator sequence); simulate still writes its trace and report, and
    # compare records the mode and runs the others
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(_DIVERGING))
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out", str(out), "--mode", mode,
                 "--quiet"]) == 1
    assert f"simulate: {_DIVERGED}" in capsys.readouterr().err
    assert (out / "trace.csv").read_text().splitlines() == ["t,n,x_0,x_1,u_0,u_1,p_0,p_1"]
    report = _strict_json(out / "report.json")
    assert report["failure"] == {"reason": "diverged", "stage": 0, "rounds": 0,
                                 "message": _DIVERGED}
    assert report["converged"] is False and report["iterations"] == 0

    assert main(["compare", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
    modes = _strict_json(out / "compare.json")["modes"]
    assert modes[mode] == {"reason": "diverged", "converged": False, "iterations": 0,
                           "final_welfare": modes[mode]["final_welfare"],
                           "gap": modes[mode]["gap"]}
    assert set(modes) == set(pc.PLAY_MODES)
    assert all("final_welfare" in row for row in modes.values())


def test_simulate_tikhonov_rescues_strong_coupling(tmp_path):
    cfg = write_config(tmp_path, "c.json", seed=11, horizon=2,
                       coupling_strength=1000.0,
                       coupling_spec="consensus_quadratic",
                       utility_spec="quadratic_fixed",
                       mode={"mode": "tikhonov", "max_rounds": 600, "lam": 20.0})
    out = tmp_path / "out"
    rc = main(["simulate", "--config", str(cfg), "--out", str(out), "--quiet"])
    assert rc == 0
    report = json.loads((out / "report.json").read_text())
    assert report["converged"] is True
    assert abs(report["gap"]) < 1e-8
    assert report["oracle_method"] == "closed_form"


def test_simulate_mode_flag_overrides_config(tmp_path):
    cfg = write_config(tmp_path, "c.json")
    out = tmp_path / "out"
    rc = main(["simulate", "--config", str(cfg), "--out", str(out),
               "--mode", "sequential", "--quiet"])
    assert rc == 0
    report = json.loads((out / "report.json").read_text())
    assert report["mode"] == "sequential"


def test_simulate_seed_flag_changes_the_run(tmp_path):
    cfg = coupled_config(tmp_path)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--config", str(cfg), "--out", str(out_a),
                 "--seed", "100", "--quiet"]) == 0
    assert main(["simulate", "--config", str(cfg), "--out", str(out_b),
                 "--seed", "101", "--quiet"]) == 0
    assert (out_a / "trace.csv").read_text() != (out_b / "trace.csv").read_text()


def test_simulate_rejects_a_negative_seed_flag(tmp_path, capsys):
    cfg = write_config(tmp_path, "c.json")
    out = tmp_path / "out"
    rc = main(["simulate", "--config", str(cfg), "--out", str(out), "--seed", "-1", "--quiet"])
    assert rc == 1
    assert "seed must fit in 64 unsigned bits" in capsys.readouterr().err
    assert not out.exists()


def test_write_json_text_is_pinned(tmp_path):
    path = tmp_path / "out.json"
    _write_json({"int": 3, "np_int": np.int64(-4), "bool": True, "np_bool": np.bool_(False),
                 "array": np.array([[1.5, -0.0], [np.nan, 2.0]]), "tuple": (1, np.float64(2.5)),
                 "nan": float("nan"), "neg_zero": -0.0, "f32": np.float32(0.1),
                 "f64": np.float64(1 / 3), "none": None}, str(path))
    # a non-finite float is written as null and named in the nonfinite list
    assert path.read_text() == (
        '{\n  "array": [\n    [\n      1.5,\n      -0.0\n    ],\n    [\n      null,\n'
        '      2.0\n    ]\n  ],\n  "bool": true,\n  "f32": 0.10000000149011612,\n'
        '  "f64": 0.3333333333333333,\n  "int": 3,\n  "nan": null,\n  "neg_zero": -0.0,\n'
        '  "none": null,\n  "nonfinite": [\n    "array.1.0",\n    "nan"\n  ],\n'
        '  "np_bool": false,\n  "np_int": -4,\n  "tuple": [\n    1,\n'
        '    2.5\n  ]\n}\n')
    with pytest.raises(TypeError, match="set"):
        _write_json({"bad": {1}}, str(path))


def test_compare_runs_all_modes(tmp_path):
    cfg = write_config(tmp_path, "c.json", seed=5, horizon=1,
                       coupling_strength=5.0,
                       coupling_spec="consensus_quadratic",
                       utility_spec="quadratic_random",
                       mode={"max_rounds": 2000, "lam": 10.0})
    out = tmp_path / "out"
    rc = main(["compare", "--config", str(cfg), "--out", str(out), "--quiet"])
    assert rc == 0
    report = json.loads((out / "compare.json").read_text())
    assert set(report["modes"]) == set(pc.PLAY_MODES)
    for row in report["modes"].values():
        assert row["converged"] is True
        assert abs(row["gap"]) < 1e-6
    assert report["oracle_method"] == "closed_form"
    # damped modes pay for robustness with extra rounds on this instance
    assert (report["modes"]["single_stage"]["iterations"]
            > report["modes"]["sequential"]["iterations"])


def test_compare_records_a_mode_without_a_step_size(tmp_path):
    # the barrier field is not co-coercive on this box, so the damped modes
    # get no estimated step size; the other modes still run and are recorded
    cfg = write_config(tmp_path, "c.json", N=4, d=2, seed=13, coupling_strength=50.0,
                       safety_radius=12.0, mode={"max_rounds": 50})
    out = tmp_path / "out"
    rc = main(["compare", "--config", str(cfg), "--out", str(out), "--quiet"])
    assert rc == 0
    modes = json.loads((out / "compare.json").read_text())["modes"]
    assert set(modes) == set(pc.PLAY_MODES)
    for mode in ("two_stage", "single_stage"):
        assert modes[mode]["converged"] is False
        assert modes[mode]["reason"] == "config"
        assert "not co-coercive" in modes[mode]["message"]
    assert modes["simultaneous"]["converged"] is True
    assert modes["sequential"]["converged"] is True


def test_simulate_records_a_stage_without_a_step_size(tmp_path):
    cfg = write_config(tmp_path, "c.json", N=4, d=2, seed=13, coupling_strength=50.0,
                       safety_radius=12.0)
    out = tmp_path / "out"
    rc = main(["simulate", "--config", str(cfg), "--out", str(out), "--quiet",
               "--mode", "two_stage"])
    assert rc == 1
    assert (out / "trace.csv").read_text() == "t,n,x_0,x_1,u_0,u_1,p_0,p_1\n"
    failure = json.loads((out / "report.json").read_text())["failure"]
    assert failure["reason"] == "config" and failure["stage"] == 0
    assert "not co-coercive" in failure["message"]


def test_an_overflowing_box_is_a_config_failure(tmp_path):
    # the default-step estimate overflows on this box instead of reading an
    # infinite co-coercivity constant and a step of 1
    cfg = write_config(tmp_path, "c.json", N=3, d=2, seed=13, coupling_strength=0.5,
                       coupling_spec="consensus_quadratic", utility_spec="quadratic_random",
                       box=[-1e300, 1e300], mode={"mode": "two_stage"})
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out", str(out), "--quiet"]) == 1
    assert (out / "trace.csv").read_text().splitlines() == ["t,n,x_0,x_1,u_0,u_1,p_0,p_1"]
    failure = json.loads((out / "report.json").read_text())["failure"]
    assert failure["reason"] == "config" and failure["stage"] == 0
    assert "not finite on the box" in failure["message"]
    assert main(["compare", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
    modes = json.loads((out / "compare.json").read_text())["modes"]
    for mode in ("two_stage", "single_stage"):
        assert modes[mode]["converged"] is False and modes[mode]["reason"] == "config"


_AGENT = {"A": [[1.0]], "B": [[1.0]], "x0": [0.0]}


@pytest.mark.parametrize("command, over, field", [
    ("simulate", {"N": "3"}, "'N'"),
    ("simulate", {"N": 3.5}, "'N'"),
    ("simulate", {"box": 5}, "'box'"),
    ("simulate", {"safety_radius": "big"}, "'safety_radius'"),
    ("simulate", {"mode": {"max_rounds": "x"}}, "'mode.max_rounds'"),
    ("compare", {"mode": {"max_rounds": "x"}}, "'mode.max_rounds'"),
    ("identify", {"agents": 5}, "'agents'"),
    ("identify", {"agents": [5]}, "'agents'"),
    ("simulate", {"noise_std": float("inf")}, "'noise_std'"),
    ("simulate", {"coupling_strength": float("nan")}, "'coupling_strength'"),
    ("simulate", {"box": ["a", 1]}, "'box'"),
    ("simulate", {"box": [-1.0, float("inf")]}, "'box'"),
    ("compare", {"mode": {"gamma": float("nan")}}, "'mode.gamma'"),
    ("identify", {"agents": [dict(_AGENT, A={})]}, "agent 0: field 'A'"),
    ("identify", {"agents": [dict(_AGENT, x0={})]}, "agent 0: field 'x0'"),
    ("identify", {"agents": [dict(_AGENT, B=[[float("nan")]])]}, "agent 0: field 'B'"),
    ("identify", {"N": "1"}, "'N'"),
    ("identify", {"d": 2}, "agent 0: field 'A'"),
], ids=["N_text", "N_fraction", "box_number", "safety_radius_text", "max_rounds_text",
        "compare_max_rounds_text", "agents_number", "agents_entry_number",
        "noise_std_infinite", "coupling_strength_nan", "box_text_entry", "box_infinite_entry",
        "compare_gamma_nan", "dynamics_A_object", "dynamics_x0_object", "dynamics_B_nan",
        "dynamics_N_text", "dynamics_d_mismatch"])
def test_wrong_typed_input_field_is_named(tmp_path, capsys, command, over, field):
    if command == "identify":
        log = tmp_path / "trace.csv"
        log.write_text("t,n,x_0,u_0,p_0\n0,0,0.0,0.0,0.0\n")
        dyn = tmp_path / "dynamics.json"
        dyn.write_text(json.dumps({"N": 1, "d": 1, "agents": [_AGENT], **over}))
        argv = ["identify", "--log", str(log), "--dynamics", str(dyn)]
    else:
        argv = [command, "--config", str(write_config(tmp_path, "c.json", **over))]
    rc = main(argv + ["--out", str(tmp_path / "out"), "--quiet"])
    err = capsys.readouterr().err
    assert rc == 1
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1
    assert err.startswith("pricecoord: ") and field in err


def test_bad_step_size_writes_nothing_and_names_its_field(tmp_path, capsys):
    cfg = {"N": 3, "d": 2, "seed": 13, "horizon": 2, "mode": {"mode": "two_stage", "lam": -1.0}}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    rc = main(["simulate", "--config", str(path), "--out", str(out), "--quiet"])
    assert rc == 1
    assert "'lam'" in capsys.readouterr().err
    assert not out.exists()
    cfg["mode"] = {"mode": "two_stage", "gamma": 0}
    path.write_text(json.dumps(cfg))
    rc = main(["compare", "--config", str(path), "--out", str(out), "--quiet"])
    assert rc == 1
    assert not out.exists()


def test_a_barrier_that_overflows_at_zero_separation_writes_nothing(tmp_path, capsys):
    # its pair value beta softplus(r^2)^2 is not finite: refused as a config
    # error before anything is written
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"N": 2, "d": 1, "seed": 13, "horizon": 1,
                                "coupling_strength": 1.0, "safety_radius": 1e154}))
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(path), "--out", str(out), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("pricecoord: ") and "Traceback" not in err
    assert "coupling_strength" in err and "safety_radius" in err
    assert not out.exists()


def test_missing_config_path_exits_one(tmp_path, capsys):
    rc = main(["simulate", "--config", str(tmp_path / "nope.json"),
               "--out", str(tmp_path)])
    assert rc == 1
    assert "pricecoord:" in capsys.readouterr().err


def test_unknown_mode_flag_rejected_by_parser(tmp_path):
    cfg = write_config(tmp_path, "c.json")
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--config", str(cfg), "--out", str(tmp_path),
              "--mode", "warp"])
    assert exc.value.code == 2


def test_console_entry_point_runs():
    proc = subprocess.run([sys.executable, "-m", "pricecoord.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "simulate" in proc.stdout and "identify" in proc.stdout


def test_compare_estimates_the_default_step_once(tmp_path, monkeypatch):
    calls = []
    estimate = pc.mechanism.default_schedule
    monkeypatch.setattr(pc.mechanism, "default_schedule",
                        lambda *args: calls.append(args) or estimate(*args))
    cfg = write_config(tmp_path, "c.json", seed=5, coupling_strength=5.0,
                       coupling_spec="consensus_quadratic", mode={"max_rounds": 20})
    out = tmp_path / "out"
    assert main(["compare", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
    assert len(calls) == 1
    modes = json.loads((out / "compare.json").read_text())["modes"]
    assert modes["two_stage"]["iterations"] > 0 and modes["single_stage"]["iterations"] > 0


def test_simulate_estimates_the_default_step_once_per_stage(tmp_path, monkeypatch):
    # each stage runs on a new instance, so no step is carried across stages
    calls = []
    estimate = pc.mechanism.default_schedule
    monkeypatch.setattr(pc.mechanism, "default_schedule",
                        lambda *args: calls.append(args) or estimate(*args))
    cfg = write_config(tmp_path, "c.json", N=3, d=2, seed=13, horizon=3,
                       coupling_spec="consensus_quadratic", coupling_strength=0.5,
                       utility_spec="quadratic_random")
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out", str(out), "--quiet",
                 "--mode", "two_stage"]) == 0
    assert len(calls) == 3


def test_simulate_on_a_stiff_consensus_ends_on_the_round_budget(tmp_path):
    # the best responses stop at their gradient's rounding floor, so the run
    # ends on the game-level round budget, not on a best-response failure
    cfg = write_config(tmp_path, "c.json", N=3, d=2, seed=13, horizon=2,
                       coupling_spec="consensus_quadratic", coupling_strength=1e6,
                       mode={"mode": "simultaneous", "max_rounds": 200})
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out", str(out), "--quiet"]) == 1
    failure = json.loads((out / "report.json").read_text())["failure"]
    assert failure["reason"] == "max_rounds" and failure["rounds"] == 200


_UNREACHABLE_BOX = "no multistart start on the box (1e+300, 1.5e+300) ends at a finite welfare maximum"


def test_simulate_reports_an_oracle_failure_after_its_last_stage(tmp_path, capsys):
    # every stage converges on this box, but no multistart start on it ends
    # at a finite welfare maximum
    cfg = write_config(tmp_path, "c.json", N=3, d=2, seed=13, horizon=20,
                       coupling_strength=50.0, safety_radius=6.0, noise_std=0.01,
                       box=[1e300, 1.5e300], mode={"mode": "simultaneous", "max_rounds": 500})
    out = tmp_path / "out"
    with pytest.warns(UserWarning, match="falling back"):
        rc = main(["simulate", "--config", str(cfg), "--out", str(out), "--quiet"])
    assert rc == 1
    assert _UNREACHABLE_BOX in capsys.readouterr().err
    assert len((out / "trace.csv").read_text().splitlines()) == 1 + 20 * 3
    report = json.loads((out / "report.json").read_text())
    assert report["converged"] is False
    assert len(report["welfare_series"]) == 20 and report["final_welfare"] is not None
    assert report["oracle_welfare"] is None and report["oracle_method"] is None
    assert report["gap"] is None
    assert report["failure"] == {"reason": "oracle", "stage": 19, "message": _UNREACHABLE_BOX}


def test_compare_runs_every_mode_when_the_oracle_fails(tmp_path, capsys):
    cfg = write_config(tmp_path, "c.json", N=3, d=2, seed=13, horizon=1,
                       coupling_strength=50.0, safety_radius=20.0, box=[1e300, 1.5e300])
    out = tmp_path / "out"
    with pytest.warns(UserWarning, match="falling back"):
        rc = main(["compare", "--config", str(cfg), "--out", str(out), "--quiet"])
    assert rc == 1
    assert _UNREACHABLE_BOX in capsys.readouterr().err
    report = json.loads((out / "compare.json").read_text())
    assert report["oracle_welfare"] is None and report["oracle_method"] is None
    assert report["failure"] == {"reason": "oracle", "stage": 0, "message": _UNREACHABLE_BOX}
    assert set(report["modes"]) == set(pc.PLAY_MODES)
    played = [row for row in report["modes"].values() if "final_welfare" in row]
    assert played and all(row["gap"] is None for row in played)
