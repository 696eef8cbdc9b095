"""Scenario files, artifacts, benchmark reports, and the command line."""

import json
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import numpy.testing as npt
import pytest

from slsctrl import (
    Controller,
    OpenLoopController,
    TrackingObjective,
    adapt_feedforward,
    bench_adaptation,
    bench_mug_sugar,
    build_stacked,
    dp_lqt,
    extract_controller,
    isls_optimize,
    linear_system_from_plant,
    precompute_gain_maps,
    rollout,
    solve_esls,
)
from slsctrl.bench import (
    BenchmarkReport,
    apply_viapoint_edit,
    bundled_scenario_path,
)
import slsctrl.scenarios
from slsctrl.scenarios import (
    Scenario,
    ValidationError,
    build_cost,
    build_noise,
    build_objective,
    build_plant,
    config_sha256,
    correlation_residuals,
    draw_initial_state,
    load_controller_artifact,
    load_maps_artifact,
    load_scenario,
    run_scenario,
    write_controller_artifact,
    write_maps_artifact,
)

from dense_views import dense_F_u, dense_F_x
from oracles import riccati_regulator_value


def _arm_scenario(max_iterations=100):
    m = 11  # 2 links: [theta, theta_dot, ee, ee_vel, angle, limit] = 3p+5
    target = [0.0] * m
    target[4:6] = [0.7, 0.5]
    weight = [0.0] * m
    weight[4] = weight[5] = 1e4
    return {
        "name": "arm_reach",
        "horizon": 20,
        "dt": 0.05,
        "plant": {"kind": "planar_arm", "link_lengths": [0.8, 0.6]},
        "cost": {
            "control_weight": 0.001,
            "viapoints": [{"t": 20, "target": target, "weight": weight}],
        },
        "initial_state": {"kind": "arm_joints", "theta": [0.3, 0.4]},
        "solver": {"kind": "isls", "max_iterations": max_iterations},
    }


def test_regulator_smoke_matches_riccati(tmp_path):
    report = run_scenario(bundled_scenario_path("regulator_smoke"),
                          seed=0, out=tmp_path, label="run")
    expected = riccati_regulator_value(
        np.array([[1.0]]), np.array([[1.0]]), np.array([[1.0]]),
        np.array([[1.0]]), 5, np.array([1.0]))
    npt.assert_allclose(report["realized_cost"], expected, atol=1e-9)


def test_mug_scenario_artifacts(tmp_path):
    report = run_scenario(bundled_scenario_path("mug_sugar"),
                          seed=42, out=tmp_path, label="run")
    out_dir = tmp_path / "mug_sugar" / "run"
    for name in ("controller.bin", "maps.bin", "trajectory.csv", "report.json"):
        assert (out_dir / name).exists()
    assert report["seed"] == 42
    assert report["config_sha256"]
    residuals = report["correlation_residuals"]
    assert residuals and max(r["residual"] for r in residuals) <= 1e-3
    on_disk = json.loads((out_dir / "report.json").read_text())
    assert on_disk["realized_cost"] == report["realized_cost"]


def test_out_of_range_viapoint_names_field():
    config = load_scenario(bundled_scenario_path("mug_sugar")).raw
    config["cost"]["viapoints"][0]["t"] = 200
    with pytest.raises(ValidationError, match=r"cost\.viapoints\[0\]\.t"):
        Scenario.from_dict(config)


def test_unknown_keys_rejected():
    config = load_scenario(bundled_scenario_path("regulator_smoke")).raw
    config["cost"]["extra_knob"] = 1.0
    with pytest.raises(ValidationError, match="extra_knob"):
        Scenario.from_dict(config)


def test_nonfinite_numbers_name_field(tmp_path):
    # json writes and reads the literals NaN and Infinity; validation must
    # stop them before they reach the solver
    nan_target = load_scenario(bundled_scenario_path("mug_sugar")).raw
    nan_target["cost"]["viapoints"][0]["target"][0] = float("nan")
    infinite_dt = load_scenario(bundled_scenario_path("mug_sugar")).raw
    infinite_dt["dt"] = float("inf")
    nan_weight = load_scenario(bundled_scenario_path("mug_sugar")).raw
    nan_weight["cost"]["control_weight"] = float("nan")
    for config, field_path in [(nan_target, r"cost\.viapoints\[0\]\.target\[0\]"),
                               (infinite_dt, r"scenario\.dt"),
                               (nan_weight, r"cost\.control_weight")]:
        scenario_file = tmp_path / "nonfinite.json"
        scenario_file.write_text(json.dumps(config))
        with pytest.raises(ValidationError, match=field_path + ": expected a finite number"):
            load_scenario(scenario_file)


def test_control_weight_must_be_positive_definite_unless_isls():
    # every solver but isls assembles the quadratic cost and factors R
    config = load_scenario(bundled_scenario_path("mug_sugar")).raw
    config["cost"]["control_weight"] = [0.01, 0.0, 0.01]
    for solver in ({"kind": "esls"}, {"kind": "dp-lqt"}, {"kind": "batch-lqt"},
                   {"kind": "mpc-lqt", "recompute_time": 20}):
        config["solver"] = solver
        with pytest.raises(ValidationError, match=r"cost\.control_weight: not positive"):
            Scenario.from_dict(config)
    config["solver"] = {"kind": "isls"}
    assert Scenario.from_dict(config).control_weight[1, 1] == 0.0


def test_plant_flags_must_be_booleans():
    # a string or a number would otherwise be used by its truthiness
    for name, key in [("mug_sugar", "exact_discretization"),
                      ("pickplace_arm", "consistent_velocity")]:
        for value in ["no", "false", 1, 0, None]:
            config = load_scenario(bundled_scenario_path(name)).raw
            config["plant"][key] = value
            with pytest.raises(ValidationError, match=rf"plant\.{key}: expected true or false"):
                Scenario.from_dict(config)
        config["plant"][key] = False
        Scenario.from_dict(config)


def test_builders_read_the_parsed_scenario(monkeypatch):
    # from_dict is the only parse: with the number parser broken afterwards,
    # every builder still works on every bundled scenario
    scenarios = [load_scenario(bundled_scenario_path(name))
                 for name in ("regulator_smoke", "mug_sugar", "pickplace_arm")]

    def no_parse(value, path, minimum=None):
        raise AssertionError(f"{path} parsed again after from_dict")

    monkeypatch.setattr(slsctrl.scenarios, "_as_float", no_parse)
    for scenario in scenarios:
        m, n = scenario.state_dim, scenario.input_dim
        plant = build_plant(scenario)
        assert (plant.state_dim, plant.input_dim) == (m, n)
        cost = build_cost(scenario)
        assert cost.x_d.size == m * (scenario.horizon + 1) and cost.R.shape[1] == n
        assert build_objective(scenario).correlations == scenario.correlations
        assert build_noise(scenario).state_dim == m
        x0 = draw_initial_state(scenario, np.random.default_rng(0), plant)
        states = np.tile(x0, (scenario.horizon + 1, 1))
        residuals = correlation_residuals(scenario, SimpleNamespace(states=states))
        assert len(residuals) == len(scenario.correlations)


def test_scenario_roundtrip_and_hash():
    raw = load_scenario(bundled_scenario_path("mug_sugar")).raw
    assert json.loads(json.dumps(raw)) == raw
    reordered = json.loads(json.dumps(raw, sort_keys=True))
    assert config_sha256(reordered) == config_sha256(raw)
    assert config_sha256({"a": 1}) != config_sha256({"a": 2})


def _mug():
    scenario = Scenario.from_dict(
        load_scenario(bundled_scenario_path("mug_sugar")).raw)
    plant = build_plant(scenario)
    return scenario, plant, build_cost(scenario), linear_system_from_plant(
        plant, scenario.horizon)


def test_controller_artifact_roundtrip(tmp_path):
    # esls (held states), dp-lqt (none) and isls (nominals) controllers
    # come back with the same blocks and the same rollouts, bit for bit
    scenario, plant, cost, system = _mug()
    st = build_stacked(system)
    ctrl = extract_controller(solve_esls(st, cost))
    x0 = np.asarray(scenario.initial_state["center"], float)
    isls_ctrl, _ = isls_optimize(plant, TrackingObjective.from_costspec(cost), x0)
    assert any(ctrl.held) and isls_ctrl.nominal_x is not None
    for label, original in [("esls", ctrl), ("isls", isls_ctrl),
                            ("dp-lqt", dp_lqt(system, cost.diagonal_projection()))]:
        path = tmp_path / f"{label}.bin"
        write_controller_artifact(path, original)
        loaded = load_controller_artifact(path)
        assert loaded.held == original.held
        npt.assert_array_equal(loaded.K.dense, original.K.dense)
        npt.assert_array_equal(loaded.k, original.k)
        assert (loaded.nominal_x is None) == (label != "isls")
        if label == "isls":
            npt.assert_array_equal(loaded.nominal_x, original.nominal_x)
            npt.assert_array_equal(loaded.nominal_u, original.nominal_u)
        runs = [rollout(plant, c, noise=build_noise(scenario), seed=3, x0=x0)
                for c in (original, loaded)]
        npt.assert_array_equal(runs[1].states, runs[0].states)
        npt.assert_array_equal(runs[1].inputs, runs[0].inputs)

    maps = precompute_gain_maps(st, cost, ctrl)
    mpath = tmp_path / "maps.bin"
    write_maps_artifact(mpath, maps, cost)
    loaded_maps, x_d, u_d = load_maps_artifact(mpath)
    npt.assert_array_equal(dense_F_x(loaded_maps), dense_F_x(maps))
    npt.assert_array_equal(dense_F_u(loaded_maps), dense_F_u(maps))
    npt.assert_array_equal(x_d, cost.x_d)
    npt.assert_array_equal(u_d, cost.u_d)
    # the same feedforward, bit for bit, on random targets (moved u_d too)
    rng = np.random.default_rng(4)
    for targets in [(rng.normal(size=x_d.size), u_d),
                    (rng.normal(size=x_d.size), rng.normal(size=u_d.size))]:
        npt.assert_array_equal(loaded_maps.feedforward(*targets), maps.feedforward(*targets))


def _mug_maps_file(tmp_path):
    _, _, cost, system = _mug()
    st = build_stacked(system)
    maps = precompute_gain_maps(st, cost, extract_controller(solve_esls(st, cost)))
    path = tmp_path / "maps.bin"
    write_maps_artifact(path, maps, cost)
    with np.load(path) as data:
        return dict(data)


def test_tampered_maps_artifact_names_field(tmp_path):
    good = _mug_maps_file(tmp_path)

    def nan_at(a, i):
        a = a.astype(float)
        a.flat[i] = np.nan
        return a

    cases = [("F_x_blocks", {"F_x_blocks": nan_at(good["F_x_blocks"], 5)}),
             ("F_x_blocks", {"F_x_blocks": good["F_x_blocks"][:, 1:]}),
             ("touched", {"touched": good["touched"][::-1]}),
             ("touched", {"touched": good["touched"] + 1000}),
             ("touched", {"touched": good["touched"].astype(float)}),
             ("u_d0", {"u_d0": good["u_d0"][:-1]}),
             ("k_u0", {"k_u0": nan_at(good["k_u0"], 0)}),
             ("x_d", {"x_d": np.r_[good["x_d"], 0.0]}),
             ("u_d", {"u_d": nan_at(good["u_d"], 2)}),
             ("A", {"A": good["A"][:-1]}),
             ("B", {"B": good["B"][0]}),
             ("B", {"B": nan_at(good["B"], 3)}),
             ("R", {"R": nan_at(good["R"], 1)}),
             ("hessian_inv", {"hessian_inv": good["hessian_inv"][:, :1]}),
             ("hessian_inv", {"hessian_inv": nan_at(good["hessian_inv"], 4)}),
             ("diagonal", {"diagonal": nan_at(good["diagonal"], 3)}),
             ("memory_blocks", {"memory_blocks": good["memory_blocks"][1:]}),
             ("memory_cols", {"memory_cols": good["memory_rows"]}),
             ("k_u0", {"k_u0": None}),
             ("format_version", {"format_version": None})]
    for i, (match, change) in enumerate(cases):
        arrays = {key: v for key, v in dict(good, **change).items() if v is not None}
        bad = tmp_path / f"bad{i}.bin"
        with open(bad, "wb") as fh:
            np.savez(fh, **arrays)
        with pytest.raises(ValidationError, match=match):
            load_maps_artifact(bad)


def test_controller_loader_rejects_missing_version_and_nan_inputs(tmp_path):
    path = tmp_path / "open_loop.bin"
    write_controller_artifact(path, OpenLoopController(np.ones((4, 2)), 3))
    assert load_controller_artifact(path).inputs.shape == (4, 2)
    with np.load(path) as data:
        good = dict(data)
    inputs = good["inputs"].copy()
    inputs[2, 1] = np.nan
    for match, arrays in [("inputs", dict(good, inputs=inputs)),
                          ("format_version", {k: v for k, v in good.items()
                                              if k != "format_version"})]:
        with open(path, "wb") as fh:
            np.savez(fh, **arrays)
        with pytest.raises(ValidationError, match=match):
            load_controller_artifact(path)


def test_tampered_controller_artifact_names_field(tmp_path):
    scenario, plant, cost, system = _mug()
    ctrl = extract_controller(solve_esls(build_stacked(system), cost))
    x = np.zeros(scenario.state_dim * (scenario.horizon + 1))
    u = np.zeros(ctrl.k.size)
    path = tmp_path / "controller.bin"
    write_controller_artifact(path, Controller(ctrl.K, ctrl.k, x, u))
    with np.load(path) as data:
        good = dict(data)

    def nan_at(a, i):
        a = a.astype(float)
        a[i] = np.nan
        return a

    def swapped(a):
        a = a.copy()
        a[[0, 1]] = a[[1, 0]]
        return a

    cases = [
        ("nominal_x", lambda a: {"nominal_x": np.r_[x, np.zeros(5)]}),
        ("nominal_x", lambda a: {"nominal_x": x[:-6]}),
        ("nominal_u", lambda a: {"nominal_u": nan_at(u, 7)}),
        ("k must be", lambda a: {"k": nan_at(ctrl.k, 0)}),
        ("gain block at t=3", lambda a: {"diagonal": nan_at(a["diagonal"], 3)}),
        ("memory_cols", lambda a: {"memory_cols": a["memory_rows"]}),
        ("memory_rows", lambda a: {"memory_rows": np.r_[a["memory_rows"][:-1],
                                                        scenario.horizon + 1]}),
        ("memory_rows", lambda a: {"memory_rows": a["memory_rows"].astype(float)}),
        ("increasing", lambda a: {"memory_rows": swapped(a["memory_rows"]),
                                  "memory_cols": swapped(a["memory_cols"])}),
        ("diagonal", lambda a: {"diagonal": None}),
    ]
    for i, (match, change) in enumerate(cases):
        arrays = dict(good, **change(good))
        arrays = {key: v for key, v in arrays.items() if v is not None}
        bad = tmp_path / f"bad{i}.bin"
        with open(bad, "wb") as fh:
            np.savez(fh, **arrays)
        with pytest.raises(ValidationError, match=match):
            load_controller_artifact(bad)


def test_version_1_artifacts_are_rejected(tmp_path):
    path = tmp_path / "v1.bin"
    with open(path, "wb") as fh:
        np.savez(fh, format_version=np.array(1), kind=np.array("affine_memory"),
                 K=np.eye(2), k=np.zeros(2), row_block_dim=np.array(1),
                 col_block_dim=np.array(1))
    with pytest.raises(ValidationError, match="format version 1"):
        load_controller_artifact(path)
    with open(path, "wb") as fh:
        np.savez(fh, format_version=np.array(1), F_x=np.eye(2), F_u=np.eye(2),
                 x_d=np.zeros(2), u_d=np.zeros(2))
    with pytest.raises(ValidationError, match="format version 1"):
        load_maps_artifact(path)


def test_version_2_artifacts_are_rejected(tmp_path):
    # v2 maps held the dense F_x and F_u; v2 controllers are v3's layout
    path = tmp_path / "v2.bin"
    with open(path, "wb") as fh:
        np.savez(fh, format_version=np.array(2), F_x=np.eye(2), F_u=np.eye(2),
                 x_d=np.zeros(2), u_d=np.zeros(2))
    with pytest.raises(ValidationError, match="format version 2"):
        load_maps_artifact(path)
    good = _mug_maps_file(tmp_path)
    with open(path, "wb") as fh:
        np.savez(fh, **dict(good, format_version=np.array(2)))
    with pytest.raises(ValidationError, match="format version 2"):
        load_maps_artifact(path)
    ctrl_path = tmp_path / "controller.bin"
    write_controller_artifact(ctrl_path, OpenLoopController(np.zeros((3, 1)), 2))
    with np.load(ctrl_path) as data:
        arrays = dict(data, format_version=np.array(2))
    with open(ctrl_path, "wb") as fh:
        np.savez(fh, **arrays)
    with pytest.raises(ValidationError, match="format version 2"):
        load_controller_artifact(ctrl_path)


def test_trajectory_csv_deterministic_and_well_formed(tmp_path):
    r1 = run_scenario(bundled_scenario_path("mug_sugar"), seed=7,
                      out=tmp_path / "a", label="run")
    r2 = run_scenario(bundled_scenario_path("mug_sugar"), seed=7,
                      out=tmp_path / "b", label="run")
    csv1 = (tmp_path / "a" / "mug_sugar" / "run" / "trajectory.csv").read_bytes()
    csv2 = (tmp_path / "b" / "mug_sugar" / "run" / "trajectory.csv").read_bytes()
    assert csv1 == csv2
    assert r1["realized_cost"] == r2["realized_cost"]

    lines = csv1.decode().strip().split("\n")
    header = lines[0].split(",")
    assert header[0] == "t" and header[-1] == "cost_so_far"
    assert header[1:7] == [f"x_{i}" for i in range(6)]
    assert header[7:10] == [f"u_{i}" for i in range(3)]
    assert len(lines) == 1 + 101
    # replay fidelity: printed floats survive a parse round-trip exactly
    x_first = float(lines[1].split(",")[1])
    assert f"{x_first:.17g}" == lines[1].split(",")[1]


def test_isls_trace_csv(tmp_path):
    report = run_scenario(_arm_scenario(), seed=1, out=tmp_path, label="run",
                          trace=True)
    trace = (tmp_path / "arm_reach" / "run" / "trace.csv").read_text()
    lines = trace.strip().split("\n")
    assert lines[0] == "iteration,cost,delta_cost,alpha,step_norm"
    assert len(lines) == 1 + report["solver_info"]["iterations"]
    costs = [float(l.split(",")[1]) for l in lines[1:]]
    assert all(c2 < c1 for c1, c2 in zip(costs, costs[1:]))


def test_bench_mug_deterministic_under_zero_noise():
    overrides = {
        "noise.sigma_noise": [0.0] * 6,
        "initial_state": {"kind": "fixed",
                          "value": [0.1, -0.2, 0.12, 0.0, 0.0, 0.0]},
    }
    rep = bench_mug_sugar(trials=2, seed=3, overrides=overrides)
    a, b = rep.per_trial
    assert a["cost_esls"] == b["cost_esls"]
    assert a["cost_mpc_lqt"] == b["cost_mpc_lqt"]
    assert a["x0"] == b["x0"]


def test_bench_mug_summary_recomputable():
    rep = bench_mug_sugar(trials=3, seed=5)
    esls = [t["cost_esls"] for t in rep.per_trial]
    mpc = [t["cost_mpc_lqt"] for t in rep.per_trial]
    mean_e, std_e = BenchmarkReport.mean_std(esls)
    mean_m, std_m = BenchmarkReport.mean_std(mpc)
    assert rep.summary["esls"] == {"mean": mean_e, "std": std_e}
    assert rep.summary["mpc_lqt"] == {"mean": mean_m, "std": std_m}
    npt.assert_allclose(rep.summary["mean_cost_ratio"], mean_e / mean_m)
    assert rep.summary["esls_wins_all"] == all(t["esls_wins"] for t in rep.per_trial)
    assert rep.seeds == {"root": 5, "trials": 3}
    assert rep.config_sha256
    d = rep.to_dict()
    assert json.loads(json.dumps(d)) == d  # report is JSON-clean


def test_bench_adaptation_edits():
    rep = bench_adaptation(seed=0)
    assert len(rep.per_trial) == 3
    for entry in rep.per_trial:
        assert entry["feedforward_gap"] <= 1e-9
        assert entry["trajectory_gap_vs_resolve"] <= 1e-6
    noop = rep.per_trial[-1]
    assert noop["feedforward_gap"] <= 1e-9
    print("\nadapt vs resolve seconds:",
          rep.wall_clock["adapt_seconds_mean"],
          rep.wall_clock["resolve_seconds_mean"])


def _cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "slsctrl.cli", *args],
        capture_output=True, text=True)


def test_cli_solve_writes_artifacts(tmp_path):
    proc = _cli("solve", "--scenario", str(bundled_scenario_path("regulator_smoke")),
                "--seed", "0", "--out", str(tmp_path), "--label", "run")
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    out_dir = tmp_path / "regulator_smoke" / "run"
    assert payload["out_dir"] == str(out_dir)
    for name in ("controller.bin", "trajectory.csv", "report.json"):
        assert (out_dir / name).exists()


def test_cli_rejects_invalid_scenario(tmp_path):
    out_of_range = load_scenario(bundled_scenario_path("regulator_smoke")).raw
    out_of_range["cost"]["viapoints"][0]["t"] = 99
    # schema-valid, but no quadratic cost can be built from these two
    zero_control = load_scenario(bundled_scenario_path("mug_sugar")).raw
    zero_control["cost"]["control_weight"] = 0
    conflicting = load_scenario(bundled_scenario_path("mug_sugar")).raw
    first = conflicting["cost"]["viapoints"][0]
    conflicting["cost"]["viapoints"].append(
        dict(first, target=[v + 0.1 for v in first["target"]]))
    # joint limits of the 3-link arm: not numbers, one entry short, crossed
    limits = []
    for key, value in [("theta_lower", "abc"), ("theta_lower", [1.0]),
                       ("theta_upper", [-3.0, -3.0, -3.0])]:
        arm = load_scenario(bundled_scenario_path("pickplace_arm")).raw
        arm["plant"][key] = value
        limits.append((arm, "plant.theta_lower"))
    for i, (config, field_path) in enumerate([
            (out_of_range, "cost.viapoints[0].t"),
            (zero_control, "cost.control_weight"),
            (conflicting, "cost.viapoints[2].target"), *limits]):
        bad = tmp_path / f"bad{i}.json"
        bad.write_text(json.dumps(config))
        proc = _cli("solve", "--scenario", str(bad), "--out", str(tmp_path))
        assert proc.returncode == 2, proc.stderr
        err = json.loads(proc.stderr)
        assert err["error"] == "validation"
        assert field_path in err["message"]


def test_cli_reports_non_convergence(tmp_path):
    starved = tmp_path / "starved.json"
    starved.write_text(json.dumps(_arm_scenario(max_iterations=1)))
    proc = _cli("solve", "--scenario", str(starved), "--out", str(tmp_path))
    assert proc.returncode == 3
    err = json.loads(proc.stderr)
    assert err["error"] == "non_convergence"


def test_cli_adapt_roundtrip(tmp_path):
    mug = str(bundled_scenario_path("mug_sugar"))
    proc = _cli("solve", "--scenario", mug, "--seed", "0",
                "--out", str(tmp_path), "--label", "base")
    assert proc.returncode == 0, proc.stderr
    base = tmp_path / "mug_sugar" / "base"

    raw = load_scenario(mug).raw
    vp = next(v for v in raw["cost"]["viapoints"] if v["t"] == 70)
    new_target = list(vp["target"])
    new_target[0] += 0.25
    edit = json.dumps({"t": 70, "target": new_target})
    proc = _cli("adapt", "--scenario", mug,
                "--controller", str(base / "controller.bin"),
                "--maps", str(base / "maps.bin"),
                "--edit-json", edit,
                "--out", str(tmp_path), "--label", "edited")
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["feedforward_delta"] > 0

    adapted = load_controller_artifact(
        tmp_path / "mug_sugar" / "edited" / "controller_adapted.bin")
    maps, _, _ = load_maps_artifact(base / "maps.bin")
    new_cost = build_cost(Scenario.from_dict(
        apply_viapoint_edit(raw, 70, new_target)))
    npt.assert_allclose(adapted.k,
                        adapt_feedforward(maps, new_cost.x_d, new_cost.u_d),
                        atol=1e-12)
    original = load_controller_artifact(base / "controller.bin")
    npt.assert_array_equal(adapted.K.dense, original.K.dense)


def _drop_z(node):
    """mug_sugar's config in two dimensions: z dropped from every 6-vector."""
    if isinstance(node, dict):
        return {key: _drop_z(value) for key, value in node.items()}
    if isinstance(node, list) and len(node) == 6 and not isinstance(node[0], list):
        return [v for i, v in enumerate(node) if i not in (2, 5)]
    if isinstance(node, list):
        return [_drop_z(v) for v in node]
    return node


@pytest.fixture(scope="module")
def mug_artifacts(tmp_path_factory):
    """Solved artifacts of mug_sugar in three and in two dimensions (same horizon)."""
    out = tmp_path_factory.mktemp("artifacts")
    config = load_scenario(bundled_scenario_path("mug_sugar")).raw
    flat = dict(_drop_z(config), name="mug_sugar_2d", plant={"kind": "double_integrator",
                                                           "dim": 2})
    dirs = {}
    for label, cfg in (("3d", config), ("2d", flat)):
        dirs[label] = Path(run_scenario(cfg, seed=0, out=out, label=label)["out_dir"])
    return dirs


def test_cli_rollout_rejects_controller_of_other_dimensions(tmp_path, mug_artifacts):
    proc = _cli("rollout", "--scenario", str(bundled_scenario_path("mug_sugar")),
                "--controller", str(mug_artifacts["2d"] / "controller.bin"),
                "--out", str(tmp_path))
    assert proc.returncode == 2, proc.stderr
    err = json.loads(proc.stderr)
    assert err["error"] == "validation"
    assert "controller state_dim 4 does not match scenario state_dim 6" in err["message"]


def test_cli_adapt_rejects_artifacts_of_other_dimensions(tmp_path, mug_artifacts):
    mug = str(bundled_scenario_path("mug_sugar"))
    raw = load_scenario(mug).raw
    edit = json.dumps({"t": 70, "target": raw["cost"]["viapoints"][1]["target"]})
    open_loop = tmp_path / "open_loop.bin"
    write_controller_artifact(open_loop, OpenLoopController(np.zeros((101, 3)), 6))
    for controller, maps, message in [
            (mug_artifacts["2d"] / "controller.bin", "2d",
             "controller state_dim 4 does not match scenario state_dim 6"),
            (mug_artifacts["3d"] / "controller.bin", "2d",
             "maps state_dim 4 does not match scenario state_dim 6"),
            (open_loop, "3d", "open-loop controller has no feedforward")]:
        proc = _cli("adapt", "--scenario", mug, "--controller", str(controller),
                    "--maps", str(mug_artifacts[maps] / "maps.bin"),
                    "--edit-json", edit, "--out", str(tmp_path))
        assert proc.returncode == 2, proc.stderr
        err = json.loads(proc.stderr)
        assert err["error"] == "validation"
        assert message in err["message"]


def test_cli_help_lists_subcommands():
    proc = _cli("--help")
    assert proc.returncode == 0
    for name in ("solve", "rollout", "bench", "adapt"):
        assert name in proc.stdout
    proc = _cli("bench", "--help")
    for name in ("mug-sugar", "pickplace", "adapt"):
        assert name in proc.stdout
