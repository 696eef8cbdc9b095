"""Scenario files, artifacts, benchmark reports, and the command line."""

import copy
import json
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import numpy.testing as npt
import pytest

from slsctrl import (
    Controller,
    CostSpec,
    TrackingObjective,
    adapt_feedforward,
    add_correlation,
    bench_adaptation,
    bench_mug_sugar,
    build_viapoint_cost,
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
    MAX_HORIZON,
    MAX_PLANT_DIM,
    Scenario,
    ValidationError,
    build_cost,
    build_noise,
    build_objective,
    build_plant,
    config_sha256,
    correlation_residuals,
    draw_initial_state,
    isls_config,
    load_controller_artifact,
    load_maps_artifact,
    load_scenario,
    run_scenario,
    scenario_from,
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


def test_integer_too_large_for_a_float_names_field(tmp_path):
    # float(10**400) and np.array([10**400], dtype=float) raise OverflowError
    huge = 10**400
    weight = load_scenario(bundled_scenario_path("mug_sugar")).raw
    weight["cost"]["control_weight"] = huge
    target = load_scenario(bundled_scenario_path("mug_sugar")).raw
    target["cost"]["viapoints"][0]["target"][2] = huge
    for config, field_path in [(weight, "cost.control_weight"),
                               (target, "cost.viapoints[0].target[2]")]:
        with pytest.raises(ValidationError, match=re.escape(field_path)
                           + ": expected a finite number, got an integer too large"):
            Scenario.from_dict(config)
        bad = tmp_path / "huge.json"
        bad.write_text(json.dumps(config))
        _assert_validation_error(_cli("solve", "--scenario", str(bad), "--out", str(tmp_path)),
                                 field_path)
    # an integer of more digits than Python parses from text fails in json itself
    bad.write_text(json.dumps(weight).replace(str(huge), "1" + "0" * 5000))
    with pytest.raises(ValidationError, match="invalid JSON"):
        load_scenario(bad)


def test_wrong_types_of_kind_and_lists_name_the_field(tmp_path):
    # an unhashable plant.kind and a non-list viapoints, correlations or
    # perturbations used to escape as a bare TypeError
    cases = []
    for kind in ([1], {"kind": "linear"}):
        config = load_scenario(bundled_scenario_path("mug_sugar")).raw
        config["plant"]["kind"] = kind
        cases.append((config, "plant.kind: unknown kind"))
    for section, key in [("cost", "viapoints"), ("cost", "correlations"), (None, "perturbations")]:
        for value in (3, 2.5, True, None):
            config = load_scenario(bundled_scenario_path("mug_sugar")).raw
            (config[section] if section else config)[key] = value
            path = f"{section}.{key}" if section else key
            cases.append((config, f"{path}: expected a list, got {type(value).__name__}"))
    for config, message in cases:
        with pytest.raises(ValidationError, match=re.escape(message)):
            Scenario.from_dict(config)
    for config, message in cases[::4]:
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(config))
        _assert_validation_error(_cli("solve", "--scenario", str(bad), "--out", str(tmp_path)),
                                 message)


def test_plant_dim_and_horizon_have_a_maximum(tmp_path):
    config = load_scenario(bundled_scenario_path("mug_sugar")).raw
    config["horizon"] = MAX_HORIZON
    assert Scenario.from_dict(config).horizon == MAX_HORIZON
    # a huge value is quoted as at most 60 characters; an integer of more
    # digits than repr allows (sys.get_int_max_str_digits) is named by that bound
    giant = f"<integer of over {sys.get_int_max_str_digits()} digits>"
    cases = []
    for path, maximum in (("scenario.horizon", MAX_HORIZON), ("plant.dim", MAX_PLANT_DIM)):
        for value, message in [
                (maximum + 1, f"{maximum + 1} above maximum {maximum}"),
                (10**400, f"1{'0' * 56}... above maximum {maximum}"),
                (10**5000, f"{giant} above maximum {maximum}"),
                (-10**5000, f"-{giant} below minimum 1"),
                ([10**5000], f"expected an integer, got [{giant}]")]:
            config = load_scenario(bundled_scenario_path("mug_sugar")).raw
            if path == "plant.dim":
                config["plant"]["dim"] = value
            else:
                config["horizon"] = value
            cases.append((config, f"{path}: {message}"))
    config = load_scenario(bundled_scenario_path("mug_sugar")).raw
    config["cost"]["viapoints"] = [10**5000]
    cases.append((config, "cost.viapoints[0]: expected an object, got int"))
    config = load_scenario(bundled_scenario_path("mug_sugar")).raw
    config["plant"]["kind"] = [10**5000]
    cases.append((config, f"plant.kind: unknown kind [{giant}]; expected one of "
                          "['double_integrator', 'linear', 'planar_arm']"))
    for config, message in cases:
        with pytest.raises(ValidationError, match=re.escape(message) + "$"):
            Scenario.from_dict(config)
    # json reads no integer of that many digits, so the CLI sees only 10**400
    for config, message in cases[1:10:5]:
        bad = tmp_path / "big.json"
        bad.write_text(json.dumps(config))
        _assert_validation_error(_cli("solve", "--scenario", str(bad), "--out", str(tmp_path)),
                                 message)


def test_messages_quote_at_most_sixty_characters_of_a_value():
    # a long bad value is cut to 57 characters and '...'; a short one is whole
    matrix, name = np.eye(14).tolist(), "a/" * 40
    cases = []
    for value, quoted in [(matrix, repr(matrix)[:57] + "..."), ([1.0] * 3, "[1.0, 1.0, 1.0]")]:
        config = load_scenario(bundled_scenario_path("pickplace_arm")).raw
        config["horizon"] = value
        cases.append((config, f"scenario.horizon: expected an integer, got {quoted}"))
        config = load_scenario(bundled_scenario_path("pickplace_arm")).raw
        config["plant"]["kind"] = value
        cases.append((config, f"plant.kind: unknown kind {quoted}; expected one of"))
    config = load_scenario(bundled_scenario_path("pickplace_arm")).raw
    config["name"] = name
    cases.append((config, "scenario.name: expected one path component, got "
                          + repr(name)[:57] + "..."))
    for config, message in cases:
        with pytest.raises(ValidationError) as info:
            Scenario.from_dict(config)
        assert str(info.value).startswith(message)


def test_bad_vectors_name_the_element():
    for value, message in [
            ("x", "expected a number, got 'x'"),
            (True, "expected a number, got True"),
            (float("nan"), "expected a finite number, got nan"),
            (float("-inf"), "expected a finite number, got -inf")]:
        config = load_scenario(bundled_scenario_path("mug_sugar")).raw
        config["cost"]["viapoints"][0]["target"][2] = value
        with pytest.raises(ValidationError) as info:
            Scenario.from_dict(config)
        assert str(info.value) == f"cost.viapoints[0].target[2]: {message}"
    for target, message in [
            ([0.0, [1.0], 0.0, 0.0, 0.0, 0.0], "expected a flat list of numbers"),
            ([0.0] * 5, "expected length 6, got 5"),
            (np.zeros(6), "expected a flat list of numbers")]:
        config = load_scenario(bundled_scenario_path("mug_sugar")).raw
        config["cost"]["viapoints"][0]["target"] = target
        with pytest.raises(ValidationError) as info:
            Scenario.from_dict(config)
        assert str(info.value) == f"cost.viapoints[0].target: {message}"
    # numbers of other types than int and float take the element walk and
    # are read as before: a float subclass passes, a numpy integer does not
    config = load_scenario(bundled_scenario_path("mug_sugar")).raw
    config["cost"]["viapoints"][0]["target"][1] = np.float64(0.25)
    assert Scenario.from_dict(config).viapoints[0][1][1] == 0.25
    config["cost"]["viapoints"][0]["target"][1] = np.int64(1)
    with pytest.raises(ValidationError, match=r"target\[1\]: expected a number"):
        Scenario.from_dict(config)


def _shares_mutable(a, b):
    """Whether two JSON documents share a dict or a list."""
    def containers(node, out):
        if isinstance(node, (dict, list)):
            out.add(id(node))
            for child in (node.values() if isinstance(node, dict) else node):
                containers(child, out)
        return out
    return bool(containers(a, set()) & containers(b, set()))


def test_config_copies_share_nothing_mutable():
    source = load_scenario(bundled_scenario_path("mug_sugar")).raw
    pristine = copy.deepcopy(source)
    scenario = Scenario.from_dict(source)
    edited = apply_viapoint_edit(source, 70, [0.1] * 6)
    for other in (scenario.raw, scenario.to_dict(), edited):
        assert not _shares_mutable(source, other)
    assert not _shares_mutable(scenario.raw, scenario.to_dict())
    # mutating a copy leaves the source as it was, and the other way round
    scenario.to_dict()["cost"]["viapoints"][0]["target"][0] = 9.0
    edited["cost"]["correlations"][0]["weight"][0] = 9.0
    edited["noise"]["sigma_noise"].append(1.0)
    assert source == pristine and scenario.raw == pristine
    source["cost"]["viapoints"][1]["target"][0] = 7.0
    source["metadata"]["task"] = "stir"
    assert scenario.raw == pristine and edited["metadata"]["task"] == "pour"
    # a value that is not JSON is deep-copied, not shared (from_dict then
    # rejects it as metadata, which the reports could not write)
    with_array = dict(pristine, metadata={"offset": np.zeros(3)})
    copied = slsctrl.scenarios._json_copy(with_array)["metadata"]["offset"]
    assert copied is not with_array["metadata"]["offset"]
    npt.assert_array_equal(copied, np.zeros(3))
    with pytest.raises(ValidationError, match="scenario.metadata: cannot be written as JSON"):
        Scenario.from_dict(with_array)


def test_apply_viapoint_edit_matches_deepcopy_reference():
    source = load_scenario(bundled_scenario_path("mug_sugar")).raw
    source["cost"]["viapoints"].append(dict(copy.deepcopy(source["cost"]["viapoints"][1]),
                                            weight=5.0))   # a duplicate at t=70
    rng = np.random.default_rng(3)
    for t in (20, 70):
        target = rng.normal(size=6)
        reference = copy.deepcopy(source)
        for vp in reference["cost"]["viapoints"]:
            if vp["t"] == t:
                vp["target"] = [float(v) for v in target]
        edited = apply_viapoint_edit(source, t, target)
        assert edited == reference
        assert json.dumps(edited) == json.dumps(reference)
    for t in (0, 21, 100):
        with pytest.raises(ValueError, match=f"no viapoint at t={t} to edit"):
            apply_viapoint_edit(source, t, np.zeros(6))


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


def test_removed_plant_flags_are_unknown_keys():
    # the double integrator is explicit Euler and the arm's end-effector
    # velocity reads x_t only; neither has a switch any more
    for name, key in [("mug_sugar", "exact_discretization"),
                      ("pickplace_arm", "consistent_velocity")]:
        for value in [True, False]:
            config = load_scenario(bundled_scenario_path(name)).raw
            config["plant"][key] = value
            with pytest.raises(ValidationError, match=rf"plant: unknown key\(s\) \['{key}'\]"):
                Scenario.from_dict(config)


def _built(scenario, solver):
    """What every builder makes of a scenario, as a flat list of values and arrays."""
    plant = build_plant(scenario)
    x, u = np.linspace(-0.5, 0.5, plant.state_dim), np.linspace(0.3, -0.3, plant.input_dim)
    noise = build_noise(scenario)
    rng = np.random.default_rng(0)
    x0 = draw_initial_state(scenario, rng, plant)
    cost = build_cost(scenario)
    out = [plant.name, plant.step(0, x, u), noise.mu_x0, noise.sigma_x0, noise.sigma_noise,
           x0, rng.random(), cost.x_d, cost.u_d, cost.R,
           *(c.C for c in build_objective(scenario).correlations)]
    if solver == "isls":
        out += list(vars(isls_config(scenario)).values())
    residuals = correlation_residuals(scenario, SimpleNamespace(
        states=np.tile(x0, (scenario.horizon + 1, 1))))
    return out + [r["residual"] for r in residuals]


def test_builders_read_the_parsed_scenario(monkeypatch):
    # from_dict is the only parse: with the number and vector parsers broken
    # and the noise, initial_state and solver sections of the JSON replaced by
    # garbage afterwards, every builder gives bit for bit what it gave before
    scenarios = [load_scenario(bundled_scenario_path(name))
                 for name in ("regulator_smoke", "mug_sugar", "pickplace_arm")]
    solvers = [scenario.solver["kind"] for scenario in scenarios]
    before = [_built(scenario, solver) for scenario, solver in zip(scenarios, solvers)]

    def no_parse(value, path, *args):
        raise AssertionError(f"{path} parsed again after from_dict")

    monkeypatch.setattr(slsctrl.scenarios, "_as_float", no_parse)
    monkeypatch.setattr(slsctrl.scenarios, "_as_vector", no_parse)
    garbage = dict.fromkeys(("kind", "mu_x0", "sigma_x0", "sigma_noise", "value", "center",
                             "halfwidth", "theta", "theta_dot", "perturb_theta", "tolerance",
                             "max_iterations", "regularization", "hessian_floor",
                             "stationarity_tolerance", "recompute_time"), "garbage")
    for scenario, solver, expected in zip(scenarios, solvers, before):
        for key in ("noise", "initial_state", "solver"):
            section = scenario.raw.setdefault(key, {})   # the views are these dicts
            section.clear()
            section.update(garbage)
        assert scenario.initial_state["kind"] == "garbage"
        m, n = scenario.state_dim, scenario.input_dim
        plant = build_plant(scenario)
        assert (plant.state_dim, plant.input_dim) == (m, n)
        cost = build_cost(scenario)
        assert cost.x_d.size == m * (scenario.horizon + 1) and cost.R.shape[1] == n
        assert build_objective(scenario).correlations == scenario.correlations
        assert build_noise(scenario).state_dim == m
        states = np.zeros((scenario.horizon + 1, m))
        residuals = correlation_residuals(scenario, SimpleNamespace(states=states))
        assert len(residuals) == len(scenario.correlations)
        for a, b in zip(_built(scenario, solver), expected, strict=True):
            npt.assert_array_equal(a, b)


def _chained_cost(scenario):
    """The scenario's cost through the public builders, one add_correlation per correlation."""
    cost = build_viapoint_cost(scenario.horizon, scenario.viapoints, scenario.control_weight,
                               state_dim=scenario.state_dim, input_dim=scenario.input_dim)
    for corr in scenario.correlations:
        cost = add_correlation(cost, corr)
    return cost


def _assert_same_bits(a, b):
    assert (a.dtype, a.shape) == (b.dtype, b.shape) and a.tobytes() == b.tobytes()


def _assert_same_cost(got, expected):
    assert list(got.Q) == list(expected.Q)
    for key, block in expected.Q.items():
        _assert_same_bits(got.Q[key], block)
    for name in ("_lin", "x_d", "R", "u_d"):
        _assert_same_bits(getattr(got, name), getattr(expected, name))
    assert [t for t, _, _ in got.viapoints] == [t for t, _, _ in expected.viapoints]
    for (_, *arrays), (_, *reference) in zip(got.viapoints, expected.viapoints, strict=True):
        for a, b in zip(arrays, reference):
            _assert_same_bits(a, b)
    assert len(got.correlations) == len(expected.correlations)
    for a, b in zip(got.correlations, expected.correlations):
        assert (a.t1, a.t2) == (b.t1, b.t2)
        for name in ("C", "c", "Q_c"):
            _assert_same_bits(getattr(a, name), getattr(b, name))


def _weight(rng, m, psd=False):
    """A scalar, a diagonal list or a full symmetric matrix, at random."""
    form = rng.integers(3)
    if form == 0:
        return float(rng.uniform(0.5, 50.0))
    if form == 1:
        return (rng.uniform(0.5, 50.0, m) * (rng.random(m) < 0.7 if psd else 1.0)).tolist()
    L = rng.normal(size=(m, m))
    return (L @ L.T + (0.0 if psd else 0.5) * np.eye(m)).tolist()


def _times(rng, layout, n, T):
    """(t1, t2) of n correlations: random, one shared t1, a chain, or nested intervals."""
    if layout == "random":
        return [tuple(sorted(rng.choice(T + 1, 2, replace=False).tolist())) for _ in range(n)]
    ts = sorted(rng.choice(T + 1, 2 * n, replace=False).tolist())
    if layout == "shared":
        return [(ts[0], t2) for t2 in ts[-n:]]
    if layout == "chain":
        return list(zip(ts[:n], ts[1:n + 1]))
    return [(ts[i], ts[-1 - i]) for i in range(n)]   # nested


def _cost_config(rng, n_corr, layout):
    d, T = int(rng.integers(1, 4)), int(rng.integers(12, 40))
    m = 2 * d
    vps = []
    for t in rng.choice(T + 1, int(rng.integers(1, 5)), replace=False).tolist():
        target = rng.normal(size=m).tolist()
        vps.append({"t": t, "target": target, "weight": _weight(rng, m)})
        if rng.random() < 0.3:   # a repeated timestep with the same target
            vps.append({"t": t, "target": target, "weight": _weight(rng, m, psd=True)})
    corrs = []
    for t1, t2 in _times(rng, layout, n_corr, T):
        corr = {"t1": t1, "t2": t2, "weight": _weight(rng, m, psd=True),
                "C": ["identity", {"diag": rng.uniform(0.5, 1.5, m).tolist()},
                      (np.eye(m) + 0.1 * rng.normal(size=(m, m))).tolist()][rng.integers(3)]}
        if rng.random() < 0.5:
            corr["c"] = rng.normal(size=m).tolist()
        corrs.append(corr)
    return {"name": "cost_check", "horizon": T, "dt": 0.05,
            "plant": {"kind": "double_integrator", "dim": d},
            "cost": {"control_weight": _weight(rng, d), "viapoints": vps,
                     "correlations": corrs},
            "solver": {"kind": "esls"}}


def test_build_cost_is_the_chained_public_builders_bit_for_bit():
    # build_cost assembles in place what build_viapoint_cost and one
    # add_correlation per correlation build: the same Q keys in the same
    # order, the same bits in every block, target and record
    for name in ("regulator_smoke", "mug_sugar", "pickplace_arm"):
        scenario = load_scenario(bundled_scenario_path(name))
        _assert_same_cost(build_cost(scenario), _chained_cost(scenario))
    rng = np.random.default_rng(20)
    for i in range(48):
        layout = ("random", "shared", "chain", "nested")[i % 4]
        config = _cost_config(rng, (i // 4) % 4 if layout == "random" else 2 + (i // 4) % 2,
                              layout)
        vp = config["cost"]["viapoints"][-1]
        edited = apply_viapoint_edit(config, vp["t"], rng.normal(size=len(vp["target"])))
        for source in (config, edited):
            scenario = Scenario.from_dict(source)
            _assert_same_cost(build_cost(scenario), _chained_cost(scenario))


def test_build_cost_factors_an_isls_control_weight():
    # from_dict factors R for every solver but isls, so build_cost does it there
    config = load_scenario(bundled_scenario_path("mug_sugar")).raw
    config["cost"]["control_weight"] = [0.01, 0.0, 0.01]
    config["solver"] = {"kind": "isls"}
    scenario = Scenario.from_dict(config)
    for build in (build_cost, _chained_cost):
        with pytest.raises(ValueError, match="control weight is not positive definite"):
            build(scenario)


def test_build_cost_copies_no_cost_and_refreshes_each_component_once(monkeypatch):
    # three correlations in two coupled components, {20, 60, 100} and {70, 90}
    config = load_scenario(bundled_scenario_path("mug_sugar")).raw
    corr = config["cost"]["correlations"][0]
    config["cost"]["correlations"] += [dict(corr, t2=60), dict(corr, t1=70, t2=90)]
    scenario = Scenario.from_dict(config)
    calls = []
    copy_cost, refresh = CostSpec.copy, CostSpec._refresh_targets
    monkeypatch.setattr(CostSpec, "copy",
                        lambda self: calls.append("copy") or copy_cost(self))
    monkeypatch.setattr(CostSpec, "_refresh_targets",
                        lambda self, t: calls.append(("refresh", t)) or refresh(self, t))
    cost = build_cost(scenario)
    assert calls == [("refresh", 20), ("refresh", 70)]
    calls.clear()
    _assert_same_cost(cost, _chained_cost(scenario))
    assert calls.count("copy") == 3 and len(calls) == 6


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
    # esls (held states), dp-lqt (none), isls (nominals) and dense-K
    # controllers come back with the same blocks and the same rollouts, bit
    # for bit, with inverse step Hessians exactly when the source had them
    scenario, plant, cost, system = _mug()
    ctrl = extract_controller(solve_esls(system, cost))
    x0 = np.asarray(scenario.initial_state["center"], float)
    isls_ctrl, _ = isls_optimize(plant, TrackingObjective.from_costspec(cost), x0)
    assert any(ctrl.held) and isls_ctrl.nominal_x is not None
    for label, original in [("esls", ctrl), ("isls", isls_ctrl),
                            ("dp-lqt", dp_lqt(system, cost.diagonal_projection())),
                            ("dense-K", Controller(ctrl.K, ctrl.k))]:
        path = tmp_path / f"{label}.bin"
        write_controller_artifact(path, original)
        loaded = load_controller_artifact(path)
        assert loaded.held == original.held
        for a, b in zip(loaded.gains, original.gains, strict=True):
            npt.assert_array_equal(a, b)
        npt.assert_array_equal(loaded.K.dense, original.K.dense)
        npt.assert_array_equal(loaded.k, original.k)
        assert (loaded.hessian_inv is None) == (label == "dense-K")
        if label != "dense-K":
            npt.assert_array_equal(loaded.hessian_inv, original.hessian_inv)
        assert (loaded.nominal_x is None) == (label != "isls")
        if label == "isls":
            npt.assert_array_equal(loaded.nominal_x, original.nominal_x)
            npt.assert_array_equal(loaded.nominal_u, original.nominal_u)
        runs = [rollout(plant, c, noise=build_noise(scenario), seed=3, x0=x0)
                for c in (original, loaded)]
        npt.assert_array_equal(runs[1].states, runs[0].states)
        npt.assert_array_equal(runs[1].inputs, runs[0].inputs)

    maps = precompute_gain_maps(system, cost, ctrl)
    mpath = tmp_path / "maps.bin"
    write_maps_artifact(mpath, maps, cost)
    loaded_maps, x_d, u_d = load_maps_artifact(mpath)
    law = loaded_maps.controller
    assert law.held == ctrl.held
    for a, b in zip(law.gains, ctrl.gains, strict=True):
        npt.assert_array_equal(a, b)
    npt.assert_array_equal(law.k, ctrl.k)
    npt.assert_array_equal(law.hessian_inv, ctrl.hessian_inv)
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
    maps = precompute_gain_maps(system, cost, extract_controller(solve_esls(system, cost)))
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
             ("gain block at t=0", {"diagonal": nan_at(good["diagonal"], 3)}),
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
    truncated = tmp_path / "truncated.bin"
    truncated.write_bytes((tmp_path / "maps.bin").read_bytes()[:2000])
    with pytest.raises(ValidationError, match="maps artifact .*truncated.bin"):
        load_maps_artifact(truncated)


def _open_loop_arrays(inputs, state_dim):
    """The arrays of an input-plan controller.bin as batch-lqt solves once wrote it."""
    return {"format_version": np.array(4), "kind": np.array("open_loop"),
            "inputs": np.asarray(inputs, float), "state_dim": np.array(state_dim)}


def test_controller_loader_rejects_missing_version_and_nan_inputs(tmp_path):
    # an input plan is written as the affine law with zero gains
    path = tmp_path / "plan.bin"
    write_controller_artifact(path, Controller.open_loop(np.ones((4, 2)), 3))
    with np.load(path) as data:
        good = dict(data)
    assert str(good["kind"]) == "affine_memory"
    npt.assert_array_equal(load_controller_artifact(path).k, np.ones(8))
    k = good["k"].copy()
    k[5] = np.nan
    for match, arrays in [("k must be 8 finite numbers", dict(good, k=k)),
                          ("format_version", {k: v for k, v in good.items()
                                              if k != "format_version"})]:
        with open(path, "wb") as fh:
            np.savez(fh, **arrays)
        with pytest.raises(ValidationError, match=match):
            load_controller_artifact(path)


def test_open_loop_artifact_of_an_earlier_version_is_rejected(tmp_path):
    # version 4 still named input plans "open_loop"; version 5 writes every
    # law as affine_memory and knows no other kind
    path = tmp_path / "open_loop.bin"
    arrays = _open_loop_arrays(np.ones((4, 2)), 3)
    for version, match in [(4, "format version 4"), (5, "unknown kind 'open_loop'")]:
        with open(path, "wb") as fh:
            np.savez(fh, **dict(arrays, format_version=np.array(version)))
        with pytest.raises(ValidationError, match=match):
            load_controller_artifact(path)


def test_tampered_controller_artifact_names_field(tmp_path):
    scenario, plant, cost, system = _mug()
    ctrl = extract_controller(solve_esls(system, cost))
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
    truncated = tmp_path / "truncated.bin"
    truncated.write_bytes(path.read_bytes()[:2000])
    with pytest.raises(ValidationError, match="controller artifact .*truncated.bin"):
        load_controller_artifact(truncated)


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
    # v2 maps held the dense F_x and F_u; v3 maps held no law kind or k and
    # v3 controllers no inverse step Hessians, otherwise v4's layout, which
    # is today's but for the open_loop plans it also named
    path = tmp_path / "v2.bin"
    with open(path, "wb") as fh:
        np.savez(fh, format_version=np.array(2), F_x=np.eye(2), F_u=np.eye(2),
                 x_d=np.zeros(2), u_d=np.zeros(2))
    with pytest.raises(ValidationError, match="format version 2"):
        load_maps_artifact(path)
    good = _mug_maps_file(tmp_path)
    law_keys = ("kind", "k", "diagonal", "memory_blocks", "memory_rows", "memory_cols")
    open_loop = _open_loop_arrays(np.zeros((3, 1)), 2)
    for version, maps, controllers in [
            (2, good, [open_loop]),
            (3, {key: v for key, v in good.items() if key not in ("kind", "k")},
             [open_loop, {key: good[key] for key in law_keys}]),
            (4, good, [open_loop, {key: good[key] for key in law_keys}])]:
        for loader, arrays in [(load_maps_artifact, maps),
                               *((load_controller_artifact, c) for c in controllers)]:
            with open(path, "wb") as fh:
                np.savez(fh, **dict(arrays, format_version=np.array(version)))
            with pytest.raises(ValidationError, match=f"format version {version}"):
                loader(path)


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
    assert lines[0] == "iteration,cost,delta_cost,alpha,step_norm,second_order"
    assert len(lines) == 1 + report["solver_info"]["iterations"]
    assert {l.split(",")[-1] for l in lines[1:]} <= {"0", "1"}
    costs = [float(l.split(",")[1]) for l in lines[1:]]
    assert all(c2 < c1 for c1, c2 in zip(costs, costs[1:]))


def test_bench_mug_deterministic_under_zero_noise():
    config = load_scenario(bundled_scenario_path("mug_sugar")).raw
    config["noise"]["sigma_noise"] = [0.0] * 6
    config["initial_state"] = {"kind": "fixed", "value": [0.1, -0.2, 0.12, 0.0, 0.0, 0.0]}
    rep = bench_mug_sugar(trials=2, seed=3, scenario_path=config)
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
    # edits from Python are parsed as strictly as --edit-json: t=70.9 was
    # truncated to 70 and t=True read as 1
    for t in (70.9, True):
        with pytest.raises(ValidationError, match=rf"target_edits\[0\]\.t: expected an integer, "
                                                  rf"got {t}"):
            bench_adaptation(target_edits=[{"t": t, "target": [0.0] * 6}])


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
    # every solver kind but isls needs a linear plant, which the arm is not
    linear_only = []
    for solver in ({"kind": "dp-lqt"}, {"kind": "batch-lqt"},
                   {"kind": "mpc-lqt", "recompute_time": 50}):
        arm = load_scenario(bundled_scenario_path("pickplace_arm")).raw
        arm["solver"] = solver
        linear_only.append((arm, f"solver.kind: {solver['kind']} requires a linear plant"))
    for i, (config, field_path) in enumerate([
            (out_of_range, "cost.viapoints[0].t"),
            (zero_control, "cost.control_weight"),
            (conflicting, "cost.viapoints[2].target"), *limits, *linear_only]):
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
    # a failed run writes nothing: no arm_reach/<timestamp> directory, empty or not
    assert [p.name for p in tmp_path.iterdir()] == ["starved.json"]


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
    """Solved artifacts of mug_sugar in three and in two dimensions (same horizon),
    and in three with a tenfold control weight."""
    out = tmp_path_factory.mktemp("artifacts")
    config = load_scenario(bundled_scenario_path("mug_sugar")).raw
    flat = dict(_drop_z(config), name="mug_sugar_2d", plant={"kind": "double_integrator",
                                                           "dim": 2})
    tenfold = json.loads(json.dumps(config))
    tenfold["cost"]["control_weight"] *= 10
    dirs = {}
    for label, cfg in (("3d", config), ("2d", flat), ("tenfold", tenfold)):
        dirs[label] = Path(run_scenario(cfg, seed=0, out=out, label=label)["out_dir"])
    return dirs


def _truncated_maps(tmp_path, mug_artifacts):
    """The first 2000 bytes of a valid maps.bin."""
    truncated = tmp_path / "truncated.bin"
    truncated.write_bytes((mug_artifacts["3d"] / "maps.bin").read_bytes()[:2000])
    return truncated


def _assert_validation_error(proc, message):
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.count("\n") == 1
    err = json.loads(proc.stderr)
    assert err["error"] == "validation"
    assert message in err["message"]


def test_cli_rollout_rejects_controller_of_other_dimensions(tmp_path, mug_artifacts):
    truncated = _truncated_maps(tmp_path, mug_artifacts)
    for controller, message in [
            (mug_artifacts["2d"] / "controller.bin",
             "controller state_dim 4 does not match scenario state_dim 6"),
            (truncated, f"controller artifact {truncated}")]:
        proc = _cli("rollout", "--scenario", str(bundled_scenario_path("mug_sugar")),
                    "--controller", str(controller), "--out", str(tmp_path))
        _assert_validation_error(proc, message)


def test_cli_rollout_checks_the_gains_of_esls_and_dp_lqt_laws(tmp_path, mug_artifacts):
    # a law solved for a tenfold control weight reads 0.82; genuine laws about 1e-13
    mug = str(bundled_scenario_path("mug_sugar"))
    config = load_scenario(mug).raw
    config["solver"] = {"kind": "dp-lqt"}
    dp_file = tmp_path / "mug_dp.json"
    dp_file.write_text(json.dumps(config))
    config["cost"]["control_weight"] *= 10
    dp_dirs = {label: Path(run_scenario(cfg, seed=0, out=tmp_path, label=label)["out_dir"])
               for label, cfg in (("dp", load_scenario(dp_file).raw), ("dp_tenfold", config))}
    for scenario, genuine, tenfold in [
            (mug, mug_artifacts["3d"], mug_artifacts["tenfold"]),
            (str(dp_file), dp_dirs["dp"], dp_dirs["dp_tenfold"])]:
        proc = _cli("rollout", "--scenario", scenario, "--controller",
                    str(genuine / "controller.bin"), "--out", str(tmp_path), "--label", "ok")
        assert proc.returncode == 0, proc.stderr
        proc = _cli("rollout", "--scenario", scenario, "--controller",
                    str(tenfold / "controller.bin"), "--out", str(tmp_path))
        _assert_validation_error(proc, "exceeds 1e-08: the law was solved for other")


def test_cli_rollout_replays_a_batch_lqt_plan(tmp_path):
    # the plan is a zero-gain law in controller.bin; a rollout with the
    # solve's seed gives the solve's states and inputs, bit for bit
    config = load_scenario(bundled_scenario_path("mug_sugar")).raw
    config["solver"] = {"kind": "batch-lqt"}
    path = tmp_path / "mug_batch.json"
    path.write_text(json.dumps(config))
    solved = Path(run_scenario(path, seed=4, out=tmp_path, label="solve")["out_dir"])
    proc = _cli("rollout", "--scenario", str(path), "--controller",
                str(solved / "controller.bin"), "--seed", "4", "--out", str(tmp_path),
                "--label", "replay")
    assert proc.returncode == 0, proc.stderr
    # every column but the cost so far, as written (%.17g)
    rows = [[line.rsplit(",", 1)[0] for line in (d / "trajectory.csv").read_text().split()]
            for d in (solved, solved.parent / "replay")]
    assert len(rows[0]) == config["horizon"] + 2 and rows[1] == rows[0]


def test_cli_adapt_rejects_artifacts_of_other_dimensions(tmp_path, mug_artifacts):
    mug = str(bundled_scenario_path("mug_sugar"))
    raw = load_scenario(mug).raw
    edit = json.dumps({"t": 70, "target": raw["cost"]["viapoints"][1]["target"]})
    truncated = _truncated_maps(tmp_path, mug_artifacts)
    flat, tenfold = mug_artifacts["2d"], mug_artifacts["tenfold"]
    for maps, message in [
            (flat / "maps.bin", "maps state_dim 4 does not match scenario state_dim 6"),
            (truncated, f"maps artifact {truncated}"),
            # the law of a solve with a tenfold control weight, not the one
            # the scenario's weights give
            (tenfold / "maps.bin", "gain_stationarity")]:
        proc = _cli("adapt", "--scenario", mug, "--maps", str(maps), "--edit-json", edit,
                    "--out", str(tmp_path))
        _assert_validation_error(proc, message)


def test_cli_adapt_parses_edits_as_viapoints(tmp_path, mug_artifacts):
    # each of these crashed with a traceback, moved t, or was ignored
    mug, base = str(bundled_scenario_path("mug_sugar")), mug_artifacts["3d"]
    zeros = [0, 0, 0, 0, 0, 0]
    for edit, message in [
            ({"t": None, "target": zeros}, "--edit-json.t: expected an integer, got None"),
            ({"t": 70, "target": {"a": 1}}, "--edit-json.target: expected a flat list"),
            ({"t": True, "target": zeros}, "--edit-json.t: expected an integer, got True"),
            ({"t": 70.9, "target": zeros}, "--edit-json.t: expected an integer, got 70.9"),
            ({"t": 70, "target": zeros, "at": 3}, "--edit-json: unknown key(s) ['at']"),
            ({"t": 71, "target": zeros}, "--edit-json.t: no viapoint at t=71 to edit")]:
        proc = _cli("adapt", "--scenario", mug, "--maps", str(base / "maps.bin"),
                    "--edit-json", json.dumps(edit), "--out", str(tmp_path))
        _assert_validation_error(proc, message)
    for edits, message in [
            ([{"t": None, "target": zeros}], "target_edits[0].t: expected an integer, got None"),
            ([{"t": 5, "target": zeros}], "target_edits[0].t: no viapoint at t=5 to edit"),
            ([{"t": 70, "target": zeros, "at": 101}], "target_edits[0].at: 101 above maximum"),
            ({"t": 70, "target": zeros}, "target_edits: expected a list, got dict")]:
        proc = _cli("bench", "adapt", "--edit-json", json.dumps(edits), "--out", str(tmp_path))
        _assert_validation_error(proc, message)


def test_metadata_that_cannot_be_written_as_json_is_rejected(tmp_path):
    # config_sha256 raised a bare ValueError on these after the solve had
    # written controller.bin, maps.bin and trajectory.csv
    config = load_scenario(bundled_scenario_path("mug_sugar")).raw
    for value in (10**5000, -10**5000, [10**5000], [[10**5000]], {3: 1, "b": 2}):
        config["metadata"]["task"] = value
        with pytest.raises(ValidationError, match=re.escape(
                "scenario.metadata: cannot be written as JSON")):
            run_scenario(config, out=tmp_path / "out")
    assert not (tmp_path / "out").exists()
    config["metadata"]["task"] = [10**400, {"a": None}]
    scenario = scenario_from(config)
    assert len(config_sha256(scenario.raw)) == 64


def test_scenario_name_is_one_path_component(tmp_path):
    # run artifacts go to <out>/<name>/<label>: "../escaped" wrote beside --out
    # and a NUL byte failed in mkdir
    for name in ("../escaped", "a/b", ".", "..", "nul\0byte"):
        config = load_scenario(bundled_scenario_path("regulator_smoke")).raw
        config["name"] = name
        with pytest.raises(ValidationError, match=re.escape(
                f"scenario.name: expected one path component, got {name!r}")):
            Scenario.from_dict(config)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(config))
        _assert_validation_error(_cli("solve", "--scenario", str(bad), "--out",
                                      str(tmp_path / "out")), "scenario.name")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.json"]
    config = load_scenario(bundled_scenario_path("regulator_smoke")).raw
    config["description"] = 5
    with pytest.raises(ValidationError, match="scenario.description: expected a string, got int"):
        Scenario.from_dict(config)


def test_cli_rollout_without_a_controller_exits_2_and_writes_nothing(tmp_path):
    proc = _cli("rollout", "--scenario", str(bundled_scenario_path("regulator_smoke")),
                "--out", str(tmp_path / "out"), "--label", "run")
    assert proc.returncode == 2
    assert "--controller" in proc.stderr
    assert not (tmp_path / "out").exists()


def test_cli_bench_trials_belongs_to_the_trial_experiments(tmp_path):
    proc = _cli("bench", "adapt", "--trials", "3", "--out", str(tmp_path / "out"))
    assert proc.returncode == 2
    assert "--trials" in proc.stderr
    assert not (tmp_path / "out").exists()
    for experiment in ("mug-sugar", "pickplace"):
        proc = _cli("bench", experiment, "--help")
        assert proc.returncode == 0 and "--trials" in proc.stdout


def test_cli_help_lists_subcommands():
    proc = _cli("--help")
    assert proc.returncode == 0
    for name in ("solve", "rollout", "bench", "adapt"):
        assert name in proc.stdout
    proc = _cli("bench", "--help")
    for name in ("mug-sugar", "pickplace", "adapt"):
        assert name in proc.stdout
