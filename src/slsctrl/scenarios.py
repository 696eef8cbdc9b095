"""Scenario configs, strict validation, and run artifacts.

A scenario is a JSON document that fully specifies one control problem:
plant, horizon, cost terms, noise, initial-state distribution, perturbation
schedule, and solver choice.  Scenarios double as test fixtures, so parsing
is strict: unknown keys are rejected and every error names the offending
field path.  Parsing happens once: :meth:`Scenario.from_dict` validates
every field and keeps the parsed values, and every builder reads those
instead of the JSON.

Schema (all weights accept a scalar, a diagonal vector, or a full matrix;
matrices are lists of rows):

    {
      "name": str,
      "description": str (optional),
      "metadata": {...} (optional, carried through to reports),
      "horizon": int, "dt": float,
      "plant": {"kind": "double_integrator", "dim": int,
                "exact_discretization": bool (optional)}
             | {"kind": "linear", "A": [[..]], "B": [[..]]}
             | {"kind": "planar_arm", "link_lengths": [..],
                "theta_lower": [..] (optional, one per link, default -2.9),
                "theta_upper": [..] (optional, >= theta_lower, default 2.9),
                "consistent_velocity": bool (optional)},
      "cost": {"control_weight": weight,
               "viapoints": [{"t": int, "target": [..], "weight": weight}, ..],
               "correlations": [{"t1": int, "t2": int,
                                 "C": "identity" | {"diag": [..]} | [[..]],
                                 "c": [..] (optional, default 0),
                                 "weight": weight}, ..] (optional)},
      "noise": {"mu_x0": [..], "sigma_x0": [..], "sigma_noise": [..]} (optional),
      "initial_state": {"kind": "fixed", "value": [..]}
                     | {"kind": "uniform_box", "center": [..], "halfwidth": [..]}
                     | {"kind": "arm_joints", "theta": [..],
                        "theta_dot": [..] (optional),
                        "perturb_theta": float (optional)} (optional),
      "perturbations": [{"t": int, "impulse": [..]}, ..] (optional),
      "solver": {"kind": "esls"}
              | {"kind": "isls", "tolerance": float, "max_iterations": int,
                 "regularization": float, "hessian_floor": float|null,
                 "stationarity_tolerance": float|null}
              | {"kind": "dp-lqt"} | {"kind": "batch-lqt"}
              | {"kind": "mpc-lqt", "recompute_time": int}
    }

Artifacts written per run: ``controller.bin`` (numpy archive of the control
law), ``maps.bin`` (the same law plus the retarget maps, ``esls`` only),
``trajectory.csv``, ``report.json`` (seeds, config hash, realized cost,
residuals), and optionally ``trace.csv`` with per-iteration solver progress.
One codec writes and reads the law of both archives, and one reader turns
any failure to read or parse one into :class:`ValidationError`.
"""

from __future__ import annotations

import copy
import hashlib
import json
import time
import zipfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .adaptation import AdaptationMaps, precompute_gain_maps
from .costs import (
    CorrelationSpec,
    StateCostFunction,
    add_correlation,
    build_viapoint_cost,
    is_symmetric,
)
from .isls import IslsConfig, TrackingObjective, isls_optimize
from .plants import (
    DEFAULT_JOINT_LIMIT,
    LinearPlant,
    OpenLoopController,
    batch_lqt,
    double_integrator_plant,
    dp_lqt,
    linear_system_from_plant,
    mpc_lqt_rollout,
    planar_arm_plant,
    rollout,
)
from .solver import Controller, extract_controller, solve_esls
from .stacked import NoiseModel, build_stacked

ARTIFACT_FORMAT_VERSION = 4
SOLVER_KINDS = ("esls", "isls", "dp-lqt", "mpc-lqt", "batch-lqt")
# per-step arrays are allocated (T+1)-long and dense in the state
MAX_HORIZON, MAX_PLANT_DIM = 100_000, 100


class ValidationError(ValueError):
    """Configuration rejected; the message names the offending field."""


class SolverNotConverged(RuntimeError):
    """The iterative solver stopped unconverged (iteration budget or non-finite costs)."""


# -- validation helpers --------------------------------------------------------


_JSON_ATOMS = (str, int, float, bool, type(None))


def _json_copy(value):
    """Copy of a JSON document that shares nothing mutable with it.

    Dicts and lists are copied recursively; str, int, float, bool and None
    are immutable and shared; any other value goes through ``copy.deepcopy``.
    """
    kind = type(value)
    if kind is dict:
        return {k: v if type(v) in _JSON_ATOMS else _json_copy(v) for k, v in value.items()}
    if kind is list:
        return [v if type(v) in _JSON_ATOMS else _json_copy(v) for v in value]
    if kind in _JSON_ATOMS:
        return value
    return copy.deepcopy(value)


def _expect_mapping(value, path):
    if not isinstance(value, dict):
        raise ValidationError(f"{path}: expected an object, got {type(value).__name__}")
    return value


def _expect_keys(d, path, required, optional=()):
    unknown = sorted(set(d) - set(required) - set(optional))
    if unknown:
        raise ValidationError(f"{path}: unknown key(s) {unknown}")
    missing = sorted(set(required) - set(d))
    if missing:
        raise ValidationError(f"{path}: missing required key(s) {missing}")


def _expect_list(value, path):
    if not isinstance(value, list):
        raise ValidationError(f"{path}: expected a list, got {type(value).__name__}")
    return value


def _as_int(value, path, minimum=None, maximum=None):
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"{path}: expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValidationError(f"{path}: {value} below minimum {minimum}")
    if maximum is not None and value > maximum:
        raise ValidationError(f"{path}: {value} above maximum {maximum}")
    return value


def _as_float(value, path, minimum=None):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"{path}: expected a number, got {value!r}")
    try:
        value = float(value)
    except OverflowError:
        raise ValidationError(
            f"{path}: expected a finite number, got an integer too large for a float") from None
    if not np.isfinite(value):
        raise ValidationError(f"{path}: expected a finite number, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValidationError(f"{path}: {value} below minimum {minimum}")
    return value


_REALS = (int, float)


def _as_vector(value, path, length=None):
    vec = None
    if isinstance(value, list) and all(type(v) in _REALS for v in value):
        try:
            vec = np.array(value, dtype=float)
        except OverflowError:
            pass
    if vec is None or not np.isfinite(vec).all():
        # only a failure walks the elements, to name the first bad one
        if not isinstance(value, list) or any(isinstance(v, (list, dict)) for v in value):
            raise ValidationError(f"{path}: expected a flat list of numbers")
        vec = np.array([_as_float(v, f"{path}[{i}]") for i, v in enumerate(value)])
    if length is not None and vec.size != length:
        raise ValidationError(f"{path}: expected length {length}, got {vec.size}")
    return vec


def _as_matrix(value, path, shape=None):
    if not isinstance(value, list) or not all(isinstance(r, list) for r in value):
        raise ValidationError(f"{path}: expected a list of rows")
    rows = [_as_vector(r, f"{path}[{i}]") for i, r in enumerate(value)]
    widths = {r.size for r in rows}
    if len(widths) != 1:
        raise ValidationError(f"{path}: ragged rows {sorted(widths)}")
    mat = np.vstack(rows)
    if shape is not None and mat.shape != shape:
        raise ValidationError(f"{path}: expected shape {shape}, got {mat.shape}")
    return mat


def _as_weight(value, path, dim):
    """Scalar, diagonal vector, or full matrix, normalized to (dim, dim)."""
    if isinstance(value, bool):
        raise ValidationError(f"{path}: expected a weight, got {value!r}")
    if isinstance(value, (int, float)):
        return _as_float(value, path) * np.eye(dim)
    if isinstance(value, list) and value and isinstance(value[0], list):
        mat = _as_matrix(value, path, shape=(dim, dim))
        if not is_symmetric(mat):
            raise ValidationError(f"{path}: weight matrix must be symmetric")
        return mat
    if isinstance(value, list):
        return np.diag(_as_vector(value, path, length=dim))
    raise ValidationError(f"{path}: expected scalar, diagonal list, or matrix")


def _as_transform(value, path, dim):
    """Correlation map C: 'identity', {'diag': [...]}, or a full matrix."""
    if value == "identity":
        return np.eye(dim)
    if isinstance(value, dict):
        _expect_keys(value, path, required=("diag",))
        return np.diag(_as_vector(value["diag"], f"{path}.diag", length=dim))
    if isinstance(value, list):
        return _as_matrix(value, path, shape=(dim, dim))
    raise ValidationError(f"{path}: expected 'identity', {{'diag': [...]}} or a matrix")


# -- scenario ------------------------------------------------------------------


_PLANT_KEYS = {
    "double_integrator": (("kind", "dim"), ("exact_discretization",)),
    "linear": (("kind", "A", "B"), ()),
    "planar_arm": (("kind", "link_lengths"),
                   ("theta_lower", "theta_upper", "consistent_velocity")),
}


@dataclass(eq=False)
class Scenario:
    """Validated scenario, parsed once.

    ``raw`` is the one copy of the source JSON and round-trips it
    losslessly; the sections ``plant``, ``cost``, ``solver``, ``noise``,
    ``initial_state`` and ``metadata`` are views into it.  The parsed
    values are what the builders read: the plant's ``state_dim`` and
    ``input_dim``, a linear plant's ``plant_matrices`` (A, B), a planar
    arm's ``joint_limits`` (lower, upper), the ``control_weight`` matrix,
    the ``viapoints`` as (t, target, weight), the ``correlations`` as
    :class:`CorrelationSpec` and the ``perturbations`` as (t, impulse).
    Treat all of it as read-only.
    """

    name: str
    horizon: int
    dt: float
    plant: dict
    cost: dict
    solver: dict
    state_dim: int
    input_dim: int
    control_weight: np.ndarray
    viapoints: list
    correlations: list
    plant_matrices: tuple = None
    joint_limits: tuple = None
    noise: dict = None
    initial_state: dict = None
    perturbations: list = field(default_factory=list)
    metadata: dict = field(default_factory=dict)
    description: str = ""
    raw: dict = field(default_factory=dict, repr=False)

    @classmethod
    def from_dict(cls, config):
        config = _json_copy(_expect_mapping(config, "scenario"))
        _expect_keys(
            config, "scenario",
            required=("name", "horizon", "dt", "plant", "cost", "solver"),
            optional=("description", "metadata", "noise", "initial_state",
                      "perturbations"),
        )
        name = config["name"]
        if not isinstance(name, str) or not name:
            raise ValidationError("scenario.name: expected a nonempty string")
        horizon = _as_int(config["horizon"], "scenario.horizon", minimum=1,
                          maximum=MAX_HORIZON)
        dt = _as_float(config["dt"], "scenario.dt", minimum=0.0)

        plant_cfg = _expect_mapping(config["plant"], "plant")
        kind = plant_cfg.get("kind")
        if not isinstance(kind, str) or kind not in _PLANT_KEYS:
            raise ValidationError(
                f"plant.kind: unknown kind {kind!r}; expected one of {sorted(_PLANT_KEYS)}"
            )
        required, optional = _PLANT_KEYS[kind]
        _expect_keys(plant_cfg, "plant", required=required, optional=optional)
        state_dim, input_dim, plant_matrices, joint_limits = _parse_plant(plant_cfg)

        cost_cfg = _expect_mapping(config["cost"], "cost")
        _expect_keys(cost_cfg, "cost", required=("control_weight",),
                     optional=("viapoints", "correlations"))
        control_weight = _as_weight(cost_cfg["control_weight"], "cost.control_weight",
                                    input_dim)
        viapoints, targets = [], {}
        for i, vp in enumerate(_expect_list(cost_cfg.get("viapoints", []), "cost.viapoints")):
            p = f"cost.viapoints[{i}]"
            _expect_keys(_expect_mapping(vp, p), p, required=("t", "target", "weight"))
            t = _as_int(vp["t"], f"{p}.t", minimum=0, maximum=horizon)
            target = _as_vector(vp["target"], f"{p}.target", length=state_dim)
            if t in targets and not np.array_equal(targets[t], target):
                raise ValidationError(
                    f"{p}.target: conflicts with the target of an earlier viapoint at t={t}")
            targets[t] = target
            viapoints.append((t, target, _as_weight(vp["weight"], f"{p}.weight", state_dim)))
        correlations = []
        for i, corr in enumerate(_expect_list(cost_cfg.get("correlations", []),
                                              "cost.correlations")):
            p = f"cost.correlations[{i}]"
            _expect_keys(_expect_mapping(corr, p), p,
                         required=("t1", "t2", "C", "weight"), optional=("c",))
            t1 = _as_int(corr["t1"], f"{p}.t1", minimum=0, maximum=horizon)
            t2 = _as_int(corr["t2"], f"{p}.t2", minimum=0, maximum=horizon)
            if t1 >= t2:
                raise ValidationError(f"{p}: requires t1 < t2, got ({t1}, {t2})")
            C = _as_transform(corr["C"], f"{p}.C", state_dim)
            c = (_as_vector(corr["c"], f"{p}.c", length=state_dim) if "c" in corr
                 else np.zeros(state_dim))
            correlations.append(CorrelationSpec(
                t1, t2, C, c, _as_weight(corr["weight"], f"{p}.weight", state_dim)))

        noise_cfg = config.get("noise")
        if noise_cfg is not None:
            _expect_keys(_expect_mapping(noise_cfg, "noise"), "noise",
                         required=("mu_x0", "sigma_x0", "sigma_noise"))
            _as_vector(noise_cfg["mu_x0"], "noise.mu_x0", length=state_dim)
            for key in ("sigma_x0", "sigma_noise"):
                vec = _as_vector(noise_cfg[key], f"noise.{key}", length=state_dim)
                if np.any(vec < 0):
                    raise ValidationError(f"noise.{key}: variances must be nonnegative")

        init_cfg = config.get("initial_state")
        if init_cfg is not None:
            _validate_initial_state(init_cfg, plant_cfg, state_dim)

        perturbations = []
        for i, pert in enumerate(_expect_list(config.get("perturbations", []), "perturbations")):
            p = f"perturbations[{i}]"
            _expect_keys(_expect_mapping(pert, p), p, required=("t", "impulse"))
            perturbations.append((_as_int(pert["t"], f"{p}.t", minimum=0, maximum=horizon),
                                  _as_vector(pert["impulse"], f"{p}.impulse",
                                             length=state_dim)))

        solver_cfg = _expect_mapping(config["solver"], "solver")
        skind = solver_cfg.get("kind")
        if skind not in SOLVER_KINDS:
            raise ValidationError(
                f"solver.kind: unknown kind {skind!r}; expected one of {list(SOLVER_KINDS)}"
            )
        if skind == "isls":
            _expect_keys(solver_cfg, "solver", required=("kind",),
                         optional=("tolerance", "max_iterations", "regularization",
                                   "hessian_floor", "stationarity_tolerance"))
            if "tolerance" in solver_cfg:
                _as_float(solver_cfg["tolerance"], "solver.tolerance", minimum=0.0)
            if "max_iterations" in solver_cfg:
                _as_int(solver_cfg["max_iterations"], "solver.max_iterations", minimum=1)
            if "regularization" in solver_cfg:
                _as_float(solver_cfg["regularization"], "solver.regularization", minimum=0.0)
            if "hessian_floor" in solver_cfg and solver_cfg["hessian_floor"] is not None:
                _as_float(solver_cfg["hessian_floor"], "solver.hessian_floor")
            if ("stationarity_tolerance" in solver_cfg
                    and solver_cfg["stationarity_tolerance"] is not None):
                _as_float(solver_cfg["stationarity_tolerance"],
                          "solver.stationarity_tolerance", minimum=0.0)
        else:
            if skind == "mpc-lqt":
                _expect_keys(solver_cfg, "solver", required=("kind", "recompute_time"))
                _as_int(solver_cfg["recompute_time"], "solver.recompute_time",
                        minimum=1, maximum=horizon)
            else:
                _expect_keys(solver_cfg, "solver", required=("kind",))
            # every solver but isls assembles the quadratic cost, whose
            # per-step input weight must factor
            try:
                np.linalg.cholesky(control_weight)
            except np.linalg.LinAlgError:
                raise ValidationError(
                    f"cost.control_weight: not positive definite, which solver {skind} "
                    "requires") from None
        if skind == "esls" and plant_cfg["kind"] == "planar_arm":
            raise ValidationError(
                "solver.kind: esls requires a linear plant; use isls for planar_arm"
            )

        metadata = config.get("metadata", {})
        if not isinstance(metadata, dict):
            raise ValidationError("scenario.metadata: expected an object")
        return cls(
            name=name, horizon=horizon, dt=dt,
            plant=plant_cfg, cost=cost_cfg, solver=solver_cfg,
            state_dim=state_dim, input_dim=input_dim, control_weight=control_weight,
            viapoints=viapoints, correlations=correlations,
            plant_matrices=plant_matrices, joint_limits=joint_limits, noise=noise_cfg,
            initial_state=init_cfg, perturbations=perturbations, metadata=metadata,
            description=config.get("description", ""), raw=config,
        )

    def to_dict(self):
        return _json_copy(self.raw)


def _parse_plant(plant_cfg):
    """(state_dim, input_dim, a linear plant's (A, B), an arm's (lower, upper) limits)."""
    kind = plant_cfg["kind"]
    for flag in ("exact_discretization", "consistent_velocity"):
        if not isinstance(plant_cfg.get(flag, False), bool):
            raise ValidationError(
                f"plant.{flag}: expected true or false, got {plant_cfg[flag]!r}")
    if kind == "double_integrator":
        dim = _as_int(plant_cfg["dim"], "plant.dim", minimum=1, maximum=MAX_PLANT_DIM)
        return 2 * dim, dim, None, None
    if kind == "linear":
        A = _as_matrix(plant_cfg["A"], "plant.A")
        if A.shape[0] != A.shape[1]:
            raise ValidationError("plant.A: must be square")
        B = _as_matrix(plant_cfg["B"], "plant.B")
        if B.shape[0] != A.shape[0]:
            raise ValidationError("plant.B: row count must match plant.A")
        return A.shape[0], B.shape[1], (A, B), None
    links = _as_vector(plant_cfg["link_lengths"], "plant.link_lengths")
    if links.size < 1 or np.any(links <= 0):
        raise ValidationError("plant.link_lengths: expected positive lengths")
    lower, upper = (
        _as_vector(plant_cfg[key], f"plant.{key}", length=links.size) if key in plant_cfg
        else sign * DEFAULT_JOINT_LIMIT * np.ones(links.size)
        for key, sign in (("theta_lower", -1.0), ("theta_upper", 1.0)))
    if np.any(lower > upper):
        raise ValidationError("plant.theta_lower: exceeds plant.theta_upper")
    return 3 * links.size + 5, links.size, None, (lower, upper)


def _validate_initial_state(init_cfg, plant_cfg, state_dim):
    init_cfg = _expect_mapping(init_cfg, "initial_state")
    kind = init_cfg.get("kind")
    if kind == "fixed":
        _expect_keys(init_cfg, "initial_state", required=("kind", "value"))
        _as_vector(init_cfg["value"], "initial_state.value", length=state_dim)
    elif kind == "uniform_box":
        _expect_keys(init_cfg, "initial_state", required=("kind", "center", "halfwidth"))
        _as_vector(init_cfg["center"], "initial_state.center", length=state_dim)
        hw = _as_vector(init_cfg["halfwidth"], "initial_state.halfwidth", length=state_dim)
        if np.any(hw < 0):
            raise ValidationError("initial_state.halfwidth: must be nonnegative")
    elif kind == "arm_joints":
        if plant_cfg["kind"] != "planar_arm":
            raise ValidationError("initial_state.kind: arm_joints requires a planar_arm plant")
        _expect_keys(init_cfg, "initial_state", required=("kind", "theta"),
                     optional=("theta_dot", "perturb_theta"))
        p = len(plant_cfg["link_lengths"])
        _as_vector(init_cfg["theta"], "initial_state.theta", length=p)
        if "theta_dot" in init_cfg:
            _as_vector(init_cfg["theta_dot"], "initial_state.theta_dot", length=p)
        if "perturb_theta" in init_cfg:
            _as_float(init_cfg["perturb_theta"], "initial_state.perturb_theta", minimum=0.0)
    else:
        raise ValidationError(
            f"initial_state.kind: unknown kind {kind!r}; "
            "expected fixed, uniform_box, or arm_joints"
        )


def _read_config(path):
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ValidationError(f"scenario file {path}: {exc}") from None
    try:
        return json.loads(text)
    except ValueError as exc:   # JSONDecodeError, or an integer of too many digits
        raise ValidationError(f"scenario file {path}: invalid JSON ({exc})") from None


def load_scenario(path):
    return Scenario.from_dict(_read_config(path))


def scenario_from(source, overrides=None):
    """Scenario from a config dict or a file path, ``overrides`` merged in first.

    ``overrides`` maps dotted keys (``"noise.sigma_noise"``) to values.
    """
    config = source if isinstance(source, dict) else _read_config(source)
    if overrides:
        config = _merge_overrides(config, overrides)
    return Scenario.from_dict(config)


def config_sha256(config):
    blob = json.dumps(config, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


# -- builders ------------------------------------------------------------------


def build_plant(scenario):
    cfg = scenario.plant
    if cfg["kind"] == "double_integrator":
        return double_integrator_plant(
            cfg["dim"], scenario.dt,
            exact_discretization=cfg.get("exact_discretization", False),
        )
    if cfg["kind"] == "linear":
        return LinearPlant(*scenario.plant_matrices, dt=scenario.dt)
    return planar_arm_plant(
        np.asarray(cfg["link_lengths"], float), scenario.dt, *scenario.joint_limits,
        consistent_velocity=cfg.get("consistent_velocity", False),
    )


def build_cost(scenario):
    """Assembled stacked quadratic cost of the scenario."""
    cost = build_viapoint_cost(scenario.horizon, scenario.viapoints,
                               scenario.control_weight, state_dim=scenario.state_dim,
                               input_dim=scenario.input_dim)
    for corr in scenario.correlations:
        cost = add_correlation(cost, corr)
    return cost


def build_objective(scenario):
    """The scenario cost as a pointwise objective for the iterative solver."""
    m = scenario.state_dim
    state_cost = StateCostFunction.quadratic_viapoints(scenario.horizon,
                                                       scenario.viapoints, m)
    return TrackingObjective(scenario.horizon, m, scenario.input_dim, state_cost,
                             correlations=scenario.correlations,
                             control_weight=scenario.control_weight)


def isls_config(scenario):
    """The :class:`IslsConfig` of an isls scenario; absent keys keep its defaults.

    The solver section's optional keys are the config's field names.
    """
    return IslsConfig(**{k: v for k, v in scenario.solver.items() if k != "kind"})


def build_noise(scenario):
    m = scenario.state_dim
    if scenario.noise is None:
        return NoiseModel.zero(scenario.horizon, m)
    cfg = scenario.noise
    return NoiseModel(scenario.horizon,
                      np.asarray(cfg["mu_x0"], float),
                      np.asarray(cfg["sigma_x0"], float),
                      np.asarray(cfg["sigma_noise"], float))


def draw_initial_state(scenario, rng, plant):
    """One initial state; distribution scenarios consume entropy from rng."""
    cfg = scenario.initial_state
    if cfg is None:
        if scenario.noise is not None:
            mu = np.asarray(scenario.noise["mu_x0"], float)
            sig = np.asarray(scenario.noise["sigma_x0"], float)
            return mu + rng.standard_normal(mu.size) * np.sqrt(sig)
        return np.zeros(scenario.state_dim)
    if cfg["kind"] == "fixed":
        return np.asarray(cfg["value"], float)
    if cfg["kind"] == "uniform_box":
        center = np.asarray(cfg["center"], float)
        hw = np.asarray(cfg["halfwidth"], float)
        return center + rng.uniform(-1.0, 1.0, size=center.size) * hw
    theta = np.asarray(cfg["theta"], float)
    if cfg.get("perturb_theta"):
        theta = theta + rng.uniform(-1.0, 1.0, size=theta.size) * cfg["perturb_theta"]
    theta_dot = np.asarray(cfg.get("theta_dot", np.zeros_like(theta)), float)
    return plant.augment(theta, theta_dot)


def rollout_draws(scenario, plant, seed):
    """Keyword arguments of a seeded rollout: x0, noise model, noise generator, perturbations.

    A solve and a replay with the same root seed draw the same x0 and noise.
    """
    rng_init, rng_noise = (np.random.default_rng(s)
                           for s in np.random.SeedSequence(seed).spawn(2))
    return {"x0": draw_initial_state(scenario, rng_init, plant),
            "noise": build_noise(scenario), "seed": rng_noise,
            "perturbations": scenario.perturbations}


def realized_cost(scenario, trajectory, judge=None):
    """(total, per-step cumulative) cost of a rollout of the scenario.

    ``judge`` is what scores it: the pointwise objective for isls, the
    quadratic cost for every other solver; built here when not given.
    """
    if judge is None:
        judge = (build_objective(scenario) if scenario.solver["kind"] == "isls"
                 else build_cost(scenario))
    xs, us = trajectory.states, trajectory.inputs
    total = (judge.true_cost(xs, us) if isinstance(judge, TrackingObjective)
             else judge.evaluate(xs, us))
    return total, judge.cumulative_cost(xs, us)


# -- artifacts -----------------------------------------------------------------


_OPTIONAL_LAW_FIELDS = ("nominal_x", "nominal_u", "hessian_inv")


def _law_arrays(law):
    """Every array a :class:`Controller` holds, as artifact fields.

    ``diagonal`` (T+1, n, m) holds K[t, t] and ``memory_blocks`` (nh, n, m)
    K[t, s], s < t, at ``memory_rows`` t and ``memory_cols`` s in increasing
    (t, s) order; the nominal and ``hessian_inv`` are stored when set.
    """
    m, n = law.state_dim, law.input_dim
    split = [g.reshape(n, -1, m).swapaxes(0, 1) for g in law.gains]
    arrays = {"kind": np.array("affine_memory"), "k": law.k,
              "diagonal": np.array([b[0] for b in split]),
              "memory_blocks": np.concatenate([b[1:] for b in split]),
              "memory_rows": np.array([t for t, h in enumerate(law.held) for _ in h], int),
              "memory_cols": np.array([s for h in law.held for s in h], int)}
    return arrays | {f: getattr(law, f) for f in _OPTIONAL_LAW_FIELDS
                     if getattr(law, f) is not None}


def _law(data):
    """The :class:`Controller` of :func:`_law_arrays`; ValueError names a bad field.

    The index fields are checked here, every array of the law by
    ``Controller.from_gains``.
    """
    diagonal, blocks = data["diagonal"], data["memory_blocks"]
    rows, cols = data["memory_rows"], data["memory_cols"]
    if diagonal.ndim != 3 or blocks.shape != (rows.size, *diagonal.shape[1:]):
        raise ValueError(f"diagonal {diagonal.shape} and memory_blocks {blocks.shape} "
                         "must be (T+1, n, m) and (memory_rows.size, n, m)")
    T1 = diagonal.shape[0]
    for name, idx, ok in (("memory_rows", rows, (0 <= rows) & (rows < T1)),
                          ("memory_cols", cols, (0 <= cols) & (cols < rows))):
        if idx.dtype.kind not in "iu" or not ok.all():
            i = int(np.argmin(ok))
            raise ValueError(f"{name}[{i}] = {idx[i]} is not an index s < t <= {T1 - 1} "
                             "of a block (t, s)")
    if np.any(np.diff(rows * T1 + cols) <= 0):
        raise ValueError("memory_rows, memory_cols must be increasing (t, s) pairs")
    ends = np.searchsorted(rows, np.arange(T1 + 1))
    held = [tuple(cols[a:b].tolist()) for a, b in zip(ends, ends[1:])]
    gains = [np.hstack([d, *blocks[a:b]]) for d, a, b in zip(diagonal, ends, ends[1:])]
    return Controller.from_gains(held, gains, data["k"],
                                 *(data[f] if f in data else None for f in _OPTIONAL_LAW_FIELDS))


def _write(path, arrays):
    with open(path, "wb") as fh:
        np.savez(fh, format_version=np.array(ARTIFACT_FORMAT_VERSION), **arrays)


def _read(path, what, parse):
    """``parse`` of an artifact's arrays; any failure to read or parse it is a ValidationError."""
    try:
        with np.load(path, allow_pickle=False) as data:
            version = int(data["format_version"])
            if version != ARTIFACT_FORMAT_VERSION:
                raise ValueError(f"unsupported format version {version}")
            return parse(data)
    except (OSError, EOFError, KeyError, IndexError, TypeError, ValueError,
            zipfile.BadZipFile) as exc:
        raise ValidationError(f"{what} artifact {path}: {exc}") from None


def write_controller_artifact(path, controller):
    """Serialize a :class:`Controller` (:func:`_law_arrays`) or an open-loop plan (.bin)."""
    if isinstance(controller, Controller):
        _write(path, _law_arrays(controller))
    elif isinstance(controller, OpenLoopController):
        _write(path, {"kind": np.array("open_loop"), "inputs": controller.inputs,
                      "state_dim": np.array(controller.state_dim)})
    else:
        raise TypeError(f"cannot serialize controller of type {type(controller).__name__}")


def _controller(data):
    kind = str(data["kind"])
    if kind == "open_loop":
        return OpenLoopController(data["inputs"], int(data["state_dim"]))
    if kind != "affine_memory":
        raise ValueError(f"unknown kind {kind!r}")
    return _law(data)


def load_controller_artifact(path):
    """Read a controller; a malformed file raises ValidationError naming the field."""
    return _read(path, "controller", _controller)


def write_maps_artifact(path, maps, cost):
    """The maps' controller as in ``controller.bin``, plus ``touched``, ``F_x_blocks``,
    ``u_d0``, ``k_u0``, the per-step ``A``, ``B`` and ``R``, and the targets
    (x_d, u_d) the maps were computed for."""
    _write(path, _law_arrays(maps.controller) | dict(
        touched=maps.touched, F_x_blocks=maps.F_x_blocks, u_d0=maps.u_d0, k_u0=maps.k_u0,
        A=maps.A, B=maps.B, R=maps.R, x_d=cost.x_d, u_d=cost.u_d))


def load_maps_artifact(path):
    """Read (maps, x_d, u_d); a malformed file raises ValidationError naming the field."""
    return _read(path, "maps", _maps)


def _maps(data):
    law = _law(data)
    if law.hessian_inv is None:
        raise ValueError("the law has no hessian_inv")
    T1, m, n = law.horizon + 1, law.state_dim, law.input_dim
    touched = data["touched"]
    if (touched.dtype.kind not in "iu" or touched.ndim != 1 or np.any(np.diff(touched) <= 0)
            or np.any((touched < 0) | (touched >= T1))):
        raise ValueError(f"touched must be increasing timesteps in [0, {T1 - 1}]")
    shapes = {"A": (T1, m, m), "B": (T1, m, n), "R": (T1, n, n),
              "F_x_blocks": (T1 * n, touched.size * m), "u_d0": (T1 * n,),
              "k_u0": (T1 * n,), "x_d": (T1 * m,), "u_d": (T1 * n,)}
    fields = {name: data[name] for name in shapes}   # each read decodes the member
    for name, shape in shapes.items():
        if fields[name].shape != shape or not np.isfinite(fields[name]).all():
            raise ValueError(f"{name} must be finite, shape {shape}, got {fields[name].shape}")
    x_d, u_d = fields.pop("x_d"), fields.pop("u_d")
    return AdaptationMaps(touched=touched, controller=law, **fields), x_d, u_d


def write_trajectory_csv(path, trajectory, cumulative_cost):
    xs, us = trajectory.states, trajectory.inputs
    lines = [",".join(["t", *(f"x_{i}" for i in range(xs.shape[1])),
                       *(f"u_{i}" for i in range(us.shape[1])), "cost_so_far"])]
    for t in range(xs.shape[0]):
        lines.append(",".join([str(t), *(f"{v:.17g}" for v in (*xs[t], *us[t],
                                                              cumulative_cost[t]))]))
    Path(path).write_text("\n".join(lines) + "\n")


def write_trace_csv(path, history):
    lines = ["iteration,cost,delta_cost,alpha,step_norm"]
    lines += [f"{rec.iteration},{rec.cost:.17g},{rec.delta_cost:.17g},"
              f"{rec.alpha:.17g},{rec.step_norm:.17g}" for rec in history]
    Path(path).write_text("\n".join(lines) + "\n")


def correlation_residuals(scenario, trajectory):
    """Realized residual of each correlation, measured on its weighted rows."""
    out = []
    for corr in scenario.correlations:
        e = corr.C @ trajectory.states[corr.t1] + corr.c - trajectory.states[corr.t2]
        active = np.any(corr.Q_c != 0, axis=1)
        resid = float(np.max(np.abs(e[active]))) if np.any(active) else 0.0
        out.append({"t1": int(corr.t1), "t2": int(corr.t2), "residual": resid})
    return out


# -- end-to-end run ------------------------------------------------------------


def _solve_scenario(scenario, plant, x0, trace=False):
    """Dispatch on solver kind; returns (controller, solve_info, extras)."""
    kind = scenario.solver["kind"]
    extras = {}
    t_start = time.perf_counter()
    if kind == "isls":
        objective = build_objective(scenario)
        extras["objective"] = objective
        controller, result = isls_optimize(plant, objective, x0,
                                           config=isls_config(scenario))
        if not result.converged:
            raise SolverNotConverged(
                f"iterative solve stopped after {result.iterations} iterations "
                f"(reason: {result.reason})"
            )
        info = {
            "iterations": result.iterations,
            "converged": result.converged,
            "reason": result.reason,
            "cost": result.cost,
            "stationarity": result.stationarity,
        }
        if trace:
            extras["history"] = result.history
    else:
        system = linear_system_from_plant(plant, scenario.horizon)
        cost = build_cost(scenario)
        extras["cost"] = cost
        info = {}
        if kind == "esls":
            system = build_stacked(system)
            response = solve_esls(system, cost)
            controller = extract_controller(response)
            extras["maps"] = precompute_gain_maps(system, cost, controller)
            info["residuals"] = response.residuals()
        elif kind == "batch-lqt":
            u = batch_lqt(build_stacked(system), cost, x0=x0)
            controller = OpenLoopController(u.reshape(-1, plant.input_dim),
                                            plant.state_dim)
        else:
            # dp-lqt; for mpc-lqt the plan before its one re-solve
            controller = dp_lqt(system, cost.diagonal_projection())
            if kind == "mpc-lqt":
                info["recompute_time"] = scenario.solver["recompute_time"]
    info["solve_seconds"] = time.perf_counter() - t_start
    return controller, info, extras


def run_scenario(path, seed=0, out="out", label=None, trace=False, overrides=None):
    """Solve a scenario, roll it out, and write the artifact set.

    ``path`` is a scenario file or a config dict.  Returns the report dict
    (also written as report.json).  Deterministic: the same (config, seed)
    pair reproduces controller.bin, maps.bin, trajectory.csv and trace.csv
    byte for byte, and report.json up to ``solver_info.solve_seconds``.
    """
    scenario = scenario_from(path, overrides)

    out_dir = Path(out) / scenario.name / (label or time.strftime("%Y%m%d-%H%M%S"))
    out_dir.mkdir(parents=True, exist_ok=True)

    plant = build_plant(scenario)
    draws = rollout_draws(scenario, plant, seed)

    controller, info, extras = _solve_scenario(scenario, plant, draws["x0"], trace=trace)

    kind = scenario.solver["kind"]
    if kind == "mpc-lqt":
        trajectory = mpc_lqt_rollout(plant, extras["cost"],
                                     scenario.solver["recompute_time"], **draws)
    else:
        trajectory = rollout(plant, controller, **draws)
    realized, cumulative = realized_cost(scenario, trajectory,
                                         extras.get("objective", extras.get("cost")))

    artifacts = {}
    write_controller_artifact(out_dir / "controller.bin", controller)
    artifacts["controller"] = "controller.bin"
    if "maps" in extras:
        write_maps_artifact(out_dir / "maps.bin", extras["maps"], extras["cost"])
        artifacts["maps"] = "maps.bin"
    write_trajectory_csv(out_dir / "trajectory.csv", trajectory, cumulative)
    artifacts["trajectory"] = "trajectory.csv"
    if "history" in extras:
        write_trace_csv(out_dir / "trace.csv", extras["history"])
        artifacts["trace"] = "trace.csv"

    report = {
        "format_version": ARTIFACT_FORMAT_VERSION,
        "scenario": scenario.name,
        "config_sha256": config_sha256(scenario.raw),
        "seed": int(seed),
        "solver": kind,
        "x0": [float(v) for v in draws["x0"]],
        "realized_cost": float(realized),
        "correlation_residuals": correlation_residuals(scenario, trajectory),
        "solver_info": _jsonable(info),
        "metadata": scenario.metadata,
        "artifacts": artifacts,
    }
    (out_dir / "report.json").write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n"
    )
    report["out_dir"] = str(out_dir)
    return report


def _merge_overrides(config, overrides):
    config = _json_copy(config)
    for key, value in overrides.items():
        parts = key.split(".") if isinstance(key, str) else list(key)
        node = config
        for part in parts[:-1]:
            node = node.setdefault(part, {})
        node[parts[-1]] = value
    return config


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    return obj
