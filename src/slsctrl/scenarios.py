"""Scenario configs, strict validation, and run artifacts.

A scenario is a JSON document that fully specifies one control problem:
plant, horizon, cost terms, noise, initial-state distribution, perturbation
schedule, and solver choice.  Scenarios double as test fixtures, so parsing
is strict: unknown keys are rejected and every error names the offending
field path.  Parsing happens once: each section is described by one table
(see "schema" below) that :meth:`Scenario.from_dict` walks, and every
builder reads the parsed values instead of the JSON.

Schema (all weights accept a scalar, a diagonal vector, or a full matrix;
matrices are lists of rows):

    {
      "name": str (one path component: no "/", NUL, "." or ".."),
      "description": str (optional),
      "metadata": {...} (optional, carried through to reports),
      "horizon": int, "dt": float,
      "plant": {"kind": "double_integrator", "dim": int}
             | {"kind": "linear", "A": [[..]], "B": [[..]]}
             | {"kind": "planar_arm", "link_lengths": [..],
                "theta_lower": [..] (optional, one per link, default -2.9),
                "theta_upper": [..] (optional, >= theta_lower, default 2.9)},
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
Every solver's result is one :class:`Controller`, a ``batch-lqt`` plan the
law with zero gains, so one codec writes and reads the law of both
archives, and one reader turns any failure to read or parse one into
:class:`ValidationError`.  ``slsctrl adapt`` reads its law from
``maps.bin`` alone.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
import sys
import time
import zipfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .adaptation import AdaptationMaps, precompute_gain_maps
from .costs import (
    CorrelationSpec,
    CostSpec,
    StateCostFunction,
    add_correlation,  # noqa: F401 - the benchmark's tracer wraps these two names here
    build_viapoint_cost,  # noqa: F401
    check_control_weight,
    is_symmetric,
)
from .isls import IslsConfig, TrackingObjective, isls_optimize
from .plants import (
    LinearPlant,
    NoiseModel,
    batch_lqt,
    double_integrator_plant,
    dp_lqt,
    linear_system_from_plant,
    mpc_lqt_rollout,
    planar_arm_plant,
    rollout,
)
from .solver import Controller, build_stacked, extract_controller, solve_esls

ARTIFACT_FORMAT_VERSION = 5
# per-step arrays are allocated (T+1)-long and dense in the state
MAX_HORIZON, MAX_PLANT_DIM = 100_000, 100


class ValidationError(ValueError):
    """Configuration rejected; the message names the offending field."""


class SolverNotConverged(RuntimeError):
    """The iterative solver stopped unconverged (iteration budget or non-finite costs)."""


# -- validation helpers --------------------------------------------------------


_JSON_ATOMS = (str, int, float, bool, type(None))
# the encoding config_sha256 hashes; built once, since each metadata check runs it
_CANONICAL_JSON = json.JSONEncoder(sort_keys=True, separators=(",", ":"))
_OBJECT, _LIST = "expected an object, got {1}", "expected a list, got {1}"


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


def _shown(value):
    """repr(value) for a message; one over 60 characters is cut to 60, ending in '...'."""
    try:
        text = repr(value)
    except ValueError:  # an int of more digits than sys.get_int_max_str_digits()
        text = _huge_repr(value)
    return text[:57] + "..." if len(text) > 60 else text


def _huge_repr(value):
    """repr of a JSON value with each int too long for repr shown by that bound."""
    if isinstance(value, list):
        return "[" + ", ".join(map(_huge_repr, value)) + "]"
    if isinstance(value, dict):
        return "{" + ", ".join(f"{_huge_repr(k)}: {_huge_repr(v)}"
                               for k, v in value.items()) + "}"
    try:
        return repr(value)
    except ValueError:
        sign = "-" if value < 0 else ""
        return f"{sign}<integer of over {sys.get_int_max_str_digits()} digits>"


def _as_instance(value, path, kind, message):
    """``value`` if it is a ``kind``, else ``message`` formatted with it (shown) and its type."""
    if not isinstance(value, kind):
        raise ValidationError(f"{path}: " + message.format(_shown(value), type(value).__name__))
    return value


def _as_metadata(value, path):
    """An object that the reports can write as JSON, as :func:`config_sha256` does."""
    _as_instance(value, path, dict, "expected an object")
    try:
        _CANONICAL_JSON.encode(value)
    except (TypeError, ValueError) as exc:   # say an int of over 4300 digits
        raise ValidationError(f"{path}: cannot be written as JSON ({exc})") from None
    return value


def _as_int(value, path, minimum=None, maximum=None):
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"{path}: expected an integer, got {_shown(value)}")
    if minimum is not None and value < minimum:
        raise ValidationError(f"{path}: {_shown(value)} below minimum {minimum}")
    if maximum is not None and value > maximum:
        raise ValidationError(f"{path}: {_shown(value)} above maximum {maximum}")
    return value


def _as_float(value, path, minimum=None):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"{path}: expected a number, got {_shown(value)}")
    try:
        value = float(value)
    except OverflowError:
        raise ValidationError(
            f"{path}: expected a finite number, got an integer too large for a float") from None
    if not math.isfinite(value):
        raise ValidationError(f"{path}: expected a finite number, got {_shown(value)}")
    if minimum is not None and value < minimum:
        raise ValidationError(f"{path}: {_shown(value)} below minimum {minimum}")
    return value


def _as_float_or_null(value, path, minimum):
    return None if value is None else _as_float(value, path, minimum)


_REALS = {int, float}


def _as_vector(value, path, length=None):
    vec = None
    if isinstance(value, list) and set(map(type, value)) <= _REALS:
        try:   # a finite sum has finite terms; an int too large for a float overflows
            if math.isfinite(sum(value)):
                vec = np.array(value, dtype=float)
        except OverflowError:
            pass
    if vec is None:
        # only a failure (or a sum out of a float's range) walks the elements,
        # to name the first bad one
        if not isinstance(value, list) or any(isinstance(v, (list, dict)) for v in value):
            raise ValidationError(f"{path}: expected a flat list of numbers")
        vec = np.array([_as_float(v, f"{path}[{i}]") for i, v in enumerate(value)])
    if length is not None and vec.size != length:
        raise ValidationError(f"{path}: expected length {length}, got {vec.size}")
    return vec


def _as_nonnegative(value, path, message, length):
    vec = _as_vector(value, path, length)
    if (vec < 0).any():
        raise ValidationError(f"{path}: {message}")
    return vec


def _as_lengths(value, path):
    links = _as_vector(value, path)
    if links.size < 1 or (links <= 0).any():
        raise ValidationError(f"{path}: expected positive lengths")
    return links


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
        raise ValidationError(f"{path}: expected a weight, got {_shown(value)}")
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
        return np.diag(_walk(value, path, _DIAG, {STATE_DIM: dim})["diag"])
    if isinstance(value, list):
        return _as_matrix(value, path, shape=(dim, dim))
    raise ValidationError(f"{path}: expected 'identity', {{'diag': [...]}} or a matrix")


def _as_name(value, path):
    """A nonempty string that is one path component: run artifacts go to <out>/<name>/."""
    if not isinstance(value, str) or not value:
        raise ValidationError(f"{path}: expected a nonempty string")
    if value in (".", "..") or "/" in value or "\0" in value:
        raise ValidationError(f"{path}: expected one path component, got {_shown(value)}")
    return value


# -- schema --------------------------------------------------------------------
#
# Each section is one table {key: _f(default, parse, *args, size=...)}, which
# _walk reads in order: a present key is parsed by parse(value, path, *args),
# with sizes[size] appended when the field names a size, or kept as it is when
# parse is None; an absent key takes the default, _ZEROS a zero vector of the
# field's size, and a _REQUIRED key must be present.  ``sizes`` maps HORIZON,
# STATE_DIM, INPUT_DIM and LINKS to the values the caller has parsed so far.

_REQUIRED, _ZEROS = object(), object()
HORIZON, STATE_DIM, INPUT_DIM, LINKS = "horizon", "state_dim", "input_dim", "links"


def _f(default, parse, *args, size=None):
    return default, parse, args, size


_SCENARIO = {
    "name": _f(_REQUIRED, _as_name), "horizon": _f(_REQUIRED, _as_int, 1, MAX_HORIZON),
    "dt": _f(_REQUIRED, _as_float, 0.0),
    "description": _f("", _as_instance, str, "expected a string, got {1}"),
    "metadata": _f({}, _as_metadata),
    # the sections, each walked by Scenario.from_dict
    "plant": _f(_REQUIRED, None), "cost": _f(_REQUIRED, None), "noise": _f(None, None),
    "initial_state": _f(None, None), "perturbations": _f([], None),
    "solver": _f(_REQUIRED, None)}
_COST = {"control_weight": _f(_REQUIRED, _as_weight, size=INPUT_DIM),
         "viapoints": _f([], None), "correlations": _f([], None)}
_VIAPOINT = {"t": _f(_REQUIRED, _as_int, 0, size=HORIZON),
             "target": _f(_REQUIRED, _as_vector, size=STATE_DIM),
             "weight": _f(_REQUIRED, _as_weight, size=STATE_DIM)}
_CORRELATION = {"t1": _f(_REQUIRED, _as_int, 0, size=HORIZON),
                "t2": _f(_REQUIRED, _as_int, 0, size=HORIZON),
                "C": _f(_REQUIRED, _as_transform, size=STATE_DIM),
                "c": _f(_ZEROS, _as_vector, size=STATE_DIM),
                "weight": _f(_REQUIRED, _as_weight, size=STATE_DIM)}
_PERTURBATION = {"t": _f(_REQUIRED, _as_int, 0, size=HORIZON),
                 "impulse": _f(_REQUIRED, _as_vector, size=STATE_DIM)}
_DIAG = {"diag": _f(_REQUIRED, _as_vector, size=STATE_DIM)}
# the parameters of NoiseModel
_NOISE = {"mu_x0": _f(_REQUIRED, _as_vector, size=STATE_DIM),
          **dict.fromkeys(("sigma_x0", "sigma_noise"), _f(
              _REQUIRED, _as_nonnegative, "variances must be nonnegative", size=STATE_DIM))}
# sections of several kinds, {kind: table of the keys besides "kind"}: a plant's
# keys are the parameters of its builder (_PLANT_BUILDERS), isls's IslsConfig's
_KINDS = {
    "plant": {
        "double_integrator": {"dim": _f(_REQUIRED, _as_int, 1, MAX_PLANT_DIM)},
        "linear": {"A": _f(_REQUIRED, _as_matrix), "B": _f(_REQUIRED, _as_matrix)},
        # absent limits are None, which planar_arm_plant fills in
        "planar_arm": {"link_lengths": _f(_REQUIRED, _as_lengths),
                       "theta_lower": _f(None, _as_vector), "theta_upper": _f(None, _as_vector)}},
    "initial_state": {
        "fixed": {"value": _f(_REQUIRED, _as_vector, size=STATE_DIM)},
        "uniform_box": {"center": _f(_REQUIRED, _as_vector, size=STATE_DIM),
                        "halfwidth": _f(_REQUIRED, _as_nonnegative, "must be nonnegative",
                                        size=STATE_DIM)},
        "arm_joints": {"theta": _f(_REQUIRED, _as_vector, size=LINKS),
                       "theta_dot": _f(_ZEROS, _as_vector, size=LINKS),
                       "perturb_theta": _f(0.0, _as_float, 0.0)}},
    "solver": {
        "esls": {},
        "isls": {"tolerance": _f(IslsConfig.tolerance, _as_float, 0.0),
                 "max_iterations": _f(IslsConfig.max_iterations, _as_int, 1),
                 "regularization": _f(IslsConfig.regularization, _as_float, 0.0),
                 "hessian_floor": _f(IslsConfig.hessian_floor, _as_float_or_null, None),
                 "stationarity_tolerance": _f(IslsConfig.stationarity_tolerance,
                                              _as_float_or_null, 0.0)},
        "dp-lqt": {}, "mpc-lqt": {"recompute_time": _f(_REQUIRED, _as_int, 1, size=HORIZON)},
        "batch-lqt": {}},
}
_KINDS = {section: {kind: {"kind": _f(_REQUIRED, None)} | fields
                    for kind, fields in kinds.items()} for section, kinds in _KINDS.items()}


def _walk(record, path, table, sizes):
    """The object ``record`` parsed by ``table``, as {key: value} in table order."""
    if not isinstance(record, dict) or not record.keys() <= table.keys():
        unknown = sorted(set(_as_instance(record, path, dict, _OBJECT)) - set(table))
        raise ValidationError(f"{path}: unknown key(s) {unknown}")
    out = {}
    for key, (default, parse, args, size) in table.items():
        if key not in record:
            if default is _REQUIRED:
                missing = sorted(k for k, spec in table.items()
                                 if spec[0] is _REQUIRED and k not in record)
                raise ValidationError(f"{path}: missing required key(s) {missing}")
            out[key] = np.zeros(sizes[size]) if default is _ZEROS else default
        elif parse is None:
            out[key] = record[key]
        elif size is None:
            out[key] = parse(record[key], f"{path}.{key}", *args)
        else:
            out[key] = parse(record[key], f"{path}.{key}", *args, sizes[size])
    return out


def _walk_kind(record, section, sizes):
    """The object ``record`` of ``section`` parsed by the table of its kind."""
    kinds = _KINDS[section]
    kind = _as_instance(record, section, dict, _OBJECT).get("kind")
    if not isinstance(kind, str) or kind not in kinds:
        raise ValidationError(f"{section}.kind: unknown kind {_shown(kind)}; "
                              f"expected one of {list(kinds)}")
    return _walk(record, section, kinds[kind], sizes)


def _walk_list(records, path, table, sizes):
    return [_walk(r, f"{path}[{i}]", table, sizes)
            for i, r in enumerate(_as_instance(records, path, list, _LIST))]


# -- scenario ------------------------------------------------------------------


@dataclass(eq=False)
class Scenario:
    """Validated scenario, parsed once.

    ``raw`` is the one copy of the source JSON and round-trips it
    losslessly; ``cost``, ``solver``, ``initial_state`` and ``metadata`` are
    views into it.  The builders read the parsed values: ``state_dim`` and
    ``input_dim``, the ``control_weight`` matrix, ``viapoints`` as (t,
    target, weight), ``correlations`` as :class:`CorrelationSpec`,
    ``perturbations`` as (t, impulse), and ``settings``: the plant, noise,
    initial_state and solver sections with their defaults filled in (noise
    and initial_state None when absent).  Treat all of it as read-only.
    """

    name: str
    horizon: int
    dt: float
    cost: dict
    solver: dict
    state_dim: int
    input_dim: int
    control_weight: np.ndarray
    viapoints: list
    correlations: list
    settings: dict
    initial_state: dict = None
    perturbations: list = field(default_factory=list)
    metadata: dict = field(default_factory=dict)
    description: str = ""
    raw: dict = field(default_factory=dict, repr=False)

    @classmethod
    def from_dict(cls, config):
        config = _json_copy(_as_instance(config, "scenario", dict, _OBJECT))
        top = _walk(config, "scenario", _SCENARIO, {})
        sizes = {HORIZON: top["horizon"]}
        plant = _walk_kind(top["plant"], "plant", sizes)
        if plant["kind"] == "linear":
            A, B = plant["A"], plant["B"]
            if A.shape[0] != A.shape[1]:
                raise ValidationError("plant.A: must be square")
            if B.shape[0] != A.shape[0]:
                raise ValidationError("plant.B: row count must match plant.A")
            sizes[STATE_DIM], sizes[INPUT_DIM] = B.shape
        elif plant["kind"] == "planar_arm":
            sizes[LINKS] = plant["link_lengths"].size
            for key in ("theta_lower", "theta_upper"):
                if plant[key] is not None and plant[key].size != sizes[LINKS]:
                    raise ValidationError(f"plant.{key}: expected length {sizes[LINKS]}, "
                                          f"got {plant[key].size}")
            try:   # the arm gives its sizes, and checks lower <= upper
                arm = planar_arm_plant(plant["link_lengths"], top["dt"], plant["theta_lower"],
                                       plant["theta_upper"])
            except ValueError:
                raise ValidationError("plant.theta_lower: exceeds plant.theta_upper") from None
            sizes[STATE_DIM], sizes[INPUT_DIM] = arm.state_dim, arm.input_dim
        else:
            sizes[STATE_DIM], sizes[INPUT_DIM] = 2 * plant["dim"], plant["dim"]

        cost = _walk(top["cost"], "cost", _COST, sizes)
        viapoints = _walk_list(cost["viapoints"], "cost.viapoints", _VIAPOINT, sizes)
        targets = {}
        for i, vp in enumerate(viapoints):
            first = targets.setdefault(vp["t"], vp["target"])
            if first is not vp["target"] and not np.array_equal(first, vp["target"]):
                raise ValidationError(f"cost.viapoints[{i}].target: conflicts with the "
                                      f"target of an earlier viapoint at t={vp['t']}")
        correlations = _walk_list(cost["correlations"], "cost.correlations", _CORRELATION, sizes)
        for i, corr in enumerate(correlations):
            if corr["t1"] >= corr["t2"]:
                raise ValidationError(f"cost.correlations[{i}]: requires t1 < t2, "
                                      f"got ({corr['t1']}, {corr['t2']})")

        noise = None if top["noise"] is None else _walk(top["noise"], "noise", _NOISE, sizes)
        init = top["initial_state"]
        if (isinstance(init, dict) and init.get("kind") == "arm_joints"
                and plant["kind"] != "planar_arm"):
            raise ValidationError("initial_state.kind: arm_joints requires a planar_arm plant")
        if init is not None:
            init = _walk_kind(init, "initial_state", sizes)
        perturbations = _walk_list(top["perturbations"], "perturbations", _PERTURBATION, sizes)

        solver = _walk_kind(top["solver"], "solver", sizes)
        if solver["kind"] != "isls":   # the others factor the per-step input weight
            try:
                np.linalg.cholesky(cost["control_weight"])
            except np.linalg.LinAlgError:
                raise ValidationError(f"cost.control_weight: not positive definite, which "
                                      f"solver {solver['kind']} requires") from None
        if solver["kind"] != "isls" and plant["kind"] == "planar_arm":
            raise ValidationError(f"solver.kind: {solver['kind']} requires a linear plant; "
                                  "use isls for planar_arm")
        return cls(
            **{key: top[key] for key in ("name", "horizon", "dt", "cost", "solver",
                                         "initial_state", "description")},
            state_dim=sizes[STATE_DIM], input_dim=sizes[INPUT_DIM],
            control_weight=cost["control_weight"],
            viapoints=[(vp["t"], vp["target"], vp["weight"]) for vp in viapoints],
            # the walk made every check of CorrelationSpec
            correlations=[CorrelationSpec._unchecked(c["t1"], c["t2"], c["C"], c["c"],
                                                     c["weight"]) for c in correlations],
            settings={"plant": plant, "noise": noise, "initial_state": init, "solver": solver},
            perturbations=[(p["t"], p["impulse"]) for p in perturbations],
            metadata=top["metadata"] or {}, raw=config)

    def to_dict(self):
        return _json_copy(self.raw)


def parse_json(text, what):
    """The JSON document ``text``; a ValidationError names ``what``."""
    try:
        return json.loads(text)
    except ValueError as exc:   # JSONDecodeError, or an integer of too many digits
        raise ValidationError(f"{what}: invalid JSON ({exc})") from None


def read_json(path, what):
    """The JSON document of a file; a ValidationError names the ``what`` file."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ValidationError(f"{what} file {path}: {exc}") from None
    return parse_json(text, f"{what} file {path}")


def load_scenario(path):
    return Scenario.from_dict(read_json(path, "scenario"))


def scenario_from(source):
    """Scenario from a config dict or a file path."""
    config = source if isinstance(source, dict) else read_json(source, "scenario")
    return Scenario.from_dict(config)


def config_sha256(config):
    blob = _CANONICAL_JSON.encode(config).encode()
    return hashlib.sha256(blob).hexdigest()


_EDIT = {"t": _f(_REQUIRED, _as_int, 0, size=HORIZON),
         "target": _f(_REQUIRED, _as_vector, size=STATE_DIM)}
ADAPT_EDIT, BENCH_EDIT = _EDIT, _EDIT | {"at": _f(0, _as_int, 0, size=HORIZON)}


def parse_edit(scenario, edit, path, table):
    """A viapoint's time and new target at ``path``, and for BENCH_EDIT the swap step ``at``."""
    edit = _walk(edit, path, table, {HORIZON: scenario.horizon, STATE_DIM: scenario.state_dim})
    if edit["t"] not in {t for t, _, _ in scenario.viapoints}:
        raise ValidationError(f"{path}.t: no viapoint at t={edit['t']} to edit")
    return edit


# -- builders ------------------------------------------------------------------


# the plant builders, whose parameters are the keys of their kind
_PLANT_BUILDERS = {"double_integrator": double_integrator_plant, "linear": LinearPlant,
                   "planar_arm": planar_arm_plant}


def build_plant(scenario):
    fields = dict(scenario.settings["plant"])
    return _PLANT_BUILDERS[fields.pop("kind")](dt=scenario.dt, **fields)


def build_cost(scenario):
    """Assembled stacked quadratic cost of the scenario.

    Equal, bit for bit, to :func:`build_viapoint_cost` and then
    :func:`add_correlation` per correlation, but built in place from the
    parsed terms, which :meth:`Scenario.from_dict` has checked.  The one check
    made here is the control weight's factorization for isls, whose parse
    skips it.
    """
    if scenario.solver["kind"] == "isls":
        check_control_weight(scenario.control_weight)
    return CostSpec._assemble(scenario.horizon, scenario.state_dim, scenario.control_weight,
                              scenario.viapoints, scenario.correlations)


def build_objective(scenario):
    """The scenario cost as a pointwise objective for the iterative solver."""
    m = scenario.state_dim
    state_cost = StateCostFunction.quadratic_viapoints(scenario.horizon,
                                                       scenario.viapoints, m)
    return TrackingObjective(scenario.horizon, m, scenario.input_dim, state_cost,
                             correlations=scenario.correlations,
                             control_weight=scenario.control_weight)


def isls_config(scenario):
    """The :class:`IslsConfig` of an isls scenario: its parsed solver settings."""
    return IslsConfig(**{k: v for k, v in scenario.settings["solver"].items() if k != "kind"})


def build_noise(scenario):
    noise = scenario.settings["noise"]
    if noise is None:
        return NoiseModel.zero(scenario.horizon, scenario.state_dim)
    return NoiseModel(scenario.horizon, **noise)


def draw_initial_state(scenario, rng, plant):
    """One initial state; distribution scenarios consume entropy from rng."""
    init, noise = scenario.settings["initial_state"], scenario.settings["noise"]
    m = scenario.state_dim
    if init is None and noise is None:
        return np.zeros(m)
    if init is None:
        return noise["mu_x0"] + rng.standard_normal(m) * np.sqrt(noise["sigma_x0"])
    if init["kind"] == "fixed":
        return init["value"].copy()
    if init["kind"] == "uniform_box":
        return init["center"] + rng.uniform(-1.0, 1.0, size=m) * init["halfwidth"]
    theta = init["theta"]
    if init["perturb_theta"]:
        theta = theta + rng.uniform(-1.0, 1.0, size=theta.size) * init["perturb_theta"]
    return plant.augment(theta, init["theta_dot"])


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
    """Serialize a :class:`Controller` as a .bin archive of :func:`_law_arrays`."""
    _write(path, _law_arrays(controller))


def _controller(data):
    kind = str(data["kind"])
    if kind != "affine_memory":
        raise ValueError(f"unknown kind {_shown(kind)}")
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
    lines = ["iteration,cost,delta_cost,alpha,step_norm,second_order"]
    lines += [f"{rec.iteration},{rec.cost:.17g},{rec.delta_cost:.17g},"
              f"{rec.alpha:.17g},{rec.step_norm:.17g},{int(rec.second_order)}"
              for rec in history]
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
            controller = Controller.open_loop(u.reshape(-1, plant.input_dim),
                                              plant.state_dim)
        else:
            # dp-lqt; for mpc-lqt the plan before its one re-solve
            controller = dp_lqt(system, cost.diagonal_projection())
            if kind == "mpc-lqt":
                info["recompute_time"] = scenario.solver["recompute_time"]
    info["solve_seconds"] = time.perf_counter() - t_start
    return controller, info, extras


def run_dir(out, name, label):
    """The directory ``<out>/<name>/<label>`` of a run, created; no label is a timestamp."""
    out_dir = Path(out) / name / (label or time.strftime("%Y%m%d-%H%M%S"))
    out_dir.mkdir(parents=True, exist_ok=True)
    return out_dir


def run_scenario(path, seed=0, out="out", label=None, trace=False):
    """Solve a scenario, roll it out, and write the artifact set.

    ``path`` is a scenario file or a config dict.  Returns the report dict
    (also written as report.json).  Deterministic: the same (config, seed)
    pair reproduces controller.bin, maps.bin, trajectory.csv and trace.csv
    byte for byte, and report.json up to ``solver_info.solve_seconds``.
    """
    scenario = scenario_from(path)
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

    out_dir = run_dir(out, scenario.name, label)   # a failed run writes nothing
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
        "solver_info": info,
        "metadata": scenario.metadata,
        "artifacts": artifacts,
    }
    (out_dir / "report.json").write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n"
    )
    report["out_dir"] = str(out_dir)
    return report
