"""One workload process of the slsctrl benchmark.

``run.py`` starts this script once per set-up probe and once per measured
run, so that every process serves a single workload and its peak memory is
that workload's own.  The script drives ``slsctrl`` only through public
names, checks every output with ``oracle.py``, and prints one JSON object
as its last line.

    python3 workloads.py --workload synth-long --seed 0 --seconds 15 \
        --trace 0 --mode run --spawned <time.monotonic() at spawn> --out DIR
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import oracle  # noqa: E402
import reference  # noqa: E402
from spans import MissingBinding, Tracer  # noqa: E402

WORKLOAD_INDEX = {"synth-long": 0, "arm-pickplace": 1, "retarget-stream": 2}


def import_package():
    """Import slsctrl from this checkout's src/, and from nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import slsctrl
    where = Path(slsctrl.__file__).resolve().parent
    if where != (src / "slsctrl").resolve():
        raise SystemExit(f"slsctrl imported from {where}, expected {src / 'slsctrl'}")
    return slsctrl


def op_rng(seed, workload, i):
    """Generator for operation i; the same (seed, workload, i) gives the same inputs."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(WORKLOAD_INDEX[workload], i))
    return np.random.default_rng(ss)


def raw_terms(cost_cfg, m):
    """(viapoints, correlations) of a scenario's cost section as plain arrays."""
    def weight(w):
        w = np.asarray(w, float)
        return w * np.eye(m) if w.ndim == 0 else (np.diag(w) if w.ndim == 1 else w)

    viapoints = [(vp["t"], np.asarray(vp["target"], float), weight(vp["weight"]))
                 for vp in cost_cfg.get("viapoints", [])]
    correlations = []
    for corr in cost_cfg.get("correlations", []):
        C = corr["C"]
        C = np.eye(m) if C == "identity" else (
            np.diag(C["diag"]) if isinstance(C, dict) else np.asarray(C, float))
        correlations.append((corr["t1"], corr["t2"], np.asarray(C, float),
                             np.asarray(corr.get("c", np.zeros(m)), float),
                             weight(corr["weight"])))
    return viapoints, correlations


def linear_rollout_fn(sls, plant, controller):
    def run(w):
        traj = sls.rollout(plant, controller, w=w)
        return traj.states, traj.inputs
    return run


def impulse_columns(rng, t1, m, carried, count):
    """Seeded disturbance columns at blocks before t1, in carried coordinates.

    A disturbance there reaches x_t1, so the response depends on the memory
    the controller must hold from t1; ``carried`` are the state coordinates
    the dynamics carry to the next step.
    """
    blocks = rng.integers(0, t1, size=count)
    coords = rng.choice(carried, size=count)
    return [int(b) * m + int(c) for b, c in zip(blocks, coords)]


# -- workloads ----------------------------------------------------------------


class SynthLong:
    """T=400 tracking requests on a 3-D double integrator, synthesized whole.

    Each request has 3-4 viapoints at seeded times (the last at T) and 1-3
    correlations with seeded (t1, t2); one operation is the ``esls`` path of
    ``run_scenario`` without file I/O.
    """

    T, DIM, DT, CW = 400, 3, 0.01, 1e-2
    ROUND = 1
    EPISODES = 32   # noisy rollouts per request, each with its own noise draw
    OP_KERNEL = "dense"   # reference kernel the operation is divided by
    REF_SAMPLES = 7       # of it on each side of an operation

    def __init__(self, sls, seed, scratch):
        self.sls, self.seed = sls, seed
        self.m, self.n = 2 * self.DIM, self.DIM
        self.plant = sls.double_integrator_plant(self.DIM, self.DT)
        m = self.m
        self.noise = sls.NoiseModel(self.T, np.zeros(m), np.zeros(m),
                                    np.r_[np.zeros(self.DIM), 1e-6 * np.ones(self.DIM)])

    def make_input(self, i):
        rng = op_rng(self.seed, "synth-long", i)
        T, d, m = self.T, self.DIM, self.m
        times = sorted(int(t) for t in rng.choice(np.arange(20, T), size=rng.integers(2, 4),
                                                  replace=False)) + [T]
        w_vp = np.diag(np.r_[1e4 * np.ones(d), 1e2 * np.ones(d)])
        viapoints = [(t, np.r_[rng.uniform(-0.5, 0.5, d), np.zeros(d)], w_vp) for t in times]
        correlations = []
        for _ in range(rng.integers(1, 4)):
            t1, t2 = sorted(int(t) for t in rng.choice(np.arange(10, T + 1), 2, replace=False))
            correlations.append((t1, t2, np.eye(m),
                                 np.r_[rng.uniform(-0.1, 0.1, d), np.zeros(d)],
                                 np.diag(np.r_[1e4 * np.ones(d), np.zeros(d)])))
        x0 = np.r_[rng.uniform(-0.3, 0.3, d), np.zeros(d)]
        t_first = min(c[0] for c in correlations)
        return {"viapoints": viapoints, "correlations": correlations, "x0": x0,
                "columns": impulse_columns(rng, t_first, m, np.arange(m), 2),
                "noise_seed": int(rng.integers(2**31))}

    def op(self, req):
        sls = self.sls
        cost = sls.build_viapoint_cost(self.T, req["viapoints"], self.CW,
                                       state_dim=self.m, input_dim=self.n)
        for t1, t2, C, c, Qc in req["correlations"]:
            cost = sls.add_correlation(cost, sls.CorrelationSpec(t1, t2, C, c, Qc))
        stacked = sls.build_stacked(sls.linear_system_from_plant(self.plant, self.T))
        response = sls.solve_esls(stacked, cost)
        controller = sls.extract_controller(response)
        maps = sls.precompute_gain_maps(stacked, cost, controller)
        return {"controller": controller, "maps": maps, "response": response,
                "stacked": stacked}

    def failed(self, out):
        return False

    def episode(self, req, out, k):
        self.sls.rollout(self.plant, out["controller"], noise=self.noise,
                         seed=req["noise_seed"] + k, x0=req["x0"])

    def check(self, req, out, warmup):
        T, m, n = self.T, self.m, self.n
        A = [self.plant.A] * (T + 1)
        B = [self.plant.B] * (T + 1)
        quad = oracle.Quadratic.tracking(T, m, n, req["viapoints"], req["correlations"],
                                         self.CW * np.eye(n))
        run = linear_rollout_fn(self.sls, self.plant, out["controller"])
        errors = oracle.check_plan(run, A, B, quad, req["x0"], rtol=PLAN_RTOL)
        errors += oracle.check_impulses(run, A, B, quad, req["x0"], req["columns"],
                                        rtol=IMPULSE_RTOL)
        return errors


class ArmPickplace:
    """``isls_optimize`` trials on the bundled 3-link ``pickplace_arm`` scenario.

    Each trial starts from the bundled posture with every joint angle moved
    by a seeded uniform offset in [-JITTER, JITTER] rad.
    """

    JITTER = 0.001
    ROUND = 1
    EPISODES = 32
    OP_KERNEL = "dense"
    REF_SAMPLES = 7

    def __init__(self, sls, seed, scratch, scenario=None):
        self.sls, self.seed = sls, seed
        if scenario is None:
            scenario = sls.load_scenario(sls.bundled_scenario_path("pickplace_arm"))
        self.plant = sls.build_plant(scenario)
        self.objective = sls.build_objective(scenario)
        solver = scenario.solver
        self.config = sls.IslsConfig(
            tolerance=solver["tolerance"],
            max_iterations=solver["max_iterations"],
            regularization=solver["regularization"],
            stationarity_tolerance=solver["stationarity_tolerance"],
        )
        self.T, self.m, self.n = scenario.horizon, scenario.state_dim, scenario.input_dim
        vps, corrs = raw_terms(scenario.cost, self.m)
        R = float(scenario.cost["control_weight"]) * np.eye(self.n)
        self.terms = (vps, corrs, R)
        # the place correlation ties the height at t2 to the realized height at t1
        place = next(c for c in corrs if not np.any(c[3]))
        self.t_grasp, self.t_place = place[0], place[1]
        self.height = int(scenario.metadata["height_index"])
        self.theta0 = np.asarray(scenario.initial_state["theta"], float)
        p = self.plant.n_links
        sigma = np.zeros(self.m)
        sigma[p:2 * p] = 1e-8
        self.sigma_noise = sigma

    def make_input(self, i):
        rng = op_rng(self.seed, "arm-pickplace", i)
        theta = self.theta0 + rng.uniform(-self.JITTER, self.JITTER, self.theta0.size)
        directions = rng.standard_normal((3, (self.T + 1) * self.n))
        directions /= np.linalg.norm(directions, axis=1, keepdims=True)
        return {"x0": self.plant.augment(theta),
                # joint angles and velocities; the other coordinates are
                # outputs the plant recomputes from them every step
                "columns": impulse_columns(rng, self.t_grasp, self.m,
                                           np.arange(2 * self.plant.n_links), 2),
                "directions": directions.reshape(3, self.T + 1, self.n),
                "noise_seed": int(rng.integers(2**31))}

    def op(self, inp):
        controller, result = self.sls.isls_optimize(self.plant, self.objective, inp["x0"],
                                                    config=self.config)
        return {"controller": controller, "result": result}

    def failed(self, out):
        """A trial counts only if it stopped for a reason that implies stationarity.

        ``converged`` alone is not trusted: it is also True for a stalled
        line search, including one whose trial costs are all NaN.
        """
        res = out["result"]
        return not (res.reason in ("tolerance", "stationary")
                    and res.stationarity <= self.config.stationarity_tolerance)

    def episode(self, inp, out, k):
        noise = self.sls.NoiseModel(self.T, inp["x0"], np.zeros(self.m), self.sigma_noise)
        self.sls.rollout(self.plant, out["controller"], noise=noise,
                         seed=inp["noise_seed"] + k)

    def check(self, inp, out, warmup):
        sls, plant = self.sls, self.plant
        T, m, n = self.T, self.m, self.n
        ctrl, res = out["controller"], out["result"]
        errors = []
        costs = [h.cost for h in res.history]
        if any(b > a for a, b in zip(costs, costs[1:])):
            errors.append(f"cost history increases: {costs}")
        free = sls.rollout(plant, ctrl, x0=inp["x0"])
        y = free.states[:, self.height]
        residual = abs(y[self.t_place] - y[self.t_grasp])
        if not residual <= PLACE_TOL:
            errors.append(f"place residual {residual:.3e} exceeds {PLACE_TOL:.0e}")
        x_hat = np.asarray(ctrl.nominal_x).reshape(T + 1, m)
        u_hat = np.asarray(ctrl.nominal_u).reshape(T + 1, n)
        defect = max(float(np.max(np.abs(plant.step(t, x_hat[t], u_hat[t]) - x_hat[t + 1])))
                     for t in range(T))
        if not defect <= NOMINAL_TOL:
            errors.append(f"nominal is not a trajectory of plant.step (defect {defect:.3e})")
        errors += oracle.check_directional_stationarity(
            plant, x_hat[0], u_hat, self.terms, inp["directions"],
            h=STATIONARITY_STEP, rtol=STATIONARITY_RTOL)
        errors += arm_behaviour(sls, plant, ctrl, self.terms, self.config.regularization,
                                inp["columns"])
        return errors


def arm_behaviour(sls, plant, ctrl, terms, regularization, columns):
    """The controller on its own linearization against the subproblem's KKT solutions."""
    T = ctrl.nominal_u.size // plant.input_dim - 1
    m, n = plant.state_dim, plant.input_dim
    x_hat = np.asarray(ctrl.nominal_x).reshape(T + 1, m)
    u_hat = np.asarray(ctrl.nominal_u).reshape(T + 1, n)
    AB = [plant.jacobians(t, x_hat[t], u_hat[t]) for t in range(T + 1)]
    A, B = [a for a, _ in AB], [b for _, b in AB]
    vps, corrs, R = terms
    quad = oracle.Quadratic.expansion(T, m, n, vps, corrs, R, x_hat, u_hat,
                                      shift=regularization / 2)
    lin = oracle.AffineLinearization(A, B, x_hat, u_hat)

    def run(w):
        w = w.copy()
        w[0] += x_hat[0]
        traj = sls.rollout(lin, ctrl, w=w)
        return traj.states - x_hat, traj.inputs - u_hat

    zero = np.zeros(m)
    errors = oracle.check_plan(run, A, B, quad, zero, rtol=ARM_PLAN_RTOL,
                               atol=ARM_PLAN_ATOL, label="subproblem plan")
    errors += oracle.check_impulses(run, A, B, quad, zero, columns, rtol=IMPULSE_RTOL)
    return errors


class RetargetStream:
    """Viapoint edits streamed into a controller loaded from artifacts.

    Set-up is the CLI's ``solve`` then ``adapt`` flow on the bundled
    ``mug_sugar`` scenario.  One operation edits one viapoint (seeded
    choice, positions moved by up to 0.1), retargets through the maps, and
    the episode rolls the controller out with the new feedforward swapped in
    at a seeded step.
    """

    ROUND = 8   # one edit per round is checked against an independent re-solve
    EPISODES = 1
    OP_KERNEL = "loop"    # an edit is interpreter-bound, not BLAS-bound
    REF_SAMPLES = 1       # thousands of edits per run make up for one sample

    def __init__(self, sls, seed, scratch):
        self.sls, self.seed = sls, seed
        path = sls.bundled_scenario_path("mug_sugar")
        report = sls.run_scenario(path, seed=seed, out=str(scratch), label="base")
        out_dir = Path(report["out_dir"])
        self.controller = sls.load_controller_artifact(out_dir / "controller.bin")
        self.maps, _, _ = sls.load_maps_artifact(out_dir / "maps.bin")
        self.artifact_bytes = {
            "controller": (out_dir / "controller.bin").stat().st_size,
            "maps": (out_dir / "maps.bin").stat().st_size,
        }
        scenario = sls.load_scenario(path)
        self.raw = scenario.raw
        self.plant = sls.build_plant(scenario)
        self.noise = sls.build_noise(scenario)
        self.T, self.m, self.n = scenario.horizon, scenario.state_dim, scenario.input_dim
        self.R = float(self.raw["cost"]["control_weight"]) * np.eye(self.n)
        box = scenario.initial_state
        self.x0_center = np.asarray(box["center"], float)
        self.x0_halfwidth = np.asarray(box["halfwidth"], float)

    def make_input(self, i):
        rng = op_rng(self.seed, "retarget-stream", i)
        vps = self.raw["cost"]["viapoints"]
        vp = vps[int(rng.integers(len(vps)))]
        target = np.asarray(vp["target"], float).copy()
        target[:3] += rng.uniform(-0.1, 0.1, 3)
        x0 = self.x0_center + rng.uniform(-1.0, 1.0, self.m) * self.x0_halfwidth
        t1 = min(c["t1"] for c in self.raw["cost"]["correlations"])
        return {"t": int(vp["t"]), "target": target.tolist(), "x0": x0,
                "at": int(rng.integers(0, self.T + 1)),
                "columns": impulse_columns(rng, t1, self.m, np.arange(self.m), 2),
                "noise_seed": int(rng.integers(2**31)), "index": i}

    def op(self, edit):
        sls = self.sls
        config = sls.bench.apply_viapoint_edit(self.raw, edit["t"], edit["target"])
        cost = sls.build_cost(sls.Scenario.from_dict(config))
        k = sls.adapt_feedforward(self.maps, cost.x_d, cost.u_d)
        return {"controller": self.controller.with_feedforward(k), "k": k,
                "config": config}

    def failed(self, out):
        return False

    def episode(self, edit, out, k):
        self.sls.rollout(self.plant, self.controller, noise=self.noise,
                         seed=edit["noise_seed"] + k, x0=edit["x0"],
                         feedforward_schedule=[(edit["at"], out["k"])])

    def check(self, edit, out, warmup):
        if not warmup and edit["index"] % self.ROUND:
            return []
        T, m, n = self.T, self.m, self.n
        A = [self.plant.A] * (T + 1)
        B = [self.plant.B] * (T + 1)
        errors = []
        if warmup:
            # the loaded controller itself, against the unedited scenario
            vps, corrs = raw_terms(self.raw["cost"], m)
            quad = oracle.Quadratic.tracking(T, m, n, vps, corrs, self.R)
            run = linear_rollout_fn(self.sls, self.plant, self.controller)
            errors += oracle.check_plan(run, A, B, quad, edit["x0"], rtol=PLAN_RTOL,
                                        label="loaded controller plan")
            errors += oracle.check_impulses(run, A, B, quad, edit["x0"], edit["columns"],
                                            rtol=IMPULSE_RTOL)
        # the retargeted controller against an independent re-solve of the edit
        vps, corrs = raw_terms(out["config"]["cost"], m)
        quad = oracle.Quadratic.tracking(T, m, n, vps, corrs, self.R)
        run = linear_rollout_fn(self.sls, self.plant, out["controller"])
        errors += oracle.check_plan(run, A, B, quad, edit["x0"], rtol=PLAN_RTOL,
                                    label="retargeted plan")
        return errors


WORKLOADS = {"synth-long": SynthLong, "arm-pickplace": ArmPickplace,
             "retarget-stream": RetargetStream}

# Tolerances of the independent checks, relative to the largest entry of the
# reference (see README.md for how they were set).
PLAN_RTOL = 1e-8
IMPULSE_RTOL = 1e-7
ARM_PLAN_RTOL = 1e-7
ARM_PLAN_ATOL = 1e-12
PLACE_TOL = 5e-3
NOMINAL_TOL = 1e-9
STATIONARITY_STEP = 1e-3
STATIONARITY_RTOL = 1e-5


# -- tracing -----------------------------------------------------------------

# binding -> span name; bindings are where the package (or this file) looks
# each public name up
BINDINGS = {
    "slsctrl:build_stacked": "stacked.build_stacked",
    "slsctrl.isls:build_stacked": "stacked.build_stacked",
    "slsctrl.scenarios:build_stacked": "stacked.build_stacked",
    "slsctrl:build_viapoint_cost": "costs.build_viapoint_cost",
    "slsctrl.scenarios:build_viapoint_cost": "costs.build_viapoint_cost",
    "slsctrl:add_correlation": "costs.add_correlation",
    "slsctrl.scenarios:add_correlation": "costs.add_correlation",
    "slsctrl:solve_esls": "solver.solve_esls",
    "slsctrl.isls:solve_esls": "solver.solve_esls",
    "slsctrl.scenarios:solve_esls": "solver.solve_esls",
    "slsctrl:extract_controller": "solver.extract_controller",
    "slsctrl.isls:extract_controller": "solver.extract_controller",
    "slsctrl.scenarios:extract_controller": "solver.extract_controller",
    "slsctrl.solver:Controller.control": "solver.control",
    "slsctrl:isls_optimize": "isls.isls_optimize",
    "slsctrl.isls:linearize_plant": "isls.linearize_plant",
    "slsctrl.isls:TrackingObjective.quadratize": "isls.quadratize",
    "slsctrl.isls:TrackingObjective.true_cost": "isls.true_cost",
    "slsctrl.isls:closed_loop_step": "isls.closed_loop_step",
    "slsctrl:precompute_gain_maps": "adaptation.precompute_gain_maps",
    "slsctrl.scenarios:precompute_gain_maps": "adaptation.precompute_gain_maps",
    "slsctrl:adapt_feedforward": "adaptation.adapt_feedforward",
    "slsctrl:rollout": "plants.rollout",
    "slsctrl.scenarios:rollout": "plants.rollout",
    "slsctrl.plants:LinearPlant.step": "plants.step",
    "slsctrl.plants:PlanarArmPlant.step": "plants.step",
    "slsctrl.plants:LinearPlant.jacobians": "plants.jacobians",
    "slsctrl.plants:PlanarArmPlant.jacobians": "plants.jacobians",
    "slsctrl:linear_system_from_plant": "plants.linear_system_from_plant",
    "slsctrl.scenarios:linear_system_from_plant": "plants.linear_system_from_plant",
    "slsctrl:run_scenario": "scenarios.run_scenario",
    "slsctrl:build_cost": "scenarios.build_cost",
    "slsctrl.scenarios:build_cost": "scenarios.build_cost",
    "slsctrl:load_controller_artifact": "scenarios.load_artifacts",
    "slsctrl:load_maps_artifact": "scenarios.load_artifacts",
}


def computed_mb(obj):
    """Bytes of every numpy array reachable from obj's attributes, in MB.

    The size follows from the arrays' shapes and dtypes, not from the
    process's memory, so it is a computed figure.
    """
    seen, total, stack = set(), 0, [obj]
    while stack:
        item = stack.pop()
        if id(item) in seen:
            continue
        seen.add(id(item))
        if isinstance(item, np.ndarray):
            total += item.size * item.itemsize
        elif isinstance(item, dict):
            stack.extend(item.values())
        elif isinstance(item, (list, tuple)):
            stack.extend(item)
        elif hasattr(item, "__dict__") and not isinstance(item, type):
            stack.extend(vars(item).values())
    return total / 2**20


MEASURES = {
    "stacked.build_stacked": computed_mb,
    "solver.extract_controller": computed_mb,
    "adaptation.precompute_gain_maps": computed_mb,
}

# per-layer metric -> (unit, how it is read); ("self", span) is the median
# self time per operation, ("calls", span) the median count, ("size", span)
# the largest computed size of the span's result
PER_LAYER = {
    "stacked.build_stacked_s": ("s", "self", "stacked.build_stacked"),
    "stacked.build_stacked_calls": ("count", "calls", "stacked.build_stacked"),
    "stacked.operator_mb": ("MB", "size", "stacked.build_stacked"),
    "costs.build_viapoint_cost_s": ("s", "self", "costs.build_viapoint_cost"),
    "costs.add_correlation_s": ("s", "self", "costs.add_correlation"),
    "solver.solve_esls_s": ("s", "self", "solver.solve_esls"),
    "solver.solve_esls_calls": ("count", "calls", "solver.solve_esls"),
    "solver.extract_controller_s": ("s", "self", "solver.extract_controller"),
    "solver.controller_mb": ("MB", "size", "solver.extract_controller"),
    "solver.control_s": ("s", "self", "solver.control"),
    "solver.control_calls": ("count", "calls", "solver.control"),
    "isls.isls_optimize_s": ("s", "self", "isls.isls_optimize"),
    "isls.linearize_plant_s": ("s", "self", "isls.linearize_plant"),
    "isls.quadratize_s": ("s", "self", "isls.quadratize"),
    "isls.true_cost_s": ("s", "self", "isls.true_cost"),
    "isls.closed_loop_step_s": ("s", "self", "isls.closed_loop_step"),
    "isls.closed_loop_step_calls": ("count", "calls", "isls.closed_loop_step"),
    "isls.iterations": ("count", "note", "iterations"),
    "isls.line_search_accept_ratio": ("ratio", "note", "accept_ratio"),
    "adaptation.precompute_gain_maps_s": ("s", "self", "adaptation.precompute_gain_maps"),
    "adaptation.maps_mb": ("MB", "size", "adaptation.precompute_gain_maps"),
    "adaptation.adapt_feedforward_s": ("s", "self", "adaptation.adapt_feedforward"),
    "adaptation.adapt_feedforward_calls": ("count", "calls", "adaptation.adapt_feedforward"),
    "plants.rollout_s": ("s", "self", "plants.rollout"),
    "plants.rollout_calls": ("count", "calls", "plants.rollout"),
    "plants.step_calls": ("count", "calls", "plants.step"),
    "plants.jacobians_s": ("s", "self", "plants.jacobians"),
    "plants.linear_system_from_plant_s": ("s", "self", "plants.linear_system_from_plant"),
    "scenarios.run_scenario_s": ("s", "self", "scenarios.run_scenario"),
    "scenarios.build_cost_s": ("s", "self", "scenarios.build_cost"),
    "scenarios.load_artifacts_s": ("s", "self", "scenarios.load_artifacts"),
    "scenarios.controller_artifact_bytes": ("bytes", "note", "controller_artifact_bytes"),
    "scenarios.maps_artifact_bytes": ("bytes", "note", "maps_artifact_bytes"),
    "tracing.overhead_pct": ("%", "overhead", None),
}

# per-layer metrics that must see work on each workload
EXPECTED = {
    "synth-long": [
        "stacked.build_stacked_s", "stacked.operator_mb", "costs.build_viapoint_cost_s",
        "costs.add_correlation_s", "solver.solve_esls_s", "solver.extract_controller_s",
        "solver.controller_mb", "solver.control_s", "adaptation.precompute_gain_maps_s",
        "adaptation.maps_mb", "plants.rollout_s", "plants.step_calls",
        "plants.linear_system_from_plant_s"],
    "arm-pickplace": [
        "stacked.build_stacked_s", "stacked.operator_mb", "solver.solve_esls_s",
        "solver.extract_controller_s", "solver.controller_mb", "solver.control_s",
        "isls.isls_optimize_s", "isls.linearize_plant_s", "isls.quadratize_s",
        "isls.true_cost_s", "isls.closed_loop_step_s", "isls.iterations",
        "isls.line_search_accept_ratio", "plants.rollout_s", "plants.step_calls",
        "plants.jacobians_s"],
    "retarget-stream": [
        "costs.build_viapoint_cost_s", "costs.add_correlation_s", "solver.solve_esls_s",
        "solver.controller_mb", "solver.control_s", "adaptation.precompute_gain_maps_s",
        "adaptation.maps_mb", "adaptation.adapt_feedforward_s", "plants.rollout_s",
        "plants.step_calls", "plants.linear_system_from_plant_s",
        "scenarios.run_scenario_s", "scenarios.build_cost_s", "scenarios.load_artifacts_s",
        "scenarios.controller_artifact_bytes", "scenarios.maps_artifact_bytes"],
}


def per_layer_metrics(tracer, traced_ops, notes, overhead_pct):
    """Per-layer figures from the spans of the traced operations.

    A layer that works only during set-up (the base solve, maps and
    artifacts of retarget-stream) reports its set-up figure instead.
    """
    per_op = tracer.per_op()
    sizes = {}
    for name, op, value in tracer.sizes:
        sizes.setdefault(op, {}).setdefault(name, []).append(value)

    def span_value(kind, span):
        idx = 0 if kind == "self" else 1
        if any(span in per_op.get(op, {}) for op in traced_ops):
            return statistics.median(per_op.get(op, {}).get(span, [0.0, 0])[idx]
                                     for op in traced_ops)
        return per_op.get("setup", {}).get(span, [0.0, 0])[idx]

    def size_value(span):
        vals = [v for op in traced_ops for v in sizes.get(op, {}).get(span, [])]
        return max(vals or sizes.get("setup", {}).get(span, [0.0]))

    metrics = {}
    for name, (unit, kind, key) in PER_LAYER.items():
        if kind in ("self", "calls"):
            value = span_value(kind, key)
        elif kind == "size":
            value = size_value(key)
        elif kind == "note":
            value = notes.get(key, 0)
        else:
            value = overhead_pct
        metrics[name] = {"value": value, "unit": unit}
    return metrics


# -- the measured run ----------------------------------------------------------


def environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ.get(v) for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def timed_loop(wl, tracer, deadline, first, trace_from=None):
    """Whole rounds of operations until the deadline; returns per-op records.

    From ``trace_from`` on (a time), operations run with tracing on.  The
    workload's reference kernel runs ``REF_SAMPLES`` times right before and
    as often right after each operation, and the ``loop`` kernel once before
    and after each episode.
    """
    op_kernel = reference.KERNELS[wl.OP_KERNEL]
    records, i = [], first
    while True:
        for _ in range(wl.ROUND):
            inp = wl.make_input(i)
            traced = trace_from is not None and time.perf_counter() >= trace_from
            if tracer is not None:
                tracer.op, tracer.active = i, traced
            op_ref = [op_kernel() for _ in range(wl.REF_SAMPLES)]
            t0 = time.perf_counter()
            out = wl.op(inp)
            t1 = time.perf_counter()
            op_ref += [op_kernel() for _ in range(wl.REF_SAMPLES)]
            episodes, episode_ref = [], [reference.loop()]
            for k in range(wl.EPISODES):
                t2 = time.perf_counter()
                wl.episode(inp, out, k)
                episodes.append(time.perf_counter() - t2)
                episode_ref.append(reference.loop())
            if tracer is not None:
                tracer.active = False
            rec = {"op": i, "op_s": t1 - t0, "episode_s": episodes, "traced": traced,
                   "op_ref_s": op_ref, "episode_ref_s": episode_ref,
                   "failed": wl.failed(out), "errors": []}
            if not rec["failed"]:
                rec["errors"] = wl.check(inp, out, warmup=False)
            if "result" in out:
                rec["iterations"] = out["result"].iterations
            records.append(rec)
            del out
            i += 1
        if time.perf_counter() >= deadline:
            return records


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--mode", choices=("setup", "run"), default="run")
    ap.add_argument("--spawned", type=float, required=True,
                    help="time.monotonic() of the parent just before it started this process")
    ap.add_argument("--out", required=True, help="directory for artifacts and spans")
    args = ap.parse_args(argv)

    sls = import_package()
    tracer = None
    if args.trace:
        tracer = Tracer()
        try:
            tracer.install(BINDINGS, MEASURES)
        except MissingBinding as exc:
            print(f"tracing: {exc}", file=sys.stderr)
            return 3
        tracer.op, tracer.active = "setup", True

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    wl = WORKLOADS[args.workload](sls, args.seed, out_dir)
    setup_s = time.monotonic() - args.spawned
    if tracer is not None:
        tracer.active = False
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    # one untimed warm-up operation, checked like every other
    inp = wl.make_input(0)
    if tracer is not None:
        tracer.op, tracer.active = "warmup", True
    out = wl.op(inp)
    wl.episode(inp, out, 0)
    if tracer is not None:
        tracer.active = False
    warm = {"op": 0, "failed": wl.failed(out), "errors": []}
    if not warm["failed"]:
        warm["errors"] = wl.check(inp, out, warmup=True)
    if "response" in out:
        # recorded for the record only: feedforward is 0 by construction
        # (d_x is computed as S_u d_u), so neither residual is evidence
        warm["residuals"] = out["response"].residuals(out["stacked"])
    del out
    reference.warm_up()

    start = time.perf_counter()
    deadline = start + args.seconds
    trace_from = start + args.seconds / 2 if tracer is not None else None
    records = timed_loop(wl, tracer, deadline, first=1, trace_from=trace_from)

    ok = [r for r in records if not r["failed"]]
    result = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "setup_s": setup_s,
        "attempted": len(records) + 1,
        "failed": sum(r["failed"] for r in records) + int(warm["failed"]),
        "errors": warm["errors"] + [e for r in records for e in r["errors"]],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "warmup": warm,
        "environment": environment(),
        "records": records,
    }
    plain = [r for r in ok if not r["traced"]]
    if plain:
        ops = [r["op_s"] for r in plain]
        episodes = [e for r in plain for e in r["episode_s"]]
        # each time over its neighbouring reference kernels, median over
        # the run: see "Statistic" in README.md
        result["controller_ref"] = statistics.median(
            r["op_s"] / statistics.median(r["op_ref_s"]) for r in plain)
        result["episode_ref"] = statistics.median(
            e / statistics.fmean(r["episode_ref_s"][k:k + 2])
            for r in plain for k, e in enumerate(r["episode_s"]))
        result["raw_ms"] = {"controller": 1e3 * statistics.median(ops),
                            "episode": 1e3 * statistics.median(episodes),
                            "reference_" + wl.OP_KERNEL: 1e3 * statistics.median(
                                t for r in plain for t in r["op_ref_s"]),
                            "reference_loop": 1e3 * statistics.median(
                                t for r in plain for t in r["episode_ref_s"])}
    if tracer is not None:
        traced = [r for r in ok if r["traced"]]
        if not traced or not plain:
            print("tracing: the run was too short for an untraced and a traced half",
                  file=sys.stderr)
            return 3
        base = min(r["op_s"] + sum(r["episode_s"]) for r in plain)
        with_trace = min(r["op_s"] + sum(r["episode_s"]) for r in traced)
        notes = {}
        if any("iterations" in r for r in traced):
            iters = [r["iterations"] for r in traced]
            calls = tracer.per_op()
            notes["iterations"] = statistics.median(iters)
            notes["accept_ratio"] = statistics.median(
                r["iterations"] / calls[r["op"]]["isls.closed_loop_step"][1] for r in traced)
        if hasattr(wl, "artifact_bytes"):
            notes["controller_artifact_bytes"] = wl.artifact_bytes["controller"]
            notes["maps_artifact_bytes"] = wl.artifact_bytes["maps"]
        layers = per_layer_metrics(tracer, [r["op"] for r in traced], notes,
                                   100.0 * (with_trace - base) / base)
        result["per_layer"] = layers
        result["unmeasured"] = [name for name in EXPECTED[args.workload]
                                if not layers[name]["value"]]
        spans_path = out_dir / "spans.csv"
        tracer.write(spans_path)
        result["spans"] = str(spans_path)
        tracer.uninstall()
    print(json.dumps(result, default=float))
    return 0


if __name__ == "__main__":
    sys.exit(main())
