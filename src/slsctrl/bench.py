"""Seeded benchmark experiments comparing the synthesis against baselines.

Three experiments, all reproducible from a root seed:

* mug-sugar: paired trials of the memory-carrying synthesis against a
  replanning memoryless tracker on the double-integrator pouring task,
  identical disturbance realizations per trial.
* pick-place: the iterative solver on the planar arm task whose grasp
  height is deliberately left imprecise and whose place height is tied to
  the realized grasp height by correlation terms.
* adaptation: target edits applied through the precomputed feedforward
  maps, checked against full re-solves both in feedforward space and
  through rolled-out trajectories.
"""

from __future__ import annotations

import importlib.resources
import time
from dataclasses import dataclass, field, fields

import numpy as np

from .adaptation import adapt_feedforward, precompute_gain_maps
from .isls import isls_optimize
from .plants import linear_system_from_plant, mpc_lqt_rollout, rollout
from .scenarios import (
    BENCH_EDIT,
    Scenario,
    ValidationError,
    _json_copy,
    build_cost,
    build_noise,
    build_objective,
    build_plant,
    config_sha256,
    correlation_residuals,
    draw_initial_state,
    isls_config,
    parse_edit,
    realized_cost,
    scenario_from,
)
from .solver import extract_controller, solve_esls


def bundled_scenario_path(name):
    """Path of a scenario shipped with the package (name without extension)."""
    return str(importlib.resources.files("slsctrl") / "data" / f"{name}.scenario.json")


@dataclass
class BenchmarkReport:
    """Per-trial results plus summary statistics recomputable from them."""

    scenario: str
    seeds: dict
    per_trial: list = field(default_factory=list)
    summary: dict = field(default_factory=dict)
    wall_clock: dict = field(default_factory=dict)
    config_sha256: str = ""

    @staticmethod
    def mean_std(values):
        """Population mean and std; the summary always uses this exact pair."""
        arr = np.asarray(values, dtype=float)
        return float(np.mean(arr)), float(np.std(arr))

    def to_dict(self):
        return {f.name: getattr(self, f.name) for f in fields(self)}


def bench_mug_sugar(trials=10, seed=0, scenario_path=None):
    """Paired comparison on the pouring task: same draws for both solvers.

    The synthesized controller is solved once (it does not depend on the
    realization); the baseline re-solves its remaining horizon at the first
    correlation's earlier timestep, which is when the information it wants
    to condition on becomes available.  Both rollouts are scored by
    :func:`~slsctrl.scenarios.realized_cost`, the scenario's own terms.
    """
    if trials < 2:
        raise ValueError("paired comparison needs at least 2 trials")
    scenario = scenario_from(scenario_path or bundled_scenario_path("mug_sugar"))
    plant = build_plant(scenario)
    cost, objective = build_cost(scenario), build_objective(scenario)
    noise = build_noise(scenario)
    if not cost.correlations:
        raise ValueError("the pouring benchmark needs at least one correlation term")
    t_r = cost.correlations[0].t1

    t0 = time.perf_counter()
    system = linear_system_from_plant(plant, scenario.horizon)
    controller = extract_controller(solve_esls(system, cost))
    solve_seconds = time.perf_counter() - t0

    report = BenchmarkReport(
        scenario=scenario.name,
        seeds={"root": int(seed), "trials": int(trials)},
        config_sha256=config_sha256(scenario.raw),
    )
    children = np.random.SeedSequence(seed).spawn(trials)
    mpc_seconds = []
    for i in range(trials):
        rng = np.random.default_rng(children[i])
        x0 = draw_initial_state(scenario, rng, plant)
        w = noise.sample(rng).reshape(scenario.horizon + 1, -1)
        w[0] = x0

        traj_sls = rollout(plant, controller, w=w)
        t1 = time.perf_counter()
        traj_mpc = mpc_lqt_rollout(plant, cost, t_r, w=w)
        mpc_seconds.append(time.perf_counter() - t1)

        cost_sls, _ = realized_cost(scenario, traj_sls, objective)
        cost_mpc, _ = realized_cost(scenario, traj_mpc, objective)
        report.per_trial.append({
            "trial": i,
            "x0": x0.tolist(),
            "cost_esls": float(cost_sls),
            "cost_mpc_lqt": float(cost_mpc),
            "esls_wins": bool(cost_sls < cost_mpc),
            "memory_residual_esls": correlation_residuals(scenario, traj_sls),
            "memory_residual_mpc_lqt": correlation_residuals(scenario, traj_mpc),
        })

    esls_costs = [t["cost_esls"] for t in report.per_trial]
    mpc_costs = [t["cost_mpc_lqt"] for t in report.per_trial]
    mean_e, std_e = BenchmarkReport.mean_std(esls_costs)
    mean_m, std_m = BenchmarkReport.mean_std(mpc_costs)
    report.summary = {
        "esls": {"mean": mean_e, "std": std_e},
        "mpc_lqt": {"mean": mean_m, "std": std_m},
        "mean_cost_ratio": mean_e / mean_m,
        "esls_wins_all": all(t["esls_wins"] for t in report.per_trial),
        "recompute_time": int(t_r),
    }
    report.wall_clock = {
        "esls_solve_seconds": solve_seconds,
        "mpc_lqt_rollout_seconds_mean": float(np.mean(mpc_seconds)),
    }
    return report


def bench_pickplace(trials=5, seed=0, scenario_path=None):
    """Iterative synthesis on the arm task across perturbed initial postures.

    Reports the grasp height the solver chose (free along the imprecise
    axis), the lift apex relative to it, the place-height residual the
    correlations enforce, and convergence statistics.  Non-convergence is
    recorded per trial, never raised.
    """
    if trials < 1:
        raise ValueError("need at least 1 trial")
    scenario = scenario_from(scenario_path or bundled_scenario_path("pickplace_arm"))
    plant = build_plant(scenario)
    objective = build_objective(scenario)
    lift = next(c for c in scenario.correlations if np.any(c.c != 0))
    place = next(c for c in scenario.correlations if not np.any(c.c != 0))
    t_g, t_l, t_p = place.t1, lift.t2, place.t2
    y_idx = 2 * plant.n_links + 1
    lift_offset = float(lift.c[y_idx])

    cfg = isls_config(scenario)
    report = BenchmarkReport(
        scenario=scenario.name,
        seeds={"root": int(seed), "trials": int(trials)},
        config_sha256=config_sha256(scenario.raw),
    )
    children = np.random.SeedSequence(seed).spawn(trials)
    for i in range(trials):
        rng = np.random.default_rng(children[i])
        x0 = draw_initial_state(scenario, rng, plant)
        t0 = time.perf_counter()
        controller, result = isls_optimize(plant, objective, x0, config=cfg)
        solve_seconds = time.perf_counter() - t0
        traj = rollout(plant, controller, x0=x0)
        ee_y = traj.states[:, y_idx]
        grasp_height = float(ee_y[t_g])
        report.per_trial.append({
            "trial": i,
            "theta0": x0[:plant.n_links].tolist(),
            "grasp_height": grasp_height,
            "lift_apex": float(np.max(ee_y[t_g:t_p + 1])),
            "lift_target": grasp_height + lift_offset,
            "place_residual": float(abs(ee_y[t_p] - ee_y[t_g])),
            "iterations": result.iterations,
            "second_order_iterations": sum(h.second_order for h in result.history),
            "converged": bool(result.converged),
            "reason": result.reason,
            "stationarity": result.stationarity,
            # the largest joint-limit penalty: a posture folded past a limit shows here
            "limit_penalty": float(np.max(
                controller.nominal_x.reshape(-1, plant.state_dim)[:, 2 * plant.n_links + 5:])),
            "cost": result.cost,
            "cost_history": [h.cost for h in result.history],
            "solve_seconds": solve_seconds,
        })

    heights = [t["grasp_height"] for t in report.per_trial]
    mean_h, std_h = BenchmarkReport.mean_std(heights)
    residuals = [t["place_residual"] for t in report.per_trial]
    mean_r, std_r = BenchmarkReport.mean_std(residuals)
    report.summary = {
        "grasp_height": {"mean": mean_h, "std": std_h,
                         "spread": float(np.ptp(heights))},
        "place_residual": {"mean": mean_r, "std": std_r,
                           "max": float(np.max(residuals))},
        "all_converged": all(t["converged"] for t in report.per_trial),
        "timesteps": {"grasp": int(t_g), "lift": int(t_l), "place": int(t_p)},
    }
    report.wall_clock = {
        "solve_seconds_mean": float(np.mean([t["solve_seconds"]
                                             for t in report.per_trial])),
    }
    return report


def apply_viapoint_edit(config, t, target):
    """New scenario config with the viapoint at ``t`` retargeted (weights kept).

    The result shares nothing mutable with ``config``.
    """
    config = _json_copy(config)
    hits = [vp for vp in config["cost"].get("viapoints", []) if vp["t"] == t]
    if not hits:
        raise ValueError(f"no viapoint at t={t} to edit")
    for vp in hits:
        vp["target"] = [float(v) for v in np.asarray(target, float)]
    return config


def bench_adaptation(scenario_path=None, target_edits=None, seed=0):
    """Retarget through the precomputed maps and compare with full re-solves.

    Each edit is a dict {"t": viapoint time, "target": new target,
    "at": rollout step where the swap happens (optional, 0 = before
    starting)}; a malformed edit raises ValidationError naming its field.
    Rollouts are deterministic (zero noise) so the comparisons isolate the
    adaptation path; every edit reports the feedforward gap to a re-solve,
    both wall-clocks, and trajectory agreement.
    """
    scenario = scenario_from(scenario_path or bundled_scenario_path("mug_sugar"))
    if target_edits is None:
        t_edit, base_target, _ = max(scenario.viapoints, key=lambda vp: vp[0])
        shifted = base_target.copy()
        shifted[0] += 0.1
        target_edits = [
            {"t": t_edit, "target": shifted.tolist(), "at": 0},
            {"t": t_edit, "target": shifted.tolist(), "at": scenario.horizon // 2},
            {"t": t_edit, "target": base_target.tolist(), "at": 0},  # no-op
        ]
    if not isinstance(target_edits, list):
        raise ValidationError(f"target_edits: expected a list, got {type(target_edits).__name__}")
    target_edits = [parse_edit(scenario, edit, f"target_edits[{i}]", BENCH_EDIT)
                    for i, edit in enumerate(target_edits)]
    plant = build_plant(scenario)
    cost = build_cost(scenario)
    system = linear_system_from_plant(plant, scenario.horizon)
    t0 = time.perf_counter()
    response = solve_esls(system, cost)
    controller = extract_controller(response)
    base_solve_seconds = time.perf_counter() - t0
    maps = precompute_gain_maps(system, cost, controller)

    rng = np.random.default_rng(np.random.SeedSequence(seed))
    x0 = draw_initial_state(scenario, rng, plant)
    base_traj = rollout(plant, controller, x0=x0)

    report = BenchmarkReport(
        scenario=scenario.name,
        seeds={"root": int(seed)},
        config_sha256=config_sha256(scenario.raw),
    )
    for edit in target_edits:
        t_edit, target, at = edit["t"], edit["target"], edit["at"]
        new_config = apply_viapoint_edit(scenario.raw, t_edit, target)
        new_cost = build_cost(Scenario.from_dict(new_config))

        t1 = time.perf_counter()
        k_adapt = adapt_feedforward(maps, new_cost.x_d, new_cost.u_d)
        adapt_seconds = time.perf_counter() - t1
        t1 = time.perf_counter()
        k_resolve = extract_controller(solve_esls(system, new_cost)).k
        resolve_seconds = time.perf_counter() - t1
        k_gap = float(np.max(np.abs(k_adapt - k_resolve)))

        traj_adapt, traj_resolve = (
            rollout(plant, controller, x0=x0, feedforward_schedule=[(at, k)])
            for k in (k_adapt, k_resolve))
        tracking_error = float(np.max(np.abs(traj_adapt.states[t_edit] - target)))
        report.per_trial.append({
            "edit_t": t_edit,
            "swap_at": at,
            "target": target.tolist(),
            "feedforward_gap": k_gap,
            "tracking_error": tracking_error,
            "trajectory_gap_vs_resolve": float(
                np.max(np.abs(traj_adapt.states - traj_resolve.states))),
            "trajectory_gap_vs_base": float(
                np.max(np.abs(traj_adapt.states - base_traj.states))),
            "adapt_seconds": adapt_seconds,
            "resolve_seconds": resolve_seconds,
        })

    gaps = [t["feedforward_gap"] for t in report.per_trial]
    report.summary = {
        "max_feedforward_gap": float(np.max(gaps)),
        "adapt_faster_always": all(
            t["adapt_seconds"] < t["resolve_seconds"] for t in report.per_trial),
    }
    report.wall_clock = {
        "base_solve_seconds": base_solve_seconds,
        "adapt_seconds_mean": float(np.mean([t["adapt_seconds"]
                                             for t in report.per_trial])),
        "resolve_seconds_mean": float(np.mean([t["resolve_seconds"]
                                               for t in report.per_trial])),
    }
    return report
