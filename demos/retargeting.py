"""Move a goal mid-rollout without re-solving.

The feedforward is linear in the targets, so two precomputed matrices turn
a target edit into a matrix-vector product.  Here the drop target of the
pouring task shifts 10 cm while the rollout is already past the grasp; the
swapped feedforward steers the remainder exactly as a full re-solve would.
"""

import time

import numpy as np

from slsctrl import (
    adapt_feedforward,
    bundled_scenario_path,
    extract_controller,
    linear_system_from_plant,
    precompute_gain_maps,
    rollout,
    solve_esls,
)
from slsctrl.bench import apply_viapoint_edit
from slsctrl.scenarios import Scenario, build_cost, build_plant, load_scenario


def main():
    raw = load_scenario(bundled_scenario_path("mug_sugar")).raw
    scenario = Scenario.from_dict(raw)
    plant = build_plant(scenario)
    cost = build_cost(scenario)
    system = linear_system_from_plant(plant, scenario.horizon)
    controller = extract_controller(solve_esls(system, cost))
    maps = precompute_gain_maps(system, cost, controller)

    vp = next(v for v in raw["cost"]["viapoints"] if v["t"] == 70)
    shifted = list(vp["target"])
    shifted[0] += 0.10
    new_cost = build_cost(Scenario.from_dict(apply_viapoint_edit(raw, 70, shifted)))

    t0 = time.perf_counter()
    k_new = adapt_feedforward(maps, new_cost.x_d, new_cost.u_d)
    adapt_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    k_ref = extract_controller(solve_esls(system, new_cost)).k
    resolve_s = time.perf_counter() - t0

    x0 = np.array([0.0, 0.0, 0.1, 0.0, 0.0, 0.0])
    swap_at = 35
    tr = rollout(plant, controller, x0=x0, feedforward_schedule=[(swap_at, k_new)])
    tr_ref = rollout(plant, controller, x0=x0, feedforward_schedule=[(swap_at, k_ref)])

    print(f"feedforward gap to full re-solve: {np.max(np.abs(k_new - k_ref)):.2e}")
    print(f"trajectory gap after the swap:    "
          f"{np.max(np.abs(tr.states - tr_ref.states)):.2e}")
    print(f"fetch error at t=70:              "
          f"{np.linalg.norm(tr.states[70][:3] - shifted[:3]):.2e} m")
    print(f"update cost: {adapt_s * 1e6:.0f} us (maps) vs "
          f"{resolve_s * 1e3:.1f} ms (re-solve)")


if __name__ == "__main__":
    main()
