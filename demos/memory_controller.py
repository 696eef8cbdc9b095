"""Cross-time correlations give the controller memory.

The pouring scenario asks for the drop at t=100 to land wherever the
approach actually ended up at t=20, not at a fixed point.  A correlation
term couples the two timesteps, so the synthesized law carries the realized
t=20 position forward.  A receding-horizon tracker with the same weights
has no channel for that information; after an impulse knocks the approach
off course, only the correlated controller still drops on target.
"""

import numpy as np

from slsctrl import bundled_scenario_path, dp_lqt, extract_controller, rollout, solve_esls
from slsctrl.scenarios import (
    Scenario,
    build_cost,
    build_plant,
    correlation_residuals,
    load_scenario,
)
from slsctrl import linear_system_from_plant


def main():
    scenario = Scenario.from_dict(
        load_scenario(bundled_scenario_path("mug_sugar")).raw)
    plant = build_plant(scenario)
    cost = build_cost(scenario)
    system = linear_system_from_plant(plant, scenario.horizon)
    controller = extract_controller(solve_esls(system, cost))
    baseline = dp_lqt(system, cost.diagonal_projection())

    m = plant.state_dim
    w = np.zeros((scenario.horizon + 1) * m)
    w[:m] = [0.0, 0.0, 0.1, 0.0, 0.0, 0.0]
    impulse = [(18, np.array([0.05, -0.03, 0.0, 0.0, 0.0, 0.0]))]

    print("impulse of 5.8 cm hits the approach two steps before the grasp\n")
    for label, ctrl in (("with memory", controller), ("dp tracker", baseline)):
        tr = rollout(plant, ctrl, w=w, perturbations=impulse)
        res = correlation_residuals(scenario, tr)
        gap = max(r["residual"] for r in res)
        approach = tr.states[20][:3]
        drop = tr.states[100][:3]
        print(f"{label:>12}: approach ({approach[0]:+.3f}, {approach[1]:+.3f}) "
              f"drop ({drop[0]:+.3f}, {drop[1]:+.3f})  gap {gap:.2e} m")


if __name__ == "__main__":
    main()
