"""Track two viapoints with a double integrator and compare solvers.

Solves the closed-loop maps once, then rolls the controller out under
process noise.  The dynamic-programming tracker sees the same disturbance
realization.  With a per-timestep cost like this one the two solvers are
the same optimal tracker in different clothes, so the printed costs agree
to machine precision; the memory_controller demo shows where they split.
"""

import numpy as np

from slsctrl import (
    LinearPlant,
    NoiseModel,
    build_viapoint_cost,
    double_integrator_plant,
    dp_lqt,
    extract_controller,
    linear_system_from_plant,
    rollout,
    solve_esls,
)


def main():
    T, dt = 60, 0.05
    plant = double_integrator_plant(2, dt)  # planar point mass, m = 4
    m, n = plant.state_dim, plant.input_dim

    waypoints = [
        (20, np.array([0.5, 0.2, 0.0, 0.0]), np.array([1e4, 1e4, 0.0, 0.0])),
        (T, np.array([-0.3, 0.6, 0.0, 0.0]), np.array([1e4, 1e4, 1.0, 1.0])),
    ]
    cost = build_viapoint_cost(T, waypoints, control_weight=1e-2,
                               state_dim=m, input_dim=n)

    system = linear_system_from_plant(plant, T)
    response = solve_esls(system, cost)
    controller = extract_controller(response)
    print("structural residuals:", response.residuals())

    noise = NoiseModel(T, np.zeros(m), np.zeros(m),
                       np.array([0.0, 0.0, 1e-5, 1e-5]))
    trajectory = rollout(plant, controller, noise=noise, seed=3)

    baseline = dp_lqt(system, cost)
    trajectory_dp = rollout(plant, baseline, w=trajectory.noise)

    for label, tr in (("closed-loop maps", trajectory), ("dp tracker", trajectory_dp)):
        c = cost.evaluate(tr.states, tr.inputs)
        print(f"{label:>18}: cost {c:9.4f}", end="")
        for t, g, _ in waypoints:
            err = np.linalg.norm(tr.states[t][:2] - g[:2])
            print(f"  |x_{t} - goal| = {err:.2e}", end="")
        print()


if __name__ == "__main__":
    main()
