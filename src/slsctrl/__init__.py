"""Closed-loop map synthesis for tracking control with memory.

The package synthesizes causal affine controllers by optimizing the maps
from disturbances to states and inputs rather than the feedback gains
directly.  Cross-time cost terms make the optimal controller condition on
realized history; an iterative outer loop extends the synthesis to
nonlinear plants, and precomputed linear maps retarget the feedforward
without re-solving.
"""

from .stacked import (
    BlockLowerTriangular,
    NoiseModel,
    TimeVaryingLinearSystem,
    build_stacked,
)
from .costs import (
    CorrelationSpec,
    CostSpec,
    StateCostFunction,
    add_correlation,
    build_viapoint_cost,
    evaluate_trajectory_cost,
    expected_inner,
    expected_quadratic,
    joint_limit_violation,
    joint_limit_violation_jacobian,
)
from .solver import (
    Controller,
    SystemResponse,
    extract_controller,
    solve_esls,
)
from .plants import (
    LinearPlant,
    PlanarArmPlant,
    Plant,
    Trajectory,
    batch_lqt,
    double_integrator_plant,
    dp_lqt,
    linear_system_from_plant,
    mpc_lqt_rollout,
    planar_arm_plant,
    rollout,
    wrap_angle,
)
from .isls import (
    IslsConfig,
    IslsResult,
    IterationState,
    TrackingObjective,
    isls_optimize,
    linearize_plant,
    nominal_rollout,
)
from .adaptation import (
    AdaptationMaps,
    adapt_feedforward,
    precompute_gain_maps,
)
from .scenarios import (
    Scenario,
    SolverNotConverged,
    ValidationError,
    build_cost,
    build_noise,
    build_objective,
    build_plant,
    load_controller_artifact,
    load_maps_artifact,
    load_scenario,
    run_scenario,
    write_controller_artifact,
    write_maps_artifact,
)
from .bench import (
    BenchmarkReport,
    bench_adaptation,
    bench_mug_sugar,
    bench_pickplace,
    bundled_scenario_path,
)

__version__ = "0.1.0"

__all__ = [
    "AdaptationMaps",
    "BenchmarkReport",
    "BlockLowerTriangular",
    "Controller",
    "CorrelationSpec",
    "CostSpec",
    "IslsConfig",
    "IslsResult",
    "IterationState",
    "LinearPlant",
    "NoiseModel",
    "PlanarArmPlant",
    "Plant",
    "Scenario",
    "SolverNotConverged",
    "StateCostFunction",
    "SystemResponse",
    "TimeVaryingLinearSystem",
    "Trajectory",
    "TrackingObjective",
    "ValidationError",
    "adapt_feedforward",
    "add_correlation",
    "batch_lqt",
    "bench_adaptation",
    "bench_mug_sugar",
    "bench_pickplace",
    "build_cost",
    "build_noise",
    "build_objective",
    "build_plant",
    "build_stacked",
    "build_viapoint_cost",
    "bundled_scenario_path",
    "double_integrator_plant",
    "dp_lqt",
    "evaluate_trajectory_cost",
    "expected_inner",
    "expected_quadratic",
    "extract_controller",
    "isls_optimize",
    "joint_limit_violation",
    "joint_limit_violation_jacobian",
    "linear_system_from_plant",
    "linearize_plant",
    "load_controller_artifact",
    "load_maps_artifact",
    "load_scenario",
    "mpc_lqt_rollout",
    "nominal_rollout",
    "planar_arm_plant",
    "precompute_gain_maps",
    "rollout",
    "run_scenario",
    "solve_esls",
    "write_controller_artifact",
    "write_maps_artifact",
    "wrap_angle",
]
