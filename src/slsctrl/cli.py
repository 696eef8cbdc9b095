"""Command-line interface: scenario solves, rollouts, benchmarks, adaptation.

Every command is seeded and writes its artifacts under
``<out>/<scenario-name>/<label>/`` (label defaults to a timestamp; pass
``--label`` for stable paths).  Exit codes: 0 success, 2 configuration or
artifact validation error, 3 solver non-convergence.  Errors are emitted as
single-line JSON on stderr so callers can parse them.

Examples::

    slsctrl solve --scenario mug_sugar.scenario.json --seed 42 --out out --label run1
    slsctrl rollout --scenario mug_sugar.scenario.json \
        --controller out/mug_sugar/run1/controller.bin --seed 7 --out out --label replay
    slsctrl bench mug-sugar --trials 10 --seed 0 --out out --label bench1
    slsctrl adapt --scenario mug_sugar.scenario.json --maps maps.bin \
        --edit-json '{"t": 70, "target": [0.2, 0.5, 0.1, 0, 0, 0]}' --out out
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from .adaptation import adapt_feedforward
from .bench import (
    apply_viapoint_edit,
    bench_adaptation,
    bench_mug_sugar,
    bench_pickplace,
)
from .plants import linear_system_from_plant, rollout
from .scenarios import (
    ADAPT_EDIT,
    Scenario,
    SolverNotConverged,
    ValidationError,
    build_cost,
    build_plant,
    config_sha256,
    load_controller_artifact,
    load_maps_artifact,
    load_scenario,
    parse_edit,
    parse_json,
    read_json,
    realized_cost,
    rollout_draws,
    run_dir,
    run_scenario,
    write_controller_artifact,
    write_trajectory_csv,
)
from .solver import check_law


def _add_common(parser, scenario_required=True):
    parser.add_argument("--scenario", required=scenario_required,
                        help="path to a scenario JSON file")
    parser.add_argument("--seed", type=int, default=0, help="root RNG seed")
    parser.add_argument("--out", default="out", help="output root directory")
    parser.add_argument("--label", default=None,
                        help="run directory name (default: timestamp)")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="slsctrl",
        description="Closed-loop map synthesis: solve, roll out, and benchmark "
                    "tracking controllers defined by scenario files.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve a scenario and write artifacts")
    _add_common(p_solve)
    p_solve.add_argument("--trace", action="store_true",
                         help="write per-iteration solver progress (iterative solver)")
    p_solve.set_defaults(func=cmd_solve)

    p_roll = sub.add_parser("rollout",
                            help="simulate a saved controller on a scenario")
    _add_common(p_roll)
    p_roll.add_argument("--controller", required=True,
                        help="controller artifact to replay")
    p_roll.set_defaults(func=cmd_rollout)

    p_bench = sub.add_parser("bench", help="seeded benchmark experiments")
    bench_sub = p_bench.add_subparsers(dest="experiment", required=True)
    for name, func in (("mug-sugar", cmd_bench_mug_sugar),
                       ("pickplace", cmd_bench_pickplace),
                       ("adapt", cmd_bench_adapt)):
        p = bench_sub.add_parser(name)
        _add_common(p, scenario_required=False)
        if name != "adapt":
            p.add_argument("--trials", type=int, default=None,
                           help="number of trials (experiment-specific default)")
        else:
            p.add_argument("--edit-json", default=None,
                           help="JSON list of edits or @file; default: built-in edits")
        p.set_defaults(func=func)

    p_adapt = sub.add_parser("adapt",
                             help="retarget the law of a saved maps artifact")
    _add_common(p_adapt)
    p_adapt.add_argument("--maps", required=True)
    p_adapt.add_argument("--edit-json", required=True,
                         help='JSON {"t": int, "target": [...]} or @file')
    p_adapt.set_defaults(func=cmd_adapt)
    return parser


def _load_edits(raw):
    return read_json(raw[1:], "edit") if raw.startswith("@") else parse_json(raw, "--edit-json")


def cmd_solve(args):
    report = run_scenario(args.scenario, seed=args.seed, out=args.out,
                          label=args.label, trace=args.trace)
    print(json.dumps({"out_dir": report["out_dir"],
                      "realized_cost": report["realized_cost"]}))
    return 0


def _check_sizes(scenario, what, law):
    """ValidationError unless an artifact's law has the scenario's horizon and sizes."""
    for key in ("horizon", "state_dim", "input_dim"):
        if getattr(law, key) != getattr(scenario, key):
            raise ValidationError(f"{what} {key} {getattr(law, key)} does not match "
                                  f"scenario {key} {getattr(scenario, key)}")


def _validate_law(scenario, plant, cost, law):
    """:func:`~slsctrl.solver.check_law` on the scenario's dynamics, as a ValidationError."""
    try:
        check_law(linear_system_from_plant(plant, scenario.horizon), cost, law)
    except ValueError as exc:
        raise ValidationError(str(exc)) from None


def cmd_rollout(args):
    scenario = load_scenario(args.scenario)
    kind = scenario.solver["kind"]
    if kind == "mpc-lqt":
        raise ValidationError(
            "solver.kind: mpc-lqt replans during the rollout and cannot replay "
            "a fixed controller artifact; use solve"
        )
    plant = build_plant(scenario)
    controller = load_controller_artifact(args.controller)
    _check_sizes(scenario, "controller", controller)
    # an esls law against the scenario's cost, a dp-lqt law against the cost
    # that solver synthesizes; a batch-lqt plan has zero gains and an isls
    # law's gains belong to its last subproblem, so neither is checked
    if kind in ("esls", "dp-lqt") and plant.is_linear:
        cost = build_cost(scenario)
        _validate_law(scenario, plant, cost if kind == "esls" else cost.diagonal_projection(),
                      controller)
    traj = rollout(plant, controller, **rollout_draws(scenario, plant, args.seed))
    realized, cumulative = realized_cost(scenario, traj)
    out_dir = run_dir(args.out, scenario.name, args.label)
    write_trajectory_csv(out_dir / "trajectory.csv", traj, cumulative)
    report = {
        "scenario": scenario.name,
        "config_sha256": config_sha256(scenario.raw),
        "seed": int(args.seed),
        "controller_source": str(args.controller),
        "realized_cost": float(realized),
        "artifacts": {"trajectory": "trajectory.csv"},
    }
    (out_dir / "report.json").write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(json.dumps({"out_dir": str(out_dir), "realized_cost": float(realized)}))
    return 0


def _finish_bench(args, report):
    out_dir = run_dir(args.out, report.scenario, args.label)
    (out_dir / "report.json").write_text(
        json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n"
    )
    _write_trials_csv(out_dir / "trials.csv", report.per_trial)
    print(json.dumps({"out_dir": str(out_dir), "summary": report.summary}))
    return 0


def _write_trials_csv(path, per_trial):
    if not per_trial:
        Path(path).write_text("\n")
        return
    cols = [k for k, v in per_trial[0].items()
            if not isinstance(v, (list, dict))]
    lines = [",".join(cols)]
    for row in per_trial:
        lines.append(",".join(f"{row[c]:.17g}" if isinstance(row[c], float) else str(row[c])
                              for c in cols))
    Path(path).write_text("\n".join(lines) + "\n")


def cmd_bench_mug_sugar(args):
    report = bench_mug_sugar(trials=args.trials or 10, seed=args.seed,
                             scenario_path=args.scenario)
    return _finish_bench(args, report)


def cmd_bench_pickplace(args):
    report = bench_pickplace(trials=args.trials or 5, seed=args.seed,
                             scenario_path=args.scenario)
    return _finish_bench(args, report)


def cmd_bench_adapt(args):
    edits = _load_edits(args.edit_json) if args.edit_json else None
    report = bench_adaptation(scenario_path=args.scenario, target_edits=edits,
                              seed=args.seed)
    return _finish_bench(args, report)


def cmd_adapt(args):
    scenario = load_scenario(args.scenario)
    edit = parse_edit(scenario, _load_edits(args.edit_json), "--edit-json", ADAPT_EDIT)
    new_config = apply_viapoint_edit(scenario.raw, edit["t"], edit["target"])
    new_cost = build_cost(Scenario.from_dict(new_config))
    maps, _, _ = load_maps_artifact(args.maps)
    controller = maps.controller
    _check_sizes(scenario, "maps", controller)
    # an edit moves only targets, so the law must be optimal for the edited cost
    _validate_law(scenario, build_plant(scenario), new_cost, controller)
    t0 = time.perf_counter()
    k_new = adapt_feedforward(maps, new_cost.x_d, new_cost.u_d)
    adapt_seconds = time.perf_counter() - t0
    adapted = controller.with_feedforward(k_new)
    out_dir = run_dir(args.out, scenario.name, args.label)
    write_controller_artifact(out_dir / "controller_adapted.bin", adapted)
    report = {
        "scenario": scenario.name,
        "config_sha256": config_sha256(new_config),
        "edit": {"t": edit["t"], "target": edit["target"].tolist()},
        "feedforward_delta": float(np.max(np.abs(k_new - controller.k))),
        "adapt_seconds": adapt_seconds,
        "artifacts": {"controller": "controller_adapted.bin"},
    }
    (out_dir / "report.json").write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(json.dumps({"out_dir": str(out_dir),
                      "feedforward_delta": report["feedforward_delta"]}))
    return 0


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(json.dumps({"error": "validation", "message": str(exc)}),
              file=sys.stderr)
        return 2
    except SolverNotConverged as exc:
        print(json.dumps({"error": "non_convergence", "message": str(exc)}),
              file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
