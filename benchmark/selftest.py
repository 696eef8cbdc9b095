"""Self-test: the benchmark's checks must reject corrupted controllers.

Run from the root of a checkout (takes a few seconds):

    python3 benchmark/selftest.py

For each workload, at small sizes, a genuine controller must pass the
workload's checks and two corruptions of it must fail them:

* zero memory: the blocks K[t, t1] for t1 < t < t2 of every correlation
  (t1, t2) are set to zero, so the controller forgets the state it should
  carry from t1 to t2;
* scaled feedforward: the feedforward vector is multiplied by 1 + 1e-6.

On arm-pickplace the converged controller's feedforward is the last
subproblem step, below the stationarity tolerance (3e-7), so scaling it by
1 + 1e-6 moves no input by more than 1e-12 and no behaviour can show it.
That corruption is applied to the controller of an unconverged solve (one
iteration), against the checks that judge the controller's behaviour.
Exits 0 when every expectation holds.
"""

from __future__ import annotations

import copy
import os
import sys
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import workloads  # noqa: E402

SCALE = 1 + 1e-6


def zero_memory(sls, ctrl, correlations):
    """Copy of ctrl with K[t, t1] = 0 for t1 < t < t2 of every correlation."""
    n, m = ctrl.input_dim, ctrl.state_dim
    K = ctrl.K.dense.copy()
    for t1, t2 in correlations:
        K[(t1 + 1) * n:t2 * n, t1 * m:(t1 + 1) * m] = 0.0
    return sls.Controller(sls.BlockLowerTriangular(K, n, m), ctrl.k,
                          ctrl.nominal_x, ctrl.nominal_u)


def scale_feedforward(ctrl):
    return ctrl.with_feedforward(ctrl.k * SCALE)


class SmallSynth(workloads.SynthLong):
    T = 60


def small_arm_scenario(sls):
    """The bundled pick-place task compressed to T=40 (grasp 16, lift 24)."""
    raw = copy.deepcopy(sls.load_scenario(sls.bundled_scenario_path("pickplace_arm")).raw)
    raw["horizon"] = 40
    remap = {40: 16, 60: 24, 100: 40}
    for vp in raw["cost"]["viapoints"]:
        vp["t"] = remap[vp["t"]]
    for corr in raw["cost"]["correlations"]:
        corr["t1"], corr["t2"] = remap[corr["t1"]], remap[corr["t2"]]
    return sls.Scenario.from_dict(raw)


def expect(results, workload, case, errors, should_fail):
    ok = bool(errors) == should_fail
    verdict = ("rejected" if errors else "accepted")
    detail = f" ({len(errors)} check failures; first: {errors[0]})" if errors else ""
    print(f"{'ok  ' if ok else 'FAIL'} {workload:16s} {case:28s} {verdict}{detail}")
    results.append(ok)


def main():
    sls = workloads.import_package()
    scratch = workloads.ROOT / ".benchmark_out" / "selftest"
    results = []

    wl = SmallSynth(sls, 0, scratch)
    req = wl.make_input(0)
    out = wl.op(req)
    corrs = [(c[0], c[1]) for c in req["correlations"]]
    genuine = out["controller"]
    expect(results, "synth-long", "genuine", wl.check(req, out, False), False)
    for case, bad in (("zero memory", zero_memory(sls, genuine, corrs)),
                      ("scaled feedforward", scale_feedforward(genuine))):
        expect(results, "synth-long", case, wl.check(req, {"controller": bad}, False), True)

    wl = workloads.RetargetStream(sls, 0, scratch)
    edit = wl.make_input(0)
    out = wl.op(edit)
    corrs = [(c["t1"], c["t2"]) for c in wl.raw["cost"]["correlations"]]
    genuine = out["controller"]
    expect(results, "retarget-stream", "genuine", wl.check(edit, out, False), False)
    for case, bad in (("zero memory", zero_memory(sls, genuine, corrs)),
                      ("scaled feedforward", scale_feedforward(genuine))):
        expect(results, "retarget-stream", case,
               wl.check(edit, dict(out, controller=bad), False), True)

    wl = workloads.ArmPickplace(sls, 0, scratch, scenario=small_arm_scenario(sls))
    inp = wl.make_input(0)
    out = wl.op(inp)
    if wl.failed(out):
        print(f"FAIL arm-pickplace small trial did not converge: {out['result']}")
        results.append(False)
    corrs = [(c[0], c[1]) for c in wl.terms[1]]
    expect(results, "arm-pickplace", "genuine", wl.check(inp, out, False), False)
    expect(results, "arm-pickplace", "zero memory",
           wl.check(inp, dict(out, controller=zero_memory(sls, out["controller"], corrs)),
                    False), True)
    cfg = copy.copy(wl.config)
    cfg.max_iterations = 1
    early, _ = sls.isls_optimize(wl.plant, wl.objective, inp["x0"], config=cfg)

    def behaviour(ctrl):
        return workloads.arm_behaviour(sls, wl.plant, ctrl, wl.terms,
                                       wl.config.regularization, inp["columns"])

    expect(results, "arm-pickplace", "genuine, one iteration", behaviour(early), False)
    expect(results, "arm-pickplace", "scaled ff, one iteration",
           behaviour(scale_feedforward(early)), True)

    print(f"{sum(results)}/{len(results)} expectations hold")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
