"""Seeded end-to-end benchmark of slsctrl.

Run from the root of a checkout:

    python3 benchmark/run.py --workload synth-long --seed 0 --seconds 15 --trace 0
    python3 benchmark/run.py --workload all --seed 0 --seconds 15

Each workload runs in processes of its own (``workloads.py``): one that
sets up, runs one untimed warm-up operation and measures operations for
``--seconds``, and, before and after it, set-up-only ones for ``setup_s``.  The BLAS
thread count of every such process is fixed by ``--blas-threads``.  The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  The run exits non-zero when a check
fails, and without a result when the package cannot be run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".benchmark_out"
WORKLOADS = ("synth-long", "arm-pickplace", "retarget-stream")
SETUP_PROBES = 3            # set-up-only processes before and again after the measured one
TIME_LIMIT_S = 170          # every process of one workload ends within this
END_TO_END_UNITS = {"setup_s": "s", "peak_rss_mb": "MB",
                    "controller_ref": "ref", "episode_ref": "ref"}


class WorkerFailed(RuntimeError):
    pass


def worker(args, workload, mode, out_dir, env, deadline):
    """Start one workload process, wait for it, and return its JSON result."""
    budget = deadline - time.monotonic()
    if budget <= 0:
        raise WorkerFailed(f"{workload}: no time left for a {mode} process")
    cmd = [sys.executable, str(HERE / "workloads.py"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--mode", mode, "--out", str(out_dir)]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--spawned", repr(spawned)], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=budget)
    except subprocess.TimeoutExpired:
        raise WorkerFailed(f"{workload}: {mode} process exceeded {budget:.0f} s") from None
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerFailed(f"{workload}: {mode} process exited with {proc.returncode}")
    return json.loads(lines[-1])


def run_workload(args, workload, env):
    """All processes of one workload; returns (result line, full record)."""
    deadline = time.monotonic() + TIME_LIMIT_S
    out_dir = OUT / f"{workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"

    def probes():
        count = 0 if args.trace else SETUP_PROBES
        return [worker(args, workload, "setup", out_dir / "probe", env, deadline)["setup_s"]
                for _ in range(count)]

    try:
        setups = probes()
        full = worker(args, workload, "run", out_dir / "run", env, deadline)
        setups += probes()
    finally:
        # set-up artifacts go; the spans and the record stay
        shutil.rmtree(out_dir / "probe", ignore_errors=True)
        for path in (out_dir / "run").glob("*"):
            if path.is_dir():
                shutil.rmtree(path)
    setups.append(full["setup_s"])
    full["setup_probes_s"] = setups
    if args.trace:
        metrics = full["per_layer"]
    else:
        # the median set-up of the run: see "Statistic" in README.md
        values = {"setup_s": statistics.median(setups),
                  "peak_rss_mb": full["peak_rss_mb"],
                  "controller_ref": full.get("controller_ref"),
                  "episode_ref": full.get("episode_ref")}
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "result.json").write_text(json.dumps(full, indent=1, default=float) + "\n")
    result = {"correct": not full["errors"] and all(
                  m["value"] is not None for m in metrics.values()),
              "attempted": full["attempted"], "failed": full["failed"],
              "metrics": metrics}
    return result, full


def report(workload, result, full):
    """Human-readable lines; the JSON result line follows them."""
    print(f"== {workload}  seed={full['seed']}  seconds={full['seconds']}  "
          f"trace={full['trace']}")
    print(f"   environment: {json.dumps(full['environment'], sort_keys=True)}")
    print(f"   attempted={result['attempted']} failed={result['failed']} "
          f"correct={result['correct']}")
    for err in full["errors"][:20]:
        print(f"   CHECK FAILED: {err}")
    for name, m in result["metrics"].items():
        print(f"   {name:40s} {m['value']!s:>24} {m['unit']}")
    if full.get("raw_ms"):
        print(f"   raw medians in ms (not metrics): {full['raw_ms']}")
    if full.get("unmeasured"):
        print(f"   NO WORK RECORDED for: {', '.join(full['unmeasured'])}")
    if full.get("warmup", {}).get("residuals"):
        print(f"   residuals (recorded, not evidence): {full['warmup']['residuals']}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--blas-threads", type=int, default=1)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "slsctrl" / "__init__.py").is_file():
        print(f"no slsctrl sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(args.blas_threads)
    env["PYTHONHASHSEED"] = "0"

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        try:
            result, full = run_workload(args, name, env)
        except WorkerFailed as exc:
            print(str(exc), file=sys.stderr)
            return 3
        report(name, result, full)
        results[name] = result
    if args.workload == "all":
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{w}/{k}": v for w, r in results.items()
                             for k, v in r["metrics"].items()}}
    else:
        final = results[args.workload]
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
