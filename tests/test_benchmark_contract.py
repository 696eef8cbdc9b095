"""The benchmark drives the package through public names; keep them working.

``benchmark/selftest.py`` runs every workload at small sizes with genuine
and corrupted controllers, and the traced run wraps the names listed in
``benchmark/workloads.py``.  Both run in fresh interpreters, as the
benchmark does, so nothing this test process imported leaks in.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _run(args):
    return subprocess.run([sys.executable, *args], cwd=ROOT, capture_output=True,
                          text=True, timeout=300)


def test_benchmark_selftest_passes():
    proc = _run(["benchmark/selftest.py"])
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_tracer_finds_every_binding():
    code = (
        "import sys; sys.path.insert(0, 'benchmark')\n"
        "import workloads\n"
        "from spans import Tracer\n"
        "workloads.import_package()\n"
        "tracer = Tracer()\n"
        "tracer.install(workloads.BINDINGS, workloads.MEASURES)\n"
        "tracer.uninstall()\n"
    )
    proc = _run(["-c", code])
    assert proc.returncode == 0, proc.stderr
    assert "MissingBinding" not in proc.stderr
