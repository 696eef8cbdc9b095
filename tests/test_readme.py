"""The README's Quick start runs as written."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_readme_quick_start_runs():
    section = (ROOT / "README.md").read_text().split("## Quick start", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    code = f"import sys\nsys.path.insert(0, {str(ROOT / 'src')!r})\n{block}"
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout.split()[-1]) > 0   # the printed rollout cost
