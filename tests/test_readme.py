"""The README's Quick start runs as written, and the package lists its public names."""

import ast
import re
import subprocess
import sys
from pathlib import Path

import slsctrl

ROOT = Path(__file__).resolve().parents[1]


def test_readme_quick_start_runs():
    section = (ROOT / "README.md").read_text().split("## Quick start", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    code = f"import sys\nsys.path.insert(0, {str(ROOT / 'src')!r})\n{block}"
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout.split()[-1]) > 0   # the printed rollout cost


def test_all_lists_every_public_name_of_the_package():
    # every name in __all__ resolves, and every public name that __init__.py
    # binds is in __all__, so a removal cannot leave the two out of step
    assert len(set(slsctrl.__all__)) == len(slsctrl.__all__)
    missing = [name for name in slsctrl.__all__ if not hasattr(slsctrl, name)]
    assert not missing, missing
    bound = set()
    for node in ast.parse(Path(slsctrl.__file__).read_text()).body:
        if isinstance(node, ast.ImportFrom):
            bound |= {alias.asname or alias.name for alias in node.names}
        elif isinstance(node, ast.Assign):
            bound |= {target.id for target in node.targets if isinstance(target, ast.Name)}
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            bound.add(node.name)
    unlisted = {name for name in bound if not name.startswith("_")} - set(slsctrl.__all__)
    assert not unlisted, unlisted
