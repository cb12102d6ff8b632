"""Each script under demos/ runs to completion against the package in src/.

The region demos read the scan's columns; their printed counts are checked,
and each "fully feasible" and "mirror" line must end in True. The README's
library quick start runs as written, and prints what it says it prints.
"""

import contextlib
import io
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# The feasible-cell count each region demo prints, and its number of
# "fully feasible" and "mirror" lines.
REGION_FACTS = {
    "depolarizing_region.py": ("grid 101 x 101: 6846/10201 cells feasible", 3),
    "bb84_region.py": ("grid 101 x 101: 5599/10201 cells feasible", 4),
}


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_exits_cleanly(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(demo)], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    if demo.name in REGION_FACTS:
        count, n_facts = REGION_FACTS[demo.name]
        lines = proc.stdout.splitlines()
        assert count in lines
        facts = [line for line in lines if "fully feasible" in line or "mirror" in line]
        assert len(facts) == n_facts and all(line.endswith(" True") for line in facts), facts


def test_readme_quick_start_runs_as_written():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    flags, recovered = out.getvalue().splitlines()
    feasible, unique, residual = flags.split()
    assert (feasible, unique) == ("True", "True")
    assert 0.0 <= float(residual) <= 1e-15
    assert [float(x) for x in recovered.strip("[]").split()] == [0.3, 0.2, -0.4]
