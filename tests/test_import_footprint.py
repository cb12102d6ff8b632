"""Importing the package and its CLI loads none of the modules that weigh on every process."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# Each of these, once imported, added 0.4-7 MB to the peak RSS of every
# workload: xml.sax.saxutils pulls in urllib.request, scipy,
# numpy.polynomial and numpy.random bring their own compiled code
# (numpy.random alone took a fresh interpreter from 29.8 to 35.3 MB).
# The package imports numpy.random only inside scan_three_entry.
HEAVY = ("urllib.request", "xml.sax", "scipy", "numpy.polynomial", "numpy.random")


def test_import_loads_no_heavy_module():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    code = (
        "import sys, qubit_retro, qubit_retro.cli\n"
        f"print(*[name for name in {HEAVY!r} if name in sys.modules])"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.split() == []


def test_import_builds_no_export_table():
    # The '%.17g' tables of the CSV export are built on first use: importing
    # the package and its CLI leaves their cache empty.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    code = (
        "import qubit_retro, qubit_retro.cli\n"
        "print(qubit_retro.scans._g17_tables.cache_info().currsize)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.split() == ["0"]


def test_import_traces_no_verdict_program():
    # The batch's verdict program is traced from the formulas on the first
    # batch: importing the package and its CLI leaves its cache empty.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    code = (
        "import qubit_retro, qubit_retro.cli\n"
        "print(qubit_retro.bayes._program.cache_info().currsize)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.split() == ["0"]
