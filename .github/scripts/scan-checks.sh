#!/usr/bin/env bash
# Region scans through the installed console script, checked against the
# library: run from an empty directory.
set -euo pipefail
# A header and 21 x 21 cells in each CSV, and the depolarizing chi table of
# 11 p values on stdout.
qubit-retro scan --family depolarizing --resolution 21 --out dep | tee dep.txt
test "$(grep -c 'chi = ' dep.txt)" -eq 11
qubit-retro scan --family bb84 --resolution 21 --out bb84
test "$(wc -l < dep/depolarizing_21.csv)" -eq 442
test "$(wc -l < bb84/bb84_21.csv)" -eq 442
# The chi lines are boundary_chi at those 11 p, to 8 decimals. Its roots come
# from a batched eigvals call, the part most exposed to the NumPy build.
python - <<'PY'
import numpy as np
from qubit_retro import boundary_chi
p_axis = np.linspace(0.0, 1.0, 11)
want = [f"  p = {p:.2f}   chi = {chi:.8f}" for p, chi in zip(p_axis, boundary_chi(p_axis))]
got = [line for line in open("dep.txt").read().splitlines() if "chi = " in line]
assert got == want, (got, want)
PY
# The boundary rows: the identity (p = 0 of both families) and sigma_y
# (bb84 p = 1) leave every prior unscathed, so each cell there is feasible
# with the channel's own slacks, all 0.
python - <<'PY'
import csv
for path, ps in (("dep/depolarizing_21.csv", {"0"}), ("bb84/bb84_21.csv", {"0", "1"})):
    with open(path, newline="") as f:
        rows = [row for row in csv.reader(f) if row[0] in ps]
    assert len(rows) == 21 * len(ps), (path, len(rows))
    assert all(row[2:] == ["1", "0", "0", "0"] for row in rows), path
PY
# The command streams each file to disk a chunk at a time; the files hold
# the bytes of emit_csv and emit_svg for the same scans.
python - <<'PY'
import numpy as np
from qubit_retro import ScanGrid, emit_csv, emit_svg, scan_bb84, scan_depolarizing
for path, family, scan, direction in (
    ("dep/depolarizing_21", "depolarizing", scan_depolarizing, (1.0, 0.0, 0.0)),
    ("bb84/bb84_21", "bb84", scan_bb84, np.ones(3) / np.sqrt(3.0)),
):
    cells = scan(ScanGrid.uniform(21, direction=direction))
    assert open(f"{path}.csv", "rb").read() == emit_csv(cells), path
    assert open(f"{path}.svg", "rb").read() == emit_svg(cells, title=family), path
PY
