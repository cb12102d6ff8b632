"""Map the feasibility region of the depolarizing family.

For each error weight p and each squared Bloch length t = |r|^2 of the
prior, does the depolarizing channel admit a Bayesian inverse? The region
is rendered to CSV and SVG, and the feasible/infeasible boundary chi(p)
is read along a few columns from the roots of the slack polynomials in t.
"""

from pathlib import Path

import numpy as np

from qubit_retro import (
    ScanGrid,
    boundary_chi,
    depolarizing_lambda,
    emit_csv,
    emit_svg,
    scan_depolarizing,
)

out_dir = Path(__file__).resolve().parent / "output"
out_dir.mkdir(exist_ok=True)

resolution = 101
cells = scan_depolarizing(ScanGrid.uniform(resolution))
feasible = sum(c.feasible for c in cells)
print(f"grid {resolution} x {resolution}: {feasible}/{len(cells)} cells feasible")

# Landmarks: the identity column (p = 0), the lambda = 0 column (p = 0.75),
# and the maximally mixed row (t = 0) are feasible end to end.
columns = [cells[resolution * k : resolution * (k + 1)] for k in range(resolution)]
p_axis = np.linspace(0.0, 1.0, resolution)
print("p = 0 column fully feasible:   ", all(c.feasible for c in columns[0]))
print("p = 0.75 column fully feasible:", all(c.feasible for c in columns[75]))
print("t = 0 row fully feasible:      ", all(col[0].feasible for col in columns))
print()

# The boundary chi(p): largest prior length the channel can still undo.
print("p      lambda     chi(p)")
p_values = np.linspace(0.0, 1.0, 11)
for p, chi in zip(p_values, boundary_chi(p_values)):
    print(f"{p:.2f}   {depolarizing_lambda(float(p)):+.4f}   {chi:.6f}")
print()

csv_path = out_dir / f"depolarizing_{resolution}.csv"
svg_path = out_dir / f"depolarizing_{resolution}.svg"
csv_path.write_bytes(emit_csv(cells))
svg_path.write_bytes(emit_svg(cells, title="depolarizing"))
print("wrote", csv_path)
print("wrote", svg_path)
