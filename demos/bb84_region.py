"""Map the feasibility region of the intercept-resend (eavesdropping) family.

The channel at interception probability p has transfer eigenvalues
(1 - 2p, (1 - 2p)^2, 1 - 2p), so swapping p and 1 - p flips the signs of
the odd eigenvalues but leaves every feasibility slack unchanged: the
region is mirror symmetric about p = 1/2. The scan uses the symmetric
prior direction (1, 1, 1)/sqrt(3).
"""

from pathlib import Path

import numpy as np

from qubit_retro import (
    ScanGrid,
    bb84_channel,
    boundary_chi,
    emit_csv,
    emit_svg,
    scan_bb84,
)

out_dir = Path(__file__).resolve().parent / "output"
out_dir.mkdir(exist_ok=True)

direction = np.ones(3) / np.sqrt(3.0)
resolution = 101
scan = scan_bb84(ScanGrid.uniform(resolution, direction=direction))
print(f"grid {resolution} x {resolution}: {scan.feasible.sum()}/{len(scan)} cells feasible")

# Cells are row-major: row k of the reshaped feasible column is p = p_axis[k].
columns = scan.feasible.reshape(resolution, resolution)
print("verdicts mirror under p <-> 1 - p:", np.array_equal(columns, columns[::-1]))

for p in (0.0, 0.5, 1.0):
    k = round(p * (resolution - 1))
    lam = bb84_channel(p).lam
    print(f"p = {p:.1f}: lambdas = ({lam[0]:+.2f}, {lam[1]:+.2f}, {lam[2]:+.2f}), "
          f"column fully feasible: {columns[k].all()}")
print()

# The boundary curve inherits the mirror symmetry.
print("p      chi(p)     chi(1-p)")
p_values = np.linspace(0.0, 0.5, 6)
chi = boundary_chi(np.concatenate([p_values, 1.0 - p_values]), family="bb84", direction=direction)
for p, chi_lo, chi_hi in zip(p_values, chi[:6], chi[6:]):
    print(f"{p:.2f}   {chi_lo:.6f}   {chi_hi:.6f}")
print()

csv_path = out_dir / f"bb84_{resolution}.csv"
svg_path = out_dir / f"bb84_{resolution}.svg"
csv_path.write_bytes(emit_csv(scan))
svg_path.write_bytes(emit_svg(scan, title="bb84"))
print("wrote", csv_path)
print("wrote", svg_path)
