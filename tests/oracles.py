"""Independent reference routes that only the tests use.

Each function here computes something the package also computes, by a
different route (a pseudo-density matrix instead of the projector formula,
an eigenbasis solve instead of the closed form, a per-Pauli Kraus sum
instead of the Choi route, matrix conjugations instead of the closed-form
unscathed residuals, a probe grid and bisection instead of the roots of
the slack polynomials along a ray, one np.roots call per polynomial
instead of one eigvals call per degree, one '%.17g' per float instead of the
byte-matrix exports, scalar closed forms in (lambda, t) instead of the
depolarizing candidate's matrices, a density matrix's Pauli coefficients
instead of its Bloch vector, rational arithmetic instead of float
slacks, json.dumps instead of the package's JSON writer), so the tests
can cross-check the two.
"""

import json
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from qubit_retro import (
    PAULIS,
    BlochState,
    PauliChannel,
    ScanResult,
    anticommutator,
    apply_operator,
    herm_eig,
    is_unscathed,
    jamiolkowski,
    partial_transpose,
    tensor,
)
from qubit_retro.bayes import _CHOI_ROW_SIGNS, _candidate, _candidate_s, _nonsingular, _slacks
from qubit_retro.bayes import _verdict_rows
from qubit_retro.channels import _lambda_rows, _readonly
from qubit_retro.errors import (
    MonotonicityWarning,
    NotHermitianError,
    NotPSDError,
    QubitRetroError,
)
from qubit_retro.linalg import _check_hermitian, _pauli_vector
from qubit_retro.scans import _FAMILIES, _unit

_ID2 = np.eye(2, dtype=np.complex128)


class RankDeficientError(QubitRetroError):
    """Anticommutator equation has no solution on a null eigenvalue pair."""


class NonUniqueSolutionWarning(UserWarning):
    """The linear system is solvable but not uniquely; a minimal-norm choice was made."""


# === Linear algebra ===

def swap_matrix() -> np.ndarray:
    """The two-qubit SWAP operator, equal to (1/2) sum_i sigma_i (x) sigma_i."""
    m = np.zeros((4, 4), dtype=np.complex128)
    for i in range(2):
        for j in range(2):
            m[2 * i + j, 2 * j + i] = 1.0
    return m


# === Channels ===

def bloch_from_matrix(rho: np.ndarray) -> BlochState:
    """The state of a density matrix, read from its Pauli coefficients."""
    rho = np.asarray(rho, dtype=np.complex128)
    _check_hermitian(rho, "density matrix")
    if abs(rho.trace().real - 1.0) > 1e-10:
        raise ValueError("density matrix trace differs from 1 beyond 1e-10")
    return BlochState(2.0 * _pauli_vector(rho)[1:].real)


def jam_from_choi(c: np.ndarray) -> np.ndarray:
    """Partial transpose on the first factor: Choi matrix to (id (x) N)(SWAP), and back."""
    return partial_transpose(c)


def ptm_from_kraus(ops) -> np.ndarray:
    """Transfer matrix T[i, j] = Tr[sigma_i N(sigma_j)] / 2, N(w) = sum_k K_k w K_k^dag."""
    t = np.empty((4, 4))
    for j in range(4):
        out = np.zeros((2, 2), dtype=np.complex128)
        for k in ops:
            out += k @ PAULIS[j] @ k.conj().T
        for i in range(4):
            t[i, j] = np.trace(PAULIS[i] @ out).real / 2.0
    return t


def fujiwara_algoet(lam) -> bool:
    """Complete-positivity test for the map sigma_i -> lambda_i sigma_i.

    Checks s1 l1 + s2 l2 <= 1 + s1 s2 l3 over all four sign combinations,
    which is the unfolding of |l1 +- l2| <= |1 +- l3| with matched signs.
    """
    l1, l2, l3 = (float(x) for x in np.asarray(lam).reshape(3))
    for s1 in (1.0, -1.0):
        for s2 in (1.0, -1.0):
            if s1 * l1 + s2 * l2 > 1.0 + s1 * s2 * l3:
                return False
    return True


def rotation_from_su2(u: np.ndarray) -> np.ndarray:
    """The SO(3) Bloch rotation R[i, j] = Tr[sigma_i u sigma_j u^dag] / 2."""
    u = np.asarray(u, dtype=np.complex128)
    r = np.empty((3, 3))
    for j in range(3):
        m = u @ PAULIS[j + 1] @ u.conj().T
        for i in range(3):
            r[i, j] = np.trace(PAULIS[i + 1] @ m).real / 2.0
    return r


# === Two-time objects ===

@dataclass(frozen=True)
class PseudoDensityMatrix:
    """Two-time correlation operator {omega (x) I, J[N]} / 2.

    Hermitian with unit trace, but not positive in general; a negative
    eigenvalue is the signature of temporal (rather than spatial)
    correlations.
    """

    m: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.m, dtype=np.complex128)
        if m.shape != (4, 4):
            raise ValueError(f"expected a 4x4 operator, got {m.shape}")
        if np.abs(m - m.conj().T).max() > 1e-10:
            raise NotHermitianError("pseudo-density matrix must be Hermitian")
        if abs(m.trace().real - 1.0) > 1e-10:
            raise ValueError(f"pseudo-density matrix trace is {m.trace().real}, not 1")
        object.__setattr__(self, "m", _readonly(m))

    def min_eigenvalue(self) -> float:
        w, _ = herm_eig(self.m)
        return float(w[0])


def star_product(e, s: BlochState) -> PseudoDensityMatrix:
    """{rho (x) I, J[E]} / 2 for the channel E and input state rho."""
    j = jamiolkowski(e)
    return PseudoDensityMatrix(anticommutator(tensor(s.matrix, _ID2), j) / 2.0)


def two_time_expectation(pdm: PseudoDensityMatrix, i: int, j: int) -> float:
    """<sigma_i, sigma_j> read from a pseudo-density matrix; i, j in {1, 2, 3}."""
    if i not in (1, 2, 3) or j not in (1, 2, 3):
        raise ValueError(f"observable indices must be in 1..3, got ({i}, {j})")
    return float(np.trace(pdm.m @ tensor(PAULIS[i], PAULIS[j])).real)


def unscathed_residuals_by_conjugation(p: PauliChannel, s: BlochState) -> np.ndarray:
    """Max-entry defect of P(rho) = sigma_k rho sigma_k for each k, by 2x2 matrices."""
    rho = s.matrix
    out = apply_operator(p, rho)
    return np.array([np.abs(out - sigma @ rho @ sigma).max() for sigma in PAULIS])


def adjoint_is_inverse(p: PauliChannel, s: BlochState, tol: float = 1e-10) -> bool:
    """Whether the adjoint map is itself a Bayesian inverse for (p, s)."""
    return is_unscathed(p, s, tol) is not None


# === Closed forms of the interior candidate ===

class DepolarizingQuantities(NamedTuple):
    """The five closed-form scalars entering the depolarizing feasibility test."""

    norm_v2: float
    norm_R2: float
    norm_Rv2: float
    detR: float
    norm_adjR2: float


def depolarizing_quantities(lam: float, t: float) -> DepolarizingQuantities:
    """Closed forms for the candidate-inverse feasibility data of the
    depolarizing channel with contraction lam at squared Bloch length t."""
    s_scalar = lam * lam * t
    d = 1.0 - s_scalar
    one_m_l2 = 1.0 - lam * lam
    return DepolarizingQuantities(
        norm_v2=one_m_l2**2 * t / d**2,
        norm_R2=lam**2 * ((2.0 * lam**4 + 1.0) * t * t - 2.0 * (2.0 * lam**2 + 1.0) * t + 3.0)
        / d**2,
        norm_Rv2=lam**2 * one_m_l2**2 * (1.0 - t) ** 2 * t / d**4,
        detR=lam**3 * (t - 1.0) / d,
        norm_adjR2=lam**4 * (2.0 * (1.0 - t) ** 2 + d * d) / d**2,
    )


def exact_slacks(lam, r) -> list[Fraction]:
    """The three positivity slacks of the interior candidate at (lam, r), exactly.

    Every float64 is a dyadic rational, so the kernel's own formulas, run on
    Fractions, give the exact slacks for the given floats. lambda's sigma_y
    entry is negated, as the batched kernel reads R.
    """
    lam = [Fraction(x) for x in (np.asarray(lam) * _CHOI_ROW_SIGNS).tolist()]
    r = [Fraction(x) for x in np.asarray(r, dtype=np.float64).tolist()]
    return _slacks(*_candidate(lam, r, _nonsingular(_candidate_s(lam, r))))[-1]


# === Linear-algebra route to the interior inverse ===

def solve_anticommutator(m: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve {m (x) I, x} = b for x, with m a 2x2 Hermitian PSD matrix.

    Works in m's eigenbasis, where each 2x2 block of x is the matching block
    of b divided by an eigenvalue-pair sum. A vanishing pair sum makes the
    equation rank deficient: if the corresponding b block is nonzero there
    is no solution; if it is zero, the minimal-norm (zero) block is chosen
    and a NonUniqueSolutionWarning is emitted.
    """
    m = np.asarray(m, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    if m.shape != (2, 2) or b.shape != (4, 4):
        raise ValueError("expected m of shape (2, 2) and b of shape (4, 4)")
    w, vec = herm_eig(m)
    if w[0] < -1e-10:
        raise NotPSDError(f"m has eigenvalue {w[0]:.3e} < 0")
    basis = tensor(vec, _ID2)
    bt = basis.conj().T @ b @ basis
    xt = np.zeros((4, 4), dtype=np.complex128)
    zero_tol = 1e-10 * max(1.0, np.abs(b).max())
    for k in range(2):
        for l in range(2):
            denom = w[k] + w[l]
            block = bt[2 * k : 2 * k + 2, 2 * l : 2 * l + 2]
            if denom <= 1e-12:
                if np.abs(block).max() > zero_tol:
                    raise RankDeficientError(
                        f"eigenvalue pair ({k}, {l}) sums to {denom} against a nonzero block"
                    )
                warnings.warn(
                    "anticommutator equation is rank deficient; minimal-norm block chosen",
                    NonUniqueSolutionWarning,
                    stacklevel=2,
                )
                continue
            xt[2 * k : 2 * k + 2, 2 * l : 2 * l + 2] = block / denom
    return basis @ xt @ basis.conj().T


# === One channel's batched verdicts ===

def channel_verdicts(p: PauliChannel, r, tol: float = 1e-9):
    """(feasible, slack) of one Pauli channel at the (N, 3) priors r, by one _verdict_rows row."""
    feasible, slack = _verdict_rows(p.lam[None], np.asarray(r, dtype=np.float64).T[:, None], tol)
    return feasible[0], slack[0]


# === Boundary location ===

def bisection_chi(
    p,
    tol: float = 1e-6,
    *,
    family: str = "depolarizing",
    direction=None,
) -> float | list[float]:
    """Largest feasible t at fixed p, located by bisection.

    Feasibility along t is checked for monotonicity on a 33-point probe
    grid first; if it flips more than once a MonotonicityWarning is emitted
    and the largest feasible probe value is returned instead.

    p is one value, which returns a float, or a 1-D sequence, which returns
    a list with the float that each value alone would give. The probes of
    every p are scored together, and each bisection step scores the
    midpoints of every p still open together.

    tol is the bisection width; every probe and step is scored at the
    fixed verdict tolerance 1e-9. direction defaults to the family's prior
    direction.

    :raises ValueError: unless 0 < tol < inf, or for an unknown family.
    """
    if not 0.0 < tol < np.inf:
        raise ValueError(f"bisection tolerance must be positive and finite, got {tol}")
    if family not in _FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    probs_of, default = _FAMILIES[family]
    d = _unit(default if direction is None else direction)
    if np.ndim(p) > 1:
        raise ValueError(f"p must be one value or a 1-D sequence, got shape {np.shape(p)}")
    ps = [float(q) for q in np.atleast_1d(p)]
    if not all(0.0 <= q <= 1.0 for q in ps):
        raise ValueError(f"p must lie in [0, 1], got {p}")
    lam = _lambda_rows(probs_of(np.array(ps)))

    def feasible(rows, t) -> np.ndarray:
        r = d[:, None, None] * np.sqrt(t)
        return _verdict_rows(lam[rows], r, 1e-9)[0]

    probes = np.linspace(0.0, 1.0, 33)
    chi = np.empty(len(ps))
    lo, hi = np.zeros(len(ps)), np.zeros(len(ps))
    bisect = []
    for i, flags in enumerate(feasible(range(len(ps)), probes[None]).tolist()):
        if not flags[0]:
            chi[i] = 0.0
        elif all(flags):
            chi[i] = 1.0
        elif any(flags[flags.index(False) :]):
            warnings.warn(
                f"feasibility is not monotone in t at p = {ps[i]}",
                MonotonicityWarning,
                stacklevel=2,
            )
            chi[i] = probes[max(k for k, f in enumerate(flags) if f)]
        else:
            lo[i], hi[i] = probes[flags.index(False) - 1], probes[flags.index(False)]
            bisect.append(i)
    rows = np.array(bisect, dtype=int)
    while (rows := rows[hi[rows] - lo[rows] > tol]).size:
        mid = 0.5 * (lo[rows] + hi[rows])
        ok = feasible(rows, mid[:, None])[:, 0]
        lo[rows[ok]], hi[rows[~ok]] = mid[ok], mid[~ok]
    chi[bisect] = 0.5 * (lo[bisect] + hi[bisect])
    return float(chi[0]) if np.ndim(p) == 0 else chi.tolist()


def roots_by_row(coef: np.ndarray) -> np.ndarray:
    """np.roots of each row of an (m, n + 1) coefficient table, highest first, one call a row.

    Row i holds np.roots(coef[i]) as complex numbers, then zeros where a
    zero leading coefficient lowers its degree: the layout of
    scans._poly_roots, which boundary_chi reads.
    """
    roots = np.zeros((coef.shape[0], coef.shape[1] - 1), dtype=np.complex128)
    for row, c in zip(roots, coef):
        found = np.roots(c)
        row[: len(found)] = found
    return roots


# === Exports ===

def json_document(doc) -> str:
    """The text of a JSON file the package writes: json.dumps with a 2-space indent."""
    return json.dumps(doc, indent=2) + "\n"


def _g17(x: float) -> str:
    return format(float(x), ".17g")


def emit_csv(scan: ScanResult) -> bytes:
    """Render a scan as CSV with 17-significant-digit floats (byte stable)."""
    n_p, n_t = len(scan.grid.p_axis), len(scan.grid.t_axis)
    # One row per cell: p, t, feasible, slack1..3, formatted in a single pass.
    rows = np.empty((n_p, n_t, 6), dtype=object)
    rows[:, :, 0] = np.array([_g17(p) for p in scan.grid.p_axis], dtype=object)[:, None]
    rows[:, :, 1] = np.array([_g17(t) for t in scan.grid.t_axis], dtype=object)
    rows[:, :, 2] = scan.feasible.reshape(n_p, n_t)
    rows[:, :, 3:] = scan.slack.reshape(n_p, n_t, 3)
    body = ("%s,%s,%d,%.17g,%.17g,%.17g\n" * len(scan)) % tuple(rows.ravel().tolist())
    return ("p,t,feasible,slack1,slack2,slack3\n" + body).encode("ascii")


def emit_svg(scan: ScanResult, title: str = "") -> bytes:
    """Flat raster of the feasibility region as a standalone SVG document."""
    n_p, n_t = len(scan.grid.p_axis), len(scan.grid.t_axis)
    plot_w = plot_h = 500.0
    ml, mt, mr, mb = 70.0, 30.0, 20.0, 60.0
    width, height = ml + plot_w + mr, mt + plot_h + mb
    cw, ch = plot_w / n_p, plot_h / n_t

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" height="{height:.0f}" '
        f'viewBox="0 0 {width:.0f} {height:.0f}">',
        f'<rect x="0" y="0" width="{width:.0f}" height="{height:.0f}" fill="white"/>',
    ]
    if title:
        # Escaped by hand: xml.sax.saxutils imports urllib.request, which adds
        # ~7 MB to the peak RSS of every process that imports the package.
        title = title.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
        parts.append(
            f'<text x="{ml + plot_w / 2:.1f}" y="{mt - 10:.1f}" font-size="16" '
            f'text-anchor="middle">{title}</text>'
        )
    size = f'width="{cw:.2f}" height="{ch:.2f}"'
    y_keys = [f'y="{mt + plot_h - (j + 1) * ch:.2f}" {size}' for j in range(n_t)]
    fills = ('fill="#efecf4"/>', 'fill="#7b52a8"/>')
    flags = scan.feasible.tolist()
    for i in range(n_p):
        x_key = f'<rect x="{ml + i * cw:.2f}" '
        row = flags[i * n_t : (i + 1) * n_t]
        parts.extend(f"{x_key}{y_key} {fills[f]}" for y_key, f in zip(y_keys, row))
    ax = (
        f'<path d="M {ml:.1f} {mt:.1f} L {ml:.1f} {mt + plot_h:.1f} '
        f'L {ml + plot_w:.1f} {mt + plot_h:.1f}" fill="none" stroke="black" stroke-width="1.5"/>'
    )
    parts.append(ax)
    for frac, label in ((0.0, "0"), (0.5, "0.5"), (1.0, "1")):
        x = ml + frac * plot_w
        y = mt + plot_h * (1.0 - frac)
        parts.append(
            f'<text x="{x:.1f}" y="{mt + plot_h + 22:.1f}" font-size="13" '
            f'text-anchor="middle">{label}</text>'
        )
        parts.append(
            f'<text x="{ml - 10:.1f}" y="{y + 4:.1f}" font-size="13" '
            f'text-anchor="end">{label}</text>'
        )
    parts.append(
        f'<text x="{ml + plot_w / 2:.1f}" y="{mt + plot_h + 45:.1f}" font-size="15" '
        f'text-anchor="middle">p</text>'
    )
    parts.append(
        f'<text x="{ml - 45:.1f}" y="{mt + plot_h / 2:.1f}" font-size="15" '
        f'text-anchor="middle" transform="rotate(-90 {ml - 45:.1f} {mt + plot_h / 2:.1f})">'
        "‖r‖²</text>"
    )
    parts.append("</svg>")
    return "\n".join(parts).encode("utf-8")
