"""Feasibility-region sweeps over channel families and their exports.

Each scan walks a (p, t) grid, where p parametrizes a Pauli-channel family
and t = |r|^2 is the squared Bloch length of the prior state along a fixed
direction, and records whether the Bayesian inverse exists in each cell.
Region scans and the probes and bisection steps of :func:`boundary_chi`
are scored in blocks of (channel, prior) pairs: the interior rows of a
grid go through the closed forms of
:func:`~qubit_retro.bayes.pauli_frame_verdicts` together, a few whole rows
per block, and a boundary row through that function itself. The verdicts
are bit-identical to one call per row. A three-entry channel is tested
against its Bloch samples in one call. A scan returns a columnar
:class:`ScanResult`, whose cells are row-major (p outer, t inner) so
repeated runs produce byte-identical CSV output; :class:`RegionCell`
objects are made only when a cell is read.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .bayes import (
    WITNESSES,
    InverseRecord,
    _interior_verdicts,
    _on_boundary,
    bayesian_inverse,
    pauli_frame_verdicts,
)
from .channels import BlochState, PauliChannel, _readonly
from .errors import MonotonicityWarning

__all__ = [
    "ScanGrid",
    "RegionCell",
    "ScanResult",
    "DepolarizingQuantities",
    "ThreeEntrySummary",
    "depolarizing_lambda",
    "depolarizing_quantities",
    "bb84_channel",
    "scan_depolarizing",
    "scan_bb84",
    "boundary_chi",
    "scan_three_entry",
    "emit_csv",
    "emit_svg",
]


def _unit(direction) -> np.ndarray:
    d = np.asarray(direction, dtype=np.float64).reshape(3)
    norm = np.linalg.norm(d)
    if not abs(norm - 1.0) <= 1e-12:
        raise ValueError(f"direction must be a unit vector, |d| = {norm}")
    return d


@dataclass(frozen=True)
class ScanGrid:
    """Axes of a region scan: p values, t values, and the Bloch direction."""

    p_axis: np.ndarray
    t_axis: np.ndarray
    direction: np.ndarray

    def __post_init__(self) -> None:
        for name in ("p_axis", "t_axis"):
            ax = np.asarray(getattr(self, name), dtype=np.float64).reshape(-1)
            if ax.size < 2 or (np.diff(ax) <= 0).any():
                raise ValueError(f"{name} must be strictly increasing with >= 2 points")
            if ax[0] < 0.0 or ax[-1] > 1.0:
                raise ValueError(f"{name} must lie inside [0, 1]")
            ax.flags.writeable = False
            object.__setattr__(self, name, ax)
        d = _unit(self.direction)
        d.flags.writeable = False
        object.__setattr__(self, "direction", d)

    @classmethod
    def uniform(cls, resolution: int, direction=(1.0, 0.0, 0.0)) -> "ScanGrid":
        if resolution < 2:
            raise ValueError(f"resolution must be >= 2, got {resolution}")
        axis = np.linspace(0.0, 1.0, resolution)
        return cls(p_axis=axis, t_axis=axis.copy(), direction=np.asarray(direction, float))


@dataclass(frozen=True)
class RegionCell:
    """Verdict for one (p, t) grid point."""

    p: float
    t: float
    feasible: bool
    slack: np.ndarray
    witness: str | None = None

    def __post_init__(self) -> None:
        s = np.asarray(self.slack, dtype=np.float64).reshape(3)
        if not np.isfinite(s).all():
            raise ValueError(f"slack must be finite, got {s}")
        s.flags.writeable = False
        object.__setattr__(self, "slack", s)


@dataclass(frozen=True)
class ScanResult:
    """Verdicts of a region scan as columns, one entry per cell, row-major.

    Cell k sits at p = grid.p_axis[k // len(grid.t_axis)] and
    t = grid.t_axis[k % len(grid.t_axis)]. Indexing, slicing and iterating
    give :class:`RegionCell` views made on demand.
    """

    grid: ScanGrid
    feasible: np.ndarray
    slack: np.ndarray
    witness: np.ndarray

    def __post_init__(self) -> None:
        n = len(self.grid.p_axis) * len(self.grid.t_axis)
        for name, dtype, shape in (
            ("feasible", bool, (n,)),
            ("slack", np.float64, (n, 3)),
            ("witness", np.int8, (n,)),
        ):
            col = np.asarray(getattr(self, name), dtype=dtype)
            if col.shape != shape:
                raise ValueError(f"{name} must have shape {shape}, got {col.shape}")
            object.__setattr__(self, name, _readonly(col))
        if not np.isfinite(self.slack).all():
            raise ValueError("slack must be finite")

    def __len__(self) -> int:
        return len(self.feasible)

    def __getitem__(self, key):
        if isinstance(key, slice):
            return [self._cell(k) for k in range(len(self))[key]]
        return self._cell(range(len(self))[key])

    def __iter__(self):
        return map(self._cell, range(len(self)))

    def _cell(self, k: int) -> RegionCell:
        i, j = divmod(k, len(self.grid.t_axis))
        return RegionCell(
            p=float(self.grid.p_axis[i]),
            t=float(self.grid.t_axis[j]),
            feasible=bool(self.feasible[k]),
            slack=self.slack[k],
            witness=WITNESSES[self.witness[k]],
        )


class DepolarizingQuantities(NamedTuple):
    """The five closed-form scalars entering the depolarizing feasibility test."""

    norm_v2: float
    norm_R2: float
    norm_Rv2: float
    detR: float
    norm_adjR2: float


def depolarizing_lambda(p: float) -> float:
    """Bloch contraction factor of the depolarizing channel, 1 - 4p/3."""
    return 1.0 - 4.0 * p / 3.0


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


def bb84_channel(p: float) -> PauliChannel:
    """Pauli channel of an intercept-resend eavesdropping attack with flip rate p."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"flip rate must lie in [0, 1], got {p}")
    q = 1.0 - p
    vec = np.array([q * q, p * q, p * p, p * q])
    return PauliChannel(vec / vec.sum())


# === Region scans ===

# Interior pairs are scored in blocks of whole rows with at most this many
# pairs. The largest temporary, the (3, 3, N) candidate stack R, takes 72 N
# bytes, so a block stays under glibc's default 128 KiB mmap threshold and
# its temporaries are reused from the heap instead of being mapped afresh.
# One block of all 40,401 cells of a 201 x 201 scan raised the peak RSS of
# 12 repeated CLI scans from 50.0 to 50.5 MB (2-CPU Xeon VM, NumPy 2.4).
_PAIR_BLOCK = 1536


def _row_verdicts(channels, r: np.ndarray, tol: float):
    """Verdicts of channel i at the priors r[:, i] for every row i.

    :param channels: M Pauli channels, one per row.
    :param r: (3, M, n) prior columns, or (3, 1, n) for the same n priors
        in every row.
    :return: (feasible, slack, witness) of shapes (M, n), (M, n, 3) and
        (M, n), as :func:`~qubit_retro.bayes.pauli_frame_verdicts` gives
        them row by row. Boundary rows go through that function; interior
        rows are scored together in blocks of whole rows.
    """
    n_rows, n = len(channels), r.shape[-1]
    r = np.broadcast_to(r, (3, n_rows, n))
    feasible = np.empty((n_rows, n), dtype=bool)
    slack = np.empty((n_rows, n, 3))
    witness = np.empty((n_rows, n), dtype=np.int8)
    lam = np.array([c.lam for c in channels]).reshape(n_rows, 3)
    boundary = _on_boundary(lam)
    for i in np.flatnonzero(boundary):
        feasible[i], slack[i], witness[i] = pauli_frame_verdicts(channels[i], r[:, i].T, tol)
    interior = np.flatnonzero(~boundary)
    step = max(1, _PAIR_BLOCK // n)
    for start in range(0, len(interior), step):
        rows = interior[start : start + step]
        lam_cols = np.repeat(lam[rows].T, n, axis=1)
        f, s, w = _interior_verdicts(lam_cols, r[:, rows].reshape(3, -1), tol)
        feasible[rows] = f.reshape(len(rows), n)
        slack[rows] = s.reshape(len(rows), n, 3)
        witness[rows] = w.reshape(len(rows), n)
    return feasible, slack, witness


def _scan_family(grid: ScanGrid, channel_of, tol: float) -> ScanResult:
    channels = [channel_of(float(p)) for p in grid.p_axis]
    r = (grid.direction[:, None] * np.sqrt(grid.t_axis))[:, None]
    feasible, slack, witness = _row_verdicts(channels, r, tol)
    return ScanResult(grid, feasible.ravel(), slack.reshape(-1, 3), witness.ravel())


def scan_depolarizing(grid: ScanGrid, tol: float = 1e-9) -> ScanResult:
    """Feasibility region of the depolarizing family over (p, t)."""
    return _scan_family(grid, PauliChannel.depolarizing, tol)


def scan_bb84(grid: ScanGrid, tol: float = 1e-9) -> ScanResult:
    """Feasibility region of the intercept-resend family over (p, t).

    Feed a grid with direction (1, 1, 1)/sqrt(3) to reproduce the symmetric
    prior-ray picture.
    """
    return _scan_family(grid, bb84_channel, tol)


def boundary_chi(
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

    :raises ValueError: unless 0 < tol < inf.
    """
    if not 0.0 < tol < np.inf:
        raise ValueError(f"bisection tolerance must be positive and finite, got {tol}")
    if family == "depolarizing":
        channel_of = PauliChannel.depolarizing
        d = _unit((1.0, 0.0, 0.0) if direction is None else direction)
    elif family == "bb84":
        channel_of = bb84_channel
        d = _unit(np.ones(3) / np.sqrt(3.0) if direction is None else direction)
    else:
        raise ValueError(f"unknown family {family!r}")
    if np.ndim(p) > 1:
        raise ValueError(f"p must be one value or a 1-D sequence, got shape {np.shape(p)}")
    ps = [float(q) for q in np.atleast_1d(p)]
    channels = [channel_of(q) for q in ps]

    def feasible(rows, t) -> np.ndarray:
        r = d[:, None, None] * np.sqrt(t)
        return _row_verdicts([channels[i] for i in rows], r, 1e-9)[0]

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


# === Three-entry search ===

@dataclass(frozen=True)
class ThreeEntrySummary:
    """Tally of an exhaustive feasibility search over three-entry channels."""

    resolution: int
    seed: int
    channels: int
    samples_per_channel: int
    queries: int
    mu_feasible: int
    hits: int
    hits_confirmed: int
    examples: tuple = field(default_factory=tuple)


def _ball_samples(rng: np.random.Generator, n: int) -> np.ndarray:
    x = rng.normal(size=(n, 3))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    return x * rng.uniform(size=(n, 1)) ** (1.0 / 3.0)


def scan_three_entry(
    resolution: int = 8,
    samples: int = 1000,
    seed: int = 0,
    tol: float = 1e-9,
) -> ThreeEntrySummary:
    """Search for feasible non-central states under three-entry Pauli channels.

    Sweeps every probability vector with exactly three nonzero entries on a
    simplex grid of the given resolution, against a seeded batch of Bloch
    vectors. Every claimed hit (feasible with |r| > 1e-6) is re-verified by
    running the full construction and checking its residual, so a nonzero
    confirmed count would be a genuine counterexample to the expectation
    that only the maximally mixed state is recoverable here.
    """
    if resolution < 3:
        raise ValueError("resolution must be >= 3 to place three positive entries")
    rng = np.random.default_rng(seed)
    points = _ball_samples(rng, samples)
    supports = [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]
    channels = []
    for support in supports:
        for i in range(1, resolution - 1):
            for j in range(1, resolution - i):
                k = resolution - i - j
                if k < 1:
                    continue
                vec = np.zeros(4)
                vec[list(support)] = np.array([i, j, k]) / resolution
                channels.append(PauliChannel(vec))

    # Row 0 is the maximally mixed prior, tested in the same batch.
    priors = np.vstack([np.zeros((1, 3)), points])
    off_center = np.linalg.norm(points, axis=1) > 1e-6
    mu_feasible = hits = confirmed = 0
    examples: list[tuple] = []
    for pch in channels:
        feasible = pauli_frame_verdicts(pch, priors, tol)[0]
        mu_feasible += bool(feasible[0])
        for k in np.flatnonzero(feasible[1:] & off_center):
            hits += 1
            r = points[k]
            out = bayesian_inverse(pch, BlochState(r), tol)
            if isinstance(out, InverseRecord) and out.residual <= tol:
                confirmed += 1
                if len(examples) < 5:
                    examples.append((tuple(pch.p), tuple(r)))
    return ThreeEntrySummary(
        resolution=resolution,
        seed=seed,
        channels=len(channels),
        samples_per_channel=samples,
        queries=len(channels) * samples,
        mu_feasible=mu_feasible,
        hits=hits,
        hits_confirmed=confirmed,
        examples=tuple(examples),
    )


# === Exports ===

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
