"""Feasibility-region sweeps over channel families and their exports.

Each scan walks a (p, t) grid, where p parametrizes a Pauli-channel family
and t = |r|^2 is the squared Bloch length of the prior state along a fixed
direction, and records whether the Bayesian inverse exists in each cell.
Cells are emitted row-major (p outer, t inner) so repeated runs produce
byte-identical CSV output.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .bayes import InverseRecord, NoInverse, bayesian_inverse, pauli_frame_decision
from .channels import BlochState, PauliChannel
from .errors import MonotonicityWarning

__all__ = [
    "ScanGrid",
    "RegionCell",
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

_SENTINEL_SLACK = np.array([-1.0, -1.0, -1.0])


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


# === Cell evaluation ===

def _evaluate(pch: PauliChannel, state: BlochState, tol: float):
    """(feasible, slack, witness) for one channel/state pair."""
    out = pauli_frame_decision(pch, state, tol)
    if not isinstance(out, NoInverse):
        return True, out[2].slack, None
    if out.report is None:
        return False, _SENTINEL_SLACK, out.reason
    first_bad = int(np.argmax(out.report.slack < -tol))
    return False, out.report.slack, f"slack-{first_bad + 1}"


def _scan_family(grid: ScanGrid, channel_of, tol: float) -> list[RegionCell]:
    cells = []
    for p in grid.p_axis:
        pch = channel_of(float(p))
        for t in grid.t_axis:
            state = BlochState(np.sqrt(t) * grid.direction)
            feasible, slack, witness = _evaluate(pch, state, tol)
            cells.append(
                RegionCell(p=float(p), t=float(t), feasible=feasible, slack=slack, witness=witness)
            )
    return cells


def scan_depolarizing(grid: ScanGrid, tol: float = 1e-9) -> list[RegionCell]:
    """Feasibility region of the depolarizing family over (p, t)."""
    return _scan_family(grid, PauliChannel.depolarizing, tol)


def scan_bb84(grid: ScanGrid, tol: float = 1e-9) -> list[RegionCell]:
    """Feasibility region of the intercept-resend family over (p, t).

    Feed a grid with direction (1, 1, 1)/sqrt(3) to reproduce the symmetric
    prior-ray picture.
    """
    return _scan_family(grid, bb84_channel, tol)


def boundary_chi(
    p: float,
    tol: float = 1e-6,
    *,
    family: str = "depolarizing",
    direction=None,
) -> float:
    """Largest feasible t at fixed p, located by bisection.

    Feasibility along t is checked for monotonicity on a 33-point probe
    grid first; if it flips more than once a MonotonicityWarning is emitted
    and the largest feasible probe value is returned instead.
    """
    if family == "depolarizing":
        pch = PauliChannel.depolarizing(p)
        d = _unit((1.0, 0.0, 0.0) if direction is None else direction)
    elif family == "bb84":
        pch = bb84_channel(p)
        d = _unit(np.ones(3) / np.sqrt(3.0) if direction is None else direction)
    else:
        raise ValueError(f"unknown family {family!r}")

    def feasible(t: float) -> bool:
        return _evaluate(pch, BlochState(np.sqrt(t) * d), 1e-9)[0]

    probes = np.linspace(0.0, 1.0, 33)
    flags = [feasible(t) for t in probes]
    if not flags[0]:
        return 0.0
    if all(flags):
        return 1.0
    first_false = flags.index(False)
    if any(flags[first_false:]):
        warnings.warn(
            f"feasibility is not monotone in t at p = {p}", MonotonicityWarning, stacklevel=2
        )
        return float(probes[max(k for k, f in enumerate(flags) if f)])
    lo, hi = float(probes[first_false - 1]), float(probes[first_false])
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


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

    mu = BlochState.maximally_mixed()
    mu_feasible = hits = confirmed = queries = 0
    examples: list[tuple] = []
    for pch in channels:
        if _evaluate(pch, mu, tol)[0]:
            mu_feasible += 1
        for r in points:
            queries += 1
            if np.linalg.norm(r) <= 1e-6:
                continue
            state = BlochState(r)
            if not _evaluate(pch, state, tol)[0]:
                continue
            hits += 1
            out = bayesian_inverse(pch, state, tol)
            if isinstance(out, InverseRecord) and out.residual <= tol:
                confirmed += 1
                if len(examples) < 5:
                    examples.append((tuple(pch.p), tuple(r)))
    return ThreeEntrySummary(
        resolution=resolution,
        seed=seed,
        channels=len(channels),
        samples_per_channel=samples,
        queries=queries,
        mu_feasible=mu_feasible,
        hits=hits,
        hits_confirmed=confirmed,
        examples=tuple(examples),
    )


# === Exports ===

def _g17(x: float) -> str:
    return format(float(x), ".17g")


def emit_csv(cells: list[RegionCell]) -> bytes:
    """Render cells as CSV with 17-significant-digit floats (byte stable)."""
    lines = ["p,t,feasible,slack1,slack2,slack3"]
    for c in cells:
        lines.append(
            f"{_g17(c.p)},{_g17(c.t)},{int(c.feasible)},"
            f"{_g17(c.slack[0])},{_g17(c.slack[1])},{_g17(c.slack[2])}"
        )
    return ("\n".join(lines) + "\n").encode("ascii")


def emit_svg(cells: list[RegionCell], title: str = "") -> bytes:
    """Flat raster of the feasibility region as a standalone SVG document."""
    p_vals = sorted({c.p for c in cells})
    t_vals = sorted({c.t for c in cells})
    plot_w = plot_h = 500.0
    ml, mt, mr, mb = 70.0, 30.0, 20.0, 60.0
    width, height = ml + plot_w + mr, mt + plot_h + mb
    cw, ch = plot_w / len(p_vals), plot_h / len(t_vals)
    p_index = {p: k for k, p in enumerate(p_vals)}
    t_index = {t: k for k, t in enumerate(t_vals)}

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
    for c in cells:
        x = ml + p_index[c.p] * cw
        y = mt + plot_h - (t_index[c.t] + 1) * ch
        fill = "#7b52a8" if c.feasible else "#efecf4"
        parts.append(
            f'<rect x="{x:.2f}" y="{y:.2f}" width="{cw:.2f}" height="{ch:.2f}" fill="{fill}"/>'
        )
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
