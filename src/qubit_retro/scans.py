"""Feasibility-region sweeps over channel families and their exports.

Each scan walks a (p, t) grid, where p parametrizes a Pauli-channel family
and t = |r|^2 is the squared Bloch length of the prior state along a fixed
direction, and records whether the Bayesian inverse exists in each cell.
The two families, depolarizing and bb84, each with its default prior
direction, sit in one table that the scans, :func:`boundary_chi` and the
CLI read.
Every batch of verdicts (region scans, the node and midpoint verdicts of
:func:`boundary_chi`, and each three-entry channel against its Bloch
samples) is one call of the batched verdict in :mod:`qubit_retro.bayes`,
which scores interior rows in blocks of (channel, prior) pairs and is
bit-identical to one :func:`~qubit_retro.bayes.pauli_frame_verdicts` call
per row. A scan returns a columnar :class:`ScanResult`, whose cells are
row-major (p outer, t inner) so repeated runs produce byte-identical CSV
output; :class:`RegionCell` objects are made only when a cell is read.

:func:`emit_csv` and :func:`emit_svg` render a scan as byte matrices, one
CSV row or SVG ``<rect>`` line per matrix row, in blocks of cells, and drop
the NUL padding in one pass. The CSV floats are the exact bytes of
``'%.17g' % x``, computed a column at a time; the few values the
vectorized route cannot decide are formatted by ``'%.17g'`` itself.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .bayes import WITNESSES, InverseRecord, _verdict_rows, bayesian_inverse
from .bayes import _UNSCATHED_TOL, _on_boundary, _unscathed_residuals
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
            if ax.size < 2 or not (np.diff(ax) > 0).all():
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


# Each scan family: its channel at p, and the default direction of its priors.
_FAMILIES = {
    "depolarizing": (PauliChannel.depolarizing, _readonly(np.array([1.0, 0.0, 0.0]))),
    "bb84": (bb84_channel, _readonly(np.ones(3) / np.sqrt(3.0))),
}


# === Region scans ===

def _scan_family(grid: ScanGrid, family: str, tol: float) -> ScanResult:
    channel_of = _FAMILIES[family][0]
    channels = [channel_of(float(p)) for p in grid.p_axis]
    r = (grid.direction[:, None] * np.sqrt(grid.t_axis))[:, None]
    feasible, slack, witness = _verdict_rows(channels, r, tol)
    return ScanResult(grid, feasible.ravel(), slack.reshape(-1, 3), witness.ravel())


def scan_depolarizing(grid: ScanGrid, tol: float = 1e-9) -> ScanResult:
    """Feasibility region of the depolarizing family over (p, t)."""
    return _scan_family(grid, "depolarizing", tol)


def scan_bb84(grid: ScanGrid, tol: float = 1e-9) -> ScanResult:
    """Feasibility region of the intercept-resend family over (p, t)."""
    return _scan_family(grid, "bb84", tol)


# Chebyshev-Lobatto nodes (1 - cos(j pi / 4)) / 2 on [0, 1].
_CHI_NODES = np.array([0.0, 0.1464466094067262, 0.5, 0.8535533905932737, 1.0])


def boundary_chi(
    p, tol: float = 1e-9, *, family: str = "depolarizing", direction=None
) -> float | list[float]:
    """Largest feasible t at fixed p: the end of the first feasible interval.

    On the ray r = sqrt(t) d, with D = 1 - t sum_i (lambda_i d_i)^2 > 0,
    (slack_k + tol) D^(k + 2) is a polynomial in t of degree k + 2 <= 4, so
    verdicts at five fixed nodes give all three exactly. Their roots cut
    [0, 1] into intervals that a verdict at each midpoint decides. chi is 0
    if t = 0 is infeasible, else the start of the first infeasible interval,
    or 1. A MonotonicityWarning is emitted for each p with a feasible
    interval after an infeasible one. A boundary channel (|lambda_i| = 1)
    keeps t while sqrt(t) times d's least unscathed residual is <= 1e-10.

    p is one value (a float is returned) or a 1-D sequence (a list, each
    entry the float that its p alone gives). tol is the verdict tolerance,
    as in a region scan; direction defaults to the family's prior direction.

    :raises ValueError: unless 0 < tol < inf, or for an unknown family.
    """
    if not 0.0 < tol < np.inf:
        raise ValueError(f"verdict tolerance must be positive and finite, got {tol}")
    if family not in _FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    channel_of, default = _FAMILIES[family]
    d = _unit(default if direction is None else direction)
    if np.ndim(p) > 1:
        raise ValueError(f"p must be one value or a 1-D sequence, got shape {np.shape(p)}")
    ps = [float(q) for q in np.atleast_1d(p)]
    channels = [channel_of(q) for q in ps]
    lam = np.array([c.lam for c in channels]).reshape(len(ps), 3)
    boundary = _on_boundary(lam)
    chi = np.ones(len(ps))
    for i in np.flatnonzero(boundary):
        chi[i] = (_UNSCATHED_TOL / max(_unscathed_residuals(lam[i], d).min(), _UNSCATHED_TOL)) ** 2
    rows = np.flatnonzero(~boundary)
    inner, ray = [channels[i] for i in rows], d[:, None, None]
    at_nodes, slack, _ = _verdict_rows(inner, ray * np.sqrt(_CHI_NODES), tol)
    D = 1.0 - ((lam[rows] * d) ** 2).sum(axis=1)[:, None, None] * _CHI_NODES[:, None]
    values = (slack + tol) * D ** np.arange(2, 5)
    # The inverse Vandermonde matrix maps the values to the coefficients. It is
    # built here: a LAPACK call at import would add ~0.4 MB to every process.
    fit = np.linalg.inv(np.vander(_CHI_NODES, increasing=True))
    coef = sum(fit[:, j, None, None] * values[:, j] for j in range(5))
    # 0, at most 2 + 3 + 4 roots, then 1 at least twice: rows end in empty, infeasible intervals.
    ends = np.ones((len(rows), 12))
    for i, row in enumerate(ends):
        roots = np.concatenate([np.roots(coef[k + 2 :: -1, i, k]).real for k in range(3)])
        cut = sorted({0.0, *np.clip(roots, 0.0, 1.0).tolist()})
        row[: len(cut)] = cut
    lo, hi = ends[:, :-1], ends[:, 1:]
    ok = _verdict_rows(inner, ray * np.sqrt(0.5 * (lo + hi)), tol)[0] & (hi > lo)
    first = np.argmin(ok, axis=1)
    for i in rows[(ok & (np.arange(11) > first[:, None])).any(axis=1)]:
        msg = f"feasibility is not monotone in t at p = {ps[i]}"
        warnings.warn(msg, MonotonicityWarning, stacklevel=2)
    chi[rows] = np.where(at_nodes[:, 0], lo[range(len(rows)), first], 0.0)
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
        feasible = _verdict_rows([pch], priors.T[:, None], tol)[0][0]
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


# _g17_rows writes '%.17g' % v for a column of floats as a byte matrix. A
# value with 1e-270 <= |v| < 1e270 is scaled by a double-double power of ten
# to y = |v| 10^(16 - X), X its decimal exponent, and y = p + r with p an
# integer double and |r| < 20 (Dekker's exact product, error < 1e-14). Its
# 17 digits are p + round(r) unless r lies within 2^-24 of a half-integer or
# the digits fall outside (10^16, 10^17); such values, and zeros,
# subnormals, non-finite and out-of-range values, are formatted by '%.17g'
# itself.
_G17_WIDTH = 24  # len("-1.2345678901234567e-100")
_G17_RANGE = (1e-270, 1e270)
_POW10_MIN, _POW10_MAX = -260, 290  # covers 16 - X over the fast range
_SPLIT = 134217729.0  # 2^27 + 1, Dekker's splitter for 53-bit doubles
# Each value's source row is eight 4-byte words: its six digit groups, each
# "ddd." from the three-digit table, the exponent's "ddd" and sign, and the
# constant bytes. A layout lists the source bytes of each output byte.
_DIGIT = [1, 2, *(4 + 4 * (i // 3) + i % 3 for i in range(15))]
_DOT, _EXP_DIGITS, _EXP_SIGN = 3, (24, 25, 26), 27
_CONSTANTS = b"\0e-0"
_NUL, _E, _MINUS, _ZERO = range(28, 32)
# Layout classes: X + 4 for the fixed form, -4 <= X < 17, then the
# exponent form with two and with three exponent digits.
_EXP2, _EXP3 = 21, 22


def _g17_layout(neg: int, cls: int, s: int) -> list:
    """Source bytes of the '%.17g' bytes of a value with s significant digits."""
    d = _DIGIT
    out = [_MINUS] * neg
    x = cls - 4
    if cls >= _EXP2:
        out += [d[0], _DOT, *d[1:s]] if s > 1 else [d[0]]
        out += [_E, _EXP_SIGN, *_EXP_DIGITS[cls == _EXP2 :]]
    elif x < 0:
        out += [_ZERO, _DOT, *[_ZERO] * (-x - 1), *d[:s]]
    else:
        # Digits past the s-th are zeros, so the integer part reads them as such.
        out += [*d[: x + 1], _DOT, *d[x + 1 : s]] if s > x + 1 else d[: x + 1]
    return out + [_NUL] * (_G17_WIDTH - len(out))


@functools.cache
def _g17_tables():
    """Scale, digit and layout tables of :func:`_g17_rows`, built on first use."""
    hi, lo = [], []
    for k in range(_POW10_MIN, _POW10_MAX + 1):
        num, den = (10**k, 1) if k >= 0 else (1, 10**-k)
        h = num / den  # correctly rounded
        a, b = h.as_integer_ratio()
        hi.append(h)
        lo.append((num * b - a * den) / (den * b))  # 10^k - h, correctly rounded
    hi = np.array(hi)
    c = hi * _SPLIT
    hi_hi = c - (c - hi)
    scale = np.stack([hi, hi_hi, hi - hi_hi, lo], axis=1)
    three_digits = np.frombuffer(b"".join(b"%03d." % i for i in range(1000)), dtype=np.uint32)
    i = np.arange(1000)
    trailing_zeros = sum((i % 10**j == 0).astype(np.intp) for j in (1, 2, 3))
    layouts = np.array(
        [_g17_layout(neg, cls, s) for neg in (0, 1) for cls in range(23) for s in range(1, 18)],
        dtype=np.intp,
    )
    # Read-only: every caller shares the cached tables.
    return tuple(map(_readonly, (scale, three_digits, trailing_zeros, layouts)))


def _g17_digits(v: np.ndarray, x: np.ndarray, scale) -> tuple:
    """round(v 10^(16 - x)) as int64, and whether it lies within 2^-24 of a tie."""
    hi, hi_hi, hi_lo, lo = np.take(scale, 16 - x - _POW10_MIN, axis=0).T
    p = v * hi
    c = v * _SPLIT
    v_hi = c - (c - v)
    v_lo = v - v_hi
    r = (((v_hi * hi_hi - p) + v_hi * hi_lo + v_lo * hi_hi) + v_lo * hi_lo) + v * lo
    whole = np.floor(r)
    frac = r - whole
    digits = p.astype(np.int64) + whole.astype(np.int64) + (frac > 0.5)
    return digits, np.abs(frac - 0.5) < 2.0**-24


def _g17_rows(values) -> np.ndarray:
    """'%.17g' % v for each v of a column, as an (n, 24) uint8 matrix.

    Row k holds the ASCII bytes of value k, left-aligned and padded with NUL.
    """
    scale, three_digits, trailing_zeros, layouts = _g17_tables()
    values = np.asarray(values, dtype=np.float64).reshape(-1)
    n = len(values)
    v = np.abs(values)
    fast = (v >= _G17_RANGE[0]) & (v < _G17_RANGE[1])
    v[~fast] = 1.0
    # Near a power of ten log10 may put X one off, or the digits may round
    # to the next power; either way they leave (10^16, 10^17) and fall back.
    x = np.floor(np.log10(v)).astype(np.int64)
    digits, tie = _g17_digits(v, x, scale)
    fast &= ~tie & (digits > 10**16) & (digits < 10**17)
    # Rows that fall back are given the digits of 1, so that every row meets
    # the layout's assumptions below; their bytes are replaced at the end.
    digits[~fast], x[~fast] = 10**16, 0

    groups = np.empty((n, 6), dtype=np.int32)  # "0dd" and five "ddd"
    for at, part in zip((0, 3), np.divmod(digits, 10**9)):
        part = part.astype(np.int32)
        for j in (2, 1):
            part, groups[:, at + j] = np.divmod(part, 1000)
        groups[:, at] = part
    words = np.empty((n, 8), dtype=np.uint32)
    words[:, :6] = np.take(three_digits, groups)
    words[:, 6] = np.take(three_digits, np.abs(x))
    words[:, 7] = np.frombuffer(_CONSTANTS, dtype=np.uint32)
    src = words.view(np.uint8)
    src[:, _EXP_SIGN] = np.where(x < 0, ord("-"), ord("+"))
    # s significant digits: 17 less the trailing zeros, counted group by group
    # from the last one; few values end in a 000 group, and group 0 is >= 10.
    s = 17 - np.take(trailing_zeros, groups[:, 5])
    rows = np.flatnonzero(groups[:, 5] == 0)
    for j in range(4, -1, -1):
        g = groups[rows, j]
        s[rows] -= np.take(trailing_zeros, g)
        rows = rows[g == 0]
    cls = np.where((x >= -4) & (x < 17), x + 4, np.where(np.abs(x) < 100, _EXP2, _EXP3))
    index = np.take(layouts, ((values < 0) * 23 + cls) * 17 + s - 1, axis=0)
    index += np.arange(0, 32 * n, 32)[:, None]
    out = np.take(src.reshape(-1), index)

    slow = np.flatnonzero(~fast)
    if slow.size:
        text = "".join(("%.17g" % f).ljust(_G17_WIDTH, "\0") for f in values[slow].tolist())
        out[slow] = np.frombuffer(text.encode("ascii"), dtype=np.uint8).reshape(-1, _G17_WIDTH)
    return out


def _padded(strings) -> np.ndarray:
    """ASCII strings as the rows of a uint8 matrix, padded with NUL."""
    width = max(map(len, strings))
    text = "".join(s.ljust(width, "\0") for s in strings)
    return np.frombuffer(text.encode("ascii"), dtype=np.uint8).reshape(len(strings), width)


def _rows_bytes(*columns) -> bytes:
    """Byte matrices side by side, read row by row without their NUL padding.

    A bytes constant stands for the same bytes in every row.
    """
    m = next(len(c) for c in columns if not isinstance(c, bytes))
    widths = [len(c) if isinstance(c, bytes) else c.shape[1] for c in columns]
    rows = np.empty((m, sum(widths)), dtype=np.uint8)
    at = 0
    for c, w in zip(columns, widths):
        rows[:, at : at + w] = np.frombuffer(c, dtype=np.uint8) if isinstance(c, bytes) else c
        at += w
    return rows[rows != 0].tobytes()


# Cells rendered per block; bounds the scratch memory of both exports.
_BLOCK = 2048


def _blocks(scan: ScanResult):
    """The scan's cells in row-major blocks: a slice, and its p and t indices."""
    n_t = len(scan.grid.t_axis)
    for start in range(0, len(scan), _BLOCK):
        cells = slice(start, min(start + _BLOCK, len(scan)))
        yield (cells, *np.divmod(np.arange(cells.start, cells.stop), n_t))


def emit_csv(scan: ScanResult) -> bytes:
    """Render a scan as CSV with 17-significant-digit floats (byte stable)."""
    p_rows, t_rows = _g17_rows(scan.grid.p_axis), _g17_rows(scan.grid.t_axis)
    parts = [b"p,t,feasible,slack1,slack2,slack3\n"]
    for cells, i, j in _blocks(scan):
        flags = scan.feasible[cells, None].view(np.uint8) + np.uint8(ord("0"))
        slack = _g17_rows(scan.slack[cells]).reshape(len(i), 3, _G17_WIDTH)
        parts.append(_rows_bytes(
            p_rows[i], b",", t_rows[j], b",", flags, b",",
            slack[:, 0], b",", slack[:, 1], b",", slack[:, 2], b"\n",
        ))
    return b"".join(parts)


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
    x_keys = _padded([f'<rect x="{ml + i * cw:.2f}" ' for i in range(n_p)])
    y_keys = _padded([f'y="{mt + plot_h - (j + 1) * ch:.2f}" {size} ' for j in range(n_t)])
    fills = _padded(['fill="#efecf4"/>\n', 'fill="#7b52a8"/>\n'])
    rects = b"".join(
        _rows_bytes(x_keys[i], y_keys[j], fills[scan.feasible[cells].view(np.uint8)])
        for cells, i, j in _blocks(scan)
    )
    ax = (
        f'<path d="M {ml:.1f} {mt:.1f} L {ml:.1f} {mt + plot_h:.1f} '
        f'L {ml + plot_w:.1f} {mt + plot_h:.1f}" fill="none" stroke="black" stroke-width="1.5"/>'
    )
    head = "".join(f"{part}\n" for part in parts)
    parts = [ax]
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
    return head.encode("utf-8") + rects + "\n".join(parts).encode("utf-8")
