"""Feasibility-region sweeps over channel families and their exports.

Each scan walks a (p, t) grid, where p parametrizes a Pauli-channel family
and t = |r|^2 is the squared Bloch length of the prior state along a fixed
direction, and records whether the Bayesian inverse exists in each cell.
The two families, depolarizing and bb84, each with its default prior
direction, sit in one table that the scans, :func:`boundary_chi` and the
CLI read.
Every batch of verdicts (region scans, the node and midpoint verdicts of
:func:`boundary_chi`, and all three-entry channels against their Bloch
samples) is one in-order pass of the block iterator in :mod:`qubit_retro.bayes`
over rows of signed eigenvalues lambda, boundary rows among them, which
yields each block's slacks and verdicts and is bit-identical to one
:func:`~qubit_retro.bayes.pauli_frame_verdicts` call per row. Every
batch reads lambda from a table of probability rows, as PauliChannel.lam
reads it, and builds no channel to do so. The scans and
:func:`boundary_chi` take the verdicts as assembled columns. The
three-entry search reads each block's feasibility as it comes, and builds
a PauliChannel only for a hit that it re-verifies. A scan
returns a :class:`ScanResult` of columns, one entry per cell, row-major
(p outer, t inner), so repeated runs produce byte-identical CSV output.

:func:`emit_csv` and :func:`emit_svg` join the chunks of two generators,
which the CLI writes to disk as they come, so no rendered file is held
whole. The CSV renders a block of cells at a time as fixed-width records,
one per CSV row, whose bytes are the row's text with runs of NUL between
its fields; each block is a chunk, its NULs dropped. A slack's field
holds the bytes of ``'%.17g' % x`` in fixed places (head, digits,
exponent), each written from a lookup table a column at a time, so that
no byte is moved; the few values the vectorized route cannot decide are
formatted by ``'%.17g'`` itself. A record keeps only the p bytes that some
p text uses and sizes ",t,flag" to its widest text, so fewer NULs are
dropped. Each SVG p column is a chunk of ``<rect>`` lines: one gather from
an object array of two byte tails per t picks the column's tails, joined
by its x key.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass, field

import numpy as np

from .bayes import InverseRecord, _verdict_blocks, _verdict_rows, bayesian_inverse
from .bayes import _UNSCATHED_TOL, _on_boundary, _unscathed_residuals
from .channels import BlochState, PauliChannel, _check_tol, _depolarizing_probs, _lambda_rows
from .channels import _readonly
from .errors import InternalCPViolationError, MonotonicityWarning

__all__ = [
    "ScanGrid",
    "ScanResult",
    "ThreeEntrySummary",
    "depolarizing_lambda",
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


def _frozen(a: np.ndarray) -> bool:
    """Whether a and every array it views are read-only, so no caller can write its data."""
    while isinstance(a, np.ndarray) and not a.flags.writeable:
        a = a.base
    return a is None


@dataclass(frozen=True)
class ScanResult:
    """Verdicts of a region scan as columns, one entry per cell, row-major.

    Cell k sits at p = grid.p_axis[k // len(grid.t_axis)] and
    t = grid.t_axis[k % len(grid.t_axis)]; witness indexes
    :data:`~qubit_retro.bayes.WITNESSES`. A column is kept as given when it
    is frozen (read-only, as is every array it views), and copied to a
    read-only array otherwise.
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
            object.__setattr__(self, name, col if _frozen(col) else _readonly(col))
        if not np.isfinite(self.slack).all():
            raise ValueError("slack must be finite")

    def __len__(self) -> int:
        return len(self.feasible)


def depolarizing_lambda(p: float) -> float:
    """Bloch contraction factor of the depolarizing channel, 1 - 4p/3."""
    return 1.0 - 4.0 * p / 3.0


def _bb84_probs(p):
    """Probabilities of the intercept-resend channel, a row per flip rate p."""
    q = 1.0 - p
    vec = np.stack([q * q, p * q, p * p, p * q], axis=-1)
    return vec / vec.sum(axis=-1, keepdims=True)


def bb84_channel(p: float) -> PauliChannel:
    """Pauli channel of an intercept-resend eavesdropping attack with flip rate p."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"flip rate must lie in [0, 1], got {p}")
    return PauliChannel(_bb84_probs(p))


# Each scan family: the probability rows of its channels at an array of p in
# [0, 1], and the default direction of its priors. Scans read lambda from the
# rows (_lambda_rows) and build no channel.
_FAMILIES = {
    "depolarizing": (_depolarizing_probs, _readonly(np.array([1.0, 0.0, 0.0]))),
    "bb84": (_bb84_probs, _readonly(np.ones(3) / np.sqrt(3.0))),
}


# === Region scans ===

def _scan_family(grid: ScanGrid, family: str, tol: float) -> ScanResult:
    _check_tol(tol)
    lam = _lambda_rows(_FAMILIES[family][0](grid.p_axis))
    r = (grid.direction[:, None] * np.sqrt(grid.t_axis))[:, None]
    feasible, slack, witness = _verdict_rows(lam, r, tol)
    for col in (feasible, slack, witness):
        col.flags.writeable = False  # fresh, so the result keeps them uncopied
    return ScanResult(grid, feasible.ravel(), slack.reshape(-1, 3), witness.ravel())


def scan_depolarizing(grid: ScanGrid, tol: float = 1e-9) -> ScanResult:
    """Feasibility region of the depolarizing family over (p, t).

    :raises ValueError: unless 0 < tol < inf.
    """
    return _scan_family(grid, "depolarizing", tol)


def scan_bb84(grid: ScanGrid, tol: float = 1e-9) -> ScanResult:
    """Feasibility region of the intercept-resend family over (p, t).

    :raises ValueError: unless 0 < tol < inf.
    """
    return _scan_family(grid, "bb84", tol)


def _poly_roots(coef: np.ndarray) -> np.ndarray:
    """np.roots of each row of coef, an (m, n + 1) table of coefficients, highest first.

    Returns an (m, n) complex array: row i holds np.roots(coef[i]), bit for
    bit, then zeros where a zero leading coefficient lowers its degree. The
    rows whose leading and constant coefficients are nonzero take their
    roots from one np.linalg.eigvals call on their companion matrices,
    built as np.roots builds them; any other row calls np.roots.
    """
    m, n = coef.shape[0], coef.shape[1] - 1
    roots = np.zeros((m, n), dtype=np.complex128)
    regular = (coef[:, 0] != 0.0) & (coef[:, -1] != 0.0)
    companion = np.zeros((regular.sum(), n, n))
    companion[:, 0] = -coef[regular, 1:] / coef[regular, :1]
    companion[:, range(1, n), range(n - 1)] = 1.0
    if len(companion):
        roots[regular] = np.linalg.eigvals(companion)
    for i in np.flatnonzero(~regular):
        found = np.roots(coef[i])
        roots[i, : len(found)] = found
    return roots


# Chebyshev-Lobatto nodes (1 - cos(j pi / 4)) / 2 on [0, 1].
_CHI_NODES = np.array([0.0, 0.1464466094067262, 0.5, 0.8535533905932737, 1.0])


def boundary_chi(
    p, tol: float = 1e-9, *, family: str = "depolarizing", direction=None
) -> float | list[float]:
    """Largest feasible t at fixed p: the end of the first feasible interval.

    On the ray r = sqrt(t) d, with D = 1 - t sum_i (lambda_i d_i)^2 > 0,
    (slack_k + tol) D^(k + 2) is a polynomial in t of degree k + 2 <= 4, so
    verdicts at five fixed nodes give all three exactly. Their roots, those
    of each degree from one eigvals call on stacked companion matrices
    (:func:`_poly_roots`, bit-identical to np.roots), cut [0, 1] into
    intervals that a verdict at each midpoint decides. chi is 0
    if t = 0 is infeasible, else the start of the first infeasible interval,
    or 1. A MonotonicityWarning is emitted for each p with a feasible
    interval after an infeasible one. A boundary channel (|lambda_i| = 1)
    keeps t while sqrt(t) times d's least unscathed residual is <= 1e-10.

    p is one value (a float is returned) or a 1-D sequence (a list, each
    entry the float that its p alone gives). tol is the verdict tolerance,
    as in a region scan; direction defaults to the family's prior direction.

    :raises ValueError: unless 0 < tol < inf, for an unknown family, or for
        a p outside [0, 1].
    """
    _check_tol(tol)
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
    boundary = _on_boundary(lam)
    chi = np.ones(len(ps))
    for i in np.flatnonzero(boundary):
        chi[i] = (_UNSCATHED_TOL / max(_unscathed_residuals(lam[i], d).min(), _UNSCATHED_TOL)) ** 2
    rows = np.flatnonzero(~boundary)
    inner, ray = lam[rows], d[:, None, None]
    at_nodes, slack, _ = _verdict_rows(inner, ray * np.sqrt(_CHI_NODES), tol)
    D = 1.0 - ((inner * d) ** 2).sum(axis=1)[:, None, None] * _CHI_NODES[:, None]
    values = (slack + tol) * D ** np.arange(2, 5)
    # The inverse Vandermonde matrix maps the values to the coefficients. It is
    # built here: a LAPACK call at import would add ~0.4 MB to every process.
    fit = np.linalg.inv(np.vander(_CHI_NODES, increasing=True))
    coef = sum(fit[:, j, None, None] * values[:, j] for j in range(5))
    # 0, at most 2 + 3 + 4 roots, then 1 at least twice: rows end in empty, infeasible intervals.
    roots = np.concatenate([_poly_roots(coef[k + 2 :: -1, :, k].T).real for k in range(3)], axis=1)
    ends = np.ones((len(rows), 12))
    for row, found in zip(ends, np.clip(roots, 0.0, 1.0).tolist()):
        cut = sorted({0.0, *found})  # a padding 0 is a cut already
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
    that only the maximally mixed state is recoverable here. A hit that
    fails its certification (at a loose tol the slacks admit candidates
    whose Choi spectrum dips below -tol) counts as not confirmed.

    :raises ValueError: if resolution < 3, samples < 0 or seed < 0, or
        unless 0 < tol < inf.
    """
    _check_tol(tol)
    if resolution < 3:
        raise ValueError("resolution must be >= 3 to place three positive entries")
    for name, value in (("samples", samples), ("seed", seed)):
        if value < 0:
            raise ValueError(f"{name} must be a non-negative integer, got {value}")
    rng = np.random.default_rng(seed)
    points = _ball_samples(rng, samples)
    parts = np.array([(i, j, resolution - i - j) for i in range(1, resolution - 1)
                      for j in range(1, resolution - i)]) / resolution
    # One probability row per channel: supports (0, 1, 2) to (1, 2, 3), each composition.
    probs = np.concatenate([np.insert(parts, zero, 0.0, axis=1) for zero in (3, 2, 1, 0)])
    lam = _lambda_rows(probs)

    # Row 0 is the maximally mixed prior, tested in the same pass.
    priors = np.vstack([np.zeros((1, 3)), points])
    off_center = np.linalg.norm(points, axis=1) > 1e-6
    mu_feasible = hits = confirmed = 0
    examples: list[tuple] = []
    for rows, _, feasible in _verdict_blocks(lam, priors.T[:, None], tol):
        mu_feasible += int(feasible[:, 0].sum())
        if not feasible[:, 1:].any():
            continue
        for i, k in zip(*np.nonzero(feasible[:, 1:] & off_center)):
            hits += 1
            pch, r = PauliChannel(probs[rows[i]]), points[k]
            try:
                out = bayesian_inverse(pch, BlochState(r), tol)
            except InternalCPViolationError:
                continue  # admitted by the slacks, not certified
            if isinstance(out, InverseRecord) and out.residual <= tol:
                confirmed += 1
                if len(examples) < 5:
                    examples.append((tuple(pch.p), tuple(r)))
    return ThreeEntrySummary(
        resolution=resolution,
        seed=seed,
        channels=len(probs),
        samples_per_channel=samples,
        queries=len(probs) * samples,
        mu_feasible=mu_feasible,
        hits=hits,
        hits_confirmed=confirmed,
        examples=tuple(examples),
    )


# === Exports ===

def _g17(x: float) -> str:
    return format(float(x), ".17g")


# _g17_fields writes '%.17g' % v for a column of floats as a byte matrix. A
# value with 1e-270 <= |v| < 1e270 is scaled by a double-double power of ten
# to y = |v| 10^(16 - X), X its decimal exponent, and y = p + r with p an
# integer double and |r| < 20 (Dekker's exact product, error < 1e-14). Its
# 17 digits d0..d16 are p + round(r) unless r lies within 2^-24 of a
# half-integer or the digits fall outside (10^16, 10^17). The value's row
# is three fixed fields of 8, 16 and 8 bytes, each written from a table:
#   - the head, right-aligned: a lead byte, the sign, "0." and -X - 1 zeros
#     for -4 <= X < 0, d0, and "." for X = 0 and the exponent form;
#   - d1..d16 as four "dddd" groups, the trailing zeros written as NUL;
#   - "e±XX" for the exponent form, X < -4 or X > 16.
# So the row's bytes, NULs dropped, are the value's text, and no byte is
# moved. A zero takes the head "0." or "-0." and no digits, and d0 alone
# drops its ".". Values with 1 <= X <= 16 (10 <= |v| < 1e17: a "." among
# the digits), ties, subnormals, non-finite and out-of-range values are
# formatted by '%.17g' itself.
_G17_FIELD = 32  # bytes of a _g17_fields row
_G17_RANGE = (1e-270, 1e270)
_X_MIN = -270  # least decimal exponent X over the fast range
_POW10_MIN, _POW10_MAX = -260, 290  # covers 16 - X over the fast range
_SPLIT = 134217729.0  # 2^27 + 1, Dekker's splitter for 53-bit doubles
_LEADS = (b"", b",")  # the lead bytes a head can carry


@functools.cache
def _g17_tables():
    """Scale, digit, head and exponent tables of :func:`_g17_fields`, built on first use."""
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
    groups = [b"%04d" % i for i in range(10**4)]
    stripped = [g.rstrip(b"0").ljust(4, b"\0") for g in groups]
    # Heads at 100 lead + 20 z + 2 d0 + sign, z = -X for -4 <= X < 0 and 0 otherwise.
    heads = [
        (lead + b"-" * neg + (b"0." + b"0" * (z - 1) + b"%d" % d if z else b"%d." % d)).rjust(8, b"\0")
        for lead in _LEADS for z in range(5) for d in range(10) for neg in (0, 1)
    ]
    # By X - _X_MIN: the head key 20 z, and the exponent field.
    x = np.arange(_X_MIN, -_X_MIN)
    z = np.where((x >= -4) & (x < 0), -x, 0)
    exponents = [(b"e%+03d" % e if e < -4 or e > 16 else b"").ljust(8, b"\0") for e in x.tolist()]
    tables = (
        hi, hi_hi, hi - hi_hi, np.array(lo),
        *(np.frombuffer(b"".join(t), dtype=np.uint32) for t in (groups, stripped)),
        *(np.frombuffer(b"".join(t), dtype=np.uint64) for t in (heads, exponents)),
        20 * z,
    )
    # Read-only: every caller shares the cached tables.
    return tuple(map(_readonly, tables))


def _g17_fields(values, lead: bytes = b"") -> np.ndarray:
    """lead + '%.17g' % v for each v of a column, as an (n, 32) uint8 matrix.

    Row k holds the bytes of value k in order, with NULs before, among and
    after them (see the comment above); lead is one of _LEADS.
    """
    hi, hi_hi, hi_lo, lo, four, four_stripped, heads, exponents, z_key = _g17_tables()
    values = np.asarray(values, dtype=np.float64).reshape(-1)
    n = len(values)
    v = np.abs(values)
    fast = (v >= _G17_RANGE[0]) & (v < _G17_RANGE[1])
    zero = v == 0.0
    v[~fast] = 1.0
    # Near a power of ten log10 may put X one off, or the digits may round
    # to the next power; either way they leave (10^16, 10^17) and fall back.
    x = np.floor(np.log10(v)).astype(np.int64)
    k = 16 - _POW10_MIN - x
    h, hh = hi[k], hi_hi[k]
    p = v * h
    c = v * _SPLIT
    v_hi = c - (c - v)
    v_lo = v - v_hi
    r = (((v_hi * hh - p) + v_hi * hi_lo[k] + v_lo * hh) + v_lo * hi_lo[k]) + v * lo[k]
    whole = np.floor(r)
    frac = r - whole
    digits = p.astype(np.int64) + whole.astype(np.int64) + (frac > 0.5)
    fast &= (np.abs(frac - 0.5) >= 2.0**-24) & (digits > 10**16) & (digits < 10**17)
    fast &= (x <= 0) | (x > 16)
    fast |= zero
    # Rows that fall back get the bytes of a zero; they are replaced at the end.
    x[~fast] = 0
    digits[~fast | zero] = 0

    # Floor division and a product: np.divmod on integers is twice as slow.
    top = digits // 10**8
    d0 = top // 10**8
    groups = []  # d1..d4, d5..d8, d9..d12, d13..d16
    for part in (top - d0 * 10**8, digits - top * 10**8):
        high = part // 10**4
        groups += [high, part - high * 10**4]
    x -= _X_MIN
    z20 = z_key[x]
    out = np.empty((n, _G17_FIELD), dtype=np.uint8)
    out.view(np.uint64)[:, 0] = heads[100 * _LEADS.index(lead) + z20 + 2 * d0 + np.signbit(values)]
    out.view(np.uint64)[:, 3] = exponents[x]
    words = out.view(np.uint32)
    for j in range(3):
        words[:, 2 + j] = four[groups[j]]
    # The trailing zeros: the last group is always stripped, and an earlier
    # one is where every group after it is zero.
    words[:, 5] = four_stripped[groups[3]]
    rows = np.flatnonzero(groups[3] == 0)
    for j in (2, 1, 0):
        g = groups[j][rows]
        words[rows, 2 + j] = four_stripped[g]
        rows = rows[g == 0]
    out[rows[z20[rows] == 0], 7] = 0  # d0 alone: drop the "."

    slow = np.flatnonzero(~fast)
    if slow.size:
        text = b"".join((lead + b"%.17g" % f).rjust(_G17_FIELD, b"\0") for f in values[slow].tolist())
        out[slow] = np.frombuffer(text, dtype=np.uint8).reshape(-1, _G17_FIELD)
    return out


def _items(rows: np.ndarray) -> np.ndarray:
    """A C-contiguous (n, w) uint8 matrix as n items of w bytes."""
    return rows.view(f"V{rows.shape[1]}").reshape(-1)


# Cells rendered per CSV chunk; bounds the scratch memory of the render.
_BLOCK = 2048


def _blocks(scan: ScanResult):
    """The scan's cells in row-major blocks: a slice, and its p and t indices."""
    n_t = len(scan.grid.t_axis)
    for start in range(0, len(scan), _BLOCK):
        cells = slice(start, min(start + _BLOCK, len(scan)))
        yield (cells, *np.divmod(np.arange(cells.start, cells.stop), n_t))


def _csv_chunks(scan: ScanResult):
    """emit_csv's bytes in order: the header, then one chunk per block of cells."""
    # A CSV row is one record: p's _g17_fields row without the byte columns
    # that no p text uses, then ",t,flag" right-aligned to the widest such
    # text, then the slacks' fields, each led by ",", then "\n". Between the
    # texts sit runs of NUL, dropped a block at a time by bytes.translate
    # (~0.33 ns a byte, against ~0.37 for a NumPy mask, on 201 x 201 scan
    # blocks; 2-CPU AMD EPYC VM, Python 3.11.7), so every record byte cut
    # here is one less to drop.
    yield b"p,t,feasible,slack1,slack2,slack3\n"
    n_p = len(scan.grid.p_axis)
    axes = _g17_fields(np.concatenate([scan.grid.p_axis, scan.grid.t_axis]))
    p_rows = axes[:n_p]
    p_items = _items(np.ascontiguousarray(p_rows[:, (p_rows != 0).any(axis=0)]))
    t_texts = [row.tobytes().replace(b"\0", b"") for row in axes[n_p:]]
    tf_texts = [b",%s,%d" % (t, f) for t in t_texts for f in (0, 1)]
    tf_width = max(map(len, tf_texts))
    tf_items = np.frombuffer(
        b"".join(text.rjust(tf_width, b"\0") for text in tf_texts), dtype=f"V{tf_width}"
    )
    record = np.dtype([
        ("p", p_items.dtype), ("tf", tf_items.dtype), ("slack", f"V{3 * _G17_FIELD}"),
        ("end", "u1"),
    ])
    lines = np.empty(min(_BLOCK, len(scan)), dtype=record)
    lines["end"] = ord("\n")
    for cells, i, j in _blocks(scan):
        block = lines[: len(i)]
        block["p"] = p_items[i]
        block["tf"] = tf_items[2 * j + scan.feasible[cells]]
        block["slack"] = _items(_g17_fields(scan.slack[cells], b",").reshape(len(i), -1))
        yield block.tobytes().translate(None, b"\0")


def emit_csv(scan: ScanResult) -> bytes:
    """Render a scan as CSV with 17-significant-digit floats (byte stable)."""
    return b"".join(_csv_chunks(scan))


def _svg_chunks(scan: ScanResult, title: str = ""):
    """emit_svg's bytes in order: the head, one chunk per p column, the tail."""
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
    yield "".join(f"{part}\n" for part in parts).encode("utf-8")
    # A <rect> line is its p column's x key and a tail, one of two per t, at
    # 2 t + flag in one object array: a p column is x_key + x_key.join(its
    # tails), which one fancy index picks.
    size = f'width="{cw:.2f}" height="{ch:.2f}"'
    tails = np.array([
        f'y="{mt + plot_h - (j + 1) * ch:.2f}" {size} fill="{fill}"/>\n'.encode("ascii")
        for j in range(n_t) for fill in ("#efecf4", "#7b52a8")
    ], dtype=object)
    evens = np.arange(0, 2 * n_t, 2)
    for i, column in enumerate(scan.feasible.reshape(n_p, n_t)):
        x_key = b'<rect x="%.2f" ' % (ml + i * cw)
        yield x_key + x_key.join(tails[column + evens].tolist())
    ax = (
        f'<path d="M {ml:.1f} {mt:.1f} L {ml:.1f} {mt + plot_h:.1f} '
        f'L {ml + plot_w:.1f} {mt + plot_h:.1f}" fill="none" stroke="black" stroke-width="1.5"/>'
    )
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
    yield "\n".join(parts).encode("utf-8")


def emit_svg(scan: ScanResult, title: str = "") -> bytes:
    """Flat raster of the feasibility region as a standalone SVG document."""
    return b"".join(_svg_chunks(scan, title))
