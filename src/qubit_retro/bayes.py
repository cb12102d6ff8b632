"""Bayesian inversion of unital qubit channels.

The retrodiction question answered here: given a channel E and a prior
state rho, is there a channel F whose two-point correlations run backwards,

    {E(rho) (x) I, J[F]} = {I (x) rho, J[E^dag]},

and if so, what is it? For Pauli channels with all |lambda_i| < 1 the unique
candidate has closed-form Pauli-pair coefficients; whether that candidate is
an actual channel reduces to three scalar inequalities on its Choi matrix.
Boundary channels (some |lambda_i| = 1) are handled by the unscathed test:
the adjoint map works exactly when some Pauli sigma satisfies
E(rho) = sigma rho sigma, and the inverse is then the channel itself.
General unital channels are moved into the Pauli frame by the two Bloch
rotations of their transfer matrix, inverted there, and rotated back. The
Pauli-frame verdict has the types of the final answer: an InverseRecord
(a channel held as its transfer matrix, here without Kraus operators) or a
NoInverse; the rotation back keeps its coefficients, S and report and
replaces its transfer matrix, Kraus operators and residual with certified ones.

Every Pauli-frame verdict, for one prior or a batch, reads three closed
forms of (lambda, r): the candidate inverse, its positivity slacks and the
unscathed residuals. A batch is given as arrays, an (M, 3) table of signed
eigenvalues lambda and the priors of each row, with no channel objects.
The candidate and the slacks are written once, as plain arithmetic
(_candidate_s, _candidate, _slacks) that a single query runs on floats
and a batch runs as the ufunc program traced from it (_program), on the
rows of one array that _verdict_blocks allocates per pass and scores a
block of pairs at a time, in two segments: S, checked before the division
by 1 - S, then v, R and the slacks. So a batch makes no temporaries and
each pair's slacks are bit-identical to its single-query slacks; boundary
rows ride in the same blocks, scored as the candidate at r = 0 (which is
v = 0, R = diag(lambda)), and each block comes with its verdicts. No verdict
reads a Choi matrix: gamel_report is the tests' independent route. The
two-time expectations that certify an inverse are read straight from a
transfer matrix T, <sigma_i, sigma_j> = r_i T[j, 0] + T[j, i]
(two_time_matrix); two_time_projector keeps the projective-measurement
formula it reduces from. Other channel action goes through
channels.apply_operator. The independent routes that check this
module (matrix conjugation residuals, the pseudo-density matrix, the
anticommutator solver) live with the tests, in tests/oracles.py.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cache, reduce
from operator import add

import numpy as np

from .channels import (
    BlochState,
    PauliChannel,
    _check_tol,
    _readonly,
    _rotation_frame,
    _TransferReadings,
    adjoint,
    apply_operator,
    jamiolkowski,
    kraus_from_choi,
)
from .errors import (
    EigenvalueOnBoundaryError,
    InternalCPViolationError,
    NotPSDError,
    SingularSError,
)
from .linalg import PAULIS, _check_hermitian, anticommutator, pauli_expand, tensor

__all__ = [
    "FeasibilityReport",
    "InverseRecord",
    "NoInverse",
    "two_time_projector",
    "two_time_matrix",
    "bayes_residual",
    "unscathed_residuals",
    "is_unscathed",
    "analytic_inverse",
    "gamel_report",
    "pauli_frame_decision",
    "bayesian_inverse",
]

_BOUNDARY_EPS = 1e-12
_UNSCATHED_TOL = 1e-10

# The Choi matrix reads sigma_y^T = -sigma_y on its first factor, so an interior
# candidate built from lambda * _CHOI_ROW_SIGNS has R as the Choi matrix reads
# it (v and S do not change: lambda enters them squared).
_CHOI_ROW_SIGNS = np.array([1.0, -1.0, 1.0])

# Conjugation by sigma_k sends the Bloch vector r to _CONJUGATION_SIGNS[k] * r.
_CONJUGATION_SIGNS = np.array(
    [[1.0, 1.0, 1.0], [1.0, -1.0, -1.0], [-1.0, 1.0, -1.0], [-1.0, -1.0, 1.0]]
)

_ID2 = np.eye(2, dtype=np.complex128)
_ID3 = np.eye(3)


def _cptp_tol(tol: float) -> float:
    """Tolerance of a CPTP test or certification at verdict tolerance tol.

    Never below 1e-9: a Choi spectrum read from a rotated transfer matrix
    carries roundoff of a few 1e-16, which a tighter test would reject.
    """
    return max(tol, 1e-9)


@dataclass(frozen=True)
class FeasibilityReport:
    """Scalar data of the complete-positivity test for a candidate inverse.

    The candidate's unit-trace Choi matrix has Pauli-pair coefficient block

        [[1, v^T], [0, R]],

    and positivity is equivalent to the three slacks being non-negative:

        slack[0] = 3 - eta
        slack[1] = 1 - 2 det R - eta
        slack[2] = (eta - 1)^2 - 8 det R - 4 (|R v|^2 + |adj R|^2)

    with eta = |v|^2 + |R|^2 (Frobenius norms).
    """

    v: np.ndarray
    R: np.ndarray
    eta: float
    detR: float
    normRv2: float
    normAdjR2: float
    slack: np.ndarray
    feasible: bool
    S: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "v", _readonly(np.asarray(self.v, dtype=np.float64)))
        object.__setattr__(self, "R", _readonly(np.asarray(self.R, dtype=np.float64)))
        object.__setattr__(self, "slack", _readonly(np.asarray(self.slack, dtype=np.float64)))


@dataclass(frozen=True)
class InverseRecord(_TransferReadings):
    """A constructed Bayesian inverse plus its certification data.

    ``a`` holds the Pauli-frame coefficients in the normalization where
    a[0, 0] = 1 (twice the actual operator coefficients); ``ptm`` and
    ``kraus`` describe the returned channel in the original frame, which
    reads ``jam`` and ``choi`` back from ``ptm`` like any channel;
    ``residual`` is the max-entry defect of the defining two-sided
    anticommutator identity; ``unique`` is False only when E(rho) is pure,
    in which case other solutions exist.
    """

    a: np.ndarray
    S: float
    ptm: np.ndarray
    kraus: tuple
    report: FeasibilityReport
    unique: bool = True
    residual: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", _readonly(np.asarray(self.a, dtype=np.float64)))
        object.__setattr__(self, "ptm", _readonly(np.asarray(self.ptm, dtype=np.float64)))
        object.__setattr__(self, "kraus", tuple(_readonly(k) for k in self.kraus))


@dataclass(frozen=True)
class NoInverse:
    """Verdict object explaining why no Bayesian inverse exists.

    reason is "cp-infeasible" (interior candidate fails complete
    positivity; see report) or "not-unscathed" (boundary channel, no Pauli
    sigma conjugation matches; residuals lists the conjugation defect for
    sigma_0..sigma_3).
    """

    reason: str
    report: FeasibilityReport | None = None
    residuals: np.ndarray | None = None


# === Two-time objects ===

def two_time_projector(e, s: BlochState, i: int, j: int) -> float:
    """Two-time expectation from the projective-measurement formula.

    Measures sigma_i on the input state, pipes each outcome branch through
    the channel, then takes the sigma_j expectation:

        Tr[E(P+ rho P+) sigma_j] - Tr[E(P- rho P-) sigma_j].
    """
    if i not in (1, 2, 3) or j not in (1, 2, 3):
        raise ValueError(f"observable indices must be in 1..3, got ({i}, {j})")
    rho = s.matrix
    plus = (_ID2 + PAULIS[i]) / 2.0
    minus = (_ID2 - PAULIS[i]) / 2.0
    t_plus = np.trace(apply_operator(e, plus @ rho @ plus) @ PAULIS[j]).real
    t_minus = np.trace(apply_operator(e, minus @ rho @ minus) @ PAULIS[j]).real
    return float(t_plus - t_minus)


def two_time_matrix(e, s: BlochState) -> np.ndarray:
    """The nine two-time expectations <sigma_i, sigma_j>, from the transfer matrix T.

    P+- rho P+- = ((1 +- r_i) / 2) P+- and Tr[E(P+-) sigma_j] = T[j, 0] +- T[j, i],
    so the projective formula of :func:`two_time_projector` reduces to

        M[i-1, j-1] = r_i T[j, 0] + T[j, i]    (i, j in 1..3).
    """
    t = e.ptm
    return s.r[:, None] * t[1:, 0] + t[1:, 1:].T  # np.outer's product, bit for bit


def bayes_residual(e, s: BlochState, f) -> float:
    """Max-entry defect of {E(rho) (x) I, J[F]} = {I (x) rho, J[E^dag]}."""
    e_rho = apply_operator(e, s.matrix)
    lhs = anticommutator(tensor(e_rho, _ID2), jamiolkowski(f))
    rhs = anticommutator(tensor(_ID2, s.matrix), jamiolkowski(adjoint(e)))
    return float(np.abs(lhs - rhs).max())


# === Unscathed classification ===

def _unscathed_residuals(lam: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Max-entry defect of P(rho) - sigma_k rho sigma_k for k in 0..3.

    The defect is (d . sigma) / 2 with d = (lambda - signs_k) r, so its
    largest entry is max(|d_3|, |d_1 + i d_2|) / 2. r is one prior (3,) or
    a batch of columns (3, N); the result is (4,) or (4, N).
    """
    d = (lam - _CONJUGATION_SIGNS).reshape((4, 3) + (1,) * (np.ndim(r) - 1)) * r
    return np.maximum(np.abs(d[:, 2]), np.hypot(d[:, 0], d[:, 1])) / 2.0


def _unscathed(residuals: np.ndarray):
    """The unscathed rule of every verdict: some residual of (4,) or (4, N) <= _UNSCATHED_TOL."""
    return (residuals <= _UNSCATHED_TOL).any(axis=0)


def unscathed_residuals(p: PauliChannel, s: BlochState) -> np.ndarray:
    """Max-entry defect of P(rho) = sigma_k rho sigma_k for each k in 0..3."""
    return _unscathed_residuals(p.lam, s.r)


def is_unscathed(p: PauliChannel, s: BlochState, tol: float = _UNSCATHED_TOL):
    """Smallest index k with P(rho) = sigma_k rho sigma_k, or None.

    Index 0 means the state passes through the channel untouched.

    :raises ValueError: unless 0 < tol < inf.
    """
    _check_tol(tol)
    hits = np.flatnonzero(_unscathed_residuals(p.lam, s.r) <= tol)
    return int(hits[0]) if hits.size else None


# === Feasibility of the interior candidate ===

# The adjugate of R, row-major, as R[a] R[b] - R[c] R[d] up to sign (flat
# indices into R). Entries 0, 3 and 6 are the minors of R's first row.
_ADJUGATE = (
    (4, 8, 5, 7), (1, 8, 2, 7), (1, 5, 2, 4),
    (3, 8, 5, 6), (0, 8, 2, 6), (0, 5, 2, 3),
    (3, 7, 4, 6), (0, 7, 1, 6), (0, 4, 1, 3),
)


def _candidate_s(lam, r):
    """S = sum lambda_i^2 r_i^2 of the Pauli channel lambda at the prior r."""
    return reduce(add, (x * x * y * y for x, y in zip(lam, r)))


def _nonsingular(S):
    """S, or SingularSError when some S >= 1 - 1e-12: the candidate divides by 1 - S."""
    if np.any(S >= 1.0 - _BOUNDARY_EPS):
        raise SingularSError(f"S = {np.max(S)} is too close to 1")
    return S


def _candidate(lam, r, S):
    """Closed-form candidate inverse of the Pauli channel lambda at the prior r.

    The candidate's a[0, 0]-normalized Pauli-frame coefficients are
    [[1, v^T], [0, R]] with v = r (1 - lambda^2) / (1 - S) and
    R = diag(lambda) - (lambda r) v^T. lam and r are three numbers each, or
    three rows of a batch; returns v and R (row-major), 3 and 9 of them.
    """
    d = 1 - S
    v = [(1 - x * x) * y / d for x, y in zip(lam, r)]
    R = []
    for i in range(3):
        c = -lam[i] * r[i]
        row = [c * u for u in v]
        row[i] = row[i] + lam[i]
        R += row
    return v, R


def _slacks(v, R):
    """Positivity slacks of the coefficient block [[1, v^T], [0, R]].

    Returns eta, det R, |R v|^2, |adj R|^2 and the three slacks. det R is
    R00 M00 - R01 M01 + R02 M02 over the first-row minors of the adjugate.
    Every operation, each sum too, has one fixed order, left to right,
    which the batch program keeps, so floats round alike in both.
    """
    eta = reduce(add, (x * x for x in v)) + reduce(add, (x * x for x in R))
    rows = (reduce(add, (a * b for a, b in zip(R[i : i + 3], v))) for i in (0, 3, 6))
    rv2 = reduce(add, (x * x for x in rows))
    minors = [R[a] * R[b] - R[c] * R[d] for a, b, c, d in _ADJUGATE]
    det = R[0] * minors[0] - R[1] * minors[3] + R[2] * minors[6]
    adj2 = reduce(add, (m * m for m in minors))
    e = eta - 1
    slack = [3 - eta, 1 - det * 2 - eta, e * e - det * 8 - (rv2 + adj2) * 4]
    return eta, det, rv2, adj2, slack


def gamel_report(choi: np.ndarray, tol: float = 1e-9) -> FeasibilityReport:
    """Positivity test for a trace-preserving candidate's Choi matrix.

    The matrix is normalized to unit trace before reading off the Pauli-pair
    coefficient block [[1, v^T], [0, R]]; the report's S is 0. Feasible
    means every slack >= -tol. Tests check the verdict kernel by it.

    :raises NotHermitianError: on a non-Hermitian input.
    :raises ValueError: on a non-finite entry, or if the first coefficient
        column is not (1, 0, 0, 0), i.e. the candidate is not trace
        preserving, or unless 0 < tol < inf.
    """
    _check_tol(tol)
    c = np.asarray(choi, dtype=np.complex128)
    if not np.isfinite(c).all():
        raise ValueError("Choi matrix must have finite entries")
    _check_hermitian(c, "Choi matrix")
    coeff = pauli_expand(c)
    if coeff[0, 0] <= 0.0:
        raise ValueError(f"Choi trace {4 * coeff[0, 0]} is not positive")
    block = coeff / coeff[0, 0]
    if np.abs(block[1:, 0]).max() > 1e-8:
        raise ValueError("candidate is not trace preserving (first coefficient column nonzero)")
    return _pair_report(block[0, 1:].tolist(), block[1:, 1:].ravel().tolist(), 0.0, tol)


def _admitted(slack, tol: float):
    """The admission rule of every verdict: each of three slacks >= -tol, so a NaN fails."""
    return (slack[0] >= -tol) & (slack[1] >= -tol) & (slack[2] >= -tol)


def _pair_report(v, R, S, tol: float) -> FeasibilityReport:
    """The report of one candidate block v, R (floats), scored here."""
    eta, det, rv2, adj2, slack = _slacks(v, R)
    return FeasibilityReport(
        v=v, R=np.reshape(R, (3, 3)), eta=eta, detR=det, normRv2=rv2, normAdjR2=adj2,
        slack=slack, feasible=_admitted(slack, tol), S=float(S),
    )


# === The interior (analytic) inverse ===

def _on_boundary(lam: np.ndarray):
    """Whether some |lambda_i| = 1, for one channel (3,) or per row of (M, 3)."""
    return np.abs(lam).max(axis=-1) >= 1.0 - _BOUNDARY_EPS


def analytic_inverse(p: PauliChannel, s: BlochState, tol: float = 1e-9) -> InverseRecord:
    """Closed-form candidate inverse for a strictly contracting Pauli channel.

    The defining identity is satisfied exactly by construction; the report,
    scored on floats by the formulas a batch runs, says whether the
    candidate is completely positive. ``kraus`` is empty: :func:`bayesian_inverse`
    builds Kraus operators for the certified result.

    :raises ValueError: unless 0 < tol < inf.
    :raises EigenvalueOnBoundaryError: when some |lambda_i| >= 1 - 1e-12.
    :raises SingularSError: when S = sum lambda_i^2 r_i^2 >= 1 - 1e-12.
    """
    _check_tol(tol)
    lam = p.lam
    if _on_boundary(lam):
        raise EigenvalueOnBoundaryError(
            f"|lambda| = {np.abs(lam).max()}; use the unscathed/adjoint route"
        )
    return _interior_record(_interior_report(lam, s.r, tol))


def _interior_report(lam: np.ndarray, r: np.ndarray, tol: float) -> FeasibilityReport:
    """The report of the closed-form candidate at lambda, r, scored on floats."""
    lam, r = (lam * _CHOI_ROW_SIGNS).tolist(), r.tolist()
    S = _nonsingular(_candidate_s(lam, r))
    return _pair_report(*_candidate(lam, r, S), S, tol)


def _interior_record(report: FeasibilityReport) -> InverseRecord:
    """The InverseRecord of a report of _interior_report."""
    a = np.zeros((4, 4))
    a[0] = 1.0, *report.v
    a[1:, 1:] = report.R * _CHOI_ROW_SIGNS[:, None]
    a[2, 2] += 0.0  # a cancelling diagonal sums to +0 unsigned, to -0 negated
    return InverseRecord(a=a, S=report.S, ptm=a.T, kraus=(), report=report)


# === Full pipeline ===

def pauli_frame_decision(p: PauliChannel, s: BlochState, tol: float = 1e-9):
    """Decide whether a Pauli channel has a Bayesian inverse for a prior.

    The verdict behind single queries; batches take :func:`_verdict_rows`,
    its form on arrays. A boundary channel (some |lambda_i| = 1) has one
    exactly when the prior is unscathed, and it is then the channel's
    adjoint, i.e. the channel itself, whose record is feasible and holds
    the slacks of v = 0, R = diag(lambda). Otherwise the closed-form
    candidate is scored. Both are scored by the formulas a batch runs.

    :return: the inverse in the Pauli frame as an InverseRecord with no
        Kraus operators and residual 0 (on the interior, the record of
        :func:`analytic_inverse`), or a NoInverse explaining the obstruction.
    :raises ValueError: unless 0 < tol < inf.
    """
    _check_tol(tol)
    lam = p.lam
    if not _on_boundary(lam):
        report = _interior_report(lam, s.r, tol)
        if not report.feasible:  # no record: it would not be returned
            return NoInverse(reason="cp-infeasible", report=report)
        return _interior_record(report)
    residuals = _unscathed_residuals(lam, s.r)
    if not _unscathed(residuals):
        return NoInverse(reason="not-unscathed", residuals=residuals)
    S = _candidate_s(lam.tolist(), s.r.tolist())
    R = np.diag(lam * _CHOI_ROW_SIGNS).ravel().tolist()
    # The unscathed test decided, as in a batch, whatever the slacks' sign at tol.
    report = replace(_pair_report([0.0] * 3, R, S, tol), feasible=True)
    unique = S < 1.0 - _BOUNDARY_EPS
    return InverseRecord(a=p.ptm, S=S, ptm=p.ptm, kraus=(), report=report, unique=unique)


# === The verdict program of a batch ===

def _binary(ufunc):
    """A traced value's operator and reflected operator for ufunc."""
    return (lambda a, b: a._op(ufunc, a, b)), (lambda a, b: a._op(ufunc, b, a))


class _Traced:
    """A value of the formulas while they are traced: its index on a tape of (ufunc, operands)."""

    def __init__(self, tape: list, index: int) -> None:
        self.tape, self.index = tape, index

    def _op(self, ufunc, *operands) -> _Traced:
        self.tape.append((ufunc, [x.index if isinstance(x, _Traced) else float(x) for x in operands]))
        return _Traced(self.tape, len(self.tape) - 1)

    def __neg__(self) -> _Traced:
        return self._op(np.negative, self)

    __add__, __radd__ = _binary(np.add)
    __sub__, __rsub__ = _binary(np.subtract)
    __mul__, __rmul__ = _binary(np.multiply)
    __truediv__, __rtruediv__ = _binary(np.divide)


@dataclass(frozen=True)
class _Program:
    """The verdict formulas as ufunc calls on the rows of a workspace.

    segments holds two tuples of (ufunc, (operand, ..., out row)): S, then
    v, R and the slacks, so that S can be checked before the division by
    1 - S. No call writes lambda and r, rows 0-5; the slacks take the last
    three rows. S is the row of S after the first segment.
    """

    segments: tuple
    rows: int
    S: int

    def bind(self, w: np.ndarray) -> list:
        """Each segment's calls on the rows of w, a (rows, width) array."""
        w = list(w)
        return [[(f, [w[x] if type(x) is int else x for x in args]) for f, args in calls]
                for calls in self.segments]


def _run(calls) -> None:
    """One segment of the program, bound by _Program.bind."""
    for f, args in calls:
        f(*args)


@cache
def _program() -> _Program:
    """Trace the verdict formulas once, and give each value a workspace row.

    A linear scan frees the rows of the operands an operation reads last,
    then gives its result a free row, so it may write over such an operand.
    Built on first use, not at import.
    """
    tape = [(None, [])] * 6  # lambda and r
    lam, r = [_Traced(tape, i) for i in range(3)], [_Traced(tape, i) for i in range(3, 6)]
    S = _candidate_s(lam, r)
    cut = len(tape)
    slack = _slacks(*_candidate(lam, r, S))[-1]
    last = {x: t for t, (_, args) in enumerate(tape) for x in args if type(x) is int}
    row, free = list(range(6)), []
    for t, (_, args) in enumerate(tape[6:], 6):
        # The inputs are never freed; a value read twice frees its row once.
        free += sorted({row[x] for x in args if type(x) is int and x >= 6 and last[x] == t})
        row.append(free.pop() if free else max(row) + 1)
    out = [row[x.index] for x in slack]
    order = [i for i in range(max(row) + 1) if i not in out] + out  # the slacks last
    row = [order.index(i) for i in row]
    calls = [(f, (*(row[x] if type(x) is int else x for x in args), row[t]))
             for t, (f, args) in enumerate(tape)]
    return _Program((tuple(calls[6:cut]), tuple(calls[cut:])), len(order), row[S.index])


# Rows are scored in blocks of whole rows with at most this many pairs (a
# row longer than that is a block of its own). The workspace holds
# _program().rows = 23 doubles a pair, 1.5 MB at this size, and is allocated
# once per pass over the rows, so scan_three_entry(8, 1000) makes one for
# its 11 blocks. A block makes the same 145 ufunc calls whatever its width,
# and a wider block raises the peak. Measured on the earlier kernel of 28
# rows and 142 calls: median time of scan_three_entry(8, 1000) and of a
# 201 x 201 depolarizing and bb84 scan pair (widths alternated, 20 rounds
# of 5 calls each, one process), and peak MB above the import (a fresh
# process per width and workload, 3 calls):
#
#     pairs   three-entry        scan pair
#     4,096   12.0 ms   6.7 MB   21.8 ms   2.9 MB
#     6,144   11.5 ms   7.0 MB   21.0 ms   3.3 MB
#     8,192    8.5 ms   7.6 MB   17.8 ms   3.7 MB
#    12,288    9.3 ms   8.5 MB   20.0 ms   4.6 MB
#    16,384    7.9 ms   9.3 MB   19.7 ms   5.5 MB
#    24,576    8.1 ms  11.1 MB   19.1 ms   7.3 MB
#
# The times follow where each register row starts more than the number of
# blocks. A row of a block of k rows of n priors holds k n doubles: at
# 8,192 (8 x 1,001 and 40 x 201) every row started on a 64-byte boundary,
# while at 4,096, 6,144 and 12,288 some rows started 16, 32 or 48 bytes
# past one. A trial kernel that padded each row to a multiple of 8 doubles
# took 8.5 and 10.7 ms at 4,096 and 8.3 and 10.7 ms at 8,192, against 11.8
# and 13.9 ms and 8.2 and 10.9 ms unpadded, in the same process, so
# _verdict_blocks now pads its rows. 8,192 is fastest on the scans and
# within 0.6 ms of the fastest search at 1.7 MB less peak (2-CPU VM,
# Python 3.11.7, NumPy 2.4.6).
_PAIR_BLOCK = 8192


def _aligned_empty(shape) -> np.ndarray:
    """np.empty(shape) of doubles whose data starts on a 64-byte boundary.

    NumPy's allocator promises 16 bytes, so where the heap placed a
    workspace decided whether its register rows suit 32-byte vector loads.
    scan_three_entry(8, 1000) took ~16.5 ms with the workspace at 16 or 48
    bytes past a 64-byte boundary and ~14.5 ms at 0 or 32 (2-CPU VM, NumPy
    2.4.6), and unrelated allocations at import moved it from one to the other.
    """
    size = int(np.prod(shape))
    buf = np.empty(size + 8)
    start = (-buf.ctypes.data % 64) // 8
    return buf[start : start + size].reshape(shape)


def _verdict_blocks(lam: np.ndarray, r: np.ndarray, tol: float):
    """Score the Pauli channel lam[i] at the priors r[:, i], for every row i, a block at a time.

    One pass over the rows in order, in blocks of whole rows of up to
    _PAIR_BLOCK pairs (a row longer than that is a block of its own).
    Yields (rows, slack, feasible): the block's row indices, its (3, k, n)
    slacks, a view of the one workspace that the next block overwrites,
    and its (k, n) verdicts, by :func:`_admitted`. A block runs the two
    segments of :func:`_program`: S, checked before the division; then v,
    R and the slacks. Every row builds its candidate from
    lambda * _CHOI_ROW_SIGNS. A boundary row is scored at r = 0, which
    gives S = 0 and the channel's own v = 0 and R = diag(lambda *
    _CHOI_ROW_SIGNS); its verdicts are its :func:`_unscathed` mask, and
    its other priors get (-1, -1, -1). Every operation is elementwise per
    pair, so a verdict does not depend on its block.

    :param lam: (M, 3) signed eigenvalues, one channel per row.
    :param r: (3, M, n) prior columns, or (3, 1, n) for the same n priors
        in every row.
    :raises SingularSError: when some S = sum lambda_i^2 r_i^2 >= 1 - 1e-12.
    :raises ValueError: on a non-finite slack or, on a boundary row, a
        non-finite unscathed residual, before its block is yielded.
    """
    n = r.shape[-1]
    program = _program()
    boundary = _on_boundary(lam)
    step = max(1, _PAIR_BLOCK // max(n, 1))
    k_max = max(1, min(step, len(lam)))
    # Each register row is padded to a multiple of 8 doubles, so that every
    # row of every block starts on a 64-byte boundary.
    flat = _aligned_empty((program.rows, -(-k_max * n // 8) * 8))
    ws = flat[:, : k_max * n].reshape(program.rows, k_max, n)
    shared = r.shape[1] == 1
    if shared:  # the program never writes a prior row
        np.copyto(ws[3:6], r)
    lam_signed = lam * _CHOI_ROW_SIGNS
    width = None  # the program is bound to the rows of a block of k rows when k changes
    for start in range(0, len(lam), step):
        rows = np.arange(start, min(start + step, len(lam)))
        k = len(rows)
        np.copyto(ws[:3, :k], lam_signed[rows].T[:, :, None])
        if not shared:
            np.copyto(ws[3:6, :k], r[:, rows])
        on_edge = np.flatnonzero(boundary[rows])
        ws[3:6, on_edge] = 0.0  # the candidate at r = 0: v = 0, R = diag(lambda)
        if width != k * n:
            width = k * n
            s_calls, slack_calls = program.bind(flat[:, :width])
        _run(s_calls)
        _nonsingular(ws[program.S, :k])
        _run(slack_calls)
        if shared:  # the next block reads these prior rows
            ws[3:6, on_edge] = r
        slack = ws[-3:, :k]
        feasible = _admitted(slack, tol)
        finite = np.isfinite(slack).all()
        for j in on_edge:
            i = rows[j]
            residuals = _unscathed_residuals(lam[i], r[:, 0 if shared else i])
            finite &= np.isfinite(residuals).all()
            feasible[j] = _unscathed(residuals)
            np.copyto(slack[:, j], -1.0, where=~feasible[j])
        if not finite:
            raise ValueError("non-finite slack or residual: every prior must be finite")
        yield rows, slack, feasible


def _verdict_rows(lam: np.ndarray, r: np.ndarray, tol: float):
    """Verdicts of the Pauli channel lam[i] at the priors r[:, i], for every row i.

    The batched form of :func:`pauli_frame_decision`, assembled from the
    blocks of :func:`_verdict_blocks`; lam, r and the errors are as there.

    :return: (feasible, slack) of shapes (M, n) and (M, n, 3).
    """
    feasible = np.empty((len(lam), r.shape[-1]), dtype=bool)
    slack = np.empty(feasible.shape + (3,))
    for rows, block_slack, block_feasible in _verdict_blocks(lam, r, tol):
        block = slice(rows[0], rows[-1] + 1)  # the rows come in order
        slack[block] = block_slack.transpose(1, 2, 0)
        feasible[block] = block_feasible
    return feasible, slack


def bayesian_inverse(e, s: BlochState, tol: float = 1e-9):
    """Decide and construct the Bayesian inverse of a unital channel.

    Pipeline: factor the transfer matrix as B1 . diag(1, lambda) . B2 with
    B = diag(1, o) for Bloch rotations o1, o2t (identities for a Pauli
    channel), decide at the prior o2t . r with :func:`pauli_frame_decision`,
    carry the inverse back as B2^T . a^T . B1^T and certify it. One
    decomposition of its Choi matrix is both the CP check and the Kraus
    extraction. The CPTP test of e and the certification run at
    max(tol, 1e-9) (:func:`_cptp_tol`).

    :return: an InverseRecord, or a NoInverse explaining the obstruction.
    :raises ValueError: unless 0 < tol < inf.
    :raises NotUnitalError / NotCPTPError: if e is out of contract.
    :raises InternalCPViolationError: if the constructed inverse fails its
        certification (Choi positivity or the defining identity).
    """
    _check_tol(tol)
    cert_tol = _cptp_tol(tol)
    o1, pch, o2t = (_ID3, e, _ID3) if isinstance(e, PauliChannel) else _rotation_frame(e, cert_tol)
    # The frame prior as computed: BlochState would clamp a length that the
    # rotation's roundoff took past 1, and move the verdict's last bits.
    frame = object.__new__(BlochState)
    object.__setattr__(frame, "r", _readonly(o2t @ s.r))
    rec = pauli_frame_decision(pch, frame, tol)
    if isinstance(rec, NoInverse):
        return rec
    t = rec.a.T.copy()  # the frame inverse's transfer matrix, then B2^T t B1^T
    t[1:] = o2t.T @ t[1:]
    t[:, 1:] = t[:, 1:] @ o1.T
    final = replace(rec, ptm=t)
    try:
        kraus = kraus_from_choi(final.choi, cert_tol)
    except NotPSDError as exc:
        raise InternalCPViolationError(f"constructed inverse is not CP: {exc}") from exc
    residual = bayes_residual(e, s, final)
    if residual > cert_tol:
        raise InternalCPViolationError(f"constructed inverse has residual {residual:.3e}")
    return replace(final, kraus=tuple(kraus), residual=residual)
