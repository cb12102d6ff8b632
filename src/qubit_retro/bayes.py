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
The candidate and the slacks are written once, as straight-line
arithmetic on the registers of a workspace: floats for a single query,
rows of one array allocated per pass over a batch, which _verdict_blocks
scores a block of pairs at a time, so a batch makes no temporaries and
each pair's slacks are bit-identical to its single-query slacks; boundary
rows ride in the same blocks, scored as the candidate at r = 0 (v = 0,
R = diag(lambda)), and each block comes with its verdicts. No verdict
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

import operator
from dataclasses import dataclass, replace

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
    "pauli_frame_verdicts",
    "WITNESSES",
    "bayesian_inverse",
]

_BOUNDARY_EPS = 1e-12
_UNSCATHED_TOL = 1e-10

#: Witness codes of :func:`pauli_frame_verdicts`: why a prior has no inverse.
WITNESSES = (None, "slack-1", "slack-2", "slack-3", "not-unscathed")

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
    return np.outer(s.r, t[1:, 0]) + t[1:, 1:].T


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

# Registers of a verdict workspace w, a list: the inputs lambda and r, the
# candidate's S, v and R (row-major), the slack terms eta, det R, |R v|^2
# and |adj R|^2, two scratch registers, the three slacks, then constants.
# For one (channel, prior) pair the registers are floats; for a block of
# pairs they are rows of one array, one pair per column. _candidate and
# _slacks write every result into a register, so a block makes no
# temporary, and a pair's result does not depend on the block it is in.
_LAM, _PRIOR, _S, _V, _R = 0, 3, 6, 7, 10
_ETA, _DET, _RV2, _ADJ2, _X, _Y = range(19, 25)
_SLACK = 25
_WS_ROWS = 28
_CONSTANTS = (-1.0, 1.0, 2.0, 3.0, 4.0, 8.0)
_MINUS_ONE, _ONE, _TWO, _THREE, _FOUR, _EIGHT = range(_WS_ROWS, _WS_ROWS + len(_CONSTANTS))

# The adjugate of R, row-major, as R[a] R[b] - R[c] R[d] up to sign (flat
# indices into R). Entries 0, 3 and 6 are the minors of R's first row.
_ADJUGATE = (
    (4, 8, 5, 7), (1, 8, 2, 7), (1, 5, 2, 4),
    (3, 8, 5, 6), (0, 8, 2, 6), (0, 5, 2, 3),
    (3, 7, 4, 6), (0, 7, 1, 6), (0, 4, 1, 3),
)


def _pair_workspace() -> list:
    """A workspace of float registers for one pair."""
    return [0.0] * _WS_ROWS + list(_CONSTANTS)


def _arith(w: list):
    """add, sub, mul, div on the registers of w: op(out, a, b) sets w[out] = w[a] op w[b].

    Float and array registers round each operation alike (IEEE binary64);
    any other number type (fractions.Fraction, say) takes its own operators.
    """
    if not isinstance(w[0], np.ndarray):
        def bind(f):
            def op(out, a, b):
                w[out] = f(w[a], w[b])
            return op
        return tuple(map(bind, (operator.add, operator.sub, operator.mul, operator.truediv)))

    def bind(f):
        def op(out, a, b):
            f(w[a], w[b], w[out])
        return op
    return tuple(map(bind, (np.add, np.subtract, np.multiply, np.divide)))


def _candidate(w: list) -> None:
    """Closed-form candidate inverse of the Pauli channel lambda at the prior r.

    Reads lambda and r from the registers of the workspace w and writes S,
    v and R there: the candidate's a[0, 0]-normalized Pauli-frame
    coefficients are [[1, v^T], [0, R]] with v = r (1 - lambda^2) / (1 - S),
    R = diag(lambda) - (lambda r) v^T and S = sum lambda_i^2 r_i^2.

    :raises SingularSError: when some S >= 1 - 1e-12.
    """
    add, sub, mul, div = _arith(w)
    lam, r, v, x = _LAM, _PRIOR, _V, _X
    for i in range(3):  # lambda_i^2, held in v until v is formed
        mul(v + i, lam + i, lam + i)
    mul(_S, v, r)
    mul(_S, _S, r)
    for i in (1, 2):
        mul(x, v + i, r + i)
        mul(x, x, r + i)
        add(_S, _S, x)
    s, limit = w[_S], 1.0 - _BOUNDARY_EPS
    if np.any(s >= limit) if isinstance(s, np.ndarray) else (s >= limit):
        raise SingularSError(f"S = {np.max(s)} is too close to 1")
    sub(x, _ONE, _S)
    for i in range(3):
        sub(v + i, _ONE, v + i)
        mul(v + i, v + i, r + i)
        div(v + i, v + i, x)
    for i in range(3):  # R[i, j] = -lambda_i r_i v_j, then lambda_i on the diagonal
        mul(x, _MINUS_ONE, lam + i)
        mul(x, x, r + i)
        for j in range(3):
            mul(_R + 3 * i + j, x, v + j)
        add(_R + 4 * i, _R + 4 * i, lam + i)


def _slacks(w: list) -> None:
    """Positivity slacks of the coefficient block [[1, v^T], [0, R]].

    Reads v and R from the registers of the workspace w and writes eta,
    det R, |R v|^2, |adj R|^2 and the three slacks there. Every sum runs in
    one fixed order.
    """
    add, sub, mul, _ = _arith(w)
    v, R, x, y = _V, _R, _X, _Y
    # eta = |v|^2 + |R|^2
    mul(_ETA, v, v)
    for k in (1, 2):
        mul(x, v + k, v + k)
        add(_ETA, _ETA, x)
    mul(y, R, R)
    for k in range(1, 9):
        mul(x, R + k, R + k)
        add(y, y, x)
    add(_ETA, _ETA, y)
    for i in range(3):  # |R v|^2, one entry of R v at a time
        mul(x, R + 3 * i, v)
        for j in (1, 2):
            mul(y, R + 3 * i + j, v + j)
            add(x, x, y)
        if i:
            mul(x, x, x)
            add(_RV2, _RV2, x)
        else:
            mul(_RV2, x, x)
    # |adj R|^2, and det R = R00 M00 - R01 M01 + R02 M02 over the minors
    # M0j that the adjugate loop makes at k = 0, 3 and 6.
    for k, (a, b, c, d) in enumerate(_ADJUGATE):
        mul(x, R + a, R + b)
        mul(y, R + c, R + d)
        sub(x, x, y)
        if k == 0:
            mul(_DET, R, x)
        elif k == 3:
            mul(y, R + 1, x)
            sub(_DET, _DET, y)
        elif k == 6:
            mul(y, R + 2, x)
            add(_DET, _DET, y)
        if k:
            mul(x, x, x)
            add(_ADJ2, _ADJ2, x)
        else:
            mul(_ADJ2, x, x)
    s1, s2, s3 = range(_SLACK, _SLACK + 3)
    sub(s1, _THREE, _ETA)
    mul(s2, _DET, _TWO)
    sub(s2, _ONE, s2)
    sub(s2, s2, _ETA)
    sub(s3, _ETA, _ONE)
    mul(s3, s3, s3)
    mul(x, _DET, _EIGHT)
    sub(s3, s3, x)
    add(x, _RV2, _ADJ2)
    mul(x, x, _FOUR)
    sub(s3, s3, x)


def gamel_report(choi: np.ndarray, S: float, tol: float = 1e-9) -> FeasibilityReport:
    """Positivity test for a trace-preserving candidate's Choi matrix.

    The matrix is normalized to unit trace before reading off the Pauli-pair
    coefficient block [[1, v^T], [0, R]]; the scalar S is carried through to
    the report unchanged. Feasible means every slack >= -tol. Tests check
    the registers by it.

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
    w = _pair_workspace()
    w[_V : _V + 3] = block[0, 1:].tolist()
    w[_R : _R + 9] = block[1:, 1:].ravel().tolist()
    _slacks(w)
    return _pair_report(w, S, tol)


def _pair_report(w: list, S: float, tol: float) -> FeasibilityReport:
    """The report of a pair workspace w that _slacks has scored."""
    slack = np.array(w[_SLACK : _SLACK + 3])
    return FeasibilityReport(
        v=w[_V : _V + 3], R=np.reshape(w[_R : _R + 9], (3, 3)), eta=w[_ETA], detR=w[_DET],
        normRv2=w[_RV2], normAdjR2=w[_ADJ2], slack=slack, feasible=bool((slack >= -tol).all()),
        S=float(S),
    )


# === The interior (analytic) inverse ===

def _on_boundary(lam: np.ndarray):
    """Whether some |lambda_i| = 1, for one channel (3,) or per row of (M, 3)."""
    return np.abs(lam).max(axis=-1) >= 1.0 - _BOUNDARY_EPS


def analytic_inverse(p: PauliChannel, s: BlochState, tol: float = 1e-9) -> InverseRecord:
    """Closed-form candidate inverse for a strictly contracting Pauli channel.

    The defining identity is satisfied exactly by construction; the report,
    scored on float registers as a batch scores it, says whether the
    candidate is completely positive. ``kraus`` is empty: :func:`bayesian_inverse`
    builds Kraus operators for the certified result.

    :raises EigenvalueOnBoundaryError: when some |lambda_i| >= 1 - 1e-12.
    :raises SingularSError: when S = sum lambda_i^2 r_i^2 >= 1 - 1e-12.
    """
    lam = p.lam
    if _on_boundary(lam):
        raise EigenvalueOnBoundaryError(
            f"|lambda| = {np.abs(lam).max()}; use the unscathed/adjoint route"
        )
    w = _pair_workspace()
    w[_LAM : _LAM + 3], w[_PRIOR : _PRIOR + 3] = (lam * _CHOI_ROW_SIGNS).tolist(), s.r.tolist()
    _candidate(w)
    _slacks(w)
    a = np.zeros((4, 4))
    a[0] = 1.0, *w[_V : _V + 3]
    a[1:, 1:] = np.reshape(w[_R : _R + 9], (3, 3)) * _CHOI_ROW_SIGNS[:, None]
    a[2, 2] += 0.0  # a cancelling diagonal sums to +0 unsigned, to -0 negated
    return InverseRecord(a=a, S=w[_S], ptm=a.T, kraus=(), report=_pair_report(w, w[_S], tol))


# === Full pipeline ===

def pauli_frame_decision(p: PauliChannel, s: BlochState, tol: float = 1e-9):
    """Decide whether a Pauli channel has a Bayesian inverse for a prior.

    The verdict behind single queries; batches take :func:`_verdict_rows`,
    its form on arrays. A boundary channel (some |lambda_i| = 1) has one
    exactly when the prior is unscathed, and it is then the channel's
    adjoint, i.e. the channel itself, whose record is feasible and holds
    the slacks of v = 0, R = diag(lambda). Otherwise the closed-form
    candidate is scored. Both are scored on the kernel's registers, as in
    a batch.

    :return: the inverse in the Pauli frame as an InverseRecord with no
        Kraus operators and residual 0 (on the interior, the record of
        :func:`analytic_inverse`), or a NoInverse explaining the obstruction.
    :raises ValueError: unless 0 < tol < inf.
    """
    _check_tol(tol)
    lam = p.lam
    if not _on_boundary(lam):
        rec = analytic_inverse(p, s, tol)
        if not rec.report.feasible:
            return NoInverse(reason="cp-infeasible", report=rec.report)
        return rec
    residuals = _unscathed_residuals(lam, s.r)
    if not (residuals <= _UNSCATHED_TOL).any():
        return NoInverse(reason="not-unscathed", residuals=residuals)
    s_scalar = float(np.sum(lam * lam * s.r * s.r))
    w = _pair_workspace()  # v = 0
    w[_R : _R + 9] = np.diag(lam * _CHOI_ROW_SIGNS).ravel().tolist()
    _slacks(w)
    # The unscathed test decided, as in a batch, whatever the slacks' sign at tol.
    report = replace(_pair_report(w, s_scalar, tol), feasible=True)
    unique = bool(s_scalar < 1.0 - _BOUNDARY_EPS)
    return InverseRecord(a=p.ptm, S=s_scalar, ptm=p.ptm, kraus=(), report=report, unique=unique)


# Rows are scored in blocks of whole rows with at most this many pairs (a
# row longer than that is a block of its own). The workspace holds
# 28 doubles a pair, 1.8 MB at this size, and is allocated once per pass
# over the rows, so scan_three_entry(8, 1000) makes one for its 11 blocks.
# A block makes the same 142 ufunc calls whatever its width, and a wider
# block raises the peak. Median time of scan_three_entry(8, 1000) and of a
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
    and its (k, n) verdicts, every slack >= -tol. An interior row builds
    its candidate from lambda * _CHOI_ROW_SIGNS. A boundary row builds it
    at lambda = 0, so S stays 0, then takes the channel's own v = 0 and
    R = diag(lambda * _CHOI_ROW_SIGNS) before _slacks; its verdicts are
    its unscathed mask, and its other priors get (-1, -1, -1). Every
    operation is elementwise per pair, so a verdict does not depend on its
    block.

    :param lam: (M, 3) signed eigenvalues, one channel per row.
    :param r: (3, M, n) prior columns, or (3, 1, n) for the same n priors
        in every row.
    :raises SingularSError: when some S = sum lambda_i^2 r_i^2 >= 1 - 1e-12.
    :raises ValueError: on a non-finite slack or, on a boundary row, a
        non-finite unscathed residual, before its block is yielded.
    """
    n = r.shape[-1]
    boundary = _on_boundary(lam)
    step = max(1, _PAIR_BLOCK // max(n, 1))
    k_max = max(1, min(step, len(lam)))
    # Each register row is padded to a multiple of 8 doubles, so that every
    # row of every block starts on a 64-byte boundary.
    flat = _aligned_empty((_WS_ROWS, -(-k_max * n // 8) * 8))
    ws = flat[:, : k_max * n].reshape(_WS_ROWS, k_max, n)
    shared = r.shape[1] == 1
    if shared:  # _candidate and _slacks never write a prior register
        np.copyto(ws[_PRIOR : _PRIOR + 3], r)
    lam_signed = np.where(boundary[:, None], 0.0, lam * _CHOI_ROW_SIGNS)
    w = []  # the registers of a block of k rows, rebuilt when k changes
    for start in range(0, len(lam), step):
        rows = np.arange(start, min(start + step, len(lam)))
        k = len(rows)
        np.copyto(ws[_LAM : _LAM + 3, :k], lam_signed[rows].T[:, :, None])
        if not shared:
            np.copyto(ws[_PRIOR : _PRIOR + 3, :k], r[:, rows])
        if not w or len(w[0]) != k * n:
            w = [*flat[:, : k * n], *_CONSTANTS]
        _candidate(w)
        on_edge = np.flatnonzero(boundary[rows])
        if on_edge.size:  # the channel's own v = 0 and R = diag(lambda)
            ws[_V : _R + 9, on_edge] = 0.0
            ws[_R : _R + 9 : 4, on_edge] = (lam[rows[on_edge]] * _CHOI_ROW_SIGNS).T[:, :, None]
        _slacks(w)
        slack = ws[_SLACK : _SLACK + 3, :k]
        feasible = (slack >= -tol).all(axis=0)
        finite = np.isfinite(slack).all()
        for j in on_edge:
            i = rows[j]
            residuals = _unscathed_residuals(lam[i], r[:, 0 if shared else i])
            finite &= np.isfinite(residuals).all()
            feasible[j] = (residuals <= _UNSCATHED_TOL).any(axis=0)
            np.copyto(slack[:, j], -1.0, where=~feasible[j])
        if not finite:
            raise ValueError("non-finite slack or residual: every prior must be finite")
        yield rows, slack, feasible


def _verdict_rows(lam: np.ndarray, r: np.ndarray, tol: float):
    """Verdicts of the Pauli channel lam[i] at the priors r[:, i], for every row i.

    The batched form of :func:`pauli_frame_decision`, assembled from the
    blocks of :func:`_verdict_blocks`; lam, r and the errors are as there.

    :return: (feasible, slack, witness) of shapes (M, n), (M, n, 3) and
        (M, n); witness indexes :data:`WITNESSES`: 0 where feasible, else
        the first slack below -tol or, on a boundary row, "not-unscathed".
    """
    n_rows, n = len(lam), r.shape[-1]
    feasible = np.empty((n_rows, n), dtype=bool)
    slack = np.empty((n_rows, n, 3))
    witness = np.zeros((n_rows, n), dtype=np.int8)
    # "not-unscathed" is the largest code, so it wins over any slack's.
    unnamed = np.where(_on_boundary(lam), np.int8(WITNESSES.index("not-unscathed")), np.int8(0))
    for rows, block_slack, block_feasible in _verdict_blocks(lam, r, tol):
        block = slice(rows[0], rows[-1] + 1)  # the rows come in order
        slack[block] = block_slack.transpose(1, 2, 0)
        feasible[block] = block_feasible
        first_bad = witness[block]
        for j in (2, 1, 0):
            np.copyto(first_bad, j + 1, where=block_slack[j] < -tol)
        np.maximum(first_bad, unnamed[block, None], out=first_bad)
        np.copyto(first_bad, 0, where=block_feasible)
    return feasible, slack, witness


def pauli_frame_verdicts(p: PauliChannel, r, tol: float = 1e-9):
    """The verdict of :func:`pauli_frame_decision` for one channel and many priors.

    The same closed forms on arrays, with no per-prior loop. On a boundary
    channel an unscathed prior takes the slacks of v = 0, R = diag(lambda).
    Every operation is elementwise per prior, so a row's result does not
    depend on its batch.

    :param r: (N, 3) Bloch vectors of the priors in the Pauli frame.
    :return: (feasible, slack, witness), read-only arrays of shapes (N,),
        (N, 3) and (N,). witness indexes :data:`WITNESSES`; a prior that is
        not unscathed gets slack (-1, -1, -1).
    :raises ValueError: if some prior is not a finite point of the Bloch ball,
        or unless 0 < tol < inf.
    :raises SingularSError: when S = sum lambda_i^2 r_i^2 >= 1 - 1e-12.
    """
    _check_tol(tol)
    r = np.asarray(r, dtype=np.float64)
    if r.ndim != 2 or r.shape[1] != 3:
        raise ValueError(f"priors must have shape (N, 3), got {r.shape}")
    x, y, z = r.T
    if not (np.sqrt(x * x + y * y + z * z) <= 1.0 + 1e-12).all():
        raise ValueError("every prior must be a finite Bloch vector with length <= 1")
    return tuple(_readonly(col[0]) for col in _verdict_rows(p.lam[None], r.T[:, None], tol))


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
    rec = pauli_frame_decision(pch, BlochState(o2t @ s.r), tol)
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
