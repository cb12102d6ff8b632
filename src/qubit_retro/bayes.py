"""Bayesian inversion of unital qubit channels.

The retrodiction question answered here: given a channel E and a prior
state rho, is there a channel F whose two-point correlations run backwards,

    {E(rho) (x) I, J[F]} = {I (x) rho, J[E^dag]},

and if so, what is it? For Pauli channels with all |lambda_i| < 1 the unique
candidate has closed-form Pauli-pair coefficients; whether that candidate is
an actual channel reduces to three scalar inequalities on its Choi matrix.
Boundary channels (some |lambda_i| = 1) are handled by the unscathed test:
the adjoint map works exactly when some Pauli sigma satisfies
E(rho) = sigma rho sigma. General unital channels are moved into the
Pauli frame by the two Bloch rotations of their transfer matrix, inverted
there, and rotated back.

Every Pauli-frame verdict, for one prior or a batch, reads three closed
forms of (lambda, r): the candidate inverse, its positivity slacks and the
unscathed residuals. Other channel action goes through
channels.apply_operator. The independent routes that check this module
(matrix conjugation residuals, the pseudo-density matrix, the
anticommutator solver) live with the tests, in tests/oracles.py.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channels import (
    BlochState,
    ChannelRep,
    PauliChannel,
    _readonly,
    _rotation_frame,
    adjoint,
    apply_operator,
    choi_from_jam,
    jamiolkowski,
    kraus_from_choi,
)
from .errors import (
    EigenvalueOnBoundaryError,
    InternalCPViolationError,
    NotHermitianError,
    NotPSDError,
    SingularSError,
)
from .linalg import PAULIS, anticommutator, pauli_expand, pauli_reconstruct, tensor

__all__ = [
    "FeasibilityReport",
    "InverseRecord",
    "NoInverse",
    "two_time_projector",
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

# The Choi matrix reads sigma_y^T = -sigma_y on its first factor.
_CHOI_ROW_SIGNS = np.array([1.0, -1.0, 1.0])

# Conjugation by sigma_k sends the Bloch vector r to _CONJUGATION_SIGNS[k] * r.
_CONJUGATION_SIGNS = np.array(
    [[1.0, 1.0, 1.0], [1.0, -1.0, -1.0], [-1.0, 1.0, -1.0], [-1.0, -1.0, 1.0]]
)

_ID2 = np.eye(2, dtype=np.complex128)
_ID3 = np.eye(3)


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
class InverseRecord:
    """A constructed Bayesian inverse plus its certification data.

    ``a`` holds the Pauli-frame coefficients in the normalization where
    a[0, 0] = 1 (twice the actual operator coefficients); ``choi`` and
    ``kraus`` describe the returned channel in the original frame;
    ``residual`` is the max-entry defect of the defining two-sided
    anticommutator identity; ``unique`` is False only when E(rho) is pure,
    in which case other solutions exist.
    """

    a: np.ndarray
    S: float
    choi: np.ndarray
    kraus: tuple
    report: FeasibilityReport
    unique: bool = True
    residual: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", _readonly(np.asarray(self.a, dtype=np.float64)))
        object.__setattr__(self, "choi", _readonly(np.asarray(self.choi, dtype=np.complex128)))
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
    """
    hits = np.flatnonzero(_unscathed_residuals(p.lam, s.r) <= tol)
    return int(hits[0]) if hits.size else None


# === Feasibility of the interior candidate ===

def _det3(m: np.ndarray):
    """Determinant of a (3, 3, ...) stack, elementwise over the trailing axes."""
    return (
        m[0, 0] * (m[1, 1] * m[2, 2] - m[1, 2] * m[2, 1])
        - m[0, 1] * (m[1, 0] * m[2, 2] - m[1, 2] * m[2, 0])
        + m[0, 2] * (m[1, 0] * m[2, 1] - m[1, 1] * m[2, 0])
    )


def _adj3(m: np.ndarray) -> np.ndarray:
    """Adjugate of a (3, 3, ...) stack, elementwise over the trailing axes."""
    out = np.empty(m.shape)
    out[0, 0] = m[1, 1] * m[2, 2] - m[1, 2] * m[2, 1]
    out[0, 1] = -(m[0, 1] * m[2, 2] - m[0, 2] * m[2, 1])
    out[0, 2] = m[0, 1] * m[1, 2] - m[0, 2] * m[1, 1]
    out[1, 0] = -(m[1, 0] * m[2, 2] - m[1, 2] * m[2, 0])
    out[1, 1] = m[0, 0] * m[2, 2] - m[0, 2] * m[2, 0]
    out[1, 2] = -(m[0, 0] * m[1, 2] - m[0, 2] * m[1, 0])
    out[2, 0] = m[1, 0] * m[2, 1] - m[1, 1] * m[2, 0]
    out[2, 1] = -(m[0, 0] * m[2, 1] - m[0, 1] * m[2, 0])
    out[2, 2] = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    return out


def _sum_of_squares(m: np.ndarray, axes: int):
    """Sum of squares over the leading axes of m, added in a fixed order per element."""
    flat = m.reshape((math.prod(m.shape[:axes]),) + m.shape[axes:])
    total = flat[0] * flat[0]
    for row in flat[1:]:
        total = total + row * row
    return total


def _slacks(v: np.ndarray, R: np.ndarray):
    """Positivity slacks of the coefficient block [[1, v^T], [0, R]].

    v and R are (3,) and (3, 3) for one candidate, or stacks (3, N) and
    (3, 3, N); every sum runs in one fixed order, so a candidate's slacks do
    not depend on the batch it comes in.

    :return: (eta, det R, |R v|^2, |adj R|^2, slack), with slack of shape
        (3,) or (N, 3).
    """
    eta = _sum_of_squares(v, 1) + _sum_of_squares(R, 2)
    det_r = _det3(R)
    rv = R[:, 0] * v[0] + R[:, 1] * v[1] + R[:, 2] * v[2]
    norm_rv2 = _sum_of_squares(rv, 1)
    norm_adj2 = _sum_of_squares(_adj3(R), 2)
    slack = np.stack(
        [
            3.0 - eta,
            1.0 - 2.0 * det_r - eta,
            (eta - 1.0) ** 2 - 8.0 * det_r - 4.0 * (norm_rv2 + norm_adj2),
        ],
        axis=-1,
    )
    return eta, det_r, norm_rv2, norm_adj2, slack


def gamel_report(choi: np.ndarray, S: float, tol: float = 1e-9) -> FeasibilityReport:
    """Positivity test for a trace-preserving candidate's Choi matrix.

    The matrix is normalized to unit trace before reading off the Pauli-pair
    coefficient block [[1, v^T], [0, R]]; the scalar S is carried through to
    the report unchanged. Feasible means every slack >= -tol.

    :raises NotHermitianError: on a non-Hermitian input.
    :raises ValueError: if the first coefficient column is not (1, 0, 0, 0),
        i.e. the candidate is not trace preserving.
    """
    c = np.asarray(choi, dtype=np.complex128)
    if np.abs(c - c.conj().T).max() > 1e-10:
        raise NotHermitianError("Choi matrix must be Hermitian")
    coeff = pauli_expand(c)
    if coeff[0, 0] <= 0.0:
        raise ValueError(f"Choi trace {4 * coeff[0, 0]} is not positive")
    w = coeff / coeff[0, 0]
    if np.abs(w[1:, 0]).max() > 1e-8:
        raise ValueError("candidate is not trace preserving (first coefficient column nonzero)")
    v = w[0, 1:]
    r_block = w[1:, 1:]
    eta, det_r, norm_rv2, norm_adj2, slack = _slacks(v, r_block)
    return FeasibilityReport(
        v=v,
        R=r_block,
        eta=float(eta),
        detR=float(det_r),
        normRv2=float(norm_rv2),
        normAdjR2=float(norm_adj2),
        slack=slack,
        feasible=bool((slack >= -tol).all()),
        S=float(S),
    )


# === The interior (analytic) inverse ===

def _on_boundary(lam: np.ndarray):
    """Whether some |lambda_i| = 1, for one channel (3,) or per row of (M, 3)."""
    return np.abs(lam).max(axis=-1) >= 1.0 - _BOUNDARY_EPS


def _candidate(lam: np.ndarray, r: np.ndarray):
    """Closed-form candidate inverse of the Pauli channel lambda at the prior r.

    Its a[0, 0]-normalized Pauli-frame coefficients are [[1, v^T], [0, R]]
    with v = r (1 - lambda^2) / (1 - S), R = diag(lambda) - (lambda r) v^T
    and S = sum lambda_i^2 r_i^2. r is one prior (3,) or a batch of columns
    (3, N); lambda is (3,) for one channel, or (3, N) with one channel per
    column of r. R is then (3, 3) or (3, 3, N).

    :return: (S, v, R).
    :raises SingularSError: when some S >= 1 - 1e-12.
    """
    lam = lam.reshape(lam.shape + (1,) * (np.ndim(r) - lam.ndim))
    l2 = lam * lam
    s_scalar = l2[0] * r[0] * r[0] + l2[1] * r[1] * r[1] + l2[2] * r[2] * r[2]
    if np.any(s_scalar >= 1.0 - _BOUNDARY_EPS):
        raise SingularSError(f"S = {np.max(s_scalar)} is too close to 1")
    v = r * (1.0 - l2) / (1.0 - s_scalar)
    R = (-lam * r)[:, None] * v  # R[i, j] = -lambda_i r_i v_j
    R[range(3), range(3)] += lam
    return s_scalar, v, R


def analytic_inverse(p: PauliChannel, s: BlochState, tol: float = 1e-9) -> InverseRecord:
    """Closed-form candidate inverse for a strictly contracting Pauli channel.

    The defining identity is satisfied exactly by construction; the returned
    report says whether the candidate is completely positive. No Kraus
    operators are extracted (``kraus`` is empty); :func:`bayesian_inverse`
    builds them for the certified result.

    :raises EigenvalueOnBoundaryError: when some |lambda_i| >= 1 - 1e-12.
    :raises SingularSError: when S = sum lambda_i^2 r_i^2 >= 1 - 1e-12.
    """
    lam = p.lam
    if _on_boundary(lam):
        raise EigenvalueOnBoundaryError(
            f"|lambda| = {np.abs(lam).max()}; use the unscathed/adjoint route"
        )
    s_scalar, v, R = _candidate(lam, s.r)
    a = np.zeros((4, 4))
    a[0, 0] = 1.0
    a[0, 1:] = v
    a[1:, 1:] = R
    choi = choi_from_jam(pauli_reconstruct(a / 2.0))
    report = gamel_report(choi, s_scalar, tol)
    return InverseRecord(a=a, S=float(s_scalar), choi=choi, kraus=(), report=report)


# === Full pipeline ===

def pauli_frame_decision(p: PauliChannel, s: BlochState, tol: float = 1e-9):
    """Decide whether a Pauli channel has a Bayesian inverse for a prior.

    The one verdict behind single queries and region scans. A boundary
    channel (some |lambda_i| = 1) has one exactly when the prior is
    unscathed, and it is then the channel's adjoint, i.e. the channel itself.
    Otherwise the closed-form candidate is tested for complete positivity.
    Both branches score a Choi matrix with gamel_report: the candidate's, or
    on the boundary the channel's own.

    :return: (a, S, report, unique) with a the a[0, 0]-normalized Pauli-frame
        coefficients of the inverse, or a NoInverse explaining the obstruction.
    """
    lam = p.lam
    if not _on_boundary(lam):
        rec = analytic_inverse(p, s, tol)
        if not rec.report.feasible:
            return NoInverse(reason="cp-infeasible", report=rec.report)
        return rec.a, rec.S, rec.report, True
    residuals = _unscathed_residuals(lam, s.r)
    if not (residuals <= _UNSCATHED_TOL).any():
        return NoInverse(reason="not-unscathed", residuals=residuals)
    s_scalar = float(np.sum(lam * lam * s.r * s.r))
    report = gamel_report(p.choi, s_scalar, tol)
    return p.ptm, s_scalar, report, bool(s_scalar < 1.0 - _BOUNDARY_EPS)


def _interior_verdicts(lam: np.ndarray, r: np.ndarray, tol: float):
    """Verdicts of strictly contracting Pauli channels at their priors.

    The interior branch of :func:`pauli_frame_verdicts`, pair by pair: lambda
    is (3, N), one channel per column of the priors r (3, N), or (3, 1) for
    one channel against all of them. The candidate is built from lambda with
    its sigma_y entry negated, which reads R as the Choi matrix does
    (sigma_y^T = -sigma_y) and leaves v and S alone (lambda enters them
    squared). Every operation is elementwise per pair.

    :return: (feasible, slack, witness) as in :func:`pauli_frame_verdicts`.
    """
    slack = _slacks(*_candidate(lam * _CHOI_ROW_SIGNS[:, None], r)[1:])[-1]
    bad = slack < -tol
    feasible = ~bad.any(axis=1)
    witness = np.where(feasible, 0, 1 + np.argmax(bad, axis=1))
    return _readonly(feasible), _readonly(slack), _readonly(witness.astype(np.int8))


def pauli_frame_verdicts(p: PauliChannel, r, tol: float = 1e-9):
    """The verdict of :func:`pauli_frame_decision` for one channel and many priors.

    The same closed forms on arrays, with no per-prior loop. On a boundary
    channel an unscathed prior takes the slacks of the channel's own Choi
    matrix. Every operation is elementwise per prior, so a row's result does
    not depend on its batch.

    :param r: (N, 3) Bloch vectors of the priors in the Pauli frame.
    :return: (feasible, slack, witness), read-only arrays of shapes (N,),
        (N, 3) and (N,). witness indexes :data:`WITNESSES`; a prior that is
        not unscathed gets slack (-1, -1, -1).
    :raises ValueError: if some prior is not a finite point of the Bloch ball.
    :raises SingularSError: when S = sum lambda_i^2 r_i^2 >= 1 - 1e-12.
    """
    r = np.asarray(r, dtype=np.float64)
    if r.ndim != 2 or r.shape[1] != 3:
        raise ValueError(f"priors must have shape (N, 3), got {r.shape}")
    x, y, z = r.T
    if not (np.sqrt(x * x + y * y + z * z) <= 1.0 + 1e-12).all():
        raise ValueError("every prior must be a finite Bloch vector with length <= 1")
    lam = p.lam
    if not _on_boundary(lam):
        return _interior_verdicts(lam[:, None], r.T, tol)
    feasible = (_unscathed_residuals(lam, r.T) <= _UNSCATHED_TOL).any(axis=0)
    # The channel's own slacks; S only rides along in the report.
    slack = np.where(feasible[:, None], gamel_report(p.choi, 0.0, tol).slack, -1.0)
    witness = np.where(feasible, 0, WITNESSES.index("not-unscathed"))
    return _readonly(feasible), _readonly(slack), _readonly(witness.astype(np.int8))


def bayesian_inverse(e, s: BlochState, tol: float = 1e-9):
    """Decide and construct the Bayesian inverse of a unital channel.

    Pipeline: factor the transfer matrix as B1 . diag(1, lambda) . B2 with
    B = diag(1, o) for Bloch rotations o1, o2t (identities for a Pauli
    channel), decide at the prior o2t . r with :func:`pauli_frame_decision`,
    carry the inverse back as B2^T . a^T . B1^T and certify it. One
    decomposition of its Choi matrix is both the CP check and the Kraus
    extraction.

    :return: an InverseRecord, or a NoInverse explaining the obstruction.
    :raises NotUnitalError / NotCPTPError: if e is out of contract.
    :raises InternalCPViolationError: if the constructed inverse fails its
        certification (Choi positivity or the defining identity).
    """
    o1, pch, o2t = (_ID3, e, _ID3) if isinstance(e, PauliChannel) else _rotation_frame(e, tol)
    decision = pauli_frame_decision(pch, BlochState(o2t @ s.r), tol)
    if isinstance(decision, NoInverse):
        return decision
    a, s_scalar, report, unique = decision
    t = a.T.copy()  # the frame inverse's transfer matrix, then B2^T t B1^T
    t[1:] = o2t.T @ t[1:]
    t[:, 1:] = t[:, 1:] @ o1.T
    final = ChannelRep.from_ptm(t)
    cert_tol = max(tol, 1e-9)
    try:
        kraus = kraus_from_choi(final.choi, cert_tol)
    except NotPSDError as exc:
        raise InternalCPViolationError(f"constructed inverse is not CP: {exc}") from exc
    residual = bayes_residual(e, s, final)
    if residual > cert_tol:
        raise InternalCPViolationError(f"constructed inverse has residual {residual:.3e}")
    return InverseRecord(
        a=a,
        S=s_scalar,
        choi=final.choi,
        kraus=tuple(kraus),
        report=report,
        unique=unique,
        residual=residual,
    )
