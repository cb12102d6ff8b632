"""Bayesian inversion of unital qubit channels.

The retrodiction question answered here: given a channel E and a prior
state rho, is there a channel F whose two-point correlations run backwards,

    {E(rho) (x) I, J[F]} = {I (x) rho, J[E^dag]},

and if so, what is it? For Pauli channels with all |lambda_i| < 1 the unique
candidate has closed-form Pauli-pair coefficients; whether that candidate is
an actual channel reduces to three scalar inequalities on its Choi matrix.
Boundary channels (some |lambda_i| = 1) are handled by the unscathed test:
the adjoint map works exactly when some Pauli sigma satisfies
E(rho) = sigma rho sigma. General unital channels are rotated into the
Pauli frame, inverted there, and rotated back.

Channel action here (E(rho), the residuals, the unscathed test) goes
through channels.apply_operator, the one transfer-matrix path shared by
Pauli channels and general channels. The independent routes that check
this module (the pseudo-density matrix, the anticommutator solver) live
with the tests, in tests/oracles.py.
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
    adjoint,
    apply,
    apply_operator,
    choi_from_jam,
    is_cptp,
    jamiolkowski,
    kraus_from_choi,
    transport_inverse,
    unital_to_pauli,
)
from .errors import (
    EigenvalueOnBoundaryError,
    InternalCPViolationError,
    NotHermitianError,
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

_ID2 = np.eye(2, dtype=np.complex128)


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

def unscathed_residuals(p: PauliChannel, s: BlochState) -> np.ndarray:
    """Max-entry defect of P(rho) = sigma_k rho sigma_k for each k in 0..3."""
    rho = s.matrix
    out = apply_operator(p, rho)
    return np.array([np.abs(out - sigma @ rho @ sigma).max() for sigma in PAULIS])


def is_unscathed(p: PauliChannel, s: BlochState, tol: float = _UNSCATHED_TOL):
    """Smallest index k with P(rho) = sigma_k rho sigma_k, or None.

    Index 0 means the state passes through the channel untouched.
    """
    hits = np.flatnonzero(unscathed_residuals(p, s) <= tol)
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
    eta = float(v @ v + (r_block * r_block).sum())
    det_r = float(_det3(r_block))
    rv = r_block @ v
    norm_rv2 = float(rv @ rv)
    adj = _adj3(r_block)
    norm_adj2 = float((adj * adj).sum())
    slack = np.array(
        [
            3.0 - eta,
            1.0 - 2.0 * det_r - eta,
            (eta - 1.0) ** 2 - 8.0 * det_r - 4.0 * (norm_rv2 + norm_adj2),
        ]
    )
    return FeasibilityReport(
        v=v,
        R=r_block,
        eta=eta,
        detR=det_r,
        normRv2=norm_rv2,
        normAdjR2=norm_adj2,
        slack=slack,
        feasible=bool((slack >= -tol).all()),
        S=float(S),
    )


# === The interior (analytic) inverse ===

def _candidate_coefficients(lam: np.ndarray, r: np.ndarray, s_scalar: float) -> np.ndarray:
    """Pauli-frame coefficients of the candidate inverse, a[0,0]-normalized to 1."""
    a = np.zeros((4, 4))
    a[0, 0] = 1.0
    denom = 1.0 - s_scalar
    for j in range(3):
        a[0, j + 1] = r[j] * (1.0 - lam[j] ** 2) / denom
    for i in range(3):
        for j in range(3):
            a[i + 1, j + 1] = -lam[i] * r[i] * a[0, j + 1]
        a[i + 1, i + 1] += lam[i]
    return a


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
    if np.abs(lam).max() >= 1.0 - _BOUNDARY_EPS:
        raise EigenvalueOnBoundaryError(
            f"|lambda| = {np.abs(lam).max()}; use the unscathed/adjoint route"
        )
    r = s.r
    s_scalar = float(np.sum(lam * lam * r * r))
    if s_scalar >= 1.0 - _BOUNDARY_EPS:
        raise SingularSError(f"S = {s_scalar} is too close to 1")
    a = _candidate_coefficients(lam, r, s_scalar)
    choi = choi_from_jam(pauli_reconstruct(a / 2.0))
    report = gamel_report(choi, s_scalar, tol)
    return InverseRecord(a=a, S=s_scalar, choi=choi, kraus=(), report=report)


# === Full pipeline ===

def pauli_frame_decision(p: PauliChannel, s: BlochState, tol: float = 1e-9):
    """Decide whether a Pauli channel has a Bayesian inverse for a prior.

    The one verdict behind single queries and region scans. A boundary
    channel (some |lambda_i| = 1) has one exactly when the prior is
    unscathed, and it is then the channel's adjoint, i.e. the channel itself.
    Otherwise the closed-form candidate is tested for complete positivity.
    Both branches score their coefficients as a -> Choi -> gamel_report.

    :return: (a, S, report, unique) with a the a[0, 0]-normalized Pauli-frame
        coefficients of the inverse, or a NoInverse explaining the obstruction.
    """
    lam = p.lam
    if np.abs(lam).max() < 1.0 - _BOUNDARY_EPS:
        rec = analytic_inverse(p, s, tol)
        if not rec.report.feasible:
            return NoInverse(reason="cp-infeasible", report=rec.report)
        return rec.a, rec.S, rec.report, True
    if is_unscathed(p, s) is None:
        return NoInverse(reason="not-unscathed", residuals=unscathed_residuals(p, s))
    a = np.diag(np.concatenate(([1.0], lam)))
    s_scalar = float(np.sum(lam * lam * s.r * s.r))
    report = gamel_report(choi_from_jam(pauli_reconstruct(a / 2.0)), s_scalar, tol)
    return a, s_scalar, report, bool(s_scalar < 1.0 - _BOUNDARY_EPS)


def _sum_of_squares(m: np.ndarray) -> np.ndarray:
    """Sum of m[k]**2 over the leading axes, added in a fixed order per element."""
    flat = m.reshape(math.prod(m.shape[:-1]), m.shape[-1])
    total = flat[0] * flat[0]
    for row in flat[1:]:
        total = total + row * row
    return total


def pauli_frame_verdicts(p: PauliChannel, r, tol: float = 1e-9):
    """The verdict of :func:`pauli_frame_decision` for one channel and many priors.

    An interior channel (every |lambda_i| < 1) is scored from the closed
    form of its candidate inverse, v = r (1 - lambda^2) / (1 - S) and
    R = diag(lambda) - (lambda r) v^T, with the sigma_y row of R negated as
    it is read from the Choi matrix (sigma_y^T = -sigma_y). Every operation
    is elementwise per prior, so a row's result does not depend on the
    batch it comes in. A boundary channel goes through
    :func:`pauli_frame_decision` one prior at a time.

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
    if np.abs(lam).max() >= 1.0 - _BOUNDARY_EPS:
        feasible, slack, witness = _boundary_verdicts(p, r, tol)
    else:
        feasible, slack, witness = _interior_verdicts(lam, r.T, tol)
    return _readonly(feasible), _readonly(slack), _readonly(witness)


def _boundary_verdicts(p: PauliChannel, r: np.ndarray, tol: float):
    n = len(r)
    feasible = np.zeros(n, dtype=bool)
    slack = np.empty((n, 3))
    witness = np.zeros(n, dtype=np.int8)
    for k, row in enumerate(r):
        out = pauli_frame_decision(p, BlochState(row), tol)
        if isinstance(out, NoInverse):  # on the boundary, always "not-unscathed"
            slack[k] = -1.0
            witness[k] = WITNESSES.index(out.reason)
        else:
            feasible[k] = True
            slack[k] = out[2].slack
    return feasible, slack, witness


def _interior_verdicts(lam: np.ndarray, r: np.ndarray, tol: float):
    """Slacks of the closed-form candidates for priors given as columns r (3, N)."""
    l2 = lam * lam
    s_scalar = l2[0] * r[0] * r[0] + l2[1] * r[1] * r[1] + l2[2] * r[2] * r[2]
    if r.shape[1] and s_scalar.max() >= 1.0 - _BOUNDARY_EPS:
        raise SingularSError(f"S = {s_scalar.max()} is too close to 1")
    v = r * (1.0 - l2)[:, None] / (1.0 - s_scalar)
    lam_choi = lam * _CHOI_ROW_SIGNS
    r_choi = (-lam_choi[:, None] * r)[:, None, :] * v  # (3, 3, N): -lam_i r_i v_j
    r_choi[range(3), range(3)] += lam_choi[:, None]
    eta = _sum_of_squares(v) + _sum_of_squares(r_choi)
    det_r = _det3(r_choi)
    rv = r_choi[:, 0] * v[0] + r_choi[:, 1] * v[1] + r_choi[:, 2] * v[2]
    norm_rv2 = _sum_of_squares(rv)
    norm_adj2 = _sum_of_squares(_adj3(r_choi))
    slack = np.stack(
        [
            3.0 - eta,
            1.0 - 2.0 * det_r - eta,
            (eta - 1.0) ** 2 - 8.0 * det_r - 4.0 * (norm_rv2 + norm_adj2),
        ],
        axis=1,
    )
    bad = slack < -tol
    feasible = ~bad.any(axis=1)
    witness = np.where(feasible, 0, 1 + np.argmax(bad, axis=1)).astype(np.int8)
    return feasible, slack, witness


def bayesian_inverse(e, s: BlochState, tol: float = 1e-9):
    """Decide and construct the Bayesian inverse of a unital channel.

    Pipeline: factor the channel through a Pauli channel between two
    unitaries, move the state into the Pauli frame, decide there with
    :func:`pauli_frame_decision`, then rotate the result back to the
    original frame and certify it.

    :return: an InverseRecord, or a NoInverse explaining the obstruction.
    :raises NotUnitalError / NotCPTPError: if e is out of contract.
    """
    if isinstance(e, PauliChannel):
        u = v = None
        pch, s_frame = e, s
    else:
        u, pch, v = unital_to_pauli(e, tol)
        s_frame = apply(ChannelRep.from_unitary(v), s)

    decision = pauli_frame_decision(pch, s_frame, tol)
    if isinstance(decision, NoInverse):
        return decision
    a, s_scalar, report, unique = decision
    f_frame = ChannelRep.from_jam(pauli_reconstruct(a / 2.0))
    final = f_frame if u is None else transport_inverse(u, v, f_frame)
    if not is_cptp(final, max(tol, 1e-9)):
        raise InternalCPViolationError("constructed inverse failed the CPTP check")
    residual = bayes_residual(e, s, final)
    if residual > max(tol, 1e-9):
        raise InternalCPViolationError(f"constructed inverse has residual {residual:.3e}")
    return InverseRecord(
        a=a,
        S=s_scalar,
        choi=final.choi,
        kraus=tuple(kraus_from_choi(final.choi, tol)),
        report=report,
        unique=unique,
        residual=residual,
    )
