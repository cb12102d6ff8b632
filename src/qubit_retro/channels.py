"""Single-qubit channel representations and structure maps.

Every channel is held as its Pauli transfer matrix and reads the other
forms back from it. A ChannelRep has one constructor per form:
ChannelRep(ptm), ChannelRep.from_kraus, which keeps the Choi matrix the
operators are converted through, and ChannelRep.from_choi; jam is only read:

    ptm     T[i, j] = Tr[sigma_i N(sigma_j)] / 2
    jam     (id (x) N)(SWAP) = (1/2) sum_ij T[j, i] sigma_i (x) sigma_j
    choi    (id (x) N) acting on 2|Phi+><Phi+|, the partial transpose of jam
            on the first factor; trace 2 for trace-preserving N
    kraus   operators K_k of the action w -> sum_k K_k w K_k^dag

The Pauli channel sum_i p_i sigma_i w sigma_i gets its own value type since
most of the inversion machinery works directly with its probability vector
and signed eigenvalues lambda_i = p_0 + p_i - p_j - p_k; its ptm is
diag(1, lambda). Both types (and bayes.InverseRecord) read jam and choi
through one set of cached properties, so the maps below need no type dispatch.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    InternalCPViolationError,
    NotCPTPError,
    NotPSDError,
    NotUnitalError,
)
from .linalg import PAULIS, partial_transpose, pauli_expand, pauli_reconstruct
from .linalg import _check_hermitian, _pauli_matrix, _pauli_vector

__all__ = [
    "BlochState",
    "PauliChannel",
    "ChannelRep",
    "jamiolkowski",
    "kraus_from_choi",
    "apply",
    "apply_operator",
    "adjoint",
    "compose",
    "is_cptp",
    "unital_to_pauli",
    "transport_inverse",
]

# Maps lambda = L @ p and back; rows/columns follow the index convention
# lambda_i = p_0 + p_i - p_j - p_k with {j, k} = {1, 2, 3} \ {i}.
_LAMBDA_OF_P = np.array(
    [
        [1.0, 1.0, -1.0, -1.0],
        [1.0, -1.0, 1.0, -1.0],
        [1.0, -1.0, -1.0, 1.0],
    ]
)


def _lambda_rows(probs: np.ndarray) -> np.ndarray:
    """(n, 3) signed eigenvalues of n probability rows, each read as PauliChannel.lam reads it.

    One stacked matrix-vector product a row: an (n, 4) @ (4, 3) product rounds differently.
    """
    return np.matmul(_LAMBDA_OF_P, probs[:, :, None])[:, :, 0]


def _depolarizing_probs(strength):
    """Probabilities (1 - s, s/3, s/3, s/3) of the depolarizing channel, a row per strength s."""
    q = strength / 3.0
    return np.stack([1.0 - strength, q, q, q], axis=-1)


def _check_tol(tol: float) -> None:
    """Reject a verdict, CP or Kraus tolerance unless 0 < tol < inf (NaN included)."""
    if not 0.0 < tol < np.inf:
        raise ValueError(f"verdict tolerance must be positive and finite, got {tol}")


def _readonly(a: np.ndarray) -> np.ndarray:
    out = np.array(a)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class BlochState:
    """Qubit state (1/2)(I + r . sigma) held by its Bloch vector."""

    r: np.ndarray

    def __post_init__(self) -> None:
        r = np.asarray(self.r, dtype=np.float64).reshape(-1)
        if r.shape != (3,):
            raise ValueError(f"Bloch vector must have 3 components, got {r.shape}")
        norm = np.sqrt(r.dot(r))  # np.linalg.norm's own formula for a float vector
        if not norm <= 1.0 + 1e-12:
            raise ValueError(f"Bloch vector must be finite with length <= 1, got length {norm}")
        if norm > 1.0:  # a length the roundoff allowance admits is clamped to 1
            r = r / norm
        object.__setattr__(self, "r", _readonly(r))

    @property
    def matrix(self) -> np.ndarray:
        """Density matrix of the state."""
        return _pauli_matrix(np.concatenate(([1.0], self.r)) / 2.0)

    @classmethod
    def maximally_mixed(cls) -> "BlochState":
        return cls(np.zeros(3))


class _TransferReadings:
    """jam and choi of every channel type, read from its read-only transfer matrix ``ptm``."""

    @cached_property
    def jam(self) -> np.ndarray:
        """(id (x) N)(SWAP), rebuilt from the transfer matrix."""
        return _readonly(pauli_reconstruct(self.ptm.T / 2.0))

    @cached_property
    def choi(self) -> np.ndarray:
        """Choi matrix, the partial transpose of jam on the first factor."""
        return _readonly(partial_transpose(self.jam))


@dataclass(frozen=True)
class PauliChannel(_TransferReadings):
    """Random-Pauli channel w -> sum_i p_i sigma_i w sigma_i."""

    p: np.ndarray

    def __post_init__(self) -> None:
        p = np.asarray(self.p, dtype=np.float64).reshape(-1)
        if p.shape != (4,):
            raise ValueError(f"probability vector must have 4 entries, got {p.shape}")
        if not p.min() >= -1e-12:
            raise ValueError(f"Pauli probabilities must be finite and non-negative, got {p}")
        if not abs(p.sum() - 1.0) <= 1e-12:
            raise ValueError(f"Pauli probabilities sum to {p.sum()}, not 1")
        object.__setattr__(self, "p", _readonly(np.clip(p, 0.0, None)))

    @property
    def lam(self) -> np.ndarray:
        """Signed map eigenvalues: sigma_i is sent to lam[i-1] sigma_i."""
        return _LAMBDA_OF_P @ self.p

    @classmethod
    def from_lambdas(cls, lam: np.ndarray, *, tol: float = 1e-9) -> "PauliChannel":
        """Build the channel with given signed eigenvalues.

        :raises NotCPTPError: when the eigenvalues lie outside the
            completely positive region by more than tol.
        :raises ValueError: unless 0 < tol < inf.
        """
        _check_tol(tol)
        l1, l2, l3 = (float(x) for x in np.asarray(lam).reshape(3))
        p = 0.25 * np.array(
            [1 + l1 + l2 + l3, 1 + l1 - l2 - l3, 1 - l1 + l2 - l3, 1 - l1 - l2 + l3]
        )
        if p.min() < -tol:
            raise NotCPTPError(f"eigenvalues {lam} violate complete positivity by {-p.min():.3e}")
        p = np.clip(p, 0.0, None)
        return cls(p / p.sum())

    @classmethod
    def depolarizing(cls, strength: float) -> "PauliChannel":
        """Depolarizing channel with error weight spread evenly over X, Y, Z."""
        if not 0.0 <= strength <= 1.0:
            raise ValueError(f"depolarizing strength must lie in [0, 1], got {strength}")
        return cls(_depolarizing_probs(strength))

    @cached_property
    def ptm(self) -> np.ndarray:
        """Pauli transfer matrix diag(1, lambda)."""
        return _readonly(np.diag(np.concatenate(([1.0], self.lam))))


def _finite_4x4(m: np.ndarray, name: str) -> np.ndarray:
    """m, unless it is not a finite 4x4 matrix; the ValueError names the form."""
    if m.shape != (4, 4):
        raise ValueError(f"{name} must be a 4x4 matrix, got {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError(f"{name} must have finite entries")
    return m


def _ptm_of_choi(choi: np.ndarray, what: str) -> np.ndarray:
    """Transfer matrix of a finite Choi matrix; what ("... is"/"... are") names the form."""
    t = 2.0 * pauli_expand(partial_transpose(choi)).T  # under the caller's np.errstate
    if not np.isfinite(t).all():  # a finite Choi matrix whose Pauli sums overflow
        raise ValueError(f"{what} too large: the transfer matrix overflows")
    return t


class ChannelRep(_TransferReadings):
    """A qubit channel held as its Pauli transfer matrix.

    ``ChannelRep(ptm)`` takes the real 4x4 transfer matrix; :meth:`from_kraus`
    and :meth:`from_choi` convert the other two forms to it, and ``jam`` is
    read back from it. Kraus operators given to :meth:`from_kraus` are kept
    as given, with the Choi matrix they are converted through; a channel
    built another way reads ``choi`` back from ``ptm`` and extracts its
    Kraus operators on first use.
    """

    def __init__(self, ptm):
        m = np.asarray(ptm)
        if np.iscomplexobj(m):
            if (m.imag != 0.0).any():
                raise ValueError("ptm must be a real matrix")
            m = m.real
        self.ptm = _readonly(_finite_4x4(m.astype(np.float64), "ptm"))

    # --- constructors ---

    @classmethod
    def from_kraus(cls, ops) -> "ChannelRep":
        ops = [np.asarray(k, dtype=np.complex128) for k in ops]
        if not ops or any(k.shape != (2, 2) for k in ops):
            raise ValueError("kraus must be a non-empty list of 2x2 operators")
        # Row k is K_k's column-major vec. The Choi matrix sums their outer
        # products in operator order starting from 0, as a sequential sum
        # does, so signed zeros and rounding match it bit for bit; the sum is
        # Hermitian by construction.
        vecs = np.array(ops).transpose(0, 2, 1).reshape(-1, 4)
        with np.errstate(over="ignore", invalid="ignore"):
            choi = (vecs[:, :, None] * vecs[:, None, :].conj()).sum(axis=0, initial=0.0)
            if not np.isfinite(choi).all():
                if not np.isfinite(vecs).all():
                    raise ValueError("kraus operators must have finite entries")
                raise ValueError("kraus operators are too large: their Choi matrix overflows")
            rep = cls(_ptm_of_choi(choi, "kraus operators are"))
        rep.kraus = tuple(_readonly(k) for k in ops)
        rep.choi = _readonly(choi)
        return rep

    @classmethod
    def from_choi(cls, m) -> "ChannelRep":
        m = _finite_4x4(np.asarray(m).astype(np.complex128), "choi")
        _check_hermitian(m, "choi matrix")
        with np.errstate(over="ignore", invalid="ignore"):
            return cls(_ptm_of_choi(m, "choi matrix is"))

    @classmethod
    def from_pauli(cls, pc: PauliChannel) -> "ChannelRep":
        return cls.from_kraus([np.sqrt(w) * s for w, s in zip(pc.p, PAULIS) if w > 0.0])

    @classmethod
    def from_unitary(cls, u) -> "ChannelRep":
        u = np.asarray(u, dtype=np.complex128)
        if np.abs(u @ u.conj().T - np.eye(2)).max() > 1e-10:
            raise ValueError("matrix is not unitary to 1e-10")
        return cls.from_kraus([u])

    @cached_property
    def kraus(self) -> tuple:
        return tuple(_readonly(k) for k in kraus_from_choi(self.choi))

    def __repr__(self) -> str:
        return f"ChannelRep(ptm={self.ptm.tolist()})"


def jamiolkowski(e) -> np.ndarray:
    """(id (x) N)(SWAP) for the channel N.

    For a Pauli channel this equals
    (1/2)(I (x) I + sum_i lambda_i sigma_i (x) sigma_i).
    """
    return e.jam


def kraus_from_choi(choi: np.ndarray, tol: float = 1e-9) -> list[np.ndarray]:
    """Extract Kraus operators from a Choi matrix.

    The Choi matrix is rescaled to trace 2 (the trace-preserving value)
    before decomposition; eigenvalues below 1e-12 are truncated and the
    operators come back ordered by descending eigenvalue.

    :raises NotHermitianError: on a non-finite or non-Hermitian input.
    :raises NotPSDError: if an eigenvalue is below -tol after rescaling.
    :raises ValueError: unless 0 < tol < inf.
    """
    _check_tol(tol)
    c = np.asarray(choi, dtype=np.complex128)
    _check_hermitian(c, "Choi matrix")  # before the rescale, which an inf makes NaN
    tr = c.trace().real
    if tr <= 0.0:
        raise NotPSDError(f"Choi trace {tr} is not positive")
    c = c * (2.0 / tr)
    w, v = np.linalg.eigh(c)  # checked above: the rescale keeps c Hermitian
    if w[0] < -tol:
        raise NotPSDError(f"Choi matrix has eigenvalue {w[0]:.3e} < -{tol}")
    ops = []
    for k in range(len(w) - 1, -1, -1):
        if w[k] <= 1e-12:
            continue
        ops.append(np.sqrt(w[k]) * v[:, k].reshape(2, 2).T)
    return ops


def apply(e, s: BlochState) -> BlochState:
    """Send a state through a channel.

    For a PauliChannel the Bloch vector maps componentwise, r_i -> lambda_i r_i.

    :raises InternalCPViolationError: if the output leaves the Bloch ball by
        more than 1e-10 (the channel object is broken, not the caller).
    """
    out = e.ptm @ np.concatenate(([1.0], s.r))
    if abs(out[0] - 1.0) > 1e-10:
        raise InternalCPViolationError(f"channel scaled the trace to {out[0]}")
    r = out[1:]
    norm = np.sqrt(r.dot(r))
    if norm > 1.0 + 1e-10:
        raise InternalCPViolationError(f"output Bloch vector has length {norm}")
    if norm > 1.0 + 1e-12:  # BlochState clamps a smaller excess by the same norm
        r = r / norm
    return BlochState(r)


def apply_operator(e, m: np.ndarray) -> np.ndarray:
    """Channel action on an arbitrary 2x2 operator, through the transfer matrix."""
    return _pauli_matrix(e.ptm @ _pauli_vector(m))


def adjoint(e):
    """Adjoint map N^dag with respect to the Hilbert-Schmidt inner product.

    Transposes the transfer matrix; a Pauli channel's is diagonal, so its
    adjoint has the same transfer matrix.
    """
    return ChannelRep(e.ptm.T)


def compose(f, g) -> ChannelRep:
    """The channel "f after g"; transfer matrices multiply in the same order."""
    return ChannelRep(f.ptm @ g.ptm)


def is_cptp(e, tol: float = 1e-9) -> bool:
    """Completely positive and trace preserving, via the Choi spectrum.

    :raises ValueError: unless 0 < tol < inf.
    """
    _check_tol(tol)
    if not np.abs(e.ptm[0] - np.array([1.0, 0.0, 0.0, 0.0])).max() <= tol:
        return False
    _check_hermitian(e.choi)
    return bool(np.linalg.eigvalsh(e.choi)[0] >= -tol)


# === Rotation factor extraction ===

def _su2_from_rotation(r: np.ndarray) -> np.ndarray:
    """Lift a proper rotation to SU(2) with non-negative trace.

    For the rotation of the unit quaternion q = (w, x, y, z), the symmetric
    matrix k below equals 4 q q^T - 1, so q is its eigenvector for the
    largest eigenvalue (Bar-Itzhack, J. Guid. Control Dyn. 23, 1085 (2000)).
    Nothing is divided by an entry of q, so angle-pi rotations (w = 0) stay
    well conditioned.
    """
    (a, b, c), (d, e, f), (g, h, i) = np.asarray(r, dtype=np.float64)
    k = np.array(
        [
            [a + e + i, h - f, c - g, d - b],
            [h - f, a - e - i, b + d, c + g],
            [c - g, b + d, e - a - i, f + h],
            [d - b, c + g, f + h, i - a - e],
        ]
    )
    q = np.linalg.eigh(k)[1][:, -1]
    w, x, y, z = q if q[0] >= 0.0 else -q
    return np.array(
        [[w - 1.0j * z, -1.0j * x - y], [-1.0j * x + y, w + 1.0j * z]], dtype=np.complex128
    )


def _rotation_frame(e, tol: float = 1e-9):
    """Factor a unital channel's transfer matrix as B1 . diag(1, lambda) . B2.

    The 3x3 Bloch block is split by SVD; reflection signs are folded into
    the diagonal so both orthogonal factors are proper rotations, and
    B = diag(1, O) for each.

    :return: (o1, p, o2t) with o1, o2t 3x3 rotations and p a PauliChannel,
        such that the Bloch block equals o1 . diag(p.lam) . o2t.
    :raises NotUnitalError: if the transfer matrix's first column is not (1,0,0,0).
    :raises NotCPTPError: if the channel fails the Choi positivity check.
    """
    t = e.ptm
    if np.abs(t[1:, 0]).max() > 1e-10 or abs(t[0, 0] - 1.0) > 1e-10:
        col = ", ".join(format(x, ".6g") for x in t[:, 0])
        raise NotUnitalError(
            f"transfer matrix first column is ({col}), expected (1, 0, 0, 0)"
        )
    if not is_cptp(e, tol):
        raise NotCPTPError("channel fails the Choi positivity test")
    o1, sv, o2t = np.linalg.svd(t[1:, 1:])
    lam = sv.copy()
    if np.linalg.det(o1) < 0.0:
        o1 = o1.copy()
        o1[:, 2] *= -1.0
        lam[2] *= -1.0
    if np.linalg.det(o2t) < 0.0:
        o2t = o2t.copy()
        o2t[2, :] *= -1.0
        lam[2] *= -1.0
    return o1, PauliChannel.from_lambdas(lam, tol=tol), o2t


def unital_to_pauli(e, tol: float = 1e-9):
    """Factor a unital channel as U . P . V with P a Pauli channel.

    The rotations of :func:`_rotation_frame` lifted to SU(2). Queries use the
    rotations; this unitary form is the reference they are tested against.

    :return: (u, p, v) with u, v 2x2 unitaries and p a PauliChannel, such
        that the input equals conj-by-u . p . conj-by-v.
    """
    o1, pc, o2t = _rotation_frame(e, tol)
    return _su2_from_rotation(o1), pc, _su2_from_rotation(o2t)


def transport_inverse(u: np.ndarray, v: np.ndarray, f) -> ChannelRep:
    """Undo the rotation factors around an inverse found in the Pauli frame.

    If the original channel is U . E . V and f inverts E with respect to
    V(state), then the returned channel V^dag . f . U^dag inverts the
    original with respect to the original state.
    """
    u = np.asarray(u, dtype=np.complex128)
    v = np.asarray(v, dtype=np.complex128)
    left = ChannelRep.from_unitary(v.conj().T)
    right = ChannelRep.from_unitary(u.conj().T)
    return compose(left, compose(f, right))
