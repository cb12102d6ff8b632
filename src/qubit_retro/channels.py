"""Single-qubit channel representations and structure maps.

Every channel is held as its Pauli transfer matrix and reads the other
forms back from it:

    ptm     T[i, j] = Tr[sigma_i N(sigma_j)] / 2
    jam     (id (x) N)(SWAP) = (1/2) sum_ij T[j, i] sigma_i (x) sigma_j
    choi    (id (x) N) acting on 2|Phi+><Phi+|, the partial transpose of jam
            on the first factor; trace 2 for trace-preserving N
    kraus   operators K_k of the action w -> sum_k K_k w K_k^dag

The Pauli channel sum_i p_i sigma_i w sigma_i gets its own value type since
most of the inversion machinery works directly with its probability vector
and signed eigenvalues lambda_i = p_0 + p_i - p_j - p_k; its ptm is
diag(1, lambda). Both types read jam and choi through the same cached
properties, so the structure maps below take either, with no type dispatch.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    InternalCPViolationError,
    NotCPTPError,
    NotHermitianError,
    NotPSDError,
    NotUnitalError,
)
from .linalg import PAULIS, herm_eig, partial_transpose, pauli_expand, pauli_reconstruct
from .linalg import _pauli_matrix, _pauli_vector

__all__ = [
    "BlochState",
    "PauliChannel",
    "ChannelRep",
    "jamiolkowski",
    "choi_from_jam",
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
        norm = np.linalg.norm(r)
        if not norm <= 1.0 + 1e-12:
            raise ValueError(f"Bloch vector must be finite with length <= 1, got length {norm}")
        object.__setattr__(self, "r", _readonly(r))

    @property
    def matrix(self) -> np.ndarray:
        """Density matrix of the state."""
        return _pauli_matrix(np.concatenate(([1.0], self.r)) / 2.0)

    @classmethod
    def from_matrix(cls, rho: np.ndarray) -> "BlochState":
        rho = np.asarray(rho, dtype=np.complex128)
        if np.abs(rho - rho.conj().T).max() > 1e-10:
            raise NotHermitianError("density matrix is not Hermitian to 1e-10")
        if abs(rho.trace().real - 1.0) > 1e-10:
            raise ValueError("density matrix trace differs from 1 beyond 1e-10")
        return cls(2.0 * _pauli_vector(rho)[1:].real)

    @classmethod
    def maximally_mixed(cls) -> "BlochState":
        return cls(np.zeros(3))


class _TransferReadings:
    """jam and choi, read from a read-only transfer matrix ``ptm``."""

    @cached_property
    def jam(self) -> np.ndarray:
        """(id (x) N)(SWAP), rebuilt from the transfer matrix."""
        return _readonly(pauli_reconstruct(self.ptm.T / 2.0))

    @cached_property
    def choi(self) -> np.ndarray:
        """Choi matrix, the partial transpose of jam on the first factor."""
        return _readonly(partial_transpose(self.jam, 0))


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
        """
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
        q = strength / 3.0
        return cls(np.array([1.0 - strength, q, q, q]))

    @cached_property
    def ptm(self) -> np.ndarray:
        """Pauli transfer matrix diag(1, lambda)."""
        return _readonly(np.diag(np.concatenate(([1.0], self.lam))))


class ChannelRep(_TransferReadings):
    """A qubit channel held as its Pauli transfer matrix.

    Exactly one of kraus/choi/jam/ptm is supplied and converted to ``ptm``
    at construction; ``jam`` and ``choi`` are read back from it. Supplied
    Kraus operators are kept as given, others are extracted on first use.
    """

    def __init__(self, *, kraus=None, choi=None, jam=None, ptm=None):
        forms = {"kraus": kraus, "choi": choi, "jam": jam, "ptm": ptm}
        given = [(name, value) for name, value in forms.items() if value is not None]
        if len(given) != 1:
            raise ValueError("supply exactly one of kraus/choi/jam/ptm")
        name, value = given[0]
        if name == "kraus":
            ops = [np.asarray(k, dtype=np.complex128) for k in value]
            if not ops or any(k.shape != (2, 2) for k in ops):
                raise ValueError("kraus must be a non-empty list of 2x2 operators")
            if not all(np.isfinite(k).all() for k in ops):
                raise ValueError("kraus operators must have finite entries")
            self.kraus = tuple(_readonly(k) for k in ops)
            name, value = "choi", sum(np.outer(k.T.ravel(), k.T.ravel().conj()) for k in ops)
        m = np.asarray(value)
        if name == "ptm" and np.iscomplexobj(m):
            if (m.imag != 0.0).any():
                raise ValueError("ptm must be a real matrix")
            m = m.real
        m = m.astype(np.float64 if name == "ptm" else np.complex128)
        if m.shape != (4, 4):
            raise ValueError(f"{name} must be a 4x4 matrix, got {m.shape}")
        if not np.isfinite(m).all():
            raise ValueError(f"{name} must have finite entries")
        if name != "ptm":
            if np.abs(m - m.conj().T).max() > 1e-10:
                raise NotHermitianError(f"{name} matrix is not Hermitian to 1e-10")
            m = 2.0 * pauli_expand(partial_transpose(m, 0) if name == "choi" else m).T
        self.ptm = _readonly(m)

    # --- constructors ---

    @classmethod
    def from_kraus(cls, ops) -> "ChannelRep":
        return cls(kraus=ops)

    @classmethod
    def from_choi(cls, m) -> "ChannelRep":
        return cls(choi=m)

    @classmethod
    def from_jam(cls, m) -> "ChannelRep":
        return cls(jam=m)

    @classmethod
    def from_ptm(cls, t) -> "ChannelRep":
        return cls(ptm=t)

    @classmethod
    def from_pauli(cls, pc: PauliChannel) -> "ChannelRep":
        return cls(kraus=[np.sqrt(w) * s for w, s in zip(pc.p, PAULIS) if w > 0.0])

    @classmethod
    def from_unitary(cls, u) -> "ChannelRep":
        u = np.asarray(u, dtype=np.complex128)
        if np.abs(u @ u.conj().T - np.eye(2)).max() > 1e-10:
            raise ValueError("matrix is not unitary to 1e-10")
        return cls(kraus=[u])

    @cached_property
    def kraus(self) -> tuple:
        return tuple(_readonly(k) for k in kraus_from_choi(self.choi))

    # --- predicates ---

    def is_trace_preserving(self, tol: float = 1e-10) -> bool:
        return bool(np.abs(self.ptm[0] - np.array([1.0, 0.0, 0.0, 0.0])).max() <= tol)

    def is_unital(self, tol: float = 1e-10) -> bool:
        return bool(np.abs(self.ptm[:, 0] - np.array([1.0, 0.0, 0.0, 0.0])).max() <= tol)

    def __repr__(self) -> str:
        return f"ChannelRep(ptm={self.ptm.tolist()})"


def jamiolkowski(e) -> np.ndarray:
    """(id (x) N)(SWAP) for the channel N.

    For a Pauli channel this equals
    (1/2)(I (x) I + sum_i lambda_i sigma_i (x) sigma_i).
    """
    return e.jam


def choi_from_jam(j: np.ndarray) -> np.ndarray:
    """Partial transpose on the first factor, mapping (id (x) N)(SWAP) to the Choi matrix."""
    return partial_transpose(j, 0)


def kraus_from_choi(choi: np.ndarray, tol: float = 1e-9) -> list[np.ndarray]:
    """Extract Kraus operators from a Choi matrix.

    The Choi matrix is rescaled to trace 2 (the trace-preserving value)
    before decomposition; eigenvalues below 1e-12 are truncated and the
    operators come back ordered by descending eigenvalue.

    :raises NotPSDError: if an eigenvalue is below -tol after rescaling.
    """
    c = np.asarray(choi, dtype=np.complex128)
    tr = c.trace().real
    if tr <= 0.0:
        raise NotPSDError(f"Choi trace {tr} is not positive")
    c = c * (2.0 / tr)
    w, v = herm_eig(c)
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
    norm = np.linalg.norm(r)
    if norm > 1.0 + 1e-10:
        raise InternalCPViolationError(f"output Bloch vector has length {norm}")
    if norm > 1.0:
        r = r / norm
    return BlochState(r)


def apply_operator(e, m: np.ndarray) -> np.ndarray:
    """Channel action on an arbitrary 2x2 operator, through the transfer matrix."""
    return _pauli_matrix(e.ptm @ _pauli_vector(m))


def adjoint(e):
    """Adjoint map N^dag with respect to the Hilbert-Schmidt inner product.

    Transposes the transfer matrix; a Pauli channel is self-adjoint and is
    returned unchanged.
    """
    if isinstance(e, PauliChannel):
        return e
    return ChannelRep.from_ptm(e.ptm.T)


def compose(f, g) -> ChannelRep:
    """The channel "f after g"; transfer matrices multiply in the same order."""
    return ChannelRep.from_ptm(f.ptm @ g.ptm)


def is_cptp(e, tol: float = 1e-9) -> bool:
    """Completely positive and trace preserving, via the Choi spectrum."""
    if not np.abs(e.ptm[0] - np.array([1.0, 0.0, 0.0, 0.0])).max() <= tol:
        return False
    w, _ = herm_eig(e.choi)
    return bool(w[0] >= -tol)


# === Rotation factor extraction ===

def _su2_from_rotation(r: np.ndarray) -> np.ndarray:
    """Lift a proper rotation to SU(2) with non-negative trace.

    Uses the standard branch-on-largest-diagonal quaternion extraction, so
    angle-pi rotations (trace -1) stay well conditioned.
    """
    r = np.asarray(r, dtype=np.float64)
    tr = r[0, 0] + r[1, 1] + r[2, 2]
    if tr > 0.0:
        s = 2.0 * np.sqrt(1.0 + tr)
        q = np.array(
            [0.25 * s, (r[2, 1] - r[1, 2]) / s, (r[0, 2] - r[2, 0]) / s, (r[1, 0] - r[0, 1]) / s]
        )
    elif r[0, 0] >= r[1, 1] and r[0, 0] >= r[2, 2]:
        s = 2.0 * np.sqrt(1.0 + r[0, 0] - r[1, 1] - r[2, 2])
        q = np.array(
            [(r[2, 1] - r[1, 2]) / s, 0.25 * s, (r[0, 1] + r[1, 0]) / s, (r[0, 2] + r[2, 0]) / s]
        )
    elif r[1, 1] >= r[2, 2]:
        s = 2.0 * np.sqrt(1.0 + r[1, 1] - r[0, 0] - r[2, 2])
        q = np.array(
            [(r[0, 2] - r[2, 0]) / s, (r[0, 1] + r[1, 0]) / s, 0.25 * s, (r[1, 2] + r[2, 1]) / s]
        )
    else:
        s = 2.0 * np.sqrt(1.0 + r[2, 2] - r[0, 0] - r[1, 1])
        q = np.array(
            [(r[1, 0] - r[0, 1]) / s, (r[0, 2] + r[2, 0]) / s, (r[1, 2] + r[2, 1]) / s, 0.25 * s]
        )
    q = q / np.linalg.norm(q)
    if q[0] < 0.0:
        q = -q
    w, x, y, z = q
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
