"""Independent reference routes that only the tests use.

Each function here computes something the package also computes, by a
different route (a pseudo-density matrix instead of the projector formula,
an eigenbasis solve instead of the closed form, a per-Pauli Kraus sum
instead of the Choi route, matrix conjugations instead of the closed-form
unscathed residuals), so the tests can cross-check the two.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from qubit_retro import (
    PAULIS,
    BlochState,
    PauliChannel,
    anticommutator,
    apply_operator,
    herm_eig,
    is_unscathed,
    jamiolkowski,
    partial_transpose,
    tensor,
)
from qubit_retro.channels import _readonly
from qubit_retro.errors import NotHermitianError, NotPSDError, QubitRetroError

_ID2 = np.eye(2, dtype=np.complex128)


class RankDeficientError(QubitRetroError):
    """Anticommutator equation has no solution on a null eigenvalue pair."""


class NonUniqueSolutionWarning(UserWarning):
    """The linear system is solvable but not uniquely; a minimal-norm choice was made."""


# === Linear algebra ===

def swap_matrix() -> np.ndarray:
    """The two-qubit SWAP operator, equal to (1/2) sum_i sigma_i (x) sigma_i."""
    m = np.zeros((4, 4), dtype=np.complex128)
    for i in range(2):
        for j in range(2):
            m[2 * i + j, 2 * j + i] = 1.0
    return m


# === Channels ===

def jam_from_choi(c: np.ndarray) -> np.ndarray:
    """Inverse of ``choi_from_jam`` (the map is an involution)."""
    return partial_transpose(c, 0)


def ptm_from_kraus(ops) -> np.ndarray:
    """Transfer matrix T[i, j] = Tr[sigma_i N(sigma_j)] / 2, N(w) = sum_k K_k w K_k^dag."""
    t = np.empty((4, 4))
    for j in range(4):
        out = np.zeros((2, 2), dtype=np.complex128)
        for k in ops:
            out += k @ PAULIS[j] @ k.conj().T
        for i in range(4):
            t[i, j] = np.trace(PAULIS[i] @ out).real / 2.0
    return t


def fujiwara_algoet(lam) -> bool:
    """Complete-positivity test for the map sigma_i -> lambda_i sigma_i.

    Checks s1 l1 + s2 l2 <= 1 + s1 s2 l3 over all four sign combinations,
    which is the unfolding of |l1 +- l2| <= |1 +- l3| with matched signs.
    """
    l1, l2, l3 = (float(x) for x in np.asarray(lam).reshape(3))
    for s1 in (1.0, -1.0):
        for s2 in (1.0, -1.0):
            if s1 * l1 + s2 * l2 > 1.0 + s1 * s2 * l3:
                return False
    return True


def rotation_from_su2(u: np.ndarray) -> np.ndarray:
    """The SO(3) Bloch rotation R[i, j] = Tr[sigma_i u sigma_j u^dag] / 2."""
    u = np.asarray(u, dtype=np.complex128)
    r = np.empty((3, 3))
    for j in range(3):
        m = u @ PAULIS[j + 1] @ u.conj().T
        for i in range(3):
            r[i, j] = np.trace(PAULIS[i + 1] @ m).real / 2.0
    return r


# === Two-time objects ===

@dataclass(frozen=True)
class PseudoDensityMatrix:
    """Two-time correlation operator {omega (x) I, J[N]} / 2.

    Hermitian with unit trace, but not positive in general; a negative
    eigenvalue is the signature of temporal (rather than spatial)
    correlations.
    """

    m: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.m, dtype=np.complex128)
        if m.shape != (4, 4):
            raise ValueError(f"expected a 4x4 operator, got {m.shape}")
        if np.abs(m - m.conj().T).max() > 1e-10:
            raise NotHermitianError("pseudo-density matrix must be Hermitian")
        if abs(m.trace().real - 1.0) > 1e-10:
            raise ValueError(f"pseudo-density matrix trace is {m.trace().real}, not 1")
        object.__setattr__(self, "m", _readonly(m))

    def min_eigenvalue(self) -> float:
        w, _ = herm_eig(self.m)
        return float(w[0])


def star_product(e, s: BlochState) -> PseudoDensityMatrix:
    """{rho (x) I, J[E]} / 2 for the channel E and input state rho."""
    j = jamiolkowski(e)
    return PseudoDensityMatrix(anticommutator(tensor(s.matrix, _ID2), j) / 2.0)


def two_time_expectation(pdm: PseudoDensityMatrix, i: int, j: int) -> float:
    """<sigma_i, sigma_j> read from a pseudo-density matrix; i, j in {1, 2, 3}."""
    if i not in (1, 2, 3) or j not in (1, 2, 3):
        raise ValueError(f"observable indices must be in 1..3, got ({i}, {j})")
    return float(np.trace(pdm.m @ tensor(PAULIS[i], PAULIS[j])).real)


def unscathed_residuals_by_conjugation(p: PauliChannel, s: BlochState) -> np.ndarray:
    """Max-entry defect of P(rho) = sigma_k rho sigma_k for each k, by 2x2 matrices."""
    rho = s.matrix
    out = apply_operator(p, rho)
    return np.array([np.abs(out - sigma @ rho @ sigma).max() for sigma in PAULIS])


def adjoint_is_inverse(p: PauliChannel, s: BlochState, tol: float = 1e-10) -> bool:
    """Whether the adjoint map is itself a Bayesian inverse for (p, s)."""
    return is_unscathed(p, s, tol) is not None


# === Linear-algebra route to the interior inverse ===

def solve_anticommutator(m: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve {m (x) I, x} = b for x, with m a 2x2 Hermitian PSD matrix.

    Works in m's eigenbasis, where each 2x2 block of x is the matching block
    of b divided by an eigenvalue-pair sum. A vanishing pair sum makes the
    equation rank deficient: if the corresponding b block is nonzero there
    is no solution; if it is zero, the minimal-norm (zero) block is chosen
    and a NonUniqueSolutionWarning is emitted.
    """
    m = np.asarray(m, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    if m.shape != (2, 2) or b.shape != (4, 4):
        raise ValueError("expected m of shape (2, 2) and b of shape (4, 4)")
    w, vec = herm_eig(m)
    if w[0] < -1e-10:
        raise NotPSDError(f"m has eigenvalue {w[0]:.3e} < 0")
    basis = tensor(vec, _ID2)
    bt = basis.conj().T @ b @ basis
    xt = np.zeros((4, 4), dtype=np.complex128)
    zero_tol = 1e-10 * max(1.0, np.abs(b).max())
    for k in range(2):
        for l in range(2):
            denom = w[k] + w[l]
            block = bt[2 * k : 2 * k + 2, 2 * l : 2 * l + 2]
            if denom <= 1e-12:
                if np.abs(block).max() > zero_tol:
                    raise RankDeficientError(
                        f"eigenvalue pair ({k}, {l}) sums to {denom} against a nonzero block"
                    )
                warnings.warn(
                    "anticommutator equation is rank deficient; minimal-norm block chosen",
                    NonUniqueSolutionWarning,
                    stacklevel=2,
                )
                continue
            xt[2 * k : 2 * k + 2, 2 * l : 2 * l + 2] = block / denom
    return basis @ xt @ basis.conj().T
