"""Fixed-size complex matrix algebra for one- and two-qubit operators.

Everything in this package lives in dimension 2 or 4, so the Pauli
transforms work with plain (4, 4) real coefficient arrays, and the
eigensolver is LAPACK's Hermitian routine behind a Hermiticity check.

Conventions:
    - Single-qubit coefficients are c[k] = Tr[M sigma_k] / 2, so that
      M = sum_k c[k] sigma_k.
    - Pauli-pair coefficients are a[i, j] = Tr[M (sigma_i (x) sigma_j)] / 4,
      so that M = sum_ij a[i, j] sigma_i (x) sigma_j.
    - Tensor indices order the first factor as the slow index: entry
      M[2a + b, 2a' + b'] = <a b| M |a' b'>.
"""

from __future__ import annotations

import numpy as np

from .errors import NotHermitianError

__all__ = [
    "PAULIS",
    "tensor",
    "anticommutator",
    "partial_transpose",
    "pauli_expand",
    "pauli_reconstruct",
    "herm_eig",
]

_SIGMA_0 = np.eye(2, dtype=np.complex128)
_SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
_SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=np.complex128)
_SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=np.complex128)

#: The four Pauli matrices, indexed 0..3.
PAULIS = (_SIGMA_0, _SIGMA_X, _SIGMA_Y, _SIGMA_Z)

# Row k is sigma_k flattened, so a (4,) coefficient vector c rebuilds
# sum_k c[k] sigma_k as (c @ _PAULI_ROWS).reshape(2, 2).
_PAULI_ROWS = np.stack(PAULIS).reshape(4, 4)

# All sixteen sigma_i (x) sigma_j products, flat index k = 4*i + j.
_PAULI_PAIRS = np.stack([np.kron(a, b) for a in PAULIS for b in PAULIS])

_HERM_TOL = 1e-10


def tensor(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two 2x2 operators, the first factor on the slow index.

    The same products as np.kron, without its Python-level overhead.
    """
    a, b = np.asarray(a), np.asarray(b)
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(4, 4)


def anticommutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """{a, b} = a b + b a."""
    return a @ b + b @ a


def partial_transpose(m: np.ndarray) -> np.ndarray:
    """Transpose the first tensor factor of a (4, 4) operator on qubit_A (x) qubit_B."""
    t = np.asarray(m, dtype=np.complex128).reshape(2, 2, 2, 2)
    return t.transpose(2, 1, 0, 3).reshape(4, 4)


def _pauli_vector(m: np.ndarray) -> np.ndarray:
    """Coefficients c[k] = Tr[m sigma_k] / 2 of a 2x2 operator, so m = sum_k c[k] sigma_k.

    Complex for a non-Hermitian m; the inverse of :func:`_pauli_matrix`.
    """
    return _PAULI_ROWS @ np.asarray(m, dtype=np.complex128).T.ravel() / 2.0


def _pauli_matrix(c: np.ndarray) -> np.ndarray:
    """Rebuild the 2x2 operator sum_k c[k] sigma_k from four coefficients."""
    return (np.asarray(c) @ _PAULI_ROWS).reshape(2, 2)


def pauli_expand(m: np.ndarray) -> np.ndarray:
    """Coefficients a[i, j] = Tr[m (sigma_i (x) sigma_j)] / 4.

    The coefficients are real when m is Hermitian; the imaginary part is
    discarded, so feed Hermitian input.
    """
    coeffs = np.einsum("kij,ji->k", _PAULI_PAIRS, np.asarray(m, dtype=np.complex128))
    return coeffs.real.reshape(4, 4) / 4.0


def pauli_reconstruct(a: np.ndarray) -> np.ndarray:
    """Rebuild sum_ij a[i, j] sigma_i (x) sigma_j from a (4, 4) real array."""
    a = np.asarray(a, dtype=np.float64)
    if a.shape != (4, 4):
        raise ValueError(f"coefficient array must be (4, 4), got {a.shape}")
    # The one dot call that np.tensordot(a.ravel(), _PAULI_PAIRS, axes=1) makes.
    return np.dot(a.reshape(1, 16), _PAULI_PAIRS.reshape(16, 16)).reshape(4, 4)


def _check_hermitian(m: np.ndarray, name: str = "matrix") -> None:
    """Raise NotHermitianError unless m is finite and max |m - m^dag| <= 1e-10."""
    if not (np.isfinite(m).all() and np.abs(m - m.conj().T).max() <= _HERM_TOL):
        raise NotHermitianError(f"{name} is not Hermitian to 1e-10")


def herm_eig(m: np.ndarray):
    """Eigendecomposition of a small Hermitian matrix.

    :param m: Hermitian square matrix (2x2 or 4x4 in this package).
    :return: (w, v) with eigenvalues w ascending and orthonormal columns v,
        such that m v[:, k] = w[k] v[:, k].
    :raises NotHermitianError: unless m is finite and max |m - m^dag| <= 1e-10.
    """
    a = np.asarray(m, dtype=np.complex128)
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError(f"matrix must be square, got {a.shape}")
    _check_hermitian(a)
    w, v = np.linalg.eigh(a)
    return w, v
