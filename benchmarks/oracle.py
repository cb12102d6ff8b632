"""Independent verdicts for the benchmark, in plain numpy.

Nothing here imports qubit_retro or the test suite. A channel is given by
its Kraus operators; the oracle solves the defining identity of the
Bayesian inverse

    {E(rho) (x) I, X} = {I (x) rho, J[E^dag]}

as a 16x16 linear system for X = J[F], with J[N] = (id (x) N)(SWAP) and the
first tensor factor on the slow index. When E(rho) has full rank the
solution is unique, so an inverse exists exactly when X is trace preserving
and its Choi matrix is positive semidefinite.
"""

from __future__ import annotations

import numpy as np

I2 = np.eye(2, dtype=np.complex128)
PAULIS = (
    I2,
    np.array([[0, 1], [1, 0]], dtype=np.complex128),
    np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    np.array([[1, 0], [0, -1]], dtype=np.complex128),
)

#: |min Choi eigenvalue| at or below this leaves a verdict unchecked.
BAND = 1e-7
#: Smallest eigenvalue of E(rho) below this makes the solution non-unique.
PURE = 1e-6

FEASIBLE, INFEASIBLE, UNCHECKED_BAND, UNCHECKED_PURE = (
    "feasible", "infeasible", "unchecked-band", "unchecked-pure",
)


def pauli_kraus(p) -> list[np.ndarray]:
    """Kraus operators sqrt(p_k) sigma_k of a Pauli channel."""
    return [np.sqrt(w) * s for w, s in zip(p, PAULIS) if w > 0.0]


def density(r) -> np.ndarray:
    """(I + r . sigma) / 2."""
    return 0.5 * (I2 + r[0] * PAULIS[1] + r[1] * PAULIS[2] + r[2] * PAULIS[3])


def apply(kraus, rho: np.ndarray) -> np.ndarray:
    return sum(k @ rho @ k.conj().T for k in kraus)


def jam(kraus, *, adjoint: bool = False) -> np.ndarray:
    """(id (x) N)(SWAP) = sum_ab |a><b| (x) N(|b><a|); N^dag(X) = sum K^dag X K."""
    out = np.zeros((4, 4), dtype=np.complex128)
    for a in range(2):
        for b in range(2):
            unit = np.zeros((2, 2), dtype=np.complex128)
            unit[b, a] = 1.0
            if adjoint:
                image = sum(k.conj().T @ unit @ k for k in kraus)
            else:
                image = apply(kraus, unit)
            out[2 * a : 2 * a + 2, 2 * b : 2 * b + 2] = image
    return out


def choi_of_jam(x: np.ndarray) -> np.ndarray:
    """Partial transpose on the first factor."""
    return x.reshape(2, 2, 2, 2).transpose(2, 1, 0, 3).reshape(4, 4)


def solve_inverse(kraus, r):
    """J[F] solving the defining identity, or None when E(rho) is (near) pure."""
    rho = density(r)
    out = apply(kraus, rho)
    if np.linalg.eigvalsh(out)[0] < PURE:
        return None
    m = np.kron(out, I2)
    eye4 = np.eye(4)
    lhs = np.kron(m, eye4) + np.kron(eye4, m.T)
    rhs_op = np.kron(I2, rho)
    j_adj = jam(kraus, adjoint=True)
    rhs = rhs_op @ j_adj + j_adj @ rhs_op
    return np.linalg.solve(lhs, rhs.ravel()).reshape(4, 4)


def verdict(kraus, r) -> tuple[str, np.ndarray | None]:
    """(verdict, J[F]) for the pair (E, rho)."""
    x = solve_inverse(kraus, r)
    if x is None:
        return UNCHECKED_PURE, None
    partial_trace = np.einsum("ajbj->ab", x.reshape(2, 2, 2, 2))
    if np.abs(partial_trace - I2).max() > 1e-8:
        return INFEASIBLE, x
    choi = choi_of_jam(x)
    min_eig = float(np.linalg.eigvalsh(0.5 * (choi + choi.conj().T))[0])
    if abs(min_eig) <= BAND:
        return UNCHECKED_BAND, x
    return (FEASIBLE if min_eig > 0.0 else INFEASIBLE), x


def jam_of_kraus_doc(doc: dict) -> np.ndarray:
    """J[F] of a {"kind": "kraus", "ops": [...]} document."""
    ops = [
        np.array([[complex(re, im) for re, im in row] for row in op], dtype=np.complex128)
        for op in doc["ops"]
    ]
    return jam(ops)
