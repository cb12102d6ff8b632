"""Pauli/tensor helpers and the Hermitian eigensolver."""

import warnings

import numpy as np
import pytest
from conftest import random_hermitian
from oracles import swap_matrix

from qubit_retro import (
    PAULIS,
    anticommutator,
    herm_eig,
    partial_transpose,
    pauli_expand,
    pauli_reconstruct,
    tensor,
)
from qubit_retro.errors import NotHermitianError
from qubit_retro.linalg import _PAULI_PAIRS


@pytest.mark.parametrize("n", [2, 3, 4, 6])
def test_eigenvalues_match_reference(n):
    rng = np.random.default_rng(100 + n)
    for _ in range(60):
        h = random_hermitian(rng, n)
        w, v = herm_eig(h)
        assert np.abs(w - np.linalg.eigvalsh(h)).max() < 1e-11
        assert np.abs(h @ v - v * w).max() < 1e-10
        assert np.abs(v.conj().T @ v - np.eye(n)).max() < 1e-12


def test_eigenvalues_ascending():
    rng = np.random.default_rng(5)
    for _ in range(50):
        w, _ = herm_eig(random_hermitian(rng, 4))
        assert (np.diff(w) >= 0).all()


def test_degenerate_spectrum():
    rng = np.random.default_rng(7)
    target = np.array([1.0, 1.0, 2.0, 2.0])
    for _ in range(40):
        z = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        q, _ = np.linalg.qr(z)
        h = q @ np.diag(target) @ q.conj().T
        h = (h + h.conj().T) / 2.0
        w, v = herm_eig(h)
        assert np.abs(w - target).max() < 1e-11
        assert np.abs(h @ v - v * w).max() < 1e-10


def test_diagonal_input_short_circuits():
    w, v = herm_eig(np.diag([3.0, -1.0, 2.0]))
    assert np.abs(w - np.array([-1.0, 2.0, 3.0])).max() == 0.0
    assert np.abs(np.abs(v) - np.eye(3)[:, [1, 2, 0]]).max() == 0.0


def test_not_hermitian_raises():
    with pytest.raises(NotHermitianError):
        herm_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_nan_entry_raises():
    # eigh reads one triangle, and a NaN defect compares False against 1e-10,
    # so a NaN above the diagonal once gave back the identity's eigenpairs.
    for i, j in ((1, 2), (2, 1), (0, 0)):
        m = np.eye(4)
        m[i, j] = np.nan
        with pytest.raises(NotHermitianError):
            herm_eig(m)


def test_infinite_entry_raises_without_a_warning():
    # inf - inf in the Hermiticity defect is NaN, so a finiteness test goes first.
    for value in (np.inf, -np.inf):
        for entries in (((0, 0),), ((1, 2),), ((1, 2), (2, 1))):
            m = np.eye(4)
            for i, j in entries:
                m[i, j] = value
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(NotHermitianError):
                    herm_eig(m)


def test_tensor_is_kronecker():
    # tensor makes np.kron's products, so the two agree to the last bit, on
    # real, complex and mixed inputs with signed zeros.
    rng = np.random.default_rng(11)
    for k in range(2000):
        a, b = rng.normal(size=(2, 2, 2)) + 1j * rng.normal(size=(2, 2, 2))
        a = a.real if k % 3 == 0 else a
        b = b.real if k % 2 == 0 else b
        a[rng.random((2, 2)) < 0.1] = -0.0
        assert tensor(a, b).tobytes() == np.kron(a, b).tobytes(), k


def test_pauli_reconstruct_is_tensordot():
    # pauli_reconstruct makes the one dot call of np.tensordot, bit for bit.
    rng = np.random.default_rng(13)
    for k in range(2000):
        c = rng.normal(size=(4, 4)) * 10.0 ** rng.integers(-3, 4)
        c[rng.random((4, 4)) < 0.1] = -0.0
        want = np.tensordot(c.ravel(), _PAULI_PAIRS, axes=1)
        assert pauli_reconstruct(c).tobytes() == want.tobytes(), k


def test_anticommutator_definition():
    rng = np.random.default_rng(12)
    a = rng.normal(size=(4, 4))
    b = rng.normal(size=(4, 4))
    assert np.abs(anticommutator(a, b) - (a @ b + b @ a)).max() == 0.0


def test_partial_transpose_on_product_operators():
    rng = np.random.default_rng(13)
    for _ in range(20):
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        m = np.kron(a, b)
        assert np.abs(partial_transpose(m) - np.kron(a.T, b)).max() < 1e-14
        assert np.abs(partial_transpose(partial_transpose(m)) - m).max() == 0.0


def test_partial_transpose_flips_second_pauli_row_sign():
    # sigma_2 is the only antisymmetric Pauli, so transposing the first
    # factor negates exactly the i = 2 coefficient row.
    rng = np.random.default_rng(14)
    coeff = rng.normal(size=(4, 4))
    m = pauli_reconstruct(coeff)
    flipped = coeff.copy()
    flipped[2, :] *= -1.0
    assert np.abs(partial_transpose(m) - pauli_reconstruct(flipped)).max() < 1e-13


def test_pauli_expand_reconstruct_roundtrip():
    rng = np.random.default_rng(15)
    for _ in range(20):
        h = random_hermitian(rng, 4)
        assert np.abs(pauli_reconstruct(pauli_expand(h)) - h).max() < 1e-13


def test_pauli_expand_orthonormality():
    for i in range(4):
        for j in range(4):
            coeff = pauli_expand(tensor(PAULIS[i], PAULIS[j]))
            expected = np.zeros((4, 4))
            expected[i, j] = 1.0
            assert np.abs(coeff - expected).max() < 1e-14


def test_swap_matrix():
    s = swap_matrix()
    eye = np.eye(2)
    for i in range(2):
        for j in range(2):
            vec = np.kron(eye[:, i], eye[:, j])
            assert np.abs(s @ vec - np.kron(eye[:, j], eye[:, i])).max() == 0.0
    half_sum = sum(np.kron(sig, sig) for sig in PAULIS) / 2.0
    assert np.abs(s - half_sum).max() < 1e-15
