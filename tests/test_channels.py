"""Channel representations, conversions, and structure maps."""

import warnings

import numpy as np
import pytest
from conftest import random_bloch, random_pauli, random_unital, random_unitary
from oracles import (
    bloch_from_matrix,
    fujiwara_algoet,
    jam_from_choi,
    ptm_from_kraus,
    rotation_from_su2,
)

from qubit_retro import channels
from qubit_retro import (
    PAULIS,
    BlochState,
    ChannelRep,
    PauliChannel,
    adjoint,
    apply,
    apply_operator,
    compose,
    is_cptp,
    jamiolkowski,
    kraus_from_choi,
    partial_transpose,
    tensor,
    transport_inverse,
    unital_to_pauli,
)
from qubit_retro.errors import InternalCPViolationError, NotCPTPError, NotHermitianError
from qubit_retro.errors import NotPSDError, NotUnitalError

SEED = 20260825


# === BlochState ===

def test_bloch_state_matrix_roundtrip():
    rng = np.random.default_rng(SEED)
    for _ in range(50):
        s = random_bloch(rng)
        back = bloch_from_matrix(s.matrix)
        assert np.abs(back.r - s.r).max() < 1e-14
        assert abs(np.trace(s.matrix).real - 1.0) < 1e-14


def test_bloch_state_rejects_long_vectors():
    with pytest.raises(ValueError):
        BlochState(np.array([1.0, 0.1, 0.0]))


def test_maximally_mixed():
    mu = BlochState.maximally_mixed()
    assert np.abs(mu.matrix - np.eye(2) / 2.0).max() == 0.0


# === PauliChannel ===

def test_lambda_probability_roundtrip():
    rng = np.random.default_rng(SEED + 1)
    for _ in range(100):
        pc = random_pauli(rng)
        back = PauliChannel.from_lambdas(pc.lam)
        assert np.abs(back.p - pc.p).max() < 1e-12


def test_lambda_formula():
    pc = PauliChannel(np.array([0.4, 0.3, 0.2, 0.1]))
    expected = np.array([0.4 + 0.3 - 0.2 - 0.1, 0.4 - 0.3 + 0.2 - 0.1, 0.4 - 0.3 - 0.2 + 0.1])
    assert np.abs(pc.lam - expected).max() < 1e-15


def test_depolarizing_contraction():
    for p in np.linspace(0.0, 1.0, 7):
        pc = PauliChannel.depolarizing(p)
        assert np.abs(pc.lam - (1.0 - 4.0 * p / 3.0)).max() < 1e-14


def test_from_lambdas_rejects_noncp():
    with pytest.raises(NotCPTPError):
        PauliChannel.from_lambdas([0.9, 0.9, -0.9])


def test_probability_vector_validation():
    with pytest.raises(ValueError):
        PauliChannel(np.array([0.5, 0.5, 0.5, -0.5]))
    with pytest.raises(ValueError):
        PauliChannel(np.array([0.5, 0.5]))


def test_pauli_apply_matrix_is_conjugation_mixture():
    rng = np.random.default_rng(SEED + 2)
    pc = random_pauli(rng)
    rho = random_bloch(rng).matrix
    expected = sum(w * (sig @ rho @ sig) for w, sig in zip(pc.p, PAULIS))
    assert np.abs(apply_operator(pc, rho) - expected).max() < 1e-15


def test_pauli_readings_match_kraus_built_rep():
    rng = np.random.default_rng(SEED + 20)
    for _ in range(30):
        pc = random_pauli(rng)
        rep = ChannelRep.from_pauli(pc)
        for name in ("ptm", "jam", "choi"):
            reading = getattr(pc, name)
            assert not reading.flags.writeable
            assert np.abs(reading - getattr(rep, name)).max() < 1e-12, name
        assert np.abs(pc.ptm - np.diag(np.concatenate(([1.0], pc.lam)))).max() == 0.0


# === ChannelRep conversions ===

def test_rep_requires_exactly_one_form():
    with pytest.raises(ValueError):
        ChannelRep()
    with pytest.raises(ValueError):
        ChannelRep(choi=np.eye(4), ptm=np.eye(4))


def test_rep_rejects_non_hermitian_choi_and_jam():
    rng = np.random.default_rng(SEED + 23)
    rep = ChannelRep.from_pauli(random_pauli(rng))
    skew = np.zeros((4, 4), dtype=np.complex128)
    skew[0, 1] = 1e-6
    with pytest.raises(NotHermitianError):
        ChannelRep(choi=rep.choi + skew)
    # jam is a reading of the transfer matrix, not an input form.
    with pytest.raises(TypeError):
        ChannelRep(jam=rep.jam)
    assert not hasattr(ChannelRep, "from_jam")


def test_rep_rejects_a_choi_matrix_whose_transfer_matrix_overflows():
    # The Choi matrix is finite, but the Pauli sums of its transfer matrix
    # are not: the error names the form and the overflow, with no warning.
    for choi in (np.diag([1.7e308, 0.0, 0.0, 1.7e308]), np.full((4, 4), 1e308)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="choi matrix is too large: the transfer"):
                ChannelRep(choi=choi)


def test_rep_rejects_complex_ptm():
    m = np.eye(4, dtype=np.complex128)
    m[1, 1] = 0.5 + 0.3j
    with pytest.raises(ValueError, match="real"):
        ChannelRep.from_ptm(m)
    # A complex matrix with zero imaginary parts is the real one.
    m[1, 1] = 0.5
    assert ChannelRep.from_ptm(m).ptm.dtype == np.float64
    assert ChannelRep.from_ptm(m).ptm[1, 1] == 0.5


def test_conversion_roundtrips():
    rng = np.random.default_rng(SEED + 3)
    for _ in range(30):
        rep = ChannelRep.from_pauli(random_pauli(rng))
        from_choi = ChannelRep.from_choi(rep.choi)
        from_ptm = ChannelRep.from_ptm(rep.ptm)
        for other in (from_choi, from_ptm):
            assert np.abs(other.choi - rep.choi).max() < 1e-10
            assert np.abs(other.ptm - rep.ptm).max() < 1e-10
        rebuilt = ChannelRep.from_kraus(from_choi.kraus)
        assert np.abs(rebuilt.choi - rep.choi).max() < 1e-10


def test_kraus_built_rep_keeps_its_choi(monkeypatch):
    # The Choi matrix that the Kraus operators were summed into is the one
    # is_cptp and kraus_from_choi read; none is rebuilt from the transfer matrix.
    rng = np.random.default_rng(SEED + 24)
    reps = []
    for _ in range(20):
        u, v = random_unitary(rng), random_unitary(rng)
        pc = random_pauli(rng)
        ops = [np.sqrt(w) * (u @ s @ v) for w, s in zip(pc.p, PAULIS)]
        reps.append((ChannelRep.from_kraus(ops), ops))
    calls = []
    rebuild = channels.pauli_reconstruct
    monkeypatch.setattr(channels, "pauli_reconstruct", lambda a: calls.append(1) or rebuild(a))
    for rep, ops in reps:
        assert is_cptp(rep)
        assert kraus_from_choi(rep.choi)
        want = sum(np.outer(k.T.ravel(), k.T.ravel().conj()) for k in ops)
        assert rep.choi.tobytes() == want.tobytes()
        assert not rep.choi.flags.writeable
    assert calls == []
    for rep, _ in reps:
        assert np.abs(ChannelRep.from_ptm(rep.ptm).choi - rep.choi).max() < 1e-12
    assert len(calls) == len(reps)


def test_stacked_kraus_choi_equals_the_sequential_sum_bit_for_bit():
    # Random 1-8 operators, some with zero and negative-zero entries, whose
    # signs a sum that starts from the first product would keep.
    rng = np.random.default_rng(SEED + 40)
    for trial in range(2000):
        shape = (trial % 8 + 1, 2, 2)
        ops = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        if trial % 2:
            ops[rng.random(ops.shape) < 0.3] = 0.0
            ops.real[rng.random(ops.shape) < 0.2] *= -0.0
            ops.imag[rng.random(ops.shape) < 0.2] *= -0.0
        want = sum(np.outer(k.T.ravel(), k.T.ravel().conj()) for k in ops)
        assert ChannelRep(kraus=list(ops)).choi.tobytes() == want.tobytes(), trial


def test_choi_trace_and_tp_flags():
    rng = np.random.default_rng(SEED + 4)
    rep, _, _, _ = random_unital(rng)
    assert abs(rep.choi.trace().real - 2.0) < 1e-10
    # Trace preserving and unital: the first row and column of the ptm are (1, 0, 0, 0).
    assert np.abs(rep.ptm[0] - [1.0, 0.0, 0.0, 0.0]).max() <= 1e-10
    assert np.abs(rep.ptm[:, 0] - [1.0, 0.0, 0.0, 0.0]).max() <= 1e-10


def test_jamiolkowski_matches_basis_action():
    rng = np.random.default_rng(SEED + 5)
    eye = np.eye(2)
    for _ in range(20):
        rep = ChannelRep.from_pauli(random_pauli(rng))
        direct = np.zeros((4, 4), dtype=np.complex128)
        for k in range(2):
            for l in range(2):
                unit = np.outer(eye[:, l], eye[:, k])
                direct += tensor(np.outer(eye[:, k], eye[:, l]), apply_operator(rep, unit))
        assert np.abs(jamiolkowski(rep) - direct).max() < 1e-12


def test_jamiolkowski_pauli_fast_path():
    rng = np.random.default_rng(SEED + 6)
    for _ in range(20):
        pc = random_pauli(rng)
        assert np.abs(jamiolkowski(pc) - jamiolkowski(ChannelRep.from_pauli(pc))).max() < 1e-12


def test_choi_jam_involution():
    rng = np.random.default_rng(SEED + 7)
    rep, _, _, _ = random_unital(rng)
    assert np.abs(jam_from_choi(rep.choi) - rep.jam).max() < 1e-12
    assert np.abs(jam_from_choi(rep.jam) - rep.choi).max() < 1e-12


def test_kraus_from_choi_completeness():
    rng = np.random.default_rng(SEED + 8)
    for _ in range(20):
        rep, _, _, _ = random_unital(rng)
        ops = kraus_from_choi(rep.choi)
        total = sum(k.conj().T @ k for k in ops)
        assert np.abs(total - np.eye(2)).max() < 1e-9
        rebuilt = ChannelRep.from_kraus(ops)
        assert np.abs(rebuilt.choi - rep.choi).max() < 1e-9


def test_kraus_ptm_matches_per_pauli_kraus_action():
    rng = np.random.default_rng(SEED + 21)
    for _ in range(30):
        rep, u, pc, _ = random_unital(rng)
        for ops in (rep.kraus, ChannelRep.from_pauli(pc).kraus, [u]):
            derived = ChannelRep.from_kraus(ops).ptm
            assert np.abs(derived - ptm_from_kraus(ops)).max() < 1e-12


def test_kraus_from_choi_rejects_negative():
    bad = np.diag([1.5, 0.9, -0.4, 0.0])
    with pytest.raises(NotPSDError):
        kraus_from_choi(bad)


def test_kraus_from_choi_rejects_a_nan_above_the_diagonal():
    choi = PauliChannel.depolarizing(0.3).choi.copy()
    choi[1, 2] = np.nan
    with pytest.raises(NotHermitianError):
        kraus_from_choi(choi)


def test_kraus_from_choi_rejects_an_infinite_entry_without_a_warning():
    # An infinite entry must not reach the rescale to trace 2, which makes it NaN.
    for value in (np.inf, -np.inf):
        for entries in (((0, 0),), ((1, 2),), ((1, 2), (2, 1))):
            choi = PauliChannel.depolarizing(0.3).choi.copy()
            for i, j in entries:
                choi[i, j] = value
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(NotHermitianError):
                    kraus_from_choi(choi)


# === Action, adjoint, composition ===

def test_pauli_apply_contracts_componentwise():
    rng = np.random.default_rng(SEED + 9)
    for _ in range(30):
        pc = random_pauli(rng)
        s = random_bloch(rng)
        assert np.abs(apply(pc, s).r - pc.lam * s.r).max() < 1e-14


def test_apply_matches_kraus_conjugation():
    rng = np.random.default_rng(SEED + 10)
    for _ in range(20):
        rep, _, _, _ = random_unital(rng)
        s = random_bloch(rng)
        direct = sum(k @ s.matrix @ k.conj().T for k in rep.kraus)
        assert np.abs(apply(rep, s).matrix - direct).max() < 1e-10


def test_apply_operator_is_linear_extension():
    rng = np.random.default_rng(SEED + 11)
    rep, _, _, _ = random_unital(rng)
    m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    direct = sum(k @ m @ k.conj().T for k in rep.kraus)
    assert np.abs(apply_operator(rep, m) - direct).max() < 1e-10


def test_apply_agrees_with_apply_operator_on_both_channel_types():
    rng = np.random.default_rng(SEED + 22)
    for _ in range(30):
        rep, _, pc, _ = random_unital(rng)
        s = random_bloch(rng)
        for e in (pc, rep):
            assert np.abs(apply(e, s).matrix - apply_operator(e, s.matrix)).max() < 1e-12


def test_apply_rejects_a_broken_transfer_matrix_and_renormalizes_roundoff():
    # apply's guards are for a broken channel object: a trace or a Bloch length
    # off by more than 1e-10 raises, and an overshoot within it is scaled back.
    pole = BlochState(np.array([1.0, 0.0, 0.0]))
    trace = np.eye(4)
    trace[0, 0] += 2e-10
    with pytest.raises(InternalCPViolationError, match="trace"):
        apply(ChannelRep.from_ptm(trace), pole)
    with pytest.raises(InternalCPViolationError, match="length"):
        apply(ChannelRep.from_ptm(np.diag([1.0, 1.0 + 2e-10, 1.0, 1.0])), pole)
    out = apply(ChannelRep.from_ptm(np.diag([1.0, 1.0 + 5e-11, 1.0, 1.0])), pole)
    assert np.linalg.norm(out.r) <= 1.0
    assert np.abs(out.r - pole.r).max() <= 1e-15


def test_adjoint_duality():
    rng = np.random.default_rng(SEED + 12)
    for _ in range(20):
        rep, _, _, _ = random_unital(rng)
        a = random_bloch(rng).matrix
        b = random_bloch(rng).matrix
        lhs = np.trace(a @ apply_operator(rep, b))
        rhs = np.trace(apply_operator(adjoint(rep), a) @ b)
        assert abs(lhs - rhs) < 1e-10


def test_pauli_channel_is_self_adjoint():
    rng = np.random.default_rng(SEED + 13)
    pc = random_pauli(rng)
    assert np.array_equal(adjoint(pc).ptm, pc.ptm)


def test_compose_is_sequential_application():
    rng = np.random.default_rng(SEED + 14)
    f, _, _, _ = random_unital(rng)
    g, _, _, _ = random_unital(rng)
    s = random_bloch(rng)
    assert np.abs(apply(compose(f, g), s).r - apply(f, apply(g, s)).r).max() < 1e-10


# === CPTP predicates ===

def test_is_cptp_accepts_valid_channels():
    rng = np.random.default_rng(SEED + 15)
    for _ in range(20):
        assert is_cptp(random_pauli(rng))
    rep, _, _, _ = random_unital(rng)
    assert is_cptp(rep)


def test_is_cptp_rejects_transpose_like_map():
    bad = ChannelRep.from_ptm(np.diag([1.0, 0.9, 0.9, -0.9]))
    assert not is_cptp(bad)


def test_fujiwara_algoet_matches_choi_spectrum():
    axis = np.linspace(-1.0, 1.0, 9)
    for l1 in axis:
        for l2 in axis:
            for l3 in axis:
                lam = np.array([l1, l2, l3])
                coeff = np.diag(np.concatenate(([1.0], lam))) / 2.0
                choi = partial_transpose(
                    sum(c * tensor(PAULIS[i], PAULIS[i]) for i, c in enumerate(np.diag(coeff)))
                )
                min_eig = np.linalg.eigvalsh(choi)[0]
                if abs(min_eig) < 1e-12:
                    continue  # exact boundary: both verdicts are defensible
                assert fujiwara_algoet(lam) == (min_eig > 0.0), lam


def test_fujiwara_algoet_correlated_signs():
    # All three contractions large and equal is fine; flipping one sign
    # violates complete positivity even though each |lambda| < 1.
    assert fujiwara_algoet([0.9, 0.9, 0.9])
    assert not fujiwara_algoet([0.9, 0.9, -0.9])


# === Rotation factors ===

def test_rotation_from_su2_properties():
    rng = np.random.default_rng(SEED + 16)
    for _ in range(30):
        u = random_unitary(rng)
        o = rotation_from_su2(u)
        assert np.abs(o @ o.T - np.eye(3)).max() < 1e-12
        assert abs(np.linalg.det(o) - 1.0) < 1e-12
        phase = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
        assert np.abs(rotation_from_su2(phase * u) - o).max() < 1e-12


def test_rotation_from_su2_homomorphism():
    rng = np.random.default_rng(SEED + 17)
    u = random_unitary(rng)
    w = random_unitary(rng)
    lhs = rotation_from_su2(u @ w)
    rhs = rotation_from_su2(u) @ rotation_from_su2(w)
    assert np.abs(lhs - rhs).max() < 1e-12


def test_unital_to_pauli_reconstruction():
    rng = np.random.default_rng(SEED + 18)
    for _ in range(200):
        rep, _, _, _ = random_unital(rng)
        u, pc, v = unital_to_pauli(rep)
        rebuilt = compose(
            ChannelRep.from_unitary(u),
            compose(ChannelRep.from_pauli(pc), ChannelRep.from_unitary(v)),
        )
        assert np.abs(rebuilt.ptm - rep.ptm).max() < 1e-9
        lam = pc.lam
        assert lam[0] >= lam[1] >= abs(lam[2]) - 1e-12


def test_unital_to_pauli_handles_half_turn_conjugations():
    # Conjugation by n . sigma is the half turn about n: its Bloch rotation
    # has trace -1, and its SU(2) lift has trace 0 (w = 0 in the quaternion).
    for n in ([1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 0], [0, 1, -1], [1, 1, 1]):
        n = np.array(n) / np.linalg.norm(n)
        rep = ChannelRep.from_unitary(sum(c * s for c, s in zip(n, PAULIS[1:])))
        u, pc, v = unital_to_pauli(rep)
        rebuilt = compose(
            ChannelRep.from_unitary(u),
            compose(ChannelRep.from_pauli(pc), ChannelRep.from_unitary(v)),
        )
        assert np.abs(rebuilt.ptm - rep.ptm).max() < 1e-12, n


def test_unital_to_pauli_rejects_nonunital():
    g = 0.3
    root = np.sqrt(1.0 - g)
    ptm = np.array(
        [[1.0, 0.0, 0.0, 0.0], [0.0, root, 0.0, 0.0], [0.0, 0.0, root, 0.0], [g, 0.0, 0.0, 1.0 - g]]
    )
    with pytest.raises(NotUnitalError) as err:
        unital_to_pauli(ChannelRep.from_ptm(ptm))
    assert "0.3" in str(err.value)


def test_unital_to_pauli_rejects_noncp():
    bad = ChannelRep.from_ptm(np.diag([1.0, 0.9, 0.9, -0.9]))
    with pytest.raises(NotCPTPError):
        unital_to_pauli(bad)


def test_transport_inverse_unwraps_the_sandwich():
    rng = np.random.default_rng(SEED + 19)
    rep, u, pc, v = random_unital(rng)
    # Transporting the core itself must reproduce v^dag . P . u^dag.
    moved = transport_inverse(u, v, ChannelRep.from_pauli(pc))
    direct = compose(
        ChannelRep.from_unitary(v.conj().T),
        compose(ChannelRep.from_pauli(pc), ChannelRep.from_unitary(u.conj().T)),
    )
    assert np.abs(moved.ptm - direct.ptm).max() < 1e-12
