"""Two-time objects, the unscathed test, and Bayesian inverse construction."""

import numpy as np
import pytest
from conftest import random_bloch, random_pauli, random_unital, scalar_verdict
from oracles import (
    NonUniqueSolutionWarning,
    PseudoDensityMatrix,
    RankDeficientError,
    adjoint_is_inverse,
    solve_anticommutator,
    star_product,
    swap_matrix,
    two_time_expectation,
    unscathed_residuals_by_conjugation,
)

from qubit_retro import (
    BlochState,
    ChannelRep,
    NoInverse,
    PauliChannel,
    WITNESSES,
    analytic_inverse,
    anticommutator,
    apply,
    bayes,
    bayes_residual,
    bayesian_inverse,
    gamel_report,
    is_cptp,
    is_unscathed,
    jamiolkowski,
    pauli_frame_verdicts,
    pauli_reconstruct,
    tensor,
    two_time_projector,
    unscathed_residuals,
)
from qubit_retro.errors import (
    EigenvalueOnBoundaryError,
    NotHermitianError,
    NotPSDError,
)

SEED = 20260825


# === Pseudo-density matrices and two-time expectations ===

def test_identity_channel_at_mixed_state_gives_half_swap():
    pdm = star_product(PauliChannel(np.array([1.0, 0.0, 0.0, 0.0])), BlochState.maximally_mixed())
    assert np.abs(pdm.m - swap_matrix() / 2.0).max() < 1e-15
    w = np.linalg.eigvalsh(pdm.m)
    assert np.abs(w - np.array([-0.5, 0.5, 0.5, 0.5])).max() < 1e-12
    assert abs(pdm.min_eigenvalue() + 0.5) < 1e-12


def test_pure_state_produces_negative_eigenvalue():
    pdm = star_product(
        PauliChannel(np.array([1.0, 0.0, 0.0, 0.0])), BlochState(np.array([0.0, 0.0, 1.0]))
    )
    assert pdm.min_eigenvalue() < -0.1


def test_pdm_validation():
    with pytest.raises(NotHermitianError):
        PseudoDensityMatrix(np.triu(np.ones((4, 4))))
    with pytest.raises(ValueError):
        PseudoDensityMatrix(np.eye(4))  # trace 4


def test_two_time_expectation_index_validation():
    pdm = star_product(PauliChannel(np.array([1.0, 0.0, 0.0, 0.0])), BlochState.maximally_mixed())
    with pytest.raises(ValueError):
        two_time_expectation(pdm, 0, 1)
    with pytest.raises(ValueError):
        two_time_projector(PauliChannel(np.array([1.0, 0.0, 0.0, 0.0])),
                           BlochState.maximally_mixed(), 1, 4)


def test_star_and_projector_routes_agree():
    rng = np.random.default_rng(SEED)
    for _ in range(20):
        pc = random_pauli(rng)
        s = random_bloch(rng)
        pdm = star_product(pc, s)
        for i in (1, 2, 3):
            for j in (1, 2, 3):
                a = two_time_expectation(pdm, i, j)
                b = two_time_projector(pc, s, i, j)
                assert abs(a - b) < 1e-12


def test_star_and_projector_routes_agree_for_general_channels():
    rng = np.random.default_rng(SEED + 1)
    for _ in range(10):
        rep, _, _, _ = random_unital(rng)
        s = random_bloch(rng)
        pdm = star_product(rep, s)
        for i in (1, 2, 3):
            for j in (1, 2, 3):
                assert abs(two_time_expectation(pdm, i, j) - two_time_projector(rep, s, i, j)) < 1e-10


def test_pauli_two_time_matrix_is_diagonal_in_lambda():
    # Measuring sigma_i first collapses the state onto the +-x_i axis, so the
    # (i, j) entry is lambda_j delta_ij regardless of the prior Bloch vector.
    rng = np.random.default_rng(SEED + 2)
    pc = random_pauli(rng)
    s = random_bloch(rng)
    for i in (1, 2, 3):
        for j in (1, 2, 3):
            expected = pc.lam[j - 1] if i == j else 0.0
            assert abs(two_time_projector(pc, s, i, j) - expected) < 1e-12


# === Unscathed classification ===

def test_identity_channel_everything_unscathed():
    rng = np.random.default_rng(SEED + 3)
    ident = PauliChannel(np.array([1.0, 0.0, 0.0, 0.0]))
    for _ in range(10):
        assert is_unscathed(ident, random_bloch(rng)) == 0


def test_single_conjugation_unscathed_everywhere():
    rng = np.random.default_rng(SEED + 4)
    flip = PauliChannel(np.array([0.0, 1.0, 0.0, 0.0]))
    for _ in range(10):
        s = random_bloch(rng)
        k = is_unscathed(flip, s)
        assert k in (0, 1)  # 0 when the state happens to lie on the x axis
        assert is_unscathed(flip, BlochState(np.array([0.0, 0.5, 0.5]))) == 1


def test_two_entry_channel_axis_states():
    pc = PauliChannel(np.array([0.3, 0.7, 0.0, 0.0]))
    assert is_unscathed(pc, BlochState(np.array([0.6, 0.0, 0.0]))) == 0
    assert is_unscathed(pc, BlochState.maximally_mixed()) == 0
    assert is_unscathed(pc, BlochState(np.array([0.0, 0.6, 0.0]))) is None
    res = unscathed_residuals(pc, BlochState(np.array([0.0, 0.6, 0.0])))
    assert res.shape == (4,) and res.min() > 1e-3


def test_three_entry_channel_only_mixed_state():
    pc = PauliChannel(np.array([0.5, 0.3, 0.2, 0.0]))
    assert is_unscathed(pc, BlochState.maximally_mixed()) == 0
    for r in (np.array([0.4, 0.0, 0.0]), np.array([0.0, 0.4, 0.0]), np.array([0.1, 0.2, 0.3])):
        assert is_unscathed(pc, BlochState(r)) is None


def test_closed_form_residuals_match_matrix_conjugation():
    rng = np.random.default_rng(SEED + 11)
    channels = [PauliChannel(np.eye(4)[k]) for k in range(4)]  # one entry
    for i in range(4):  # two entries: boundary channels
        for j in range(i + 1, 4):
            for a in (0.2, 0.5, 0.9):
                p = np.zeros(4)
                p[i], p[j] = a, 1.0 - a
                channels.append(PauliChannel(p))
    channels += [random_pauli(rng) for _ in range(10)]  # four entries
    checked = 0
    for pc in channels:
        for k in range(250):
            if k < 60:  # on an axis
                r = np.zeros(3)
                r[k % 3] = rng.uniform(-1.0, 1.0)
                s = BlochState(r)
            else:
                s = random_bloch(rng)
            closed = unscathed_residuals(pc, s)
            oracle = unscathed_residuals_by_conjugation(pc, s)
            assert np.abs(closed - oracle).max() <= 1e-15, (pc.p, s.r)
            assert ((closed <= 1e-10) == (oracle <= 1e-10)).all(), (pc.p, s.r)
            checked += 1
    assert checked >= 5000


def test_adjoint_is_inverse_matches_direct_residual():
    rng = np.random.default_rng(SEED + 5)
    for _ in range(50):
        pc = random_pauli(rng)
        s = random_bloch(rng)
        verdict = adjoint_is_inverse(pc, s)
        residual = bayes_residual(pc, s, pc)  # Pauli channels are self-adjoint
        assert verdict == (residual <= 1e-10)


# === Feasibility report ===

def test_gamel_report_of_identity_channel_is_marginal():
    choi = ChannelRep.from_pauli(PauliChannel(np.array([1.0, 0.0, 0.0, 0.0]))).choi
    report = gamel_report(choi, 0.0)
    assert np.abs(report.slack).max() < 1e-12
    assert report.feasible
    assert abs(report.eta - 3.0) < 1e-12
    # The first-factor transpose flips the sigma_2 row, so R = diag(1, -1, 1).
    assert abs(report.detR + 1.0) < 1e-12


def test_gamel_report_eta_consistency():
    rng = np.random.default_rng(SEED + 6)
    for _ in range(30):
        rec = analytic_inverse(random_pauli(rng, 1e-3), random_bloch(rng))
        rep = rec.report
        eta_direct = float(rep.v @ rep.v + (rep.R * rep.R).sum())
        assert abs(rep.eta - eta_direct) < 1e-12
        assert abs(rep.detR - np.linalg.det(rep.R)) < 1e-12


def test_gamel_report_validation():
    with pytest.raises(NotHermitianError):
        gamel_report(np.triu(np.ones((4, 4))), 0.0)
    # A non-trace-preserving candidate: first coefficient column nonzero.
    bad = pauli_reconstruct(np.array([[1.0, 0, 0, 0], [0.3, 0.5, 0, 0], [0, 0, 0.5, 0], [0, 0, 0, 0.5]]) / 2.0)
    with pytest.raises(ValueError):
        gamel_report(bad, 0.0)


def test_complete_depolarizing_slacks_closed_form():
    pc = PauliChannel.depolarizing(0.75)  # lambda = 0: candidate has R = 0
    rng = np.random.default_rng(SEED + 7)
    for _ in range(10):
        s = random_bloch(rng)
        t = float(s.r @ s.r)
        slack = analytic_inverse(pc, s).report.slack
        expected = np.array([3.0 - t, 1.0 - t, (t - 1.0) ** 2])
        assert np.abs(slack - expected).max() < 1e-12


# === Analytic inverse ===

def test_analytic_inverse_satisfies_identity_even_when_infeasible():
    rng = np.random.default_rng(SEED + 8)
    for _ in range(30):
        pc = random_pauli(rng, 1e-3)
        s = random_bloch(rng)
        rec = analytic_inverse(pc, s)
        candidate = ChannelRep.from_jam(pauli_reconstruct(rec.a / 2.0))
        assert bayes_residual(pc, s, candidate) < 1e-12
        assert rec.a[0, 0] == 1.0
        assert np.abs(rec.a[1:, 0]).max() == 0.0


def test_analytic_inverse_known_feasible_and_infeasible():
    pc = PauliChannel.depolarizing(0.2)
    near = analytic_inverse(pc, BlochState(np.array([0.3, 0.0, 0.0])))
    far = analytic_inverse(pc, BlochState(np.array([0.9, 0.0, 0.0])))
    assert near.report.feasible and not far.report.feasible
    # Cross-check both verdicts against the candidate Choi spectrum.
    assert np.linalg.eigvalsh(near.choi)[0] > -1e-12
    assert np.linalg.eigvalsh(far.choi)[0] < -1e-6


def test_analytic_inverse_boundary_raises():
    with pytest.raises(EigenvalueOnBoundaryError):
        analytic_inverse(PauliChannel(np.array([0.6, 0.4, 0.0, 0.0])),
                         BlochState.maximally_mixed())


def test_analytic_inverse_skips_kraus_when_asked():
    pc = PauliChannel.depolarizing(0.2)
    rec = analytic_inverse(pc, BlochState(np.array([0.3, 0.0, 0.0])))
    assert rec.kraus == ()


# === Batched verdicts ===

def test_verdicts_match_scalar_decision_on_g07_pairs():
    # The 10k seeded pairs of acceptance guarantee G07, one kernel call each.
    rng = np.random.default_rng(107)
    for _ in range(10000):
        pc = random_pauli(rng, 1e-6)
        s = random_bloch(rng)
        feasible, slack, witness = pauli_frame_verdicts(pc, s.r[None, :])
        ref_feasible, ref_slack, ref_witness = scalar_verdict(pc, s)
        assert (bool(feasible[0]), WITNESSES[witness[0]]) == (ref_feasible, ref_witness), pc.p
        assert np.abs(slack[0] - ref_slack).max() <= 1e-12, (pc.p, s.r)


def test_verdicts_do_not_depend_on_batch_size():
    rng = np.random.default_rng(SEED)
    priors = np.array([random_bloch(rng).r for _ in range(120)])
    priors[:20] = np.outer(np.linspace(-1.0, 1.0, 20), [1.0, 0.0, 0.0])
    channels = [random_pauli(rng, 1e-3) for _ in range(4)]
    channels += [PauliChannel(np.eye(4)[k]) for k in range(4)]  # identity and sigma_k flips
    channels += [  # two-entry boundary channels
        PauliChannel(np.array([0.25, 0.75, 0.0, 0.0])),
        PauliChannel(np.array([0.0, 0.4, 0.0, 0.6])),
        PauliChannel(np.array([0.5, 0.0, 0.5, 0.0])),
    ]
    for pc in channels:
        whole = pauli_frame_verdicts(pc, priors)
        for size in (1, 7, 64):
            parts = [pauli_frame_verdicts(pc, priors[k : k + size]) for k in range(0, 120, size)]
            for column, pieces in zip(whole, zip(*parts)):
                assert np.concatenate(pieces).tobytes() == column.tobytes(), (pc.p, size)


def test_verdicts_contract():
    pc = PauliChannel.depolarizing(0.3)
    feasible, slack, witness = pauli_frame_verdicts(pc, np.zeros((4, 3)))
    assert feasible.shape == (4,) and feasible.dtype == bool and feasible.all()
    assert slack.shape == (4, 3) and witness.dtype == np.int8
    assert not any(col.flags.writeable for col in (feasible, slack, witness))
    assert [len(col) for col in pauli_frame_verdicts(pc, np.zeros((0, 3)))] == [0, 0, 0]
    for bad in (np.zeros(3), np.zeros((2, 2)), [[1.1, 0.0, 0.0]], [[np.nan, 0.0, 0.0]]):
        with pytest.raises(ValueError):
            pauli_frame_verdicts(pc, bad)
    # A boundary channel: on its axis the prior is unscathed, off it there is no inverse.
    boundary = PauliChannel(np.array([0.25, 0.75, 0.0, 0.0]))
    feasible, slack, witness = pauli_frame_verdicts(boundary, [[0.5, 0.0, 0.0], [0.0, 0.5, 0.0]])
    assert feasible.tolist() == [True, False]
    assert [WITNESSES[w] for w in witness] == [None, "not-unscathed"]
    assert slack[1].tolist() == [-1.0, -1.0, -1.0]


def test_boundary_verdicts_do_not_go_through_the_scalar_decision(monkeypatch):
    def scalar(*args, **kwargs):
        raise AssertionError("scalar decision called")

    monkeypatch.setattr(bayes, "pauli_frame_decision", scalar)
    boundary = PauliChannel(np.array([0.25, 0.75, 0.0, 0.0]))
    priors = np.outer(np.linspace(0.0, 1.0, 11), [1.0, 1.0, 0.0]) / np.sqrt(2.0)
    feasible, _, witness = pauli_frame_verdicts(boundary, priors)
    assert feasible.tolist() == [True] + [False] * 10
    assert set(witness[1:].tolist()) == {WITNESSES.index("not-unscathed")}


# === Anticommutator solver ===

def test_solver_identity_mass():
    rng = np.random.default_rng(SEED + 9)
    b = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    x = solve_anticommutator(np.eye(2) / 2.0, b)
    assert np.abs(x - b).max() < 1e-12


def test_solver_solves_generic_equations():
    rng = np.random.default_rng(SEED + 10)
    for _ in range(20):
        m = random_bloch(rng, rmax=0.9).matrix  # full-rank PSD with trace 1
        b = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        b = b + b.conj().T
        x = solve_anticommutator(m, b)
        assert np.abs(anticommutator(tensor(m, np.eye(2)), x) - b).max() < 1e-10


def test_solver_matches_analytic_candidate():
    rng = np.random.default_rng(SEED + 11)
    eye = np.eye(2)
    for _ in range(20):
        pc = random_pauli(rng, 1e-3)
        s = random_bloch(rng, rmax=0.9)
        rec = analytic_inverse(pc, s)
        m = apply(pc, s).matrix
        b = anticommutator(tensor(eye, s.matrix), jamiolkowski(pc))
        x = solve_anticommutator(m, b)
        assert np.abs(x - pauli_reconstruct(rec.a / 2.0)).max() < 1e-10


def test_solver_rank_deficient_paths():
    m = np.diag([1.0, 0.0])
    with pytest.raises(RankDeficientError):
        solve_anticommutator(m, np.eye(4))
    rng = np.random.default_rng(SEED + 12)
    x0 = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    b = anticommutator(tensor(m, np.eye(2)), x0)
    with pytest.warns(NonUniqueSolutionWarning):
        x = solve_anticommutator(m, b)
    assert np.abs(anticommutator(tensor(m, np.eye(2)), x) - b).max() < 1e-10


def test_solver_rejects_negative_mass():
    with pytest.raises(NotPSDError):
        solve_anticommutator(np.diag([1.0, -0.5]), np.eye(4))


# === Full pipeline ===

def test_bayesian_inverse_feasible_pauli_case():
    rng = np.random.default_rng(SEED + 13)
    done = 0
    while done < 20:
        pc = random_pauli(rng, 1e-3)
        s = random_bloch(rng)
        out = bayesian_inverse(pc, s)
        if isinstance(out, NoInverse):
            continue
        done += 1
        assert out.residual <= 1e-9
        assert out.unique
        total = sum(k.conj().T @ k for k in out.kraus)
        assert np.abs(total - np.eye(2)).max() < 1e-8
        f = ChannelRep.from_choi(out.choi)
        assert is_cptp(f)
        # A Bayesian inverse recovers the prior from the channel output.
        assert np.abs(apply(f, apply(pc, s)).r - s.r).max() < 1e-9


def test_bayesian_inverse_infeasible_pauli_case():
    out = bayesian_inverse(PauliChannel.depolarizing(0.2), BlochState(np.array([0.9, 0.0, 0.0])))
    assert isinstance(out, NoInverse)
    assert out.reason == "cp-infeasible"
    assert out.report is not None and not out.report.feasible
    assert out.residuals is None


def test_bayesian_inverse_boundary_unscathed():
    pc = PauliChannel(np.array([0.3, 0.7, 0.0, 0.0]))
    out = bayesian_inverse(pc, BlochState(np.array([0.6, 0.0, 0.0])))
    assert not isinstance(out, NoInverse)
    assert out.residual <= 1e-10
    assert out.unique  # channel output is mixed, S < 1
    pure = bayesian_inverse(pc, BlochState(np.array([1.0, 0.0, 0.0])))
    assert not isinstance(pure, NoInverse)
    assert not pure.unique  # channel output is pure: other inverses exist


def test_bayesian_inverse_boundary_not_unscathed():
    pc = PauliChannel(np.array([0.3, 0.7, 0.0, 0.0]))
    out = bayesian_inverse(pc, BlochState(np.array([0.0, 0.6, 0.0])))
    assert isinstance(out, NoInverse)
    assert out.reason == "not-unscathed"
    assert out.residuals is not None and out.residuals.min() > 1e-3


def test_bayesian_inverse_general_unital_channels():
    rng = np.random.default_rng(SEED + 14)
    done = 0
    while done < 15:
        rep, _, _, _ = random_unital(rng)
        s = random_bloch(rng)
        out = bayesian_inverse(rep, s)
        if isinstance(out, NoInverse):
            continue
        done += 1
        assert out.residual <= 1e-9
        f = ChannelRep.from_choi(out.choi)
        assert is_cptp(f)
        assert np.abs(apply(f, apply(rep, s)).r - s.r).max() < 1e-8


def test_bayesian_inverse_at_maximally_mixed_is_adjoint():
    rng = np.random.default_rng(SEED + 15)
    for _ in range(10):
        pc = random_pauli(rng, 1e-3)
        out = bayesian_inverse(pc, BlochState.maximally_mixed())
        assert not isinstance(out, NoInverse)
        # At the maximally mixed prior the inverse is the channel itself
        # (Pauli channels are self-adjoint).
        assert np.abs(out.choi - ChannelRep.from_pauli(pc).choi).max() < 1e-10
