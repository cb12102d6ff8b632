"""Two-time objects, the unscathed test, and Bayesian inverse construction."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from conftest import (
    random_bloch,
    random_pauli,
    random_unital,
    random_unitary,
    scalar_verdict,
)
from oracles import (
    NonUniqueSolutionWarning,
    PseudoDensityMatrix,
    RankDeficientError,
    adjoint_is_inverse,
    exact_slacks,
    solve_anticommutator,
    star_product,
    swap_matrix,
    two_time_expectation,
    unscathed_residuals_by_conjugation,
)

from qubit_retro import (
    BlochState,
    ChannelRep,
    InverseRecord,
    NoInverse,
    PauliChannel,
    WITNESSES,
    adjoint,
    analytic_inverse,
    anticommutator,
    apply,
    apply_operator,
    bayes,
    bayes_residual,
    bayesian_inverse,
    channels,
    gamel_report,
    is_cptp,
    is_unscathed,
    jamiolkowski,
    kraus_from_choi,
    pauli_frame_decision,
    pauli_frame_verdicts,
    pauli_reconstruct,
    tensor,
    transport_inverse,
    two_time_matrix,
    two_time_projector,
    unital_to_pauli,
    unscathed_residuals,
)
from qubit_retro.errors import (
    EigenvalueOnBoundaryError,
    InternalCPViolationError,
    NotHermitianError,
    NotPSDError,
    SingularSError,
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


def _projector_matrix(e, s):
    return np.array([[two_time_projector(e, s, i, j) for j in (1, 2, 3)] for i in (1, 2, 3)])


def test_pauli_two_time_matrix_is_diagonal_in_lambda():
    # Measuring sigma_i first collapses the state onto the +-x_i axis, so the
    # (i, j) entry is lambda_j delta_ij regardless of the prior Bloch vector.
    # The closed form reads T[j, 0] = 0 and T[j, i] = lambda_j delta_ij, so
    # it gives diag(lambda) exactly.
    rng = np.random.default_rng(SEED + 2)
    for _ in range(50):
        pc = random_pauli(rng)
        s = random_bloch(rng)
        assert np.abs(_projector_matrix(pc, s) - np.diag(pc.lam)).max() < 1e-12
        assert np.array_equal(two_time_matrix(pc, s), np.diag(pc.lam))


def test_two_time_matrix_matches_the_projector_formula():
    # 300 pairs of each kind: Pauli, rotated unital given as a transfer
    # matrix and as Kraus operators, and the (non-unital) Bayesian inverses
    # of rotated channels at the pushed-forward state E(rho).
    rng = np.random.default_rng(SEED + 30)
    pairs = []
    for _ in range(300):
        pairs.append((random_pauli(rng), random_bloch(rng)))
        rep, _, _, _ = random_unital(rng)
        pairs.append((rep, random_bloch(rng)))
        pc, u, v = random_pauli(rng), random_unitary(rng), random_unitary(rng)
        kraus = ChannelRep(kraus=[u @ k @ v for k in ChannelRep.from_pauli(pc).kraus])
        pairs.append((kraus, random_bloch(rng)))
    inverses = 0
    while inverses < 300:
        rep, _, _, _ = random_unital(rng)
        s = random_bloch(rng, 0.6)
        rec = bayesian_inverse(rep, s)
        if isinstance(rec, NoInverse):
            continue
        inverses += 1
        pairs.append((ChannelRep(kraus=rec.kraus), apply(rep, s)))
    for e, s in pairs:
        m = two_time_matrix(e, s)
        assert m.shape == (3, 3)
        assert np.abs(m - _projector_matrix(e, s)).max() <= 1e-15


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
    # Non-finite entries pass the Hermiticity test, so they are rejected first.
    for value in (np.nan, np.inf):
        choi = PauliChannel.depolarizing(0.3).choi.copy()
        choi[1, 2] = value
        with pytest.raises(ValueError, match="finite"):
            gamel_report(choi, 0.0)
    with pytest.raises(ValueError, match="finite"):
        gamel_report(np.full((4, 4), np.nan), 0.0)


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
        candidate = ChannelRep.from_ptm(rec.a.T)
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


def test_analytic_inverse_reads_a_back_from_the_kernel_registers():
    # The kernel negates lambda's sigma_y entry, so a reads R's sigma_y row
    # back negated: the unsigned candidate byte for byte, zeros' signs too.
    rng = np.random.default_rng(SEED + 26)
    pairs = [(random_pauli(rng, 1e-3), random_bloch(rng)) for _ in range(200)]
    pairs += [(PauliChannel(np.array(p)), BlochState(np.array(r)))
              for p in ([0.25, 0.25, 0.25, 0.25], [0.5, 0.25, 0.0, 0.25])  # lambda_2 = 0
              for r in ([0.0, 0.4, 0.0], [0.2, -0.3, 0.1], [-0.0, -0.0, -0.0])]
    for pc, s in pairs:
        w = bayes._pair_workspace()
        w[bayes._LAM : bayes._LAM + 3] = pc.lam.tolist()
        w[bayes._PRIOR : bayes._PRIOR + 3] = s.r.tolist()
        bayes._candidate(w)
        a = analytic_inverse(pc, s).a
        assert a[0, 1:].tobytes() == np.array(w[bayes._V : bayes._V + 3]).tobytes()
        assert a[1:, 1:].tobytes() == np.reshape(w[bayes._R : bayes._R + 9], (3, 3)).tobytes()


def test_analytic_inverse_boundary_raises():
    with pytest.raises(EigenvalueOnBoundaryError):
        analytic_inverse(PauliChannel(np.array([0.6, 0.4, 0.0, 0.0])),
                         BlochState.maximally_mixed())


def test_analytic_inverse_skips_kraus_when_asked():
    pc = PauliChannel.depolarizing(0.2)
    rec = analytic_inverse(pc, BlochState(np.array([0.3, 0.0, 0.0])))
    assert rec.kraus == ()


def test_analytic_choi_is_the_reading_of_its_transfer_matrix():
    # One Choi recipe: the candidate's Choi matrix is the one its ptm a^T reads back.
    rng = np.random.default_rng(SEED + 24)
    for _ in range(2000):
        rec = analytic_inverse(random_pauli(rng, 1e-3), random_bloch(rng))
        assert rec.choi.tobytes() == ChannelRep.from_ptm(rec.a.T).choi.tobytes()


def test_pauli_frame_decision_returns_a_frame_record():
    rng = np.random.default_rng(SEED + 25)
    found = 0
    for _ in range(100):
        pc, s = random_pauli(rng, 1e-3), random_bloch(rng, 0.6)
        rec = pauli_frame_decision(pc, s)
        if isinstance(rec, NoInverse):
            continue
        found += 1
        ref = analytic_inverse(pc, s)
        assert isinstance(rec, InverseRecord)
        assert (rec.a.tobytes(), rec.choi.tobytes()) == (ref.a.tobytes(), ref.choi.tobytes())
        assert (rec.S, rec.kraus, rec.residual, rec.unique) == (ref.S, (), 0.0, True)
    assert found > 10
    # On the boundary an unscathed prior gets the channel itself.
    pc = PauliChannel(np.array([0.3, 0.7, 0.0, 0.0]))
    for x, unique in ((0.6, True), (1.0, False)):
        rec = pauli_frame_decision(pc, BlochState(np.array([x, 0.0, 0.0])))
        assert isinstance(rec, InverseRecord)
        assert (rec.a.tobytes(), rec.choi.tobytes()) == (pc.ptm.tobytes(), pc.choi.tobytes())
        assert (rec.S, rec.kraus, rec.residual, rec.unique) == (x * x, (), 0.0, unique)
        assert rec.report.feasible


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
        # A single query scores its candidate with the kernel's own arithmetic.
        assert pauli_frame_decision(pc, s).report.slack.tobytes() == slack[0].tobytes()


@pytest.fixture(scope="module")
def bisected_priors():
    """300 seeded rays r = t d, each bisected on its kernel verdict down to adjacent floats t.

    Every ray at once, with one _verdict_rows call per step. Returns the
    channels, the directions as (3, 300, 1) columns, and the last feasible
    and first infeasible t of each ray.
    """
    rng = np.random.default_rng(SEED + 27)
    channels, directions = [], []
    while len(channels) < 300:
        pc, d = random_pauli(rng, 1e-3), rng.normal(size=3)
        d /= np.linalg.norm(d)
        if not pauli_frame_verdicts(pc, d[None])[0][0]:
            channels.append(pc)
            directions.append(d)
    d = np.array(directions).T[:, :, None]
    lam = np.array([pc.lam for pc in channels])
    lo, hi = np.zeros(300), np.ones(300)
    assert bayes._verdict_rows(lam, d * lo[:, None], 1e-9)[0].all()
    while (np.nextafter(lo, 2.0) < hi).any():
        mid = (lo + hi) / 2.0
        feasible = bayes._verdict_rows(lam, d * mid[:, None], 1e-9)[0][:, 0]
        lo, hi = np.where(feasible, mid, lo), np.where(feasible, hi, mid)
    return channels, d, lo, hi


def test_single_and_batch_verdicts_agree_at_bisected_boundary_priors(bisected_priors):
    # At the last feasible and the first infeasible prior a slack sits within
    # roundoff of -tol, so a single query agrees with the batch only if it
    # runs the same arithmetic on the same inputs.
    channels, d, lo, hi = bisected_priors
    lam = np.array([pc.lam for pc in channels])
    for t in (lo, hi):
        feasible, slack, _ = bayes._verdict_rows(lam, d * t[:, None], 1e-9)
        for i, pc in enumerate(channels):
            out = pauli_frame_decision(pc, BlochState(d[:, i, 0] * t[i]))
            assert isinstance(out, InverseRecord) == feasible[i, 0], (pc.p, t[i])
            assert out.report.slack.tobytes() == slack[i, 0].tobytes(), (pc.p, t[i])


@pytest.mark.xfail(
    raises=InternalCPViolationError, strict=True,
    reason="slack3 >= -tol admits candidates whose smallest Choi eigenvalue is below -tol",
)
def test_no_query_crashes_at_a_bisected_last_feasible_prior(bisected_priors):
    # Every prior the kernel admits should give a certified inverse at the
    # same tol. slack3 is close to the product of the Choi eigenvalues, so
    # when the other three are small it hides one far below -tol: 157 of
    # these 300 priors raise, with the smallest eigenvalue at -3.0e-7.
    channels, d, lo, _ = bisected_priors
    for i, pc in enumerate(channels):
        assert isinstance(bayesian_inverse(pc, BlochState(d[:, i, 0] * lo[i])), InverseRecord)


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


def test_boundary_rows_read_from_lambda_take_the_channels_own_slacks():
    # A boundary row is given only lambda; its unscathed priors must take the
    # slacks of the channel's own block, byte for byte those of the float
    # registers at (lambda, r = 0), where the candidate is the channel, and
    # within 1e-14 of gamel_report on the PauliChannel's own Choi matrix;
    # every other prior gets (-1, -1, -1). A single query reports the same
    # bytes. Two-entry channels all sit on the boundary; the priors hold the
    # center, the three half axes and random points.
    rng = np.random.default_rng(SEED + 19)
    probs = [np.eye(4)[k] for k in range(4)]
    for _ in range(2000):
        p = np.zeros(4)
        p[rng.choice(4, size=2, replace=False)] = rng.dirichlet(np.ones(2))
        probs.append(p)
    channels = [PauliChannel(p) for p in probs]
    lam = np.array([pc.lam for pc in channels])
    assert bayes._on_boundary(lam).all()
    priors = np.vstack([np.zeros(3), 0.5 * np.eye(3), [random_bloch(rng).r for _ in range(4)]])
    feasible, slack, _ = bayes._verdict_rows(lam, priors.T[:, None], 1e-9)
    seen = set()
    for i, pc in enumerate(channels):
        w = bayes._pair_workspace()
        w[bayes._LAM : bayes._LAM + 3] = (pc.lam * bayes._CHOI_ROW_SIGNS).tolist()
        bayes._candidate(w)
        bayes._slacks(w)
        own = np.array(w[bayes._SLACK : bayes._SLACK + 3])
        assert np.abs(own - gamel_report(pc.choi, 0.0, 1e-9).slack).max() <= 1e-14, pc.p
        unscathed = [is_unscathed(pc, BlochState(r)) is not None for r in priors]
        want = np.where(np.array(unscathed)[:, None], own, -1.0)
        assert feasible[i].tolist() == unscathed, pc.p
        assert slack[i].tobytes() == want.tobytes(), pc.p
        one = pauli_frame_verdicts(pc, priors)
        assert (one[0].tobytes(), one[1].tobytes()) == (feasible[i].tobytes(), want.tobytes())
        rec = pauli_frame_decision(pc, BlochState(priors[unscathed.index(True)]))
        assert rec.report.slack.tobytes() == own.tobytes(), pc.p
        seen.update(unscathed)
    assert seen == {True, False}


def test_boundary_records_report_the_verdict_of_the_batch():
    # The channel's own slacks may sit a few 1e-16 below 0; the unscathed test
    # decides a boundary verdict, so every record still reports feasible, as
    # the batch does. This channel's slack3 is -4.4e-16 at the center.
    pc = PauliChannel(np.array([0.25241805539539025, 0.0, 0.7475819446046097, 0.0]))
    center = BlochState.maximally_mixed()
    rec = pauli_frame_decision(pc, center, 1e-16)
    assert rec.report.slack.min() < -1e-16
    assert rec.report.feasible and bayesian_inverse(pc, center, 1e-16).report.feasible
    rng = np.random.default_rng(SEED + 31)
    priors = np.vstack([np.zeros(3), 0.5 * np.eye(3), [random_bloch(rng).r for _ in range(2)]])
    for _ in range(500):
        p = np.zeros(4)
        p[rng.choice(4, size=2, replace=False)] = rng.dirichlet(np.ones(2))
        pc = PauliChannel(p)
        verdicts = pauli_frame_verdicts(pc, priors, 1e-16)[0]
        for r, verdict in zip(priors, verdicts.tolist()):
            for rec in (pauli_frame_decision(pc, BlochState(r), 1e-16),
                        bayesian_inverse(pc, BlochState(r), 1e-16)):
                assert isinstance(rec, InverseRecord) == verdict, (p, r)
                assert not verdict or rec.report.feasible, (p, r)


def test_kernel_slacks_equal_one_pair_calls(monkeypatch):
    # At 4,096 pairs a block, 1,001 priors a row put four rows in a block.
    # The 13 rows hold three boundary rows, so the interior rows
    # 1, 2, 4, 5 | 6, 7, 8, 9 | 11, 12 make a first block across a boundary
    # row and a short last block.
    rng = np.random.default_rng(SEED + 13)
    priors = np.array([random_bloch(rng).r for _ in range(1001)])
    priors[:5] = [[0.0, 0.0, 0.0], [-0.0, -0.0, -0.0], [-0.0, 0.5, 0.0],
                  [0.3, -0.0, -0.6], [0.0, 0.0, -1.0]]
    channels = [random_pauli(rng, 1e-3) for _ in range(13)]
    for i in (0, 3, 10):
        channels[i] = PauliChannel(np.array([0.25, 0.75, 0.0, 0.0]))
    monkeypatch.setattr(bayes, "_PAIR_BLOCK", 4096)
    assert bayes._PAIR_BLOCK // len(priors) == 4
    lam = np.array([pc.lam for pc in channels])
    feasible, slack, _ = bayes._verdict_rows(lam, priors.T[:, None], 1e-9)
    columns = [*range(8), 500, 998, 999, 1000]
    for i in (1, 2, 4, 5, 6, 7, 8, 9, 11, 12):
        for j in columns:
            want = analytic_inverse(channels[i], BlochState(priors[j])).report.slack
            assert slack[i, j].tobytes() == want.tobytes(), (i, j)
            assert feasible[i, j] == (want >= -1e-9).all()


def test_block_iterator_scores_every_row_in_one_workspace(monkeypatch):
    # One pass over the rows in order, three rows of 1,200 priors to a block
    # of 4,096 pairs: the boundary rows 0, 3 and 6 each lead a block of
    # interior rows, and row 9 is a short last block.
    monkeypatch.setattr(bayes, "_PAIR_BLOCK", 4096)
    rng = np.random.default_rng(SEED + 15)
    priors = np.array([random_bloch(rng).r for _ in range(1200)])
    priors[:3] = [[0.0, 0.0, 0.0], [0.7, 0.0, 0.0], [0.0, 0.4, 0.3]]
    channels = [random_pauli(rng, 1e-3) for _ in range(10)]
    for i in (0, 3, 6):
        channels[i] = PauliChannel(np.array([0.6, 0.4, 0.0, 0.0]))
    r, lam = priors.T[:, None], np.array([pc.lam for pc in channels])
    feasible, slack, _ = bayes._verdict_rows(lam, r, 1e-9)
    blocks = [
        (rows.tolist(), block_slack, block_feasible)
        for rows, block_slack, block_feasible in bayes._verdict_blocks(lam, r, 1e-9)
    ]
    # Every yielded slack is a view of the one workspace, so a block's slacks
    # are read before the next block is scored.
    workspace = blocks[0][1].base
    assert all(b[1].base is workspace for b in blocks)
    assert [b[0] for b in blocks] == [[0, 1, 2], [3, 4, 5], [6, 7, 8], [9]]
    assert [b[1].shape for b in blocks] == [(3, 3, 1200)] * 3 + [(3, 1, 1200)]
    assert [b[2].shape for b in blocks] == [(3, 1200)] * 3 + [(1, 1200)]
    # A boundary row's verdicts are its unscathed mask: the center and the sigma_1 axis.
    assert [b[2][0, :3].tolist() for b in blocks[:3]] == [[True, True, False]] * 3
    assert feasible[[0, 3, 6], :3].tolist() == [[True, True, False]] * 3
    for rows, _, block_feasible in blocks:
        assert block_feasible.tobytes() == feasible[rows].tobytes()
    # The last block's slacks are still in the workspace.
    assert blocks[-1][1].transpose(1, 2, 0).tobytes() == slack[[9]].tobytes()


def test_mixed_blocks_give_each_pair_the_verdict_of_its_own_call(monkeypatch):
    # At 4,096 pairs a block, 1,000 priors a row put four rows in a block:
    # rows 0-3 | 4-7 | 8, 9, with the boundary rows 0, 5 and 6 among
    # interior rows. Each pair must get the feasible, slack and witness of
    # its own channel's pauli_frame_verdicts call, byte for byte, whether
    # every row reads the same priors (3, 1, n) or its own (3, M, n).
    monkeypatch.setattr(bayes, "_PAIR_BLOCK", 4096)
    rng = np.random.default_rng(SEED + 23)
    channels = [random_pauli(rng, 1e-3) for _ in range(10)]
    channels[0] = PauliChannel(np.eye(4)[2])
    channels[5] = PauliChannel(np.array([0.6, 0.4, 0.0, 0.0]))
    channels[6] = PauliChannel(np.array([0.0, 0.3, 0.0, 0.7]))
    lam = np.array([pc.lam for pc in channels])
    assert np.flatnonzero(bayes._on_boundary(lam)).tolist() == [0, 5, 6]
    axes = np.vstack([np.zeros(3), 0.5 * np.eye(3)])
    shared = np.vstack([axes, [random_bloch(rng).r for _ in range(996)]])
    own = np.array([np.vstack([axes, [random_bloch(rng).r for _ in range(996)]]) for _ in lam])
    layout = [rows.tolist() for rows, _, _ in bayes._verdict_blocks(lam, shared.T[:, None], 1e-9)]
    assert layout == [[0, 1, 2, 3], [4, 5, 6, 7], [8, 9]]
    seen = set()
    runs = ((shared.T[:, None], lambda i: shared), (own.transpose(2, 0, 1), own.__getitem__))
    for r, priors_of in runs:
        columns = bayes._verdict_rows(lam, r, 1e-9)
        for i, pc in enumerate(channels):
            one = pauli_frame_verdicts(pc, priors_of(i))
            for got, want in zip(columns, one):
                assert got[i].tobytes() == want.tobytes(), (i, pc.p)
        seen.update(WITNESSES[w] for w in np.unique(columns[2]).tolist())
    assert {None, "not-unscathed"} < seen  # and some failed slack
    # A boundary row's verdicts are its unscathed mask at any tol, though
    # its slack (-1, -1, -1) passes a tol of 2.
    unscathed = bayes._verdict_rows(lam, shared.T[:, None], 1e-9)[0][[0, 5, 6]]
    assert 0 < unscathed.sum() < unscathed.size
    for tol in (1e-16, 2.0):
        feasible = bayes._verdict_rows(lam, shared.T[:, None], tol)[0]
        assert feasible[[0, 5, 6]].tobytes() == unscathed.tobytes(), tol
    # A NaN prior of a boundary row, in the block it shares with interior rows.
    bad = own.transpose(2, 0, 1).copy()
    bad[:, 5, 7] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        bayes._verdict_rows(lam, bad, 1e-9)


def test_kernel_rejects_a_non_finite_slack(monkeypatch):
    # slack < -tol is False for NaN, so a NaN prior was once feasible with NaN
    # slacks. Every block's slacks are checked before its verdicts are read.
    depolarizing = PauliChannel.depolarizing(0.3).lam[None]
    with pytest.raises(ValueError, match="non-finite slack"):
        bayes._verdict_rows(depolarizing, np.full((3, 1, 2), np.nan), 1e-9)
    # 2,000 priors a row put two rows in a block of 4,096 pairs: the NaN is
    # in the second block.
    monkeypatch.setattr(bayes, "_PAIR_BLOCK", 4096)
    priors = np.zeros((3, 3, 2000))
    priors[1, 2, 1999] = np.nan
    blocks = bayes._verdict_blocks(depolarizing.repeat(3, axis=0), priors, 1e-9)
    assert next(blocks)[0].tolist() == [0, 1]
    with pytest.raises(ValueError, match="non-finite slack"):
        next(blocks)
    with pytest.raises(ValueError, match="non-finite slack"):
        bayes._verdict_rows(depolarizing.repeat(3, axis=0), priors, 1e-9)


def test_kernel_rejects_a_non_finite_prior_on_a_boundary_row():
    # A NaN unscathed residual compares False and the slack is a finite -1,
    # so a boundary row once read a NaN prior as "not unscathed".
    boundary = PauliChannel([0.6, 0.4, 0.0, 0.0])
    assert bayes._on_boundary(boundary.lam)
    with pytest.raises(ValueError, match="non-finite"):
        bayes._verdict_rows(boundary.lam[None], np.full((3, 1, 2), np.nan), 1e-9)


def test_verdict_workspace_starts_on_a_64_byte_boundary():
    # Its register rows then suit 32-byte vector loads wherever the heap
    # placed the buffer; the blocks of scan_three_entry(8, 1000) and of the
    # 201 x 201 scans are (8, 1001) and (40, 201).
    for shape in ((bayes._WS_ROWS, 8, 1001), (bayes._WS_ROWS, 40, 201), (bayes._WS_ROWS, 1, 1)):
        for _ in range(8):
            ws = bayes._aligned_empty(shape)
            assert ws.shape == shape and ws.dtype == np.float64
            assert ws.ctypes.data % 64 == 0 and ws.flags.c_contiguous


def test_every_register_row_starts_on_a_64_byte_boundary(monkeypatch):
    # 1,001 priors at 4,096 pairs a block are blocks of 4 x 1,001 doubles,
    # not a multiple of 8, so each register row is padded; the short last
    # block keeps the padded rows.
    monkeypatch.setattr(bayes, "_PAIR_BLOCK", 4096)
    rng = np.random.default_rng(SEED + 17)
    priors = np.array([random_bloch(rng).r for _ in range(1001)]).T[:, None]
    lam = np.array([random_pauli(rng, 1e-3).lam for _ in range(6)])
    shapes = []
    for _, block_slack, _ in bayes._verdict_blocks(lam, priors, 1e-9):
        shapes.append(block_slack.shape)
        assert all(row.ctypes.data % 64 == 0 for row in block_slack)
    assert shapes == [(3, 4, 1001), (3, 2, 1001)]


def test_kernel_slack_signs_match_exact_rational_slacks():
    # The kernel's own arithmetic on Fraction registers gives the exact
    # slacks of the given floats; away from 0 every float slack has its sign.
    rng = np.random.default_rng(SEED + 31)
    pairs = [(random_pauli(rng, 1e-3), random_bloch(rng)) for _ in range(300)]
    r = np.array([s.r for _, s in pairs]).T[:, :, None]
    slack = bayes._verdict_rows(np.array([pc.lam for pc, _ in pairs]), r, 1e-9)[1][:, 0]
    for (pc, s), row in zip(pairs, slack.tolist()):
        exact = exact_slacks(pc.lam, s.r)
        for x, q in zip(row, exact):
            if abs(x) > 1e-12:
                assert (x > 0) == (q > 0), (pc.p, s.r)


def test_singular_s_is_raised_from_inside_a_multi_row_block():
    # lambda_1 = 1 - 1.2e-12 is interior, and S reaches 1 - 1e-12 on a
    # prior of length 1 + 0.9e-12, which the Bloch-ball check still admits.
    near = PauliChannel.from_lambdas(np.array([1.0 - 1.2e-12, 0.0, 0.0]))
    assert not bayes._on_boundary(near.lam)
    rng = np.random.default_rng(SEED + 14)
    priors = np.array([random_bloch(rng).r for _ in range(1001)])
    priors[500] = [1.0 + 0.9e-12, 0.0, 0.0]
    channels = [PauliChannel.depolarizing(p) for p in (0.1, 0.2, 0.3, 0.4, 0.5)]
    channels.insert(2, near)
    with pytest.raises(SingularSError):
        bayes._verdict_rows(np.array([pc.lam for pc in channels]), priors.T[:, None], 1e-9)
    with pytest.raises(SingularSError):
        pauli_frame_verdicts(near, priors)


_TOL_ENTRY_POINTS = {
    "pauli_frame_verdicts": lambda tol: pauli_frame_verdicts(
        PauliChannel.depolarizing(0.3), np.zeros((2, 3)), tol),
    "pauli_frame_decision": lambda tol: pauli_frame_decision(
        PauliChannel.depolarizing(0.3), BlochState.maximally_mixed(), tol),
    "gamel_report": lambda tol: gamel_report(PauliChannel.depolarizing(0.3).choi, 0.0, tol),
    "bayesian_inverse": lambda tol: bayesian_inverse(
        PauliChannel.depolarizing(0.3), BlochState.maximally_mixed(), tol),
    # Eigenvalues outside the CP region, a non-CP Choi matrix, a CPTP channel
    # and an unscathed prior: a NaN tol passed each of them silently.
    "PauliChannel.from_lambdas": lambda tol: PauliChannel.from_lambdas([1.0, 1.0, -1.0], tol=tol),
    "kraus_from_choi": lambda tol: kraus_from_choi(np.diag([1.0, 1.0, 1.0, -1.0]), tol),
    "is_cptp": lambda tol: is_cptp(PauliChannel.depolarizing(0.3), tol),
    "is_unscathed": lambda tol: is_unscathed(
        PauliChannel.depolarizing(0.3), BlochState.maximally_mixed(), tol),
}


@pytest.mark.parametrize("entry", _TOL_ENTRY_POINTS)
def test_entry_point_rejects_a_bad_verdict_tolerance(entry):
    # A NaN tol compares false, so no slack would count as negative.
    for tol in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="verdict tolerance"):
            _TOL_ENTRY_POINTS[entry](tol)


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


def test_inverting_the_inverse_returns_the_channel():
    # Involution: when F is the unique Bayesian inverse of E at rho, E is the
    # Bayesian inverse of F at E(rho). F is not unital, so its inverse is
    # solved from {F(E(rho)) (x) I, J[G]} = {I (x) E(rho), J[F^dag]}.
    rng = np.random.default_rng(SEED + 32)
    eye = np.eye(2)
    done = 0
    for k in range(400):
        e = random_pauli(rng, 1e-3) if k % 2 else random_unital(rng)[0]
        s = random_bloch(rng, rmax=0.95)
        rec = bayesian_inverse(e, s)
        if isinstance(rec, NoInverse) or not rec.unique:
            continue
        f = ChannelRep.from_choi(rec.choi)
        sigma = apply(e, s).matrix
        rhs = anticommutator(tensor(eye, sigma), jamiolkowski(adjoint(f)))
        g = solve_anticommutator(apply_operator(f, sigma), rhs)
        assert np.abs(g - jamiolkowski(e)).max() <= 1e-10, (k, s.r)
        done += 1
    assert done >= 100, done


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


def test_bayesian_inverse_keeps_the_frame_decision_on_pauli_channels(monkeypatch):
    decisions = []
    decide = bayes.pauli_frame_decision

    def recording(*args):
        decisions.append(decide(*args))
        return decisions[-1]

    monkeypatch.setattr(bayes, "pauli_frame_decision", recording)
    rng = np.random.default_rng(SEED + 26)
    cases = [(PauliChannel(np.array([0.8, 0.1, 0.06, 0.04])), BlochState((0.3, 0.2, -0.4))),
             (PauliChannel(np.array([0.3, 0.7, 0.0, 0.0])), BlochState((0.6, 0.0, 0.0)))]
    cases += [(random_pauli(rng, 1e-3), random_bloch(rng, 0.5)) for _ in range(20)]
    kept = 0
    for pc, s in cases:
        rec = bayesian_inverse(pc, s)
        if isinstance(rec, NoInverse):
            continue
        kept += 1
        dec = decisions[-1]
        assert rec.report is dec.report
        assert (rec.a.tobytes(), rec.S, rec.unique) == (dec.a.tobytes(), dec.S, dec.unique)
        # The frame is the identity, so the certified Choi matrix is the decision's.
        assert rec.choi.tobytes() == dec.choi.tobytes()
        assert rec.kraus and rec.residual <= 1e-9
    assert kept > 10


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


def test_rotation_path_matches_unitary_transport():
    # bayesian_inverse carries the Pauli-frame inverse back by the SVD's
    # rotations; the SU(2) route of unital_to_pauli and transport_inverse
    # must give the same channel.
    rng = np.random.default_rng(SEED + 16)
    done = 0
    while done < 200:
        rep, _, _, _ = random_unital(rng)
        s = random_bloch(rng)
        rec = bayesian_inverse(rep, s)
        if isinstance(rec, NoInverse):
            continue
        done += 1
        u, _, v = unital_to_pauli(rep)
        reference = transport_inverse(u, v, ChannelRep.from_ptm(rec.a.T))
        assert np.abs(rec.choi - reference.choi).max() < 1e-12


def test_queries_use_rotations_and_decompose_once(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("unitary route called by a query")

    rep = ChannelRep.from_ptm(random_unital(np.random.default_rng(SEED + 17))[0].ptm)
    monkeypatch.setattr(ChannelRep, "from_unitary", classmethod(forbidden))
    for module in (channels, bayes):
        for name in ("compose", "transport_inverse"):
            monkeypatch.setattr(module, name, forbidden, raising=False)
    assert not isinstance(bayesian_inverse(rep, BlochState(np.array([0.1, -0.2, 0.1]))), NoInverse)

    # One factorization of the inverse's Choi matrix (rescaled to trace 2)
    # is both the CP check and the Kraus extraction.
    calls = []

    def counting(fn):
        def wrapper(m, *args, **kwargs):
            calls.append((fn.__name__, m))
            return fn(m, *args, **kwargs)
        return wrapper

    for name in ("eigh", "eigvalsh", "eig", "eigvals"):
        monkeypatch.setattr(np.linalg, name, counting(getattr(np.linalg, name)))
    pc = PauliChannel(np.array([0.8, 0.1, 0.06, 0.04]))
    rec = bayesian_inverse(pc, BlochState((0.3, 0.2, -0.4)))
    assert not isinstance(rec, NoInverse)
    assert [name for name, _ in calls] == ["eigh"]
    assert np.abs(calls[0][1] - rec.choi).max() < 1e-15


def test_certification_failure_raises_internal_error(monkeypatch):
    # A decision whose inverse is not CP (the transpose-like map) must fail
    # certification loudly, whatever the caller's tol.
    def decision(p, s, tol):
        a = np.diag([1.0, 0.9, 0.9, -0.9])
        return InverseRecord(a=a, S=0.0, ptm=a.T, kraus=(), report=None)

    monkeypatch.setattr(bayes, "pauli_frame_decision", decision)
    for tol in (1e-12, 1e-9, 1e-3):
        with pytest.raises(InternalCPViolationError, match="not CP"):
            bayesian_inverse(PauliChannel.depolarizing(0.1), BlochState.maximally_mixed(), tol)


def test_residual_above_the_certification_tolerance_raises_internal_error(monkeypatch):
    # A CP inverse that misses the defining identity by more than max(tol, 1e-9)
    # fails certification too, and a miss within it is kept as the residual.
    pc, s = PauliChannel(np.array([0.8, 0.1, 0.06, 0.04])), BlochState((0.3, 0.2, -0.4))
    for tol in (1e-12, 1e-9, 1e-3):
        cert_tol = max(tol, 1e-9)
        monkeypatch.setattr(bayes, "bayes_residual", lambda e, s, f: 2.0 * cert_tol)
        with pytest.raises(InternalCPViolationError, match="residual"):
            bayesian_inverse(pc, s, tol)
        monkeypatch.setattr(bayes, "bayes_residual", lambda e, s, f: cert_tol)
        assert bayesian_inverse(pc, s, tol).residual == cert_tol


def _rotation(axis, angle: float) -> np.ndarray:
    """Rodrigues' rotation by angle about the unit vector along axis."""
    n = np.asarray(axis) / np.linalg.norm(axis)
    k = np.array([[0.0, -n[2], n[1]], [n[2], 0.0, -n[0]], [-n[1], n[0], 0.0]])
    return np.eye(3) + np.sin(angle) * k + (1.0 - np.cos(angle)) * (k @ k)


def _margin(out) -> float:
    """Smallest |slack| of a verdict, or 0 when it carries no slacks."""
    return 0.0 if out.report is None else float(np.abs(out.report.slack).min())


_weights = st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4).filter(lambda w: sum(w) > 0.1)
_vectors = st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3)


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(_weights, _vectors.filter(lambda a: np.linalg.norm(a) > 0.1), st.floats(0.0, 2 * np.pi),
       _vectors)
def test_rotation_covariance(weights, axis, angle, r):
    # Conjugating a Pauli channel by a rotation and rotating the prior with
    # it changes neither the verdict nor the slacks, and the inverse is the
    # Pauli channel's inverse conjugated by the same rotation.
    p = PauliChannel(np.array(weights) / sum(weights))
    r = np.array(r) / max(1.0, np.linalg.norm(r))
    o = _rotation(axis, angle)
    b = np.eye(4)
    b[1:, 1:] = o
    rotated = ChannelRep.from_ptm(b @ p.ptm @ b.T)
    ref = bayesian_inverse(p, BlochState(r))
    out = bayesian_inverse(rotated, BlochState(o @ r))
    if np.abs(p.lam).max() < 1.0 - 1e-12:
        assume(_margin(ref) > 1e-9)
    else:
        # The unscathed test decides; keep clear of its 1e-10 threshold.
        assume(np.abs(unscathed_residuals(p, BlochState(r)) - 1e-10).min() > 1e-11)
    assert type(out) is type(ref)
    if isinstance(ref, NoInverse):
        assert out.reason == ref.reason
    else:
        assert np.abs(ChannelRep.from_choi(out.choi).ptm - b @ ref.a.T @ b.T).max() < 1e-9
    if _margin(ref) > 1e-9:
        assert np.abs(out.report.slack - ref.report.slack).max() < 1e-12


_interior_weights = st.lists(st.floats(0.01, 1.0), min_size=4, max_size=4)


def _kernel_slack(p: np.ndarray, r: np.ndarray) -> np.ndarray:
    return pauli_frame_verdicts(PauliChannel(p / p.sum()), r[None])[1][0]


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(_interior_weights, _vectors, st.lists(st.sampled_from((1.0, -1.0)), min_size=3, max_size=3))
def test_kernel_slacks_do_not_change_under_prior_sign_flips(weights, r, signs):
    # Flipping r_i negates row and column i of R and entry i of v exactly,
    # and every slack term is even in those signs.
    p, r = np.array(weights), np.array(r) / max(1.0, np.linalg.norm(r))
    assert _kernel_slack(p, r * signs).tobytes() == _kernel_slack(p, r).tobytes()


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(_interior_weights, _vectors, st.permutations(range(3)))
def test_kernel_slacks_do_not_change_under_joint_axis_permutations(weights, r, perm):
    # lambda_k = 2 (p_0 + p_k) - 1, so permuting p[1:] permutes lambda.
    p, r = np.array(weights), np.array(r) / max(1.0, np.linalg.norm(r))
    permuted = _kernel_slack(np.concatenate((p[:1], p[1:][perm])), r[perm])
    assert np.abs(permuted - _kernel_slack(p, r)).max() <= 1e-12
