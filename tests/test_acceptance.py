"""End-to-end acceptance gate.

Eleven independently checkable guarantees, one test each. Every test
registers a single [PASS]/[FAIL] line naming the guarantee it certifies;
the lines are printed in an "acceptance gate" section of the terminal
summary. Tolerances are pinned here and nowhere else; loosening them is
a behavior change.
"""

import time
from contextlib import contextmanager

import conftest
import numpy as np
from conftest import random_bloch, random_pauli, random_unital
from oracles import (
    adjoint_is_inverse,
    depolarizing_quantities,
    exact_slacks,
    solve_anticommutator,
)

from qubit_retro import (
    BlochState,
    ChannelRep,
    NoInverse,
    PauliChannel,
    ScanGrid,
    analytic_inverse,
    anticommutator,
    apply,
    bayes_residual,
    bayesian_inverse,
    compose,
    is_unscathed,
    jamiolkowski,
    pauli_reconstruct,
    scan_bb84,
    scan_depolarizing,
    tensor,
    two_time_projector,
    unital_to_pauli,
)
from qubit_retro.cli import main


@contextmanager
def gate(name: str):
    try:
        yield
    except BaseException:
        conftest.ACCEPTANCE_RESULTS.append((name, False))
        raise
    conftest.ACCEPTANCE_RESULTS.append((name, True))


# === 1. Adjoint-inverse verdict agrees with the defining identity ===

def test_g01_adjoint_verdict_equals_residual_check():
    with gate("G01 adjoint-inverse verdict == identity residual on 1000 seeded pairs (< 5 s)"):
        rng = np.random.default_rng(101)
        start = time.perf_counter()
        n_true = n_false = 0
        for k in range(1000):
            mode = k % 4
            if mode == 0:
                pc, s = random_pauli(rng), random_bloch(rng)
            elif mode == 1:
                # Two nonzero entries {p_0, p_i}; state on or off the sigma_i axis.
                i = int(rng.integers(1, 4))
                p = np.zeros(4)
                p[0] = rng.uniform(0.05, 0.95)
                p[i] = 1.0 - p[0]
                pc = PauliChannel(p)
                r = np.zeros(3)
                r[i - 1] = rng.uniform(-1.0, 1.0)
                if k % 8 >= 4:  # push it off the axis half the time
                    r[i % 3] = rng.uniform(0.05, 0.5)
                    r = r / max(1.0, np.linalg.norm(r))
                s = BlochState(r)
            elif mode == 2:
                # Two nonzero entries {p_j, p_k} with j, k >= 1; complementary axis.
                j, kk = sorted(rng.choice([1, 2, 3], size=2, replace=False))
                axis = ({1, 2, 3} - {int(j), int(kk)}).pop()
                p = np.zeros(4)
                p[j] = rng.uniform(0.05, 0.95)
                p[kk] = 1.0 - p[j]
                pc = PauliChannel(p)
                r = np.zeros(3)
                r[axis - 1] = rng.uniform(-1.0, 1.0)
                s = BlochState(r)
            else:
                # Three or four nonzero entries; maximally mixed prior.
                p = rng.dirichlet(np.ones(3))
                vec = np.zeros(4)
                vec[[0, 1, 2]] = p
                pc = PauliChannel(vec) if k % 8 < 4 else random_pauli(rng)
                s = BlochState.maximally_mixed()
            verdict = adjoint_is_inverse(pc, s)
            residual_ok = bayes_residual(pc, s, pc) <= 1e-10  # Pauli maps are self-adjoint
            assert verdict == residual_ok, (pc.p, s.r)
            n_true += verdict
            n_false += not verdict
        elapsed = time.perf_counter() - start
        assert n_true >= 200 and n_false >= 200, (n_true, n_false)
        assert elapsed < 5.0, f"took {elapsed:.2f} s"


# === 2. Structural unscathed taxonomy matches the direct conjugation test ===

def _structural_unscathed(p_vec: np.ndarray, r: np.ndarray, tol: float = 1e-9) -> bool:
    """Support-pattern classification of unscathed states.

    One nonzero entry: a conjugation, so every state qualifies. Two nonzero
    entries {p_0, p_i} or {p_j, p_k}: exactly the sigma_i axis (i the named
    index, or the one missing from {j, k}). Three or more: only the
    maximally mixed state.
    """
    support = np.flatnonzero(p_vec > tol)
    if support.size == 1:
        return True
    if support.size == 2:
        if support[0] == 0:
            axis = int(support[1])
        else:
            axis = ({1, 2, 3} - {int(support[0]), int(support[1])}).pop()
        return max(abs(r[m]) for m in range(3) if m != axis - 1) <= tol
    return bool(np.linalg.norm(r) <= tol)


def test_g02_unscathed_taxonomy_matches_direct_test():
    with gate("G02 support-pattern unscathed classifier == conjugation test on 81 x 125 cases"):
        weights = []
        for raw in np.ndindex(3, 3, 3, 3):
            if any(raw):
                weights.append(np.array(raw, dtype=float))
        weights.append(np.array([3.0, 1.0, 1.0, 1.0]))
        assert len(weights) == 81
        channels = [PauliChannel(w / w.sum()) for w in weights]
        sizes = {np.count_nonzero(pc.p > 1e-9) for pc in channels}
        assert sizes == {1, 2, 3, 4}

        states = []
        for radius in (0.0, 0.25, 0.5, 0.75, 1.0):
            for theta in np.linspace(0.0, np.pi, 5):
                for phi in (0.0, np.pi / 2, np.pi, 3 * np.pi / 2, np.pi / 4):
                    states.append(
                        BlochState(
                            radius
                            * np.array(
                                [
                                    np.sin(theta) * np.cos(phi),
                                    np.sin(theta) * np.sin(phi),
                                    np.cos(theta),
                                ]
                            )
                        )
                    )
        assert len(states) == 125

        for pc in channels:
            for s in states:
                direct = is_unscathed(pc, s) is not None
                structural = _structural_unscathed(pc.p, s.r)
                assert direct == structural, (pc.p, s.r)


# === 3. Two-entry channels invert exactly on their axis and nowhere else ===

def test_g03_two_entry_channels_axis_only():
    with gate("G03 (q,1-q,0,0) channels: 9 x 21 axis states invert, 9 x 100 off-axis do not"):
        rng = np.random.default_rng(103)
        for q in np.linspace(0.1, 0.9, 9):
            pc = PauliChannel(np.array([q, 1.0 - q, 0.0, 0.0]))
            for r1 in np.linspace(-1.0, 1.0, 21):
                out = bayesian_inverse(pc, BlochState(np.array([r1, 0.0, 0.0])))
                assert not isinstance(out, NoInverse), (q, r1)
                assert out.residual <= 1e-10, (q, r1, out.residual)
            for _ in range(100):
                while True:
                    s = random_bloch(rng)
                    if np.hypot(s.r[1], s.r[2]) > 0.01:
                        break
                out = bayesian_inverse(pc, s)
                assert isinstance(out, NoInverse), (q, s.r)


# === 4. Depolarizing feasibility region at full resolution ===

def test_g04_depolarizing_region_caption_facts():
    with gate(
        "G04 depolarizing 201x201: p=0, p=0.75 columns and t=0 row feasible; "
        "interior columns mixed (< 30 s)"
    ):
        start = time.perf_counter()
        result = scan_depolarizing(ScanGrid.uniform(201))
        elapsed = time.perf_counter() - start
        assert len(result) == 201 * 201
        # Row k of the row-major feasible column, reshaped, is p = p_axis[k].
        columns = result.feasible.reshape(201, 201)
        p_axis = np.linspace(0.0, 1.0, 201)

        assert columns[0].all()                               # p = 0 (identity)
        assert columns[150].all()                             # p = 0.75 (lambda = 0)
        assert columns[:, 0].all()                            # t = 0 row
        for k in range(1, 150):
            count = int(columns[k].sum())
            assert 0 < count < 201, (p_axis[k], count)
        assert elapsed < 30.0, f"took {elapsed:.2f} s"


# === 5. Intercept-resend feasibility region is mirror symmetric ===

def test_g05_bb84_region_caption_facts():
    with gate("G05 bb84 201x201: verdicts mirror under p <-> 1-p; p in {0, 0.5, 1} feasible"):
        result = scan_bb84(ScanGrid.uniform(201, direction=np.ones(3) / np.sqrt(3.0)))
        columns = result.feasible.reshape(201, 201)
        for k in range(201):
            assert np.array_equal(columns[k], columns[200 - k]), k
        for k in (0, 100, 200):
            assert columns[k].all(), k


# === 6. Closed-form feasibility scalars match the matrix pipeline ===

def test_g06_depolarizing_closed_forms():
    with gate("G06 depolarizing closed forms == matrix pipeline on 1000 samples (1e-10)"):
        rng = np.random.default_rng(106)
        for _ in range(1000):
            lam = float(rng.uniform(-1.0 / 3.0 + 1e-6, 1.0 - 1e-6))
            t = float(rng.uniform(0.0, 1.0))
            pc = PauliChannel.from_lambdas([lam, lam, lam])
            s = BlochState(np.array([np.sqrt(t), 0.0, 0.0]))
            report = analytic_inverse(pc, s).report
            q = depolarizing_quantities(lam, t)
            assert abs(q.norm_v2 - float(report.v @ report.v)) <= 1e-10
            assert abs(q.norm_R2 - float((report.R * report.R).sum())) <= 1e-10
            assert abs(q.norm_Rv2 - report.normRv2) <= 1e-10
            assert abs(q.detR - report.detR) <= 1e-10
            assert abs(q.norm_adjR2 - report.normAdjR2) <= 1e-10


# === 7. Scalar feasibility verdicts match the Choi spectrum ===

def test_g07_feasibility_matches_choi_spectrum():
    with gate("G07 slack verdicts == Choi min-eigenvalue sign on 10000 queries (1e-8 band), "
              "== exact slack signs within 1e-3"):
        rng = np.random.default_rng(107)
        skipped = near = 0
        for _ in range(10000):
            pc = random_pauli(rng, 1e-6)
            s = random_bloch(rng)
            rec = analytic_inverse(pc, s)
            min_eig = float(np.linalg.eigvalsh(rec.choi)[0])
            if abs(min_eig) <= 1e-3:
                # Near the boundary, and in the 1e-8 band where the spectrum
                # cannot tell, the exact slacks of the same floats give the
                # sign of every float slack that is not ~0.
                near += 1
                for x, q in zip(rec.report.slack.tolist(), exact_slacks(pc.lam, s.r)):
                    if abs(x) > 1e-12:
                        assert (x > 0) == (q > 0), (pc.p, s.r, x)
            if abs(min_eig) <= 1e-8:
                skipped += 1
                continue
            assert rec.report.feasible == (min_eig > 0.0), (pc.p, s.r, min_eig)
        assert skipped < 100, skipped
        assert near > 0


# === 8. Constructed inverses reverse two-time expectations ===

def test_g08_two_time_symmetry_end_to_end():
    with gate("G08 two-time expectations reverse under the inverse: 500 successes (1e-9)"):
        rng = np.random.default_rng(108)
        done = 0
        attempts = 0
        while done < 500:
            attempts += 1
            assert attempts < 20000
            if attempts % 3:
                e = random_pauli(rng, 1e-4)
            else:
                e, _, _, _ = random_unital(rng)
            s = random_bloch(rng)
            out = bayesian_inverse(e, s)
            if isinstance(out, NoInverse):
                continue
            done += 1
            f = ChannelRep.from_choi(out.choi)
            pushed = apply(e, s)
            worst = 0.0
            for i in (1, 2, 3):
                for j in (1, 2, 3):
                    forward = two_time_projector(e, s, i, j)
                    backward = two_time_projector(f, pushed, j, i)
                    worst = max(worst, abs(forward - backward))
            assert worst <= 1e-9, worst


# === 9. General unital channels: factor, invert, transport back ===

def test_g09_unital_factor_invert_transport():
    with gate("G09 200 unital channels: factor residual and transported inverse both <= 1e-9"):
        rng = np.random.default_rng(109)
        for _ in range(200):
            rep, _, _, _ = random_unital(rng)
            u, pc, v = unital_to_pauli(rep)
            rebuilt = compose(
                ChannelRep.from_unitary(u),
                compose(ChannelRep.from_pauli(pc), ChannelRep.from_unitary(v)),
            )
            assert np.abs(rebuilt.ptm - rep.ptm).max() <= 1e-9
            while True:
                s = random_bloch(rng)
                out = bayesian_inverse(rep, s)
                if not isinstance(out, NoInverse):
                    break
            assert out.residual <= 1e-9
            assert bayes_residual(rep, s, ChannelRep.from_choi(out.choi)) <= 1e-9


# === 10. The linear-algebra route lands on the analytic operator ===

def test_g10_solver_equals_analytic_operator():
    with gate("G10 anticommutator solver == closed-form operator on 200 full-rank cases (1e-10)"):
        rng = np.random.default_rng(110)
        eye = np.eye(2)
        for _ in range(200):
            pc = random_pauli(rng, 1e-3)
            s = random_bloch(rng, rmax=0.95)
            rec = analytic_inverse(pc, s)
            mass = apply(pc, s).matrix
            rhs = anticommutator(tensor(eye, s.matrix), jamiolkowski(pc))
            x = solve_anticommutator(mass, rhs)
            assert np.abs(x - pauli_reconstruct(rec.a / 2.0)).max() <= 1e-10


# === 11. Scans are reproducible byte for byte ===

def test_g11_scan_rerun_is_byte_identical(tmp_path):
    with gate("G11 scan rerun with identical flags produces byte-identical CSV"):
        out1, out2 = tmp_path / "first", tmp_path / "second"
        args = ["scan", "--family", "depolarizing", "--resolution", "61"]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        first = (out1 / "depolarizing_61.csv").read_bytes()
        second = (out2 / "depolarizing_61.csv").read_bytes()
        assert first == second
        assert len(first.splitlines()) == 61 * 61 + 1
