"""Feasibility-region sweeps, boundary location, and file exports."""

import tracemalloc
import warnings
import xml.etree.ElementTree as ET

import numpy as np
import oracles
import pytest
from conftest import scalar_verdict
from oracles import bisection_chi, channel_verdicts, depolarizing_quantities

from qubit_retro import (
    BlochState,
    MonotonicityWarning,
    PauliChannel,
    ScanGrid,
    ScanResult,
    analytic_inverse,
    bb84_channel,
    boundary_chi,
    depolarizing_lambda,
    emit_csv,
    emit_svg,
    scan_bb84,
    scan_depolarizing,
    scan_three_entry,
)
from qubit_retro import bayes, cli, scans
from qubit_retro.channels import _lambda_rows

SEED = 20260825


# === Grid and family definitions ===

def test_scan_grid_validation():
    with pytest.raises(ValueError):
        ScanGrid.uniform(1)
    with pytest.raises(ValueError):
        ScanGrid(p_axis=[0.0, 1.0], t_axis=[0.5, 0.5], direction=(1.0, 0.0, 0.0))
    with pytest.raises(ValueError):
        ScanGrid(p_axis=[0.0, 1.5], t_axis=[0.0, 1.0], direction=(1.0, 0.0, 0.0))
    with pytest.raises(ValueError):
        ScanGrid(p_axis=[0.0, 1.0], t_axis=[0.0, 1.0], direction=(1.0, 1.0, 0.0))
    # NaN compares false both ways, so it must not slip through the ordering test.
    for axis in ([0.0, np.nan, 1.0], [np.nan, 0.5]):
        with pytest.raises(ValueError, match="strictly increasing"):
            ScanGrid(p_axis=axis, t_axis=[0.0, 1.0], direction=(1.0, 0.0, 0.0))
        with pytest.raises(ValueError, match="strictly increasing"):
            ScanGrid(p_axis=[0.0, 1.0], t_axis=axis, direction=(1.0, 0.0, 0.0))


def test_scan_grid_keeps_its_own_copy_of_the_callers_arrays():
    axis = np.linspace(0.0, 1.0, 5)
    direction = np.array([1.0, 0.0, 0.0])
    grid = ScanGrid(axis, axis, direction)
    axis[1] = 0.95
    direction[:] = (0.0, 0.0, 5.0)
    assert grid.p_axis.tolist() == grid.t_axis.tolist() == [0.0, 0.25, 0.5, 0.75, 1.0]
    assert grid.direction.tolist() == [1.0, 0.0, 0.0]
    for name in ("p_axis", "t_axis", "direction"):
        assert not getattr(grid, name).flags.writeable
    assert scan_depolarizing(grid).feasible.tolist() == scan_depolarizing(
        ScanGrid.uniform(5)).feasible.tolist()


def test_depolarizing_lambda_values():
    assert depolarizing_lambda(0.0) == 1.0
    assert abs(depolarizing_lambda(0.75)) < 1e-15
    assert abs(depolarizing_lambda(1.0) + 1.0 / 3.0) < 1e-15


def test_bb84_channel_structure():
    assert np.abs(bb84_channel(0.0).p - np.array([1.0, 0.0, 0.0, 0.0])).max() < 1e-15
    pc = bb84_channel(0.3)
    assert abs(pc.p.sum() - 1.0) < 1e-12
    lam = pc.lam
    assert abs(lam[0] - 0.4) < 1e-12          # 1 - 2p
    assert abs(lam[1] - 0.16) < 1e-12         # (1 - 2p)^2
    assert abs(lam[2] - 0.4) < 1e-12
    with pytest.raises(ValueError):
        bb84_channel(1.2)


# === Closed forms ===

def test_depolarizing_quantities_at_central_state():
    for lam in (-0.3, 0.0, 0.4, 0.9):
        q = depolarizing_quantities(lam, 0.0)
        assert abs(q.norm_v2) < 1e-15
        assert abs(q.norm_R2 - 3.0 * lam**2) < 1e-13
        assert abs(q.norm_Rv2) < 1e-15
        assert abs(q.detR + lam**3) < 1e-13
        assert abs(q.norm_adjR2 - 3.0 * lam**4) < 1e-13


def test_depolarizing_quantities_match_matrix_pipeline():
    rng = np.random.default_rng(SEED)
    for _ in range(100):
        lam = float(rng.uniform(-1.0 / 3.0 + 1e-3, 1.0 - 1e-3))
        t = float(rng.uniform(0.0, 1.0))
        pc = PauliChannel.from_lambdas([lam, lam, lam])
        s = BlochState(np.array([np.sqrt(t), 0.0, 0.0]))
        report = analytic_inverse(pc, s).report
        q = depolarizing_quantities(lam, t)
        assert abs(q.norm_v2 - report.v @ report.v) < 1e-10
        assert abs(q.norm_R2 - (report.R * report.R).sum()) < 1e-10
        assert abs(q.norm_Rv2 - report.normRv2) < 1e-10
        assert abs(q.detR - report.detR) < 1e-10
        assert abs(q.norm_adjR2 - report.normAdjR2) < 1e-10


# === Region scans ===

def test_depolarizing_scan_small_grid():
    result = scan_depolarizing(ScanGrid.uniform(21))
    assert len(result) == 441
    # Cells are row-major: row k of the (p, t) reshape is p = p_axis[k].
    feasible = result.feasible.reshape(21, 21)
    assert feasible[0].all()        # identity column, p = 0
    assert feasible[15].all()       # lambda = 0 column, p = 0.75
    assert feasible[:, 0].all()     # central-state row, t = 0


def test_depolarizing_scan_columns_are_monotone_in_t():
    feasible = scan_depolarizing(ScanGrid.uniform(21)).feasible.reshape(21, 21)
    # Once infeasible, a column never becomes feasible again.
    assert (np.diff(feasible.astype(int), axis=1) <= 0).all()


def test_bb84_scan_mirror_symmetry():
    result = scan_bb84(ScanGrid.uniform(21, direction=np.ones(3) / np.sqrt(3.0)))
    feasible = result.feasible.reshape(21, 21)
    slack = result.slack.reshape(21, 21, 3)
    # p_axis[20 - k] = 1 - p_axis[k]: the mirror reverses the p rows.
    assert np.array_equal(feasible, feasible[::-1])
    assert np.abs(slack - slack[::-1]).max() < 1e-9


def test_scans_match_scalar_decision_cell_by_cell():
    # Resolution 21 includes the boundary rows p = 0 (both families) and p = 1 (bb84).
    families = (
        (scan_depolarizing, PauliChannel.depolarizing, (1.0, 0.0, 0.0)),
        (scan_bb84, bb84_channel, np.ones(3) / np.sqrt(3.0)),
    )
    for scan, channel_of, direction in families:
        grid = ScanGrid.uniform(21, direction=direction)
        result = scan(grid)
        for k in range(len(result)):
            p, t = float(grid.p_axis[k // 21]), float(grid.t_axis[k % 21])
            feasible, slack = scalar_verdict(channel_of(p), BlochState(np.sqrt(t) * grid.direction))
            assert result.feasible[k] == feasible, (p, t)
            assert np.abs(result.slack[k] - slack).max() <= 1e-12, (p, t)


def _reasons_seen(lam, feasible, slack, tol=1e-9):
    """Check that each (M, n) verdict's slacks say why; name the kinds of row and verdict seen."""
    boundary = bayes._on_boundary(lam)
    inner, inner_slack = feasible[~boundary], slack[~boundary]
    assert (inner_slack[~inner] < -tol).any(axis=-1).all()
    assert (inner_slack[inner] >= -tol).all()
    assert (slack[boundary][~feasible[boundary]] == -1.0).all()
    kinds = (("interior feasible", inner.any()), ("interior infeasible", not inner.all()),
             ("boundary infeasible", not feasible[boundary].all()))
    return {name for name, hit in kinds if hit}


def test_slack_column_carries_the_reason_of_each_verdict():
    # A scan keeps no reason column: an infeasible interior cell has some
    # slack below -tol, a feasible one has none, and an infeasible cell of
    # a boundary row (a prior that is not unscathed) has slack (-1, -1, -1).
    seen = set()
    for family, scan in (("depolarizing", scan_depolarizing), ("bb84", scan_bb84)):
        probs_of, direction = scans._FAMILIES[family]
        grid = ScanGrid.uniform(51, direction=direction)
        result = scan(grid)
        lam = _lambda_rows(probs_of(grid.p_axis))
        seen |= _reasons_seen(lam, result.feasible.reshape(51, 51), result.slack.reshape(51, 51, 3))
    # The families' boundary channels are Pauli unitaries, which leave every
    # prior unscathed; a two-entry channel in the last grid's batch does not.
    assert seen == {"interior feasible", "interior infeasible"}
    lam = np.vstack([lam, PauliChannel([0.6, 0.4, 0.0, 0.0]).lam])
    r = grid.direction[:, None, None] * np.sqrt(grid.t_axis)
    assert len(_reasons_seen(lam, *bayes._verdict_rows(lam, r, 1e-9))) == 3


def _row_by_row(grid, channel_of, tol=1e-9):
    """Scan columns from one channel_verdicts call per grid row."""
    priors = np.sqrt(grid.t_axis)[:, None] * grid.direction
    rows = [channel_verdicts(channel_of(float(p)), priors, tol) for p in grid.p_axis]
    return [np.concatenate([row[k] for row in rows]) for k in range(2)]


@pytest.mark.parametrize(
    "scan, channel_of, grid",
    [
        (scan_depolarizing, PauliChannel.depolarizing, ScanGrid.uniform(201)),
        (scan_bb84, bb84_channel, ScanGrid.uniform(201, direction=np.ones(3) / np.sqrt(3.0))),
        # 300 priors per row: 27 rows per block, and 48 interior rows leave a short last block.
        (
            scan_bb84,
            bb84_channel,
            ScanGrid(np.linspace(0.0, 1.0, 50), np.linspace(0.0, 1.0, 300), (0.0, 0.6, 0.8)),
        ),
        # 2,001 priors per row, four rows to a block. A row longer than a
        # block is checked at width 1 by test_verdicts_do_not_depend_on_the_block_width.
        (
            scan_depolarizing,
            PauliChannel.depolarizing,
            ScanGrid(np.linspace(0.0, 1.0, 5), np.linspace(0.0, 1.0, 2001), (0.0, 0.0, 1.0)),
        ),
    ],
    ids=["depolarizing-201", "bb84-201", "bb84-50x300", "depolarizing-5x2001"],
)
def test_blocked_scan_equals_row_by_row_verdicts(scan, channel_of, grid):
    result = scan(grid)
    feasible, slack = _row_by_row(grid, channel_of)
    assert result.feasible.tobytes() == feasible.tobytes()
    assert result.slack.tobytes() == slack.tobytes()


def _counting(calls, fn):
    def wrapper(*args, **kwargs):
        calls.append(1)
        return fn(*args, **kwargs)

    return wrapper


def test_scan_scores_interior_rows_in_blocks(monkeypatch):
    # Each block of rows, boundary rows among them, runs the two segments
    # of the verdict program once: S, then v, R and the slacks. A boundary
    # row is scored in the same segments, as the candidate at r = 0, with no
    # gamel_report, no Choi matrix and no call of the formulas on floats.
    bayes._program()
    runs, formulas, choi_reports = [], [], []
    monkeypatch.setattr(bayes, "_run", _counting(runs, bayes._run))
    monkeypatch.setattr(bayes, "_candidate", _counting(formulas, bayes._candidate))
    monkeypatch.setattr(bayes, "_slacks", _counting(formulas, bayes._slacks))
    monkeypatch.setattr(bayes, "gamel_report", _counting(choi_reports, bayes.gamel_report))
    scan_depolarizing(ScanGrid.uniform(201))
    # 201 rows at 40 rows per block, the last block short; the identity row
    # p = 0 leads the first block.
    assert (len(runs), len(formulas), len(choi_reports)) == (6 * 2, 0, 0)
    for calls in (runs, formulas, choi_reports):
        calls.clear()
    scan_bb84(ScanGrid.uniform(201, direction=np.ones(3) / np.sqrt(3.0)))
    # The same six blocks; p = 0 and p = 1 are boundary channels.
    assert (len(runs), len(formulas), len(choi_reports)) == (6 * 2, 0, 0)


def test_verdicts_do_not_depend_on_the_block_width(monkeypatch):
    # Every register operation is elementwise per pair, so no verdict byte
    # moves with the width: a row per block (1), several rows (1001 to 8192)
    # or every row in one block (1 << 20). At 3000 and 4096 a full block of
    # 201 or 1,001 priors is k n doubles with k n not a multiple of 8, so
    # its register rows are padded.
    for width, n in ((3000, 201), (3000, 1001), (4096, 201), (4096, 1001)):
        assert (width // n) * n % 8 != 0
    grids = {
        scan_depolarizing: ScanGrid.uniform(201),
        scan_bb84: ScanGrid.uniform(201, direction=np.ones(3) / np.sqrt(3.0)),
    }
    runs = {}
    for width in (1, 1001, 3000, 4096, 8192, 1 << 20):
        monkeypatch.setattr(bayes, "_PAIR_BLOCK", width)
        columns = [
            getattr(result, name).tobytes()
            for result in (scan(grid) for scan, grid in grids.items())
            for name in ("feasible", "slack")
        ]
        runs[width] = (columns, scan_three_entry(8, 1000))
    assert all(run == runs[8192] for run in runs.values())


def test_region_scans_read_lambda_without_channel_objects(monkeypatch):
    # Each family's probability rows give the lambda of its channel bit for
    # bit, on the scan axes and on random p.
    p = np.concatenate([np.linspace(0.0, 1.0, n) for n in (201, 21, 11)]
                       + [np.random.default_rng(SEED).uniform(size=20000)])
    for family, channel_of in (("depolarizing", PauliChannel.depolarizing),
                               ("bb84", bb84_channel)):
        want = np.array([channel_of(q).lam for q in p.tolist()])
        got = _lambda_rows(scans._FAMILIES[family][0](p))
        assert got.tobytes() == want.tobytes(), family
    # Random simplex rows with one or two zero entries, as the three-entry
    # search reads.
    rng = np.random.default_rng(SEED + 3)
    probs = rng.dirichlet(np.ones(4), size=6000)
    rows = np.arange(len(probs))
    probs[rows, rng.integers(0, 4, len(probs))] = 0.0
    probs[rows[::2], rng.integers(0, 4, len(probs))[::2]] = 0.0
    probs /= probs.sum(axis=1, keepdims=True)
    assert ((probs == 0.0).sum(axis=1) >= 1).all()
    want = np.array([PauliChannel(row).lam for row in probs])
    assert _lambda_rows(probs).tobytes() == want.tobytes()
    built = []
    monkeypatch.setattr(PauliChannel, "__post_init__", _counting(built, PauliChannel.__post_init__))
    scan_depolarizing(ScanGrid.uniform(201))
    scan_bb84(ScanGrid.uniform(201, direction=np.ones(3) / np.sqrt(3.0)))
    for family in ("depolarizing", "bb84"):
        boundary_chi(np.linspace(0.0, 1.0, 11), family=family)
    assert built == []


def test_scan_result_rejects_non_finite_slack_and_bad_shapes():
    grid = ScanGrid.uniform(3)
    good = scan_depolarizing(grid)
    assert not good.slack.flags.writeable
    for value in (np.nan, np.inf):
        slack = good.slack.copy()
        slack[4, 1] = value
        with pytest.raises(ValueError):
            ScanResult(grid, good.feasible, slack)
    with pytest.raises(ValueError):
        ScanResult(grid, good.feasible[:-1], good.slack)


def test_scan_result_copies_only_columns_a_caller_can_write():
    grid = ScanGrid.uniform(3)
    good = scan_depolarizing(grid)
    # A scan's own columns are frozen, so a result keeps them as they are.
    kept = ScanResult(grid, good.feasible, good.slack)
    assert all(getattr(kept, n) is getattr(good, n) for n in ("feasible", "slack"))
    # A writeable array, or a read-only view of one, is copied: writing it changes no result.
    slack = good.slack.copy()
    view = slack[:]
    view.flags.writeable = False
    copied = [ScanResult(grid, good.feasible, col) for col in (slack, view)]
    slack[0, 0] += 1.0
    for result in copied:
        assert not result.slack.flags.writeable
        assert np.array_equal(result.slack, good.slack)


# === Boundary location ===

def test_boundary_chi_edge_cases():
    assert boundary_chi(0.0) == 1.0
    assert boundary_chi(0.75) == 1.0


def test_boundary_chi_rejects_non_positive_or_non_finite_tol():
    # tol is the verdict tolerance of a region scan, checked the same way.
    for tol in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="tolerance"):
            boundary_chi(0.5, tol)


@pytest.mark.parametrize(
    "family, direction",
    [("depolarizing", None), ("bb84", None), ("bb84", (0.0, 0.6, 0.8))],
)
def test_boundary_chi_sequence_equals_scalar_calls(family, direction):
    p_values = np.linspace(0.0, 1.0, 101)
    batch = boundary_chi(p_values, family=family, direction=direction)
    single = [boundary_chi(float(p), family=family, direction=direction) for p in p_values]
    assert isinstance(batch, list) and all(type(chi) is float for chi in batch)
    assert np.array(batch).tobytes() == np.array(single).tobytes()
    assert type(boundary_chi(0.3, family=family, direction=direction)) is float


def test_boundary_chi_empty_and_bad_sequences(monkeypatch):
    assert boundary_chi([]) == []
    with pytest.raises(ValueError):
        boundary_chi([[0.1, 0.2]])
    for family in ("depolarizing", "bb84"):
        for p in (-0.1, 1.1, np.nan, [0.5, 1.5]):
            with pytest.raises(ValueError, match=r"p must lie in \[0, 1\]"):
                boundary_chi(p, family=family)

    def no_verdicts(*args, **kwargs):
        raise AssertionError("a verdict was made before tol was checked")

    monkeypatch.setattr(scans, "_verdict_rows", no_verdicts)
    for tol in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="tolerance"):
            boundary_chi([0.1, 0.5], tol)


def test_boundary_chi_warns_once_per_non_monotone_p(monkeypatch):
    zigzag = {0.2, 0.4}

    def fake_verdicts(lam, r, tol):
        # (slack_k + tol) D^(k + 2) is 1 for every k, except that the first
        # is (t - 0.3)(t - 0.6) for the zigzag p: feasible on [0, 0.3] and
        # again on [0.6, 1]. A depolarizing row has lambda_1 = 1 - 4p/3.
        r = np.broadcast_to(r, (3, len(lam), r.shape[-1]))
        t = (r * r).sum(axis=0)
        D = 1.0 - (lam.T[:, :, None] ** 2 * r * r).sum(axis=0)
        poly = np.ones(t.shape + (3,))
        for i, row in enumerate(lam):
            if round(0.75 * (1.0 - row[0]), 12) in zigzag:
                poly[i, :, 0] = (t[i] - 0.3) * (t[i] - 0.6)
        slack = poly / D[..., None] ** np.arange(2, 5) - tol
        return ~(slack < -tol).any(axis=-1), slack

    monkeypatch.setattr(scans, "_verdict_rows", fake_verdicts)
    with pytest.warns(MonotonicityWarning) as record:
        chi = boundary_chi([0.1, 0.2, 0.3, 0.4])
    assert len(record) == 2
    assert ["p = 0.2" in str(w.message) for w in record] == [True, False]
    assert ["p = 0.4" in str(w.message) for w in record] == [False, True]
    # Monotone p keep the all-feasible answer; the others the end of the
    # first feasible interval.
    assert chi[0] == chi[2] == 1.0
    assert chi[1] == pytest.approx(0.3, abs=1e-12)
    assert chi[3] == pytest.approx(0.3, abs=1e-12)


@pytest.mark.parametrize(
    "family, direction",
    [("depolarizing", None), ("bb84", None), ("bb84", (0.0, 0.6, 0.8))],
)
def test_boundary_chi_matches_bisection_oracle(family, direction):
    p_values = np.linspace(0.0, 1.0, 41)
    chi = np.array(boundary_chi(p_values, family=family, direction=direction))
    for width, bound in ((1e-12, 1e-10), (1e-6, 5e-7)):
        oracle = bisection_chi(p_values, width, family=family, direction=direction)
        assert np.abs(chi - oracle).max() <= bound, width


def test_five_node_polynomials_match_ray_slacks():
    # Along r = sqrt(t) d, slack_k D^(k + 2) is a polynomial of degree
    # k + 2 <= 4 in t, so its values at the five nodes give it everywhere.
    rng = np.random.default_rng(SEED)
    lam = np.array([PauliChannel(rng.dirichlet(np.ones(4))).lam for _ in range(300)])
    d = rng.normal(size=(3, 300, 1))
    d /= np.linalg.norm(d, axis=0)
    s_unit = (lam.T[:, :, None] ** 2 * d * d).sum(axis=0)

    def scaled_slacks(t):
        slack = bayes._verdict_rows(lam, d * np.sqrt(t), 1e-9)[1]
        return slack * (1.0 - s_unit * t)[..., None] ** np.arange(2, 5)

    fit = np.linalg.inv(np.vander(scans._CHI_NODES, increasing=True))
    coef = np.einsum("ij,mjk->mik", fit, scaled_slacks(scans._CHI_NODES))
    t = np.linspace(0.0, 1.0, 201)
    fitted = sum(coef[:, j, None] * t[:, None] ** j for j in range(5))
    assert np.abs(fitted - scaled_slacks(t)).max() <= 1e-10


def _polynomials(degree: int, rng) -> np.ndarray:
    """Coefficient rows of one degree: real, complex and zero roots, a zero lead, and random rows."""
    real = np.poly(rng.uniform(-1.0, 2.0, degree))
    pair = np.poly([0.3 + 0.4j, 0.3 - 0.4j, *rng.uniform(0.0, 1.0, degree - 2)]).real
    at_zero = np.poly([0.0, *rng.uniform(0.0, 1.0, degree - 1)])
    lower = np.concatenate([[0.0], np.poly(rng.uniform(0.0, 1.0, degree - 1))])
    both = np.concatenate([[0.0], np.poly([0.0, *rng.uniform(0.0, 1.0, degree - 2)])])
    rows = np.vstack([real, pair, at_zero, lower, both, np.zeros(degree + 1)])
    return np.vstack([rows, rng.normal(size=(40, degree + 1))])


@pytest.mark.parametrize("degree", [2, 3, 4])
def test_batched_roots_equal_np_roots_row_by_row(degree):
    # The rows whose leading and constant coefficients are nonzero share one
    # eigvals call; their roots must be np.roots's own, bit for bit.
    coef = _polynomials(degree, np.random.default_rng(SEED + degree))
    got, want = scans._poly_roots(coef), oracles.roots_by_row(coef)
    assert got.shape == want.shape == (len(coef), degree)
    assert got.tobytes() == want.tobytes()
    # Each kind of row is there: complex roots, a root at 0, a lower degree.
    assert (np.abs(want.imag) > 0.1).any(axis=1)[1]
    assert (want[2] == 0.0).sum() == 1
    assert len(np.roots(coef[3])) == degree - 1


@pytest.mark.parametrize("family", list(scans._FAMILIES))
def test_boundary_chi_equals_the_per_row_roots_reference(family, monkeypatch):
    p = np.linspace(0.0, 1.0, 201)
    chi = boundary_chi(p, family=family)
    monkeypatch.setattr(scans, "_poly_roots", oracles.roots_by_row)
    want = boundary_chi(p, family=family)
    assert np.array(chi).tobytes() == np.array(want).tobytes()


def test_boundary_chi_matches_closed_form_root():
    # The binding constraint for the depolarizing family is the third slack;
    # chi is its root in t, cross-checked here by direct slack evaluation.
    p = 0.3
    lam = depolarizing_lambda(p)
    chi = boundary_chi(p, tol=1e-10)
    assert 0.0 < chi < 1.0

    def third_slack(t: float) -> float:
        q = depolarizing_quantities(lam, t)
        eta = q.norm_v2 + q.norm_R2
        return (eta - 1.0) ** 2 - 8.0 * q.detR - 4.0 * (q.norm_Rv2 + q.norm_adjR2)

    assert abs(third_slack(chi)) < 1e-6
    assert third_slack(chi - 1e-4) > 0.0 > third_slack(chi + 1e-4)


def test_boundary_chi_bb84_family():
    chi_low = boundary_chi(0.05, family="bb84")
    chi_mirror = boundary_chi(0.95, family="bb84")
    assert abs(chi_low - chi_mirror) < 1e-5
    assert boundary_chi(0.5, family="bb84") == 1.0  # lambda = 0: all priors work


def test_boundary_chi_on_a_boundary_channel(monkeypatch):
    # A bit flip keeps lambda_1 = 1: a prior off the x axis is feasible only
    # while sqrt(t) times its least unscathed residual is at most 1e-10.
    def flip(p):
        return np.stack([1.0 - p, p, 0.0 * p, 0.0 * p], axis=-1)

    monkeypatch.setitem(scans._FAMILIES, "flip", (flip, None))
    d = np.array([0.0, 0.6, 0.8])
    chi = boundary_chi([0.0, 0.3], family="flip", direction=d)
    assert chi[0] == 1.0 and 0.0 < chi[1] < 1e-18
    r = d[:, None, None] * np.sqrt([chi[1] * (1.0 - 1e-9), chi[1] * (1.0 + 1e-6)])
    lam = PauliChannel(flip(0.3)).lam[None]
    assert bayes._verdict_rows(lam, r, 1e-9)[0].tolist() == [[True, False]]


def test_boundary_chi_rejects_unknown_family():
    with pytest.raises(ValueError):
        boundary_chi(0.3, family="bell")


# === Three-entry search ===

def test_three_entry_search_counts_and_determinism():
    first = scan_three_entry(resolution=5, samples=50, seed=3)
    second = scan_three_entry(resolution=5, samples=50, seed=3)
    assert first == second
    # 4 supports x 6 interior compositions of 5 into three positive parts.
    assert first.channels == 24
    assert first.queries == 24 * 50
    assert first.mu_feasible == first.channels
    assert first.hits == first.hits_confirmed == 0
    assert first.examples == ()


def test_three_entry_scores_each_channel_in_one_kernel_call(monkeypatch):
    runs, passes, blocks = [], [], []

    def kernel(lam, r, tol):
        passes.append((lam.shape, r.shape))
        for block in bayes._verdict_blocks(lam, r, tol):
            blocks.append(len(block[0]))
            yield block

    def no_rows(*args):
        raise AssertionError("the search reads blocks, not assembled rows")

    monkeypatch.setattr(bayes, "_run", _counting(runs, bayes._run))
    monkeypatch.setattr(scans, "_verdict_blocks", kernel)
    monkeypatch.setattr(scans, "_verdict_rows", no_rows)
    summary = scan_three_entry(resolution=8, samples=1000)
    # One pass over the 84 channels against the same 1,001 priors: ten blocks
    # of eight channels and a short last block of four, each one run of the
    # verdict program's two segments; no hit is re-checked.
    assert (summary.channels, summary.hits) == (84, 0)
    assert passes == [((84, 3), (3, 1, 1001))]
    assert blocks == [8] * 10 + [4]
    assert len(runs) == 11 * 2


def test_three_entry_builds_a_channel_only_for_a_hit_it_reverifies(monkeypatch):
    # The search scores probability rows; a PauliChannel is made only to
    # re-verify a hit with the full construction.
    built = []
    monkeypatch.setattr(PauliChannel, "__post_init__", _counting(built, PauliChannel.__post_init__))
    summary = scan_three_entry(8, 1000)
    assert (summary.channels, summary.hits, len(built)) == (84, 0, 0)
    built.clear()
    summary = scan_three_entry(5, 50, 0, 0.05)
    assert (summary.hits, len(built)) == (84, 84)


@pytest.mark.parametrize("tol", [1e-9, 0.3])
def test_three_entry_counts_match_per_channel_verdicts(tol):
    # The same counts from an independent route: the channels enumerated
    # here, each scored by its own channel_verdicts call over the
    # search's priors. At tol = 0.3 most off-center priors pass.
    resolution, samples, seed = 5, 50, 0
    summary = scan_three_entry(resolution, samples, seed, tol)
    points = scans._ball_samples(np.random.default_rng(seed), samples)
    priors = np.vstack([np.zeros((1, 3)), points])
    mu_feasible, hits = 0, []
    for support in ([0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]):
        for i in range(1, resolution):
            for j in range(1, resolution - i):
                vec = np.zeros(4)
                vec[support] = np.array([i, j, resolution - i - j]) / resolution
                feasible = channel_verdicts(PauliChannel(vec), priors, tol)[0]
                mu_feasible += int(feasible[0])
                hits += [(tuple(vec), tuple(points[k])) for k in np.flatnonzero(feasible[1:])]
    assert summary.channels == 24
    assert (summary.mu_feasible, summary.hits) == (mu_feasible, len(hits))
    assert summary.hits_confirmed == len(hits) == (0 if tol < 1e-3 else 924)
    assert summary.examples == tuple(hits[:5])


def test_three_entry_counts_an_uncertified_hit_as_not_confirmed():
    # At a loose tol the slacks (>= -tol) admit candidates whose Choi
    # spectrum dips below -tol; their certification fails, and the search
    # reports them as hits that are not confirmed instead of raising.
    summary = scan_three_entry(5, 50, 0, 0.05)
    assert (summary.hits, summary.hits_confirmed) == (84, 80)


def test_three_entry_resolution_validation():
    with pytest.raises(ValueError):
        scan_three_entry(resolution=2)


def test_three_entry_rejects_a_negative_seed_or_sample_count_by_name():
    # NumPy's own errors ("expected non-negative integer", "negative
    # dimensions are not allowed") name neither parameter.
    with pytest.raises(ValueError, match="seed must be a non-negative integer, got -1"):
        scan_three_entry(4, seed=-1)
    with pytest.raises(ValueError, match="samples must be a non-negative integer, got -1"):
        scan_three_entry(4, samples=-1)


@pytest.mark.parametrize(
    "entry",
    [
        lambda tol: scan_depolarizing(ScanGrid.uniform(5), tol),
        lambda tol: scan_bb84(ScanGrid.uniform(5), tol),
        lambda tol: scan_three_entry(4, 50, 0, tol),
    ],
    ids=["scan_depolarizing", "scan_bb84", "scan_three_entry"],
)
def test_scan_rejects_a_bad_verdict_tolerance(entry):
    # With a NaN tol no slack compares as negative: scan_depolarizing called
    # every cell of a 5 x 5 grid feasible (18 of 25 are), and
    # scan_three_entry(4, 50) reported 600 hits.
    for tol in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="verdict tolerance"):
            entry(tol)


# === Exports ===

def test_emit_csv_layout_and_determinism():
    cells = scan_depolarizing(ScanGrid.uniform(5))
    data = emit_csv(cells)
    assert data == emit_csv(cells)
    lines = data.decode("ascii").splitlines()
    assert lines[0] == "p,t,feasible,slack1,slack2,slack3"
    assert len(lines) == 26
    first = lines[1].split(",")
    assert first[0] == "0" and first[1] == "0" and first[2] == "1"
    assert data.endswith(b"\n")


def test_emit_csv_does_not_depend_on_the_block_width(monkeypatch, tmp_path):
    # 13 x 11 = 143 cells on a non-uniform grid: a cell per block, blocks of
    # 7 with a last block of 3, and one block wider than the grid. A block
    # boundary falls inside a p row, and the slacks hold zeros, -1, values
    # of every decimal form and ones the '%.17g' fallback writes. The file
    # that the CLI streams to disk, a block at a time, holds the same bytes.
    rng = np.random.default_rng(SEED + 7)
    p_axis = np.concatenate([[0.0], np.sort(rng.uniform(0.0, 1.0, 11)), [1.0]])
    t_axis = np.concatenate([[0.0], np.sort(rng.uniform(0.0, 1.0, 9)) ** 4, [1.0]])
    grid = ScanGrid(p_axis=p_axis, t_axis=t_axis, direction=(0.0, 0.6, 0.8))
    cells = scan_bb84(grid)
    slack = cells.slack.copy()
    slack[:4] = [[0.0, -0.0, -1.0], [1e-5, -2.5e-7, 3.0], [12.5, -1e17, 0.5], [5e-324, 1e300, 0.1]]
    cells = ScanResult(grid, cells.feasible, slack)
    assert len(cells) % 7 == 3
    want = oracles.emit_csv(cells)
    uniform = scan_bb84(ScanGrid.uniform(12, direction=scans._FAMILIES["bb84"][1]))
    want_uniform = oracles.emit_csv(uniform)
    for width in (1, 7, len(cells) + 1):
        monkeypatch.setattr(scans, "_BLOCK", width)
        assert emit_csv(cells) == want, width
        out = tmp_path / str(width)
        cli._write(str(out), {"cells.csv": lambda: scans._csv_chunks(cells)})
        assert (out / "cells.csv").read_bytes() == want, width
        assert cli.main(["scan", "--family", "bb84", "--resolution", "12", "--out", str(out)]) == 0
        assert (out / "bb84_12.csv").read_bytes() == want_uniform, width


def test_export_chunks_hold_a_bounded_amount_of_memory():
    # A 401 x 401 scan renders to 15.7 MB of CSV and 11.5 MB of SVG. Drawn
    # chunk by chunk, each render traces under 4 MB at its peak: no whole
    # file, and no array over every cell, is held.
    cells = scan_bb84(ScanGrid.uniform(401, direction=scans._FAMILIES["bb84"][1]))
    scans._g17_tables()  # built once per process, outside the traced renders
    for name, chunks in (("csv", lambda: scans._csv_chunks(cells)),
                         ("svg", lambda: scans._svg_chunks(cells, title="bb84"))):
        tracemalloc.start()
        try:
            size = sum(len(chunk) for chunk in chunks())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert size > 10 << 20, name
        assert peak < 4 << 20, (name, peak)


def test_emit_svg_is_valid_xml_with_region_cells():
    cells = scan_depolarizing(ScanGrid.uniform(5))
    # Markup characters in the title are escaped, not written as tags.
    escaped = ET.fromstring(emit_svg(cells, title="a<b & c").decode("utf-8"))
    assert "a<b & c" in [el.text for el in escaped.iter() if el.tag.endswith("text")]
    svg = emit_svg(cells, title="depolarizing")
    root = ET.fromstring(svg.decode("utf-8"))
    assert root.tag.endswith("svg")
    rects = [el for el in root.iter() if el.tag.endswith("rect")]
    assert len(rects) == len(cells) + 1  # one per cell plus the background
    fills = {el.get("fill") for el in rects}
    assert "#7b52a8" in fills and "#efecf4" in fills
    texts = [el.text for el in root.iter() if el.tag.endswith("text")]
    assert "depolarizing" in texts and "p" in texts
