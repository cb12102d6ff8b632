"""Feasibility-region sweeps, boundary location, and file exports."""

import warnings
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from conftest import scalar_verdict
from oracles import bisection_chi

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
    depolarizing_quantities,
    emit_csv,
    emit_svg,
    pauli_frame_verdicts,
    scan_bb84,
    scan_depolarizing,
    scan_three_entry,
)
from qubit_retro import bayes, scans

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
    cells = scan_depolarizing(ScanGrid.uniform(21))
    assert len(cells) == 441
    by_key = {(round(c.p, 10), round(c.t, 10)): c for c in cells}
    # Cells are row-major: p outer, t inner.
    assert cells[0].p == 0.0 and cells[0].t == 0.0 and cells[1].t == 0.05
    for t in np.linspace(0.0, 1.0, 21):
        assert by_key[(0.0, round(float(t), 10))].feasible      # identity column
        assert by_key[(0.75, round(float(t), 10))].feasible     # lambda = 0 column
    for p in np.linspace(0.0, 1.0, 21):
        assert by_key[(round(float(p), 10), 0.0)].feasible      # central-state row
    # Witnesses from these families only ever name a failed slack.
    for c in cells:
        assert c.witness is None or c.witness.startswith("slack-")


def test_depolarizing_scan_columns_are_monotone_in_t():
    cells = scan_depolarizing(ScanGrid.uniform(21))
    for k in range(21):
        column = cells[21 * k : 21 * (k + 1)]
        flags = [c.feasible for c in column]
        # Once infeasible, a column never becomes feasible again.
        assert flags == sorted(flags, reverse=True)


def test_bb84_scan_mirror_symmetry():
    cells = scan_bb84(ScanGrid.uniform(21, direction=np.ones(3) / np.sqrt(3.0)))
    grid = {}
    for c in cells:
        grid[(round(c.p, 10), round(c.t, 10))] = c
    for c in cells:
        mirror = grid[(round(1.0 - c.p, 10), round(c.t, 10))]
        assert c.feasible == mirror.feasible
        assert np.abs(c.slack - mirror.slack).max() < 1e-9


def test_scans_match_scalar_decision_cell_by_cell():
    # Resolution 21 includes the boundary rows p = 0 (both families) and p = 1 (bb84).
    families = (
        (scan_depolarizing, PauliChannel.depolarizing, (1.0, 0.0, 0.0)),
        (scan_bb84, bb84_channel, np.ones(3) / np.sqrt(3.0)),
    )
    for scan, channel_of, direction in families:
        grid = ScanGrid.uniform(21, direction=direction)
        for cell in scan(grid):
            state = BlochState(np.sqrt(cell.t) * grid.direction)
            feasible, slack, witness = scalar_verdict(channel_of(cell.p), state)
            assert (cell.feasible, cell.witness) == (feasible, witness), (cell.p, cell.t)
            assert np.abs(cell.slack - slack).max() <= 1e-12, (cell.p, cell.t)


def _row_by_row(grid, channel_of, tol=1e-9):
    """Scan columns from one pauli_frame_verdicts call per grid row."""
    priors = np.sqrt(grid.t_axis)[:, None] * grid.direction
    rows = [pauli_frame_verdicts(channel_of(float(p)), priors, tol) for p in grid.p_axis]
    return [np.concatenate([row[k] for row in rows]) for k in range(3)]


@pytest.mark.parametrize(
    "scan, channel_of, grid",
    [
        (scan_depolarizing, PauliChannel.depolarizing, ScanGrid.uniform(201)),
        (scan_bb84, bb84_channel, ScanGrid.uniform(201, direction=np.ones(3) / np.sqrt(3.0))),
        # 300 priors per row: 5 rows per block, and 49 interior rows leave a short last block.
        (
            scan_bb84,
            bb84_channel,
            ScanGrid(np.linspace(0.0, 1.0, 50), np.linspace(0.0, 1.0, 300), (0.0, 0.6, 0.8)),
        ),
        # Rows longer than a block: one row per block.
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
    feasible, slack, witness = _row_by_row(grid, channel_of)
    assert result.feasible.tobytes() == feasible.tobytes()
    assert result.slack.tobytes() == slack.tobytes()
    assert result.witness.tobytes() == witness.tobytes()


def _counting(calls, fn):
    def wrapper(*args, **kwargs):
        calls.append(1)
        return fn(*args, **kwargs)

    return wrapper


def test_scan_scores_interior_rows_in_blocks(monkeypatch):
    # A boundary row takes the slacks of one gamel_report of its own channel.
    candidates, boundary_rows = [], []
    monkeypatch.setattr(bayes, "_candidate", _counting(candidates, bayes._candidate))
    monkeypatch.setattr(bayes, "gamel_report", _counting(boundary_rows, bayes.gamel_report))
    scan_depolarizing(ScanGrid.uniform(201))
    # 200 interior rows at 7 rows per block; the identity row p = 0 on its own.
    assert (len(candidates), len(boundary_rows)) == (29, 1)
    candidates.clear()
    boundary_rows.clear()
    scan_bb84(ScanGrid.uniform(201, direction=np.ones(3) / np.sqrt(3.0)))
    # 199 interior rows; the rows p = 0 and p = 1 are boundary channels.
    assert (len(candidates), len(boundary_rows)) == (29, 2)


def _cell_key(c):
    return c.p, c.t, c.feasible, c.slack.tobytes(), c.witness


def test_scan_result_views_agree():
    grid = ScanGrid.uniform(7, direction=np.ones(3) / np.sqrt(3.0))
    result = scan_bb84(grid)
    cells = list(result)
    assert len(result) == len(cells) == 49
    keys = [_cell_key(c) for c in cells]
    assert [_cell_key(result[k]) for k in range(49)] == keys
    assert [_cell_key(c) for c in result[7:14]] == keys[7:14]
    assert [_cell_key(c) for c in result[::-5]] == keys[::-5]
    assert _cell_key(result[-1]) == keys[-1]
    with pytest.raises(IndexError):
        result[49]
    # Cell k is (p_axis[k // 7], t_axis[k % 7]), with the columns' entries.
    assert (cells[9].p, cells[9].t) == (grid.p_axis[1], grid.t_axis[2])
    assert [c.feasible for c in cells] == result.feasible.tolist()
    assert np.array_equal(np.array([c.slack for c in cells]), result.slack)


def test_scan_result_rejects_non_finite_slack_and_bad_shapes():
    grid = ScanGrid.uniform(3)
    good = scan_depolarizing(grid)
    assert not good.slack.flags.writeable
    for value in (np.nan, np.inf):
        slack = good.slack.copy()
        slack[4, 1] = value
        with pytest.raises(ValueError):
            ScanResult(grid, good.feasible, slack, good.witness)
    with pytest.raises(ValueError):
        ScanResult(grid, good.feasible[:-1], good.slack, good.witness)


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

    def no_verdicts(*args, **kwargs):
        raise AssertionError("a verdict was made before tol was checked")

    monkeypatch.setattr(scans, "_verdict_rows", no_verdicts)
    for tol in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="tolerance"):
            boundary_chi([0.1, 0.5], tol)


def test_boundary_chi_warns_once_per_non_monotone_p(monkeypatch):
    zigzag = {0.2, 0.4}

    def fake_verdicts(channels, r, tol):
        # (slack_k + tol) D^(k + 2) is 1 for every k, except that the first
        # is (t - 0.3)(t - 0.6) for the zigzag p: feasible on [0, 0.3] and
        # again on [0.6, 1].
        r = np.broadcast_to(r, (3, len(channels), r.shape[-1]))
        lam = np.array([pch.lam for pch in channels]).T[:, :, None]
        t = (r * r).sum(axis=0)
        D = 1.0 - (lam * lam * r * r).sum(axis=0)
        poly = np.ones(t.shape + (3,))
        for i, pch in enumerate(channels):
            if round(3.0 * pch.p[1], 12) in zigzag:
                poly[i, :, 0] = (t[i] - 0.3) * (t[i] - 0.6)
        slack = poly / D[..., None] ** np.arange(2, 5) - tol
        return ~(slack < -tol).any(axis=-1), slack, None

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
    channels = [PauliChannel(rng.dirichlet(np.ones(4))) for _ in range(300)]
    d = rng.normal(size=(3, 300, 1))
    d /= np.linalg.norm(d, axis=0)
    lam = np.array([pch.lam for pch in channels]).T[:, :, None]
    s_unit = (lam * lam * d * d).sum(axis=0)

    def scaled_slacks(t):
        slack = bayes._verdict_rows(channels, d * np.sqrt(t), 1e-9)[1]
        return slack * (1.0 - s_unit * t)[..., None] ** np.arange(2, 5)

    fit = np.linalg.inv(np.vander(scans._CHI_NODES, increasing=True))
    coef = np.einsum("ij,mjk->mik", fit, scaled_slacks(scans._CHI_NODES))
    t = np.linspace(0.0, 1.0, 201)
    fitted = sum(coef[:, j, None] * t[:, None] ** j for j in range(5))
    assert np.abs(fitted - scaled_slacks(t)).max() <= 1e-10


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
        return PauliChannel([1.0 - p, p, 0.0, 0.0])

    monkeypatch.setitem(scans._FAMILIES, "flip", (flip, None))
    d = np.array([0.0, 0.6, 0.8])
    chi = boundary_chi([0.0, 0.3], family="flip", direction=d)
    assert chi[0] == 1.0 and 0.0 < chi[1] < 1e-18
    r = d[:, None, None] * np.sqrt([chi[1] * (1.0 - 1e-9), chi[1] * (1.0 + 1e-6)])
    assert bayes._verdict_rows([flip(0.3)], r, 1e-9)[0].tolist() == [[True, False]]


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
    candidates, frame_verdicts = [], []
    monkeypatch.setattr(bayes, "_candidate", _counting(candidates, bayes._candidate))
    per_channel = _counting(frame_verdicts, bayes.pauli_frame_verdicts)
    for module in (bayes, scans):
        monkeypatch.setattr(module, "pauli_frame_verdicts", per_channel, raising=False)
    summary = scan_three_entry(resolution=8, samples=1000)
    # 84 channels, each against its 1,001 priors in one block; no hit is re-checked.
    assert (summary.channels, summary.hits) == (84, 0)
    assert (len(candidates), len(frame_verdicts)) == (84, 0)


def test_three_entry_resolution_validation():
    with pytest.raises(ValueError):
        scan_three_entry(resolution=2)


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
