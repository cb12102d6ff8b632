"""The byte-matrix exports against '%.17g' and the per-float byte oracle.

`scans._g17_fields` renders '%.17g' for a whole column at once; every test
here compares its bytes with Python's own formatting, and `emit_csv` /
`emit_svg` with their per-float implementations kept in `oracles`.
"""

from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from qubit_retro import ScanGrid, emit_csv, emit_svg, scan_bb84, scan_depolarizing
from qubit_retro.scans import _G17_RANGE, _g17_fields

SEED = 20261018
FAMILIES = {
    "depolarizing": (scan_depolarizing, (1.0, 0.0, 0.0)),
    "bb84": (scan_bb84, tuple(np.ones(3) / np.sqrt(3.0))),
}


def _lines(values) -> bytes:
    """The rows of _g17_fields(values), one per line, their NULs dropped as the CSV drops them."""
    rows = _g17_fields(values)
    assert rows.shape == (len(values), 32) and rows.dtype == np.uint8
    rows = np.concatenate([rows, np.full((len(rows), 1), ord("\n"), np.uint8)], axis=1)
    return rows[rows != 0].tobytes()


def _expected(values) -> bytes:
    return "".join("%.17g\n" % v for v in np.asarray(values, dtype=np.float64).tolist()).encode()


def _assert_formats(values):
    values = np.asarray(values, dtype=np.float64)
    got, want = _lines(values), _expected(values)
    if got != want:
        pairs = zip(values.tolist(), got.split(b"\n"), want.split(b"\n"))
        assert [(v, g, w) for v, g, w in pairs if g != w][:10] == []
        assert got == want


def _half_ties() -> list:
    """Floats whose exact decimal value has 18 significant digits ending in 5."""
    candidates = [m * 2.0**-25 for m in (1, 3, -3)]
    candidates += [k + f for k in (10**15, 1234567890123456, 2**51 - 1) for f in (0.25, 0.75)]
    candidates += [k + f for k in (10**14, 123456789012345) for f in (0.125, 0.375, 0.875)]
    ties = []
    for c in candidates:
        digits = Decimal(c).as_tuple().digits
        if len(digits) == 18 and digits[-1] == 5:
            ties.append(c)
    return ties


def _edge_values() -> list:
    values = [0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308]
    values += [np.nextafter(2.2250738585072014e-308, 0.0), np.nextafter(5e-324, 1.0)]
    for k in range(-30, 21):
        v = 10.0**k
        values += [v, np.nextafter(v, 0.0), np.nextafter(v, np.inf)]
    # The switches between fixed and exponent form.
    for v in (1e-5, 1e-4, 1e16, 1e17, 9.99995e-5, 99999999999999990.0, 9999999999999998.0):
        values += [v, np.nextafter(v, 0.0), np.nextafter(v, np.inf)]
    # Integers up to 2^53, and the bounds of the fast range.
    values += [float(2**k + d) for k in range(54) for d in (-1, 0, 1) if 2**k + d <= 2**53]
    values += [float(10**k - 1) for k in range(1, 17)]
    values += [np.nextafter(b, t) for b in _G17_RANGE for t in (0.0, np.inf)] + list(_G17_RANGE)
    values += [1e100, 1.5e-100, 1e-99, 9.9999999999999997e99, 1e-270, 1e269]
    values += _half_ties()
    return values


def test_half_tie_list_is_not_empty():
    assert len(_half_ties()) >= 10


def test_g17_rows_match_format_on_edge_values():
    values = np.array(_edge_values())
    _assert_formats(np.concatenate([values, -values]))


def test_g17_rows_match_format_on_non_finite_values():
    _assert_formats([np.nan, np.inf, -np.inf, -0.0])


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=40))
def test_g17_rows_match_format_on_hypothesis_floats(values):
    _assert_formats(values)


def test_g17_rows_match_format_on_random_bit_patterns():
    rng = np.random.default_rng(SEED)
    for _ in range(10):
        bits = rng.integers(0, 2**64, size=100_000, dtype=np.uint64, endpoint=False)
        values = bits.view(np.float64)
        _assert_formats(values[np.isfinite(values)])


def test_g17_rows_match_format_on_random_values_in_the_fast_range():
    rng = np.random.default_rng(SEED + 1)
    values = rng.uniform(1.0, 10.0, 200_000) * 10.0 ** rng.integers(-25, 25, 200_000)
    values[::2] *= -1.0
    _assert_formats(values)


# === emit_csv and emit_svg against the per-float oracle ===

def _assert_exports_match(cells, title):
    assert emit_csv(cells) == oracles.emit_csv(cells)
    assert emit_svg(cells, title=title) == oracles.emit_svg(cells, title=title)


@pytest.mark.parametrize("resolution", [2, 7, 41, 201])
@pytest.mark.parametrize("family", list(FAMILIES))
def test_exports_match_oracle_on_uniform_grids(family, resolution):
    scan, direction = FAMILIES[family]
    _assert_exports_match(scan(ScanGrid.uniform(resolution, direction=direction)), family)


def test_exports_match_oracle_on_a_non_uniform_grid():
    rng = np.random.default_rng(SEED)
    p_axis = np.sort(rng.uniform(0.0, 1.0, 37))
    t_axis = np.concatenate([[0.0], np.sort(rng.uniform(0.0, 1.0, 11)) ** 3, [1.0]])
    cells = scan_bb84(ScanGrid(p_axis=p_axis, t_axis=t_axis, direction=(0.0, 0.6, 0.8)))
    _assert_exports_match(cells, "a <non-uniform> & grid")


def test_exports_match_oracle_on_axes_of_every_field_form():
    # The CSV keeps only the p byte columns that some p text uses and sizes
    # ",t,flag" to its widest text, so each axis holds every form a field
    # takes: 0 and 1, the exponent form (a subnormal among them), 17 digits
    # after "0." and after "0.000".
    axis = [0.0, 5e-324, 1e-300, 3e-5, 1.2345678901234567e-4, 0.1, 1.0 / 3.0, 0.5, 1.0]
    texts = ["%.17g" % x for x in axis[2:5]]
    assert texts == ["1e-300", "3.0000000000000001e-05", "0.00012345678901234567"]
    for scan, direction in FAMILIES.values():
        for p_axis, t_axis in ((axis, axis), (axis, [0.0, 1.0]), ([0.0, 1.0], axis)):
            grid = ScanGrid(p_axis=p_axis, t_axis=t_axis, direction=direction)
            _assert_exports_match(scan(grid), "forms")


def test_exports_match_oracle_at_a_loose_tolerance():
    cells = scan_depolarizing(ScanGrid.uniform(41), tol=5e-2)
    _assert_exports_match(cells, "")
