"""Scan parity: `scan` and `three-entry` reproduce a recorded transcript.

tests/data/scan_parity.json holds, for both scan families,

- the stdout of `scan --resolution 201` (output paths written as <out>),
  with the largest-feasible-t lines of the depolarizing family;
- the sha256 of the `feasible` column at resolution 201;
- the sha256 of the CSV and SVG files that `scan --resolution 201` writes;
- every slack at resolution 41, which must stay within 1e-15 (boundary rows
  pass through einsum, whose last bit may depend on the NumPy build);

and the stdout and written JSON of `three-entry --resolution 8` for seeds
0, 1 and 2. A change to the verdict path, the scans or the CLI must keep
all of it.

To record the transcript again from the current tree:

    PYTHONPATH=src python tests/test_scan_parity.py
"""

import contextlib
import hashlib
import io
import json
import re
from pathlib import Path

import numpy as np
import pytest

from qubit_retro import ScanGrid, scan_bb84, scan_depolarizing
from qubit_retro.cli import main

FIXTURE = Path(__file__).parent / "data" / "scan_parity.json"
SCAN_RESOLUTION = 201
SLACK_RESOLUTION = 41
SEEDS = (0, 1, 2)
TOL = 1e-15

# The CLI's prior direction for each family.
FAMILIES = {
    "depolarizing": (scan_depolarizing, np.array([1.0, 0.0, 0.0])),
    "bb84": (scan_bb84, np.ones(3) / np.sqrt(3.0)),
}


def _run(argv, outdir: Path) -> list:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([*argv, "--out", str(outdir)])
    return [code, out.getvalue().replace(str(outdir), "<out>")]


def _scan(family: str, resolution: int):
    scan, direction = FAMILIES[family]
    return scan(ScanGrid.uniform(resolution, direction=direction))


def _sha256(column: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(column).tobytes()).hexdigest()


def _file_sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _scan_record(family: str, outdir: Path) -> dict:
    cells = _scan(family, SCAN_RESOLUTION)
    run = _run(["scan", "--family", family, "--resolution", str(SCAN_RESOLUTION)], outdir)
    base = outdir / f"{family}_{SCAN_RESOLUTION}"
    return {
        "family": family,
        "run": run,
        "feasible_sha256": _sha256(cells.feasible),
        "slack": _scan(family, SLACK_RESOLUTION).slack.tolist(),
        "csv_sha256": _file_sha256(base.with_suffix(".csv")),
        "svg_sha256": _file_sha256(base.with_suffix(".svg")),
    }


def _three_entry_record(seed: int, outdir: Path) -> dict:
    run = _run(["three-entry", "--resolution", "8", "--seed", str(seed)], outdir)
    return {"seed": seed, "run": run, "json": (outdir / "three-entry_8.json").read_text()}


def _slack_matches(now, recorded) -> bool:
    now, recorded = np.asarray(now), np.asarray(recorded)
    return now.shape == recorded.shape and bool(np.abs(now - recorded).max() <= TOL)


_RECORDED = json.loads(FIXTURE.read_text()) if FIXTURE.exists() else {"scan": [], "three_entry": []}


@pytest.mark.parametrize("case", _RECORDED["scan"], ids=[c["family"] for c in _RECORDED["scan"]])
def test_scan_matches_recorded_transcript(case, tmp_path):
    now = _scan_record(case["family"], tmp_path)
    assert now["run"] == case["run"]
    assert now["feasible_sha256"] == case["feasible_sha256"]
    assert _slack_matches(now["slack"], case["slack"])
    assert now["csv_sha256"] == case["csv_sha256"]
    assert now["svg_sha256"] == case["svg_sha256"]


@pytest.mark.parametrize("case", _RECORDED["three_entry"],
                         ids=[f"seed{c['seed']}" for c in _RECORDED["three_entry"]])
def test_three_entry_matches_recorded_transcript(case, tmp_path):
    assert _three_entry_record(case["seed"], tmp_path) == case


def test_recorded_transcript_is_complete_and_sensitive():
    assert [c["family"] for c in _RECORDED["scan"]] == list(FAMILIES)
    assert [c["seed"] for c in _RECORDED["three_entry"]] == list(SEEDS)
    for case in _RECORDED["scan"]:
        for key in ("csv_sha256", "svg_sha256"):
            assert re.fullmatch("[0-9a-f]{64}", case.get(key, "")), (case["family"], key)
    depolarizing = _RECORDED["scan"][0]
    assert depolarizing["run"][0] == 0 and depolarizing["run"][1].count("chi = ") == 11
    # One slack moved by 3e-15 must not pass.
    slack = np.array(depolarizing["slack"])
    assert slack.shape == (SLACK_RESOLUTION**2, 3)
    k = np.unravel_index(np.argmax(np.abs(slack)), slack.shape)
    moved = slack.copy()
    moved[k] += 3e-15
    assert _slack_matches(slack, depolarizing["slack"])
    assert not _slack_matches(moved, depolarizing["slack"])


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        record = {
            "scan": [_scan_record(f, Path(tmp) / f) for f in FAMILIES],
            "three_entry": [_three_entry_record(s, Path(tmp) / f"seed{s}") for s in SEEDS],
        }
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(record, separators=(",", ":")) + "\n", encoding="utf-8")
    print(f"wrote {FIXTURE}")
