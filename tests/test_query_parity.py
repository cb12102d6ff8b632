"""Query parity: `invert` and `verify` reproduce a recorded transcript.

tests/data/query_parity.json holds 24 seeded channel/state files (interior
Pauli, rotated unital given as a transfer matrix and as Kraus operators,
and two-entry boundary Pauli channels with the prior on and off the
sigma_i axis) together with the exit code and stdout of both commands. A
query change must keep the exit codes and all non-numeric text, and move
no printed number by more than 1e-15.

To record the transcript again from the current tree:

    PYTHONPATH=src python tests/test_query_parity.py
"""

import contextlib
import io
import json
import re
from pathlib import Path

import numpy as np
import pytest
from conftest import random_bloch, random_pauli, random_unitary
from oracles import json_document

from qubit_retro import BlochState, ChannelRep, dump_json, matrix_to_pairs
from qubit_retro.cli import main

FIXTURE = Path(__file__).parent / "data" / "query_parity.json"
SEED = 20261018
TOL = 1e-15

_NUMBER = re.compile(r"[-+]?(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][-+]?\d+)?")


def _cases(rng: np.random.Generator) -> list:
    """24 (name, channel doc, state doc), six of each kind."""
    cases = []
    for k in range(6):
        # Every other interior prior is drawn from a smaller ball, so that
        # both verdicts show up among the interior kinds.
        rmax = 1.0 if k % 2 else 0.6
        pc = random_pauli(rng, 1e-3)
        cases.append((f"pauli-{k}", {"kind": "pauli", "p": pc.p.tolist()},
                      random_bloch(rng, rmax)))
        pc, u, v = random_pauli(rng, 1e-3), random_unitary(rng), random_unitary(rng)
        ops = [u @ op @ v for op in ChannelRep.from_pauli(pc).kraus]
        ptm = ChannelRep.from_kraus(ops).ptm
        cases.append((f"ptm-{k}", {"kind": "ptm", "m": ptm.reshape(-1).tolist()},
                      random_bloch(rng, rmax)))
        pc, u, v = random_pauli(rng, 1e-3), random_unitary(rng), random_unitary(rng)
        ops = [u @ op @ v for op in ChannelRep.from_pauli(pc).kraus]
        cases.append((f"kraus-{k}", {"kind": "kraus", "ops": [matrix_to_pairs(op) for op in ops]},
                      random_bloch(rng, rmax)))
        i = int(rng.integers(1, 4))
        p = np.zeros(4)
        p[0] = rng.uniform(0.05, 0.95)
        p[i] = 1.0 - p[0]
        r = np.zeros(3)
        r[i - 1] = rng.uniform(-1.0, 1.0)
        if k % 2:
            r[i % 3] = rng.uniform(0.05, 0.5)
            r = r / max(1.0, float(np.linalg.norm(r)))
        cases.append((f"boundary-{'off' if k % 2 else 'on'}-{k}",
                      {"kind": "pauli", "p": p.tolist()}, BlochState(r)))
    return [(name, doc, {"bloch": s.r.tolist()}) for name, doc, s in cases]


def _run(argv) -> list:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return [code, out.getvalue()]


def _transcript(channel: dict, state: dict, workdir: Path) -> dict:
    """Exit code and stdout of invert, then of verify on its inverse.

    When there is no inverse, verify checks the channel file itself as the
    candidate. Output paths are written as <out>.
    """
    workdir.mkdir(parents=True, exist_ok=True)
    channel_path, state_path, outdir = workdir / "c.json", workdir / "s.json", workdir / "out"
    dump_json(channel_path, channel)
    dump_json(state_path, state)
    common = ["--channel", str(channel_path), "--state", str(state_path)]
    invert = _run(["invert", *common, "--out", str(outdir)])
    candidate = outdir / "inverse.json" if invert[0] == 0 else channel_path
    verify = _run(["verify", *common, "--inverse", str(candidate)])
    for run in (invert, verify):
        run[1] = run[1].replace(str(outdir), "<out>")
    return {"invert": invert, "verify": verify}


def _split(text: str):
    return _NUMBER.sub("#", text), [float(x) for x in _NUMBER.findall(text)]


_RECORDED = json.loads(FIXTURE.read_text()) if FIXTURE.exists() else []


@pytest.mark.parametrize("case", _RECORDED, ids=[c["name"] for c in _RECORDED])
def test_query_matches_recorded_transcript(case, tmp_path):
    now = _transcript(case["channel"], case["state"], tmp_path)
    for command in ("invert", "verify"):
        (code, text), (code0, text0) = now[command], case[command]
        assert code == code0, command
        skeleton, numbers = _split(text)
        skeleton0, numbers0 = _split(text0)
        assert skeleton == skeleton0, command
        assert np.abs(np.subtract(numbers, numbers0)).max(initial=0.0) <= TOL, command


@pytest.mark.parametrize("case", _RECORDED, ids=[c["name"] for c in _RECORDED])
def test_written_files_are_indented_json_dumps(case, tmp_path):
    # Every file invert, verify and kraus write is json.dumps(doc, indent=2)
    # plus a newline, and the report embeds inverse.json's document.
    channel, state, out = tmp_path / "c.json", tmp_path / "s.json", tmp_path / "out"
    dump_json(channel, case["channel"])
    dump_json(state, case["state"])
    common = ["--channel", str(channel), "--state", str(state)]
    code = _run(["invert", *common, "--out", str(out)])[0]
    candidate = out / "inverse.json" if code == 0 else channel
    _run(["verify", *common, "--inverse", str(candidate), "--out", str(out)])
    _run(["kraus", "--channel", str(channel), "--out", str(out)])
    docs = {}
    for path in out.iterdir():
        text = path.read_text(encoding="utf-8")
        docs[path.name] = json.loads(text)
        assert text == json_document(docs[path.name]), path.name
    expected = {"invert_report.json", "verify_report.json", "kraus.json"}
    if code == 0:
        expected.add("inverse.json")
        assert docs["invert_report.json"]["inverse"] == docs["inverse.json"]
    assert set(docs) == expected


def test_recorded_transcript_covers_every_kind_and_exit_code():
    assert len(_RECORDED) == 24
    assert {c["name"].rsplit("-", 1)[0] for c in _RECORDED} == {
        "pauli", "ptm", "kraus", "boundary-on", "boundary-off"}
    assert {c["invert"][0] for c in _RECORDED} == {0, 2}
    assert {c["verify"][0] for c in _RECORDED} == {0, 1}


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        records = []
        for name, channel, state in _cases(np.random.default_rng(SEED)):
            records.append({"name": name, "channel": channel, "state": state,
                            **_transcript(channel, state, Path(tmp) / name)})
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(records)} cases to {FIXTURE}")
