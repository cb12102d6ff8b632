"""JSON schemas for channels and states."""

import json

import numpy as np
import pytest
from conftest import random_pauli, random_unital
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import json_document

from qubit_retro import (
    BlochState,
    ChannelRep,
    PauliChannel,
    ScanGrid,
    analytic_inverse,
    channel_from_json,
    channel_to_json,
    dump_json,
    load_channel,
    load_state,
    matrix_from_pairs,
    matrix_to_pairs,
    state_from_json,
    state_to_json,
)
from qubit_retro.serialize import _json_text, _JSONText

SEED = 20260825


def test_matrix_pair_roundtrip():
    rng = np.random.default_rng(SEED)
    m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    back = matrix_from_pairs(matrix_to_pairs(m))
    assert np.abs(back - m).max() == 0.0


def test_matrix_from_pairs_validation():
    with pytest.raises(ValueError):
        matrix_from_pairs([[[0.0], [0.0, 1.0]], [[0.0, 0.0], [0.0, 0.0]]])
    with pytest.raises(ValueError):
        matrix_from_pairs([[[0.0, 0.0]]])


def test_pauli_channel_roundtrip():
    rng = np.random.default_rng(SEED + 1)
    pc = random_pauli(rng)
    doc = channel_to_json(pc)
    assert doc["kind"] == "pauli"
    back = channel_from_json(json.loads(json.dumps(doc)))
    assert isinstance(back, PauliChannel)
    assert np.abs(back.p - pc.p).max() < 1e-15


def test_kraus_channel_roundtrip():
    rng = np.random.default_rng(SEED + 2)
    rep, _, _, _ = random_unital(rng)
    doc = channel_to_json(rep)
    assert doc["kind"] == "kraus"
    back = channel_from_json(json.loads(json.dumps(doc)))
    assert np.abs(back.choi - rep.choi).max() < 1e-12


@pytest.mark.parametrize("thing", [
    object(),
    # A record built without Kraus operators has no "kraus" document.
    analytic_inverse(PauliChannel([0.7, 0.1, 0.1, 0.1]), BlochState.maximally_mixed()),
], ids=["object", "record-without-kraus"])
def test_channel_to_json_rejects_what_is_not_a_channel_document(thing):
    with pytest.raises(TypeError, match="cannot serialize"):
        channel_to_json(thing)


def test_ptm_channel_document():
    ptm = np.diag([1.0, 0.5, 0.5, 0.25])
    doc = {"kind": "ptm", "m": [float(x) for x in ptm.ravel()]}
    back = channel_from_json(doc)
    assert np.abs(back.ptm - ptm).max() < 1e-15


def test_channel_from_json_rejects_malformed_documents():
    for doc in (
        None,
        [],
        {},
        {"kind": "bell"},
        {"kind": "pauli"},
        {"kind": "pauli", "p": [0.5, 0.5]},
        {"kind": "kraus", "ops": []},
        {"kind": "ptm", "m": [1.0] * 15},
    ):
        with pytest.raises(ValueError):
            channel_from_json(doc)


def _kraus(entry) -> dict:
    """The identity as a one-operator kraus document, with entry as its last pair."""
    return {"kind": "kraus", "ops": [[[[1, 0], [0, 0]], [[0, 0], entry]]]}


_KRAUS_PAIRS = {
    "ops-re-bool": [True, 0], "ops-im-bool": [1, False], "ops-string": ["1", 0],
    "ops-null": [None, 0], "ops-three": [1, 0, 0], "ops-one": [1], "ops-empty": [],
    "ops-bare": 1, "ops-null-pair": None, "ops-huge-int": [10**400, 0],
}


@pytest.mark.parametrize(
    "doc",
    [
        {"bloch": [None, 0.2, -0.4]},
        {"bloch": [[0.3], 0.2, -0.4]},
        {"bloch": ["0.8", 0.0, 0.0]},
        {"bloch": [True, 0.0, 0.0]},
        {"bloch": [10**400, 0.0, 0.0]},
        {"kind": "pauli", "p": [0.7, 0.1, 0.1, None]},
        {"kind": "pauli", "p": ["0.7", 0.1, 0.1, 0.1]},
        {"kind": "pauli", "p": [True, False, False, False]},
        {"kind": "ptm", "m": [1, 0, 0, 0, 0, [1], 0, 0, 0, 0, 1, 0, 0, 0, 0, 1]},
        {"kind": "ptm", "m": [True] + [0] * 4 + [1] + [0] * 4 + [1] + [0] * 4 + [1]},
        *map(_kraus, _KRAUS_PAIRS.values()),
    ],
    ids=["bloch-null", "bloch-list", "bloch-string", "bloch-bool", "bloch-huge-int",
         "p-null", "p-string", "p-bool", "m-list", "m-bool", *_KRAUS_PAIRS],
)
def test_entries_must_be_json_numbers(doc):
    key = next(k for k in ("bloch", "p", "m", "ops") if k in doc)
    parse = state_from_json if key == "bloch" else channel_from_json
    with pytest.raises(ValueError, match=f'"{key}"'):
        parse(doc)


def test_integer_entries_are_numbers():
    assert state_from_json({"bloch": [0, 1, 0]}).r.tolist() == [0.0, 1.0, 0.0]
    assert channel_from_json({"kind": "pauli", "p": [1, 0, 0, 0]}).p.tolist() == [1, 0, 0, 0]
    assert np.array_equal(channel_from_json(_kraus([1, 0])).ptm, np.eye(4))


def test_state_roundtrip():
    s = BlochState(np.array([0.1, -0.2, 0.3]))
    back = state_from_json(json.loads(json.dumps(state_to_json(s))))
    assert np.abs(back.r - s.r).max() < 1e-15


def test_state_from_json_rejects_malformed_documents():
    for doc in (None, {}, {"bloch": [0.0, 0.0]}, {"bloch": "xyz"}):
        with pytest.raises(ValueError):
            state_from_json(doc)


def test_load_helpers_and_dump(tmp_path):
    cpath = tmp_path / "chan.json"
    spath = tmp_path / "state.json"
    dump_json(cpath, {"kind": "pauli", "p": [0.7, 0.1, 0.1, 0.1]})
    dump_json(spath, {"bloch": [0.0, 0.0, 0.5]})
    pc = load_channel(cpath)
    s = load_state(spath)
    assert isinstance(pc, PauliChannel) and abs(pc.p[0] - 0.7) < 1e-15
    assert abs(s.r[2] - 0.5) < 1e-15
    assert cpath.read_bytes().endswith(b"\n")


_SPECIAL_FLOATS = (-0.0, 5e-324, 1e16, 1e22, 1e-5, float("nan"), float("inf"), -float("inf"))
_leaves = (
    st.sampled_from(_SPECIAL_FLOATS) | st.floats() | st.integers() | st.booleans() | st.none()
    | st.text(st.sampled_from('"\\/\n\tab\u00e9\u2603\U0001f600\x00'), max_size=8)
)
_documents = st.recursive(
    _leaves,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=30,
)


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(_documents, _documents)
def test_json_writer_matches_json_dumps(tmp_path_factory, doc, part):
    # dump_json writes json.dumps(doc, indent=2) plus a newline, and a part
    # encoded once embeds at any depth as if it were encoded in place.
    path = tmp_path_factory.getbasetemp() / "doc.json"
    dump_json(path, doc)
    assert path.read_text(encoding="utf-8") == json_document(doc)
    encoded = _JSONText(_json_text(part))
    assert _json_text({"a": [doc, {"b": encoded}]}) + "\n" == json_document(
        {"a": [doc, {"b": part}]}
    )


def test_load_errors_mention_the_path(tmp_path):
    missing = tmp_path / "nope.json"
    with pytest.raises(ValueError) as err:
        load_channel(missing)
    assert "nope.json" in str(err.value)
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ValueError) as err:
        load_state(bad)
    assert "bad.json" in str(err.value)


# A file is decoded as UTF-8 with universal newlines, as text mode reads it:
# "\r\n" and "\r" each count as one character in a parse error's position.
@pytest.mark.parametrize(
    "data, message",
    [
        (b'{\r\n  "bloch":\r\n  [0.1, x, 0]\r\n}\r\n',
         "Expecting value: line 3 column 9 (char 21)"),
        (b'{\r  "bloch":\r  [0.1, x, 0]\r}\r', "Expecting value: line 3 column 9 (char 21)"),
        (b'\xef\xbb\xbf{"bloch": [0, 0, 0]}\n',
         "Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)"),
        (b'{"bloch": [0, 0, 0], "note": "\xff"}\n',
         "'utf-8' codec can't decode byte 0xff in position 30: invalid start byte"),
        (b'{"bloch": [NaN, 0, 0]}\n', "non-finite number NaN is not allowed"),
    ],
    ids=["crlf", "cr", "bom", "invalid-utf8", "nan"],
)
@pytest.mark.parametrize("load", [load_state, load_channel], ids=["state", "channel"])
def test_load_error_messages(load, data, message, tmp_path):
    path = tmp_path / "doc.json"
    path.write_bytes(data)
    with pytest.raises(ValueError) as err:
        load(path)
    assert str(err.value) == f"{path} is not valid JSON: {message}"


def _json_file(tmp_path, text):
    path = tmp_path / "doc.json"
    path.write_text(text)
    return path


@pytest.mark.parametrize(
    "build",
    [
        lambda tmp: BlochState(np.array([np.nan, 0.0, 0.0])),
        lambda tmp: BlochState(np.array([np.inf, 0.0, 0.0])),
        lambda tmp: PauliChannel(np.array([np.nan, 0.5, 0.25, 0.25])),
        lambda tmp: ChannelRep.from_kraus([np.array([[np.nan, 0.0], [0.0, 1.0]])]),
        lambda tmp: ChannelRep(np.diag([1.0, np.nan, 1.0, 1.0])),
        lambda tmp: ChannelRep.from_choi(np.full((4, 4), np.inf)),
        lambda tmp: ScanGrid.uniform(3, direction=[np.nan, 0.0, 0.0]),
        lambda tmp: load_state(_json_file(tmp, '{"bloch": [NaN, 0, 0]}')),
        lambda tmp: load_channel(_json_file(tmp, '{"kind": "pauli", "p": [Infinity, 0, 0, 0]}')),
        lambda tmp: load_state(_json_file(tmp, '{"bloch": [1e999, 0, 0]}')),
    ],
    ids=[
        "bloch-nan", "bloch-inf", "pauli-nan", "kraus", "ptm", "choi",
        "scan-direction", "json-nan", "json-infinity", "json-overflow",
    ],
)
def test_non_finite_input_is_rejected(build, tmp_path):
    with pytest.raises(ValueError):
        build(tmp_path)
