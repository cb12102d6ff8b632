"""JSON schemas for channels and states.

Channel documents carry a "kind" tag:

    {"kind": "pauli", "p": [p0, p1, p2, p3]}
    {"kind": "kraus", "ops": [[[ [re, im], [re, im] ], [ [re, im], [re, im] ]], ...]}
    {"kind": "ptm",   "m": [t00, t01, ..., t33]}        (16 reals, row-major)

States are {"bloch": [r1, r2, r3]}. Complex numbers always serialize as
[re, im] pairs, matrices row-major.

Every document is written as json.dumps(doc, indent=2) plus a newline, by a
writer that gives the same bytes without going through json's pure-Python
indenting encoder, and stored in binary mode as UTF-8 with "\n" line ends.
A file is read in one read and decoded as UTF-8 with universal newlines.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path

import numpy as np

from .bayes import InverseRecord
from .channels import BlochState, ChannelRep, PauliChannel

__all__ = [
    "matrix_to_pairs",
    "matrix_from_pairs",
    "channel_to_json",
    "channel_from_json",
    "state_to_json",
    "state_from_json",
    "load_channel",
    "load_state",
    "dump_json",
]


def matrix_to_pairs(m: np.ndarray) -> list:
    """Nested row-major [re, im] encoding of a complex matrix, or of a stack of them."""
    m = np.ascontiguousarray(m, np.complex128)
    return m.view(np.float64).reshape(*m.shape, 2).tolist()


# The types of a JSON number; exact, so that a bool is not one.
_NUMBER = (int, float)


def _complex(entry) -> complex:
    if type(entry) in (list, tuple) and len(entry) == 2:
        re, im = entry
        if type(re) in _NUMBER and type(im) in _NUMBER:
            try:
                return complex(re, im)
            except OverflowError:
                raise ValueError("an entry is too large for a float") from None
    raise ValueError(f"entries must be [re, im] pairs of JSON numbers, got {json.dumps(entry)}")


def matrix_from_pairs(rows) -> np.ndarray:
    """A complex 2x2 matrix from its nested row-major [re, im] encoding.

    :raises ValueError: unless every entry is a list of two JSON numbers
        (no bools, strings or nulls) that fit a float, and the matrix is 2x2.
    """
    try:
        m = np.array([[_complex(entry) for entry in row] for row in rows], dtype=np.complex128)
    except TypeError as exc:
        raise ValueError(f"malformed complex matrix encoding: {exc}") from None
    if m.shape != (2, 2):
        raise ValueError(f"matrix has shape {m.shape}, expected (2, 2)")
    return m


def channel_to_json(e) -> dict:
    """Schema document for a channel: "pauli" for a PauliChannel, else "kraus".

    :raises TypeError: unless e is a PauliChannel, or a ChannelRep or
        InverseRecord that carries Kraus operators.
    """
    if isinstance(e, PauliChannel):
        return {"kind": "pauli", "p": [float(x) for x in e.p]}
    if isinstance(e, (ChannelRep, InverseRecord)) and e.kraus:
        return {"kind": "kraus", "ops": matrix_to_pairs(e.kraus)}
    raise TypeError(f"cannot serialize {type(e).__name__} as a channel")


def _numbers(doc: dict, key: str, n: int, message: str) -> np.ndarray:
    """doc[key] as floats, if it is a list of n JSON numbers (no bools, strings or nulls).

    :raises ValueError: with message if it is not a list of n entries, else naming the field.
    """
    values = doc.get(key)
    if not isinstance(values, list) or len(values) != n:
        raise ValueError(message)
    for x in values:
        if type(x) not in _NUMBER:
            raise ValueError(f'"{key}" entries must be JSON numbers, got {json.dumps(x)}')
    try:
        return np.array(values, dtype=np.float64)
    except OverflowError:
        raise ValueError(f'"{key}" has an entry too large for a float') from None


def channel_from_json(doc: dict):
    """Parse a channel document into a PauliChannel or ChannelRep.

    :raises ValueError: on any schema violation (missing keys, bad shapes,
        out-of-simplex probabilities, ...).
    """
    if not isinstance(doc, dict) or "kind" not in doc:
        raise ValueError('channel document must be an object with a "kind" field')
    kind = doc["kind"]
    if kind == "pauli":
        return PauliChannel(_numbers(doc, "p", 4, '"pauli" channel needs a 4-entry "p" list'))
    if kind == "kraus":
        ops = doc.get("ops")
        if not isinstance(ops, list) or not ops:
            raise ValueError('"kraus" channel needs a non-empty "ops" list')
        try:
            kraus = [matrix_from_pairs(op) for op in ops]
        except ValueError as exc:
            raise ValueError(f'"ops": {exc}') from None
        return ChannelRep.from_kraus(kraus)
    if kind == "ptm":
        m = _numbers(doc, "m", 16, '"ptm" channel needs a 16-entry row-major "m" list')
        return ChannelRep(m.reshape(4, 4))
    raise ValueError(f"unknown channel kind {kind!r}")


def state_to_json(s: BlochState) -> dict:
    return {"bloch": [float(x) for x in s.r]}


def state_from_json(doc: dict) -> BlochState:
    if not isinstance(doc, dict) or "bloch" not in doc:
        raise ValueError('state document must be an object with a "bloch" field')
    return BlochState(_numbers(doc, "bloch", 3, '"bloch" must be a 3-entry list'))


def _reject_constant(name: str):
    raise ValueError(f"non-finite number {name} is not allowed")


def _load(path) -> dict:
    try:
        with open(path, "rb") as fh:
            text = fh.read().decode().replace("\r\n", "\n").replace("\r", "\n")
        return json.loads(text, parse_constant=_reject_constant)
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from None
    except ValueError as exc:
        raise ValueError(f"{path} is not valid JSON: {exc}") from None


def load_channel(path):
    return channel_from_json(_load(path))


def load_state(path) -> BlochState:
    return state_from_json(_load(path))


class _JSONText(str):
    """JSON text that _json_text already wrote, embedded as it stands in a larger document."""


_INF = float("inf")


def _json_text(value, newline: str = "\n") -> str:
    """json.dumps(value, indent=2), with each line break written as newline.

    Finite floats, ints, strings, bools, None, and lists, tuples and
    str-keyed dicts of them are written here; a _JSONText is re-indented by
    its line prefix; anything else (non-finite floats, other types or keys)
    goes to json.dumps, re-indented the same way. json.dumps(x, indent=2)
    nested at any depth is its top-level text with every line prefixed, so
    the pieces join into the bytes json.dumps(value, indent=2) gives.
    """
    kind = type(value)
    if kind is float:
        if -_INF < value < _INF:
            return float.__repr__(value)
    elif kind is str:
        return _quote(value)
    elif kind is _JSONText:
        return value.replace("\n", newline)
    elif kind is int:
        return int.__repr__(value)
    elif kind is list or kind is tuple:
        if not value:
            return "[]"
        inner = newline + "  "
        separator = "," + inner
        items = None
        if type(value[0]) is float:
            # A row of floats in one join. Of float reprs only nan and inf
            # have an "n", and json writes those as NaN and Infinity.
            try:
                items = separator.join(map(float.__repr__, value))
            except TypeError:  # an item that is not a float
                pass
        if items is None or "n" in items:
            items = separator.join([_json_text(v, inner) for v in value])
        return "[" + inner + items + newline + "]"
    elif kind is dict:
        if not value:
            return "{}"
        if all(type(key) is str for key in value):
            inner = newline + "  "
            return "{" + inner + ("," + inner).join(
                [_quote(key) + ": " + _json_text(v, inner) for key, v in value.items()]
            ) + newline + "}"
    elif value is None:
        return "null"
    elif value is True:
        return "true"
    elif value is False:
        return "false"
    return json.dumps(value, indent=2).replace("\n", newline)


def _json_bytes(doc) -> bytes:
    """The bytes of a document's file: json.dumps(doc, indent=2) plus a newline, as UTF-8."""
    return (_json_text(doc) + "\n").encode()


def dump_json(path, doc: dict) -> None:
    """Write doc as json.dumps(doc, indent=2) plus a newline, in binary mode as UTF-8."""
    Path(path).write_bytes(_json_bytes(doc))
