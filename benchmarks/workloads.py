"""The three workloads: inputs from a seed, one CLI operation, oracle checks.

Every operation is one or two in-process calls of ``qubit_retro.cli.main``
with stdout captured, writing into an output directory that does not exist
yet. Rewriting or deleting a file whose blocks are already on disk can cost
tens of milliseconds (a journal flush, or a discard on filesystems mounted
with ``discard``), which would measure the disk instead of the program.
"""

from __future__ import annotations

import io
import itertools
import json
import re
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from math import comb
from pathlib import Path
from time import perf_counter

import numpy as np

import oracle
from qubit_retro import cli


# Only the stdout lines the checks read are kept, which also keeps failure
# reports short.
_KEEP = re.compile(r"^(?:verdict:.*|error:.*|.*chi = .*)$", re.M)


@dataclass
class OpResult:
    """What one operation returned, for the checks that follow it."""

    spec: object
    outdir: Path
    seconds: float
    codes: tuple
    stdout: str
    error: str | None = None


def call_cli(spec, outdir: Path, argv: list, then: list | None = None) -> OpResult:
    """Time ``cli.main(argv)`` and, if it exits 0 and ``then`` is given, ``cli.main(then)``."""
    buf = io.StringIO()
    codes: list[int] = []
    error = None
    start = perf_counter()
    try:
        with redirect_stdout(buf), redirect_stderr(buf):
            codes.append(cli.main(argv))
            if then is not None and codes[0] == 0:
                codes.append(cli.main(then))
    except (Exception, SystemExit):
        error = traceback.format_exc()
    seconds = perf_counter() - start
    kept = "\n".join(_KEEP.findall(buf.getvalue()))
    return OpResult(spec, outdir, seconds, tuple(codes), kept, error)


def _write(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc), encoding="utf-8")


def _haar_unitary(rng: np.random.Generator) -> np.ndarray:
    z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _ball_point(rng: np.random.Generator) -> np.ndarray:
    u = rng.normal(size=3)
    u /= np.linalg.norm(u)
    return u * rng.uniform() ** (1.0 / 3.0)


def _pauli_lambdas(p) -> np.ndarray:
    return np.array(
        [p[0] + p[1] - p[2] - p[3], p[0] - p[1] + p[2] - p[3], p[0] - p[1] - p[2] + p[3]]
    )


def _make_query(rng: np.random.Generator, k: int):
    """(channel document, Kraus operators, Bloch vector) of query k.

    Queries cycle through three kinds: a random Pauli channel, a rotated
    unital channel conj-by-u . Pauli . conj-by-v, and a boundary Pauli
    channel with two nonzero entries {p_0, p_i} whose prior lies on the
    sigma_i axis or, every other time, off it.
    """
    kind = k % 3
    if kind == 0:
        p = rng.dirichlet(np.ones(4))
        return {"kind": "pauli", "p": p.tolist()}, oracle.pauli_kraus(p), _ball_point(rng)
    if kind == 1:
        while True:
            p = rng.dirichlet(np.ones(4))
            if np.abs(_pauli_lambdas(p)).max() < 1.0 - 1e-3:
                break
        u, v = _haar_unitary(rng), _haar_unitary(rng)
        ops = [u @ op @ v for op in oracle.pauli_kraus(p)]
        doc = {
            "kind": "kraus",
            "ops": [[[[z.real, z.imag] for z in row] for row in op.tolist()] for op in ops],
        }
        return doc, ops, _ball_point(rng)
    i = int(rng.integers(1, 4))
    p = np.zeros(4)
    p[0] = rng.uniform(0.05, 0.95)
    p[i] = 1.0 - p[0]
    r = np.zeros(3)
    r[i - 1] = rng.uniform(-1.0, 1.0)
    if k % 6 == 5:
        r[i % 3] = rng.uniform(0.05, 0.5)
        r = r / max(1.0, float(np.linalg.norm(r)))
    return {"kind": "pauli", "p": p.tolist()}, oracle.pauli_kraus(p), r


FEASIBLE_SHARE = 3 / 8


class Queries:
    """Single invert queries, each followed by verify when an inverse exists."""

    name = "queries"
    item = "queries"
    warmup_ops = 20
    chunk = 100
    items_per_op = 1

    def __init__(self, work: Path, seed: int, tiny: bool) -> None:
        rng = np.random.default_rng(seed)
        pool = 30 if tiny else 600
        self.round_size = 30 if tiny else 300
        inputs = work / "inputs"
        inputs.mkdir()
        self.paths = []
        self.verdicts = []
        # Random Pauli and rotated unital pairs have an inverse about 3/8 of
        # the time. Holding that share fixed per kind gives every seed the
        # same mix of quick "no inverse" queries and slower construct-and-
        # verify ones, so the latency percentiles do not jump between seeds;
        # boundary pairs are half on, half off the axis by construction.
        per_kind = pool // 3
        feasible = round(per_kind * FEASIBLE_SHARE)
        left = {kind: {True: feasible, False: per_kind - feasible} for kind in (0, 1)}
        for k in range(pool):
            while True:
                doc, kraus, r = _make_query(rng, k)
                verdict = oracle.verdict(kraus, r)
                quota = left.get(k % 3)
                if quota is None:
                    break
                has_inverse = verdict[0] == oracle.FEASIBLE
                if quota[has_inverse]:
                    quota[has_inverse] -= 1
                    break
            channel, state = inputs / f"channel{k}.json", inputs / f"state{k}.json"
            _write(channel, doc)
            _write(state, {"bloch": r.tolist()})
            self.paths.append((str(channel), str(state)))
            self.verdicts.append(verdict)
        # Quotas fill in generation order; shuffling spreads the mix evenly,
        # so the traced round (a prefix) and every chunk see it too.
        order = rng.permutation(pool)
        self.paths = [self.paths[k] for k in order]
        self.verdicts = [self.verdicts[k] for k in order]
        self.distinct = pool

    def stream(self):
        return itertools.cycle(range(self.distinct))

    def round(self):
        return list(range(self.round_size))

    def run(self, k: int, outdir: Path) -> OpResult:
        channel, state = self.paths[k]
        return call_cli(
            k, outdir,
            ["invert", "--channel", channel, "--state", state, "--out", str(outdir)],
            ["verify", "--channel", channel, "--state", state,
             "--inverse", str(outdir / "inverse.json")],
        )

    def check(self, res: OpResult, notes: dict) -> bool:
        if res.error is not None or not res.codes or res.codes[0] not in (0, 2):
            return False
        verdict, x = self.verdicts[res.spec]
        if verdict.startswith("unchecked"):
            notes[verdict] = notes.get(verdict, 0) + 1
        if res.codes[0] == 2:
            return verdict != oracle.FEASIBLE and "verdict: no Bayesian inverse" in res.stdout
        notes["inverses"] = notes.get("inverses", 0) + 1
        if verdict == oracle.INFEASIBLE or res.codes[1:] != (0,):
            return False
        if "verdict: symmetric" not in res.stdout:
            return False
        if x is None:
            return True
        doc = json.loads((res.outdir / "inverse.json").read_text(encoding="utf-8"))
        return float(np.abs(oracle.jam_of_kraus_doc(doc) - x).max()) <= 1e-6


def _family_kraus(family: str, p: float) -> list:
    if family == "depolarizing":
        vec = [1.0 - p, p / 3.0, p / 3.0, p / 3.0]
    else:
        q = 1.0 - p
        vec = np.array([q * q, p * q, p * p, p * q])
        vec = vec / vec.sum()
    return oracle.pauli_kraus(vec)


_DIRECTIONS = {
    "depolarizing": np.array([1.0, 0.0, 0.0]),
    "bb84": np.ones(3) / np.sqrt(3.0),
}
_CHI = re.compile(r"chi = (\S+)")


class RegionScan:
    """``scan`` of the depolarizing family, then of the bb84 family, over a full grid."""

    name = "region_scan"
    item = "grid cells"
    warmup_ops = 0
    chunk = distinct = len(_DIRECTIONS)

    def __init__(self, work: Path, seed: int, tiny: bool) -> None:
        self.seed = seed
        self.resolution = 21 if tiny else 201
        self.samples = 40 if tiny else 200
        self.items_per_op = self.resolution**2
        self._count = itertools.count()

    def stream(self):
        return itertools.cycle(_DIRECTIONS)

    def round(self):
        return list(_DIRECTIONS)

    def run(self, family: str, outdir: Path) -> OpResult:
        argv = ["scan", "--family", family, "--resolution", str(self.resolution),
                "--out", str(outdir)]
        return call_cli(family, outdir, argv)

    def check(self, res: OpResult, notes: dict) -> bool:
        if res.error is not None or res.codes != (0,):
            return False
        family, n = res.spec, self.resolution
        base = res.outdir / f"{family}_{n}"
        lines = base.with_suffix(".csv").read_text(encoding="ascii").splitlines()
        if lines[0] != "p,t,feasible,slack1,slack2,slack3" or len(lines) != n * n + 1:
            return False
        if base.with_suffix(".svg").stat().st_size == 0:
            return False
        rows = [line.split(",", 3)[:3] for line in lines[1:]]
        rng = np.random.default_rng([self.seed, next(self._count)])
        for cell in rng.choice(n * n, size=self.samples, replace=False):
            p, t, flag = rows[cell]
            r = np.sqrt(float(t)) * _DIRECTIONS[family]
            verdict, _ = oracle.verdict(_family_kraus(family, float(p)), r)
            if verdict.startswith("unchecked"):
                notes[verdict] = notes.get(verdict, 0) + 1
            elif (verdict == oracle.FEASIBLE) != (flag == "1"):
                return False
        if family == "bb84":
            flags = [row[2] for row in rows]
            columns = [flags[n * k : n * (k + 1)] for k in range(n)]
            if any(columns[k] != columns[n - 1 - k] for k in range(n)):
                return False
        else:
            chi = [float(v) for v in _CHI.findall(res.stdout)]
            if len(chi) != 11 or not all(0.0 <= v <= 1.0 for v in chi):
                return False
        return True


def _three_entry_channels(resolution: int) -> list:
    out = []
    for support in ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)):
        for i in range(1, resolution - 1):
            for j in range(1, resolution - i):
                k = resolution - i - j
                if k >= 1:
                    vec = np.zeros(4)
                    vec[list(support)] = np.array([i, j, k]) / resolution
                    out.append(vec)
    return out


def _ball_samples(seed: int, n: int) -> np.ndarray:
    """The Bloch-ball batch that ``three-entry --seed seed`` draws."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 3))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    return x * rng.uniform(size=(n, 1)) ** (1.0 / 3.0)


class ThreeEntry:
    """``three-entry`` searches, each with its own seed."""

    name = "three_entry"
    item = "evaluations"
    warmup_ops = 0
    chunk = distinct = 1
    per_channel = 1000  # fixed by the CLI

    def __init__(self, work: Path, seed: int, tiny: bool) -> None:
        self.seed = seed
        self.resolution = 4 if tiny else 8
        self.channels = 4 * comb(self.resolution - 1, 2)
        self.samples = 20 if tiny else 100
        self.items_per_op = self.channels * (self.per_channel + 1)

    def stream(self):
        return (self.seed * 1000 + k for k in itertools.count())

    def round(self):
        return [self.seed * 1000]

    def run(self, seed: int, outdir: Path) -> OpResult:
        argv = ["three-entry", "--resolution", str(self.resolution), "--seed", str(seed),
                "--out", str(outdir)]
        return call_cli(seed, outdir, argv)

    def check(self, res: OpResult, notes: dict) -> bool:
        if res.error is not None or res.codes != (0,):
            return False
        path = res.outdir / f"three-entry_{self.resolution}.json"
        doc = json.loads(path.read_text(encoding="utf-8"))
        expected = {
            "channels": self.channels,
            "mu_feasible": self.channels,
            "hits_confirmed": 0,
            "queries": self.channels * self.per_channel,
        }
        if any(doc.get(key) != value for key, value in expected.items()):
            return False
        channels = _three_entry_channels(self.resolution)
        points = _ball_samples(res.spec, self.per_channel)
        rng = np.random.default_rng([self.seed, res.spec])
        for _ in range(self.samples):
            vec = channels[rng.integers(len(channels))]
            r = points[rng.integers(self.per_channel)]
            verdict, _ = oracle.verdict(oracle.pauli_kraus(vec), r)
            if verdict.startswith("unchecked"):
                notes[verdict] = notes.get(verdict, 0) + 1
            elif verdict == oracle.FEASIBLE:
                return False
        return True


WORKLOADS = {w.name: w for w in (Queries, RegionScan, ThreeEntry)}
