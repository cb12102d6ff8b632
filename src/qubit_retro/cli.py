"""Command line front end: invert, verify, classify, and scan.

Exit codes: 0 success, 1 malformed input, usage error, an output
directory that cannot be made or written (--out naming a file, say) or
failed verification, 2 no Bayesian inverse exists, 3 a supplied channel
(the channel or candidate inverse given to verify, or the channel file given
to kraus) is not CPTP.
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .bayes import (
    InverseRecord,
    NoInverse,
    bayesian_inverse,
    two_time_matrix,
    unscathed_residuals,
)
from .channels import ChannelRep, PauliChannel, apply, is_cptp
from .errors import NotCPTPError, NotPSDError, NotUnitalError, QubitRetroError
from .scans import (
    _FAMILIES,
    ScanGrid,
    _g17,
    boundary_chi,
    emit_csv,
    emit_svg,
    scan_bb84,
    scan_depolarizing,
    scan_three_entry,
)
from .serialize import (
    channel_to_json,
    dump_json,
    load_channel,
    load_state,
    matrix_to_pairs,
)

__all__ = ["RunConfig", "main"]

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NO_INVERSE = 2
EXIT_NOT_CPTP = 3


@dataclass
class RunConfig:
    """Validated bag of CLI options for a single run."""

    command: str
    channel: str | None = None
    state: str | None = None
    inverse: str | None = None
    family: str | None = None
    resolution: int | None = None
    tol: float = 1e-9
    seed: int = 0
    out: str | None = None

    def __post_init__(self) -> None:
        if self.command not in _DISPATCH:
            raise ValueError(f"unknown command {self.command!r}")
        if not 0.0 < self.tol < np.inf:
            raise ValueError(f"tolerance must be positive and finite, got {self.tol}")
        if self.resolution is not None and self.resolution < 2:
            raise ValueError(f"resolution must be >= 2, got {self.resolution}")
        if self.family is not None and self.family not in _FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")


def _vec(v) -> str:
    return "[" + ", ".join(_g17(x) for x in v) + "]"


def _print_real_matrix(m) -> None:
    for row in np.asarray(m, dtype=float):
        print("  " + "  ".join(_g17(x) for x in row))


def _print_complex_matrix(m) -> None:
    for row in np.asarray(m, dtype=complex):
        print("  " + "  ".join(f"{z.real:.17g}{z.imag:+.17g}j" for z in row))


def _write(out: str, files: dict) -> None:
    """Write each named file into out, and say so.

    A dict is written as a JSON document. A callable returns the bytes to
    write, so that only one rendered file is held at a time.

    :raises ValueError: if the directory, made if missing, or a file cannot be written.
    """
    paths = [Path(out) / name for name in files]
    try:
        Path(out).mkdir(parents=True, exist_ok=True)
        for path, content in zip(paths, files.values()):
            if callable(content):
                path.write_bytes(content())
            else:
                dump_json(path, content)
    except OSError as exc:
        raise ValueError(f"cannot write to {out}: {exc}") from None
    print("wrote " + " and ".join(map(str, paths)))


def _report_doc(report) -> dict:
    """A FeasibilityReport's fields, in their declared order, as JSON values."""
    return {f.name: np.asarray(getattr(report, f.name)).tolist() for f in fields(report)}


# === Commands ===

def cmd_invert(cfg: RunConfig) -> int:
    channel = load_channel(cfg.channel)
    state = load_state(cfg.state)
    try:
        outcome = bayesian_inverse(channel, state, cfg.tol)
    except (NotUnitalError, NotCPTPError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT

    if isinstance(outcome, NoInverse):
        print("verdict: no Bayesian inverse exists")
        print(f"reason: {outcome.reason}")
        doc = {"verdict": "no-inverse", "reason": outcome.reason, "tol": cfg.tol}
        if outcome.report is not None:
            print(f"feasibility slacks: {_vec(outcome.report.slack)}")
            doc["report"] = _report_doc(outcome.report)
        if outcome.residuals is not None:
            print(f"conjugation residuals (sigma_0..sigma_3): {_vec(outcome.residuals)}")
            doc["residuals"] = outcome.residuals.tolist()
        if cfg.out:
            _write(cfg.out, {"invert_report.json": doc})
        return EXIT_NO_INVERSE

    rec: InverseRecord = outcome
    print("verdict: inverse exists")
    print(f"S = {_g17(rec.S)}   unique: {rec.unique}   residual: {_g17(rec.residual)}")
    print("coefficients a (a00-normalized, Pauli frame):")
    _print_real_matrix(rec.a)
    print(
        f"feasibility slacks: {_vec(rec.report.slack)}   "
        f"eta = {_g17(rec.report.eta)}   detR = {_g17(rec.report.detR)}"
    )
    print(f"kraus operators ({len(rec.kraus)}):")
    for k in rec.kraus:
        _print_complex_matrix(k)
    if cfg.out:
        inverse_doc = {"kind": "kraus", "ops": [matrix_to_pairs(k) for k in rec.kraus]}
        doc = {
            "verdict": "inverse",
            "tol": cfg.tol,
            "a": rec.a.tolist(),
            "S": float(rec.S),
            "unique": bool(rec.unique),
            "residual": float(rec.residual),
            "report": _report_doc(rec.report),
            "inverse": inverse_doc,
        }
        _write(cfg.out, {"inverse.json": inverse_doc, "invert_report.json": doc})
    return EXIT_OK


def cmd_unscathed(cfg: RunConfig) -> int:
    channel = load_channel(cfg.channel)
    if not isinstance(channel, PauliChannel):
        print("error: the unscathed test needs a pauli-kind channel file", file=sys.stderr)
        return EXIT_INPUT
    state = load_state(cfg.state)
    residuals = unscathed_residuals(channel, state)
    hits = np.flatnonzero(residuals <= cfg.tol)
    print(f"conjugation residuals (sigma_0..sigma_3): {_vec(residuals)}")
    if not hits.size:
        print("verdict: state is not unscathed (adjoint is not an inverse here)")
        return EXIT_NO_INVERSE
    print(f"verdict: unscathed with sigma_{hits[0]}; the adjoint map is a Bayesian inverse")
    return EXIT_OK


def cmd_verify(cfg: RunConfig) -> int:
    channel = load_channel(cfg.channel)
    state = load_state(cfg.state)
    candidate = load_channel(cfg.inverse)
    for name, e in (("channel", channel), ("candidate inverse", candidate)):
        if not is_cptp(e, max(cfg.tol, 1e-9)):
            print(f"error: {name} is not CPTP", file=sys.stderr)
            return EXIT_NOT_CPTP
    forward = two_time_matrix(channel, state)
    reverse = two_time_matrix(candidate, apply(channel, state))
    discrepancy = float(np.abs(forward - reverse.T).max())
    print("forward two-time expectations <sigma_i, sigma_j>:")
    _print_real_matrix(forward)
    print("time-reversed two-time expectations (transposed for comparison):")
    _print_real_matrix(reverse.T)
    print(f"max discrepancy: {_g17(discrepancy)}   tol: {_g17(cfg.tol)}")
    symmetric = discrepancy <= cfg.tol
    print(f"verdict: {'symmetric' if symmetric else 'NOT symmetric'}")
    if cfg.out:
        doc = {
            "forward": forward.tolist(),
            "reversed": reverse.tolist(),
            "discrepancy": discrepancy,
            "tol": cfg.tol,
            "symmetric": bool(symmetric),
        }
        _write(cfg.out, {"verify_report.json": doc})
    return EXIT_OK if symmetric else EXIT_INPUT


def cmd_scan(cfg: RunConfig) -> int:
    if not cfg.out:
        print("error: scan needs --out DIR for its CSV/SVG files", file=sys.stderr)
        return EXIT_INPUT
    resolution = 201 if cfg.resolution is None else cfg.resolution
    grid = ScanGrid.uniform(resolution, direction=_FAMILIES[cfg.family][1])
    scan = scan_bb84 if cfg.family == "bb84" else scan_depolarizing
    cells = scan(grid, cfg.tol)
    count = int(cells.feasible.sum())
    print(f"family {cfg.family}, resolution {resolution}")
    print(f"feasible cells: {count}/{len(cells)} ({count / len(cells):.6f})")
    base = f"{cfg.family}_{resolution}"
    _write(cfg.out, {
        f"{base}.csv": lambda: emit_csv(cells),
        f"{base}.svg": lambda: emit_svg(cells, title=cfg.family),
    })
    if cfg.family == "depolarizing":
        print("largest feasible t:")
        p_axis = np.linspace(0.0, 1.0, 11)
        for p, chi in zip(p_axis, boundary_chi(p_axis, cfg.tol)):
            print(f"  p = {p:.2f}   chi = {chi:.8f}")
    return EXIT_OK


def _run_three_entry(cfg: RunConfig) -> int:
    resolution = 8 if cfg.resolution is None else cfg.resolution
    summary = scan_three_entry(resolution, samples=1000, seed=cfg.seed, tol=cfg.tol)
    print(f"three-entry channels scanned: {summary.channels} (simplex resolution {resolution})")
    print(f"bloch samples per channel: {summary.samples_per_channel} (seed {summary.seed})")
    print(f"maximally mixed prior feasible: {summary.mu_feasible}/{summary.channels}")
    print(f"feasible cells with |r| > 1e-6: {summary.hits} (confirmed {summary.hits_confirmed})")
    if summary.examples:
        print("confirmed examples:")
        for p, r in summary.examples:
            print(f"  p = {_vec(p)}   r = {_vec(r)}")
    if cfg.out:
        examples = [{"p": list(map(float, p)), "r": list(map(float, r))}
                    for p, r in summary.examples]
        doc = {**asdict(summary), "examples": examples}
        _write(cfg.out, {f"three-entry_{resolution}.json": doc})
    return EXIT_OK


def cmd_kraus(cfg: RunConfig) -> int:
    channel = load_channel(cfg.channel)
    rep = ChannelRep.from_pauli(channel) if isinstance(channel, PauliChannel) else channel
    if not is_cptp(rep, max(cfg.tol, 1e-9)):
        min_eig = np.linalg.eigvalsh(rep.choi)[0]
        defect = np.abs(rep.ptm[0] - [1.0, 0.0, 0.0, 0.0]).max()
        print(
            f"error: channel is not CPTP (smallest Choi eigenvalue {min_eig:.3e}, "
            f"trace-preservation defect {defect:.3e})",
            file=sys.stderr,
        )
        return EXIT_NOT_CPTP
    ops = rep.kraus
    print(f"kraus operators ({len(ops)}):")
    for k in ops:
        _print_complex_matrix(k)
    if cfg.out:
        _write(cfg.out, {"kraus.json": channel_to_json(rep)})
    return EXIT_OK


# === Argument parsing ===

class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors exit 1, as exit code 2 means "no inverse"."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


# Built once per process: building the parser costs about twenty parses, and
# a query calls main twice (invert, then verify).
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qubit-retro",
        description="Bayesian inverses of unital qubit channels: decide, construct, verify, scan.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, *, channel=False, state=False, inverse=False, family=False,
            resolution=False, seed=False, out=False, tol=1e-9):
        sp = sub.add_parser(name, help=help_text)
        if channel:
            sp.add_argument("--channel", required=True, help="channel JSON file")
        if state:
            sp.add_argument("--state", required=True, help="state JSON file")
        if inverse:
            sp.add_argument("--inverse", required=True, help="candidate inverse channel JSON file")
        if family:
            sp.add_argument("--family", required=True, choices=tuple(_FAMILIES))
        if resolution:
            sp.add_argument("--resolution", type=int, default=None)
        if seed:
            sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--tol", type=float, default=tol)
        if out:
            sp.add_argument("--out", default=None, help="output directory")
        return sp

    add("invert", "construct the Bayesian inverse for (channel, state)",
        channel=True, state=True, out=True)
    add("unscathed", "test whether some sigma_k conjugation reproduces the channel output",
        channel=True, state=True, tol=1e-10)
    add("verify", "check two-time expectation symmetry of a candidate inverse",
        channel=True, state=True, inverse=True, out=True)
    add("scan", "sweep a channel family's feasibility region",
        family=True, resolution=True, out=True)
    add("kraus", "extract Kraus operators from a channel file", channel=True, out=True)
    add("three-entry", "search three-entry channels for feasible non-central priors",
        resolution=True, seed=True, out=True)
    return parser


_DISPATCH = {
    "invert": cmd_invert,
    "unscathed": cmd_unscathed,
    "verify": cmd_verify,
    "scan": cmd_scan,
    "kraus": cmd_kraus,
    "three-entry": _run_three_entry,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = RunConfig(**vars(args))
        return _DISPATCH[cfg.command](cfg)
    except NotPSDError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOT_CPTP
    except (ValueError, QubitRetroError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
