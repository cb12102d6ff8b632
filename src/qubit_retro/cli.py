"""Command line front end: invert, verify, classify, and scan.

One table, _COMMANDS, lists each subcommand with its handler, help text,
options and defaults: the parser is built from it, main dispatches
through it, and each handler reads the parsed argparse.Namespace. main
checks --tol once, before dispatch: it must be positive and finite. The
CPTP tests of verify and kraus run at max(--tol, 1e-9), as invert's do.

Exit codes: 0 success, 1 malformed input, usage error, an output
directory that cannot be made or written (--out naming a file, say) or
failed verification, 2 no Bayesian inverse exists / state is not
unscathed, 3 a supplied channel (the channel or candidate inverse given to
verify, or the channel file given to kraus) is not CPTP.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from .bayes import (
    _UNSCATHED_TOL,
    InverseRecord,
    NoInverse,
    _cptp_tol,
    bayesian_inverse,
    is_unscathed,
    two_time_matrix,
    unscathed_residuals,
)
from .channels import ChannelRep, PauliChannel, _check_tol, apply, is_cptp, kraus_from_choi
from .errors import NotCPTPError, NotPSDError, NotUnitalError, QubitRetroError
from .scans import (
    _FAMILIES,
    ScanGrid,
    _csv_chunks,
    _svg_chunks,
    boundary_chi,
    scan_bb84,
    scan_depolarizing,
    scan_three_entry,
)
from .serialize import (
    _json_bytes,
    _json_text,
    _JSONText,
    channel_to_json,
    load_channel,
    load_state,
)

__all__ = ["main"]

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NO_INVERSE = 2
EXIT_NOT_CPTP = 3


def _g17(x: float) -> str:
    return format(float(x), ".17g")


def _vec(v) -> str:
    return "[" + ", ".join(map(_g17, np.asarray(v, dtype=float).tolist())) + "]"


def _print_real_matrix(m) -> None:
    print("\n".join(["  " + "  ".join(map(_g17, row)) for row in np.asarray(m, float).tolist()]))


def _print_complex_matrix(m) -> None:
    print("\n".join(["  " + "  ".join([f"{z.real:.17g}{z.imag:+.17g}j" for z in row])
                     for row in np.asarray(m, complex).tolist()]))


def _write(out: str, files: dict) -> None:
    """Write each named file into out, and say so, naming files as pathlib renders out.

    Every file is opened "wb" and given to writelines: a dict or a _JSONText
    as the one chunk of _json_bytes, a callable's byte chunks as they come,
    so no rendered file is held whole. A file that an error cuts short is
    removed before the error propagates.

    :raises ValueError: if the directory, made if missing, or a file cannot be written.
    """
    base = Path(out)
    paths = [str(base / name) for name in files]
    try:
        os.makedirs(base, exist_ok=True)
        for path, content in zip(paths, files.values()):
            chunks = content() if callable(content) else (_json_bytes(content),)
            f = open(path, "wb")
            try:
                with f:
                    f.writelines(chunks)
            except BaseException:
                Path(path).unlink(missing_ok=True)
                raise
    except OSError as exc:
        raise ValueError(f"cannot write to {out}: {exc}") from None
    print("wrote " + " and ".join(paths))


def _report_doc(report) -> dict:
    """A FeasibilityReport's fields, in their declared order, as JSON values."""
    return {f.name: np.asarray(getattr(report, f.name)).tolist() for f in fields(report)}


# === Commands ===

def cmd_invert(args: argparse.Namespace) -> int:
    channel = load_channel(args.channel)
    state = load_state(args.state)
    try:
        outcome = bayesian_inverse(channel, state, args.tol)
    except (NotUnitalError, NotCPTPError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT

    if isinstance(outcome, NoInverse):
        print("verdict: no Bayesian inverse exists")
        print(f"reason: {outcome.reason}")
        doc = {"verdict": "no-inverse", "reason": outcome.reason, "tol": args.tol}
        if outcome.report is not None:
            print(f"feasibility slacks: {_vec(outcome.report.slack)}")
            doc["report"] = _report_doc(outcome.report)
        if outcome.residuals is not None:
            print(f"conjugation residuals (sigma_0..sigma_3): {_vec(outcome.residuals)}")
            doc["residuals"] = outcome.residuals.tolist()
        if args.out:
            _write(args.out, {"invert_report.json": doc})
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
    if args.out:
        # Encoded once, for inverse.json and for the report that embeds it.
        inverse = _JSONText(_json_text(channel_to_json(rec)))
        doc = {
            "verdict": "inverse",
            "tol": args.tol,
            "a": rec.a.tolist(),
            "S": float(rec.S),
            "unique": bool(rec.unique),
            "residual": float(rec.residual),
            "report": _report_doc(rec.report),
            "inverse": inverse,
        }
        _write(args.out, {"inverse.json": inverse, "invert_report.json": doc})
    return EXIT_OK


def cmd_unscathed(args: argparse.Namespace) -> int:
    channel = load_channel(args.channel)
    if not isinstance(channel, PauliChannel):
        print("error: the unscathed test needs a pauli-kind channel file", file=sys.stderr)
        return EXIT_INPUT
    state = load_state(args.state)
    k = is_unscathed(channel, state, args.tol)
    print(f"conjugation residuals (sigma_0..sigma_3): {_vec(unscathed_residuals(channel, state))}")
    if k is None:
        print("verdict: state is not unscathed (adjoint is not an inverse here)")
        return EXIT_NO_INVERSE
    print(f"verdict: unscathed with sigma_{k}; the adjoint map is a Bayesian inverse")
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    channel = load_channel(args.channel)
    state = load_state(args.state)
    candidate = load_channel(args.inverse)
    for name, e in (("channel", channel), ("candidate inverse", candidate)):
        if not is_cptp(e, _cptp_tol(args.tol)):
            print(f"error: {name} is not CPTP", file=sys.stderr)
            return EXIT_NOT_CPTP
    forward = two_time_matrix(channel, state)
    reverse = two_time_matrix(candidate, apply(channel, state))
    discrepancy = float(np.abs(forward - reverse.T).max())
    print("forward two-time expectations <sigma_i, sigma_j>:")
    _print_real_matrix(forward)
    print("time-reversed two-time expectations (transposed for comparison):")
    _print_real_matrix(reverse.T)
    print(f"max discrepancy: {_g17(discrepancy)}   tol: {_g17(args.tol)}")
    symmetric = discrepancy <= args.tol
    print(f"verdict: {'symmetric' if symmetric else 'NOT symmetric'}")
    if args.out:
        doc = {
            "forward": forward.tolist(),
            "reversed": reverse.tolist(),
            "discrepancy": discrepancy,
            "tol": args.tol,
            "symmetric": bool(symmetric),
        }
        _write(args.out, {"verify_report.json": doc})
    return EXIT_OK if symmetric else EXIT_INPUT


def cmd_scan(args: argparse.Namespace) -> int:
    if not args.out:
        print("error: scan needs --out DIR for its CSV/SVG files", file=sys.stderr)
        return EXIT_INPUT
    grid = ScanGrid.uniform(args.resolution, direction=_FAMILIES[args.family][1])
    scan = scan_bb84 if args.family == "bb84" else scan_depolarizing
    cells = scan(grid, args.tol)
    count = int(cells.feasible.sum())
    print(f"family {args.family}, resolution {args.resolution}")
    print(f"feasible cells: {count}/{len(cells)} ({count / len(cells):.6f})")
    base = f"{args.family}_{args.resolution}"
    _write(args.out, {
        f"{base}.csv": lambda: _csv_chunks(cells),
        f"{base}.svg": lambda: _svg_chunks(cells, title=args.family),
    })
    if args.family == "depolarizing":
        print("largest feasible t:")
        p_axis = np.linspace(0.0, 1.0, 11)
        for p, chi in zip(p_axis, boundary_chi(p_axis, args.tol)):
            print(f"  p = {p:.2f}   chi = {chi:.8f}")
    return EXIT_OK


def cmd_three_entry(args: argparse.Namespace) -> int:
    summary = scan_three_entry(args.resolution, samples=1000, seed=args.seed, tol=args.tol)
    print(f"three-entry channels scanned: {summary.channels} "
          f"(simplex resolution {summary.resolution})")
    print(f"bloch samples per channel: {summary.samples_per_channel} (seed {summary.seed})")
    print(f"maximally mixed prior feasible: {summary.mu_feasible}/{summary.channels}")
    print(f"feasible cells with |r| > 1e-6: {summary.hits} (confirmed {summary.hits_confirmed})")
    if summary.examples:
        print("confirmed examples:")
        for p, r in summary.examples:
            print(f"  p = {_vec(p)}   r = {_vec(r)}")
    if args.out:
        examples = [{"p": list(map(float, p)), "r": list(map(float, r))}
                    for p, r in summary.examples]
        doc = {**asdict(summary), "examples": examples}
        _write(args.out, {f"three-entry_{summary.resolution}.json": doc})
    return EXIT_OK


def cmd_kraus(args: argparse.Namespace) -> int:
    channel = load_channel(args.channel)
    rep = ChannelRep.from_pauli(channel) if isinstance(channel, PauliChannel) else channel
    tol = _cptp_tol(args.tol)
    if not is_cptp(rep, tol):
        min_eig = np.linalg.eigvalsh(rep.choi)[0]
        defect = np.abs(rep.ptm[0] - [1.0, 0.0, 0.0, 0.0]).max()
        print(
            f"error: channel is not CPTP (smallest Choi eigenvalue {min_eig:.3e}, "
            f"trace-preservation defect {defect:.3e})",
            file=sys.stderr,
        )
        return EXIT_NOT_CPTP
    if "kraus" not in vars(rep):
        # Not built from Kraus operators: extract them at the tolerance they passed.
        rep = ChannelRep.from_kraus(kraus_from_choi(rep.choi, tol))
    ops = rep.kraus
    print(f"kraus operators ({len(ops)}):")
    for k in ops:
        _print_complex_matrix(k)
    if args.out:
        _write(args.out, {"kraus.json": channel_to_json(rep)})
    return EXIT_OK


# === Argument parsing ===

class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors exit 1, as exit code 2 means "no inverse"."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


# Each subcommand: its handler, help text, options in --help order, and its
# --tol and --resolution defaults. _OPTIONS holds each option's add_argument keywords.
_COMMANDS = {
    "invert": (cmd_invert, "construct the Bayesian inverse for (channel, state)",
               ("channel", "state", "tol", "out"), {"tol": 1e-9}),
    "unscathed": (cmd_unscathed,
                  "test whether some sigma_k conjugation reproduces the channel output",
                  ("channel", "state", "tol"), {"tol": _UNSCATHED_TOL}),
    "verify": (cmd_verify, "check two-time expectation symmetry of a candidate inverse",
               ("channel", "state", "inverse", "tol", "out"), {"tol": 1e-9}),
    "scan": (cmd_scan, "sweep a channel family's feasibility region",
             ("family", "resolution", "tol", "out"), {"tol": 1e-9, "resolution": 201}),
    "kraus": (cmd_kraus, "extract Kraus operators from a channel file",
              ("channel", "tol", "out"), {"tol": 1e-9}),
    "three-entry": (cmd_three_entry, "search three-entry channels for feasible non-central priors",
                    ("resolution", "seed", "tol", "out"), {"tol": 1e-9, "resolution": 8}),
}

_OPTIONS = {
    "channel": {"required": True, "help": "channel JSON file"},
    "state": {"required": True, "help": "state JSON file"},
    "inverse": {"required": True, "help": "candidate inverse channel JSON file"},
    "family": {"required": True, "choices": tuple(_FAMILIES)},
    "resolution": {"type": int},
    "seed": {"type": int, "default": 0},
    "tol": {"type": float},
    "out": {"default": None, "help": "output directory"},
}


# Built once per process: building the parser costs about twenty parses, and
# a query calls main twice (invert, then verify).
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qubit-retro",
        description="Bayesian inverses of unital qubit channels: decide, construct, verify, scan.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, options, defaults) in _COMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        for option in options:
            sp.add_argument(f"--{option}", **_OPTIONS[option])
        sp.set_defaults(**defaults)
    parser._subcommands = sub.choices
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    # A known subcommand is parsed by its own parser, as the top-level parser
    # would hand it the rest of argv. Anything else (--help, an unknown
    # command, "--", arguments left over) takes the top-level parse, which
    # prints the same usage and errors.
    command = parser._subcommands.get(argv[0]) if argv and "--" not in argv else None
    if command is not None:
        args, rest = command.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
    if command is None or rest:
        args = parser.parse_args(argv)
    try:
        _check_tol(args.tol)
        return _COMMANDS[args.command][0](args)
    except NotPSDError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOT_CPTP
    except (ValueError, QubitRetroError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
