"""In-memory span recorder that wraps the public functions of each layer.

The wrappers live only in the benchmark: ``install`` rebinds every module
attribute of the package that refers to a wrapped function (so names taken
with ``from .x import f`` are covered too) and ``uninstall`` puts the
originals back. Spans are kept in flat arrays while the run lasts and
written out once at the end.
"""

from __future__ import annotations

import functools
import os
import sys
from array import array
from time import perf_counter

import numpy as np

#: Wrapped functions, by layer (the package's module names).
LAYERS = {
    "linalg": ("herm_eig", "pauli_expand", "pauli_reconstruct", "partial_transpose"),
    "channels": (
        "unital_to_pauli", "is_cptp", "kraus_from_choi", "transport_inverse", "apply",
        "apply_operator",
    ),
    "bayes": (
        "bayesian_inverse", "analytic_inverse", "gamel_report", "is_unscathed",
        "bayes_residual", "two_time_projector",
    ),
    "scans": (
        "scan_depolarizing", "scan_bb84", "boundary_chi", "scan_three_entry", "emit_csv",
        "emit_svg",
    ),
    "serialize": ("load_channel", "load_state", "dump_json"),
    "cli": ("main",),
}

SPAN_NAMES = tuple(f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns)

#: Counters recorded at the layer boundaries, besides calls, self time and errors.
COUNTERS = (
    "bayes.decisions",
    "bayes.feasible",
    "scans.cells",
    "scans.chi_probes",
    "scans.emit_csv.bytes",
    "scans.emit_svg.bytes",
    "serialize.dump_json.bytes",
)

#: Per-layer metrics of a traced run: (name, unit, better).
PER_LAYER = [
    (f"{name}.{field}", unit, "lower")
    for name in SPAN_NAMES
    for field, unit in (("calls", "count"), ("self_s", "s"), ("errors", "count"))
] + [
    ("bayes.decisions", "count", "lower"),
    ("bayes.feasible_ratio", "ratio", "higher"),
    ("scans.cells", "count", "higher"),
    ("scans.chi_probes", "count", "lower"),
    ("scans.emit_csv.bytes", "B", "lower"),
    ("scans.emit_svg.bytes", "B", "lower"),
    ("serialize.dump_json.bytes", "B", "lower"),
    ("io.files_written", "count", "lower"),
    ("io.bytes_written", "B", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.round_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]


class Tracer:
    """Records one span per wrapped call: name, start, end, parent, operation id."""

    def __init__(self) -> None:
        self.names = list(SPAN_NAMES)
        self.name_ix = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.failed = array("b")
        self.op_id = -1
        self.counts = dict.fromkeys(COUNTERS, 0)
        self._stack: list[int] = []
        self._open_chi = 0
        self._bound: list[tuple] = []

    # --- recording ---

    def _wrap(self, ix: int, fn, after=None):
        name_ix, start, end, parent, op, failed = (
            self.name_ix, self.start, self.end, self.parent, self.op, self.failed,
        )
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(start)
            name_ix.append(ix)
            parent.append(stack[-1] if stack else -1)
            op.append(self.op_id)
            failed.append(0)
            end.append(0.0)
            stack.append(sid)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                failed[sid] = 1
                raise
            finally:
                end[sid] = perf_counter()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _decision(self, feasible: bool) -> None:
        self.counts["bayes.decisions"] += 1
        self.counts["bayes.feasible"] += feasible
        if self._open_chi:
            self.counts["scans.chi_probes"] += 1

    def _hooks(self) -> dict:
        counts = self.counts

        def add(key, amount):
            counts[key] += amount

        return {
            "bayes.gamel_report": lambda a, r: self._decision(bool(r.feasible)),
            # A boundary verdict that is not unscathed never reaches gamel_report.
            "bayes.is_unscathed": lambda a, r: self._decision(False) if r is None else None,
            "scans.scan_depolarizing": lambda a, r: add("scans.cells", len(r)),
            "scans.scan_bb84": lambda a, r: add("scans.cells", len(r)),
            "scans.emit_csv": lambda a, r: add("scans.emit_csv.bytes", len(r)),
            "scans.emit_svg": lambda a, r: add("scans.emit_svg.bytes", len(r)),
            "serialize.dump_json": lambda a, r: add(
                "serialize.dump_json.bytes", os.path.getsize(a[0])
            ),
        }

    def _chi_wrapper(self, inner):
        @functools.wraps(inner)
        def wrapper(*args, **kwargs):
            self._open_chi += 1
            try:
                return inner(*args, **kwargs)
            finally:
                self._open_chi -= 1

        return wrapper

    # --- installing ---

    def install(self) -> None:
        """Rebind every package reference to a wrapped function."""
        if self._bound:
            raise RuntimeError("tracer is already installed")
        modules = [
            m for name, m in list(sys.modules.items())
            if name == "qubit_retro" or name.startswith("qubit_retro.")
        ]
        hooks = self._hooks()
        for ix, name in enumerate(self.names):
            layer, fn_name = name.split(".")
            original = getattr(sys.modules[f"qubit_retro.{layer}"], fn_name)
            wrapped = self._wrap(ix, original, hooks.get(name))
            if name == "scans.boundary_chi":
                wrapped = self._chi_wrapper(wrapped)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)
                        self._bound.append((module, key, original))

    def uninstall(self) -> None:
        for module, key, original in reversed(self._bound):
            setattr(module, key, original)
        self._bound.clear()

    # --- results ---

    def arrays(self) -> dict:
        return {
            "name_ix": np.frombuffer(self.name_ix, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
            "failed": np.frombuffer(self.failed, dtype=np.int8).copy(),
        }

    def layer_totals(self) -> dict:
        """calls, self_s and errors per span name, plus the boundary counters.

        Self time is a span's duration minus the durations of its direct
        children; spans of one thread nest, so children never overlap.
        """
        a = self.arrays()
        n = len(self.names)
        dur = a["end"] - a["start"]
        child = np.zeros(len(dur))
        has_parent = a["parent"] >= 0
        np.add.at(child, a["parent"][has_parent], dur[has_parent])
        self_time = np.bincount(a["name_ix"], weights=dur - child, minlength=n)
        calls = np.bincount(a["name_ix"], minlength=n)
        errors = np.bincount(a["name_ix"], weights=a["failed"], minlength=n)
        out = {}
        for ix, name in enumerate(self.names):
            out[f"{name}.calls"] = int(calls[ix])
            out[f"{name}.self_s"] = float(self_time[ix])
            out[f"{name}.errors"] = int(errors[ix])
        out.update(self.counts)
        out["trace.spans"] = len(dur)
        return out

    def write(self, path) -> None:
        """Write every span as arrays in one .npz file, with the name table."""
        np.savez(path, names=np.array(self.names), **self.arrays())
