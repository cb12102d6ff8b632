"""qubit-retro benchmark: one workload per process, checked against an oracle.

Usage, from the repository root:

    python3 benchmarks/run.py --workload queries --seed 1 --seconds 20 --trace 0

Workloads (``--workload``), each a closed loop with one caller and no
threads, driving ``qubit_retro.cli.main`` in process with stdout captured:

    queries      invert on a seeded stream of (channel, prior) files, then
                 verify on the written inverse when one exists
    region_scan  scan --family depolarizing, then bb84, at resolution 201
    three_entry  three-entry --resolution 8 with a fresh --seed each time

With ``--trace 0`` the run is timed untraced and reports the end-to-end
metrics. With ``--trace 1`` it alternates untraced and traced rounds of a
fixed operation list and reports, per round, each wrapped function's calls,
self time and errors, the boundary counters and the tracing overhead; the
spans go to ``.bench_run/spans/<workload>.npz``. The last line of stdout is
one JSON object: {"correct", "attempted", "failed", "metrics"}. ``--tiny``
runs every workload at its smallest size, with all checks, for the smoke
test in ``test_smoke.py``.
"""

from __future__ import annotations

import os

# BLAS pools are pinned before numpy is first imported; the scan thread
# pool is left at its default of one worker.
PINNED_ENV = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
    )
}
os.environ.update(PINNED_ENV)
os.environ.pop("QUBIT_RETRO_THREADS", None)

import argparse  # noqa: E402
import fcntl  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import struct  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from array import array  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter, time_ns  # noqa: E402

import numpy as np  # noqa: E402

from spans import PER_LAYER, Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: End-to-end metrics: name -> (unit, description). An operation is one
#: query (invert, then verify), one scan or one three-entry search; an item
#: is a query, a grid cell or a (channel, prior) evaluation. A chunk is 100
#: queries, a depolarizing and bb84 scan pair, or one search.
END_TO_END = {
    "setup_s": ("s", "median fresh-interpreter import of qubit_retro and qubit_retro.cli"),
    "peak_rss_mb": ("MB", "peak resident memory of the workload process"),
    "items_per_s": ("1/s", "median over chunks of operations of items per second"),
    "call_p50_ms": ("ms", "median wall time of one operation"),
    "call_p90_ms": ("ms", "90th percentile (nearest rank) wall time of one operation"),
}
SETUP_INTERPRETERS = 9
_FS_IOC_GETFLAGS, _FS_IOC_SETFLAGS, _FS_TOPDIR_FL = 0x80086601, 0x40086602, 0x00020000
_IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import qubit_retro, qubit_retro.cli; "
    "print(time.perf_counter() - t)"
)


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("queries", "region_scan", "three_entry"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smallest inputs with every check on (for the smoke test)")
    return parser.parse_args(argv)


def _git_commit() -> str:
    """HEAD of the checkout read from .git without running git, or 'unknown'."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _environment(args, numpy_version: str) -> dict:
    return {
        "commit": _git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_before": list(os.getloadavg()),
        "pinned": {name: os.environ.get(name) for name in PINNED_ENV},
        "QUBIT_RETRO_THREADS": os.environ.get("QUBIT_RETRO_THREADS", "unset"),
    }


def measure_setup() -> float:
    """Median import time over fresh interpreters, after one that fills the bytecode cache."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for k in range(SETUP_INTERPRETERS + 1):
        out = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE], cwd=ROOT, env=env,
            capture_output=True, text=True, check=True, timeout=60,
        )
        if k:
            times.append(float(out.stdout))
    return statistics.median(times)


def make_work_dir() -> Path:
    """A new directory for one run's files, placed apart from earlier runs'.

    Creating and deleting thousands of files leaves an ext4 block group slow
    to allocate inodes in for a while afterwards, which would slow the runs
    that follow. With the top-level-directory flag on the parent, ext4
    places each run's directory (named uniquely) in a group of its own;
    filesystems without the flag keep their usual placement.
    """
    parent = ROOT / ".bench_run"
    parent.mkdir(exist_ok=True)
    try:
        fd = os.open(parent, os.O_RDONLY)
        try:
            flags = struct.unpack("i", fcntl.ioctl(fd, _FS_IOC_GETFLAGS, bytes(4)))[0]
            fcntl.ioctl(fd, _FS_IOC_SETFLAGS, struct.pack("i", flags | _FS_TOPDIR_FL))
        finally:
            os.close(fd)
    except OSError:
        pass
    work = parent / f"work-{os.getpid()}-{time_ns()}"
    work.mkdir()
    return work


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


class Runner:
    """Runs operations of one workload into fresh output directories, checking each."""

    def __init__(self, workload, work: Path) -> None:
        self.workload = workload
        self.work = work
        self.tracer = None
        self.attempted = self.failed = 0
        self.notes: dict = {}
        self.files_written = self.bytes_written = 0

    def run(self, spec) -> float:
        """Run and check one operation; return its wall time inside ``cli.main``.

        Checks run outside the timed call and keep only counters, so the
        benchmark's memory does not grow with the number of operations.
        """
        outdir = self.work / f"op{self.attempted:06d}"
        if self.tracer is not None:
            self.tracer.op_id = self.attempted
        self.attempted += 1
        res = self.workload.run(spec, outdir)
        if self.tracer is not None and outdir.is_dir():
            for entry in os.scandir(outdir):
                self.files_written += 1
                self.bytes_written += entry.stat().st_size
        try:
            ok = self.workload.check(res, self.notes)
        except (OSError, ValueError, LookupError):
            ok = False
            res.error = res.error or traceback.format_exc()
        if not ok:
            self.failed += 1
            print(f"FAILED {self.workload.name} {outdir.name} {res.spec!r} codes={res.codes}",
                  file=sys.stderr)
            print(res.error or res.stdout, file=sys.stderr)
        # Removed while its data is still only in the page cache (the kernel
        # writes dirty data back after about 30 s), so freeing it is cheap.
        shutil.rmtree(outdir, ignore_errors=True)
        return res.seconds

    def loop(self, seconds: float) -> array:
        """Closed loop over the workload's stream for ``seconds``, in whole chunks.

        Every distinct input runs at least once. Only the operation times
        are kept, so the benchmark's memory does not grow with throughput.
        """
        times = array("d")
        stream = self.workload.stream()
        deadline = perf_counter() + seconds
        while (perf_counter() < deadline or len(times) < self.workload.distinct
               or len(times) % self.workload.chunk):
            times.append(self.run(next(stream)))
        return times


def timed_run(workload, runner: Runner, seconds: float, setup_s: float) -> tuple[dict, dict]:
    for spec in workload.round()[: workload.warmup_ops]:
        runner.run(spec)
    times = runner.loop(seconds)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    chunk = workload.chunk
    rates = [
        workload.items_per_op * chunk / sum(times[k : k + chunk])
        for k in range(0, len(times), chunk)
    ]
    ms = [t * 1e3 for t in times]
    values = {
        "setup_s": setup_s,
        "peak_rss_mb": rss_mb,
        "items_per_s": statistics.median(rates),
        "call_p50_ms": statistics.median(ms),
        "call_p90_ms": percentile(ms, 90.0),
    }
    info = {"timed_operations": len(times), "chunks": len(rates), "item": workload.item,
            "items_per_operation": workload.items_per_op}
    return {name: (values[name], unit) for name, (unit, _) in END_TO_END.items()}, info


def traced_run(workload, runner: Runner, seconds: float, tracer) -> tuple[dict, dict]:
    """Alternate untraced and traced rounds of the workload's fixed operation list.

    Per-layer values are per traced round; every round runs the same
    operations, so counts come out as whole numbers that repeat exactly.
    """
    plain, traced = [], []
    deadline = perf_counter() + seconds
    while not traced or perf_counter() < deadline:
        plain.append(sum(runner.run(spec) for spec in workload.round()))
        runner.tracer = tracer
        tracer.install()
        try:
            traced.append(sum(runner.run(spec) for spec in workload.round()))
        finally:
            tracer.uninstall()
            runner.tracer = None

    rounds = len(traced)
    totals = tracer.layer_totals()
    totals["io.files_written"] = runner.files_written
    totals["io.bytes_written"] = runner.bytes_written
    values = {
        name: total // rounds if isinstance(total, int) and total % rounds == 0 else total / rounds
        for name, total in totals.items()
    }
    decisions = totals["bayes.decisions"]
    values["bayes.feasible_ratio"] = totals["bayes.feasible"] / decisions if decisions else 0.0
    values["trace.round_s"] = statistics.median(plain)
    values["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    info = {"rounds": rounds, "round_operations": len(workload.round()),
            "untraced_round_s": plain, "traced_round_s": traced}
    return {name: (values[name], unit) for name, unit, _ in PER_LAYER}, info


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "qubit_retro" / "__init__.py").is_file():
        print(f"error: no qubit_retro package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    env = _environment(args, np.__version__)
    # Before the inputs are written, so their files are young when the run ends.
    setup_s = None if args.trace else measure_setup()
    work = make_work_dir()
    try:
        workload = WORKLOADS[args.workload](work, args.seed, args.tiny)
        runner = Runner(workload, work)
        if args.trace:
            tracer = Tracer()
            metrics, info = traced_run(workload, runner, args.seconds, tracer)
            out = ROOT / ".bench_run" / "spans"
            out.mkdir(parents=True, exist_ok=True)
            tracer.write(out / f"{args.workload}.npz")
        else:
            metrics, info = timed_run(workload, runner, args.seconds, setup_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    env["loadavg_after"] = list(os.getloadavg())

    print("env " + json.dumps(env, sort_keys=True))
    print("info " + json.dumps(info, sort_keys=True))
    print("oracle " + json.dumps(runner.notes, sort_keys=True))
    failed, attempted = runner.failed, runner.attempted
    print(f"fail_ratio {failed / attempted:.6g} ({failed} of {attempted} operations)")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value if isinstance(value, int) else format(value, '.6g')} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
