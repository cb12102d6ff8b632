"""Seeded random generators shared across the test suite, plus the
terminal summary that prints one line per acceptance guarantee."""

import numpy as np

from qubit_retro import (
    BlochState,
    ChannelRep,
    PauliChannel,
    analytic_inverse,
    compose,
    gamel_report,
    is_unscathed,
)

ACCEPTANCE_RESULTS: list = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance gate")
    for name, ok in ACCEPTANCE_RESULTS:
        terminalreporter.write_line(f"[{'PASS' if ok else 'FAIL'}] {name}")


def random_pauli(rng: np.random.Generator, margin: float = 0.0) -> PauliChannel:
    """Random Pauli channel; with margin > 0, keep max |lambda_i| < 1 - margin."""
    while True:
        pc = PauliChannel(rng.dirichlet(np.ones(4)))
        if np.abs(pc.lam).max() < 1.0 - margin:
            return pc


def random_bloch(rng: np.random.Generator, rmax: float = 1.0) -> BlochState:
    """State drawn uniformly from the Bloch ball of radius rmax."""
    u = rng.normal(size=3)
    u /= np.linalg.norm(u)
    return BlochState(u * rmax * rng.uniform() ** (1.0 / 3.0))


def random_unitary(rng: np.random.Generator) -> np.ndarray:
    """Haar-random 2x2 unitary via QR with phase fixing."""
    z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_unital(rng: np.random.Generator, margin: float = 1e-3):
    """Unital channel built as conj-by-u . P . conj-by-v around a Pauli core.

    Returns (rep, u, pc, v) so tests can compare against the known factors.
    """
    pc = random_pauli(rng, margin)
    u = random_unitary(rng)
    v = random_unitary(rng)
    rep = compose(
        ChannelRep.from_unitary(u),
        compose(ChannelRep.from_pauli(pc), ChannelRep.from_unitary(v)),
    )
    return rep, u, pc, v


def random_hermitian(rng: np.random.Generator, n: int) -> np.ndarray:
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (z + z.conj().T) / 2.0


def scalar_verdict(pc: PauliChannel, s: BlochState, tol: float = 1e-9):
    """(feasible, slack) of one pair by the Choi route.

    The oracle for the verdict kernel, which single queries and batches
    share: the slacks are gamel_report's reading of a Choi matrix, the
    candidate's on the interior and the channel's own on the boundary. No
    verdict of the package reads a Choi matrix, so this is the only Choi
    route, and it agrees with the kernel to a few 1e-15. A boundary pair
    that is not unscathed gets slack (-1, -1, -1).
    """
    if np.abs(pc.lam).max() >= 1.0 - 1e-12:
        if is_unscathed(pc, s) is None:
            return False, np.full(3, -1.0)
        return True, gamel_report(pc.choi, tol).slack
    report = gamel_report(analytic_inverse(pc, s).choi, tol)
    return report.feasible, report.slack
