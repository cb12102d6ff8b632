"""Invert a unital channel that is not diagonal in the Pauli basis.

Any unital qubit channel factors as U . P . V with P a Pauli channel and
U, V unitary conjugations. An inverse found for P in that rotated frame
transports back to an inverse of the original channel, and the one-call
route lands on the same operator. The payoff is operational: two-time
expectation values of the reversed process mirror those of the forward
process with the measurement order swapped.
"""

import numpy as np

from qubit_retro import (
    BlochState,
    ChannelRep,
    PauliChannel,
    apply,
    bayes_residual,
    bayesian_inverse,
    compose,
    transport_inverse,
    two_time_projector,
    unital_to_pauli,
)


def su2(axis, angle):
    """Rotation by `angle` about `axis` as a 2x2 special unitary."""
    n = np.asarray(axis, float)
    n = n / np.linalg.norm(n)
    sigma = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
    return np.cos(angle / 2) * np.eye(2) - 1j * np.sin(angle / 2) * np.einsum(
        "i,ijk->jk", n, sigma
    )


# The channel under study: a Pauli core sandwiched between two rotations.
core = PauliChannel((0.75, 0.12, 0.08, 0.05))
u_in = su2((1.0, 2.0, 0.5), 0.9)
v_in = su2((0.0, 1.0, -1.0), -1.7)
channel = compose(
    ChannelRep.from_unitary(u_in),
    compose(ChannelRep.from_pauli(core), ChannelRep.from_unitary(v_in)),
)
prior = BlochState((0.25, -0.30, 0.15))

# Step 1: recover the factors from the transfer matrix alone.
u, pc, v = unital_to_pauli(channel)
rebuilt = compose(
    ChannelRep.from_unitary(u),
    compose(ChannelRep.from_pauli(pc), ChannelRep.from_unitary(v)),
)
print("recovered Pauli eigenvalues:", np.round(pc.lam, 6))
print("factorization residual:     ", f"{np.abs(rebuilt.ptm - channel.ptm).max():.3e}")
print()

# Step 2: invert the core with respect to the prior seen in the rotated frame,
# then undo the rotations around the result.
prior_rotated = apply(ChannelRep.from_unitary(v), prior)
record = bayesian_inverse(pc, prior_rotated)
inverse_manual = transport_inverse(u, v, record)
print("Pauli-frame identity residual:", f"{record.residual:.3e}")
print(
    "transported inverse residual: ",
    f"{bayes_residual(channel, prior, inverse_manual):.3e}",
)

# Step 3: the one-call route does the same factoring internally.
record_direct = bayesian_inverse(channel, prior)
gap = np.abs(record_direct.ptm - inverse_manual.ptm).max()
print("one-call vs manual transport: ", f"{gap:.3e}")
print()

# Step 4: the prior comes back, and two-time statistics run backwards.
posterior = apply(channel, prior)
recovered = apply(record_direct, posterior)
print("prior          ", np.round(prior.r, 10))
print("recovered prior", np.round(recovered.r, 10))

forward = np.array(
    [[two_time_projector(channel, prior, i, j) for j in (1, 2, 3)] for i in (1, 2, 3)]
)
reverse = np.array(
    [
        [two_time_projector(record_direct, posterior, i, j) for j in (1, 2, 3)]
        for i in (1, 2, 3)
    ]
)
print("max |forward[i, j] - reverse[j, i]|:", f"{np.abs(forward - reverse.T).max():.3e}")
