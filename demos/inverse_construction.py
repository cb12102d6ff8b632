"""Construct a Bayesian inverse for a Pauli channel, step by step.

A Bayesian inverse of a channel E with respect to a prior state rho is a
channel F whose two-time correlations run backwards:

    {E(rho) (x) I, J[F]} = {I (x) rho, J[E^dag]}.

This script builds one explicitly, certifies it, and shows what it does.
"""

import numpy as np

from qubit_retro import (
    BlochState,
    NoInverse,
    PauliChannel,
    apply,
    bayes_residual,
    bayesian_inverse,
)

np.set_printoptions(precision=6, suppress=True)

# A generic Pauli channel (mostly identity, a little of each flip) and a
# prior state well inside the Bloch ball.
channel = PauliChannel(np.array([0.8, 0.1, 0.06, 0.04]))
prior = BlochState(np.array([0.3, 0.2, -0.4]))

print("channel probabilities:", channel.p)
print("contraction factors lambda:", channel.lam)
print("prior Bloch vector:", prior.r)
print()

record = bayesian_inverse(channel, prior)
assert not isinstance(record, NoInverse)

# The candidate is found in closed form; the report carries the three
# scalar slacks whose non-negativity makes it a genuine channel.
print("S = sum_i lambda_i^2 r_i^2 =", record.S)
print("feasibility slacks:", record.report.slack)
print("identity residual:", record.residual)
print()

print("coefficient matrix a (the inverse sends sigma_j to sum_i a_ij sigma_i / ...):")
print(record.a)
print()

print("Kraus operators of the inverse:")
for k in record.kraus:
    print(k)
    print()

# Two sanity checks. First, a Bayesian inverse always recovers the prior
# from the channel output.
pushed = apply(channel, prior)
recovered = apply(record, pushed)
print("channel output Bloch vector: ", pushed.r)
print("recovered prior Bloch vector:", recovered.r)

# Second, the defining identity holds to machine precision, while a wrong
# candidate (the adjoint, say, which only works for special priors) fails it.
print()
print("residual of the constructed inverse:", bayes_residual(channel, prior, record))
print("residual of the adjoint map:        ", bayes_residual(channel, prior, channel))
