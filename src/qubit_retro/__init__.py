"""Bayesian inverses of unital qubit channels.

The package decides when a unital qubit channel admits a Bayesian
inverse with respect to a prior state, constructs that inverse
(coefficients, Choi matrix, Kraus operators), certifies the resulting
two-time expectation symmetry, and sweeps channel families to map out
feasibility regions.
"""

from . import bayes, channels, errors, linalg, scans, serialize
from .bayes import *  # noqa: F403
from .channels import *  # noqa: F403
from .errors import *  # noqa: F403
from .linalg import *  # noqa: F403
from .scans import *  # noqa: F403
from .serialize import *  # noqa: F403

__version__ = "0.1.0"

__all__ = ["__version__"] + [
    name
    for module in (channels, bayes, scans, linalg, serialize, errors)
    for name in module.__all__
]
