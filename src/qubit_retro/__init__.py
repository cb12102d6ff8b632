"""Bayesian inverses of unital qubit channels.

The package decides when a unital qubit channel admits a Bayesian
inverse with respect to a prior state, constructs that inverse
(coefficients, Choi matrix, Kraus operators), certifies the resulting
two-time expectation symmetry, and sweeps channel families to map out
feasibility regions.
"""

from .bayes import (
    FeasibilityReport,
    InverseRecord,
    NoInverse,
    WITNESSES,
    analytic_inverse,
    bayes_residual,
    bayesian_inverse,
    gamel_report,
    is_unscathed,
    pauli_frame_decision,
    pauli_frame_verdicts,
    two_time_projector,
    unscathed_residuals,
)
from .channels import (
    BlochState,
    ChannelRep,
    PauliChannel,
    adjoint,
    apply,
    apply_operator,
    choi_from_jam,
    compose,
    is_cptp,
    jamiolkowski,
    kraus_from_choi,
    transport_inverse,
    unital_to_pauli,
)
from .errors import (
    EigenvalueOnBoundaryError,
    InternalCPViolationError,
    MonotonicityWarning,
    NotCPTPError,
    NotHermitianError,
    NotPSDError,
    NotUnitalError,
    QubitRetroError,
    SingularSError,
)
from .linalg import (
    PAULIS,
    anticommutator,
    herm_eig,
    partial_transpose,
    pauli_expand,
    pauli_reconstruct,
    tensor,
)
from .scans import (
    DepolarizingQuantities,
    RegionCell,
    ScanGrid,
    ScanResult,
    ThreeEntrySummary,
    bb84_channel,
    boundary_chi,
    depolarizing_lambda,
    depolarizing_quantities,
    emit_csv,
    emit_svg,
    scan_bb84,
    scan_depolarizing,
    scan_three_entry,
)
from .serialize import (
    channel_from_json,
    channel_to_json,
    dump_json,
    load_channel,
    load_state,
    matrix_from_pairs,
    matrix_to_pairs,
    state_from_json,
    state_to_json,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # channels
    "BlochState",
    "PauliChannel",
    "ChannelRep",
    "jamiolkowski",
    "choi_from_jam",
    "kraus_from_choi",
    "apply",
    "apply_operator",
    "adjoint",
    "compose",
    "is_cptp",
    "unital_to_pauli",
    "transport_inverse",
    # bayes
    "FeasibilityReport",
    "InverseRecord",
    "NoInverse",
    "two_time_projector",
    "bayes_residual",
    "is_unscathed",
    "unscathed_residuals",
    "gamel_report",
    "analytic_inverse",
    "pauli_frame_decision",
    "pauli_frame_verdicts",
    "WITNESSES",
    "bayesian_inverse",
    # scans
    "ScanGrid",
    "RegionCell",
    "ScanResult",
    "DepolarizingQuantities",
    "ThreeEntrySummary",
    "depolarizing_lambda",
    "depolarizing_quantities",
    "bb84_channel",
    "scan_depolarizing",
    "scan_bb84",
    "scan_three_entry",
    "boundary_chi",
    "emit_csv",
    "emit_svg",
    # linalg
    "PAULIS",
    "tensor",
    "anticommutator",
    "partial_transpose",
    "pauli_expand",
    "pauli_reconstruct",
    "herm_eig",
    # serialize
    "matrix_to_pairs",
    "matrix_from_pairs",
    "channel_to_json",
    "channel_from_json",
    "state_to_json",
    "state_from_json",
    "load_channel",
    "load_state",
    "dump_json",
    # errors
    "QubitRetroError",
    "NotHermitianError",
    "NotPSDError",
    "NotUnitalError",
    "NotCPTPError",
    "InternalCPViolationError",
    "SingularSError",
    "EigenvalueOnBoundaryError",
    "MonotonicityWarning",
]
