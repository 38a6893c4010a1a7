"""Photodetection back-action toolkit on truncated Fock spaces.

Builds the four two-outcome photon-counter models (absorbing, emitting, and
their QND versions), evaluates information gain, fidelity, physical
reversibility, and detection efficiency over predefined state families, and
constructs reversing measurements that undo a one-count on its support.
"""

from .counters import (
    CounterKind,
    MeasurementModel,
    build_counter,
    completeness_residual,
    compose_models,
    probe_model_operators,
    proportionality_deviation,
    unitary_part_deviation,
)
from .ensemble import (
    Ensemble,
    bloch_two_state_ensemble,
    expectation,
    haar_ensemble,
)
from .errors import (
    FidelityOne,
    NonReversible,
    NumericInconsistency,
    PhotocountError,
    ZeroProbability,
)
from .fock import (
    Operator,
    PolarFactors,
    StateVector,
    ladder,
    matrix_exponential,
    min_eigenvalue,
    polar_decompose,
)
from .metrics import (
    CounterReport,
    OutcomeMetrics,
    OutcomeStats,
    background,
    batched_information,
    efficiency,
    fidelity_after,
    fit_gamma_squared,
    full_report,
    gamma_sweep,
    information_gain,
    mean_fidelity,
    mean_information,
    mean_reversibility,
    moment_n1,
    moment_n2,
    moment_n3,
    outcome_probability,
    outcome_statistics,
    post_measurement_state,
    resolve_model,
    reversibility,
)
from .reversal import (
    ReversingMeasurement,
    TrajectoryStats,
    build_reversing,
    trajectory_sim,
    verify_recovery,
)

__version__ = "0.1.0"
