"""Photodetection back-action toolkit on truncated Fock spaces.

Builds the four two-outcome photon-counter models (absorbing, emitting, and
their QND versions), evaluates information gain, fidelity, physical
reversibility, and detection efficiency over predefined state families, and
constructs reversing measurements that undo a one-count on its support.

The names below are exported lazily (PEP 562): ``import photocount`` loads
neither a submodule nor numpy, and changes no process-wide setting; the
first read of a name imports the submodule that defines it.
"""

import sys
from importlib import import_module

__version__ = "0.1.0"

# submodule -> the names it exports
_SUBMODULES = {
    "counters": ("MeasurementModel", "background", "build_counter",
                 "completeness_residual", "probe_model_operators", "unitary_part_deviation"),
    "ensemble": ("Ensemble", "bloch_two_state_ensemble"),
    "errors": ("NonReversible", "NumericInconsistency", "PhotocountError", "ZeroProbability"),
    "fock": (),
    "metrics": ("CounterReport", "OutcomeMetrics", "batched_information", "efficiency",
                "evaluate", "fit_gamma_squared", "full_report", "gamma_sweep"),
    "reversal": ("ReversingMeasurement", "TrajectoryStats", "build_reversing",
                 "post_measurement_state", "trajectory_sim", "verify_recovery"),
}
_EXPORTS = {name: module for module, names in _SUBMODULES.items() for name in names}
__all__ = list(_EXPORTS)


def __getattr__(name: str):
    # Not cached in this module, so a name always reads its submodule's
    # current binding; sys.modules is read first because import_module costs
    # a few microseconds even for a loaded module.
    if name in _EXPORTS:
        module = f"{__name__}.{_EXPORTS[name]}"
        return getattr(sys.modules.get(module) or import_module(module), name)
    if name in _SUBMODULES:
        return import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
