"""The package namespace: lazy exports that load nothing and change no
process-wide setting until a name is read."""

import json
import os
import subprocess
import sys

import pytest

import photocount

# The names photocount exported when its __init__ imported every submodule.
EXPORTED = {
    "CounterKind", "MeasurementModel", "build_counter", "completeness_residual",
    "compose_models", "probe_model_operators", "proportionality_deviation",
    "unitary_part_deviation",
    "Ensemble", "bloch_two_state_ensemble", "haar_populations",
    "FidelityOne", "NonReversible", "NumericInconsistency", "PhotocountError",
    "ZeroProbability",
    "ladder", "matrix_exponential",
    "CounterReport", "OutcomeMetrics", "OutcomeStats", "background", "batched_information",
    "efficiency", "evaluate", "fit_gamma_squared", "full_report", "gamma_sweep",
    "information_gain", "outcome_statistics", "post_measurement_state", "resolve_model",
    "ReversingMeasurement", "TrajectoryStats", "build_reversing", "trajectory_sim",
    "verify_recovery",
}
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def test_import_loads_no_numpy_and_leaves_the_environment_alone():
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARIABLES}
    probe = (
        "import json, os, sys; before = dict(os.environ); import photocount; "
        "print(json.dumps(['numpy' in sys.modules, 'OPENBLAS_NUM_THREADS' in os.environ, "
        "dict(os.environ) == before, photocount.__version__]))"
    )
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, check=True)
    assert json.loads(out.stdout) == [False, False, True, "0.1.0"]


def test_all_is_the_exported_set():
    assert len(photocount.__all__) == len(EXPORTED)
    assert set(photocount.__all__) == EXPORTED


def test_each_name_is_its_defining_submodules_object():
    for name in photocount.__all__:
        obj = getattr(photocount, name)
        assert obj.__module__.startswith("photocount."), name
        assert obj is getattr(sys.modules[obj.__module__], name), name


def test_dir_lists_every_exported_name():
    assert EXPORTED <= set(dir(photocount))
    assert "__version__" in dir(photocount)


def test_submodules_and_unknown_names():
    assert photocount.fock is sys.modules["photocount.fock"]
    with pytest.raises(AttributeError, match="min_eigenvalue"):
        photocount.min_eigenvalue
