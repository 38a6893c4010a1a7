"""The package namespace: lazy exports that load nothing and change no
process-wide setting until a name is read; and the imports between the
package's modules."""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import photocount

# The names photocount exports.
EXPORTED = {
    "MeasurementModel", "build_counter", "completeness_residual",
    "probe_model_operators", "unitary_part_deviation",
    "Ensemble", "bloch_two_state_ensemble",
    "NonReversible", "NumericInconsistency", "PhotocountError",
    "ZeroProbability",
    "CounterReport", "OutcomeMetrics", "background", "batched_information",
    "efficiency", "evaluate", "fit_gamma_squared", "full_report", "gamma_sweep",
    "post_measurement_state",
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


def _package_imports():
    """(module, imported module, names) for every import of a package module
    in src/photocount; the imported module is "" for the package itself, and
    names is empty for a plain import."""
    package = Path(photocount.__file__).parent
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                module = node.module or ""
                if node.level > 0 or module.split(".")[0] == "photocount":
                    target = module.removeprefix("photocount").lstrip(".")
                    yield path.stem, target, [alias.name for alias in node.names]
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "photocount":
                        yield path.stem, alias.name.removeprefix("photocount").lstrip("."), []


def test_no_module_imports_another_modules_private_name():
    private = [
        f"{module} imports {name} from {target}"
        for module, target, names in _package_imports()
        for name in names
        if name.startswith("_") and not (name.startswith("__") and name.endswith("__"))
    ]
    assert private == []


def test_reversal_imports_nothing_from_metrics():
    imported = {target for module, target, _ in _package_imports() if module == "reversal"}
    assert imported == {"counters", "ensemble", "errors", "fock"}


def test_frozen_fields_are_set_only_in_post_init():
    # A model or ensemble is mutated only while it is being constructed.
    package = Path(photocount.__file__).parent
    outside = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        inside = {
            id(node)
            for function in ast.walk(tree)
            if isinstance(function, ast.FunctionDef) and function.name == "__post_init__"
            for node in ast.walk(function)
        }
        outside += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and node.attr == "__setattr__"
            and isinstance(node.value, ast.Name)
            and node.value.id == "object"
            and id(node) not in inside
        ]
    assert outside == []


def test_only_the_package_lists_public_names():
    # __init__._SUBMODULES is the one list of public names; a module's own
    # __all__ would repeat it.
    package = Path(photocount.__file__).parent
    assigned = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        if path.name != "__init__.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign))
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        if isinstance(target, ast.Name) and target.id == "__all__"
    ]
    assert assigned == []


def _names_read():
    """Every name that package code outside __init__ reads: a name, an
    attribute or an import, not a string."""
    package = Path(photocount.__file__).parent
    read = set()
    for path in sorted(package.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                read.add(node.name)
    return read


def test_every_export_has_a_caller_or_a_readme_entry():
    # A public name is read by package code, or the README names it in
    # backticks as part of the documented API; otherwise it is dead code.
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    documented = {
        word for span in re.findall(r"`([^`]*)`", readme) for word in re.findall(r"\w+", span)
    }
    names = [name for names in photocount._SUBMODULES.values() for name in names]
    assert [name for name in names if name not in _names_read() | documented] == []


def test_every_unexported_function_has_a_caller():
    # A public module-level function that the package does not export is
    # read by package code; otherwise it is dead code.  The README does not
    # excuse it, since no documented import path reaches it.
    package = Path(photocount.__file__).parent
    functions = [
        f"{path.stem}.{node.name}"
        for path in sorted(package.glob("*.py"))
        for node in ast.parse(path.read_text()).body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
        and node.name not in photocount.__all__
    ]
    assert functions
    read = _names_read()
    assert [name for name in functions if name.split(".")[1] not in read] == []
