"""Print the versions and BLAS set-up the benchmarked package runs with.

    python3 perfbench/machine.py

Run with the same environment as the benchmark's child processes, so that it
reports the interpreter, numpy, scipy and OpenBLAS those processes load, and
which copy of photocount they import.  Prints one JSON object.
"""

from __future__ import annotations

import ctypes
import glob
import json
import os
import platform

import numpy as np
import scipy

import photocount


def openblas() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info = {"name": blas.get("name"), "version": blas.get("version"), "threads": None}
    # numpy wheels bundle a prefixed OpenBLAS next to the package.
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*.so*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = fn()
                return info
    return info


if __name__ == "__main__":
    print(json.dumps({
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": openblas(),
        "photocount_file": photocount.__file__,
        "photocount_version": photocount.__version__,
        "cpu_count": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }))
