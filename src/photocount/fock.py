"""Array storage on a truncated Fock space.

States are amplitude vectors over the number basis |0>, ..., |dim-1>;
operators are dense complex ndarrays indexed by photon number.  Models and
ensembles hold each such array as the read-only copy made here.
"""

from __future__ import annotations

import numpy as np


def read_only(array, dtype) -> np.ndarray:
    """A read-only copy of array as an ndarray of dtype, the form in which
    models and ensembles hold their arrays: a held array cannot change
    under its holder, and the caller's own arrays stay writeable."""
    out = np.array(array, dtype=dtype)
    out.setflags(write=False)
    return out
