"""Dense complex linear algebra on a truncated Fock space.

States are amplitude vectors over the number basis |0>, ..., |dim-1>;
operators are dense complex ndarrays indexed by photon number.  Everything
here is a pure function of its inputs.
"""

from __future__ import annotations

import numpy as np


LADDER_KINDS = ("annihilation", "number", "antinormal_number")


def ladder(kind: str, dim: int) -> np.ndarray:
    """Ladder-type operator on a dim-dimensional truncation.

    ``annihilation`` has <n-1|a|n> = sqrt(n), and its transpose is the
    creation operator; ``number`` is diag(0, ..., dim-1).
    ``antinormal_number`` is built as number + identity, i.e. diag(1, ...,
    dim): on the top level the truncated product a a^dag would give 0
    instead of dim, so the definition-level form is used to keep it exact on
    states supported below the truncation edge.
    """
    if dim < 1:
        raise ValueError("dimension must be at least 1")
    if kind == "annihilation":
        return np.diag(np.sqrt(np.arange(1, dim)), 1).astype(complex)
    if kind == "number":
        return np.diag(np.arange(dim, dtype=complex))
    if kind == "antinormal_number":
        return np.diag(np.arange(1, dim + 1, dtype=complex))
    raise ValueError(f"unknown ladder kind {kind!r}; expected one of {LADDER_KINDS}")


def read_only(array, dtype) -> np.ndarray:
    """A read-only copy of array as an ndarray of dtype, the form in which
    models and ensembles hold their arrays: a held array cannot change
    under its holder, and the caller's own arrays stay writeable."""
    out = np.array(array, dtype=dtype)
    out.setflags(write=False)
    return out


def matrix_exponential(matrix: np.ndarray, scale: complex = 1.0) -> np.ndarray:
    """exp(scale * matrix) of a Hermitian matrix (max|A - A^dag| <= 1e-12):
    V diag(exp(scale * lambda)) V^dag from its eigendecomposition, exact to
    machine precision at these sizes.  Raises ValueError for any other matrix.
    """
    if np.max(np.abs(matrix - matrix.conj().T)) > 1e-12:
        raise ValueError("matrix_exponential requires a Hermitian matrix")
    eigvals, eigvecs = np.linalg.eigh(matrix)
    return (eigvecs * np.exp(scale * eigvals)) @ eigvecs.conj().T
