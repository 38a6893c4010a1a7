"""Dense complex linear algebra on a truncated Fock space.

States are amplitude vectors over the number basis |0>, ..., |dim-1>;
operators are dense complex matrices indexed by photon number.  Everything
here is a pure function of its inputs; arrays inside the wrapper types are
frozen after construction so values can be shared freely.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "StateVector",
    "Operator",
    "ladder",
    "matrix_exponential",
]

LADDER_KINDS = ("annihilation", "creation", "number", "antinormal_number")

_HERMITIAN_TOL = 1e-12


def _frozen(array: np.ndarray) -> np.ndarray:
    out = np.array(array, dtype=complex)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class StateVector:
    """Complex amplitudes c_n over the truncated number basis."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.ndim != 1 or amps.size < 1:
            raise ValueError("state requires a nonempty 1-d amplitude vector")
        object.__setattr__(self, "amplitudes", _frozen(amps))

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    @classmethod
    def basis(cls, dim: int, n: int) -> "StateVector":
        """Number state |n> on a dim-dimensional truncation."""
        if not 0 <= n < dim:
            raise ValueError(f"basis index {n} outside [0, {dim})")
        amps = np.zeros(dim, dtype=complex)
        amps[n] = 1.0
        return cls(amps)

    def overlap(self, other: "StateVector") -> complex:
        """Inner product <self|other>."""
        return complex(np.vdot(self.amplitudes, other.amplitudes))


@dataclass(frozen=True)
class Operator:
    """Dense operator on the truncated space, indexed by photon numbers."""

    entries: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.entries, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.shape[0] < 1:
            raise ValueError("operator requires a nonempty square matrix")
        object.__setattr__(self, "entries", _frozen(mat))

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    @classmethod
    def identity(cls, dim: int) -> "Operator":
        return cls(np.eye(dim, dtype=complex))

    def adjoint(self) -> "Operator":
        return Operator(self.entries.conj().T)

    def is_hermitian(self, tol: float = _HERMITIAN_TOL) -> bool:
        return bool(np.max(np.abs(self.entries - self.entries.conj().T)) <= tol)

    def apply(self, state: StateVector) -> np.ndarray:
        """Raw (unnormalized) image of a state under this operator."""
        return self.entries @ state.amplitudes

    def __matmul__(self, other: "Operator") -> "Operator":
        if self.dim != other.dim:
            raise ValueError("operator dimensions differ")
        return Operator(self.entries @ other.entries)

    def __add__(self, other: "Operator") -> "Operator":
        if self.dim != other.dim:
            raise ValueError("operator dimensions differ")
        return Operator(self.entries + other.entries)

    def __sub__(self, other: "Operator") -> "Operator":
        if self.dim != other.dim:
            raise ValueError("operator dimensions differ")
        return Operator(self.entries - other.entries)

    def __mul__(self, scalar: complex) -> "Operator":
        return Operator(self.entries * scalar)

    __rmul__ = __mul__


def ladder(kind: str, dim: int) -> Operator:
    """Ladder-type operator on a dim-dimensional truncation.

    ``annihilation`` has <n-1|a|n> = sqrt(n); ``creation`` is its adjoint;
    ``number`` is diag(0, ..., dim-1).  ``antinormal_number`` is built as
    number + identity, i.e. diag(1, ..., dim): on the top level the truncated
    product a a^dag would give 0 instead of dim, so the definition-level form
    is used to keep it exact on states supported below the truncation edge.
    """
    if dim < 1:
        raise ValueError("dimension must be at least 1")
    if kind == "annihilation":
        return Operator(np.diag(np.sqrt(np.arange(1, dim)), 1))
    if kind == "creation":
        return ladder("annihilation", dim).adjoint()
    if kind == "number":
        return Operator(np.diag(np.arange(dim, dtype=float)))
    if kind == "antinormal_number":
        return Operator(np.diag(np.arange(1, dim + 1, dtype=float)))
    raise ValueError(f"unknown ladder kind {kind!r}; expected one of {LADDER_KINDS}")


def matrix_exponential(op: Operator, scale: complex = 1.0) -> Operator:
    """exp(scale * op), exact to machine precision at these matrix sizes.

    A Hermitian op is exponentiated through its eigendecomposition,
    V diag(exp(scale * lambda)) V^dag; only a non-Hermitian op needs scipy,
    which is imported here so that the package itself loads without it.
    """
    if op.is_hermitian():
        eigvals, eigvecs = np.linalg.eigh(op.entries)
        return Operator((eigvecs * np.exp(scale * eigvals)) @ eigvecs.conj().T)
    import scipy.linalg

    return Operator(scipy.linalg.expm(scale * op.entries))
