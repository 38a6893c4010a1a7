"""Dense complex linear algebra on a truncated Fock space.

States are amplitude vectors over the number basis |0>, ..., |dim-1>;
operators are dense complex matrices indexed by photon number.  Everything
here is a pure function of its inputs; arrays inside the wrapper types are
frozen after construction so values can be shared freely.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

__all__ = [
    "StateVector",
    "Operator",
    "PolarFactors",
    "ladder",
    "min_eigenvalue",
    "polar_decompose",
    "matrix_exponential",
]

LADDER_KINDS = ("annihilation", "creation", "number", "antinormal_number")

_HERMITIAN_TOL = 1e-12
_SUPPORT_TOL = 1e-10


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

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def is_normalized(self, tol: float = _HERMITIAN_TOL) -> bool:
        return abs(self.norm() ** 2 - 1.0) <= tol

    def normalized(self) -> "StateVector":
        n = self.norm()
        if n == 0.0:
            raise ValueError("cannot normalize the zero vector")
        return StateVector(self.amplitudes / n)

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

    def spectral_norm(self) -> float:
        return float(np.linalg.norm(self.entries, 2))

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


@dataclass(frozen=True)
class PolarFactors:
    """Factors op = unitary @ positive with positive = (op^dag op)^(1/2)."""

    unitary: Operator
    positive: Operator


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


def range_basis(projector: np.ndarray, tol: float = 1e-8) -> np.ndarray:
    """Orthonormal basis for the range of a projector.

    Gram-Schmidt over the projector columns in ascending number-basis order,
    so the basis (and everything derived from it) is deterministic.
    """
    dim = projector.shape[0]
    basis: list[np.ndarray] = []
    for j in range(dim):
        v = projector[:, j].astype(complex)
        for b in basis:
            v = v - b * np.vdot(b, v)
        n = np.linalg.norm(v)
        if n > tol:
            basis.append(v / n)
    if not basis:
        return np.zeros((dim, 0), dtype=complex)
    return np.column_stack(basis)


def min_eigenvalue(op: Operator, support_dim: int) -> float:
    """Smallest eigenvalue of a Hermitian op on span{|0>, ..., |support_dim-1>}.

    Equals the infimum of <psi|op|psi> over unit states in that span.
    """
    if not op.is_hermitian():
        raise ValueError("operator must be Hermitian")
    if not 1 <= support_dim <= op.dim:
        raise ValueError(f"support dimension {support_dim} outside [1, {op.dim}]")
    compression = op.entries[:support_dim, :support_dim]
    return float(np.linalg.eigvalsh(compression)[0])


def polar_decompose(op: Operator) -> PolarFactors:
    """Polar factorization op = U @ P with P = (op^dag op)^(1/2) and U unitary.

    On the support of P the unitary is op applied to P's pseudo-inverse; on
    the kernel of P it is completed by mapping an orthonormal kernel basis to
    an orthonormal basis of the cokernel of op, both taken in ascending
    number-basis order so the output is deterministic.
    """
    dim = op.dim
    gram = op.adjoint().entries @ op.entries
    eigvals, eigvecs = np.linalg.eigh(gram)
    eigvals = np.clip(eigvals, 0.0, None)
    singulars = np.sqrt(eigvals)
    positive = (eigvecs * singulars) @ eigvecs.conj().T

    cutoff = _SUPPORT_TOL * max(1.0, float(singulars.max(initial=0.0)))
    keep = singulars > cutoff
    vs = eigvecs[:, keep]
    if vs.shape[1]:
        partial = op.entries @ (vs * (1.0 / singulars[keep])) @ vs.conj().T
    else:
        partial = np.zeros((dim, dim), dtype=complex)

    kernel = range_basis(np.eye(dim) - vs @ vs.conj().T)
    cokernel = range_basis(np.eye(dim) - partial @ partial.conj().T)
    unitary = partial.copy()
    for k in range(kernel.shape[1]):
        unitary += np.outer(cokernel[:, k], kernel[:, k].conj())
    return PolarFactors(unitary=Operator(unitary), positive=Operator(positive))


def matrix_exponential(op: Operator, scale: complex = 1.0) -> Operator:
    """exp(scale * op), exact to machine precision at these matrix sizes."""
    return Operator(scipy.linalg.expm(scale * op.entries))


def support_projector_of(op: Operator) -> Operator:
    """Projector onto the span of eigenvectors of a PSD op above the cutoff."""
    eigvals, eigvecs = np.linalg.eigh(op.entries)
    cutoff = _SUPPORT_TOL * max(1.0, float(np.abs(eigvals).max(initial=0.0)))
    vs = eigvecs[:, eigvals > cutoff]
    return Operator(vs @ vs.conj().T)
