"""The four photodetection models and their probe-level constructions.

Each counter is a two-outcome measurement {no-count, one-count} with a small
coupling gamma.  One-count operators:

    pc   (photon counter)        gamma * a
    qc   (quantum counter)       gamma * a^dag
    qpc  (QND photon counter)    gamma * a^dag a
    qqc  (QND quantum counter)   gamma * a a^dag

No-count operators are the order-gamma^2 truncations I - (gamma^2/2) X with
X the corresponding quadratic form; the leftover completeness defect is
O(gamma^4) and is tracked explicitly by ``completeness_residual`` instead of
being absorbed into an exact square root.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .fock import (
    Operator,
    ladder,
    matrix_exponential,
    polar_decompose,
    support_projector_of,
)

__all__ = [
    "CounterKind",
    "MeasurementModel",
    "build_counter",
    "completeness_residual",
    "compose_models",
    "probe_model_operators",
    "unitary_part_deviation",
    "proportionality_deviation",
]

GAMMA_MAX = 0.5


class CounterKind(enum.Enum):
    PC = "pc"
    QC = "qc"
    QPC = "qpc"
    QQC = "qqc"

    @classmethod
    def parse(cls, label: str) -> "CounterKind":
        try:
            return cls(label.lower())
        except ValueError:
            raise ValueError(f"unknown counter kind {label!r}") from None


@dataclass(frozen=True)
class MeasurementModel:
    """Labeled outcome set with one operator per outcome."""

    label: str
    outcomes: tuple[str, ...]
    operators: tuple[Operator, ...]
    gamma: float
    dim: int

    def __post_init__(self):
        if len(self.outcomes) != len(self.operators):
            raise ValueError("one operator per outcome is required")
        if any(op.dim != self.dim for op in self.operators):
            raise ValueError("operator dimensions do not match the model")

    def operator_for(self, outcome: str) -> Operator:
        try:
            return self.operators[self.outcomes.index(outcome)]
        except ValueError:
            raise KeyError(f"unknown outcome {outcome!r}") from None


def _quadratic_form(kind: CounterKind, dim: int) -> Operator:
    if kind is CounterKind.PC:
        return ladder("number", dim)
    if kind is CounterKind.QC:
        return ladder("antinormal_number", dim)
    if kind is CounterKind.QPC:
        n = ladder("number", dim)
        return n @ n
    anti = ladder("antinormal_number", dim)
    return anti @ anti


def _one_count_operator(kind: CounterKind, gamma: float, dim: int) -> Operator:
    if kind is CounterKind.PC:
        return gamma * ladder("annihilation", dim)
    if kind is CounterKind.QC:
        return gamma * ladder("creation", dim)
    if kind is CounterKind.QPC:
        return gamma * ladder("number", dim)
    return gamma * ladder("antinormal_number", dim)


def _validate(gamma: float, dim: int, allow_zero_gamma: bool = False) -> None:
    low_ok = gamma >= 0.0 if allow_zero_gamma else gamma > 0.0
    if not (low_ok and gamma <= GAMMA_MAX):
        raise ValueError(f"gamma must lie in (0, {GAMMA_MAX}], got {gamma}")
    if dim < 4:
        raise ValueError("truncation dimension must be at least 4")


def build_counter(kind: CounterKind, gamma: float, dim: int) -> MeasurementModel:
    """Closed-form two-outcome model for the requested counter."""
    _validate(gamma, dim)
    one = _one_count_operator(kind, gamma, dim)
    no = Operator.identity(dim) - (gamma**2 / 2.0) * _quadratic_form(kind, dim)
    return MeasurementModel(
        label=kind.value, outcomes=("0", "1"), operators=(no, one), gamma=gamma, dim=dim
    )


def completeness_residual(model: MeasurementModel, support_dim: int) -> float:
    """Spectral norm of I - sum_m M_m^dag M_m on the lowest support_dim levels."""
    total = np.zeros((model.dim, model.dim), dtype=complex)
    for op in model.operators:
        total += op.adjoint().entries @ op.entries
    defect = np.eye(model.dim) - total
    return float(np.linalg.norm(defect[:support_dim, :support_dim], 2))


def compose_models(first: MeasurementModel, second: MeasurementModel) -> MeasurementModel:
    """Sequential measurement: ``second`` applied after ``first``.

    Outcome labels read like operator products, second outcome first, and the
    operator for (m2, m1) is M2 @ M1.  States may climb up to two number
    levels, so callers should keep the ensemble support at least three levels
    below the truncation edge.
    """
    if first.dim != second.dim:
        raise ValueError("cannot compose models of different dimension")
    outcomes = []
    operators = []
    for m2, op2 in zip(second.outcomes, second.operators):
        for m1, op1 in zip(first.outcomes, first.operators):
            outcomes.append(f"{m2}{m1}")
            operators.append(op2 @ op1)
    return MeasurementModel(
        label=f"{second.label}*{first.label}",
        outcomes=tuple(outcomes),
        operators=tuple(operators),
        gamma=first.gamma,
        dim=first.dim,
    )


def probe_hamiltonian(kind: CounterKind, dim: int) -> Operator:
    """Field-probe coupling with the energy scale factored out.

    The joint basis is field-major: index 2n + p with p the probe level.
    For the absorbing/emitting counters the probe is a two-level atom under
    an exchange coupling; for the QND counters it is a pair of degenerate
    levels driven at a rate set by the photon-number form.
    """
    raise_op = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)  # |1><0|
    lower_op = raise_op.conj().T
    flip = raise_op + lower_op
    if kind in (CounterKind.PC, CounterKind.QC):
        a = ladder("annihilation", dim).entries
        joint = np.kron(a, raise_op) + np.kron(a.conj().T, lower_op)
    elif kind is CounterKind.QPC:
        joint = np.kron(ladder("number", dim).entries, flip)
    else:
        joint = np.kron(ladder("antinormal_number", dim).entries, flip)
    return Operator(joint)


def probe_model_operators(kind: CounterKind, gamma: float, dim: int) -> MeasurementModel:
    """Exact measurement operators from the unitary probe interaction.

    The probe starts in |g> (pc) or |e> (qc) or the first QND level, evolves
    under exp(-i gamma h), and is read out projectively; the field-space
    blocks <m|U|i> are the measurement operators.  They agree with the
    closed forms of ``build_counter`` to first order in gamma, up to a global
    phase of -i on the one-count branch.
    """
    _validate(gamma, dim, allow_zero_gamma=True)
    joint_unitary = matrix_exponential(probe_hamiltonian(kind, dim), -1j * gamma).entries
    init = 1 if kind is CounterKind.QC else 0
    count_on = 1 - init
    blocks = {
        "1": joint_unitary[count_on::2, init::2],
        "0": joint_unitary[init::2, init::2],
    }
    return MeasurementModel(
        label=f"probe_{kind.value}",
        outcomes=("0", "1"),
        operators=(Operator(blocks["0"]), Operator(blocks["1"])),
        gamma=gamma,
        dim=dim,
    )


def unitary_part_deviation(op: Operator) -> float:
    """Distance of the polar unitary from the identity on the positive support.

    Zero means the operator is already non-negative there, i.e. the
    measurement back-action carries no extra unitary kick.
    """
    if op.spectral_norm() <= 1e-14:
        raise ValueError("zero operator has no polar structure")
    factors = polar_decompose(op)
    p_support = support_projector_of(factors.positive)
    delta = (factors.unitary.entries - np.eye(op.dim)) @ p_support.entries
    return float(np.linalg.norm(delta, 2))


def proportionality_deviation(
    a: Operator, b: Operator, support_dim: Optional[int] = None
) -> float:
    """Normalized cross-product test for A = const * B.

    Returns max_{ij,kl} |A_ij B_kl - A_kl B_ij| / (max|A| max|B|), optionally
    after compressing both operators to the lowest support_dim levels; zero
    iff the compressions are proportional.
    """
    ma, mb = a.entries, b.entries
    if support_dim is not None:
        ma = ma[:support_dim, :support_dim]
        mb = mb[:support_dim, :support_dim]
    fa, fb = ma.ravel(), mb.ravel()
    scale = float(np.max(np.abs(fa)) * np.max(np.abs(fb)))
    if scale == 0.0:
        return 0.0
    cross = np.outer(fa, fb)
    return float(np.max(np.abs(cross - cross.T)) / scale)
