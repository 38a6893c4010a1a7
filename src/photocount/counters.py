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

``build_counter`` builds each counter in ``LABELS``: these four and ``joint``
(qc, then pc), the one sequential measurement the paper uses, whose stacks
it multiplies into one validated model.  ``probe_model_operators`` builds
the exact operators of the four probe interactions from the same one-count
bands, one rotation per field level.  A model holds a read-only copy of its
operator array (``fock.read_only``), so its effects cannot go stale.

A model owns its support contract: ``MeasurementModel.support_effects`` is
the one check that a family's support stays clear of the truncation edge
and that the effects there are outcome probabilities; every figure reads
them through it.  ``background`` and ``completeness_residual`` read any
level, so they check only that the support lies in [1, dim].
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .fock import read_only


GAMMA_MAX = 0.5
_SUPPORT_TOL = 1e-10
# Off-diagonal entries of an effect M^dag M, relative to the largest effect
# entry of the model, that still count as rounding of a diagonal effect.
_DIAGONAL_TOL = 1e-12
_TINY = np.finfo(float).tiny  # the smallest positive normal double


# The counters build_counter builds, as the CLI's --counter flag names them.
LABELS = ("pc", "qc", "qpc", "qqc", "joint")


@dataclass(frozen=True, eq=False)
class MeasurementModel:
    """Labeled outcome set with one operator per outcome.

    ``operators`` is one read-only complex (outcomes, dim, dim) array, so
    every outcome can be applied in one matmul.  ``effects[k]`` is the
    diagonal of the effect M_k^dag M_k in the number basis, so p(k|psi) =
    sum_n |c_n|^2 effects[k, n]: sums of squares, so no entry is negative
    or -0.0.  ``reach[j]`` is one past the last row in which some operator
    has a nonzero entry in columns 0..j (0 if there is none), so every
    image of a state on the lowest j + 1 levels is exactly zero from row
    reach[j] on: exact for the band operators built here (min(j + 2, dim)
    when some outcome raises, j + 1 otherwise), an upper bound on the rows
    an image needs when products cancel.  Every model here has finite
    operators and diagonal effects; construction rejects one that does
    not.  Models compare and hash by identity, since an array field has no
    single truth value.
    """

    label: str
    outcomes: tuple[str, ...]
    operators: np.ndarray
    gamma: float
    effects: np.ndarray = field(init=False, repr=False)
    reach: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        stack = read_only(self.operators, complex)
        if stack.ndim != 3 or stack.shape != (len(self.outcomes), stack.shape[2], stack.shape[2]):
            raise ValueError("one square operator per outcome is required")
        if not np.isfinite(stack).all():
            raise ValueError("operators must be finite")
        # One flattened M^dag M per row; every (dim + 1)-th entry is diagonal.
        grams = (stack.conj().transpose(0, 2, 1) @ stack).reshape(len(stack), -1)
        diagonal = grams[:, :: stack.shape[1] + 1]
        effects = diagonal.real.copy()
        diagonal[:] = 0.0
        off_diagonal = np.abs(grams)
        bound = _DIAGONAL_TOL * effects.max()
        if off_diagonal.max() > bound:
            outcome = self.outcomes[int(np.argmax(off_diagonal.max(axis=1) > bound))]
            raise ValueError(f"effect of outcome {outcome!r} is not diagonal in the number basis")
        # One past the last row that some outcome reaches from each column,
        # then its running maximum over the columns.
        rows = np.arange(1, stack.shape[1] + 1)[:, None]
        reach = np.maximum.accumulate(np.where(stack.any(axis=0), rows, 0).max(axis=0))
        effects.setflags(write=False)
        reach.setflags(write=False)
        object.__setattr__(self, "operators", stack)
        object.__setattr__(self, "effects", effects)
        object.__setattr__(self, "reach", reach)

    @property
    def dim(self) -> int:
        return self.operators.shape[1]

    def _index(self, outcome: str) -> int:
        try:
            return self.outcomes.index(outcome)
        except ValueError:
            raise KeyError(f"unknown outcome {outcome!r}") from None

    def operator_for(self, outcome: str) -> np.ndarray:
        return self.operators[self._index(outcome)]

    def effect_for(self, outcome: str) -> np.ndarray:
        """Diagonal of M^dag M for the outcome, one entry per number level."""
        return self.effects[self._index(outcome)]

    def support_effects(self, support_dim: int) -> np.ndarray:
        """effects[:, :support_dim], checked to be outcome probabilities there.

        Raises ValueError for a support outside [1, dim - 2], beyond which a
        raising outcome leaks probability past the truncation, for an entry
        above 1 (gamma is too large for the truncated operators), and for a
        positive entry below the smallest normal double, a subnormal
        probability that keeps only a few bits.  An entry that underflows to
        0 passes; its outcome may raise ZeroProbability where it is used.
        """
        _check_support(self, support_dim)
        margin = 2
        if support_dim > self.dim - margin:
            raise ValueError(f"support dimension {support_dim} is too close to the truncation "
                             f"dim {self.dim}; it must be at most dim - {margin}")
        effects = self.effects[:, :support_dim]
        if effects.max() > 1.0:
            k, n = np.unravel_index(np.argmax(effects), effects.shape)
            raise ValueError(
                f"effect of outcome {self.outcomes[k]!r} is {effects[k, n]:.6g} > 1 "
                f"on level {n}; gamma {self.gamma:g} is too large for this support"
            )
        if effects.min(where=effects > 0.0, initial=_TINY) < _TINY:
            k, n = np.argwhere((effects > 0.0) & (effects < _TINY))[0]
            raise ValueError(
                f"effect of outcome {self.outcomes[k]!r} is {effects[k, n]:.6g} on level "
                f"{n}, below the smallest normal double; gamma {self.gamma:g} is too small "
                "for its outcome probabilities to keep their bits"
            )
        return effects


def _check_support(model: MeasurementModel, support_dim: int) -> None:
    if not 1 <= support_dim <= model.dim:
        raise ValueError(f"support dimension {support_dim} outside [1, {model.dim}]")


def background(model: MeasurementModel, outcome: str, support_dim: int) -> float:
    """Infimum of p(m|psi) over unit states on the lowest support_dim levels:
    the smallest diagonal effect entry there, since the effect is diagonal."""
    _check_support(model, support_dim)
    return float(np.min(model.effect_for(outcome)[:support_dim]))


# Per paper counter: the (row, column) where the one-count operator's
# diagonal of nonzero entries starts (a on the superdiagonal, a^dag on the
# subdiagonal), those entries, and X(n) of the no-count operator
# I - (gamma^2/2) X, as functions of the number levels n = 0, ..., dim - 1.
_CLOSED_FORMS = {
    "pc": ((0, 1), lambda n: np.sqrt(n[1:]), lambda n: n),
    "qc": ((1, 0), lambda n: np.sqrt(n[1:]), lambda n: n + 1.0),
    "qpc": ((0, 0), lambda n: n, lambda n: n * n),
    "qqc": ((0, 0), lambda n: n + 1.0, lambda n: (n + 1.0) ** 2),
}


def _closed_form(label: str, gamma: float, dim: int) -> np.ndarray:
    """(no-count, one-count) operator stack of a counter; the one check of
    gamma, and of the one level a model needs, for every model built here."""
    if not 0.0 < gamma <= GAMMA_MAX:
        raise ValueError(f"gamma must lie in (0, {GAMMA_MAX}], got {gamma}")
    if dim < 1:
        raise ValueError("truncation dimension must be at least 1")
    (row, column), one_count, quadratic = _CLOSED_FORMS[label]
    n = np.arange(dim, dtype=float)
    operators = np.zeros((2, dim, dim), dtype=complex)
    # Flattened row by row, a diagonal is a slice of step dim + 1.
    flat = operators.reshape(2, -1)
    flat[0, :: dim + 1] = 1.0 - (gamma**2 / 2.0) * quadratic(n)
    flat[1, row * dim + column :: dim + 1] = gamma * one_count(n)
    return operators


def build_counter(label: str, gamma: float, dim: int) -> MeasurementModel:
    """Closed-form model of a counter in LABELS.  'joint' is qc followed by
    pc: the operator of outcome (m2, m1) is M2 @ M1 of pc's m2 and qc's m1,
    so its double count '11' is gamma^2 a a^dag, below the truncation edge
    the QND quantum counter's one-count times gamma.  An unknown label
    raises ValueError before gamma and dim are checked."""
    if label not in LABELS:
        raise ValueError(f"unknown counter kind {label!r}; expected one of {LABELS}")
    if label != "joint":
        return MeasurementModel(label=label, outcomes=("0", "1"),
                                operators=_closed_form(label, gamma, dim), gamma=gamma)
    first, second = (_closed_form(kind, gamma, dim) for kind in ("qc", "pc"))
    # One stacked matmul gives M2 @ M1 for every (m2, m1) pair.
    products = (second[:, None] @ first[None]).reshape(4, dim, dim)
    return MeasurementModel(label=label, outcomes=("00", "01", "10", "11"),
                            operators=products, gamma=gamma)


def completeness_residual(model: MeasurementModel, support_dim: int) -> float:
    """Spectral norm of I - sum_m M_m^dag M_m on the lowest support_dim levels:
    the largest |1 - sum_m effects[m, n]| there, since every effect is diagonal."""
    _check_support(model, support_dim)
    return float(np.max(np.abs(1.0 - model.effects[:, :support_dim].sum(axis=0))))


def probe_model_operators(label: str, gamma: float, dim: int) -> MeasurementModel:
    """Exact measurement operators of a paper counter's probe interaction.

    The probe starts in |g> (pc), |e> (qc) or level 0 of a degenerate pair
    (qpc, qqc); it evolves under exp(-i gamma h), with h = a s+ + a^dag s-
    for pc and qc and h = X s_x for the QND counters (X = n, n + 1), and is
    read out projectively.  h joins each field level n, with the probe in
    its initial level, to one partner only: the level the one-count
    operator maps n to, with the probe flipped.  So U rotates each pair by
    theta(n) = gamma f(n), the closed form's one-count entry in column n,
    and the operators are diag(cos theta) and -i sin of the one-count band.
    A level with no partner keeps theta = 0: the vacuum of pc, and the top
    level of qc, which the truncated a^dag maps to nothing.  To first order
    in gamma these are the closed forms, up to a phase of -i on the
    one-count.  'joint' and unknown labels raise ValueError; gamma and dim
    are checked as in build_counter.
    """
    if label not in _CLOSED_FORMS:
        raise ValueError(f"no probe model for counter {label!r}")
    band = _closed_form(label, gamma, dim)[1].real
    return MeasurementModel(
        label=f"probe_{label}",
        outcomes=("0", "1"),
        operators=(np.diag(np.cos(band.sum(axis=0))), -1j * np.sin(band)),
        gamma=gamma,
    )


def unitary_part_deviation(op: np.ndarray) -> float:
    """Distance of the polar unitary from the identity on the positive support.

    Zero means the operator is already non-negative there, i.e. the
    measurement back-action carries no extra unitary kick.  With op = W S V^dag
    and V_k, W_k the singular vectors above the relative cutoff,
    (U - I) P_supp = (W_k - V_k) V_k^dag, whose norm is that of W_k - V_k.
    """
    w, s, vh = np.linalg.svd(op)
    if s[0] == 0.0:
        raise ValueError("zero operator has no polar structure")
    keep = s > _SUPPORT_TOL * s[0]
    return float(np.linalg.norm(w[:, keep] - vh[keep].conj().T, 2))
