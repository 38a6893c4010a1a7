"""Reversing measurements and measure-then-reverse trajectory simulation.

A one-count process with operator M is physically reversible on a subspace
when M has a bounded left inverse there; the reversing measurement is the
two-outcome model {success, fail} with success operator eta * pinv(M) and a
Hermitian square-root completion on the fail branch.  |eta|^2 is the
background of M, its largest valid value, where the success probability
conditioned on a one-count equals the reversibility figure of the counter,
and it holds the M it undoes.  trajectory_sim returns finite figures or raises.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .counters import MeasurementModel, background
from .ensemble import Ensemble
from .errors import NonReversible, PhotocountError, ZeroProbability
from .fock import read_only


# Unreachable-state floor of post_measurement_state, relative to ||op||_F^2.
_PROB_FLOOR = 1e-15

# Smallest background, relative to the largest effect on the support, for
# which the left inverse counts as bounded.
_INVERSE_FLOOR = 1e-12


@dataclass(frozen=True, eq=False)
class ReversingMeasurement:
    """Two-outcome model undoing one target outcome, of operator target_op, on
    a support subspace; it holds read-only arrays and compares by identity."""

    target_outcome: str
    target_op: np.ndarray
    success_op: np.ndarray
    fail_op: np.ndarray
    eta_sq: float

    def __post_init__(self):
        for name in ("target_op", "success_op", "fail_op"):
            object.__setattr__(self, name, read_only(getattr(self, name), complex))


def build_reversing(model: MeasurementModel, outcome: str, support_dim: int) -> ReversingMeasurement:
    """Reversing measurement for one outcome of a model on the lowest
    support_dim levels.

    The success operator is eta * pinv(M restricted to those levels), zero
    off the support image; |eta|^2 = background, the largest value that
    keeps the pair {success, fail} a valid measurement, gives the maximal
    success probability.  The background must exceed _INVERSE_FLOOR times
    the largest effect on the support, so the test does not depend on the
    coupling's scale.  Raises ValueError first if the effects on the
    support are not outcome probabilities (MeasurementModel.support_effects).
    """
    model.support_effects(support_dim)
    floor = background(model, outcome, support_dim)
    if floor <= _INVERSE_FLOOR * float(np.max(model.effect_for(outcome)[:support_dim])):
        raise NonReversible(
            f"background = {floor:.3g}; no bounded left inverse on the support"
        )
    op = model.operator_for(outcome)
    restricted = op.copy()
    restricted[:, support_dim:] = 0.0
    success = np.sqrt(floor) * np.linalg.pinv(restricted)
    defect = np.eye(model.dim) - success.conj().T @ success
    eigvals, eigvecs = np.linalg.eigh(defect)
    fail = (eigvecs * np.sqrt(np.clip(eigvals, 0.0, None))) @ eigvecs.conj().T
    return ReversingMeasurement(
        target_outcome=outcome, target_op=op, success_op=success, fail_op=fail, eta_sq=floor
    )


def _norms(rows: np.ndarray) -> np.ndarray:
    """Euclidean norm of each complex row, summed as np.linalg.norm sums one
    vector: the dot of the real parts plus the dot of the imaginary parts.
    Its square is taken with np.float_power, which rounds as ``norm ** 2``
    of one float does; ``norms ** 2`` multiplies and can differ in the last
    bit."""
    return np.sqrt(np.vecdot(rows.real, rows.real) + np.vecdot(rows.imag, rows.imag))


def post_measurement_state(op: np.ndarray, states: np.ndarray) -> np.ndarray:
    """Normalized rows op|psi>/||op|psi>|| of states, one row per state.

    An outcome counts as unreachable on a state when its probability is at
    most _PROB_FLOOR times ||op||_F^2, which bounds the probability on any
    unit state, so the floor scales with the coupling; ZeroProbability is
    raised if that holds for any row.  Each row is op @ state, a matrix-vector
    product, so a row has the bits a single state would have.
    """
    images = (op @ states[..., None])[..., 0]
    probs = np.float_power(_norms(images), 2)
    low = float(np.min(probs))
    if low <= _PROB_FLOOR * float(np.linalg.norm(op)) ** 2:
        raise ZeroProbability(
            f"outcome probability {low:.3e} is below the floor; state is unreachable"
        )
    return images / np.sqrt(probs)[..., None]


def verify_recovery(states: np.ndarray, rev: ReversingMeasurement) -> dict[str, np.ndarray]:
    """Success probability and recovered-state fidelity for each row of states,
    measured with the operator rev undoes (rev.target_op), then reversed.

    For states inside the support the success probability equals
    eta_sq / p(m) and the recovered state matches the input exactly.  Raises
    ZeroProbability if the outcome cannot occur on some state.
    """
    post = post_measurement_state(rev.target_op, states)
    success_images = (rev.success_op @ post[..., None])[..., 0]
    norms = _norms(success_images)
    recovered = success_images / norms[..., None]
    # vecdot conjugates its first argument, as np.vdot does for one state.
    fidelities = np.abs(np.vecdot(states, recovered))
    return {"success_prob": np.float_power(norms, 2), "recovery_fidelity": fidelities}


@dataclass(frozen=True)
class TrajectoryStats:
    """Finite statistics of one trajectory_sim run, fields in print order."""

    empirical_success_rate: float
    mean_recovery_fidelity: float
    one_counts: int
    successes: int
    trials: int
    seed: int


def trajectory_sim(
    model: MeasurementModel, ensemble: Ensemble, trials: int, seed: int
) -> TrajectoryStats:
    """Monte Carlo of draw-state, measure with the model, and (on its
    one-count outcome "1") try to reverse.

    A trial's outcomes depend only on the node it draws, so the trials are
    drawn as per-node counts, from one counter-based (Philox) generator
    keyed by the seed, in this order: the visits to each node,
    multinomial(trials, weights); the one-counts among them,
    binomial(visits, p(1 | node)); and the successful reversals among
    those, binomial(one-counts, eta^2 / p(1 | node)).  These counts have
    the joint law of independent trials, results are reproducible bit for
    bit, and nothing grows with the trial count, in time or memory.  The
    mean recovery fidelity is the success-weighted mean of the per-node
    fidelities.  The success rate conditioned on one-count converges to
    the counter's reversibility.  Raises NonReversible for a model with no
    outcome "1"; ValueError for fewer than 10^4 or more than 2^63 - 1
    trials, a negative seed, or effects on the support that are not outcome
    probabilities (MeasurementModel.support_effects); NonReversible if the
    one-count has zero background there; and, after the draw,
    PhotocountError if no trial gives a one-count or none is reversed, so
    every returned field is finite.
    """
    if "1" not in model.outcomes:
        raise NonReversible(
            f"counter {model.label!r} has no one-count outcome '1' to reverse;"
            f" its outcomes are {', '.join(model.outcomes)}"
        )
    if trials < 10_000:
        raise ValueError("at least 10^4 trials are required")
    if trials > 2**63 - 1:  # multinomial counts them in a C long
        raise ValueError(f"trials = {trials} is above 2^63 - 1")
    if seed < 0:
        raise ValueError(f"seed = {seed} is negative")
    if ensemble.dim != model.dim:
        raise ValueError("ensemble and model dimensions differ")
    rev = build_reversing(model, "1", ensemble.support_dim)

    cond_one = ensemble.populations @ model.effect_for("1")[: ensemble.support_dim]
    success_given_one = np.minimum(rev.eta_sq / cond_one, 1.0)
    # An effect of exactly 1 on the support can round cond_one one ulp above
    # 1; such a one-count is certain.
    cond_one = np.minimum(cond_one, 1.0)
    # The trajectory through a node is deterministic once the outcomes are
    # fixed, so each node's recovery fidelity is computed once.
    fidelities = verify_recovery(ensemble.states, rev)["recovery_fidelity"]

    rng = np.random.Generator(np.random.Philox(seed))
    # multinomial would truncate a fractional trial count; index refuses it.
    visits = rng.multinomial(operator.index(trials), ensemble.weights)
    one_counts = rng.binomial(visits, cond_one)
    successes = rng.binomial(one_counts, success_given_one)
    n_one = int(one_counts.sum())
    if n_one == 0:
        raise PhotocountError(f"no one-count in {trials} trials")
    n_success = int(successes.sum())
    if n_success == 0:
        raise PhotocountError(f"no successful reversal in {n_one} one-counts")
    return TrajectoryStats(
        empirical_success_rate=n_success / n_one,
        mean_recovery_fidelity=float(successes @ fidelities / n_success),
        one_counts=n_one,
        successes=n_success,
        trials=trials,
        seed=seed,
    )
