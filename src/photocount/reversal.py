"""Reversing measurements and measure-then-reverse trajectory simulation.

A one-count process with operator M is physically reversible on a subspace
when M has a bounded left inverse there; the reversing measurement is the
two-outcome model {success, fail} with success operator eta * pinv(M) and a
Hermitian square-root completion on the fail branch.  |eta|^2 is capped by
the background of M, and at the cap the success probability conditioned on
a one-count equals the reversibility figure of the counter.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .counters import CounterKind, build_counter
from .ensemble import Ensemble
from .errors import NonReversible, ZeroProbability
from .fock import Operator, StateVector, min_eigenvalue
from .metrics import outcome_statistics, post_measurement_state

__all__ = [
    "ReversingMeasurement",
    "TrajectoryStats",
    "build_reversing",
    "verify_recovery",
    "trajectory_sim",
]

_INVERSE_FLOOR = 1e-12


@dataclass(frozen=True)
class ReversingMeasurement:
    """Two-outcome model undoing one target outcome on a support subspace."""

    target_outcome: str
    success_op: Operator
    fail_op: Operator
    eta_sq: float


def build_reversing(
    op: Operator, support_dim: int, eta_fraction: float = 1.0
) -> ReversingMeasurement:
    """Reversing measurement for one outcome operator on the lowest
    support_dim levels.

    The success operator is eta * pinv(op restricted to those levels), zero
    off the support image; |eta|^2 = eta_fraction * background keeps the pair
    {success, fail} a valid measurement, with equality at eta_fraction = 1
    giving the maximal success probability.
    """
    if not 0.0 < eta_fraction <= 1.0:
        raise ValueError("eta_fraction must lie in (0, 1]")
    floor = min_eigenvalue(op.adjoint() @ op, support_dim)
    if floor <= _INVERSE_FLOOR:
        raise NonReversible(
            f"background = {max(floor, 0.0):.3g}; no bounded left inverse on the support"
        )
    eta_sq = eta_fraction * floor
    restricted = op.entries.copy()
    restricted[:, support_dim:] = 0.0
    success = np.sqrt(eta_sq) * np.linalg.pinv(restricted)
    defect = np.eye(op.dim) - success.conj().T @ success
    eigvals, eigvecs = np.linalg.eigh(defect)
    fail = (eigvecs * np.sqrt(np.clip(eigvals, 0.0, None))) @ eigvecs.conj().T
    return ReversingMeasurement(
        target_outcome="1",
        success_op=Operator(success),
        fail_op=Operator(fail),
        eta_sq=float(eta_sq),
    )


def verify_recovery(
    state: StateVector, op: Operator, rev: ReversingMeasurement
) -> dict[str, float]:
    """Success probability and recovered-state fidelity for one input state.

    For states inside the support the success probability equals
    eta_sq / p(m) and the recovered state matches the input exactly.
    """
    prob = float(np.linalg.norm(op.apply(state)) ** 2)
    if prob <= 1e-15:
        raise ZeroProbability("the target outcome cannot occur on this state")
    post = post_measurement_state(op, state)
    success_image = rev.success_op.apply(post)
    success_prob = float(np.linalg.norm(success_image) ** 2)
    recovered = StateVector(success_image / np.linalg.norm(success_image))
    fidelity = float(abs(state.overlap(recovered)))
    return {"success_prob": success_prob, "recovery_fidelity": fidelity}


@dataclass(frozen=True)
class TrajectoryStats:
    trials: int
    one_counts: int
    successes: int
    mean_recovery_fidelity: float
    empirical_success_rate: float
    seed: int


def trajectory_sim(
    kind: CounterKind,
    gamma: float,
    ensemble: Ensemble,
    trials: int,
    seed: int,
) -> TrajectoryStats:
    """Monte Carlo of draw-state, measure, and (on one-count) try to reverse.

    Uses a counter-based (Philox) generator keyed by the seed with a fixed
    draw order, so results are reproducible bit for bit.  The success rate
    conditioned on one-count converges to the counter's reversibility.
    """
    if kind not in (CounterKind.QC, CounterKind.QQC):
        raise NonReversible(f"{kind.value} one-count has background = 0")
    if trials < 10_000:
        raise ValueError("at least 10^4 trials are required")

    model = build_counter(kind, gamma, ensemble.dim)
    one_count_op = model.operator_for("1")
    rev = build_reversing(one_count_op, ensemble.support_dim, eta_fraction=1.0)

    stats = outcome_statistics(model, ensemble)
    cond_one = stats[model.outcomes.index("1")].conditional
    success_given_one = np.minimum(rev.eta_sq / cond_one, 1.0)

    # Per-node recovery fidelity (the trajectory through a node is
    # deterministic once the outcomes are fixed).
    fidelities = np.empty(ensemble.n_samples)
    for i in range(ensemble.n_samples):
        res = verify_recovery(StateVector(ensemble.states[i]), one_count_op, rev)
        fidelities[i] = res["recovery_fidelity"]

    rng = np.random.Generator(np.random.Philox(seed))
    nodes = rng.choice(ensemble.n_samples, size=trials, p=ensemble.weights)
    u_outcome = rng.random(trials)
    u_reverse = rng.random(trials)

    one_count_mask = u_outcome < cond_one[nodes]
    success_mask = one_count_mask & (u_reverse < success_given_one[nodes])
    n_one = int(np.count_nonzero(one_count_mask))
    n_success = int(np.count_nonzero(success_mask))
    mean_fid = float(np.mean(fidelities[nodes[success_mask]])) if n_success else float("nan")
    rate = n_success / n_one if n_one else float("nan")
    return TrajectoryStats(
        trials=trials,
        one_counts=n_one,
        successes=n_success,
        mean_recovery_fidelity=mean_fid,
        empirical_success_rate=rate,
        seed=seed,
    )
