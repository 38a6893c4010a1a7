"""Measurement statistics: probabilities, posteriors, information, fidelity,
reversibility, and per-counter reports.

Conventions.  Information gain of an outcome is the relative entropy (base 2)
of the posterior over the state family with respect to the prior weights;
for uniform discretizations this equals the drop in Shannon entropy and it
is independent of the discretization.  Reversibility of an outcome is the
posterior-weighted maximal success probability background/p(m|a) of a
reversing measurement.  Averages over outcomes use the exact outcome
probabilities of the truncated operators.

Each (model, ensemble) pair is evaluated once: one outcome_statistics call
and one background per outcome give every per-outcome figure and mean, and
the two identities (mean information equals the mutual-information double
sum; mean reversibility equals the sum of backgrounds) are checked once, to
1e-10, in that pass.  full_report and the per-figure functions
fidelity_after, reversibility and mean_* are views of that one evaluation,
so each raises ZeroProbability when some outcome has zero total probability.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .counters import (
    CounterKind,
    MeasurementModel,
    build_counter,
    compose_models,
)
from .ensemble import Ensemble
from .errors import FidelityOne, NumericInconsistency, ZeroProbability
from .fock import Operator, StateVector, min_eigenvalue

__all__ = [
    "OutcomeStats",
    "OutcomeMetrics",
    "CounterReport",
    "moment_n1",
    "moment_n2",
    "moment_n3",
    "outcome_probability",
    "post_measurement_state",
    "outcome_statistics",
    "information_gain",
    "mean_information",
    "fidelity_after",
    "mean_fidelity",
    "background",
    "reversibility",
    "mean_reversibility",
    "efficiency",
    "full_report",
    "resolve_model",
    "batched_information",
    "fit_gamma_squared",
    "gamma_sweep",
]

_PROB_FLOOR = 1e-15
_IDENTITY_TOL = 1e-10


def moment_n1(state: StateVector) -> float:
    """Sum_n n |c_n|^2."""
    probs = np.abs(state.amplitudes) ** 2
    return float(np.sum(np.arange(state.dim) * probs))


def moment_n2(state: StateVector) -> float:
    """Sum_n n^2 |c_n|^2."""
    probs = np.abs(state.amplitudes) ** 2
    return float(np.sum(np.arange(state.dim) ** 2 * probs))


def moment_n3(state: StateVector) -> float:
    """Sum_n (n+1)^2 |c_n|^2."""
    probs = np.abs(state.amplitudes) ** 2
    return float(np.sum((np.arange(state.dim) + 1) ** 2 * probs))


@dataclass(frozen=True)
class OutcomeStats:
    """Per-outcome conditional probabilities, total, and posterior weights."""

    outcome: str
    conditional: np.ndarray
    total: float
    posterior: np.ndarray


@dataclass(frozen=True)
class OutcomeMetrics:
    probability: float
    information_gain: float
    fidelity: float
    reversibility: float
    efficiency: Optional[float]


@dataclass(frozen=True)
class CounterReport:
    label: str
    gamma: float
    per_outcome: dict[str, OutcomeMetrics]
    mean_information: float
    mean_fidelity: float
    mean_reversibility: float
    backgrounds: dict[str, float]


def outcome_probability(op: Operator, state: StateVector) -> float:
    """Born probability <psi| op^dag op |psi> of the outcome attached to op."""
    if not state.is_normalized():
        raise ValueError("state must be normalized")
    return float(np.linalg.norm(op.apply(state)) ** 2)


def post_measurement_state(op: Operator, state: StateVector) -> StateVector:
    """Normalized state after the outcome attached to op."""
    image = op.apply(state)
    prob = float(np.linalg.norm(image) ** 2)
    if prob <= _PROB_FLOOR:
        raise ZeroProbability(
            f"outcome probability {prob:.3e} is below the floor; state is unreachable"
        )
    return StateVector(image / np.sqrt(prob))


def _conditional_probabilities(op: Operator, ensemble: Ensemble) -> np.ndarray:
    images = ensemble.states @ op.entries.T
    return np.sum(np.abs(images) ** 2, axis=1)


def outcome_statistics(model: MeasurementModel, ensemble: Ensemble) -> list[OutcomeStats]:
    """Conditional probabilities p(m|a), totals p(m), and posteriors p(a|m)."""
    if ensemble.dim != model.dim:
        raise ValueError("ensemble and model dimensions differ")
    out = []
    for outcome, op in zip(model.outcomes, model.operators):
        cond = _conditional_probabilities(op, ensemble)
        total = float(np.sum(ensemble.weights * cond))
        if total > 0.0:
            posterior = ensemble.weights * cond / total
        else:
            posterior = np.zeros_like(ensemble.weights)
        out.append(
            OutcomeStats(outcome=outcome, conditional=cond, total=total, posterior=posterior)
        )
    return out


def information_gain(stats: OutcomeStats) -> float:
    """Relative entropy (bits) of the posterior with respect to the prior.

    Raises ZeroProbability if the outcome has zero total probability.
    """
    if stats.total <= 0.0:
        raise ZeroProbability(f"outcome {stats.outcome!r} has zero total probability")
    mask = stats.conditional > 0.0
    ratio = stats.conditional[mask] / stats.total
    # Non-negative by Gibbs' inequality; clamp the rounding residue (NaN
    # passes through max unchanged).
    return max(float(np.sum(stats.posterior[mask] * np.log2(ratio))), 0.0)


def _evaluate(model: MeasurementModel, ensemble: Ensemble, label: str) -> CounterReport:
    """Every figure of merit of (model, ensemble) from one outcome_statistics
    call and one background per outcome; both identities are checked here.

    Samples an outcome cannot occur on carry zero posterior weight and are
    skipped.  Raises ZeroProbability if some outcome has zero total
    probability, since its fidelity and reversibility are undefined.
    """
    stats = outcome_statistics(model, ensemble)
    per_outcome: dict[str, OutcomeMetrics] = {}
    backgrounds: dict[str, float] = {}
    double_sum = 0.0
    for s, op in zip(stats, model.operators):
        info = information_gain(s)
        mask = s.conditional > 0.0
        cond, post = s.conditional[mask], s.posterior[mask]
        double_sum += float(np.sum(post * s.total * np.log2(cond / s.total)))
        # Fidelity: posterior average of |<psi(a)|psi(m,a)>|.  It and reversibility
        # are at most 1; clamp the rounding residue (NaN passes through min).
        images = ensemble.states @ op.entries.T
        overlaps = np.abs(np.sum(ensemble.states.conj() * images, axis=1))
        fid = min(float(np.sum(post * (overlaps[mask] / np.sqrt(cond)))), 1.0)
        # Reversibility: posterior average of background / p(m|a).
        b = background(model, s.outcome, ensemble.support_dim)
        rev = 0.0 if b == 0.0 else min(float(np.sum(post * (b / cond))), 1.0)
        try:
            eff = efficiency(info, fid)
        except FidelityOne:
            eff = None
        per_outcome[s.outcome] = OutcomeMetrics(
            probability=s.total,
            information_gain=info,
            fidelity=fid,
            reversibility=rev,
            efficiency=eff,
        )
        backgrounds[s.outcome] = b

    mean_info = sum(m.probability * m.information_gain for m in per_outcome.values())
    mean_fid = sum(m.probability * m.fidelity for m in per_outcome.values())
    mean_rev = sum(m.probability * m.reversibility for m in per_outcome.values())
    background_sum = sum(backgrounds.values())
    if abs(mean_info - double_sum) > _IDENTITY_TOL:
        raise NumericInconsistency(
            f"mutual-information identity violated: {mean_info!r} vs {double_sum!r}"
        )
    if abs(mean_rev - background_sum) > _IDENTITY_TOL:
        raise NumericInconsistency(
            "reversibility/background identity violated: "
            f"{mean_rev!r} vs {background_sum!r}"
        )
    return CounterReport(
        label=label,
        gamma=model.gamma,
        per_outcome=per_outcome,
        mean_information=float(mean_info),
        mean_fidelity=float(mean_fid),
        mean_reversibility=float(mean_rev),
        backgrounds=backgrounds,
    )


def mean_information(model: MeasurementModel, ensemble: Ensemble) -> float:
    """Outcome-averaged information gain, equal to the mutual information."""
    return _evaluate(model, ensemble, model.label).mean_information


def fidelity_after(model: MeasurementModel, ensemble: Ensemble, outcome: str) -> float:
    """Posterior-averaged overlap |<psi(a)|psi(m,a)>| after the outcome."""
    return _evaluate(model, ensemble, model.label).per_outcome[outcome].fidelity


def mean_fidelity(model: MeasurementModel, ensemble: Ensemble) -> float:
    return _evaluate(model, ensemble, model.label).mean_fidelity


def background(model: MeasurementModel, outcome: str, support_dim: int) -> float:
    """Infimum of p(m|psi) over unit states on the lowest support_dim levels."""
    op = model.operator_for(outcome)
    return max(0.0, min_eigenvalue(op.adjoint() @ op, support_dim))


def reversibility(model: MeasurementModel, ensemble: Ensemble, outcome: str) -> float:
    """Posterior-averaged maximal success probability of undoing the outcome."""
    return _evaluate(model, ensemble, model.label).per_outcome[outcome].reversibility


def mean_reversibility(model: MeasurementModel, ensemble: Ensemble) -> float:
    """Outcome-averaged reversibility, equal to the sum of backgrounds."""
    return _evaluate(model, ensemble, model.label).mean_reversibility


def efficiency(information: float, fidelity: float) -> float:
    """Information gained per unit of fidelity loss, I / (1 - F)."""
    if fidelity >= 1.0 - 1e-12:
        raise FidelityOne("fidelity loss vanishes; efficiency is undefined")
    return information / (1.0 - fidelity)


def resolve_model(label: str, gamma: float, dim: int) -> MeasurementModel:
    """Model for a counter label, or for 'joint': an emitting counter
    followed by an absorbing one."""
    if label == "joint":
        first = build_counter(CounterKind.QC, gamma, dim)
        second = build_counter(CounterKind.PC, gamma, dim)
        return replace(compose_models(first, second), label="joint")
    return build_counter(CounterKind.parse(label), gamma, dim)


def full_report(label: str, gamma: float, ensemble: Ensemble) -> CounterReport:
    """All per-outcome and mean figures of merit for one counter at one gamma."""
    return _evaluate(resolve_model(label, gamma, ensemble.dim), ensemble, label)


def batched_information(
    model: MeasurementModel,
    ensemble: Ensemble,
    outcome: str = "1",
    n_batches: int = 100,
) -> tuple[float, np.ndarray]:
    """Information gain of an outcome plus per-batch values for error bars.

    The full-sample value is the point estimate; the spread of the batch
    values estimates the Monte Carlo standard error (std / sqrt(n_batches)).
    Raises ZeroProbability if the outcome has zero total probability.
    """
    stats = outcome_statistics(model, ensemble)[model.outcomes.index(outcome)]
    full = information_gain(stats)
    batches = []
    for idx in np.array_split(np.arange(ensemble.n_samples), n_batches):
        w = ensemble.weights[idx]
        cond = stats.conditional[idx]
        total = float(np.sum(w * cond) / np.sum(w))
        if total <= 0.0:
            batches.append(0.0)
            continue
        mask = cond > 0.0
        posterior = w[mask] * cond[mask] / (total * np.sum(w))
        batches.append(float(np.sum(posterior * np.log2(cond[mask] / total))))
    return full, np.array(batches)


def fit_gamma_squared(gammas: np.ndarray, values: np.ndarray) -> tuple[float, float]:
    """Least-squares fit of values ~ c gamma^2 + d gamma^4; returns (c, rms)."""
    gammas = np.asarray(gammas, dtype=float)
    values = np.asarray(values, dtype=float)
    design = np.column_stack([gammas**2, gammas**4])
    coeffs, *_ = np.linalg.lstsq(design, values, rcond=None)
    residuals = values - design @ coeffs
    rms = float(np.sqrt(np.mean(residuals**2)))
    return float(coeffs[0]), rms


@dataclass(frozen=True)
class SweepResult:
    label: str
    gammas: np.ndarray
    mean_information: np.ndarray
    mean_fidelity: np.ndarray
    mean_reversibility: np.ndarray

    def fits(self) -> dict[str, tuple[float, float]]:
        """gamma^2 coefficients of mean information, fidelity loss, and
        reversibility loss."""
        return {
            "information": fit_gamma_squared(self.gammas, self.mean_information),
            "fidelity_loss": fit_gamma_squared(self.gammas, 1.0 - self.mean_fidelity),
            "reversibility_loss": fit_gamma_squared(
                self.gammas, 1.0 - self.mean_reversibility
            ),
        }


def gamma_sweep(label: str, gammas: np.ndarray, ensemble: Ensemble) -> SweepResult:
    """Mean information, fidelity, and reversibility across couplings."""
    gammas = np.asarray(gammas, dtype=float)
    infos, fids, revs = [], [], []
    for g in gammas:
        report = full_report(label, float(g), ensemble)
        infos.append(report.mean_information)
        fids.append(report.mean_fidelity)
        revs.append(report.mean_reversibility)
    return SweepResult(
        label=label,
        gammas=gammas,
        mean_information=np.array(infos),
        mean_fidelity=np.array(fids),
        mean_reversibility=np.array(revs),
    )
