"""Measurement statistics: probabilities, posteriors, information, fidelity,
reversibility, and per-counter reports.

Conventions.  Information gain of an outcome is the relative entropy (base 2)
of the posterior over the state family with respect to the prior weights;
for uniform discretizations this equals the drop in Shannon entropy and it
is independent of the discretization.  Reversibility of an outcome is the
posterior-weighted maximal success probability background/p(m|a) of a
reversing measurement.  Averages over outcomes use the exact outcome
probabilities of the truncated operators.

evaluate(model, ensemble) is the one evaluation of a (model, ensemble) pair,
in one stacked pass over all outcomes: one matmul of the operators' support
columns with the family's level-major amplitudes (Ensemble.amplitudes)
gives the images M|psi(a)> of every outcome and state down to the last row
those columns reach (MeasurementModel.reach), (K, rows, N), and reductions
over the stacked arrays give every per-outcome figure and mean in a
CounterReport (p(m|a) sums those rows, the fidelity overlaps the support
rows of the same images; the backgrounds read the effects).  Every product
left out is an exact zero: on the two-level family each operator is read
on 2 columns and at most 3 rows, not dim of each.  If some conditional is
zero, each outcome is reduced on its own, over the states it can occur on.
The two identities (mean information equals the mutual information H(M) -
H(M|A) computed from the prior and p(m|a); mean reversibility equals the
sum of backgrounds) are checked once, to 1e-10, in that pass.
full_report is evaluate on the model that counters.build_counter builds
and validates once for a counter label, also for 'joint'; a caller that
needs one figure reads it from the report.  Both raise ZeroProbability
when some outcome has zero total probability.
evaluate and batched_information read the effects on the support through
MeasurementModel.support_effects, which raises ValueError when they are not
outcome probabilities there.

batched_information is the one Haar Monte Carlo path: it checks each
model's effects on the d-level support and streams the draw
(ensemble.haar_blocks) through streamed_information once for all of them.
With equal weights a gain needs only the sums of c and c log2 c of the
conditionals c, so that pass reads the populations |c_n|^2 block by block
(ensemble.BLOCK_ROWS, 16,384 rows) and adds each block's two sums into
those of its batches: nothing it holds grows with the sample count.
evaluate keeps the images M|psi>, not the populations: that form rounds
differently and moves the 12th printed digit of some metrics and sweep
outputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .counters import MeasurementModel, build_counter
from .ensemble import Ensemble, haar_blocks
from .errors import NumericInconsistency, ZeroProbability


_IDENTITY_TOL = 1e-10


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


def _figures(weights, cond, post, totals, overlaps, backgrounds) -> np.ndarray:
    """Information gain, mutual-information share, and the fidelity and
    reversibility sums of R outcomes, one column of a (4, R) array each,
    from R rows of conditionals (every one positive), posteriors and
    overlaps, and the R totals and backgrounds: the four integrands fill
    one (4, R, N) array, which one sum reduces."""
    terms = np.empty((4,) + cond.shape)
    gain, share, fid, rev = terms
    np.divide(cond, totals[:, None], out=gain)
    np.log2(gain, out=gain)
    gain *= post
    # This outcome's share of H(M) - H(M|A), from the prior and p(m|a).
    np.log2(cond, out=share)
    share *= weights * cond
    # Fidelity: posterior average of |<psi(a)|psi(m,a)>|; reversibility:
    # posterior average of background / p(m|a).
    np.sqrt(cond, out=fid)
    np.divide(overlaps, fid, out=fid)
    fid *= post
    np.divide(backgrounds[:, None], cond, out=rev)
    rev *= post
    figures = terms.sum(axis=2)
    figures[1] -= totals * np.log2(totals)
    return figures


def evaluate(model: MeasurementModel, ensemble: Ensemble) -> CounterReport:
    """Every figure of merit of (model, ensemble) from one stacked pass over
    all outcomes; both identities are checked here.

    Samples an outcome cannot occur on carry zero posterior weight and are
    skipped.  Raises ValueError if the effects on the support are not
    outcome probabilities (MeasurementModel.support_effects), and
    ZeroProbability if some outcome has zero total probability, since its
    fidelity and reversibility are undefined.
    """
    if ensemble.dim != model.dim:
        raise ValueError("ensemble and model dimensions differ")
    support = ensemble.support_dim
    effects = model.support_effects(support)
    # Images M|psi(a)> of every outcome and state, level-major (K, rows, N):
    # only the support columns multiply a nonzero amplitude, and no
    # operator maps them past row reach[support - 1], so every product left
    # out is an exact zero.  From their squared norms the conditionals
    # p(m|a) (K, N), totals p(m) (K,) and posteriors p(a|m) (K, N).
    rows = max(support, int(model.reach[support - 1]))
    images = model.operators[:, :rows, :support] @ ensemble.amplitudes
    squares = np.abs(images)
    squares **= 2
    cond = squares.sum(axis=1)
    posterior = ensemble.weights * cond
    totals = posterior.sum(axis=1)
    if totals.min() <= 0.0:
        outcome = model.outcomes[int(np.argmax(totals <= 0.0))]
        raise ZeroProbability(f"outcome {outcome!r} has zero total probability")
    posterior /= totals[:, None]
    # <psi(a)|M|psi(a)> reads the support rows only; the products overwrite
    # those images, which nothing reads afterwards.
    products = images[:, :support]
    products *= ensemble.amplitudes.conj()
    overlaps = np.abs(products.sum(axis=1))
    floors = effects.min(axis=1)
    backgrounds = dict(zip(model.outcomes, floors.tolist()))
    weights = ensemble.weights

    if cond.min() > 0.0:
        # Stacked fast path: the two-level family puts no node on a pole.
        figures = _figures(weights, cond, posterior, totals, overlaps, floors)
    else:
        # Each outcome over the states it can occur on; a row reduced alone
        # gives the bits it gives inside a stack.
        figures = np.empty((4, len(model.outcomes)))
        for k, mask in enumerate(cond > 0.0):
            figures[:, k] = _figures(
                weights[mask],
                cond[k, mask][None],
                posterior[k, mask][None],
                totals[k : k + 1],
                overlaps[k, mask][None],
                floors[k : k + 1],
            )[:, 0]

    per_outcome: dict[str, OutcomeMetrics] = {}
    mutual_information = 0.0
    columns = zip(model.outcomes, totals.tolist(), backgrounds.values(), figures.T.tolist())
    for outcome, total, b, (gain, share, fid_sum, rev_sum) in columns:
        mutual_information += share
        # The gain is non-negative by Gibbs' inequality, fidelity and
        # reversibility are at most 1; clamp the rounding residue.
        info = max(gain, 0.0)
        fid = min(fid_sum, 1.0)
        rev = 0.0 if b == 0.0 else min(rev_sum, 1.0)
        per_outcome[outcome] = OutcomeMetrics(
            probability=total,
            information_gain=info,
            fidelity=fid,
            reversibility=rev,
            efficiency=efficiency(info, fid),
        )

    mean_info = sum(m.probability * m.information_gain for m in per_outcome.values())
    mean_fid = sum(m.probability * m.fidelity for m in per_outcome.values())
    mean_rev = sum(m.probability * m.reversibility for m in per_outcome.values())
    background_sum = sum(backgrounds.values())
    if abs(mean_info - mutual_information) > _IDENTITY_TOL:
        raise NumericInconsistency(
            "mutual-information identity violated: "
            f"{mean_info!r} vs {mutual_information!r}"
        )
    if abs(mean_rev - background_sum) > _IDENTITY_TOL:
        raise NumericInconsistency(
            "reversibility/background identity violated: "
            f"{mean_rev!r} vs {background_sum!r}"
        )
    return CounterReport(
        label=model.label,
        gamma=model.gamma,
        per_outcome=per_outcome,
        mean_information=float(mean_info),
        mean_fidelity=float(mean_fid),
        mean_reversibility=float(mean_rev),
        backgrounds=backgrounds,
    )


def efficiency(information: float, fidelity: float) -> Optional[float]:
    """Information gained per unit of fidelity loss, I / (1 - F), or None
    when the fidelity loss vanishes and the ratio is undefined."""
    if fidelity >= 1.0 - 1e-12:
        return None
    return information / (1.0 - fidelity)


def full_report(label: str, gamma: float, ensemble: Ensemble) -> CounterReport:
    """All per-outcome and mean figures of merit for one counter at one gamma."""
    return evaluate(build_counter(label, gamma, ensemble.dim), ensemble)


def _block_sums(rows: np.ndarray, scaled: np.ndarray, cuts: np.ndarray) -> np.ndarray:
    """Sums of c and c log2 c (0 log 0 = 0), (K, 2, len(cuts)), over the
    segments of rows that start at cuts, with c = rows @ scaled[k] for all
    K effects from one product.  Raises ValueError if some c is negative or
    not finite (a NaN gave a NaN gain, a negative c a wrong one)."""
    terms = np.empty((len(scaled), 2, len(rows)))
    cond, c_log_c = terms[:, 0], terms[:, 1]
    np.matmul(scaled, rows.T, out=cond)
    if not (cond.min() >= 0.0 and cond.max() < np.inf):
        raise ValueError("conditionals must be finite and non-negative")
    c_log_c.fill(0.0)
    np.log2(cond, out=c_log_c, where=cond > 0.0)
    c_log_c *= cond
    return np.add.reduceat(terms, cuts, axis=2)


def streamed_information(
    outcome: str,
    effects: np.ndarray,
    blocks: Iterable[np.ndarray],
    n_rows: int,
    n_batches: int = 100,
) -> tuple[np.ndarray, np.ndarray]:
    """Whole-sample gains (K,) and np.array_split batch gains (K, n_batches)
    of an outcome under K diagonal effects (K, support_dim), over n_rows
    equally weighted rows of populations that blocks yields in order.

    A gain of m rows is S2 / S1 - log2(S1 / m), with S1 = sum c and S2 =
    sum c log2 c over their conditionals c, so one pass adds each block's
    sums into its batches'.  Each effect is first divided by its mean, which
    leaves the gain as it is and keeps log2(S1 / m) near 0 on Haar rows, so
    the difference does not cancel at tiny couplings.  Raises ValueError if
    n_batches lies outside [1, n_rows], a conditional is negative or not
    finite, or the blocks do not hold n_rows rows (at the first block past
    them), and ZeroProbability if an effect vanishes on the support (before
    the first block is read) or a batch has zero total probability.
    """
    if not 1 <= n_batches <= n_rows:
        raise ValueError(f"n_batches = {n_batches} outside [1, {n_rows}]")
    scales = effects.mean(axis=1)
    if (scales <= 0.0).any():
        raise ZeroProbability(f"outcome {outcome!r} has zero total probability")
    scaled = effects / scales[:, None]
    # Batch j holds rows edges[j]:edges[j + 1], as np.array_split splits them.
    size, larger = divmod(n_rows, n_batches)
    j = np.arange(n_batches + 1)
    edges = size * j + np.minimum(j, larger)
    sums = np.zeros((len(scaled), 2, n_batches))  # S1 and S2 of each batch
    start = stop = 0
    for rows in blocks:
        stop += len(rows)
        if stop > n_rows:
            break  # refused below, before this block is summed or another read
        # The block's rows up to each batch edge inside it, and past the
        # last one, belong to consecutive batches.
        first, last = np.searchsorted(edges, [start, stop - 1], side="right")
        cuts = np.r_[start, edges[first:last]] - start
        sums[:, :, first - 1 : last] += _block_sums(rows, scaled, cuts)
        start = stop
    if stop != n_rows:
        raise ValueError(f"blocks hold {stop} rows, not n_rows = {n_rows}")
    if (sums[:, 0] <= 0.0).any():
        raise ZeroProbability(f"outcome {outcome!r} has zero total probability")

    def gains(s, counts):
        # Non-negative by Gibbs' inequality; clamp the rounding residue.
        return np.maximum(s[:, 1] / s[:, 0] - np.log2(s[:, 0] / counts), 0.0)

    return gains(sums.sum(axis=2), n_rows), gains(sums, np.diff(edges))


def batched_information(
    models: Sequence[MeasurementModel],
    d: int,
    n_samples: int,
    seed: int,
    outcome: str = "1",
    n_batches: int = 100,
) -> tuple[np.ndarray, np.ndarray]:
    """Whole-sample gains (K,) and per-batch gains (K, n_batches) of an
    outcome under K models, over the n_samples equally weighted Haar rows of
    ensemble.haar_blocks(d, n_samples, seed), in one streamed_information
    pass; the spread of the batch gains gives the Monte Carlo standard error
    (std / sqrt(n_batches)).

    Raises KeyError for an unknown outcome, ValueError for effects that are
    not outcome probabilities on the support (support_effects), for what
    haar_blocks refuses and for n_batches outside [1, n_samples], and
    ZeroProbability if the outcome (or a batch) has zero total probability;
    only a zero-total batch is found after the draw has begun.
    """
    effects = []
    for model in models:
        model.support_effects(d)
        effects.append(model.effect_for(outcome)[:d])
    return streamed_information(
        outcome, np.stack(effects), haar_blocks(d, n_samples, seed), n_samples, n_batches)


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
