"""Reference computations that the tests compare the library against, and
the instruments (information_gain, proportionality_deviation) they measure
it with."""

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from photocount import (
    CounterReport,
    MeasurementModel,
    NumericInconsistency,
    OutcomeMetrics,
    PhotocountError,
    TrajectoryStats,
    ZeroProbability,
    background,
    build_counter,
    build_reversing,
    efficiency,
)
from photocount.ensemble import BLOCK_ROWS, block_bounds
from photocount.metrics import streamed_information


@dataclass(frozen=True)
class OutcomeStats:
    """Per-outcome conditional probabilities, total, and posterior weights."""

    outcome: str
    conditional: np.ndarray
    total: float
    posterior: np.ndarray


def information_gain(stats):
    """Relative entropy (bits) of the posterior with respect to the prior,
    over the samples the outcome can occur on, clamped at 0 (NaN passes
    through).  Raises ZeroProbability if the outcome has zero total
    probability."""
    if stats.total <= 0.0:
        raise ZeroProbability(f"outcome {stats.outcome!r} has zero total probability")
    cond, post = stats.conditional, stats.posterior
    mask = cond > 0.0
    if not mask.all():
        cond, post = cond[mask], post[mask]
    terms = cond / stats.total
    np.log2(terms, out=terms)
    terms *= post
    return max(float(np.sum(terms)), 0.0)


def proportionality_deviation(a, b, support_dim=None):
    """Normalized cross-product test for A = const * B.

    Returns max_{ij,kl} |A_ij B_kl - A_kl B_ij| / (max|A| max|B|), optionally
    after compressing both operators to the lowest support_dim levels; zero
    iff the compressions are proportional.
    """
    if support_dim is not None:
        a = a[:support_dim, :support_dim]
        b = b[:support_dim, :support_dim]
    fa, fb = a.ravel(), b.ravel()
    scale = float(np.max(np.abs(fa)) * np.max(np.abs(fb)))
    if scale == 0.0:
        return 0.0
    cross = np.outer(fa, fb)
    return float(np.max(np.abs(cross - cross.T)) / scale)


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


def probe_hamiltonian(label, dim):
    """Field-probe coupling of a paper counter with the energy scale
    factored out, on the 2 dim x 2 dim joint space.

    The joint basis is field-major: index 2n + p with p the probe level.
    For the absorbing/emitting counters the probe is a two-level atom under
    an exchange coupling; for the QND counters it is a pair of degenerate
    levels driven at a rate set by the photon-number form.
    """
    raise_op = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)  # |1><0|
    lower_op = raise_op.conj().T
    if label in ("pc", "qc"):
        a = ladder("annihilation", dim)
        return np.kron(a, raise_op) + np.kron(a.conj().T, lower_op)
    form = "number" if label == "qpc" else "antinormal_number"
    return np.kron(ladder(form, dim), raise_op + lower_op)


def probe_reference(label, gamma, dim):
    """(no-count, one-count) blocks <m|U|init> of U = exp(-i gamma h), h the
    probe_hamiltonian, exponentiated by scipy's Pade approximant.  The probe
    starts in |e> for qc and in level 0 for the other counters, and the
    one-count is the other probe level.  probe_model_operators must give
    the same operators to rounding."""
    unitary = scipy.linalg.expm(-1j * gamma * probe_hamiltonian(label, dim))
    init = 1 if label == "qc" else 0
    return np.array([unitary[init::2, init::2], unitary[1 - init::2, init::2]])


def build_counter_reference(kind, gamma, dim):
    """build_counter composed from ladder operators: gamma times the
    one-count ladder operator, and I - (gamma^2/2) X with X the number form
    (pc), the antinormal form (qc), or their squares (qpc, qqc) as operator
    products; the creation operator is the transpose of the annihilation
    operator.  build_counter must give the same operator bytes."""
    one_count, form = {
        "pc": (ladder("annihilation", dim), "number"),
        "qc": (ladder("annihilation", dim).T, "antinormal_number"),
        "qpc": (ladder("number", dim), "number"),
        "qqc": (ladder("antinormal_number", dim), "antinormal_number"),
    }[kind]
    quadratic = ladder(form, dim)
    if kind in ("qpc", "qqc"):
        quadratic = quadratic @ quadratic
    one = gamma * one_count
    no = np.eye(dim, dtype=complex) - (gamma**2 / 2.0) * quadratic
    return MeasurementModel(label=kind, outcomes=("0", "1"), operators=(no, one), gamma=gamma)


def compose_reference(first, second):
    """second applied after first, one operator product at a time,
    (m2, m1) -> M2 @ M1 in the order of the outcome labels.
    build_counter("joint") must give the operator bytes of the ladder-product
    qc followed by the ladder-product pc."""
    outcomes, operators = [], []
    for m2, op2 in zip(second.outcomes, second.operators):
        for m1, op1 in zip(first.outcomes, first.operators):
            outcomes.append(f"{m2}{m1}")
            operators.append(op2 @ op1)
    return MeasurementModel(
        label=f"{second.label}*{first.label}",
        outcomes=tuple(outcomes),
        operators=np.array(operators),
        gamma=first.gamma,
    )


def _images_and_stats(model, ensemble):
    """Per outcome, the images M|psi(a)> of every state (one row each) and
    the OutcomeStats read from their squared norms."""
    if ensemble.dim != model.dim:
        raise ValueError("ensemble and model dimensions differ")
    for outcome, op in zip(model.outcomes, model.operators):
        images = ensemble.states @ op.T
        cond = np.sum(np.abs(images) ** 2, axis=1)
        yield images, _weighted_stats(outcome, cond, ensemble.weights)


def outcome_stats(model, ensemble):
    """The OutcomeStats of every outcome, in the order of model.outcomes:
    p(m|a), p(m) and p(a|m) from one dense image per outcome and state."""
    return [s for _, s in _images_and_stats(model, ensemble)]


def evaluate_reference(model, ensemble):
    """evaluate one outcome at a time: one set of images and one background
    per outcome, each figure reduced from that outcome's rows alone.
    evaluate must return a report with the same repr, and raise the same
    errors."""
    model.support_effects(ensemble.support_dim)
    per_outcome = {}
    backgrounds = {}
    mutual_information = 0.0
    for images, s in _images_and_stats(model, ensemble):
        info = information_gain(s)
        mask = s.conditional > 0.0
        cond, post = s.conditional[mask], s.posterior[mask]
        # This outcome's share of H(M) - H(M|A), from the prior and p(m|a).
        mutual_information += float(
            np.sum(ensemble.weights[mask] * cond * np.log2(cond))
            - s.total * np.log2(s.total)
        )
        # Fidelity: posterior average of |<psi(a)|psi(m,a)>|.  It and reversibility
        # are at most 1; clamp the rounding residue (NaN passes through min).
        overlaps = np.abs(np.sum(ensemble.states.conj() * images, axis=1))
        fid = min(float(np.sum(post * (overlaps[mask] / np.sqrt(cond)))), 1.0)
        # Reversibility: posterior average of background / p(m|a).
        b = background(model, s.outcome, ensemble.support_dim)
        rev = 0.0 if b == 0.0 else min(float(np.sum(post * (b / cond))), 1.0)
        per_outcome[s.outcome] = OutcomeMetrics(
            probability=s.total,
            information_gain=info,
            fidelity=fid,
            reversibility=rev,
            efficiency=efficiency(info, fid),
        )
        backgrounds[s.outcome] = b

    mean_info = sum(m.probability * m.information_gain for m in per_outcome.values())
    mean_fid = sum(m.probability * m.fidelity for m in per_outcome.values())
    mean_rev = sum(m.probability * m.reversibility for m in per_outcome.values())
    background_sum = sum(backgrounds.values())
    if abs(mean_info - mutual_information) > 1e-10:
        raise NumericInconsistency(
            "mutual-information identity violated: "
            f"{mean_info!r} vs {mutual_information!r}"
        )
    if abs(mean_rev - background_sum) > 1e-10:
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


def streamed_gains(model, populations, outcome="1", n_batches=100):
    """The library's gains of an outcome on equally weighted rows given as a
    populations array (one row per sample, one column per support level):
    streamed_information over its blocks, with the model's support_effects
    row, as (whole-sample gain, batch gains)."""
    n_rows, support_dim = populations.shape
    effect = model.support_effects(support_dim)[model.outcomes.index(outcome)]
    blocks = (populations[a:b] for a, b in block_bounds(n_rows))
    full, batches = streamed_information(outcome, effect[None], blocks, n_rows, n_batches)
    return float(full[0]), batches[0]


def batched_reference(model, populations, outcome="1", n_batches=100):
    """streamed_gains with full-length weights, posterior and terms arrays:
    the equal weights 1/n, the posterior and gain of the whole sample
    through information_gain, then each batch's renormalized weights.
    streamed_gains must agree within gain_rounding_bound, and raise the
    same errors."""
    n_samples, support_dim = populations.shape
    model.support_effects(support_dim)
    weights = np.full(n_samples, 1.0 / n_samples)
    effect = model.effect_for(outcome)[:support_dim]
    stats = _weighted_stats(outcome, populations @ effect, weights)
    full = information_gain(stats)
    batches = []
    for cond, w in zip(
        np.array_split(stats.conditional, n_batches),
        np.array_split(weights, n_batches),
    ):
        batches.append(information_gain(_weighted_stats(outcome, cond, w / w.sum())))
    return full, np.array(batches)


# Rounding bounds of the Monte Carlo gains, on n equally weighted rows in
# np.array_split batches.  u = 2^-53 is the unit roundoff.  For a batch of m
# rows with exact conditionals x (at any scale) the gain is G = q - l, with
# S1 = sum x, q = sum x log2 x / S1, l = log2(S1 / m), pi = x / S1, and the
# magnitudes
#   M = sum pi |log2 x|,  V = sum pi |log2 x - q|,  N = sum pi |log2 x - l|.
# To first order in u:
# - dG/dx_i = (log2 x_i - q) / S1, so conditionals within r u relative of x
#   move G by at most r u V;
# - a sum of k terms, pairwise as numpy sums (and reduceat, which starts
#   from the first term), passes a term through at most 24 + bit_length(k)
#   additions: 8 running sums of up to 16 terms, 3 levels joining them and
#   7 left-over terms in a leaf of at most 128, and one more per halving;
# - numpy's float64 log2 is accurate to 1 ulp (its accuracy tests), at most
#   2u relative.
# streamed_information: x log2 x is within 3u |x log2 x|.  Each of S1 and
# S2 passes a term through at most h additions: a reduceat within a block
# of at most BLOCK_ROWS rows, one per block the batch touches (at most
# m // BLOCK_ROWS + 2), and for the whole sample the pairwise sum of the
# batch sums.  So S1 is within h u relative, S2 within (h + 3) u M S1, and
# q within (2h + 4) u M; S1 / m is within (h + 1) u, which moves l by
# (h + 1) u / ln 2, and log2 adds 2u |l|; the subtraction adds
# u |G| <= u (M + |l|).  In all
#   u [r V + (2h + 5) M + 3 |l| + (h + 1) / ln 2],
# with M and l of the mean-scaled conditionals it forms.
# information_gain on weights 1/n (renormalized per batch), with
# h' = 24 + bit_length(m): m times a weight is within (h' + 1) u of 1 and
# the total T = sum w x within (h' + 1) u, so each posterior is within
# (h' + 3) u, log2(x / T) within (2h' + 3) u / ln 2 + 2u |log2 x - l| of
# log2 x - l, and the product and the sum add u N and h' u N:
#   u [r V + (2h' + 6) N + (2h' + 3) / ln 2].
_U = 2.0**-53


def sum_depth(k):
    """Additions a term passes through in a numpy sum of k terms (above)."""
    return 24 + int(k).bit_length()


def gain_error_bounds(populations, effect, n_batches, conditional_ulps, streamed):
    """Bounds on the error of the whole-sample gain and of each batch gain of
    an outcome with the given diagonal effect (one entry per support level),
    from streamed_information (streamed) or information_gain on equal
    weights, whose conditionals lie within conditional_ulps units of
    roundoff of the exact ones the caller compares against; see above.  The
    magnitudes are read from populations @ effect."""
    n, d = populations.shape
    x = populations @ (effect / effect.mean())
    batches = np.array_split(x, n_batches)
    block_depth = sum_depth(BLOCK_ROWS)

    def bound(x, h):
        positive = x[x > 0.0]
        total = positive.sum()
        pi, logs = positive / total, np.log2(positive)
        q, level = pi @ logs, math.log2(total / len(x))
        v = pi @ np.abs(logs - q)
        if streamed:
            rest = (2 * h + 5) * (pi @ np.abs(logs)) + 3 * abs(level) + (h + 1) / math.log(2)
        else:
            rest = (2 * h + 6) * (pi @ np.abs(logs - level)) + (2 * h + 3) / math.log(2)
        return _U * (conditional_ulps * v + rest)

    def depth(m):
        return block_depth + m // BLOCK_ROWS + 2 if streamed else sum_depth(m)

    largest = max(len(b) for b in batches)
    whole = depth(largest) + sum_depth(n_batches) if streamed else sum_depth(n)
    return bound(x, whole), np.array([bound(b, depth(len(b))) for b in batches])


def gain_rounding_bound(populations, effect, n_batches):
    """Bounds on |streamed_information - batched_reference| for the
    whole-sample gain and each batch gain: the sum of both errors, with
    conditionals formed from d populations (d products and d - 1
    additions), after a division by the mean effect in streamed_information."""
    d = populations.shape[1]
    streamed = gain_error_bounds(populations, effect, n_batches, d + 1, True)
    reference = gain_error_bounds(populations, effect, n_batches, d, False)
    return streamed[0] + reference[0], streamed[1] + reference[1]


def _weighted_stats(outcome, cond, weights):
    """OutcomeStats of conditionals under prior weights; a zero total gives
    a zero posterior."""
    posterior = weights * cond
    total = float(np.sum(posterior))
    if total > 0.0:
        posterior /= total
    else:
        posterior = np.zeros_like(weights)
    return OutcomeStats(outcome=outcome, conditional=cond, total=total, posterior=posterior)


def two_level_gain(reversibility):
    """Information gain, in bits, of an outcome with diagonal effect entries
    (e0, e1) on the uniform two-level family, as the function g of its
    reversibility R = 2 min(e0, e1) / (e0 + e1) alone.

    p = |c0|^2 is uniform on [0, 1], so with r = max/min = (2 - R)/R the
    conditional is proportional to c = 1 + (r - 1) p, of mean T = (1 + r)/2,
    and E = E[c ln c] = r^2 ln r / (2 (r - 1)) - (r + 1)/4.  Then
    g(R) = (E/T - ln T) / ln 2, with the limits g(0) = 1 - 1/(2 ln 2)
    (r -> infinity) and g(1) = 0 (r = 1)."""
    if reversibility == 0.0:
        return 1.0 - 1.0 / (2.0 * math.log(2.0))
    r = (2.0 - reversibility) / reversibility
    if r == 1.0:
        return 0.0
    mean = (1.0 + r) / 2.0
    mean_c_ln_c = r * r * math.log(r) / (2.0 * (r - 1.0)) - (r + 1.0) / 4.0
    return (mean_c_ln_c / mean - math.log(mean)) / math.log(2.0)


def haar_gain(effect):
    """Exact information gain, in bits, of an outcome with diagonal effect
    entries e_0, ..., e_(d-1) (distinct) on the Haar family of d levels.

    The populations p are uniform on the simplex, so by the
    Hermite-Genocchi formula E[c ln c] = (d - 1)! Phi[e_0, ..., e_(d-1)],
    a divided difference, for c = e.p, with Phi(x) = x^d / d! (ln x - H_d
    + 1) (Phi(0) = 0) and H_d the d-th harmonic number; with T = E[c] =
    mean(e) the gain is (E[c ln c] / T - ln T) / ln 2."""
    d = len(effect)
    if len(set(effect)) < d:
        raise ValueError("effect entries must be distinct")
    harmonic = sum(1.0 / k for k in range(1, d + 1))

    def phi(x):
        return 0.0 if x == 0.0 else x**d / math.factorial(d) * (math.log(x) - harmonic + 1.0)

    divided = sum(phi(x) / math.prod(x - y for y in effect if y != x) for x in effect)
    mean_c_ln_c = math.factorial(d - 1) * divided
    mean = sum(effect) / d
    return (mean_c_ln_c / mean - math.log(mean)) / math.log(2.0)


def polar_factors(mat):
    """Polar factors (U, P) of mat = U @ P, P = (mat^dag mat)^(1/2), from the
    singular value decomposition mat = W S V^dag: U = W V^dag, P = V S V^dag."""
    w, s, vh = np.linalg.svd(mat)
    return w @ vh, (vh.conj().T * s) @ vh


def min_effect_eigenvalue(op, support_dim):
    """Smallest eigenvalue of op^dag op compressed to the lowest support_dim
    levels, from a dense Hermitian eigensolver."""
    gram = op.conj().T @ op
    return float(np.linalg.eigvalsh(gram[:support_dim, :support_dim])[0])


def haar_states(d, n_samples, seed, dim):
    """Dense Haar states on the span of |0>, ..., |d-1>, one row of dim
    amplitudes each: i.i.d. complex Gaussian amplitudes, all real parts
    drawn before all imaginary parts, normalized in blocks of 65,536 rows.
    ensemble.haar_blocks must yield |c_n|^2 of these rows bit for bit, the
    populations that batched_information reads."""
    rng = np.random.default_rng(seed)
    states = np.zeros((n_samples, dim), dtype=complex)
    support = states[:, :d]
    support.real = rng.standard_normal((n_samples, d))
    support.imag = rng.standard_normal((n_samples, d))
    for start in range(0, n_samples, 65_536):
        block = support[start : start + 65_536]
        block /= np.linalg.norm(block, axis=1)[:, None]
    return states


def recovery_reference(state, op, rev):
    """verify_recovery on one state: the normalized image op|psi>, the
    success branch of rev applied to it, and the overlap of the renormalized
    result with the input from np.vdot.  verify_recovery must give the same
    bits row by row."""
    image = op @ state
    post = image / np.sqrt(float(np.linalg.norm(image) ** 2))
    success_image = rev.success_op @ post
    recovered = success_image / np.linalg.norm(success_image)
    return {
        "success_prob": float(np.linalg.norm(success_image) ** 2),
        "recovery_fidelity": float(abs(np.vdot(state, recovered))),
    }


def _trajectory_inputs(kind, gamma, ensemble):
    """Per-node one-count probability, success probability given a
    one-count, and recovery fidelity of the state, as trajectory_sim reads
    them; raises what trajectory_sim raises for the model."""
    model = build_counter(kind, gamma, ensemble.dim)
    model.support_effects(ensemble.support_dim)
    one_count_op = model.operator_for("1")
    rev = build_reversing(model, "1", ensemble.support_dim)
    cond_one = ensemble.populations @ model.effect_for("1")[: ensemble.support_dim]
    success_given_one = np.minimum(rev.eta_sq / cond_one, 1.0)
    fidelities = np.array(
        [
            recovery_reference(state, one_count_op, rev)["recovery_fidelity"]
            for state in ensemble.states
        ]
    )
    return cond_one, success_given_one, fidelities


def _trajectory_stats(trials, seed, n_one, successes, fidelities):
    """TrajectoryStats from the one-count total and the successes per node;
    raises what trajectory_sim raises for a run with no one-count or no
    success."""
    n_success = int(successes.sum())
    if n_one == 0:
        raise PhotocountError(f"no one-count in {trials} trials")
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


def trajectory_reference(kind, gamma, ensemble, trials, seed):
    """trajectory_sim trial by trial, with every trial held at once: the
    nodes drawn by Generator.choice, then the outcome and reversal uniforms
    of the same Philox stream.  A trial is a one-count when its uniform
    falls below p(1 | node), so a probability rounded above 1 is certain.
    trajectory_sim draws per-node counts instead, so it matches this in law,
    not in bits."""
    cond_one, success_given_one, fidelities = _trajectory_inputs(kind, gamma, ensemble)
    rng = np.random.Generator(np.random.Philox(seed))
    nodes = rng.choice(ensemble.n_samples, size=trials, p=ensemble.weights)
    u_outcome = rng.random(trials)
    u_reverse = rng.random(trials)

    one_count_mask = u_outcome < cond_one[nodes]
    success_mask = one_count_mask & (u_reverse < success_given_one[nodes])
    successes = np.bincount(nodes[success_mask], minlength=ensemble.n_samples)
    return _trajectory_stats(trials, seed, int(np.count_nonzero(one_count_mask)),
                             successes, fidelities)


def trajectory_count_reference(kind, gamma, ensemble, trials, seed):
    """trajectory_sim node by node, in its draw order from one
    Generator(Philox(seed)): the visits to every node, one
    multinomial(trials, weights) draw; then for each node in turn its
    one-counts, binomial(visits, p(1 | node)), with p(1 | node) capped at 1
    as the trial-by-trial comparison treats it; then for each node in turn
    its successes, binomial(one-counts, eta^2 / p(1 | node)).
    trajectory_sim must give the same bits, and raise the same errors."""
    cond_one, success_given_one, fidelities = _trajectory_inputs(kind, gamma, ensemble)
    rng = np.random.Generator(np.random.Philox(seed))
    visits = rng.multinomial(trials, ensemble.weights)
    one_counts = [rng.binomial(int(n), min(float(p), 1.0)) for n, p in zip(visits, cond_one)]
    successes = np.array(
        [rng.binomial(n, float(p)) for n, p in zip(one_counts, success_given_one)]
    )
    return _trajectory_stats(trials, seed, int(sum(one_counts)), successes, fidelities)
