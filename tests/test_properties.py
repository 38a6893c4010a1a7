"""Property tests of full_report and evaluate, of the row reach of sparse
models, of information as a function of reversibility on two levels, of
the one-count orderings of the four counters, of the sweep's
reversibility-loss fit, of the completeness residual, of the exact probe
operators, of the backgrounds and reversing measurements, of the polar
structure of the one-count operators, of the joint counter, of the stacked
recovery, of the trajectory simulation and of the batched Monte Carlo
gains over random couplings, truncations, quadrature sizes, sample counts,
seeds and trial counts; and of the CLI's outputs and exit codes over random
flags.  Derandomized, so every run draws the same examples."""

import contextlib
import csv
import io
import json
import math
import re
import sys
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import (
    batched_reference,
    gain_error_bounds,
    gain_rounding_bound,
    build_counter_reference,
    compose_reference,
    evaluate_reference,
    min_effect_eigenvalue,
    outcome_stats,
    polar_factors,
    probe_reference,
    recovery_reference,
    streamed_gains,
    trajectory_count_reference,
    trajectory_reference,
    two_level_gain,
)

from photocount import (
    Ensemble,
    MeasurementModel,
    NonReversible,
    PhotocountError,
    ZeroProbability,
    background,
    bloch_two_state_ensemble,
    build_counter,
    build_reversing,
    completeness_residual,
    evaluate,
    full_report,
    gamma_sweep,
    probe_model_operators,
    trajectory_sim,
    unitary_part_deviation,
    verify_recovery,
)
from photocount import cli
from photocount.counters import LABELS
from photocount.ensemble import BLOCK_ROWS, haar_blocks

PAPER_LABELS = LABELS[:4]  # the two-outcome counters


@settings(derandomize=True, deadline=None, database=None)
@given(
    gamma=st.floats(min_value=0.0, max_value=0.5, exclude_min=True),
    label=st.sampled_from(LABELS),
    dim=st.integers(min_value=4, max_value=8),
    nodes=st.integers(min_value=8, max_value=128),
)
def test_full_report_properties(gamma, label, dim, nodes):
    ens = bloch_two_state_ensemble(nodes, dim)
    model = build_counter(label, gamma, dim)
    support = model.effects[:, : ens.support_dim]
    if np.any((support > 0.0) & (support < sys.float_info.min)):
        # A subnormal effect on the support at tiny coupling is refused.
        with pytest.raises(ValueError, match="below the smallest normal double"):
            full_report(label, gamma, ens)
        return
    if min(s.total for s in outcome_stats(model, ens)) <= 0.0:
        # An outcome probability underflows to zero at tiny coupling.
        with pytest.raises(ZeroProbability):
            full_report(label, gamma, ens)
        return

    report = full_report(label, gamma, ens)
    means = (report.mean_information, report.mean_fidelity, report.mean_reversibility)
    assert all(math.isfinite(v) for v in means)
    for outcome, m in report.per_outcome.items():
        values = (m.probability, m.information_gain, m.fidelity, m.reversibility)
        assert all(math.isfinite(v) for v in values)
        assert m.efficiency is None or math.isfinite(m.efficiency)
        assert m.information_gain >= 0.0
        assert 0.0 <= m.fidelity <= 1.0
        assert 0.0 <= m.reversibility <= 1.0
        assert math.isfinite(report.backgrounds[outcome])
    assert abs(sum(report.backgrounds.values()) - report.mean_reversibility) <= 1e-10
    assert evaluate(model, ens) == report


@settings(derandomize=True, deadline=None, database=None)
@given(
    label=st.sampled_from(LABELS),
    gamma=st.floats(min_value=1e-3, max_value=0.5),
    quadrature=st.sampled_from([(64, 5), (256, 8)]),
)
def test_two_level_information_is_a_function_of_reversibility(label, gamma, quadrature):
    # Every effect is diagonal, so on the uniform two-level family an
    # outcome's gain depends on its effect entries on |0> and |1> only through
    # R (tests/oracles.py::two_level_gain).  1e-9 is the acceptance suite's
    # closed-form tolerance for gains.
    report = full_report(label, gamma, bloch_two_state_ensemble(*quadrature))
    for outcome, m in report.per_outcome.items():
        assert abs(m.information_gain - two_level_gain(m.reversibility)) <= 1e-9, outcome


@settings(derandomize=True, deadline=None, database=None)
@given(
    dim=st.integers(min_value=1, max_value=12),
    data=st.data(),
)
def test_reach_is_the_last_row_any_lower_column_reaches(dim, data):
    # Each outcome sends every row to at most one column, so the effects
    # stay diagonal under any sparsity pattern; entries may be 0.0 or
    # -0.0, which reach no row.
    k = data.draw(st.integers(min_value=1, max_value=4))
    columns = data.draw(st.lists(st.lists(st.integers(min_value=-1, max_value=dim - 1),
                                          min_size=dim, max_size=dim),
                                 min_size=k, max_size=k))
    values = data.draw(st.lists(st.floats(min_value=-2.0, max_value=2.0),
                                min_size=k * dim, max_size=k * dim))
    operators = np.zeros((k, dim, dim), dtype=complex)
    for outcome, row_columns in enumerate(columns):
        for row, column in enumerate(row_columns):
            if column >= 0:
                operators[outcome, row, column] = values[outcome * dim + row]
    model = MeasurementModel(label="sparse", outcomes=tuple(str(m) for m in range(k)),
                             operators=operators, gamma=0.1)
    expected, last = [], 0
    for column in range(dim):
        for row in range(dim):
            if any(op[row, column] != 0 for op in operators):
                last = max(last, row + 1)
        expected.append(last)
    assert model.reach.tolist() == expected


@settings(derandomize=True, deadline=None, database=None)
@given(
    gamma=st.floats(min_value=0.0, max_value=0.3, exclude_min=True),
    nodes=st.integers(min_value=8, max_value=256),
    dim=st.integers(min_value=4, max_value=8),
)
def test_one_count_orderings_of_the_four_counters(gamma, nodes, dim):
    # The paper's one-count orderings on the uniform two-level family.
    ens = bloch_two_state_ensemble(nodes, dim)
    if gamma * gamma < sys.float_info.min:
        # Below gamma = 1.49e-154 no report is made.  Each one-count effect
        # has the entry gamma^2 on the support (on |1> for pc and qpc, on |0>
        # for qc and qqc).  A subnormal entry keeps only a few bits (pc's gain
        # would read 1.48 bits at gamma = 1.1e-161 on (71, 7)), so the model
        # refuses it; an entry that underflows to zero leaves the one-count
        # with zero probability.
        refusal = ValueError if gamma * gamma > 0.0 else ZeroProbability
        for label in ("pc", "qc", "qpc", "qqc"):
            with pytest.raises(refusal):
                full_report(label, gamma, ens)
        return
    one = {
        label: full_report(label, gamma, ens).per_outcome["1"]
        for label in ("pc", "qc", "qpc", "qqc")
    }
    rev = {label: m.reversibility for label, m in one.items()}
    fid = {label: m.fidelity for label, m in one.items()}
    info = {label: m.information_gain for label, m in one.items()}
    assert rev["qc"] > rev["qqc"] > rev["pc"] == rev["qpc"] == 0.0
    assert fid["qqc"] > fid["qpc"] > fid["pc"] > fid["qc"]
    # The R = 0 tie: information is a function of reversibility alone on two
    # levels (test_two_level_information_is_a_function_of_reversibility), and
    # pc and qpc share R = 0.  Their one-count conditionals are both
    # gamma^2 |c_1|^2, so the tie is exact.
    assert info["pc"] == info["qpc"] > info["qqc"] > info["qc"]


# gamma^2 and gamma^4 coefficients (X_max - X_min, X_max^2 / 4) of the
# reversibility loss on the two-level support, from X of each closed form.
REVERSIBILITY_LOSS = {"pc": (1.0, 0.25), "qc": (1.0, 1.0), "qpc": (1.0, 0.25), "qqc": (3.0, 4.0)}


@settings(derandomize=True, deadline=None, database=None)
@given(
    label=st.sampled_from(sorted(REVERSIBILITY_LOSS)),
    nodes=st.integers(min_value=8, max_value=256),
    dim=st.integers(min_value=4, max_value=8),
    gamma_min=st.floats(min_value=1e-3, max_value=0.45),
    width=st.floats(min_value=0.05, max_value=0.5),
    steps=st.integers(min_value=2, max_value=15),
)
def test_reversibility_loss_fit_is_exact(label, nodes, dim, gamma_min, width, steps):
    # The mean reversibility is the sum of the backgrounds, the smallest
    # effect entries on |0> and |1>: 1 - X_max g^2 + (X_max^2/4) g^4 for the
    # no-count and X_min g^2 for the one-count.  So the loss is exactly
    # (X_max - X_min) g^2 - (X_max^2/4) g^4 at every coupling, and the fit
    # c g^2 + d g^4 returns c up to rounding.
    gammas = np.linspace(gamma_min, min(gamma_min + width, 0.5), steps)
    sweep = gamma_sweep(label, gammas, bloch_two_state_ensemble(nodes, dim))
    coefficient, _ = sweep.fits()["reversibility_loss"]
    # The tolerance is derived, not chosen.  Each loss 1 - R is read from
    # sums of `nodes` terms whose total is near 1, so it is accurate to
    # nodes * eps (the recursive-summation bound).  A perturbation of the
    # values moves the least-squares coefficients by at most its norm over
    # the smallest singular value, cond / sigma_max times that norm, and the
    # backward-stable solve adds cond * eps * |(c, d)|.
    singular = np.linalg.svd(np.column_stack([gammas**2, gammas**4]), compute_uv=False)
    cond = singular[0] / singular[-1]
    eps = np.finfo(float).eps
    c, d = REVERSIBILITY_LOSS[label]
    tol = eps * cond * (nodes * math.sqrt(steps) / singular[0] + math.hypot(c, d))
    assert abs(coefficient - c) <= tol


def _outcome(fn, *args):
    """repr of fn(*args), or the type and message of the error it raised."""
    try:
        return repr(fn(*args))
    except (PhotocountError, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"


@settings(derandomize=True, deadline=None, database=None)
@given(
    gamma=st.floats(min_value=0.0, max_value=0.5, exclude_min=True),
    label=st.sampled_from(LABELS),
    dim=st.integers(min_value=4, max_value=12),
    nodes=st.integers(min_value=8, max_value=256),
    vacuum_weight=st.one_of(st.just(0.0), st.floats(min_value=1e-3, max_value=0.5)),
)
@example(gamma=0.3, label="pc", dim=5, nodes=64, vacuum_weight=0.25)
@example(gamma=0.3, label="qpc", dim=5, nodes=64, vacuum_weight=0.25)
@example(gamma=0.3, label="joint", dim=5, nodes=64, vacuum_weight=0.25)
def test_evaluate_equals_the_per_outcome_reference(gamma, label, dim, nodes, vacuum_weight):
    ens = bloch_two_state_ensemble(nodes, dim)
    if vacuum_weight:
        # An extra |0> member: outcomes that cannot occur on it (the pc
        # one-count) get a zero conditional in that row.
        ens = Ensemble(
            support_dim=2,
            states=np.vstack([ens.states, np.eye(dim)[:1]]),
            weights=np.append((1.0 - vacuum_weight) * ens.weights, vacuum_weight),
        )
    model = build_counter(label, gamma, dim)
    # repr tells every float apart bit for bit, and NaN from NaN-free values
    assert _outcome(evaluate, model, ens) == _outcome(evaluate_reference, model, ens)


# X(n) of the no-count operator I - (gamma^2/2) X of each closed form.
QUADRATIC_FORMS = {
    "pc": lambda n: n,
    "qc": lambda n: n + 1,
    "qpc": lambda n: n**2,
    "qqc": lambda n: (n + 1) ** 2,
}


@settings(derandomize=True, deadline=None, database=None)
@given(
    kind=st.sampled_from(PAPER_LABELS),
    gamma=st.floats(min_value=1e-2, max_value=0.5),
    dim=st.integers(min_value=4, max_value=8),
    support_dim=st.integers(min_value=1, max_value=2),
)
def test_completeness_residual_is_the_dropped_fourth_order_term(kind, gamma, dim, support_dim):
    # sum_m effects = (1 - gamma^2 X / 2)^2 + gamma^2 X = 1 + (gamma^2 X / 2)^2
    # below the truncation edge; at support 2 the gamma^4 coefficients are
    # 1/4, 1, 1/4 and 4 for pc, qc, qpc and qqc.
    x_max = max(QUADRATIC_FORMS[kind](n) for n in range(support_dim))
    expected = (gamma**2 * x_max / 2) ** 2
    residual = completeness_residual(build_counter(kind, gamma, dim), support_dim)
    assert abs(residual - expected) <= 1e-15


@settings(derandomize=True, deadline=None, database=None)
@given(
    label=st.sampled_from(PAPER_LABELS),
    gamma=st.floats(min_value=0.0, max_value=0.5, exclude_min=True),
    dim=st.integers(min_value=4, max_value=8),
)
@example(label="qc", gamma=0.5, dim=8)
@example(label="qqc", gamma=0.5, dim=8)
def test_probe_operators_are_the_expm_blocks(label, gamma, dim):
    # Every entry of both operators, the truncation edge included, matches
    # the Kronecker Hamiltonian's scipy expm blocks, and the pair is
    # complete to rounding.
    model = probe_model_operators(label, gamma, dim)
    assert np.max(np.abs(model.operators - probe_reference(label, gamma, dim))) <= 1e-14
    total = (model.operators.conj().transpose(0, 2, 1) @ model.operators).sum(axis=0)
    assert np.max(np.abs(total - np.eye(dim))) <= 1e-14


@settings(derandomize=True, deadline=None, database=None)
@given(
    kind=st.sampled_from(PAPER_LABELS),
    gamma=st.floats(min_value=0.0, max_value=0.5, exclude_min=True),
    dim=st.integers(min_value=4, max_value=8),
)
def test_polar_structure_properties(kind, gamma, dim):
    op = build_counter(kind, gamma, dim).operator_for("1")
    u, p = polar_factors(op)
    # Relative to the operator's scale: the polar factors of c * op are U, c * P.
    scale = np.linalg.norm(op, 2)
    assert np.linalg.norm(u @ p - op, 2) / scale <= 1e-12
    assert np.linalg.norm(u.conj().T @ u - np.eye(dim), 2) <= 1e-12
    assert np.max(np.abs(p - p.conj().T)) / scale <= 1e-12
    assert np.linalg.eigvalsh(p)[0] / scale >= -1e-12
    deviation = unitary_part_deviation(op)
    if kind in ("qpc", "qqc"):
        assert deviation <= 1e-12
    else:
        assert deviation >= 1.0
    # The definition: (U - I) on the support of P, whose projector comes
    # from P's own eigenvectors.
    eigvals, eigvecs = np.linalg.eigh(p)
    support = eigvecs[:, eigvals > 1e-10 * eigvals[-1]]
    direct = np.linalg.norm((u - np.eye(dim)) @ support, 2)
    assert abs(deviation - direct) <= 1e-10


@settings(derandomize=True, deadline=None, database=None)
@given(
    gamma=st.floats(min_value=0.0, max_value=0.5, exclude_min=True),
    label=st.sampled_from(LABELS),
    dim=st.integers(min_value=4, max_value=8),
    support_dim=st.integers(min_value=1, max_value=4),
)
def test_background_is_the_minimum_eigenvalue_of_the_effect(gamma, label, dim, support_dim):
    # The smallest diagonal effect entry against the dense eigensolver on
    # M^dag M, for every outcome of the model.  The entries are sums of
    # squares, never negative, NaN or -0.0, so background and evaluate read
    # their minima unclamped.
    model = build_counter(label, gamma, dim)
    assert not np.signbit(model.effects).any()
    for outcome, op in zip(model.outcomes, model.operators):
        oracle = max(0.0, min_effect_eigenvalue(op, support_dim))
        assert background(model, outcome, support_dim) == pytest.approx(
            oracle, rel=1e-15, abs=0.0
        )


@settings(derandomize=True, deadline=None, database=None)
@given(
    dim=st.integers(min_value=1, max_value=8),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    entries=st.lists(
        st.lists(st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1.0)),
                 min_size=8, max_size=8),
        min_size=1, max_size=4,
    ),
)
def test_effects_of_rotated_square_roots_have_no_sign_bit(dim, seed, entries):
    # M_k = U_k diag(sqrt(e_k)) with U_k unitary and e_k >= 0, exact zeros
    # and subnormals included, has the diagonal effect e_k up to rounding.
    rng = np.random.default_rng(seed)
    gaussian = rng.standard_normal((len(entries), dim, dim, 2)) @ [1.0, 1j]
    unitaries = np.linalg.qr(gaussian)[0]
    operators = unitaries * np.sqrt(np.array(entries)[:, None, :dim])
    outcomes = tuple(str(k) for k in range(len(entries)))
    model = MeasurementModel(label="u", outcomes=outcomes, operators=operators, gamma=0.1)
    assert not np.signbit(model.effects).any()


@settings(derandomize=True, deadline=None, database=None)
@given(
    gamma=st.floats(min_value=0.0, max_value=0.5, exclude_min=True),
    target=st.sampled_from([("qc", "1"), ("qqc", "1"), ("joint", "11")]),
    dim=st.integers(min_value=4, max_value=8),
    support_dim=st.integers(min_value=1, max_value=2),
)
def test_reversing_cap_is_the_minimum_eigenvalue_of_the_effect(gamma, target, dim, support_dim):
    # |eta|^2 at the cap against the dense eigensolver on M^dag M
    label, outcome = target
    model = build_counter(label, gamma, dim)
    try:
        model.support_effects(support_dim)
    except ValueError as refusal:
        # build_reversing reads the effects through the support check, so
        # it refuses the same models (here a subnormal outcome probability
        # at tiny coupling) with the same message.
        with pytest.raises(ValueError, match=re.escape(str(refusal))):
            build_reversing(model, outcome, support_dim)
        return
    oracle = min_effect_eigenvalue(model.operator_for(outcome), support_dim)
    if oracle <= 0.0:
        # The background underflows to zero at tiny coupling.
        with pytest.raises(NonReversible):
            build_reversing(model, outcome, support_dim)
        return
    rev = build_reversing(model, outcome, support_dim)
    assert rev.target_outcome == outcome
    assert rev.eta_sq == pytest.approx(oracle, rel=1e-15, abs=0.0)


@settings(derandomize=True, deadline=None, database=None)
@given(
    kind=st.sampled_from(["qc", "qqc"]),
    gamma=st.floats(min_value=0.0, max_value=0.5, exclude_min=True),
    nodes=st.integers(min_value=8, max_value=128),
    dim=st.integers(min_value=4, max_value=8),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    # the floor, and counts far past any per-trial loop
    trials=st.one_of(
        st.sampled_from([10_000, 10_001, 10**12]),
        st.integers(min_value=10_000, max_value=10**12),
    ),
)
def test_trajectory_sim_equals_the_count_reference(kind, gamma, nodes, dim, seed, trials):
    ens = bloch_two_state_ensemble(nodes, dim)
    try:
        want = trajectory_count_reference(kind, gamma, ens, trials, seed)
    except (PhotocountError, ValueError) as exc:
        # At tiny coupling the background underflows to zero, the effects on
        # the support are subnormal and refused, or the run draws no
        # one-count or no success.
        with pytest.raises(type(exc), match=re.escape(str(exc))):
            trajectory_sim(build_counter(kind, gamma, dim), ens, trials, seed)
        return
    got = trajectory_sim(build_counter(kind, gamma, dim), ens, trials, seed)
    # repr tells every float apart bit for bit
    for field in fields(want):
        assert repr(getattr(got, field.name)) == repr(getattr(want, field.name)), field.name


@pytest.mark.parametrize("kind,gamma", [("qc", 0.3), ("qqc", 0.3), ("qqc", 0.5)])
def test_trajectory_sim_has_the_law_of_the_trial_reference(kind, gamma):
    # Every trial of either simulation is independent and, averaged over the
    # nodes, a one-count with probability p1 = sum_a w_a p(1|a) and a
    # success with ps = sum_a w_a p(1|a) min(eta^2 / p(1|a), 1).  So in one
    # run one_counts ~ Binomial(T, p1) and successes ~ Binomial(T, ps): for
    # the trial-by-trial reference by construction, for trajectory_sim
    # because multinomial visits thinned by per-node binomials have the law
    # of independent trials.  A mean over S seeds has variance
    # T p (1 - p) / S, and the two means use disjoint seeds, so they are
    # independent and their difference has standard error
    # sqrt(2 T p (1 - p) / S).  Five of them bound it.  qqc at gamma = 0.5
    # has one-count probabilities up to 1, where its effect on |1> is 1.
    trials, runs = 10_000, 300
    ens = bloch_two_state_ensemble(64, 5)
    model = build_counter(kind, gamma, 5)
    cond_one = np.minimum(ens.populations @ model.effect_for("1")[: ens.support_dim], 1.0)
    eta_sq = build_reversing(model, "1", ens.support_dim).eta_sq
    p_one = float(ens.weights @ cond_one)
    p_success = float(ens.weights @ np.minimum(eta_sq, cond_one))
    sims = [trajectory_sim(model, ens, trials, seed) for seed in range(runs)]
    refs = [trajectory_reference(kind, gamma, ens, trials, seed)
            for seed in range(runs, 2 * runs)]
    for name, p in (("one_counts", p_one), ("successes", p_success)):
        got = np.mean([getattr(s, name) for s in sims])
        want = np.mean([getattr(s, name) for s in refs])
        assert abs(got - want) < 5 * math.sqrt(2 * trials * p * (1 - p) / runs), name


@settings(derandomize=True, deadline=None, database=None)
@given(
    log_gamma=st.floats(min_value=math.log(1e-8), max_value=math.log(0.5)),
    dim=st.integers(min_value=4, max_value=8),
)
@example(log_gamma=math.log(1e-8), dim=4)
@example(log_gamma=math.log(0.5), dim=8)
def test_joint_model_equals_the_composition(log_gamma, dim):
    # The joint model, built from the two closed-form stacks and validated
    # once, against the composed models of the ladder-product counters.
    gamma = min(math.exp(log_gamma), 0.5)
    got = build_counter("joint", gamma, dim)
    want = compose_reference(
        build_counter_reference("qc", gamma, dim),
        build_counter_reference("pc", gamma, dim),
    )
    assert (got.label, got.gamma) == ("joint", gamma)
    assert got.outcomes == want.outcomes
    assert got.operators.tobytes() == want.operators.tobytes()
    assert got.effects.tobytes() == want.effects.tobytes()


@settings(derandomize=True, deadline=None, database=None)
@given(
    kind=st.sampled_from(["qc", "qqc"]),
    gamma=st.floats(min_value=0.0, max_value=0.5, exclude_min=True),
    nodes=st.integers(min_value=8, max_value=128),
    dim=st.integers(min_value=4, max_value=8),
)
# Node 19 of this quadrature has a success probability whose libm square
# (the reference's norm ** 2) and multiplied square differ in the last bit.
@example(kind="qqc", gamma=0.5, nodes=64, dim=4)
def test_verify_recovery_equals_the_per_state_reference(kind, gamma, nodes, dim):
    ens = bloch_two_state_ensemble(nodes, dim)
    model = build_counter(kind, gamma, dim)
    try:
        rev = build_reversing(model, "1", ens.support_dim)
    except NonReversible:
        # The background underflows to zero at tiny coupling.
        return
    op = model.operator_for("1")
    got = verify_recovery(ens.states, rev)
    want = [recovery_reference(state, op, rev) for state in ens.states]
    for key in ("success_prob", "recovery_fidelity"):
        assert got[key].tobytes() == np.array([w[key] for w in want]).tobytes(), key


def _gains(model, populations, outcome, n_batches, fn):
    """The full gain and the batch gains of fn, or the type and message of
    the error it raised."""
    try:
        return fn(model, populations, outcome, n_batches)
    except (PhotocountError, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"


def _zeroed(d, n_samples, seed, zero_stride, zero_head):
    """The populations of haar_blocks(d, n_samples, seed) with every
    zero_stride-th row and the first zero_head rows set to zero (synthetic;
    a Haar draw has none)."""
    populations = np.concatenate(list(haar_blocks(d, n_samples, seed)))
    if zero_stride:
        populations[::zero_stride] = 0.0
    populations[:zero_head] = 0.0
    return populations


@settings(derandomize=True, deadline=None, database=None)
@given(
    d=st.integers(min_value=2, max_value=5),
    extra=st.integers(min_value=2, max_value=3),
    n_samples=st.integers(min_value=10_000, max_value=300_000),
    n_batches=st.integers(min_value=2, max_value=200),
    label=st.sampled_from(LABELS),
    outcome_index=st.integers(min_value=0, max_value=3),
    gamma=st.floats(min_value=0.0, max_value=0.5, exclude_min=True),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    zero_stride=st.one_of(st.just(0), st.integers(min_value=2, max_value=1000)),
    zero_head=st.one_of(st.just(0), st.integers(min_value=1, max_value=2000)),
)
# Whole blocks (3 x 65,536 rows is 12 blocks of BLOCK_ROWS) and batches of
# equal length.
@example(
    d=4, extra=2, n_samples=3 * 65_536, n_batches=128, label="pc", outcome_index=1,
    gamma=0.3, seed=42, zero_stride=0, zero_head=0,
)
# A last block of one row (65,537 is 4 x BLOCK_ROWS + 1), on a
# no-count gain near 2.5e-5, where the two sums nearly cancel.
@example(
    d=5, extra=2, n_samples=65_537, n_batches=100, label="pc", outcome_index=0,
    gamma=0.1, seed=2, zero_stride=0, zero_head=0,
)
# One row per batch: each batch gains exactly 0.0 (c / c = 1) in the
# reference and within the bound in the two sums.
@example(
    d=3, extra=2, n_samples=10_000, n_batches=10_000, label="qc", outcome_index=1,
    gamma=0.2, seed=7, zero_stride=0, zero_head=0,
)
def test_streamed_information_matches_the_full_length_reference(
    d, extra, n_samples, n_batches, label, outcome_index, gamma, seed, zero_stride, zero_head
):
    # The two-sum pass against full-length weights, posterior and terms
    # arrays, within the derived rounding bound of both
    # (oracles.gain_rounding_bound); the errors are the same.  All-zero
    # rows give zero conditionals, which add nothing to either sum, and a
    # zero head of the sample can empty the first batches.
    dim = d + extra
    model = build_counter(label, gamma, dim)
    outcome = model.outcomes[outcome_index % len(model.outcomes)]
    populations = _zeroed(d, n_samples, seed, zero_stride, zero_head)
    want = _gains(model, populations, outcome, n_batches, batched_reference)
    got = _gains(model, populations, outcome, n_batches, streamed_gains)
    if isinstance(want, str):
        assert got == want
        return
    full, batches = gain_rounding_bound(populations, model.effect_for(outcome)[:d], n_batches)
    assert abs(got[0] - want[0]) <= full
    assert np.all(np.abs(got[1] - want[1]) <= batches)


@settings(derandomize=True, deadline=None, database=None)
@given(
    d=st.integers(min_value=2, max_value=4),
    n_samples=st.integers(min_value=10_000, max_value=200_000),
    n_batches=st.integers(min_value=2, max_value=200),
    label=st.sampled_from(("pc", "qpc")),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    zero_stride=st.one_of(st.just(0), st.integers(min_value=2, max_value=1000)),
    zero_head=st.one_of(st.just(0), st.integers(min_value=1, max_value=2000)),
)
@example(d=3, n_samples=100_000, n_batches=100, label="qpc", seed=42, zero_stride=0, zero_head=0)
@example(d=4, n_samples=65_537, n_batches=100, label="pc", seed=3, zero_stride=7, zero_head=1_500)
def test_one_count_gains_do_not_depend_on_the_coupling(
    d, n_samples, n_batches, label, seed, zero_stride, zero_head
):
    # The pc and qpc one-count effects are gamma^2 f(n)^2, so their gains do
    # not depend on gamma; at gamma = 1e-150 the sums S1 and S2 of the raw
    # conditionals would be near 2^-997 and their difference would cancel.
    # Each effect entry, fl(fl(gamma f(n))^2) with f(n) = sqrt(n) or n, is
    # within 5u of gamma^2 f(n)^2, so each run's conditionals are within
    # (d + 6) u of the exact ones, and the two gains agree within twice the
    # two-sum error bound (oracles.gain_error_bounds).  All-zero rows and a
    # zero head that empties the first batches come from zero_stride and
    # zero_head.
    populations = _zeroed(d, n_samples, seed, zero_stride, zero_head)
    runs = [
        _gains(build_counter(label, gamma, d + 2), populations, "1", n_batches,
               streamed_gains)
        for gamma in (1e-150, 0.3)
    ]
    if isinstance(runs[0], str):
        assert runs[0] == runs[1]
        assert "has zero total probability" in runs[0]
        return
    effect = build_counter(label, 0.3, d + 2).effect_for("1")[:d]
    full, batches = gain_error_bounds(populations, effect, n_batches, d + 6, streamed=True)
    (tiny, tiny_batches), (large, large_batches) = runs
    assert abs(tiny - large) <= 2 * full
    assert np.all(np.abs(tiny_batches - large_batches) <= 2 * batches)


# What each printed result is: a probability (or fidelity or reversibility)
# in [0, 1], a gain in [0, log2 support], or a number that need only be
# finite; a value takes the kind of its outermost name listed here, and any
# other value is finite.
_CLI_KINDS = {
    **dict.fromkeys(("information_gain", "information_gain_pc", "information_gain_qpc",
                     "mean_information"), "gain"),
    **dict.fromkeys(("probability", "total_probability", "background", "fidelity",
                     "reversibility", "mean_fidelity", "mean_reversibility",
                     "analytic_reversibility", "empirical_success_rate",
                     "mean_recovery_fidelity"), "unit"),
    **dict.fromkeys(("gamma2_coefficient", "fit_residual_rms"), "finite"),
}


def _cli_values(text, fmt):
    """(names, value) of every value a CLI run printed: its path in the JSON
    results, or its CSV row label (when the row has one) and column.  An
    empty field or null is None."""
    if fmt == "json":
        stack = [((), json.loads(text)["results"])]
        while stack:
            names, value = stack.pop()
            if isinstance(value, dict):
                stack.extend(((*names, key), v) for key, v in value.items())
            elif isinstance(value, list):
                stack.extend((names, v) for v in value)
            elif not isinstance(value, str):
                yield names, value
        return
    header, *rows = csv.reader(io.StringIO(text))
    for row in rows:
        labelled = header[0] in ("outcome", "quantity") or row[0] in _CLI_KINDS
        prefix = (row[0],) if labelled else ()
        for column, cell in list(zip(header, row))[labelled:]:
            yield (*prefix, column), float(cell) if cell else None


@settings(derandomize=True, deadline=None, database=None, max_examples=200)
@given(
    command=st.sampled_from(sorted(cli.COMMANDS)),
    counter=st.sampled_from(LABELS),
    # Log-uniform down to 1e-200, where most couplings give subnormal or zero
    # effects and are refused, and down to 1e-4, where most runs print
    # figures; plus the largest coupling and 1.49e-154, whose effects are
    # just below the smallest normal double.
    gamma=st.one_of(
        st.sampled_from([0.5, 1.49e-154]),
        st.floats(math.log(1e-200), math.log(0.5)).map(math.exp),
        st.floats(math.log(1e-4), math.log(0.5)).map(math.exp),
    ),
    dim=st.integers(min_value=4, max_value=8),
    nodes=st.integers(min_value=8, max_value=96),
    outcome=st.sampled_from(["0", "1", "00", "11", "2"]),
    d=st.integers(min_value=2, max_value=4),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    fmt=st.sampled_from(["csv", "json"]),
)
# The qqc means pass 1 (the stderr note); joint has four outcomes.
@example(command="metrics", counter="qqc", gamma=0.3, dim=5, nodes=64, outcome="1", d=3,
         seed=42, fmt="csv")
@example(command="metrics", counter="joint", gamma=0.3, dim=6, nodes=64, outcome="1", d=3,
         seed=42, fmt="json")
@example(command="posterior", counter="joint", gamma=0.3, dim=5, nodes=64, outcome="11",
         d=3, seed=42, fmt="json")
def test_cli_prints_bounded_finite_numbers_or_fails_with_one_line(
    command, counter, gamma, dim, nodes, outcome, d, seed, fmt
):
    # Monte Carlo sizes at the command floors: 10^5 Haar samples, 10^4
    # reversal trials.
    samples = 100_000 if command == "haar" else 10_000
    argv = [command, "--counter", counter, "--gamma", repr(gamma), "--dim", str(dim),
            "--theta-nodes", str(nodes), "--samples", str(samples), "--seed", str(seed),
            "--format", fmt]
    argv += {"posterior": ["--outcome", outcome], "haar": ["--d", str(d)]}.get(command, [])
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    out, err = out.getvalue(), err.getvalue()
    if code != 0:
        assert code in (2, 3, 4), err
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1, err
        return

    support = d if command == "haar" else 2
    # A mean sums p(m) = 1 + O(gamma^4) over outcomes (the note on stderr),
    # so it may pass 1 by the completeness residual, at the sweep's largest
    # coupling for sweep; 1e-11 covers the 12-digit printing.
    model = build_counter(counter, 0.3 if command == "sweep" else gamma, dim)
    slack = 1.0 + completeness_residual(model, 2) + 1e-11
    for names, value in _cli_values(out, fmt):
        if value is None:
            # An undefined efficiency, and the mean row's empty fields.
            assert "efficiency" in names or names[0] == "mean", names
            continue
        assert math.isfinite(value), names
        kind = next((_CLI_KINDS[n] for n in names if n in _CLI_KINDS), "finite")
        mean = any(n in ("mean", "means") or n.startswith("mean_") for n in names)
        top = {"unit": 1.0, "gain": math.log2(support), "finite": math.inf}[kind]
        assert kind == "finite" or 0.0 <= value <= top * (slack if mean else 1.0), (names, value)
