import tracemalloc

import numpy as np
import pytest
from oracles import (
    OutcomeStats,
    evaluate_reference,
    gain_error_bounds,
    gain_rounding_bound,
    haar_gain,
    haar_states,
    information_gain,
    ladder,
    outcome_stats,
    streamed_gains,
    sum_depth,
    two_level_gain,
)

import photocount.metrics as metrics
from photocount import (
    Ensemble,
    NumericInconsistency,
    ZeroProbability,
    background,
    batched_information,
    bloch_two_state_ensemble,
    build_counter,
    completeness_residual,
    efficiency,
    evaluate,
    full_report,
    post_measurement_state,
)
from photocount.counters import MeasurementModel
from photocount.ensemble import haar_blocks

LN2 = np.log(2.0)

# closed forms for the two-level family
I1_CLOSED = {
    "pc": 1 - 1 / (2 * LN2),
    "qc": 7 / 3 - 1 / (2 * LN2) - np.log2(3),
    "qpc": 1 - 1 / (2 * LN2),
    "qqc": 47 / 15 - 1 / (2 * LN2) - np.log2(5),
}
F1_CLOSED = {"pc": 8 / 15, "qpc": 4 / 5, "qqc": 652 / 675}
R1_CLOSED = {"pc": 0.0, "qc": 2 / 3, "qpc": 0.0, "qqc": 2 / 5}
P1_CLOSED = {"pc": 0.045, "qc": 0.135, "qpc": 0.045, "qqc": 0.225}

ALL_LABELS = ("pc", "qc", "qpc", "qqc")


@pytest.fixture(scope="module")
def bloch():
    return bloch_two_state_ensemble(64, 5)


def plus_state(dim=5):
    amps = np.zeros(dim, dtype=complex)
    amps[0] = amps[1] = 1 / np.sqrt(2)
    return amps


def born_probability(op, amplitudes):
    """<psi| op^dag op |psi> from the dense image op|psi>."""
    return float(np.linalg.norm(op @ amplitudes) ** 2)


class TestEffects:
    def test_shifted_moment_identity_on_random_states(self):
        # one-count p(1|psi) = gamma^2 <f(n)>: qqc's (n+1)^2 = n^2 + 2n + 1
        # reads qpc's n^2 plus twice pc's n plus gamma^2
        gamma = 0.3
        effects = {
            label: build_counter(label, gamma, 6).effect_for("1")
            for label in ("pc", "qpc", "qqc")
        }
        rng = np.random.default_rng(17)
        for _ in range(1000):
            raw = rng.standard_normal(6) + 1j * rng.standard_normal(6)
            populations = np.abs(raw / np.linalg.norm(raw)) ** 2
            p = {label: populations @ e for label, e in effects.items()}
            assert abs(p["qqc"] - (p["qpc"] + 2 * p["pc"] + gamma**2)) < 1e-12

    def test_absorbing_counter_ignores_vacuum(self):
        model = build_counter("pc", 0.3, 5)
        assert model.effect_for("1")[0] == 0.0
        vacuum = np.eye(5)[0]
        assert born_probability(model.operator_for("1"), vacuum) < 1e-30

    def test_emitting_counter_on_one_photon(self):
        model = build_counter("qc", 0.3, 5)
        assert abs(model.effect_for("1")[1] - 0.18) < 1e-15

    def test_identity_gives_unity(self):
        model = MeasurementModel(
            label="id", outcomes=("1",), operators=(np.eye(5),), gamma=0.0
        )
        assert np.max(np.abs(model.effects - 1.0)) < 1e-14
        assert abs(model.effect_for("1") @ np.abs(plus_state()) ** 2 - 1.0) < 1e-14

    @pytest.mark.parametrize("label", ALL_LABELS + ("joint",))
    def test_effects_are_born_probabilities_on_random_states(self, label):
        model = build_counter(label, 0.3, 6)
        rng = np.random.default_rng(23)
        for _ in range(200):
            raw = rng.standard_normal(6) + 1j * rng.standard_normal(6)
            amps = raw / np.linalg.norm(raw)
            for outcome, op in zip(model.outcomes, model.operators):
                p = float(model.effect_for(outcome) @ np.abs(amps) ** 2)
                assert abs(p - born_probability(op, amps)) < 1e-14

    def test_non_diagonal_effect_rejected(self):
        # (a + a^dag)^2 couples n to n +- 2
        a = ladder("annihilation", 5)
        quadrature = a + a.T
        with pytest.raises(ValueError, match="'1' is not diagonal"):
            MeasurementModel(
                label="x",
                outcomes=("0", "1"),
                operators=(np.eye(5), 0.3 * quadrature),
                gamma=0.3,
            )

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("entry", [(1, 1, 0), (0, 0, 0), (0, 1, 1)])
    def test_non_finite_operator_rejected(self, entry, value):
        operators = build_counter("qc", 0.3, 5).operators.copy()
        operators[entry] = value
        with pytest.raises(ValueError, match="operators must be finite"):
            MeasurementModel(label="x", outcomes=("0", "1"), operators=operators, gamma=0.3)

    def test_one_square_operator_per_outcome(self):
        for operators in ((np.eye(5),), np.ones((2, 5, 4)), np.eye(5)):
            with pytest.raises(ValueError, match="one square operator per outcome"):
                MeasurementModel(label="x", outcomes=("0", "1"), operators=operators, gamma=0.3)
        model = MeasurementModel(label="x", outcomes=("0", "1"), operators=[np.eye(5)] * 2, gamma=0)
        assert model.dim == 5 and model.operators.dtype == complex
        assert not model.operators.flags.writeable

    def test_unknown_outcome_raises_key_error(self):
        model = build_counter("qc", 0.3, 5)
        with pytest.raises(KeyError):
            model.effect_for("2")
        with pytest.raises(KeyError):
            background(model, "2", 2)


class TestPostMeasurementState:
    def test_absorbing_one_count_collapses_to_vacuum(self):
        op = build_counter("pc", 0.3, 5).operator_for("1")
        post = post_measurement_state(op, plus_state())
        assert abs(abs(post[0]) - 1.0) < 1e-12

    def test_qnd_photon_one_count_projects_out_vacuum(self):
        op = build_counter("qpc", 0.3, 5).operator_for("1")
        post = post_measurement_state(op, plus_state())
        assert abs(abs(post[1]) - 1.0) < 1e-12

    def test_qnd_quantum_one_count_preserves_number_states(self):
        op = build_counter("qqc", 0.3, 5).operator_for("1")
        posts = post_measurement_state(op, np.eye(5)[:3])
        for n in range(3):
            assert abs(abs(posts[n, n]) - 1.0) < 1e-12

    def test_impossible_outcome_raises(self):
        for gamma in (0.3, 1e-8):
            op = build_counter("pc", gamma, 5).operator_for("1")
            with pytest.raises(ZeroProbability):
                post_measurement_state(op, np.eye(5)[:2])

    def test_small_coupling_outcome_is_reachable(self):
        # p = gamma^2 = 1e-16: small, but a count on |1> leaves |0>
        op = build_counter("pc", 1e-8, 5).operator_for("1")
        post = post_measurement_state(op, np.eye(5)[1])
        assert abs(abs(post[0]) - 1.0) < 1e-12


class TestOutcomeStatistics:
    @pytest.mark.parametrize("label", ALL_LABELS)
    def test_one_count_totals(self, bloch, label):
        model = build_counter(label, 0.3, 5)
        one = evaluate(model, bloch).per_outcome["1"]
        assert abs(one.probability - P1_CLOSED[label]) < 1e-12

    def test_posterior_definition_and_normalization(self, bloch):
        # The reported totals against the prior-weighted conditionals of the
        # dense reference, and its posteriors against their definition.
        model = build_counter("qc", 0.3, 5)
        report = evaluate(model, bloch)
        for s in outcome_stats(model, bloch):
            total = report.per_outcome[s.outcome].probability
            assert abs(total - float(np.sum(bloch.weights * s.conditional))) < 1e-12
            expected = bloch.weights * s.conditional / total
            assert np.max(np.abs(s.posterior - expected)) < 1e-15
            assert abs(s.posterior.sum() - 1.0) < 1e-12

    def test_emitting_posterior_keeps_vacuum_alive(self, bloch):
        # posterior/prior at theta -> 0 tends to (0 + 1)/(3/2) = 2/3
        model = build_counter("qc", 0.3, 5)
        one = outcome_stats(model, bloch)[1]
        idx = int(np.argmin(bloch.thetas))
        t = float(np.abs(bloch.states[idx, 1]) ** 2)
        ratio = one.posterior[idx] / bloch.weights[idx]
        assert abs(ratio - (t + 1) / 1.5) < 1e-12

    @pytest.mark.parametrize("label", ALL_LABELS)
    @pytest.mark.parametrize("gamma", [0.1, 0.3])
    def test_totals_sum_to_one_within_completeness_defect(self, bloch, label, gamma):
        model = build_counter(label, gamma, 5)
        residual = completeness_residual(model, bloch.support_dim)
        total = sum(m.probability for m in evaluate(model, bloch).per_outcome.values())
        assert abs(total - 1.0) <= 2 * residual + 1e-12

    def test_model_and_ensemble_dimensions_must_agree(self, bloch):
        with pytest.raises(ValueError, match="ensemble and model dimensions differ"):
            evaluate(build_counter("qc", 0.3, 6), bloch)


class TestInformationGain:
    @pytest.mark.parametrize("label", ALL_LABELS)
    def test_one_count_closed_forms(self, bloch, label):
        model = build_counter(label, 0.3, 5)
        gain = evaluate(model, bloch).per_outcome["1"].information_gain
        assert abs(gain - I1_CLOSED[label]) < 1e-9

    @pytest.mark.parametrize("label", ALL_LABELS)
    def test_gains_are_nonnegative(self, bloch, label):
        model = build_counter(label, 0.3, 5)
        for m in evaluate(model, bloch).per_outcome.values():
            assert m.information_gain >= 0.0

    @pytest.mark.parametrize("label", ALL_LABELS + ("joint",))
    def test_gains_are_nonnegative_at_tiny_coupling(self, bloch, label):
        # At gamma = 1e-4 the no-count relative entropy rounds to about -8e-17.
        model = build_counter(label, 1e-4, 5)
        for m in evaluate(model, bloch).per_outcome.values():
            assert m.information_gain >= 0.0

    def test_one_count_gain_is_coupling_independent(self, bloch):
        model_a = build_counter("qqc", 0.1, 5)
        model_b = build_counter("qqc", 0.3, 5)
        ga = evaluate(model_a, bloch).per_outcome["1"].information_gain
        gb = evaluate(model_b, bloch).per_outcome["1"].information_gain
        assert abs(ga - gb) < 1e-14

    def test_no_count_gain_vanishes_at_low_order(self, bloch):
        for label in ALL_LABELS:
            for gamma in (0.1, 0.3):
                model = build_counter(label, gamma, 5)
                gain = evaluate(model, bloch).per_outcome["0"].information_gain
                assert gain <= 10 * gamma**4


class TestMeanInformation:
    def test_absorbing_counter_quadratic_coefficient(self, bloch):
        # mean gain ~ 0.139 gamma^2 up to the O(gamma^4) no-count piece
        gamma = 0.3
        value = evaluate(build_counter("pc", gamma, 5), bloch).mean_information
        assert abs(value - 0.5 * (1 - 1 / (2 * LN2)) * gamma**2) < gamma**4

    def test_qnd_quantum_quadratic_coefficient(self, bloch):
        gamma = 0.3
        value = evaluate(build_counter("qqc", gamma, 5), bloch).mean_information
        target = (47 / 6 - 5 / (4 * LN2) - 2.5 * np.log2(5)) * gamma**2
        assert abs(value - target) < 10 * gamma**4

    def test_scaled_mean_has_a_small_coupling_limit(self, bloch):
        gammas = np.array([0.05, 0.1, 0.2, 0.3])
        scaled = [
            evaluate(build_counter("pc", g, 5), bloch).mean_information / g**2
            for g in gammas
        ]
        target = 0.5 * (1 - 1 / (2 * LN2))
        assert abs(scaled[0] - target) < 1e-3
        assert abs(scaled[0] - scaled[1]) < abs(scaled[2] - scaled[3])


class TestFidelity:
    def test_absorbing_one_count_fidelity(self, bloch):
        model = build_counter("pc", 0.3, 5)
        assert abs(evaluate(model, bloch).per_outcome["1"].fidelity - 8 / 15) < 1e-9

    def test_emitting_one_count_fidelity_beta_value(self, bloch):
        from scipy.integrate import quad

        # independent quadrature for B(3/4, 3/2) = int s^(-1/4) (1-s)^(1/2) ds
        beta_value, _ = quad(lambda s: 1.0, 0.0, 1.0, weight="alg", wvar=(-0.25, 0.5))
        model = build_counter("qc", 0.3, 5)
        fidelity = evaluate(model, bloch).per_outcome["1"].fidelity
        assert abs(fidelity - beta_value / 3) < 1e-9

    def test_qnd_one_count_fidelities(self, bloch):
        for label, target in (("qpc", 0.8), ("qqc", 652 / 675)):
            fidelity = evaluate(build_counter(label, 0.3, 5), bloch).per_outcome["1"].fidelity
            assert abs(fidelity - target) < 1e-9

    def test_no_count_fidelity_close_to_unity(self, bloch):
        for label in ALL_LABELS:
            for gamma in (0.1, 0.3):
                model = build_counter(label, gamma, 5)
                assert 1 - evaluate(model, bloch).per_outcome["0"].fidelity <= 10 * gamma**4

    @pytest.mark.parametrize(
        "label,coefficient",
        [("pc", 7 / 30), ("qpc", 1 / 10), ("qqc", 23 / 270)],
    )
    def test_mean_fidelity_expansions(self, bloch, label, coefficient):
        gamma = 0.3
        value = evaluate(build_counter(label, gamma, 5), bloch).mean_fidelity
        assert abs(value - (1 - coefficient * gamma**2)) < 20 * gamma**4


class TestBackgroundAndReversibility:
    def test_support_outside_truncation_rejected(self):
        model = build_counter("qc", 0.3, 5)
        for support_dim in (0, 6):
            with pytest.raises(ValueError, match="support dimension"):
                background(model, "1", support_dim)

    def test_backgrounds(self, bloch):
        d = bloch.support_dim
        assert background(build_counter("pc", 0.3, 5), "1", d) < 1e-14
        assert abs(background(build_counter("qc", 0.3, 5), "1", d) - 0.09) < 1e-14
        assert abs(background(build_counter("qqc", 0.3, 5), "1", d) - 0.09) < 1e-14

    @pytest.mark.parametrize("label", ALL_LABELS)
    def test_one_count_reversibilities(self, bloch, label):
        model = build_counter(label, 0.3, 5)
        rev = evaluate(model, bloch).per_outcome["1"].reversibility
        assert abs(rev - R1_CLOSED[label]) < 1e-12

    def test_no_count_reversibility_expansion(self, bloch):
        gamma = 0.3
        value = evaluate(build_counter("qc", gamma, 5), bloch).per_outcome["0"].reversibility
        assert abs(value - (1 - gamma**2 / 2)) < 1e-2

    def test_background_is_a_pointwise_floor(self, bloch):
        for label in ALL_LABELS:
            model = build_counter(label, 0.3, 5)
            b = background(model, "1", bloch.support_dim)
            stats = outcome_stats(model, bloch)[1]
            assert b <= stats.conditional.min() + 1e-12
            rev = evaluate(model, bloch).per_outcome["1"].reversibility
            assert 0.0 <= rev <= 1.0

    @pytest.mark.parametrize("label", ALL_LABELS)
    @pytest.mark.parametrize("gamma", [0.1, 0.3])
    def test_mean_reversibility_equals_background_sum(self, bloch, label, gamma):
        model = build_counter(label, gamma, 5)
        total = sum(background(model, m, bloch.support_dim) for m in model.outcomes)
        assert abs(evaluate(model, bloch).mean_reversibility - total) < 1e-10

    @pytest.mark.parametrize(
        "label,coefficient", [("pc", 1.0), ("qc", 1.0), ("qpc", 1.0), ("qqc", 3.0)]
    )
    def test_mean_reversibility_expansions(self, bloch, label, coefficient):
        for gamma in (0.1, 0.3):
            value = evaluate(build_counter(label, gamma, 5), bloch).mean_reversibility
            assert abs(value - (1 - coefficient * gamma**2)) < 5 * gamma**4


def entropy_difference(weights, conditionals):
    """H(M) - H(M|A) in bits from the prior weights and p(m|a), one row of
    conditionals per outcome."""

    def plogp(p):
        return np.where(p > 0, p * np.log2(np.where(p > 0, p, 1.0)), 0.0)

    totals = conditionals @ weights
    return float(np.sum(plogp(conditionals) @ weights) - np.sum(plogp(totals)))


class TestMutualInformationIdentity:
    @pytest.mark.parametrize("label", ALL_LABELS)
    @pytest.mark.parametrize("gamma", [0.1, 0.3])
    def test_outcome_average_equals_double_sum(self, bloch, label, gamma):
        model = build_counter(label, gamma, 5)
        report = evaluate(model, bloch)
        by_outcome = sum(m.probability * m.information_gain for m in report.per_outcome.values())
        conditionals = np.array([s.conditional for s in outcome_stats(model, bloch)])
        assert abs(by_outcome - entropy_difference(bloch.weights, conditionals)) < 1e-10
        # the library entry point performs the same check internally
        assert abs(report.mean_information - by_outcome) < 1e-12

    def test_inconsistent_conditionals_are_caught(self, bloch, monkeypatch):
        # p(1|a) scaled by 1.01 while p(1) and the posterior are kept: the
        # gain reads log2(1.01) high, and H(M) - H(M|A) from the prior and
        # the scaled conditionals no longer matches the mean gain
        exact = metrics._figures

        def skewed(weights, cond, *rest):
            cond = cond.copy()
            cond[1] *= 1.01
            return exact(weights, cond, *rest)

        monkeypatch.setattr(metrics, "_figures", skewed)
        with pytest.raises(NumericInconsistency, match="mutual-information"):
            full_report("pc", 0.3, bloch)

    def test_inconsistent_reversibilities_are_caught(self, bloch, monkeypatch):
        # Every reversibility sum scaled by 1.01 while the backgrounds are
        # kept: the no-count's mean reversibility no longer sums to them.
        exact = metrics._figures

        def skewed(*args):
            figures = exact(*args)
            figures[3] *= 1.01
            return figures

        monkeypatch.setattr(metrics, "_figures", skewed)
        with pytest.raises(NumericInconsistency, match="reversibility/background"):
            full_report("pc", 0.3, bloch)


class TestBatchedInformation:
    @staticmethod
    def dense_gain(weights, cond):
        # p(1|a) from the dense images |M c|^2, gain as relative entropy
        total = float(np.sum(weights * cond))
        return information_gain(OutcomeStats("1", cond, total, weights * cond / total))

    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("label", ["pc", "qpc"])
    def test_populations_path_matches_dense_images(self, d, label):
        # Both paths against the exact gains of the exact conditionals
        # sum_n |c_n|^2 gamma^2 f(n)^2 of the same amplitudes c (f(n) =
        # sqrt(n) or n), within oracles.gain_error_bounds.  The operator
        # entry fl(gamma f(n)) is within 2u of gamma f(n), |z| of a complex
        # z within 1 ulp (2u), and a square adds u to twice the error of its
        # base.  Two sums: |c_n|^2 within 5u, the effect entry
        # fl(entry^2) within 5u, the division by the mean effect u, and d
        # products and d - 1 additions: d + 11 units.  Dense images: each
        # entry of M c is one product (3u with the operator entry), its
        # |.|^2 within 11u, and the d - 1 additions of nonzero entries: d +
        # 10 units.
        states = haar_states(d, 20_000, 11, d + 2)
        weights = np.full(20_000, 1.0 / 20_000)
        model = build_counter(label, 0.3, d + 2)
        op = model.operator_for("1")
        cond = np.sum(np.abs(states @ op.T) ** 2, axis=1)
        populations = np.abs(states[:, :d]) ** 2
        (full,), (batches,) = batched_information([model], d, 20_000, 11, "1", n_batches=100)
        effect = model.effect_for("1")[:d]
        streamed = gain_error_bounds(populations, effect, 100, d + 11, streamed=True)
        dense = gain_error_bounds(populations, effect, 100, d + 10, streamed=False)
        assert abs(full - self.dense_gain(weights, cond)) <= streamed[0] + dense[0]
        for k, idx in enumerate(np.array_split(np.arange(20_000), 100)):
            w = weights[idx] / np.sum(weights[idx])
            dense_batch = self.dense_gain(w, cond[idx])
            assert abs(batches[k] - dense_batch) <= streamed[1][k] + dense[1][k]

    @pytest.mark.parametrize("n_batches", [100, 7])
    def test_batches_equal_index_array_batches(self, n_batches):
        # each batch is a contiguous slice of the rows the index arrays of
        # np.array_split(np.arange(n)) pick, so the gains agree within the
        # rounding bound of the two sums against information_gain
        # (oracles.gain_rounding_bound)
        populations = np.abs(haar_states(3, 10_007, 5, 3)) ** 2
        weights = np.full(10_007, 1.0 / 10_007)
        model = build_counter("qpc", 0.3, 5)
        effect = model.effect_for("1")[:3]
        cond = populations @ effect
        _, (batches,) = batched_information([model], 3, 10_007, 5, "1", n_batches)
        indexed = []
        for idx in np.array_split(np.arange(10_007), n_batches):
            w = weights[idx]
            indexed.append(self.dense_gain(w / w.sum(), cond[idx]))
        _, bounds = gain_rounding_bound(populations, effect, n_batches)
        assert np.all(np.abs(batches - np.array(indexed)) <= bounds)

    def test_unknown_outcome_raises_key_error(self):
        with pytest.raises(KeyError):
            batched_information([build_counter("pc", 0.3, 4)], 2, 10_000, 1, "2")

    def test_zero_total_batch_raises(self):
        # the first of 100 batches holds only the vacuum, where gamma * a
        # cannot click, although the outcome is possible on the whole family
        populations = np.zeros((10_000, 2))
        populations[:100, 0] = 1.0
        populations[100:, 1] = 1.0
        with pytest.raises(ZeroProbability, match="'1'"):
            streamed_gains(build_counter("pc", 0.3, 4), populations)

    @pytest.mark.parametrize("n_batches", [0, 10_001])
    def test_batch_count_outside_one_to_sample_count_rejected(self, n_batches):
        # 10,001 batches of 10,000 samples would leave one empty, whose zero
        # total was reported as the outcome's although p(1) > 0
        with pytest.raises(ValueError, match=f"n_batches = {n_batches} outside"):
            batched_information([build_counter("pc", 0.3, 5)], 3, 10_000, 1, "1", n_batches)

    @pytest.mark.parametrize("bad", [-1e-3, np.nan, np.inf])
    def test_stored_conditionals_outside_probabilities_rejected(self, bad):
        # batched_information checks its effects (support_effects); the
        # conditionals are checked themselves, where a NaN gave a NaN gain.
        # Stored conditionals are one-column populations under effect 1.
        conditionals = np.full(10_000, 0.5)
        conditionals[17] = bad
        with pytest.raises(ValueError, match="^conditionals must be finite and non-negative$"):
            metrics.streamed_information("1", np.ones((1, 1)), [conditionals[:, None]], 10_000)

    @pytest.mark.parametrize("bad", [-0.5, np.nan, np.inf])
    def test_populations_outside_probabilities_rejected(self, bad):
        # a negative population gave a wrong gain, a NaN or infinite one NaN
        populations = np.concatenate(list(haar_blocks(2, 10_000, 1)))
        populations[17, 1] = bad
        with pytest.raises(ValueError, match="^conditionals must be finite and non-negative$"):
            streamed_gains(build_counter("pc", 0.3, 4), populations)

    @pytest.mark.parametrize("split,n_rows", [((15_000, 5_000), 15_000), ((15_000,), 20_000)])
    def test_blocks_of_another_row_count_rejected(self, split, n_rows):
        # Rows past n_rows fell into no batch and were dropped (0.030401
        # against 0.030580 for the whole 20,000 rows), and too few rows
        # left the last batches empty, reported as a zero total.
        populations = np.concatenate(list(haar_blocks(3, 20_000, 1)))
        blocks = np.split(populations[: sum(split)], np.cumsum(split)[:-1])
        effect = np.array([[0.1, 0.2, 0.3]])
        message = f"^blocks hold {sum(split)} rows, not n_rows = {n_rows}$"
        with pytest.raises(ValueError, match=message):
            metrics.streamed_information("1", effect, blocks, n_rows)

    def test_endless_stream_refused_at_the_first_block_past_n_rows(self):
        # The row count was checked after the loop, so a stream longer than
        # n_rows was read and summed to its end, and an endless one never
        # returned; a seventh read fails the test instead of hanging it.
        reads = 0

        def endless():
            nonlocal reads
            while True:
                reads += 1
                assert reads <= 6, "a block past the first one over n_rows was read"
                yield np.full((1_000, 1), 0.5)

        with pytest.raises(ValueError, match="^blocks hold 6000 rows, not n_rows = 5000$"):
            metrics.streamed_information("1", np.ones((1, 1)), endless(), 5_000)
        assert reads == 6

    @pytest.mark.parametrize("support_dim", [0, 5])
    def test_support_outside_truncation_rejected(self, support_dim):
        # support_dim 0 is refused by support_effects, before haar_blocks
        # refuses d < 2
        with pytest.raises(ValueError, match="support dimension"):
            batched_information([build_counter("pc", 0.3, 4)], support_dim, 10_000, 1)

    def test_effect_above_one_rejected(self):
        # gamma^2 n^2 of qpc is 2.25 on |3> at gamma = 0.5, and exactly 1 on |2>
        model = build_counter("qpc", 0.5, 6)
        with pytest.raises(ValueError, match=r"'1' is 2\.25 > 1 on level 3"):
            batched_information([model], 4, 10_000, 1)
        (full,), _ = batched_information([model], 3, 10_000, 1)
        assert full > 0.0


class TestExactHaarGains:
    """oracles.haar_gain, the closed form of a Haar gain, and the streamed
    Monte Carlo gains held to it: a check of the draw's distribution that
    does not read its bytes."""

    @pytest.mark.parametrize("effect", [(0.0, 1.0), (1.0, 2.0), (1.0, 4.0), (0.3, 0.01)])
    def test_two_levels_equal_two_level_gain(self, effect):
        reversibility = 2 * min(effect) / sum(effect)
        assert haar_gain(effect) == pytest.approx(two_level_gain(reversibility), rel=1e-12)

    @pytest.mark.parametrize("d,pc,qpc", [
        (2, 0.2786525, 0.2786525), (3, 0.1310875, 0.1941219), (4, 0.0849502, 0.1467647),
    ])
    def test_values_of_the_one_count_gains(self, d, pc, qpc):
        # pc and qpc one-counts have effects proportional to n and n^2
        n = np.arange(d, dtype=float)
        assert haar_gain(n) == pytest.approx(pc, abs=5e-8)
        assert haar_gain(n * n) == pytest.approx(qpc, abs=5e-8)

    @pytest.mark.parametrize("seed", [42, 7])
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_monte_carlo_gains_lie_within_four_standard_errors(self, d, seed):
        models = [build_counter(label, 0.3, d + 2) for label in ("pc", "qpc")]
        gains, batches = batched_information(models, d, 10**6, seed)
        errors = np.std(batches, axis=1, ddof=1) / np.sqrt(batches.shape[1])
        for model, gain, error in zip(models, gains, errors):
            exact = haar_gain(model.support_effects(d)[1])
            assert abs(gain - exact) <= 4 * error


class TestTruncationEdge:
    # |0>, |1> and |3> with equal weights at dim 4: the qc one-count raises
    # |3> to the missing |4>, so sum_m p(m) was 0.894 and went unnoticed.
    EDGE = "support dimension 4 is too close to the truncation dim 4"

    def test_evaluate_refuses_a_support_at_the_edge(self):
        ens = Ensemble(support_dim=4, states=np.eye(4)[[0, 1, 3]], weights=np.full(3, 1 / 3))
        with pytest.raises(ValueError, match=self.EDGE):
            evaluate(build_counter("qc", 0.3, 4), ens)

    def test_batched_information_refuses_a_support_at_the_edge(self):
        with pytest.raises(ValueError, match=self.EDGE):
            batched_information([build_counter("qc", 0.3, 4)], 4, 10_000, 0)


def with_vacuum_member(ens):
    """ens with an extra |0> member of weight 1/4."""
    return Ensemble(
        support_dim=ens.support_dim,
        states=np.vstack([ens.states, np.eye(ens.dim)[:1]]),
        weights=np.append(0.75 * ens.weights, 0.25),
    )


class TestSupportCut:
    """evaluate applies the operators' support columns, down to row
    reach[support - 1], to the level-major amplitudes; these models put
    that cut where the closed forms do not."""

    @pytest.mark.parametrize("dim", [5, 8, 12])
    @pytest.mark.parametrize("vacuum", [False, True])
    def test_outcome_to_the_top_level(self, dim, vacuum):
        # The one-count maps |1> to |dim - 1>, so the images of the
        # two-level family reach the top row.  Every image entry is one
        # product, so the report is the reference's bit for bit.
        ops = np.zeros((2, dim, dim))
        ops[0] = np.diag(np.r_[1.0, np.sqrt(1.0 - 0.3**2), np.ones(dim - 2)])
        ops[1, dim - 1, 1] = 0.3
        model = MeasurementModel(label="top", outcomes=("0", "1"), operators=ops, gamma=0.3)
        assert model.reach.tolist() == [1] + [dim] * (dim - 1)
        ens = bloch_two_state_ensemble(64, dim)
        ens = with_vacuum_member(ens) if vacuum else ens
        assert repr(evaluate(model, ens)) == repr(evaluate_reference(model, ens))

    @pytest.mark.parametrize("vacuum", [False, True])
    def test_all_zero_support_column(self, vacuum):
        # Both outcomes send |0> to nothing and |1> to |0>, so column 0 is
        # zero, reach[1] = 1 lies below the support and the overlaps read a
        # zero row 1.  On the |0> member every conditional is zero, so each
        # outcome is reduced on its own.
        dim = 6
        ops = np.zeros((2, dim, dim))
        ops[0, 0, 1], ops[1, 0, 1] = np.sqrt(1.0 - 0.3**2), 0.3
        ops[0, 2:, 2:] = np.eye(dim - 2)
        model = MeasurementModel(label="zero", outcomes=("0", "1"), operators=ops, gamma=0.3)
        assert model.reach.tolist() == [0, 1, 3, 4, 5, 6]
        ens = bloch_two_state_ensemble(64, dim)
        ens = with_vacuum_member(ens) if vacuum else ens
        assert repr(evaluate(model, ens)) == repr(evaluate_reference(model, ens))

    @pytest.mark.parametrize("dim", [8, 10, 12])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_off_band_model_on_a_full_support_family(self, dim, seed):
        # Three outcomes M_k = U_k diag(sqrt(e_k)), U_k Haar unitaries and
        # sum_k e_k = 1, on 200 random states over the s = dim - 2 support
        # levels.  Every image entry is a sum of s products, which evaluate
        # adds in the order of its (rows, s) @ (s, N) product and the
        # reference in that of its (N, dim) @ (dim, dim) one; the
        # conditionals then add dim squares in row order against numpy's
        # pairwise sum.  So the figures agree within rounding bounds, to
        # first order in u = 2^-53 (units below are multiples of u):
        # - A complex product is within 2 sqrt(2) u of |a| |b| and a sum of
        #   s of them adds sqrt(2) (s - 1) u of the sum of their moduli, in
        #   any order, so an image entry y_r = sum_i M_ri c_i is within
        #   sqrt(2) (s + 2) u A_r of exact, A_r = sum_i |M_ri| |c_i|.
        #   Column i of M has the squared norm e_i, so by Cauchy-Schwarz
        #   sum_r A_r^2 <= s c, with c = sum_i e_i |c_i|^2 the conditional,
        #   and the image errors move c by 2 sqrt(2) (s + 2) sqrt(s) u c.
        #   |y_r| is within 2u (1 ulp), its square within 5u, and the dim
        #   squares add dim - 1 more: each conditional is within
        #   [2 sqrt(2) (s + 2) sqrt(s) + dim + 4] u of exact, and the two
        #   within e units of each other, twice that.
        # - An overlap |sum_i conj(c_i) y_i| is within [sqrt(2) (s + 2)
        #   sqrt(s) + sqrt(2) (s + 1)] u sqrt(c) of exact, from the image
        #   errors on the support rows and its own s products.
        # - Everything after that runs the same operations in both, and a
        #   numpy sum of N terms passes a term through h = sum_depth(N)
        #   additions.  Per outcome, with posterior weights pi, L = sum pi
        #   |log2(c / p)|, fidelity F and reversibility R, each side's
        #   roundings add to the difference the perturbation makes: p =
        #   sum w c moves by (e + 2h + 2) u p; pi = w c / p by s_pi = 2e +
        #   2h + 6 units relative; the gain sum pi log2(c / p) by u [(s_pi
        #   + 2h + 6) L + (2e + 2h + 4) / ln 2] (log2 within 1 ulp); F =
        #   sum pi overlap / sqrt(c) by u [(s_pi + e / 2 + 2h + 8) F + 2
        #   sqrt(2) ((s + 2) sqrt(s) + s + 1)]; R = sum pi b / c by (s_pi +
        #   e + 2h + 4) u R.  A mean sum_m p_m X_m moves by sum_m (|dp_m|
        #   X_m + p_m |dX_m| + 2K u p_m X_m), and the efficiency I / (1 -
        #   F) by |dI| / (1 - F) + I |dF| / (1 - F)^2 + 4u I / (1 - F).
        #   The backgrounds read the same effects in both.
        rng = np.random.default_rng(seed)
        s, n, k = dim - 2, 200, 3
        unitaries = np.linalg.qr(rng.standard_normal((k, dim, dim, 2)) @ [1.0, 1j])[0]
        effects = rng.random((k, dim))
        effects /= effects.sum(axis=0)
        ops = unitaries * np.sqrt(effects)[:, None, :]
        model = MeasurementModel(label="u", outcomes=("a", "b", "c"), operators=ops, gamma=0.1)
        assert model.reach.tolist() == [dim] * dim
        states = np.zeros((n, dim), dtype=complex)
        states[:, :s] = rng.standard_normal((n, s, 2)) @ [1.0, 1j]
        states /= np.linalg.norm(states, axis=1)[:, None]
        weights = rng.random(n)
        ens = Ensemble(support_dim=s, states=states, weights=weights / weights.sum())
        report, reference = evaluate(model, ens), evaluate_reference(model, ens)
        assert report.backgrounds == reference.backgrounds

        u, h = 2.0**-53, sum_depth(n)
        e = 2 * (2 * np.sqrt(2) * (s + 2) * np.sqrt(s) + dim + 4)
        s_pi = 2 * e + 2 * h + 6
        overlap_units = 2 * np.sqrt(2) * ((s + 2) * np.sqrt(s) + s + 1)
        moved = {}
        for stats in outcome_stats(model, ens):
            got, ref = report.per_outcome[stats.outcome], reference.per_outcome[stats.outcome]
            logs = np.abs(np.log2(stats.conditional / stats.total))
            bounds = {
                "probability": (e + 2 * h + 2) * u * ref.probability,
                "information_gain": u * ((s_pi + 2 * h + 6) * (stats.posterior @ logs)
                                         + (2 * e + 2 * h + 4) / np.log(2)),
                "fidelity": u * ((s_pi + e / 2 + 2 * h + 8) * ref.fidelity + overlap_units),
                "reversibility": (s_pi + e + 2 * h + 4) * u * ref.reversibility,
            }
            loss = 1.0 - ref.fidelity
            bounds["efficiency"] = (bounds["information_gain"] / loss
                                    + ref.information_gain * bounds["fidelity"] / loss**2
                                    + 4 * u * ref.efficiency)
            for name, bound in bounds.items():
                assert abs(getattr(got, name) - getattr(ref, name)) <= bound, name
                assert bound < 1e-11  # the bound is not vacuous
            moved[stats.outcome] = bounds
        for mean, name in [("mean_information", "information_gain"),
                           ("mean_fidelity", "fidelity"), ("mean_reversibility", "reversibility")]:
            bound = sum(
                moved[m]["probability"] * getattr(x, name) + x.probability * moved[m][name]
                + 2 * k * u * x.probability * getattr(x, name)
                for m, x in reference.per_outcome.items()
            )
            assert abs(getattr(report, mean) - getattr(reference, mean)) <= bound, mean

    def test_evaluate_holds_no_dense_image_array(self):
        # A structural guard, not a timing bound.  The pass holds the (K,
        # rows, N) complex images and their float squares (1.5 K N rows
        # complex entries), the conjugate support amplitudes (s N) and ten
        # float arrays of K x N entries (conditionals, posteriors, summed
        # products, overlaps, the four integrands and a temporary), 5 K N
        # complex entries, at most 2.5 K N (s + rows) since s + rows >= 2:
        # in all at most 4 K N (s + rows) complex entries.  The bound
        # allows 5 for the interpreter's own objects, 160 KiB here; the
        # dense (K, N, dim) images alone are 512 KiB at dim 64.
        model = build_counter("qqc", 0.3, 64)
        ens = bloch_two_state_ensemble(256, 64)
        rows = max(ens.support_dim, int(model.reach[ens.support_dim - 1]))
        bound = 5 * len(model.outcomes) * ens.n_samples * (ens.support_dim + rows) * 16
        evaluate(model, ens)
        tracemalloc.start()
        try:
            evaluate(model, ens)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound


class TestOneValidatedModel:
    @pytest.fixture
    def checks(self, monkeypatch):
        """Labels of the models whose construction runs the effect check."""
        labels = []
        check = MeasurementModel.__post_init__

        def counted(model):
            labels.append(model.label)
            check(model)

        monkeypatch.setattr(MeasurementModel, "__post_init__", counted)
        return labels

    def test_joint_model_is_validated_once_per_stage(self, checks):
        # the joint model is built from the two counters' operator stacks,
        # so only the model itself runs the effect check
        model = build_counter("joint", 0.3, 6)
        assert checks == ["joint"]
        assert model.label == "joint"
        assert model.outcomes == ("00", "01", "10", "11")

    @pytest.mark.parametrize("label", ["pc", "qc", "qpc", "qqc", "joint"])
    def test_full_report_validates_one_model(self, label, bloch, checks):
        full_report(label, 0.3, bloch)
        assert checks == [label]


class TestEfficiency:
    def test_qnd_photon_value(self):
        assert abs(efficiency(I1_CLOSED["qpc"], 0.8) - 1.3933) < 1e-3

    def test_qnd_quantum_is_roughly_twice_qnd_photon(self):
        ratio = efficiency(I1_CLOSED["qqc"], 652 / 675) / efficiency(I1_CLOSED["qpc"], 0.8)
        assert 1.7 < ratio < 2.1

    def test_zero_information_gives_zero(self):
        assert efficiency(0.0, 0.5) == 0.0

    def test_unit_fidelity_rejected(self):
        assert efficiency(0.1, 1.0) is None
        assert efficiency(0.1, 1.0 - 1e-13) is None


class TestFullReport:
    def test_absorbing_counter_headline_numbers(self, bloch):
        report = full_report("pc", 0.3, bloch)
        one = report.per_outcome["1"]
        assert abs(one.probability - 0.045) < 1e-12
        assert abs(one.information_gain - I1_CLOSED["pc"]) < 1e-9
        assert abs(one.fidelity - 8 / 15) < 1e-9
        assert one.reversibility < 1e-12

    def test_emitting_counter_no_count_reversibility(self, bloch):
        report = full_report("qc", 0.3, bloch)
        assert abs(report.per_outcome["0"].reversibility - 0.955) < 1e-2

    def test_qnd_photon_headline_numbers(self, bloch):
        report = full_report("qpc", 0.3, bloch)
        one = report.per_outcome["1"]
        assert abs(one.information_gain - I1_CLOSED["qpc"]) < 1e-9
        assert abs(one.fidelity - 0.8) < 1e-9
        assert one.reversibility < 1e-12
        assert abs(one.efficiency - I1_CLOSED["qpc"] / 0.2) < 1e-8

    def test_means_are_probability_weighted_sums(self, bloch):
        for label in ALL_LABELS + ("joint",):
            report = full_report(label, 0.3, bloch)
            mean_i = sum(
                m.probability * m.information_gain for m in report.per_outcome.values()
            )
            assert abs(report.mean_information - mean_i) < 1e-12

    def test_joint_double_count_reproduces_qnd_quantum(self, bloch):
        joint = full_report("joint", 0.3, bloch)
        direct = full_report("qqc", 0.3, bloch)
        both = joint.per_outcome["11"]
        one = direct.per_outcome["1"]
        # proportional operators: identical posteriors and post-states
        assert abs(both.information_gain - one.information_gain) < 1e-12
        assert abs(both.fidelity - one.fidelity) < 1e-12
        assert abs(both.reversibility - one.reversibility) < 1e-12
        assert abs(both.probability - 0.09 * one.probability) < 1e-14

    def test_zero_total_outcome_raises_from_every_figure_function(self):
        vacuum = Ensemble(
            support_dim=1,
            states=np.eye(5)[:1],
            weights=np.ones(1),
        )
        model = build_counter("pc", 0.3, 5)
        with pytest.raises(ZeroProbability, match="'1'"):
            streamed_gains(model, vacuum.populations, n_batches=1)
        with pytest.raises(ZeroProbability):
            full_report("pc", 0.3, vacuum)
        with pytest.raises(ZeroProbability):
            evaluate(model, vacuum)

    def test_effect_above_one_rejected(self):
        # gamma^2 n^2 of qpc is 2.25 on |3> at gamma = 0.5; the Bloch support
        # of the same model stays below 1
        ens = Ensemble(support_dim=4, states=np.eye(6)[:4], weights=np.full(4, 0.25))
        model = build_counter("qpc", 0.5, 6)
        with pytest.raises(ValueError, match=r"'1' is 2\.25 > 1 on level 3"):
            evaluate(model, ens)
        evaluate(model, bloch_two_state_ensemble(16, 6))

    def test_absorbing_and_qnd_photon_coincide_on_two_levels(self, bloch):
        pc = full_report("pc", 0.3, bloch)
        qpc = full_report("qpc", 0.3, bloch)
        for m in ("0", "1"):
            assert abs(
                pc.per_outcome[m].probability - qpc.per_outcome[m].probability
            ) < 1e-12
            assert abs(
                pc.per_outcome[m].information_gain - qpc.per_outcome[m].information_gain
            ) < 1e-12
