import numpy as np
import pytest

from photocount import (
    CounterKind,
    Ensemble,
    FidelityOne,
    StateVector,
    ZeroProbability,
    background,
    bloch_two_state_ensemble,
    build_counter,
    completeness_residual,
    efficiency,
    fidelity_after,
    full_report,
    information_gain,
    mean_fidelity,
    mean_information,
    mean_reversibility,
    outcome_probability,
    outcome_statistics,
    post_measurement_state,
    resolve_model,
    reversibility,
)
from photocount.fock import Operator
from photocount.metrics import moment_n1, moment_n2, moment_n3

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
    return StateVector(amps)


class TestMoments:
    def test_shifted_moment_identity_on_random_states(self):
        rng = np.random.default_rng(17)
        for _ in range(1000):
            raw = rng.standard_normal(6) + 1j * rng.standard_normal(6)
            state = StateVector(raw / np.linalg.norm(raw))
            lhs = moment_n3(state)
            rhs = moment_n2(state) + 2 * moment_n1(state) + 1
            assert abs(lhs - rhs) < 1e-12


class TestOutcomeProbability:
    def test_absorbing_counter_ignores_vacuum(self):
        op = build_counter(CounterKind.PC, 0.3, 5).operator_for("1")
        assert outcome_probability(op, StateVector.basis(5, 0)) < 1e-30

    def test_emitting_counter_on_one_photon(self):
        op = build_counter(CounterKind.QC, 0.3, 5).operator_for("1")
        assert abs(outcome_probability(op, StateVector.basis(5, 1)) - 0.18) < 1e-15

    def test_identity_gives_unity(self):
        assert abs(outcome_probability(Operator.identity(5), plus_state()) - 1.0) < 1e-14

    def test_unnormalized_state_rejected(self):
        with pytest.raises(ValueError):
            outcome_probability(Operator.identity(3), StateVector([1.0, 1.0, 0.0]))


class TestPostMeasurementState:
    def test_absorbing_one_count_collapses_to_vacuum(self):
        op = build_counter(CounterKind.PC, 0.3, 5).operator_for("1")
        post = post_measurement_state(op, plus_state())
        assert abs(abs(post.amplitudes[0]) - 1.0) < 1e-12

    def test_qnd_photon_one_count_projects_out_vacuum(self):
        op = build_counter(CounterKind.QPC, 0.3, 5).operator_for("1")
        post = post_measurement_state(op, plus_state())
        assert abs(abs(post.amplitudes[1]) - 1.0) < 1e-12

    def test_qnd_quantum_one_count_preserves_number_states(self):
        op = build_counter(CounterKind.QQC, 0.3, 5).operator_for("1")
        for n in range(3):
            post = post_measurement_state(op, StateVector.basis(5, n))
            assert abs(abs(post.amplitudes[n]) - 1.0) < 1e-12

    def test_impossible_outcome_raises(self):
        op = build_counter(CounterKind.PC, 0.3, 5).operator_for("1")
        with pytest.raises(ZeroProbability):
            post_measurement_state(op, StateVector.basis(5, 0))


class TestOutcomeStatistics:
    @pytest.mark.parametrize("label", ALL_LABELS)
    def test_one_count_totals(self, bloch, label):
        model = resolve_model(label, 0.3, 5)
        stats = outcome_statistics(model, bloch)
        one = stats[model.outcomes.index("1")]
        assert abs(one.total - P1_CLOSED[label]) < 1e-12

    def test_posterior_definition_and_normalization(self, bloch):
        model = resolve_model("qc", 0.3, 5)
        for s in outcome_statistics(model, bloch):
            assert abs(s.total - float(np.sum(bloch.weights * s.conditional))) < 1e-12
            expected = bloch.weights * s.conditional / s.total
            assert np.max(np.abs(s.posterior - expected)) < 1e-15
            assert abs(s.posterior.sum() - 1.0) < 1e-12

    def test_emitting_posterior_keeps_vacuum_alive(self, bloch):
        # posterior/prior at theta -> 0 tends to (0 + 1)/(3/2) = 2/3
        model = resolve_model("qc", 0.3, 5)
        stats = outcome_statistics(model, bloch)
        one = stats[1]
        idx = int(np.argmin(bloch.thetas))
        t = float(np.abs(bloch.states[idx, 1]) ** 2)
        ratio = one.posterior[idx] / bloch.weights[idx]
        assert abs(ratio - (t + 1) / 1.5) < 1e-12

    @pytest.mark.parametrize("label", ALL_LABELS)
    @pytest.mark.parametrize("gamma", [0.1, 0.3])
    def test_totals_sum_to_one_within_completeness_defect(self, bloch, label, gamma):
        model = resolve_model(label, gamma, 5)
        residual = completeness_residual(model, bloch.support_dim)
        total = sum(s.total for s in outcome_statistics(model, bloch))
        assert abs(total - 1.0) <= 2 * residual + 1e-12


class TestInformationGain:
    @pytest.mark.parametrize("label", ALL_LABELS)
    def test_one_count_closed_forms(self, bloch, label):
        model = resolve_model(label, 0.3, 5)
        stats = outcome_statistics(model, bloch)
        assert abs(information_gain(stats[1]) - I1_CLOSED[label]) < 1e-9

    @pytest.mark.parametrize("label", ALL_LABELS)
    def test_gains_are_nonnegative(self, bloch, label):
        model = resolve_model(label, 0.3, 5)
        for s in outcome_statistics(model, bloch):
            assert information_gain(s) >= 0.0

    @pytest.mark.parametrize("label", ALL_LABELS + ("joint",))
    def test_gains_are_nonnegative_at_tiny_coupling(self, bloch, label):
        # At gamma = 1e-4 the no-count relative entropy rounds to about -8e-17.
        model = resolve_model(label, 1e-4, 5)
        for s in outcome_statistics(model, bloch):
            assert information_gain(s) >= 0.0

    def test_one_count_gain_is_coupling_independent(self, bloch):
        model_a = resolve_model("qqc", 0.1, 5)
        model_b = resolve_model("qqc", 0.3, 5)
        ga = information_gain(outcome_statistics(model_a, bloch)[1])
        gb = information_gain(outcome_statistics(model_b, bloch)[1])
        assert abs(ga - gb) < 1e-14

    def test_no_count_gain_vanishes_at_low_order(self, bloch):
        for label in ALL_LABELS:
            for gamma in (0.1, 0.3):
                model = resolve_model(label, gamma, 5)
                stats = outcome_statistics(model, bloch)
                assert information_gain(stats[0]) <= 10 * gamma**4


class TestMeanInformation:
    def test_absorbing_counter_quadratic_coefficient(self, bloch):
        # mean gain ~ 0.139 gamma^2 up to the O(gamma^4) no-count piece
        gamma = 0.3
        value = mean_information(resolve_model("pc", gamma, 5), bloch)
        assert abs(value - 0.5 * (1 - 1 / (2 * LN2)) * gamma**2) < gamma**4

    def test_qnd_quantum_quadratic_coefficient(self, bloch):
        gamma = 0.3
        value = mean_information(resolve_model("qqc", gamma, 5), bloch)
        target = (47 / 6 - 5 / (4 * LN2) - 2.5 * np.log2(5)) * gamma**2
        assert abs(value - target) < 10 * gamma**4

    def test_scaled_mean_has_a_small_coupling_limit(self, bloch):
        gammas = np.array([0.05, 0.1, 0.2, 0.3])
        scaled = [
            mean_information(resolve_model("pc", g, 5), bloch) / g**2 for g in gammas
        ]
        target = 0.5 * (1 - 1 / (2 * LN2))
        assert abs(scaled[0] - target) < 1e-3
        assert abs(scaled[0] - scaled[1]) < abs(scaled[2] - scaled[3])


class TestFidelity:
    def test_absorbing_one_count_fidelity(self, bloch):
        model = resolve_model("pc", 0.3, 5)
        assert abs(fidelity_after(model, bloch, "1") - 8 / 15) < 1e-9

    def test_emitting_one_count_fidelity_beta_value(self, bloch):
        from scipy.integrate import quad

        # independent quadrature for B(3/4, 3/2) = int s^(-1/4) (1-s)^(1/2) ds
        beta_value, _ = quad(lambda s: 1.0, 0.0, 1.0, weight="alg", wvar=(-0.25, 0.5))
        model = resolve_model("qc", 0.3, 5)
        assert abs(fidelity_after(model, bloch, "1") - beta_value / 3) < 1e-9

    def test_qnd_one_count_fidelities(self, bloch):
        assert abs(fidelity_after(resolve_model("qpc", 0.3, 5), bloch, "1") - 0.8) < 1e-9
        assert (
            abs(fidelity_after(resolve_model("qqc", 0.3, 5), bloch, "1") - 652 / 675) < 1e-9
        )

    def test_no_count_fidelity_close_to_unity(self, bloch):
        for label in ALL_LABELS:
            for gamma in (0.1, 0.3):
                model = resolve_model(label, gamma, 5)
                assert 1 - fidelity_after(model, bloch, "0") <= 10 * gamma**4

    @pytest.mark.parametrize(
        "label,coefficient",
        [("pc", 7 / 30), ("qpc", 1 / 10), ("qqc", 23 / 270)],
    )
    def test_mean_fidelity_expansions(self, bloch, label, coefficient):
        gamma = 0.3
        value = mean_fidelity(resolve_model(label, gamma, 5), bloch)
        assert abs(value - (1 - coefficient * gamma**2)) < 20 * gamma**4


class TestBackgroundAndReversibility:
    def test_backgrounds(self, bloch):
        d = bloch.support_dim
        assert background(resolve_model("pc", 0.3, 5), "1", d) < 1e-14
        assert abs(background(resolve_model("qc", 0.3, 5), "1", d) - 0.09) < 1e-14
        assert abs(background(resolve_model("qqc", 0.3, 5), "1", d) - 0.09) < 1e-14

    @pytest.mark.parametrize("label", ALL_LABELS)
    def test_one_count_reversibilities(self, bloch, label):
        model = resolve_model(label, 0.3, 5)
        assert abs(reversibility(model, bloch, "1") - R1_CLOSED[label]) < 1e-12

    def test_no_count_reversibility_expansion(self, bloch):
        gamma = 0.3
        value = reversibility(resolve_model("qc", gamma, 5), bloch, "0")
        assert abs(value - (1 - gamma**2 / 2)) < 1e-2

    def test_background_is_a_pointwise_floor(self, bloch):
        for label in ALL_LABELS:
            model = resolve_model(label, 0.3, 5)
            b = background(model, "1", bloch.support_dim)
            stats = outcome_statistics(model, bloch)[1]
            assert b <= stats.conditional.min() + 1e-12
            rev = reversibility(model, bloch, "1")
            assert 0.0 <= rev <= 1.0

    @pytest.mark.parametrize("label", ALL_LABELS)
    @pytest.mark.parametrize("gamma", [0.1, 0.3])
    def test_mean_reversibility_equals_background_sum(self, bloch, label, gamma):
        model = resolve_model(label, gamma, 5)
        total = sum(background(model, m, bloch.support_dim) for m in model.outcomes)
        assert abs(mean_reversibility(model, bloch) - total) < 1e-10

    @pytest.mark.parametrize(
        "label,coefficient", [("pc", 1.0), ("qc", 1.0), ("qpc", 1.0), ("qqc", 3.0)]
    )
    def test_mean_reversibility_expansions(self, bloch, label, coefficient):
        for gamma in (0.1, 0.3):
            value = mean_reversibility(resolve_model(label, gamma, 5), bloch)
            assert abs(value - (1 - coefficient * gamma**2)) < 5 * gamma**4


class TestMutualInformationIdentity:
    @pytest.mark.parametrize("label", ALL_LABELS)
    @pytest.mark.parametrize("gamma", [0.1, 0.3])
    def test_outcome_average_equals_double_sum(self, bloch, label, gamma):
        model = resolve_model(label, gamma, 5)
        stats = outcome_statistics(model, bloch)
        by_outcome = sum(s.total * information_gain(s) for s in stats)
        double = 0.0
        for s in stats:
            mask = s.conditional > 0
            double += float(
                np.sum(s.posterior[mask] * s.total * np.log2(s.conditional[mask] / s.total))
            )
        assert abs(by_outcome - double) < 1e-10
        # the library entry point performs the same check internally
        assert abs(mean_information(model, bloch) - by_outcome) < 1e-12


class TestEfficiency:
    def test_qnd_photon_value(self):
        assert abs(efficiency(I1_CLOSED["qpc"], 0.8) - 1.3933) < 1e-3

    def test_qnd_quantum_is_roughly_twice_qnd_photon(self):
        ratio = efficiency(I1_CLOSED["qqc"], 652 / 675) / efficiency(I1_CLOSED["qpc"], 0.8)
        assert 1.7 < ratio < 2.1

    def test_zero_information_gives_zero(self):
        assert efficiency(0.0, 0.5) == 0.0

    def test_unit_fidelity_rejected(self):
        with pytest.raises(FidelityOne):
            efficiency(0.1, 1.0)


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
            kind="vacuum",
            support_dim=1,
            states=np.eye(5)[:1],
            weights=np.ones(1),
            measure_kind="point",
        )
        model = resolve_model("pc", 0.3, 5)
        with pytest.raises(ZeroProbability, match="'1'"):
            information_gain(outcome_statistics(model, vacuum)[1])
        with pytest.raises(ZeroProbability):
            full_report("pc", 0.3, vacuum)
        for figure in (fidelity_after, reversibility):
            with pytest.raises(ZeroProbability):
                figure(model, vacuum, "0")
        for figure in (mean_information, mean_fidelity, mean_reversibility):
            with pytest.raises(ZeroProbability):
                figure(model, vacuum)

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
