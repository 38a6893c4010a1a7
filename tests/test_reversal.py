import numpy as np
import pytest

from photocount import (
    CounterKind,
    NonReversible,
    StateVector,
    bloch_two_state_ensemble,
    build_counter,
    build_reversing,
    outcome_statistics,
    reversibility,
    trajectory_sim,
    verify_recovery,
)


@pytest.fixture(scope="module")
def bloch():
    return bloch_two_state_ensemble(64, 5)


def one_count(kind, gamma=0.3, dim=5):
    return build_counter(kind, gamma, dim).operator_for("1")


def random_support_state(rng, dim=5):
    amps = np.zeros(dim, dtype=complex)
    raw = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    amps[:2] = raw / np.linalg.norm(raw)
    return StateVector(amps)


class TestBuildReversing:
    def test_emitting_counter_cap_and_success_probabilities(self, bloch):
        op = one_count(CounterKind.QC)
        rev = build_reversing(op, bloch.support_dim, eta_fraction=1.0)
        assert abs(rev.eta_sq - 0.09) < 1e-14
        # success probability 1/(n1 + 1) on the two-level family
        for state, n1 in [
            (StateVector.basis(5, 0), 0.0),
            (StateVector.basis(5, 1), 1.0),
            (StateVector(np.array([1, 1, 0, 0, 0]) / np.sqrt(2)), 0.5),
        ]:
            res = verify_recovery(state, op, rev)
            assert abs(res["success_prob"] - 1.0 / (n1 + 1.0)) < 1e-12
            assert res["recovery_fidelity"] > 1 - 1e-10

    def test_absorbing_counters_are_not_reversible(self, bloch):
        with pytest.raises(NonReversible):
            build_reversing(one_count(CounterKind.PC), bloch.support_dim)
        with pytest.raises(NonReversible):
            build_reversing(one_count(CounterKind.QPC), bloch.support_dim)

    def test_partial_amplitude_halves_success(self, bloch):
        op = one_count(CounterKind.QC)
        full = build_reversing(op, bloch.support_dim, eta_fraction=1.0)
        half = build_reversing(op, bloch.support_dim, eta_fraction=0.5)
        state = StateVector(np.array([1, 1, 0, 0, 0]) / np.sqrt(2))
        a = verify_recovery(state, op, full)["success_prob"]
        b = verify_recovery(state, op, half)["success_prob"]
        assert abs(b - a / 2) < 1e-12

    def test_eta_fraction_range(self, bloch):
        op = one_count(CounterKind.QC)
        with pytest.raises(ValueError):
            build_reversing(op, bloch.support_dim, eta_fraction=0.0)

    @pytest.mark.parametrize("kind", [CounterKind.QC, CounterKind.QQC])
    def test_success_fail_pair_is_complete(self, bloch, kind):
        rev = build_reversing(one_count(kind), bloch.support_dim)
        total = (
            rev.success_op.adjoint() @ rev.success_op
            + rev.fail_op.adjoint() @ rev.fail_op
        )
        assert np.linalg.norm(total.entries - np.eye(5), 2) < 1e-10


class TestVerifyRecovery:
    @pytest.mark.parametrize("kind", [CounterKind.QC, CounterKind.QQC])
    def test_probability_identity_on_random_states(self, bloch, kind):
        rng = np.random.default_rng(29)
        op = one_count(kind)
        rev = build_reversing(op, bloch.support_dim)
        for _ in range(1000):
            state = random_support_state(rng)
            p = float(np.linalg.norm(op.apply(state)) ** 2)
            res = verify_recovery(state, op, rev)
            assert abs(res["success_prob"] * p - rev.eta_sq) < 1e-12
            assert res["recovery_fidelity"] > 1 - 1e-10

    def test_qnd_quantum_on_vacuum_always_succeeds(self, bloch):
        op = one_count(CounterKind.QQC)
        rev = build_reversing(op, bloch.support_dim)
        res = verify_recovery(StateVector.basis(5, 0), op, rev)
        assert abs(res["success_prob"] - 1.0) < 1e-12

    def test_posterior_average_matches_reversibility(self, bloch):
        model = build_counter(CounterKind.QC, 0.3, 5)
        op = model.operator_for("1")
        rev = build_reversing(op, bloch.support_dim)
        stats = outcome_statistics(model, bloch)[1]
        success = np.array(
            [
                verify_recovery(StateVector(s), op, rev)["success_prob"]
                for s in bloch.states
            ]
        )
        averaged = float(np.sum(stats.posterior * success))
        assert abs(averaged - 2 / 3) < 1e-12
        assert abs(averaged - reversibility(model, bloch, "1")) < 1e-12

    def test_successful_reversal_erases_the_information(self, bloch):
        # p(a | one-count, success) = p(1|a) * (eta^2/p(1|a)) * w_a / norm = w_a
        model = build_counter(CounterKind.QQC, 0.3, 5)
        op = model.operator_for("1")
        rev = build_reversing(op, bloch.support_dim)
        stats = outcome_statistics(model, bloch)[1]
        success = np.array(
            [
                verify_recovery(StateVector(s), op, rev)["success_prob"]
                for s in bloch.states
            ]
        )
        joint = bloch.weights * stats.conditional * success
        posterior = joint / joint.sum()
        assert np.max(np.abs(posterior - bloch.weights)) < 1e-10


class TestTrajectorySim:
    def test_deterministic_for_a_seed(self, bloch):
        a = trajectory_sim(CounterKind.QC, 0.3, bloch, trials=10_000, seed=5)
        b = trajectory_sim(CounterKind.QC, 0.3, bloch, trials=10_000, seed=5)
        assert a == b

    @pytest.mark.parametrize(
        "kind,target", [(CounterKind.QC, 2 / 3), (CounterKind.QQC, 2 / 5)]
    )
    def test_conditional_success_rate_converges(self, bloch, kind, target):
        stats = trajectory_sim(kind, 0.3, bloch, trials=200_000, seed=42)
        sigma = np.sqrt(target * (1 - target) / stats.one_counts)
        assert abs(stats.empirical_success_rate - target) < 4 * sigma
        assert stats.mean_recovery_fidelity > 1 - 1e-10
        assert stats.successes <= stats.one_counts <= stats.trials

    def test_irreversible_kinds_rejected(self, bloch):
        with pytest.raises(NonReversible):
            trajectory_sim(CounterKind.PC, 0.3, bloch, trials=10_000, seed=1)

    def test_trial_floor_enforced(self, bloch):
        with pytest.raises(ValueError):
            trajectory_sim(CounterKind.QC, 0.3, bloch, trials=100, seed=1)
