import tracemalloc

import numpy as np
import numpy.random  # noqa: F401  (imported before any tracing)
import pytest
from oracles import outcome_stats

from photocount import (
    Ensemble,
    NonReversible,
    PhotocountError,
    ZeroProbability,
    bloch_two_state_ensemble,
    build_counter,
    build_reversing,
    evaluate,
    trajectory_sim,
    verify_recovery,
)


@pytest.fixture(scope="module")
def bloch():
    return bloch_two_state_ensemble(64, 5)


def one_count(kind, gamma=0.3, dim=5):
    return build_counter(kind, gamma, dim).operator_for("1")


def reversing(kind, gamma=0.3):
    """Reversing measurement of the one-count on the two-level support."""
    return build_reversing(build_counter(kind, gamma, 5), "1", 2)


def random_support_state(rng, dim=5):
    amps = np.zeros(dim, dtype=complex)
    raw = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    amps[:2] = raw / np.linalg.norm(raw)
    return amps


class TestBuildReversing:
    def test_emitting_counter_cap_and_success_probabilities(self, bloch):
        rev = reversing("qc")
        assert abs(rev.eta_sq - 0.09) < 1e-14
        # success probability 1/(n1 + 1) on the two-level family
        states = np.array([[1, 0, 0, 0, 0], [0, 1, 0, 0, 0], [1, 1, 0, 0, 0] / np.sqrt(2)])
        res = verify_recovery(states, rev)
        n1 = np.array([0.0, 1.0, 0.5])
        assert np.max(np.abs(res["success_prob"] - 1.0 / (n1 + 1.0))) < 1e-12
        assert np.min(res["recovery_fidelity"]) > 1 - 1e-10

    @pytest.mark.parametrize("gamma", [0.3, 1e-8])
    def test_absorbing_counters_are_not_reversible(self, bloch, gamma):
        with pytest.raises(NonReversible):
            reversing("pc", gamma)
        with pytest.raises(NonReversible):
            reversing("qpc", gamma)

    @pytest.mark.parametrize("kind", ["qc", "qqc"])
    def test_small_coupling_cap_is_gamma_squared(self, bloch, kind):
        # the background gamma^2 = 1e-16 is small but bounded away from zero
        # relative to the largest effect on the support (2 and 4 gamma^2)
        gamma = 1e-8
        rev = reversing(kind, gamma)
        assert abs(rev.eta_sq - gamma**2) <= 1e-12 * gamma**2
        res = verify_recovery(np.eye(5)[1:2], rev)
        assert res["recovery_fidelity"][0] > 1 - 1e-10

    def test_target_outcome_is_the_requested_outcome(self, bloch):
        # the double count of the joint counter is gamma^2 a a^dag, whose
        # background on two levels is gamma^4
        model = build_counter("joint", 0.3, 5)
        rev = build_reversing(model, "11", bloch.support_dim)
        assert rev.target_outcome == "11"
        assert rev.target_op.tobytes() == model.operator_for("11").tobytes()
        assert abs(rev.eta_sq - 0.3**4) < 1e-15
        res = verify_recovery(np.eye(5)[:2], rev)
        assert np.max(np.abs(res["success_prob"] - [1.0, 0.25])) < 1e-12
        assert np.min(res["recovery_fidelity"]) > 1 - 1e-10

    def test_effect_above_one_is_refused_before_the_background(self):
        # gamma^2 (n+1)^2 of qqc is 2.25 on |2> at gamma = 0.5; without the
        # support check the background 0.25 on |0> came back as eta_sq
        model = build_counter("qqc", 0.5, 5)
        with pytest.raises(ValueError, match=r"'1' is 2\.25 > 1 on level 2"):
            build_reversing(model, "1", 3)
        assert build_reversing(model, "1", 2).eta_sq == 0.25

    @pytest.mark.parametrize("kind", ["qc", "qqc"])
    def test_success_fail_pair_is_complete(self, bloch, kind):
        rev = reversing(kind)
        total = rev.success_op.conj().T @ rev.success_op + rev.fail_op.conj().T @ rev.fail_op
        assert np.linalg.norm(total - np.eye(5), 2) < 1e-10

    def test_compares_and_hashes_by_identity(self):
        # Field-wise equality compared arrays, which raised ValueError, and
        # a frozen dataclass with eq hashed its arrays, which raised TypeError.
        a, b = reversing("qc"), reversing("qc")
        assert a == a and a != b
        assert len({a, b, a}) == 2

    def test_arrays_are_read_only(self):
        # An assignment into success_op changed what verify_recovery
        # returned afterwards.
        rev = reversing("qc")
        before = verify_recovery(np.eye(5)[:2], rev)["success_prob"]
        for name in ("target_op", "success_op", "fail_op"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(rev, name)[0, 0] = 99
        assert verify_recovery(np.eye(5)[:2], rev)["success_prob"].tobytes() == before.tobytes()


class TestVerifyRecovery:
    @pytest.mark.parametrize("kind", ["qc", "qqc"])
    def test_probability_identity_on_random_states(self, bloch, kind):
        rng = np.random.default_rng(29)
        op = one_count(kind)
        rev = reversing(kind)
        states = np.array([random_support_state(rng) for _ in range(1000)])
        p = np.linalg.norm(states @ op.T, axis=1) ** 2
        res = verify_recovery(states, rev)
        assert np.max(np.abs(res["success_prob"] * p - rev.eta_sq)) < 1e-12
        assert np.min(res["recovery_fidelity"]) > 1 - 1e-10

    def test_qnd_quantum_on_vacuum_always_succeeds(self, bloch):
        rev = reversing("qqc")
        res = verify_recovery(np.eye(5)[:1], rev)
        assert abs(res["success_prob"][0] - 1.0) < 1e-12

    def test_impossible_outcome_raises(self, bloch):
        # the truncated gamma * a^dag annihilates |4> of dim 5, so the qc
        # one-count cannot occur there
        rev = reversing("qc")
        with pytest.raises(ZeroProbability):
            verify_recovery(np.eye(5)[4:], rev)

    def test_posterior_average_matches_reversibility(self, bloch):
        model = build_counter("qc", 0.3, 5)
        rev = build_reversing(model, "1", bloch.support_dim)
        stats = outcome_stats(model, bloch)[1]
        success = verify_recovery(bloch.states, rev)["success_prob"]
        averaged = float(np.sum(stats.posterior * success))
        assert abs(averaged - 2 / 3) < 1e-12
        assert abs(averaged - evaluate(model, bloch).per_outcome["1"].reversibility) < 1e-12

    def test_successful_reversal_erases_the_information(self, bloch):
        # p(a | one-count, success) = p(1|a) * (eta^2/p(1|a)) * w_a / norm = w_a
        model = build_counter("qqc", 0.3, 5)
        rev = build_reversing(model, "1", bloch.support_dim)
        stats = outcome_stats(model, bloch)[1]
        success = verify_recovery(bloch.states, rev)["success_prob"]
        joint = bloch.weights * stats.conditional * success
        posterior = joint / joint.sum()
        assert np.max(np.abs(posterior - bloch.weights)) < 1e-10


class TestTrajectorySim:
    def test_deterministic_for_a_seed(self, bloch):
        model = build_counter("qc", 0.3, 5)
        a = trajectory_sim(model, bloch, trials=10_000, seed=5)
        b = trajectory_sim(model, bloch, trials=10_000, seed=5)
        assert a == b

    @pytest.mark.parametrize(
        "kind,target", [("qc", 2 / 3), ("qqc", 2 / 5)]
    )
    def test_conditional_success_rate_converges(self, bloch, kind, target):
        stats = trajectory_sim(build_counter(kind, 0.3, 5), bloch, trials=200_000, seed=42)
        sigma = np.sqrt(target * (1 - target) / stats.one_counts)
        assert abs(stats.empirical_success_rate - target) < 4 * sigma
        assert stats.mean_recovery_fidelity > 1 - 1e-10
        assert stats.successes <= stats.one_counts <= stats.trials

    def test_irreversible_kinds_rejected(self, bloch):
        # build_reversing refuses the zero background of either absorbing
        # one-count
        for kind in ("pc", "qpc"):
            with pytest.raises(NonReversible):
                trajectory_sim(build_counter(kind, 0.3, 5), bloch, trials=10_000, seed=1)

    def test_trial_floor_enforced(self, bloch):
        with pytest.raises(ValueError, match=r"^at least 10\^4 trials are required$"):
            trajectory_sim(build_counter("qc", 0.3, 5), bloch, trials=100, seed=1)

    @pytest.mark.parametrize("trials", [2**63, 10**20])
    def test_trial_count_past_int64_refused_by_count(self, bloch, trials):
        # Generator.multinomial raised OverflowError on a count past a C long.
        with pytest.raises(ValueError, match=rf"^trials = {trials} is above 2\^63 - 1$"):
            trajectory_sim(build_counter("qc", 0.3, 5), bloch, trials=trials, seed=1)

    def test_largest_int64_trial_count_runs(self, bloch):
        stats = trajectory_sim(build_counter("qc", 0.3, 5), bloch, trials=2**63 - 1, seed=1)
        assert stats.successes <= stats.one_counts <= stats.trials == 2**63 - 1

    def test_model_without_a_one_count_refused(self, bloch):
        # The joint counter's outcomes are 00, 01, 10 and 11; without this
        # check effect_for("1") raised KeyError.
        with pytest.raises(NonReversible, match=(
            "^counter 'joint' has no one-count outcome '1' to reverse;"
            " its outcomes are 00, 01, 10, 11$"
        )):
            trajectory_sim(build_counter("joint", 0.3, 5), bloch, trials=10_000, seed=1)

    def test_run_without_a_one_count_refused(self, bloch):
        # p(1) ~ 1e-8 draws no one-count in 10^4 trials, so the success rate
        # was NaN.
        with pytest.raises(PhotocountError, match="^no one-count in 10000 trials$"):
            trajectory_sim(build_counter("qc", 1e-4, 5), bloch, trials=10_000, seed=42)

    def test_run_without_a_success_refused(self, bloch):
        # Seed 4 draws a single one-count, and its reversal fails, so the
        # mean recovery fidelity was NaN.
        with pytest.raises(PhotocountError, match="^no successful reversal in 1 one-counts$"):
            trajectory_sim(build_counter("qc", 0.005, 5), bloch, trials=10_000, seed=4)

    def test_fractional_trial_count_refused(self, bloch):
        # The count-level draw would otherwise run 10^4 trials and report
        # 10000.5 of them.
        with pytest.raises(TypeError):
            trajectory_sim(build_counter("qc", 0.3, 5), bloch, trials=10_000.5, seed=1)
        stats = trajectory_sim(build_counter("qc", 0.3, 5), bloch, trials=np.int64(10_000), seed=1)
        assert stats == trajectory_sim(build_counter("qc", 0.3, 5), bloch, trials=10_000, seed=1)

    def test_negative_seed_rejected_by_name(self, bloch):
        # numpy's own refusal, "expected non-negative integer", names nothing
        with pytest.raises(ValueError, match="^seed = -1 is negative$"):
            trajectory_sim(build_counter("qc", 0.3, 5), bloch, trials=10_000, seed=-1)

    def test_dimension_mismatch_rejected(self, bloch):
        with pytest.raises(ValueError, match="dimensions differ"):
            trajectory_sim(build_counter("qc", 0.3, 6), bloch, trials=10_000, seed=1)

    def test_effect_above_one_rejected(self, bloch):
        # gamma^2 (n+1)^2 of qqc is 2.25 on |2> at gamma = 0.5, exactly 1 on |1>
        ens = Ensemble(support_dim=3, states=np.eye(5)[:3], weights=np.full(3, 1 / 3))
        model = build_counter("qqc", 0.5, 5)
        with pytest.raises(ValueError, match=r"'1' is 2\.25 > 1 on level 2"):
            trajectory_sim(model, ens, trials=10_000, seed=1)
        trajectory_sim(model, bloch, trials=10_000, seed=1)

    def test_one_count_probability_rounded_above_one_is_certain(self):
        # qqc at gamma = 0.5 has effect exactly 1 on |1>; this row's
        # populations sum to 1 + 2^-50, and p(1) = 2^-52 + 1 rounds to
        # 1 + 2^-52.  Generator.binomial refuses a p above 1.
        ens = Ensemble(support_dim=2, states=np.array([[2**-25, 1, 0, 0, 0]]),
                       weights=np.array([1.0]))
        model = build_counter("qqc", 0.5, 5)
        assert (ens.populations @ model.effect_for("1")[:2])[0] > 1.0
        stats = trajectory_sim(model, ens, trials=10_000, seed=1)
        assert stats.one_counts == stats.trials

    @pytest.mark.parametrize("kind,target", [("qc", 2 / 3), ("qqc", 2 / 5)])
    def test_trial_count_past_any_per_trial_loop(self, bloch, kind, target):
        # 10^12 trials: the draw is per node, so this returns as fast as
        # 10^4 do; a per-trial loop would not return at all.
        stats = trajectory_sim(build_counter(kind, 0.3, 5), bloch, trials=10**12, seed=42)
        assert stats.successes <= stats.one_counts <= stats.trials == 10**12
        sigma = np.sqrt(target * (1 - target) / stats.one_counts)
        assert abs(stats.empirical_success_rate - target) < 4 * sigma

    def test_memory_stays_node_sized(self, bloch):
        # A memory bound, not a timing bound: the trials are drawn as
        # per-node counts, so no array has one entry per trial.  With
        # numpy.random already imported (its import alone peaks at 1.04
        # MB), a call peaks at 25.6 KB; one byte per trial would be 4 MB
        # here.
        tracemalloc.start()
        try:
            trajectory_sim(build_counter("qc", 0.3, 5), bloch, trials=4_000_000, seed=42)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_memory_does_not_grow_with_the_trial_count(self, bloch):
        # Visits, one-counts and successes are counted per node, so nothing
        # grows with the trials: 25.6 KB at 10^5, 4 x 10^6 and 10^12
        # trials.  Keeping every success fidelity peaked at 5.87 MB at 4e6
        # trials against 0.73 MB at 1e5.
        peaks = []
        for trials in (100_000, 4_000_000, 10**12):
            tracemalloc.start()
            try:
                trajectory_sim(build_counter("qc", 0.3, 5), bloch, trials=trials, seed=42)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert max(peaks) <= 1.5 * peaks[0]

