import tracemalloc

import numpy as np
import numpy.random  # noqa: F401  (imported before any tracing)
import pytest
from oracles import haar_states, streamed_gains

from photocount import (
    Ensemble,
    batched_information,
    bloch_two_state_ensemble,
    build_counter,
    evaluate,
)
from photocount.ensemble import BLOCK_ROWS, block_bounds, haar_blocks

LN2 = np.log(2.0)


def haar_rows(d, n_samples, seed):
    """The populations haar_blocks draws, as one array."""
    return np.concatenate(list(haar_blocks(d, n_samples, seed)))


def weighted_mean(ensemble, values):
    """Weighted average of one value per member state."""
    return float(np.sum(ensemble.weights * values))


def number_moment(ensemble, f):
    """Per-member mean of f(n) over the number levels of the support, read
    from the amplitudes."""
    levels = np.arange(ensemble.dim)
    return np.abs(ensemble.states) ** 2 @ f(levels)


@pytest.fixture(scope="module")
def bloch64():
    return bloch_two_state_ensemble(64, 5)


class TestBlochEnsemble:
    def test_weights_normalized_and_positive(self, bloch64):
        assert abs(bloch64.weights.sum() - 1.0) < 1e-12
        assert np.all(bloch64.weights > 0)

    def test_mean_photon_number_is_half(self, bloch64):
        n1 = number_moment(bloch64, lambda n: n)
        assert abs(weighted_mean(bloch64, n1) - 0.5) < 1e-10

    def test_mean_shifted_moment_is_five_halves(self, bloch64):
        n3 = number_moment(bloch64, lambda n: (n + 1) ** 2)
        assert abs(weighted_mean(bloch64, n3) - 2.5) < 1e-10

    def test_constant_integrand(self, bloch64):
        values = np.full(bloch64.n_samples, 3.25)
        assert abs(weighted_mean(bloch64, values) - 3.25) < 1e-12

    def test_entropy_moment_closed_form(self, bloch64):
        n1 = number_moment(bloch64, lambda n: n)
        safe = np.where(n1 > 0, n1, 1.0)
        values = np.where(n1 > 0, n1 * np.log2(safe), 0.0)
        assert abs(weighted_mean(bloch64, values) - (-1.0 / (4.0 * LN2))) < 1e-10

    def test_ensembles_compare_and_hash_by_identity(self):
        # The state arrays have no single truth value, so two equal builds
        # are different objects, not an error.
        a, b = bloch_two_state_ensemble(8, 5), bloch_two_state_ensemble(8, 5)
        assert (a == b) is False
        assert (a == a) is True
        assert len({a, b, a}) == 2

    def test_quadrature_converged_at_32_nodes(self):
        def value(nodes):
            ens = bloch_two_state_ensemble(nodes, 5)
            t = np.abs(ens.states[:, 1]) ** 2
            return float(np.sum(ens.weights * t * np.log2(t)))

        assert abs(value(32) - value(64)) < 1e-9

    def test_states_live_on_the_first_two_levels(self, bloch64):
        assert np.allclose(bloch64.states[:, 2:], 0.0)
        norms = np.linalg.norm(bloch64.states, axis=1)
        assert np.max(np.abs(norms - 1.0)) < 1e-12

    def test_azimuth_fixing_does_not_bias_statistics(self, bloch64):
        # re-dress each state with a random relative phase; every figure of
        # merit depends on theta only, so nothing may change
        rng = np.random.default_rng(21)
        states = bloch64.states.copy()
        states[:, 1] *= np.exp(1j * rng.uniform(0, 2 * np.pi, states.shape[0]))
        phased = Ensemble(
            support_dim=2,
            states=states,
            weights=bloch64.weights,
            thetas=bloch64.thetas,
        )
        model = build_counter("pc", 0.3, 5)
        fidelities = [
            evaluate(model, ens).per_outcome["1"].fidelity for ens in (phased, bloch64)
        ]
        assert abs(fidelities[0] - fidelities[1]) < 1e-12

    def test_preconditions(self):
        # The family needs its two levels; the truncation edge is the
        # model's check (support_effects).
        with pytest.raises(ValueError, match="^at least 8 quadrature nodes are required$"):
            bloch_two_state_ensemble(7, 5)
        with pytest.raises(ValueError, match="^truncation dimension must be at least 2$"):
            bloch_two_state_ensemble(16, 1)
        assert bloch_two_state_ensemble(16, 2).dim == 2


class TestHaarEnsemble:
    def test_amplitude_moments_match_uniform_measure(self):
        # E|c_k|^2 = 1/d; compare within 4 Monte Carlo standard errors
        for d in (2, 3):
            probs = haar_rows(d, 20_000, 123)
            for k in range(d):
                se = float(np.std(probs[:, k], ddof=1) / np.sqrt(probs.shape[0]))
                assert abs(float(probs[:, k].mean()) - 1.0 / d) < 4 * se

    def test_d2_matches_bloch_quadrature_moment(self):
        t_mc = haar_rows(2, 50_000, 7)[:, 1]
        bloch = bloch_two_state_ensemble(64, 5)
        se = float(np.std(t_mc, ddof=1) / np.sqrt(t_mc.size))
        t_quad = float(np.sum(bloch.weights * np.abs(bloch.states[:, 1]) ** 2))
        assert abs(float(t_mc.mean()) - t_quad) < 3 * se

    def test_weights_sum_to_one(self):
        # The streamed gains weigh the rows equally; with half of them on
        # |0>, where pc cannot click, a click gains exactly one bit only if
        # those weights sum to one
        populations = np.zeros((10_000, 2))
        populations[::2, 0] = 1.0
        populations[1::2, 1] = 1.0
        full, _ = streamed_gains(build_counter("pc", 0.3, 4), populations)
        assert abs(full - 1.0) < 1e-12

    def test_deterministic_for_a_seed(self):
        a = haar_rows(3, 10_000, 9)
        b = haar_rows(3, 10_000, 9)
        assert np.array_equal(a, b)
        c = haar_rows(3, 10_000, 10)
        assert not np.array_equal(a, c)

    @pytest.mark.parametrize("d,dim", [(2, 4), (3, 5), (4, 6)])
    def test_draw_order_is_real_parts_then_imaginary_parts(self, d, dim):
        # the same bytes as |c|^2 of the dense construction, which normalizes
        # x + 1j y with x and y drawn in that order; 65,537 and 200,003 rows
        # end in partial blocks of 1 and 3,395 rows
        for n in (10_000, 65_537, 200_003):
            populations = haar_rows(d, n, 17)
            assert populations.shape == (n, d)
            assert np.array_equal(populations, np.abs(haar_states(d, n, 17, dim)[:, :d]) ** 2)

    def test_preconditions(self):
        with pytest.raises(ValueError, match="^support dimension must be at least 2$"):
            haar_blocks(1, 10_000, 0)
        with pytest.raises(ValueError, match=r"^at least 10\^4 samples are required$"):
            haar_blocks(2, 5_000, 0)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_blocks_stream_the_populations(self, d):
        # 16,385 and 114,689 rows end in a block of one row
        for n in (10_000, 16_385, 114_689):
            blocks = list(haar_blocks(d, n, 17))
            assert [len(rows) for rows in blocks] == [b - a for a, b in block_bounds(n)]
            assert np.array_equal(np.concatenate(blocks), np.abs(haar_states(d, n, 17, d)) ** 2)

    @pytest.mark.parametrize("n", [2**63, 10**20])
    def test_sample_count_past_int64_refused_at_the_call(self, n):
        # streamed_information's int64 batch edges would wrap past it
        with pytest.raises(ValueError, match=rf"^n_samples = {n} is above 2\^63 - 1$"):
            haar_blocks(3, n, 0)

    def test_negative_seed_rejected_by_name(self):
        # numpy's own refusal, "expected non-negative integer", names nothing
        with pytest.raises(ValueError, match="^seed = -1 is negative$"):
            haar_blocks(3, 10_000, -1)

    def test_calling_haar_blocks_draws_nothing(self, monkeypatch):
        # The arguments are checked at the call, but no generator is made
        # and nothing is drawn (the imaginary stream's skip included) until
        # the first block is asked for; so a caller can refuse its own
        # inputs after the call and before the draw.
        made = []
        default_rng = np.random.default_rng

        def counted(seed):
            made.append(seed)
            return default_rng(seed)

        monkeypatch.setattr(np.random, "default_rng", counted)
        blocks = haar_blocks(3, 10**6, 42)
        assert made == []
        first = next(blocks)
        assert made == [42, 42]
        assert first.tobytes() == haar_rows(3, 10**6, 42)[:BLOCK_ROWS].tobytes()

    def test_draw_holds_one_block(self):
        # Drawing every block holds one block's temporaries (its complex
        # amplitudes, the real and imaginary draws, the norms and the
        # populations, and the block its caller still holds): 2.76 x the
        # 1 MiB of a block's complex amplitudes at d = 4, at 10^5 rows as at
        # 10^6.  A memory bound, not a timing bound.
        for n in (10**5, 10**6):
            tracemalloc.start()
            try:
                for _ in haar_blocks(4, n, 42):
                    pass
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 3 * 16 * 4 * BLOCK_ROWS

    def test_batched_information_holds_block_sized_temporaries(self):
        # The draw and the gains together hold one block: those of the draw
        # (above) and the conditionals and their c log2 c terms of one
        # block, 2.76 x the 1 MiB of a block's complex amplitudes measured
        # at d = 4 for one model and for two, at 10^5 rows as at 10^6.  One
        # float64 per sample, the least the stored-populations form held,
        # would be 8 MB at 10^6.  A memory bound, not a timing bound.
        models = [build_counter("pc", 0.3, 6), build_counter("qpc", 0.3, 6)]
        for n in (10**5, 10**6):
            tracemalloc.start()
            try:
                batched_information(models, 4, n, 42)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 3 * 16 * 4 * BLOCK_ROWS

    def test_streamed_gains_hold_block_sized_temporaries_on_zero_conditionals(self):
        # Zero conditionals add nothing to either sum and take no more
        # memory than positive ones: above the populations it is given, the
        # pass holds the conditionals and their c log2 c terms of one block
        # of BLOCK_ROWS rows (two float64 a row) and the batch sums, 2.20 x
        # 8 x BLOCK_ROWS measured at 10^6 rows.  Full-length weights,
        # posterior and terms arrays for them measured 5.13 x 8n.
        populations = haar_rows(4, 10**6, 42)
        populations[::1000] = 0.0
        model = build_counter("pc", 0.3, 6)
        tracemalloc.start()
        try:
            streamed_gains(model, populations)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * 8 * BLOCK_ROWS


class TestPopulations:
    def test_populations_are_squared_support_amplitudes(self, bloch64):
        # The Haar draw's populations are the oracle's bit for bit
        # (TestHaarEnsemble.test_draw_order_is_real_parts_then_imaginary_parts).
        populations, states = bloch64.populations, bloch64.states
        assert populations.shape == (states.shape[0], 2)
        assert np.max(np.abs(populations - np.abs(states[:, :2]) ** 2)) < 1e-15
        assert np.max(np.abs(populations.sum(axis=1) - 1.0)) < 1e-12
        assert not populations.flags.writeable

    def test_moments_from_populations_match_amplitudes(self, bloch64):
        levels = np.arange(bloch64.support_dim)
        from_populations = bloch64.populations @ levels
        n1 = number_moment(bloch64, lambda n: n)
        assert np.max(np.abs(from_populations - n1)) < 1e-15


class TestSupport:

    @pytest.mark.parametrize("support_dim", [0, 6])
    def test_support_dim_outside_truncation_rejected(self, support_dim):
        with pytest.raises(ValueError, match="support dimension"):
            Ensemble(
                support_dim=support_dim,
                states=np.eye(5)[:1],
                weights=np.ones(1),
            )

    def test_amplitude_above_support_rejected(self):
        # |2> is outside span{|0>, |1>}; a 1e-300 amplitude counts too
        for row in (np.eye(5)[2], np.array([1.0, 0.0, 1e-300, 0.0, 0.0])):
            with pytest.raises(ValueError, match="above level 1"):
                Ensemble(
                    support_dim=2,
                    states=row[None, :],
                    weights=np.ones(1),
                )

    @pytest.mark.parametrize("states,weights,message", [
        (np.eye(5)[:2], np.ones(1), "states and weights are inconsistent"),
        (np.eye(5)[0], np.ones(1), "states and weights are inconsistent"),
        (np.eye(5)[:2], np.array([1.5, -0.5]), "weights must be positive"),
        (np.eye(5)[:2], np.array([0.5, 0.6]), "weights must sum to one"),
        # A NaN weight fails every comparison, so each check is written to fail on it.
        (np.eye(5)[:1], np.array([np.nan]), "weights must be positive"),
        (np.eye(5)[[0, 1, 0]], np.array([0.5, np.nan, 0.5]), "weights must be positive"),
    ])
    def test_inconsistent_or_unnormalized_weights_rejected(self, states, weights, message):
        with pytest.raises(ValueError, match=message):
            Ensemble(support_dim=2, states=states, weights=weights)

    @pytest.mark.parametrize("support_dim,row", [
        (1, [2.0, 0.0, 0.0, 0.0, 0.0]),  # |c_0|^2 = 4
        (2, [0.6, np.nan, 0.0, 0.0, 0.0]),
        (2, [0.6, complex(0.0, np.inf), 0.0, 0.0, 0.0]),
    ])
    def test_unnormalized_or_non_finite_states_rejected(self, support_dim, row):
        # Each row's populations must sum to one within the weights' 1e-12;
        # a NaN or infinite amplitude fails that check.
        with pytest.raises(ValueError, match="states must have unit norm"):
            Ensemble(support_dim=support_dim, states=[row], weights=[1.0])


class TestImmutability:
    def test_caller_arrays_stay_writeable(self):
        states = np.zeros((2, 4), dtype=complex)
        states[0, 0] = states[1, 1] = 1.0
        weights = np.array([0.5, 0.5])
        ens = Ensemble(support_dim=2, states=states, weights=weights)
        assert states.flags.writeable and weights.flags.writeable
        for array in (ens.states, ens.weights, ens.populations):
            assert not array.flags.writeable
        states[0, 0] = 0.0
        weights[0] = 0.0
        assert ens.states[0, 0] == 1.0 and ens.weights[0] == 0.5

    def test_a_read_only_view_of_a_writeable_array_is_copied(self, bloch64):
        # Read-only views whose bases stay writeable: the ensemble copies
        # them, so writing the bases changes neither its arrays nor the
        # statistics read from them.
        states, weights = bloch64.states.copy(), bloch64.weights.copy()
        views = states[:], weights[:]
        for view in views:
            view.setflags(write=False)
        ens = Ensemble(support_dim=2, states=views[0], weights=views[1], thetas=bloch64.thetas)
        states[:, 0], states[:, 1] = states[:, 1].copy(), states[:, 0].copy()
        weights[::-1] = weights.copy()
        for name in ("states", "weights", "populations"):
            assert getattr(ens, name).tobytes() == getattr(bloch64, name).tobytes(), name
        model = build_counter("qc", 0.3, 5)
        assert evaluate(model, ens) == evaluate(model, bloch64)

    def test_constructed_ensembles_are_read_only(self, bloch64):
        for array in (bloch64.states, bloch64.weights, bloch64.populations, bloch64.thetas,
                      bloch64.amplitudes):
            assert not array.flags.writeable

    def test_amplitudes_are_a_level_major_copy_of_the_support(self, bloch64):
        amplitudes = bloch64.amplitudes
        assert amplitudes.flags.c_contiguous and amplitudes.flags.owndata
        assert not np.shares_memory(amplitudes, bloch64.states)
        assert amplitudes.tobytes() == bloch64.states[:, :2].T.tobytes()
        # One state: a (support, 1) slice of the states would already be
        # contiguous, and is copied all the same.
        single = Ensemble(support_dim=2, states=np.eye(4)[:1], weights=np.ones(1))
        assert single.amplitudes.flags.owndata and not single.amplitudes.flags.writeable
