import numpy as np
import pytest

from photocount import (
    Ensemble,
    bloch_two_state_ensemble,
    expectation,
    fidelity_after,
    haar_ensemble,
    resolve_model,
)
from photocount.metrics import moment_n1, moment_n3

LN2 = np.log(2.0)


@pytest.fixture(scope="module")
def bloch64():
    return bloch_two_state_ensemble(64, 5)


class TestBlochEnsemble:
    def test_weights_normalized_and_positive(self, bloch64):
        assert abs(bloch64.weights.sum() - 1.0) < 1e-12
        assert np.all(bloch64.weights > 0)

    def test_mean_photon_number_is_half(self, bloch64):
        assert abs(expectation(bloch64, moment_n1) - 0.5) < 1e-10

    def test_mean_shifted_moment_is_five_halves(self, bloch64):
        assert abs(expectation(bloch64, moment_n3) - 2.5) < 1e-10

    def test_constant_integrand(self, bloch64):
        assert abs(expectation(bloch64, lambda s: 3.25) - 3.25) < 1e-12

    def test_entropy_moment_closed_form(self, bloch64):
        def integrand(state):
            n1 = moment_n1(state)
            return n1 * np.log2(n1) if n1 > 0 else 0.0

        assert abs(expectation(bloch64, integrand) - (-1.0 / (4.0 * LN2))) < 1e-10

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
            kind=bloch64.kind,
            support_dim=2,
            states=states,
            weights=bloch64.weights,
            measure_kind="quadrature",
            thetas=bloch64.thetas,
        )
        model = resolve_model("pc", 0.3, 5)
        assert abs(
            fidelity_after(model, phased, "1") - fidelity_after(model, bloch64, "1")
        ) < 1e-12

    def test_preconditions(self):
        with pytest.raises(ValueError):
            bloch_two_state_ensemble(7, 5)
        with pytest.raises(ValueError):
            bloch_two_state_ensemble(16, 3)


class TestHaarEnsemble:
    def test_amplitude_moments_match_uniform_measure(self):
        # E|c_k|^2 = 1/d; compare within 4 Monte Carlo standard errors
        for d in (2, 3):
            ens = haar_ensemble(d, 20_000, 123, 6)
            probs = np.abs(ens.states[:, :d]) ** 2
            for k in range(d):
                se = float(np.std(probs[:, k], ddof=1) / np.sqrt(ens.n_samples))
                assert abs(float(probs[:, k].mean()) - 1.0 / d) < 4 * se

    def test_d2_matches_bloch_quadrature_moment(self):
        ens = haar_ensemble(2, 50_000, 7, 5)
        bloch = bloch_two_state_ensemble(64, 5)
        t_mc = np.abs(ens.states[:, 1]) ** 2
        se = float(np.std(t_mc, ddof=1) / np.sqrt(ens.n_samples))
        t_quad = float(np.sum(bloch.weights * np.abs(bloch.states[:, 1]) ** 2))
        assert abs(float(t_mc.mean()) - t_quad) < 3 * se

    def test_weights_sum_to_one(self):
        ens = haar_ensemble(3, 10_000, 0, 5)
        assert abs(ens.weights.sum() - 1.0) < 1e-12

    def test_deterministic_for_a_seed(self):
        a = haar_ensemble(3, 10_000, 9, 5)
        b = haar_ensemble(3, 10_000, 9, 5)
        assert np.array_equal(a.states, b.states)
        c = haar_ensemble(3, 10_000, 10, 5)
        assert not np.array_equal(a.states, c.states)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            haar_ensemble(1, 10_000, 0, 5)
        with pytest.raises(ValueError):
            haar_ensemble(4, 10_000, 0, 5)  # needs dim >= d + 2
        with pytest.raises(ValueError):
            haar_ensemble(2, 5_000, 0, 5)


class TestExpectationAndSupport:
    def test_non_finite_integrand_rejected(self, bloch64):
        with pytest.raises(ValueError):
            expectation(bloch64, lambda s: float("inf"))

    @pytest.mark.parametrize("support_dim", [0, 6])
    def test_support_dim_outside_truncation_rejected(self, support_dim):
        with pytest.raises(ValueError, match="support dimension"):
            Ensemble(
                kind="point",
                support_dim=support_dim,
                states=np.eye(5)[:1],
                weights=np.ones(1),
                measure_kind="point",
            )

    def test_amplitude_above_support_rejected(self):
        # |2> is outside span{|0>, |1>}; a 1e-300 amplitude counts too
        for row in (np.eye(5)[2], np.array([1.0, 0.0, 1e-300, 0.0, 0.0])):
            with pytest.raises(ValueError, match="above level 1"):
                Ensemble(
                    kind="point",
                    support_dim=2,
                    states=row[None, :],
                    weights=np.ones(1),
                    measure_kind="point",
                )
