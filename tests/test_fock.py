import numpy as np
import pytest
import scipy.linalg
from oracles import ladder, min_effect_eigenvalue, polar_factors, probe_hamiltonian


def brute_force_creation(dim):
    # independent construction: explicit matrix elements <n+1|adag|n> = sqrt(n+1)
    mat = np.zeros((dim, dim), dtype=complex)
    for n in range(dim - 1):
        mat[n + 1, n] = np.sqrt(n + 1)
    return mat


class TestLadder:
    def test_annihilation_on_one_photon(self):
        a = ladder("annihilation", 3)
        image = a @ np.eye(3)[1]
        assert abs(image[0] - 1.0) < 1e-15
        assert np.allclose(image[1:], 0.0)

    def test_number_diagonal(self):
        n = ladder("number", 4)
        assert np.allclose(np.diag(n), [0, 1, 2, 3])

    def test_creation_matches_brute_force(self):
        adag = ladder("annihilation", 4).T
        assert np.max(np.abs(adag - brute_force_creation(4))) < 1e-15
        image = adag @ np.eye(4)[1]
        assert abs(image[2] - np.sqrt(2)) < 1e-15

    def test_antinormal_is_number_plus_identity_everywhere(self):
        # definition-level form: diag(1..dim), including the top level where
        # the truncated product a @ adag would give 0
        anti = ladder("antinormal_number", 5)
        assert np.allclose(np.diag(anti), [1, 2, 3, 4, 5])

    def test_rejects_zero_dim_and_unknown_kind(self):
        with pytest.raises(ValueError):
            ladder("annihilation", 0)
        with pytest.raises(ValueError):
            ladder("raising", 4)
        with pytest.raises(ValueError):
            ladder("creation", 4)


class TestMinEigenvalue:
    # The dense smallest eigenvalue of M^dag M is the reference for the
    # backgrounds and reversing caps in test_properties; these pin it on
    # known operators.
    def test_absorbing_one_count_has_zero_floor(self):
        op = 0.3 * ladder("annihilation", 5)
        assert abs(min_effect_eigenvalue(op, 2)) < 1e-14

    def test_emitting_one_count_floor_is_gamma_squared(self):
        op = 0.3 * ladder("annihilation", 5).T
        assert abs(min_effect_eigenvalue(op, 2) - 0.09) < 1e-14

    def test_identity_floor_is_one(self):
        assert abs(min_effect_eigenvalue(np.eye(4), 2) - 1.0) < 1e-14

    def test_lower_bounds_expectation_on_random_states(self):
        rng = np.random.default_rng(11)
        op = ladder("number", 6)
        effect = op.conj().T @ op
        floor = min_effect_eigenvalue(op, 2)
        for _ in range(1000):
            amps = np.zeros(6, dtype=complex)
            raw = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            amps[:2] = raw / np.linalg.norm(raw)
            expect = float(np.real(np.vdot(amps, effect @ amps)))
            assert floor <= expect + 1e-12


class TestPolarFactorsOracle:
    # The SVD polar factors are the reference for unitary_part_deviation in
    # test_properties; these pin them on known factorizations.
    def test_number_operator_has_identity_unitary_on_support(self):
        unitary, _ = polar_factors(0.3 * ladder("number", 5))
        delta = unitary - np.eye(5)
        supp = np.diag([0.0, 1, 1, 1, 1])  # positive part vanishes on |0>
        assert np.max(np.abs(delta @ supp)) < 1e-12

    def test_creation_factors_into_shift_and_sqrt(self):
        gamma, dim = 0.3, 4
        unitary, positive = polar_factors(gamma * ladder("annihilation", dim).T)
        # positive part: gamma * sqrt of the truncated product a adag
        expected = gamma * np.diag(np.sqrt([1.0, 2.0, 3.0, 0.0]))
        assert np.max(np.abs(positive - expected)) < 1e-12
        for n in range(dim - 1):
            col = unitary[:, n]
            assert abs(col[n + 1] - 1.0) < 1e-12

    def test_identity_decomposes_trivially(self):
        unitary, positive = polar_factors(np.eye(4))
        assert np.max(np.abs(unitary - np.eye(4))) < 1e-12
        assert np.max(np.abs(positive - np.eye(4))) < 1e-12

    def test_recomposition_and_unitarity_on_random_operators(self):
        rng = np.random.default_rng(3)
        for k in range(20):
            mat = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
            if k % 3 == 0:
                mat[:, 0] = 0.0  # exercise the singular completion
            unitary, positive = polar_factors(mat)
            assert np.linalg.norm(mat - unitary @ positive, 2) < 1e-10
            gram = unitary @ unitary.conj().T
            assert np.linalg.norm(gram - np.eye(5), 2) < 1e-10
            eigvals = np.linalg.eigvalsh(positive)
            assert eigvals.min() > -1e-12


def series_exponential(mat, scale, terms=60):
    # brute-force Taylor summation, independent of the production path
    out = np.eye(mat.shape[0], dtype=complex)
    term = np.eye(mat.shape[0], dtype=complex)
    for k in range(1, terms):
        term = term @ (scale * mat) / k
        out = out + term
    return out


class TestProbeHamiltonianOracle:
    # The expm blocks of the Kronecker coupling are the reference for
    # probe_model_operators in test_properties; these pin the coupling.
    @pytest.mark.parametrize("kind", ["pc", "qc", "qpc", "qqc"])
    def test_probe_hamiltonian_is_hermitian(self, kind):
        h = probe_hamiltonian(kind, 5)
        assert np.max(np.abs(h - h.conj().T)) <= 1e-12

    def test_exchange_coupling_block_against_series(self):
        gamma = 0.3
        h = probe_hamiltonian("pc", 4)
        out = scipy.linalg.expm(-1j * gamma * h)
        oracle = series_exponential(h, -1j * gamma)
        assert np.max(np.abs(out - oracle)) < 1e-13
        # |1, g> (index 2) <-> |0, e> (index 1): off-diagonal magnitude sin(gamma)
        assert abs(abs(out[1, 2]) - np.sin(gamma)) < 1e-13
