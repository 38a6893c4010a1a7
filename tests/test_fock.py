import numpy as np
import pytest

from photocount import (
    Operator,
    StateVector,
    ladder,
    matrix_exponential,
    min_eigenvalue,
    polar_decompose,
)
from photocount.counters import probe_hamiltonian, CounterKind


def brute_force_creation(dim):
    # independent construction: explicit matrix elements <n+1|adag|n> = sqrt(n+1)
    mat = np.zeros((dim, dim), dtype=complex)
    for n in range(dim - 1):
        mat[n + 1, n] = np.sqrt(n + 1)
    return mat


class TestLadder:
    def test_annihilation_on_one_photon(self):
        a = ladder("annihilation", 3)
        image = a.apply(StateVector.basis(3, 1))
        assert abs(image[0] - 1.0) < 1e-15
        assert np.allclose(image[1:], 0.0)

    def test_number_diagonal(self):
        n = ladder("number", 4)
        assert np.allclose(np.diag(n.entries), [0, 1, 2, 3])

    def test_creation_matches_brute_force(self):
        adag = ladder("creation", 4)
        assert np.max(np.abs(adag.entries - brute_force_creation(4))) < 1e-15
        image = adag.apply(StateVector.basis(4, 1))
        assert abs(image[2] - np.sqrt(2)) < 1e-15

    def test_antinormal_is_number_plus_identity_everywhere(self):
        # definition-level form: diag(1..dim), including the top level where
        # the truncated product a @ adag would give 0
        anti = ladder("antinormal_number", 5)
        assert np.allclose(np.diag(anti.entries), [1, 2, 3, 4, 5])

    def test_rejects_zero_dim_and_unknown_kind(self):
        with pytest.raises(ValueError):
            ladder("annihilation", 0)
        with pytest.raises(ValueError):
            ladder("raising", 4)


class TestOperatorAlgebra:
    def test_adjoint_involution_and_product_rule(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            a = Operator(rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5)))
            b = Operator(rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5)))
            assert np.max(np.abs(a.adjoint().adjoint().entries - a.entries)) < 1e-12
            lhs = (a @ b).adjoint().entries
            rhs = (b.adjoint() @ a.adjoint()).entries
            assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Operator(np.eye(3)) @ Operator(np.eye(4))


class TestMinEigenvalue:
    def test_absorbing_one_count_has_zero_floor(self):
        op = 0.3 * ladder("annihilation", 5)
        assert abs(min_eigenvalue(op.adjoint() @ op, 2)) < 1e-14

    def test_emitting_one_count_floor_is_gamma_squared(self):
        op = 0.3 * ladder("creation", 5)
        assert abs(min_eigenvalue(op.adjoint() @ op, 2) - 0.09) < 1e-14

    def test_identity_floor_is_one(self):
        assert abs(min_eigenvalue(Operator.identity(4), 2) - 1.0) < 1e-14

    def test_lower_bounds_expectation_on_random_states(self):
        rng = np.random.default_rng(11)
        op = ladder("number", 6)
        floor = min_eigenvalue(op, 2)
        for _ in range(1000):
            amps = np.zeros(6, dtype=complex)
            raw = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            amps[:2] = raw / np.linalg.norm(raw)
            expect = float(np.real(np.vdot(amps, op.entries @ amps)))
            assert floor <= expect + 1e-12

    def test_rejects_zero_rank_support_and_non_hermitian(self):
        with pytest.raises(ValueError):
            min_eigenvalue(Operator.identity(4), 0)
        with pytest.raises(ValueError):
            min_eigenvalue(Operator.identity(4), 5)
        with pytest.raises(ValueError):
            min_eigenvalue(ladder("annihilation", 4), 2)


class TestPolarDecompose:
    def test_number_operator_has_identity_unitary_on_support(self):
        factors = polar_decompose(0.3 * ladder("number", 5))
        delta = factors.unitary.entries - np.eye(5)
        supp = np.diag([0.0, 1, 1, 1, 1])  # positive part vanishes on |0>
        assert np.max(np.abs(delta @ supp)) < 1e-12

    def test_creation_factors_into_shift_and_sqrt(self):
        gamma, dim = 0.3, 4
        factors = polar_decompose(gamma * ladder("creation", dim))
        # positive part: gamma * sqrt of the truncated product a adag
        expected = gamma * np.diag(np.sqrt([1.0, 2.0, 3.0, 0.0]))
        assert np.max(np.abs(factors.positive.entries - expected)) < 1e-12
        for n in range(dim - 1):
            col = factors.unitary.entries[:, n]
            assert abs(col[n + 1] - 1.0) < 1e-12

    def test_identity_decomposes_trivially(self):
        factors = polar_decompose(Operator.identity(4))
        assert np.max(np.abs(factors.unitary.entries - np.eye(4))) < 1e-12
        assert np.max(np.abs(factors.positive.entries - np.eye(4))) < 1e-12

    def test_recomposition_and_unitarity_on_random_operators(self):
        rng = np.random.default_rng(3)
        for k in range(20):
            mat = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
            if k % 3 == 0:
                mat[:, 0] = 0.0  # exercise the singular completion
            op = Operator(mat)
            factors = polar_decompose(op)
            recomposed = factors.unitary.entries @ factors.positive.entries
            assert np.linalg.norm(op.entries - recomposed, 2) < 1e-10
            gram = factors.unitary.entries @ factors.unitary.adjoint().entries
            assert np.linalg.norm(gram - np.eye(5), 2) < 1e-10
            eigvals = np.linalg.eigvalsh(factors.positive.entries)
            assert eigvals.min() > -1e-12


def series_exponential(mat, scale, terms=60):
    # brute-force Taylor summation, independent of the production path
    out = np.eye(mat.shape[0], dtype=complex)
    term = np.eye(mat.shape[0], dtype=complex)
    for k in range(1, terms):
        term = term @ (scale * mat) / k
        out = out + term
    return out


class TestMatrixExponential:
    def test_zero_scale_gives_identity(self):
        out = matrix_exponential(ladder("number", 4), 0.0)
        assert np.max(np.abs(out.entries - np.eye(4))) < 1e-15

    def test_two_level_rotation(self):
        theta = 0.7
        sigma_x = Operator(np.array([[0, 1], [1, 0]], dtype=complex))
        out = matrix_exponential(sigma_x, -1j * theta)
        expected = np.cos(theta) * np.eye(2) - 1j * np.sin(theta) * sigma_x.entries
        assert np.max(np.abs(out.entries - expected)) < 1e-14

    def test_exchange_coupling_block_against_series(self):
        gamma = 0.3
        h = probe_hamiltonian(CounterKind.PC, 4)
        out = matrix_exponential(h, -1j * gamma)
        oracle = series_exponential(h.entries, -1j * gamma)
        assert np.max(np.abs(out.entries - oracle)) < 1e-13
        # |1, g> (index 2) <-> |0, e> (index 1): off-diagonal magnitude sin(gamma)
        assert abs(abs(out.entries[1, 2]) - np.sin(gamma)) < 1e-13

    def test_inverse_property(self):
        rng = np.random.default_rng(5)
        mat = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        op = Operator(mat)
        prod = matrix_exponential(op, 0.4) @ matrix_exponential(op, -0.4)
        assert np.linalg.norm(prod.entries - np.eye(6), 2) < 1e-10
