import numpy as np
import pytest

from photocount import (
    CounterKind,
    Operator,
    StateVector,
    build_counter,
    completeness_residual,
    compose_models,
    ladder,
    probe_model_operators,
    proportionality_deviation,
    unitary_part_deviation,
)
from photocount.counters import probe_hamiltonian

ALL_KINDS = tuple(CounterKind)


class TestBuildCounter:
    def test_absorbing_one_count_annihilates(self):
        model = build_counter(CounterKind.PC, 0.3, 4)
        image = model.operator_for("1").apply(StateVector.basis(4, 1))
        assert abs(image[0] - 0.3) < 1e-15
        assert np.allclose(image[1:], 0.0)

    def test_qnd_quantum_one_count_diagonal(self):
        model = build_counter(CounterKind.QQC, 0.3, 4)
        diag = np.diag(model.operator_for("1").entries)
        assert abs(diag[0] - 0.3) < 1e-15
        assert abs(diag[1] - 0.6) < 1e-15

    def test_emitting_counter_fires_on_vacuum(self):
        model = build_counter(CounterKind.QC, 0.3, 4)
        op = model.operator_for("1")
        vacuum = StateVector.basis(4, 0)
        prob = float(np.linalg.norm(op.apply(vacuum)) ** 2)
        assert abs(prob - 0.09) < 1e-15

    def test_no_count_operators_are_quadratic_truncations(self):
        gamma, dim = 0.2, 5
        n = ladder("number", dim).entries
        anti = ladder("antinormal_number", dim).entries
        expected = {
            CounterKind.PC: np.eye(dim) - gamma**2 / 2 * n,
            CounterKind.QC: np.eye(dim) - gamma**2 / 2 * anti,
            CounterKind.QPC: np.eye(dim) - gamma**2 / 2 * (n @ n),
            CounterKind.QQC: np.eye(dim) - gamma**2 / 2 * (anti @ anti),
        }
        for kind, mat in expected.items():
            model = build_counter(kind, gamma, dim)
            assert np.max(np.abs(model.operator_for("0").entries - mat)) < 1e-15

    @pytest.mark.parametrize("gamma", [0.0, -0.1, 0.6])
    def test_gamma_range_enforced(self, gamma):
        with pytest.raises(ValueError):
            build_counter(CounterKind.PC, gamma, 5)

    def test_dim_floor_enforced(self):
        with pytest.raises(ValueError):
            build_counter(CounterKind.PC, 0.3, 3)


class TestCompletenessResidual:
    def test_absorbing_counter_residual_value(self):
        model = build_counter(CounterKind.PC, 0.3, 5)
        residual = completeness_residual(model, 2)
        assert abs(residual - 0.3**4 / 4) < 1e-15

    def test_qnd_photon_residual_value(self):
        model = build_counter(CounterKind.QPC, 0.1, 5)
        residual = completeness_residual(model, 2)
        assert abs(residual - 2.5e-5) < 1e-15

    @pytest.mark.parametrize("kind", [CounterKind.PC, CounterKind.QPC])
    def test_residual_scales_as_fourth_power(self, kind):
        r1 = completeness_residual(build_counter(kind, 0.1, 5), 2)
        r2 = completeness_residual(build_counter(kind, 0.2, 5), 2)
        assert abs(r2 / r1 - 16.0) < 0.16

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_residual_bounded_for_small_gamma(self, kind):
        for gamma in (0.05, 0.01):
            residual = completeness_residual(build_counter(kind, gamma, 6), 2)
            assert residual / gamma**4 < 5.0  # worst case (n+1)^4/4 = 4 on this support


class TestComposeModels:
    def test_double_count_implements_qnd_quantum(self):
        first = build_counter(CounterKind.QC, 0.3, 6)
        second = build_counter(CounterKind.PC, 0.3, 6)
        joint = compose_models(first, second)
        both = joint.operator_for("11")
        # gamma^2 * a adag as a truncated product
        a = ladder("annihilation", 6)
        expected = 0.09 * (a @ a.adjoint()).entries
        assert np.max(np.abs(both.entries - expected)) < 1e-15
        reference = build_counter(CounterKind.QQC, 0.3, 6).operator_for("1")
        dev = proportionality_deviation(both, reference, 2)
        assert dev < 1e-12

    def test_double_no_count_is_the_direct_product(self):
        first = build_counter(CounterKind.PC, 0.2, 5)
        second = build_counter(CounterKind.PC, 0.2, 5)
        joint = compose_models(first, second)
        n = ladder("number", 5).entries
        expected = (np.eye(5) - 0.02 * n) @ (np.eye(5) - 0.02 * n)
        assert np.max(np.abs(joint.operator_for("00").entries - expected)) < 1e-15

    def test_weak_second_stage_recovers_first(self):
        first = build_counter(CounterKind.QC, 0.3, 6)
        second = build_counter(CounterKind.PC, 1e-3, 6)
        joint = compose_models(first, second)
        for m in ("0", "1"):
            delta = joint.operator_for(f"0{m}").entries - first.operator_for(m).entries
            assert np.max(np.abs(delta)) < 2 * (1e-3) ** 2 * 6

    def test_outcome_labels_read_second_then_first(self):
        first = build_counter(CounterKind.QC, 0.3, 5)
        second = build_counter(CounterKind.PC, 0.3, 5)
        joint = compose_models(first, second)
        assert joint.outcomes == ("00", "01", "10", "11")

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            compose_models(
                build_counter(CounterKind.PC, 0.3, 5),
                build_counter(CounterKind.PC, 0.3, 6),
            )


def block_rotation_one_count(kind, gamma, dim):
    """Independent oracle: per-level 2x2 rotation of the probe interaction."""
    mat = np.zeros((dim, dim), dtype=complex)
    if kind is CounterKind.PC:
        for n in range(1, dim):
            mat[n - 1, n] = -1j * np.sin(gamma * np.sqrt(n))
    elif kind is CounterKind.QC:
        for n in range(dim - 1):
            mat[n + 1, n] = -1j * np.sin(gamma * np.sqrt(n + 1))
    elif kind is CounterKind.QPC:
        mat[np.diag_indices(dim)] = -1j * np.sin(gamma * np.arange(dim))
    else:
        mat[np.diag_indices(dim)] = -1j * np.sin(gamma * np.arange(1, dim + 1))
    return mat


def phase_aligned_deviation(probe_op, closed_op, support_dim):
    a = probe_op.entries[:, :support_dim]
    b = closed_op.entries[:, :support_dim]
    inner = np.trace(b.conj().T @ a)
    phase = inner / abs(inner) if abs(inner) > 0 else 1.0
    return float(np.linalg.norm(a - phase * b, 2))


class TestProbeModels:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_probe_hamiltonian_is_hermitian(self, kind):
        assert probe_hamiltonian(kind, 5).is_hermitian(1e-12)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_exact_operators_match_block_rotation_oracle(self, kind):
        model = probe_model_operators(kind, 0.1, 5)
        oracle = block_rotation_one_count(kind, 0.1, 5)
        delta = np.abs(model.operator_for("1").entries - oracle)
        if kind is CounterKind.QC:
            delta = delta[:, :-1]  # top level is truncation-dark in the joint space
        assert np.max(delta) < 1e-13

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_probe_pair_is_exactly_complete(self, kind):
        model = probe_model_operators(kind, 0.2, 5)
        total = sum(
            (op.adjoint() @ op).entries for op in model.operators
        )
        assert np.max(np.abs(total - np.eye(5))) < 1e-13

    def test_zero_coupling_is_trivial(self):
        model = probe_model_operators(CounterKind.PC, 0.0, 5)
        assert np.max(np.abs(model.operator_for("1").entries)) < 1e-15
        assert np.max(np.abs(model.operator_for("0").entries - np.eye(5))) < 1e-15

    @pytest.mark.parametrize("gamma", [0.05, 0.1, 0.2, 0.3])
    @pytest.mark.parametrize("kind", [CounterKind.PC, CounterKind.QC, CounterKind.QPC])
    def test_closed_forms_agree_within_gamma_cubed(self, kind, gamma):
        probe = probe_model_operators(kind, gamma, 6)
        closed = build_counter(kind, gamma, 6)
        dev = phase_aligned_deviation(
            probe.operator_for("1"), closed.operator_for("1"), 2
        )
        assert dev <= gamma**3

    @pytest.mark.parametrize("gamma", [0.05, 0.1, 0.2, 0.3])
    def test_qnd_quantum_deviation_is_the_sine_defect(self, gamma):
        # the one-count eigenvalue on |1> is 2*gamma, so the deviation is
        # |2g - sin 2g| ~ (4/3) g^3: larger than g^3 at every coupling
        probe = probe_model_operators(CounterKind.QQC, gamma, 6)
        closed = build_counter(CounterKind.QQC, gamma, 6)
        dev = phase_aligned_deviation(
            probe.operator_for("1"), closed.operator_for("1"), 2
        )
        assert abs(dev - (2 * gamma - np.sin(2 * gamma))) < 1e-12


class TestUnitaryPartDeviation:
    def test_qnd_counters_have_no_unitary_part(self):
        assert unitary_part_deviation(0.3 * ladder("number", 5)) < 1e-12
        assert unitary_part_deviation(0.3 * ladder("antinormal_number", 5)) < 1e-12

    def test_identity_has_no_unitary_part(self):
        assert unitary_part_deviation(Operator.identity(4)) < 1e-14

    def test_absorbing_and_emitting_counters_do(self):
        assert unitary_part_deviation(0.3 * ladder("annihilation", 5)) > 0.5
        assert unitary_part_deviation(0.3 * ladder("creation", 5)) > 0.5

    def test_emitting_counter_matches_shift_oracle(self):
        # explicit cyclic-shift unitary at dim 4; the polar positive part is
        # supported on the lowest three levels
        dim = 4
        shift = np.zeros((dim, dim))
        for n in range(dim - 1):
            shift[n + 1, n] = 1.0
        shift[0, dim - 1] = 1.0
        support = np.diag([1.0, 1.0, 1.0, 0.0])
        oracle = float(np.linalg.norm((shift - np.eye(dim)) @ support, 2))
        assert abs(oracle - np.sqrt(2 + np.sqrt(2))) < 1e-12
        # the full-space cyclic shift sits at the maximal unitary distance
        assert abs(np.linalg.norm(shift - np.eye(dim), 2) - 2.0) < 1e-12
        value = unitary_part_deviation(0.3 * ladder("creation", dim))
        assert abs(value - oracle) < 1e-12

    def test_zero_operator_rejected(self):
        with pytest.raises(ValueError):
            unitary_part_deviation(Operator(np.zeros((4, 4))))
