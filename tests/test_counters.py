import numpy as np
import pytest
from oracles import (
    build_counter_reference,
    compose_reference,
    ladder,
    probe_reference,
    proportionality_deviation,
)

from photocount import (
    MeasurementModel,
    build_counter,
    completeness_residual,
    probe_model_operators,
    unitary_part_deviation,
)
from photocount.counters import LABELS

ALL_KINDS = ("pc", "qc", "qpc", "qqc")


class TestBuildCounter:
    @pytest.mark.parametrize("gamma", [1e-8, 0.05, 0.3, 0.5])
    @pytest.mark.parametrize("dim", [4, 5, 8])
    @pytest.mark.parametrize("label", ["pc", "qc", "qpc", "qqc", "joint"])
    def test_operators_match_the_ladder_products_bit_for_bit(self, label, dim, gamma):
        if label == "joint":
            want = compose_reference(
                build_counter_reference("qc", gamma, dim),
                build_counter_reference("pc", gamma, dim),
            )
        else:
            want = build_counter_reference(label, gamma, dim)
        got = build_counter(label, gamma, dim)
        assert got.outcomes == want.outcomes
        assert got.operators.tobytes() == want.operators.tobytes()
        assert got.effects.tobytes() == want.effects.tobytes()

    def test_absorbing_one_count_annihilates(self):
        model = build_counter("pc", 0.3, 4)
        image = model.operator_for("1") @ np.eye(4)[1]
        assert abs(image[0] - 0.3) < 1e-15
        assert np.allclose(image[1:], 0.0)

    def test_qnd_quantum_one_count_diagonal(self):
        model = build_counter("qqc", 0.3, 4)
        diag = np.diag(model.operator_for("1"))
        assert abs(diag[0] - 0.3) < 1e-15
        assert abs(diag[1] - 0.6) < 1e-15

    def test_emitting_counter_fires_on_vacuum(self):
        model = build_counter("qc", 0.3, 4)
        op = model.operator_for("1")
        prob = float(np.linalg.norm(op @ np.eye(4)[0]) ** 2)
        assert abs(prob - 0.09) < 1e-15

    def test_no_count_operators_are_quadratic_truncations(self):
        gamma, dim = 0.2, 5
        n = ladder("number", dim)
        anti = ladder("antinormal_number", dim)
        expected = {
            "pc": np.eye(dim) - gamma**2 / 2 * n,
            "qc": np.eye(dim) - gamma**2 / 2 * anti,
            "qpc": np.eye(dim) - gamma**2 / 2 * (n @ n),
            "qqc": np.eye(dim) - gamma**2 / 2 * (anti @ anti),
        }
        for kind, mat in expected.items():
            model = build_counter(kind, gamma, dim)
            assert np.max(np.abs(model.operator_for("0") - mat)) < 1e-15

    @pytest.mark.parametrize("gamma", [0.0, -0.1, 0.6])
    def test_gamma_range_enforced(self, gamma):
        with pytest.raises(ValueError, match="gamma must lie in"):
            build_counter("pc", gamma, 5)

    def test_dim_floor_enforced(self):
        # A model needs one level; the truncation edge is support_effects'.
        with pytest.raises(ValueError, match="^truncation dimension must be at least 1$"):
            build_counter("pc", 0.3, 0)
        assert build_counter("pc", 0.3, 1).dim == 1

    @pytest.mark.parametrize("label", ["QC", "joint ", "probe_qc", ""])
    def test_unknown_label_is_refused_before_the_coupling(self, label):
        # Labels are case-sensitive, as the CLI's choices are; the label is
        # checked before gamma, which is out of range here.
        with pytest.raises(ValueError, match=f"unknown counter kind {label!r}"):
            build_counter(label, 0.9, 5)

    def test_models_compare_and_hash_by_identity(self):
        # The operator arrays have no single truth value, so two equal
        # builds are different objects, not an error.
        a, b = build_counter("pc", 0.3, 5), build_counter("pc", 0.3, 5)
        assert (a == b) is False
        assert (a == a) is True
        assert len({a, b, a}) == 2

    @pytest.mark.parametrize("label", LABELS)
    def test_built_arrays_are_read_only(self, label):
        model = build_counter(label, 0.3, 5)
        for array in (model.operators, model.effects, model.reach):
            assert not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.0
        assert model.reach.flags.owndata

    def test_every_operator_array_is_held_as_a_read_only_copy(self):
        arr = build_counter("qc", 0.3, 5).operators.copy()
        before = arr.tobytes()
        copied = MeasurementModel(label="qc", outcomes=("0", "1"), operators=arr, gamma=0.3)
        assert copied.operators is not arr and not copied.operators.flags.writeable
        assert arr.flags.writeable and arr.tobytes() == before
        # A read-only array that owns its memory is copied too.
        arr.setflags(write=False)
        frozen = MeasurementModel(label="qc", outcomes=("0", "1"), operators=arr, gamma=0.3)
        assert frozen.operators is not arr and not frozen.operators.flags.writeable
        assert frozen.operators.tobytes() == before
        real = arr.real.copy()
        real.setflags(write=False)
        converted = MeasurementModel(label="qc", outcomes=("0", "1"), operators=real, gamma=0.3)
        assert converted.operators is not real and converted.operators.dtype == complex

    def test_a_read_only_view_of_a_writeable_array_is_copied(self):
        # The view cannot be written, but its base can: a model that kept the
        # view would report effects its operators no longer have.
        fresh = build_counter("qc", 0.3, 5)
        base = fresh.operators.copy()
        view = base[:]
        view.setflags(write=False)
        model = MeasurementModel(label="qc", outcomes=("0", "1"), operators=view, gamma=0.3)
        base[1] *= 2.0
        assert model.operators.tobytes() == fresh.operators.tobytes()
        assert model.effects.tobytes() == fresh.effects.tobytes()


class TestCompletenessResidual:
    def test_absorbing_counter_residual_value(self):
        model = build_counter("pc", 0.3, 5)
        residual = completeness_residual(model, 2)
        assert abs(residual - 0.3**4 / 4) < 1e-15

    def test_qnd_photon_residual_value(self):
        model = build_counter("qpc", 0.1, 5)
        residual = completeness_residual(model, 2)
        assert abs(residual - 2.5e-5) < 1e-15

    @pytest.mark.parametrize("kind", ["pc", "qpc"])
    def test_residual_scales_as_fourth_power(self, kind):
        r1 = completeness_residual(build_counter(kind, 0.1, 5), 2)
        r2 = completeness_residual(build_counter(kind, 0.2, 5), 2)
        assert abs(r2 / r1 - 16.0) < 0.16

    @pytest.mark.parametrize("support_dim", [0, 6])
    def test_support_outside_the_truncation_is_refused(self, support_dim):
        # Without the check, 6 gave the whole-space value and 0 numpy's
        # zero-size reduction error.
        with pytest.raises(ValueError, match=rf"support dimension {support_dim} outside \[1, 5\]"):
            completeness_residual(build_counter("qc", 0.3, 5), support_dim)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_residual_bounded_for_small_gamma(self, kind):
        for gamma in (0.05, 0.01):
            residual = completeness_residual(build_counter(kind, gamma, 6), 2)
            assert residual / gamma**4 < 5.0  # worst case (n+1)^4/4 = 4 on this support


class TestJointCounter:
    def test_double_count_implements_qnd_quantum(self):
        joint = build_counter("joint", 0.3, 6)
        both = joint.operator_for("11")
        # gamma^2 * a adag as a truncated product
        a = ladder("annihilation", 6)
        expected = 0.09 * (a @ a.T)
        assert np.max(np.abs(both - expected)) < 1e-15
        reference = build_counter("qqc", 0.3, 6).operator_for("1")
        dev = proportionality_deviation(both, reference, 2)
        assert dev < 1e-12

    def test_outcome_labels_read_second_then_first(self):
        joint = build_counter("joint", 0.3, 5)
        assert joint.outcomes == ("00", "01", "10", "11")


def block_rotation_one_count(kind, gamma, dim):
    """Independent oracle: per-level 2x2 rotation of the probe interaction."""
    mat = np.zeros((dim, dim), dtype=complex)
    if kind == "pc":
        for n in range(1, dim):
            mat[n - 1, n] = -1j * np.sin(gamma * np.sqrt(n))
    elif kind == "qc":
        for n in range(dim - 1):
            mat[n + 1, n] = -1j * np.sin(gamma * np.sqrt(n + 1))
    elif kind == "qpc":
        mat[np.diag_indices(dim)] = -1j * np.sin(gamma * np.arange(dim))
    else:
        mat[np.diag_indices(dim)] = -1j * np.sin(gamma * np.arange(1, dim + 1))
    return mat


def phase_aligned_deviation(probe_op, closed_op, support_dim):
    a = probe_op[:, :support_dim]
    b = closed_op[:, :support_dim]
    inner = np.trace(b.conj().T @ a)
    phase = inner / abs(inner) if abs(inner) > 0 else 1.0
    return float(np.linalg.norm(a - phase * b, 2))


class TestProbeModels:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_exact_operators_match_block_rotation_oracle(self, kind):
        model = probe_model_operators(kind, 0.1, 5)
        oracle = block_rotation_one_count(kind, 0.1, 5)
        delta = np.abs(model.operator_for("1") - oracle)
        if kind == "qc":
            delta = delta[:, :-1]  # top level is truncation-dark in the joint space
        assert np.max(delta) < 1e-13

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_probe_pair_is_exactly_complete(self, kind):
        model = probe_model_operators(kind, 0.2, 5)
        total = sum(op.conj().T @ op for op in model.operators)
        assert np.max(np.abs(total - np.eye(5))) < 1e-13

    @pytest.mark.parametrize("label", ["joint", "QC", "bogus"])
    def test_a_label_without_a_probe_is_refused(self, label):
        with pytest.raises(ValueError, match=f"no probe model for counter {label!r}"):
            probe_model_operators(label, 0.1, 5)

    # probe_model_operators checks gamma and dim through the closed form,
    # with build_counter's messages
    @pytest.mark.parametrize("gamma", [0.0, -0.1, 0.6])
    def test_gamma_range_enforced(self, gamma):
        with pytest.raises(ValueError, match="gamma must lie in"):
            probe_model_operators("pc", gamma, 5)

    def test_dim_floor_enforced(self):
        with pytest.raises(ValueError, match="^truncation dimension must be at least 1$"):
            probe_model_operators("pc", 0.3, 0)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("dim", [4, 5, 8])
    def test_rotation_matches_scipy_expm(self, kind, dim):
        # A fixed grid beside the Hypothesis property: both operators, the
        # truncation edge included, against the Kronecker Hamiltonian's
        # expm blocks, from the weak-coupling limit to the largest gamma.
        for gamma in (1e-8, 0.05, 0.3, 0.5):
            model = probe_model_operators(kind, gamma, dim)
            oracle = probe_reference(kind, gamma, dim)
            assert np.max(np.abs(model.operators - oracle)) < 1e-14

    def test_weak_coupling_limit_is_trivial(self):
        # gamma = 0 is refused, so the limit is taken at 1e-8: the largest
        # angle is 2e-8 on level 4, and 1 - cos of it is below one rounding.
        model = probe_model_operators("pc", 1e-8, 5)
        assert np.max(np.abs(model.operator_for("1"))) <= 2e-8
        assert np.max(np.abs(model.operator_for("0") - np.eye(5))) < 1e-15

    @pytest.mark.parametrize("gamma", [0.05, 0.1, 0.2, 0.3])
    @pytest.mark.parametrize("kind", ["pc", "qc", "qpc"])
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
        probe = probe_model_operators("qqc", gamma, 6)
        closed = build_counter("qqc", gamma, 6)
        dev = phase_aligned_deviation(
            probe.operator_for("1"), closed.operator_for("1"), 2
        )
        assert abs(dev - (2 * gamma - np.sin(2 * gamma))) < 1e-12


class TestUnitaryPartDeviation:
    def test_qnd_counters_have_no_unitary_part(self):
        for gamma in (0.3, 1e-11, 1e-200):
            for kind in ("number", "antinormal_number"):
                assert unitary_part_deviation(gamma * ladder(kind, 5)) < 1e-12

    def test_identity_has_no_unitary_part(self):
        assert unitary_part_deviation(np.eye(4)) < 1e-14

    def test_absorbing_and_emitting_counters_do(self):
        for gamma in (0.3, 1e-11, 1e-200):
            assert unitary_part_deviation(gamma * ladder("annihilation", 5)) > 0.5
            assert unitary_part_deviation(gamma * ladder("annihilation", 5).T) > 0.5

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
        value = unitary_part_deviation(0.3 * ladder("annihilation", dim).T)
        assert abs(value - oracle) < 1e-12

    def test_zero_operator_rejected(self):
        with pytest.raises(ValueError):
            unitary_part_deviation(np.zeros((4, 4)))
