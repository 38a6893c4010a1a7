"""Property tests of full_report over random couplings, truncations and
quadrature sizes.  Derandomized, so every run draws the same examples."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from photocount import (
    ZeroProbability,
    bloch_two_state_ensemble,
    fidelity_after,
    full_report,
    mean_fidelity,
    mean_information,
    mean_reversibility,
    outcome_statistics,
    resolve_model,
    reversibility,
)

LABELS = ("pc", "qc", "qpc", "qqc", "joint")


@settings(derandomize=True, deadline=None, database=None)
@given(
    gamma=st.floats(min_value=0.0, max_value=0.5, exclude_min=True),
    label=st.sampled_from(LABELS),
    dim=st.integers(min_value=4, max_value=8),
    nodes=st.integers(min_value=8, max_value=128),
)
def test_full_report_properties(gamma, label, dim, nodes):
    ens = bloch_two_state_ensemble(nodes, dim)
    model = resolve_model(label, gamma, dim)
    if min(s.total for s in outcome_statistics(model, ens)) <= 0.0:
        # An outcome probability underflows to zero at tiny coupling.
        with pytest.raises(ZeroProbability):
            full_report(label, gamma, ens)
        return

    report = full_report(label, gamma, ens)
    means = (report.mean_information, report.mean_fidelity, report.mean_reversibility)
    assert all(math.isfinite(v) for v in means)
    for outcome, m in report.per_outcome.items():
        values = (m.probability, m.information_gain, m.fidelity, m.reversibility)
        assert all(math.isfinite(v) for v in values)
        assert m.efficiency is None or math.isfinite(m.efficiency)
        assert m.information_gain >= 0.0
        assert 0.0 <= m.fidelity <= 1.0
        assert 0.0 <= m.reversibility <= 1.0
        assert math.isfinite(report.backgrounds[outcome])
        assert fidelity_after(model, ens, outcome) == m.fidelity
        assert reversibility(model, ens, outcome) == m.reversibility
    assert abs(sum(report.backgrounds.values()) - report.mean_reversibility) <= 1e-10
    assert mean_information(model, ens) == report.mean_information
    assert mean_fidelity(model, ens) == report.mean_fidelity
    assert mean_reversibility(model, ens) == report.mean_reversibility
