"""Acceptance gate: every headline figure at its pinned tolerance.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them on
success).  Closed-form targets are stated inline; Monte Carlo targets carry
binomial/batch error bars; two values are frozen regression anchors from the
pinned seed.
"""

import math
import subprocess
import sys

import numpy as np
import pytest
from scipy.integrate import quad

import photocount as pc

LN2 = math.log(2.0)
LABELS = ("pc", "qc", "qpc", "qqc")

GAINS = {
    "pc": 1 - 1 / (2 * LN2),
    "qc": 7 / 3 - 1 / (2 * LN2) - math.log2(3),
    "qpc": 1 - 1 / (2 * LN2),
    "qqc": 47 / 15 - 1 / (2 * LN2) - math.log2(5),
}
REVERSIBILITIES = {"pc": 0.0, "qc": 2 / 3, "qpc": 0.0, "qqc": 2 / 5}
ONE_COUNT_PROBS = {"pc": 0.045, "qc": 0.135, "qpc": 0.045, "qqc": 0.225}

# Monte Carlo regression anchors: Haar d=3, 10^6 samples, seed 42.
HAAR_D3_GAIN_PC = 0.1308752558195372
HAAR_D3_GAIN_QPC = 0.19389342227108106


def beta_three_quarters_three_halves():
    """Independent quadrature oracle for B(3/4, 3/2)."""
    value, _ = quad(lambda s: 1.0, 0.0, 1.0, weight="alg", wvar=(-0.25, 0.5))
    return value


def check(name, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'}  {name}  [{detail}]")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def bloch():
    return pc.bloch_two_state_ensemble(64, 5)


def test_01_one_count_information_gains(bloch):
    errs = {}
    for label in LABELS:
        report = pc.full_report(label, 0.3, bloch)
        errs[label] = abs(report.per_outcome["1"].information_gain - GAINS[label])
    check(
        "01 one-count information gains",
        all(e <= 1e-9 for e in errs.values()),
        "max |err| = %.2e" % max(errs.values()),
    )


def test_02_one_count_fidelities(bloch):
    targets = {
        "pc": 8 / 15,
        "qc": beta_three_quarters_three_halves() / 3,
        "qpc": 4 / 5,
        "qqc": 652 / 675,
    }
    errs = {}
    for label in LABELS:
        model = pc.resolve_model(label, 0.3, 5)
        errs[label] = abs(pc.fidelity_after(model, bloch, "1") - targets[label])
    check(
        "02 one-count fidelities",
        all(e <= 1e-9 for e in errs.values()),
        "max |err| = %.2e" % max(errs.values()),
    )


def test_03_one_count_reversibilities(bloch):
    errs = {}
    for label in LABELS:
        model = pc.resolve_model(label, 0.3, 5)
        errs[label] = abs(pc.reversibility(model, bloch, "1") - REVERSIBILITIES[label])
    check(
        "03 one-count reversibilities",
        all(e <= 1e-12 for e in errs.values()),
        "max |err| = %.2e" % max(errs.values()),
    )


def test_04_one_count_total_probabilities(bloch):
    errs = {}
    for label in LABELS:
        model = pc.resolve_model(label, 0.3, 5)
        stats = pc.outcome_statistics(model, bloch)
        errs[label] = abs(stats[1].total - ONE_COUNT_PROBS[label])
    check(
        "04 one-count total probabilities at gamma=0.3",
        all(e <= 1e-12 for e in errs.values()),
        "max |err| = %.2e" % max(errs.values()),
    )


def test_05_sweep_fit_coefficients(bloch):
    targets_i = {"pc": 0.139, "qc": 0.0405, "qpc": 0.139, "qqc": 0.225}
    targets_f = {"pc": 7 / 30, "qc": 1.02, "qpc": 0.1, "qqc": 23 / 270}
    targets_r = {"pc": 1.0, "qc": 1.0, "qpc": 1.0, "qqc": 3.0}
    gammas = np.linspace(0.05, 0.3, 11)
    worst = {"information": 0.0, "fidelity_loss": 0.0, "reversibility_loss": 0.0}
    for label in LABELS:
        fits = pc.gamma_sweep(label, gammas, bloch).fits()
        worst["information"] = max(
            worst["information"], abs(fits["information"][0] - targets_i[label])
        )
        worst["fidelity_loss"] = max(
            worst["fidelity_loss"], abs(fits["fidelity_loss"][0] - targets_f[label])
        )
        worst["reversibility_loss"] = max(
            worst["reversibility_loss"],
            abs(fits["reversibility_loss"][0] - targets_r[label]),
        )
    ok = (
        worst["information"] <= 2e-3
        and worst["fidelity_loss"] <= 2e-3
        and worst["reversibility_loss"] <= 2e-2
    )
    check(
        "05 gamma^2 sweep coefficients",
        ok,
        "worst errs: I %.1e, 1-F %.1e, 1-R %.1e"
        % (worst["information"], worst["fidelity_loss"], worst["reversibility_loss"]),
    )


def test_06_identity_suite(bloch):
    support_dim = bloch.support_dim
    worst_mi, worst_ku, worst_norm = 0.0, 0.0, 0.0
    ok = True
    for label in LABELS:
        for gamma in (0.1, 0.3):
            model = pc.resolve_model(label, gamma, 5)
            stats = pc.outcome_statistics(model, bloch)
            by_outcome = sum(s.total * pc.information_gain(s) for s in stats)
            double = 0.0
            for s in stats:
                mask = s.conditional > 0
                double += float(
                    np.sum(
                        s.posterior[mask]
                        * s.total
                        * np.log2(s.conditional[mask] / s.total)
                    )
                )
            worst_mi = max(worst_mi, abs(by_outcome - double))
            mean_rev = pc.mean_reversibility(model, bloch)
            bg_sum = sum(pc.background(model, m, support_dim) for m in model.outcomes)
            worst_ku = max(worst_ku, abs(mean_rev - bg_sum))
            residual = pc.completeness_residual(model, support_dim)
            deviation = abs(sum(s.total for s in stats) - 1.0)
            worst_norm = max(worst_norm, deviation - 2 * residual)
            ok = ok and worst_mi <= 1e-10 and worst_ku <= 1e-10 and deviation <= 2 * residual
    check(
        "06 identity suite (mutual info, reversibility sum, normalization)",
        ok,
        "worst: MI %.1e, KU %.1e, norm-excess %.1e" % (worst_mi, worst_ku, worst_norm),
    )


def test_07_probe_model_equivalence():
    support = np.diag([1.0, 1.0, 0.0, 0.0, 0.0, 0.0])
    failures = []
    worst = 0.0
    for label in LABELS:
        kind = pc.CounterKind.parse(label)
        for gamma in (0.05, 0.1, 0.2):
            probe = pc.probe_model_operators(kind, gamma, 6).operator_for("1")
            closed = pc.build_counter(kind, gamma, 6).operator_for("1")
            a = probe.entries @ support
            b = closed.entries @ support
            inner = np.trace(b.conj().T @ a)
            phase = inner / abs(inner) if abs(inner) > 0 else 1.0
            dev = float(np.linalg.norm(a - phase * b, 2))
            worst = max(worst, dev / gamma**3)
            if dev > gamma**3:
                failures.append(f"{label}@{gamma}: dev={dev:.3e} > {gamma**3:.3e}")
    check(
        "07 probe-model equivalence within gamma^3",
        not failures,
        "worst dev/gamma^3 = %.3f%s"
        % (worst, ("; " + "; ".join(failures)) if failures else ""),
    )


def test_08_joint_measurement_proportionality():
    joint = pc.compose_models(
        pc.build_counter(pc.CounterKind.QC, 0.3, 6),
        pc.build_counter(pc.CounterKind.PC, 0.3, 6),
    )
    reference = pc.build_counter(pc.CounterKind.QQC, 0.3, 6).operator_for("1")
    dev = pc.proportionality_deviation(joint.operator_for("11"), reference, 2)
    check("08 double count implements the QND quantum counter", dev <= 1e-12, f"dev = {dev:.2e}")


def test_09_reversal_end_to_end(bloch):
    ok = True
    details = []
    for label, target in (("qc", 2 / 3), ("qqc", 2 / 5)):
        kind = pc.CounterKind.parse(label)
        model = pc.resolve_model(label, 0.3, 5)
        analytic = pc.reversibility(model, bloch, "1")
        ok = ok and abs(analytic - target) <= 1e-12

        sim = pc.trajectory_sim(kind, 0.3, bloch, trials=1_000_000, seed=42)
        sigma = math.sqrt(target * (1 - target) / sim.one_counts)
        ok = ok and abs(sim.empirical_success_rate - target) <= 4 * sigma
        ok = ok and sim.mean_recovery_fidelity >= 1 - 1e-10
        details.append(f"{label}: mc={sim.empirical_success_rate:.5f} ({sigma:.1e} sd)")

        op = model.operator_for("1")
        rev = pc.build_reversing(op, bloch.support_dim)
        success = np.array(
            [
                pc.verify_recovery(pc.StateVector(s), op, rev)
                for s in bloch.states
            ]
        )
        fidelities = np.array([r["recovery_fidelity"] for r in success])
        ok = ok and bool(np.all(fidelities >= 1 - 1e-10))
        probs = np.array([r["success_prob"] for r in success])
        stats = pc.outcome_statistics(model, bloch)[1]
        joint = bloch.weights * stats.conditional * probs
        posterior = joint / joint.sum()
        erasure = float(np.max(np.abs(posterior - bloch.weights)))
        ok = ok and erasure <= 1e-10
        details.append(f"{label}: erasure={erasure:.1e}")
    check("09 reversal end-to-end", ok, "; ".join(details))


def test_10_polar_structure():
    devs = {
        label: pc.unitary_part_deviation(
            pc.build_counter(pc.CounterKind.parse(label), 0.3, 5).operator_for("1")
        )
        for label in LABELS
    }
    ok = (
        devs["qpc"] <= 1e-12
        and devs["qqc"] <= 1e-12
        and devs["pc"] > 0.5
        and devs["qc"] > 0.5
    )
    check(
        "10 polar structure of one-count operators",
        ok,
        "dev: " + ", ".join(f"{k}={v:.3f}" for k, v in devs.items()),
    )


def test_11_three_level_information_ordering():
    ens = pc.haar_ensemble(3, 1_000_000, 42, 5)
    values, batches = {}, {}
    for label in ("pc", "qpc"):
        model = pc.resolve_model(label, 0.3, 5)
        values[label], batches[label] = pc.batched_information(model, ens, "1")
    diff = values["qpc"] - values["pc"]
    diff_se = float(
        np.std(batches["qpc"] - batches["pc"], ddof=1) / np.sqrt(batches["pc"].size)
    )
    anchored = (
        abs(values["pc"] - HAAR_D3_GAIN_PC) <= 1e-9 * abs(HAAR_D3_GAIN_PC)
        and abs(values["qpc"] - HAAR_D3_GAIN_QPC) <= 1e-9 * abs(HAAR_D3_GAIN_QPC)
    )
    check(
        "11 three-level gain ordering (QND photon > absorbing)",
        diff > 3 * diff_se and anchored,
        f"diff = {diff:.5f} ({diff / diff_se:.0f} se); anchors held: {anchored}",
    )


def test_12_cli_determinism():
    commands = [
        ["posterior", "--counter", "qc"],
        ["metrics", "--counter", "qqc", "--format", "json"],
        ["sweep", "--counter", "pc", "--steps", "5"],
        ["haar", "--d", "3", "--samples", "100000"],
        ["reverse", "--counter", "qc", "--samples", "10000"],
    ]
    ok = True
    for args in commands:
        base = [sys.executable, "-m", "photocount", *args]
        first = subprocess.run(base, capture_output=True, check=True).stdout
        second = subprocess.run(base, capture_output=True, check=True).stdout
        threaded = subprocess.run(
            base + ["--threads", "4"], capture_output=True, check=True
        ).stdout
        ok = ok and first == second == threaded
    check("12 CLI byte-determinism across reruns and thread counts", ok, f"{len(commands)} commands")
