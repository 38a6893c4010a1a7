import csv
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from oracles import haar_states

import photocount.metrics as metrics
from photocount import (
    batched_information,
    bloch_two_state_ensemble,
    build_counter,
    build_reversing,
    cli,
    evaluate,
    trajectory_sim,
)
from photocount.cli import format_number, main
from photocount.ensemble import block_bounds


GOLDEN = Path(__file__).parent / "golden"
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    return list(csv.reader(io.StringIO(text)))


def reemit_csv(text):
    rows = parse_csv(text)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    for row in rows:
        out = []
        for cell in row:
            try:
                value = float(cell)
            except ValueError:
                out.append(cell)
                continue
            out.append(format_number(value) if cell not in ("", None) else cell)
        writer.writerow(out)
    return buf.getvalue()


class TestPosterior:
    def test_absorbing_counter_densities(self, capsys):
        code, out, _ = run_cli(["posterior", "--counter", "pc", "--outcome", "1"], capsys)
        assert code == 0
        rows = parse_csv(out)
        assert rows[0] == ["theta_degrees", "prior_density", "posterior_density"]
        assert len(rows) == 182
        prior = {float(r[1]) for r in rows[1:]}
        assert len(prior) == 1 and abs(prior.pop() - 1 / (4 * math.pi)) < 1e-12
        last = rows[-1]
        assert float(last[0]) == 180.0
        assert abs(float(last[2]) - 1 / (2 * math.pi)) < 1e-9
        first = rows[1]
        assert float(first[2]) < 1e-12  # one-count excludes the vacuum pole

    def test_qnd_quantum_density_at_zero(self, capsys):
        code, out, _ = run_cli(["posterior", "--counter", "qqc"], capsys)
        assert code == 0
        rows = parse_csv(out)
        assert abs(float(rows[1][2]) - 1 / (10 * math.pi)) < 1e-9

    @pytest.mark.parametrize(
        "counter,outcome", [("pc", "0"), ("qc", "1"), ("qqc", "0"), ("joint", "11")]
    )
    def test_densities_match_the_dense_images(self, counter, outcome):
        # p(m|theta) and p(m) from populations times the diagonal effect,
        # against the squared norms of the images M|psi(theta)>
        argv = ["posterior", "--counter", counter, "--outcome", outcome, "--dim", "6"]
        args = cli.build_parser().parse_args(argv)
        model = build_counter(counter, args.gamma, args.dim)
        ens = bloch_two_state_ensemble(args.theta_nodes, args.dim)
        results = cli.cmd_posterior(args, model, ens)
        op = model.operator_for(outcome)
        total = ens.weights @ np.sum(np.abs(ens.states @ op.T) ** 2, axis=1)
        half = np.deg2rad(results["theta_degrees"]) / 2
        grid = np.zeros((half.size, args.dim))
        grid[:, 0], grid[:, 1] = np.cos(half), np.sin(half)
        density = cli.PRIOR_DENSITY * np.sum(np.abs(grid @ op.T) ** 2, axis=1) / total
        assert abs(results["total_probability"] - total) <= 1e-15 * total
        assert np.allclose(results["posterior_density"], density, rtol=1e-14, atol=0.0)

    def test_unknown_outcome_is_usage_error(self, capsys):
        code, _, err = run_cli(["posterior", "--outcome", "7"], capsys)
        assert code == 2
        assert "outcome" in err

    def test_zero_probability_outcome_is_numeric_failure(self, capsys):
        # gamma^2 underflows, so the one-count has zero total probability.
        argv = ["posterior", "--counter", "pc", "--outcome", "1", "--gamma", "1e-170"]
        code, out, err = run_cli(argv, capsys)
        assert code == 4
        assert out == ""
        assert "outcome '1' has zero total probability" in err


class TestMetricsCommand:
    def test_one_count_row_values(self, capsys):
        values = {}
        for counter in ("pc", "qc", "qpc", "qqc"):
            code, out, _ = run_cli(["metrics", "--counter", counter], capsys)
            assert code == 0
            rows = parse_csv(out)
            header = rows[0]
            one = next(r for r in rows[1:] if r[0] == "1")
            values[counter] = dict(zip(header, one))
        gains = [float(values[c]["information_gain"]) for c in ("pc", "qc", "qpc", "qqc")]
        assert np.allclose(gains, [0.2787, 0.0270, 0.2787, 0.0901], atol=5e-4)
        revs = [float(values[c]["reversibility"]) for c in ("pc", "qc", "qpc", "qqc")]
        assert np.allclose(revs, [0.0, 2 / 3, 0.0, 2 / 5], atol=1e-12)
        fids = [float(values[c]["fidelity"]) for c in ("pc", "qc", "qpc", "qqc")]
        assert np.allclose(fids, [0.5333, 0.3195, 0.8, 0.9659], atol=5e-4)

    def test_json_envelope(self, capsys):
        code, out, _ = run_cli(["metrics", "--counter", "qc", "--format", "json"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert list(doc.keys()) == ["command", "config", "results", "version"]
        assert doc["command"] == "metrics"
        assert doc["config"]["counter"] == "qc"
        assert "threads" not in doc["config"]
        assert abs(doc["results"]["outcomes"]["1"]["reversibility"] - 2 / 3) < 1e-9

    def test_joint_counter_has_four_outcomes(self, capsys):
        code, out, _ = run_cli(["metrics", "--counter", "joint"], capsys)
        assert code == 0
        rows = parse_csv(out)
        labels = [r[0] for r in rows[1:]]
        assert labels == ["00", "01", "10", "11", "mean"]


class TestSubnormalCoupling:
    # gamma^2, or gamma^4 for joint's "11", is a subnormal effect entry on the
    # support, whose outcome probabilities keep only a few bits: without the
    # refusal, metrics printed a pc one-count gain of 1.48 bits, above the 1
    # bit of a two-level family, and a joint "11" gain of 0.3232 where the
    # closed form is 0.0900577.
    @pytest.mark.parametrize("argv,effect", [
        (["metrics", "--counter", "pc", "--gamma", "1.1e-161"],
         "effect of outcome '1' is 1.18576e-322 on level 1"),
        (["metrics", "--counter", "joint", "--gamma", "3e-81"],
         "effect of outcome '11' is 7.90505e-323 on level 0"),
    ])
    def test_subnormal_effect_is_usage_error(self, argv, effect, capsys):
        code, out, err = run_cli([*argv, "--theta-nodes", "71", "--dim", "7"], capsys)
        assert code == 2
        assert out == ""
        assert effect in err
        assert f"below the smallest normal double; gamma {argv[-1]} is too small" in err

    @pytest.mark.parametrize("argv", [
        ["posterior", "--counter", "joint", "--outcome", "11", "--gamma", "3e-81"],
        ["haar", "--d", "2", "--gamma", "1.1e-161"],
        ["reverse", "--counter", "qc", "--gamma", "1.1e-161"],
        ["reverse", "--counter", "pc", "--gamma", "1.1e-161"],
    ])
    def test_every_command_refuses_a_subnormal_effect(self, argv, capsys):
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert out == ""
        assert "below the smallest normal double" in err

    def test_smallest_normal_coupling_still_reports(self, capsys):
        # gamma^2 = 2.25e-308 is just above the smallest normal double.
        argv = ["metrics", "--counter", "pc", "--gamma", "1.5e-154",
                "--theta-nodes", "256", "--dim", "8"]
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        one = next(r for r in parse_csv(out) if r[0] == "1")
        assert one[1:4] == ["1.125e-308", "0.278652479556", "0.533333333333"]


class TestSweep:
    def test_fitted_coefficients(self, capsys):
        code, out, _ = run_cli(["sweep", "--counter", "pc"], capsys)
        assert code == 0
        rows = parse_csv(out)
        coeff = next(r for r in rows if r[0] == "gamma2_coefficient")
        assert abs(float(coeff[1]) - 0.139) < 1e-3
        assert abs(float(coeff[2]) - 7 / 30) < 1e-3
        assert abs(float(coeff[3]) - 1.0) < 1e-2

    def test_emitting_counter_fidelity_coefficient(self, capsys):
        code, out, _ = run_cli(["sweep", "--counter", "qc"], capsys)
        rows = parse_csv(out)
        coeff = next(r for r in rows if r[0] == "gamma2_coefficient")
        assert abs(float(coeff[2]) - 1.02) < 1e-2

    def test_range_validation(self, capsys):
        code, _, err = run_cli(["sweep", "--gamma-min", "0.4", "--gamma-max", "0.2"], capsys)
        assert code == 2
        code, _, _ = run_cli(["sweep", "--steps", "2"], capsys)
        assert code == 2


class TestHaar:
    def test_two_level_gains_agree(self, capsys):
        code, out, _ = run_cli(
            ["haar", "--d", "2", "--samples", "100000", "--seed", "7"], capsys
        )
        assert code == 0
        rows = {r[0]: r for r in parse_csv(out)[1:]}
        diff = float(rows["difference_qpc_minus_pc"][1])
        se = float(rows["difference_qpc_minus_pc"][2])
        # on two levels the conditionals coincide sample by sample: diff == 0
        assert abs(diff) <= 3 * se

    def test_three_level_gap_is_positive(self, capsys):
        code, out, _ = run_cli(
            ["haar", "--d", "3", "--samples", "100000", "--format", "json"], capsys
        )
        doc = json.loads(out)
        gap = doc["results"]["difference_qpc_minus_pc"]
        assert gap["sign"] == 1
        assert gap["value"] > 3 * gap["standard_error"]

    def test_default_run_holds_about_its_populations(self, capsys):
        # `haar --d 3` at its default 10^5 samples holds no array of the
        # sample's length: block temporaries of BLOCK_ROWS rows (the draw's
        # and the pc and qpc sums') bring the traced peak to 2.3 MB.  The
        # pc and qpc conditionals, one float64 per sample each, took
        # 3.9 MB, and holding the 2.4 MB of populations 4.3 MB.  The first
        # call pays the lazy imports and caches, so the second is traced.  A
        # memory bound, not a timing bound.
        assert run_cli(["haar", "--d", "3"], capsys)[0] == 0
        tracemalloc.start()
        try:
            code = main(["haar", "--d", "3"])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        capsys.readouterr()
        assert code == 0
        assert peak < 2 * 3 * 8 * 10**5

    def test_sample_floor(self, capsys):
        code, _, _ = run_cli(["haar", "--samples", "1000"], capsys)
        assert code == 2

    def test_superposition_dimension_is_two_to_four(self, capsys):
        code, out, err = run_cli(["haar", "--d", "5", "--dim", "8"], capsys)
        assert code == 2
        assert out == ""
        assert err == "error: d must be 2, 3, or 4\n"

    def test_support_must_stay_below_truncation_edge(self, capsys):
        code, out, err = run_cli(["haar", "--d", "4", "--dim", "5"], capsys)
        assert code == 2
        assert out == ""
        assert err == (
            "error: support dimension 4 is too close to the truncation dim 5;"
            " it must be at most dim - 2\n"
        )

    def test_effect_above_one_is_usage_error(self, capsys):
        # the qpc one-count effect gamma^2 n^2 is 2.25 on |3> at gamma = 0.5
        code, out, err = run_cli(["haar", "--d", "4", "--dim", "6", "--gamma", "0.5"], capsys)
        assert code == 2
        assert out == ""
        assert "effect of outcome '1' is 2.25 > 1 on level 3" in err

    @pytest.mark.parametrize("flags, code", [
        (["--d", "4", "--dim", "5"], 2),
        (["--d", "4", "--dim", "6", "--gamma", "0.5"], 2),
        (["--d", "2", "--gamma", "1.1e-161"], 2),
        (["--d", "3", "--dim", "4"], 2),
        (["--dim", "3"], 2),
        (["--d", "3", "--dim", "2"], 2),
        # gamma^2 underflows to 0, so the one-count effect vanishes on the
        # support (exit 4, zero total probability)
        (["--d", "2", "--gamma", "1e-170"], 4),
    ])
    def test_refuses_the_support_before_the_draw(self, flags, code, capsys, monkeypatch):
        # The draw takes most of the run, so a refusal that needs no draw
        # comes first.  Calling haar_blocks draws nothing; its first block
        # does.
        def draw(*_):
            raise AssertionError("populations drawn before the support was checked")
            yield

        monkeypatch.setattr(metrics, "haar_blocks", draw)
        got, out, err = run_cli(["haar", *flags], capsys)
        assert (got, out) == (code, "")
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("n", [100_000, 114_689, 131_072])
    def test_streamed_gains_equal_the_library(self, d, n, capsys, monkeypatch):
        # The command sums both counters' conditionals over the streamed
        # draw in one pass; its gains are those of streamed_information on
        # the populations of the dense reference draw cut at the same
        # blocks, bit for bit.  114,689 is 7 x 16,384 + 1 rows, whose last
        # block is one row.
        got = []
        streamed = metrics.streamed_information

        def record(*args):
            got.append(streamed(*args))
            return got[-1]

        monkeypatch.setattr(metrics, "streamed_information", record)
        argv = ["haar", "--d", str(d), "--dim", str(d + 2), "--samples", str(n)]
        assert run_cli(argv, capsys)[0] == 0
        (values, batches), = got
        populations = np.abs(haar_states(d, n, 42, d)) ** 2
        effects = np.stack([build_counter(label, 0.3, d + 2).support_effects(d)[1]
                            for label in ("pc", "qpc")])
        want = streamed("1", effects, (populations[a:b] for a, b in block_bounds(n)), n)
        assert (values.tobytes(), batches.tobytes()) == (want[0].tobytes(), want[1].tobytes())

    @pytest.mark.parametrize("d", [3, 4])
    def test_streamed_run_memory_does_not_grow_with_samples(self, d, capsys):
        # Nothing the run holds has the sample's length: block temporaries
        # of BLOCK_ROWS rows set the traced peak, 2.3 MB (d = 3) and 2.9 MB
        # (d = 4) measured at both 10^5 and 10^6 samples.  One float64 per
        # sample would add 8 MB at 10^6, and the pc and qpc conditionals
        # with a posterior took 3.04 x 8n.  The first call pays the lazy
        # imports and caches, so the later ones are traced.  A memory bound,
        # not a timing bound.
        assert run_cli(["haar", "--d", "3"], capsys)[0] == 0
        peaks = []
        for samples in ("100000", "1000000"):
            tracemalloc.start()
            try:
                code = main(["haar", "--d", str(d), "--dim", str(d + 2), "--samples", samples])
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            capsys.readouterr()
            assert code == 0
            peaks.append(peak)
        assert peaks[1] < 1.05 * peaks[0]

    def test_zero_probability_outcome_is_numeric_failure(self, capsys):
        # gamma^2 underflows to 0, so the pc one-count effect vanishes on
        # the support and is refused before the draw.
        code, out, err = run_cli(["haar", "--d", "2", "--gamma", "1e-170"], capsys)
        assert code == 4
        assert out == ""
        assert "outcome '1' has zero total probability" in err


class TestReverse:
    def test_emitting_counter_statistics(self, capsys):
        code, out, _ = run_cli(
            ["reverse", "--counter", "qc", "--samples", "50000"], capsys
        )
        assert code == 0
        row = parse_csv(out)[1]
        analytic, empirical, fidelity = float(row[0]), float(row[1]), float(row[2])
        assert abs(analytic - 2 / 3) < 1e-9
        one_counts = int(row[3])
        sigma = math.sqrt(analytic * (1 - analytic) / one_counts)
        assert abs(empirical - analytic) < 4 * sigma
        assert fidelity > 1 - 1e-10

    def test_no_one_count_is_numeric_failure(self, capsys):
        code, out, err = run_cli(
            ["reverse", "--counter", "qc", "--gamma", "1e-4", "--samples", "10000"], capsys
        )
        assert code == 4
        assert out == ""
        assert "no one-count in 10000 trials" in err

    def test_no_successful_reversal_is_numeric_failure(self, capsys):
        # This seed draws a single one-count, and its reversal fails, so the
        # exit-4 path of a run with no success is exercised (seeds 4, 13, 33
        # and 40 do so among 0-49).
        argv = ["reverse", "--counter", "qc", "--gamma", "0.005", "--samples", "10000"]
        code, out, err = run_cli(argv + ["--seed", "4"], capsys)
        assert code == 4
        assert out == ""
        assert "no successful reversal in 1 one-counts" in err

    @pytest.mark.parametrize("counter", ["qc", "qqc"])
    def test_small_coupling_is_reversible(self, capsys, counter):
        # background gamma^2 = 1e-16 still gives a bounded left inverse; the
        # run then fails only because p(1) ~ 1e-16 draws no one-count
        code, out, err = run_cli(["reverse", "--counter", counter, "--gamma", "1e-8"], capsys)
        assert code == 4
        assert out == ""
        assert "no one-count in 100000 trials" in err

    @pytest.mark.parametrize("counter", ["pc", "qpc"])
    def test_absorbing_counter_exits_nonreversible(self, capsys, counter):
        code, _, err = run_cli(["reverse", "--counter", counter], capsys)
        assert code == 3
        assert "background = 0" in err

    def test_underflowed_background_exits_nonreversible(self, capsys):
        # gamma^2 = 1e-340 underflows to 0, so the qc one-count has no
        # bounded left inverse, as for pc.
        code, out, err = run_cli(["reverse", "--counter", "qc", "--gamma", "1e-170"], capsys)
        assert code == 3
        assert out == ""
        assert err == "error: background = 0; no bounded left inverse on the support\n"

    def test_joint_counter_has_no_one_count_to_reverse(self, capsys):
        # Its double count "11" has a positive background; the command
        # reverses outcome "1", which the joint counter does not have.
        code, out, err = run_cli(["reverse", "--counter", "joint"], capsys)
        assert code == 3
        assert out == ""
        assert err == (
            "error: counter 'joint' has no one-count outcome '1' to reverse;"
            " its outcomes are 00, 01, 10, 11\n"
        )


class TestOutputDiscipline:
    def test_csv_round_trip_is_bit_identical(self, capsys):
        for args in (
            ["metrics", "--counter", "qqc"],
            ["sweep", "--counter", "qc", "--steps", "5"],
            ["posterior", "--counter", "qc"],
        ):
            _, out, _ = run_cli(args, capsys)
            assert reemit_csv(out) == out

    def test_json_round_trip_is_bit_identical(self, capsys):
        from photocount.cli import render_json

        for args in (
            ["metrics", "--counter", "pc", "--format", "json"],
            ["reverse", "--counter", "qqc", "--samples", "10000", "--format", "json"],
        ):
            _, out, _ = run_cli(args, capsys)
            doc = json.loads(out)
            assert render_json(doc) == out

    def test_reruns_and_thread_counts_are_byte_identical(self, capsys):
        base = ["metrics", "--counter", "qqc", "--format", "json"]
        _, first, _ = run_cli(base, capsys)
        _, second, _ = run_cli(base, capsys)
        # BLAS thread counts are compared across fresh processes in
        # TestBlasThreads, since numpy reads them once, at import.
        assert first == second

    def test_output_flag_writes_the_same_bytes(self, tmp_path, capsys):
        target = tmp_path / "report.csv"
        code, out, _ = run_cli(["metrics", "--counter", "qc"], capsys)
        code2, _, _ = run_cli(["metrics", "--counter", "qc", "--output", str(target)], capsys)
        assert code == code2 == 0
        assert target.read_bytes().decode() == out

    def test_environment_sets_no_flag(self, capsys, monkeypatch):
        # neither an invalid format nor another outcome reaches the command
        monkeypatch.setenv("PHOTOCOUNT_FORMAT", "xml")
        monkeypatch.setenv("PHOTOCOUNT_OUTCOME", "0")
        code, out, err = run_cli(["posterior", "--counter", "qc"], capsys)
        assert (code, err) == (0, "")
        assert out == (GOLDEN / "posterior_qc_1.csv").read_text()

    def test_gamma_validation_is_usage_error(self, capsys):
        code, _, _ = run_cli(["metrics", "--gamma", "0.7"], capsys)
        assert code == 2

    @pytest.mark.parametrize("flags,message", [
        (["--theta-nodes", "7"], "at least 8 quadrature nodes are required"),
        (["--dim", "3"], "support dimension 2 is too close to the truncation dim 3;"
                         " it must be at most dim - 2"),
        (["--samples", "0"], "samples must be positive"),
        (["--seed", "-1"], "seed must be non-negative"),
    ])
    def test_shared_flag_range_is_usage_error(self, flags, message, capsys):
        code, out, err = run_cli(["metrics", *flags], capsys)
        assert code == 2
        assert out == ""
        assert err == f"error: {message}\n"

    def test_floating_point_error_is_numeric_failure(self, capsys, monkeypatch):
        def divide_by_zero(args, model, ens):
            return {"value": np.float64(1.0) / np.float64(0.0)}

        _, table = cli.COMMANDS["metrics"]
        monkeypatch.setitem(cli.COMMANDS, "metrics", (divide_by_zero, table))
        code, out, err = run_cli(["metrics"], capsys)
        assert code == 4
        assert out == ""
        assert "divide by zero" in err

    def test_non_finite_number_is_numeric_failure(self, capsys, monkeypatch):
        # A NaN that no numpy operation raised on is refused at the output
        # instead of printed as an empty field.
        _, table = cli.COMMANDS["reverse"]
        monkeypatch.setitem(cli.COMMANDS, "reverse", (lambda *_: {"value": np.float64("nan")}, table))
        for fmt in ("csv", "json"):
            code, out, err = run_cli(["reverse", "--format", fmt], capsys)
            assert code == 4
            assert out == ""
            assert err == "error: cannot print the non-finite number nan\n"

    @pytest.mark.parametrize("message,line", [
        ("Unable to allocate 298. GiB", "error: Unable to allocate 298. GiB\n"),
        ("", "error: out of memory\n"),
    ])
    def test_refused_allocation_is_numeric_failure(self, message, line, capsys, monkeypatch):
        # The stub raises as numpy does when the machine refuses an array,
        # without allocating one.
        def refused(*_):
            raise MemoryError(message)

        _, table = cli.COMMANDS["metrics"]
        monkeypatch.setitem(cli.COMMANDS, "metrics", (refused, table))
        assert run_cli(["metrics"], capsys) == (4, "", line)


class TestTruncationEdge:
    """The truncation edge is checked once, by the model's support_effects,
    and every caller reports it in that one message."""

    @staticmethod
    def edge_message(support_dim, dim):
        with pytest.raises(ValueError) as refused:
            build_counter("pc", 0.3, dim).support_effects(support_dim)
        return str(refused.value)

    def test_library_callers_give_the_one_message(self):
        message = self.edge_message(2, 3)
        assert message == ("support dimension 2 is too close to the truncation dim 3;"
                           " it must be at most dim - 2")
        qc, ens = build_counter("qc", 0.3, 3), bloch_two_state_ensemble(64, 3)
        calls = [
            lambda: evaluate(qc, ens),
            lambda: batched_information([qc], 2, 10_000, 0),
            lambda: build_reversing(qc, "1", 2),
            lambda: trajectory_sim(qc, ens, trials=10_000, seed=0),
        ]
        for call in calls:
            with pytest.raises(ValueError) as refused:
                call()
            assert str(refused.value) == message

    @pytest.mark.parametrize("argv,support_dim,dim", [
        (["posterior", "--dim", "3"], 2, 3),
        (["metrics", "--dim", "3"], 2, 3),
        (["sweep", "--dim", "3"], 2, 3),
        (["reverse", "--counter", "qc", "--dim", "3"], 2, 3),
        (["reverse", "--dim", "3"], 2, 3),
        (["haar", "--d", "4", "--dim", "5"], 4, 5),
    ])
    def test_commands_give_the_one_message(self, argv, support_dim, dim, capsys):
        message = self.edge_message(support_dim, dim)
        assert run_cli(argv, capsys) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("command", list(cli.COMMANDS))
    @pytest.mark.parametrize("flags", [
        *(["--dim", str(dim)] for dim in (-1, 0, 1, 2, 3)),
        *(["--gamma", gamma] for gamma in ("0", "0.6", "nan", "inf", "1e-400")),
        ["--theta-nodes", "7"],
        ["--samples", "0"],
        ["--seed", "-1"],
    ])
    def test_single_fault_is_one_line_usage_error(self, command, flags, capsys):
        # Every command builds the model and the family of the shared flags
        # (haar only checks the family), so each refuses them, also those it
        # does not read.
        code, out, err = run_cli([command, *flags], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")

    @pytest.mark.parametrize("samples", [2**63, 10**20])
    def test_trial_count_past_int64_is_one_line_usage_error(self, samples, capsys):
        # Generator.multinomial raised OverflowError (exit 1, a traceback)
        argv = ["reverse", "--counter", "qc", "--samples", str(samples)]
        assert run_cli(argv, capsys) == (2, "", f"error: trials = {samples} is above 2^63 - 1\n")

    @pytest.mark.parametrize("samples", [2**63, 10**20])
    def test_sample_count_past_int64_is_one_line_usage_error(self, samples, capsys, monkeypatch):
        # haar drew until killed; the refusal comes before any generator is
        # made, so a draw fails this test at once instead of running on.
        def default_rng(*_):
            raise AssertionError("the draw began")

        monkeypatch.setattr(np.random, "default_rng", default_rng)
        argv = ["haar", "--samples", str(samples)]
        assert run_cli(argv, capsys) == (2, "", f"error: n_samples = {samples} is above 2^63 - 1\n")


class TestFreshProcess:
    def test_cli_import_loads_no_scipy(self):
        probe = "import sys, photocount.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        out = subprocess.run([sys.executable, "-c", probe], capture_output=True, check=True).stdout
        assert out == b"[]\n"

    @pytest.mark.parametrize("name,argv", [
        ("metrics_joint", ["metrics", "--counter", "joint"]),
        ("haar_d3", ["haar", "--d", "3"]),
        ("reverse_qqc", ["reverse", "--counter", "qqc"]),
    ])
    def test_commands_run_without_scipy(self, name, argv):
        # None in sys.modules makes every import of scipy raise ImportError.
        probe = ("import sys; sys.modules['scipy'] = None; from photocount.cli import main; "
                 "raise SystemExit(main(sys.argv[1:]))")
        run = subprocess.run([sys.executable, "-c", probe, *argv], capture_output=True)
        assert run.returncode == 0, run.stderr
        assert run.stdout == (GOLDEN / f"{name}.csv").read_bytes()

    def test_haar_builds_no_family(self):
        # haar reads no two-level family, and building one (leggauss) adds
        # 1.7 MiB to the peak RSS of `haar --d 3` (median ru_maxrss of 10
        # fresh processes each way); None blocks numpy.polynomial.
        probe = ("import sys; sys.modules['numpy.polynomial'] = None; from photocount.cli import main; "
                 "raise SystemExit(main(sys.argv[1:]))")
        run = subprocess.run([sys.executable, "-c", probe, "haar", "--d", "3"], capture_output=True)
        assert run.returncode == 0, run.stderr
        assert run.stdout == (GOLDEN / "haar_d3.csv").read_bytes()

    def test_subprocess_rerun_is_byte_identical(self):
        cmd = [sys.executable, "-m", "photocount", "reverse", "--counter", "qqc",
               "--samples", "10000"]
        runs = [subprocess.run(cmd, capture_output=True, check=True).stdout for _ in range(2)]
        assert runs[0] == runs[1]
        assert runs[0].endswith(b"\n")


def blas_env(**preset):
    """This process's environment with none of the BLAS thread variables but
    those given."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARIABLES}
    return {**env, **preset}


class TestBlasThreads:
    PROBE = (
        "import json, os, photocount.cli; "
        "print(json.dumps({k: os.environ.get(k) for k in %r}))" % (BLAS_THREAD_VARIABLES,)
    )

    def cli_import_env(self, **preset):
        cmd = [sys.executable, "-c", self.PROBE]
        out = subprocess.run(cmd, env=blas_env(**preset), capture_output=True, check=True)
        return json.loads(out.stdout)

    def test_one_thread_when_no_variable_is_set(self):
        assert self.cli_import_env() == {
            "OPENBLAS_NUM_THREADS": "1", "GOTO_NUM_THREADS": None, "OMP_NUM_THREADS": None
        }

    def test_explicit_openblas_setting_is_kept(self):
        assert self.cli_import_env(OPENBLAS_NUM_THREADS="3")["OPENBLAS_NUM_THREADS"] == "3"

    @pytest.mark.parametrize("name", ["OMP_NUM_THREADS", "GOTO_NUM_THREADS"])
    def test_other_thread_variable_adds_nothing(self, name):
        expected = {**dict.fromkeys(BLAS_THREAD_VARIABLES), name: "2"}
        assert self.cli_import_env(**{name: "2"}) == expected

    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")
    def test_numpy_starts_no_blas_worker(self):
        probe = "import os, photocount.cli; print(len(os.listdir('/proc/self/task')))"
        out = subprocess.run([sys.executable, "-c", probe], env=blas_env(),
                             capture_output=True, check=True)
        assert out.stdout == b"1\n"

    @pytest.mark.parametrize("argv", [
        ["haar", "--d", "3"],
        ["metrics", "--counter", "joint", "--format", "json"],
    ])
    def test_output_is_the_same_on_one_and_two_blas_threads(self, argv):
        cmd = [sys.executable, "-m", "photocount", *argv]
        outs = [
            subprocess.run(cmd, env=blas_env(OPENBLAS_NUM_THREADS=n), capture_output=True,
                           check=True).stdout
            for n in ("1", "2")
        ]
        assert outs[0] == outs[1] and outs[0]


class TestMeanFidelityNote:
    @pytest.mark.parametrize("name,argv", [
        ("metrics_qqc", ["metrics", "--counter", "qqc"]),
        ("sweep_qqc", ["sweep", "--counter", "qqc", "--steps", "11"]),
    ])
    def test_note_for_means_above_one(self, name, argv, capsys):
        code, out, err = run_cli(argv, capsys)
        assert code == 0
        assert out == (GOLDEN / f"{name}.csv").read_text()
        assert err.count("\n") == 1
        assert err.startswith("note: mean fidelity 1.00802532627 > 1")
        assert "1 + O(gamma^4)" in err and "O(gamma^2)" in err

    @pytest.mark.parametrize("name,argv", [
        ("metrics_pc", ["metrics", "--counter", "pc"]),
        ("sweep_joint", ["sweep", "--counter", "joint", "--steps", "11"]),
    ])
    def test_no_note_for_means_at_most_one(self, name, argv, capsys):
        code, out, err = run_cli(argv, capsys)
        assert code == 0
        assert out == (GOLDEN / f"{name}.csv").read_text()
        assert err == ""
