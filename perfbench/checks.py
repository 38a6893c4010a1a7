"""Output checks for every benchmark op, at the acceptance suite's tolerances.

``check_cli`` parses one CLI output and ``check_report`` / ``check_sweep``
check one library result.  Each returns a list of failure messages, empty
when the output is correct.  ``context`` maps the argv tuples of other ops
of the same run to their output bytes, for the checks that compare two
commands (CSV against JSON, a sweep row against the report at the same
coupling).  Only the standard library is used here, so run.py itself
never imports numpy.
"""

from __future__ import annotations

import csv
import io
import json
import math

LN2 = math.log(2.0)
BETA_34_32 = math.gamma(0.75) * math.gamma(1.5) / math.gamma(2.25)

# One-count information gain, fidelity and reversibility at every coupling,
# and the one-count probability over gamma^2, on the uniform two-level family.
ONE_COUNT = {
    "pc": (1 - 1 / (2 * LN2), 8 / 15, 0.0, 0.5),
    "qc": (7 / 3 - 1 / (2 * LN2) - math.log2(3), BETA_34_32 / 3, 2 / 3, 1.5),
    "qpc": (1 - 1 / (2 * LN2), 4 / 5, 0.0, 0.5),
    "qqc": (47 / 15 - 1 / (2 * LN2) - math.log2(5), 652 / 675, 2 / 5, 2.5),
}
ONE_COUNT_TOL = (1e-9, 1e-9, 1e-12, 1e-12)
# The double count "11" of joint is proportional to the qqc one-count.
JOINT_ONE_COUNT = "11"

# gamma^2 coefficients of mean information, fidelity loss, reversibility loss.
SWEEP_COEFFICIENTS = {
    "pc": (0.139, 7 / 30, 1.0),
    "qc": (0.0405, 1.02, 1.0),
    "qpc": (0.139, 0.1, 1.0),
    "qqc": (0.225, 23 / 270, 3.0),
}
SWEEP_TOL = (2e-3, 2e-3, 2e-2)

REVERSIBLE = {"qc": 2 / 3, "qqc": 2 / 5}
RECOVERY_FLOOR = 1 - 1e-10
MC_SIGMAS = 4.0
HAAR_SIGMAS = 3.0
# Haar d=3, 10^6 samples, seed 42, dim 5.
HAAR_D3_SEED42 = {"pc": 0.1308752558195372, "qpc": 0.19389342227108106}

PRIOR_DENSITY = 1 / (4 * math.pi)
CLI_DEFAULTS = {"counter": "pc", "gamma": 0.3, "theta_nodes": 64, "dim": 5,
                "seed": 42, "samples": 100_000, "outcome": "1", "d": 3}


def _close(value: float, target: float, tol: float) -> bool:
    return math.isfinite(value) and abs(value - target) <= tol


def cli_options(argv: list[str]) -> dict:
    """Subcommand and flag values of a CLI argv, defaults filled in."""
    opts = dict(CLI_DEFAULTS, command=argv[0], format="csv")
    for flag, value in zip(argv[1::2], argv[2::2]):
        key = flag.lstrip("-").replace("-", "_")
        default = opts.get(key)
        opts[key] = type(default)(value) if isinstance(default, (int, float)) else value
    return opts


def _csv_rows(text: str) -> list[list[str]]:
    return list(csv.reader(io.StringIO(text)))


def _one_count_errors(label: str, gamma: float, outcome: dict) -> list[str]:
    """outcome holds probability, information_gain, fidelity, reversibility."""
    ref = "qqc" if label == "joint" else label
    gain, fid, rev, prob = ONE_COUNT[ref]
    expected = {"information_gain": gain, "fidelity": fid, "reversibility": rev}
    if label != "joint":
        expected["probability"] = prob * gamma * gamma
    tols = dict(zip(("information_gain", "fidelity", "reversibility", "probability"),
                    ONE_COUNT_TOL))
    return [
        f"{label} one-count {key} = {outcome[key]!r}, expected {target!r}"
        for key, target in expected.items()
        if not _close(float(outcome[key]), target, tols[key])
    ]


def _sweep_errors(label: str, coefficients: tuple[float, float, float]) -> list[str]:
    if label not in SWEEP_COEFFICIENTS:
        return []
    names = ("information", "fidelity_loss", "reversibility_loss")
    return [
        f"{label} sweep {name} gamma^2 coefficient {got!r}, expected {want!r}"
        for name, got, want, tol in zip(
            names, coefficients, SWEEP_COEFFICIENTS[label], SWEEP_TOL)
        if not _close(got, want, tol)
    ]


# ---------------------------------------------------------------- CLI ----

def _check_posterior(opts: dict, text: str, context: dict) -> list[str]:
    label, outcome, gamma = opts["counter"], opts["outcome"], opts["gamma"]
    g2 = gamma * gamma
    # p(m|theta) = A cos^2(theta/2) + B sin^2(theta/2) for the diagonal counters.
    coeffs = {
        ("pc", "1"): (0.0, g2), ("pc", "0"): (1.0, (1 - g2 / 2) ** 2),
        ("qc", "1"): (g2, 2 * g2), ("qc", "0"): ((1 - g2 / 2) ** 2, (1 - g2) ** 2),
        ("qpc", "1"): (0.0, g2), ("qpc", "0"): (1.0, (1 - g2 / 2) ** 2),
        ("qqc", "1"): (g2, 4 * g2), ("qqc", "0"): ((1 - g2 / 2) ** 2, (1 - 2 * g2) ** 2),
    }.get((label, outcome))
    if coeffs is None:
        return [f"no closed form for posterior {label}/{outcome}"]
    a, b = coeffs
    rows = _csv_rows(text)
    if rows[0] != ["theta_degrees", "prior_density", "posterior_density"] or len(rows) != 182:
        return ["posterior table has the wrong header or row count"]
    errors = []
    for i, row in enumerate(rows[1:]):
        theta, prior, post = (float(v) for v in row)
        c2 = math.cos(math.radians(theta) / 2) ** 2
        want = PRIOR_DENSITY * (a * c2 + b * (1 - c2)) / ((a + b) / 2)
        if (theta != i or not _close(prior, PRIOR_DENSITY, 1e-12)
                or not _close(post, want, 1e-9 * want + 1e-15)):
            errors.append(f"posterior row {i}: {row}, expected posterior {want!r}")
            break
    return errors


def _metrics_table(opts: dict, text: str) -> tuple[dict, dict]:
    """Per-outcome and mean values of a metrics output, in either format."""
    if opts["format"] == "json":
        doc = json.loads(text)
        return doc["results"]["outcomes"], doc["results"]["means"]
    rows = _csv_rows(text)
    header = rows[0]
    table = {row[0]: {k: (float(v) if v else None) for k, v in zip(header[1:], row[1:])}
             for row in rows[1:]}
    return table, table.pop("mean")


def _check_metrics(opts: dict, text: str, context: dict) -> list[str]:
    label = opts["counter"]
    outcomes, means = _metrics_table(opts, text)
    key = JOINT_ONE_COUNT if label == "joint" else "1"
    errors = _one_count_errors(label, opts["gamma"], outcomes[key])
    if opts["format"] == "json":
        config = json.loads(text)["config"]
        for name in ("counter", "gamma", "theta_nodes", "dim", "seed", "samples"):
            if config[name] != opts[name]:
                errors.append(f"config {name} = {config[name]!r}, expected {opts[name]!r}")
        twin = context.get(("metrics", "--counter", label))
        if twin is not None:
            csv_outcomes, csv_means = _metrics_table(
                cli_options(["metrics", "--counter", label]), twin.decode())
            if csv_outcomes != outcomes or any(csv_means[k] != v for k, v in means.items()):
                errors.append(f"metrics {label}: JSON and CSV values differ")
    return errors


def _check_sweep(opts: dict, text: str, context: dict) -> list[str]:
    label = opts["counter"]
    rows = _csv_rows(text)
    steps = int(opts.get("steps", 11))
    if rows[0] != ["gamma", "mean_information", "mean_fidelity", "mean_reversibility"] \
            or len(rows) != steps + 3 or rows[-2][0] != "gamma2_coefficient":
        return ["sweep table has the wrong header or row count"]
    errors = _sweep_errors(label, tuple(float(v) for v in rows[-2][1:]))
    metrics = context.get(("metrics", "--counter", label))
    if metrics is not None and float(rows[-3][0]) == opts["gamma"]:
        means = next(r for r in _csv_rows(metrics.decode()) if r[0] == "mean")
        if rows[-3][1:] != [means[2], means[3], means[4]]:
            errors.append(f"sweep {label} row at gamma {rows[-3][0]} differs from metrics means")
    return errors


def _check_haar(opts: dict, text: str, context: dict) -> list[str]:
    rows = {r[0]: (float(r[1]), float(r[2])) for r in _csv_rows(text)[1:]}
    pc, qpc = rows["information_gain_pc"][0], rows["information_gain_qpc"][0]
    diff, diff_se = rows["difference_qpc_minus_pc"]
    errors = []
    if not diff > HAAR_SIGMAS * diff_se:
        errors.append(f"qpc - pc gain {diff!r} is not above {HAAR_SIGMAS} se ({diff_se!r})")
    if not _close(diff, qpc - pc, 1e-11):
        errors.append("difference row is not qpc - pc")
    if (opts["seed"], opts["samples"], opts["d"], opts["dim"]) == (42, 1_000_000, 3, 5):
        for label, got in (("pc", pc), ("qpc", qpc)):
            anchor = HAAR_D3_SEED42[label]
            if not _close(got, anchor, 1e-9 * anchor):
                errors.append(f"haar d=3 seed 42 {label} gain {got!r}, anchor {anchor!r}")
    return errors


def _check_reverse(opts: dict, text: str, context: dict) -> list[str]:
    rows = _csv_rows(text)
    row = dict(zip(rows[0], rows[1]))
    target = REVERSIBLE[opts["counter"]]
    analytic = float(row["analytic_reversibility"])
    rate = float(row["empirical_success_rate"])
    fidelity = float(row["mean_recovery_fidelity"])
    ones, successes = int(row["one_counts"]), int(row["successes"])
    sigma = math.sqrt(target * (1 - target) / ones) if ones else math.inf
    errors = []
    if not _close(analytic, target, 1e-12):
        errors.append(f"analytic reversibility {analytic!r}, expected {target!r}")
    if not _close(rate, target, MC_SIGMAS * sigma):
        errors.append(f"success rate {rate!r} is more than {MC_SIGMAS} sigma from {target!r}")
    if not fidelity >= RECOVERY_FLOOR:
        errors.append(f"mean recovery fidelity {fidelity!r} < {RECOVERY_FLOOR!r}")
    if not _close(rate, successes / ones, 1e-11):
        errors.append("success rate is not successes / one_counts")
    if (int(row["trials"]), int(row["seed"])) != (opts["samples"], opts["seed"]):
        errors.append("trials or seed differ from the request")
    return errors


_CLI_CHECKS = {
    "posterior": _check_posterior,
    "metrics": _check_metrics,
    "sweep": _check_sweep,
    "haar": _check_haar,
    "reverse": _check_reverse,
}


def check_cli(argv: list[str], returncode: int, stdout: bytes, context: dict) -> list[str]:
    """Failures of one CLI call: nonzero exit, or an output off its anchors."""
    if returncode != 0:
        return [f"exit code {returncode}"]
    try:
        return _CLI_CHECKS[argv[0]](cli_options(argv), stdout.decode(), context)
    except (ValueError, KeyError, IndexError, StopIteration, TypeError,
            ZeroDivisionError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]


# ------------------------------------------------------------ library ----

def report_values(report) -> dict:
    """Plain-float view of a CounterReport."""
    return {
        "per_outcome": {
            k: {f: (None if getattr(m, f) is None else float(getattr(m, f)))
                for f in ("probability", "information_gain", "fidelity",
                          "reversibility", "efficiency")}
            for k, m in report.per_outcome.items()
        },
        "means": (float(report.mean_information), float(report.mean_fidelity),
                  float(report.mean_reversibility)),
        "backgrounds": {k: float(v) for k, v in report.backgrounds.items()},
    }


def sweep_values(sweep) -> dict:
    """Plain-float view of a SweepResult and its fits."""
    fits = sweep.fits()
    return {
        "gammas": [float(g) for g in sweep.gammas],
        "rows": [tuple(float(x) for x in r) for r in
                 zip(sweep.mean_information, sweep.mean_fidelity, sweep.mean_reversibility)],
        "coefficients": tuple(float(fits[k][0]) for k in
                              ("information", "fidelity_loss", "reversibility_loss")),
    }


def check_report(label: str, gamma: float, values: dict) -> list[str]:
    key = JOINT_ONE_COUNT if label == "joint" else "1"
    return _one_count_errors(label, gamma, values["per_outcome"][key])


def check_sweep(label: str, values: dict, report_at_last_gamma: dict | None) -> list[str]:
    errors = _sweep_errors(label, values["coefficients"])
    if report_at_last_gamma is not None and values["rows"][-1] != report_at_last_gamma["means"]:
        errors.append(f"sweep {label} last row differs from full_report at gamma "
                      f"{values['gammas'][-1]!r}")
    return errors
