"""Command-line front end emitting figure data and headline numbers.

Subcommands: ``posterior``, ``metrics``, ``sweep``, ``haar``, ``reverse``.
Output is CSV or JSON with numbers printed to 12 significant digits; given
the same flags and seed the output is byte-identical across runs.

Importing this module loads numpy's OpenBLAS with one thread unless the
caller has set ``OPENBLAS_NUM_THREADS``, ``GOTO_NUM_THREADS`` or
``OMP_NUM_THREADS``.

The library builds the model and the family of the shared flags once per
call (haar its own two models and no family), and its checks refuse their
out-of-range values.  Each command returns one results record: the JSON
output prints it, and the CSV output is a table view of it, so no value is
named twice.  A printed mean
fidelity above 1 adds one note on stderr; stdout keeps its bytes.

Exit codes: 0 success, 2 usage error, 3 non-reversible counter requested
for reversal, 4 numeric failure or an allocation the machine refused.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from dataclasses import asdict
from typing import Optional

# OpenBLAS reads these variables once, when numpy loads it, so this runs
# before the first import that pulls numpy in. Every command does its linear
# algebra on small operators or memory-bound arrays, where a second BLAS
# thread only spins; a caller's own setting is kept.
_BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
if not any(name in os.environ for name in _BLAS_THREAD_VARIABLES):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402

from . import __version__  # noqa: E402
from .counters import LABELS, MeasurementModel, build_counter  # noqa: E402
from .ensemble import Ensemble, bloch_two_state_ensemble, check_bloch_family  # noqa: E402
from .errors import NonReversible, PhotocountError, ZeroProbability  # noqa: E402
from .metrics import batched_information, evaluate, gamma_sweep  # noqa: E402
from .reversal import trajectory_sim  # noqa: E402

PRIOR_DENSITY = 1.0 / (4.0 * math.pi)


def format_number(value) -> str:
    """value as printed; None is an empty field, and a non-finite float is
    refused (exit 4) rather than printed as one."""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        if not math.isfinite(value):
            raise PhotocountError(f"cannot print the non-finite number {float(value)!r}")
        return format(float(value), ".12g")
    if value is None:
        return ""
    return str(value)


def render_csv(header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([format_number(v) for v in row])
    return buf.getvalue()


def _json_scalar(value) -> str:
    # JSON differs from CSV only in quoting strings and writing null for "".
    if isinstance(value, str):
        return json.dumps(value)
    return format_number(value) or "null"


def _json_emit(value, level: int) -> str:
    # A record nests non-empty dicts, and its lists hold numbers only.
    pad, inner = "  " * level, "  " * (level + 1)
    if isinstance(value, dict):
        items = [f"{inner}{json.dumps(str(k))}: {_json_emit(v, level + 1)}" for k, v in value.items()]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(value, (list, tuple, np.ndarray)):
        return "[" + ", ".join(_json_scalar(v) for v in value) + "]"
    return _json_scalar(value)


def render_json(obj: dict) -> str:
    return _json_emit(obj, 0) + "\n"


def _note_mean_fidelity_above_one(means) -> None:
    """One stderr note when a mean fidelity, as printed, exceeds 1."""
    top = max(float(format(float(v), ".12g")) for v in means)
    if top > 1.0:
        print(f"note: mean fidelity {top:.12g} > 1: the order-gamma^2 no-count operators give"
              " sum_m p(m) = 1 + O(gamma^4), so the means hold to O(gamma^2)", file=sys.stderr)


def cmd_posterior(args: argparse.Namespace, model: MeasurementModel, ens: Ensemble) -> dict:
    """Prior and posterior angular densities for one outcome on a theta grid."""
    if args.outcome not in model.outcomes:
        raise ValueError(f"outcome must be one of {model.outcomes}")
    # Both levels' populations against the outcome's diagonal effect give
    # p(m|theta) on the quadrature and on the printed grid.
    effect = model.support_effects(ens.support_dim)[model.outcomes.index(args.outcome)]
    total = float(ens.weights @ (ens.populations @ effect))
    if total <= 0.0:
        raise ZeroProbability(f"outcome {args.outcome!r} has zero total probability")

    degrees = np.linspace(0.0, 180.0, 181)
    half = np.deg2rad(degrees) / 2.0
    conditional = np.cos(half) ** 2 * effect[0] + np.sin(half) ** 2 * effect[1]
    return {
        "outcome": args.outcome,
        "total_probability": total,
        "theta_degrees": degrees,
        "prior_density": [PRIOR_DENSITY] * degrees.size,
        "posterior_density": PRIOR_DENSITY * conditional / total,
    }


def _posterior_table(results: dict):
    header = ["theta_degrees", "prior_density", "posterior_density"]
    return header, list(zip(*(results[name] for name in header)))


def cmd_metrics(args: argparse.Namespace, model: MeasurementModel, ens: Ensemble) -> dict:
    """Per-outcome and mean figures of merit for one counter."""
    report = evaluate(model, ens)
    _note_mean_fidelity_above_one([report.mean_fidelity])
    return {
        "outcomes": {
            label: {**asdict(m), "background": report.backgrounds[label]}
            for label, m in report.per_outcome.items()
        },
        "means": {
            "probability": sum(m.probability for m in report.per_outcome.values()),
            "information_gain": report.mean_information,
            "fidelity": report.mean_fidelity,
            "reversibility": report.mean_reversibility,
        },
    }


def _metrics_table(results: dict):
    outcomes = results["outcomes"]
    header = ["outcome", *next(iter(outcomes.values()))]
    rows = [[label, *m.values()] for label, m in outcomes.items()]
    rows.append(["mean", *(results["means"].get(name) for name in header[1:])])
    return header, rows


def cmd_sweep(args: argparse.Namespace, model: MeasurementModel, ens: Ensemble) -> dict:
    """Mean quantities across couplings plus fitted gamma^2 coefficients."""
    # The cap bounds the drift of the fitted coefficients (--gamma-max help).
    if not 0.0 < args.gamma_min < args.gamma_max <= 0.3:
        raise ValueError("require 0 < gamma-min < gamma-max <= 0.3")
    if args.steps < 5:
        raise ValueError("at least 5 sweep steps are required")
    sweep = gamma_sweep(args.counter, np.linspace(args.gamma_min, args.gamma_max, args.steps), ens)
    _note_mean_fidelity_above_one(sweep.mean_fidelity)
    return {
        "rows": {
            "gamma": sweep.gammas,
            "mean_information": sweep.mean_information,
            "mean_fidelity": sweep.mean_fidelity,
            "mean_reversibility": sweep.mean_reversibility,
        },
        "fits": {
            name: {"gamma2_coefficient": coefficient, "residual_rms": rms}
            for name, (coefficient, rms) in sweep.fits().items()
        },
    }


def _sweep_table(results: dict):
    columns = results["rows"]
    rows = [list(row) for row in zip(*columns.values())]
    # Coefficient rows refer to mean information, fidelity loss (1 - F), and
    # reversibility loss (1 - R) in the respective columns.
    for label, key in (("gamma2_coefficient", "gamma2_coefficient"), ("fit_residual_rms", "residual_rms")):
        rows.append([label, *(fit[key] for fit in results["fits"].values())])
    return list(columns), rows


def cmd_haar(args: argparse.Namespace, *_) -> dict:
    """Monte Carlo one-count information gains on a d-level superposition."""
    if args.d not in (2, 3, 4):
        raise ValueError("d must be 2, 3, or 4")
    if args.samples < 100_000:
        raise ValueError("at least 10^5 samples are required")
    # The support and a vanishing effect are refused before the draw, which
    # takes most of the time; the gains read each block of it once.
    labels = ("pc", "qpc")
    models = [build_counter(label, args.gamma, args.dim) for label in labels]
    gains, batches = batched_information(models, args.d, args.samples, args.seed)
    values, batches = dict(zip(labels, gains.tolist())), dict(zip(labels, batches))

    def standard_error(batch: np.ndarray) -> float:
        return float(np.std(batch, ddof=1) / np.sqrt(batch.size))

    diff = values["qpc"] - values["pc"]
    return {
        "d": args.d,
        "samples": args.samples,
        "information_gain": {
            label: {"value": values[label], "standard_error": standard_error(batches[label])}
            for label in labels
        },
        "difference_qpc_minus_pc": {
            "value": diff,
            "standard_error": standard_error(batches["qpc"] - batches["pc"]),
            "sign": int(np.sign(diff)),
        },
    }


def _haar_table(results: dict):
    gains = results["information_gain"]
    rows = [[f"information_gain_{label}", g["value"], g["standard_error"]] for label, g in gains.items()]
    diff = results["difference_qpc_minus_pc"]
    rows.append(["difference_qpc_minus_pc", diff["value"], diff["standard_error"]])
    return ["quantity", "value", "standard_error"], rows


def cmd_reverse(args: argparse.Namespace, model: MeasurementModel, ens: Ensemble) -> dict:
    """The analytic reversibility of the one-count beside the Monte Carlo
    record of trajectory_sim, which refuses every run it cannot report."""
    sim = trajectory_sim(model, ens, trials=args.samples, seed=args.seed)
    analytic = evaluate(model, ens).per_outcome["1"].reversibility
    return {"analytic_reversibility": analytic, **asdict(sim)}


def _reverse_table(results: dict):
    return list(results), [list(results.values())]


# name -> (command of the flags, model and family, CSV view of its results)
COMMANDS = {
    "posterior": (cmd_posterior, _posterior_table),
    "metrics": (cmd_metrics, _metrics_table),
    "sweep": (cmd_sweep, _sweep_table),
    "haar": (cmd_haar, _haar_table),
    "reverse": (cmd_reverse, _reverse_table),
}


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--counter", choices=LABELS, default="pc", help="counter model (default: pc)"
    )
    common.add_argument("--gamma", type=float, default=0.3)
    common.add_argument("--theta-nodes", type=int, default=64)
    common.add_argument("--dim", type=int, default=5)
    common.add_argument("--format", choices=("csv", "json"), default="csv")
    common.add_argument("--seed", type=int, default=42)
    common.add_argument(
        "--samples", type=int, default=100_000, help="Monte Carlo sample / trial count"
    )
    common.add_argument("--output")

    parser = argparse.ArgumentParser(
        prog="photocount",
        description="Photodetection information, fidelity, and reversibility figures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("posterior", parents=[common], help="angular posterior densities")
    p.add_argument("--outcome", default="1", help="outcome label (default: 1)")

    sub.add_parser("metrics", parents=[common], help="per-outcome report for one counter")

    p = sub.add_parser("sweep", parents=[common], help="mean quantities across couplings")
    p.add_argument("--gamma-min", type=float, default=0.05)
    p.add_argument(
        "--gamma-max",
        type=float,
        default=0.3,
        help="at most 0.3 (default): the fit c gamma^2 + d gamma^4 absorbs the"
        " higher orders, and above 0.3 the qqc information coefficient drifts"
        " more than 1e-3 from its closed form (1.7e-2 at 0.5)",
    )
    p.add_argument("--steps", type=int, default=11)

    p = sub.add_parser("haar", parents=[common], help="d-level Monte Carlo information gains")
    p.add_argument("--d", type=int, default=3, help="superposition dimension (2-4)")

    sub.add_parser("reverse", parents=[common], help="reversal statistics for qc/qqc")
    return parser


def _dispatch(args: argparse.Namespace):
    # No library call reads --samples or --seed for posterior, metrics or
    # sweep, so every command refuses them here.
    if args.samples < 1:
        raise ValueError("samples must be positive")
    if args.seed < 0:
        raise ValueError("seed must be non-negative")
    model = ens = None
    if args.command == "haar":
        # haar builds its own pc and qpc models, which refuse --gamma and
        # --dim, and only checks the family: a build adds 1.7 MiB to its RSS.
        check_bloch_family(args.theta_nodes, args.dim)
    else:
        model = build_counter(args.counter, args.gamma, args.dim)
        ens = bloch_two_state_ensemble(args.theta_nodes, args.dim)
    command, table = COMMANDS[args.command]
    results = command(args, model, ens)

    if args.format == "json":
        payload = {
            "command": args.command,
            # every flag in the parser's order, but the output path
            "config": {k: v for k, v in vars(args).items() if k not in ("command", "output")},
            "results": results,
            "version": __version__,
        }
        text = render_json(payload)
    else:
        text = render_csv(*table(results))

    if args.output:
        with open(args.output, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # Overflow, division by zero and invalid operations raise
        # FloatingPointError where they happen, not at the output.
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            _dispatch(args)
    except NonReversible as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (PhotocountError, FloatingPointError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
