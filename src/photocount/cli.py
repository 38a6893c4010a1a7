"""Command-line front end emitting figure data and headline numbers.

Subcommands: ``posterior``, ``metrics``, ``sweep``, ``haar``, ``reverse``.
Output is CSV or JSON with numbers printed to 12 significant digits; given
the same flags and seed the output is byte-identical across runs.  Every
flag can be preset through an environment variable with the ``PHOTOCOUNT_``
prefix (e.g. ``PHOTOCOUNT_SEED``).

Exit codes: 0 success, 2 usage error, 3 non-reversible counter requested
for reversal, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import __version__
from .counters import CounterKind
from .ensemble import bloch_two_state_ensemble, haar_ensemble
from .errors import NonReversible, PhotocountError
from .metrics import (
    batched_information,
    full_report,
    gamma_sweep,
    outcome_statistics,
    resolve_model,
    reversibility,
)
from .reversal import trajectory_sim

COUNTER_CHOICES = ("pc", "qc", "qpc", "qqc", "joint")
PRIOR_DENSITY = 1.0 / (4.0 * math.pi)


@dataclass(frozen=True)
class RunConfig:
    counter: str = "pc"
    gamma: float = 0.3
    theta_nodes: int = 64
    dim: int = 5
    format: str = "csv"
    seed: int = 42
    samples: int = 100_000
    threads: int = 1
    output: Optional[str] = None

    def validate(self) -> None:
        if self.counter not in COUNTER_CHOICES:
            raise ValueError(f"counter must be one of {COUNTER_CHOICES}")
        if not 0.0 < self.gamma <= 0.5:
            raise ValueError("gamma must lie in (0, 0.5]")
        if self.theta_nodes < 8:
            raise ValueError("theta-nodes must be at least 8")
        if self.dim < 4:
            raise ValueError("dim must be at least 4")
        if self.samples < 1:
            raise ValueError("samples must be positive")
        if self.threads < 1:
            raise ValueError("threads must be positive")

    def echo(self) -> dict:
        # threads and output are execution details, not part of the result.
        return {
            "counter": self.counter,
            "gamma": self.gamma,
            "theta_nodes": self.theta_nodes,
            "dim": self.dim,
            "format": self.format,
            "seed": self.seed,
            "samples": self.samples,
        }


def _env(name: str, cast, fallback):
    raw = os.environ.get(f"PHOTOCOUNT_{name}")
    if raw is None:
        return fallback
    try:
        return cast(raw)
    except (TypeError, ValueError):
        raise ValueError(f"invalid value {raw!r} for PHOTOCOUNT_{name}") from None


def format_number(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value)).lower()
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        v = float(value)
        if not math.isfinite(v):
            return ""
        return format(v, ".12g")
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
    if value is None:
        return "null"
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        v = float(value)
        return format(v, ".12g") if math.isfinite(v) else "null"
    if isinstance(value, str):
        return json.dumps(value)
    raise TypeError(f"cannot serialize {type(value)!r}")


def _json_emit(value, level: int) -> str:
    pad, inner = "  " * level, "  " * (level + 1)
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [f"{inner}{json.dumps(str(k))}: {_json_emit(v, level + 1)}" for k, v in value.items()]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(value, (list, tuple, np.ndarray)):
        seq = list(value)
        if not seq:
            return "[]"
        if all(not isinstance(v, (dict, list, tuple, np.ndarray)) for v in seq):
            return "[" + ", ".join(_json_scalar(v) for v in seq) + "]"
        return "[\n" + ",\n".join(f"{inner}{_json_emit(v, level + 1)}" for v in seq) + "\n" + pad + "]"
    return _json_scalar(value)


def render_json(obj: dict) -> str:
    return _json_emit(obj, 0) + "\n"


def _bloch_states(degrees: np.ndarray, dim: int) -> np.ndarray:
    thetas = np.deg2rad(degrees)
    states = np.zeros((degrees.size, dim), dtype=complex)
    states[:, 0] = np.cos(thetas / 2.0)
    states[:, 1] = np.sin(thetas / 2.0)
    return states


def cmd_posterior(config: RunConfig, outcome: str):
    """Prior and posterior angular densities for one outcome on a theta grid."""
    model = resolve_model(config.counter, config.gamma, config.dim)
    if outcome not in model.outcomes:
        raise ValueError(f"outcome must be one of {model.outcomes}")
    ens = bloch_two_state_ensemble(config.theta_nodes, config.dim)
    stats = outcome_statistics(model, ens)
    total = stats[model.outcomes.index(outcome)].total

    degrees = np.linspace(0.0, 180.0, 181)
    op = model.operator_for(outcome)
    images = _bloch_states(degrees, config.dim) @ op.entries.T
    conditional = np.sum(np.abs(images) ** 2, axis=1)
    posterior_density = PRIOR_DENSITY * conditional / total

    results = {
        "outcome": outcome,
        "total_probability": total,
        "theta_degrees": degrees,
        "prior_density": [PRIOR_DENSITY] * degrees.size,
        "posterior_density": posterior_density,
    }
    header = ["theta_degrees", "prior_density", "posterior_density"]
    rows = [
        [float(d), PRIOR_DENSITY, float(p)]
        for d, p in zip(degrees, posterior_density)
    ]
    return {"outcome": outcome}, results, (header, rows)


def cmd_metrics(config: RunConfig):
    """Per-outcome and mean figures of merit for one counter."""
    ens = bloch_two_state_ensemble(config.theta_nodes, config.dim)
    report = full_report(config.counter, config.gamma, ens)
    outcomes = {}
    header = [
        "outcome",
        "probability",
        "information_gain",
        "fidelity",
        "reversibility",
        "efficiency",
        "background",
    ]
    rows = []
    for label, m in report.per_outcome.items():
        b = report.backgrounds[label]
        outcomes[label] = {
            "probability": m.probability,
            "information_gain": m.information_gain,
            "fidelity": m.fidelity,
            "reversibility": m.reversibility,
            "efficiency": m.efficiency,
            "background": b,
        }
        rows.append(
            [label, m.probability, m.information_gain, m.fidelity, m.reversibility, m.efficiency, b]
        )
    total_p = sum(m.probability for m in report.per_outcome.values())
    rows.append(
        [
            "mean",
            total_p,
            report.mean_information,
            report.mean_fidelity,
            report.mean_reversibility,
            None,
            None,
        ]
    )
    results = {
        "outcomes": outcomes,
        "means": {
            "probability": total_p,
            "information_gain": report.mean_information,
            "fidelity": report.mean_fidelity,
            "reversibility": report.mean_reversibility,
        },
    }
    return {}, results, (header, rows)


def cmd_sweep(config: RunConfig, gamma_min: float, gamma_max: float, steps: int):
    """Mean quantities across couplings plus fitted gamma^2 coefficients."""
    if not 0.0 < gamma_min < gamma_max <= 0.3:
        raise ValueError("require 0 < gamma-min < gamma-max <= 0.3")
    if steps < 5:
        raise ValueError("at least 5 sweep steps are required")
    ens = bloch_two_state_ensemble(config.theta_nodes, config.dim)
    gammas = np.linspace(gamma_min, gamma_max, steps)
    sweep = gamma_sweep(config.counter, gammas, ens)
    fits = sweep.fits()

    header = ["gamma", "mean_information", "mean_fidelity", "mean_reversibility"]
    rows = [
        [float(g), float(i), float(f), float(r)]
        for g, i, f, r in zip(
            sweep.gammas, sweep.mean_information, sweep.mean_fidelity, sweep.mean_reversibility
        )
    ]
    # Coefficient rows refer to mean information, fidelity loss (1 - F), and
    # reversibility loss (1 - R) in the respective columns.
    rows.append(
        [
            "gamma2_coefficient",
            fits["information"][0],
            fits["fidelity_loss"][0],
            fits["reversibility_loss"][0],
        ]
    )
    rows.append(
        [
            "fit_residual_rms",
            fits["information"][1],
            fits["fidelity_loss"][1],
            fits["reversibility_loss"][1],
        ]
    )
    results = {
        "rows": {
            "gamma": sweep.gammas,
            "mean_information": sweep.mean_information,
            "mean_fidelity": sweep.mean_fidelity,
            "mean_reversibility": sweep.mean_reversibility,
        },
        "fits": {
            "information": {
                "gamma2_coefficient": fits["information"][0],
                "residual_rms": fits["information"][1],
            },
            "fidelity_loss": {
                "gamma2_coefficient": fits["fidelity_loss"][0],
                "residual_rms": fits["fidelity_loss"][1],
            },
            "reversibility_loss": {
                "gamma2_coefficient": fits["reversibility_loss"][0],
                "residual_rms": fits["reversibility_loss"][1],
            },
        },
    }
    return {"gamma_min": gamma_min, "gamma_max": gamma_max, "steps": steps}, results, (header, rows)


def cmd_haar(config: RunConfig, d: int):
    """Monte Carlo one-count information gains on a d-level superposition."""
    if d not in (2, 3, 4):
        raise ValueError("d must be 2, 3, or 4")
    if config.samples < 100_000:
        raise ValueError("at least 10^5 samples are required")
    if config.dim < d + 2:
        raise ValueError("dim must be at least d + 2")
    ens = haar_ensemble(d, config.samples, config.seed, config.dim)
    values = {}
    batches = {}
    for label in ("pc", "qpc"):
        model = resolve_model(label, config.gamma, config.dim)
        value, batch = batched_information(model, ens, outcome="1")
        values[label] = value
        batches[label] = batch
    n_batches = batches["pc"].size
    se = {
        label: float(np.std(batches[label], ddof=1) / np.sqrt(n_batches))
        for label in ("pc", "qpc")
    }
    diff_batches = batches["qpc"] - batches["pc"]
    diff = values["qpc"] - values["pc"]
    diff_se = float(np.std(diff_batches, ddof=1) / np.sqrt(n_batches))

    results = {
        "d": d,
        "samples": config.samples,
        "information_gain": {
            "pc": {"value": values["pc"], "standard_error": se["pc"]},
            "qpc": {"value": values["qpc"], "standard_error": se["qpc"]},
        },
        "difference_qpc_minus_pc": {
            "value": diff,
            "standard_error": diff_se,
            "sign": int(np.sign(diff)),
        },
    }
    header = ["quantity", "value", "standard_error"]
    rows = [
        ["information_gain_pc", values["pc"], se["pc"]],
        ["information_gain_qpc", values["qpc"], se["qpc"]],
        ["difference_qpc_minus_pc", diff, diff_se],
    ]
    return {"d": d}, results, (header, rows)


def cmd_reverse(config: RunConfig):
    """Analytic and Monte Carlo reversal statistics for a reversible counter."""
    if config.counter not in ("qc", "qqc"):
        raise NonReversible(
            f"counter {config.counter!r} has background = 0 for the one-count process"
        )
    kind = CounterKind.parse(config.counter)
    ens = bloch_two_state_ensemble(config.theta_nodes, config.dim)
    model = resolve_model(config.counter, config.gamma, config.dim)
    analytic = reversibility(model, ens, "1")
    sim = trajectory_sim(kind, config.gamma, ens, trials=config.samples, seed=config.seed)
    # The rate and the recovery fidelity are conditional means; without a
    # one-count or a success they are undefined rather than empty fields.
    if sim.one_counts == 0:
        raise PhotocountError(f"no one-count in {sim.trials} trials")
    if sim.successes == 0:
        raise PhotocountError(f"no successful reversal in {sim.one_counts} one-counts")

    results = {
        "analytic_reversibility": analytic,
        "empirical_success_rate": sim.empirical_success_rate,
        "mean_recovery_fidelity": sim.mean_recovery_fidelity,
        "one_counts": sim.one_counts,
        "successes": sim.successes,
        "trials": sim.trials,
        "seed": sim.seed,
    }
    header = [
        "analytic_reversibility",
        "empirical_success_rate",
        "mean_recovery_fidelity",
        "one_counts",
        "successes",
        "trials",
        "seed",
    ]
    rows = [
        [
            analytic,
            sim.empirical_success_rate,
            sim.mean_recovery_fidelity,
            sim.one_counts,
            sim.successes,
            sim.trials,
            sim.seed,
        ]
    ]
    return {}, results, (header, rows)


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--counter",
        choices=COUNTER_CHOICES,
        default=_env("COUNTER", str, "pc"),
        help="counter model (default: pc)",
    )
    common.add_argument("--gamma", type=float, default=_env("GAMMA", float, 0.3))
    common.add_argument(
        "--theta-nodes", type=int, default=_env("THETA_NODES", int, 64)
    )
    common.add_argument("--dim", type=int, default=_env("DIM", int, 5))
    common.add_argument(
        "--format",
        choices=("csv", "json"),
        default=_env("FORMAT", str, "csv"),
    )
    common.add_argument("--seed", type=int, default=_env("SEED", int, 42))
    common.add_argument(
        "--samples",
        type=int,
        default=_env("SAMPLES", int, 100_000),
        help="Monte Carlo sample / trial count",
    )
    common.add_argument("--threads", type=int, default=_env("THREADS", int, 1))
    common.add_argument("--output", default=_env("OUTPUT", str, None))

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
    p.add_argument("--gamma-max", type=float, default=0.3)
    p.add_argument("--steps", type=int, default=11)

    p = sub.add_parser("haar", parents=[common], help="d-level Monte Carlo information gains")
    p.add_argument("--d", type=int, default=3, help="superposition dimension (2-4)")

    sub.add_parser("reverse", parents=[common], help="reversal statistics for qc/qqc")
    return parser


def _dispatch(args: argparse.Namespace):
    config = RunConfig(
        counter=args.counter,
        gamma=args.gamma,
        theta_nodes=args.theta_nodes,
        dim=args.dim,
        format=args.format,
        seed=args.seed,
        samples=args.samples,
        threads=args.threads,
        output=args.output,
    )
    config.validate()
    if args.command == "posterior":
        extra, results, table = cmd_posterior(config, args.outcome)
    elif args.command == "metrics":
        extra, results, table = cmd_metrics(config)
    elif args.command == "sweep":
        extra, results, table = cmd_sweep(config, args.gamma_min, args.gamma_max, args.steps)
    elif args.command == "haar":
        extra, results, table = cmd_haar(config, args.d)
    elif args.command == "reverse":
        extra, results, table = cmd_reverse(config)
    else:  # pragma: no cover - argparse enforces the choices
        raise ValueError(f"unknown command {args.command!r}")

    if config.format == "json":
        payload = {
            "command": args.command,
            "config": {**config.echo(), **extra},
            "results": results,
            "version": __version__,
        }
        text = render_json(payload)
    else:
        header, rows = table
        text = render_csv(header, rows)

    if config.output:
        with open(config.output, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def main(argv: Optional[list[str]] = None) -> int:
    try:
        parser = build_parser()
        args = parser.parse_args(argv)
    except ValueError as exc:  # bad environment override
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        _dispatch(args)
    except NonReversible as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (PhotocountError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
