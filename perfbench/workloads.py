"""The benchmark's workloads: one op cycle each, made from the workload seed.

All three are closed loops: one client issues the next op only when the
previous one has finished, and whole cycles repeat until the run's time is
up (``run_cycles``).  The workload seed reaches the program only as the ``--seed`` of the Monte
Carlo calls (``haar``, ``reverse``) and as the order of the library ops; the
program never sees the benchmark's own arguments.
"""

from __future__ import annotations

import random
import time
from typing import Callable

LABELS = ("pc", "qc", "qpc", "qqc", "joint")

# cli_figures: each op is one fresh-process CLI call, cycling through the
# README figure mix at default sizes.  This is how the tool is used: import
# plus argparse is about 75-90% of each call (`import photocount.cli` takes
# 0.33-0.52 s and loads 449 modules, 85 of them scipy) and `metrics` work is
# under 1%, so taking scipy off the runtime path and the CLI refactor show
# here, and a one-pass evaluation of the metrics should not.
def cli_figures(seed: int) -> list[list[str]]:
    ops = [
        ["posterior", "--counter", "qc", "--outcome", "1"],
        ["posterior", "--counter", "qqc", "--outcome", "0"],
    ]
    for label in LABELS:
        ops.append(["metrics", "--counter", label])
        ops.append(["metrics", "--counter", label, "--format", "json"])
    ops += [
        ["sweep", "--counter", "qqc", "--steps", "11"],
        ["sweep", "--counter", "joint", "--steps", "11"],
        ["reverse", "--counter", "qc", "--seed", str(seed)],
        ["reverse", "--counter", "qqc", "--seed", str(seed)],
        ["haar", "--d", "3", "--seed", str(seed)],
    ]
    return ops


# monte_carlo_large: each op is one fresh-process CLI call on 10^6 or more
# samples.  `haar_ensemble`, `batched_information` and `trajectory_sim`
# dominate (about 0.35 s, 0.4-0.8 s and 0.4 s of 0.9-1.5 s per call).  The
# 80-96 MB state arrays are far larger than the 4 MiB L2 and peak RSS is
# 190-352 MB, so storing populations or support columns shows here in time
# and memory, and the import change shows less.
def monte_carlo_large(seed: int) -> list[list[str]]:
    s = str(seed)
    return [
        ["haar", "--d", "3", "--samples", "1000000", "--seed", s],
        ["haar", "--d", "4", "--dim", "6", "--samples", "1000000", "--seed", s],
        ["reverse", "--counter", "qqc", "--samples", "4000000", "--seed", s],
        ["reverse", "--counter", "qc", "--samples", "4000000", "--seed", s],
    ]


# Warm-up call of the CLI workloads: fills the page cache and writes the
# bytecode cache through the same import path, at negligible compute.
CLI_WARMUP = ["metrics", "--counter", "pc"]

# library_reports: each op is one in-process `full_report` or `gamma_sweep`
# call.  Here the metrics layer runs on small arrays many times, the opposite
# use from monte_carlo_large, so a change that helps one use and hurts the
# other shows up.  Import is paid once, in setup_s.  Per report about 55%
# goes to `fock.min_eigenvalue` (via `metrics.background`) and about 26% to
# redundant `outcome_statistics` calls.
REPORT_GAMMAS = [0.02 + (0.3 - 0.02) * i / 39 for i in range(39)] + [0.3]
SWEEP_GAMMAS = (0.05, 0.3, 11)  # linspace arguments of the 11-step sweep
QUADRATURES = ((64, 5), (256, 8))  # (theta nodes, truncation dim)


def library_reports(seed: int) -> list[tuple]:
    """Ops ("report", label, gamma, quadrature) and ("sweep", label, None,
    quadrature): per quadrature and label, the 40-point gamma grid on
    [0.02, 0.3] plus one 11-step sweep, in an order shuffled by the seed."""
    ops = []
    for quad in QUADRATURES:
        for label in LABELS:
            ops += [("report", label, g, quad) for g in REPORT_GAMMAS]
            ops.append(("sweep", label, None, quad))
    random.Random(seed).shuffle(ops)
    return ops


CLI_WORKLOADS = {"cli_figures": cli_figures, "monte_carlo_large": monte_carlo_large}
WORKLOADS = (*CLI_WORKLOADS, "library_reports")


def run_cycles(seconds: float, cycle: Callable[[], None]) -> float:
    """Run whole cycles, stopping at the cycle boundary nearest to ``seconds``
    (after at least one); returns the wall time taken.  Whole cycles keep
    the op mix, and with it the median of a mixed workload, the same in
    every run."""
    start = time.perf_counter()
    while True:
        cycle_start = time.perf_counter()
        cycle()
        now = time.perf_counter()
        if now - start + (now - cycle_start) / 2 >= seconds:
            return now - start
