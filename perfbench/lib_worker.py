"""One process of the library_reports workload.

Imports the package, builds the quadrature families, warms up, then runs
whole cycles of in-process `full_report` / `gamma_sweep` ops until its share
of the run is used.  With ``--trace 1`` it first runs untraced cycles for
half the time, then wraps the package's public functions and runs traced
cycles for the other half.  Prints one JSON document on stdout.

    python3 perfbench/lib_worker.py --seed 1 --seconds 10 --trace 0 --t0 <epoch>

``--t0`` is the wall-clock time at which the parent started this process,
so that ``setup_s`` includes interpreter start-up and import.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time

_MODULES = len(sys.modules)
_START = time.perf_counter()
import photocount.cli  # noqa: E402  (timed as the import layer)
IMPORT_S = time.perf_counter() - _START
IMPORT_MODULES = len(sys.modules) - _MODULES

import numpy as np  # noqa: E402

import photocount as pc  # noqa: E402
from checks import check_report, check_sweep, report_values, sweep_values  # noqa: E402
from spans import Tracer, Totals  # noqa: E402
from workloads import (  # noqa: E402
    QUADRATURES, SWEEP_GAMMAS, library_reports, run_cycles)

# Warm-up reports use the sweeps' last coupling, so that each sweep's last
# row can be checked against the report there.
LAST_SWEEP_GAMMA = SWEEP_GAMMAS[1]


def run_op(op, ensembles, sweep_gammas):
    kind, label, gamma, quad = op
    if kind == "report":
        return pc.full_report(label, gamma, ensembles[quad])
    return pc.gamma_sweep(label, sweep_gammas, ensembles[quad])


class Checker:
    """Checks each result as it arrives, keeping only the first result of
    each op: anchor checks, identical repeats, and each sweep's last row
    against the report at that coupling."""

    def __init__(self):
        self.first: dict[tuple, dict] = {}
        self.attempted = 0
        self.failures: list[str] = []

    def add(self, op, result) -> None:
        kind, label, gamma, quad = op
        values = report_values(result) if kind == "report" else sweep_values(result)
        first = self.first.setdefault(op, values)
        if kind == "report":
            errors = check_report(label, gamma, values)
        else:
            report = self.first.get(("report", label, LAST_SWEEP_GAMMA, quad))
            errors = check_sweep(label, values, report)
        if first != values:
            errors.append("result differs from the first call")
        self.attempted += 1
        if errors:
            self.failures.append(f"{op}: {'; '.join(errors)}")


def timed_ops(ops, ensembles, sweep_gammas, seconds, checker):
    """Op wall times over whole cycles, and the loop's wall time."""
    times = []

    def cycle():
        for op in ops:
            t = time.perf_counter()
            result = run_op(op, ensembles, sweep_gammas)
            times.append(time.perf_counter() - t)
            checker.add(op, result)

    return times, run_cycles(seconds, cycle)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True)
    args = parser.parse_args()

    ensembles = {q: pc.bloch_two_state_ensemble(*q) for q in QUADRATURES}
    sweep_gammas = np.linspace(*SWEEP_GAMMAS)
    ops = library_reports(args.seed)
    warmup = sorted({(k, lab, LAST_SWEEP_GAMMA if k == "report" else None, q)
                     for k, lab, _, q in ops})
    checker = Checker()
    for op in warmup:
        checker.add(op, run_op(op, ensembles, sweep_gammas))
    setup_s = time.time() - args.t0

    out = {"setup_s": setup_s, "import_s": IMPORT_S, "import_modules": IMPORT_MODULES}
    loop_s = args.seconds / 2 if args.trace else args.seconds
    ru0 = resource.getrusage(resource.RUSAGE_SELF)
    times, wall = timed_ops(ops, ensembles, sweep_gammas, loop_s, checker)
    ru1 = resource.getrusage(resource.RUSAGE_SELF)
    out.update(
        op_s=times,
        loop_s=wall,
        cpu_s=(ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime),
    )

    if args.trace:
        tracer = Tracer()
        tracer.install("photocount")
        try:
            traced_times, _ = timed_ops(ops, ensembles, sweep_gammas, loop_s, checker)
        finally:
            tracer.restore()
        totals = Totals()
        totals.add(tracer.spans)
        out["trace"] = {
            "ops": len(traced_times),
            "calls": totals.calls,
            "self_s": totals.self_s,
            "reports": totals.reports,
            "states_bytes": max(e.states.nbytes for e in ensembles.values()),
            "overhead_s": statistics.median(traced_times) - statistics.median(times),
        }

    out.update(
        attempted=checker.attempted,
        failed=len(checker.failures),
        failures=checker.failures[:20],
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    )
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
