#!/usr/bin/env python3
"""photocount benchmark.

    python3 perfbench/run.py --workload cli_figures --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Runs one workload (see workloads.py) as a closed loop for ``--seconds``,
checks every output (see checks.py), and prints each metric by name and
unit, a detail line, a machine record, and as the last line one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones of BENCHMARK.json, with ``--trace 1`` the
per-layer ones, from spans around the package's public functions.

The package runs from this checkout's ``src/``; every ``PHOTOCOUNT_*``
variable is removed from the children's environment because the CLI reads
those as flag presets (see ``child_env``).  Thread variables are passed
through unchanged.
"""

from __future__ import annotations

import argparse
import json
import os
import selectors
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from checks import check_cli
from spans import Totals
from workloads import CLI_WARMUP, CLI_WORKLOADS, WORKLOADS, run_cycles

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
LIBRARY_WORKERS = 5
TAIL_BEYOND = 10


@dataclass
class Call:
    argv: list[str]
    returncode: int
    stdout: bytes
    stderr: bytes
    wall_s: float = 0.0
    cpu_s: float = 0.0
    rss_mb: float = 0.0
    trace: dict = field(default_factory=dict)


def child_env() -> dict:
    """The caller's environment without PHOTOCOUNT_* flag presets and without
    PYTHONDONTWRITEBYTECODE, so that src/ gets a bytecode cache as an
    installed package has, and with src/ first on the import path."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("PHOTOCOUNT_") and k != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_process(cmd: list[str], env: dict) -> Call:
    """Run cmd to completion; wall time and the child's own rusage (wait4)."""
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=env, cwd=ROOT)
    chunks = {proc.stdout: [], proc.stderr: []}
    try:
        with selectors.DefaultSelector() as sel:
            for pipe in chunks:
                sel.register(pipe, selectors.EVENT_READ)
            while sel.get_map():
                for key, _ in sel.select():
                    data = os.read(key.fd, 1 << 16)
                    if data:
                        chunks[key.fileobj].append(data)
                    else:
                        sel.unregister(key.fileobj)
    except BaseException:
        proc.kill()
        raise
    finally:
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
        proc.stderr.close()
    return Call(
        argv=cmd, returncode=proc.returncode,
        stdout=b"".join(chunks[proc.stdout]), stderr=b"".join(chunks[proc.stderr]),
        wall_s=time.perf_counter() - start,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss * 1024 / 1e6,
    )


def run_cli(argv: list[str], env: dict) -> Call:
    call = run_process([sys.executable, "-m", "photocount", *argv], env)
    call.argv = argv
    return call


def run_traced(argv: list[str], env: dict) -> Call:
    call = run_process([sys.executable, str(HERE / "traced_cli.py"), *argv], env)
    call.argv = argv
    if call.returncode == 0:
        try:
            call.trace = json.loads(call.stdout)
            call.returncode, call.stdout = call.trace["returncode"], call.trace["stdout"].encode()
        except (ValueError, KeyError) as exc:
            call.returncode, call.stderr = -1, f"traced_cli.py output: {exc}".encode()
    return call


def check_calls(calls: list[Call]) -> dict[int, str]:
    """Failure messages by call index; repeats of one argv must match bytes."""
    first: dict[tuple, bytes] = {}
    for call in calls:
        if call.returncode == 0:
            first.setdefault(tuple(call.argv), call.stdout)
    failures = {}
    for i, call in enumerate(calls):
        errors = check_cli(call.argv, call.returncode, call.stdout, first)
        if call.returncode == 0 and call.stdout != first[tuple(call.argv)]:
            errors.append("output differs from the first identical call")
        if errors:
            stderr = call.stderr.decode(errors="replace").strip()[-300:]
            failures[i] = f"{' '.join(call.argv)}: {'; '.join(errors)} {stderr}".strip()
    return failures


def outcome(calls: list[Call]) -> dict:
    failures = check_calls(calls)
    return dict(attempted=len(calls), failed=len(failures),
                failure_list=list(failures.values()))


def tail(values: list[float]) -> tuple[float, float]:
    """Value and percentile of the highest percentile with TAIL_BEYOND samples
    beyond it (the maximum when there are too few samples)."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def end_to_end(op_s, loop_s, cpu_s, peak_rss_mb, setups) -> tuple[dict, dict]:
    tail_value, tail_pct = tail(op_s)
    values = {
        "op_s.p50": statistics.median(op_s),
        "op_s.tail": tail_value,
        "ops_per_s": len(op_s) / loop_s,
        "cpu_s_per_op": cpu_s / len(op_s),
        "peak_rss_mb": peak_rss_mb,
        "setup_s": statistics.median(setups),
    }
    detail = {"ops": len(op_s), "tail_percentile": tail_pct, "tail_beyond": TAIL_BEYOND,
              "loop_s": loop_s, "setup_s_all": setups}
    return values, detail


def per_layer(totals: Totals, ops: int, import_s: float, import_modules: float,
              overhead_s: float, names: list[str]) -> dict:
    special = {
        "import.s": import_s,
        "import.modules": import_modules,
        "ensemble.states_mb": totals.max_states_bytes / 1e6,
        "trace.overhead_s": overhead_s,
        "metrics.outcome_statistics.calls_per_report_single": totals.per_report("single", 1),
        "fock.min_eigenvalue.calls_per_report_single": totals.per_report("single", 2),
        "metrics.outcome_statistics.calls_per_report_joint": totals.per_report("joint", 1),
        "fock.min_eigenvalue.calls_per_report_joint": totals.per_report("joint", 2),
    }
    return {name: special[name] if name in special else totals.value(name, ops)
            for name in names}


def cli_workload(name: str, seed: int, seconds: float, trace: bool, layer_names) -> dict:
    setups, calls = [], []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        env = child_env()
        cycle = CLI_WORKLOADS[name](seed)
        calls.append(run_cli(CLI_WARMUP, env))
        setups.append(time.perf_counter() - start)

    if not trace:
        timed = []
        loop_s = run_cycles(seconds, lambda: timed.extend(run_cli(a, env) for a in cycle))
        values, detail = end_to_end(
            [c.wall_s for c in timed], loop_s, sum(c.cpu_s for c in timed),
            max(c.rss_mb for c in timed), setups)
        return dict(values=values, detail=detail, **outcome(calls + timed))

    # Each op runs untraced and traced, alternating which goes first; whole
    # cycles make the call counts per op repeat exactly from run to run.
    plain, traced = [], []

    def traced_cycle():
        for i, argv in enumerate(cycle):
            if i % 2:
                traced.append(run_traced(argv, env))
            plain.append(run_cli(argv, env))
            if not i % 2:
                traced.append(run_traced(argv, env))

    run_cycles(seconds, traced_cycle)
    totals = Totals()
    for call in traced:
        totals.add(call.trace.get("spans", []))
    good = [c.trace for c in traced if c.trace]
    values = per_layer(
        totals, len(traced),
        statistics.median(t["import_s"] for t in good) if good else 0.0,
        statistics.median_low(t["import_modules"] for t in good) if good else 0,
        statistics.median(c.wall_s for c in traced) - statistics.median(c.wall_s for c in plain),
        layer_names)
    detail = {"cycles": len(traced) // len(cycle), "traced_ops": len(traced)}
    return dict(values=values, detail=detail, **outcome(calls + plain + traced))


def library_workload(seed: int, seconds: float, trace: bool, layer_names) -> dict:
    workers = 1 if trace else LIBRARY_WORKERS
    env = child_env()
    docs = []
    for _ in range(workers):
        cmd = [sys.executable, str(HERE / "lib_worker.py"), "--seed", str(seed),
               "--seconds", repr(seconds / workers), "--trace", str(int(trace)),
               "--t0", repr(time.time())]
        call = run_process(cmd, env)
        if call.returncode != 0:
            raise RuntimeError(f"library worker failed: {call.stderr.decode()[-2000:]}")
        doc = json.loads(call.stdout.decode().strip().splitlines()[-1])
        doc["peak_rss_mb"] = call.rss_mb
        docs.append(doc)
    failures = [f for d in docs for f in d["failures"]]
    result = dict(attempted=sum(d["attempted"] for d in docs),
                  failed=sum(d["failed"] for d in docs), failure_list=failures)
    if trace:
        doc = docs[0]
        t = doc["trace"]
        totals = Totals.from_json(t)
        result["values"] = per_layer(totals, t["ops"], doc["import_s"], doc["import_modules"],
                                     t["overhead_s"], layer_names)
        result["detail"] = {"traced_ops": t["ops"]}
        return result
    op_s = [x for d in docs for x in d["op_s"]]
    values, detail = end_to_end(
        op_s, sum(d["loop_s"] for d in docs), sum(d["cpu_s"] for d in docs),
        max(d["peak_rss_mb"] for d in docs), [d["setup_s"] for d in docs])
    result.update(values=values, detail=detail)
    return result


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        target = ROOT / ".git" / ref[5:]
        return target.read_text().strip() if target.is_file() else None
    return ref


def cpu_jiffies() -> list[int] | None:
    """Machine-wide CPU time by state (user, nice, system, idle, iowait, irq,
    softirq, steal) from /proc/stat, or None where that is not readable."""
    try:
        with open("/proc/stat") as fh:
            return [int(x) for x in fh.readline().split()[1:9]]
    except (OSError, ValueError):
        return None


def steal_share(start: list[int] | None, end: list[int] | None) -> float | None:
    """Share of CPU time the hypervisor took from this machine in between."""
    if not start or not end or sum(end) <= sum(start):
        return None
    return (end[7] - start[7]) / (sum(end) - sum(start))


def machine_record(env: dict) -> dict:
    call = run_process([sys.executable, str(HERE / "machine.py")], env)
    record = json.loads(call.stdout) if call.returncode == 0 else {"error": call.stderr.decode()}
    record.update(
        nproc=os.cpu_count(),
        thread_env={k: v for k, v in os.environ.items()
                    if k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        git_commit=git_commit(),
        src_lines=sum(len(p.read_bytes().splitlines()) for p in SRC.rglob("*.py")),
    )
    return record


def run_workload(name: str, seed: int, seconds: float, trace: bool, spec: dict) -> dict:
    group = "per_layer" if trace else "end_to_end"
    metrics = {m["name"]: m["unit"] for m in spec[group]}
    load_start, jiffies_start = os.getloadavg(), cpu_jiffies()
    if name in CLI_WORKLOADS:
        out = cli_workload(name, seed, seconds, trace, list(metrics))
    else:
        out = library_workload(seed, seconds, trace, list(metrics))
    record = machine_record(child_env())
    record.update(loadavg_start=load_start, loadavg_end=os.getloadavg(),
                  cpu_steal_share=steal_share(jiffies_start, cpu_jiffies()))
    from_src = str(record.get("photocount_file", "")).startswith(str(SRC) + os.sep)
    if not from_src:
        out["failure_list"].append(f"photocount was not imported from {SRC}")

    print(f"# workload {name}  seed {seed}  seconds {seconds:g}  trace {int(trace)}")
    for metric, unit in metrics.items():
        print(f"{name:<18} {metric:<52} {out['values'][metric]:>14.6g} {unit}")
    print(f"{name:<18} {'failed_ops':<52} {out['failed']:>7d} of {out['attempted']} ops")
    for failure in out["failure_list"][:10]:
        print(f"# failure {failure}")
    print("# detail " + json.dumps(out["detail"]))
    print("# machine " + json.dumps(record))
    return {
        "correct": not out["failure_list"],
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {m: {"value": out["values"][m], "unit": u} for m, u in metrics.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "photocount" / "__init__.py").is_file():
        print(f"error: no photocount package under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {n: run_workload(n, args.seed, args.seconds, bool(args.trace), spec) for n in names}
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}/{m}": v for n, r in results.items() for m, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
