"""Self-test of the benchmark's own machinery.

    python3 perfbench/selftest.py

Checks that every output check passes on real output and fires on a
corrupted copy, that span self time is right for nested and back-to-back
children, and that the span wrapper rebinds every name of a function,
never wraps a wrapper, and restores every original.  Exits 1 on failure.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import photocount  # noqa: E402
import photocount.cli  # noqa: E402

from checks import check_cli, check_report, check_sweep, report_values, sweep_values  # noqa: E402
from run import Call, check_calls  # noqa: E402
from spans import Tracer, Totals, self_times  # noqa: E402

FAILURES: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        FAILURES.append(what)


def cli_output(argv: list[str]) -> bytes:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = photocount.cli.main(argv)
    if code != 0:
        raise RuntimeError(f"{argv} exited {code}")
    return buf.getvalue().encode()


def edit_csv(text: bytes, row: int, column: int, fn) -> bytes:
    rows = list(csv.reader(io.StringIO(text.decode())))
    rows[row][column] = repr(fn(float(rows[row][column])))
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue().encode()


def edit_json(text: bytes, fn) -> bytes:
    doc = json.loads(text)
    fn(doc)
    return json.dumps(doc).encode()


def test_output_checks() -> None:
    def bump_gain(doc):
        doc["results"]["outcomes"]["1"]["information_gain"] += 1e-6

    cases = {
        ("posterior", "--counter", "qc", "--outcome", "1"):
            lambda out: edit_csv(out, 91, 2, lambda v: v * (1 + 1e-7)),
        ("metrics", "--counter", "qc"):
            lambda out: edit_csv(out, 2, 2, lambda v: v + 1e-6),
        ("metrics", "--counter", "joint"):
            lambda out: edit_csv(out, 4, 4, lambda v: v + 1e-9),
        ("metrics", "--counter", "qqc", "--format", "json"):
            lambda out: edit_json(out, bump_gain),
        ("sweep", "--counter", "qqc", "--steps", "11"):
            lambda out: edit_csv(out, 12, 1, lambda v: v + 5e-3),
        ("reverse", "--counter", "qc", "--seed", "7"):
            lambda out: edit_csv(out, 1, 1, lambda v: v + 0.05),
        ("reverse", "--counter", "qqc", "--seed", "7"):
            lambda out: edit_csv(out, 1, 2, lambda v: v - 1e-6),
        ("haar", "--d", "3", "--seed", "7"):
            lambda out: edit_csv(out, 3, 1, lambda v: v * 1e-3),
        ("haar", "--d", "3", "--samples", "1000000", "--seed", "42"):
            lambda out: edit_csv(out, 1, 1, lambda v: v * (1 + 1e-8)),
    }
    context = {argv: cli_output(list(argv)) for argv in cases}
    context[("metrics", "--counter", "qqc")] = cli_output(["metrics", "--counter", "qqc"])
    for argv, corrupt in cases.items():
        good = context[argv]
        errors = check_cli(list(argv), 0, good, context)
        expect(not errors, f"{' '.join(argv)}: real output passes {errors}")
        bad = corrupt(good)
        expect(bool(check_cli(list(argv), 0, bad, context)), f"{' '.join(argv)}: corruption fires")

    argv = ["metrics", "--counter", "pc"]
    out = cli_output(argv)
    expect(bool(check_cli(argv, 4, out, {})), "nonzero exit fires")
    expect(bool(check_cli(argv, 0, out[: len(out) // 2], {})), "truncated output fires")
    calls = [Call(argv, 0, out, b""), Call(argv, 0, out.replace(b"0.045", b"0.046"), b"")]
    expect(set(check_calls(calls)) == {1}, "a repeat with different bytes fires")

    ens = photocount.bloch_two_state_ensemble(64, 5)
    values = report_values(photocount.full_report("qqc", 0.2, ens))
    expect(not check_report("qqc", 0.2, values), "real full_report passes")
    values["per_outcome"]["1"]["reversibility"] += 1e-11
    expect(bool(check_report("qqc", 0.2, values)), "corrupted full_report fires")
    sweep = sweep_values(photocount.gamma_sweep("pc", np.linspace(0.05, 0.3, 11), ens))
    report = report_values(photocount.full_report("pc", 0.3, ens))
    expect(not check_sweep("pc", sweep, report), "real gamma_sweep passes")
    sweep["rows"][-1] = (sweep["rows"][-1][0] + 1e-15, *sweep["rows"][-1][1:])
    expect(bool(check_sweep("pc", sweep, report)), "sweep differing from full_report fires")


def test_self_time() -> None:
    back_to_back = [["p", 0.0, 10.0, -1, 0], ["a", 1.0, 3.0, 0, 0], ["b", 3.0, 6.0, 0, 0]]
    expect(self_times(back_to_back) == [5.0, 2.0, 3.0], "back-to-back children")
    nested = [["p", 0.0, 10.0, -1, 0], ["c", 2.0, 8.0, 0, 0], ["g", 3.0, 5.0, 1, 0],
              ["d", 8.0, 9.0, 0, 0]]
    expect(self_times(nested) == [3.0, 4.0, 2.0, 1.0], "nested children")
    clipped = [["p", 0.0, 4.0, -1, 0], ["a", 1.0, 3.0, 0, 0], ["b", 2.0, 5.0, 0, 0]]
    expect(self_times(clipped)[0] == 1.0, "overlapping and overhanging children")


def snapshot() -> dict:
    return {(name, attr): obj for name, mod in list(sys.modules.items())
            if name.split(".")[0] == "photocount" for attr, obj in vars(mod).items()}


def test_wrapper() -> None:
    before = snapshot()
    ens = photocount.bloch_two_state_ensemble(64, 5)
    outer, inner = Tracer(), Tracer()
    outer.install("photocount")
    inner.install("photocount")
    try:
        expect(photocount.metrics.min_eigenvalue is photocount.fock.min_eigenvalue
               is photocount.min_eigenvalue
               and photocount.min_eigenvalue is not before[("photocount.fock", "min_eigenvalue")],
               "every name of a function is rebound to one wrapper")
        expect(not inner._rebound, "a wrapped function is not wrapped again")
        photocount.full_report("qc", 0.3, ens)
    finally:
        inner.restore()
        outer.restore()
    totals = Totals()
    totals.add(outer.spans)
    expect(totals.calls["metrics.outcome_statistics"] == 9
           and totals.calls["fock.min_eigenvalue"] == 8,
           "one report counts 9 outcome_statistics and 8 min_eigenvalue calls")
    expect(not inner.spans, "the second tracer records nothing")
    after = snapshot()
    expect(all(after.get(k) is v for k, v in before.items()), "restore puts every original back")


if __name__ == "__main__":
    test_output_checks()
    test_self_time()
    test_wrapper()
    print(f"{len(FAILURES)} failure(s)")
    raise SystemExit(1 if FAILURES else 0)
