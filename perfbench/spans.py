"""In-memory spans around the public functions of photocount's modules.

A span is ``[name, start, end, parent, nbytes]``: ``parent`` is the index of
the enclosing span (-1 for a root) and ``nbytes`` is the size of the
``states`` array of an ensemble the call returned (0 otherwise).  Spans are
kept in memory and written out by the caller when its work is done.

``Tracer.install`` wraps every public function defined in a layer module and
rebinds it in every loaded package module that holds the original by name
(``metrics.min_eigenvalue`` as well as ``fock.min_eigenvalue``), so calls
through either name are seen.  Each original is captured once, a function
that is already a wrapper is never wrapped again, and ``restore`` puts every
original back.
"""

from __future__ import annotations

import functools
import sys
import time
import types
from collections import defaultdict

LAYERS = ("cli", "ensemble", "counters", "metrics", "fock", "reversal")
_MARK = "__perfbench_span__"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._rebound: list[tuple[types.ModuleType, str, object]] = []

    def wrap(self, fn, name: str):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1, 0]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            states = getattr(result, "states", None)
            if states is not None:
                span[4] = int(getattr(states, "nbytes", 0))
            return result

        setattr(wrapper, _MARK, True)
        return wrapper

    def install(self, package: str) -> None:
        wrappers: dict[int, tuple[object, object]] = {}
        for layer in LAYERS:
            module = sys.modules[f"{package}.{layer}"]
            for attr, obj in vars(module).items():
                if (
                    isinstance(obj, types.FunctionType)
                    and obj.__module__ == module.__name__
                    and not attr.startswith("_")
                    and not getattr(obj, _MARK, False)
                ):
                    wrappers[id(obj)] = (obj, self.wrap(obj, f"{layer}.{attr}"))
        holders = [
            m for n, m in list(sys.modules.items())
            if n == package or n.startswith(package + ".")
        ]
        for module in holders:
            for attr, obj in list(vars(module).items()):
                pair = wrappers.get(id(obj))
                if pair is not None and pair[0] is obj:
                    setattr(module, attr, pair[1])
                    self._rebound.append((module, attr, obj))

    def restore(self) -> None:
        for module, attr, original in reversed(self._rebound):
            setattr(module, attr, original)
        self._rebound.clear()


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[int]] = defaultdict(list)
    for idx, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(idx)
    out = []
    for idx, (_, start, end, _, _) in enumerate(spans):
        covered, reach = 0.0, start
        for lo, hi in sorted((spans[c][1], spans[c][2]) for c in children.get(idx, ())):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


class Totals:
    """Per-name call counts and self times summed over the spans of many ops.

    Reports also record how many ``outcome_statistics`` and ``min_eigenvalue``
    calls each ``metrics.full_report`` made, split by whether the report
    built a composed model (``joint``) or a single counter.
    """

    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.max_states_bytes = 0
        self.reports = {"single": [0, 0, 0], "joint": [0, 0, 0]}

    def add(self, spans: list[list]) -> None:
        for span, own in zip(spans, self_times(spans)):
            self.calls[span[0]] += 1
            self.self_s[span[0]] += own
            self.max_states_bytes = max(self.max_states_bytes, span[4])
        per_report: dict[int, list] = {}
        for idx, span in enumerate(spans):
            report = _nearest(spans, idx, "metrics.full_report")
            if report < 0:
                continue
            counts = per_report.setdefault(report, [False, 0, 0])
            counts[0] |= span[0] == "counters.compose_models"
            counts[1] += span[0] == "metrics.outcome_statistics"
            counts[2] += span[0] == "fock.min_eigenvalue"
        for composed, stats, eig in per_report.values():
            row = self.reports["joint" if composed else "single"]
            row[0] += 1
            row[1] += stats
            row[2] += eig

    @classmethod
    def from_json(cls, doc: dict) -> "Totals":
        totals = cls()
        totals.calls.update(doc["calls"])
        totals.self_s.update(doc["self_s"])
        totals.max_states_bytes = doc["states_bytes"]
        totals.reports = doc["reports"]
        return totals

    def value(self, name: str, ops: int) -> float:
        """``<span>.calls`` or ``<span>.self_s``, per op."""
        span, _, kind = name.rpartition(".")
        total = {"calls": self.calls, "self_s": self.self_s}[kind].get(span, 0)
        return total / ops

    def per_report(self, kind: str, which: int) -> float:
        row = self.reports[kind]
        return row[which] / row[0] if row[0] else 0.0


def _nearest(spans: list[list], idx: int, name: str) -> int:
    """Index of the closest strict ancestor of span ``idx`` named ``name``."""
    parent = spans[idx][3]
    while parent >= 0:
        if spans[parent][0] == name:
            return parent
        parent = spans[parent][3]
    return -1
