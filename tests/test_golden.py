"""Byte-for-byte regression of the README figure mix against committed outputs.

Each case replays one CLI command in-process at default sizes and seed 42 and
compares stdout with ``tests/golden/<name>.<format>``.  The golden files were
written by the code before the single-pass metrics refactor, and the
``haar_d4_dim6`` and ``haar_d2_dim4`` files by the code before the
populations-only Haar path, and the ``*_n256_dim8`` files (the larger
quadrature) by the code before the stacked evaluation pass; regenerate them only for an intended output
change, with ``python tests/test_golden.py``.
"""

import io
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from photocount.cli import main

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "posterior_qc_1": ["posterior", "--counter", "qc", "--outcome", "1"],
    "posterior_qqc_0": ["posterior", "--counter", "qqc", "--outcome", "0"],
    "posterior_joint_11": ["posterior", "--counter", "joint", "--outcome", "11"],
    **{f"metrics_{c}": ["metrics", "--counter", c] for c in ("pc", "qc", "qpc", "qqc", "joint")},
    "sweep_qqc": ["sweep", "--counter", "qqc", "--steps", "11"],
    "sweep_joint": ["sweep", "--counter", "joint", "--steps", "11"],
    "reverse_qc": ["reverse", "--counter", "qc"],
    "reverse_qqc": ["reverse", "--counter", "qqc"],
    "haar_d3": ["haar", "--d", "3"],
    "haar_d4_dim6": ["haar", "--d", "4", "--dim", "6"],
    "haar_d2_dim4": ["haar", "--d", "2", "--dim", "4"],
    "metrics_joint_n256_dim8": [
        "metrics", "--counter", "joint", "--theta-nodes", "256", "--dim", "8"
    ],
    "sweep_qqc_n256_dim8": ["sweep", "--counter", "qqc", "--theta-nodes", "256", "--dim", "8"],
}
FORMATS = ("csv", "json")
# Cases pinned in one format only; every other case is pinned in both.
ONE_FORMAT = {
    "haar_d4_dim6": "csv",
    "haar_d2_dim4": "json",
    "metrics_joint_n256_dim8": "csv",
    "sweep_qqc_n256_dim8": "json",
}
GOLDEN_FILES = [
    (name, fmt)
    for name in sorted(CASES)
    for fmt in FORMATS
    if ONE_FORMAT.get(name, fmt) == fmt
]


def _run(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    assert code == 0, argv
    return buf.getvalue()


@pytest.mark.parametrize("name,fmt", GOLDEN_FILES)
def test_output_matches_golden(name, fmt):
    expected = (GOLDEN / f"{name}.{fmt}").read_text()
    assert _run(CASES[name] + ["--format", fmt]) == expected


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, fmt in GOLDEN_FILES:
        (GOLDEN / f"{name}.{fmt}").write_text(_run(CASES[name] + ["--format", fmt]))
