"""Byte-for-byte regression of the README figure mix against committed outputs.

Each case replays one CLI command in-process at default sizes and seed 42 and
compares stdout with ``tests/golden/<name>.<format>``.  The golden files were
written by the code before the single-pass metrics refactor, and the
``haar_d4_dim6`` and ``haar_d2_dim4`` files by the code before the
populations-only Haar path, and the ``*_n256_dim8`` files (the larger
quadrature) by the code before the stacked evaluation pass, and the
``reverse_*`` files by the first code that drew the trajectories as per-node
counts.  Regenerate them only for an intended output change, with
``python tests/test_golden.py [case ...]``: it rewrites the files of the
named cases, or of every case when none is named, and refuses an unknown
name before it writes anything.
"""

import io
import subprocess
import sys
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


def regenerate(names, directory=GOLDEN):
    """Write the golden files of the named cases into directory and return
    their paths; ValueError for an unknown name, before anything is written."""
    unknown = [name for name in names if name not in CASES]
    if unknown:
        raise ValueError(f"unknown case {', '.join(unknown)}; the cases are {', '.join(sorted(CASES))}")
    directory.mkdir(exist_ok=True)
    paths = []
    for name, fmt in GOLDEN_FILES:
        if name in names:
            path = directory / f"{name}.{fmt}"
            path.write_text(_run(CASES[name] + ["--format", fmt]))
            paths.append(path)
    return paths


def test_regenerates_only_the_named_cases(tmp_path):
    paths = regenerate(["reverse_qc", "haar_d4_dim6"], tmp_path)
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "haar_d4_dim6.csv", "reverse_qc.csv", "reverse_qc.json"
    ]
    for path in paths:
        assert path.read_bytes() == (GOLDEN / path.name).read_bytes()


def test_regenerate_refuses_an_unknown_case(tmp_path):
    with pytest.raises(ValueError, match="^unknown case reverse_pc; the cases are haar_d2_dim4, "):
        regenerate(["reverse_qc", "reverse_pc"], tmp_path)
    assert list(tmp_path.iterdir()) == []


def test_script_refuses_an_unknown_case():
    run = subprocess.run([sys.executable, __file__, "reverse_pc"], capture_output=True, text=True)
    assert run.returncode == 1
    assert run.stderr.startswith("error: unknown case reverse_pc; the cases are ")


if __name__ == "__main__":
    try:
        regenerate(sys.argv[1:] or list(CASES))
    except ValueError as refusal:
        sys.exit(f"error: {refusal}")
