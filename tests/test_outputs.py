"""The CLI's rows for small runs of every sweep mode and for the shipped configs, against recorded values.

``tests/data/expected_rows.csv`` holds the rows of each argv in ``PINNED_ARGV``,
every column but ``wall_ms``, after an ``argv`` column with the argv's index.
Rerun ``python tests/test_outputs.py > tests/data/expected_rows.csv`` only for
a change that is meant to move these numbers.
"""

import contextlib
import csv
import io
import sys
from pathlib import Path

from cimfem.bench import CSV_HEADER
from cimfem.cli import main

ROOT = Path(__file__).resolve().parent.parent
EXPECTED = ROOT / "tests" / "data" / "expected_rows.csv"
COLUMNS = ["argv"] + CSV_HEADER[:9]

PINNED_ARGV = [
    ["solve", "--example", "ex1_scalar", "--N", "10,20,40", "--times", "0.3,0.9"],
    ["sweep-time", "--example", "ex3_1d_case1", "--N", "10,20", "--M", "16", "--times", "0.8"],
    ["sweep-time", "--example", "ex2_vanishing", "--reference", "exact", "--N", "10,20", "--M", "16",
     "--times", "0.86"],
    ["sweep-space", "--example", "ex3_1d_case1", "--N", "40", "--M", "8,16", "--times", "0.6"],
    ["sweep-space", "--example", "ex4_2d_case3", "--N", "40", "--M", "8", "--times", "0.6"],
    ["accel-compare", "--example", "ex3_1d_case1", "--N", "60", "--M", "32", "--n-interp", "6,10",
     "--times", "0.6"],
    # the shipped configs: the paper's tables at their full size
    ["accel-compare", "--config", str(ROOT / "scripts" / "acceleration_report.cfg")],
    ["sweep-space", "--config", str(ROOT / "scripts" / "ex4_spatial_tables.cfg")],
    ["sweep-time", "--config", str(ROOT / "scripts" / "ex4_temporal_tables.cfg")],
    ["solve", "--config", str(ROOT / "scripts" / "scalar_decay.cfg")],
    ["sweep-space", "--config", str(ROOT / "scripts" / "spatial_tables.cfg")],
    ["sweep-time", "--config", str(ROOT / "scripts" / "temporal_tables.cfg")],
]


def pinned_rows() -> list[dict[str, str]]:
    """The rows of every pinned argv, run in this process, without ``wall_ms``."""
    rows = []
    for i, argv in enumerate(PINNED_ARGV):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert main(argv) == 0
        for r in csv.DictReader(io.StringIO(buf.getvalue())):
            rows.append({"argv": str(i), **{c: r[c] for c in CSV_HEADER[:9]}})
    return rows


def test_rows_match_the_recorded_ones():
    with open(EXPECTED, newline="") as fh:
        expected = list(csv.DictReader(fh))
    got = pinned_rows()
    assert [r["argv"] for r in got] == [r["argv"] for r in expected]
    for g, e in zip(got, expected):
        # an error at round-off moves with the BLAS: such a row is compared by its identity only
        at_round_off = e["error"] != "" and float(e["error"]) < 1e-9
        columns = COLUMNS[:7] if at_round_off else COLUMNS
        assert [g[c] for c in columns] == [e[c] for c in columns]


if __name__ == "__main__":
    writer = csv.DictWriter(sys.stdout, fieldnames=COLUMNS, lineterminator="\n")
    writer.writeheader()
    writer.writerows(pinned_rows())
