"""Write the golden CSV data columns of each sweep workload.

Runs ``coning-kit sweep`` through ``cli.run_cli`` on every sweep workload's
preset and keeps every column except ``wall_time_s``.  Run it from the
repository root only when the recorded results are meant to change::

    python3 benchmarks/capture_golden.py
"""

from __future__ import annotations

import contextlib
import csv
import io
import sys
from pathlib import Path

import workloads as W

SRC = Path(__file__).resolve().parent.parent / "src"


def sweep_argv(spec: W.SweepSpec) -> list[str]:
    return ["sweep", "--signal", spec.signal,
            "--methods", ",".join(spec.methods),
            "--dts", ",".join(repr(dt) for dt in spec.step_sizes),
            "--horizon", repr(spec.horizon),
            "--tolerance", repr(W.REFERENCE_TOL), "--output", "-"]


def golden_rows(spec: W.SweepSpec) -> list[list[str]]:
    """CSV rows, header first, of one CLI sweep without ``wall_time_s``."""
    ck = W.import_package(SRC)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = ck.cli.run_cli(sweep_argv(spec))
    if code != 0:
        raise RuntimeError(f"sweep of {spec.signal} exited with {code}")
    rows = list(csv.reader(io.StringIO(out.getvalue())))
    drop = rows[0].index("wall_time_s")
    return [row[:drop] + row[drop + 1:] for row in rows]


def main() -> int:
    W.GOLDEN_DIR.mkdir(exist_ok=True)
    for spec in W.WORKLOADS.values():
        if isinstance(spec, W.SweepSpec):
            with open(spec.golden_path, "w", newline="",
                      encoding="utf-8") as handle:
                csv.writer(handle, lineterminator="\n").writerows(
                    golden_rows(spec))
            print(f"wrote {spec.golden_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
