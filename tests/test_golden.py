"""Full default sweeps of every preset against records kept in ``data/``.

Each ``data/sweep_<preset>.csv`` holds the CSV of::

    coning-kit sweep --signal <preset> --methods <ALL_METHODS> --output -

at the default step sizes, horizon and tolerance, with the informational
``wall_time_s`` column dropped.  The key columns must match exactly.  A
faster engine may reorder floating-point operations, so ``final_error_rad``
is held to ``REL_TOL`` relative with an ``ABS_TOL`` floor: the default
reference tolerance, below which the reference itself is not trusted.
"""

import csv
from pathlib import Path

import pytest

from coning_kit.cli import run_cli
from coning_kit.trajectory import PRESET_NAMES

DATA = Path(__file__).resolve().parent / "data"

ALL_METHODS = ("fwdeuler,exmid,rk3omega,rk4omega,theta2,theta3,rk4theta2,"
               "twospeed4")

REL_TOL = 1e-6
ABS_TOL = 1e-12

KEY_COLUMNS = ("method", "jacobian_mode", "dt", "steps")


def read_rows(path):
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


@pytest.mark.parametrize("signal", PRESET_NAMES)
def test_default_sweep_matches_golden(signal, tmp_path):
    out = tmp_path / "records.csv"
    assert run_cli(["sweep", "--signal", signal, "--methods", ALL_METHODS,
                    "--output", str(out)]) == 0
    got = read_rows(out)
    want = read_rows(DATA / f"sweep_{signal}.csv")
    assert [[r[c] for c in KEY_COLUMNS] for r in got] == \
        [[r[c] for c in KEY_COLUMNS] for r in want]
    for g, w in zip(got, want):
        value, golden = float(g["final_error_rad"]), float(w["final_error_rad"])
        assert abs(value - golden) <= max(REL_TOL * abs(golden), ABS_TOL), \
            (g["method"], g["dt"], value, golden)
