"""The step-doubled reference and the default records against a truth that
no code of the package computed.

``data/truth.txt`` holds, for ``fourier3`` and ``poly3`` over [0, 4] s, the
attitude that ``data/make_truth.py`` integrates in 30-digit arithmetic
(``mpmath.odefun``), written to 20 significant digits.
"""

from pathlib import Path

import numpy as np
import pytest

from coning_kit.bench import SweepConfig, propagate, run_sweep
from coning_kit.cli import parse_method
from coning_kit.so3 import attitude_error_angle
from coning_kit.trajectory import preset, reference_attitude

DATA = Path(__file__).resolve().parent / "data"

#: How far a record measured against the truth may move from its CSV
#: record, in rad: the reference at its default tolerance 1e-12 is within
#: 9e-16 rad of the truth on both presets.
RECORD_TOL = 1e-15

ALL_METHODS = ("fwdeuler,exmid,rk3omega,rk4omega,theta2,theta3,rk4theta2,"
               "twospeed4")


def read_truth() -> dict:
    """``{(preset, t0, t1): T(t1) relative to T(t0)}`` of the file."""
    truth = {}
    for line in (DATA / "truth.txt").read_text(encoding="utf-8").splitlines():
        if not line.startswith("#"):
            name, t0, t1, *entries = line.split()
            truth[name, float(t0), float(t1)] = np.array(
                [float(e) for e in entries]).reshape(3, 3)
    return truth


TRUTH = read_truth()


@pytest.mark.parametrize("signal", ["fourier3", "poly3"])
@pytest.mark.parametrize("tolerance", [1e-12, 1e-10, 1e-8])
def test_reference_is_within_its_tolerance_of_the_truth(signal, tolerance):
    # Measured: 7.8e-16 and 8.9e-16 rad at 1e-12, at most 1.6e-10 at 1e-8.
    got = reference_attitude(preset(signal), 0.0, 4.0, tolerance)
    assert attitude_error_angle(got, TRUTH[signal, 0.0, 4.0]) <= tolerance


@pytest.mark.parametrize("signal", ["fourier3", "poly3"])
def test_default_records_measured_against_the_truth(signal):
    # Each cell's attitude, propagated alone, bitwise the sweep's; measured:
    # at most 7.7e-16 (fourier3) and 8.7e-16 rad (poly3) from the record.
    cfg = SweepConfig(
        signal=signal,
        methods=tuple(parse_method(m) for m in ALL_METHODS.split(",")),
        step_sizes=tuple(0.25 * 2.0 ** -k for k in range(7)), horizon=4.0)
    truth = TRUTH[signal, 0.0, cfg.horizon]
    records = run_sweep(cfg).records()
    assert len(records) == 56
    for r in records:
        final = propagate(r.method, preset(signal), r.dt, cfg.horizon)
        assert abs(attitude_error_angle(final, truth)
                   - r.final_error_angle) <= RECORD_TOL, (r.method, r.dt)
