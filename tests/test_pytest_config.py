"""The tier-1 pytest configuration lets a run go on past a failing test."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_THEN_PASSING = '''
from hypothesis import given
from hypothesis import strategies as st


@given(st.integers())
def test_fails(x):
    assert x != x


def test_after():
    pass
'''


def test_test_after_a_failing_hypothesis_test_still_runs(tmp_path):
    # Hypothesis reports a failure from a pytest hook that may raise a
    # DeprecationWarning (mypy_extensions.TypedDict); "error" turned it
    # into an INTERNALERROR that ended the run before test_after.
    path = tmp_path / "test_two.py"
    path.write_text(FAILING_THEN_PASSING)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), str(path)],
        capture_output=True, text=True, cwd=tmp_path, timeout=120,
        check=False)
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout, proc.stdout
