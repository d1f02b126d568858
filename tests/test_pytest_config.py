"""The repository's pytest settings, run on a throwaway project in a
subprocess: a failing property test is reported as one failure, and the
session goes on to the tests after it."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

TWO_TESTS = '''
from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    assert True
'''


def test_a_failing_property_test_leaves_the_session_running(tmp_path):
    (tmp_path / "pyproject.toml").write_text(PYPROJECT.read_text())
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_two.py").write_text(TWO_TESTS)
    run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert "1 failed, 1 passed" in run.stdout, run.stdout[-2000:] + run.stderr[-2000:]
    assert run.returncode == 1
