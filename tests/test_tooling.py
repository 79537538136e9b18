"""The repository's pytest configuration reports a failing test as a failure."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).parents[1] / "pyproject.toml"

FAILING_PROPERTY = '''
from hypothesis import given, settings, strategies as st

@settings(database=None)
@given(st.integers())
def test_property_fails(n):
    assert n < 10

def test_later_passes():
    pass
'''


def test_failing_property_does_not_abort_the_run(tmp_path):
    # on a failing @given test hypothesis' plugin imports libcst, whose
    # DeprecationWarning the "error" filter once turned into an INTERNALERROR
    # (exit 3) that stopped the run before any later test
    (tmp_path / "test_two.py").write_text(FAILING_PROPERTY)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "-q", "test_two.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 1, run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout
