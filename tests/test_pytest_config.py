"""The pytest configuration in ``pyproject.toml`` reports failures by name.

Every warning is an error there, so a warning raised by a plugin while it
reports a failure would stop the run with ``INTERNALERROR``, skip the test
files after it and never name the failing test.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).parent.parent

FAILING = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n < 0


def test_runs_after():
    pass
'''


def test_failing_given_test_is_reported_by_name(tmp_path):
    # Hypothesis imports its failure-patching module only after a @given
    # test fails; the run must still end normally (exit 1), name the test
    # and go on to the next one
    (tmp_path / "test_given.py").write_text(FAILING)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path),
         str(tmp_path / "test_given.py")],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    out = run.stdout + run.stderr
    assert run.returncode == 1, out
    assert "FAILED test_given.py::test_fails" in out
    assert "INTERNALERROR" not in out
    assert "1 failed, 1 passed" in out
