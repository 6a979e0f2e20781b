"""The test session's own settings, ``[tool.pytest.ini_options]`` in pyproject.toml."""

from __future__ import annotations

import subprocess
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

PROBE = '''
from hypothesis import given, settings, strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
'''


def test_a_failing_hypothesis_test_leaves_the_session_running(tmp_path):
    # To print a failing example, hypothesis imports libcst where it is
    # installed; its import warnings must not stop the session under the
    # settings' error:: filters.  Without libcst the probe runs the same.
    (tmp_path / "test_probe.py").write_text(textwrap.dedent(PROBE))
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "pytest",
            "-q",
            "-p",
            "no:cacheprovider",
            "-c",
            str(ROOT / "pyproject.toml"),
            "--rootdir",
            str(tmp_path),
            "test_probe.py",
        ],
        cwd=tmp_path,
        capture_output=True,
        text=True,
    )
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout
    assert proc.returncode == 1
