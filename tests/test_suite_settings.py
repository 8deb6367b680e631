"""The repository's pytest settings keep a run with a failing test complete."""

import subprocess
import sys
from pathlib import Path

from hypothesis import settings

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

PAIR = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 10


def test_passes():
    pass
"""


def test_a_failing_hypothesis_test_leaves_the_run_complete(tmp_path):
    # under filterwarnings = error, hypothesis's report of a failing example
    # imports libcst, whose import warns that mypy_extensions.TypedDict is
    # deprecated; unfiltered, pytest stops with INTERNALERROR there and the
    # passing test never runs
    (tmp_path / "test_pair.py").write_text(PAIR)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "-q", "test_pair.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout.strip().splitlines()[-1], run.stdout


def test_the_suite_profile_replays_fixed_examples_without_a_deadline():
    # loaded by conftest.py, so each property sets only its max_examples
    assert settings.default.derandomize and settings.default.deadline is None
