"""The suite's own pytest configuration: a failing hypothesis test must be
reported as a failed test, not stop pytest with an internal error."""

from pathlib import Path

from _pytest.pytester import Pytester
from pytest import ExitCode

pytest_plugins = ["pytester"]

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_failing_hypothesis_test_is_reported_as_a_failure(pytester: Pytester):
    # on failure hypothesis imports its patching helpers, whose dependencies
    # warn at import time; the warnings-as-errors setting must let that pass
    (pytester.path / "pyproject.toml").write_text(PYPROJECT.read_text())
    tests = pytester.mkdir("tests")
    (tests / "test_fails.py").write_text(
        "from hypothesis import given, strategies as st\n"
        "\n"
        "@given(st.integers())\n"
        "def test_fails(x):\n"
        "    assert x < 0\n"
    )
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider")
    output = result.stdout.str() + result.stderr.str()
    assert result.ret == ExitCode.TESTS_FAILED, output
    assert "INTERNALERROR" not in output
