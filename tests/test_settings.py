"""The test suite's own settings: a failing test is reported as a failure,
never as an internal error that stops the run."""

from pathlib import Path

pytest_plugins = ["pytester"]

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_a_failing_hypothesis_test_is_reported_and_ends_no_run(pytester):
    # Under this repository's settings, where warnings are errors, a
    # warning that hypothesis's plugin raises while it reports a falsifying
    # example must not turn the failure into an INTERNALERROR, which would
    # leave every later test of the run unreported.
    pytester.makepyprojecttoml(PYPROJECT.read_text())
    test_file = pytester.makepyfile(
        """
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_fails(n):
            assert n != n
        """
    )
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider", test_file)
    result.assert_outcomes(failed=1)
    assert "INTERNALERROR" not in result.stdout.str() + result.stderr.str()
