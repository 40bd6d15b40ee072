import textwrap


def test_failing_hypothesis_test_is_named_and_later_tests_run(pytester, pytestconfig):
    # a failing @given test makes Hypothesis import libcst to print its
    # patch, and that import warns; under the repo's warning filters the
    # warning must not end the session in an INTERNALERROR naming no test
    lines = "\n".join(f"    {entry}" for entry in pytestconfig.getini("filterwarnings"))
    pytester.makeini(f"[pytest]\nfilterwarnings =\n{lines}\n")
    pytester.makepyfile(textwrap.dedent("""
        from hypothesis import Phase, given, settings, strategies as st

        @settings(database=None, phases=[Phase.generate])
        @given(st.integers())
        def test_draw_fails(x):
            assert x < 0

        def test_after_it():
            pass
    """))
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider")
    assert result.ret == 1
    result.stdout.fnmatch_lines(["FAILED *::test_draw_fails*"])
    result.assert_outcomes(failed=1, passed=1)
