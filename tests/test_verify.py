"""The verification suites fail, rather than pass, on a NaN."""

import numpy as np

from qpassage.verify import SuiteResult, _worst, run_verification


def test_a_non_finite_error_fails_the_suite():
    for value in (np.nan, np.inf):
        assert not SuiteResult("any", value, 1e-8, True).passed
    assert SuiteResult("any", 0.0, 1e-8, True).passed


def test_the_error_maximum_keeps_a_nan_wherever_it_sits():
    assert _worst(0.5, [0.1, 0.7]) == 0.7
    assert np.isnan(_worst(0.5, [0.1, np.nan]))
    assert np.isnan(_worst(np.nan, [0.1]))
    assert np.isnan(_worst(np.nan, 0.1))


def test_nan_detuning_fails_the_residual_suite():
    report = run_verification(3, [(1, 2), (2, 2)], instances=1,
                              inject_detuning=float("nan"))
    residual = {s.name: s for s in report.suites}["passage-residual"]
    assert np.isnan(residual.max_error) and not residual.passed
    assert not report.passed
    assert "FAIL  passage-residual" in report.format()
