"""Schedule evaluation, analytic derivatives, and set validation."""

import numpy as np
import pytest

from qpassage.schedules import (MissingScheduleError, ParameterSchedule,
                                ScheduleDomainError, ScheduleError, ScheduleSet,
                                required_symbols)


class TestEval:
    def test_cosine_ramp_start(self):
        s = ParameterSchedule.cosine_ramp(np.pi / 2, duration=1.0)
        value, deriv = s.eval(0.0)
        assert value == np.pi / 2
        assert deriv == 0.0

    def test_cosine_ramp_end(self):
        s = ParameterSchedule.cosine_ramp(np.pi / 2, duration=1.0)
        value, deriv = s.eval(1.0)
        assert value == 0.0
        assert np.isclose(deriv, -np.pi**2 / 4, atol=1e-15)

    def test_constant(self):
        s = ParameterSchedule.constant(np.pi / 4)
        for t in (0.0, 0.3, 1.0):
            assert s.eval(t) == (np.pi / 4, 0.0)

    def test_linear_ramp(self):
        s = ParameterSchedule.linear_ramp(offset=0.2, slope=-1.5)
        value, deriv = s.eval(0.4)
        assert np.isclose(value, 0.2 - 1.5 * 0.4)
        assert deriv == -1.5

    def test_sampled_interpolates(self):
        ts = np.linspace(0, 1, 101)
        s = ParameterSchedule.sampled(ts, np.sin(ts))
        value, deriv = s.eval(0.5)
        assert abs(value - np.sin(0.5)) < 1e-4
        assert abs(deriv - np.cos(0.5)) < 1e-2

    def test_domain_errors(self):
        s = ParameterSchedule.cosine_ramp(1.0, duration=1.0)
        with pytest.raises(ScheduleDomainError):
            s.eval(-0.1)
        with pytest.raises(ScheduleDomainError):
            s.eval(1.1)

    @pytest.mark.parametrize("kind", ["constant", "cosine-ramp"])
    def test_domain_error_names_the_first_offender_past_a_nan(self, kind):
        s = ParameterSchedule(kind=kind, duration=1.0, amplitude=1.0)
        ts = np.array([[0.2, np.nan], [1.25, 0.5], [-0.5, np.nan]])
        with pytest.raises(ScheduleDomainError,
                           match=r"^t = 1\.25 outside schedule domain \[0, 1\.0\]$"):
            s.eval(ts)
        with pytest.raises(ScheduleDomainError, match=r"^t = -0\.5 outside"):
            s.eval(np.array([np.nan, -0.5, 2.0]))

    def test_nan_empty_and_edge_times_pass_the_domain_check(self):
        s = ParameterSchedule.constant(0.7, duration=2.0)
        for ts in (np.array([np.nan, np.nan]), np.array([]), np.zeros((0, 3)),
                   np.array([-1e-9, 2.0 + 1e-9, np.nan])):
            value, deriv = s.eval(ts)
            assert value.shape == deriv.shape == ts.shape
        assert s.eval(np.nan) == (0.7, 0.0)

    @pytest.mark.parametrize("duration", [0.0, -1.0, np.nan, np.inf])
    def test_a_duration_that_is_not_positive_and_finite_is_refused(self, duration):
        with pytest.raises(ScheduleError,
                           match=rf"^schedule duration must be positive and finite, "
                                 rf"not {duration}$"):
            ParameterSchedule.cosine_ramp(0.5, duration=duration)

    @pytest.mark.parametrize("name, make", [
        pytest.param("value", lambda bad: ParameterSchedule.constant(bad), id="constant"),
        pytest.param("amplitude", lambda bad: ParameterSchedule.cosine_ramp(bad), id="cosine"),
        pytest.param("offset", lambda bad: ParameterSchedule.cosine_ramp(0.5, offset=bad),
                     id="cosine-offset"),
        pytest.param("offset", lambda bad: ParameterSchedule.linear_ramp(bad, 0.5), id="linear"),
        pytest.param("slope", lambda bad: ParameterSchedule.linear_ramp(0.0, bad),
                     id="linear-slope"),
        pytest.param("times", lambda bad: ParameterSchedule.sampled([0.0, 0.5, bad],
                                                                    [0.0, 1.0, 2.0], 1.0),
                     id="sampled-times"),
        pytest.param("values", lambda bad: ParameterSchedule.sampled([0.0, 1.0], [0.0, bad]),
                     id="sampled-values"),
    ])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_a_non_finite_parameter_is_refused(self, name, make, bad):
        with pytest.raises(ScheduleError, match=rf"^schedule {name} must be finite, not "):
            make(bad)

    def test_bad_kind_and_bad_samples(self):
        with pytest.raises(ScheduleError):
            ParameterSchedule(kind="spline")
        with pytest.raises(ScheduleError):
            ParameterSchedule.sampled([0.0, 0.0, 1.0], [1.0, 2.0, 3.0])


@pytest.mark.parametrize("schedule", [
    ParameterSchedule.cosine_ramp(np.pi / 2, duration=1.0),
    ParameterSchedule.cosine_ramp(-np.pi / 2, duration=1.0, offset=np.pi / 2),
    ParameterSchedule.linear_ramp(offset=0.3, slope=2.0),
    ParameterSchedule.constant(1.2),
])
def test_derivative_matches_centered_difference_to_second_order(schedule):
    t = 0.37
    errors = {}
    for h in (1e-3, 1e-4):
        fd = (schedule.value_at(t + h) - schedule.value_at(t - h)) / (2 * h)
        errors[h] = abs(schedule.derivative_at(t) - fd)
        assert errors[h] <= 5.0 * h**2
    if errors[1e-3] > 1e-12:  # constant and linear kinds are exact
        assert 50 <= errors[1e-3] / max(errors[1e-4], 1e-300) <= 200


def test_protocol_boundary_values_exact():
    ramp_down = ParameterSchedule.cosine_ramp(np.pi / 2, duration=1.0)
    assert ramp_down.value_at(0.0) == np.pi / 2
    assert ramp_down.value_at(1.0) == 0.0
    ramp_up = ParameterSchedule.cosine_ramp(-np.pi / 2, duration=1.0, offset=np.pi / 2)
    assert ramp_up.value_at(0.0) == 0.0
    assert ramp_up.value_at(1.0) == np.pi / 2


class TestScheduleSet:
    def _table(self, duration=1.0):
        return {
            "theta_0": ParameterSchedule.constant(np.pi / 4, duration),
            "alpha_0": ParameterSchedule.constant(0.0, duration),
            "phi": ParameterSchedule.cosine_ramp(np.pi / 2, duration),
            "alpha": ParameterSchedule.constant(np.pi, duration),
            "varphi": ParameterSchedule.constant(np.pi / 2, duration),
        }

    def test_required_symbols(self):
        assert required_symbols(1, 2) == ("theta_0", "alpha_0", "phi", "alpha", "varphi")
        assert "ttheta_1" in required_symbols(3, 2)

    def test_complete_set_builds(self):
        s = ScheduleSet(1, 2, 1.0, self._table())
        assert s.value("theta_0", 0.5) == np.pi / 4
        assert "phi" in s

    def test_missing_symbol_raises(self):
        table = self._table()
        del table["alpha_0"]
        with pytest.raises(MissingScheduleError):
            ScheduleSet(1, 2, 1.0, table)

    def test_duration_mismatch_raises(self):
        table = self._table()
        table["phi"] = ParameterSchedule.cosine_ramp(np.pi / 2, duration=2.0)
        with pytest.raises(ScheduleError):
            ScheduleSet(1, 2, 1.0, table)

    @pytest.mark.parametrize("duration", [np.nan, np.inf])
    def test_a_set_of_non_finite_duration_is_refused(self, duration):
        with pytest.raises(ScheduleError, match=rf"^schedule 'theta_0' has duration 1.0, "
                                                rf"set expects {duration}$"):
            ScheduleSet(1, 2, duration, self._table())

    def test_replace_makes_independent_copy(self):
        s = ScheduleSet(1, 2, 1.0, self._table())
        s2 = s.replace(alpha=ParameterSchedule.constant(0.0))
        assert s.value("alpha", 0.0) == np.pi
        assert s2.value("alpha", 0.0) == 0.0
