"""Frame construction: orthonormality, completeness, boundary values, derivatives."""

import numpy as np
import pytest

from qpassage.ancillary import SubspaceLayout, build_frame, frame_derivative_check
from qpassage.schedules import ParameterSchedule, ScheduleSet

from helpers import frame_columns_oracle, gram_oracle, random_layout, random_schedule_set

RNG = np.random.default_rng(7)


def bell_like_schedules(phi_value, alpha_value, duration=1.0):
    """Constant mixing angle; one assistant level, two working levels."""
    return ScheduleSet(1, 2, duration, {
        "theta_0": ParameterSchedule.constant(np.pi / 4, duration),
        "alpha_0": ParameterSchedule.constant(0.0, duration),
        "phi": ParameterSchedule.constant(phi_value, duration),
        "alpha": ParameterSchedule.constant(alpha_value, duration),
        "varphi": ParameterSchedule.constant(np.pi / 2, duration),
    })


class TestBoundaryValues:
    def test_passage_starts_on_assistant_level(self):
        # cos(pi/2) b0 - sin(pi/2) e^{-i pi} |e0> = +|e0>
        layout = SubspaceLayout(1, 2)
        frame = build_frame(layout, bell_like_schedules(np.pi / 2, np.pi), 0.0)
        assert np.allclose(frame.passage_lo, [1.0, 0.0, 0.0], atol=1e-15)

    def test_passage_ends_on_bright_state(self):
        # phi = 0: the lower passage equals the working bright state
        layout = SubspaceLayout(1, 2)
        frame = build_frame(layout, bell_like_schedules(0.0, np.pi), 0.0)
        expected = np.array([0.0, 1.0, 1.0]) / np.sqrt(2)
        assert np.allclose(frame.passage_lo, expected, atol=1e-15)

    def test_single_assistant_level_reduction(self):
        # with M = 1 the cross pair must mix b_{N-2} with |e_0> directly
        layout = SubspaceLayout(1, 3)
        rng = np.random.default_rng(3)
        schedules = random_schedule_set(rng, layout)
        frame = build_frame(layout, schedules, 0.4)
        phi = schedules.value("phi", 0.4)
        alpha = schedules.value("alpha", 0.4)
        b = frame.terminal_brights[:, 0]
        e0 = np.array([1.0, 0, 0, 0], dtype=complex)
        lo = np.cos(phi) * b - np.sin(phi) * np.exp(-1j * alpha) * e0
        hi = np.sin(phi) * b + np.cos(phi) * np.exp(-1j * alpha) * e0
        assert np.allclose(frame.passage_lo, lo, atol=1e-14)
        assert np.allclose(frame.passage_hi, hi, atol=1e-14)


class TestOrthonormality:
    @pytest.mark.parametrize("m,n", [(1, 2), (2, 2), (3, 4), (4, 5), (1, 5)])
    def test_gram_and_completeness(self, m, n):
        layout = SubspaceLayout(m, n)
        rng = np.random.default_rng(100 * m + n)
        schedules = random_schedule_set(rng, layout)
        for t in (0.0, 0.31, 0.97):
            frame = build_frame(layout, schedules, t)
            gram = gram_oracle(frame.vectors)
            assert np.max(np.abs(gram - np.eye(layout.dim))) <= 1e-12
            assert frame.gram_defect() <= 1e-12
            ident = frame.vectors @ frame.vectors.conj().T
            assert np.max(np.abs(ident - np.eye(layout.dim))) <= 1e-12

    def test_three_plus_four_random_angles(self):
        layout = SubspaceLayout(3, 4)
        rng = np.random.default_rng(42)
        schedules = random_schedule_set(rng, layout)
        frame = build_frame(layout, schedules, 0.5)
        assert np.max(np.abs(gram_oracle(frame.vectors) - np.eye(7))) <= 1e-12

    def test_cascade_orthogonality(self):
        layout = SubspaceLayout(3, 3)
        schedules = random_schedule_set(np.random.default_rng(5), layout)
        frame_columns_oracle(build_frame(layout, schedules, 0.25))


class TestDerivatives:
    def test_constant_schedules_have_zero_derivative(self):
        layout = SubspaceLayout(1, 2)
        err = frame_derivative_check(layout, bell_like_schedules(np.pi / 3, 0.7), 0.5, 1e-4)
        assert err <= 1e-12

    def test_cosine_ramp_derivative_error_small_and_second_order(self):
        layout = SubspaceLayout(2, 3)
        schedules = random_schedule_set(np.random.default_rng(11), layout)
        err_coarse = frame_derivative_check(layout, schedules, 0.5, 1e-4)
        assert err_coarse <= 1e-6
        err_fine = frame_derivative_check(layout, schedules, 0.5, 5e-5)
        assert 2.5 <= err_coarse / err_fine <= 5.5

    def test_degenerate_angles_allowed(self):
        # mixing angles exactly 0 or pi/2 must not blow up the cascade
        layout = SubspaceLayout(2, 2)
        table = {
            "ttheta_0": ParameterSchedule.constant(0.0),
            "talpha_0": ParameterSchedule.constant(0.0),
            "theta_0": ParameterSchedule.constant(np.pi / 2),
            "alpha_0": ParameterSchedule.constant(1.0),
            "phi": ParameterSchedule.constant(0.0),
            "alpha": ParameterSchedule.constant(0.0),
            "varphi": ParameterSchedule.constant(0.0),
        }
        frame = build_frame(layout, ScheduleSet(2, 2, 1.0, table), 0.0)
        assert frame.gram_defect() <= 1e-12


class TestErrors:
    def test_too_small_system_rejected(self):
        with pytest.raises(ValueError):
            SubspaceLayout(1, 1)
        with pytest.raises(ValueError):
            SubspaceLayout(0, 3)

    def test_layout_schedule_mismatch(self):
        layout = SubspaceLayout(2, 2)
        schedules = bell_like_schedules(0.3, 0.0)  # built for (1, 2)
        with pytest.raises(ValueError):
            build_frame(layout, schedules, 0.0)


def test_random_instances_stay_orthonormal_under_time_dependence():
    for seed in range(8):
        rng = np.random.default_rng(seed)
        layout = random_layout(rng, max_assistant=4, max_working=5)
        schedules = random_schedule_set(rng, layout)
        t = rng.uniform(0.0, 1.0)
        frame = build_frame(layout, schedules, t)
        assert frame.gram_defect() <= 1e-12


class TestBuffers:
    """The frame is written into arrays it allocates; callers may write into them."""

    FIELDS = ("vectors", "derivatives", "assistant_brights", "working_brights",
              "terminal_brights")

    @pytest.mark.parametrize("m,n", [(1, 2), (2, 3), (3, 4)])
    @pytest.mark.parametrize("t", [0.3, np.array([0.1, 0.5, 0.9])])
    def test_fields_are_contiguous_writable_and_unshared(self, m, n, t):
        layout = SubspaceLayout(m, n)
        schedules = random_schedule_set(np.random.default_rng(10 * m + n), layout)
        first, second = build_frame(layout, schedules, t), build_frame(layout, schedules, t)
        arrays = [getattr(frame, name) for frame in (first, second) for name in self.FIELDS]
        for a in arrays:
            assert a.flags.c_contiguous and a.flags.writeable and a.dtype == complex
        for i, a in enumerate(arrays):
            for b in arrays[i + 1:]:
                assert not np.shares_memory(a, b)

    @pytest.mark.parametrize("m,n", [(1, 2), (1, 4), (2, 2), (3, 4)])
    def test_shapes_for_a_float_time_and_an_array_of_times(self, m, n):
        layout = SubspaceLayout(m, n)
        schedules = random_schedule_set(np.random.default_rng(m + n), layout)
        d = m + n
        for lead in ((), (5,)):
            t = 0.4 if not lead else np.linspace(0.0, 1.0, 5)
            frame = build_frame(layout, schedules, t)
            assert frame.vectors.shape == frame.derivatives.shape == lead + (d, d)
            # M = 1 has no assistant cascade: no columns, not a missing field
            assert frame.assistant_brights.shape == lead + (d, m - 1)
            assert frame.working_brights.shape == lead + (d, n - 1)
            assert frame.terminal_brights.shape == lead + (d, 2)
