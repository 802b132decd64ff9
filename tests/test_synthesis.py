"""Drive synthesis: field values, passage residuals, phases, conversion, reductions."""

import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import cumulative_trapezoid

import qpassage
from qpassage.ancillary import SubspaceLayout, build_frame
from qpassage.dynamics import von_neumann_residual
from qpassage.linalg import frobenius
from qpassage.schedules import ParameterSchedule, ScheduleSet
from qpassage.synthesis import (SingularScheduleError, SynthesisError,
                                assemble_hamiltonian, block_form_defect,
                                channel_fields, convert_dark_state,
                                _cumulative_trapezoid, generated_phases, master_envelope,
                                reduction_crosscheck, _special_case_channels,
                                synthesize_general)
from qpassage.tolerances import TOL

from helpers import brute_force_unitaries, random_layout, random_schedule_set


def bell_step_schedules(alpha=np.pi, theta0=np.pi / 4, duration=1.0):
    """One assistant level, two working levels, quarter-period ramp pi/2 -> 0."""
    return ScheduleSet(1, 2, duration, {
        "theta_0": ParameterSchedule.constant(theta0, duration),
        "alpha_0": ParameterSchedule.constant(0.0, duration),
        "phi": ParameterSchedule.cosine_ramp(np.pi / 2, duration),
        "alpha": ParameterSchedule.constant(alpha, duration),
        "varphi": ParameterSchedule.constant(np.pi / 2, duration),
    })


def passage_residual(layout, schedules, hamiltonian, t, column):
    frame = build_frame(layout, schedules, t)
    return von_neumann_residual(frame.column(column), frame.derivatives[:, column],
                                hamiltonian(t))


class TestFieldValues:
    def test_two_channel_amplitudes_equal_at_balanced_mixing(self):
        schedules = bell_step_schedules()
        layout = SubspaceLayout(1, 2)
        plan = synthesize_general(layout, schedules, grid=100)
        # both channels carry Omega/sqrt(2): one through sin(theta_0), one through cos
        assert np.allclose(np.abs(plan.channel_amp[0, 0]), np.abs(plan.channel_amp[0, 1]), atol=1e-14)
        assert np.allclose(plan.channel_amp[0, 0],
                           plan.master_amp * np.sin(np.pi / 4), atol=1e-14)
        assert np.allclose(plan.channel_amp[0, 1],
                           plan.master_amp * np.cos(np.pi / 4), atol=1e-14)
        # drive phases: varphi on the first channel, varphi + alpha_0 on the second
        assert np.allclose(plan.channel_phase[0, 0], np.pi / 2, atol=1e-14)
        assert np.allclose(plan.channel_phase[0, 1], np.pi / 2, atol=1e-14)

    def test_detuning_reduces_to_phase_rate_on_the_locked_locus(self):
        # varphi + alpha = pi/2 kills the cotangent term, so Delta = d(alpha)/dt
        duration = 1.0
        table = {
            "theta_0": ParameterSchedule.constant(0.6),
            "alpha_0": ParameterSchedule.constant(0.4),
            "phi": ParameterSchedule.cosine_ramp(np.pi / 2),
            "alpha": ParameterSchedule.linear_ramp(offset=0.2, slope=0.7),
            "varphi": ParameterSchedule.sampled(
                np.linspace(0, 1, 2001),
                np.pi / 2 - (0.2 + 0.7 * np.linspace(0, 1, 2001))),
        }
        schedules = ScheduleSet(1, 2, duration, table)
        for t in (0.1, 0.5, 0.9):
            _, delta, _ = master_envelope(schedules, t)
            assert abs(delta - 0.7) <= 1e-8

    @pytest.mark.parametrize("duration", [1e-3, 1.0, 1e3])
    def test_a_slowly_moving_mixing_angle_keeps_the_cot_term(self, duration):
        # phi drifting by 5e-13 or 5e-12 rad over the step moves, in any
        # unit of time, so Delta = -2 phi' cot(varphi + alpha) cot(2 phi)
        for drift in (5e-13, 5e-12):
            rate = drift / duration
            schedules = bell_step_schedules(alpha=0.0, duration=duration).replace(
                phi=ParameterSchedule.linear_ramp(np.pi / 8, rate, duration),
                varphi=ParameterSchedule.constant(np.pi / 3, duration))
            phi = schedules.value("phi", 0.5 * duration)
            _, delta, _ = master_envelope(schedules, 0.5 * duration)
            expected = -2.0 * rate / np.tan(np.pi / 3) / np.tan(2.0 * phi)
            assert delta == pytest.approx(expected, rel=1e-14, abs=0.0)

    def test_balanced_two_assistant_levels(self):
        # ttheta_0 = theta_0 = pi/4 splits the master envelope evenly and the
        # channel ratio between the two assistant levels is -tan(ttheta_0)
        table = {
            "ttheta_0": ParameterSchedule.constant(np.pi / 4),
            "talpha_0": ParameterSchedule.constant(0.0),
            "theta_0": ParameterSchedule.constant(np.pi / 4),
            "alpha_0": ParameterSchedule.constant(0.0),
            "phi": ParameterSchedule.cosine_ramp(-np.pi / 2, offset=np.pi / 2),
            "alpha": ParameterSchedule.constant(np.pi),
            "varphi": ParameterSchedule.constant(np.pi / 2),
        }
        layout = SubspaceLayout(2, 2)
        plan = synthesize_general(layout, ScheduleSet(2, 2, 1.0, table), grid=100)
        assert np.allclose(plan.channel_amp[0, 0], plan.master_amp / 2, atol=1e-14)
        assert np.allclose(plan.channel_amp[0, 1], plan.master_amp / 2, atol=1e-14)
        assert np.allclose(plan.channel_amp[1], -plan.channel_amp[0], atol=1e-14)
        # same-phase channels at talpha_0 = alpha_0 = 0
        assert np.allclose(plan.channel_phase[0, 0] - plan.channel_phase[0, 1], 0.0, atol=1e-14)

    def test_channel_ratio_tracks_assistant_angle(self):
        rng = np.random.default_rng(1)
        layout = SubspaceLayout(2, 3)
        schedules = random_schedule_set(rng, layout)
        ttheta0 = schedules.value("ttheta_0", 0.0)
        amp, _, _, _, _ = channel_fields(layout, schedules, 0.5)
        assert np.allclose(amp[1] / amp[0], -np.tan(ttheta0), atol=1e-12)

    def test_factorization_is_static_for_constant_cascade_angles(self):
        layout = SubspaceLayout(2, 3)
        schedules = random_schedule_set(np.random.default_rng(14), layout)
        plan = synthesize_general(layout, schedules, grid=64)
        live = np.abs(plan.master_amp) > 1e-12
        ratios = plan.channel_amp[:, :, live] / plan.master_amp[live]
        assert np.max(np.ptp(ratios, axis=2)) <= 1e-12


class TestExport:
    def test_drive_plan_csv(self, tmp_path):
        layout = SubspaceLayout(2, 2)
        schedules = random_schedule_set(np.random.default_rng(31), layout)
        plan = synthesize_general(layout, schedules, grid=16)
        path = tmp_path / "plan.csv"
        plan.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == ("t,Omega_m0_n0,phase_m0_n0,Omega_m0_n1,phase_m0_n1,"
                            "Omega_m1_n0,phase_m1_n0,Omega_m1_n1,phase_m1_n1,Delta")
        assert len(lines) == 18
        row = [float(x) for x in lines[5].split(",")]
        i = 4
        assert row[0] == plan.times[i]
        assert row[1] == pytest.approx(plan.channel_amp[0, 0, i], abs=0)
        assert row[-1] == pytest.approx(plan.detuning[i], abs=0)


class TestValidation:
    def test_moving_cascade_angle_rejected(self):
        schedules = bell_step_schedules()
        schedules = schedules.replace(theta_0=ParameterSchedule.linear_ramp(0.3, 0.1))
        with pytest.raises(SynthesisError):
            synthesize_general(SubspaceLayout(1, 2), schedules, grid=50)

    def test_singular_drive_phase_rejected(self):
        # varphi + alpha at a multiple of pi while the mixing angle moves
        schedules = bell_step_schedules(alpha=0.0).replace(
            varphi=ParameterSchedule.constant(0.0))
        with pytest.raises(SingularScheduleError):
            synthesize_general(SubspaceLayout(1, 2), schedules, grid=50)

    def test_detuning_singularity_rejected(self):
        # cot(varphi+alpha) != 0 and the ramp crosses phi = pi/4 where cot(2 phi)
        # stays finite, but it ends at phi = 0 where the detuning diverges
        schedules = bell_step_schedules(alpha=0.0).replace(
            varphi=ParameterSchedule.constant(np.pi / 3))
        with pytest.raises(SingularScheduleError):
            synthesize_general(SubspaceLayout(1, 2), schedules, grid=50)

    @pytest.mark.parametrize("t", [0.5, np.array([0.2, 0.5, 1.0])])
    def test_subnormal_cross_phase_raises_without_a_warning(self, t):
        # sin(varphi + alpha) = 2.2e-313 while the mixing angle moves: the
        # envelope must not divide by it before raising
        schedules = bell_step_schedules(alpha=2.2e-313).replace(
            varphi=ParameterSchedule.constant(0.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(SingularScheduleError, match=r"sin\(varphi\+alpha\) = 2\.20e-313"):
                master_envelope(schedules, t)


class TestPassageCondition:
    @pytest.mark.parametrize("seed", range(6))
    def test_both_passages_solve_the_projector_equation(self, seed):
        rng = np.random.default_rng(seed)
        layout = random_layout(rng)
        schedules = random_schedule_set(rng, layout)
        plan = synthesize_general(layout, schedules, grid=100)
        h_scale = max(np.linalg.norm(plan.hamiltonian(t)) for t in (0.3, 0.7))
        for t in rng.uniform(0.05, 0.95, size=5):
            for col in (-2, -1):
                res = passage_residual(layout, schedules, plan.hamiltonian, t, col)
                assert res <= 1e-8 * h_scale

    @staticmethod
    def tiny_ramp(offset):
        """A 1+2 set whose mixing angle is a cosine ramp of amplitude 4.4e-83
        around `offset`, with cot(varphi + alpha) = cot(1)."""
        return ScheduleSet(1, 2, 1.0, {
            "theta_0": ParameterSchedule.constant(0.4),
            "alpha_0": ParameterSchedule.constant(0.2),
            "phi": ParameterSchedule.cosine_ramp(4.4e-83, offset=offset),
            "alpha": ParameterSchedule.constant(0.0),
            "varphi": ParameterSchedule.constant(1.0),
        })

    def test_a_mixing_ramp_of_any_magnitude_is_an_exact_passage(self):
        # no part of the fields is dropped for being small: phi' ~ 1e-83
        layout, ts = SubspaceLayout(1, 2), np.array([0.3, 0.6])
        schedules = self.tiny_ramp(0.5)
        h = assemble_hamiltonian(layout, schedules, ts)
        frame = build_frame(layout, schedules, ts)
        for col in (-2, -1):
            res = von_neumann_residual(frame.column(col), frame.derivatives[..., col], h)
            assert np.all(res <= TOL.passage_residual * frobenius(h))

    def test_a_tiny_ramp_at_a_multiple_of_half_pi_is_refused(self):
        # phi ~ 1e-83 keeps sin(2 phi) at 0 while cot(varphi + alpha) != 0
        with pytest.raises(SingularScheduleError, match="detuning diverges"):
            assemble_hamiltonian(SubspaceLayout(1, 2), self.tiny_ramp(0.0), np.array([0.3, 0.6]))

    def test_unlocked_cross_phase_still_passes_with_cot_detuning(self):
        # keep the mixing angle inside (0, pi/4) so cot(2 phi) stays finite;
        # then the detuning formula with cot(2 phi) satisfies the projector
        # equation even though cot(varphi+alpha) != 0
        layout = SubspaceLayout(1, 2)
        table = {
            "theta_0": ParameterSchedule.constant(0.7),
            "alpha_0": ParameterSchedule.constant(1.1),
            "phi": ParameterSchedule.cosine_ramp(np.pi / 8, offset=np.pi / 16),
            "alpha": ParameterSchedule.constant(np.pi / 6),
            "varphi": ParameterSchedule.constant(np.pi / 6),  # varphi+alpha = pi/3
        }
        schedules = ScheduleSet(1, 2, 1.0, table)
        plan = synthesize_general(layout, schedules, grid=100)
        assert np.max(np.abs(plan.detuning)) > 0.1  # the cot term is active
        h_scale = np.linalg.norm(plan.hamiltonian(0.5))
        for t in (0.2, 0.5, 0.8):
            for col in (-2, -1):
                assert passage_residual(layout, schedules, plan.hamiltonian, t, col) <= 1e-8 * h_scale

        # replacing the cot(2 phi) factor by cos(2 phi) breaks the condition
        def cos_variant(t):
            h = plan.hamiltonian(t)
            phi, dphi = schedules.pair("phi", t)
            alpha, dalpha = schedules.pair("alpha", t)
            vphi = schedules.value("varphi", t)
            w = dphi * np.cos(vphi + alpha) / np.sin(vphi + alpha)
            delta_cos = dalpha - 2.0 * w * np.cos(2 * phi)
            delta_cot = dalpha - 2.0 * w * np.cos(2 * phi) / np.sin(2 * phi)
            h[0, 0] += delta_cos - delta_cot
            return h

        res = passage_residual(layout, schedules, cos_variant, 0.5, -2)
        assert res > 1e-3 * h_scale

    def test_dark_and_shifted_frame_members(self):
        rng = np.random.default_rng(12)
        layout = SubspaceLayout(3, 3)
        schedules = random_schedule_set(rng, layout)
        plan = synthesize_general(layout, schedules, grid=50)
        t = 0.45
        h = plan.hamiltonian(t)
        h_norm = np.linalg.norm(h)
        frame = build_frame(layout, schedules, t)
        m_rows = layout.assistant_levels - 1
        # constant cascade controls leave every non-crossing member static
        cascade_cols = m_rows + layout.working_levels - 1
        assert np.max(np.abs(frame.derivatives[:, :cascade_cols])) == 0.0
        delta = master_envelope(schedules, t)[1]
        for k in range(m_rows):  # assistant members: eigenvectors at the detuning
            v = frame.column(k)
            assert np.linalg.norm(h @ v - delta * v) <= 1e-10 * h_norm
        for k in range(m_rows, m_rows + layout.working_levels - 1):  # dark members
            assert np.linalg.norm(h @ frame.column(k)) <= 1e-10 * h_norm

    def test_bright_basis_block_form(self):
        rng = np.random.default_rng(13)
        layout = SubspaceLayout(3, 4)
        schedules = random_schedule_set(rng, layout)
        t = 0.37
        h = assemble_hamiltonian(layout, schedules, t)
        frame = build_frame(layout, schedules, t)
        omega, delta, vphi = master_envelope(schedules, t)
        assert block_form_defect(frame, h, delta, omega, vphi) <= 1e-10


class TestGeneratedPhases:
    def test_locked_protocol_point_has_no_phases(self):
        layout = SubspaceLayout(1, 2)
        schedules = bell_step_schedules()
        plan = synthesize_general(layout, schedules, grid=100)
        phases = generated_phases(plan)
        assert phases.assistant.shape == (0, 101)
        assert np.max(np.abs(phases.working)) == 0.0
        assert np.max(np.abs(phases.passage_lo)) <= 1e-12
        assert np.max(np.abs(phases.passage_hi)) <= 1e-12

    def test_phases_match_brute_force_arguments(self):
        # detuned family: cot(varphi+alpha) != 0 with the ramp inside (0, pi/4)
        layout = SubspaceLayout(2, 2)
        table = {
            "ttheta_0": ParameterSchedule.constant(0.5),
            "talpha_0": ParameterSchedule.constant(0.9),
            "theta_0": ParameterSchedule.constant(0.8),
            "alpha_0": ParameterSchedule.constant(0.3),
            "phi": ParameterSchedule.cosine_ramp(np.pi / 8, offset=np.pi / 16),
            "alpha": ParameterSchedule.constant(0.4),
            "varphi": ParameterSchedule.constant(np.pi / 3 - 0.4),
        }
        schedules = ScheduleSet(2, 2, 1.0, table)
        plan = synthesize_general(layout, schedules, grid=2000)
        phases = generated_phases(plan)
        _, u_bf = brute_force_unitaries(plan.hamiltonian, layout.dim, 0.0, 1.0, 8000)
        f = phases.as_matrix()
        for idx in (500, 1200, 2000):
            frame = build_frame(layout, schedules, plan.times[idx])
            frame0 = build_frame(layout, schedules, 0.0)
            for k in range(layout.dim):
                overlap = np.vdot(frame.column(k), u_bf[idx * 4] @ frame0.column(k))
                diff = np.angle(overlap) - f[k, idx]
                diff = (diff + np.pi) % (2 * np.pi) - np.pi
                assert abs(diff) <= 1e-6
                assert abs(abs(overlap) - 1.0) <= 1e-6

    @pytest.mark.parametrize("seed", range(5))
    def test_trapezoid_matches_scipy_bit_for_bit(self, seed):
        rng = np.random.default_rng(seed)
        x = np.cumsum(rng.uniform(1e-3, 1.0, size=rng.integers(2, 500)))
        y = rng.normal(size=x.size)
        assert np.array_equal(_cumulative_trapezoid(y, x),
                              cumulative_trapezoid(y, x, initial=0.0))


def test_import_loads_no_scipy():
    src = str(Path(qpassage.__file__).resolve().parents[1])
    code = ("import sys, qpassage; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src}).stdout
    assert out.strip() == "[]"


class TestConversion:
    def _three_level_assistant(self, talpha_sched, ttheta_sched):
        table = {
            "ttheta_0": ttheta_sched,
            "talpha_0": talpha_sched,
            "ttheta_1": ParameterSchedule.constant(0.8),
            "talpha_1": ParameterSchedule.constant(0.25),
            "theta_0": ParameterSchedule.constant(0.6),
            "alpha_0": ParameterSchedule.constant(1.9),
            "phi": ParameterSchedule.cosine_ramp(np.pi / 2),
            "alpha": ParameterSchedule.constant(0.7),
            "varphi": ParameterSchedule.constant(np.pi / 2 - 0.7),
        }
        return SubspaceLayout(3, 2), ScheduleSet(3, 2, 1.0, table)

    def test_static_target_degenerates_to_no_drive(self):
        layout, schedules = self._three_level_assistant(
            ParameterSchedule.constant(0.4), ParameterSchedule.constant(1.0))
        aux = convert_dark_state(layout, schedules, 0)
        assert aux.rates(0.5) == (0.0, 0.0)
        assert np.max(np.abs(aux.matrix(layout, 0.5))) == 0.0

    def test_linear_phase_ramp_gives_constant_extra_detuning(self):
        slope = 0.8
        layout, schedules = self._three_level_assistant(
            ParameterSchedule.linear_ramp(0.1, slope), ParameterSchedule.constant(1.0))
        aux = convert_dark_state(layout, schedules, 0)
        for t in (0.1, 0.6):
            _, delta = aux.rates(t)
            assert abs(delta - slope) <= 1e-12

    def test_coupling_element_against_running_bright_state(self):
        layout = SubspaceLayout(3, 2)
        table = {
            "ttheta_0": ParameterSchedule.constant(1.0),
            "talpha_0": ParameterSchedule.constant(0.4),
            "ttheta_1": ParameterSchedule.cosine_ramp(0.9, offset=0.2),
            "talpha_1": ParameterSchedule.linear_ramp(0.2, 0.5),
            "theta_0": ParameterSchedule.constant(0.6),
            "alpha_0": ParameterSchedule.constant(1.9),
            "phi": ParameterSchedule.cosine_ramp(np.pi / 2),
            "alpha": ParameterSchedule.constant(0.7),
            "varphi": ParameterSchedule.constant(np.pi / 2 - 0.7),
        }
        schedules = ScheduleSet(3, 2, 1.0, table)
        aux = convert_dark_state(layout, schedules, 1)
        t = 0.33
        h_aux = aux.matrix(layout, t)
        frame = build_frame(layout, schedules, t)
        tb_prev = frame.assistant_brights[:, 0]
        upper = np.zeros(layout.dim, dtype=complex)
        upper[layout.assistant_index(2)] = 1.0
        w, _ = aux.rates(t)
        talpha_m = schedules.value("talpha_1", t)
        expected = w * np.exp(1j * (np.pi / 2 - talpha_m))
        assert abs(np.vdot(upper, h_aux @ tb_prev) - expected) <= 1e-12

    @pytest.mark.parametrize("target", [0, 1])
    def test_converted_member_passes_the_projector_equation(self, target):
        rng = np.random.default_rng(17 + target)
        moving_angle = ParameterSchedule.cosine_ramp(
            rng.uniform(0.3, 0.9), offset=rng.uniform(0.2, 0.5))
        moving_phase = ParameterSchedule.linear_ramp(
            rng.uniform(0, 1), rng.uniform(-0.8, 0.8))
        table = {
            "ttheta_0": ParameterSchedule.constant(0.5),
            "talpha_0": ParameterSchedule.constant(1.2),
            "ttheta_1": ParameterSchedule.constant(0.9),
            "talpha_1": ParameterSchedule.constant(0.3),
            "theta_0": ParameterSchedule.constant(0.7),
            "alpha_0": ParameterSchedule.constant(2.1),
            "phi": ParameterSchedule.cosine_ramp(np.pi / 2),
            "alpha": ParameterSchedule.constant(1.0),
            "varphi": ParameterSchedule.constant(np.pi / 2 - 1.0),
        }
        table[f"ttheta_{target}"] = moving_angle
        table[f"talpha_{target}"] = moving_phase
        layout = SubspaceLayout(3, 2)
        schedules = ScheduleSet(3, 2, 1.0, table)
        aux = convert_dark_state(layout, schedules, target)

        def h_full(t):
            return assemble_hamiltonian(layout, schedules, t, aux)

        col = target  # assistant members come first in the frame ordering
        h_scale = max(np.linalg.norm(h_full(t)) for t in (0.3, 0.7))
        for t in (0.21, 0.52, 0.83):
            assert passage_residual(layout, schedules, h_full, t, col) <= 1e-8 * h_scale
            # the cross-subspace passages survive the added drive
            for cross in (-2, -1):
                assert passage_residual(layout, schedules, h_full, t, cross) <= 1e-8 * h_scale

    def test_working_angle_reading_fails_the_residual_check(self):
        table = {
            "ttheta_0": ParameterSchedule.cosine_ramp(0.8, offset=0.3),
            "talpha_0": ParameterSchedule.constant(0.2),
            "ttheta_1": ParameterSchedule.constant(0.9),
            "talpha_1": ParameterSchedule.constant(0.3),
            "theta_0": ParameterSchedule.constant(0.7),
            "alpha_0": ParameterSchedule.constant(2.1),
            "phi": ParameterSchedule.cosine_ramp(np.pi / 2),
            "alpha": ParameterSchedule.constant(1.0),
            "varphi": ParameterSchedule.constant(np.pi / 2 - 1.0),
        }
        layout = SubspaceLayout(3, 2)
        schedules = ScheduleSet(3, 2, 1.0, table)
        aux = convert_dark_state(layout, schedules, 0, angle_source="working")

        def h_full(t):
            return assemble_hamiltonian(layout, schedules, t, aux)

        t = 0.5
        res = passage_residual(layout, schedules, h_full, t, 0)
        assert res > 1e-3 * np.linalg.norm(h_full(t))

    def test_out_of_range_target_rejected(self):
        layout, schedules = self._three_level_assistant(
            ParameterSchedule.constant(0.4), ParameterSchedule.constant(1.0))
        with pytest.raises(SynthesisError):
            convert_dark_state(layout, schedules, 2)

    def test_plan_carries_the_auxiliary_drive(self):
        layout, schedules = self._three_level_assistant(
            ParameterSchedule.linear_ramp(0.1, 0.4),
            ParameterSchedule.cosine_ramp(0.7, offset=0.3))
        aux = convert_dark_state(layout, schedules, 0)
        # without the aux drive the moving pair is rejected outright
        with pytest.raises(SynthesisError):
            synthesize_general(layout, schedules, grid=32)
        plan = synthesize_general(layout, schedules, grid=32, aux=aux)
        t = 0.4
        assert np.allclose(plan.hamiltonian(t),
                           assemble_hamiltonian(layout, schedules, t, aux), atol=0)


class TestReduction:
    def test_single_assistant_level_agrees_to_roundoff(self):
        layout = SubspaceLayout(1, 2)
        report = reduction_crosscheck(layout, random_schedule_set(np.random.default_rng(21), layout))
        assert report.agreement
        assert report.max_coefficient_diff <= 1e-12
        assert report.residual_max <= 1e-8 * report.hamiltonian_scale

    def test_two_assistant_levels_agree_and_keep_ratio(self):
        layout = SubspaceLayout(2, 2)
        schedules = random_schedule_set(np.random.default_rng(22), layout)
        report = reduction_crosscheck(layout, schedules)
        assert report.agreement
        amp, _, _, _, _ = channel_fields(layout, schedules, 0.5)
        assert np.allclose(amp[1] / amp[0],
                           -np.tan(schedules.value("ttheta_0", 0.0)), atol=1e-12)

    def test_product_limit_note_present(self):
        layout = SubspaceLayout(1, 3)
        report = reduction_crosscheck(layout, random_schedule_set(np.random.default_rng(23), layout))
        assert report.agreement
        assert any("product limit" in note or "N-2" in note for note in report.notes)

    @pytest.mark.parametrize("m_levels", [1, 2])
    @pytest.mark.parametrize("n_levels", [2, 3, 4])
    def test_special_case_formulas_on_an_array_equal_the_scalar_loop_bit_for_bit(
            self, m_levels, n_levels):
        layout = SubspaceLayout(m_levels, n_levels)
        rng = np.random.default_rng(10 * m_levels + n_levels)
        schedules = random_schedule_set(rng, layout, cross_phase_locked=False)
        ts = np.concatenate([[0.5], rng.uniform(0.05, 0.95, 30)])
        stacked = _special_case_channels(layout, schedules, ts)
        loop = [_special_case_channels(layout, schedules, t) for t in ts]
        for got, want in zip(stacked, zip(*loop)):
            want = np.array(want)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()  # sign bits of zeros included

    def test_three_assistant_levels_rejected(self):
        layout = SubspaceLayout(3, 2)
        with pytest.raises(SynthesisError):
            reduction_crosscheck(layout, random_schedule_set(np.random.default_rng(24), layout))
