"""Bell/GHZ step Hamiltonians, plans, and closed-system protocol runs."""

import numpy as np
import pytest
from scipy.integrate import trapezoid

from qpassage.protocols import (CALIBRATED_OMEGA_T, ProtocolError, QubitModel,
                                build_step_hamiltonian, diagnostics_ok, plan_bell,
                                plan_bell_reverse, plan_ghz, product_index,
                                product_state, run_protocol)
from qpassage.synthesis import master_envelope


def idx(label):
    return product_index(label)


class TestProductBasis:
    def test_indexing(self):
        assert product_index("ee") == 0
        assert product_index("eg") == 1
        assert product_index("ge") == 2
        assert product_index("gg") == 3
        assert product_index("geg") == 0b101

    def test_state(self):
        ket = product_state("eg")
        assert ket[1] == 1.0 and np.count_nonzero(ket) == 1

    def test_bad_label(self):
        with pytest.raises(ProtocolError):
            product_index("ex")


class TestStepHamiltonians:
    def test_split_step_drives_only_out_of_the_ground_state(self):
        model = QubitModel(qubits=2)
        step = plan_bell(model).steps[0]
        t = 0.4
        h = build_step_hamiltonian(step, model, t)
        coeffs = step.drive_coefficients(t)
        assert h[idx("eg"), idx("gg")] == coeffs[0]
        assert h[idx("ge"), idx("gg")] == coeffs[1]
        assert abs(coeffs[0]) == pytest.approx(abs(coeffs[1]), abs=1e-14)
        # transitions into the double excitation are suppressed exactly
        assert np.all(h[idx("ee"), :] == 0.0)
        assert np.all(h[:, idx("ee")] == 0.0)

    def test_convert_step_shares_each_drive_between_two_transitions(self):
        model = QubitModel(qubits=2)
        step = plan_bell(model).steps[1]
        t = 0.3
        h = build_step_hamiltonian(step, model, t)
        c0 = h[idx("ee"), idx("ge")]
        assert h[idx("eg"), idx("gg")] == pytest.approx(c0, abs=1e-15)
        c1 = h[idx("ee"), idx("eg")]
        assert h[idx("ge"), idx("gg")] == pytest.approx(c1, abs=1e-15)
        assert abs(c0) > 0

    def test_all_drives_off_gives_zero_matrix(self):
        # the ramp starts flat, so the master envelope vanishes at t = 0
        model = QubitModel(qubits=2)
        step = plan_bell(model).steps[0]
        assert np.all(build_step_hamiltonian(step, model, 0.0) == 0.0)

    def test_ghz_raise_step_keeps_only_neighbor_conditioned_lines(self):
        model = QubitModel(qubits=3)
        step = plan_ghz(model).steps[2]
        h = build_step_hamiltonian(step, model, 0.5)
        nonzero = {(r, c) for r, c in zip(*np.nonzero(h))}
        expected = {(idx("eee"), idx("eeg")), (idx("eeg"), idx("eee")),
                    (idx("gee"), idx("geg")), (idx("geg"), idx("gee"))}
        assert nonzero == expected

    @pytest.mark.parametrize("mode", ["effective", "rotating-frame"])
    def test_ghz_raise_step_matches_the_bare_pair_model(self, mode):
        # oracle: Omega e^{i varphi} on every |..e e..><..e g..| line of the driven
        # qubit (the counter lines, neighbor in |g>, rotate at -2J), Delta on upper
        model = QubitModel(qubits=4, omega=CALIBRATED_OMEGA_T)
        j = model.j_coupling
        for step in plan_ghz(model).steps[2:]:
            q = step.drives[0]
            lower = idx("e" * q + "g" * (4 - q))
            upper = idx("e" * (q + 1) + "g" * (3 - q))
            for t in (0.1, 0.37, 0.5, 0.82):
                omega, delta, vphi = master_envelope(step.schedules, t)
                c = omega * np.exp(1j * vphi)
                oracle = np.zeros((16, 16), dtype=complex)
                for col in range(16):
                    bits = format(col, "04b")  # per qubit: 0 = e, 1 = g
                    if bits[q] != "1":
                        continue
                    row = int(bits[:q] + "0" + bits[q + 1:], 2)
                    if bits[q - 1] == "0":
                        oracle[row, col] = c
                    elif mode == "rotating-frame":
                        oracle[row, col] = c * np.exp(-2j * j * t)
                oracle += oracle.conj().T
                oracle[upper, upper] += delta
                h = build_step_hamiltonian(step, model, t, mode=mode)
                assert np.array_equal(h, oracle)
                v, dv = step.passage_vectors(t)
                assert abs(v[lower]) ** 2 + abs(v[upper]) ** 2 == pytest.approx(1.0, abs=1e-14)
                assert v[idx("gggg")] == 0.0 and dv[idx("gggg")] == 0.0

    def test_rotating_frame_counter_term_averages_out(self):
        # J*T = 40 pi: the doubly rotating line integrates to ~zero over one period
        omega_t = 40 * np.pi / 0.1
        model = QubitModel(qubits=2, omega=omega_t)
        step = plan_bell(model).steps[0]
        j = model.j_coupling
        period = np.pi / j
        ts = np.linspace(0.45, 0.45 + period, 400)
        samples = np.array([build_step_hamiltonian(step, model, t, mode="rotating-frame")[
            idx("ee"), idx("ge")] for t in ts])
        avg = trapezoid(samples, ts) / period
        assert abs(avg) <= 0.05 * np.max(np.abs(samples))

    def test_convert_step_rotating_frame_equals_effective(self):
        # with the coupling off there is nothing left to average away
        model = QubitModel(qubits=2, omega=3000.0)
        step = plan_bell(model).steps[1]
        for t in (0.2, 0.8):
            h_rot = build_step_hamiltonian(step, model, t, mode="rotating-frame")
            h_eff = build_step_hamiltonian(step, model, t, mode="effective")
            assert np.allclose(h_rot, h_eff, atol=1e-15)

    def test_rotating_frame_needs_a_scale(self):
        model = QubitModel(qubits=2)  # no omega
        step = plan_bell(model).steps[0]
        with pytest.raises(ProtocolError):
            build_step_hamiltonian(step, model, 0.1, mode="rotating-frame")


class TestPlans:
    def test_bell_targets(self):
        plan = plan_bell(QubitModel(qubits=2))
        psi_plus = (product_state("eg") + product_state("ge")) / np.sqrt(2)
        phi_minus = (product_state("ee") - product_state("gg")) / np.sqrt(2)
        assert np.allclose(plan.steps[0].target, psi_plus)
        assert np.allclose(plan.steps[1].target, phi_minus)
        assert np.allclose(plan.final_target, phi_minus)

    def test_bell_reverse_converts_back(self):
        plan = plan_bell_reverse(QubitModel(qubits=2))
        assert plan.steps[0].t_start == 1.0
        model = QubitModel(qubits=2)
        res = run_protocol(plan, model, compute_residual=False)
        assert res.fidelity[-1] >= 1 - 1e-9
        assert res.times[0] == 1.0 and res.times[-1] == pytest.approx(2.0)

    def test_ghz_intermediate_and_final_targets(self):
        plan = plan_ghz(QubitModel(qubits=3))
        mid = (product_state("eeg") - product_state("ggg")) / np.sqrt(2)
        final = (product_state("eee") - product_state("ggg")) / np.sqrt(2)
        assert np.allclose(plan.steps[1].target, mid)
        assert np.allclose(plan.final_target, final)

    def test_ghz_needs_three_qubits(self):
        with pytest.raises(ProtocolError):
            plan_ghz(QubitModel(qubits=2))

    def test_model_validation(self):
        with pytest.raises(ProtocolError):
            QubitModel(qubits=1)
        with pytest.raises(ProtocolError):
            QubitModel(qubits=2, kappa=-0.1)

    @pytest.mark.parametrize("boundary", ["caption", "text"])
    def test_both_split_boundary_choices_ship(self, boundary):
        plan = plan_bell(QubitModel(qubits=2), boundary=boundary)
        model = QubitModel(qubits=2)
        res = run_protocol(plan, model, grid_steps=600)
        assert res.steps[0]["target_fidelity"] >= 1 - 1e-8
        assert res.diagnostics["max_residual_relative"] <= 1e-8

    def test_unknown_boundary_rejected(self):
        with pytest.raises(ProtocolError):
            plan_bell(QubitModel(qubits=2), boundary="other")


class TestClosedRuns:
    def test_bell_sequence_is_exact(self):
        model = QubitModel(qubits=2)
        res = run_protocol(plan_bell(model), model)
        assert res.steps[0]["target_fidelity"] >= 1 - 1e-9
        assert res.steps[1]["target_fidelity"] >= 1 - 1e-9
        at_T = np.searchsorted(res.times, 1.0)
        assert res.populations["eg"][at_T] == pytest.approx(0.5, abs=1e-6)
        assert res.populations["ge"][at_T] == pytest.approx(0.5, abs=1e-6)
        assert np.max(res.populations["ee"][:at_T + 1]) <= 1e-10
        assert res.diagnostics["norm_drift"] <= 1e-9
        assert diagnostics_ok(res)

    def test_step_boundary_continuity(self):
        model = QubitModel(qubits=3)
        plan = plan_ghz(model)
        res = run_protocol(plan, model, grid_steps=800, compute_residual=False)
        for record in res.steps:
            assert record["target_fidelity"] >= 0.999

    def test_ghz3_population_schedule(self):
        model = QubitModel(qubits=3)
        res = run_protocol(plan_ghz(model), model, grid_steps=1000, compute_residual=False)
        at_2T = np.searchsorted(res.times, 2.0)
        assert res.populations["eeg"][at_2T] == pytest.approx(0.5, abs=1e-6)
        assert res.populations["ggg"][at_2T] == pytest.approx(0.5, abs=1e-6)
        assert res.fidelity[-1] >= 1 - 1e-8
        # the all-ground component is a bystander during the raise step
        tail = res.populations["ggg"][at_2T:]
        assert np.max(np.abs(tail - tail[0])) <= 1e-6

    def test_population_sum_closes(self):
        model = QubitModel(qubits=2)
        res = run_protocol(plan_bell(model), model, grid_steps=500, compute_residual=False)
        total = sum(res.populations.values())
        assert np.max(total) <= 1 + 1e-8
        assert np.min(total) >= 1 - 1e-8


class TestRotatingFrameRuns:
    def test_rwa_improves_with_coupling_strength(self):
        fidelities = []
        for ratio in (5.0, 10.0, 20.0):
            peak = np.pi ** 2 / 4 / np.sqrt(2)  # peak per-channel Rabi amplitude
            omega = ratio * peak / 0.1
            model = QubitModel(qubits=2, omega=omega)
            plan = plan_bell(model)
            res = run_protocol(plan, model, mode="rotating-frame", grid_steps=6000,
                               strict=False, compute_residual=False)
            fidelities.append(res.steps[0]["target_fidelity"])
        assert fidelities[0] < fidelities[1] < fidelities[2]
        assert fidelities[2] >= 0.995

    def test_strict_mode_rejects_weak_coupling(self):
        model = QubitModel(qubits=2, omega=20.0)  # J = 2, far below 10x Rabi
        plan = plan_bell(model)
        with pytest.raises(ProtocolError):
            run_protocol(plan, model, mode="rotating-frame", grid_steps=200)

    def test_unknown_mode_rejected(self):
        model = QubitModel(qubits=2)
        with pytest.raises(ProtocolError):
            run_protocol(plan_bell(model), model, mode="lab-frame")


class TestNoisyRuns:
    def test_noise_degrades_fidelity_monotonically(self):
        results = []
        for kappa in (0.0, 0.02, 0.08):
            model = QubitModel(qubits=2, kappa=kappa)
            res = run_protocol(plan_bell(model), model, noise=kappa > 0,
                               grid_steps=800, compute_residual=False)
            results.append(res.steps[0]["target_fidelity"])
        assert results[0] > results[1] > results[2]

    def test_trace_is_preserved(self):
        model = QubitModel(qubits=2, kappa=0.05)
        res = run_protocol(plan_bell(model), model, noise=True,
                           grid_steps=800, compute_residual=False)
        assert res.diagnostics["trace_drift"] <= 1e-7
        assert res.diagnostics["min_eigenvalue"] >= -1e-7
        assert diagnostics_ok(res)
