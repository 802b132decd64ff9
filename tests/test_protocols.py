"""Bell/GHZ step Hamiltonians, plans, and closed-system protocol runs."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import trapezoid

from qpassage import dynamics, linalg, protocols
from qpassage.protocols import (CALIBRATED_OMEGA_T, ProtocolError, ProtocolPlan, ProtocolStep,
                                QubitModel, build_step_blocks, build_step_hamiltonian,
                                diagnostics_ok, plan_bell, plan_bell_reverse, plan_ghz,
                                product_index, product_state, run_protocol, run_protocol_kappas)
from qpassage.dynamics import (SPAN, Dissipator, StepSizeError, TimeGrid, _span, populations,
                               propagate_lindblad, propagate_schrodinger, von_neumann_residual)
from qpassage.linalg import SIGMA_MINUS, embed_qubit_operator, outer
from qpassage.synthesis import master_envelope

from helpers import fail_trace_gate


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


class TestClassBlocks:
    """H as one block per class of groups: scattered by `which`, the bits of
    filling every group, and one exponential per distinct group."""

    @staticmethod
    def _every_group(step, model, t, mode):
        """H's (S, b, b) blocks filled group by group, every line's phase
        factor taken: the per-group coding the classes replace."""
        j = model.j_coupling if mode == "rotating-frame" else 0.0
        h_red = step.reduced_hamiltonian(t)
        size = step.block
        h = np.zeros(t.shape + (step.dim // size, size, size), dtype=complex)
        for q, groups, rows, cols, n in protocols._transition_lines(step):
            keep = (n == 0) | (mode == "rotating-frame")
            groups, rows, cols, n = groups[keep], rows[keep], cols[keep], n[keep]
            c = h_red[(..., *step.rep[q])][..., None] * np.exp(1j * (n * j) * t[..., None])
            h[..., groups, rows, cols] += c
            h[..., groups, cols, rows] += np.conj(c)
        embed = step.position[list(step.embed)]
        h[..., embed // size, embed % size, embed % size] += np.diagonal(
            h_red, axis1=-2, axis2=-1).real
        return h

    @pytest.mark.parametrize("mode", ["effective", "rotating-frame"])
    @pytest.mark.parametrize("qubits", [2, 3, 4, 5, 6])
    def test_scattered_by_which_they_are_every_groups_blocks(self, qubits, mode):
        model = QubitModel(qubits=qubits, omega=CALIBRATED_OMEGA_T)
        plans = [plan_bell(model), plan_bell_reverse(model)] if qubits == 2 else [plan_ghz(model)]
        for step in [step for plan in plans for step in plan.steps]:
            t = np.linspace(0.0, step.duration, 257)
            blocks, which = protocols._class_blocks(step, model, t, mode)
            assert blocks.shape[1] <= 4 and which.shape == (step.dim // step.block,)
            want = self._every_group(step, model, t, mode)
            assert blocks[:, which].tobytes() == want.tobytes()
            assert build_step_blocks(step, model, t, mode).tobytes() == want.tobytes()

    def test_each_span_exponentiates_each_distinct_group_once(self, monkeypatch):
        # at GHZ5 the split and convert steps hold one block in all 8 groups,
        # each raise step one driven block in 16 and, in effective mode, an
        # idle one, whose unitaries need no exponential
        seen = []

        def counted(blocks, scale):
            seen.append(blocks.shape[1])
            return linalg.expm_hermitian(blocks, scale)

        monkeypatch.setattr(dynamics, "expm_hermitian", counted)
        model = QubitModel(qubits=5, omega=CALIBRATED_OMEGA_T)
        grid = TimeGrid(0.0, 1.0, 256)
        mids = grid.times[:-1] + 0.5 * grid.dt
        counts = {}
        for mode in ("effective", "rotating-frame"):
            for step in plan_ghz(model).steps:
                seen.clear()
                dynamics._step_unitaries(
                    lambda t, _step=step: protocols._class_blocks(_step, model, t, mode),
                    mids, step.dim, grid.dt)
                full = build_step_blocks(step, model, mids, mode)
                distinct = {full[:, s].tobytes() for s in range(full.shape[1]) if full[:, s].any()}
                assert seen == [len(distinct)]
                counts.setdefault(mode, []).append(seen[0])
        assert counts == {"effective": [1] * 5, "rotating-frame": [1, 1, 2, 2, 2]}


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

    @pytest.mark.parametrize("field, value, message", [
        ("kappa", float("nan"), "decay rate must be finite and non-negative"),
        ("kappa", float("inf"), "decay rate must be finite and non-negative"),
        ("omega", float("nan"), r"omega\*T scale must be finite and positive"),
        ("omega", float("inf"), r"omega\*T scale must be finite and positive"),
        ("omega", 0.0, r"omega\*T scale must be finite and positive"),
        ("j_over_omega", float("nan"), "coupling ratio must be finite and non-negative"),
    ])
    def test_model_rejects_non_finite_parameters(self, field, value, message):
        with pytest.raises(ProtocolError, match=message):
            QubitModel(qubits=2, **{field: value})

    def test_model_rejects_a_coupling_that_overflows(self):
        # each factor is finite, their product J is not
        with pytest.raises(ProtocolError, match=r"^coupling J = 1e\+300 \* 1e\+10 is not finite$"):
            QubitModel(qubits=2, omega=1e10, j_over_omega=1e300)
        assert QubitModel(qubits=2, omega=1e8, j_over_omega=1e300).j_coupling < float("inf")
        assert QubitModel(qubits=2, j_over_omega=1e300).omega is None  # J is not formed

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

    def test_a_step_is_checked_when_it_is_built(self):
        convert = plan_bell(QubitModel(qubits=2)).steps[1]
        with pytest.raises(ProtocolError, match="declared boundaries do not map"):
            dataclasses.replace(convert, target=product_state("gg"))

    def test_a_plan_refuses_steps_that_do_not_chain(self):
        plan = plan_bell(QubitModel(qubits=2))
        split, convert = plan.steps
        with pytest.raises(ProtocolError, match="step chain is not continuous"):
            ProtocolPlan("bell", [convert, split], plan.labels)

    def test_a_step_computes_its_inverse_order_once(self):
        for step in plan_ghz(QubitModel(qubits=4)).steps:
            assert step.position is step.position
            assert np.array_equal(step.position, np.argsort(step.order))


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


class TestDiagnosticsGate:
    CLEAN = {"norm_drift": 1e-13, "trace_drift": 1e-13, "min_eigenvalue": -1e-15,
             "max_residual_relative": 1e-9}

    @staticmethod
    def _result(diagnostics):
        return dynamics.SimulationResult(np.zeros(1), {}, np.zeros(1), np.zeros(1), diagnostics)

    @pytest.mark.parametrize("key", list(CLEAN))
    def test_a_nan_diagnostic_fails_the_gate(self, key):
        assert diagnostics_ok(self._result(self.CLEAN))
        assert not diagnostics_ok(self._result({**self.CLEAN, key: float("nan")}))

    def test_the_residual_is_gated_in_effective_mode_only(self):
        spoilt = self._result({**self.CLEAN, "max_residual_relative": float("nan")})
        assert diagnostics_ok(spoilt, "rotating-frame")
        assert not diagnostics_ok(spoilt, "effective")


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

    def test_open_ghz3_step_fidelities_are_pinned(self):
        # the benchmark's rotating-frame GHZ3 open run, whose own check
        # accepts any fidelity in [0, 1]
        model = QubitModel(qubits=3, omega=CALIBRATED_OMEGA_T, kappa=0.0145)
        res = run_protocol(plan_ghz(model), model, mode="rotating-frame", noise=True,
                           grid_steps=2000, strict=True, compute_residual=False)
        assert diagnostics_ok(res, "rotating-frame")
        got = {record["name"]: record["target_fidelity"] for record in res.steps}
        assert got == pytest.approx({"split": 0.9963562573676489, "convert": 0.9820735203987985,
                                     "raise-3": 0.9661303297706736}, abs=1e-9)

    def test_strict_mode_rejects_weak_coupling(self):
        model = QubitModel(qubits=2, omega=20.0)  # J = 2, far below 10x Rabi
        plan = plan_bell(model)
        with pytest.raises(ProtocolError):
            run_protocol(plan, model, mode="rotating-frame", grid_steps=200)

    def test_weak_coupling_is_refused_before_any_step_propagates(self, monkeypatch):
        # J = 20: split's peak Rabi amplitude 1.745 passes the 10x rule and
        # raise-3's 2.467 fails it, so a check per step would integrate split
        # and convert first
        model = QubitModel(qubits=3, omega=200.0)
        plan = plan_ghz(model)

        def must_not_propagate(*args):
            raise AssertionError("a step was propagated before the coupling check")

        monkeypatch.setattr(protocols, "_propagate", must_not_propagate)
        with pytest.raises(ProtocolError, match=r"^step 'raise-3' relies on a strong coupling; "
                                                r"J = 20 is below 10x the peak Rabi amplitude "
                                                r"2\.47$"):
            run_protocol_kappas(plan, model, [0.0, 0.0145], mode="rotating-frame")
        monkeypatch.undo()
        # strict=False runs it anyway
        res = run_protocol_kappas(plan, model, [0.0], mode="rotating-frame", grid_steps=50,
                                  strict=False, compute_residual=False)
        assert [record["name"] for record in res[0].steps] == ["split", "convert", "raise-3"]

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


class TestStreamedSeries:
    @pytest.mark.parametrize("qubits, kappa", [(3, 0.0), (3, 0.0145), (4, 0.0), (4, 0.0145)],
                             ids=["0.0", "0.0145", "ghz4-0.0", "ghz4-0.0145"])
    def test_series_equal_those_of_the_stored_trajectories(self, qubits, kappa):
        # 150 intervals per step: two full blocks and a partial one
        model = QubitModel(qubits=qubits, omega=CALIBRATED_OMEGA_T, kappa=kappa)
        plan = plan_ghz(model)
        res = run_protocol(plan, model, noise=True, grid_steps=150, compute_residual=False)
        lowering = [embed_qubit_operator(SIGMA_MINUS, qubits, q) for q in range(qubits)]
        state = plan.initial if kappa == 0 else outer(plan.initial)
        pops = {name: [] for name in plan.labels}
        fidelity = []
        for n, step in enumerate(plan.steps):
            # both oracles propagate each step's blocks in the step order with
            # a stored trajectory, as the run does with its observer
            grid = TimeGrid(0.0, step.duration, 150)
            order, back = step.order, np.argsort(step.order)

            def h_blocks(t, _step=step):
                return build_step_blocks(_step, model, t)

            if kappa == 0:
                traj = propagate_schrodinger(h_blocks, state[order], grid)
                states = traj.states
                state = traj.final[back]
            else:
                channels = [Dissipator(op[np.ix_(order, order)], kappa) for op in lowering]
                traj = propagate_lindblad(h_blocks, channels, state[np.ix_(order, order)], grid)
                states = traj.matrices
                state = traj.final[np.ix_(back, back)]
            states = states[0 if n == 0 else 1:]
            for name in plan.labels:
                pops[name].append(populations(states, product_state(name)[order]))
            fidelity.append(populations(states, step.target[order]))
        # open runs read their nodes in the Heisenberg picture, which rounds
        # differently from reading the damped nodes
        tol = 0.0 if kappa == 0 else 1e-15
        for name in plan.labels:
            assert np.max(np.abs(res.populations[name] - np.concatenate(pops[name]))) <= tol
        assert np.max(np.abs(res.fidelity - np.concatenate(fidelity))) <= tol
        assert np.array_equal(res.final_state, state)


class TestMemory:
    def test_open_ghz5_run_keeps_no_trajectory(self):
        # one (2001, 32, 32) complex trajectory alone would be 31.3 MiB
        model = QubitModel(qubits=5, omega=CALIBRATED_OMEGA_T, kappa=0.0145)
        plan = plan_ghz(model)
        tracemalloc.start()
        try:
            res = run_protocol(plan, model, noise=True, grid_steps=2000,
                               compute_residual=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 ** 20
        assert float(res.auxiliary["fidelity_final"][-1]) == 0.9158739585118632

    def test_open_ghz6_run_holds_less_than_one_dense_block(self, monkeypatch):
        # its last step holds 1,088 of sigma's 4,096 entries per node; one
        # dense (BLOCK, 64, 64) buffer of nodes alone would be 4 MiB
        model = QubitModel(qubits=6, omega=CALIBRATED_OMEGA_T, kappa=0.0145)
        plan = plan_ghz(model)
        buffers = []
        open_form = dynamics._open_form

        def spied(*args):
            form = open_form(*args)
            buffers.append(form[1].shape)
            return form
        monkeypatch.setattr(dynamics, "_open_form", spied)
        tracemalloc.start()
        try:
            run_protocol(plan, model, noise=True, grid_steps=2000, compute_residual=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < dynamics.BLOCK * 64 * 64 * 16
        # each step's node buffer is (K, BLOCK, E), on part of the 4,096 entries
        assert buffers == [(1, dynamics.BLOCK, entries)
                           for entries in (16, 16, 64, 192, 480, 1088)]

    def test_the_support_read_equals_the_dense_read(self, monkeypatch):
        # the open GHZ5 stack on its reachable entries against the grouped
        # steps on whole matrices, series read by the same track
        model = QubitModel(qubits=5, omega=CALIBRATED_OMEGA_T)
        plan = plan_ghz(model)
        support = run_protocol_kappas(plan, model, [0.0145, 0.3], grid_steps=400,
                                      compute_residual=False)
        monkeypatch.setattr(dynamics, "TILE", 0)
        dense = run_protocol_kappas(plan, model, [0.0145, 0.3], grid_steps=400,
                                    compute_residual=False)
        for got, want in zip(support, dense):
            for name in want.populations:
                assert np.max(np.abs(got.populations[name] - want.populations[name])) <= 1e-14
            assert np.max(np.abs(got.fidelity - want.fidelity)) <= 1e-14
            assert np.max(np.abs(got.final_state - want.final_state)) <= 1e-14

    def test_an_open_run_damps_only_its_checkpoints_and_reads_no_block_densely(
            self, monkeypatch):
        # reading a block densely would damp all 2000 nodes of a step and
        # contract each of them with the d x d target projectors
        model = QubitModel(qubits=5, omega=CALIBRATED_OMEGA_T, kappa=0.0145)
        plan = plan_ghz(model)
        damped, dense = [], []
        damper, einsum = dynamics._damper, np.einsum

        def counted_damper(x, feeds, weight):
            damped.append(x.shape[1])
            return damper(x, feeds, weight)

        def counted_einsum(*operands, **kwargs):
            if any(np.ndim(a) >= 2 and np.shape(a)[-2:] == (32, 32) for a in operands[1:]):
                dense.append(operands[0])
            return einsum(*operands, **kwargs)

        monkeypatch.setattr(dynamics, "_damper", counted_damper)
        monkeypatch.setattr(np, "einsum", counted_einsum)
        run_protocol(plan, model, noise=True, grid_steps=2000, compute_residual=False)
        # at most sigma's own two dampers (the grouped steps bind them), then
        # the checkpoints, the last being the end
        assert sum(damped) <= (dynamics.CHECKPOINTS + 2) * len(plan.steps)
        assert len(dense) == 0

    def test_the_residual_takes_one_call_per_span_and_no_matrices(self, monkeypatch):
        # (n, d, d) residual matrices on a whole span would be 4 MiB at d = 32
        model = QubitModel(qubits=5)
        plan = plan_ghz(model)
        nodes, peaks, spans = [], [], {}
        passage_vectors = ProtocolStep.passage_vectors

        def counted_vectors(step, t):
            spans.setdefault(step.name, []).append(np.size(t))
            return passage_vectors(step, t)

        def counted_residual(v, dv, h):
            nodes.append(len(v))
            tracemalloc.start()
            try:
                return von_neumann_residual(v, dv, h)
            finally:
                peaks.append(tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()

        monkeypatch.setattr(ProtocolStep, "passage_vectors", counted_vectors)
        monkeypatch.setattr(protocols, "von_neumann_residual", counted_residual)
        length = _span(plan.steps[0].dim)
        grid = 2 * length + 5
        res = run_protocol(plan, model, grid_steps=grid)
        assert list(spans) == [step.name for step in plan.steps]
        for first, sizes in zip([grid + 1] + [grid] * 4, spans.values()):
            assert sizes == [length, length, first - 2 * length]
        assert nodes == [size for sizes in spans.values() for size in sizes]
        assert sum(nodes) == res.times.size
        assert max(peaks) < length * plan.steps[0].dim ** 2 * 16 / 4


def _assert_same_result(got, want):
    assert np.array_equal(got.times, want.times)
    assert got.populations.keys() == want.populations.keys()
    for name in want.populations:
        assert np.array_equal(got.populations[name], want.populations[name])
    assert np.array_equal(got.fidelity, want.fidelity)
    assert np.array_equal(got.final_state, want.final_state)
    assert got.diagnostics == want.diagnostics
    assert got.steps == want.steps
    assert got.auxiliary.keys() == want.auxiliary.keys()
    for key in want.auxiliary:
        assert np.array_equal(got.auxiliary[key], want.auxiliary[key])


def _assert_close_result(got, want, bound):
    """`_assert_same_result` to within `bound` in every number."""
    def close(a, b):
        if isinstance(a, str) or isinstance(b, str):
            return a == b
        return np.shape(a) == np.shape(b) and np.max(np.abs(np.subtract(a, b)), initial=0.0) <= bound
    assert np.array_equal(got.times, want.times)
    for mine, theirs in [(got.populations, want.populations), (got.auxiliary, want.auxiliary),
                         (got.diagnostics, want.diagnostics)] + list(zip(got.steps, want.steps)):
        assert mine.keys() == theirs.keys()
        assert all(close(mine[key], theirs[key]) for key in theirs), (mine, theirs)
    assert len(got.steps) == len(want.steps)
    assert close(got.fidelity, want.fidelity) and close(got.final_state, want.final_state)


def spoil_entry_check(monkeypatch, name, call, spoil):
    """Patch the entry check `name` of dynamics to check spoil(state) on its
    call number `call`, counted from 0, and the state itself on every other.
    A Bell run's entry checks take the initial state, then the state the
    split step hands on, the stack's members one call each."""
    check, calls = getattr(dynamics, name), []

    def spoiled(state):
        calls.append(None)
        return check(spoil(state) if len(calls) == call + 1 else state)

    monkeypatch.setattr(dynamics, name, spoiled)


class TestHandoff:
    """The state a step hands on is checked once, by its successor's entry
    check, and a failure there names the step that made the state."""

    def test_each_state_is_checked_once_per_step(self, monkeypatch):
        # one entry check per step for the closed state and for the open one,
        # wherever the runner's modules would call a check
        calls = {"check_state_vector": 0, "check_density_matrix": 0}
        for name in calls:
            def counted(state, _name=name, _check=getattr(linalg, name)):
                calls[_name] += 1
                return _check(state)

            for module in (dynamics, protocols):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counted)
        model = QubitModel(qubits=5)
        run_protocol_kappas(plan_ghz(model), model, (0.0, 0.0145), grid_steps=20,
                            compute_residual=False)
        assert calls == {"check_state_vector": 5, "check_density_matrix": 5}

    def test_a_denormalized_pure_state_fails_in_the_step_that_made_it(self, monkeypatch):
        # |norm - 1| = 1e-9, bound 1e-10
        spoil_entry_check(monkeypatch, "check_state_vector", 1, lambda psi: psi * (1.0 + 1e-9))
        model = QubitModel(qubits=2)
        with pytest.raises(StepSizeError, match="^step 'split': state vector is not "
                                                "normalized") as err:
            run_protocol_kappas(plan_bell(model), model, (0.0,), grid_steps=15)
        assert str(err.value).endswith("at the step's end (kappa_T=0)")
        assert err.value.kappa == 0.0 and err.value.member is None

    def test_a_stack_failure_names_its_member_and_rate(self, monkeypatch):
        bad = np.diag([0.5 + 2e-8, 0.5, 0.0, -2e-8]).astype(complex)  # eigenvalue -2e-8
        spoil_entry_check(monkeypatch, "check_density_matrix", 3, lambda rho: bad)
        model = QubitModel(qubits=2)
        with pytest.raises(StepSizeError, match="^step 'split': density matrix has "
                                                "eigenvalue -2.000e-08 below -1.0e-08") as err:
            run_protocol_kappas(plan_bell(model), model, (0.0145, 0.145), grid_steps=15)
        assert err.value.kappa == 0.145 and err.value.member == 1
        assert str(err.value).endswith("at the step's end (kappa_T=0.145)")

    def test_a_nan_state_fails_and_names_no_grid(self, monkeypatch):
        def nan_at(state, index):
            state = state.copy()
            state[index] = np.nan
            return state

        spoil_entry_check(monkeypatch, "check_state_vector", 1, lambda psi: nan_at(psi, 0))
        model = QubitModel(qubits=2)
        with pytest.raises(StepSizeError, match="^step 'split': state vector is not "
                                                "normalized") as err:
            run_protocol_kappas(plan_bell(model), model, (0.0,), grid_steps=15)
        assert str(err.value).endswith("at the step's end (kappa_T=0)")
        spoil_entry_check(monkeypatch, "check_density_matrix", 1,
                          lambda rho: nan_at(nan_at(rho, (1, 2)), (2, 1)))
        with pytest.raises(StepSizeError, match="^step 'split': .*not Hermitian") as err:
            run_protocol_kappas(plan_bell(model), model, (0.0145,), grid_steps=15)
        assert "grid" not in str(err.value) and err.value.kappa == 0.0145


class TestIntegratedKappas:
    @pytest.mark.parametrize("qubits, kappas", [
        (2, (0.0, 0.0145, 0.0725, 0.145)),   # configs/bell.cfg
        (3, (0.0, 0.0145, 0.145)),           # configs/ghz3.cfg
        (2, (0.145, 0.0, 0.0145, 0.0)),      # out of order, two closed runs
    ])
    def test_each_rate_equals_its_own_run_bit_for_bit(self, qubits, kappas):
        model = QubitModel(qubits=qubits, omega=CALIBRATED_OMEGA_T)
        plan = plan_bell(model) if qubits == 2 else plan_ghz(model)
        together = run_protocol_kappas(plan, model, kappas, grid_steps=300)
        assert len(together) == len(kappas)
        for kappa, got in zip(kappas, together):
            alone = run_protocol(plan, model.with_kappa(kappa), noise=kappa > 0,
                                 grid_steps=300)
            _assert_same_result(got, alone)

    @pytest.mark.parametrize("qubits, mode, kappas, grid", [
        # at the last step the strong run alone takes the support form on
        # 16 entries, where the stack reaches every tile and steps grouped
        (4, "rotating-frame", (0.0145, 1e4), 200),
        # at raise-3 the strong run alone holds 4 of the stack's 64 entries
        (3, "effective", (0.0145, 1e5), 64),
    ])
    def test_a_rate_that_empties_tiles_moves_only_its_own_result_by_round_off(
            self, qubits, mode, kappas, grid):
        # the weak run reaches every tile the stack reaches, so it keeps the
        # bits of its one-rate run; the strong run reaches fewer tiles
        model = QubitModel(qubits=qubits, omega=CALIBRATED_OMEGA_T)
        plan = plan_ghz(model)
        weak, strong = run_protocol_kappas(plan, model, kappas, mode=mode, grid_steps=grid,
                                           compute_residual=False)
        alone = [run_protocol(plan, model.with_kappa(kappa), mode=mode, noise=True,
                              grid_steps=grid, compute_residual=False) for kappa in kappas]
        _assert_same_result(weak, alone[0])
        _assert_close_result(strong, alone[1], 1e-14)

    def test_noise_off_runs_every_rate_closed(self):
        model = QubitModel(qubits=2)
        plan = plan_bell(model)
        closed = run_protocol(plan, model, grid_steps=200)
        for kappa in (0.0, 0.1):
            got = run_protocol(plan, model.with_kappa(kappa), noise=False, grid_steps=200)
            _assert_same_result(got, closed)

    def test_a_failure_carries_the_rate_it_names(self, monkeypatch):
        fail_trace_gate(monkeypatch, 30.0)
        model = QubitModel(qubits=2)
        with pytest.raises(StepSizeError, match="^step 'split': ") as err:
            run_protocol_kappas(plan_bell(model), model, (0.0, 0.0145, 30.0), grid_steps=15)
        assert err.value.kappa == 30.0

    @pytest.mark.parametrize("qubits", [2, 4])
    @pytest.mark.parametrize("kappas", [(0.0, 0.0145), (0.0,), (0.0145,), (0.0145, 0.0, 0.145)])
    def test_closed_and_open_runs_share_one_stream_of_unitaries(self, monkeypatch,
                                                                 kappas, qubits):
        # grid 300 is one span of H per step at d = 4 (Bell, two steps) and
        # two at d = 16 (GHZ4, four steps)
        seen = []
        step_unitaries = dynamics._step_unitaries

        def counted(hamiltonian, t_mid, dim, dt):
            seen.append(t_mid.size)
            return step_unitaries(hamiltonian, t_mid, dim, dt)

        monkeypatch.setattr(dynamics, "_step_unitaries", counted)
        model = QubitModel(qubits=qubits)
        plan = plan_bell(model) if qubits == 2 else plan_ghz(model)
        run_protocol_kappas(plan, model, kappas, grid_steps=300, compute_residual=False)
        spans = -(-300 // _span(2 ** qubits))
        assert len(seen) == spans * len(plan.steps) and sum(seen) == 300 * len(plan.steps)

    @pytest.mark.parametrize("kappas, named", [((0.145, 0.0), 0.0), ((0.145, 0.0145), 0.145)])
    def test_a_hamiltonian_failure_names_the_first_run_it_stops(self, monkeypatch,
                                                                 kappas, named):
        # the closed run when there is one, else the first open run; the
        # propagation takes H as one block per class of groups
        def broken(step, model, t, mode="effective"):
            groups = step.dim // step.block
            return (np.full(np.shape(t) + (groups, step.block, step.block), np.nan),
                    np.arange(groups))

        monkeypatch.setattr(protocols, "_class_blocks", broken)
        model = QubitModel(qubits=2)
        with pytest.raises(ValueError, match="^step 'split': Hamiltonian is not finite "
                                             "at t = ") as err:
            run_protocol_kappas(plan_bell(model), model, kappas, grid_steps=100)
        assert err.value.kappa == named

    def test_a_failure_inside_the_step_beats_a_hand_off_failure(self, monkeypatch):
        # the closed state the split step hands on fails the convert step's
        # entry check, the open run at rate 30 its trace gate inside the split
        fail_trace_gate(monkeypatch, 30.0)
        spoil_entry_check(monkeypatch, "check_state_vector", 1, lambda psi: 2.0 * psi)
        model = QubitModel(qubits=2)
        with pytest.raises(StepSizeError, match="^step 'split': trace drifted") as err:
            run_protocol_kappas(plan_bell(model), model, (0.0, 30.0), grid_steps=15)
        assert err.value.kappa == 30.0

    @pytest.mark.parametrize("kappas", [(0.0, -0.1), ()])
    def test_bad_rate_lists_rejected(self, kappas):
        model = QubitModel(qubits=2)
        with pytest.raises(ProtocolError):
            run_protocol_kappas(plan_bell(model), model, kappas)

    @pytest.mark.parametrize("kappa", [float("nan"), float("inf")])
    def test_non_finite_rates_are_rejected_not_run_closed(self, kappa):
        model = QubitModel(qubits=2)
        with pytest.raises(ProtocolError, match="decay rate must be finite and non-negative"):
            run_protocol_kappas(plan_bell(model), model, [0.0145, kappa], grid_steps=200)


class TestSpanLength:
    @pytest.mark.parametrize("qubits, mode", [(2, "effective"), (3, "effective"),
                                              (3, "rotating-frame")])
    def test_256_interval_spans_give_the_same_bits_up_to_dense_levels(self, monkeypatch,
                                                                     qubits, mode):
        # d = 4 and 8 take 512-interval spans; grid 600 crosses a span edge
        # at either length, in the propagation and in the residual pass
        model = QubitModel(qubits=qubits, omega=CALIBRATED_OMEGA_T)
        plan = plan_bell(model) if qubits == 2 else plan_ghz(model)
        sizes = []
        step_unitaries = dynamics._step_unitaries

        def counted(hamiltonian, t_mid, dim, dt):
            sizes.append(t_mid.size)
            return step_unitaries(hamiltonian, t_mid, dim, dt)

        monkeypatch.setattr(dynamics, "_step_unitaries", counted)
        long = run_protocol_kappas(plan, model, [0.0, 0.0145], mode=mode, grid_steps=600)
        assert sizes[:2] == [512, 88]
        for module in (dynamics, protocols):
            monkeypatch.setattr(module, "_span", lambda dim: SPAN)
        sizes.clear()
        short = run_protocol_kappas(plan, model, [0.0, 0.0145], mode=mode, grid_steps=600)
        assert sizes[:3] == [256, 256, 88]
        for got, want in zip(short, long):
            _assert_same_result(got, want)
            assert got.auxiliary.keys() == want.auxiliary.keys() == {"fidelity_final", "residual"}
            for name in want.auxiliary:
                assert np.array_equal(got.auxiliary[name], want.auxiliary[name])
            assert got.diagnostics == want.diagnostics


class TestUnitaryLayout:
    def test_fortran_ordered_exponentials_give_the_same_bits(self, monkeypatch):
        # the runs take each group's unitaries as u[:, which], whose strides
        # follow u's, and a product's bits can follow the strides
        model = QubitModel(qubits=3, omega=CALIBRATED_OMEGA_T)
        plan = plan_ghz(model)
        want = run_protocol_kappas(plan, model, [0.0, 0.0145], grid_steps=300,
                                   compute_residual=False)
        expm = dynamics.expm_hermitian
        monkeypatch.setattr(dynamics, "expm_hermitian",
                            lambda *args: np.asfortranarray(expm(*args)))
        got = run_protocol_kappas(plan, model, [0.0, 0.0145], grid_steps=300,
                                  compute_residual=False)
        for mine, theirs in zip(got, want):
            _assert_same_result(mine, theirs)


class TestDecayChannels:
    @pytest.mark.parametrize("qubits", [3, 4, 5, 6])
    def test_bits_and_rates_are_those_of_the_dense_operators(self, qubits):
        rates = np.array([0.0145, 0.3])
        for step in plan_ghz(QubitModel(qubits=qubits)).steps:
            order = step.order
            dense = [Dissipator(embed_qubit_operator(SIGMA_MINUS, qubits, q)[np.ix_(order, order)],
                                rates) for q in range(qubits)]
            want = dynamics._decay_rates(dense, step.dim, rates.size)
            got = protocols._decay_channels(step, rates)
            assert list(got) == list(want)  # the same bits, fed in the same order
            for mask in want:
                assert np.array_equal(got[mask], want[mask])

    def test_an_open_run_builds_no_dense_lowering_operator(self, monkeypatch):
        model = QubitModel(qubits=5, omega=CALIBRATED_OMEGA_T, kappa=0.0145)
        plan = plan_ghz(model)

        def refused(*args):
            raise AssertionError("a dense lowering operator was built")

        monkeypatch.setattr(linalg, "embed_qubit_operator", refused)
        monkeypatch.setattr(protocols, "embed_qubit_operator", refused, raising=False)
        res = run_protocol(plan, model, noise=True, grid_steps=200, compute_residual=False)
        assert 0.85 < res.fidelity[-1] < 0.95
        assert diagnostics_ok(res)


class TestOpenForms:
    @pytest.mark.parametrize("mode", ["effective", "rotating-frame"])
    @pytest.mark.parametrize("protocol", ["bell", "bell-reverse", 3, 4, 5, 6, 7])
    def test_every_stack_of_a_protocol_run_takes_one_form(self, monkeypatch, protocol, mode):
        # a runner's stack members start from one state and share the
        # channels, so at these rates they reach the same tiles, and the
        # stack takes the form each member's own run would: the support
        # form wherever the decay leaves a tile unreached or d <= DENSE,
        # which leaves the grouped form only to the last rotating-frame
        # step of GHZ4 and up, which reaches every tile of d >= 16
        forms = []
        for name in ("_grouped_steps", "_support_steps"):
            def spied(*args, _name=name, _steps=getattr(dynamics, name)):
                forms[-1].append(_name)
                return _steps(*args)
            monkeypatch.setattr(dynamics, name, spied)
        open_form = dynamics._open_form

        def counted(*args):
            forms.append([])
            return open_form(*args)
        monkeypatch.setattr(dynamics, "_open_form", counted)
        qubits = 2 if isinstance(protocol, str) else protocol
        model = QubitModel(qubits=qubits, omega=CALIBRATED_OMEGA_T)
        plan = {"bell": plan_bell, "bell-reverse": plan_bell_reverse}.get(protocol, plan_ghz)(
            model)
        run_protocol_kappas(plan, model, [0.0, 0.0145, 0.3], mode=mode, grid_steps=64,
                            strict=False, compute_residual=False)
        grouped = mode == "rotating-frame" and qubits >= 4
        assert forms == [["_support_steps"]] * (len(plan.steps) - 1) + [
            ["_grouped_steps" if grouped else "_support_steps"]]

    def test_the_stack_read_is_compiled_once_per_step(self, monkeypatch):
        # once per step for its damped nodes, and once for the first step's
        # node 0, the only undamped node read (later steps skip theirs)
        compiled = []
        reader = protocols._reader

        def counted(kets, reading):
            compiled.append(reading[0] is None)
            return reader(kets, reading)
        monkeypatch.setattr(protocols, "_reader", counted)
        model = QubitModel(qubits=5, omega=CALIBRATED_OMEGA_T)
        plan = plan_ghz(model)
        run_protocol_kappas(plan, model, [0.0, 0.0145, 0.3], grid_steps=200,
                            compute_residual=False)
        assert len(compiled) == len(plan.steps) + 1
        assert compiled == [True] + [False] * len(plan.steps)


class TestGhzScaling:
    def test_open_fidelity_falls_with_the_qubit_count_and_closed_stays_one(self):
        # configs/ghz5.cfg's model and grid at N = 3, 4, 5
        open_f = []
        for n in (3, 4, 5):
            model = QubitModel(qubits=n, omega=2900.0, j_over_omega=0.1)
            closed, noisy = run_protocol_kappas(plan_ghz(model), model, [0.0, 0.0145],
                                                grid_steps=2000, compute_residual=False)
            assert abs(closed.fidelity[-1] - 1.0) <= 1e-9
            open_f.append(noisy.fidelity[-1])
        assert open_f[0] > open_f[1] > open_f[2]
