"""Propagators, residual diagnostics, reconstruction, and populations."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qpassage.ancillary import SubspaceLayout, build_frame
from qpassage.dynamics import (BLOCK, DensityTrajectory, Dissipator, StepSizeError, TimeGrid,
                               _compile_dissipators, _lindblad_rhs, gd_matrices,
                               populations, propagate_lindblad, propagate_schrodinger,
                               reconstruct_evolution, von_neumann_residual)
from qpassage.linalg import (SIGMA_MINUS, SIGMA_X, SIGMA_Z, StateCheckError, dagger,
                             embed_qubit_operator, outer)
from qpassage.schedules import ParameterSchedule
from qpassage.synthesis import generated_phases, synthesize_general

from helpers import brute_force_unitaries, random_schedule_set


class TestSchrodinger:
    def test_zero_hamiltonian_is_identity(self):
        psi0 = np.array([0.6, 0.8j], dtype=complex)
        traj = propagate_schrodinger(lambda t: np.zeros((2, 2)), psi0, TimeGrid(0, 1, 50))
        assert np.allclose(traj.states, psi0[None, :], atol=1e-15)

    def test_rabi_half_period_flips_the_qubit(self):
        omega = 1.3
        h = omega * SIGMA_X
        psi0 = np.array([0.0, 1.0], dtype=complex)  # ground state, basis (e, g)
        traj = propagate_schrodinger(lambda t: h, psi0, TimeGrid(0, np.pi / (2 * omega), 200))
        assert abs(abs(traj.final[0]) - 1.0) < 1e-12
        assert abs(traj.final[1]) < 1e-12
        assert traj.norm_drift <= 1e-12

    def test_midpoint_rule_is_second_order(self):
        def h(t):
            t = np.asarray(t)[..., None, None]  # array of times in, stack out
            return np.sin(2.3 * t) * SIGMA_X + 0.4 * np.cos(t) * np.diag([1.0, -1.0])

        psi0 = np.array([1.0, 0.0], dtype=complex)
        ref = propagate_schrodinger(h, psi0, TimeGrid(0, 1, 8000)).final
        err = {}
        for steps in (100, 200):
            err[steps] = np.linalg.norm(propagate_schrodinger(h, psi0, TimeGrid(0, 1, steps)).final - ref)
        assert 3.0 <= err[100] / err[200] <= 5.0

    def test_norm_drift_bound_at_default_resolution(self):
        def h(t):
            return np.cos(3 * np.asarray(t)[..., None, None]) * SIGMA_X

        traj = propagate_schrodinger(h, np.array([1.0, 0.0], dtype=complex), TimeGrid(0, 1, 2000))
        assert traj.norm_drift <= 1e-9

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            propagate_schrodinger(lambda t: np.array([[0, 1], [0, 0]], dtype=complex),
                                  np.array([1.0, 0.0]), TimeGrid(0, 1, 10))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_a_non_finite_hamiltonian(self, bad):
        with pytest.raises(ValueError, match=r"not finite at t = 0\.025000$"):
            propagate_schrodinger(lambda t: np.full((2, 2), bad), np.array([1.0, 0.0]),
                                  TimeGrid(0, 1, 20))

    def test_rejects_a_nan_initial_state(self):
        with pytest.raises(StateCheckError, match="not normalized"):
            propagate_schrodinger(lambda t: np.zeros((2, 2)), np.array([np.nan, 0.0]),
                                  TimeGrid(0, 1, 10))


class TestLindblad:
    def test_single_qubit_decay_matches_analytic_law(self):
        kappa = 1.0
        rho0 = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)  # |e><e|
        traj = propagate_lindblad(lambda t: np.zeros((2, 2)),
                                  [Dissipator(SIGMA_MINUS, kappa)], rho0,
                                  TimeGrid(0, 1, 2000))
        p_e = traj.final[0, 0].real
        assert abs(p_e - np.exp(-kappa)) <= 1e-6
        assert traj.trace_drift <= 1e-7
        assert traj.min_eigenvalue >= -1e-7

    def test_zero_rate_matches_closed_propagation(self):
        def h(t):
            return np.sin(np.asarray(t)[..., None, None]) * SIGMA_X + np.diag([0.2, -0.2])

        psi0 = np.array([0.6, 0.8], dtype=complex)
        grid = TimeGrid(0, 1, 2000)
        closed = propagate_schrodinger(h, psi0, grid)
        open_traj = propagate_lindblad(h, [Dissipator(SIGMA_MINUS, 0.0)],
                                       outer(psi0), grid)
        rho_closed = outer(closed.final)
        assert np.linalg.norm(open_traj.final - rho_closed) <= 1e-8

    def test_coarse_grid_fails_loudly(self):
        with pytest.raises(StepSizeError):
            propagate_lindblad(lambda t: np.zeros((2, 2)),
                               [Dissipator(SIGMA_MINUS, 40.0)],
                               np.diag([1.0, 0.0]).astype(complex),
                               TimeGrid(0, 1, 8))

    def test_rate_must_be_nonnegative(self):
        with pytest.raises(ValueError):
            Dissipator(SIGMA_MINUS, -0.1)

    @pytest.mark.parametrize("rate", [np.nan, np.inf, np.array([0.1, np.nan])])
    def test_rate_must_be_finite(self, rate):
        with pytest.raises(ValueError, match="finite and non-negative"):
            Dissipator(SIGMA_MINUS, rate)

    def test_rejects_a_non_finite_hamiltonian(self):
        with pytest.raises(ValueError, match=r"not finite at t = 0\.000000$"):
            propagate_lindblad(lambda t: np.full((2, 2), np.nan),
                               [Dissipator(SIGMA_MINUS, 0.1)],
                               np.diag([1.0, 0.0]).astype(complex), TimeGrid(0, 1, 20))

    def test_rejects_a_nan_initial_state(self):
        with pytest.raises(StateCheckError, match="not Hermitian"):
            propagate_lindblad(lambda t: np.zeros((2, 2)), [Dissipator(SIGMA_MINUS, 0.1)],
                               np.diag([np.nan, 0.0]), TimeGrid(0, 1, 10))
        stack = np.array([np.diag([1.0, 0.0]), np.diag([np.nan, 0.0])])
        with pytest.raises(StateCheckError) as err:
            propagate_lindblad(lambda t: np.zeros((2, 2)), [Dissipator(SIGMA_MINUS, 0.1)],
                               stack, TimeGrid(0, 1, 10))
        assert err.value.member == 1

    def test_a_state_that_overflows_to_nan_fails_the_eigenvalue_gate(self):
        # an absurd rate overflows RK4 to inf and then nan; the run must end
        # in an error, not return the nan state
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(StepSizeError, match="eigenvalue reached nan"):
            propagate_lindblad(lambda t: np.zeros((2, 2)), [Dissipator(SIGMA_MINUS, 1e200)],
                               np.diag([1.0, 0.0]), TimeGrid(0, 1, 10))

    def test_dephasing_coherence_matches_analytic_law(self):
        # H = (w/2) sigma_z and L = sigma_z at rate g: rho_eg(t) = rho_eg(0) e^{-i w t - 2 g t}
        omega, gamma = 3.0, 0.8
        plus = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)
        traj = propagate_lindblad(lambda t: 0.5 * omega * SIGMA_Z,
                                  [Dissipator(SIGMA_Z, gamma)], outer(plus),
                                  TimeGrid(0, 1, 2000))
        expected = 0.5 * np.exp((-1j * omega - 2.0 * gamma) * traj.times)
        assert np.max(np.abs(traj.matrices[:, 0, 1] - expected)) <= 1e-10
        assert np.max(np.abs(traj.matrices[:, 0, 0].real - 0.5)) <= 1e-14

    def test_operator_of_the_wrong_dimension_is_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            propagate_lindblad(lambda t: np.zeros((4, 4)), [Dissipator(SIGMA_MINUS, 1.0)],
                               np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex), TimeGrid(0, 1, 10))


def _random_complex(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def _channel(kind, qubits, rng):
    """A random jump operator of the given kind on `qubits` qubits."""
    dim = 2 ** qubits
    if kind == "lowering":
        return embed_qubit_operator(SIGMA_MINUS, qubits, int(rng.integers(qubits)))
    if kind == "dephasing":
        return embed_qubit_operator(SIGMA_Z, qubits, int(rng.integers(qubits)))
    if kind == "dense":
        return _random_complex(rng, (dim, dim))
    q = int(rng.integers(qubits - 1))  # a random operator on qubits q and q + 1
    return np.kron(np.kron(np.eye(2 ** q), _random_complex(rng, (4, 4))),
                   np.eye(2 ** (qubits - q - 2)))


def _textbook_rhs(h, rho, dissipators):
    out = -1j * (h @ rho - rho @ h)
    for d in dissipators:
        op, op2 = d.operator, dagger(d.operator) @ d.operator
        out = out + d.rate * (op @ rho @ dagger(op) - 0.5 * (op2 @ rho + rho @ op2))
    return out


class TestCompiledDissipators:
    @settings(max_examples=80, deadline=None)
    @given(qubits=st.integers(1, 3), seed=st.integers(0, 2 ** 32 - 1),
           channels=st.lists(st.tuples(
               st.sampled_from(("lowering", "dephasing", "dense", "two-qubit")),
               st.one_of(st.just(0.0), st.floats(1e-3, 10.0))), max_size=4))
    def test_rhs_matches_the_textbook_formula(self, qubits, seed, channels):
        assume(qubits > 1 or all(kind != "two-qubit" for kind, _ in channels))
        rng = np.random.default_rng(seed)
        dim = 2 ** qubits
        dissipators = [Dissipator(_channel(kind, qubits, rng), rate) for kind, rate in channels]
        a = _random_complex(rng, (dim, dim))
        h = a + dagger(a)
        b = _random_complex(rng, (dim, dim))
        rho = b @ dagger(b) / np.trace(b @ dagger(b))
        decay, jumps = _compile_dissipators(dissipators, dim)
        got = _lindblad_rhs(-1j * (h - 0.5j * decay), rho[None], jumps)[0]
        want = _textbook_rhs(h, rho, dissipators)
        assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)

    def test_lowering_operator_compiles_to_a_quarter_of_the_superoperator(self):
        qubits = 5
        dissipators = [Dissipator(embed_qubit_operator(SIGMA_MINUS, qubits, q), 0.1)
                       for q in range(qubits)]
        _, (bins, src, weight) = _compile_dissipators(dissipators, 2 ** qubits)
        assert bins.size // 2 == src.size == weight.size == qubits * 4 ** qubits // 4


def _stack_hamiltonian(rng, dim):
    """A random array-aware H(t) = H0 + cos(t) H1 with ||H0||, ||H1|| = 1."""
    a, b = _random_complex(rng, (dim, dim)), _random_complex(rng, (dim, dim))
    h0, h1 = a + dagger(a), b + dagger(b)
    h0, h1 = h0 / np.linalg.norm(h0, 2), h1 / np.linalg.norm(h1, 2)
    return lambda t: h0 + np.cos(np.asarray(t))[..., None, None] * h1


def _random_density(rng, dim):
    b = _random_complex(rng, (dim, dim))
    rho = b @ dagger(b)
    rho = rho / np.trace(rho).real
    return 0.5 * (rho + dagger(rho))


class TestDensityStack:
    @settings(max_examples=40, deadline=None)
    @given(qubits=st.integers(1, 3), members=st.integers(1, 4),
           seed=st.integers(0, 2 ** 32 - 1), dense=st.booleans(), steps=st.integers(10, 70),
           zero_rates=st.lists(st.booleans(), min_size=16, max_size=16))
    def test_member_equals_its_single_matrix_run(self, qubits, members, seed, dense, steps,
                                                  zero_rates):
        rng = np.random.default_rng(seed)
        dim = 2 ** qubits
        ops = [embed_qubit_operator(SIGMA_MINUS, qubits, q) for q in range(qubits)]
        if dense:
            op = _random_complex(rng, (dim, dim))
            ops.append(op / np.linalg.norm(op, 2))
        rates = rng.uniform(0.0, 2.0, size=(len(ops), members))
        rates[np.array(zero_rates[:rates.size]).reshape(rates.shape)] = 0.0
        h = _stack_hamiltonian(rng, dim)
        rho0 = np.array([_random_density(rng, dim) for _ in range(members)])
        grid = TimeGrid(0.0, 0.6, steps)
        stack = propagate_lindblad(h, [Dissipator(op, r) for op, r in zip(ops, rates)],
                                   rho0, grid)
        assert stack.matrices.shape == (members, steps + 1, dim, dim)
        assert stack.trace_drift.shape == stack.min_eigenvalue.shape == (members,)
        for k in range(members):
            single = propagate_lindblad(h, [Dissipator(op, r[k]) for op, r in zip(ops, rates)],
                                        rho0[k], grid)
            assert np.array_equal(stack.matrices[k], single.matrices)
            assert np.array_equal(stack.final[k], single.final)
            assert stack.trace_drift[k] == single.trace_drift
            assert stack.min_eigenvalue[k] == single.min_eigenvalue

    @staticmethod
    def _failure(h, rates, steps, rho0):
        with pytest.raises(StepSizeError) as err:
            propagate_lindblad(h, [Dissipator(SIGMA_MINUS, np.array(rates))], rho0,
                               TimeGrid(0, 1, steps))
        return err.value

    def _single_message(self, h, rate, steps, rho0):
        err = self._failure(h, rate, steps, rho0)
        assert err.member is None
        return str(err)

    @pytest.mark.parametrize("check, h, rates", [
        ("trace drifted", np.zeros((2, 2)), [0.5, 400.0, 1.0]),
        ("eigenvalue reached", 3.0 * SIGMA_X, [0.5, 25.0, 1.0]),
    ])
    def test_the_one_failing_member_is_named(self, check, h, rates):
        excited = np.diag([1.0, 0.0]).astype(complex)
        err = self._failure(lambda t: h, rates, 8, np.array([excited] * 3))
        assert err.member == 1 and check in str(err)
        assert str(err) == self._single_message(lambda t: h, rates[1], 8, excited)
        for k in (0, 2):  # the other members alone run clean
            propagate_lindblad(lambda t: h, [Dissipator(SIGMA_MINUS, rates[k])], excited,
                               TimeGrid(0, 1, 8))

    def test_the_earliest_failing_step_names_the_member(self):
        # alone, 30 fails positivity at the end, 1000 drifts at t = 0.375 and
        # 2000 drifts at t = 0.25
        excited = np.diag([1.0, 0.0]).astype(complex)
        zero = lambda t: np.zeros((2, 2))  # noqa: E731
        err = self._failure(zero, [30.0, 1000.0, 2000.0], 8, np.array([excited] * 3))
        assert err.member == 2 and "t = 0.250000" in str(err)
        err = self._failure(zero, [30.0, 2000.0, 2000.0], 8, np.array([excited] * 3))
        assert err.member == 1  # a tie goes to the first in stack order
        err = self._failure(zero, [30.0, 0.5, 25.0], 8, np.array([excited] * 3))
        assert err.member == 0 and "eigenvalue reached" in str(err)

    def test_an_invalid_member_is_named(self):
        good = np.diag([1.0, 0.0]).astype(complex)
        bad = np.diag([1.5, 0.0]).astype(complex)
        with pytest.raises(ValueError, match="trace") as err:
            propagate_lindblad(lambda t: np.zeros((2, 2)), [], np.array([good, bad, good]),
                               TimeGrid(0, 1, 10))
        assert err.value.member == 1

    @pytest.mark.parametrize("rate", [np.array([0.1, 0.2]), np.array([[0.1, 0.2, 0.3]])])
    def test_rates_of_the_wrong_shape_are_rejected(self, rate):
        rho0 = np.array([np.diag([1.0, 0.0]).astype(complex)] * 3)
        with pytest.raises(ValueError, match="rate"):
            propagate_lindblad(lambda t: np.zeros((2, 2)), [Dissipator(SIGMA_MINUS, rate)],
                               rho0, TimeGrid(0, 1, 10))


class TestObserver:
    """Node 0, then one call per block, from one reused buffer."""

    @staticmethod
    def _propagate(kind, steps, observe=None):
        rng = np.random.default_rng(11)
        h = _stack_hamiltonian(rng, 4)
        grid = TimeGrid(0.0, 0.6, steps)
        if kind == "pure":
            psi0 = _random_complex(rng, 4)
            return propagate_schrodinger(h, psi0 / np.linalg.norm(psi0), grid, observe=observe)
        rho0 = np.array([_random_density(rng, 4) for _ in range(3)])
        rates = np.array([0.0, 0.4, 1.1])
        if kind == "density":
            rho0, rates = rho0[1], 0.4
        ops = [embed_qubit_operator(SIGMA_MINUS, 2, q) for q in range(2)]
        return propagate_lindblad(h, [Dissipator(op, rates) for op in ops], rho0, grid,
                                  observe=observe)

    @pytest.mark.parametrize("steps", [1, 63, 64, 65, 130])
    @pytest.mark.parametrize("kind, members, core", [("pure", (), (4,)), ("density", (), (4, 4)),
                                                     ("stack", (3,), (4, 4))])
    def test_blocks_cover_the_grid_once_and_equal_the_trajectory(self, kind, members, core,
                                                                 steps):
        calls = []
        observed = self._propagate(
            kind, steps, lambda first, states: calls.append((first, states.copy(), states)))
        stored = self._propagate(kind, steps)
        time_axis = -len(core) - 1
        sizes = [block.shape[time_axis] for _, block, _ in calls]
        indices = np.concatenate([np.arange(first, first + n)
                                  for (first, _, _), n in zip(calls, sizes)])
        assert np.array_equal(indices, np.arange(steps + 1))
        assert sizes[0] == 1 and max(sizes[1:]) <= BLOCK
        for (_, block, view), n in zip(calls, sizes):
            assert block.shape == members + (n,) + core
            assert np.shares_memory(view, calls[0][2])  # one buffer, reused
        blocks = np.concatenate([block for _, block, _ in calls], axis=time_axis)
        trajectory = stored.states if kind == "pure" else stored.matrices
        assert np.array_equal(blocks, trajectory)
        # with an observer only the end node comes back, with the same diagnostics
        assert np.array_equal(observed.times, stored.times[-1:])
        assert np.array_equal(observed.final, stored.final)
        if kind == "pure":
            assert observed.norm_drift == stored.norm_drift
        else:
            assert np.array_equal(observed.trace_drift, stored.trace_drift)
            assert np.array_equal(observed.min_eigenvalue, stored.min_eigenvalue)


class TestResidual:
    def test_static_dark_state_has_zero_residual(self):
        h = np.diag([1.0, 0.0]).astype(complex)  # annihilates |1>
        v = np.array([0.0, 1.0], dtype=complex)
        assert von_neumann_residual(v, np.zeros(2, dtype=complex), h) <= 1e-12

    def test_passage_projector_residual_is_small(self):
        layout = SubspaceLayout(1, 2)
        schedules = random_schedule_set(np.random.default_rng(2), layout)
        plan = synthesize_general(layout, schedules, grid=200)
        t, step = 0.4, 1e-6

        def passage(s):
            return build_frame(layout, schedules, s).passage_lo

        frame = build_frame(layout, schedules, t)
        h = plan.hamiltonian(t)
        h_norm = np.linalg.norm(h)
        assert von_neumann_residual(frame.passage_lo, frame.derivatives[:, -2], h) <= 1e-8 * h_norm
        # a centered-difference derivative agrees
        dv_fd = (passage(t + step) - passage(t - step)) / (2.0 * step)
        assert von_neumann_residual(frame.passage_lo, dv_fd, h) <= 1e-8 * max(h_norm, 1.0)

    def test_perturbed_detuning_is_detected(self):
        layout = SubspaceLayout(1, 2)
        schedules = random_schedule_set(np.random.default_rng(3), layout)
        plan = synthesize_general(layout, schedules, grid=200)

        def perturbed(t):
            h = plan.hamiltonian(t)
            h[0, 0] += 0.1  # assistant level sits at index 0
            return h

        t = 0.5
        frame = build_frame(layout, schedules, t)
        res = von_neumann_residual(frame.passage_lo, frame.derivatives[:, -2], perturbed(t))
        assert res > 1e-3 * np.linalg.norm(perturbed(t))


class TestGDMatrices:
    def test_constant_frame_has_zero_geometric_part(self):
        layout = SubspaceLayout(1, 2)
        schedules = random_schedule_set(np.random.default_rng(4), layout)
        schedules = schedules.replace(phi=ParameterSchedule.constant(0.3),
                                      alpha=ParameterSchedule.constant(
                                          schedules.value("alpha", 0.0)))
        frame = build_frame(layout, schedules, 0.2)
        g, _ = gd_matrices(frame, np.zeros((3, 3)))
        assert np.max(np.abs(g)) <= 1e-12

    def test_geometric_matrix_is_hermitian_and_diagonal_term_matches(self):
        layout = SubspaceLayout(2, 3)
        schedules = random_schedule_set(np.random.default_rng(5), layout)
        t = 0.6
        frame = build_frame(layout, schedules, t)
        plan = synthesize_general(layout, schedules, grid=100)
        g, d = gd_matrices(frame, plan.hamiltonian(t))
        assert np.max(np.abs(g - g.conj().T)) <= 1e-10
        # lower-passage diagonal: d(alpha)/dt * sin^2(phi), zero for constant alpha
        assert abs(g[-2, -2]) <= 1e-12
        # dynamical part on the assistant members equals the detuning
        assert np.allclose(np.diag(d)[:layout.assistant_levels - 1],
                           plan.detuning[0], atol=1e-10)


class TestReconstruction:
    def test_identity_at_initial_time(self):
        layout = SubspaceLayout(1, 2)
        schedules = random_schedule_set(np.random.default_rng(6), layout)
        plan = synthesize_general(layout, schedules, grid=50)
        phases = generated_phases(layout, schedules, plan)
        frames = [build_frame(layout, schedules, t) for t in plan.times]
        u = reconstruct_evolution(frames, phases)
        assert np.allclose(u[0], np.eye(3), atol=1e-12)

    def test_matches_brute_force_propagation(self):
        layout = SubspaceLayout(2, 2)
        schedules = random_schedule_set(np.random.default_rng(8), layout)
        plan = synthesize_general(layout, schedules, grid=400)
        phases = generated_phases(layout, schedules, plan)
        frames = [build_frame(layout, schedules, t) for t in plan.times]
        u_rec = reconstruct_evolution(frames, phases)
        _, u_bf = brute_force_unitaries(plan.hamiltonian, layout.dim, 0.0, 1.0, 4000)
        for idx in (100, 250, 400):
            assert np.linalg.norm(u_rec[idx] - u_bf[idx * 10]) <= 1e-6

    def test_mismatched_grids_rejected(self):
        layout = SubspaceLayout(1, 2)
        schedules = random_schedule_set(np.random.default_rng(9), layout)
        plan = synthesize_general(layout, schedules, grid=50)
        phases = generated_phases(layout, schedules, plan)
        frames = [build_frame(layout, schedules, t) for t in plan.times[:-1]]
        with pytest.raises(ValueError):
            reconstruct_evolution(frames, phases)


class TestMetrics:
    def test_target_projector_gives_unit_fidelity(self):
        target = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2)
        traj = propagate_schrodinger(lambda t: np.zeros((2, 2)), target, TimeGrid(0, 1, 5))
        assert np.allclose(populations(traj.states, target), 1.0, atol=1e-14)
        basis = np.eye(2, dtype=complex)
        total = populations(traj.states, basis[0]) + populations(traj.states, basis[1])
        assert np.max(total) <= 1.0 + 1e-8

    def test_maximally_mixed_four_dim_gives_quarter(self):
        rho = np.eye(4, dtype=complex) / 4.0
        traj = DensityTrajectory(times=np.array([0.0]), matrices=rho[None, :, :],
                                 trace_drift=0.0, min_eigenvalue=0.25)
        bell = np.array([0, 1, 1, 0], dtype=complex) / np.sqrt(2)
        assert abs(populations(traj.matrices, bell)[0] - 0.25) <= 1e-14

    def test_label_dimension_mismatch(self):
        target = np.array([1.0, 0.0], dtype=complex)
        traj = propagate_schrodinger(lambda t: np.zeros((2, 2)), target, TimeGrid(0, 1, 2))
        with pytest.raises(ValueError):
            populations(traj.states, np.array([1.0, 0, 0]))
