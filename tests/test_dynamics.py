"""Propagators, residual diagnostics, reconstruction, and populations."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpassage import dynamics
from qpassage.ancillary import SubspaceLayout, build_frame
from qpassage.dynamics import (BLOCK, SPAN, DensityTrajectory, Dissipator, StepSizeError,
                               TimeGrid, gd_matrices, populations, propagate_lindblad,
                               propagate_schrodinger, reconstruct_evolution,
                               von_neumann_residual)
from qpassage.linalg import (SIGMA_MINUS, SIGMA_X, SIGMA_Z, StateCheckError, dagger,
                             embed_qubit_operator, expm_hermitian, outer)
from qpassage.protocols import QubitModel, build_step_blocks, plan_ghz
from qpassage.schedules import ParameterSchedule
from qpassage.synthesis import generated_phases, synthesize_general

from helpers import (brute_force_unitaries, lindblad_rk4, random_schedule_set,
                     residual_matrix_oracle)


class TestTimeGrid:
    @pytest.mark.parametrize("bounds, steps, message", [
        ((0, 1), 2.5, "grid steps must be an integer, not 2.5"),
        ((0, 1), 1000.0, "grid steps must be an integer, not 1000.0"),
        ((0, 1), 0, "need at least one step"),
        ((0, np.inf), 10, "grid bounds must be finite, not [0, inf]"),
        ((np.nan, 1), 10, "grid bounds must be finite, not [nan, 1]"),
        ((1, 1), 10, "t1 must exceed t0"),
        ((1, 0), 10, "t1 must exceed t0")])
    def test_a_grid_it_cannot_step_is_refused(self, bounds, steps, message):
        with pytest.raises(ValueError) as refused:
            TimeGrid(*bounds, steps)
        assert str(refused.value) == message

    def test_a_numpy_integer_step_count_is_taken(self):
        assert np.array_equal(TimeGrid(0, 1, np.int64(5)).times, np.linspace(0, 1, 6))


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


class TestDistinctBlocks:
    """`_step_unitaries` exponentiates each distinct group of an H stack once
    and must give the bits of exponentiating every group, with the class of
    each group."""

    @staticmethod
    def _unitaries(monkeypatch, h, times):
        seen = []

        def counted(blocks, scale):
            seen.append(blocks.shape[1])
            return expm_hermitian(blocks, scale)

        monkeypatch.setattr(dynamics, "expm_hermitian", counted)
        groups, size = h.shape[1], h.shape[-1]
        return dynamics._step_unitaries(lambda t: h, times, groups * size, 0.01), seen

    @pytest.mark.parametrize("classes", [[0, 0, 0, 0], [0, 1, 1, 0, 2, 1], [0, 1, 2, 3], [0]],
                             ids=["all-equal", "mixed", "all-distinct", "one-group"])
    def test_equals_the_whole_stack(self, monkeypatch, classes):
        rng = np.random.default_rng(len(classes))
        a = _random_complex(rng, (5, max(classes) + 1, 4, 4))
        h = (a + dagger(a))[:, classes]
        (u, which), seen = self._unitaries(monkeypatch, h, np.linspace(0.1, 0.9, 5))
        assert np.array_equal(u[:, which], expm_hermitian(h, -0.01j))
        assert seen == [max(classes) + 1] and which.tolist() == classes

    def test_a_negative_zero_keeps_its_group_apart(self, monkeypatch):
        rng = np.random.default_rng(3)
        a = _random_complex(rng, (4, 1, 2, 2))
        h = np.concatenate([a + dagger(a)] * 2, axis=1)
        h.imag[:, 1, [0, 1], [0, 1]] = -0.0  # equal values, other bytes
        (u, which), seen = self._unitaries(monkeypatch, h, np.linspace(0.1, 0.9, 4))
        assert np.array_equal(u[:, which], expm_hermitian(h, -0.01j)) and seen == [2]
        assert which.tolist() == [0, 1]

    @pytest.mark.parametrize("size", [2, 4])
    def test_an_idle_class_is_the_identity_without_an_exponential(self, monkeypatch, size):
        # groups 1 and 3 are 0 at every time, like half the groups of an
        # effective-mode raise step; group 0 is 0 at its first time only
        rng = np.random.default_rng(size)
        a = _random_complex(rng, (5, 2, size, size))
        h = np.zeros((5, 4, size, size), dtype=complex)
        h[:, [0, 2]] = a + dagger(a)
        h[0, 0] = 0.0
        (u, which), seen = self._unitaries(monkeypatch, h, np.linspace(0.1, 0.9, 5))
        assert seen == [2] and which.tolist() == [0, 1, 2, 1]
        assert np.array_equal(u[:, 1], np.broadcast_to(np.eye(size), (5, size, size)))
        assert np.array_equal(u[:, which], expm_hermitian(h, -0.01j))

    @pytest.mark.parametrize("flaw, message", [(np.nan, "finite"), (1.0, "Hermitian")])
    def test_a_flaw_in_a_later_group_names_its_first_time(self, flaw, message):
        times = np.linspace(0.1, 0.9, 5)
        h = np.zeros((5, 3, 2, 2), dtype=complex)
        h[4, 0, 0, 1] = flaw  # the first group fails only at the last time
        h[2, 2, 1, 0] = flaw
        with pytest.raises(ValueError, match=rf"^Hamiltonian is not {message} at t = 0\.500000$"):
            dynamics._step_unitaries(lambda t: h, times, 6, 0.01)


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

    def test_a_coarse_grid_decays_exactly(self):
        # the decay factor is the exact channel, so a coarse grid costs nothing
        traj = propagate_lindblad(lambda t: np.zeros((2, 2)), [Dissipator(SIGMA_MINUS, 40.0)],
                                  np.diag([1.0, 0.0]).astype(complex), TimeGrid(0, 1, 8))
        assert abs(traj.final[0, 0].real / np.exp(-40.0) - 1.0) <= 1e-13
        assert traj.trace_drift <= 1e-15 and traj.min_eigenvalue >= 0.0

    def test_rate_must_be_nonnegative(self):
        with pytest.raises(ValueError):
            Dissipator(SIGMA_MINUS, -0.1)

    @pytest.mark.parametrize("rate", [np.nan, np.inf, np.array([0.1, np.nan])])
    def test_rate_must_be_finite(self, rate):
        with pytest.raises(ValueError, match="finite and non-negative"):
            Dissipator(SIGMA_MINUS, rate)

    def test_rejects_a_non_finite_hamiltonian(self):
        with pytest.raises(ValueError, match=r"not finite at t = 0\.025000$"):
            propagate_lindblad(lambda t: np.full((2, 2), np.nan),
                               [Dissipator(SIGMA_MINUS, 0.1)],
                               np.diag([1.0, 0.0]).astype(complex), TimeGrid(0, 1, 20))

    def test_rejects_a_nan_initial_state(self):
        with pytest.raises(StateCheckError, match="not Hermitian") as err:
            propagate_lindblad(lambda t: np.zeros((2, 2)), [Dissipator(SIGMA_MINUS, 0.1)],
                               np.diag([np.nan, 0.0]), TimeGrid(0, 1, 10))
        assert not hasattr(err.value, "member")  # a single matrix names no member
        stack = np.array([np.diag([1.0, 0.0]), np.diag([np.nan, 0.0])])
        with pytest.raises(StateCheckError) as err:
            propagate_lindblad(lambda t: np.zeros((2, 2)), [Dissipator(SIGMA_MINUS, 0.1)],
                               stack, TimeGrid(0, 1, 10))
        assert err.value.member == 1

    def test_an_absurd_rate_ends_in_the_ground_state_exactly(self):
        traj = propagate_lindblad(lambda t: np.zeros((2, 2)), [Dissipator(SIGMA_MINUS, 1e200)],
                                  np.diag([1.0, 0.0]), TimeGrid(0, 1, 10))
        assert np.array_equal(traj.final, np.diag([0.0, 1.0]))
        assert traj.trace_drift == 0.0 and traj.min_eigenvalue == 0.0

    @pytest.mark.parametrize("op", [
        embed_qubit_operator(SIGMA_Z, 2, 0), embed_qubit_operator(SIGMA_MINUS.T, 2, 1),
        2.0 * embed_qubit_operator(SIGMA_MINUS, 2, 0), np.kron(SIGMA_MINUS, SIGMA_MINUS),
        np.zeros((4, 4)),
    ], ids=["dephasing", "raising", "scaled-lowering", "two-qubit-lowering", "zero"])
    def test_a_non_lowering_operator_is_rejected(self, op):
        lowering = Dissipator(embed_qubit_operator(SIGMA_MINUS, 2, 1), 0.2)
        with pytest.raises(ValueError, match="^dissipator 1 is not a qubit lowering operator"):
            propagate_lindblad(lambda t: np.zeros((4, 4)), [lowering, Dissipator(op, 0.2)],
                               np.diag([1.0, 0.0, 0.0, 0.0]), TimeGrid(0, 1, 10))

    def test_lowering_operators_in_any_bit_order_permute_the_run(self):
        # the levels of three qubits with their bits taken in the order (2, 0, 1)
        rng = np.random.default_rng(17)
        order = np.arange(8).reshape(2, 2, 2).transpose(2, 0, 1).ravel()
        h = _stack_hamiltonian(rng, 8)
        rho0 = _random_density(rng, 8)
        ops = [embed_qubit_operator(SIGMA_MINUS, 3, q) for q in range(3)]
        grid = TimeGrid(0.0, 0.6, 40)
        plain = propagate_lindblad(h, [Dissipator(op, r) for op, r in zip(ops, (0.3, 0.9, 1.4))],
                                   rho0, grid)
        permuted = propagate_lindblad(
            lambda t: h(t)[..., order[:, None], order],
            [Dissipator(op[np.ix_(order, order)], r) for op, r in zip(ops, (0.3, 0.9, 1.4))],
            rho0[np.ix_(order, order)], grid)
        assert np.max(np.abs(permuted.final - plain.final[np.ix_(order, order)])) <= 1e-13

    @pytest.mark.parametrize("members", [None, 3])
    def test_the_callers_state_is_left_alone(self, members):
        # the propagator carries its state in one buffer, damped in place
        rng = np.random.default_rng(5)
        rho0 = _random_density(rng, 4)
        if members:
            rho0 = np.array([_random_density(rng, 4) for _ in range(members)])
        kept = rho0.copy()
        channels = [Dissipator(embed_qubit_operator(SIGMA_MINUS, 2, q), 0.7) for q in range(2)]
        traj = propagate_lindblad(_stack_hamiltonian(rng, 4), channels, rho0, TimeGrid(0, 1, 70))
        assert np.array_equal(rho0, kept) and not np.array_equal(traj.final, kept)

    def test_operator_of_the_wrong_dimension_is_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            propagate_lindblad(lambda t: np.zeros((4, 4)), [Dissipator(SIGMA_MINUS, 1.0)],
                               np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex), TimeGrid(0, 1, 10))

    @pytest.mark.parametrize("rho0, leak, half_only, at", [
        (np.diag([1.0, 0.0]), 1e-6, False, r"0\.\d{6}"),
        # from the ground state sigma's one D(dt/2) feeds nothing, so only
        # the damped checkpoint nodes (every 20 steps) carry the leak
        (np.diag([0.0, 1.0]), 1e-2, True, r"0\.100000"),
    ], ids=["every-damping", "read-damping-only"])
    def test_a_damping_that_leaks_trace_fails_the_trace_gate(self, monkeypatch, rho0, leak,
                                                             half_only, at):
        # p + keep = 1 holds in arithmetic; the gate reads the trace instead
        # of resting on it.  A driven qubit decaying at rate 10 moves over a
        # whole unit of population through the channel in the run, so a leak
        # of 1e-6 in every damping passes the gate's 1e-6.
        damping = dynamics._damping
        grid = TimeGrid(0, 1, 200)

        def leaky(rates, tau, members, dim):
            feeds, weight = damping(rates, tau, members, dim)
            if half_only and tau == grid.dt:
                return feeds, weight
            return [(mask, p * (1.0 + leak)) for mask, p in feeds], weight

        def run():
            return propagate_lindblad(lambda t: 3.0 * SIGMA_X, [Dissipator(SIGMA_MINUS, 10.0)],
                                      rho0, grid)

        assert run().trace_drift <= 1e-12
        monkeypatch.setattr(dynamics, "_damping", leaky)
        with pytest.raises(StepSizeError,
                           match=rf"^trace drifted by \d\.\d{{3}}e-0\d at t = {at}$"):
            run()


class TestHeisenberg:
    @pytest.mark.parametrize("members", [1, 3])
    @pytest.mark.parametrize("qubits", [1, 2, 3, 4, 5])
    def test_pulled_back_observables_read_sigma_as_the_damped_nodes(self, qubits, members):
        # the compiled read of sigma's float view against <v|D(sigma)|v>, D
        # being D(tau) of lowering operators in a permuted bit order, as a
        # protocol step passes them
        rng = np.random.default_rng(100 * qubits + members)
        dim = 2 ** qubits
        order = np.arange(dim).reshape((2,) * qubits).transpose(rng.permutation(qubits)).ravel()
        rates = rng.uniform(0.0, 3.0, size=(qubits, members))
        if qubits > 1:
            rates[0] = 0.0  # a qubit that does not decay
        if members > 1:
            rates[:, 1] = 0.0  # a member that does not decay
        channels = [Dissipator(embed_qubit_operator(SIGMA_MINUS, qubits, q)[np.ix_(order, order)],
                               rate) for q, rate in enumerate(rates)]
        damping = dynamics._damping(dynamics._decay_rates(channels, dim, members), 0.35,
                                    members, dim)
        sigma = np.array([[_random_density(rng, dim) for _ in range(5)]
                          for _ in range(members)])
        kets = np.concatenate([np.eye(dim)[rng.permutation(dim)[:3]],
                               _random_complex(rng, (2, dim))])
        kets /= np.linalg.norm(kets, axis=1, keepdims=True)
        rho = sigma.copy()
        dynamics._damper(rho, *damping)()
        support, coefficients = dynamics._reader(kets, damping + (np.arange(dim * dim),))
        assert coefficients.shape == (members, support.size, len(kets))
        got = sigma.reshape(members, 5, dim * dim).view(float)[..., support] @ coefficients
        assert np.max(np.abs(np.moveaxis(got, -1, 0) - populations(rho, kets))) <= 1e-15


class TestSplitStep:
    def test_converges_at_second_order_to_the_rk4_oracle(self):
        # random 2-qubit H(t) and unequal rates; RK4 at grid 3200 is exact
        # here to ~1e-12, far below the split step's error at grid 400
        rng = np.random.default_rng(23)
        h = _stack_hamiltonian(rng, 4)
        rho0 = _random_density(rng, 4)
        channels = [Dissipator(embed_qubit_operator(SIGMA_MINUS, 2, q), rate)
                    for q, rate in enumerate((0.7, 1.9))]
        want = lindblad_rk4(h, channels, rho0, TimeGrid(0.0, 1.0, 3200))[-1]
        err = [np.linalg.norm(propagate_lindblad(h, channels, rho0, TimeGrid(0.0, 1.0, n)).final
                              - want) for n in (200, 400)]
        assert 3.8 <= err[0] / err[1] <= 4.2

    @settings(max_examples=60, deadline=None)
    @given(qubits=st.integers(1, 3), block=st.integers(0, 3), members=st.integers(1, 3),
           steps=st.integers(1, 8), seed=st.integers(0, 2 ** 32 - 1),
           rates=st.lists(st.floats(0.0, 1e3), min_size=9, max_size=9))
    def test_every_node_is_a_density_matrix_on_any_grid(self, qubits, block, members, steps,
                                                        seed, rates):
        rng = np.random.default_rng(seed)
        dim = 2 ** qubits
        size = 2 ** min(block, qubits)
        a, b = (_random_complex(rng, (dim // size, size, size)) for _ in range(2))
        h0, h1 = a + dagger(a), b + dagger(b)
        channels = [Dissipator(embed_qubit_operator(SIGMA_MINUS, qubits, q),
                               np.array(rates[q * 3:q * 3 + members]))
                    for q in range(qubits)]
        rho0 = np.array([_random_density(rng, dim) for _ in range(members)])
        traj = propagate_lindblad(
            lambda t: h0 + np.cos(np.asarray(t))[..., None, None, None] * h1, channels, rho0,
            TimeGrid(0.0, 1.0, steps))
        assert np.max(np.abs(np.trace(traj.matrices, axis1=-2, axis2=-1) - 1.0)) <= 1e-12
        assert np.min(np.linalg.eigvalsh(traj.matrices)) >= -1e-12


def _random_complex(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


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
           seed=st.integers(0, 2 ** 32 - 1), repeat=st.booleans(), steps=st.integers(10, 70),
           zero_rates=st.lists(st.booleans(), min_size=16, max_size=16))
    def test_member_equals_its_single_matrix_run(self, qubits, members, seed, repeat, steps,
                                                  zero_rates):
        rng = np.random.default_rng(seed)
        dim = 2 ** qubits
        ops = [embed_qubit_operator(SIGMA_MINUS, qubits, q) for q in range(qubits)]
        if repeat:  # a second channel on one qubit, whose rates add to the first's
            ops.append(ops[int(rng.integers(qubits))])
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

    # The split step keeps trace and positivity on any grid, so the gates trip
    # only on a state that starts off: gates of 1e-9 against states whose
    # trace or smallest eigenvalue is off by 5e-9, inside the entry check's
    # 1e-8.  The trace gate trips at the first node, the eigenvalue gate at
    # the end.
    EXCITED = np.diag([1.0, 0.0]).astype(complex)
    OFF = {"trace drifted": np.diag([1.0 + 5e-9, 0.0]).astype(complex),
           "eigenvalue reached": np.diag([1.0 + 5e-9, -5e-9]).astype(complex)}

    @pytest.fixture(autouse=True)
    def tight_gates(self, monkeypatch):
        monkeypatch.setattr(dynamics, "TOL", dataclasses.replace(
            dynamics.TOL, trace_drift_error=1e-9, positivity_drift=1e-9))

    @staticmethod
    def _failure(rates, rho0):
        with pytest.raises(StepSizeError) as err:
            propagate_lindblad(lambda t: 3.0 * SIGMA_X, [Dissipator(SIGMA_MINUS, np.array(rates))],
                               rho0, TimeGrid(0, 1, 8))
        return err.value

    def _single_message(self, rate, rho0):
        err = self._failure(rate, rho0)
        assert err.member is None
        return str(err)

    @pytest.mark.parametrize("check", ["trace drifted", "eigenvalue reached"])
    def test_the_one_failing_member_is_named(self, check):
        rates = [0.5, 25.0, 1.0]
        err = self._failure(rates, np.array([self.EXCITED, self.OFF[check], self.EXCITED]))
        assert err.member == 1 and check in str(err)
        assert str(err) == self._single_message(rates[1], self.OFF[check])
        for k in (0, 2):  # the other members alone run clean
            propagate_lindblad(lambda t: 3.0 * SIGMA_X, [Dissipator(SIGMA_MINUS, rates[k])],
                               self.EXCITED, TimeGrid(0, 1, 8))

    def test_the_earliest_failing_step_names_the_member(self):
        # alone, a member off in its eigenvalue fails at the end, one off in
        # its trace at t = 0.125
        rates = [0.5, 25.0, 1.0]
        negative, drifting = self.OFF["eigenvalue reached"], self.OFF["trace drifted"]
        err = self._failure(rates, np.array([negative, self.EXCITED, drifting]))
        assert err.member == 2 and "t = 0.125000" in str(err)
        err = self._failure(rates, np.array([negative, drifting, drifting]))
        assert err.member == 1  # a tie goes to the first in stack order
        err = self._failure(rates, np.array([negative, self.EXCITED, negative]))
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


class TestDenseSteps:
    """Up to DENSE levels an open step is three dense products, D being its
    compiled Liouville matrices; DENSE = 0 forces the grouped steps, the
    oracle here."""

    @staticmethod
    def _channels(rng, qubits, members):
        # lowering masks in a permuted bit order, a qubit that does not decay
        # and a member that does not decay
        dim = 2 ** qubits
        order = np.arange(dim).reshape((2,) * qubits).transpose(rng.permutation(qubits)).ravel()
        rates = rng.uniform(0.2, 3.0, size=(qubits, members))
        if qubits > 1:
            rates[0] = 0.0
        if members > 1:
            rates[:, 1] = 0.0
        return [Dissipator(embed_qubit_operator(SIGMA_MINUS, qubits, q)[np.ix_(order, order)],
                           rate if members > 1 else rate[0]) for q, rate in enumerate(rates)]

    @pytest.mark.parametrize("members", [1, 3])
    @pytest.mark.parametrize("qubits, groups", [(1, 1), (2, 1), (2, 2), (3, 1), (3, 2), (3, 4)])
    def test_equals_the_grouped_steps(self, monkeypatch, qubits, groups, members):
        rng = np.random.default_rng(10 * qubits + groups + members)
        dim, size = 2 ** qubits, 2 ** qubits // groups
        a, b = (_random_complex(rng, (groups, size, size)) for _ in range(2))
        h0, h1 = a + dagger(a), b + dagger(b)
        channels = self._channels(rng, qubits, members)
        rho0 = np.array([_random_density(rng, dim) for _ in range(members)])
        if members == 1:
            rho0 = rho0[0]

        def run():
            return propagate_lindblad(
                lambda t: h0 + np.cos(np.asarray(t))[..., None, None, None] * h1, channels,
                rho0, TimeGrid(0.0, 1.0, 200))

        assert dim <= dynamics.DENSE
        dense = run()
        monkeypatch.setattr(dynamics, "DENSE", 0)
        grouped = run()
        assert np.max(np.abs(dense.matrices - grouped.matrices)) <= 1e-14
        assert np.max(np.abs(dense.final - grouped.final)) <= 1e-14
        assert np.max(np.abs(dense.trace_drift - grouped.trace_drift)) <= 1e-14
        assert np.max(np.abs(dense.min_eigenvalue - grouped.min_eigenvalue)) <= 1e-14

    @pytest.mark.parametrize("members", [1, 3])
    @pytest.mark.parametrize("qubits", [1, 2, 3])
    def test_the_liouville_matrix_is_the_damper(self, qubits, members):
        rng = np.random.default_rng(100 * qubits + members)
        dim = 2 ** qubits
        damping = dynamics._damping(dynamics._decay_rates(self._channels(rng, qubits, members),
                                                          dim, members), 0.35, members, dim)
        sigma = np.array([[_random_density(rng, dim) for _ in range(5)]
                          for _ in range(members)])
        want = sigma.copy()
        dynamics._damper(want, *damping)()
        got = sigma.reshape(members, 5, dim * dim) @ dynamics._liouville(damping, members, dim)
        # its sums round in another order: at most two units in the last
        # place of an entry in [0.5, 1)
        assert np.max(np.abs(got.reshape(sigma.shape) - want)) <= 2.3e-16

    def test_a_stack_in_any_memory_order_steps_alike(self):
        # the dense steps read sigma through a flat view of its buffer
        rng = np.random.default_rng(8)
        rho0 = np.array([_random_density(rng, 4) for _ in range(3)])
        h = _stack_hamiltonian(rng, 4)
        channels = self._channels(rng, 2, 3)
        grid = TimeGrid(0.0, 1.0, 70)
        want = propagate_lindblad(h, channels, rho0, grid)
        got = propagate_lindblad(h, channels, np.asfortranarray(rho0), grid)
        assert np.array_equal(got.matrices, want.matrices)

    @pytest.mark.parametrize("dense", [True, False])
    def test_a_small_run_damps_no_step_in_place(self, monkeypatch, dense):
        # the dense steps bind the damper only to compile D(dt/2) and D(dt)
        # from the d^2 basis matrices, then to damp the checkpoint nodes, the
        # last being the final one; the grouped steps damp sigma every step
        rng = np.random.default_rng(3)
        damped = []
        damper = dynamics._damper

        def counted_damper(x, feeds, weight):
            damp = damper(x, feeds, weight)

            def counted():
                damped.append(x.shape[1])
                damp()
            return counted

        monkeypatch.setattr(dynamics, "_damper", counted_damper)
        if not dense:
            monkeypatch.setattr(dynamics, "DENSE", 0)
        channels = self._channels(rng, 3, 2)
        grid = TimeGrid(0.0, 1.0, 200)
        run = dynamics._lindblad_run(dynamics._decay_rates(channels, 8, 2),
                                     np.array([_random_density(rng, 8)] * 2), grid,
                                     lambda first, sigma, damping: None)
        dynamics._propagate(_stack_hamiltonian(rng, 8), grid, 8, [run])
        if dense:
            assert damped[:2] == [64, 64] and sum(damped[2:]) == dynamics.CHECKPOINTS
            assert len(damped) <= 2 + -(-grid.steps // BLOCK)
        else:
            assert len(damped) >= grid.steps


def _group_hamiltonian(rng, groups, size):
    """A random array-aware H(t) = H0 + cos(t) H1 as (len(t), S, b, b) blocks,
    every group's block its own."""
    a, b = (_random_complex(rng, (groups, size, size)) for _ in range(2))
    h0, h1 = a + dagger(a), b + dagger(b)
    return lambda t: h0 + np.cos(np.asarray(t))[..., None, None, None] * h1


def _two_group_stack(rng, dim, size, members):
    """Random density matrices on the levels of groups 0 and 1, whose group
    bits are all excited but the lowest: the jumps reach only part of the
    (row group, column group) tiles from there."""
    rho = np.zeros((members, dim, dim), dtype=complex)
    rho[:, :2 * size, :2 * size] = [_random_density(rng, 2 * size) for _ in range(members)]
    return rho


class TestSupportSteps:
    """Above DENSE levels a member whose jumps reach less than a SHARE of its
    tiles steps on the reachable entries alone; SHARE 0 forces the grouped
    steps, the oracle here."""

    @staticmethod
    def _force_grouped(monkeypatch):
        monkeypatch.setattr(dynamics, "SHARE", 0.0)

    @staticmethod
    def _spy(monkeypatch) -> list:
        """The entry count of every support form made from now on."""
        made = []
        steps = dynamics._support_steps

        def spied(sigma, first, full, buf, entries, size):
            made.append(entries.size)
            return steps(sigma, first, full, buf, entries, size)
        monkeypatch.setattr(dynamics, "_support_steps", spied)
        return made

    @staticmethod
    def _assert_close(got, want, bound=1e-14):
        for name in ("matrices", "final", "trace_drift", "min_eigenvalue"):
            assert np.max(np.abs(getattr(got, name) - getattr(want, name))) <= bound, name

    @staticmethod
    def _random_case(qubits, size, members):
        rng = np.random.default_rng(1000 * qubits + 10 * size + members)
        dim = 2 ** qubits
        return (_group_hamiltonian(rng, dim // size, size),
                TestDenseSteps._channels(rng, qubits, members),
                _two_group_stack(rng, dim, size, members)[0 if members == 1 else slice(None)])

    @staticmethod
    def _ghz5_steps():
        """Each step of configs/ghz5.cfg's plan as (H blocks, channels at
        kappa_T 0.0145 and 0.3, level order), the runner's step order."""
        model = QubitModel(qubits=5, omega=2900.0, j_over_omega=0.1)
        for step in plan_ghz(model).steps:
            order = step.order
            channels = [Dissipator(embed_qubit_operator(SIGMA_MINUS, 5, q)[np.ix_(order, order)],
                                   np.array([0.0145, 0.3])) for q in range(5)]
            yield (lambda t, _step=step: build_step_blocks(_step, model, t)), channels, step

    @pytest.mark.parametrize("members", [1, 2])
    @pytest.mark.parametrize("size", [2, 4])
    @pytest.mark.parametrize("qubits", [4, 5])
    def test_equals_the_grouped_steps_on_random_stacks(self, monkeypatch, qubits, size,
                                                       members):
        h, channels, rho0 = self._random_case(qubits, size, members)
        grid = TimeGrid(0.0, 1.0, 200)
        made = self._spy(monkeypatch)
        monkeypatch.setattr(dynamics, "SHARE", 2.0)  # at d = 16, b = 4 the share is 1/2
        support = propagate_lindblad(h, channels, rho0, grid)
        assert len(made) == 1 and made[0] < 4 ** qubits
        self._force_grouped(monkeypatch)
        self._assert_close(support, propagate_lindblad(h, channels, rho0, grid))
        assert len(made) == 1

    def test_equals_the_grouped_steps_on_every_step_of_the_ghz5_plan(self, monkeypatch):
        made = self._spy(monkeypatch)
        share = dynamics.SHARE
        grid = TimeGrid(0.0, 1.0, 200)
        model = QubitModel(qubits=5, omega=2900.0)
        rho = np.array([outer(plan_ghz(model).initial)] * 2)
        for h, channels, step in self._ghz5_steps():
            rho0 = rho[:, step.order[:, None], step.order]
            got = propagate_lindblad(h, channels, rho0, grid)
            self._force_grouped(monkeypatch)
            self._assert_close(got, propagate_lindblad(h, channels, rho0, grid))
            monkeypatch.setattr(dynamics, "SHARE", share)
            rho = got.final[:, step.position[:, None], step.position]
        # split, convert, raise-3 ... raise-5, each on part of its 1,024 entries
        assert made == [16, 16, 64, 192, 480]

    def test_every_nonzero_of_a_grouped_node_lies_in_the_support(self, monkeypatch):
        support = dynamics._support
        self._force_grouped(monkeypatch)
        cases = [self._random_case(qubits, size, 2) for qubits in (4, 5) for size in (2, 4)]
        cases += [(h, channels, np.array([outer(step.initial[step.order])] * 2))
                  for h, channels, step in self._ghz5_steps()]
        for h, channels, rho0 in cases:
            members, dim = len(rho0), rho0.shape[-1]
            nodes = propagate_lindblad(h, channels, rho0, TimeGrid(0.0, 1.0, 150)).matrices
            size = np.shape(h(np.zeros(1)))[-1]
            rates = dynamics._decay_rates(channels, dim, members)
            tiles = support(rho0.astype(complex), rates, size).any(axis=0)
            assert not tiles.all()
            entries = dynamics._entries(tiles, size)
            reached = np.flatnonzero(np.any(nodes.reshape(-1, dim * dim) != 0, axis=0))
            assert np.isin(reached, entries).all()

    def test_a_closure_without_one_jump_fails_the_oracle(self, monkeypatch):
        # the gates are opened so that the comparison itself must catch it
        monkeypatch.setattr(dynamics, "TOL", dataclasses.replace(
            dynamics.TOL, trace_drift_error=1.0, positivity_drift=1.0))
        h, channels, rho0 = self._random_case(4, 2, 1)
        grid = TimeGrid(0.0, 1.0, 200)
        want = propagate_lindblad(h, channels, rho0, grid)
        support = dynamics._support
        masks = [int(np.bitwise_xor(*np.nonzero(d.operator))[0]) for d in channels
                 if np.any(d.rate > 0)]
        dropped = max(masks)  # a bit of the group index, which moves tiles
        assert dropped >= 2
        monkeypatch.setattr(dynamics, "_support", lambda rho, rates, size: support(
            rho, {m: r for m, r in rates.items() if m != dropped}, size))
        got = propagate_lindblad(h, channels, rho0, grid)
        assert np.max(np.abs(got.matrices - want.matrices)) > 1e-6

    @pytest.mark.parametrize("kind", ["pure", "density", "stack"])
    def test_a_change_of_group_shape_is_refused(self, kind):
        # blocks in the first span, the same H as a dense matrix in the next:
        # the propagation keeps the first span's group shape, so the second
        # span is refused at its first midpoint
        h, channels, rho0 = self._random_case(4, 2, 1 if kind == "density" else 2)
        groups = np.arange(16).reshape(-1, 2)

        def shifting(t):
            blocks = h(t)
            if t[0] < SPAN * grid.dt:
                return blocks
            dense = np.zeros(blocks.shape[:-3] + (16, 16), dtype=complex)
            dense[..., groups[:, :, None], groups[:, None, :]] = blocks
            return dense

        grid = TimeGrid(0.0, 1.0, SPAN + 40)
        assert dynamics._span(16) == SPAN
        second = (SPAN + 0.5) * grid.dt
        with pytest.raises(ValueError, match=rf"^Hamiltonian blocks change from 8 groups of 2 "
                                             rf"levels to 1 of 16 at t = {second:.6f}$"):
            if kind == "pure":
                propagate_schrodinger(shifting, np.eye(16)[0], grid)
            else:
                propagate_lindblad(shifting, channels, rho0, grid)

    def test_an_empty_stack_runs_through(self):
        ops = [embed_qubit_operator(SIGMA_MINUS, 4, q) for q in range(4)]
        traj = propagate_lindblad(lambda t: np.zeros(np.shape(t) + (4, 4, 4)),
                                  [Dissipator(op, np.zeros(0)) for op in ops],
                                  np.zeros((0, 16, 16)), TimeGrid(0.0, 1.0, 10))
        assert traj.matrices.shape == (0, 11, 16, 16)

    @pytest.mark.parametrize("mixed", [False, True])
    def test_a_member_equals_its_single_matrix_run(self, monkeypatch, mixed):
        # members 1 and 2 reach 16 of the 64 tiles each, 24 together, and
        # take the support form on the entries either reaches; member 0
        # reaches member 1's tiles.  Mixed, member 0 reaches all of them, so
        # the whole stack steps grouped, and each member equals its own run
        # forced grouped
        rng = np.random.default_rng(5)
        h = _group_hamiltonian(rng, 8, 2)
        rates = rng.uniform(0.2, 2.0, size=(4, 3))
        rates[1, 2] = 0.0
        ops = [embed_qubit_operator(SIGMA_MINUS, 4, q) for q in range(4)]
        rho0 = _two_group_stack(rng, 16, 2, 3)
        rho0[2] = 0.0
        levels = np.array([0, 1, 4, 5])  # groups 0 and 2
        rho0[2, levels[:, None], levels] = _random_density(rng, 4)
        if mixed:
            rho0[0] = _random_density(rng, 16)
        grid = TimeGrid(0.0, 1.0, 150)
        made, grouped = self._spy(monkeypatch), []
        steps = dynamics._grouped_steps

        def spied(sigma, first, full, buf):
            grouped.append(len(sigma))
            return steps(sigma, first, full, buf)
        monkeypatch.setattr(dynamics, "_grouped_steps", spied)
        stack = propagate_lindblad(h, [Dissipator(op, r) for op, r in zip(ops, rates)],
                                   rho0, grid)
        assert (made, grouped) == (([], [3]) if mixed else ([24 * 4], []))
        if mixed:
            self._force_grouped(monkeypatch)
        forms = []
        for k in range(3):
            before = (len(made), len(grouped))
            single = propagate_lindblad(h, [Dissipator(op, r[k]) for op, r in zip(ops, rates)],
                                        rho0[k], grid)
            forms.append((made[before[0]:], grouped[before[1]:]))
            assert np.array_equal(stack.matrices[k], single.matrices)
            assert np.array_equal(stack.final[k], single.final)
            assert stack.trace_drift[k] == single.trace_drift
            assert stack.min_eigenvalue[k] == single.min_eigenvalue
        assert forms == [([], [1])] * 3 if mixed else [([64], [])] * 3

    def test_a_mixed_member_keeps_the_trace_drift_of_its_own_run(self, monkeypatch):
        # every member takes the support form on groups of its own, so the
        # stack steps on entries a member's own run does not hold: the
        # trace must sum the same d numbers either way
        rng = np.random.default_rng(1)
        h = _group_hamiltonian(rng, 16, 2)
        rates = rng.uniform(0.2, 2.0, size=(5, 3))
        ops = [embed_qubit_operator(SIGMA_MINUS, 5, q) for q in range(5)]
        rho0 = np.zeros((3, 32, 32), dtype=complex)
        for k, groups in enumerate(rng.permutation(16)[:6].reshape(3, 2)):
            levels = (groups[:, None] * 2 + np.arange(2)).ravel()
            rho0[k][np.ix_(levels, levels)] = _random_density(rng, levels.size)
        grid = TimeGrid(0.0, 1.0, 100)
        made = self._spy(monkeypatch)
        stack = propagate_lindblad(h, [Dissipator(op, r) for op, r in zip(ops, rates)],
                                   rho0, grid)
        for k in range(3):
            single = propagate_lindblad(h, [Dissipator(op, r[k]) for op, r in zip(ops, rates)],
                                        rho0[k], grid)
            assert np.array_equal(stack.final[k], single.final)
            assert stack.trace_drift[k] == single.trace_drift
        assert len(made) == 4 and made[0] > max(made[1:])


class TestObserver:
    """Node 0, then one call per block, from one reused buffer; H once per span."""

    @staticmethod
    def _propagate(kind, steps, observe=None, hamiltonian=None, dim=4):
        rng = np.random.default_rng(11)
        h = _stack_hamiltonian(rng, dim)  # drawn either way, so the states stay the same
        h = hamiltonian or h
        grid = TimeGrid(0.0, 0.6, steps)
        if kind == "pure":
            psi0 = _random_complex(rng, dim)
            return propagate_schrodinger(h, psi0 / np.linalg.norm(psi0), grid, observe=observe)
        rho0 = np.array([_random_density(rng, dim) for _ in range(3)])
        rates = np.array([0.0, 0.4, 1.1])
        if kind == "density":
            rho0, rates = rho0[1], 0.4
        if kind in ("support", "mixed"):
            # groups of 2 levels whose jumps reach part of the tiles: every
            # member steps on its reachable entries, or, mixed, member 0
            # reaches them all and the whole stack steps grouped
            h = hamiltonian or _group_hamiltonian(rng, dim // 2, 2)
            rho0 = _two_group_stack(rng, dim, 2, 3)
            if kind == "mixed":
                rho0[0] = _random_density(rng, dim)
        qubits = dim.bit_length() - 1
        ops = [embed_qubit_operator(SIGMA_MINUS, qubits, q) for q in range(qubits)]
        return propagate_lindblad(h, [Dissipator(op, rates) for op in ops], rho0, grid,
                                  observe=observe)

    def test_a_span_is_512_intervals_up_to_dense_levels_and_256_above(self):
        assert [dynamics._span(dim) for dim in (2, 4, 8, 16, 1024)] == [512] * 3 + [256] * 2
        assert dynamics._span(dynamics.DENSE) == 2 * SPAN and SPAN % BLOCK == 0

    # grids of a whole number of spans plus an offset, the span being the one
    # the span rule gives d: 512 intervals at d = 4, 256 at d = 16
    @pytest.mark.parametrize("spans, offset", [(0, 1), (0, 63), (1, -1), (1, 0), (1, 1),
                                               (2, 5)])
    @pytest.mark.parametrize("dim", [4, 16])
    @pytest.mark.parametrize("kind", ["pure", "density", "stack"])
    def test_h_is_called_once_per_span_at_the_midpoints(self, kind, dim, spans, offset):
        length = dynamics._span(dim)
        steps = spans * length + offset
        h = _stack_hamiltonian(np.random.default_rng(11), dim)
        asked, sizes = [], []
        node_axis = -2 if kind == "pure" else -3

        def counted(t):
            asked.append(np.array(t))
            return h(t)

        self._propagate(kind, steps, lambda first, states: sizes.append(states.shape[node_axis]),
                        hamiltonian=counted, dim=dim)
        grid = TimeGrid(0.0, 0.6, steps)
        assert len(asked) == -(-steps // length)
        assert [t.size for t in asked[:-1]] == [length] * (len(asked) - 1)
        assert np.array_equal(np.concatenate(asked), grid.times[:-1] + 0.5 * grid.dt)
        assert sizes[0] == 1 and max(sizes[1:]) <= BLOCK and sum(sizes) == steps + 1

    @pytest.mark.parametrize("steps", [1, 63, 64, 65, 130])
    @pytest.mark.parametrize("kind, members, core", [("pure", (), (4,)), ("density", (), (4, 4)),
                                                     ("stack", (3,), (4, 4)),
                                                     ("support", (3,), (16, 16)),
                                                     ("mixed", (3,), (16, 16))])
    def test_blocks_cover_the_grid_once_and_equal_the_trajectory(self, monkeypatch, kind,
                                                                 members, core, steps):
        calls, forms = [], []
        for name in ("_support_steps", "_grouped_steps"):
            def spied(*args, _name=name, _steps=getattr(dynamics, name)):
                forms.append(_name)
                return _steps(*args)
            monkeypatch.setattr(dynamics, name, spied)
        observed = self._propagate(
            kind, steps, lambda first, states: calls.append((first, states.copy(), states)),
            dim=core[0])
        assert forms == {"support": ["_support_steps"], "mixed": ["_grouped_steps"]}.get(kind, [])
        stored = self._propagate(kind, steps, dim=core[0])
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
        if kind in ("support", "mixed"):
            # entries scattered into the reused buffer against the grouped
            # steps, which write all d^2 of them every block
            monkeypatch.setattr(dynamics, "SHARE", 0.0)
            grouped = self._propagate(kind, steps, dim=core[0]).matrices
            assert np.max(np.abs(blocks - grouped)) <= 1e-14


def _random_residual_inputs(rng, count, dim):
    """Random v (norms well away from 1), dv and Hermitian H, count of each."""
    v, dv = (rng.normal(size=(count, dim)) + 1j * rng.normal(size=(count, dim))
             for _ in range(2))
    v *= rng.uniform(0.1, 10.0, size=(count, 1))
    a = rng.normal(size=(count, dim, dim)) + 1j * rng.normal(size=(count, dim, dim))
    return v, dv, a + dagger(a)


class TestResidual:
    @pytest.mark.parametrize("dim", [1, 2, 5, 32])
    def test_closed_form_matches_the_matrix_oracle(self, dim):
        v, dv, h = _random_residual_inputs(np.random.default_rng(dim), 40, dim)
        got = von_neumann_residual(v, dv, h)
        want = residual_matrix_oracle(v, dv, h)
        assert got.shape == (40,)
        assert np.all(np.abs(got - want) <= 1e-14 * want)

    def test_closed_form_matches_the_matrix_oracle_on_blocks_in_the_step_order(self):
        # the raise step of GHZ4: b = 2 levels per group, spectators 0, 1 and 3
        step = plan_ghz(QubitModel(4)).steps[-1]
        rng = np.random.default_rng(7)
        groups = step.order.reshape(-1, step.block)
        v, dv, _ = _random_residual_inputs(rng, 30, step.dim)
        a = (rng.normal(size=(30,) + groups.shape + (step.block,))
             + 1j * rng.normal(size=(30,) + groups.shape + (step.block,)))
        blocks = a + dagger(a)
        dense = np.zeros((30, step.dim, step.dim), dtype=complex)
        dense[:, groups[:, :, None], groups[:, None, :]] = blocks
        want = residual_matrix_oracle(v, dv, dense)
        for got in (von_neumann_residual(v[:, step.order], dv[:, step.order], blocks),
                    residual_matrix_oracle(v[:, step.order], dv[:, step.order], blocks)):
            assert np.all(np.abs(got - want) <= 1e-14 * want)

    def test_near_exact_passage_keeps_its_residual_to_round_off(self):
        # a = dv + i H v = i lambda v + eps: the exact residual is that of
        # |eps><v| + |v><eps|, about 1e-9 here, while the terms of the short
        # formula 2 n ||a||^2 + 2 Re(c^2) are each ~(lambda n)^2 = 2.6e5
        rng = np.random.default_rng(11)
        lam, dim = 100.0, 8
        v, eps, _ = _random_residual_inputs(rng, 50, dim)
        v /= np.linalg.norm(v, axis=1)[:, None] / 2.0
        eps *= 1e-10
        h = np.broadcast_to(lam * np.eye(dim), (50, dim, dim))
        exact = residual_matrix_oracle(v, eps, np.zeros_like(h))
        got = von_neumann_residual(v, eps, h)
        assert np.max(np.abs(got - exact)) <= np.finfo(float).eps * lam * 4.0  # n = 4
        # the short formula misses by ~sqrt(eps) lambda n, 1e4 times the residual
        a = eps + 1j * lam * v
        n, c = np.sum(np.abs(v) ** 2, axis=1), np.sum(np.conj(v) * a, axis=1)
        short = np.sqrt(np.abs(2 * n * np.sum(np.abs(a) ** 2, axis=1) + 2 * (c ** 2).real))
        assert np.max(np.abs(short - exact)) > 1e3 * np.max(exact)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_zero_vector_has_zero_residual_without_warnings(self):
        h = np.array([[1.0, 2.0j], [-2.0j, 0.5]])
        dv = np.array([1.0, 1.0j])
        assert von_neumann_residual(np.zeros(2, dtype=complex), dv, h) == 0.0
        v = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)
        got = von_neumann_residual(v, np.array([dv, dv]), np.array([h, h]))
        assert got[0] == 0.0 and abs(got[1] - residual_matrix_oracle(v[1], dv, h)) <= 1e-15

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

    def test_a_nan_frame_derivative_is_refused(self):
        layout = SubspaceLayout(1, 2)
        frame = build_frame(layout, random_schedule_set(np.random.default_rng(4), layout), 0.2)
        frame.derivatives[1, 0] = np.nan
        with pytest.raises(ValueError, match="^geometric matrix is not Hermitian"):
            gd_matrices(frame, np.zeros((3, 3)))

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
        phases = generated_phases(plan)
        frames = [build_frame(layout, schedules, t) for t in plan.times]
        u = reconstruct_evolution(frames, phases)
        assert np.allclose(u[0], np.eye(3), atol=1e-12)

    def test_matches_brute_force_propagation(self):
        layout = SubspaceLayout(2, 2)
        schedules = random_schedule_set(np.random.default_rng(8), layout)
        plan = synthesize_general(layout, schedules, grid=400)
        phases = generated_phases(plan)
        frames = [build_frame(layout, schedules, t) for t in plan.times]
        u_rec = reconstruct_evolution(frames, phases)
        _, u_bf = brute_force_unitaries(plan.hamiltonian, layout.dim, 0.0, 1.0, 4000)
        for idx in (100, 250, 400):
            assert np.linalg.norm(u_rec[idx] - u_bf[idx * 10]) <= 1e-6

    def test_a_nan_phase_is_refused(self):
        layout = SubspaceLayout(1, 2)
        schedules = random_schedule_set(np.random.default_rng(9), layout)
        plan = synthesize_general(layout, schedules, grid=50)
        phases = generated_phases(plan).as_matrix()
        phases[-1, 20] = np.nan
        with pytest.raises(ValueError, match=r"^reconstructed operator is not unitary "
                                             r"\(defect nan\)$"):
            reconstruct_evolution(build_frame(layout, schedules, plan.times), phases)

    def test_mismatched_grids_rejected(self):
        layout = SubspaceLayout(1, 2)
        schedules = random_schedule_set(np.random.default_rng(9), layout)
        plan = synthesize_general(layout, schedules, grid=50)
        phases = generated_phases(plan)
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
