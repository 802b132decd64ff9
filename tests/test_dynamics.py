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
from qpassage.linalg import (SIGMA_MINUS, StateCheckError, dagger, embed_qubit_operator,
                             expm_hermitian, outer)
from qpassage.protocols import QubitModel, build_step_blocks, plan_ghz
from qpassage.schedules import ParameterSchedule
from qpassage.synthesis import generated_phases, synthesize_general

from helpers import (SIGMA_X, SIGMA_Z, brute_force_unitaries, lindblad_rk4,
                     random_schedule_set, residual_matrix_oracle, schrodinger_every_group)


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


class TestOccupiedGroups:
    """The pure run steps only the groups its entry state occupies, which
    u, block diagonal over the groups, keeps to themselves: the bits of
    stepping every group (`schrodinger_every_group`)."""

    @staticmethod
    def _case(occupied, form):
        """(H, psi0, which): H over 8 groups of 2 levels, as a stack of 8
        blocks or as a pair of 3 class blocks, psi0 random on `occupied`
        groups, and each group's class (its own in a stack)."""
        rng = np.random.default_rng(len(occupied) + (form == "pair"))
        which = np.arange(8) if form == "stack" else np.array([0, 1, 2, 1, 0, 2, 2, 1])
        a, b = (_random_complex(rng, (which.max() + 1, 2, 2)) for _ in range(2))
        h0, h1 = a + dagger(a), b + dagger(b)

        def h(t):
            blocks = h0 + np.cos(np.asarray(t))[..., None, None, None] * h1
            return blocks if form == "stack" else (blocks, which)
        psi0 = np.zeros((8, 2), dtype=complex)
        psi0[occupied] = _random_complex(rng, (len(occupied), 2))
        return h, (psi0 / np.linalg.norm(psi0)).ravel(), which

    @pytest.mark.parametrize("form", ["stack", "pair"])
    @pytest.mark.parametrize("occupied", [[5], [0, 3, 6], list(range(8))],
                             ids=["one", "some", "all"])
    def test_equals_stepping_every_group(self, occupied, form):
        h, psi0, _ = self._case(occupied, form)
        grid = TimeGrid(0.0, 1.0, 2 * BLOCK + 9)
        nodes, final, drift = schrodinger_every_group(h, psi0, grid)
        traj = propagate_schrodinger(h, psi0, grid)
        assert np.array_equal(traj.states, nodes) and np.array_equal(traj.final, final)
        assert traj.norm_drift == drift
        observed = []
        ended = propagate_schrodinger(h, psi0, grid,
                                      lambda first, states: observed.append(states.copy()))
        assert np.array_equal(np.concatenate(observed), nodes)
        assert np.array_equal(ended.final, final) and ended.norm_drift == drift

    @pytest.mark.parametrize("form", ["stack", "pair"])
    def test_no_unoccupied_group_is_stepped(self, monkeypatch, form):
        # the unitaries of every class that no occupied group holds are nan:
        # one product with them would make a node nan
        h, psi0, which = self._case([0, 3], form)
        unused = np.setdiff1d(which, which[[0, 3]])
        assert unused.size
        unitaries = dynamics._step_unitaries

        def poisoned(*args):
            u, got = unitaries(*args)
            assert np.array_equal(got, which)
            u[:, unused] = np.nan
            return u, got
        grid = TimeGrid(0.0, 1.0, BLOCK + 9)
        want = schrodinger_every_group(h, psi0, grid)[0]
        monkeypatch.setattr(dynamics, "_step_unitaries", poisoned)
        assert np.array_equal(propagate_schrodinger(h, psi0, grid).states, want)


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

    def test_a_pair_gives_the_unitaries_of_the_stack_it_stands_for(self, monkeypatch):
        # classes 0 and 2 hold equal blocks: one exponential serves both
        rng = np.random.default_rng(4)
        a = _random_complex(rng, (5, 3, 2, 2))
        h = a + dagger(a)
        h[:, 2] = h[:, 0]
        which = np.array([2, 1, 0, 1, 2])
        times = np.linspace(0.1, 0.9, 5)
        seen = []

        def counted(blocks, scale):
            seen.append(blocks.shape[1])
            return expm_hermitian(blocks, scale)

        monkeypatch.setattr(dynamics, "expm_hermitian", counted)
        u, got = dynamics._step_unitaries(lambda t: (h, which), times, 10, 0.01)
        stack, want = dynamics._step_unitaries(lambda t: h[:, which], times, 10, 0.01)
        assert np.array_equal(u[:, got], stack[:, want]) and seen == [2, 2]
        assert got.tolist() == want.tolist() == [0, 1, 0, 1, 0]

    @pytest.mark.parametrize("which", [[0, 1], [0, 1, 2], [0, -1, 1], [0.0, 1.0, 1.0],
                                       [[0, 1, 1]]],
                             ids=["too-few", "no-such-class", "negative", "float", "2-d"])
    def test_a_pair_whose_groups_miss_the_levels_is_refused(self, which):
        h = np.zeros((4, 2, 2, 2), dtype=complex)
        with pytest.raises(ValueError, match="do not cover the state's 6 levels"):
            dynamics._step_unitaries(lambda t: (h, np.array(which)), np.linspace(0, 1, 4), 6,
                                     0.01)

    @pytest.mark.parametrize("flaw, message", [(np.nan, "finite"), (1.0, "Hermitian")])
    def test_a_flaw_in_a_later_group_names_its_first_time(self, flaw, message):
        times = np.linspace(0.1, 0.9, 5)
        h = np.zeros((5, 3, 2, 2), dtype=complex)
        h[4, 0, 0, 1] = flaw  # the first group fails only at the last time
        h[2, 2, 1, 0] = flaw
        with pytest.raises(ValueError, match=rf"^Hamiltonian is not {message} at t = 0\.500000$"):
            dynamics._step_unitaries(lambda t: h, times, 6, 0.01)


class TestConstantHamiltonian:
    """An H with no time axis is checked and exponentiated once per span and
    gives the bits of the same H returned at every time."""

    @staticmethod
    def _hamiltonians(rng, kind, dim):
        """(constant, stacked, classes): one H without a time axis, the same
        H repeated over the times asked for, and its number of classes."""
        if kind == "matrix":
            a = _random_complex(rng, (dim, dim))
            h0 = a + dagger(a)
            return lambda t: h0, lambda t: np.repeat(h0[None], len(t), axis=0), 1
        a = _random_complex(rng, (2, 2, 2))
        blocks, which = a + dagger(a), np.arange(dim // 2) % 2
        return (lambda t: (blocks, which),
                lambda t: (np.repeat(blocks[None], len(t), axis=0), which), 2)

    @pytest.mark.parametrize("kind", ["matrix", "pair"])
    @pytest.mark.parametrize("dim", [4, 16])
    def test_equals_the_same_h_at_every_time(self, monkeypatch, kind, dim):
        rng = np.random.default_rng(dim)
        constant, stacked, classes = self._hamiltonians(rng, kind, dim)
        grid = TimeGrid(0.0, 1.0, dynamics._span(dim) + 40)  # two spans
        psi0 = _random_complex(rng, dim)
        psi0 /= np.linalg.norm(psi0)
        seen = []

        def counted(blocks, scale):
            seen.append(blocks.shape[:2])
            return expm_hermitian(blocks, scale)

        monkeypatch.setattr(dynamics, "expm_hermitian", counted)
        got = propagate_schrodinger(constant, psi0, grid)
        assert seen == [(1, classes)] * 2  # one exponential of each class per span
        want = propagate_schrodinger(stacked, psi0, grid)
        assert np.array_equal(got.states, want.states) and got.norm_drift == want.norm_drift
        qubits = dim.bit_length() - 1
        channels = [Dissipator(embed_qubit_operator(SIGMA_MINUS, qubits, q), 0.3 * (q + 1))
                    for q in range(qubits)]
        rho0 = np.array([_random_density(rng, dim) for _ in range(2)])
        got, want = (propagate_lindblad(h, channels, rho0, grid) for h in (constant, stacked))
        assert np.array_equal(got.matrices, want.matrices)
        assert np.array_equal(got.min_eigenvalue, want.min_eigenvalue)

    def test_a_flaw_names_the_first_time_of_the_span(self):
        h = np.zeros((2, 2), dtype=complex)
        h[0, 1] = 1.0
        with pytest.raises(ValueError, match=r"^Hamiltonian is not Hermitian at t = 0\.050000$"):
            propagate_schrodinger(lambda t: h, np.eye(2)[0], TimeGrid(0.0, 1.0, 10))


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
        # of 1e-6 in every damping passes the gate's 1e-6.  The steps' D and
        # the read's D(dt/2) both come from `_gathers`: read-damping-only
        # leaks every D(dt/2), which from the ground state feeds nothing but
        # in the read.  The leak goes into the feeds' p alone, since one put
        # into keep would move the weight with it and keep the trace
        gathers = dynamics._gathers
        grid = TimeGrid(0, 1, 200)

        def leaky_gathers(feeds, p, keep):
            if half_only and np.array_equal(keep, np.exp([[-10.0 * grid.dt]])):
                return gathers(feeds, p, keep)
            return gathers(feeds, p * (1.0 + leak), keep)

        def run():
            return propagate_lindblad(lambda t: 3.0 * SIGMA_X, [Dissipator(SIGMA_MINUS, 10.0)],
                                      rho0, grid)

        assert run().trace_drift <= 1e-12
        monkeypatch.setattr(dynamics, "_gathers", leaky_gathers)
        with pytest.raises(StepSizeError,
                           match=rf"^trace drifted by \d\.\d{{3}}e-0\d at t = {at}$"):
            run()


class TestHeisenberg:
    @pytest.mark.parametrize("members", [1, 3])
    @pytest.mark.parametrize("qubits", [1, 2, 3, 4, 5])
    def test_pulled_back_observables_read_sigma_as_the_damped_nodes(self, qubits, members):
        self._assert_read(qubits, members, sparse=False)

    @pytest.mark.parametrize("members", [1, 3])
    @pytest.mark.parametrize("qubits", [1, 2, 3, 4, 5])
    def test_a_support_s_entries_read_as_the_damped_nodes(self, qubits, members):
        self._assert_read(qubits, members, sparse=True)

    @staticmethod
    def _assert_read(qubits, members, sparse):
        # the compiled read of sigma's float view against <v|D(sigma)|v>, D
        # being D(tau) of lowering operators in a permuted bit order, as a
        # protocol step passes them; sigma holds all d^2 entries, or, sparse,
        # those of the tiles the jumps reach from the two lowest levels in
        # groups of two, as the support form hands them over
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
        entries = np.arange(dim * dim)
        if sparse:
            start = np.zeros((1, dim, dim))
            start[0, :2, :2] = 1.0
            tiles = dynamics._support(start, dynamics._decay_rates(channels, dim, members), 2)
            entries = dynamics._entries(tiles, 2)
            assert entries.size < dim * dim or qubits == 1
            kept = sigma.reshape(members, 5, dim * dim)[..., entries]
            sigma = np.zeros_like(sigma)
            sigma.reshape(members, 5, dim * dim)[..., entries] = kept
        rho = sigma.copy()
        dynamics._damper(rho, *damping)()
        reading = _reading(dynamics._decay_rates(channels, dim, members), 0.35, entries, members,
                           dim)
        support, coefficients = dynamics._reader(kets, reading)
        assert coefficients.shape == (members, support.size, len(kets))
        values = np.ascontiguousarray(sigma.reshape(members, 5, dim * dim)[..., entries])
        got = values.view(float)[..., support] @ coefficients
        assert np.max(np.abs(np.moveaxis(got, -1, 0) - populations(rho, kets))) <= 1e-15
        want = _pulled_back(kets, damping, entries)
        assert np.array_equal(support, want[0]) and np.array_equal(coefficients, want[1])


def _reading(rates, tau, entries, members, dim) -> tuple:
    """The reading an open form hands over with nodes at the flat positions
    `entries`, D(tau) of the channels `rates` by `_gathers` on the feeds of
    every decaying bit among them."""
    keep = np.exp(-np.reshape(list(rates.values()), (-1, members)) * tau)
    return dynamics._gathers(list(dynamics._feeds(list(rates), entries, dim)), 1.0 - keep,
                             keep), entries


def _pulled_back(kets, damping, entries) -> tuple:
    """`_reader`'s (support, coefficients) by D+ coded on whole d x d
    matrices through `_damper`'s strided views: `_damping`'s weight and then
    each feed's adjoint ee += p gg in reverse order, read at `entries`."""
    feeds, weight = damping
    members, dim = weight.shape[0], weight.shape[-1]
    pulled = np.zeros((members, len(kets), dim * dim), dtype=complex)
    pulled[..., entries] = (kets[:, :, None] * np.conj(kets[:, None, :])).reshape(
        len(kets), -1)[:, entries]
    pulled = pulled.reshape(members, len(kets), dim, dim) * weight
    for mask, p in reversed(feeds):
        view = dynamics._bits(pulled, mask)
        view[..., 0, :, :, 0, :] += p * view[..., 1, :, :, 1, :]
    flat = np.ascontiguousarray(pulled.reshape(members, len(kets), -1)[..., entries]).view(float)
    support = np.flatnonzero(np.any(flat != 0, axis=(0, 1)))
    return support, flat[..., support].swapaxes(-1, -2)


class TestReading:
    """The reading `_open_form` hands over with its nodes, D(dt/2) by
    `_gathers` on the carried entries in both forms, against `_damper` and
    `_pulled_back` on whole d x d matrices, bit for bit."""

    @pytest.mark.parametrize("grouped", [False, True], ids=["support", "grouped"])
    @pytest.mark.parametrize("members", [1, 2, 3])
    @pytest.mark.parametrize("size", [2, 4])
    @pytest.mark.parametrize("qubits", [3, 4, 5])
    def test_the_reading_is_the_damper_and_its_adjoint(self, monkeypatch, qubits, size,
                                                       members, grouped):
        # random closed supports: each member on random groups, a third of
        # the rates 0, the bits in a random order; TILE 0 forces the grouped
        # form on all d^2 entries
        rng = np.random.default_rng(1000 * grouped + 100 * qubits + 10 * size + members)
        dim, groups = 2 ** qubits, 2 ** qubits // size
        if grouped:
            monkeypatch.setattr(dynamics, "TILE", 0)
        for _ in range(3):
            rho = np.zeros((members, dim, dim), dtype=complex)
            for member in rho:
                chosen = rng.choice(groups, rng.integers(1, groups + 1), replace=False)
                levels = (chosen[:, None] * size + np.arange(size)).ravel()
                member[np.ix_(levels, levels)] = _random_complex(rng, (levels.size,) * 2)
            rates = rng.uniform(0.2, 2.0, (qubits, members))
            rates[rng.random(rates.shape) < 1 / 3] = 0.0
            rates[0, 0] = 0.5
            rates = {1 << bit: rate for bit, rate in zip(rng.permutation(qubits), rates)
                     if rate.any()}
            _, _, reading = dynamics._open_form(rho, size, rates, 0.6, 4)
            entries = reading[1]
            assert entries.size == dim * dim or not grouped
            damping = dynamics._damping(rates, 0.3, members, dim)
            sigma = _random_complex(rng, (members, 4, entries.size))
            want = np.zeros((members, 4, dim * dim), dtype=complex)
            want[..., entries] = sigma
            want = want.reshape(members, 4, dim, dim)
            dynamics._damper(want, *damping)()
            got = dynamics._matrices(sigma, reading, np.zeros((members, 6, dim, dim),
                                                              dtype=complex))
            assert np.array_equal(got, want)
            kets = np.concatenate([np.eye(dim)[rng.permutation(dim)[:3]],
                                   _random_complex(rng, (2, dim))])
            support, coefficients = dynamics._reader(kets, reading)
            want = _pulled_back(kets, damping, entries)
            assert np.array_equal(support, want[0]) and np.array_equal(coefficients, want[1])


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


class TestSmallSteps:
    """Up to DENSE levels an open step in groups of at most TILE levels
    takes the support form whatever tiles it reaches, D being G (x) D_in on
    all d^2 entries, or D_in's product alone on one tile; TILE = 0 forces
    the grouped steps, the oracle here."""

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
    @pytest.mark.parametrize("qubits, groups, blocks", [
        pytest.param(q, g, "own", id=f"{q}-{g}")
        for q, g in [(1, 1), (2, 1), (2, 2), (3, 2), (3, 4)]
    ] + [(2, 2, "shared"), (2, 2, "idle"), (3, 4, "shared"), (3, 4, "idle")])
    def test_equals_the_grouped_steps(self, monkeypatch, qubits, groups, blocks, members):
        # every group's block its own, one class shared by every group, or
        # a class of groups whose blocks are 0 throughout
        rng = np.random.default_rng(10 * qubits + groups + members)
        dim, size = 2 ** qubits, 2 ** qubits // groups
        a, b = (_random_complex(rng, (groups, size, size)) for _ in range(2))
        if blocks == "shared":
            a, b = a[:1].repeat(groups, axis=0), b[:1].repeat(groups, axis=0)
        if blocks == "idle":
            a[::2], b[::2] = 0.0, 0.0
        h0, h1 = a + dagger(a), b + dagger(b)
        channels = self._channels(rng, qubits, members)
        rho0 = np.array([_random_density(rng, dim) for _ in range(members)])
        if members == 1:
            rho0 = rho0[0]

        def run():
            return propagate_lindblad(
                lambda t: h0 + np.cos(np.asarray(t))[..., None, None, None] * h1, channels,
                rho0, TimeGrid(0.0, 1.0, 200))

        assert dim <= dynamics.DENSE and size <= dynamics.TILE
        made = []
        steps = dynamics._support_steps
        monkeypatch.setattr(dynamics, "_support_steps",
                            lambda *args: made.append(args[4].size) or steps(*args))
        support = run()
        # a random density matrix reaches every tile, all d^2 entries
        assert made == [dim * dim]
        monkeypatch.setattr(dynamics, "TILE", 0)
        grouped = run()
        assert made == [dim * dim]
        assert np.max(np.abs(support.matrices - grouped.matrices)) <= 1e-14
        assert np.max(np.abs(support.final - grouped.final)) <= 1e-14
        assert np.max(np.abs(support.trace_drift - grouped.trace_drift)) <= 1e-14
        assert np.max(np.abs(support.min_eigenvalue - grouped.min_eigenvalue)) <= 1e-14

    @pytest.mark.parametrize("members", [1, 3])
    @pytest.mark.parametrize("qubits, size", [(1, 2), (2, 2), (2, 4), (3, 2), (3, 4)])
    def test_the_damping_product_is_the_damper(self, monkeypatch, qubits, size, members):
        # random densities reach every tile: G by its product, D_in folded
        # into the factors, or on one tile (d = size) D_in's product alone
        rng = np.random.default_rng(100 * qubits + members)
        dim = 2 ** qubits
        rates = dynamics._decay_rates(self._channels(rng, qubits, members), dim, members)
        rates = {mask: rate for mask, rate in rates.items() if rate.any()}
        rho = np.array([_random_density(rng, dim) for _ in range(members)])
        nodes, want, (half, full) = _identity_nodes(monkeypatch, rho, size, rates, 0.7)
        assert half[0].__name__ == full[0].__name__ == "product"
        assert (half[1] is None) == (full[1] is None) == (dim == size)
        # its sums round in another order: at most two units in the last
        # place of an entry in [0.5, 1)
        assert np.max(np.abs(nodes - want)) <= 2.3e-16

    def test_a_stack_in_any_memory_order_steps_alike(self):
        # the support steps read sigma through a flat view of its entries
        rng = np.random.default_rng(8)
        rho0 = np.array([_random_density(rng, 4) for _ in range(3)])
        h = _stack_hamiltonian(rng, 4)
        channels = self._channels(rng, 2, 3)
        grid = TimeGrid(0.0, 1.0, 70)
        want = propagate_lindblad(h, channels, rho0, grid)
        got = propagate_lindblad(h, channels, np.asfortranarray(rho0), grid)
        assert np.array_equal(got.matrices, want.matrices)

    @pytest.mark.parametrize("support", [True, False])
    def test_a_small_run_damps_no_step_in_place(self, monkeypatch, support):
        # the support steps damp sigma by their own products and feeds, and
        # either form's reading damps the checkpoint nodes alone, the last
        # being the final one, on their entries: only the grouped steps bind
        # the damper, and they damp sigma every step
        rng = np.random.default_rng(3)
        damped, read = [], []
        damper, open_form = dynamics._damper, dynamics._open_form

        def counted_damper(x, feeds, weight):
            damp = damper(x, feeds, weight)

            def counted():
                damped.append(x.shape[1])
                damp()
            return counted

        def counted_form(*args):
            steps, buf, (damp, entries) = open_form(*args)

            def counted_read(x, out):
                read.append(x.shape[-1])
                damp(x, out)
            return steps, buf, (counted_read, entries)

        monkeypatch.setattr(dynamics, "_damper", counted_damper)
        monkeypatch.setattr(dynamics, "_open_form", counted_form)
        if not support:
            monkeypatch.setattr(dynamics, "TILE", 0)
        channels = self._channels(rng, 3, 2)
        grid = TimeGrid(0.0, 1.0, 200)
        run = dynamics._lindblad_run(dynamics._decay_rates(channels, 8, 2),
                                     np.array([_random_density(rng, 8)] * 2), grid,
                                     lambda first, sigma, reading: None)
        dynamics._propagate(_group_hamiltonian(rng, 2, 4), grid, 8, [run])
        assert sum(read) == dynamics.CHECKPOINTS
        assert len(read) <= -(-grid.steps // BLOCK)
        if support:
            assert damped == []
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


def _identity_nodes(monkeypatch, rho, size, rates, dt) -> tuple:
    """(nodes, want, dampings): the support form of the (K, d, d) stack rho
    in groups of `size` levels with the channels `rates`, stepped twice by
    identity unitaries, so that node 0 is D(dt/2) rho and node 1 D(dt) of
    node 0, as (K, 2, d, d) matrices; want, `_damper` on those same
    inputs, node 0's D(dt/2) rho and node 0's D(dt); and the form's
    (half, full) dampings, each (damp, inner)."""
    made = []
    steps = dynamics._support_steps
    monkeypatch.setattr(dynamics, "_support_steps", lambda *args: made.append(args[1:3])
                        or steps(*args))
    members, dim = rho.shape[:2]
    stepped, buf, reading = dynamics._open_form(rho, size, rates, dt, 2)
    assert len(made) == 1
    stepped(np.broadcast_to(np.eye(size, dtype=complex), (2, 1, size, size)).copy(),
            np.zeros(dim // size, dtype=int))
    nodes = np.zeros((members, 2, dim * dim), dtype=complex)
    nodes[..., reading[-1]] = buf
    nodes = nodes.reshape(members, 2, dim, dim)
    want = np.stack([rho, nodes[:, 0]], axis=1)
    for j, tau in enumerate((0.5 * dt, dt)):
        dynamics._damper(want[:, j:j + 1], *dynamics._damping(rates, tau, members, dim))()
    return nodes, want, made[0]


class TestSupportSteps:
    """Above DENSE levels a stack whose jumps leave a tile unreached steps
    on the reachable entries alone; TILE 0 forces the grouped steps, the
    oracle here."""

    @staticmethod
    def _force_grouped(monkeypatch):
        monkeypatch.setattr(dynamics, "TILE", 0)

    @staticmethod
    def _spy(monkeypatch) -> list:
        """The entry count of every support form made from now on."""
        made = []
        steps = dynamics._support_steps

        def spied(sigma, half, full, buf, entries, tiles):
            made.append(entries.size)
            return steps(sigma, half, full, buf, entries, tiles)
        monkeypatch.setattr(dynamics, "_support_steps", spied)
        return made

    @staticmethod
    def _assert_close(got, want, bound=1e-14):
        for name in ("matrices", "final", "trace_drift", "min_eigenvalue"):
            assert np.max(np.abs(getattr(got, name) - getattr(want, name))) <= bound, name

    @staticmethod
    def _assert_members_keep_their_runs(stack, singles, rho0, channels, size) -> list:
        """Member k of `stack` equals `singles[k]`, its own run, bit for bit
        when it reaches, under its own decaying channels, every tile the
        stack reaches, else to 1e-14; returns whether each member reaches
        them all."""
        rates = dynamics._decay_rates(channels, rho0.shape[-1], len(rho0))
        tiles = dynamics._support(rho0, {m: r for m, r in rates.items() if r.any()}, size)
        whole = [np.array_equal(dynamics._support(
            rho0[k:k + 1], {m: r[k:k + 1] for m, r in rates.items() if r[k]}, size), tiles)
            for k in range(len(rho0))]
        for k, single in enumerate(singles):
            for name in ("matrices", "final", "trace_drift", "min_eigenvalue"):
                got, want = getattr(stack, name)[k], getattr(single, name)
                if whole[k]:
                    assert np.array_equal(got, want), (k, name)
                else:
                    assert np.max(np.abs(got - want)) <= 1e-14, (k, name)
        return whole

    @staticmethod
    def _random_case(qubits, size, members):
        rng = np.random.default_rng(1000 * qubits + 10 * size + members)
        dim = 2 ** qubits
        return (_group_hamiltonian(rng, dim // size, size),
                TestSmallSteps._channels(rng, qubits, members),
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
        support = propagate_lindblad(h, channels, rho0, grid)
        assert len(made) == 1 and made[0] < 4 ** qubits
        self._force_grouped(monkeypatch)
        self._assert_close(support, propagate_lindblad(h, channels, rho0, grid))
        assert len(made) == 1

    def test_equals_the_grouped_steps_on_every_step_of_the_ghz5_plan(self, monkeypatch):
        made = self._spy(monkeypatch)
        tile = dynamics.TILE
        grid = TimeGrid(0.0, 1.0, 200)
        model = QubitModel(qubits=5, omega=2900.0)
        rho = np.array([outer(plan_ghz(model).initial)] * 2)
        for h, channels, step in self._ghz5_steps():
            rho0 = rho[:, step.order[:, None], step.order]
            got = propagate_lindblad(h, channels, rho0, grid)
            self._force_grouped(monkeypatch)
            self._assert_close(got, propagate_lindblad(h, channels, rho0, grid))
            monkeypatch.setattr(dynamics, "TILE", tile)
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
            tiles = support(rho0.astype(complex), rates, size)
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
        # the stack takes the support form on the entries either reaches;
        # member 0 reaches member 1's tiles.  No member reaches all 24, so
        # each is held to its own run to round-off, on the damping
        # product's path and on the gather's.  Mixed, member 0 reaches all
        # 64 tiles, so the whole stack steps grouped: member 0 keeps the bits
        # of its own run, and every member those of its own run forced grouped
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
        channels = [Dissipator(op, r) for op, r in zip(ops, rates)]

        def singles():
            forms = []
            runs = []
            for k in range(3):
                before = (len(made), len(grouped))
                runs.append(propagate_lindblad(
                    h, [Dissipator(op, r[k]) for op, r in zip(ops, rates)], rho0[k], grid))
                forms.append((made[before[0]:], grouped[before[1]:]))
            return runs, forms

        for matrix in (1000, 20):  # the stack's 24 tiles damped by the product, by the gather
            monkeypatch.setattr(dynamics, "MATRIX", matrix)
            made.clear()
            grouped.clear()
            stack = propagate_lindblad(h, channels, rho0, grid)
            assert (made, grouped) == (([], [3]) if mixed else ([24 * 4], []))
            runs, forms = singles()
            assert forms == [([], [1])] + [([64], [])] * 2 if mixed else [([64], [])] * 3
            whole = self._assert_members_keep_their_runs(stack, runs, rho0, channels, 2)
            assert whole == [mixed, False, False]
        if mixed:
            self._force_grouped(monkeypatch)
            runs, forms = singles()
            assert forms == [([], [1])] * 3
            for k, single in enumerate(runs):
                for name in ("matrices", "final", "trace_drift", "min_eigenvalue"):
                    assert np.array_equal(getattr(stack, name)[k], getattr(single, name)), name

    def test_a_mixed_member_keeps_the_trace_drift_of_its_own_run(self, monkeypatch):
        # every member lies on groups of its own, so the stack steps on
        # entries a member's own run does not hold: the trace must sum the
        # same d numbers either way, and each member keeps its own run to
        # round-off on the damping product's path and on the gather's
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
        channels = [Dissipator(op, r) for op, r in zip(ops, rates)]
        for matrix in (1000, 20):
            monkeypatch.setattr(dynamics, "MATRIX", matrix)
            made.clear()
            stack = propagate_lindblad(h, channels, rho0, grid)
            singles = [propagate_lindblad(h, [Dissipator(op, r[k]) for op, r in zip(ops, rates)],
                                          rho0[k], grid) for k in range(3)]
            assert len(made) == 4 and made[0] > max(made[1:])
            whole = self._assert_members_keep_their_runs(stack, singles, rho0, channels, 2)
            assert not any(whole)

    def test_a_stack_whose_members_together_reach_every_tile_steps_grouped(self, monkeypatch):
        # above DENSE levels member 0 reaches every tile but (0, 7) and
        # (7, 0), which no jump reaches, and member 1, on groups 0 and 7,
        # reaches those two and 8 more, so each member's own run takes the
        # support form; together they reach all 64, so the stack steps grouped
        rng = np.random.default_rng(7)
        h = _group_hamiltonian(rng, 8, 2)
        rates = rng.uniform(0.2, 2.0, size=(4, 2))
        ops = [embed_qubit_operator(SIGMA_MINUS, 4, q) for q in range(4)]
        rho0 = np.zeros((2, 16, 16), dtype=complex)
        whole = _random_density(rng, 16)
        corner = np.linalg.norm(whole[:2, 14:], 2)
        whole[:2, 14:] = whole[14:, :2] = 0.0
        whole += corner * np.eye(16)  # the zeroed pair of tiles moved no eigenvalue further
        rho0[0] = whole / np.trace(whole).real
        levels = np.array([0, 1, 14, 15])
        rho0[1][np.ix_(levels, levels)] = _random_density(rng, 4)
        channels = [Dissipator(op, r) for op, r in zip(ops, rates)]
        rates_of = dynamics._decay_rates(channels, 16, 2)
        assert [dynamics._support(rho0[k:k + 1], rates_of, 2).sum() for k in range(2)] == [
            62, 10]
        assert dynamics._support(rho0, rates_of, 2).all()
        grid = TimeGrid(0.0, 1.0, 120)
        made = self._spy(monkeypatch)
        stack = propagate_lindblad(h, channels, rho0, grid)
        assert made == []
        singles = [propagate_lindblad(h, [Dissipator(op, r[k]) for op, r in zip(ops, rates)],
                                      rho0[k], grid) for k in range(2)]
        assert made == [62 * 4, 10 * 4]
        assert not any(self._assert_members_keep_their_runs(stack, singles, rho0, channels, 2))
        self._force_grouped(monkeypatch)
        for k in range(2):
            forced = propagate_lindblad(h, [Dissipator(op, r[k]) for op, r in zip(ops, rates)],
                                        rho0[k], grid)
            for name in ("matrices", "final", "trace_drift", "min_eigenvalue"):
                assert np.array_equal(getattr(stack, name)[k], getattr(forced, name)), name

    @pytest.mark.parametrize("members", [1, 2])
    def test_a_channel_at_rate_0_widens_no_support(self, monkeypatch, members):
        # level 0 is excited in every qubit: qubit 0's decay moves tile
        # (0, 0) to (4, 4), and the other qubits' channels, passed at rate 0
        # for every member, reach nothing
        rng = np.random.default_rng(9)
        h = _group_hamiltonian(rng, 8, 2)
        ops = [embed_qubit_operator(SIGMA_MINUS, 4, q) for q in range(4)]
        rho0 = np.zeros((16, 16), dtype=complex)
        rho0[0, 0] = 1.0
        rate, zero = (0.7, 0.0) if members == 1 else (np.array([0.7, 1.3]), np.zeros(2))
        if members > 1:
            rho0 = np.array([rho0] * members)
        grid = TimeGrid(0.0, 1.0, 150)
        made = self._spy(monkeypatch)
        alone = propagate_lindblad(h, [Dissipator(ops[0], rate)], rho0, grid)
        passed = propagate_lindblad(
            h, [Dissipator(ops[0], rate)] + [Dissipator(op, zero) for op in ops[1:]], rho0, grid)
        assert made == [2 * 4] * 2
        for name in ("matrices", "final", "trace_drift", "min_eigenvalue"):
            assert np.array_equal(getattr(passed, name), getattr(alone, name)), name


class TestSupportDamping:
    """D on a support as G (x) D_in (see `_support_steps`): G on the tiles'
    float rows as one matrix product or by its feeds, the same map to
    round-off, each member of a stack with the bits of its own tiles' G
    when it reaches all of the stack's; G by its feeds `_damper`'s map bit
    for bit; and G, then D_in folded into the factors, `_damper`'s map to
    round-off."""

    @staticmethod
    def _stack(qubits, size, groups_of):
        """(rho, rates): random values on the levels of the groups
        groups_of[k] for member k, 0 elsewhere, and random rates, a third of
        them 0 but member 0's on the lowest and the highest bit, a channel at
        rate 0 for every member dropped as `_lindblad_run` drops it."""
        members = len(groups_of)
        rng = np.random.default_rng(100 * qubits + 10 * size + members)
        dim = 2 ** qubits
        rho = np.zeros((members, dim, dim), dtype=complex)
        for k, chosen in enumerate(groups_of):
            levels = (np.array(chosen)[:, None] * size + np.arange(size)).ravel()
            rho[k][np.ix_(levels, levels)] = _random_complex(rng, (levels.size,) * 2)
        rates = rng.uniform(0.2, 2.0, (qubits, members)) * (rng.random((qubits, members)) > 1 / 3)
        rates[[0, -1], 0] = 0.5  # a bit inside the groups and one of the group index decay
        return rho, {1 << bit: rate for bit, rate in enumerate(rates) if rate.any()}

    @classmethod
    def _case(cls, qubits, size, groups_of):
        """(masks, feeds, keep, tiles, reach, x): G at tau 0.3 on the
        stack's reachable tiles, its group-index bits `masks`, their feeds
        on the (S, S) matrix of tiles (`_feeds`) and their keep, the tiles
        at their flat positions `tiles` in that matrix, reach (K, T)
        marking those member k reaches, and random float rows of 2 b^2
        values on each member's own tiles, 0 elsewhere."""
        rho, rates = cls._stack(qubits, size, groups_of)
        groups = 2 ** qubits // size
        tiles = np.flatnonzero(dynamics._support(rho, rates, size))
        reach = np.array([dynamics._support(rho[k:k + 1], rates, size).ravel()[tiles]
                          for k in range(len(rho))])
        outer = [mask for mask in rates if mask >= size]
        rng = np.random.default_rng(qubits)
        x = np.where(reach[..., None], rng.normal(size=reach.shape + (2 * size * size,)), 0.0)
        masks = [mask // size for mask in outer]
        return (masks, list(dynamics._feeds(masks, tiles, groups)),
                np.exp(-0.3 * np.array([rates[mask] for mask in outer])), tiles, reach, x)

    @staticmethod
    def _tiles_damping(feeds, keep, count, matrix):
        """G on `count` tiles as `_open_form` makes it with MATRIX set to
        `matrix`: its product up to MATRIX tiles, its feeds above."""
        damp = dynamics._gathers(feeds, 1.0 - keep, keep)
        if count > matrix:
            return damp
        return dynamics._product(dynamics._matrix(damp, keep.shape[-1], count))

    @staticmethod
    def _applied(damp, x):
        """damp(x, out) on the (K, T, width) float rows x, as a new array."""
        out = np.empty_like(x)
        damp(x, out)
        return out

    @pytest.mark.parametrize("members", [1, 2, 3])
    @pytest.mark.parametrize("size", [2, 4])
    @pytest.mark.parametrize("qubits", [4, 5])
    def test_the_matrix_and_the_gather_agree_to_two_ulps(self, qubits, size, members):
        _, feeds, keep, tiles, reach, x = self._case(qubits, size, [(0, 1)] * members)
        product, gather = (self._tiles_damping(feeds, keep, tiles.size, matrix)
                           for matrix in (tiles.size, tiles.size - 1))
        assert (product.__name__, gather.__name__) == ("product", "gather")
        got, want = (self._applied(damp, x) for damp in (product, gather))
        assert not np.array_equal(got, x)  # G moved the stack
        # each tile sums its terms in two orders, BLAS's and the feeds': 2 ulps
        # of their magnitudes' sum
        scale = self._applied(gather, np.abs(x))
        assert np.all(np.abs(got - want) <= 2 * np.spacing(scale))

    @pytest.mark.parametrize("matrix", [1000, 20])
    def test_members_reaching_other_tiles_keep_the_bits_of_their_own_runs(self, matrix):
        # member 0 reaches the tiles of groups 0 and 1, member 1 those of 0
        # and 2, member 2 both: G on the stack's tiles keeps the bits of G
        # on a member's own tiles for member 2, which holds them all, and is
        # within round-off of it for the others, by the product up to MATRIX
        # tiles and by the feeds above
        masks, feeds, keep, tiles, reach, x = self._case(4, 2, [(0, 1), (0, 2), (0, 1, 2)])
        assert reach.all(axis=1).tolist() == [False, False, True]
        damp = self._tiles_damping(feeds, keep, tiles.size, matrix)
        assert damp.__name__ == ("product" if tiles.size <= matrix else "gather")
        got = self._applied(damp, x)
        for k, own in enumerate(reach):
            alone = self._tiles_damping(list(dynamics._feeds(masks, tiles[own], 8)),
                                        keep[:, k:k + 1], np.count_nonzero(own), matrix)
            want = self._applied(alone, x[k:k + 1, own])[0]
            if own.all():
                assert np.array_equal(got[k, own], want)
            else:
                assert np.max(np.abs(got[k, own] - want)) <= 1e-14
            assert not got[k, ~own].any()

    @pytest.mark.parametrize("members", [1, 2, 3])
    @pytest.mark.parametrize("size", [2, 4])
    @pytest.mark.parametrize("qubits", [3, 4, 5])
    def test_g_by_its_feeds_is_the_damper_bit_for_bit(self, qubits, size, members):
        # only bits of the group index decay, so D_in is the identity and the
        # support form's first two nodes, D(dt/2) and then D(dt) by identity
        # unitaries, are G's feeds alone, with MATRIX below the tiles: each
        # bit feeds its pairs in `_damper`'s order and the weight multiplies
        # last, so the bits of `_damper` on the same entries.  Random closed
        # supports: each member on random groups, a third of the rates 0;
        # above DENSE levels a support of every tile steps grouped, and is
        # drawn again
        rng = np.random.default_rng(100 * qubits + 10 * size + members)
        dim, groups = 2 ** qubits, 2 ** qubits // size
        outer = [bit for bit in range(qubits) if 1 << bit >= size]
        cases = 0
        while cases < 6:
            rho = np.zeros((members, dim, dim), dtype=complex)
            for member in rho:
                chosen = rng.choice(groups, rng.integers(1, groups + 1), replace=False)
                levels = (chosen[:, None] * size + np.arange(size)).ravel()
                member[np.ix_(levels, levels)] = _random_complex(rng, (levels.size,) * 2)
            rates = rng.uniform(0.2, 2.0, (len(outer), members))
            rates[rng.random(rates.shape) < 1 / 3] = 0.0
            rates[-1, 0] = 0.5  # the highest bit decays
            rates = {1 << bit: rate for bit, rate in zip(outer, rates) if rate.any()}
            tiles = np.count_nonzero(dynamics._support(rho, rates, size))
            if tiles == groups ** 2 and dim > dynamics.DENSE:
                continue
            cases += 1
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(dynamics, "MATRIX", tiles - 1)
                nodes, want, (half, full) = _identity_nodes(patch, rho, size, rates, 0.6)
            assert half[0].__name__ == ("gather" if tiles > 1 else "product")
            assert np.array_equal(nodes, want)

    @pytest.mark.parametrize("matrix", [1000, 1])
    @pytest.mark.parametrize("members", [1, 2, 3])
    @pytest.mark.parametrize("size", [2, 4])
    @pytest.mark.parametrize("qubits", [3, 4, 5])
    def test_g_then_d_in_is_the_damper(self, monkeypatch, qubits, size, members, matrix):
        # identity unitaries leave each folded factor D_in itself, so the
        # support form's first two nodes are D(dt/2) and then D(dt), G by
        # its product or by its gather (MATRIX 1), and D_in(dt/2) folded
        # into the first step alone
        groups = 2 ** qubits // size
        rho, rates = self._stack(qubits, size, [(0, 1), (0, groups - 2), (1,)][:members])
        assert any(mask < size for mask in rates) and any(mask >= size for mask in rates)
        monkeypatch.setattr(dynamics, "MATRIX", matrix)
        nodes, want, (half, full) = _identity_nodes(monkeypatch, rho, size, rates, 0.6)
        tiles = np.count_nonzero(dynamics._support(rho, rates, size))
        assert 1 < tiles < groups ** 2 or qubits == 3
        assert half[0].__name__ == ("product" if tiles <= matrix else "gather")
        assert half[1] is not None and full[1] is not None
        # each entry sums its terms in other orders, and each term's factors
        # of p and of the weight are multiplied in another association (the
        # group bits' apart from the others'): 4 ulps of the terms'
        # magnitudes' sum, D on the magnitudes.  Over 1,440 random stacks
        # of these shapes the largest error was 4 ulps, in 3 of them
        scale = np.stack([abs(part) for part in (rho.real, nodes[:, 0].real, rho.imag,
                                                 nodes[:, 0].imag)], axis=1) + 0j
        for j, tau in enumerate((0.3, 0.6, 0.3, 0.6)):
            dynamics._damper(scale[:, j:j + 1], *dynamics._damping(rates, tau, members,
                                                                   2 ** qubits))()
        for part, bound in (("real", scale[:, :2].real), ("imag", scale[:, 2:].real)):
            error = np.abs(getattr(nodes, part) - getattr(want, part))
            assert np.all(error <= 4 * np.spacing(bound)), part


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
            # groups of 2 levels whose jumps reach part of the tiles: the
            # stack steps on the entries its members reach, or, mixed,
            # member 0 reaches them all and the whole stack steps grouped
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
        # a d = 4 H is one group of TILE levels: its open runs step on their support
        assert forms == {"pure": [], "mixed": ["_grouped_steps"]}.get(kind, ["_support_steps"])
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
            monkeypatch.setattr(dynamics, "TILE", 0)
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
