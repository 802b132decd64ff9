"""The array-of-times path against the scalar loop.

Fields, Hamiltonians, frames and residuals take an array of times and return
a stack; a scalar t returns one value.  The scalar loop is the reference
here: every stacked result must equal the loop over its times bit for bit,
and an error must name the same (first) offending time.  The propagators
evaluate H in blocks of BLOCK intervals, so their block edges are checked
against a plain step-by-step loop.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpassage.ancillary import SubspaceLayout, build_frame
from qpassage.dynamics import (BLOCK, Dissipator, TimeGrid, _compile_dissipators,
                               _lindblad_rhs, propagate_lindblad, propagate_schrodinger,
                               von_neumann_residual)
from qpassage.linalg import SIGMA_MINUS, SIGMA_X, SIGMA_Z, dagger, expm_hermitian, outer
from qpassage.protocols import (CALIBRATED_OMEGA_T, QubitModel, build_step_hamiltonian,
                                plan_bell, plan_ghz)
from qpassage.schedules import ParameterSchedule, ScheduleDomainError, ScheduleSet
from qpassage.synthesis import (SingularScheduleError, assemble_hamiltonian, channel_fields,
                                convert_dark_state, master_envelope)

from helpers import random_schedule_set


def _times(duration, inner):
    """Both endpoints plus the given interior times, unsorted."""
    return np.concatenate([[0.0, duration], np.asarray(inner) * duration])


def _scalar_loop(fn, ts):
    return np.array([fn(t) for t in ts])


def _outcome(fn, t):
    """fn(t), or the text of the error it raises."""
    try:
        return fn(t)
    except ValueError as exc:
        return f"{type(exc).__name__}: {exc}"


def _assert_same_outcome(fn, ts):
    """fn(ts) equals the scalar loop, or raises what the loop raises first."""
    loop = [_outcome(fn, t) for t in ts]
    first_error = next((x for x in loop if isinstance(x, str)), None)
    got = _outcome(fn, ts)
    if first_error is not None:
        assert got == first_error
    else:
        assert np.array_equal(got, np.array(loop))


interior = st.lists(st.floats(0.0, 1.0), min_size=1, max_size=12)
durations = st.sampled_from([1.0, 0.5, 2.5])


@st.composite
def schedules(draw, duration=None):
    duration = draw(durations) if duration is None else duration
    kind = draw(st.sampled_from(["constant", "cosine-ramp", "linear-ramp", "sampled"]))
    num = st.floats(-3.0, 3.0)
    if kind == "constant":
        return ParameterSchedule.constant(draw(num), duration)
    if kind == "cosine-ramp":
        return ParameterSchedule.cosine_ramp(draw(num), duration, offset=draw(num))
    if kind == "linear-ramp":
        return ParameterSchedule.linear_ramp(draw(num), draw(num), duration)
    knots = draw(st.lists(st.floats(0.01, 0.99), min_size=0, max_size=5, unique=True))
    times = [0.0] + sorted(knots) + [1.0]
    values = draw(st.lists(num, min_size=len(times), max_size=len(times)))
    return ParameterSchedule.sampled(np.array(times) * duration, values)


class TestSchedules:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), inner=interior)
    def test_eval_matches_the_scalar_loop(self, data, inner):
        sched = data.draw(schedules())
        ts = _times(sched.duration, inner)
        value, deriv = sched.eval(ts)
        loop = _scalar_loop(sched.eval, ts)
        assert np.array_equal(value, loop[:, 0]) and np.array_equal(deriv, loop[:, 1])
        assert isinstance(sched.eval(float(ts[-1]))[0], float)

    def test_cosine_ramp_endpoints_stay_pinned_inside_an_array(self):
        sched = ParameterSchedule.cosine_ramp(np.pi / 2, 2.0)
        value, deriv = sched.eval(np.array([2.0, 0.7, 0.0]))
        assert value[0] == 0.0 and value[2] == np.pi / 2 and deriv[2] == 0.0

    def test_domain_error_names_the_first_offending_time(self):
        sched = ParameterSchedule.linear_ramp(0.0, 1.0)
        with pytest.raises(ScheduleDomainError, match=r"^t = 1\.5 outside"):
            sched.eval(np.array([0.2, 1.5, -0.3, 2.0]))

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), inner=interior)
    def test_set_pair_and_value_match_the_scalar_loop(self, data, inner):
        duration = data.draw(durations)
        table = {s: data.draw(schedules(duration)) for s in ("phi", "alpha", "varphi",
                                                             "theta_0", "alpha_0")}
        sset = ScheduleSet(1, 2, duration, table)
        ts = _times(duration, inner)
        for symbol in table:
            pair = sset.pair(symbol, ts)
            assert np.array_equal(np.stack(pair, axis=-1), _scalar_loop(
                lambda t: sset.pair(symbol, t), ts))
            assert np.array_equal(sset.value(symbol, ts), pair[0])


@st.composite
def layouts_and_schedules(draw):
    """Random layout (M <= 4, N <= 5); phi, alpha and varphi of any kind."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    layout = SubspaceLayout(draw(st.integers(1, 4)), draw(st.integers(2, 5)))
    base = random_schedule_set(rng, layout)
    free = {s: draw(schedules(1.0)) for s in draw(st.sets(
        st.sampled_from(["phi", "alpha", "varphi"])))}
    return layout, base.replace(**free)


class TestFields:
    @settings(max_examples=80, deadline=None)
    @given(case=layouts_and_schedules(), inner=interior)
    def test_master_envelope_and_channel_fields_match_the_scalar_loop(self, case, inner):
        layout, sset = case
        ts = _times(1.0, inner)
        _assert_same_outcome(lambda t: np.stack(master_envelope(sset, t), axis=-1), ts)
        for field in (0, 1):  # channel amplitudes and phases
            _assert_same_outcome(lambda t: channel_fields(layout, sset, t)[field], ts)

    @settings(max_examples=80, deadline=None)
    @given(case=layouts_and_schedules(), inner=interior)
    def test_assemble_hamiltonian_matches_the_scalar_loop(self, case, inner):
        layout, sset = case
        _assert_same_outcome(lambda t: assemble_hamiltonian(layout, sset, t),
                             _times(1.0, inner))

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), m_levels=st.integers(2, 4),
           n_levels=st.integers(2, 4), inner=interior,
           source=st.sampled_from(["assistant", "working"]))
    def test_assemble_with_an_aux_drive_matches_the_scalar_loop(self, seed, m_levels,
                                                                n_levels, inner, source):
        rng = np.random.default_rng(seed)
        layout = SubspaceLayout(m_levels, n_levels)
        target = int(rng.integers(0, min(m_levels - 1, n_levels - 1)))
        sset = random_schedule_set(rng, layout).replace(**{
            f"ttheta_{target}": ParameterSchedule.cosine_ramp(0.6, offset=0.3),
            f"talpha_{target}": ParameterSchedule.linear_ramp(0.2, -0.5)})
        aux = convert_dark_state(layout, sset, target, angle_source=source)
        ts = _times(1.0, inner)
        stack = assemble_hamiltonian(layout, sset, ts, aux)
        assert stack.shape == (ts.size, layout.dim, layout.dim)
        assert np.array_equal(stack, _scalar_loop(
            lambda t: assemble_hamiltonian(layout, sset, t, aux), ts))


def _protocol_steps():
    for name, plan in (("bell", plan_bell(QubitModel(2))), ("ghz4", plan_ghz(QubitModel(4)))):
        for step in plan.steps:
            yield pytest.param(step, id=f"{name}-{step.name}")


class TestSteps:
    @pytest.mark.parametrize("mode", ["effective", "rotating-frame"])
    @pytest.mark.parametrize("step", list(_protocol_steps()))
    def test_step_hamiltonian_matches_the_scalar_loop(self, step, mode):
        model = QubitModel(step.qubits, omega=CALIBRATED_OMEGA_T)
        ts = _times(step.duration, np.random.default_rng(7).uniform(0, 1, 37))
        stack = build_step_hamiltonian(step, model, ts, mode=mode)
        assert stack.shape == (ts.size, step.dim, step.dim)
        assert np.array_equal(stack, _scalar_loop(
            lambda t: build_step_hamiltonian(step, model, t, mode=mode), ts))

    @pytest.mark.parametrize("step", list(_protocol_steps()))
    def test_passage_vectors_and_residual_match_the_scalar_loop(self, step):
        model = QubitModel(step.qubits)
        ts = _times(step.duration, np.linspace(0.01, 0.99, 23))
        v, dv = step.passage_vectors(ts)
        h = build_step_hamiltonian(step, model, ts)
        loop = [step.passage_vectors(t) for t in ts]
        assert np.array_equal(v, [x[0] for x in loop])
        assert np.array_equal(dv, [x[1] for x in loop])
        assert np.array_equal(von_neumann_residual(v, dv, h), [
            von_neumann_residual(*x, build_step_hamiltonian(step, model, t))
            for x, t in zip(loop, ts)])


class TestFrames:
    @settings(max_examples=60, deadline=None)
    @given(case=layouts_and_schedules(), inner=interior)
    def test_stacked_frame_matches_the_scalar_loop(self, case, inner):
        layout, sset = case
        ts = _times(1.0, inner)
        stacked = build_frame(layout, sset, ts)
        frames = [build_frame(layout, sset, t) for t in ts]
        for field in ("vectors", "derivatives", "assistant_brights", "working_brights",
                      "terminal_brights"):
            got = getattr(stacked, field)
            assert got.shape == (ts.size,) + getattr(frames[0], field).shape
            assert np.array_equal(got, [getattr(f, field) for f in frames])

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), dim=st.integers(2, 8), count=st.integers(1, 9))
    def test_stacked_residual_matches_the_scalar_loop(self, seed, dim, count):
        rng = np.random.default_rng(seed)
        v = rng.normal(size=(count, dim)) + 1j * rng.normal(size=(count, dim))
        dv = rng.normal(size=(count, dim)) + 1j * rng.normal(size=(count, dim))
        a = rng.normal(size=(count, dim, dim)) + 1j * rng.normal(size=(count, dim, dim))
        h = a + dagger(a)
        assert np.array_equal(von_neumann_residual(v, dv, h),
                              [von_neumann_residual(*x) for x in zip(v, dv, h)])


def _drive(t):
    """Array-aware two-level Hamiltonian: a stack for an array of times."""
    t = np.asarray(t)[..., None, None]
    return np.sin(2.3 * t) * SIGMA_X + 0.4 * np.cos(t) * SIGMA_Z


def _schrodinger_loop(hamiltonian, psi0, grid):
    times, dt = grid.times, grid.dt
    out = [psi0]
    for t in times[:-1]:
        out.append(expm_hermitian(hamiltonian(t + 0.5 * dt), -1j * dt) @ out[-1])
    return np.array(out)


def _lindblad_loop(hamiltonian, dissipators, rho0, grid):
    decay, jumps = _compile_dissipators(dissipators, rho0.shape[0])
    times, dt = grid.times, grid.dt

    def rhs(t, rho):
        h_eff = hamiltonian(t) - 0.5j * decay
        return _lindblad_rhs(h_eff, dagger(h_eff), rho, jumps)

    out = [rho0]
    for t in times[:-1]:
        rho = out[-1]
        k1 = rhs(t, rho)
        k2 = rhs(t + 0.5 * dt, rho + 0.5 * dt * k1)
        k3 = rhs(t + 0.5 * dt, rho + 0.5 * dt * k2)
        k4 = rhs(t + dt, rho + dt * k3)
        rho = rho + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out.append(0.5 * (rho + dagger(rho)))
    return np.array(out)


BLOCK_EDGES = [1, 7, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 5]


class TestPropagatorBlocks:
    @pytest.mark.parametrize("steps", BLOCK_EDGES)
    def test_schrodinger_blocks_match_the_step_loop(self, steps):
        psi0 = np.array([0.6, 0.8j])
        grid = TimeGrid(0.0, 0.9, steps)
        traj = propagate_schrodinger(_drive, psi0, grid)
        assert traj.states.shape == (steps + 1, 2)
        assert np.array_equal(traj.states, _schrodinger_loop(_drive, psi0, grid))

    @pytest.mark.parametrize("steps", BLOCK_EDGES)
    def test_lindblad_blocks_match_the_step_loop(self, steps):
        rho0 = outer(np.array([0.6, 0.8j]))
        grid = TimeGrid(0.0, 0.9, steps)
        channels = [Dissipator(SIGMA_MINUS, 0.3)]
        traj = propagate_lindblad(_drive, channels, rho0, grid)
        assert traj.matrices.shape == (steps + 1, 2, 2)
        assert np.array_equal(traj.matrices, _lindblad_loop(_drive, channels, rho0, grid))

    def test_non_hermitian_h_in_a_later_block_names_its_time(self):
        def h(t):
            stack = _drive(t).astype(complex)
            stack[..., 0, 1] += np.where(np.asarray(t) > 0.8, 1.0, 0.0)
            return stack

        grid = TimeGrid(0.0, 1.0, 200)  # midpoints 0.0025 + 0.005 k; the third block has 0.8
        with pytest.raises(ValueError, match=r"not Hermitian at t = 0\.802500$"):
            propagate_schrodinger(h, np.array([1.0, 0.0]), grid)

    @pytest.mark.parametrize("open_system", [False, True])
    def test_singular_schedule_in_a_later_block_names_its_time(self, open_system):
        # varphi + alpha reaches 0 at t = 0.7 while the mixing angle still moves
        layout = SubspaceLayout(1, 2)
        sset = ScheduleSet(1, 2, 1.0, {
            "theta_0": ParameterSchedule.constant(np.pi / 4),
            "alpha_0": ParameterSchedule.constant(0.0),
            "phi": ParameterSchedule.cosine_ramp(np.pi / 2),
            "alpha": ParameterSchedule.sampled([0.0, 0.6, 0.7, 1.0],
                                               [np.pi / 2, np.pi / 2, 0.0, 0.0]),
            "varphi": ParameterSchedule.constant(0.0),
        })

        def h(t):
            return assemble_hamiltonian(layout, sset, t)

        grid = TimeGrid(0.0, 1.0, 400)
        times = grid.times
        probes = (np.concatenate([[t, t + 0.5 * grid.dt] for t in times[:-1]]) if open_system
                  else times[:-1] + 0.5 * grid.dt)
        expected = next(x for x in (_outcome(h, t) for t in probes) if isinstance(x, str))
        assert expected.startswith("SingularScheduleError")
        assert float(expected.split("at t = ")[1].split()[0]) > 0.5  # not the first block
        with pytest.raises(SingularScheduleError) as err:
            if open_system:
                propagate_lindblad(h, [], outer(np.array([0.0, 0.0, 1.0])), grid)
            else:
                propagate_schrodinger(h, np.array([0.0, 0.0, 1.0]), grid)
        assert f"SingularScheduleError: {err.value}" == expected
