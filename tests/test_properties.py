"""Physics invariants of the frame and the synthesized drive on random inputs.

The shipped protocols use a handful of layouts and the constant and
cosine-ramp schedule kinds only.  Here the layouts run over M <= 4 assistant
and N <= 5 working levels and the controls over every schedule kind:

* the frame is orthonormal and complete for any controls, `sampled` and
  `linear-ramp` included, and equals bit for bit the whole-vector coding
  of `helpers.frame_reference` at a float time or an array of times;
* with static cascade controls and phi, alpha and varphi of the analytic
  kinds, the two cross-subspace members are exact passages of the assembled
  H (the projector residual vanishes relative to ||H||), the assistant
  members are eigenvectors with eigenvalue Delta, the working members are
  dark, and H has the expected bright-basis block form;
* every step of the Bell and GHZ3-6 plans, in both Hamiltonian modes and at
  any time, leaves its spectator qubits alone: its dense H vanishes between
  levels of different spectator configurations and is the scatter of the
  blocks the propagators get in the step order;
* the step exponentials, which exponentiate each distinct group of a block
  stack once, equal bit for bit those of every group, for any pattern of
  repeated groups, signed zeros included;
* an open stack of density matrices on some groups of levels or on all of
  them, as no protocol run builds it, takes one step form, on the damping
  product's path and on the gather's: a member that reaches every tile the
  stack reaches equals its own run bit for bit, any other equals it to
  round-off, and in the grouped form every member equals bit for bit its
  own run forced into it.

CI runs this file with RuntimeWarning as an error, so an overflow or an
invalid value in any of this arithmetic fails it.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qpassage import dynamics
from qpassage.ancillary import SubspaceLayout, build_frame
from qpassage.dynamics import (Dissipator, TimeGrid, _step_unitaries, propagate_lindblad,
                               von_neumann_residual)
from qpassage.linalg import (SIGMA_MINUS, completeness_defect, embed_qubit_operator,
                             expm_hermitian, frobenius)
from qpassage.protocols import (CALIBRATED_OMEGA_T, QubitModel, build_step_blocks,
                                build_step_hamiltonian, plan_bell, plan_ghz)
from qpassage.schedules import (ParameterSchedule, ScheduleSet, cascade_symbols,
                                required_symbols)
from qpassage.synthesis import assemble_hamiltonian, block_form_defect, master_envelope
from qpassage.tolerances import TOL

from helpers import frame_reference

ANALYTIC = ("constant", "cosine-ramp", "linear-ramp")
ALL_KINDS = ANALYTIC + ("sampled",)

numbers = st.floats(-3.0, 3.0)
instants = st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8)


@st.composite
def schedules(draw, kinds):
    """One control on [0, 1] of a kind drawn from `kinds`."""
    kind = draw(st.sampled_from(kinds))
    if kind == "constant":
        return ParameterSchedule.constant(draw(numbers))
    if kind == "cosine-ramp":
        return ParameterSchedule.cosine_ramp(draw(numbers), offset=draw(numbers))
    if kind == "linear-ramp":
        return ParameterSchedule.linear_ramp(draw(numbers), draw(numbers))
    knots = draw(st.lists(st.floats(0.01, 0.99), max_size=5, unique=True))
    times = [0.0] + sorted(knots) + [1.0]
    return ParameterSchedule.sampled(times, draw(st.lists(numbers, min_size=len(times),
                                                          max_size=len(times))))


@st.composite
def systems(draw, kinds, static_cascade):
    """A random layout and a full schedule set; the cascade controls are
    constants when `static_cascade` is set."""
    layout = SubspaceLayout(draw(st.integers(1, 4)), draw(st.integers(2, 5)))
    frozen = cascade_symbols(layout.assistant_levels, layout.working_levels)
    table = {}
    for symbol in required_symbols(layout.assistant_levels, layout.working_levels):
        if static_cascade and symbol in frozen:
            table[symbol] = ParameterSchedule.constant(draw(numbers))
        else:
            table[symbol] = draw(schedules(kinds))
    return layout, ScheduleSet(layout.assistant_levels, layout.working_levels, 1.0, table)


def _regular_times(sset, ts):
    """The times well away from the drive formulas' singularities:
    |sin(varphi + alpha)| and |sin(2 phi)| at least 0.05."""
    cross = sset.value("varphi", ts) + sset.value("alpha", ts)
    keep = (np.abs(np.sin(cross)) >= 0.05) & (np.abs(np.sin(2.0 * sset.value("phi", ts))) >= 0.05)
    return ts[keep]


@settings(max_examples=150, deadline=None)
@given(system=systems(ALL_KINDS, static_cascade=False), inner=instants)
def test_frame_is_orthonormal_and_complete(system, inner):
    layout, sset = system
    frame = build_frame(layout, sset, np.array(inner))
    assert frame.gram_defect() <= TOL.frame_orthonormality
    for vectors in frame.vectors:
        assert completeness_defect(vectors) <= TOL.frame_orthonormality


@settings(max_examples=150, deadline=None)
@given(system=systems(ALL_KINDS, static_cascade=False),
       t=st.floats(0.0, 1.0) | st.lists(st.floats(0.0, 1.0), min_size=1, max_size=9).map(np.array))
def test_frame_equals_the_whole_vector_coding_bit_for_bit(system, t):
    layout, sset = system
    frame, reference = build_frame(layout, sset, t), frame_reference(layout, sset, t)
    for field in ("vectors", "derivatives", "assistant_brights", "working_brights",
                  "terminal_brights"):
        got, want = getattr(frame, field), getattr(reference, field)
        assert got.shape == want.shape and np.array_equal(got, want), field


@settings(max_examples=150, deadline=None)
@given(system=systems(ANALYTIC, static_cascade=True), inner=instants)
def test_cross_members_are_exact_passages(system, inner):
    layout, sset = system
    ts = _regular_times(sset, np.array(inner))
    assume(ts.size)
    frame = build_frame(layout, sset, ts)
    h = assemble_hamiltonian(layout, sset, ts)
    bound = TOL.passage_residual * frobenius(h)
    for col in (-2, -1):
        residual = von_neumann_residual(frame.column(col), frame.derivatives[..., col], h)
        assert np.all(residual <= bound)


@settings(max_examples=150, deadline=None)
@given(system=systems(ANALYTIC, static_cascade=True), inner=instants)
def test_dark_members_and_block_form(system, inner):
    layout, sset = system
    ts = _regular_times(sset, np.array(inner))
    assume(ts.size)
    m_rows = layout.assistant_levels - 1
    for t in ts:
        h = assemble_hamiltonian(layout, sset, t)
        scale = max(float(np.linalg.norm(h)), 1e-300)
        frame = build_frame(layout, sset, t)
        omega, delta, vphi = master_envelope(sset, t)
        for k in range(m_rows):
            v = frame.column(k)
            assert np.linalg.norm(h @ v - delta * v) / scale <= TOL.dark_state
        for k in range(m_rows, m_rows + layout.working_levels - 1):
            assert np.linalg.norm(h @ frame.column(k)) / scale <= TOL.dark_state
        assert block_form_defect(frame, h, delta, omega, vphi) <= TOL.dark_state


def _plan(qubits):
    model = QubitModel(qubits=qubits, omega=CALIBRATED_OMEGA_T)
    return model, plan_bell(model) if qubits == 2 else plan_ghz(model)


PLANS = {qubits: _plan(qubits) for qubits in range(2, 7)}
STEPS = [(qubits, index) for qubits, (_, plan) in PLANS.items()
         for index in range(len(plan.steps))]


@settings(max_examples=150, deadline=None)
@given(which=st.sampled_from(STEPS), mode=st.sampled_from(["effective", "rotating-frame"]),
       inner=instants)
def test_step_hamiltonian_lives_in_its_spectator_sectors(which, mode, inner):
    qubits, index = which
    model, plan = PLANS[qubits]
    step = plan.steps[index]
    ts = np.array(inner) * step.duration
    dim, size = step.dim, 2 ** len(step.drives)
    spectators = [q for q in range(qubits) if q not in step.drives]

    def sector(level):
        return tuple((level >> (qubits - 1 - q)) & 1 for q in spectators)

    # the step order is a permutation whose groups are spectator sectors
    assert sorted(step.order) == list(range(dim))
    groups = step.order.reshape(-1, size)
    assert all(len({sector(level) for level in group}) == 1 for group in groups)
    assert len({sector(group[0]) for group in groups}) == dim // size

    h = build_step_hamiltonian(step, model, ts, mode)
    apart = np.array([[sector(i) != sector(j) for j in range(dim)] for i in range(dim)])
    assert not np.any(h[..., apart])
    blocks = build_step_blocks(step, model, ts, mode)
    assert blocks.shape == ts.shape + (dim // size, size, size)
    scattered = np.zeros_like(h)
    for group, block in zip(groups, np.moveaxis(blocks, -3, 0)):
        scattered[..., group[:, None], group[None, :]] = block
    assert np.array_equal(h, scattered)


@settings(max_examples=100, deadline=None)
@given(classes=st.lists(st.integers(0, 4), min_size=1, max_size=12),
       size=st.sampled_from([1, 2, 4]), nodes=st.integers(1, 6),
       seed=st.integers(0, 2 ** 32 - 1), signed=st.lists(st.booleans(), min_size=12,
                                                         max_size=12))
def test_step_exponentials_equal_those_of_every_group(classes, size, nodes, seed, signed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(nodes, 5, size, size)) + 1j * rng.normal(size=(nodes, 5, size, size))
    h = (a + np.conj(a).swapaxes(-1, -2))[:, classes]
    diagonal = np.arange(size)
    for group in np.flatnonzero(signed[:len(classes)]):
        h.imag[:, group, diagonal, diagonal] = -0.0  # an equal block in other bytes
    times = np.linspace(0.0, 1.0, nodes)
    u, which = _step_unitaries(lambda t: h, times, len(classes) * size, 0.01)
    assert np.array_equal(u[:, which], expm_hermitian(h, -0.01j))
    # one class per distinct column of bytes, numbered in order of first appearance
    columns = [h[:, s].tobytes() for s in range(len(classes))]
    assert which.tolist() == [list(dict.fromkeys(columns)).index(c) for c in columns]


def _random_density(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ np.conj(a).T
    return rho / np.trace(rho).real


def _lindblad_form(h, channels, rho0, grid, matrix, tile=None):
    """propagate_lindblad's result and the step forms it made, with MATRIX
    set to `matrix` and TILE to `tile` unless that is None."""
    made = []
    with pytest.MonkeyPatch.context() as patch:
        for name in ("_grouped_steps", "_support_steps"):
            def spied(*args, _name=name, _steps=getattr(dynamics, name)):
                made.append(_name)
                return _steps(*args)
            patch.setattr(dynamics, name, spied)
        patch.setattr(dynamics, "MATRIX", matrix)
        if tile is not None:
            patch.setattr(dynamics, "TILE", tile)
        return propagate_lindblad(h, channels, rho0, grid), made


@settings(max_examples=30, deadline=None)
@given(qubits=st.sampled_from([4, 5]), size=st.sampled_from([2, 4]),
       members=st.lists(st.integers(0, 3), min_size=1, max_size=3),
       steps=st.integers(1, 40), matrix=st.sampled_from([1000, 20]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_an_open_stack_takes_one_form_and_each_member_keeps_its_bits_in_it(
        qubits, size, members, steps, matrix, seed):
    # each member lies on `count` random groups of levels, or on all of
    # them for a count of 0; rates are random, a third of them 0
    rng = np.random.default_rng(seed)
    dim, groups = 2 ** qubits, 2 ** qubits // size
    a, b = (rng.normal(size=(groups, size, size)) + 1j * rng.normal(size=(groups, size, size))
            for _ in range(2))
    h0, h1 = a + np.conj(a).swapaxes(-1, -2), b + np.conj(b).swapaxes(-1, -2)

    def h(t):
        return h0 + np.cos(t)[:, None, None, None] * h1
    rho0 = np.zeros((len(members), dim, dim), dtype=complex)
    for k, count in enumerate(members):
        chosen = rng.choice(groups, count, replace=False) if count else np.arange(groups)
        levels = (chosen[:, None] * size + np.arange(size)).ravel()
        rho0[k][np.ix_(levels, levels)] = _random_density(rng, levels.size)
    rates = rng.uniform(0.0, 2.0, size=(qubits, len(members)))
    rates[rng.random(rates.shape) < 1 / 3] = 0.0
    ops = [embed_qubit_operator(SIGMA_MINUS, qubits, q) for q in range(qubits)]
    grid = TimeGrid(0.0, 1.0, steps)
    channels = [Dissipator(op, r) for op, r in zip(ops, rates)]
    stack, made = _lindblad_form(h, channels, rho0, grid, matrix)
    assert len(made) == 1
    keys = dynamics._decay_rates(channels, dim, len(members))
    tiles = dynamics._support(rho0, {m: r for m, r in keys.items() if r.any()}, size)
    # a member's own tiles lie within the stack's, so where the stack leaves
    # a tile unreached, each member's own run does too: both step on their
    # supports
    tile = None if made == ["_support_steps"] else 0  # forces the stack's form
    for k in range(len(members)):
        channels = [Dissipator(op, r[k]) for op, r in zip(ops, rates)]
        forced, form = _lindblad_form(h, channels, rho0[k], grid, matrix, tile)
        assert form == made
        own = _lindblad_form(h, channels, rho0[k], grid, matrix)[0]
        whole = np.array_equal(dynamics._support(
            rho0[k:k + 1], {m: r[k:k + 1] for m, r in keys.items() if r[k]}, size), tiles)
        for name in ("matrices", "final", "trace_drift", "min_eigenvalue"):
            got = getattr(stack, name)[k]
            if made == ["_grouped_steps"]:
                assert np.array_equal(got, getattr(forced, name)), name
            if whole:
                assert np.array_equal(got, getattr(own, name)), name
            assert np.max(np.abs(got - getattr(own, name))) <= 1e-14, name
