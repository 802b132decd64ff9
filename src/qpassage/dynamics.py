"""Closed- and open-system propagation plus passage diagnostics.

Closed dynamics uses a midpoint exponential propagator, exp(-i H(t_mid) dt)
per step, which is unitary by construction.  Open dynamics solves

    drho/dt = -i[H(t), rho] + sum_j (rate_j / 2) * (2 L_j rho L_j+
                                                    - L_j+ L_j rho - rho L_j+ L_j)

for qubit lowering operators L_j = |g><e| by a Strang split step,
rho <- D(dt/2) U D(dt/2) rho.  U rho = u rho u+ with the closed run's
midpoint exponential u, and D(tau) is the exact solution of the decay part
over tau: on each qubit the amplitude-damping channel with
p = 1 - exp(-rate tau), which moves p of the excited population to the
ground state and scales the coherences between them by sqrt(1 - p).  Both
factors are completely positive and trace preserving, so the state stays a
density matrix up to round-off on any grid; the step is second order in dt,
like the closed one.  With this convention a single decaying qubit loses
excited population as exp(-rate * t), exactly.  The qubits' channels
commute, so D is one strided feed per decaying qubit,
rho[..g.., ..g..] += p rho[..e.., ..e..], then one product with a
Kronecker weight built from [[1 - p, sqrt(1 - p)], [sqrt(1 - p), 1]].  The
propagator carries sigma = U D rho and advances it in one of two forms
(`_open_form`), chosen once per propagation, one for the whole stack, from
the groups of H and the entries of sigma its members' decay can reach, a
channel whose rate is 0 for every member reaching nothing.  u is block
diagonal over the groups of H, so u sigma u+ keeps each (row group, column
group) tile of sigma to itself, and only the jumps move weight from tile
to tile (`_support`).  In groups of at most TILE levels, unless the stack
reaches every tile of more than DENSE levels, sigma is carried as the E
entries of its T reachable tiles alone, and D as G (x) D_in, exact because
the channels commute and the weight factorizes per bit: G damps the bits
of the group index, moving whole tiles into tiles, and D_in, one b^2 x b^2
matrix for every tile, the bits inside the groups.  Both are `_damper`'s
own feeds on the entries they damp: each decaying bit's (dst, src) pairs
among them (`_feeds`), found once per form and fed at dt/2 and at dt in
`_damper`'s order, then the weight.  G is one real product of the tiles'
float rows up to MATRIX tiles, its matrix those feeds applied to the
identity, and the feeds themselves above (`_gathers`), which give
`_damper`'s bits; D_in, its matrix made the same way, is folded into the
Kronecker factors of u sigma u+ by one product per member and block of
steps, and u sigma u+ is one product per tile (`_support_steps`).  A
one-tile support's G is the identity: it is damped by D_in's own product
instead.  Every stack that leaves a tile unreached, as most protocol steps
do, takes this form, and so does every stack up to DENSE levels, whose
step is then G's product, the factors' gather onto the tiles and the
tiles' product.  Every other stack, in
groups of more than TILE levels (such as any dense H of more than TILE
levels gives), empty, or reaching every tile of more than DENSE levels
(the last rotating-frame protocol step from GHZ4 on), is damped in place
by D(dt) through `_damper`'s views of the (K, d, d) stack, bound once per
propagation, and multiplied by u group by group (`_grouped_steps`, see
below).  The forms agree to round-off.  A node rho = D(dt/2) sigma is
formed only where it is needed: at the positivity checkpoints and the
end.  Every form hands its nodes in one layout, their values at a fixed
set of flat positions of a d x d matrix (all d^2 of them unless the
support form carries fewer), with one reading of them, D(dt/2) as
`_gathers` on the feeds of every decaying bit among those entries, and
this module alone knows it: every reader goes through two helpers.
`_reader` compiles populations <k|rho|k>, which are linear in rho,
tr(P D(sigma)) = tr(D+(P) sigma), into one real linear map of sigma by
pulling the projectors back through the adjoint channel D+ once per
propagation (the Heisenberg picture), which `_gathers` codes next to D
from the same pairs and weight; `_matrices` damps the carried values on
their entries and scatters them into d x d matrices, for the checkpoints
and for `propagate_lindblad`'s observer, which gets them in one reused
buffer.  Positivity and trace are still checked, never enforced: a
violation beyond tolerance fails loudly.

`propagate_lindblad` also carries a stack of K density matrices, shape
(K, d, d).  The members share H and the channels; each `Dissipator.rate`
is one rate for all of them or an array of K rates, one per member.  The
stack takes one step form on the union of its members' reachable tiles,
and member k equals its single-matrix run with its own rates bit for bit
exactly when it reaches, under its own decaying channels, every tile the
stack reaches, as every member of a stack started from one state with
the same channels decaying does; any other member differs from that run
by round-off.  Every check (trace drift, checkpoint eigenvalues, the
initial density-matrix check) runs per member.  Each member fails where
its own run would: on trace drift at the step where it trips, on a
checkpoint eigenvalue when the propagation ends.  The error raised is that of the
first member, in stack order, among those failing at the earliest grid
step; the exception carries its index as the `member` attribute.

Both propagators take the Hamiltonian as a callable of time that accepts an
array of times and returns its matrices there, in one of three forms.  A
(len(t), S, b, b) stack of blocks says that H is block diagonal over S
consecutive groups of b levels of the state (S b = d): block s acts on
levels s b ... s b + b - 1 and H vanishes between groups.  A pair
(blocks, which) of a (len(t), C, b, b) stack of one block per class of
groups and the (S,) class of each group says the same more cheaply, group
s holding block which[s], as the protocol runner's one block per class of
spectator groups does; a stack of S blocks is the pair with which =
arange(S).  A (len(t), d, d) stack is the S = 1 case of the same contract.
An H with no time axis, one (d, d) matrix or a pair whose blocks have
none, holds for the whole span and is exponentiated once for it.  The
propagators call it once per span of grid
intervals, at the interval midpoints, so the fields behind H are evaluated
on whole arrays.  A span is 2 SPAN = 512 intervals up to DENSE levels,
where it costs numpy's fixed per-call time rather than arithmetic, and
SPAN = 256 above, where the longer span's arrays would outweigh that
(`_span`).  Each distinct block is exponentiated once per span: classes
whose b-by-b blocks hold the same bytes at every time of the span are
exponentiated once for all of them, which gives the bits of exponentiating
every group (a protocol step's d/b spectator groups fall into at most four
classes, holding at most two distinct blocks), and a class whose blocks
are 0 throughout gets the identity without an exponential.  `expm_hermitian` takes two-level
blocks in closed form and larger ones by a degree-8 Taylor polynomial of
their real form, neither through an eigendecomposition, and gives each
block the same bits in any stack.  H is taken at the same midpoints whatever the
span, so the span moves no bit of a result.  Closed runs advance the state
group by group; open runs take u rho u+ as two grouped products of (b, b)
blocks by (b, d) rows or as one Kronecker product per reachable tile.
A pure state steps only the groups it occupies, since the others stay 0.
Ordering the levels so that H falls into groups is the caller's business;
with S = 1 the arithmetic is the dense one.  The group shape (S, b) of the
first span holds for the whole propagation: a span whose H comes in
another is refused with a ValueError naming its first midpoint.
`von_neumann_residual` takes H in the same two forms.  Both propagators
reject an H that is not finite or not Hermitian, naming the first time at
which it is not.

Each propagator is one run of a private driver, `_propagate`, that hands
each block of step unitaries to every run it carries, so the protocol
runner's pure state and density stack advance on one stream of them.  A
run checks its entry state when it is built, before any step; for a state
one protocol step hands the next, that is the only check.

Neither propagator keeps the trajectory itself.  Each hands the nodes it
computes to an observer, `observe(first, states)`, called once with node 0
and then once per block of at most BLOCK nodes (a span holds 4 or 8
blocks) with that block's nodes, `first` being the grid index of the first
of them; the indices cover 0 ... steps once each, in order.
`states` is a view of a buffer the propagator reuses, shape (n, d) for a
pure state, (n, d, d) for one density matrix and (K, n, d, d) for a stack,
so an observer must copy whatever it keeps.  Without an observer the
propagator records every node and returns the whole trajectory; with one it
returns only the end node (`times[-1:]`) with the diagnostics, so a run
holds O(BLOCK K d^2) numbers of state instead of O(steps K d^2), and an
open run on E reachable entries read through `_lindblad_run`'s own
observer contract O(BLOCK K E).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np

from .linalg import (check_density_matrix, check_state_vector, dagger,
                     expm_hermitian, frobenius, hermiticity_defect)
from .tolerances import TOL

__all__ = [
    "BLOCK",
    "SPAN",
    "CHECKPOINTS",
    "TimeGrid",
    "Dissipator",
    "StepSizeError",
    "StateTrajectory",
    "DensityTrajectory",
    "SimulationResult",
    "propagate_schrodinger",
    "propagate_lindblad",
    "von_neumann_residual",
    "gd_matrices",
    "reconstruct_evolution",
    "populations",
]


BLOCK = 64  # grid nodes per state block handed to an observer
SPAN = 256  # grid intervals per H evaluation above DENSE levels, a multiple of BLOCK
CHECKPOINTS = 10  # positivity checks per open propagation
DENSE = 8  # largest d whose spans are 2 SPAN and whose whole stacks take the support form
TILE = 4  # largest group of levels whose open steps may take the support form
MATRIX = 320  # most tiles of a support whose group-index damping may take one matrix product


class StepSizeError(RuntimeError):
    """Integration diagnostics exceeded their hard bounds.

    `member` is the index of the failing member of a density-matrix stack,
    None for a single state.
    """

    def __init__(self, message: str, member: int | None = None):
        super().__init__(message)
        self.member = member


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid of `steps` intervals on [t0, t1]."""

    t0: float
    t1: float
    steps: int

    def __post_init__(self):
        if not isinstance(self.steps, (int, np.integer)):
            raise ValueError(f"grid steps must be an integer, not {self.steps!r}")
        if self.steps < 1:
            raise ValueError("need at least one step")
        if not np.isfinite([self.t0, self.t1]).all():
            raise ValueError(f"grid bounds must be finite, not [{self.t0}, {self.t1}]")
        if not self.t1 > self.t0:
            raise ValueError("t1 must exceed t0")

    @property
    def dt(self) -> float:
        return (self.t1 - self.t0) / self.steps

    @property
    def times(self) -> np.ndarray:
        return np.linspace(self.t0, self.t1, self.steps + 1)


@dataclass(frozen=True, eq=False)
class Dissipator:
    """One Lindblad channel: a jump operator acting in the full space and its
    rate, or for a stack of density matrices an array of one rate per member.
    `propagate_lindblad` takes qubit lowering operators only."""

    operator: np.ndarray
    rate: float | np.ndarray

    def __post_init__(self):
        rate = np.asarray(self.rate, dtype=float)
        if not np.all((rate >= 0) & np.isfinite(rate)):
            raise ValueError("dissipation rate must be finite and non-negative")


@dataclass
class StateTrajectory:
    """A pure-state trajectory; from a propagation with an observer, only its
    final node."""

    times: np.ndarray
    states: np.ndarray          # (len(times), dim)
    norm_drift: float

    @property
    def final(self) -> np.ndarray:
        return self.states[-1]


@dataclass
class DensityTrajectory:
    """One density-matrix trajectory, or one per member of a stack: then
    `matrices` is (K, len(times), dim, dim) and the diagnostics are arrays of
    K values.  From a propagation with an observer, only the final node."""

    times: np.ndarray
    matrices: np.ndarray        # (len(times), dim, dim)
    trace_drift: float | np.ndarray
    min_eigenvalue: float | np.ndarray

    @property
    def final(self) -> np.ndarray:
        return self.matrices[..., -1, :, :]


@dataclass
class SimulationResult:
    """Populations, fidelity, and integration diagnostics on a common grid.

    `fidelity` is measured against the target of the protocol step active at
    each time; `auxiliary` may carry further per-grid-point arrays (fidelity
    against the final target, passage residual) and `steps` per-step records.
    """

    times: np.ndarray
    populations: dict
    fidelity: np.ndarray
    final_state: np.ndarray
    diagnostics: dict = field(default_factory=dict)
    steps: list = field(default_factory=list)
    auxiliary: dict = field(default_factory=dict)


def _span(dim: int) -> int:
    """Grid intervals per Hamiltonian evaluation for a state of `dim`
    levels: 2 SPAN up to DENSE levels, where a span costs numpy's fixed
    per-call time rather than arithmetic, SPAN above (see the module
    docstring)."""
    return 2 * SPAN if dim <= DENSE else SPAN


def _step_unitaries(hamiltonian: Callable, t_mid: np.ndarray, dim: int,
                    dt: float) -> tuple[np.ndarray, np.ndarray]:
    """exp(-i H dt) at every midpoint of `t_mid` for H's blocks over S
    groups of b levels, S = 1 for a dense H (see the module docstring), as
    (u, which): u the (len(t_mid), C, b, b) unitaries of the C classes of
    groups whose (len(t_mid), b, b) columns of H hold equal bytes, numbered
    in order of first appearance, and which the (S,) class of each group,
    so that u[:, which] holds the unitaries of every group.  H comes as a
    stack of blocks, one per group, or as a pair (blocks, which) of one
    block per class the caller knows and the class of each group; a stack
    is the pair (blocks, arange(S)).  Equal columns among the caller's
    classes are merged, so each class is exponentiated once, in one call for
    all of them; equal bytes give equal bits, so u[:, which] is what
    exponentiating every group gives.  An H that is not finite or not
    Hermitian to 1e-10 (relative) raises ValueError naming its first such
    time; the classes hold every value of H, so the checks read them alone,
    before any exponential.  A class whose blocks are 0 at every time (half
    the groups of an effective-mode raise step) is idle: its unitaries are
    the identity, the bits the exponential gives, and none is computed.  An
    H with no time axis, one (d, d) matrix or a pair whose blocks have none,
    or with a time axis of length 1, holds for the whole span: it is checked
    and exponentiated once, and its unitaries are repeated over the span,
    the bits an H returned at every time gives."""
    h = hamiltonian(t_mid)
    h, which = h if isinstance(h, tuple) else (h, None)
    h = np.asarray(h, dtype=complex)
    if h.ndim == (2 if which is None else 3):  # no time axis: one H for the whole span
        h = h[None]
    if h.ndim < 4:
        h = h[..., None, :, :]
    classes, size = h.shape[-3], h.shape[-1]
    which = np.arange(classes) if which is None else np.asarray(which)
    if not (h.shape[-2] == size and which.ndim == 1 and which.size * size == dim
            and which.dtype.kind in "iu" and np.all((which >= 0) & (which < classes))):
        raise ValueError(f"Hamiltonian blocks of shape {(which.size,) + h.shape[-2:]} do not "
                         f"cover the state's {dim} levels")
    # a column is compared whole, as the integers of its bytes, only with the
    # earlier distinct columns whose blocks at the first time hold its bytes
    words = (h.real.view(np.int64), h.imag.view(np.int64))
    merged, distinct, starts = np.empty(classes, dtype=int), [], {}
    for c in range(classes):
        same = starts.setdefault(h[0, c].tobytes(), [])
        match = [m for m in same if all(np.array_equal(w[:, c], w[:, distinct[m]]) for w in words)]
        merged[c] = match[0] if match else len(distinct)
        if not match:
            same.append(len(distinct))
            distinct.append(c)
    h = h[:, distinct]
    # each check is measured per time only where the whole span fails it
    if not np.isfinite(h).all():
        bad = ~np.isfinite(h).all(axis=(-3, -2, -1))
        raise ValueError(f"Hamiltonian is not finite at t = {t_mid[np.argmax(bad)]:.6f}")
    if not np.array_equal(h, dagger(h)):
        bad = hermiticity_defect(h, axis=(-3, -2, -1)) > 1e-10
        if np.any(bad):
            raise ValueError(f"Hamiltonian is not Hermitian at t = {t_mid[np.argmax(bad)]:.6f}")
    idle = ~h.any(axis=(0, 2, 3))
    if not idle.any():
        u = expm_hermitian(h, -1j * dt)
    else:
        u = np.empty(h.shape, dtype=complex)
        u[:, idle] = np.eye(size)
        u[:, ~idle] = expm_hermitian(h[:, ~idle], -1j * dt)
    if len(u) < t_mid.size:  # one H for the whole span
        u = np.repeat(u, t_mid.size, axis=0)
    # u[:, which] takes its strides from u, and a product's bits can follow them
    return np.ascontiguousarray(u), merged[which]


def _recorder(out: np.ndarray, core: int) -> Callable:
    """The default observer: copies each block into `out`, whose time axis
    comes before its `core` state axes."""
    def observe(first: int, states: np.ndarray) -> None:
        time = slice(first, first + states.shape[-core - 1])
        out[(..., time) + (slice(None),) * core] = states
    return observe


def _propagate(hamiltonian: Callable, grid: TimeGrid, dim: int, runs: list) -> list:
    """Advance each of `runs`, (advance, finish) pairs, over `grid` on one
    stream of step unitaries of H, whose blocks cover `dim` levels, and return
    each run's finish().  Each block of at most BLOCK of a span's unitaries
    goes to every run in turn as advance(start, u, which), `start` being the
    grid interval of u[0], u the unitaries of the span's classes of groups
    and `which` the class of each group (see `_step_unitaries`); a failure
    in H or in any run stops them all.  The group shape (S, b) of the first
    span holds for the whole propagation: a later span whose H has another
    raises ValueError naming its first midpoint."""
    mids = grid.times[:-1] + 0.5 * grid.dt
    length = _span(dim)
    shape = None
    for span in range(0, mids.size, length):
        u, which = _step_unitaries(hamiltonian, mids[span:span + length], dim, grid.dt)
        shape = shape or (which.size, u.shape[-1])
        if (which.size, u.shape[-1]) != shape:
            raise ValueError(f"Hamiltonian blocks change from {shape[0]} groups of {shape[1]} "
                             f"levels to {which.size} of {u.shape[-1]} at t = {mids[span]:.6f}")
        for first in range(0, len(u), BLOCK):
            for advance, _ in runs:
                advance(span + first, u[first:first + BLOCK], which)
        del u  # before the next span's unitaries are made
    return [finish() for _, finish in runs]


def _schrodinger_run(psi0: np.ndarray, grid: TimeGrid, observe: Callable | None = None) -> tuple:
    """The run of `propagate_schrodinger` as an (advance, finish) pair for
    `_propagate`: the entry check (check_state_vector) and node 0 happen
    here, finish() returns the StateTrajectory.  u is block diagonal, so a
    group psi0 leaves empty stays empty: the run finds the groups psi0
    occupies at the first block, once the group size is known, and steps
    those alone, each node holding 0 in every other group."""
    psi = check_state_vector(psi0).astype(complex)
    times = grid.times
    out = None
    if observe is None:
        out = np.empty((times.size, psi.size), dtype=complex)
        observe = _recorder(out, 1)
    buf = np.zeros((min(BLOCK, grid.steps), psi.size), dtype=complex)  # 0 where psi0 is
    buf[0] = psi
    observe(0, buf[:1])
    drift = 0.0
    occupied = stepped = None  # the groups psi0 occupies, and a block of psi on them

    def advance(start: int, u: np.ndarray, which: np.ndarray) -> None:
        nonlocal psi, drift, occupied, stepped
        if occupied is None:
            grouped = psi.reshape(which.size, -1, 1)
            occupied = np.flatnonzero(grouped.any(axis=(1, 2)))
            psi = grouped[occupied]  # (s, b, 1) columns
            # psi0 in every group steps in the node buffer itself, else in a
            # block scattered into the occupied groups
            stepped = (buf.reshape((len(buf),) + psi.shape) if occupied.size == which.size
                       else np.empty((len(buf),) + psi.shape, dtype=complex))
        u = u[:, which[occupied]]
        for j, step in enumerate(u):
            psi = step @ psi
            stepped[j] = psi
        nodes = buf[:len(u)]
        if occupied.size < which.size:
            nodes.reshape(len(u), which.size, -1, 1)[:, occupied] = stepped[:len(u)]
        # frobenius sums each node's squares as np.linalg.norm does
        drift = max(drift, float(np.max(np.abs(frobenius(nodes[:, None, :]) - 1.0))))
        observe(start + 1, nodes)

    def finish() -> StateTrajectory:
        if out is None:
            final = np.zeros((1, buf.shape[1]), dtype=complex)
            final.reshape((-1,) + psi.shape[1:])[occupied] = psi
            return StateTrajectory(times[-1:], final, drift)
        return StateTrajectory(times, out, drift)
    return advance, finish


def propagate_schrodinger(hamiltonian: Callable[[np.ndarray], np.ndarray],
                          psi0: np.ndarray, grid: TimeGrid,
                          observe: Callable | None = None) -> StateTrajectory:
    """Midpoint-exponential propagation of a pure state.

    H is evaluated at the interval midpoints, one span of them per call,
    as a dense matrix or as its blocks over S consecutive groups of the
    state's levels (see the module docstring for the span and the
    callable's contract).
    It must be Hermitian to 1e-10 (relative); each step exponentiates the
    S blocks and advances psi group by group, only the groups psi0
    occupies, since u keeps the others 0, so the propagator is unitary up
    to round-off and norm drift only reflects accumulated floating-point
    error.
    `observe(first, states)` receives node 0 and then each block's nodes,
    at most BLOCK of them, as an (n, d) view of a reused buffer (copy what
    you keep); with it the result holds only the final node, without it
    every node.
    """
    run = _schrodinger_run(psi0, grid, observe)
    return _propagate(hamiltonian, grid, np.size(psi0), [run])[0]


def _bits(x: np.ndarray, mask: int) -> np.ndarray:
    """A view of the (..., d, d) array `x` with the bit `mask` of the row and
    of the column index as axes of their own: (..., A, 2, mask, A, 2, mask)."""
    dim = x.shape[-1]
    return x.reshape(x.shape[:-2] + (dim // (2 * mask), 2, mask) * 2)


def _decay_rates(dissipators: list[Dissipator], dim: int, members: int) -> dict:
    """{mask: (members,) summed rate} over the channels, each keyed by the bit
    `mask` of the level index its lowering operator flips from e (0) to g (1);
    any other operator raises ValueError naming its channel."""
    rates: dict = {}
    for j, d in enumerate(dissipators):
        op = np.asarray(d.operator)
        if op.shape != (dim, dim):
            raise ValueError(f"jump operator has shape {op.shape}; the state needs {(dim, dim)}")
        rate = np.asarray(d.rate, dtype=float)
        if rate.shape not in ((), (members,)):
            raise ValueError(f"dissipation rate has shape {rate.shape}; "
                             f"the state stack needs {members} rates")
        rows, cols = np.nonzero(op)
        mask = int(rows[0] ^ cols[0]) if rows.size else 0
        lowering = np.zeros((dim, dim))
        if mask and not mask & (mask - 1) and dim % (2 * mask) == 0:
            excited = np.flatnonzero(np.arange(dim) & mask == 0)
            lowering[excited + mask, excited] = 1.0
        if not (mask and np.array_equal(op, lowering)):
            raise ValueError(f"dissipator {j} is not a qubit lowering operator |g><e|; "
                             "propagate_lindblad supports only those, in any bit order")
        rates[mask] = rates.get(mask, 0.0) + np.broadcast_to(rate, (members,))
    return rates


def _damping(rates: dict, tau: float, members: int, dim: int) -> tuple:
    """D(tau) of the grouped steps (`_damper`) as its feeds [(mask, p)],
    p = 1 - exp(-rate tau) shaped to broadcast over a (K, n, ...) view of
    `_bits`, and its (K, 1, d, d) weight.
    p and the weight come back complex, cast once here rather than to x+0j
    inside every product with the complex state, which gives the same bits."""
    feeds = []
    weight = np.ones((members, 1, dim, dim))
    for mask, rate in rates.items():
        keep = np.exp(-rate * tau).reshape((members,) + (1,) * 5)
        # exact for keep >= 1/2, so p + keep = 1
        feeds.append((mask, (1.0 - keep).astype(complex)))
        w = _bits(weight, mask)
        w[..., 0, :, :, 0, :] *= keep
        w[..., 0, :, :, 1, :] *= np.sqrt(keep)
        w[..., 1, :, :, 0, :] *= np.sqrt(keep)
    return feeds, weight.astype(complex)


def _damper(x: np.ndarray, feeds: list, weight: np.ndarray) -> Callable:
    """D (see `_damping`) bound to the (K, n, d, d) array `x`: each call
    applies it to x in place, through views of x and one scratch array that
    are made here, once."""
    scratch = np.empty(x.size // 4, dtype=complex)
    bound = []
    for mask, p in feeds:
        v = _bits(x, mask)
        ee = v[..., 0, :, :, 0, :]
        bound.append((v[..., 1, :, :, 1, :], ee, p, scratch.reshape(ee.shape)))

    def damp() -> None:
        for gg, ee, p, fed in bound:
            np.multiply(p, ee, out=fed)
            gg += fed
        np.multiply(x, weight, out=x)
    return damp


def _check_members(rho: np.ndarray, single: bool) -> None:
    """check_density_matrix on every member; a failure names its member,
    unless the stack stands for a `single` matrix."""
    for k, member in enumerate(rho):
        try:
            check_density_matrix(member)
        except ValueError as exc:
            if not single:
                exc.member = k
            raise


def _grouped_steps(sigma: np.ndarray, half: tuple, full: tuple, buf: np.ndarray) -> Callable:
    """The split steps of a block of step unitaries u, (n, S, b, b), on the
    (K, d, d) stack sigma, in place, node j going to buf[:, j]: each damps
    sigma through `_damper`'s views, by `half` (D(dt/2)) at the first step
    and `full` (D(dt)) after it, then takes u sigma u+ as two grouped
    products of the blocks with sigma's (S, b, d) rows, u[:, which] being
    the unitaries of the groups (see `_step_unitaries`)."""
    damp, damp_full = (_damper(sigma[:, None], *damping) for damping in (half, full))

    def steps(u: np.ndarray, which: np.ndarray) -> None:
        nonlocal damp
        u = u[:, which]
        rows = sigma.shape[:1] + u.shape[1:3] + sigma.shape[-1:]
        for j, (step, step_conj) in enumerate(zip(u, u.conj())):
            damp()
            damp = damp_full
            # u sigma u+ = conj(conj(u) (u sigma)^T) for a Hermitian sigma
            left = (step @ sigma.reshape(rows)).reshape(sigma.shape)
            np.conj(step_conj @ left.swapaxes(1, 2).reshape(rows), out=sigma.reshape(rows))
            buf[:, j] = sigma
    return steps


def _support(rho: np.ndarray, rates: dict, size: int) -> np.ndarray:
    """The tiles of sigma that split steps can reach from the (K, d, d)
    stack rho when every step unitary is block diagonal over groups of
    `size` levels: one (S, S) mask over the (row group, column group)
    pairs, for the whole stack.

    u sigma u+ maps each tile to itself, whatever H is, so the reachable
    tiles are the members' nonzero ones closed under the jumps alone.  A
    jump on a bit of the group index moves tile (r, c) to (r | m, c | m)
    wherever that bit is excited (0) in both r and c; a jump on a bit
    inside the groups stays in its tile.  One pass over the bits closes the
    set, since a jump only sets its bit and its condition reads no other
    bit."""
    groups = rho.shape[-1] // size
    tiles = np.any(rho.reshape(-1, groups, size, groups, size) != 0, axis=(0, 2, 4))
    for mask in rates:
        if mask >= size:
            view = _bits(tiles, mask // size)
            view[..., 1, :, :, 1, :] |= view[..., 0, :, :, 0, :]
    return tiles


def _entries(tiles: np.ndarray, size: int) -> np.ndarray:
    """The flat positions in a d x d matrix of the entries of the (S, S)
    mask `tiles` of (row group, column group) pairs of `size` levels, tile
    by tile in C order, each tile's b x b entries in C order."""
    dim = tiles.shape[-1] * size
    rows, cols = np.nonzero(tiles)
    level = np.arange(size)
    return (((rows * size)[:, None, None] + level[:, None]) * dim
            + (cols * size)[:, None, None] + level).ravel()


def _feeds(masks: list, entries: np.ndarray, dim: int):
    """`_damper`'s feeds on the entries of a dim x dim matrix at the flat
    positions `entries`, a set closed under the jumps of the bits `masks`
    (see `_support`), one bit at a time in the order of `masks`: per bit
    (dst, src, excited), the feed adding p times the entry at position
    src[i] among the entries into the one at dst[i], a source outside the
    set, exactly 0, left out, and excited counting the ends, row and
    column, of each entry where the bit is excited (0), 0, 1 or 2, which
    picks its factor of the weight, 1, sqrt(keep) or keep.  The positions
    are read off one table of the d^2 flat positions; a bit's arrays are
    made at its turn, so a caller that walks them holds one bit's alone."""
    rows, cols = np.divmod(entries, dim)
    position = np.full(dim * dim, -1)
    position[entries] = np.arange(entries.size)
    for mask in masks:
        dst = np.flatnonzero(rows & cols & mask)
        src = position[entries[dst] - mask * (dim + 1)]
        yield dst[src >= 0], src[src >= 0], (rows & mask == 0) + (cols & mask == 0).astype(int)


def _gathers(feeds: list, p: np.ndarray, keep: np.ndarray) -> Callable:
    """D of the bits whose feeds on E entries `_feeds` gives, each bit
    keeping the (F, K) share keep = exp(-rate tau) of its excited
    population and feeding the (F, K) p = 1 - keep, one row per bit, as
    damp(x, out) writing D(x) into out, x and out being (K, E, ...)
    arrays: out takes x, each bit with a pair adds p times its sources into
    its destinations, in the order of the bits, and the weight, formed in
    that order, multiplies last.  That is `_damper`'s map in `_damper`'s
    order, so with its bits.  damp.adjoint(x) returns the adjoint channel
    D+ of the (E, ...) or (K, E, ...) array x as a new (K, E, ...) array,
    from the same pairs and weight: the weight first, then each bit's
    ee += p gg, the bits in reverse order.  The support form damps the
    tiles' float rows by it above MATRIX tiles (G), and makes G's matrix up
    to MATRIX and D_in's from it (`_matrix`); every open form reads its
    nodes through it (`_open_form`)."""
    fed, weight = [], np.ones((keep.shape[-1], 1))
    for (dst, src, excited), fraction, share in zip(feeds, p, keep):
        if dst.size:
            fed.append((dst, src, fraction[:, None, None]))
        weight = weight * np.array([np.ones_like(share), np.sqrt(share), share])[excited].T
    weight = weight[..., None]

    back = [(src, dst, fraction) for dst, src, fraction in reversed(fed)]

    def feed(out: np.ndarray, pairs: list) -> np.ndarray:
        for dst, src, fraction in pairs:
            # two takes and one assignment: half the time of out[:, dst] += ...
            terms = out.take(src, axis=1)
            terms *= fraction
            terms += out.take(dst, axis=1)
            out[:, dst] = terms
        return out

    def gather(x: np.ndarray, out: np.ndarray) -> None:
        out[...] = x
        feed(out, fed)
        out *= weight
    gather.adjoint = lambda x: feed(x * weight, back)
    return gather


def _matrix(damp: Callable, members: int, count: int) -> np.ndarray:
    """The damping `damp` (`_gathers`) on `count` entries as one real
    (K, E, E) matrix per member: damp applied to the identity's rows."""
    rows = np.repeat(np.eye(count)[None], members, axis=0)
    damp(rows, rows)
    return rows


def _product(rows: np.ndarray) -> Callable:
    """damp(x, out) writing rows @ x into out: one real product per member."""
    product = partial(np.matmul, rows)  # a step calls it, so no Python frame of its own
    product.__name__ = "product"
    return product


def _support_steps(sigma: np.ndarray, half: tuple, full: tuple, buf: np.ndarray,
                   entries: np.ndarray, tiles: tuple) -> Callable:
    """`_grouped_steps` on the (K, E) entries of sigma at the flat positions
    `entries` (see `_support`), node j going to buf[:, j], (K, E): D(dt/2)
    `half` at the first step and D(dt) `full` after it, then u sigma u+ per
    tile, `tiles` being the (rows, cols) arrays of each tile's row and
    column group, in the order of `entries`, and tile (r, c) being
    u_r T u_c+.  In the C order of the tile's entries that is one product
    with kron(u_r, conj(u_c)).

    The decay channels commute and the weight factorizes per bit, so D is
    G (x) D_in: G damps the bits of the group index, moving whole tiles
    into tiles (see `_support`), and D_in, one (K, b^2, b^2) matrix for
    every tile, the bits inside the groups, each made of `_damper`'s feeds
    on its entries (`_feeds`).  Each damping comes as (damp, inner):
    damp(x, out) applies G to the float rows of the tiles, by its matrix or
    by its feeds (`_gathers`), and the real inner, D_in, is folded into the
    Kronecker factors once per block, one product per member on the rows of
    all the block's factors, so a step is G's product or feeds, the
    factors' `take` and the tiles' product.  On one tile G is the
    identity, and the tile is damped whole, by damp, D_in's product on its
    b^2 entries, before the unfolded factor (inner None): the bits of
    damping its entries by one product.

    The factors are made once per block of step unitaries, into a buffer
    made once, for each pair of classes of groups the tiles hold, u holding
    the classes' unitaries and `which` the class of each group (see
    `_step_unitaries`; a protocol step has at most two classes, so at most
    four pairs), and gathered onto the tiles at each step, unless every
    tile holds a pair of its own.  The pairs of the tiles are found once
    per distinct `which`, and every view a step reads or writes once."""
    rows, cols = tiles
    members, count, tile = sigma.shape[0], buf.shape[1], entries.size // rows.size
    (damp, first), (damp_full, inner) = half, full
    width = 2 if inner is None else 2 * tile  # the floats of a row damp mixes
    if inner is not None:
        first, inner = (np.asarray(m, dtype=complex) for m in (first, inner))
    damped = np.empty_like(sigma)
    # what a step reads and writes: sigma or the previous node as float
    # rows, the damped values as float rows and by tile, the node by tile
    floats = [sigma.view(float).reshape(members, -1, width)] + list(
        buf.view(float).reshape(members, count, -1, width).swapaxes(0, 1))
    nodes = list(buf.reshape(members, count, -1, tile, 1).swapaxes(0, 1))
    damped_floats = damped.view(float).reshape(members, -1, width)
    damped_tiles = damped.reshape(members, -1, tile, 1)
    gathered = np.empty((members,) * (inner is not None) + (rows.size, tile, tile), dtype=complex)
    known = {}  # per distinct `which`: left and right classes, each tile's pair, factor buffers

    def steps(u: np.ndarray, which: np.ndarray) -> None:
        nonlocal damp, first
        n, classes, size = u.shape[:3]
        key = (classes, which.tobytes())
        if key not in known:
            pairs, pair = np.unique(which[rows] * classes + which[cols], return_inverse=True)
            left, right, pair = ((which[rows], which[cols], None) if pairs.size == rows.size
                                 else (pairs // classes, pairs % classes, pair))
            kron = np.empty((count, left.size) + (size,) * 4, dtype=complex)
            folded = None if inner is None else np.empty((members, count, left.size, tile, tile),
                                                         dtype=complex)
            known[key] = left, right, pair, kron, folded
        left, right, pair, kron, folded = known[key]
        np.multiply(u[:, left, :, None, :, None], u[:, right, None, :, None, :].conj(),
                    out=kron[:n])
        factors = kron[:n].reshape(n, -1, tile, tile)
        if inner is not None:
            # each member's D_in right-multiplies the rows of every factor
            # of the block at once: one BLAS product, not n pairs of small ones
            for k, matrix in enumerate(inner):
                np.matmul(factors.reshape(-1, tile), matrix, out=folded[k, :n].reshape(-1, tile))
            if first is not None:  # the first step damps by dt/2
                for k, matrix in enumerate(first):
                    np.matmul(factors[0].reshape(-1, tile), matrix,
                              out=folded[k, 0].reshape(-1, tile))
                first = None
            factors = folded[:, :n].swapaxes(0, 1)
        if pair is not None:
            factors = (step.take(pair, axis=-3, out=gathered) for step in factors)
        x = floats[0]
        for factor, node, after in zip(factors, nodes, floats[1:n + 1]):
            damp(x, damped_floats)
            damp = damp_full
            np.matmul(factor, damped_tiles, node)
            x = after
        sigma[...] = buf[:, n - 1]
    return steps


def _open_form(sigma: np.ndarray, size: int, rates: dict, dt: float, nodes: int) -> tuple:
    """The step form of an open run on the (K, d, d) stack sigma (C order)
    for step unitaries over groups of `size` levels, its channels `rates`
    (see `_decay_rates`) and steps of dt, as (steps, node buffer, reading),
    one form for every member: `_support_steps` on the stack's reachable
    tiles (`_support`) for a nonempty stack in groups of at most TILE
    levels, unless it reaches every tile of more than DENSE levels;
    `_grouped_steps` otherwise.  The buffer holds n nodes of each member as
    (K, n, E) values at the flat positions `entries` of a d x d matrix: the
    support form's entries, else all d^2, the grouped form's (K, n, d, d)
    buffer viewed flat.  The reading, (damp, entries), says how they make
    the nodes rho (see `_lindblad_run`): damp is D(dt/2) on those entries,
    `_gathers` on the feeds of every decaying bit among them (`_feeds`),
    for both forms.

    The support form splits D into G (x) D_in (see `_support_steps`) and
    finds each factor's feeds (`_feeds`) once, feeding them at dt/2 and
    dt: D_in on the b^2 entries of a tile, from the bits inside the groups,
    a b^2 x b^2 matrix, the feeds applied to the identity; G on the T tiles
    at their flat positions in the (S, S) matrix of tiles, from the bits of
    the group index, each bit m of it being bit m / b of the group, a
    T x T matrix made the same way up to MATRIX tiles and the feeds
    themselves above (`_gathers`).  The grouped form damps sigma in place
    by `_damping`'s D(dt/2) and D(dt) through `_damper`'s views.  A
    member's own run takes the same form on the same entries, so the same
    bits, exactly when it reaches, under its own decaying channels, every
    tile the stack reaches."""
    members, dim = sigma.shape[0], sigma.shape[-1]
    taus = (0.5 * dt, dt)
    # the keep of each channel at each tau
    keep = [np.exp(-np.reshape(list(rates.values()), (len(rates), members)) * tau) for tau in taus]
    masks = np.array(list(rates), dtype=int)
    # an empty stack steps grouped
    tiles = _support(sigma, rates, size) if size <= TILE and members else None
    support = tiles is not None and (dim <= DENSE or not tiles.all())
    entries = _entries(tiles, size) if support else np.arange(dim * dim)
    buf = np.empty((members, nodes, entries.size), dtype=complex)
    if support:
        inside = masks < size  # whether each channel's bit lies inside the groups
        feeds = list(_feeds(masks[inside], np.arange(size * size), size))
        inner = [_matrix(_gathers(feeds, 1.0 - share[inside], share[inside]), members,
                         size * size) for share in keep]
        at = np.flatnonzero(tiles)
        if at.size == 1:  # G is the identity
            dampings = [(_product(matrix), None) for matrix in inner]
        else:
            feeds = list(_feeds(masks[~inside] // size, at, dim // size))
            outer = [_gathers(feeds, 1.0 - share[~inside], share[~inside]) for share in keep]
            dampings = [(_product(_matrix(damp, members, at.size)) if at.size <= MATRIX
                         else damp, matrix) for damp, matrix in zip(outer, inner)]
        carried = np.ascontiguousarray(sigma.reshape(members, dim * dim)[:, entries])
        steps = _support_steps(carried, *dampings, buf, entries, np.nonzero(tiles))
    else:
        steps = _grouped_steps(sigma, *(_damping(rates, tau, members, dim) for tau in taus),
                               buf.reshape(members, nodes, dim, dim))
    damp = _gathers(list(_feeds(masks, entries, dim)), 1.0 - keep[0], keep[0])
    return steps, buf, (damp, entries)


def _traces(nodes: np.ndarray, on: np.ndarray, levels: np.ndarray, dim: int) -> np.ndarray:
    """The real part of the trace of each of the (K, n, E) nodes, `on`
    being the positions among their E values of the diagonal entries they
    hold and `levels` those entries' levels: the diagonal summed as d
    complex numbers, zeros included, so a node has the same trace whichever
    entries hold it."""
    diagonal = np.zeros(nodes.shape[:-1] + (dim,), dtype=complex)
    diagonal[..., levels] = nodes[..., on]
    return diagonal.sum(axis=-1).real


def _matrices(sigma: np.ndarray, reading: tuple, out: np.ndarray) -> np.ndarray:
    """The nodes rho = D(sigma) of the (K, n, E) values `sigma` an open run
    hands over with `reading` (see `_lindblad_run`), as (K, n, d, d)
    matrices: the values are damped on their entries by the reading's D
    and then scattered into out[:, :n] of the (K, N, d, d) buffer `out`,
    which must be 0 off the reading's entries, and returned."""
    damp, entries = reading
    if damp is not None:
        damped = np.empty_like(sigma)
        damp(sigma.swapaxes(1, 2), damped.swapaxes(1, 2))
        sigma = damped
    out.reshape(out.shape[:2] + (out.shape[-1] ** 2,))[:, :sigma.shape[1], entries] = sigma
    return out[:, :sigma.shape[1]]


def _reader(kets: np.ndarray, reading: tuple) -> tuple:
    """The populations <k|rho|k> of the (a, d) `kets` in the nodes rho an
    open run hands over with `reading` (see `_lindblad_run`), compiled as
    one real linear map of a node's float view: (support, coefficients),
    the positions it reads in the float view of a node's E values and
    their coefficients, (len(support), a), or (K, len(support), a) for a
    damped reading, so that `sigma.view(float)[..., support] @ coefficients`
    gives the (K, n, a) populations of the (K, n, E) values sigma.

    Each population is linear in the node, <k|D(sigma)|k> = tr(D+(P) sigma)
    for the projector P = |k><k|, formed only at the entries the nodes hold
    (sigma is exactly 0 elsewhere) and pulled back here, once, through the
    adjoint channel D+ the reading's D codes next to it (`_gathers`), the
    gg partner of an entry of the set being in the set too.
    tr(P sigma) = sum_ij P_ji sigma_ij with P_ji = conj(P_ij), so its real
    part pairs Re P_ij with Re sigma_ij and Im P_ij with Im sigma_ij: the
    float views of P and sigma line up, and the map keeps only the
    positions some P reads."""
    damp, entries = reading
    rows, cols = np.divmod(entries, kets.shape[-1])
    pulled = kets[:, rows] * np.conj(kets[:, cols])
    if damp is not None:
        pulled = damp.adjoint(pulled.T).swapaxes(-1, -2)
    flat = np.ascontiguousarray(pulled).view(float)
    support = np.flatnonzero(np.any(flat != 0, axis=tuple(range(flat.ndim - 1))))
    return support, flat[..., support].swapaxes(-1, -2)


def _lindblad_run(rates: dict, rho0: np.ndarray, grid: TimeGrid, observe: Callable) -> tuple:
    """The run of `propagate_lindblad` as an (advance, finish) pair for
    `_propagate`, its channels given as `_decay_rates` gives them,
    {mask: (K,) rate}: the entry checks (`_check_members`, a single matrix
    being a stack of one; a stack's failure names its member) happen here,
    advance() builds the step form and observes node 0 at the first block
    and raises the trace gate at the block that trips it, finish()
    the checkpoint eigenvalue gate, and returns the DensityTrajectory of the
    final node.

    `observe(first, sigma, reading)` gets node 0 and then each block's
    undamped nodes sigma, (K, n, E) values in one reused buffer, with a
    `reading` that says how they make the nodes rho.  Only two helpers
    read it: `_reader` compiles the populations of a ket list, once per
    reading, into a linear map of sigma, and `_matrices` writes rho as
    d x d matrices.  (The reading is (damp, entries): sigma holds each
    node's values at the flat positions `entries` of a d x d matrix, all
    d^2 of them or the support form's E, every other entry being exactly
    0, and rho = D(dt/2) sigma, damp being D(dt/2) on those entries
    (`_gathers`), or rho = sigma for node 0, whose damp is None.)  The
    observer may overwrite the block: the run reads nothing of it after
    the call, and the next steps overwrite it.  The trace gate reads every
    sigma node, its diagonal positions found once with the step form, and
    every damped node; only the checkpoint nodes and the final one are
    damped, for the eigenvalue gate and the result, through `_matrices`,
    on their entries and then into d x d matrices of their own.

    The steps take one of two forms (`_open_form`), chosen once, at the
    first block, when the group shape (S, b) of the step unitaries is known
    (`_propagate` holds it for the whole propagation), from what the decay
    reaches.  The channels are those of `rates` whose rate is not 0 for
    every member: the others are dropped here, before anything is
    compiled, so they add no feed, reader pull-back or tile.

    * in groups of at most TILE levels, `_support_steps`: the tiles the
      members can reach are compiled into one mask (`_support`), and the
      stack carries the E entries of those T tiles alone, so the node
      buffer holds O(BLOCK K E) numbers, not O(BLOCK K d^2).  It damps the
      group-index bits by one product of the tiles' float rows up to
      MATRIX tiles, else by their feeds (`_gathers`), folds the damping of
      the bits inside the groups into the Kronecker factors, and takes
      u sigma u+ as one product per tile.  Every stack that leaves a tile
      unreached takes it, and up to DENSE levels every stack.  In effective
      mode E is a small share of d^2: 480 of 1,024 entries (120 tiles) at
      GHZ5's last step, 2,336 of 16,384 (584 tiles) at GHZ7's;
    * otherwise `_grouped_steps`: D in place through `_damper`'s views,
      u sigma u+ by groups.  It takes the stacks the support form cannot
      or need not tile: groups of more than TILE levels, such as every
      dense H of more than TILE levels (S = 1), an empty stack, and a stack
      that reaches every tile of more than DENSE levels, such as the last
      step of rotating-frame GHZ4 and up.

    A member that reaches, under its own decaying channels, every tile the
    stack reaches gets the bits of its own run, which takes the same form
    on the same entries.  Any other member differs from its own run by
    round-off: its own run may damp fewer tiles by a product BLAS sums
    in another order, or take the support form where the stack steps
    grouped.

    Measured in situ (2-core guest, one BLAS thread, grid 2000, the two
    forms run alternately on the same step), every protocol step of Bell
    and GHZ3-GHZ7 in both modes at kappa_T {0.0145, 0.3} reaches at most
    0.47 of its tiles or all of them, but for effective GHZ4's last step,
    48 of 64 tiles (d = 16, b = 2), where the support form took 35 ms
    against the grouped form's 57 at one rate and 71 against 93 at three
    (faster in 12 of 12 runs each).  A whole stack above DENSE levels
    steps grouped: on rotating-frame GHZ4's last step the support form took
    44 ms against 64 at one rate (faster in 9 of 10) but 141 against 109 at
    three, its 256 entries then past the product's 192 (slower in 8 of 10),
    on GHZ5's 137 against 112 at one rate and 364 against 206 at three
    (slower in 8 of 8 each), on GHZ7's 2.59 s against 0.77 at one rate (all
    measured while the support form still damped entry by entry).  The
    support form's
    Kronecker factors grow as b^4: with b = 8 it measured 2.1 times slower
    than the grouped form even on a sparse support (d = 32), with b = 16
    8.9 times (d = 64), hence TILE = 4, the largest group of a protocol
    step.

    MATRIX = 320 is measured on G alone (one application to random float
    rows, one BLAS thread, 2-core guest), against the bincount gather the
    feeds replaced, which the feeds beat at every size measured.  On the
    supports of the open GHZ5-GHZ9 effective steps (b = 2, two members,
    best of 15 x 50 calls) the product took 2.6 us at 48 tiles and 11 at
    120 against the feeds' 14 and 24, 50-57 us at 272 tiles against the
    feeds' 47-49 and the gather's 127, and 555 us at 584 tiles against the
    feeds' 107 and the gather's 382; the feeds took 233 us at 1,216 tiles
    and 495 at 2,488, the gather 1,163 and 4,012.  Up to MATRIX the
    matrices take K T^2 8 bytes per damping, 0.8 MiB a member at T = 320."""
    rho0 = np.asarray(rho0)
    if rho0.ndim not in (2, 3):
        raise ValueError(f"rho0 has shape {rho0.shape}; expected (d, d) or (K, d, d)")
    single = rho0.ndim == 2
    rho = np.array(rho0, dtype=complex, order="C", ndmin=3)
    _check_members(rho, single)
    members, dim = rho.shape[0], rho.shape[-1]
    rates = {mask: rate for mask, rate in rates.items() if rate.any()}
    times = grid.times
    drift = np.zeros(members)
    min_eig = np.linalg.eigvalsh(rho)[:, 0]
    check_every = max(1, grid.steps // CHECKPOINTS)
    form = None  # (steps, node buffer, reading, the diagonal's positions and levels)
    final = None  # the last damped node; after the last block, the final state

    def advance(start: int, u: np.ndarray, which: np.ndarray) -> None:
        nonlocal drift, min_eig, final, form
        if form is None:
            # rho is carried as sigma; the first step damps by dt/2, every later one by dt
            steps, buf, reading = _open_form(rho, u.shape[-1], rates, grid.dt,
                                             min(BLOCK, grid.steps))
            entries = reading[-1]
            on = np.flatnonzero(entries % (dim + 1) == 0)
            form = (steps, buf, reading, (on, entries[on] // (dim + 1)))
            buf[:, 0] = rho.reshape(members, dim * dim)[:, entries]
            observe(0, buf[:, :1], (None, entries))
        steps, buf, reading, diagonal = form
        steps(u, which)
        block = buf[:, :len(u)]
        index = np.arange(start + 1, start + len(u) + 1)
        checked = (index % check_every == 0) | (index == grid.steps)
        node_drift = np.abs(_traces(block, *diagonal, dim) - 1.0)
        if checked.any():  # most blocks hold no checkpoint
            damped = _matrices(block[:, checked], reading, np.zeros(
                (members, np.count_nonzero(checked), dim, dim), dtype=complex))
            node_drift[:, checked] = np.maximum(node_drift[:, checked],
                                                np.abs(damped.trace(axis1=2, axis2=3).real - 1.0))
        bad = ~(node_drift <= TOL.trace_drift_error)  # written so that nan fails it
        if bad.any():
            j = int(np.argmax(bad.any(axis=0)))
            k = int(np.argmax(bad[:, j]))
            raise StepSizeError(f"trace drifted by {node_drift[k, j]:.3e} at "
                                f"t = {times[start + j + 1]:.6f}", None if single else k)
        drift = np.maximum(drift, node_drift.max(axis=1))
        if checked.any():
            min_eig = np.minimum(min_eig, np.linalg.eigvalsh(damped)[..., 0].min(axis=1))
            final = damped[:, -1:]
        observe(start + 1, block, reading)

    def finish() -> DensityTrajectory:
        if not np.all(min_eig >= -TOL.positivity_drift):  # a nan eigenvalue fails too
            k = int(np.argmax(~(min_eig >= -TOL.positivity_drift)))
            raise StepSizeError(f"density matrix eigenvalue reached {min_eig[k]:.3e}",
                                None if single else k)
        if single:
            return DensityTrajectory(times[-1:], final[0], float(drift[0]), float(min_eig[0]))
        return DensityTrajectory(times[-1:], final, drift, min_eig)
    return advance, finish


def propagate_lindblad(hamiltonian: Callable[[np.ndarray], np.ndarray],
                       dissipators: list[Dissipator], rho0: np.ndarray,
                       grid: TimeGrid, observe: Callable | None = None) -> DensityTrajectory:
    """Strang split steps rho <- D(dt/2) U D(dt/2) rho of the master equation.

    `rho0` is one (d, d) density matrix or a (K, d, d) stack of them, and
    every channel's operator must be a qubit lowering operator |g><e|
    embedded in the d levels, in any bit order; any other operator raises
    ValueError naming its channel (see the module docstring).  H is
    evaluated once per span of intervals, at their midpoints, for all
    members at once, as a dense matrix or as its blocks over S consecutive
    groups of the levels, and must be Hermitian to 1e-10 (relative).  Raises
    :class:`StepSizeError` when a member's trace drifts by more than 1e-6 or
    its smallest eigenvalue at one of CHECKPOINTS checkpoints falls below
    -1e-7; a nan fails both.
    `observe(first, states)` receives node 0 and then each block's nodes,
    at most BLOCK of them, as an (n, d, d) view, (K, n, d, d) for a stack,
    of a buffer the propagator may reuse (copy what you keep); with it the
    result holds only the final node, without it every node.  A block is
    observed only once all its steps passed the trace check; the eigenvalue
    check comes after the last block.
    """
    shape = np.shape(rho0)
    members = 1 if len(shape) == 2 else shape[0]
    out = None
    if observe is None:
        out = np.empty(shape[:-2] + (grid.steps + 1,) + shape[-2:], dtype=complex)
        observe = _recorder(out, 2)
    rates = _decay_rates(dissipators, shape[-1], members)
    nodes = np.zeros((members, min(BLOCK, grid.steps)) + shape[-2:], dtype=complex)

    def read(first: int, sigma: np.ndarray, reading: tuple) -> None:
        rho = _matrices(sigma, reading, nodes)
        observe(first, rho[0] if len(shape) == 2 else rho)
    run = _lindblad_run(rates, rho0, grid, read)
    traj = _propagate(hamiltonian, grid, shape[-1], [run])[0]
    if out is not None:
        traj.times, traj.matrices = grid.times, out
    return traj


def von_neumann_residual(v: np.ndarray, dv: np.ndarray, h: np.ndarray):
    """|| dP/dt + i [H, P] ||_F for the rank-1 projector P = |v><v|.

    `dv` is dv/dt at the same instant, so dP/dt = |dv><v| + |v><dv|.  A
    vanishing residual is the exact transitionless-evolution condition for
    the state P projects onto.  Stacks v, dv of shape (..., d) and h of shape
    (..., d, d) give one residual per instant.  H may also come as its
    (..., S, b, b) blocks over S consecutive groups of b levels of v, the
    propagators' contract (see the module docstring).

    The d x d matrix M = dP/dt + i [H, P] is never formed: with
    a = dv + i H v it is |a><v| + |v><a|, of rank two.  Splitting a into its
    part along v, v c / n with n = <v|v> and c = <v|a>, and the rest
    a_perp = a - v c / n leaves three mutually orthogonal terms, so

        ||M||_F^2 = 2 n ||a_perp||^2 + 4 (Re c)^2,

    O(d) per instant beyond H v.  The shorter 2 n ||a||^2 + 2 Re(c^2) is the
    same number in exact arithmetic, but on an exact passage a is close to
    i lambda v and its two terms cancel, leaving round-off of ~1e-8 lambda n,
    the size of the relative residual bound itself.  v = 0 gives 0.
    """
    a = dv + 1j * np.einsum("...ij,...j->...i", h, v.reshape(h.shape[:-1])).reshape(v.shape)
    n = np.sum(v.real ** 2 + v.imag ** 2, axis=-1)
    c = np.sum(np.conj(v) * a, axis=-1)
    perp = a - v * np.divide(c, n, out=np.zeros_like(c), where=n > 0)[..., None]
    # np.square, not ** 2: on the float of one instant ** 2 is pow(), which
    # can round otherwise than the x*x an array gets
    return np.sqrt(2.0 * n * np.sum(perp.real ** 2 + perp.imag ** 2, axis=-1)
                   + 4.0 * np.square(c.real))


def gd_matrices(frame, hamiltonian: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Geometric and dynamical coefficient matrices in the frame basis.

    G[k, n] = i <mu_k | d mu_n / dt> and D[k, n] = <mu_k | H | mu_n>.  G is
    Hermitian to 1e-10 because the frame stays orthonormal.
    """
    v = frame.vectors
    dv = frame.derivatives
    g = 1j * (np.conj(v.T) @ dv)
    d = np.conj(v.T) @ np.asarray(hamiltonian, dtype=complex) @ v
    if not hermiticity_defect(g) <= 1e-10:  # a NaN fails it too
        raise ValueError("geometric matrix is not Hermitian; frame derivatives are inconsistent")
    return g, d


def reconstruct_evolution(frames, phases) -> np.ndarray:
    """Evolution operators U(t) = sum_k e^{i f_k(t)} |mu_k(t)><mu_k(0)|.

    `frames` is either one frame built on the same grid as `phases` (either
    a GeneratedPhases object or a (K, L) phase matrix) or a sequence of
    frames on that grid.  Each U is unitary to 1e-10 by orthonormality of the
    frames.
    """
    f = phases.as_matrix() if hasattr(phases, "as_matrix") else np.asarray(phases)
    vectors = frames.vectors if hasattr(frames, "vectors") else np.array(
        [frame.vectors for frame in frames])
    if len(vectors) != f.shape[1]:
        raise ValueError(f"{len(vectors)} frames but {f.shape[1]} phase samples")
    dim = vectors.shape[-1]
    out = (vectors * np.exp(1j * f.T)[:, None, :]) @ dagger(vectors[0])
    defects = frobenius(dagger(out) @ out - np.eye(dim))
    if not np.all(defects <= 1e-10):  # a NaN fails it too
        raise ValueError(f"reconstructed operator is not unitary (defect {np.max(defects):.3e})")
    return out


def populations(states: np.ndarray, ket: np.ndarray) -> np.ndarray:
    """|<ket|psi(t)>|^2 along pure states (T, d), or <ket|rho(t)|ket> along
    density matrices (T, d, d) or a stack of them (K, T, d, d); against a
    target ket this is the fidelity.  An (a, d) stack of kets gives the a
    series in front: one product for density matrices, one per ket for pure
    states, whose two-ket product would round differently."""
    ket = np.asarray(ket)
    kets = ket.reshape(-1, ket.shape[-1])
    if states.ndim == 2:
        out = np.array([np.abs(states @ np.conj(k)) ** 2 for k in kets])
    else:
        out = np.real(np.einsum("ai,...ij,aj->a...", np.conj(kets), states, kets))
    return out.reshape(ket.shape[:-1] + out.shape[1:])
