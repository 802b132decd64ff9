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
propagator carries sigma = U D rho in one buffer and advances it in one of
two forms, chosen by the size d alone.  Above DENSE levels a step damps it
in place once by D(dt), through views bound once per propagation, then
takes u sigma u+ group by group (see below).  Up to DENSE levels, where a
step costs numpy's fixed per-call time rather than arithmetic, D(dt) is
compiled once per propagation into its Liouville matrix, one d^2 x d^2
matrix per member made by applying D to the d^2 basis matrices, and a step
is three dense products: vec(sigma) by that matrix, then by u and by u+
whole.  The two forms agree to round-off.  A node
rho = D(dt/2) sigma is formed only where it is needed: at the positivity
checkpoints and the end.  Every value read from a node is linear in rho,
tr(O D(sigma)) = tr(D+(O) sigma), so an observer can pull its observables
back through the adjoint channel D+ once per propagation and read sigma
(the Heisenberg picture, `_heisenberg`); `propagate_lindblad` damps each
block in place for its observer instead.  Positivity and trace are still
checked, never enforced: a violation beyond tolerance fails loudly.

`propagate_lindblad` also carries a stack of K density matrices, shape
(K, d, d).  The members share H and the channels; each `Dissipator.rate`
is one rate for all of them or an array of K rates, one per member.  Every
member gets exactly the arithmetic of a single-matrix run with its own
rates, so member k of a stack equals that run bit for bit, and every check
(trace drift, checkpoint eigenvalues, the initial density-matrix check)
runs per member.  Each member fails where its own run would: on trace
drift at the step where it trips, on a checkpoint eigenvalue when the
propagation ends.  The error raised is that of the first member, in stack
order, among those failing at the earliest grid step; the exception carries
its index as the `member` attribute.

Both propagators take the Hamiltonian as a callable of time that accepts an
array of times and returns its matrices there, in one of two forms.  A
(len(t), S, b, b) stack of blocks says that H is block diagonal over S
consecutive groups of b levels of the state (S b = d): block s acts on
levels s b ... s b + b - 1 and H vanishes between groups.  A (len(t), d, d)
stack is the S = 1 case of the same contract, and a time-independent (d, d)
matrix is broadcast.  The propagators call it once per span of SPAN grid
intervals, at the interval midpoints, so the fields behind H are evaluated
on whole arrays, and exponentiate each distinct block once per span: groups
whose b-by-b blocks hold the same bytes at every time of the span are
exponentiated once for all of them, which gives the bits of exponentiating
every group (a protocol step's d/b spectator groups hold at most two
distinct blocks).  H is taken at the same midpoints whatever the span, so
SPAN moves no bit of a result.  Closed runs advance the state group by
group; open runs above DENSE levels take u rho u+ as two grouped products
of (b, b) blocks by (b, d) rows, and up to DENSE levels scatter the blocks
into dense u and u+ once per block of steps.
Ordering the levels so that H falls into groups is the caller's business;
with S = 1 the arithmetic is the dense one.  `von_neumann_residual` takes
H in the same two forms.  Both propagators reject an H that is not finite
or not Hermitian, naming the first time at which it is not.

Each propagator is one run of a private driver, `_propagate`, that hands
each block of step unitaries to every run it carries, so the protocol
runner's pure state and density stack advance on one stream of them.  A
run checks its entry state when it is built, before any step; for a state
one protocol step hands the next, that is the only check.

Neither propagator keeps the trajectory itself.  Each hands the nodes it
computes to an observer, `observe(first, states)`, called once with node 0
and then once per block of at most BLOCK nodes (SPAN / BLOCK blocks per
span) with that block's nodes, `first` being the grid index of the first
of them; the indices cover 0 ... steps once each, in order.
`states` is a view of one buffer the propagator reuses for every call, shape
(n, d) for a pure state, (n, d, d) for one density matrix and (K, n, d, d)
for a stack, so an observer must copy whatever it keeps.  Without an
observer the propagator records every node and returns the whole trajectory;
with one it returns only the end node (`times[-1:]`) with the diagnostics, so
a run holds O(BLOCK K d^2) numbers of state instead of O(steps K d^2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
SPAN = 256  # grid intervals per Hamiltonian evaluation, a multiple of BLOCK
CHECKPOINTS = 10  # positivity checks per open propagation
DENSE = 8  # largest d whose open steps take the dense form (see _lindblad_run)


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
        if self.steps < 1:
            raise ValueError("need at least one step")
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


def _step_unitaries(hamiltonian: Callable, t_mid: np.ndarray, dim: int, dt: float) -> np.ndarray:
    """exp(-i H dt) at every midpoint of `t_mid` as a (len(t_mid), S, b, b)
    stack of blocks over S groups of b levels, S = 1 for a dense H (see the
    module docstring); an H that is not finite or not Hermitian to 1e-10
    (relative) raises ValueError naming its first such time.  Groups whose
    (len(t_mid), b, b) columns hold equal bytes are exponentiated once, in
    one call for all distinct columns; equal bytes give equal bits, so the
    result is that of exponentiating every group."""
    h = np.asarray(hamiltonian(t_mid), dtype=complex)
    if h.ndim < 4:
        h = h[..., None, :, :]
    h = np.broadcast_to(h, t_mid.shape + h.shape[-3:])
    groups, size = h.shape[-3], h.shape[-1]
    if h.shape[-2] != size or groups * size != dim:
        raise ValueError(f"Hamiltonian blocks of shape {h.shape[-3:]} do not cover "
                         f"the state's {dim} levels")
    bad = ~np.isfinite(h).all(axis=(-3, -2, -1))
    if np.any(bad):
        raise ValueError(f"Hamiltonian is not finite at t = {t_mid[np.argmax(bad)]:.6f}")
    bad = hermiticity_defect(h, axis=(-3, -2, -1)) > 1e-10
    if np.any(bad):
        raise ValueError(f"Hamiltonian is not Hermitian at t = {t_mid[np.argmax(bad)]:.6f}")
    slot: dict = {}  # the bytes of a group's (T, b, b) column -> its distinct index
    which = [slot.setdefault(h[:, s].tobytes(), len(slot)) for s in range(groups)]
    u = expm_hermitian(h[:, [which.index(i) for i in range(len(slot))]], -1j * dt)
    return u[:, which]


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
    goes to every run in turn as advance(start, u), `start` being the grid
    interval of u[0]; a failure in H or in any run stops them all."""
    mids = grid.times[:-1] + 0.5 * grid.dt
    for span in range(0, mids.size, SPAN):
        u = _step_unitaries(hamiltonian, mids[span:span + SPAN], dim, grid.dt)
        for first in range(0, len(u), BLOCK):
            for advance, _ in runs:
                advance(span + first, u[first:first + BLOCK])
    return [finish() for _, finish in runs]


def _schrodinger_run(psi0: np.ndarray, grid: TimeGrid, observe: Callable | None = None) -> tuple:
    """The run of `propagate_schrodinger` as an (advance, finish) pair for
    `_propagate`: the entry check (check_state_vector) and node 0 happen
    here, finish() returns the StateTrajectory."""
    psi = check_state_vector(psi0).astype(complex)
    times = grid.times
    out = None
    if observe is None:
        out = np.empty((times.size, psi.size), dtype=complex)
        observe = _recorder(out, 1)
    buf = np.empty((min(BLOCK, grid.steps), psi.size), dtype=complex)
    buf[0] = psi
    observe(0, buf[:1])
    drift = 0.0

    def advance(start: int, u: np.ndarray) -> None:
        nonlocal psi, drift
        nodes = buf[:len(u)]
        grouped = nodes.reshape(u.shape[:2] + (-1, 1))  # each node as (S, b, 1) columns
        psi = psi.reshape(grouped.shape[1:])
        for j, step in enumerate(u):
            psi = step @ psi
            grouped[j] = psi
        # frobenius sums each node's squares as np.linalg.norm does
        drift = max(drift, float(np.max(np.abs(frobenius(nodes[:, None, :]) - 1.0))))
        observe(start + 1, nodes)

    def finish() -> StateTrajectory:
        if out is None:
            return StateTrajectory(times[-1:], psi.reshape(1, -1), drift)
        return StateTrajectory(times, out, drift)
    return advance, finish


def propagate_schrodinger(hamiltonian: Callable[[np.ndarray], np.ndarray],
                          psi0: np.ndarray, grid: TimeGrid,
                          observe: Callable | None = None) -> StateTrajectory:
    """Midpoint-exponential propagation of a pure state.

    H is evaluated at the interval midpoints, one span of SPAN of them per
    call, as a dense matrix or as its blocks over S consecutive groups of the
    state's levels (see the module docstring for the callable's contract).
    It must be Hermitian to 1e-10 (relative); each step exponentiates the
    S blocks and advances psi group by group, so the propagator is unitary
    up to round-off and norm drift only reflects accumulated floating-point
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
    """D(tau) as its feeds [(mask, p)], p = 1 - exp(-rate tau) shaped to
    broadcast over a (K, n, ...) view of `_bits`, and its (K, 1, d, d) weight.
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


def _liouville(damping: tuple, members: int, dim: int) -> np.ndarray:
    """D (see `_damping`) as its (K, d^2, d^2) matrices M, one per member,
    with vec(D(x)) = vec(x) @ M for x flattened in C order: row (i, j) of M
    is D(|i><j|), made by `_damper` itself, so D keeps one definition."""
    basis = np.empty((members, dim * dim, dim, dim), dtype=complex)
    basis[:] = np.eye(dim * dim).reshape(dim * dim, dim, dim)
    _damper(basis, *damping)()
    return basis.reshape(members, dim * dim, dim * dim)


def _heisenberg(observables: np.ndarray, feeds: list, weight: np.ndarray) -> np.ndarray:
    """D+(O) for each of the (a, d, d) `observables` O, with D given by its
    feeds and weight (see `_damping`): the (K, a, d, d) operators, one set
    per member, with tr(D+(O) sigma) = tr(O D(sigma)).  D applies the
    weight after the feeds, so D+ applies it first, then the feeds' adjoints
    ee += p gg in reverse order."""
    out = observables * weight
    for mask, p in reversed(feeds):
        v = _bits(out, mask)
        v[..., 0, :, :, 0, :] += p * v[..., 1, :, :, 1, :]
    return out


def _damped(observe: Callable, single: bool) -> Callable:
    """The public observer contract over an open run's sigma nodes (see
    `_lindblad_run`): each block is damped in place, in the run's own
    buffer, and handed to `observe` as (n, d, d), or (K, n, d, d) for a
    stack."""
    def read(first: int, sigma: np.ndarray, damping: tuple | None) -> None:
        if damping is not None:
            _damper(sigma, *damping)()
        observe(first, sigma[0] if single else sigma)
    return read


def _check_members(rho: np.ndarray) -> None:
    """check_density_matrix on every member; a failure names its member."""
    for k, member in enumerate(rho):
        try:
            check_density_matrix(member)
        except ValueError as exc:
            exc.member = k
            raise


def _grouped_steps(sigma: np.ndarray, half: tuple, full: tuple, buf: np.ndarray) -> Callable:
    """The split steps of a block of step unitaries u, (n, S, b, b), on the
    (K, d, d) stack sigma, in place, node j going to buf[:, j]: each damps
    sigma through `_damper`'s views, by `half` (D(dt/2)) at the first step
    and `full` (D(dt)) after it, then takes u sigma u+ as two grouped
    products of the blocks with sigma's (S, b, d) rows."""
    damp, damp_full = (_damper(sigma[:, None], *damping) for damping in (half, full))

    def steps(u: np.ndarray) -> None:
        nonlocal damp
        rows = sigma.shape[:1] + u.shape[1:3] + sigma.shape[-1:]
        for j, (step, step_conj) in enumerate(zip(u, u.conj())):
            damp()
            damp = damp_full
            # u sigma u+ = conj(conj(u) (u sigma)^T) for a Hermitian sigma
            left = (step @ sigma.reshape(rows)).reshape(sigma.shape)
            np.conj(step_conj @ left.swapaxes(1, 2).reshape(rows), out=sigma.reshape(rows))
            buf[:, j] = sigma
    return steps


def _dense_steps(sigma: np.ndarray, half: tuple, full: tuple, buf: np.ndarray) -> Callable:
    """`_grouped_steps` in three dense products per step: vec(sigma) by the
    (K, d^2, d^2) Liouville matrix of D (`_liouville`, compiled once), then
    by u and by u+ whole, each scattered from the blocks once per block."""
    members, dim = sigma.shape[0], sigma.shape[-1]
    liouville, liouville_full = (_liouville(damping, members, dim) for damping in (half, full))
    vec = sigma.reshape(members, 1, dim * dim)
    damped = np.empty_like(sigma)
    left = np.empty_like(sigma)
    whole = np.zeros((2, buf.shape[1], dim, dim), dtype=complex)  # u and u+ of each step

    def steps(u: np.ndarray) -> None:
        nonlocal liouville
        n, groups, size = u.shape[:3]
        diagonal = whole[:, :n].reshape(2, n, groups, size, groups, size)
        for s in range(groups):
            diagonal[0, :, s, :, s] = u[:, s]
            diagonal[1, :, s, :, s] = u[:, s].conj().swapaxes(1, 2)
        for j in range(n):
            np.matmul(vec, liouville, out=damped.reshape(vec.shape))
            liouville = liouville_full
            np.matmul(whole[0, j], damped, out=left)
            np.matmul(left, whole[1, j], out=sigma)
            buf[:, j] = sigma
    return steps


def _lindblad_run(dissipators: list[Dissipator], rho0: np.ndarray, grid: TimeGrid,
                  observe: Callable) -> tuple:
    """The run of `propagate_lindblad` as an (advance, finish) pair for
    `_propagate`: the entry checks (`_check_members` on a stack, naming a
    failing member) and node 0 happen here, advance() raises the trace gate
    at the block that trips it, finish() the checkpoint eigenvalue gate, and
    returns the DensityTrajectory of the final node.

    `observe(first, sigma, damping)` gets node 0 as the (K, 1, d, d) stack
    itself with damping None, then each block's (K, n, d, d) nodes sigma,
    undamped, in one reused buffer, with damping the (feeds, weight) of
    D(dt/2) that makes them the nodes rho (see `_damping`).  The observer
    may overwrite the block: the run reads nothing of it after the call,
    and the next steps overwrite it.  The trace gate reads every sigma node
    and every damped node; only the checkpoint nodes and the final one are
    damped, for the eigenvalue gate and the result, in copies of their own.

    The steps take one of two forms, chosen by d alone: up to DENSE levels
    `_dense_steps` (three dense products, D as its compiled Liouville
    matrices), above it `_grouped_steps` (D in place through `_damper`'s
    views, u sigma u+ by groups).  At d = 16 the dense form measured slower,
    its d^2 x d^2 product growing as d^4, so DENSE is 8."""
    rho0 = np.asarray(rho0)
    single = rho0.ndim == 2
    if single:
        rho = check_density_matrix(rho0).astype(complex, order="C")[None]
    elif rho0.ndim == 3:
        rho = rho0.astype(complex, order="C")
        _check_members(rho)
    else:
        raise ValueError(f"rho0 has shape {rho0.shape}; expected (d, d) or (K, d, d)")
    members, dim = rho.shape[0], rho.shape[-1]
    rates = _decay_rates(dissipators, dim, members)
    dt = grid.dt
    half, full = (_damping(rates, tau, members, dim) for tau in (0.5 * dt, dt))
    times = grid.times
    buf = np.empty((members, min(BLOCK, grid.steps), dim, dim), dtype=complex)
    buf[:, 0] = rho
    observe(0, buf[:, :1], None)
    drift = np.zeros(members)
    min_eig = np.linalg.eigvalsh(rho)[:, 0]
    check_every = max(1, grid.steps // CHECKPOINTS)

    # rho is carried in place as sigma; the first step damps by dt/2, every later one by dt
    steps = (_dense_steps if dim <= DENSE else _grouped_steps)(rho, half, full, buf)
    final = None  # the last damped node; after the last block, the final state

    def advance(start: int, u: np.ndarray) -> None:
        nonlocal drift, min_eig, final
        steps(u)
        block = buf[:, :len(u)]
        index = np.arange(start + 1, start + len(u) + 1)
        checked = (index % check_every == 0) | (index == grid.steps)
        damped = block[:, checked]
        if checked.any():
            _damper(damped, *half)()
        node_drift = np.abs(block.trace(axis1=2, axis2=3).real - 1.0)
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
        observe(start + 1, block, half)

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
    evaluated once per span of SPAN intervals, at their midpoints, for all
    members at once, as a dense matrix or as its blocks over S consecutive
    groups of the levels, and must be Hermitian to 1e-10 (relative).  Raises
    :class:`StepSizeError` when a member's trace drifts by more than 1e-6 or
    its smallest eigenvalue at one of CHECKPOINTS checkpoints falls below
    -1e-7; a nan fails both.
    `observe(first, states)` receives node 0 and then each block's nodes,
    at most BLOCK of them, as an (n, d, d) view, (K, n, d, d) for a stack,
    of a reused buffer (copy what you keep); with it the result holds only
    the final node, without it every node.  A block is observed only once
    all its steps passed the trace check; the eigenvalue check comes after
    the last block.
    """
    shape = np.shape(rho0)
    out = None
    if observe is None:
        out = np.empty(shape[:-2] + (grid.steps + 1,) + shape[-2:], dtype=complex)
        observe = _recorder(out, 2)
    run = _lindblad_run(dissipators, rho0, grid, _damped(observe, len(shape) == 2))
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
    a = dv + 1j * (h @ v.reshape(h.shape[:-1] + (1,))).reshape(v.shape)
    n = np.sum(v.real ** 2 + v.imag ** 2, axis=-1)
    c = np.sum(np.conj(v) * a, axis=-1)
    perp = a - v * np.divide(c, n, out=np.zeros_like(c), where=n > 0)[..., None]
    return np.sqrt(2.0 * n * np.sum(perp.real ** 2 + perp.imag ** 2, axis=-1) + 4.0 * c.real ** 2)


def gd_matrices(frame, hamiltonian: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Geometric and dynamical coefficient matrices in the frame basis.

    G[k, n] = i <mu_k | d mu_n / dt> and D[k, n] = <mu_k | H | mu_n>.  G is
    Hermitian to 1e-10 because the frame stays orthonormal.
    """
    v = frame.vectors
    dv = frame.derivatives
    g = 1j * (np.conj(v.T) @ dv)
    d = np.conj(v.T) @ np.asarray(hamiltonian, dtype=complex) @ v
    if hermiticity_defect(g) > 1e-10:
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
    if np.any(defects > 1e-10):
        defect = defects[np.argmax(defects > 1e-10)]
        raise ValueError(f"reconstructed operator is not unitary (defect {defect:.3e})")
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
