"""Closed- and open-system propagation plus passage diagnostics.

Closed dynamics uses a midpoint exponential propagator, exp(-i H(t_mid) dt)
per step, which is unitary by construction.  Open dynamics integrates

    drho/dt = -i[H(t), rho] + sum_j (rate_j / 2) * (2 L_j rho L_j+
                                                    - L_j+ L_j rho - rho L_j+ L_j)

with classic RK4, re-Hermitizing the state each step.  With that convention a
single decaying qubit loses excited population as exp(-rate * t).  Positivity
is monitored at checkpoints, never enforced: a violation beyond tolerance
means the step size is wrong and should fail loudly.

The channels are compiled once per propagation.  K = sum_j rate_j L_j+ L_j
folds into the effective Hamiltonian H_eff = H - (i/2) K, and with
G = -i H_eff the commutator and anticommutator become G rho + (G rho)+: one
product G rho per right-hand side whatever the channel count.  The identity
holds for Hermitian rho, and every RK4 stage input is one: the state is
re-Hermitized after each step, and a stage adds to it G rho + (G rho)+,
Hermitian by construction, and the jump sum, Hermitian up to the order its
terms are summed in.  The jump sum sum_j rate_j L_j rho L_j+ is kept as
flat (src, weight) pairs, one per pair of nonzeros of each L_j, gathered from
rho and scattered by one bincount over the float view of the complex terms;
it costs O(sum_j nnz(L_j)^2), d^2/4 per qubit lowering operator and the dense
superoperator for a dense L.

`propagate_lindblad` also carries a stack of K density matrices, shape
(K, d, d), through one RK4 loop.  The members share H and the jump operators;
each `Dissipator.rate` is one rate for all of them or an array of K rates, one
per member.  Every member gets exactly the arithmetic of a single-matrix run
with its own rates, so member k of a stack equals that run bit for bit, and
every check (trace drift, checkpoint eigenvalues, the initial density-matrix
check) runs per member.  Each member fails where its own run would: on trace
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
matrix is broadcast.  The propagators call it once per block of BLOCK grid
intervals (closed runs at the interval midpoints, open runs at the nodes and
midpoints of the block), so the fields behind H are evaluated on whole
arrays.  Closed runs exponentiate a block of times with one batched
eigendecomposition of all its S-by-b-by-b blocks and advance the state group
by group; open runs form G = -i H_eff per group, which needs the compiled
decay K to be block diagonal over the same groups (a K that couples two
groups raises ValueError rather than a silent dense fallback), and take
G rho as S products of (b, b) by (b, d) rows.  Ordering the levels so that H
falls into groups is the caller's business; with S = 1 the arithmetic is
the dense one.  `von_neumann_residual` takes H in the same two forms.  Both
propagators reject an H that is not finite, naming the first time at which
it is not.

Neither propagator keeps the trajectory itself.  Each hands the nodes it
computes to an observer, `observe(first, states)`, called once with node 0
and then once per block with that block's nodes, `first` being the grid index
of the first of them; the indices cover 0 ... steps once each, in order.
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


BLOCK = 64  # grid intervals per Hamiltonian evaluation
CHECKPOINTS = 10  # positivity checks per open propagation


class StepSizeError(RuntimeError):
    """Integration diagnostics exceeded their hard bounds; use more steps.

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
    rate, or for a stack of density matrices an array of one rate per member."""

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


def _hamiltonian_blocks(hamiltonian: Callable, times: np.ndarray, dim: int) -> np.ndarray:
    """H at every entry of `times` as a (len(times), S, b, b) complex stack of
    blocks over S groups of b levels, S = 1 for a dense H (see the module
    docstring)."""
    h = np.asarray(hamiltonian(times), dtype=complex)
    if h.ndim < 4:
        h = h[..., None, :, :]
    h = np.broadcast_to(h, times.shape + h.shape[-3:])
    groups, size = h.shape[-3], h.shape[-1]
    if h.shape[-2] != size or groups * size != dim:
        raise ValueError(f"Hamiltonian blocks of shape {h.shape[-3:]} do not cover "
                         f"the state's {dim} levels")
    bad = ~np.isfinite(h).all(axis=(-3, -2, -1))
    if np.any(bad):
        raise ValueError(f"Hamiltonian is not finite at t = {times[np.argmax(bad)]:.6f}")
    return h


def _recorder(out: np.ndarray, core: int) -> Callable:
    """The default observer: copies each block into `out`, whose time axis
    comes before its `core` state axes."""
    def observe(first: int, states: np.ndarray) -> None:
        time = slice(first, first + states.shape[-core - 1])
        out[(..., time) + (slice(None),) * core] = states
    return observe


def propagate_schrodinger(hamiltonian: Callable[[np.ndarray], np.ndarray],
                          psi0: np.ndarray, grid: TimeGrid,
                          observe: Callable | None = None) -> StateTrajectory:
    """Midpoint-exponential propagation of a pure state.

    H is evaluated at the interval midpoints, one block of BLOCK of them per
    call, as a dense matrix or as its blocks over S consecutive groups of the
    state's levels (see the module docstring for the callable's contract).
    It must be Hermitian to 1e-10 (relative); each step exponentiates the
    S blocks and advances psi group by group, so the propagator is unitary
    up to round-off and norm drift only reflects accumulated floating-point
    error.
    `observe(first, states)` receives node 0 and then each block's nodes as
    an (n, d) view of a reused buffer (copy what you keep); with it the
    result holds only the final node, without it every node.
    """
    psi = check_state_vector(psi0).astype(complex)
    times = grid.times
    out = None
    if observe is None:
        out = np.empty((times.size, psi.size), dtype=complex)
        observe = _recorder(out, 1)
    buf = np.empty((min(BLOCK, grid.steps), psi.size), dtype=complex)
    buf[0] = psi
    observe(0, buf[:1])
    dt = grid.dt
    mids = times[:-1] + 0.5 * dt
    drift = 0.0
    for start in range(0, grid.steps, BLOCK):
        t_mid = mids[start:start + BLOCK]
        h = _hamiltonian_blocks(hamiltonian, t_mid, psi.size)
        bad = hermiticity_defect(h, axis=(-3, -2, -1)) > 1e-10
        if np.any(bad):
            raise ValueError(f"Hamiltonian is not Hermitian at t = {t_mid[np.argmax(bad)]:.6f}")
        nodes = buf[:t_mid.size]
        grouped = nodes.reshape(h.shape[:2] + (-1, 1))  # each node as (S, b, 1) columns
        psi = psi.reshape(grouped.shape[1:])
        for j, u in enumerate(expm_hermitian(h, -1j * dt)):
            psi = u @ psi
            grouped[j] = psi
        # frobenius sums each node's squares as np.linalg.norm does
        drift = max(drift, float(np.max(np.abs(frobenius(nodes[:, None, :]) - 1.0))))
        observe(start + 1, nodes)
    psi = psi.reshape(-1)
    if out is None:
        return StateTrajectory(times=times[-1:], states=psi[None], norm_drift=drift)
    return StateTrajectory(times=times, states=out, norm_drift=drift)


def _compile_dissipators(dissipators: list[Dissipator], dim: int, members: int = 1):
    """Per member k, K_k = sum_j rate_jk L_j+ L_j, and the jump sum as a
    gather-scatter triple (bins, src, weight).

    (L rho L+)[a, b] = sum L[a, i] conj(L[b, j]) rho[i, j] over the nonzeros
    L[a, i] and L[b, j], so each pair of nonzeros adds rho.flat[i*d + j] with
    weight rate L[a, i] conj(L[b, j]) into entry a*d + b.  `weight` is
    (members, n); `bins` holds, for each member and pair, the positions of
    the real and imaginary parts of its destination entry in the float view
    of a (members, d, d) complex stack.
    """
    decay = np.zeros((members, dim, dim), dtype=complex)
    dst, src, weight = [np.empty(0, np.intp)], [np.empty(0, np.intp)], [np.empty((members, 0))]
    for d in dissipators:
        op = np.asarray(d.operator, dtype=complex)
        if op.shape != (dim, dim):
            raise ValueError(f"jump operator has shape {op.shape}; the state needs {(dim, dim)}")
        rate = np.asarray(d.rate, dtype=float)
        if rate.shape not in ((), (members,)):
            raise ValueError(f"dissipation rate has shape {rate.shape}; "
                             f"the state stack needs {members} rates")
        rate = np.broadcast_to(rate, (members,))
        decay += rate[:, None, None] * (dagger(op) @ op)
        rows, cols = np.nonzero(op)
        vals = op[rows, cols]
        dst.append((rows[:, None] * dim + rows).ravel())
        src.append((cols[:, None] * dim + cols).ravel())
        weight.append(rate[:, None] * np.outer(vals, np.conj(vals)).ravel())
    dst = np.concatenate(dst) + dim * dim * np.arange(members)[:, None]
    bins = (2 * dst[..., None] + np.arange(2)).ravel()
    return decay, (bins, np.concatenate(src), np.concatenate(weight, axis=1))


def _lindblad_rhs(g: np.ndarray, rho: np.ndarray, jumps) -> np.ndarray:
    """drho/dt for a (K, d, d) stack of Hermitian rho, with g = -i H_eff per
    member as its (S, b, b) blocks over S consecutive groups of b levels, or
    as one (d, d) matrix (one group, whose product needs no group axis)."""
    bins, src, weight = jumps
    terms = weight * rho.reshape(len(rho), -1)[:, src]
    jump = np.bincount(bins, terms.view(float).ravel(), 2 * rho.size).view(complex)
    if g.ndim == rho.ndim:
        a = g @ rho
    else:
        a = (g @ rho.reshape((len(rho),) + g.shape[-3:-1] + (-1,))).reshape(rho.shape)
    return a + a.conj().swapaxes(1, 2) + jump.reshape(rho.shape)


def _decay_blocks(decay: np.ndarray, groups: int) -> np.ndarray:
    """The (K, d, d) decay stack as its (K, S, b, b) blocks over S = `groups`
    consecutive groups of levels, ready to meet H's (S, b, b) blocks; a decay
    that couples two groups raises ValueError."""
    members, dim = decay.shape[0], decay.shape[-1]
    size = dim // groups
    blocks = np.einsum("msisj->msij", decay.reshape(members, groups, size, groups, size))
    if np.count_nonzero(blocks) != np.count_nonzero(decay):
        raise ValueError(f"the decay operator couples levels of different groups of the "
                         f"Hamiltonian's {groups} blocks of {size} levels")
    return blocks


def _check_members(rho: np.ndarray) -> None:
    """check_density_matrix on every member; a failure names its member."""
    for k, member in enumerate(rho):
        try:
            check_density_matrix(member)
        except ValueError as exc:
            exc.member = k
            raise


def propagate_lindblad(hamiltonian: Callable[[np.ndarray], np.ndarray],
                       dissipators: list[Dissipator], rho0: np.ndarray,
                       grid: TimeGrid, observe: Callable | None = None) -> DensityTrajectory:
    """RK4 integration of the master equation with per-step re-Hermitization.

    `rho0` is one (d, d) density matrix or a (K, d, d) stack of them (see the
    module docstring).  H is evaluated once per block of BLOCK intervals, at
    its nodes and midpoints in time order, for all members at once, as a
    dense matrix or as its blocks over S consecutive groups of the levels;
    G = -i (H - (i/2) K) is then formed per group, and a decay K that couples
    two groups raises ValueError.  Raises
    :class:`StepSizeError` when a member's trace drifts by more than 1e-6 or
    its smallest eigenvalue at one of CHECKPOINTS checkpoints falls below
    -1e-7; both indicate the grid is too coarse for the requested dynamics.
    `observe(first, states)` receives node 0 and then each block's nodes as
    an (n, d, d) view, (K, n, d, d) for a stack, of a reused buffer (copy
    what you keep); with it the result holds only the final node, without it
    every node.  A block is observed only once all its steps passed the
    trace check; the eigenvalue check comes after the last block.
    """
    rho0 = np.asarray(rho0)
    single = rho0.ndim == 2
    if single:
        rho = check_density_matrix(rho0).astype(complex)[None]
    elif rho0.ndim == 3:
        rho = rho0.astype(complex)
        _check_members(rho)
    else:
        raise ValueError(f"rho0 has shape {rho0.shape}; expected (d, d) or (K, d, d)")
    members, dim = rho.shape[0], rho.shape[-1]
    decay, jumps = _compile_dissipators(dissipators, dim, members)
    times = grid.times
    out = None
    if observe is None:
        out = np.empty((members, times.size, dim, dim), dtype=complex)
        observe = _recorder(out[0] if single else out, 2)
    buf = np.empty((members, min(BLOCK, grid.steps), dim, dim), dtype=complex)
    nodes = buf[0] if single else buf
    buf[:, 0] = rho
    observe(0, nodes[..., :1, :, :])
    dt = grid.dt
    drift = np.zeros(members)
    min_eig = np.linalg.eigvalsh(rho)[:, 0]
    check_every = max(1, grid.steps // CHECKPOINTS)

    for start in range(0, grid.steps, BLOCK):
        stop = min(start + BLOCK, grid.steps)
        # the block's nodes at even and its midpoints at odd positions, in time order
        t_block = np.empty(2 * (stop - start) + 1)
        t_block[0::2] = times[start:stop + 1]
        t_block[1::2] = times[start:stop] + 0.5 * dt
        h = _hamiltonian_blocks(hamiltonian, t_block, dim)
        g = -1j * (h[:, None] - 0.5j * _decay_blocks(decay, h.shape[-3]))
        if h.shape[-3] == 1:  # one group: a plain (d, d) product, without reshapes
            g = g[:, :, 0]
        for i in range(start, stop):
            left = 2 * (i - start)
            k1 = _lindblad_rhs(g[left], rho, jumps)
            k2 = _lindblad_rhs(g[left + 1], rho + 0.5 * dt * k1, jumps)
            k3 = _lindblad_rhs(g[left + 1], rho + 0.5 * dt * k2, jumps)
            k4 = _lindblad_rhs(g[left + 2], rho + dt * k3, jumps)
            rho = rho + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            rho = 0.5 * (rho + rho.conj().swapaxes(1, 2))
            buf[:, i - start] = rho
            drift = np.maximum(drift, np.abs(rho.trace(axis1=1, axis2=2).real - 1.0))
            if (drift > TOL.trace_drift_error).any():
                k = int(np.argmax(drift > TOL.trace_drift_error))
                raise StepSizeError(f"trace drifted by {drift[k]:.3e} at t = {times[i + 1]:.6f}; "
                                    "increase the number of grid steps", None if single else k)
            if (i + 1) % check_every == 0 or i + 1 == grid.steps:
                min_eig = np.minimum(min_eig, np.linalg.eigvalsh(rho)[:, 0])
        observe(start + 1, nodes[..., :stop - start, :, :])

    if np.any(min_eig < -TOL.positivity_drift):
        k = int(np.argmax(min_eig < -TOL.positivity_drift))
        raise StepSizeError(f"density matrix eigenvalue reached {min_eig[k]:.3e}; "
                            "increase the number of grid steps", None if single else k)
    if out is None:
        times, out = times[-1:], rho[:, None]
    if single:
        return DensityTrajectory(times=times, matrices=out[0], trace_drift=float(drift[0]),
                                 min_eigenvalue=float(min_eig[0]))
    return DensityTrajectory(times=times, matrices=out, trace_drift=drift,
                             min_eigenvalue=min_eig)


def von_neumann_residual(v: np.ndarray, dv: np.ndarray, h: np.ndarray):
    """|| dP/dt + i [H, P] ||_F for the rank-1 projector P = |v><v|.

    `dv` is dv/dt at the same instant, so dP/dt = |dv><v| + |v><dv|.  A
    vanishing residual is the exact transitionless-evolution condition for
    the state P projects onto.  Stacks v, dv of shape (..., d) and h of shape
    (..., d, d) give one residual per instant.  H may also come as its
    (..., S, b, b) blocks over S consecutive groups of b levels of v, the
    propagators' contract (see the module docstring).
    """
    hv = (h @ v.reshape(h.shape[:-1] + (1,))).reshape(v.shape)
    v_bra = np.conj(v)[..., None, :]
    mat = (dv[..., :, None] * v_bra + v[..., :, None] * np.conj(dv)[..., None, :]
           + 1j * (hv[..., :, None] * v_bra - v[..., :, None] * np.conj(hv)[..., None, :]))
    return frobenius(mat)


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
