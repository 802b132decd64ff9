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
folds into the effective Hamiltonian H_eff = H - (i/2) K, so the commutator
and anticommutator become -i (H_eff rho - rho H_eff+): two d x d products per
right-hand side whatever the channel count.  The jump sum
sum_j rate_j L_j rho L_j+ is kept as flat (dst, src, weight) triples, one per
pair of nonzeros of each L_j, and applied as one gather and two scatters; it
costs O(sum_j nnz(L_j)^2), d^2/4 per qubit lowering operator and the dense
superoperator for a dense L.

Both propagators take the Hamiltonian as a callable of time that accepts an
array of times and returns the stack of matrices, shape (len(t), d, d); a
time-independent Hamiltonian may return one (d, d) matrix, which is
broadcast.  They call it once per block of BLOCK grid intervals (closed runs
at the interval midpoints, open runs at the nodes and midpoints of the
block), so the fields behind H are evaluated on whole arrays, and closed runs
exponentiate a block with one batched eigendecomposition.
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


class StepSizeError(RuntimeError):
    """Integration diagnostics exceeded their hard bounds; use more steps."""


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
    """One Lindblad channel: a jump operator acting in the full space and its rate."""

    operator: np.ndarray
    rate: float

    def __post_init__(self):
        if self.rate < 0:
            raise ValueError("dissipation rate must be non-negative")


@dataclass
class StateTrajectory:
    times: np.ndarray
    states: np.ndarray          # (len(times), dim)
    norm_drift: float

    @property
    def final(self) -> np.ndarray:
        return self.states[-1]


@dataclass
class DensityTrajectory:
    times: np.ndarray
    matrices: np.ndarray        # (len(times), dim, dim)
    trace_drift: float
    min_eigenvalue: float

    @property
    def final(self) -> np.ndarray:
        return self.matrices[-1]


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

    def final_fidelity(self) -> float:
        return float(self.fidelity[-1])


def _hamiltonian_stack(hamiltonian: Callable, times: np.ndarray) -> np.ndarray:
    """H at every entry of `times` as a (len(times), d, d) complex stack."""
    h = np.asarray(hamiltonian(times), dtype=complex)
    return np.broadcast_to(h, times.shape + h.shape[-2:])


def propagate_schrodinger(hamiltonian: Callable[[np.ndarray], np.ndarray],
                          psi0: np.ndarray, grid: TimeGrid) -> StateTrajectory:
    """Midpoint-exponential propagation of a pure state.

    H is evaluated at the interval midpoints, one block of BLOCK of them per
    call (see the module docstring for the callable's contract), and must be
    Hermitian to 1e-10 (relative); the propagator itself is unitary up to
    round-off, so norm drift only reflects accumulated floating-point error.
    """
    psi = check_state_vector(psi0).astype(complex)
    times = grid.times
    out = np.empty((times.size, psi.size), dtype=complex)
    out[0] = psi
    dt = grid.dt
    mids = times[:-1] + 0.5 * dt
    drift = 0.0
    for start in range(0, grid.steps, BLOCK):
        t_mid = mids[start:start + BLOCK]
        h = _hamiltonian_stack(hamiltonian, t_mid)
        bad = hermiticity_defect(h) > 1e-10
        if np.any(bad):
            raise ValueError(f"Hamiltonian is not Hermitian at t = {t_mid[np.argmax(bad)]:.6f}")
        for i, u in enumerate(expm_hermitian(h, -1j * dt), start=start + 1):
            psi = u @ psi
            out[i] = psi
            drift = max(drift, abs(np.linalg.norm(psi) - 1.0))
    return StateTrajectory(times=times, states=out, norm_drift=drift)


def _compile_dissipators(dissipators: list[Dissipator], dim: int):
    """K = sum_j rate_j L_j+ L_j, and the jump sum as (dst, src, weight) triples.

    (L rho L+)[a, b] = sum L[a, i] conj(L[b, j]) rho[i, j] over the nonzeros
    L[a, i] and L[b, j], so each pair of nonzeros adds rho.flat[i*d + j] with
    weight rate L[a, i] conj(L[b, j]) into entry a*d + b.
    """
    decay = np.zeros((dim, dim), dtype=complex)
    dst, src, weight = [np.empty(0, np.intp)], [np.empty(0, np.intp)], [np.empty(0, complex)]
    for d in dissipators:
        op = np.asarray(d.operator, dtype=complex)
        if op.shape != (dim, dim):
            raise ValueError(f"jump operator has shape {op.shape}; the state needs {(dim, dim)}")
        decay += d.rate * (dagger(op) @ op)
        rows, cols = np.nonzero(op)
        vals = op[rows, cols]
        dst.append((rows[:, None] * dim + rows).ravel())
        src.append((cols[:, None] * dim + cols).ravel())
        weight.append((d.rate * np.outer(vals, np.conj(vals))).ravel())
    return decay, (np.concatenate(dst), np.concatenate(src), np.concatenate(weight))


def _lindblad_rhs(h_eff: np.ndarray, h_eff_dag: np.ndarray, rho: np.ndarray,
                  jumps) -> np.ndarray:
    dst, src, weight = jumps
    terms = weight * rho.reshape(-1)[src]
    jump = np.bincount(dst, terms.real, rho.size) + 1j * np.bincount(dst, terms.imag, rho.size)
    return -1j * (h_eff @ rho - rho @ h_eff_dag) + jump.reshape(rho.shape)


def propagate_lindblad(hamiltonian: Callable[[np.ndarray], np.ndarray],
                       dissipators: list[Dissipator], rho0: np.ndarray,
                       grid: TimeGrid, checkpoints: int = 10) -> DensityTrajectory:
    """RK4 integration of the master equation with per-step re-Hermitization.

    H is evaluated once per block of BLOCK intervals, at its nodes and
    midpoints in time order.  Raises :class:`StepSizeError` when the trace
    drifts by more than 1e-6 or the smallest checkpoint eigenvalue falls
    below -1e-7; both indicate the grid is too coarse for the requested
    dynamics.
    """
    rho = check_density_matrix(rho0).astype(complex)
    decay, jumps = _compile_dissipators(dissipators, rho.shape[0])
    times = grid.times
    out = np.empty((times.size, rho.shape[0], rho.shape[1]), dtype=complex)
    out[0] = rho
    dt = grid.dt
    drift = 0.0
    min_eig = float(np.linalg.eigvalsh(rho)[0])
    check_every = max(1, grid.steps // max(checkpoints, 1))

    for start in range(0, grid.steps, BLOCK):
        stop = min(start + BLOCK, grid.steps)
        # the block's nodes at even and its midpoints at odd positions, in time order
        t_block = np.empty(2 * (stop - start) + 1)
        t_block[0::2] = times[start:stop + 1]
        t_block[1::2] = times[start:stop] + 0.5 * dt
        h_eff = _hamiltonian_stack(hamiltonian, t_block) - 0.5j * decay
        h_eff_dag = dagger(h_eff)
        for i in range(start, stop):
            left = 2 * (i - start)
            k1 = _lindblad_rhs(h_eff[left], h_eff_dag[left], rho, jumps)
            k2 = _lindblad_rhs(h_eff[left + 1], h_eff_dag[left + 1], rho + 0.5 * dt * k1, jumps)
            k3 = _lindblad_rhs(h_eff[left + 1], h_eff_dag[left + 1], rho + 0.5 * dt * k2, jumps)
            k4 = _lindblad_rhs(h_eff[left + 2], h_eff_dag[left + 2], rho + dt * k3, jumps)
            rho = rho + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            rho = 0.5 * (rho + dagger(rho))
            out[i + 1] = rho
            drift = max(drift, abs(np.trace(rho).real - 1.0))
            if drift > TOL.trace_drift_error:
                raise StepSizeError(
                    f"trace drifted by {drift:.3e} at t = {times[i + 1]:.6f}; "
                    "increase the number of grid steps")
            if (i + 1) % check_every == 0 or i + 1 == grid.steps:
                min_eig = min(min_eig, float(np.linalg.eigvalsh(rho)[0]))

    if min_eig < -TOL.positivity_drift:
        raise StepSizeError(
            f"density matrix eigenvalue reached {min_eig:.3e}; "
            "increase the number of grid steps")
    return DensityTrajectory(times=times, matrices=out, trace_drift=drift,
                             min_eigenvalue=min_eig)


def von_neumann_residual(v: np.ndarray, dv: np.ndarray, h: np.ndarray):
    """|| dP/dt + i [H, P] ||_F for the rank-1 projector P = |v><v|.

    `dv` is dv/dt at the same instant, so dP/dt = |dv><v| + |v><dv|.  A
    vanishing residual is the exact transitionless-evolution condition for
    the state P projects onto.  Stacks v, dv of shape (..., d) and h of shape
    (..., d, d) give one residual per instant.
    """
    hv = (h @ v[..., None])[..., 0]
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
    density matrices (T, d, d); against a target ket this is the fidelity."""
    if states.ndim == 2:
        return np.abs(states @ np.conj(ket)) ** 2
    return np.real(np.einsum("i,tij,j->t", np.conj(ket), states, ket))
