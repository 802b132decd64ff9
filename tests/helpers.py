"""Shared oracles and random-instance builders for the test suite.

The oracles here are deliberately independent of the library code paths they
check: the Kronecker and Gram oracles are explicit element loops, the matrix
exponential oracle is a truncated Taylor series, the propagation oracle
steps the Schrodinger equation directly so reconstructed evolution operators
and generated phases can be compared against raw integration, and the
master-equation oracle is classic RK4 on the textbook right-hand side with
dense matrices and any jump operators.  The passage-residual oracle forms
the whole matrix dP/dt + i[H, P] and takes its Frobenius norm.
"""

import dataclasses

import numpy as np

from qpassage import dynamics, protocols
from qpassage.ancillary import SubspaceLayout
from qpassage.linalg import dagger
from qpassage.schedules import ParameterSchedule, ScheduleSet


def kron_oracle(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Element-by-element Kronecker product."""
    ra, ca = a.shape
    rb, cb = b.shape
    out = np.zeros((ra * rb, ca * cb), dtype=complex)
    for i in range(ra):
        for j in range(ca):
            for k in range(rb):
                for l in range(cb):
                    out[i * rb + k, j * cb + l] = a[i, j] * b[k, l]
    return out


def taylor_expm(a: np.ndarray, scale: complex = 1.0, cutoff: float = 1e-14) -> np.ndarray:
    """exp(scale*a) by plain Taylor summation with a term-norm cutoff."""
    x = scale * np.asarray(a, dtype=complex)
    term = np.eye(x.shape[0], dtype=complex)
    out = term.copy()
    for k in range(1, 200):
        term = term @ x / k
        out += term
        if np.linalg.norm(term) < cutoff:
            break
    return out


def gram_oracle(vectors: np.ndarray) -> np.ndarray:
    """Gram matrix by explicit inner products."""
    k = vectors.shape[1]
    g = np.zeros((k, k), dtype=complex)
    for i in range(k):
        for j in range(k):
            g[i, j] = np.vdot(vectors[:, i], vectors[:, j])
    return g


def brute_force_unitaries(hamiltonian, dim: int, t0: float, t1: float,
                          steps: int) -> tuple[np.ndarray, np.ndarray]:
    """Propagate the identity through H(t) with midpoint exponentials.

    Returns (times, U) with U[i] the evolution operator from t0 to times[i].
    """
    from qpassage.linalg import expm_hermitian

    times = np.linspace(t0, t1, steps + 1)
    dt = (t1 - t0) / steps
    u = np.eye(dim, dtype=complex)
    out = np.empty((steps + 1, dim, dim), dtype=complex)
    out[0] = u
    for i in range(steps):
        h = np.asarray(hamiltonian(times[i] + 0.5 * dt), dtype=complex)
        u = expm_hermitian(h, -1j * dt) @ u
        out[i + 1] = u
    return times, out


def lindblad_rk4(hamiltonian, dissipators, rho0: np.ndarray, grid) -> np.ndarray:
    """Every node of classic RK4 on drho/dt = -i[H, rho] + sum_j rate_j
    (L_j rho L_j+ - {L_j+ L_j, rho}/2), dense, one density matrix; H is a
    callable of one time returning a (d, d) matrix."""
    def rhs(t, rho):
        h = np.asarray(hamiltonian(t), dtype=complex)
        out = -1j * (h @ rho - rho @ h)
        for d in dissipators:
            op = np.asarray(d.operator, dtype=complex)
            decay = dagger(op) @ op
            out = out + d.rate * (op @ rho @ dagger(op) - 0.5 * (decay @ rho + rho @ decay))
        return out

    times, dt = grid.times, grid.dt
    out = np.empty((times.size,) + rho0.shape, dtype=complex)
    out[0] = rho = np.asarray(rho0, dtype=complex)
    for i, t in enumerate(times[:-1]):
        k1 = rhs(t, rho)
        k2 = rhs(t + 0.5 * dt, rho + 0.5 * dt * k1)
        k3 = rhs(t + 0.5 * dt, rho + 0.5 * dt * k2)
        k4 = rhs(t + dt, rho + dt * k3)
        out[i + 1] = rho = rho + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return out


def residual_matrix_oracle(v: np.ndarray, dv: np.ndarray, h: np.ndarray):
    """|| dP/dt + i[H, P] ||_F for P = |v><v| from the (..., d, d) matrix
    itself, built from four outer products; H dense or as (..., S, b, b)
    blocks, as `von_neumann_residual` takes it."""
    hv = (h @ v.reshape(h.shape[:-1] + (1,))).reshape(v.shape)
    v_bra = np.conj(v)[..., None, :]
    mat = (dv[..., :, None] * v_bra + v[..., :, None] * np.conj(dv)[..., None, :]
           + 1j * (hv[..., :, None] * v_bra - v[..., :, None] * np.conj(hv)[..., None, :]))
    return np.sqrt(np.sum(np.abs(mat) ** 2, axis=(-2, -1)))


def fail_trace_gate(monkeypatch, kappa: float) -> None:
    """Make the protocol runner's open runs at rate `kappa`, and only those,
    fail the density stack's per-step trace gate at the first node.

    The split step keeps the trace on any grid, so nothing trips the gate
    unaided: the gate is tightened to 1e-9 and those members start with their
    trace raised by 5e-9, inside the entry check's 1e-8.
    """
    monkeypatch.setattr(dynamics, "TOL", dataclasses.replace(dynamics.TOL,
                                                             trace_drift_error=1e-9))

    def stack_run(dissipators, rho0, grid, observe=None):
        raised = np.where(dissipators[0].rate == kappa, 1.0 + 5e-9, 1.0)
        return dynamics._lindblad_run(dissipators, rho0 * raised[:, None, None], grid, observe)

    monkeypatch.setattr(protocols, "_lindblad_run", stack_run)


def random_layout(rng, max_assistant: int = 3, max_working: int = 4) -> SubspaceLayout:
    return SubspaceLayout(int(rng.integers(1, max_assistant + 1)),
                          int(rng.integers(2, max_working + 1)))


def random_schedule_set(rng, layout: SubspaceLayout, duration: float = 1.0,
                        ramp_amplitude: float = np.pi / 2,
                        cross_phase_locked: bool = True) -> ScheduleSet:
    """Constant cascade angles/phases plus a cosine-ramp mixing angle.

    With cross_phase_locked the pair phase and drive phase are drawn so that
    varphi + alpha sits at an odd multiple of pi/2, where the synthesized
    detuning reduces to d(alpha)/dt = 0.
    """
    table = {}
    for m in range(layout.assistant_levels - 1):
        table[f"ttheta_{m}"] = ParameterSchedule.constant(
            rng.uniform(0.1, np.pi / 2 - 0.1), duration)
        table[f"talpha_{m}"] = ParameterSchedule.constant(
            rng.uniform(0.0, 2 * np.pi), duration)
    for n in range(layout.working_levels - 1):
        table[f"theta_{n}"] = ParameterSchedule.constant(
            rng.uniform(0.1, np.pi / 2 - 0.1), duration)
        table[f"alpha_{n}"] = ParameterSchedule.constant(
            rng.uniform(0.0, 2 * np.pi), duration)
    alpha = rng.uniform(0.0, 2 * np.pi)
    if cross_phase_locked:
        vphi = rng.choice([np.pi / 2, 3 * np.pi / 2]) - alpha
    else:
        vphi = rng.uniform(0.0, 2 * np.pi)
    table["alpha"] = ParameterSchedule.constant(alpha, duration)
    table["varphi"] = ParameterSchedule.constant(vphi, duration)
    table["phi"] = ParameterSchedule.cosine_ramp(ramp_amplitude, duration)
    return ScheduleSet(layout.assistant_levels, layout.working_levels, duration, table)


def frame_columns_oracle(frame) -> None:
    """Assert the pairwise cascade orthogonality relations by raw inner products."""
    lay = frame.layout
    m_rows = lay.assistant_levels - 1
    for m in range(m_rows):
        assert abs(np.vdot(frame.vectors[:, m], frame.assistant_brights[:, m])) < 1e-12
    for n in range(lay.working_levels - 1):
        assert abs(np.vdot(frame.vectors[:, m_rows + n], frame.working_brights[:, n])) < 1e-12
    assert abs(np.vdot(frame.passage_lo, frame.passage_hi)) < 1e-12


def unitarity_defect(u: np.ndarray) -> float:
    return float(np.linalg.norm(dagger(u) @ u - np.eye(u.shape[0])))
