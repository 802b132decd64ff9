"""Exact drive synthesis for the cross-subspace nonadiabatic passages.

Given a layout and a schedule set, the synthesized drive couples assistant
level e_m to working level n with the complex coefficient

    C[m][n](t) = Omega(t) * a_m(t) * conj(w_n(t)) * e^{i varphi(t)}

where a_m and w_n are the terminal-bright-state amplitudes of the two
cascades, written out index by index below, and

    Omega(t) = -phi'(t) / sin(varphi + alpha)

is the master envelope.  A common detuning Delta(t) sits on every assistant
level.  With these fields the two cross-subspace frame members evolve
transitionlessly (their projectors solve dP/dt = -i[H, P] exactly), the
working-cascade frame members are annihilated by H, and the assistant-cascade
members are eigenvectors with eigenvalue Delta.

The detuning follows from the same projector condition:

    Delta(t) = alpha'(t) - 2 phi'(t) cot(varphi + alpha) cot(2 phi).

It reduces to alpha'(t) whenever varphi + alpha sits at an odd multiple of
pi/2, which every shipped protocol arranges; away from that locus the
cot(2 phi) factor diverges when the mixing angle crosses a multiple of pi/2,
so synthesis refuses such schedules instead of regularizing them.

Static dark frame members can be promoted to passages too: an auxiliary
intra-assistant drive h(t) that couples e_{m+1} to the running bright state
tb_{m-1} converts tmu_m into a third transfer path once its mixing angle and
phase are allowed to move (see :func:`convert_dark_state`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .ancillary import SubspaceLayout, build_frame
from .dynamics import von_neumann_residual
from .schedules import ScheduleSet
from .tolerances import TOL

__all__ = [
    "SynthesisError",
    "SingularScheduleError",
    "master_envelope",
    "channel_fields",
    "assemble_hamiltonian",
    "DrivePlan",
    "synthesize_general",
    "AuxiliaryDrive",
    "convert_dark_state",
    "GeneratedPhases",
    "generated_phases",
    "ReductionReport",
    "reduction_crosscheck",
    "static_basis",
    "block_form_defect",
]

_CONSTANCY_TOL = 1e-12


class SynthesisError(ValueError):
    pass


class SingularScheduleError(SynthesisError):
    pass


# ---------------------------------------------------------------------------
# instantaneous fields
# ---------------------------------------------------------------------------

def master_envelope(schedules: ScheduleSet, t):
    """Return (Omega, Delta, varphi) at t, a float or an array of times.

    Raises :class:`SingularScheduleError` where the formulas are undefined:
    |sin(varphi+alpha)| below the singularity floor while the mixing angle
    moves, or cot(2 phi) needed while 2 phi sits at a multiple of pi.  The
    message names the first such time.
    """
    t = np.asarray(t, dtype=float)
    phi, dphi = schedules.pair("phi", t)
    alpha, dalpha = schedules.pair("alpha", t)
    vphi = schedules.value("varphi", t)

    s = np.sin(vphi + alpha)
    moving = np.abs(dphi) > 1e-12
    flat = np.abs(s) < TOL.schedule_singularity
    with np.errstate(divide="ignore", invalid="ignore"):
        w = np.where(moving, dphi * np.cos(vphi + alpha) / s, 0.0)
        s2 = np.sin(2.0 * phi)
        needs_cot = ~(np.abs(w) < 1e-14)
        divergent = needs_cot & (np.abs(s2) < TOL.schedule_singularity)
        bad = (moving & flat) | divergent
        if np.any(bad):
            i = np.argmax(bad)  # the first offending time, in the order of t
            at = float(np.ravel(t)[i])
            if np.ravel(moving & flat)[i]:
                raise SingularScheduleError(
                    f"sin(varphi+alpha) = {np.ravel(s)[i]:.2e} at t = {at:.6f} while the "
                    "mixing angle moves; the drive envelope diverges there")
            raise SingularScheduleError(
                f"detuning diverges at t = {at:.6f}: mixing angle at a multiple of pi/2 "
                "with cot(varphi+alpha) != 0")
        # sub-threshold drift over a near-singular phase is treated as static
        omega = np.where((~moving & flat) | (dphi == 0.0), 0.0, -dphi / s)
        delta = np.where(needs_cot, dalpha - 2.0 * w * np.cos(2.0 * phi) / s2, dalpha)
    return omega[()], delta[()], vphi


def _assistant_factors(schedules: ScheduleSet, assistant_levels: int, t):
    """Signed amplitude a_m and phase -talpha_{m-1} per assistant level.

    a_m = -sin(ttheta_{m-1}) * prod_{m'=m}^{M-2} cos(ttheta_{m'}), with the
    seed conventions sin(ttheta_{-1}) = -1 and talpha_{-1} = 0, so that a_m
    is the amplitude of the terminal assistant bright state on |e_m> up to
    the phase factor e^{-i talpha_{m-1}}.  Both arrays carry the level on the
    last axis, after the shape of t.
    """
    m_top = assistant_levels - 1
    angles = [schedules.value(f"ttheta_{k}", t) for k in range(m_top)]
    cos_vals = [np.cos(a) for a in angles]
    amps = np.empty(np.shape(t) + (assistant_levels,))
    phases = np.empty_like(amps)
    for m in range(assistant_levels):
        sin_prev = -1.0 if m == 0 else np.sin(angles[m - 1])
        amps[..., m] = -sin_prev * math.prod(cos_vals[m:m_top])
        phases[..., m] = 0.0 if m == 0 else -schedules.value(f"talpha_{m - 1}", t)
    return amps, phases


def _working_factors(schedules: ScheduleSet, working_levels: int, t):
    """Signed amplitude w_n and phase +alpha_{n-1} per working level.

    w_n = cos(theta_{n-1}) * prod_{n'=n}^{N-2} sin(theta_{n'}), with the seed
    conventions cos(theta_{-1}) = 1 and alpha_{-1} = 0; level on the last axis.
    """
    n_top = working_levels - 1
    angles = [schedules.value(f"theta_{k}", t) for k in range(n_top)]
    sin_vals = [np.sin(a) for a in angles]
    amps = np.empty(np.shape(t) + (working_levels,))
    phases = np.empty_like(amps)
    for n in range(working_levels):
        cos_prev = 1.0 if n == 0 else np.cos(angles[n - 1])
        amps[..., n] = cos_prev * math.prod(sin_vals[n:n_top])
        phases[..., n] = 0.0 if n == 0 else schedules.value(f"alpha_{n - 1}", t)
    return amps, phases


def channel_fields(layout: SubspaceLayout, schedules: ScheduleSet, t):
    """Instantaneous drive fields: (amp[m, n], phase[m, n], Delta, Omega, varphi).

    amp is the signed real Rabi amplitude of the e_m <-> n channel and phase
    its drive phase, so the coefficient of |e_m><n| in H is amp * e^{i phase}.
    For an array of times every field gains the leading shape of t.
    """
    omega, delta, vphi = master_envelope(schedules, t)
    a, pa = _assistant_factors(schedules, layout.assistant_levels, t)
    w, pw = _working_factors(schedules, layout.working_levels, t)
    amp = np.asarray(omega)[..., None, None] * (a[..., :, None] * w[..., None, :])
    phase = np.asarray(vphi)[..., None, None] + pa[..., :, None] + pw[..., None, :]
    return amp, phase, delta, omega, vphi


def assemble_hamiltonian(layout: SubspaceLayout, schedules: ScheduleSet, t,
                         aux: "AuxiliaryDrive | None" = None) -> np.ndarray:
    """Dense H(t) on the M+N levels for the synthesized fields (plus aux drive).

    A float t gives one (M+N, M+N) matrix, an array of times a stack with
    the shape of t in front.
    """
    amp, phase, delta, _, _ = channel_fields(layout, schedules, t)
    m_levels = layout.assistant_levels
    assist = np.arange(m_levels)
    h = np.zeros(np.shape(t) + (layout.dim, layout.dim), dtype=complex)
    h[..., assist, assist] = np.asarray(delta)[..., None]
    c = amp * np.exp(1j * phase)
    h[..., :m_levels, m_levels:] += c
    h[..., m_levels:, :m_levels] += np.conj(np.swapaxes(c, -1, -2))
    if aux is not None:
        h += aux.matrix(layout, t)
    return h


# ---------------------------------------------------------------------------
# gridded plan
# ---------------------------------------------------------------------------

@dataclass
class DrivePlan:
    """Synthesized drive fields sampled on a uniform grid over one step.

    `channel_amp` and `channel_phase` have shape (M, N, len(times)); `detuning`
    and `master_amp` have shape (len(times),).  `hamiltonian(t)` evaluates the
    fields analytically at arbitrary t inside the step, a float or an array of
    times, which integrators use for midpoints.
    """

    layout: SubspaceLayout
    schedules: ScheduleSet
    times: np.ndarray
    channel_amp: np.ndarray
    channel_phase: np.ndarray
    detuning: np.ndarray
    master_amp: np.ndarray
    aux: "AuxiliaryDrive | None" = None

    def hamiltonian(self, t) -> np.ndarray:
        return assemble_hamiltonian(self.layout, self.schedules, t, self.aux)

    def to_csv(self, path) -> None:
        """Write t, per-channel amplitude/phase columns, and the detuning."""
        m_levels = self.layout.assistant_levels
        n_levels = self.layout.working_levels
        header = ["t"]
        columns = [self.times]
        for m in range(m_levels):
            for n in range(n_levels):
                header += [f"Omega_m{m}_n{n}", f"phase_m{m}_n{n}"]
                columns += [self.channel_amp[m, n], self.channel_phase[m, n]]
        header.append("Delta")
        columns.append(self.detuning)
        data = np.column_stack(columns)
        with open(path, "w", newline="\n") as fh:
            fh.write(",".join(header) + "\n")
            for row in data:
                fh.write(",".join(f"{x:.17e}" for x in row) + "\n")


def _require_constant(schedules: ScheduleSet, symbols, times) -> None:
    for name in symbols:
        sched = schedules[name]
        if sched.is_constant:
            continue
        value, deriv = sched.eval(times)
        if np.max(np.abs(deriv)) > _CONSTANCY_TOL or np.ptp(value) > _CONSTANCY_TOL:
            raise SynthesisError(
                f"schedule {name!r} must be time-independent for the synthesized "
                "fields to leave the cascade frame members static")


def _cascade_symbols(layout: SubspaceLayout) -> list[str]:
    names = []
    for m in range(layout.assistant_levels - 1):
        names += [f"ttheta_{m}", f"talpha_{m}"]
    for n in range(layout.working_levels - 1):
        names += [f"theta_{n}", f"alpha_{n}"]
    return names


def synthesize_general(layout: SubspaceLayout, schedules: ScheduleSet,
                       grid: int = 2000,
                       aux: "AuxiliaryDrive | None" = None) -> DrivePlan:
    """Synthesize the drive fields that make both cross-subspace frame members
    exact passages of the assembled Hamiltonian.

    Cascade angles and phases must be time-independent; the mixing angle phi,
    the pair phase alpha, and the drive phase varphi may move freely as long
    as sin(varphi+alpha) stays away from zero wherever phi moves.  Passing
    the auxiliary drive from :func:`convert_dark_state` exempts its moving
    (ttheta, talpha) pair from the constancy requirement and attaches the
    drive to the plan; the channel amplitudes then vary with the converted
    angle and the static-ratio factorization no longer applies.
    """
    times = np.linspace(0.0, schedules.duration, grid + 1)
    frozen = _cascade_symbols(layout)
    if aux is not None:
        exempt = (f"ttheta_{aux.target}", f"talpha_{aux.target}")
        frozen = [s for s in frozen if s not in exempt]
    _require_constant(schedules, frozen, times)

    amp, phase, detuning, master, _ = channel_fields(layout, schedules, times)
    amp, phase = np.moveaxis(amp, 0, -1), np.moveaxis(phase, 0, -1)
    if not (np.all(np.isfinite(amp)) and np.all(np.isfinite(detuning))):
        raise SingularScheduleError("drive fields are not finite on the grid")
    return DrivePlan(layout=layout, schedules=schedules, times=times,
                     channel_amp=amp, channel_phase=phase, detuning=detuning,
                     master_amp=master, aux=aux)


# ---------------------------------------------------------------------------
# dark-state conversion
# ---------------------------------------------------------------------------

@dataclass
class AuxiliaryDrive:
    """Intra-assistant drive h(t) that promotes the dark frame member tmu_m
    to a transfer path.

    h(t) couples e_{m+1} to the running bright state tb_{m-1} with amplitude
    w(t) = -d(ttheta_m)/dt and phase pi/2 - talpha_m(t), and detunes e_{m+1}
    by d(talpha_m)/dt.  Written per level,

        h = delta |e_{m+1}><e_{m+1}|
            + sum_{n<=m} w_n e^{i Phi_n} |e_{m+1}><e_n| + h.c.

    with w_n = -w(t) sin(ttheta_{n-1}) prod_{m'=n}^{m-1} cos(ttheta_{m'}) and
    Phi_n = pi/2 - talpha_m(t) + talpha_{n-1} (seed conventions as in the
    main synthesis).  `angle_source` selects which cascade supplies the
    converted mixing angle: "assistant" (ttheta_m, the reading that passes
    the projector-residual check) or "working" (theta_m, kept so the check
    can demonstrate that it fails).
    """

    target: int
    schedules: ScheduleSet
    angle_source: str = "assistant"

    def rates(self, t):
        """(w, delta) at t, a float or an array of times."""
        delta = self.schedules.pair(f"talpha_{self.target}", t)[1]
        if self.angle_source == "assistant":
            w = -self.schedules.pair(f"ttheta_{self.target}", t)[1]
        else:
            w = -self.schedules.pair(f"theta_{self.target}", t)[1]
        return w, delta

    def couplings(self, t):
        """Per-level amplitudes w_n and phases Phi_n, n = 0..target, on the last axis."""
        m = self.target
        w, _ = self.rates(t)
        talpha_m = self.schedules.value(f"talpha_{m}", t)
        angles = [self.schedules.value(f"ttheta_{k}", t) for k in range(m)]
        cos_vals = [np.cos(a) for a in angles]
        amps = np.empty(np.shape(t) + (m + 1,))
        phases = np.empty_like(amps)
        for n in range(m + 1):
            sin_prev = -1.0 if n == 0 else np.sin(angles[n - 1])
            amps[..., n] = -w * sin_prev * math.prod(cos_vals[n:m])
            talpha_prev = 0.0 if n == 0 else self.schedules.value(f"talpha_{n - 1}", t)
            phases[..., n] = np.pi / 2.0 - talpha_m + talpha_prev
        return amps, phases

    def matrix(self, layout: SubspaceLayout, t) -> np.ndarray:
        """h(t) on the M+N levels; a stack with the shape of t in front for an array."""
        h = np.zeros(np.shape(t) + (layout.dim, layout.dim), dtype=complex)
        _, delta = self.rates(t)
        upper = layout.assistant_index(self.target + 1)
        h[..., upper, upper] = delta
        amps, phases = self.couplings(t)
        lower = np.arange(self.target + 1)
        c = amps * np.exp(1j * phases)
        h[..., upper, lower] += c
        h[..., lower, upper] += np.conj(c)
        return h


def convert_dark_state(layout: SubspaceLayout, schedules: ScheduleSet, m: int,
                       angle_source: str = "assistant",
                       grid: int = 200) -> AuxiliaryDrive:
    """Auxiliary drive that makes the assistant frame member tmu_m a passage.

    Requires m + 1 <= M - 1 so that level e_{m+1} exists inside the assistant
    subspace.  The pair (ttheta_m, talpha_m) may be time-dependent; every
    other cascade schedule must stay constant.
    """
    if angle_source not in ("assistant", "working"):
        raise SynthesisError(f"unknown angle_source {angle_source!r}")
    if layout.assistant_levels < 2 or not 0 <= m <= layout.assistant_levels - 2:
        raise SynthesisError(
            f"assistant index {m} cannot be converted in a layout with "
            f"M = {layout.assistant_levels}")
    if angle_source == "working" and m > layout.working_levels - 2:
        raise SynthesisError(
            f"working-cascade angle theta_{m} does not exist for N = {layout.working_levels}")
    times = np.linspace(0.0, schedules.duration, grid + 1)
    frozen = [s for s in _cascade_symbols(layout)
              if s not in (f"ttheta_{m}", f"talpha_{m}")]
    _require_constant(schedules, frozen, times)
    return AuxiliaryDrive(target=m, schedules=schedules, angle_source=angle_source)


# ---------------------------------------------------------------------------
# generated phases
# ---------------------------------------------------------------------------

@dataclass
class GeneratedPhases:
    """Phases accumulated along each frame member, on the plan's grid.

    Row order matches the frame columns: assistant members first (each gains
    the purely dynamical phase -integral of Delta), then the working members
    (identically zero), then the two cross-subspace passages.
    """

    times: np.ndarray
    assistant: np.ndarray   # (M-1, L)
    working: np.ndarray     # (N-1, L), all zero
    passage_lo: np.ndarray  # (L,)
    passage_hi: np.ndarray  # (L,)

    def as_matrix(self) -> np.ndarray:
        return np.vstack([self.assistant, self.working,
                          self.passage_lo[None, :], self.passage_hi[None, :]])


def _cumulative_trapezoid(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Running trapezoidal integral of y over x, starting at 0 on x[0]."""
    return np.concatenate(([0.0], np.cumsum(np.diff(x) * (y[1:] + y[:-1]) / 2.0)))


def generated_phases(layout: SubspaceLayout, schedules: ScheduleSet,
                     plan: DrivePlan, times: np.ndarray | None = None) -> GeneratedPhases:
    """Integrate the geometric-minus-dynamical phase of every frame member.

    The integrand of the lower passage is
        alpha' sin^2(phi) - Delta sin^2(phi) + Omega sin(2 phi) cos(varphi+alpha)
    and the upper passage carries integral(alpha' - Delta) minus that.
    Quadrature is trapezoidal on the plan's grid.
    """
    if plan.layout != layout:
        raise SynthesisError("plan was synthesized for a different layout")
    if plan.schedules is not schedules and plan.schedules != schedules:
        raise SynthesisError("plan was synthesized from different schedules")
    if times is not None and (len(times) != len(plan.times)
                              or not np.allclose(times, plan.times)):
        raise SynthesisError("grid does not match the plan's grid")
    ts = plan.times

    phi, _ = schedules.pair("phi", ts)
    alpha, dalpha = schedules.pair("alpha", ts)
    vphi = schedules.value("varphi", ts)
    sin_phi = np.sin(phi)
    sin_2phi = np.sin(2.0 * phi)
    cos_cross = np.cos(vphi + alpha)

    lo_rate = (dalpha - plan.detuning) * sin_phi**2 + plan.master_amp * sin_2phi * cos_cross
    f_lo = _cumulative_trapezoid(lo_rate, ts)
    f_hi = _cumulative_trapezoid(dalpha - plan.detuning, ts) - f_lo
    f_assist = -_cumulative_trapezoid(plan.detuning, ts)

    m_rows = layout.assistant_levels - 1
    n_rows = layout.working_levels - 1
    return GeneratedPhases(
        times=ts,
        assistant=np.tile(f_assist, (m_rows, 1)) if m_rows else np.zeros((0, ts.size)),
        working=np.zeros((n_rows, ts.size)),
        passage_lo=f_lo,
        passage_hi=f_hi,
    )


# ---------------------------------------------------------------------------
# bright-basis expansion (block-form diagnostics)
# ---------------------------------------------------------------------------

def static_basis(frame) -> np.ndarray:
    """Columns [tmu_0.., mu_0.., b_{N-2}, tb_{M-2}] spanning the full space."""
    m_rows = frame.layout.assistant_levels - 1
    n_rows = frame.layout.working_levels - 1
    return np.column_stack([
        frame.vectors[:, :m_rows + n_rows],
        frame.terminal_brights,
    ])


def block_form_defect(frame, h: np.ndarray, delta: float, omega: float, vphi: float) -> float:
    """Residual of H against its expected bright-basis block structure.

    In the basis of :func:`static_basis` the synthesized H must be Delta on
    every assistant member and on the terminal assistant bright state, zero on
    the working members and the terminal working bright state, and couple the
    two terminal bright states with Omega e^{i varphi} only.
    """
    basis = static_basis(frame)
    got = np.conj(basis.T) @ h @ basis
    expected = np.zeros_like(got)
    m_rows = frame.layout.assistant_levels - 1
    for k in range(m_rows):
        expected[k, k] = delta
    expected[-1, -1] = delta                      # terminal assistant bright
    c = omega * np.exp(1j * vphi)
    expected[-1, -2] = c                          # <tb| H |b>
    expected[-2, -1] = np.conj(c)
    scale = max(np.max(np.abs(h)), 1e-300)
    return float(np.max(np.abs(got - expected)) / scale)


# ---------------------------------------------------------------------------
# reduction cross-check
# ---------------------------------------------------------------------------

@dataclass
class ReductionReport:
    assistant_levels: int
    working_levels: int
    max_amplitude_diff: float
    max_coefficient_diff: float
    residual_max: float
    hamiltonian_scale: float
    agreement: bool
    notes: list = field(default_factory=list)


def _special_case_channels(layout: SubspaceLayout, schedules: ScheduleSet, t: float):
    """Independently coded drive formulas for one or two assistant levels.

    Written out without the general seed conventions so the cross-check
    compares two genuinely separate codings.  The working-side product runs
    n' = n .. N-2; the variant ending at N-1 found in some write-ups refers
    to an angle theta_{N-1} that the cascade never defines, so it is only
    executable under the convention sin(theta_{N-1}) = 1, which makes it
    identical to this form.
    """
    n_levels = layout.working_levels
    omega, delta, vphi = master_envelope(schedules, t)

    thetas = [schedules.value(f"theta_{k}", t) for k in range(n_levels - 1)]
    alphas = [schedules.value(f"alpha_{k}", t) for k in range(n_levels - 1)]
    work_amp = np.empty(n_levels)
    work_phase = np.empty(n_levels)
    for n in range(n_levels):
        prod = 1.0
        for k in range(n, n_levels - 1):
            prod *= np.sin(thetas[k])
        lead = 1.0 if n == 0 else np.cos(thetas[n - 1])
        work_amp[n] = lead * prod
        work_phase[n] = vphi + (0.0 if n == 0 else alphas[n - 1])

    if layout.assistant_levels == 1:
        amp = omega * work_amp[None, :]
        phase = work_phase[None, :].copy()
    else:
        ttheta0 = schedules.value("ttheta_0", t)
        talpha0 = schedules.value("talpha_0", t)
        amp = np.vstack([
            omega * np.cos(ttheta0) * work_amp,
            -omega * np.sin(ttheta0) * work_amp,
        ])
        phase = np.vstack([work_phase, work_phase - talpha0])
    return amp, phase, delta


def reduction_crosscheck(layout: SubspaceLayout, schedules: ScheduleSet,
                         grid: int = 200, residual_times: int = 25) -> ReductionReport:
    """Compare the general synthesis against the special-case formulas.

    Valid for one or two assistant levels.  Beyond the element-wise
    comparison, the special-case fields are assembled into a Hamiltonian and
    checked against the passage-projector residual, which is what settles the
    working-side product limit.
    """
    if layout.assistant_levels not in (1, 2):
        raise SynthesisError("the special-case formulas cover one or two assistant levels only")

    times = np.linspace(0.0, schedules.duration, grid + 1)
    max_amp = 0.0
    max_coeff = 0.0
    g_amps, g_phases, g_deltas, _, _ = channel_fields(layout, schedules, times)
    for t, g_amp, g_phase, g_delta in zip(times, g_amps, g_phases, g_deltas):
        s_amp, s_phase, s_delta = _special_case_channels(layout, schedules, t)
        max_amp = max(max_amp, float(np.max(np.abs(np.abs(g_amp) - np.abs(s_amp)))))
        g_coeff = g_amp * np.exp(1j * g_phase)
        s_coeff = s_amp * np.exp(1j * s_phase)
        max_coeff = max(max_coeff, float(np.max(np.abs(g_coeff - s_coeff))),
                        abs(g_delta - s_delta))

    def special_h(t: float) -> np.ndarray:
        s_amp, s_phase, s_delta = _special_case_channels(layout, schedules, t)
        dim = layout.dim
        h = np.zeros((dim, dim), dtype=complex)
        for m in range(layout.assistant_levels):
            h[m, m] = s_delta
            for n in range(layout.working_levels):
                c = s_amp[m, n] * np.exp(1j * s_phase[m, n])
                h[layout.assistant_index(m), layout.working_index(n)] += c
                h[layout.working_index(n), layout.assistant_index(m)] += np.conj(c)
        return h

    h_scale = 0.0
    residual_max = 0.0
    margin = schedules.duration * 1e-3
    for t in np.linspace(margin, schedules.duration - margin, residual_times):
        frame = build_frame(layout, schedules, t)
        h = special_h(t)
        h_scale = max(h_scale, float(np.linalg.norm(h)))
        for col in (-2, -1):
            residual_max = max(residual_max, von_neumann_residual(
                frame.column(col), frame.derivatives[:, col], h))

    notes = [
        "working-side product limit N-2 confirmed by the projector residual; "
        "the printed N-1 limit needs sin(theta_{N-1}) = 1 to be well-formed, "
        "which reduces it to the same expression",
    ]
    agreement = max_coeff <= 1e-12 and residual_max <= TOL.passage_residual * max(h_scale, 1e-30)
    if not agreement:
        notes.append(
            f"disagreement: max coefficient diff {max_coeff:.3e}, "
            f"residual {residual_max:.3e} vs scale {h_scale:.3e}")
    return ReductionReport(
        assistant_levels=layout.assistant_levels,
        working_levels=layout.working_levels,
        max_amplitude_diff=max_amp,
        max_coefficient_diff=max_coeff,
        residual_max=residual_max,
        hamiltonian_scale=h_scale,
        agreement=agreement,
        notes=notes,
    )
