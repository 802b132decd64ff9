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
from .linalg import frobenius
from .schedules import ScheduleSet, cascade_symbols
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

_CONSTANCY_TOL = 1e-12  # drift below which a cascade control counts as constant
_COT_TOL = 1e-14  # |cot(varphi+alpha)| at or below which Delta drops its cot(2 phi) term


class SynthesisError(ValueError):
    pass


class SingularScheduleError(SynthesisError):
    pass


# ---------------------------------------------------------------------------
# instantaneous fields
# ---------------------------------------------------------------------------

def master_envelope(schedules: ScheduleSet, t):
    """Return (Omega, Delta, varphi) at t, a float or an array of times.

    The mixing angle counts as static only where phi' is exactly 0, and
    Delta drops its cot(2 phi) term only where |cot(varphi+alpha)| <= 1e-14,
    a cut on that dimensionless cotangent, which the locked odd multiples of
    pi/2 of the shipped protocols meet (|cot| ~ 1e-16).  Neither rule depends
    on the unit of time or on the magnitude of the fields.  Raises
    :class:`SingularScheduleError` where the formulas are undefined:
    |sin(varphi+alpha)| below the singularity floor while the mixing angle
    moves, or cot(2 phi) needed while 2 phi sits at a multiple of pi.  The
    message names the first such time.
    """
    t = np.asarray(t, dtype=float)
    phi, dphi = schedules.pair("phi", t)
    alpha, dalpha = schedules.pair("alpha", t)
    vphi = schedules.value("varphi", t)

    s, c = np.sin(vphi + alpha), np.cos(vphi + alpha)
    moving = dphi != 0.0
    flat = np.abs(s) < TOL.schedule_singularity
    w = _divide(dphi * c, s, moving & ~flat)
    s2 = np.sin(2.0 * phi)
    needs_cot = moving & ~(np.abs(c) <= _COT_TOL * np.abs(s))
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
    omega = _divide(-dphi, s, moving)
    delta = dalpha - _divide(2.0 * w * np.cos(2.0 * phi), s2, needs_cot)
    return omega[()], delta[()], vphi


def _divide(a, b, where):
    """a / b where `where` holds and 0 elsewhere; b is not read outside the
    mask, so a vanishing or subnormal denominator there raises no warning."""
    return np.divide(a, b, out=np.zeros(np.shape(where)), where=where)


def _bright_factors(schedules: ScheduleSet, t, cascade: str, levels: int, weight=1.0):
    """Real amplitude and phase of a cascade's bright state on each of its
    first `levels` levels, level on the last axis after the shape of t.

    The bright state tb_{levels-2} (cascade "t") or b_{levels-2} (cascade "")
    has the component amp_k e^{i phase_k} on its level k, with
    phase_k = -[t]alpha_{k-1} and

        working:    amp_n = cos(theta_{n-1}) prod_{n'=n}^{levels-2} sin(theta_{n'})
        assistant:  amp_m = -sin(ttheta_{m-1}) prod_{m'=m}^{levels-2} cos(ttheta_{m'})

    where the lead factor is 1 and the phase 0 for k = 0.  `weight`
    multiplies every lead factor.
    """
    working = cascade == ""
    angles = [schedules.value(f"{cascade}theta_{k}", t) for k in range(levels - 1)]
    tails = [np.sin(a) if working else np.cos(a) for a in angles]
    amps = np.empty(np.shape(t) + (levels,))
    phases = np.zeros_like(amps)
    for k in range(levels):
        lead = 1.0
        if k:
            lead = np.cos(angles[k - 1]) if working else -np.sin(angles[k - 1])
            phases[..., k] = -schedules.value(f"{cascade}alpha_{k - 1}", t)
        amps[..., k] = weight * lead * math.prod(tails[k:])
    return amps, phases


def channel_fields(layout: SubspaceLayout, schedules: ScheduleSet, t):
    """Instantaneous drive fields: (amp[m, n], phase[m, n], Delta, Omega, varphi).

    amp is the signed real Rabi amplitude of the e_m <-> n channel and phase
    its drive phase, so the coefficient of |e_m><n| in H is amp * e^{i phase}.
    For an array of times every field gains the leading shape of t.
    """
    omega, delta, vphi = master_envelope(schedules, t)
    a, pa = _bright_factors(schedules, t, "t", layout.assistant_levels)
    w, pw = _bright_factors(schedules, t, "", layout.working_levels)
    amp = np.asarray(omega)[..., None, None] * (a[..., :, None] * w[..., None, :])
    phase = np.asarray(vphi)[..., None, None] + pa[..., :, None] - pw[..., None, :]
    return amp, phase, delta, omega, vphi


def assemble_hamiltonian(layout: SubspaceLayout, schedules: ScheduleSet, t,
                         aux: "AuxiliaryDrive | None" = None) -> np.ndarray:
    """Dense H(t) on the M+N levels for the synthesized fields (plus aux drive).

    A float t gives one (M+N, M+N) matrix, an array of times a stack with
    the shape of t in front.
    """
    h = _drive_matrix(layout, *channel_fields(layout, schedules, t)[:3])
    if aux is not None:
        h += aux.matrix(layout, t)
    return h


def _drive_matrix(layout: SubspaceLayout, amp, phase, delta) -> np.ndarray:
    """H with amp[m, n] e^{i phase[m, n]} on |e_m><n|, its conjugate on
    |n><e_m| and Delta on every assistant level; a stack with the leading
    shape of Delta in front."""
    m_levels = layout.assistant_levels
    h = np.zeros(np.shape(delta) + (layout.dim, layout.dim), dtype=complex)
    h[..., range(m_levels), range(m_levels)] = np.asarray(delta)[..., None]
    c = amp * np.exp(1j * phase)
    h[..., :m_levels, m_levels:] += c
    h[..., m_levels:, :m_levels] += np.conj(np.swapaxes(c, -1, -2))
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
    frozen = cascade_symbols(layout.assistant_levels, layout.working_levels)
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
        amps, bright_phases = _bright_factors(self.schedules, t, "t", m + 1, weight=w)
        talpha_m = self.schedules.value(f"talpha_{m}", t)
        phases = np.asarray(np.pi / 2.0 - talpha_m)[..., None] - bright_phases
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
    frozen = [s for s in cascade_symbols(layout.assistant_levels, layout.working_levels)
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


def generated_phases(plan: DrivePlan) -> GeneratedPhases:
    """Integrate the geometric-minus-dynamical phase of every frame member of
    the plan's layout.

    The integrand of the lower passage is
        alpha' sin^2(phi) - Delta sin^2(phi) + Omega sin(2 phi) cos(varphi+alpha)
    and the upper passage carries integral(alpha' - Delta) minus that.
    Quadrature is trapezoidal on the plan's grid.
    """
    layout, schedules, ts = plan.layout, plan.schedules, plan.times

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
    max_coefficient_diff: float
    residual_max: float
    hamiltonian_scale: float
    agreement: bool
    notes: list = field(default_factory=list)


def _special_case_channels(layout: SubspaceLayout, schedules: ScheduleSet, t):
    """Independently coded drive formulas for one or two assistant levels.

    Written out without the general seed conventions so the cross-check
    compares two genuinely separate codings.  The working-side product runs
    n' = n .. N-2; the variant ending at N-1 found in some write-ups refers
    to an angle theta_{N-1} that the cascade never defines, so it is only
    executable under the convention sin(theta_{N-1}) = 1, which makes it
    identical to this form.  Returns (amp[m, n], phase[m, n], Delta); for an
    array of times each gains the shape of t in front.
    """
    n_levels = layout.working_levels
    omega, delta, vphi = master_envelope(schedules, t)
    omega = np.asarray(omega)[..., None]

    thetas = [schedules.value(f"theta_{k}", t) for k in range(n_levels - 1)]
    alphas = [schedules.value(f"alpha_{k}", t) for k in range(n_levels - 1)]
    work_amp = np.empty(np.shape(t) + (n_levels,))
    work_phase = np.empty_like(work_amp)
    for n in range(n_levels):
        prod = 1.0
        for k in range(n, n_levels - 1):
            prod *= np.sin(thetas[k])
        lead = 1.0 if n == 0 else np.cos(thetas[n - 1])
        work_amp[..., n] = lead * prod
        work_phase[..., n] = vphi + (0.0 if n == 0 else alphas[n - 1])

    if layout.assistant_levels == 1:
        amp = (omega * work_amp)[..., None, :]
        phase = work_phase[..., None, :].copy()
    else:
        ttheta0 = np.asarray(schedules.value("ttheta_0", t))[..., None]
        talpha0 = np.asarray(schedules.value("talpha_0", t))[..., None]
        amp = np.stack([
            omega * np.cos(ttheta0) * work_amp,
            -omega * np.sin(ttheta0) * work_amp,
        ], axis=-2)
        phase = np.stack([work_phase, work_phase - talpha0], axis=-2)
    return amp, phase, delta


def reduction_crosscheck(layout: SubspaceLayout, schedules: ScheduleSet,
                         grid: int = 200, residual_times: int = 25) -> ReductionReport:
    """Compare the general synthesis against the special-case formulas.

    Valid for one or two assistant levels.  Beyond the element-wise
    comparison, the special-case fields are assembled into a Hamiltonian and
    checked against the passage-projector residual, which is what settles the
    working-side product limit.  That assembly is the library's own, the one
    :func:`assemble_hamiltonian` uses, while the field formulas fed to it
    stay a separate coding (:func:`_special_case_channels`).  Both passes
    take their times as one array, and a NaN anywhere makes its maximum NaN.
    """
    if layout.assistant_levels not in (1, 2):
        raise SynthesisError("the special-case formulas cover one or two assistant levels only")

    times = np.linspace(0.0, schedules.duration, grid + 1)
    g_amp, g_phase, g_delta, _, _ = channel_fields(layout, schedules, times)
    s_amp, s_phase, s_delta = _special_case_channels(layout, schedules, times)
    coeff_diff = g_amp * np.exp(1j * g_phase) - s_amp * np.exp(1j * s_phase)
    max_coeff = float(np.maximum(np.max(np.abs(coeff_diff)), np.max(np.abs(g_delta - s_delta))))

    margin = schedules.duration * 1e-3
    ts = np.linspace(margin, schedules.duration - margin, residual_times)
    frame = build_frame(layout, schedules, ts)
    h = _drive_matrix(layout, *_special_case_channels(layout, schedules, ts))
    h_scale = float(np.max(frobenius(h), initial=0.0))
    residual_max = float(np.max([von_neumann_residual(frame.column(col),
                                                      frame.derivatives[..., col], h)
                                 for col in (-2, -1)], initial=0.0))

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
        max_coefficient_diff=max_coeff,
        residual_max=residual_max,
        hamiltonian_scale=h_scale,
        agreement=agreement,
        notes=notes,
    )
