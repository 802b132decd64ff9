"""Randomized verification suites behind the `verify` command.

Each suite draws random layouts and schedules from a seeded generator and
checks one contract of the synthesis stack against an independent oracle:
frame orthonormality against raw inner products, the passage condition
against the projector residual, reconstructed evolution operators against
direct integration, the special-case reductions against the general formulas,
and the dark-state conversion against the residual with both candidate
readings of the converted mixing angle.  A final sensitivity suite injects a
detuning error and fails if the residual oracle does not flag it, so a silent
oracle cannot go unnoticed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ancillary import SubspaceLayout, build_frame
from .dynamics import reconstruct_evolution, von_neumann_residual
from .linalg import expm_hermitian
from .schedules import ParameterSchedule, ScheduleSet
from .synthesis import (assemble_hamiltonian, block_form_defect, convert_dark_state,
                        generated_phases, master_envelope, reduction_crosscheck,
                        synthesize_general)
from .tolerances import TOL

__all__ = ["SuiteResult", "VerifyReport", "run_verification", "random_schedule_set"]

# fine intervals per Hamiltonian call in the brute-force oracle; larger blocks
# are barely faster and raise the peak memory of `verify` by several MiB
_ORACLE_BLOCK = 256


@dataclass
class SuiteResult:
    name: str
    max_error: float
    tolerance: float
    passed: bool
    detail: str = ""

    def __post_init__(self):
        if not np.isfinite(self.max_error):  # a NaN error means the oracle broke
            self.passed = False

    def line(self) -> str:
        status = "pass" if self.passed else "FAIL"
        text = (f"{status}  {self.name:<26} max error {self.max_error:.3e} "
                f"(tolerance {self.tolerance:.1e})")
        if self.detail:
            text += f"  [{self.detail}]"
        return text


@dataclass
class VerifyReport:
    seed: int
    sizes: list
    suites: list

    @property
    def passed(self) -> bool:
        return all(s.passed for s in self.suites)

    def format(self) -> str:
        head = [f"verification seed={self.seed} sizes={self.sizes}"]
        if not self.sizes:
            head.append("no sizes requested: trivial pass")
        return "\n".join(head + [s.line() for s in self.suites])


def random_schedule_set(rng, layout: SubspaceLayout, duration: float = 1.0) -> ScheduleSet:
    """Random constant cascade controls plus a quarter-period mixing ramp.

    The pair phase and drive phase are locked to varphi + alpha at an odd
    multiple of pi/2, the regime every protocol uses, so the ramp may sweep
    the full quarter period without the detuning diverging.
    """
    table = {}
    for m in range(layout.assistant_levels - 1):
        table[f"ttheta_{m}"] = ParameterSchedule.constant(rng.uniform(0.1, np.pi / 2 - 0.1), duration)
        table[f"talpha_{m}"] = ParameterSchedule.constant(rng.uniform(0, 2 * np.pi), duration)
    for n in range(layout.working_levels - 1):
        table[f"theta_{n}"] = ParameterSchedule.constant(rng.uniform(0.1, np.pi / 2 - 0.1), duration)
        table[f"alpha_{n}"] = ParameterSchedule.constant(rng.uniform(0, 2 * np.pi), duration)
    alpha = rng.uniform(0, 2 * np.pi)
    table["alpha"] = ParameterSchedule.constant(alpha, duration)
    table["varphi"] = ParameterSchedule.constant(
        float(rng.choice([np.pi / 2, 3 * np.pi / 2])) - alpha, duration)
    table["phi"] = ParameterSchedule.cosine_ramp(np.pi / 2, duration)
    return ScheduleSet(layout.assistant_levels, layout.working_levels, duration, table)


def _worst(err: float, values) -> float:
    """The largest of err and values; a NaN anywhere wins, so it cannot hide."""
    return float(np.max(np.append(values, err)))


def _brute_force(hamiltonian, dim, times):
    """Midpoint exponentials multiplied up from the identity, one H call and
    one batched exponential per _ORACLE_BLOCK intervals."""
    left, right = times[:-1], times[1:]
    u = np.eye(dim, dtype=complex)
    out = [u]
    for start in range(0, left.size, _ORACLE_BLOCK):
        lo, hi = left[start:start + _ORACLE_BLOCK], right[start:start + _ORACLE_BLOCK]
        for step in expm_hermitian(hamiltonian(0.5 * (lo + hi)), -1j * (hi - lo)):
            u = step @ u
            out.append(u)
    return out


def run_verification(seed: int, sizes, instances: int = 3, sample_times: int = 12,
                     grid: int = 300, inject_detuning: float = 0.0) -> VerifyReport:
    """Run every suite over the given (assistant, working) level counts.

    `inject_detuning` deliberately offsets the synthesized detuning in the
    residual suite; any nonzero value must make that suite fail, which is how
    the oracle's own sensitivity is demonstrated end to end.
    """
    sizes = [tuple(s) for s in sizes]
    rng = np.random.default_rng(seed)
    suites: list[SuiteResult] = []
    if not sizes:
        return VerifyReport(seed=seed, sizes=sizes, suites=suites)

    cases = []
    for m, n in sizes:
        for _ in range(instances):
            layout = SubspaceLayout(m, n)
            cases.append((layout, random_schedule_set(rng, layout)))

    # frame orthonormality / completeness
    err = 0.0
    for layout, schedules in cases:
        for t in rng.uniform(0.0, 1.0, 3):
            frame = build_frame(layout, schedules, t)
            err = _worst(err, [frame.gram_defect(),
                               np.max(np.abs(frame.vectors @ frame.vectors.conj().T
                                             - np.eye(layout.dim)))])
    suites.append(SuiteResult("frame-orthonormality", err, TOL.frame_orthonormality,
                              err <= TOL.frame_orthonormality))

    # passage residual (optionally with an injected detuning error)
    err = 0.0
    for layout, schedules in cases:
        plan = synthesize_general(layout, schedules, grid=grid)

        def hamiltonian(t, _plan=plan, _layout=layout):
            h = _plan.hamiltonian(t)
            if inject_detuning:
                for m_idx in range(_layout.assistant_levels):
                    h[..., m_idx, m_idx] += inject_detuning
            return h

        scale = max(np.linalg.norm(hamiltonian(t)) for t in (0.3, 0.6))
        ts = rng.uniform(0.02, 0.98, sample_times)
        frame = build_frame(layout, schedules, ts)
        h = hamiltonian(ts)
        for col in (-2, -1):
            res = von_neumann_residual(frame.column(col), frame.derivatives[..., col], h)
            err = _worst(err, res / scale)
    suites.append(SuiteResult("passage-residual", err, TOL.passage_residual,
                              err <= TOL.passage_residual,
                              detail="relative to the Hamiltonian norm"))

    # dark states and bright-basis block structure
    err = 0.0
    for layout, schedules in cases:
        t = float(rng.uniform(0.1, 0.9))
        h = assemble_hamiltonian(layout, schedules, t)
        h_norm = max(float(np.linalg.norm(h)), 1e-300)
        frame = build_frame(layout, schedules, t)
        omega, delta, vphi = master_envelope(schedules, t)
        m_rows = layout.assistant_levels - 1
        for k in range(m_rows):
            v = frame.column(k)
            err = _worst(err, float(np.linalg.norm(h @ v - delta * v)) / h_norm)
        for k in range(m_rows, m_rows + layout.working_levels - 1):
            err = _worst(err, float(np.linalg.norm(h @ frame.column(k))) / h_norm)
        err = _worst(err, block_form_defect(frame, h, delta, omega, vphi))
    suites.append(SuiteResult("dark-and-block-structure", err, TOL.dark_state,
                              err <= TOL.dark_state))

    # reconstructed evolution against direct integration
    err = 0.0
    for layout, schedules in cases[: max(2, len(cases) // 2)]:
        plan = synthesize_general(layout, schedules, grid=grid)
        phases = generated_phases(layout, schedules, plan)
        u_rec = reconstruct_evolution(build_frame(layout, schedules, plan.times), phases)
        fine = np.linspace(0.0, 1.0, 10 * grid + 1)
        u_bf = _brute_force(plan.hamiltonian, layout.dim, fine)
        for idx in (grid // 2, grid):
            err = _worst(err, float(np.linalg.norm(u_rec[idx] - u_bf[10 * idx])))
    suites.append(SuiteResult("evolution-reconstruction", err, 1e-6, err <= 1e-6))

    # special-case reductions
    err = 0.0
    notes = []
    eligible = [c for c in cases if c[0].assistant_levels <= 2]
    for layout, schedules in eligible:
        report = reduction_crosscheck(layout, schedules, grid=100, residual_times=8)
        err = _worst(err, [report.max_coefficient_diff,
                           report.residual_max / max(report.hamiltonian_scale, 1e-300)])
        if not report.agreement:
            notes.append(f"M={layout.assistant_levels},N={layout.working_levels}")
    detail = "product limit resolved to the N-2 form"
    if notes:
        detail = "disagreement at " + ", ".join(notes)
    suites.append(SuiteResult("reduction-crosscheck", err, TOL.passage_residual,
                              err <= TOL.passage_residual and not notes, detail))

    # dark-state conversion, both readings of the converted angle
    eligible = [s for s in sizes if s[0] >= 2]
    if eligible:
        err = 0.0
        wrong_reading_min = np.inf
        for m_levels, n_levels in eligible:
            layout = SubspaceLayout(m_levels, n_levels)
            schedules = random_schedule_set(rng, layout)
            target = int(rng.integers(0, m_levels - 1))
            moving = {
                f"ttheta_{target}": ParameterSchedule.cosine_ramp(
                    rng.uniform(0.3, 0.9), offset=rng.uniform(0.2, 0.5)),
                f"talpha_{target}": ParameterSchedule.linear_ramp(
                    rng.uniform(0, 1), rng.uniform(-0.8, 0.8)),
            }
            schedules = schedules.replace(**moving)
            aux = convert_dark_state(layout, schedules, target)

            def h_conv(t, _l=layout, _s=schedules, _a=aux):
                return assemble_hamiltonian(_l, _s, t, _a)

            scale = float(np.linalg.norm(h_conv(0.5)))
            ts = rng.uniform(0.05, 0.95, 4)
            frame = build_frame(layout, schedules, ts)
            h = h_conv(ts)
            for col in (target, -2, -1):
                res = von_neumann_residual(frame.column(col), frame.derivatives[..., col], h)
                err = _worst(err, res / scale)
            if target <= n_levels - 2:
                wrong = convert_dark_state(layout, schedules, target, angle_source="working")

                def h_wrong(t, _l=layout, _s=schedules, _a=wrong):
                    return assemble_hamiltonian(_l, _s, t, _a)

                frame = build_frame(layout, schedules, 0.5)
                res = von_neumann_residual(frame.column(target), frame.derivatives[:, target],
                                           h_wrong(0.5))
                wrong_reading_min = float(np.minimum(wrong_reading_min, res / scale))
        detail = "converted angle read from the assistant cascade"
        ok = err <= TOL.passage_residual
        if np.isfinite(wrong_reading_min):
            detail += f"; working-cascade reading leaves residual {wrong_reading_min:.1e}"
            ok = ok and wrong_reading_min > 1e-3
        suites.append(SuiteResult("dark-state-conversion", err, TOL.passage_residual,
                                  ok, detail))

    # the residual oracle must notice a detuning offset
    layout = SubspaceLayout(1, 2)
    schedules = random_schedule_set(rng, layout)
    plan = synthesize_general(layout, schedules, grid=100)

    def perturbed(t):
        h = plan.hamiltonian(t)
        h[..., 0, 0] += 0.1
        return h

    scale = float(np.linalg.norm(perturbed(0.5)))
    frame = build_frame(layout, schedules, np.array([0.3, 0.5, 0.7]))
    detected = float(np.min(von_neumann_residual(frame.passage_lo, frame.derivatives[..., -2],
                                                 perturbed(frame.t)))) / scale
    suites.append(SuiteResult("detuning-sensitivity", detected, 1e-3, detected > 1e-3,
                              detail="perturbed residual must exceed the tolerance"))

    return VerifyReport(seed=seed, sizes=sizes, suites=suites)
