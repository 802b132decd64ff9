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
from .linalg import completeness_defect, expm_hermitian
from .schedules import ParameterSchedule, ScheduleSet
from .synthesis import (assemble_hamiltonian, block_form_defect, convert_dark_state,
                        generated_phases, master_envelope, reduction_crosscheck,
                        synthesize_general)
from .tolerances import TOL

__all__ = ["SuiteResult", "VerifyReport", "run_verification", "random_schedule_set"]

# fine intervals per Hamiltonian call and batched exponential in the
# brute-force oracle; each block is multiplied as a pairwise tree, so larger
# blocks buy little and raise the peak memory of `verify`
_ORACLE_BLOCK = 256
_SAMPLE_TIMES = 12  # residual sample times per case
_GRID = 300  # synthesis grid of the residual and reconstruction suites


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


def _tree_product(stack: np.ndarray) -> np.ndarray:
    """stack[-1] @ ... @ stack[0], multiplied as a pairwise tree."""
    while len(stack) > 1:
        paired = stack[1::2] @ stack[0:len(stack) - 1:2]
        stack = np.concatenate([paired, stack[-1:]]) if len(stack) % 2 else paired
    return stack[0]


def _brute_force(hamiltonian, dim, times, at):
    """Products of the midpoint exponentials of the first k intervals of
    `times`, for each interval count k in `at`, in the order of `at`.

    One H call and one batched exponential per _ORACLE_BLOCK intervals; each
    block is split at the requested counts inside it and each piece is
    multiplied as a pairwise tree onto the running product.
    """
    left, right = times[:-1], times[1:]
    wanted = sorted(set(at))
    u = np.eye(dim, dtype=complex)
    out = {0: u}
    for start in range(0, left.size, _ORACLE_BLOCK):
        lo, hi = left[start:start + _ORACLE_BLOCK], right[start:start + _ORACLE_BLOCK]
        steps = expm_hermitian(hamiltonian(0.5 * (lo + hi)), -1j * (hi - lo))
        first = 0
        for cut in [k - start for k in wanted if start < k < start + len(steps)] + [len(steps)]:
            u = _tree_product(steps[first:cut]) @ u
            first = cut
            out[start + cut] = u
    return [out[k] for k in at]


def run_verification(seed: int, sizes, instances: int = 3,
                     inject_detuning: float = 0.0) -> VerifyReport:
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
        frame = build_frame(layout, schedules, rng.uniform(0.0, 1.0, 3))
        err = _worst(err, [frame.gram_defect(), completeness_defect(frame.vectors)])
    suites.append(SuiteResult("frame-orthonormality", err, TOL.frame_orthonormality,
                              err <= TOL.frame_orthonormality))

    # passage residual, optionally with an injected detuning on every
    # assistant level; the two scale times lead the sample times in one call
    err = 0.0
    for layout, schedules in cases:
        ts = rng.uniform(0.02, 0.98, _SAMPLE_TIMES)
        h = assemble_hamiltonian(layout, schedules, np.concatenate(([0.3, 0.6], ts)))
        assist = np.arange(layout.assistant_levels)
        h[:, assist, assist] += inject_detuning
        scale = max(np.linalg.norm(h[0]), np.linalg.norm(h[1]))
        frame = build_frame(layout, schedules, ts)
        for col in (-2, -1):
            res = von_neumann_residual(frame.column(col), frame.derivatives[..., col], h[2:])
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

    # reconstructed evolution against direct integration, on the first half
    # of the cases (at least two), the only ones synthesized on a grid
    err = 0.0
    for layout, schedules in cases[:max(2, len(cases) // 2)]:
        plan = synthesize_general(layout, schedules, grid=_GRID)
        phases = generated_phases(plan)
        u_rec = reconstruct_evolution(build_frame(layout, schedules, plan.times), phases)
        fine = np.linspace(0.0, 1.0, 10 * _GRID + 1)
        nodes = (_GRID // 2, _GRID)
        u_bf = _brute_force(plan.hamiltonian, layout.dim, fine, [10 * idx for idx in nodes])
        for idx, u in zip(nodes, u_bf):
            err = _worst(err, float(np.linalg.norm(u_rec[idx] - u)))
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
            ts = rng.uniform(0.05, 0.95, 4)
            h = assemble_hamiltonian(layout, schedules, np.concatenate(([0.5], ts)), aux)
            scale = float(np.linalg.norm(h[0]))
            frame = build_frame(layout, schedules, ts)
            for col in (target, -2, -1):
                res = von_neumann_residual(frame.column(col), frame.derivatives[..., col], h[1:])
                err = _worst(err, res / scale)
            if target <= n_levels - 2:
                wrong = convert_dark_state(layout, schedules, target, angle_source="working")
                frame = build_frame(layout, schedules, 0.5)
                res = von_neumann_residual(frame.column(target), frame.derivatives[:, target],
                                           assemble_hamiltonian(layout, schedules, 0.5, wrong))
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
    ts = np.array([0.5, 0.3, 0.5, 0.7])  # the scale time, then the sample times
    h = assemble_hamiltonian(layout, schedules, ts)
    h[:, 0, 0] += 0.1
    scale = float(np.linalg.norm(h[0]))
    frame = build_frame(layout, schedules, ts[1:])
    detected = float(np.min(von_neumann_residual(frame.passage_lo, frame.derivatives[..., -2],
                                                 h[1:]))) / scale
    suites.append(SuiteResult("detuning-sensitivity", detected, 1e-3, detected > 1e-3,
                              detail="perturbed residual must exceed the tolerance"))

    return VerifyReport(seed=seed, sizes=sizes, suites=suites)
