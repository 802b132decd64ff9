"""Entangling protocols for longitudinally coupled qubits.

Two distant qubits coupled by a (J/2) sz*sz interaction and driven at a
common, tunable frequency realize the two-subspace passages step by step:

* a *split* step (drive frequency -omega+J, coupling on, J much larger than
  the Rabi amplitudes) addresses only the transitions out of the shared
  ground state; the ground level plays the single assistant level of a 1+2
  system and the state transfers into the balanced single-excitation
  superposition;
* a *convert* step (coupling off, drive frequency -omega) keeps every
  single-qubit transition; the double-excitation and ground levels form a
  two-level assistant subspace of a 2+2 system and the single-excitation
  state converts into (|ee..> - |gg..>)/sqrt(2), reversibly;
* *raise* steps (drive frequency -omega-J, only the coupling to the
  previously raised neighbor active) drive one fresh qubit conditioned on
  that neighbor being excited, extending |e..e> - |g..g> by one qubit while
  the all-ground component stays decoupled; each is the 1+2 passage with
  theta_0 = 0, whose dark working member is the all-ground level.

A Bell pair takes split+convert; an n-qubit GHZ state takes split, convert,
and n-2 raise steps.  Each step is assembled in the frame rotating with the
static Hamiltonian: "effective" mode keeps only the co-rotating transitions
(exact for convert steps, leading order in Rabi/J elsewhere) while
"rotating-frame" mode retains every transition with its exp(i 2J t)-type
phase so the approximation itself can be probed.  Because the active
couplings change between steps, each step defines its own co-rotating frame
with phases restarting at the step boundary, which amounts to resetting the
drive-phase origin per step.

Qubit product states use the per-qubit order (|e>, |g>) with qubit 0 as the
most significant factor, so "eg" maps to index 1 and "gg" to index 3.
Dissipation enters as one lowering channel per qubit at a common rate; the
channels keep their form in the rotating frame because a diagonal frame
rotation only multiplies each lowering operator by a phase, which cancels
inside every dissipator term.

Step Hamiltonians, drive coefficients and passage vectors take a float t or
an array of times; an array gives stacks with the time axis in front.  The
runner hands the propagators the callable t -> build_step_hamiltonian(step,
model, t, mode), which they call once per block of grid intervals, and runs
the passage residual over the same blocks.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from .ancillary import SubspaceLayout, build_frame
from .dynamics import (BLOCK, Dissipator, SimulationResult, StepSizeError, TimeGrid,
                       populations, propagate_lindblad, propagate_schrodinger,
                       von_neumann_residual)
from .linalg import SIGMA_MINUS, dagger, embed_qubit_operator, frobenius, outer
from .schedules import ParameterSchedule, ScheduleSet
from .synthesis import assemble_hamiltonian, generated_phases, synthesize_general
from .tolerances import TOL

__all__ = [
    "ProtocolError",
    "QubitModel",
    "ProtocolStep",
    "ProtocolPlan",
    "product_index",
    "product_state",
    "plan_bell",
    "plan_bell_reverse",
    "plan_ghz",
    "build_step_hamiltonian",
    "run_protocol",
    "CALIBRATED_OMEGA_T",
    "SUGGESTED_OMEGA_T",
    "DEFAULT_J_OVER_OMEGA",
]

# Time scale omega*T used to map decay-to-frequency ratios kappa/omega onto
# kappa*T.  SUGGESTED_OMEGA_T is the nominal hardware reading (a 2 GHz qubit
# driven for 1 us); CALIBRATED_OMEGA_T is the value the open-system sweep
# singles out as reproducing every reference fidelity this library is
# validated against.  See tools/calibrate.py and the README.
SUGGESTED_OMEGA_T = 1.2566e4
CALIBRATED_OMEGA_T = 2.9e3  # produced by the sweep in tools/calibrate.py
DEFAULT_J_OVER_OMEGA = 0.1

# drive-frequency rule -> its detuning from the bare transition, in units of J
_RULES = {"-omega+J": 1, "-omega": 0, "-omega-J": -1}


class ProtocolError(ValueError):
    pass


def product_index(label: str) -> int:
    idx = 0
    for ch in label:
        if ch not in "eg":
            raise ProtocolError(f"bad product label {label!r}; use 'e'/'g' characters")
        idx = 2 * idx + (0 if ch == "e" else 1)
    return idx


def product_state(label: str) -> np.ndarray:
    ket = np.zeros(2 ** len(label), dtype=complex)
    ket[product_index(label)] = 1.0
    return ket


@dataclass(frozen=True)
class QubitModel:
    """Qubit register parameters in units of the step duration T.

    `omega` is the transition frequency times T; it is only needed in
    rotating-frame mode (and to translate kappa/omega ratios).  The
    longitudinal coupling is J = j_over_omega * omega, switched per step.
    `kappa` is the per-qubit decay rate times T.
    """

    qubits: int
    omega: float | None = None
    j_over_omega: float = DEFAULT_J_OVER_OMEGA
    kappa: float = 0.0

    def __post_init__(self):
        if self.qubits < 2:
            raise ProtocolError("protocols need at least two qubits")
        if self.kappa < 0:
            raise ProtocolError("decay rate must be non-negative")
        if self.j_over_omega < 0:
            raise ProtocolError("coupling ratio must be non-negative")

    @property
    def j_coupling(self) -> float:
        if self.omega is None:
            raise ProtocolError("rotating-frame mode needs the omega*T scale")
        return self.j_over_omega * self.omega

    def with_kappa(self, kappa: float) -> "QubitModel":
        return QubitModel(self.qubits, self.omega, self.j_over_omega, kappa)


@dataclass
class ProtocolStep:
    """One passage step: a reduced two-subspace model embedded in the register.

    The reduced model (layout, schedules) generates the drive coefficients;
    `embed` maps its levels onto product-basis indices and `rep` maps each
    driven qubit to the (row, col) reduced matrix element that carries the
    qubit's drive coefficient.  `lines` holds, per driven qubit, the
    (qubit, rows, cols, n) of all its raising transitions: in the frame
    rotating with the static Hamiltonian a transition oscillates at n*J, so
    effective mode keeps the n = 0 lines.
    """

    name: str
    qubits: int
    duration: float
    t_start: float
    drives: tuple
    couplings: tuple
    omega0_rule: str
    initial: np.ndarray
    target: np.ndarray
    layout: SubspaceLayout
    schedules: ScheduleSet
    embed: tuple
    rep: dict
    lines: tuple = field(init=False)

    def __post_init__(self):
        self.lines = _transition_lines(self)

    @property
    def dim(self) -> int:
        return 2 ** self.qubits

    def reduced_hamiltonian(self, t) -> np.ndarray:
        return assemble_hamiltonian(self.layout, self.schedules, t)

    def drive_coefficients(self, t) -> dict:
        """Complex coefficient of each driven qubit's raising transition, one
        per entry of t when t is an array."""
        h_red = self.reduced_hamiltonian(t)
        return {q: h_red[(..., *self.rep[q])] for q in self.drives}

    # -- passage bookkeeping ---------------------------------------------------

    def passage_vectors(self, t) -> tuple[np.ndarray, np.ndarray]:
        """Transfer-path vector and its time derivative in the full space,
        with the shape of t in front for an array of times."""
        frame = build_frame(self.layout, self.schedules, t)
        v = np.zeros(np.shape(t) + (self.dim,), dtype=complex)
        dv = np.zeros_like(v)
        v[..., list(self.embed)] = frame.passage_lo
        dv[..., list(self.embed)] = frame.derivatives[..., -2]
        return v, dv

    def transfer_map(self, grid: int = 400) -> np.ndarray:
        """Nominal unitary of the step on the full space (identity off the
        embedded block), built from the frame members and their phases."""
        plan = synthesize_general(self.layout, self.schedules, grid=grid)
        phases = generated_phases(self.layout, self.schedules, plan)
        f_end = phases.as_matrix()[:, -1]
        v_end = build_frame(self.layout, self.schedules, self.duration).vectors
        v_0 = build_frame(self.layout, self.schedules, 0.0).vectors
        idx = list(self.embed)
        u = np.eye(self.dim, dtype=complex)
        u[np.ix_(idx, idx)] = (v_end * np.exp(1j * f_end)) @ np.conj(v_0.T)
        return u


def _transition_lines(step: ProtocolStep) -> tuple:
    """Per driven qubit: (qubit, rows, cols, n) of its raising transitions.

    The drive frequency rule contributes n = +1, 0, -1 and each coupling
    partner another +1 in |e> or -1 in |g>.
    """
    if step.omega0_rule not in _RULES:
        raise ProtocolError(f"unknown drive-frequency rule {step.omega0_rule!r}")
    n_qubits = step.qubits
    lines = []
    for q in step.drives:
        partners = [p for pair in step.couplings for p in pair if q in pair and p != q]
        rows, cols, ns = [], [], []
        for col in range(2 ** n_qubits):
            if ((col >> (n_qubits - 1 - q)) & 1) == 0:
                continue  # qubit q must start in |g> (bit 1) to be raised
            n = _RULES[step.omega0_rule]
            for p in partners:
                n += -1 if (col >> (n_qubits - 1 - p)) & 1 else 1
            rows.append(col & ~(1 << (n_qubits - 1 - q)))
            cols.append(col)
            ns.append(n)
        lines.append((q, np.array(rows), np.array(cols), np.array(ns)))
    return tuple(lines)


@dataclass
class ProtocolPlan:
    """Ordered steps, the initial state, and the per-step / final targets."""

    name: str
    qubits: int
    steps: list
    initial: np.ndarray
    final_target: np.ndarray
    labels: dict

    @property
    def total_duration(self) -> float:
        return sum(s.duration for s in self.steps)

    @property
    def t_start(self) -> float:
        return self.steps[0].t_start


# ---------------------------------------------------------------------------
# step builders
# ---------------------------------------------------------------------------

def _with_pad(prefix: str, n_qubits: int) -> str:
    return prefix + "g" * (n_qubits - len(prefix))


def _apply_overrides(table: dict, overrides: dict | None, duration: float) -> dict:
    """Replace declared schedules by user overrides, re-timed to the step.

    Overrides for symbols the step does not declare are ignored here; the
    step-consistency assertion catches combinations that break the declared
    transfer.
    """
    if not overrides:
        return table
    out = dict(table)
    for symbol, sched in overrides.items():
        if symbol in out:
            out[symbol] = dataclasses.replace(sched, duration=duration)
    return out


def _assert_step_consistency(step: ProtocolStep) -> None:
    """The step's effective Hamiltonian must reproduce its reduced model on
    the embedded block, and its nominal transfer must send initial to target."""
    idx = list(step.embed)
    for t in (0.15 * step.duration, 0.5 * step.duration, 0.85 * step.duration):
        h_eff = build_step_hamiltonian(step, None, t, mode="effective")
        h_red = step.reduced_hamiltonian(t)
        scale = max(1.0, float(np.max(np.abs(h_red))))
        if np.max(np.abs(h_eff[np.ix_(idx, idx)] - h_red)) > 1e-12 * scale:
            raise ProtocolError(f"step {step.name!r}: co-rotating transitions do not "
                                "reproduce the reduced model on its block")
    u = step.transfer_map()
    overlap = abs(np.vdot(step.target, u @ step.initial))
    if abs(overlap - 1.0) > 1e-9:
        raise ProtocolError(f"step {step.name!r}: declared boundaries do not map "
                            f"the initial state onto the target (overlap {overlap:.9f})")


def _split_step(n_qubits: int, duration: float, t_start: float,
                boundary: str, overrides: dict | None = None) -> ProtocolStep:
    """Ground state -> (|eg..> + |ge..>)/sqrt(2) on qubits 0 and 1."""
    if boundary not in ("caption", "text"):
        raise ProtocolError(f"unknown boundary choice {boundary!r}")
    alpha = 0.0 if boundary == "caption" else np.pi
    layout = SubspaceLayout(1, 2)
    table = {
        "theta_0": ParameterSchedule.constant(np.pi / 4, duration),
        "alpha_0": ParameterSchedule.constant(0.0, duration),
        "phi": ParameterSchedule.cosine_ramp(np.pi / 2, duration),
        "alpha": ParameterSchedule.constant(alpha, duration),
        "varphi": ParameterSchedule.constant(np.pi / 2, duration),
    }
    schedules = ScheduleSet(1, 2, duration, _apply_overrides(table, overrides, duration))
    ground = _with_pad("", n_qubits)
    one_up = _with_pad("e", n_qubits)
    other_up = _with_pad("ge", n_qubits)
    embed = (product_index(ground), product_index(one_up), product_index(other_up))
    target = (product_state(one_up) + product_state(other_up)) / np.sqrt(2)
    step = ProtocolStep(
        name="split", qubits=n_qubits, duration=duration,
        t_start=t_start, drives=(0, 1), couplings=((0, 1),), omega0_rule="-omega+J",
        initial=product_state(ground), target=target,
        layout=layout, schedules=schedules, embed=embed,
        rep={0: (1, 0), 1: (2, 0)},
    )
    _assert_step_consistency(step)
    return step


def _convert_step(n_qubits: int, duration: float, t_start: float,
                  reverse: bool = False, overrides: dict | None = None) -> ProtocolStep:
    """(|eg..> + |ge..>)/sqrt(2) <-> (|ee..> - |gg..>)/sqrt(2)."""
    layout = SubspaceLayout(2, 2)
    if reverse:
        phi = ParameterSchedule.cosine_ramp(np.pi / 2, duration)
    else:
        phi = ParameterSchedule.cosine_ramp(-np.pi / 2, duration, offset=np.pi / 2)
    table = {
        "ttheta_0": ParameterSchedule.constant(np.pi / 4, duration),
        "talpha_0": ParameterSchedule.constant(0.0, duration),
        "theta_0": ParameterSchedule.constant(np.pi / 4, duration),
        "alpha_0": ParameterSchedule.constant(0.0, duration),
        "phi": phi,
        "alpha": ParameterSchedule.constant(np.pi, duration),
        "varphi": ParameterSchedule.constant(np.pi / 2, duration),
    }
    schedules = ScheduleSet(2, 2, duration, _apply_overrides(table, overrides, duration))
    both_up = _with_pad("ee", n_qubits)
    ground = _with_pad("", n_qubits)
    one_up = _with_pad("e", n_qubits)
    other_up = _with_pad("ge", n_qubits)
    embed = (product_index(both_up), product_index(ground),
             product_index(one_up), product_index(other_up))
    single = (product_state(one_up) + product_state(other_up)) / np.sqrt(2)
    double = (product_state(both_up) - product_state(ground)) / np.sqrt(2)
    initial, target = (double, single) if reverse else (single, double)
    step = ProtocolStep(
        name="convert-back" if reverse else "convert",
        qubits=n_qubits, duration=duration, t_start=t_start, drives=(0, 1),
        couplings=(), omega0_rule="-omega",
        initial=initial, target=target,
        layout=layout, schedules=schedules, embed=embed,
        rep={0: (0, 3), 1: (0, 2)},  # <ee|H|ge> and <ee|H|eg> in reduced indices
    )
    _assert_step_consistency(step)
    return step


def _raise_step(n_qubits: int, k: int, duration: float, t_start: float,
                overrides: dict | None = None) -> ProtocolStep:
    """(|e^{k-1}..> - |g..>)/sqrt(2) -> (|e^k..> - |g..>)/sqrt(2), qubit k-1 driven.

    The 1+2 passage with theta_0 = 0: the assistant level is the upper
    state, the terminal working bright state the lower one, and the dark
    working member the all-ground level, which the drive leaves untouched.
    """
    if not 3 <= k <= n_qubits:
        raise ProtocolError(f"raise step index {k} out of range for {n_qubits} qubits")
    q = k - 1         # driven qubit, 0-based
    lower_label = _with_pad("e" * (k - 1), n_qubits)
    upper_label = _with_pad("e" * k, n_qubits)
    table = {
        "phi": ParameterSchedule.cosine_ramp(-np.pi / 2, duration, offset=np.pi / 2),
        "alpha": ParameterSchedule.constant(np.pi, duration),
        "varphi": ParameterSchedule.constant(np.pi / 2, duration),
    }
    # added after the overrides so that no override can move the dark member
    table = _apply_overrides(table, overrides, duration)
    table["theta_0"] = ParameterSchedule.constant(0.0, duration)
    table["alpha_0"] = ParameterSchedule.constant(0.0, duration)
    ground_label = _with_pad("", n_qubits)
    ground = product_state(ground_label)
    initial = (product_state(lower_label) - ground) / np.sqrt(2)
    target = (product_state(upper_label) - ground) / np.sqrt(2)
    step = ProtocolStep(
        name=f"raise-{k}", qubits=n_qubits, duration=duration,
        t_start=t_start, drives=(q,), couplings=((q - 1, q),), omega0_rule="-omega-J",
        initial=initial, target=target,
        layout=SubspaceLayout(1, 2), schedules=ScheduleSet(1, 2, duration, table),
        embed=(product_index(upper_label), product_index(ground_label),
               product_index(lower_label)),
        rep={q: (0, 2)},  # <upper|H|lower> in reduced indices
    )
    _assert_step_consistency(step)
    return step


# ---------------------------------------------------------------------------
# plans
# ---------------------------------------------------------------------------

def _bell_labels(n_qubits: int) -> dict:
    labels = {}
    for name in ("gg", "eg", "ge", "ee"):
        full = _with_pad(name, n_qubits) if name != "gg" else _with_pad("", n_qubits)
        labels[full] = product_index(full)
    return labels


def plan_bell(model: QubitModel, duration: float = 1.0,
              boundary: str = "caption", overrides: dict | None = None) -> ProtocolPlan:
    """Two steps: ground -> single-excitation pair -> (|ee>-|gg>)/sqrt(2)."""
    n = model.qubits
    split = _split_step(n, duration, 0.0, boundary, overrides)
    convert = _convert_step(n, duration, duration, overrides=overrides)
    return ProtocolPlan(name="bell", qubits=n, steps=[split, convert],
                        initial=split.initial, final_target=convert.target,
                        labels=_bell_labels(n))


def plan_bell_reverse(model: QubitModel, duration: float = 1.0,
                      overrides: dict | None = None) -> ProtocolPlan:
    """One step converting (|ee>-|gg>)/sqrt(2) back to the single-excitation pair."""
    n = model.qubits
    step = _convert_step(n, duration, duration, reverse=True, overrides=overrides)
    return ProtocolPlan(name="bell-reverse", qubits=n, steps=[step],
                        initial=step.initial, final_target=step.target,
                        labels=_bell_labels(n))


def plan_ghz(model: QubitModel, n_qubits: int | None = None,
             duration: float = 1.0, boundary: str = "caption",
             overrides: dict | None = None) -> ProtocolPlan:
    """n steps ending at (|e..e> - |g..g>)/sqrt(2); needs at least three qubits."""
    n = model.qubits if n_qubits is None else n_qubits
    if n < 3:
        raise ProtocolError("the GHZ sequence needs at least three qubits; "
                            "use the bell plan for two")
    if n != model.qubits:
        raise ProtocolError("qubit count disagrees with the model")
    steps = [_split_step(n, duration, 0.0, boundary, overrides),
             _convert_step(n, duration, duration, overrides=overrides)]
    for k in range(3, n + 1):
        steps.append(_raise_step(n, k, duration, (k - 1) * duration, overrides))
    for prev, nxt in zip(steps, steps[1:]):
        if abs(abs(np.vdot(nxt.initial, prev.target)) - 1.0) > 1e-12:
            raise ProtocolError("step chain is not continuous")
    labels = {}
    for name in ("", "e", "ge"):
        full = _with_pad(name, n)
        labels[full] = product_index(full)
    for k in range(2, n + 1):
        full = _with_pad("e" * k, n)
        labels[full] = product_index(full)
    return ProtocolPlan(name="ghz", qubits=n, steps=steps,
                        initial=steps[0].initial, final_target=steps[-1].target,
                        labels=labels)


# ---------------------------------------------------------------------------
# Hamiltonians and execution
# ---------------------------------------------------------------------------

def build_step_hamiltonian(step: ProtocolStep, model: QubitModel | None,
                           t, mode: str = "effective") -> np.ndarray:
    """Full-register Hamiltonian of one step at local time t.

    A float t gives one (d, d) matrix; an array of times gives the stack with
    the shape of t in front, which is how the propagators call it.  Each
    transition line's coefficient is multiplied by exp(i n J t): rotating-frame
    mode needs a model with the omega*T scale and keeps every line, effective
    mode keeps the co-rotating n = 0 lines only.  Any detuning of the reduced
    model rides on its embedded levels.
    """
    if mode == "rotating-frame":
        if model is None or model.omega is None:
            raise ProtocolError("rotating-frame mode needs the omega*T scale")
        j = model.j_coupling
    elif mode == "effective":
        j = 0.0
    else:
        raise ProtocolError(f"unknown Hamiltonian mode {mode!r}")
    t = np.asarray(t, dtype=float)
    h_red = step.reduced_hamiltonian(t)
    h = np.zeros(t.shape + (step.dim, step.dim), dtype=complex)
    for q, rows, cols, n in step.lines:
        if mode == "effective":
            keep = n == 0
            rows, cols, n = rows[keep], cols[keep], n[keep]
        c = h_red[(..., *step.rep[q])]
        h[..., rows, cols] += c[..., None] * np.exp(1j * (n * j) * t[..., None])
    h += dagger(h)
    idx = list(step.embed)
    h[..., idx, idx] += np.diagonal(h_red, axis1=-2, axis2=-1).real
    return h


def run_protocol(plan: ProtocolPlan, model: QubitModel, mode: str = "effective",
                 noise: bool = False, grid_steps: int = 2000,
                 strict: bool = True, compute_residual: bool = True) -> SimulationResult:
    """Propagate a plan step by step and collect populations and fidelities.

    With noise on, every qubit decays through its lowering operator at the
    model's rate and the state is carried as a density matrix; otherwise the
    closed Schrodinger propagator runs on the pure state.  `strict` enforces
    the strong-coupling requirement J >= 10x the peak Rabi amplitude for the
    steps that rely on it in rotating-frame mode.
    """
    if model.qubits != plan.qubits:
        raise ProtocolError("model and plan disagree on the qubit count")
    use_density = noise and model.kappa > 0.0
    dissipators = []
    if use_density:
        dissipators = [Dissipator(embed_qubit_operator(SIGMA_MINUS, plan.qubits, q),
                                  model.kappa) for q in range(plan.qubits)]

    state: np.ndarray = outer(plan.initial) if use_density else plan.initial.copy()
    times_out: list[np.ndarray] = []
    pop_out: dict[str, list] = {name: [] for name in plan.labels}
    fid_step_out: list[np.ndarray] = []
    fid_final_out: list[np.ndarray] = []
    residual_out: list[np.ndarray] = []
    step_records = []
    norm_drift = 0.0
    trace_drift = 0.0
    min_eig = 0.0 if not use_density else 1.0
    residual_scale = 0.0

    kets = {name: product_state(name) for name in plan.labels}

    for step in plan.steps:
        def h_local(t, _step=step):
            return build_step_hamiltonian(_step, model, t, mode=mode)

        if mode == "rotating-frame" and strict and step.couplings:
            coefficients = step.drive_coefficients(np.linspace(0, step.duration, 101))
            peak = max(float(np.max(np.abs(c))) for c in coefficients.values())
            if model.j_coupling < 10.0 * peak:
                raise ProtocolError(
                    f"step {step.name!r} relies on a strong coupling; "
                    f"J = {model.j_coupling:.3g} is below 10x the peak Rabi "
                    f"amplitude {peak:.3g}")

        grid = TimeGrid(0.0, step.duration, grid_steps)
        if use_density:
            try:
                traj = propagate_lindblad(h_local, dissipators, state, grid)
            except StepSizeError as exc:
                raise StepSizeError(f"step {step.name!r}: {exc}") from None
            states = traj.matrices
            trace_drift = max(trace_drift, traj.trace_drift)
            min_eig = min(min_eig, traj.min_eigenvalue)
        else:
            traj = propagate_schrodinger(h_local, state, grid)
            states = traj.states
            norm_drift = max(norm_drift, traj.norm_drift)
        state = states[-1].copy()  # a view would keep the whole trajectory alive

        first = 0 if not times_out else 1  # drop duplicated boundary node
        times_out.append(step.t_start + traj.times[first:])
        for name, ket in kets.items():
            pop_out[name].append(populations(states[first:], ket))
        fid_step_out.append(populations(states[first:], step.target))
        fid_final_out.append(populations(states[first:], plan.final_target))
        if compute_residual:
            ts = traj.times[first:]
            residual_out.append(np.concatenate([
                von_neumann_residual(*step.passage_vectors(block), h_local(block))
                for block in np.split(ts, range(BLOCK, ts.size, BLOCK))]))
            h_mid = h_local(0.5 * step.duration)
            residual_scale = max(residual_scale, frobenius(h_mid))

        end_fidelity = float(populations(states[-1:], step.target)[0])
        step_records.append({
            "name": step.name,
            "t_end": step.t_start + step.duration,
            "target_fidelity": end_fidelity,
        })
        del traj, states  # released before the next step propagates

    times = np.concatenate(times_out)
    pops = {name: np.concatenate(chunks) for name, chunks in pop_out.items()}
    fidelity = np.concatenate(fid_step_out)
    diagnostics = {
        "population_sum_max": float(np.max(sum(pops.values()))),
        "mode": mode,
    }
    if use_density:
        diagnostics["trace_drift"] = trace_drift
        diagnostics["min_eigenvalue"] = min_eig
    else:
        diagnostics["norm_drift"] = norm_drift
    auxiliary = {"fidelity_final": np.concatenate(fid_final_out)}
    if compute_residual:
        residual = np.concatenate(residual_out)
        auxiliary["residual"] = residual
        diagnostics["max_residual"] = float(np.max(residual))
        diagnostics["max_residual_relative"] = float(np.max(residual) / max(residual_scale, 1e-300))
    return SimulationResult(times=times, populations=pops, fidelity=fidelity,
                            final_state=state, diagnostics=diagnostics,
                            steps=step_records, auxiliary=auxiliary)


def diagnostics_ok(result: SimulationResult, mode: str = "effective") -> bool:
    """Gate used by the command-line runner: drift bounds always, the passage
    residual only in effective mode (rotating-frame runs probe its breakdown)."""
    d = result.diagnostics
    if d.get("norm_drift", 0.0) > TOL.norm_drift:
        return False
    if d.get("trace_drift", 0.0) > TOL.trace_drift:
        return False
    if d.get("min_eigenvalue", 0.0) < -TOL.positivity_drift:
        return False
    if mode == "effective" and "max_residual_relative" in d:
        if d["max_residual_relative"] > TOL.passage_residual:
            return False
    return True
