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
an array of times; an array gives stacks with the time axis in front.

A step drives at most two qubits and never flips the others, so in its level
order `ProtocolStep.order` (spectator bits major, driven bits minor) its
Hamiltonian is block diagonal over d/b groups of b = 2**len(drives) <= 4
levels.  Groups that hold the same transitions and embedded levels at the
same places hold equal blocks, and a step has few such classes (two among
the 8 groups of GHZ5's split and convert steps, four among the 16 of a raise
step, holding one or two distinct blocks), so `_class_blocks` assembles one
block per class, the form of H the runner propagates; `build_step_blocks` spreads them over the
groups for the residual pass, and `build_step_hamiltonian` scatters them
into the dense product-basis matrix for the step-consistency check and the
public API.

The runner carries the states into each step's order at the step's start
and back at its end.  Each step is one propagation (`dynamics._propagate`):
it evaluates and exponentiates the blocks once per span of grid intervals
(512 up to d = 8, 256 above, `dynamics._span`) and advances the closed run
and the open stack on that one stream of step unitaries.  The open stack
takes each qubit's decay as the bit of the step-order level index it
flips and its rates (`_decay_channels`), never as a d x d operator.  For
the passage residual the runner takes H's groups and the passage vectors,
in the step order, once per span of as many nodes, and evaluates the
residual's closed form on the whole span, so that pass holds O(span d b)
numbers.  It stores no trajectory: its observer (`_Track`) reads the
label populations and both fidelities out of each block the runs hand it
into one block of values, the open stack's through the linear map that
`dynamics._reader` compiles from the run's reading of its nodes (the
node layout stays inside `dynamics`), and a step's record takes its
fidelity from that series at the step's last node.
`run_protocol_kappas` runs one plan for several decay rates at once: the
open runs as one density-matrix stack, the closed ones as one pure-state
run, one residual pass per step.  The state a step hands on is checked
once, by its successor's entry checks, and a failure there names the step
that made the state.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np

from .ancillary import SubspaceLayout, build_frame
from .dynamics import (SimulationResult, StepSizeError, TimeGrid, _lindblad_run, _propagate,
                       _reader, _schrodinger_run, _span, populations,
                       reconstruct_evolution, von_neumann_residual)
from .linalg import StateCheckError, frobenius, outer
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
    "build_step_blocks",
    "build_step_hamiltonian",
    "check_strong_coupling",
    "run_protocol",
    "run_protocol_kappas",
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

_TRANSFER_GRID = 400  # phase-quadrature intervals behind a step's transfer map


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
        # the comparisons are written so that nan fails them
        if not 0 <= self.kappa < math.inf:
            raise ProtocolError("decay rate must be finite and non-negative")
        if self.omega is not None and not 0 < self.omega < math.inf:
            raise ProtocolError("omega*T scale must be finite and positive")
        if not 0 <= self.j_over_omega < math.inf:
            raise ProtocolError("coupling ratio must be finite and non-negative")
        # Python floats overflow to inf without a warning
        if self.omega is not None and not float(self.j_over_omega) * float(self.omega) < math.inf:
            raise ProtocolError(f"coupling J = {self.j_over_omega:g} * {self.omega:g} "
                                "is not finite")

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

    The reduced model's schedule set generates the drive coefficients and
    fixes the step's `duration` and its (M, N) `layout`; `embed` maps its
    levels onto product-basis indices and `rep` maps each driven qubit to
    the (row, col) reduced matrix element that carries the qubit's drive
    coefficient.  A step is checked when it is built: its effective
    Hamiltonian must reproduce the reduced model on the embedded block and
    its nominal transfer must send `initial` to `target`, or ProtocolError
    is raised.

    `order` is the step's level order: position p holds product index
    order[p], with the spectator qubits' bits as the major index and the
    driven qubits' bits as the minor one.  Every transition of the step flips
    driven qubits only and its diagonal lives on the embedded levels, so in
    this order the step Hamiltonian is block diagonal over S = d/b
    consecutive groups of b = 2**len(drives) levels, one per configuration
    of the spectators; `position`, the inverse of `order`, holds each
    product index's place in it.  `classes` holds, per Hamiltonian mode,
    the step's classes of groups (see `_line_classes`): in the frame rotating
    with the static Hamiltonian a transition oscillates at n*J, so effective
    mode keeps the n = 0 transitions only, and groups that hold the same
    transitions and embedded levels at the same places hold the same block.
    """

    name: str
    qubits: int
    t_start: float
    drives: tuple
    couplings: tuple
    omega0_rule: str
    initial: np.ndarray
    target: np.ndarray
    schedules: ScheduleSet
    embed: tuple
    rep: dict
    layout: SubspaceLayout = field(init=False)
    order: np.ndarray = field(init=False)
    position: np.ndarray = field(init=False)
    classes: dict = field(init=False)

    def __post_init__(self):
        self.layout = SubspaceLayout(self.schedules.assistant_levels,
                                     self.schedules.working_levels)
        driven = sorted(self.drives)
        spectators = [q for q in range(self.qubits) if q not in driven]
        levels = np.arange(self.dim).reshape((2,) * self.qubits)
        self.order = levels.transpose(spectators + driven).ravel()
        self.position = np.argsort(self.order)
        lines = _transition_lines(self)
        self.classes = {mode: _line_classes(self, lines, mode == "effective")
                        for mode in ("effective", "rotating-frame")}
        _assert_step_consistency(self)

    @property
    def duration(self) -> float:
        return self.schedules.duration

    @property
    def dim(self) -> int:
        return 2 ** self.qubits

    @property
    def block(self) -> int:
        """Levels per group of the step order, b = 2**len(drives)."""
        return 2 ** len(self.drives)

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

    def transfer_map(self) -> np.ndarray:
        """Nominal unitary of the step on the full space (identity off the
        embedded block): the evolution operator of its frame members and
        their phases, reconstructed on the step's two end frames."""
        plan = synthesize_general(self.layout, self.schedules, grid=_TRANSFER_GRID)
        phases = generated_phases(plan).as_matrix()[:, [0, -1]]
        ends = [build_frame(self.layout, self.schedules, t) for t in (0.0, self.duration)]
        idx = list(self.embed)
        u = np.eye(self.dim, dtype=complex)
        u[np.ix_(idx, idx)] = reconstruct_evolution(ends, phases)[-1]
        return u


def _transition_lines(step: ProtocolStep) -> tuple:
    """Per driven qubit: (qubit, groups, rows, cols, n) of its raising
    transitions, in the blocks of the step order.

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
        rows, cols = step.position[rows], step.position[cols]
        size = step.block
        lines.append((q, rows // size, rows % size, cols % size, np.array(ns)))
    return tuple(lines)


def _line_classes(step: ProtocolStep, lines: tuple, effective: bool) -> tuple:
    """The classes of the step order's groups for one Hamiltonian mode, as
    (which, lines, diagonal): `which` (S,) the class of each group, numbered
    in order of first appearance; `lines` per driven qubit the transition
    lines (see `_transition_lines`) of each class's first group, as
    (qubit, upper, lower, n), upper and lower being a line's flat places in
    a (C, b, b) stack of one block per class above and below the diagonal;
    `diagonal` the flat places of the embedded levels' diagonal entries, in
    the order of `step.embed`.

    A group's pattern is what sits at each of its b x b places: a driven
    qubit's line with its n (effective mode drops the n != 0 lines), or an
    embedded level's diagonal entry.  Groups of one pattern hold equal
    blocks at any time, so one block per class holds every value of H."""
    size, groups = step.block, step.dim // step.block
    if effective:
        lines = tuple((q, g[n == 0], r[n == 0], c[n == 0], n[n == 0]) for q, g, r, c, n in lines)
    pattern = np.zeros((groups, size, size, 2), dtype=int)
    for i, (q, g, r, c, n) in enumerate(lines):
        pattern[g, r, c, 0], pattern[g, r, c, 1] = i + 1, n
    group, place = np.divmod(step.position[list(step.embed)], size)
    pattern[group, place, place, 0] = -1 - np.arange(group.size)
    slot: dict = {}
    which = np.array([slot.setdefault(p.tobytes(), len(slot)) for p in pattern])
    lead = np.full(groups, -1)  # the class of each class's first group, -1 for the others
    first = np.unique(which, return_index=True)[1]
    lead[first] = which[first]
    places = []
    for q, g, r, c, n in lines:
        keep = lead[g] >= 0
        block = lead[g[keep]] * size
        r, c = r[keep], c[keep]
        places.append((q, (block + r) * size + c, (block + c) * size + r, n[keep]))
    # an embedded level's pattern is its group's alone, so that group leads its class
    return which, tuple(places), (which[group] * size + place) * size + place


@dataclass
class ProtocolPlan:
    """Ordered steps and the product labels whose populations a run records.

    The register size and initial state are the first step's, the final
    target the last step's.  A plan refuses steps that do not chain: each
    step must start in the state its predecessor ends in.
    """

    name: str
    steps: list
    labels: dict

    def __post_init__(self):
        for prev, nxt in zip(self.steps, self.steps[1:]):
            if abs(abs(np.vdot(nxt.initial, prev.target)) - 1.0) > 1e-12:
                raise ProtocolError("step chain is not continuous")

    @property
    def qubits(self) -> int:
        return self.steps[0].qubits

    @property
    def initial(self) -> np.ndarray:
        return self.steps[0].initial

    @property
    def final_target(self) -> np.ndarray:
        return self.steps[-1].target


# ---------------------------------------------------------------------------
# step builders
# ---------------------------------------------------------------------------

def _with_pad(prefix: str, n_qubits: int) -> str:
    return prefix + "g" * (n_qubits - len(prefix))


def _levels(n_qubits: int, *prefixes: str) -> tuple[tuple, np.ndarray]:
    """Product indices of the label prefixes, each padded with g to n_qubits,
    and their kets as the rows of one array."""
    index = tuple(product_index(_with_pad(p, n_qubits)) for p in prefixes)
    kets = np.zeros((len(index), 2 ** n_qubits), dtype=complex)
    kets[range(len(index)), index] = 1.0
    return index, kets


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
    table = {
        "theta_0": ParameterSchedule.constant(np.pi / 4, duration),
        "alpha_0": ParameterSchedule.constant(0.0, duration),
        "phi": ParameterSchedule.cosine_ramp(np.pi / 2, duration),
        "alpha": ParameterSchedule.constant(alpha, duration),
        "varphi": ParameterSchedule.constant(np.pi / 2, duration),
    }
    embed, (ground, one_up, other_up) = _levels(n_qubits, "", "e", "ge")
    return ProtocolStep(
        name="split", qubits=n_qubits, t_start=t_start, drives=(0, 1), couplings=((0, 1),),
        omega0_rule="-omega+J", initial=ground, target=(one_up + other_up) / np.sqrt(2),
        schedules=ScheduleSet(1, 2, duration, _apply_overrides(table, overrides, duration)),
        embed=embed, rep={0: (1, 0), 1: (2, 0)},
    )


def _convert_step(n_qubits: int, duration: float, t_start: float,
                  reverse: bool = False, overrides: dict | None = None) -> ProtocolStep:
    """(|eg..> + |ge..>)/sqrt(2) <-> (|ee..> - |gg..>)/sqrt(2)."""
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
    embed, (both_up, ground, one_up, other_up) = _levels(n_qubits, "ee", "", "e", "ge")
    single = (one_up + other_up) / np.sqrt(2)
    double = (both_up - ground) / np.sqrt(2)
    initial, target = (double, single) if reverse else (single, double)
    return ProtocolStep(
        name="convert-back" if reverse else "convert", qubits=n_qubits, t_start=t_start,
        drives=(0, 1), couplings=(), omega0_rule="-omega", initial=initial, target=target,
        schedules=ScheduleSet(2, 2, duration, _apply_overrides(table, overrides, duration)),
        embed=embed, rep={0: (0, 3), 1: (0, 2)},  # <ee|H|ge> and <ee|H|eg> in reduced indices
    )


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
    table = {
        "phi": ParameterSchedule.cosine_ramp(-np.pi / 2, duration, offset=np.pi / 2),
        "alpha": ParameterSchedule.constant(np.pi, duration),
        "varphi": ParameterSchedule.constant(np.pi / 2, duration),
    }
    # added after the overrides so that no override can move the dark member
    table = _apply_overrides(table, overrides, duration)
    table["theta_0"] = ParameterSchedule.constant(0.0, duration)
    table["alpha_0"] = ParameterSchedule.constant(0.0, duration)
    embed, (upper, ground, lower) = _levels(n_qubits, "e" * k, "", "e" * (k - 1))
    return ProtocolStep(
        name=f"raise-{k}", qubits=n_qubits, t_start=t_start, drives=(q,),
        couplings=((q - 1, q),), omega0_rule="-omega-J", initial=(lower - ground) / np.sqrt(2),
        target=(upper - ground) / np.sqrt(2), schedules=ScheduleSet(1, 2, duration, table),
        embed=embed, rep={q: (0, 2)},  # <upper|H|lower> in reduced indices
    )


# ---------------------------------------------------------------------------
# plans
# ---------------------------------------------------------------------------

def _labels(n_qubits: int, top: int) -> dict:
    """{label: product index} of g..g, eg.., ge.. and e^k g.. for k = 2..top,
    in that order, the order in which a run sums their populations."""
    prefixes = ["", "e", "ge"] + ["e" * k for k in range(2, top + 1)]
    return {name: product_index(name) for name in (_with_pad(p, n_qubits) for p in prefixes)}


def plan_bell(model: QubitModel, duration: float = 1.0,
              boundary: str = "caption", overrides: dict | None = None) -> ProtocolPlan:
    """Two steps: ground -> single-excitation pair -> (|ee>-|gg>)/sqrt(2)."""
    n = model.qubits
    steps = [_split_step(n, duration, 0.0, boundary, overrides),
             _convert_step(n, duration, duration, overrides=overrides)]
    return ProtocolPlan(name="bell", steps=steps, labels=_labels(n, 2))


def plan_bell_reverse(model: QubitModel, duration: float = 1.0,
                      overrides: dict | None = None) -> ProtocolPlan:
    """One step converting (|ee>-|gg>)/sqrt(2) back to the single-excitation pair."""
    n = model.qubits
    step = _convert_step(n, duration, duration, reverse=True, overrides=overrides)
    return ProtocolPlan(name="bell-reverse", steps=[step], labels=_labels(n, 2))


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
    return ProtocolPlan(name="ghz", steps=steps, labels=_labels(n, n))


# ---------------------------------------------------------------------------
# Hamiltonians and execution
# ---------------------------------------------------------------------------

def _class_blocks(step: ProtocolStep, model: QubitModel | None, t,
                  mode: str = "effective") -> tuple[np.ndarray, np.ndarray]:
    """The step Hamiltonian at local time t as (blocks, which): one (b, b)
    block per class of groups of the step order (see `_line_classes`),
    (C, b, b) with the shape of t in front, and the (S,) class of each
    group, the pair the propagators take (`dynamics._step_unitaries`).

    Each transition line's coefficient is multiplied by exp(i n J t):
    rotating-frame mode needs a model with the omega*T scale and keeps every
    line, effective mode keeps the co-rotating n = 0 lines only, and where
    J = 0, as there, the factor is 1 and skipped.  Any detuning of the
    reduced model rides on its embedded levels.
    """
    if mode == "rotating-frame":
        if model is None or model.omega is None:
            raise ProtocolError("rotating-frame mode needs the omega*T scale")
        j = model.j_coupling
    elif mode == "effective":
        j = 0.0
    else:
        raise ProtocolError(f"unknown Hamiltonian mode {mode!r}")
    which, lines, diagonal = step.classes[mode]
    t = np.asarray(t, dtype=float)
    h_red = step.reduced_hamiltonian(t)
    size = step.block
    h = np.zeros(t.shape + (which.max() + 1, size, size), dtype=complex)
    flat = h.reshape(t.shape + (-1,))
    for q, upper, lower, n in lines:
        c = h_red[(..., *step.rep[q])][..., None]
        if j:
            c = c * np.exp(1j * (n * j) * t[..., None])
        # the lines lie above the diagonal, so this is h += h+ without a copy of h
        flat[..., upper] += c
        flat[..., lower] += np.conj(c)
    flat[..., diagonal] += np.diagonal(h_red, axis1=-2, axis2=-1).real
    return h, which


def build_step_blocks(step: ProtocolStep, model: QubitModel | None,
                      t, mode: str = "effective") -> np.ndarray:
    """The step Hamiltonian at local time t as its (S, b, b) blocks over the
    groups of the step order (see ProtocolStep): each group's class block
    (`_class_blocks`); an array of times puts its shape in front.
    Rotating-frame mode needs a model with the omega*T scale."""
    blocks, which = _class_blocks(step, model, t, mode)
    return blocks[..., which, :, :]


def build_step_hamiltonian(step: ProtocolStep, model: QubitModel | None,
                           t, mode: str = "effective") -> np.ndarray:
    """Full-register Hamiltonian of one step at local time t, in the product
    basis: the blocks of :func:`build_step_blocks` scattered onto their
    groups' levels, zero between groups.  A float t gives one (d, d) matrix;
    an array of times gives the stack with the shape of t in front.
    """
    blocks = build_step_blocks(step, model, t, mode)
    groups = step.order.reshape(-1, step.block)
    h = np.zeros(blocks.shape[:-3] + (step.dim, step.dim), dtype=complex)
    h[..., groups[:, :, None], groups[:, None, :]] = blocks
    return h


class _Track:
    """Observer of one propagation, the pure run or the density-matrix stack:
    the label populations and both fidelities as one (..., n, labels + 2)
    block of values per block of nodes, and a record per step, whose
    fidelity is the step-fidelity series' value at the step's last node.
    Stack values carry the member axis in front.

    The stack's run hands over each block with a reading of its nodes (see
    `dynamics._lindblad_run`), which the track does not open:
    `dynamics._reader` compiles the label and target populations once per
    step into a real linear map, and a block is read by one gather and one
    product."""

    def __init__(self, plan: ProtocolPlan):
        self.plan = plan
        self.labels = np.array(list(plan.labels.values()))
        self.values: list[np.ndarray] = []  # (..., n, labels + 2) per block
        self.records: list[dict] = []

    def start(self, step: ProtocolStep, first: int) -> None:
        """Observe `step` next, from its grid node `first` on, its states'
        levels being in the step order."""
        self.step, self.skip = step, first
        self.index = step.position[self.labels]
        targets = [step.target[step.order], self.plan.final_target[step.order]]
        self.kets = np.concatenate([np.eye(step.dim)[self.index], targets])
        self.reader = None  # (reading, support, coefficients) of the last stack block

    def __call__(self, first: int, states: np.ndarray, reading: tuple | None = None) -> None:
        if first < self.skip:
            return
        if reading is None:
            # a product-basis population is an amplitude's squared modulus;
            # the fancy index copies them out of the propagator's reused buffer
            self.values.append(np.concatenate([np.abs(states[..., self.index]) ** 2,
                                               populations(states, self.kets[-2:]).T], axis=-1))
            return
        if self.reader is None or self.reader[0] is not reading:
            self.reader = (reading,) + _reader(self.kets, reading)
        _, support, coefficients = self.reader
        self.values.append(states.view(float)[..., support] @ coefficients)

    def finish(self) -> None:
        """Record the step, its fidelity read off the series at its last node
        (one per member for a stack)."""
        self.records.append({
            "name": self.step.name,
            "t_end": self.step.t_start + self.step.duration,
            "target_fidelity": self.values[-1][..., -1, -2],
        })

    def series(self, member: int | None):
        """Populations, step and final fidelities, and step records of one run:
        a stack member, or the pure run for None."""
        def pick(a):
            return a if member is None else a[member]

        values = np.concatenate([pick(v).T for v in self.values], axis=1)  # (labels + 2, T)
        records = [dict(record, target_fidelity=float(pick(record["target_fidelity"])))
                   for record in self.records]
        return dict(zip(self.plan.labels, values[:-2])), values[-2], values[-1], records


def _failed_at(exc: Exception, step: ProtocolStep, kappa: float) -> Exception:
    """Name the step in a propagation failure's message and tag the failure
    with the kappa_T of the run it names."""
    exc.args = (f"step {step.name!r}: {exc}",) + exc.args[1:]
    exc.kappa = kappa
    return exc


def _decay_channels(step: ProtocolStep, rates: np.ndarray) -> dict:
    """Every qubit's lowering channel at the (K,) `rates`, in the step order,
    as `dynamics._decay_rates` reads it from the d x d operator
    `embed_qubit_operator(SIGMA_MINUS, n, q)[np.ix_(order, order)]`:
    {mask: rates}, qubit 0 first, mask being the bit of the step-order level
    index that the qubit's decay flips.  The step order permutes the qubits'
    bits, so that bit is the position of the product index whose only set
    bit is the qubit's."""
    return {int(step.position[1 << (step.qubits - 1 - q)]): rates for q in range(step.qubits)}


def check_strong_coupling(plan: ProtocolPlan, model: QubitModel, mode: str) -> None:
    """Refuse a rotating-frame run whose coupling is too weak: every step with
    an active coupling relies on J >= 10x its peak Rabi amplitude, and the
    first step that does not get it raises ProtocolError.  Effective mode
    has no such rule."""
    for step in plan.steps:
        if mode == "rotating-frame" and step.couplings:
            coefficients = step.drive_coefficients(np.linspace(0, step.duration, 101))
            peak = max(float(np.max(np.abs(c))) for c in coefficients.values())
            if model.j_coupling < 10.0 * peak:
                raise ProtocolError(f"step {step.name!r} relies on a strong coupling; "
                                    f"J = {model.j_coupling:.3g} is below 10x the peak Rabi "
                                    f"amplitude {peak:.3g}")


def run_protocol_kappas(plan: ProtocolPlan, model: QubitModel, kappas, mode: str = "effective",
                        grid_steps: int = 2000, strict: bool = True,
                        compute_residual: bool = True) -> list[SimulationResult]:
    """Run a plan once per per-qubit decay rate in `kappas` (the model's own
    kappa is not used) and return one result per rate, in order.

    All runs share the step Hamiltonians, so they integrate together: the
    runs with kappa > 0 are one (K, d, d) density-matrix stack, the closed
    ones share one pure-state run, and each step advances both on one stream
    of step unitaries, H being evaluated and exponentiated once; the passage
    residual is computed once per step for all of them.  Each result equals,
    bit for bit, what a run of that one rate gives, as long as its member of
    the stack reaches at every step each tile of the density matrix that the
    stack reaches (see `dynamics`).  The members start from one state, so
    they do unless a strong rate empties tiles the others keep; a member
    that then reaches fewer tiles differs from its one-rate run by
    round-off.  A propagation failure
    keeps its type, names its step in its message and is raised with a
    `kappa` attribute, the kappa_T of the run it names: for a stack failure,
    the first run in the order of `kappas` among those failing at the
    earliest grid step; for a failure of H, the first closed run, or the
    first open one if none is closed.  The state a step hands on is checked
    once, by the next step's entry checks, the closed state's first, then
    the open members' in order; a refusal there is raised as a StepSizeError
    that names the step that made the state, carries `member` and `kappa`
    and ends "at the step's end (kappa_T=...)".  So within a step, failures
    in the propagation come before those of the state it hands on.  With
    `strict`, :func:`check_strong_coupling` refuses the whole plan before
    any step is propagated.
    """
    if model.qubits != plan.qubits:
        raise ProtocolError("model and plan disagree on the qubit count")
    kappas = [float(k) for k in kappas]
    if not kappas:
        raise ProtocolError("no decay rate to run")
    if not all(0 <= k < math.inf for k in kappas):  # nan fails the comparison
        raise ProtocolError("decay rate must be finite and non-negative")
    if strict:
        check_strong_coupling(plan, model, mode)
    stacked = [i for i, k in enumerate(kappas) if k > 0.0]
    pure = [i for i in range(len(kappas)) if i not in stacked]

    psi = plan.initial.copy()
    rho = np.array([outer(plan.initial)] * len(stacked))
    rates = np.array([kappas[i] for i in stacked])
    pure_track = _Track(plan)
    stack_track = _Track(plan)
    times_out: list[np.ndarray] = []
    residual_out: list[np.ndarray] = []
    norm_drift = 0.0
    trace_drift = np.zeros(len(stacked))
    min_eig = np.ones(len(stacked))
    residual_scale = 0.0

    for k, step in enumerate(plan.steps):
        def h_blocks(t, _step=step):
            return build_step_blocks(_step, model, t, mode=mode)

        def h_classes(t, _step=step):
            return _class_blocks(_step, model, t, mode=mode)

        grid = TimeGrid(0.0, step.duration, grid_steps)
        first = 0 if not times_out else 1  # drop duplicated boundary node
        times_out.append(step.t_start + grid.times[first:])
        # each propagation runs in the step order; the states go back to
        # product order at the step's end
        order, back = step.order, step.position
        pure_track.start(step, first)
        stack_track.start(step, first)
        try:
            runs = [_schrodinger_run(psi[order], grid, pure_track)] if pure else []
            if stacked:
                runs.append(_lindblad_run(_decay_channels(step, rates),
                                          rho[:, order[:, None], order], grid, stack_track))
            done = _propagate(h_classes, grid, step.dim, runs)
            del runs  # and with them their node buffers
        except (StepSizeError, ValueError) as exc:
            # a stack failure names its member; one in H, the first run it stops
            member = getattr(exc, "member", None)
            kappa = kappas[(pure or stacked)[0] if member is None else stacked[member]]
            if isinstance(exc, StateCheckError) and k > 0:
                # an entry check refused the state the previous step handed on
                raise _failed_at(StepSizeError(f"{exc} at the step's end (kappa_T={kappa:g})",
                                               member), plan.steps[k - 1], kappa)
            raise _failed_at(exc, step, kappa)
        if pure:
            traj = done[0]
            norm_drift = max(norm_drift, traj.norm_drift)
            pure_track.finish()
            psi = traj.final[back]
        if stacked:
            traj = done[-1]
            trace_drift = np.maximum(trace_drift, traj.trace_drift)
            min_eig = np.minimum(min_eig, traj.min_eigenvalue)
            stack_track.finish()
            rho = traj.final[:, back[:, None], back]

        if compute_residual:
            ts, length = grid.times[first:], _span(step.dim)
            for span in np.split(ts, range(length, ts.size, length)):
                v, dv = (x[..., order] for x in step.passage_vectors(span))
                residual_out.append(von_neumann_residual(v, dv, h_blocks(span)))
            # the blocks' rows stacked into one matrix keep the dense H's norm
            h_mid = h_blocks(0.5 * step.duration)
            residual_scale = max(residual_scale, frobenius(h_mid.reshape(-1, step.block)))

    times = np.concatenate(times_out)
    results = []
    for i in range(len(kappas)):
        member = stacked.index(i) if i in stacked else None
        track = pure_track if member is None else stack_track
        pops, fid_step, fid_final, records = track.series(member)
        diagnostics = {
            "population_sum_max": float(np.max(sum(pops.values()))),
            "mode": mode,
        }
        if member is None:
            diagnostics["norm_drift"] = norm_drift
            final_state = psi.copy()
        else:
            diagnostics["trace_drift"] = float(trace_drift[member])
            diagnostics["min_eigenvalue"] = float(min_eig[member])
            final_state = rho[member].copy()
        auxiliary = {"fidelity_final": fid_final}
        if compute_residual:
            residual = np.concatenate(residual_out)
            auxiliary["residual"] = residual
            diagnostics["max_residual"] = float(np.max(residual))
            diagnostics["max_residual_relative"] = float(np.max(residual)
                                                         / max(residual_scale, 1e-300))
        results.append(SimulationResult(
            times=times.copy(), populations=pops, fidelity=fid_step,
            final_state=final_state, diagnostics=diagnostics, steps=records,
            auxiliary=auxiliary))
    return results


def run_protocol(plan: ProtocolPlan, model: QubitModel, mode: str = "effective",
                 noise: bool = False, grid_steps: int = 2000,
                 strict: bool = True, compute_residual: bool = True) -> SimulationResult:
    """Propagate a plan step by step and collect populations and fidelities.

    With noise on, every qubit decays through its lowering operator at the
    model's rate and the state is carried as a density matrix; otherwise the
    closed Schrodinger propagator runs on the pure state.  `strict` enforces
    the strong-coupling requirement J >= 10x the peak Rabi amplitude for the
    steps that rely on it in rotating-frame mode.  This is the one-rate case
    of :func:`run_protocol_kappas`.
    """
    return run_protocol_kappas(plan, model, [model.kappa if noise else 0.0], mode, grid_steps,
                               strict, compute_residual)[0]


def diagnostics_ok(result: SimulationResult, mode: str = "effective") -> bool:
    """Gate used by the command-line runner: drift bounds always, the passage
    residual only in effective mode (rotating-frame runs probe its breakdown).
    Each bound is written so that a nan fails it."""
    d = result.diagnostics
    bounds = [d.get("norm_drift", 0.0) <= TOL.norm_drift,
              d.get("trace_drift", 0.0) <= TOL.trace_drift,
              d.get("min_eigenvalue", 0.0) >= -TOL.positivity_drift]
    if mode == "effective":
        bounds.append(d.get("max_residual_relative", 0.0) <= TOL.passage_residual)
    return all(bounds)
