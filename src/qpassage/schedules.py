"""Time-dependent control parameters with values and first derivatives.

A :class:`ParameterSchedule` is one scalar control (an angle or a phase, in
radians) on the interval [0, T], where T is the duration of one protocol
step.  Time is measured in units of T, so the default duration is 1.  A
:class:`ScheduleSet` names every control a given assistant+working layout
needs for drive synthesis:

==============  =====================================================
symbol          role
==============  =====================================================
theta_n         working-cascade mixing angles, n = 0 .. N-2
alpha_n         working-cascade relative phases
ttheta_m        assistant-cascade mixing angles, m = 0 .. M-2
talpha_m        assistant-cascade relative phases
phi             mixing angle between the two terminal bright states
alpha           relative phase of the cross-subspace pair
varphi          master drive phase
==============  =====================================================

Only four schedule kinds exist: constant, cosine-ramp, linear-ramp, and
sampled.  The shipped protocols use constant and cosine-ramp; sampled is the
catch-all for externally supplied waveforms.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .tolerances import TOL

__all__ = [
    "ScheduleError",
    "ScheduleDomainError",
    "MissingScheduleError",
    "ParameterSchedule",
    "ScheduleSet",
    "required_symbols",
]

KINDS = ("constant", "cosine-ramp", "linear-ramp", "sampled")

_DOMAIN_SLACK = 1e-9  # absolute slack on [0, T] to absorb round-off at the ends


class ScheduleError(ValueError):
    pass


class ScheduleDomainError(ScheduleError):
    pass


class MissingScheduleError(ScheduleError):
    pass


@dataclass(frozen=True)
class ParameterSchedule:
    """One scalar control on [0, duration] with an analytic first derivative.

    kind = "constant":     value
    kind = "cosine-ramp":  offset + amplitude * cos(pi*t / (2*duration))
    kind = "linear-ramp":  offset + slope * t
    kind = "sampled":      linear interpolation of (times, values); the
                           derivative is a centered finite difference with
                           step 1e-6 * duration (one-sided at the ends).
    """

    kind: str
    duration: float = 1.0
    value: float = 0.0        # constant
    amplitude: float = 0.0    # cosine-ramp
    offset: float = 0.0       # cosine-ramp / linear-ramp
    slope: float = 0.0        # linear-ramp
    times: tuple = ()         # sampled
    values: tuple = ()        # sampled

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ScheduleError(f"unknown schedule kind {self.kind!r}; expected one of {KINDS}")
        if self.duration <= 0:
            raise ScheduleError("schedule duration must be positive")
        if self.kind == "sampled":
            if len(self.times) != len(self.values) or len(self.times) < 2:
                raise ScheduleError("sampled schedule needs matching times/values, length >= 2")
            if not np.all(np.diff(self.times) > 0):
                raise ScheduleError("sampled schedule times must be strictly increasing")

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, value: float, duration: float = 1.0) -> "ParameterSchedule":
        return cls(kind="constant", duration=duration, value=float(value))

    @classmethod
    def cosine_ramp(cls, amplitude: float, duration: float = 1.0, offset: float = 0.0) -> "ParameterSchedule":
        return cls(kind="cosine-ramp", duration=duration,
                   amplitude=float(amplitude), offset=float(offset))

    @classmethod
    def linear_ramp(cls, offset: float, slope: float, duration: float = 1.0) -> "ParameterSchedule":
        return cls(kind="linear-ramp", duration=duration,
                   offset=float(offset), slope=float(slope))

    @classmethod
    def sampled(cls, times, values, duration: float | None = None) -> "ParameterSchedule":
        times = tuple(float(t) for t in times)
        values = tuple(float(v) for v in values)
        if duration is None:
            duration = times[-1]
        return cls(kind="sampled", duration=duration, times=times, values=values)

    # -- evaluation --------------------------------------------------------

    @property
    def is_constant(self) -> bool:
        return self.kind == "constant"

    def _check_domain(self, t: np.ndarray) -> None:
        bad = (t < -_DOMAIN_SLACK) | (t > self.duration + _DOMAIN_SLACK)
        if np.any(bad):
            first = float(t.flat[np.argmax(bad)])
            raise ScheduleDomainError(
                f"t = {first} outside schedule domain [0, {self.duration}]")

    def eval(self, t):
        """Return (value, d value/dt) at t; raises outside [0, duration].

        `t` is a float or an array of times; an array gives two arrays of its
        shape, a float two floats.
        """
        t = np.asarray(t, dtype=float)
        self._check_domain(t)
        if self.kind == "constant":
            value, deriv = np.full(t.shape, self.value), np.zeros(t.shape)
        elif self.kind == "cosine-ramp":
            w = np.pi / (2.0 * self.duration)
            # pin the quarter-period endpoints so protocol boundary states
            # come out exact rather than off by ~1e-16
            end, start = t == self.duration, t == 0.0
            c = np.where(end, 0.0, np.where(start, 1.0, np.cos(w * t)))
            s = np.where(end, 1.0, np.where(start, 0.0, np.sin(w * t)))
            value, deriv = self.offset + self.amplitude * c, -self.amplitude * w * s
        elif self.kind == "linear-ramp":
            value, deriv = self.offset + self.slope * t, np.full(t.shape, self.slope)
        else:
            # sampled: piecewise-linear value, centered finite-difference slope
            h = TOL.fd_step * self.duration
            lo = np.maximum(t - h, 0.0)
            hi = np.minimum(t + h, self.duration)
            value = np.interp(t, self.times, self.values)
            deriv = (np.interp(hi, self.times, self.values)
                     - np.interp(lo, self.times, self.values)) / (hi - lo)
        return value[()], deriv[()]

    def value_at(self, t: float) -> float:
        return self.eval(t)[0]

    def derivative_at(self, t: float) -> float:
        return self.eval(t)[1]


def required_symbols(assistant_levels: int, working_levels: int) -> tuple[str, ...]:
    """Every control symbol the (M, N) synthesis needs.

    M = 1 has no assistant cascade, so no ttheta/talpha entries are required.
    """
    names: list[str] = []
    for m in range(assistant_levels - 1):
        names += [f"ttheta_{m}", f"talpha_{m}"]
    for n in range(working_levels - 1):
        names += [f"theta_{n}", f"alpha_{n}"]
    names += ["phi", "alpha", "varphi"]
    return tuple(names)


@dataclass
class ScheduleSet:
    """Named map of control schedules for one (M, N) layout and one step.

    All member schedules share the step duration.  Missing symbols raise at
    construction so synthesis never sees a partial set.
    """

    assistant_levels: int
    working_levels: int
    duration: float = 1.0
    table: dict = field(default_factory=dict)

    def __post_init__(self):
        missing = [s for s in required_symbols(self.assistant_levels, self.working_levels)
                   if s not in self.table]
        if missing:
            raise MissingScheduleError(
                f"schedule set for M={self.assistant_levels}, N={self.working_levels} "
                f"is missing symbols: {', '.join(missing)}")
        for name, sched in self.table.items():
            if abs(sched.duration - self.duration) > 1e-12 * max(1.0, self.duration):
                raise ScheduleError(
                    f"schedule {name!r} has duration {sched.duration}, set expects {self.duration}")

    def __getitem__(self, symbol: str) -> ParameterSchedule:
        try:
            return self.table[symbol]
        except KeyError:
            raise MissingScheduleError(f"no schedule named {symbol!r}") from None

    def __contains__(self, symbol: str) -> bool:
        return symbol in self.table

    def pair(self, symbol: str, t):
        """(value, derivative) of one symbol at a float t or an array of times."""
        return self[symbol].eval(t)

    def value(self, symbol: str, t):
        return self[symbol].eval(t)[0]

    def replace(self, **overrides) -> "ScheduleSet":
        """Copy of the set with some symbols replaced."""
        table = dict(self.table)
        table.update(overrides)
        return ScheduleSet(self.assistant_levels, self.working_levels, self.duration, table)
