"""Ancillary frame construction for an assistant+working two-subspace system.

The Hilbert space has M assistant levels |e_0..e_{M-1}> followed by N working
levels |0..N-1>; assistant levels occupy indices 0..M-1 and working levels
occupy indices M..M+N-1 throughout the library.

The frame is built from one 2x2 rotation, applied to a running bright
state u and a fresh level l with an angle and a phase:

    mu = cos(angle) u - sin(angle) e^{-i phase} l
    b  = sin(angle) u + cos(angle) e^{-i phase} l

The working cascade starts from b_{-1} = |0> and rotates with (theta_n,
alpha_n) onto |n+1>, giving the members mu_n and the bright states b_n.  The
assistant cascade starts from tb_{-1} = |e_0> and rotates with (ttheta_m,
talpha_m) onto |e_{m+1}>, taking the two outputs swapped: its member tmu_m is
the rotation's b and its bright state tb_m the rotation's mu.  The two
remaining frame members are one more, unswapped, rotation of the terminal
bright states with the angle phi and phase alpha:

    mu_lo = cos(phi) b_{N-2} - sin(phi) e^{-i alpha} tb_{M-2}
    mu_hi = sin(phi) b_{N-2} + cos(phi) e^{-i alpha} tb_{M-2}

Each rotation is unitary, so the full set {tmu_0.., mu_0.., mu_lo, mu_hi} is
orthonormal and complete by construction; mu_n is orthogonal to b_n and
tmu_m to tb_m pairwise, and <mu_lo|mu_hi> = 0.  Time derivatives are carried
through the cascade by the chain rule using the schedules' analytic
derivatives.

The two states of every rotation live on disjoint levels: a cascade's
running bright state on the levels it has already reached, its fresh level
outside them, and b_{N-2} and tb_{M-2} on the working and the assistant
levels.  So each entry of an output is one term of its formula, the only
one that is not an exact zero, and a cascade rotation scales the running
state and sets one entry.  `build_frame` allocates its five arrays once
and writes each member, derivative and bright state into its column as the
rotation makes it; the running bright state is read back from its column.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import basis_state, gram_matrix
from .schedules import ScheduleSet

__all__ = ["SubspaceLayout", "AncillaryFrame", "build_frame", "frame_derivative_check"]


@dataclass(frozen=True)
class SubspaceLayout:
    """Level counts and index convention of one two-subspace system.

    assistant_levels (M) >= 1, working_levels (N) >= 2; the total dimension is
    M + N.  Assistant level m sits at index m, working level n at index M + n.
    """

    assistant_levels: int
    working_levels: int

    def __post_init__(self):
        if self.assistant_levels < 1:
            raise ValueError("need at least one assistant level")
        if self.working_levels < 2:
            raise ValueError("need at least two working levels")

    @property
    def dim(self) -> int:
        return self.assistant_levels + self.working_levels

    def assistant_index(self, m: int) -> int:
        if not 0 <= m < self.assistant_levels:
            raise IndexError(f"assistant level {m} out of range")
        return m


@dataclass
class AncillaryFrame:
    """Orthonormal ancillary bases and bright states at one instant.

    `vectors` holds the M+N frame members as columns, ordered
    tmu_0..tmu_{M-2}, mu_0..mu_{N-2}, mu_lo, mu_hi; `derivatives` holds their
    time derivatives in the same order.  `assistant_brights` has tb_0..tb_{M-2}
    as columns and `working_brights` has b_0..b_{N-2}; `terminal_brights`
    always exists and holds (b_{N-2}, tb_{M-2}) even when a cascade is empty
    (for M = 1, tb_{-1} = |e_0>).
    """

    layout: SubspaceLayout
    vectors: np.ndarray
    derivatives: np.ndarray
    assistant_brights: np.ndarray
    working_brights: np.ndarray
    terminal_brights: np.ndarray

    @property
    def dim(self) -> int:
        return self.layout.dim

    def column(self, k: int) -> np.ndarray:
        return self.vectors[..., k]

    @property
    def passage_lo(self) -> np.ndarray:
        """cos(phi) b - sin(phi) e^{-i alpha} tb, frame column K-2."""
        return self.vectors[..., -2]

    @property
    def passage_hi(self) -> np.ndarray:
        """sin(phi) b + cos(phi) e^{-i alpha} tb, frame column K-1."""
        return self.vectors[..., -1]

    def gram_defect(self) -> float:
        g = gram_matrix(self.vectors)
        return float(np.max(np.abs(g - np.eye(self.dim))))


def _rotate(schedules: ScheduleSet, t, angle: str, phase: str, upper, lower, out):
    """One rotation of (upper, lower) by the schedules `angle` and `phase` at
    t, carrying derivatives, written into the (..., d) arrays
    out = (mu, dmu, b, db):

        mu = c*u - s*p*l ;  b = s*u + c*p*l

    with c = cos(angle), s = sin(angle), p = e^{-i phase}.  `upper` and
    `lower` are (levels, state, derivative) with the states on disjoint
    levels, so each output entry gets the one term of its sum that is not an
    exact zero; a lower state None is the basis level with derivative 0.
    Entries off both levels are left as they are.
    """
    ang, dang = schedules.pair(angle, t)
    ph, dph = schedules.pair(phase, t)
    c, s = np.cos(ang), np.sin(ang)
    # made complex once here, not cast again by each product with a complex
    # factor, and shaped to broadcast against vectors on the last axis
    c, s, dc, ds, ph, dph = np.array([c, s, -s * dang, c * dang, ph, dph], dtype=complex)[..., None]
    p = np.exp(-1j * ph)
    dp = -1j * dph * p
    sp, cp = s * p, c * p
    dsp, dcp = ds * p + s * dp, dc * p + c * dp  # derivatives of s*p and c*p
    (up, u, du), (lo, l, dl) = upper, lower
    u, du = u[..., up], du[..., up]
    mu, dmu, b, db = out
    # both sums read du before either is written: it may be dmu's or db's own
    mu[..., up], dmu[..., up], b[..., up], db[..., up] = \
        c * u, dc * u + c * du, s * u, ds * u + s * du
    if l is None:
        mu[..., lo], dmu[..., lo], b[..., lo], db[..., lo] = -sp, -dsp, cp, dcp
    else:
        l, dl = l[..., lo], dl[..., lo]
        mu[..., lo], dmu[..., lo] = -(sp * l), -(dsp * l) - sp * dl
        b[..., lo], db[..., lo] = cp * l, dcp * l + cp * dl


def build_frame(layout: SubspaceLayout, schedules: ScheduleSet, t) -> AncillaryFrame:
    """Construct the complete orthonormal frame and its time derivatives at t.

    For an array of times every member array gains the shape of t in front:
    `vectors` is then (..., M+N, M+N), still with the frame members as columns.
    """
    if layout.dim < 3:
        raise ValueError("frame construction needs at least three levels in total")
    if (schedules.assistant_levels != layout.assistant_levels
            or schedules.working_levels != layout.working_levels):
        raise ValueError("schedule set does not match the layout's level counts")

    m_levels, dim = layout.assistant_levels, layout.dim
    shape = np.shape(t) + (dim,)
    frame = AncillaryFrame(layout, *(np.zeros(shape + (k,), dtype=complex)
                                     for k in (dim, dim, m_levels - 1, dim - m_levels - 1, 2)))
    vectors, derivatives = frame.vectors, frame.derivatives
    ends = []
    # each cascade runs from its first level through the rest, its running
    # bright state in its bright-state columns; the assistant one takes its
    # rotations' outputs swapped, so its member tmu_m is the rotation's b
    for levels, prefix, brights, first in ((range(m_levels), "t", frame.assistant_brights, 0),
                                           (range(m_levels, dim), "", frame.working_brights,
                                            m_levels - 1)):
        bright, dbright = basis_state(dim, levels.start), np.zeros(shape, dtype=complex)
        for k, level in enumerate(levels[1:]):
            member = (vectors[..., first + k], derivatives[..., first + k])
            running = (brights[..., k], dbright)
            _rotate(schedules, t, f"{prefix}theta_{k}", f"{prefix}alpha_{k}",
                    (slice(levels.start, level), bright, dbright),
                    (slice(level, level + 1), None, None),
                    running + member if prefix else member + running)
            bright = brights[..., k]
        ends.append((slice(levels.start, levels.stop), bright, dbright))
    assistant, working = ends
    # (b_{N-2}, tb_{M-2}), the latter |e_0> for M = 1
    frame.terminal_brights[..., 0], frame.terminal_brights[..., 1] = working[1], assistant[1]

    # the cross pair is one more rotation, unswapped, mixing the two terminal
    # bright states; its "bright" output is the second passage
    _rotate(schedules, t, "phi", "alpha", working, assistant,
            (vectors[..., -2], derivatives[..., -2], vectors[..., -1], derivatives[..., -1]))
    return frame


def frame_derivative_check(layout: SubspaceLayout, schedules: ScheduleSet,
                           t: float, h: float) -> float:
    """Max 2-norm error of the analytic frame derivatives vs a centered difference.

    Requires t-h and t+h inside [0, duration].  Converges as O(h^2) for the
    analytic schedule kinds, so halving h should quarter the error.
    """
    frame = build_frame(layout, schedules, t)
    plus = build_frame(layout, schedules, t + h)
    minus = build_frame(layout, schedules, t - h)
    fd = (plus.vectors - minus.vectors) / (2.0 * h)
    errs = np.linalg.norm(frame.derivatives - fd, axis=0)
    return float(np.max(errs))
