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


def _rotate(angle, dangle, phase, dphase, upper, dupper, lower, dlower):
    """One cascade rotation of (upper, lower), carrying derivatives:

        mu = c*u - s*p*l ;  b = s*u + c*p*l

    with c = cos(angle), s = sin(angle), p = e^{-i phase}.  Returns
    (mu, dmu, b, db); the assistant cascade takes b and mu swapped.
    """
    c, s = np.cos(angle), np.sin(angle)
    dc, ds = -s * dangle, c * dangle
    p = np.exp(-1j * phase)
    dp = -1j * dphase * p
    mu = c * upper - s * p * lower
    dmu = dc * upper + c * dupper - (ds * p + s * dp) * lower - s * p * dlower
    b = s * upper + c * p * lower
    db = ds * upper + s * dupper + (dc * p + c * dp) * lower + c * p * dlower
    return mu, dmu, b, db


def _pair(schedules: ScheduleSet, symbol: str, t):
    """(value, derivative) shaped to broadcast against vectors on the last axis."""
    return tuple(np.reshape(x, np.shape(t) + (1,)) for x in schedules.pair(symbol, t))


def _cascade(schedules: ScheduleSet, t, dim: int, levels, prefix: str, swap: bool):
    """One cascade from |levels[0]> through the rest of `levels`, rotated by
    {prefix}theta_k and {prefix}alpha_k; `swap` takes the rotation's outputs
    swapped, as the assistant cascade does.

    Returns the members, their derivatives, the running bright states, and
    the terminal bright state with its derivative.
    """
    zero = np.zeros(dim, dtype=complex)
    bright, dbright = basis_state(dim, levels[0]), zero
    mus, dmus, brights = [], [], []
    for k, level in enumerate(levels[1:]):
        ang, dang = _pair(schedules, f"{prefix}theta_{k}", t)
        ph, dph = _pair(schedules, f"{prefix}alpha_{k}", t)
        mu, dmu, bright, dbright = _rotate(ang, dang, ph, dph, bright, dbright,
                                           basis_state(dim, level), zero)
        if swap:
            mu, dmu, bright, dbright = bright, dbright, mu, dmu
        mus.append(mu)
        dmus.append(dmu)
        brights.append(bright)
    return mus, dmus, brights, bright, dbright


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
    tmus, dtmus, tbs, tb, dtb = _cascade(schedules, t, dim, range(m_levels), "t", swap=True)
    mus, dmus, bs, b, db = _cascade(schedules, t, dim, range(m_levels, dim), "", swap=False)

    # the cross pair is one more rotation, unswapped, mixing the two terminal
    # bright states; its "bright" output is the second passage
    ang, dang = _pair(schedules, "phi", t)
    ph, dph = _pair(schedules, "alpha", t)
    mu_lo, dmu_lo, mu_hi, dmu_hi = _rotate(ang, dang, ph, dph, b, db, tb, dtb)

    def stack(columns):
        shape = np.shape(t) + (layout.dim, len(columns))
        return np.stack([np.broadcast_to(c, shape[:-1]) for c in columns], axis=-1) \
            if columns else np.zeros(shape, dtype=complex)

    return AncillaryFrame(
        layout=layout,
        vectors=stack(tmus + mus + [mu_lo, mu_hi]),
        derivatives=stack(dtmus + dmus + [dmu_lo, dmu_hi]),
        assistant_brights=stack(tbs),
        working_brights=stack(bs),
        terminal_brights=stack([b, tb]),
    )


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
