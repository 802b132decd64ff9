"""Ancillary frame construction for an assistant+working two-subspace system.

The Hilbert space has M assistant levels |e_0..e_{M-1}> followed by N working
levels |0..N-1>; assistant levels occupy indices 0..M-1 and working levels
occupy indices M..M+N-1 throughout the library.

The frame is built by a cascade of 2x2 rotations.  Inside the working
subspace, starting from b_{-1} = |0>:

    mu_n = cos(theta_n) b_{n-1} - sin(theta_n) e^{-i alpha_n} |n+1>
    b_n  = sin(theta_n) b_{n-1} + cos(theta_n) e^{-i alpha_n} |n+1>

and inside the assistant subspace, starting from tb_{-1} = |e_0>:

    tmu_m = sin(ttheta_m) tb_{m-1} + cos(ttheta_m) e^{-i talpha_m} |e_{m+1}>
    tb_m  = cos(ttheta_m) tb_{m-1} - sin(ttheta_m) e^{-i talpha_m} |e_{m+1}>

The two remaining frame members mix the terminal bright states across the
subspaces with the angle phi and phase alpha:

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

    def working_index(self, n: int) -> int:
        if not 0 <= n < self.working_levels:
            raise IndexError(f"working level {n} out of range")
        return self.assistant_levels + n


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

    t: float | np.ndarray
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


def _rotate(kind: str, angle, dangle, phase, dphase, upper, dupper, lower, dlower):
    """One cascade rotation step applied to (upper, lower) carrying derivatives.

    kind = "working":   mu = c*u - s*p*l ; b = s*u + c*p*l
    kind = "assistant": mu = s*u + c*p*l ; b = c*u - s*p*l
    where c = cos(angle), s = sin(angle), p = e^{-i phase}.
    """
    c, s = np.cos(angle), np.sin(angle)
    dc, ds = -s * dangle, c * dangle
    p = np.exp(-1j * phase)
    dp = -1j * dphase * p
    if kind == "working":
        mu = c * upper - s * p * lower
        dmu = dc * upper + c * dupper - (ds * p + s * dp) * lower - s * p * dlower
        b = s * upper + c * p * lower
        db = ds * upper + s * dupper + (dc * p + c * dp) * lower + c * p * dlower
    else:
        mu = s * upper + c * p * lower
        dmu = ds * upper + s * dupper + (dc * p + c * dp) * lower + c * p * dlower
        b = c * upper - s * p * lower
        db = dc * upper + c * dupper - (ds * p + s * dp) * lower - s * p * dlower
    return mu, dmu, b, db


def _pair(schedules: ScheduleSet, symbol: str, t):
    """(value, derivative) shaped to broadcast against vectors on the last axis."""
    return tuple(np.reshape(x, np.shape(t) + (1,)) for x in schedules.pair(symbol, t))


def _cascades(layout: SubspaceLayout, schedules: ScheduleSet, t):
    """Run both cascades; returns (mu list, dmu list, bright list, dbright list) per subspace."""
    dim = layout.dim
    zero = np.zeros(dim, dtype=complex)

    # assistant cascade
    tb = basis_state(dim, layout.assistant_index(0))
    dtb = zero
    tmus, dtmus, tbs, dtbs = [], [], [], []
    for m in range(layout.assistant_levels - 1):
        ang, dang = _pair(schedules, f"ttheta_{m}", t)
        ph, dph = _pair(schedules, f"talpha_{m}", t)
        lvl = basis_state(dim, layout.assistant_index(m + 1))
        mu, dmu, tb, dtb = _rotate("assistant", ang, dang, ph, dph, tb, dtb, lvl, zero)
        tmus.append(mu)
        dtmus.append(dmu)
        tbs.append(tb)
        dtbs.append(dtb)

    # working cascade
    b = basis_state(dim, layout.working_index(0))
    db = zero
    mus, dmus, bs, dbs = [], [], [], []
    for n in range(layout.working_levels - 1):
        ang, dang = _pair(schedules, f"theta_{n}", t)
        ph, dph = _pair(schedules, f"alpha_{n}", t)
        lvl = basis_state(dim, layout.working_index(n + 1))
        mu, dmu, b, db = _rotate("working", ang, dang, ph, dph, b, db, lvl, zero)
        mus.append(mu)
        dmus.append(dmu)
        bs.append(b)
        dbs.append(db)

    return (tmus, dtmus, tbs, dtbs, tb, dtb), (mus, dmus, bs, dbs, b, db)


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

    (tmus, dtmus, tbs, dtbs, tb, dtb), (mus, dmus, bs, dbs, b, db) = \
        _cascades(layout, schedules, t)

    # the cross pair is one more working-kind rotation, mixing the two
    # terminal bright states; its "bright" output is the second passage
    ang, dang = _pair(schedules, "phi", t)
    ph, dph = _pair(schedules, "alpha", t)
    mu_lo, dmu_lo, mu_hi, dmu_hi = _rotate("working", ang, dang, ph, dph, b, db, tb, dtb)

    def stack(columns):
        shape = np.shape(t) + (layout.dim, len(columns))
        return np.stack([np.broadcast_to(c, shape[:-1]) for c in columns], axis=-1) \
            if columns else np.zeros(shape, dtype=complex)

    return AncillaryFrame(
        t=t,
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
