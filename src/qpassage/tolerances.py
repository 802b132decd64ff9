"""Numerical tolerances used across the library.

Every threshold that the code enforces (and the test suite asserts) lives in
this one record so that docs, checks, and tests cannot drift apart.
Tolerances tagged "relative" are measured against the scale of the operator
or state they apply to.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    # linear algebra / state validity
    hermiticity: float = 1e-12        # relative, Hermitian-tagged operators
    state_norm: float = 1e-10         # | ||psi|| - 1 |
    density_hermiticity: float = 1e-10
    density_trace: float = 1e-8
    density_positivity: float = 1e-8  # eigenvalues >= -tol

    # ancillary frame
    frame_orthonormality: float = 1e-12  # Gram and completeness defects

    # synthesis / passage verification
    passage_residual: float = 1e-8    # relative to ||H||_F
    dark_state: float = 1e-10         # ||H mu|| relative to ||H||
    schedule_singularity: float = 1e-3  # |sin| floor under a moving mixing angle

    # propagation
    norm_drift: float = 1e-9          # closed-system, default resolution
    trace_drift: float = 1e-7         # open-system bookkeeping bound
    trace_drift_error: float = 1e-6   # beyond this the step size is rejected
    positivity_drift: float = 1e-7    # smallest eigenvalue >= -tol at checkpoints

    # finite differences
    fd_step: float = 1e-6             # centered-difference step, units of T


TOL = Tolerances()
