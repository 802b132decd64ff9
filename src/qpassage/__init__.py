"""qpassage: nonadiabatic passages for driven two-subspace systems.

The library constructs orthonormal ancillary frames for systems split into an
assistant and a working subspace, synthesizes the exact drive fields that turn
the cross-subspace frame members into transitionless transfer paths, and
verifies the resulting protocols (Bell and GHZ preparation for longitudinally
coupled qubits) by closed- and open-system integration.
"""

__version__ = "0.1.0"

from .ancillary import AncillaryFrame, SubspaceLayout, build_frame, frame_derivative_check
from .dynamics import (DensityTrajectory, Dissipator, SimulationResult,
                       StateTrajectory, StepSizeError, TimeGrid, gd_matrices,
                       populations, propagate_lindblad, propagate_schrodinger,
                       reconstruct_evolution, von_neumann_residual)
from .schedules import ParameterSchedule, ScheduleSet
from .synthesis import (AuxiliaryDrive, DrivePlan, GeneratedPhases,
                        SingularScheduleError, SynthesisError, assemble_hamiltonian,
                        convert_dark_state, generated_phases, reduction_crosscheck,
                        synthesize_general)
from .tolerances import TOL, Tolerances

__all__ = [
    "__version__",
    "TOL",
    "Tolerances",
    "ParameterSchedule",
    "ScheduleSet",
    "SubspaceLayout",
    "AncillaryFrame",
    "build_frame",
    "frame_derivative_check",
    "TimeGrid",
    "Dissipator",
    "StepSizeError",
    "StateTrajectory",
    "DensityTrajectory",
    "SimulationResult",
    "propagate_schrodinger",
    "propagate_lindblad",
    "von_neumann_residual",
    "gd_matrices",
    "reconstruct_evolution",
    "populations",
    "SynthesisError",
    "SingularScheduleError",
    "DrivePlan",
    "AuxiliaryDrive",
    "GeneratedPhases",
    "assemble_hamiltonian",
    "synthesize_general",
    "convert_dark_state",
    "generated_phases",
    "reduction_crosscheck",
]
