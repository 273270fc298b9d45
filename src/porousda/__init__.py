"""Continuous data assimilation for miscible displacement in porous media.

Vertex-centered finite-volume discretization of a coupled pressure/transport
system on structured rectangular meshes, a locally conservative flux
recovery, sparse-observation operators, and a nudging-based assimilation
driver with twin-experiment metrics.
"""

from .driver import (AssimilationRun, FitResult, NonFiniteStateError,
                     ReferenceRun, RunReport, TimePartition, Trajectory,
                     fit_decay_rate, parameter_sweep, run_assimilated,
                     run_reference)
from .fields import DGField, NodalField, l2_diff, l2_norm
from .flux_postprocess import ConservativeFlux, LocalSolveError, postprocess_flux
from .linalg import NoConvergenceError, SolveReport, SolverConfig
from .mesh import DIRICHLET, NEUMANN, MeshError, StructuredMesh, build_mesh
from .observation import (AlignmentError, ObservationGapError,
                          ObservationStream, SparseGrid)
from .pressure import CoefficientRangeError, PressureProblem, solve_pressure
from .scenarios import (PermeabilityRaster, Scenario, assumption_report,
                        bump, diffusion_reaction, example1, example2,
                        example3, example4)
from .transport import TransportCoefficients, TransportStep, step

__all__ = [
    "AlignmentError", "AssimilationRun", "CoefficientRangeError",
    "ConservativeFlux", "DGField", "DIRICHLET", "FitResult", "LocalSolveError",
    "MeshError",
    "NEUMANN", "NoConvergenceError", "NodalField", "NonFiniteStateError", "ObservationGapError",
    "ObservationStream", "PermeabilityRaster", "PressureProblem",
    "ReferenceRun", "RunReport", "Scenario", "SolveReport", "SolverConfig",
    "SparseGrid", "StructuredMesh", "TimePartition", "Trajectory",
    "TransportCoefficients", "TransportStep", "assumption_report",
    "build_mesh", "bump", "diffusion_reaction", "example1", "example2",
    "example3", "example4", "fit_decay_rate", "l2_diff", "l2_norm",
    "parameter_sweep", "postprocess_flux",
    "run_assimilated", "run_reference", "solve_pressure", "step",
]

__version__ = "0.1.0"
