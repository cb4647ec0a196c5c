"""Quantum-control landscape laboratory.

Piecewise-constant control of closed N-level systems: exact propagators and
analytic objective gradients, local-surjectivity diagnostics of the
control-to-SU(N) map, projected ascent with trap classification, and two
worked counterexamples where bounded controls manufacture traps.
"""

from .qdyn import (
    BasisSet,
    ControlGrid,
    NumericalFault,
    PropagationResult,
    assemble_segment_hamiltonian,
    build_su_basis,
    propagate,
)
from .landscape import (
    LandscapeGradient,
    ObjectiveRange,
    QuantumSystem,
    TangentMap,
    active_set,
    boundary_cone_surjectivity,
    gradient,
    kappa_threshold,
    local_surjectivity_rank,
    objective,
    objective_range,
    psi_tangent_map,
    unitary_objective_gradient,
)
from .traps import (
    CLASSIFICATIONS,
    AscentSettings,
    AscentTrace,
    BasinCensusResult,
    BasinRun,
    BasinSampler,
    CensusResult1D,
    CriticalPointReport,
    Tolerances,
    basin_census,
    classify_point,
    critical_value_census_1d,
    finite_difference_hessian,
    gradient_ascent,
    project_ascent_gradient,
)
from .counterexamples import (
    Analytic2DPoint,
    BoundaryTrapInstance,
    SliceCensus,
    SliceExtrema,
    TrapFreeScan,
    TrapVerification,
    analytic2d_eval,
    analytic2d_gradient,
    analytic2d_trap_free_scan,
    boundary_trap_instance,
    corner_escape_analysis,
    slice_census_2d,
    slice_critical_points,
    trap_initial_state,
    trap_observable,
    verify_boundary_trap,
)

__version__ = "0.1.0"
