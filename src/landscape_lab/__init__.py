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
    build_su_basis,
    propagate,
)
from .landscape import (
    LandscapeGradient,
    ObjectiveRange,
    QuantumSystem,
    TangentMap,
    boundary_cone_surjectivity,
    gradient,
    kappa_threshold,
    local_surjectivity_rank,
    objective,
    objective_range,
    psi_tangent_map,
)
from .traps import (
    CLASSIFICATIONS,
    AscentTrace,
    BasinCensusResult,
    BasinRun,
    CensusResult1D,
    CriticalPointReport,
    basin_census,
    classify_point,
    critical_value_census_1d,
    gradient_ascent,
)
from .counterexamples import (
    BoundaryTrapInstance,
    SliceExtrema,
    TrapFreeScan,
    TrapVerification,
    analytic2d_trap_free_scan,
    corner_escape_analysis,
    slice_census_2d,
    slice_critical_points,
    trap_initial_state,
    trap_observable,
)

__version__ = "0.1.0"
