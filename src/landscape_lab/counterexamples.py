"""Two explicit refutations of generic trap-freeness for bounded controls.

First, a two-level instance whose all-upper-bound corner control is a
constrained local maximum strictly below the attainable maximum: a boundary
trap that halts projected ascent. Second, a closed-form two-parameter
landscape that is trap free on its open domain, yet every one-parameter
slice of it has an interior local maximum, so constraining one control
manufactures traps for a full interval of constraint values, not a null set.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .qdyn import BasisSet, ControlGrid, NumericalFault, build_su_basis, propagate
from .landscape import (
    DEFAULT_ACTIVE_TOL,
    QuantumSystem,
    _at_bounds,
    gradient,
    objective,
    objective_range,
)
from .traps import Tolerances, critical_value_census_1d

__all__ = [
    "BoundaryTrapInstance",
    "TrapVerification",
    "Analytic2DPoint",
    "SliceExtrema",
    "SliceCensus",
    "TrapFreeScan",
    "trap_observable",
    "trap_initial_state",
    "boundary_trap_instance",
    "corner_escape_analysis",
    "verify_boundary_trap",
    "analytic2d_eval",
    "analytic2d_gradient",
    "slice_critical_points",
    "slice_census_2d",
    "analytic2d_trap_free_scan",
    "DEFAULT_MARGIN",
]

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

INWARD_GAIN_TOL = 1e-10
SUBOPTIMALITY_TOL = 1e-6
FIRST_ORDER_TOL = 1e-8
FIELD_MATCH_TOL = 1e-14
SLICE_AGREEMENT_TOL = 1e-8

# Default exclusion zone around e = +-pi/2 where tan and sec blow up.
DEFAULT_MARGIN = 0.15


def trap_observable(alpha: float) -> np.ndarray:
    """sin(a + pi/3) s1 + sin(a - pi/3) s2 + sin(a) s3."""
    return (
        np.sin(alpha + np.pi / 3.0) * PAULI_X
        + np.sin(alpha - np.pi / 3.0) * PAULI_Y
        + np.sin(alpha) * PAULI_Z
    )


def trap_initial_state() -> np.ndarray:
    """The pure state (I + s3) / 2."""
    return (np.eye(2, dtype=complex) + PAULI_Z) / 2.0


@dataclass(frozen=True)
class BoundaryTrapInstance:
    """Two-level corner-control instance with the trap-inducing observable.

    alpha = 2 sqrt(3) T kappa ties the observable to the corner propagator
    phase; the segment-duration condition T/Z < 2 pi / (2 sqrt(3) kappa)
    (equivalently alpha < 2 pi Z) is required at construction.
    """

    T: float
    Z: int
    kappa: float
    alpha: float
    system: QuantumSystem
    grid: ControlGrid

    def __post_init__(self):
        if not (self.T > 0.0 and np.isfinite(self.T)):
            raise ValueError(f"horizon must be positive, got {self.T}")
        if self.Z < 1:
            raise ValueError(f"segment count must be >= 1, got {self.Z}")
        if not (self.kappa >= 0.0 and np.isfinite(self.kappa)):
            raise ValueError(f"bound must be nonnegative, got {self.kappa}")
        alpha = 2.0 * np.sqrt(3.0) * self.T * self.kappa
        if abs(self.alpha - alpha) > 1e-12 * max(1.0, alpha):
            raise ValueError(
                f"alpha {self.alpha} does not equal 2 sqrt(3) T kappa = {alpha}"
            )
        if not alpha < 2.0 * np.pi * self.Z:
            kappa_thr = np.pi * self.Z / (np.sqrt(3.0) * self.T)
            raise ValueError(
                "segment duration too long for this bound: requires "
                f"T/Z < 2 pi / (2 sqrt(3) kappa), i.e. kappa < {kappa_thr}"
            )
        if self.system.dim != 2:
            raise ValueError("instance is two-level by construction")
        if np.max(np.abs(self.system.rho0 - trap_initial_state())) > FIELD_MATCH_TOL:
            raise ValueError("rho0 must be (I + s3)/2")
        expected_obs = trap_observable(alpha)
        if np.max(np.abs(self.system.observable - expected_obs)) > FIELD_MATCH_TOL:
            raise ValueError(
                "observable must carry the coefficients "
                "(sin(a + pi/3), sin(a - pi/3), sin a)"
            )
        if (
            self.grid.horizon != self.T
            or self.grid.kappa != self.kappa
            or self.grid.values.shape != (3, self.Z)
        ):
            raise ValueError("grid does not match (T, Z, kappa)")
        if np.max(np.abs(self.grid.values - self.kappa)) > FIELD_MATCH_TOL * max(
            1.0, self.kappa
        ):
            raise ValueError("grid must sit at the all-upper-bound corner")


@dataclass(frozen=True)
class TrapVerification:
    """Outcome of the sampled inward-escape test at a corner control.

    trap_order distinguishes a first-order trap (outward gradient bounded
    away from zero) from a second-order one (vanishing gradient, escape
    blocked by curvature); None when the point is not a trap.
    """

    is_trap: bool
    j_at_corner: float
    max_inward_gain: float
    j_global_max: float
    gradient_norm_at_corner: float
    trap_order: int | None


def boundary_trap_instance(T: float, Z: int, kappa: float) -> BoundaryTrapInstance:
    """Assemble the corner-control instance for the given (T, Z, kappa)."""
    alpha = 2.0 * np.sqrt(3.0) * float(T) * float(kappa)
    system = QuantumSystem(2, trap_initial_state(), trap_observable(alpha))
    grid = ControlGrid(float(T), float(kappa), np.full((3, int(Z)), float(kappa)))
    return BoundaryTrapInstance(
        T=float(T), Z=int(Z), kappa=float(kappa), alpha=alpha, system=system, grid=grid
    )


def corner_escape_analysis(
    system: QuantumSystem,
    grid: ControlGrid,
    basis: BasisSet,
    samples: int,
    radius: float,
    seed: int,
) -> TrapVerification:
    """Sampled test for a constrained local maximum at a (corner) grid.

    Draws `samples` perturbations uniformly on the sphere of the given
    radius, reflected into the inward orthant at active bounds, and records
    the best objective gain. A trap must show no gain beyond 1e-10 and sit
    below the attainable maximum by more than 1e-6.
    """
    if samples < 1:
        raise ValueError(f"need at least one sample, got {samples}")
    if not (radius > 0.0 and np.isfinite(radius)):
        raise ValueError(f"radius must be positive, got {radius}")
    j_corner = objective(system, propagate(grid, basis).total)
    j_global_max = objective_range(system).j_max

    at_upper, at_lower = _at_bounds(grid, DEFAULT_ACTIVE_TOL)

    rng = np.random.default_rng(seed)
    max_gain = -np.inf
    for _ in range(samples):
        v = rng.standard_normal(size=grid.values.shape)
        nrm = np.linalg.norm(v)
        while nrm < 1e-12:
            v = rng.standard_normal(size=grid.values.shape)
            nrm = np.linalg.norm(v)
        d = np.where(at_upper, -np.abs(v), np.where(at_lower, np.abs(v), v))
        d *= radius / nrm
        pert = np.clip(grid.values + d, -grid.kappa, grid.kappa)
        j_pert = objective(
            system, propagate(grid.with_values(pert), basis).total
        )
        max_gain = max(max_gain, j_pert - j_corner)

    grad_norm = gradient(system, grid, basis).norm
    is_trap = (max_gain <= INWARD_GAIN_TOL) and (
        j_corner < j_global_max - SUBOPTIMALITY_TOL
    )
    trap_order = None
    if is_trap:
        trap_order = 1 if grad_norm > FIRST_ORDER_TOL else 2
    return TrapVerification(
        is_trap=is_trap,
        j_at_corner=float(j_corner),
        max_inward_gain=float(max_gain),
        j_global_max=float(j_global_max),
        gradient_norm_at_corner=float(grad_norm),
        trap_order=trap_order,
    )


def verify_boundary_trap(
    inst: BoundaryTrapInstance, samples: int, radius: float, seed: int
) -> TrapVerification:
    """Run the inward-escape test on the assembled corner instance."""
    return corner_escape_analysis(
        inst.system, inst.grid, build_su_basis(2), samples, radius, seed
    )


@dataclass(frozen=True)
class Analytic2DPoint:
    """A point of the open square (-pi/2, pi/2)^2, kept away from the edges."""

    e1: float
    e2: float
    margin: float = DEFAULT_MARGIN

    def __post_init__(self):
        if not (self.margin > 0.0 and np.isfinite(self.margin)):
            raise ValueError(f"margin must be positive, got {self.margin}")
        lim = np.pi / 2.0 - self.margin
        if not (abs(self.e1) <= lim and abs(self.e2) <= lim):
            raise ValueError(
                f"point ({self.e1}, {self.e2}) outside the margin-restricted "
                f"square |e| <= {lim}"
            )


def _eval_raw(e1, e2):
    t = np.tan(e1)
    return (2.0 / np.pi) * (t ** 3 - t * np.cos(e2) + np.tan(e2 / 2.0))


def _grad_raw(e1, e2):
    t = np.tan(e1)
    sec1sq = 1.0 / np.cos(e1) ** 2
    d1 = (2.0 / np.pi) * sec1sq * (3.0 * t ** 2 - np.cos(e2))
    d2 = (2.0 / np.pi) * (t * np.sin(e2) + 0.5 / np.cos(e2 / 2.0) ** 2)
    return d1, d2


def analytic2d_eval(p: Analytic2DPoint) -> float:
    """(2/pi) (tan(e1)^3 - tan(e1) cos(e2) + tan(e2/2))."""
    return float(_eval_raw(p.e1, p.e2))


def analytic2d_gradient(p: Analytic2DPoint) -> tuple:
    """Closed-form partials (d1, d2) of the two-parameter landscape."""
    d1, d2 = _grad_raw(p.e1, p.e2)
    return float(d1), float(d2)


@dataclass(frozen=True)
class SliceExtrema:
    """The two interior critical points of one e2 = c slice."""

    c: float
    max_location: float
    max_value: float
    min_location: float
    min_value: float

    def __post_init__(self):
        if self.max_value < self.min_value:
            raise ValueError("slice maximum below slice minimum")
        if self.max_location >= self.min_location:
            raise ValueError("slice maximum must sit left of the minimum")


@dataclass(frozen=True)
class SliceCensus:
    """Per-slice interior extrema over a range of constraint values c."""

    c_values: tuple
    per_slice: tuple

    def __post_init__(self):
        if len(self.c_values) != len(self.per_slice):
            raise ValueError("one extrema record per c value required")
        for c, rec in zip(self.c_values, self.per_slice):
            if rec.c != c:
                raise ValueError("per_slice entry does not match its c value")


@dataclass(frozen=True)
class TrapFreeScan:
    """Minimum gradient norm over a grid scan of the open square."""

    min_grad_norm: float
    argmin_e1: float
    argmin_e2: float


def slice_critical_points(c: float, margin: float = DEFAULT_MARGIN) -> SliceExtrema:
    """Closed-form interior extrema of the slice e2 = c.

    The slice is a cubic in t = tan(e1), so d/de1 = 0 at t = +-sqrt(cos c/3):
    the maximum at the negative root, the minimum at the positive one, with
    values (2/pi)(+-(2/(3 sqrt(3))) cos(c)^{3/2} + tan(c/2)).
    """
    lim = np.pi / 2.0 - margin
    if not abs(c) <= lim:
        raise ValueError(f"slice value {c} outside the margin-restricted domain")
    root = np.sqrt(np.cos(c) / 3.0)
    hump = (2.0 / (3.0 * np.sqrt(3.0))) * np.cos(c) ** 1.5
    base = np.tan(c / 2.0)
    return SliceExtrema(
        c=float(c),
        max_location=float(np.arctan(-root)),
        max_value=float((2.0 / np.pi) * (hump + base)),
        min_location=float(np.arctan(root)),
        min_value=float((2.0 / np.pi) * (-hump + base)),
    )


def slice_census_2d(
    c_min: float,
    c_max: float,
    steps: int,
    margin: float = DEFAULT_MARGIN,
    verify: bool = False,
    verify_grid_points: int = 1001,
) -> SliceCensus:
    """Interior extrema for every slice c on a uniform range.

    With verify=True each closed-form extremum is cross-checked against an
    independent bracketing census of the slice derivative; disagreement
    beyond 1e-8 in location or value is a fault.
    """
    if steps < 1:
        raise ValueError(f"need at least one slice, got {steps}")
    if not c_min <= c_max:
        raise ValueError(f"empty slice range ({c_min}, {c_max})")
    lim = np.pi / 2.0 - margin
    if not (abs(c_min) <= lim and abs(c_max) <= lim):
        raise ValueError("slice range leaves the margin-restricted domain")
    cs = np.linspace(c_min, c_max, steps) if steps > 1 else np.array([c_min])
    records = []
    for c in cs:
        rec = slice_critical_points(float(c), margin)
        if verify:
            _verify_slice(rec, margin, verify_grid_points)
        records.append(rec)
    return SliceCensus(c_values=tuple(float(c) for c in cs), per_slice=tuple(records))


def _verify_slice(rec: SliceExtrema, margin: float, grid_points: int) -> None:
    """Cross-check one slice's closed-form extrema by bracketing census."""
    lim = np.pi / 2.0 - margin
    census = critical_value_census_1d(
        lambda e1: _eval_raw(e1, rec.c),
        lambda e1: _grad_raw(e1, rec.c)[0],
        (-lim, lim),
        grid_points,
        Tolerances(),
    )
    if len(census.critical_points) != 2:
        raise NumericalFault(
            f"slice c={rec.c} census found {len(census.critical_points)} "
            "critical points, expected 2"
        )
    pairs = (
        (census.critical_points[0], census.critical_values[0], rec.max_location, rec.max_value),
        (census.critical_points[1], census.critical_values[1], rec.min_location, rec.min_value),
    )
    for loc, val, loc_cf, val_cf in pairs:
        if abs(loc - loc_cf) > SLICE_AGREEMENT_TOL or abs(val - val_cf) > SLICE_AGREEMENT_TOL:
            raise NumericalFault(
                f"slice c={rec.c}: census extremum ({loc}, {val}) disagrees "
                f"with closed form ({loc_cf}, {val_cf})"
            )


def analytic2d_trap_free_scan(
    grid_steps: int, margin: float = DEFAULT_MARGIN
) -> TrapFreeScan:
    """Minimum of |(d1, d2)| over a uniform grid of the restricted square.

    A strictly positive minimum certifies, at grid resolution, that the
    unconstrained two-parameter landscape has no interior critical point.
    """
    if grid_steps < 10:
        raise ValueError(f"grid too coarse to certify anything: {grid_steps}")
    lim = np.pi / 2.0 - margin
    axis = np.linspace(-lim, lim, grid_steps)
    E1, E2 = np.meshgrid(axis, axis, indexing="ij")
    d1, d2 = _grad_raw(E1, E2)
    norms = np.hypot(d1, d2)
    flat = int(np.argmin(norms))
    i, j = np.unravel_index(flat, norms.shape)
    return TrapFreeScan(
        min_grad_norm=float(norms[i, j]),
        argmin_e1=float(axis[i]),
        argmin_e2=float(axis[j]),
    )
