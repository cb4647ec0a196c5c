"""Two explicit refutations of generic trap-freeness for bounded controls.

First, a two-level instance whose all-upper-bound corner control is a
constrained local maximum strictly below the attainable maximum: a boundary
trap that halts projected ascent. Second, a closed-form two-parameter
landscape that is trap free on its open domain, yet every one-parameter
slice of it has an interior local maximum, so constraining one control
manufactures traps for a full interval of constraint values, not a null set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .qdyn import BasisSet, ControlGrid, NumericalFault, _blocks, build_su_basis
from .landscape import (
    QuantumSystem,
    TangentMap,
    _at_bounds,
    _evaluated,
    _gradient_from,
    _tangent_map_rows,
    boundary_cone_surjectivity,
    kappa_threshold,
    objective_range,
)
from .traps import ROOT_TOL, _bracketed_roots, _norms, _project

__all__ = [
    "BoundaryTrapInstance",
    "TrapVerification",
    "SliceExtrema",
    "TrapFreeScan",
    "trap_observable",
    "trap_initial_state",
    "corner_escape_analysis",
    "slice_critical_points",
    "slice_census_2d",
    "analytic2d_trap_free_scan",
]

PAULI_X, PAULI_Y, PAULI_Z = build_su_basis(2).elements

INWARD_GAIN_TOL = 1e-10
SUBOPTIMALITY_TOL = 1e-6
FIRST_ORDER_TOL = 1e-8
SLICE_AGREEMENT_TOL = 1e-8

# Grid of the bracketing census that verifies each slice, over |e1| <= pi/2 - margin.
SLICE_VERIFY_GRID_POINTS = 1001

# Default exclusion zone around e = +-pi/2 where tan and sec blow up.
DEFAULT_MARGIN = 0.15

# Lower bound of d2 where d1 vanishes, over the whole open square. There
# tan e1 = +-sqrt(cos e2 / 3) and sec^2(e2/2) >= 1, so
# d2 >= (2/pi)(1/2 - max_c sqrt(cos c) |sin c| / sqrt 3), and the maximum
# sits at cos^2 c = 1/3.
D2_FLOOR_ON_D1_ZEROS = float(
    (2.0 / np.pi) * (0.5 - 3.0 ** -0.25 * np.sqrt(2.0 / 3.0) / np.sqrt(3.0))
)


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


def _trap_qubit(T: float, kappa: float, Z: int | None = None) -> tuple:
    """(system, alpha) of the corner-trap qubit, with alpha = 2 sqrt(3) T kappa.

    Given Z, alpha must meet the segment-duration condition alpha < 2 pi Z,
    and in any case be finite. Both are required before the observable is
    formed, so an alpha that overflows is one ValueError and no numpy
    warning.
    """
    alpha = 2.0 * math.sqrt(3.0) * T * kappa
    if Z is not None and not alpha < 2.0 * np.pi * Z:
        raise ValueError(
            "segment duration too long for this bound: requires "
            "T/Z < 2 pi / (2 sqrt(3) kappa), i.e. "
            f"kappa < {kappa_threshold(build_su_basis(2), T, Z)}"
        )
    if not math.isfinite(alpha):
        raise ValueError(f"alpha = 2 sqrt(3) T kappa is not finite at T = {T}, kappa = {kappa}")
    return QuantumSystem(2, trap_initial_state(), trap_observable(alpha)), alpha


@dataclass(frozen=True)
class BoundaryTrapInstance:
    """Two-level corner-control instance with the trap-inducing observable.

    alpha = 2 sqrt(3) T kappa ties the observable to the corner propagator
    phase; the segment-duration condition T/Z < 2 pi / (2 sqrt(3) kappa)
    (equivalently alpha < 2 pi Z) is required at construction. alpha, the
    system and the all-upper-bound grid follow from (T, Z, kappa).
    """

    T: float
    Z: int
    kappa: float
    alpha: float = field(init=False)
    system: QuantumSystem = field(init=False)
    grid: ControlGrid = field(init=False)

    def __post_init__(self):
        # The grid first: ControlGrid rejects a bad T, Z or kappa before
        # any arithmetic on them.
        grid = ControlGrid(self.T, self.kappa, np.full((3, self.Z), self.kappa))
        system, alpha = _trap_qubit(self.T, self.kappa, self.Z)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "system", system)
        object.__setattr__(self, "grid", grid)


@dataclass(frozen=True)
class TrapVerification:
    """Outcome of the escape test at a corner control.

    trap_order distinguishes a first-order trap (outward gradient bounded
    away from zero) from a second-order one (vanishing gradient, escape
    blocked by curvature); None when the point is not a trap. kkt_margin is
    the least outward gradient component over the controls at a bound (dJ/d
    eps at +kappa, -dJ/d eps at -kappa), None when none is: at a corner, a
    positive margin makes the grid a strict constrained local maximum by
    first order alone. corner_unitary is the horizon propagator, row by row,
    and (cone_surjective, witness) the corner's boundary_cone_surjectivity.
    """

    is_trap: bool
    j_at_corner: float
    max_inward_gain: float
    j_global_max: float
    gradient_norm_at_corner: float
    trap_order: int | None
    kkt_margin: float | None
    corner_unitary: tuple
    cone_surjective: bool
    witness: tuple | None


def corner_escape_analysis(
    system: QuantumSystem,
    grid: ControlGrid,
    basis: BasisSet,
    samples: int,
    radius: float,
    seed: int,
) -> TrapVerification:
    """Test for a constrained local maximum at a (corner) grid.

    A projected gradient (traps._project) with a component above
    FIRST_ORDER_TOL in size names an admissible coordinate ray that raises J
    to first order: no trap, whatever the probes find. Otherwise the probes
    decide. The probes are drawn from the seeded generator and evaluated
    one block at a time, each block holding at most BLOCK_BYTES of segment
    matrices (_blocks), so memory does not grow with `samples`. A probe is
    one grid-shaped draw of normals, and the probes are the first `samples`
    draws of the normal stream, however it is chunked; a draw of norm
    exactly 0 (odds below 1e-36, as a grid has at least 3 entries) is a
    NumericalFault. Each direction is reflected into the inward orthant at
    active bounds, scaled to the given radius and clipped to the box, and
    the best objective gain over all blocks is recorded. A trap must show no gain
    beyond 1e-10 and sit below the attainable maximum by more than 1e-6.
    The grid's one kernel pass (_evaluated) also gives its tangent rows,
    cone verdict and propagator.
    """
    if samples < 1:
        raise ValueError(f"need at least one sample, got {samples}")
    if not (radius > 0.0 and np.isfinite(radius)):
        raise ValueError(f"radius must be positive, got {radius}")
    # The norm is taken of the z-major view _gradient_from returns, as
    # np.linalg.norm(gradient(...).values) takes it: memory order sets its
    # last bit.
    J, lam, V, P = _evaluated(system, grid.values[None], grid.dt, basis)
    grad = _gradient_from(system, lam, V, P, grid.dt, basis)[0]
    grad_norm = np.linalg.norm(grad)
    j_corner = float(J[0])
    j_global_max = objective_range(system).j_max
    tm = TangentMap(_tangent_map_rows(lam[0], V[0], P[0], grid.dt, basis).reshape(-1, basis.size))
    cone_ok, witness = boundary_cone_surjectivity(grid, tm)

    at_upper, at_lower = _at_bounds(grid.values, grid.kappa)

    rng = np.random.default_rng(seed)
    max_gain = -np.inf
    for b in _blocks(samples, grid.segments, basis.dim):
        v = rng.standard_normal(size=(len(range(samples)[b]),) + grid.values.shape)
        norms = _norms(v)
        if not norms.all():
            raise NumericalFault("an escape probe drew a direction of norm 0")
        d = np.where(at_upper, -np.abs(v), np.where(at_lower, np.abs(v), v))
        d *= (radius / norms)[:, None, None]
        pert = np.clip(grid.values + d, -grid.kappa, grid.kappa)
        gain = float(np.max(_evaluated(system, pert, grid.dt, basis)[0] - j_corner))
        max_gain = max(max_gain, gain)

    outward = np.concatenate([grad[at_upper], -grad[at_lower]])
    is_trap = (
        not np.any(np.abs(_project(grad, at_upper, at_lower)) > FIRST_ORDER_TOL)
        and max_gain <= INWARD_GAIN_TOL
        and j_corner < j_global_max - SUBOPTIMALITY_TOL
    )
    trap_order = None
    if is_trap:
        trap_order = 1 if grad_norm > FIRST_ORDER_TOL else 2
    return TrapVerification(
        is_trap=is_trap,
        j_at_corner=j_corner,
        max_inward_gain=max_gain,
        j_global_max=float(j_global_max),
        gradient_norm_at_corner=float(grad_norm),
        trap_order=trap_order,
        kkt_margin=float(outward.min()) if outward.size else None,
        corner_unitary=tuple(map(tuple, P[0, -1].tolist())),
        cone_surjective=cone_ok,
        witness=None if witness is None else tuple(witness.tolist()),
    )


def _eval_raw(e1, e2):
    """(2/pi) (tan(e1)^3 - tan(e1) cos(e2) + tan(e2/2)), elementwise."""
    t = np.tan(e1)
    return (2.0 / np.pi) * (t ** 3 - t * np.cos(e2) + np.tan(e2 / 2.0))


def _grad_raw(e1, e2):
    """Closed-form partials (d1, d2) of _eval_raw, elementwise."""
    t = np.tan(e1)
    sec1sq = 1.0 / np.cos(e1) ** 2
    d1 = (2.0 / np.pi) * sec1sq * (3.0 * t ** 2 - np.cos(e2))
    d2 = (2.0 / np.pi) * (t * np.sin(e2) + 0.5 / np.cos(e2 / 2.0) ** 2)
    return d1, d2


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
class TrapFreeScan:
    """Minimum gradient norm over a grid scan of the open square, with the
    closed-form floor of d2 where d1 vanishes (D2_FLOOR_ON_D1_ZEROS)."""

    min_grad_norm: float
    argmin_e1: float
    argmin_e2: float
    d2_floor_on_d1_zeros: float


def _half_width(margin: float) -> float:
    """pi/2 - margin, the half-width of the margin-restricted square; a
    margin outside (0, pi/2), NaN included, is a ValueError."""
    if not 0.0 < margin < np.pi / 2.0:
        raise ValueError(f"margin must lie in (0, pi/2), got {margin}")
    return np.pi / 2.0 - margin


def slice_critical_points(c: float, margin: float = DEFAULT_MARGIN) -> SliceExtrema:
    """Closed-form interior extrema of the slice e2 = c.

    The slice is a cubic in t = tan(e1), so d/de1 = 0 at t = +-sqrt(cos c/3):
    the maximum at the negative root, the minimum at the positive one, with
    values (2/pi)(+-(2/(3 sqrt(3))) cos(c)^{3/2} + tan(c/2)).
    """
    lim = _half_width(margin)
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
) -> tuple:
    """Interior extrema (SliceExtrema) for every slice c on a uniform range.

    With verify=True each closed-form extremum is cross-checked against an
    independent bracketing census of the slice derivative; disagreement
    beyond 1e-8 in location or value is a fault.
    """
    if steps < 1:
        raise ValueError(f"need at least one slice, got {steps}")
    if not c_min <= c_max:
        raise ValueError(f"empty slice range ({c_min}, {c_max})")
    lim = _half_width(margin)
    if not (abs(c_min) <= lim and abs(c_max) <= lim):
        raise ValueError("slice range leaves the margin-restricted domain")
    cs = np.linspace(c_min, c_max, steps)
    records = [slice_critical_points(float(c), margin) for c in cs]
    if verify:
        _verify_slices(records, margin)
    return tuple(records)


def _verify_slices(records: list, margin: float) -> None:
    """Cross-check every slice's closed-form extrema by one bracketing census.

    The slice derivatives on the grid form one (slices, grid_points) table,
    whose roots one _bracketed_roots call finds, bisecting the brackets of
    all slices together, each with its own c. Each slice must then have
    exactly 2 critical points, each within the root tolerance and within
    SLICE_AGREEMENT_TOL of the closed form in location and value.
    """
    lim = _half_width(margin)
    cs = np.array([rec.c for rec in records])
    xs = np.linspace(-lim, lim, SLICE_VERIFY_GRID_POINTS)
    ds = _grad_raw(xs[None, :], cs[:, None])[0]
    roots, owner = _bracketed_roots(lambda x, k: _grad_raw(x, cs[k])[0], xs, ds)
    slopes = _grad_raw(roots, cs[owner])[0]
    values = _eval_raw(roots, cs[owner])
    for k, rec in enumerate(records):
        mine = np.flatnonzero(owner == k)
        off = mine[~(np.abs(slopes[mine]) < ROOT_TOL)]
        if off.size:
            raise NumericalFault(
                f"slice c={rec.c}: bisection left |f'({roots[off[0]]})| above the "
                "root tolerance"
            )
        if mine.size != 2:
            raise NumericalFault(
                f"slice c={rec.c} census found {mine.size} critical points, expected 2"
            )
        closed = ((rec.max_location, rec.max_value), (rec.min_location, rec.min_value))
        for r, (loc_cf, val_cf) in zip(mine, closed):
            loc, val = roots[r], values[r]
            if not (abs(loc - loc_cf) <= SLICE_AGREEMENT_TOL
                    and abs(val - val_cf) <= SLICE_AGREEMENT_TOL):
                raise NumericalFault(
                    f"slice c={rec.c}: census extremum ({loc}, {val}) disagrees "
                    f"with closed form ({loc_cf}, {val_cf})"
                )


def analytic2d_trap_free_scan(
    grid_steps: int, margin: float = DEFAULT_MARGIN
) -> TrapFreeScan:
    """Minimum of |(d1, d2)| over a uniform grid of the restricted square.

    A strictly positive minimum shows, at grid resolution, that the
    unconstrained two-parameter landscape has no interior critical point;
    the closed-form floor D2_FLOOR_ON_D1_ZEROS certifies it everywhere. The
    partials are evaluated on the axes and broadcast, so each transcendental
    is taken once per axis value rather than once per grid point.
    """
    if grid_steps < 10:
        raise ValueError(f"grid too coarse to certify anything: {grid_steps}")
    lim = _half_width(margin)
    axis = np.linspace(-lim, lim, grid_steps)
    d1, d2 = _grad_raw(axis[:, None], axis[None, :])
    norms = np.hypot(d1, d2)
    flat = int(np.argmin(norms))
    i, j = np.unravel_index(flat, norms.shape)
    return TrapFreeScan(
        min_grad_norm=float(norms[i, j]),
        argmin_e1=float(axis[i]),
        argmin_e2=float(axis[j]),
        d2_floor_on_d1_zeros=D2_FLOOR_ON_D1_ZEROS,
    )
