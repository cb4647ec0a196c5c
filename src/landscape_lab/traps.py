"""Critical points under box constraints: detection, classification, censuses.

Maximization is the reference direction throughout: the projected gradient
zeroes components that point outside the admissible box, so a vanishing
projected gradient is exactly the first-order condition for a constrained
local maximum search to halt.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .qdyn import BasisSet, ControlGrid, NumericalFault, propagate
from .landscape import (
    DEFAULT_ACTIVE_TOL,
    QuantumSystem,
    _at_bounds,
    active_set,
    gradient,
    objective,
    objective_range,
)

__all__ = [
    "Tolerances",
    "AscentSettings",
    "CriticalPointReport",
    "AscentTrace",
    "CensusResult1D",
    "BasinSampler",
    "BasinRun",
    "BasinCensusResult",
    "CLASSIFICATIONS",
    "project_ascent_gradient",
    "finite_difference_hessian",
    "classify_point",
    "gradient_ascent",
    "basin_census",
    "critical_value_census_1d",
]

CLASSIFICATIONS = (
    "interior-max",
    "interior-min",
    "interior-saddle",
    "boundary-trap-max",
    "boundary-trap-min",
    "boundary-saddle",
    "regular",
)

# Width below which an objective range counts as a single point; censuses
# then report no traps by convention instead of comparing J against noise.
DEGENERATE_RANGE_WIDTH = 1e-15

# Bound on the rounding error of a computed objective value, in units of
# eps |J|. J is a trace through Z segment exponentials; on the corner-trap
# qubit its error against 40-digit arithmetic stays below 11 of these units.
OBJECTIVE_ROUNDING_ULPS = 16.0


def _objective_rounding(j_value: float) -> float:
    """Largest change of J that rounding alone can account for."""
    return OBJECTIVE_ROUNDING_ULPS * np.finfo(float).eps * abs(j_value)


@dataclass(frozen=True)
class Tolerances:
    """Numerical thresholds shared by classification and census routines.

    hess_step = None resolves to 1e-4 x kappa of the grid at hand (1e-4 for
    a zero bound); success margins for ascent are handled by AscentSettings.
    """

    grad: float = 1e-8
    hess_step: float | None = None
    root: float = 1e-10
    merge: float = 1e-6
    active: float = DEFAULT_ACTIVE_TOL

    def resolved_hess_step(self, kappa: float) -> float:
        if self.hess_step is not None:
            return self.hess_step
        return 1e-4 * (kappa if kappa > 0.0 else 1.0)


@dataclass(frozen=True)
class AscentSettings:
    """Projected-ascent controls.

    success_margin = None resolves to 1e-4 x (j_max - j_min) of the system
    under study.
    """

    max_iters: int = 500
    gtol: float = 1e-8
    armijo: float = 1e-4
    max_backtracks: int = 60
    success_margin: float | None = None

    def resolved_success_margin(self, width: float) -> float:
        if self.success_margin is not None:
            return self.success_margin
        return 1e-4 * width


@dataclass(frozen=True)
class CriticalPointReport:
    """First- and second-order diagnosis of one control grid.

    classification is "regular" exactly when the projected gradient norm
    exceeds tol_grad, the tolerance in effect at this point (see
    classify_point); hessian_eigenvalues live on the free (non-active)
    coordinates only. degenerate marks near-zero curvature directions that
    made the sign-based label ambiguous.
    """

    location: ControlGrid
    j_value: float
    grad_norm_projected: float
    active_set: tuple
    classification: str
    hessian_eigenvalues: tuple
    degenerate: bool
    tol_grad: float

    def __post_init__(self):
        if self.classification not in CLASSIFICATIONS:
            raise ValueError(f"unknown classification {self.classification!r}")
        if not (np.isfinite(self.j_value) and self.grad_norm_projected >= 0.0):
            raise ValueError("non-finite report quantities")
        is_regular = self.classification == "regular"
        if is_regular != (self.grad_norm_projected > self.tol_grad):
            raise ValueError(
                "classification 'regular' must match projected gradient norm "
                f"{self.grad_norm_projected} vs tolerance {self.tol_grad}"
            )
        total = self.location.num_controls * self.location.segments
        if len(self.hessian_eigenvalues) != total - len(self.active_set):
            raise ValueError(
                "hessian eigenvalue count must equal the number of free "
                "coordinates"
            )


@dataclass(frozen=True)
class AscentTrace:
    """Iterate history of one projected-ascent run; J is nondecreasing."""

    iterates: tuple
    converged: bool
    terminal: CriticalPointReport

    def __post_init__(self):
        if len(self.iterates) < 1:
            raise ValueError("trace must contain the starting point")
        js = [j for (_, j, _) in self.iterates]
        for a, b in zip(js, js[1:]):
            if b < a:
                raise NumericalFault("objective decreased along the ascent trace")

    @property
    def iterations(self) -> int:
        return self.iterates[-1][0]

    @property
    def j_terminal(self) -> float:
        return self.iterates[-1][1]


@dataclass(frozen=True)
class CensusResult1D:
    """Critical points of a 1D function, their values, and the merged values."""

    critical_points: tuple
    critical_values: tuple
    distinct_values: tuple

    def __post_init__(self):
        if len(self.critical_points) != len(self.critical_values):
            raise ValueError("points and values must pair up")
        pts = np.asarray(self.critical_points, dtype=float)
        if pts.size > 1 and np.any(np.diff(pts) <= 0.0):
            raise ValueError("critical points must be strictly increasing")
        for d in self.distinct_values:
            if not any(d == v for v in self.critical_values):
                raise ValueError("distinct_values must be drawn from critical_values")


def project_ascent_gradient(
    grid: ControlGrid, grad_values: np.ndarray, active_tol: float
) -> np.ndarray:
    """Zero the gradient components that point out of the box.

    At +kappa a positive component is outward, at -kappa a negative one; a
    zero projection is the halting condition of constrained ascent.
    """
    pg = np.array(grad_values, dtype=float)
    at_upper, at_lower = _at_bounds(grid, active_tol)
    pg[at_upper & (pg > 0.0)] = 0.0
    pg[at_lower & (pg < 0.0)] = 0.0
    return pg


def finite_difference_hessian(
    system: QuantumSystem,
    grid: ControlGrid,
    basis: BasisSet,
    free_indices: list,
    step: float,
) -> np.ndarray:
    """Central differences of the analytic gradient on the free coordinates.

    Probes may step outside the admissible box, so they bypass the bound
    check on construction. Returned matrix is the raw (unsymmetrized) FD
    estimate.
    """
    if step <= 0.0:
        raise ValueError(f"step must be positive, got {step}")
    flat = grid.values.ravel()
    m = len(free_indices)
    H = np.empty((m, m))
    for col, idx in enumerate(free_indices):
        plus = flat.copy()
        plus[idx] += step
        minus = flat.copy()
        minus[idx] -= step
        gp = gradient(
            system, grid.with_values(plus.reshape(grid.values.shape), validate=False), basis
        ).values.ravel()
        gm = gradient(
            system, grid.with_values(minus.reshape(grid.values.shape), validate=False), basis
        ).values.ravel()
        H[:, col] = (gp[free_indices] - gm[free_indices]) / (2.0 * step)
    return H


def _eigenvalue_signs(eigs: np.ndarray) -> tuple:
    """(n_pos, n_neg, n_zero) under a scale-aware sign threshold."""
    if eigs.size == 0:
        return 0, 0, 0
    tau = max(1e-10, 1e-6 * float(np.max(np.abs(eigs))))
    n_pos = int(np.sum(eigs > tau))
    n_neg = int(np.sum(eigs < -tau))
    return n_pos, n_neg, int(eigs.size - n_pos - n_neg)


def classify_point(
    system: QuantumSystem,
    grid: ControlGrid,
    basis: BasisSet,
    tol: Tolerances = Tolerances(),
) -> CriticalPointReport:
    """First-order (projected gradient) and second-order (free Hessian) label.

    A point is critical when its projected gradient norm is at most
    tol_grad = max(tol.grad, sqrt(2 L r)), with L the largest Hessian
    curvature and r the rounding of J: a gradient that small can raise J by
    at most about |g|^2 / (2 L) before the curvature cancels it, a gain that
    rounding hides. Critical points are classified by Hessian eigenvalue
    signs on the free coordinates; boundary-trap-max additionally requires
    every active component to push outward (>= -tol_grad),
    boundary-trap-min requires them all inert (<= tol_grad). Mixed boundary
    cases are labelled boundary-saddle.
    """
    g = gradient(system, grid, basis).values
    act = tuple(active_set(grid, tol.active))
    pg = project_ascent_gradient(grid, g, tol.active)
    pnorm = float(np.linalg.norm(pg))
    j_value = objective(system, propagate(grid, basis).total)

    Z = grid.segments
    act_flat = {j * Z + (z - 1) for (j, z, _) in act}
    free = [r for r in range(g.size) if r not in act_flat]
    if free:
        H = finite_difference_hessian(
            system, grid, basis, free, tol.resolved_hess_step(grid.kappa)
        )
        eigs = np.linalg.eigvalsh((H + H.T) / 2.0)
    else:
        eigs = np.empty(0)
    n_pos, n_neg, n_zero = _eigenvalue_signs(eigs)
    tol_grad = tol.grad
    if eigs.size:
        floor = 2.0 * float(np.max(np.abs(eigs))) * _objective_rounding(j_value)
        tol_grad = max(tol.grad, floor**0.5)

    if pnorm > tol_grad:
        cls = "regular"
        degenerate = False
    else:
        degenerate = n_zero > 0
        if not act:
            if n_pos == 0 and n_neg > 0:
                cls = "interior-max"
            elif n_neg == 0 and n_pos > 0:
                cls = "interior-min"
            else:
                cls = "interior-saddle"
        else:
            outward = np.array(
                [g[j, z - 1] if side == "+" else -g[j, z - 1] for (j, z, side) in act]
            )
            if n_pos == 0 and np.all(outward >= -tol_grad):
                cls = "boundary-trap-max"
            elif n_neg == 0 and np.all(outward <= tol_grad):
                cls = "boundary-trap-min"
            else:
                cls = "boundary-saddle"

    return CriticalPointReport(
        location=grid,
        j_value=j_value,
        grad_norm_projected=pnorm,
        active_set=act,
        classification=cls,
        hessian_eigenvalues=tuple(float(e) for e in eigs),
        degenerate=degenerate,
        tol_grad=tol_grad,
    )


def gradient_ascent(
    system: QuantumSystem,
    start: ControlGrid,
    basis: BasisSet,
    params: AscentSettings = AscentSettings(),
    tol: Tolerances = Tolerances(),
) -> AscentTrace:
    """Projected gradient ascent with backtracking (halving) line search.

    The trial step is kappa / |projected gradient| so the first candidate
    moves by about one box radius; acceptance requires the Armijo fraction
    of the first-order gain predicted for the realized (clipped)
    displacement. Converges when the projected gradient norm drops below
    params.gtol, or when the line search reaches a step whose predicted gain
    is within the rounding of J: no shorter step can raise J by more than
    rounding, so the point is critical to working precision. Otherwise stops
    when the line search stalls or max_iters is reached.
    """
    grid = start
    vals = np.array(start.values)
    kappa = start.kappa
    J = objective(system, propagate(grid, basis).total)
    if not np.isfinite(J):
        raise NumericalFault("non-finite objective at the starting point")
    g = gradient(system, grid, basis).values
    pg = project_ascent_gradient(grid, g, tol.active)
    pnorm = float(np.linalg.norm(pg))
    trace = [(0, J, pnorm)]
    converged = pnorm < params.gtol
    it = 0
    while not converged and it < params.max_iters:
        s = kappa / pnorm if kappa > 0.0 else 1.0 / pnorm
        accepted = False
        for _ in range(params.max_backtracks):
            cand = np.clip(vals + s * pg, -kappa, kappa)
            delta = cand - vals
            predicted = float(np.sum(g * delta))
            if predicted <= 0.0:
                break
            if predicted <= _objective_rounding(J):
                converged = True
                break
            cand_grid = grid.with_values(cand)
            Jc = objective(system, propagate(cand_grid, basis).total)
            if not np.isfinite(Jc):
                raise NumericalFault("non-finite objective during line search")
            if Jc >= J + params.armijo * predicted:
                accepted = True
                break
            s *= 0.5
        if not accepted:
            break
        vals = cand
        grid = cand_grid
        J = Jc
        g = gradient(system, grid, basis).values
        pg = project_ascent_gradient(grid, g, tol.active)
        pnorm = float(np.linalg.norm(pg))
        it += 1
        trace.append((it, J, pnorm))
        converged = pnorm < params.gtol
    terminal = classify_point(system, grid, basis, tol)
    return AscentTrace(tuple(trace), converged, terminal)


@dataclass(frozen=True)
class BasinSampler:
    """Uniform start sampling plan for the basin census."""

    count: int
    seed: int
    kappa: float
    segments: int
    horizon: float

    def __post_init__(self):
        if self.count < 1:
            raise ValueError(f"need at least one run, got {self.count}")
        if self.segments < 1:
            raise ValueError(f"need at least one segment, got {self.segments}")


@dataclass(frozen=True)
class BasinRun:
    """Outcome of one ascent run inside a census."""

    index: int
    seed: int
    j_terminal: float
    classification: str
    converged: bool
    iterations: int
    trapped: bool


@dataclass(frozen=True)
class BasinCensusResult:
    """Aggregate trap statistics over seeded multistart ascents."""

    trapped_fraction: float
    success_margin: float
    j_max: float
    runs: tuple


def basin_census(
    system: QuantumSystem,
    basis: BasisSet,
    sampler: BasinSampler,
    params: AscentSettings = AscentSettings(),
    tol: Tolerances = Tolerances(),
) -> BasinCensusResult:
    """Multistart ascent statistics: which fraction fails to reach j_max?

    Run i draws its start uniformly from the box with seed sampler.seed + i,
    so the census is reproducible and each run is independent. A run counts
    as trapped when its terminal J is below j_max - success_margin. A
    degenerate range (j_min = j_max) reports trapped_fraction 0 by
    convention.
    """
    rng_range = objective_range(system)
    margin = params.resolved_success_margin(rng_range.width)
    degenerate_range = rng_range.width <= DEGENERATE_RANGE_WIDTH

    def one_run(i: int) -> BasinRun:
        run_seed = sampler.seed + i
        start = ControlGrid.uniform_random(
            sampler.horizon,
            sampler.kappa,
            basis.size,
            sampler.segments,
            np.random.default_rng(run_seed),
        )
        trace = gradient_ascent(system, start, basis, params, tol)
        trapped = (not degenerate_range) and (
            trace.j_terminal < rng_range.j_max - margin
        )
        return BasinRun(
            index=i,
            seed=run_seed,
            j_terminal=trace.j_terminal,
            classification=trace.terminal.classification,
            converged=trace.converged,
            iterations=trace.iterations,
            trapped=trapped,
        )

    runs = [one_run(i) for i in range(sampler.count)]
    trapped_fraction = sum(r.trapped for r in runs) / sampler.count
    return BasinCensusResult(
        trapped_fraction=float(trapped_fraction),
        success_margin=float(margin),
        j_max=float(rng_range.j_max),
        runs=tuple(runs),
    )


def critical_value_census_1d(
    f,
    f_prime,
    domain: tuple,
    grid_points: int,
    tol: Tolerances = Tolerances(),
) -> CensusResult1D:
    """Bracket f' sign changes on a uniform grid and bisect each to a root.

    Only strict sign changes are bracketed, so tangential (non-crossing)
    zeros of f' and constant stretches yield no critical points; a grid too
    coarse to separate neighbouring roots merges them silently. Values
    within tol.merge of each other collapse into one distinct value.
    """
    a, b = float(domain[0]), float(domain[1])
    if not (np.isfinite(a) and np.isfinite(b) and a < b):
        raise ValueError(f"domain must be a finite interval, got ({a}, {b})")
    if grid_points < 2:
        raise ValueError(f"need at least two grid points, got {grid_points}")
    xs = np.linspace(a, b, grid_points)
    ds = np.array([f_prime(x) for x in xs], dtype=float)
    if not np.all(np.isfinite(ds)):
        raise ValueError("derivative is not finite on the grid")

    roots = []
    for i in np.flatnonzero(ds[:-1] * ds[1:] < 0.0):
        lo, hi = float(xs[i]), float(xs[i + 1])
        dlo = ds[i]
        for _ in range(200):
            if hi - lo <= 4.0 * np.finfo(float).eps * max(1.0, abs(lo), abs(hi)):
                break
            mid = 0.5 * (lo + hi)
            dmid = float(f_prime(mid))
            if dmid == 0.0:
                lo = hi = mid
                break
            if (dmid > 0.0) == (dlo > 0.0):
                lo, dlo = mid, dmid
            else:
                hi = mid
        root = 0.5 * (lo + hi)
        if abs(float(f_prime(root))) >= tol.root:
            raise NumericalFault(
                f"bisection left |f'({root})| above the root tolerance"
            )
        roots.append(root)

    values = [float(f(r)) for r in roots]
    if not np.all(np.isfinite(values)):
        raise ValueError("function is not finite at a critical point")
    distinct = []
    for v in sorted(values):
        if not distinct or v - distinct[-1][-1] > tol.merge:
            distinct.append([v])
        else:
            distinct[-1].append(v)
    return CensusResult1D(
        critical_points=tuple(roots),
        critical_values=tuple(values),
        distinct_values=tuple(group[0] for group in distinct),
    )
