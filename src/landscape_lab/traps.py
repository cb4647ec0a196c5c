"""Critical points under box constraints: detection, classification, censuses.

Maximization is the reference direction throughout: the projected gradient
zeroes components that point outside the admissible box, so a vanishing
projected gradient is exactly the first-order condition for a constrained
local maximum search to halt.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .qdyn import BasisSet, ControlGrid, NumericalFault, _blocks
from .landscape import (
    ObjectiveRange,
    QuantumSystem,
    _active_entries,
    _at_bounds,
    _evaluated,
    _gradient_from,
    _hessians,
    objective_range,
)

__all__ = [
    "CriticalPointReport",
    "AscentTrace",
    "CensusResult1D",
    "BasinRun",
    "BasinCensusResult",
    "CLASSIFICATIONS",
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
    "boundary-max",
    "boundary-trap-min",
    "boundary-saddle",
    "regular",
)

# Width below which an objective range counts as a single point; censuses
# then report no traps by convention instead of comparing J against noise.
DEGENERATE_RANGE_WIDTH = 1e-15

# Bound on the rounding error of a computed objective value, in units of
# eps |O|, with |O| the largest |eigenvalue| of the observable: J is a trace
# through Z segment exponentials, and its error scales with O, not with J,
# which vanishes at the corner trap. On the corner-trap qubit, against
# 40-digit arithmetic at the corner and 200 random grids, the worst error is
# 5.9 of these units at Z = 4 and 11.0 at Z = 20, but 18.1 at Z = 100.
OBJECTIVE_ROUNDING_ULPS = 16.0

# Default iteration cap of an ascent.
MAX_ITERS = 500

# Default gradient tolerance: it stops an ascent and bounds the projected
# gradient norm of a critical point (see classify_point).
GRAD_TOL = 1e-8

# Armijo fraction: a step must gain this share of its predicted first-order gain.
ARMIJO = 1e-4

# Default bound on |f'| at a bisected root, and the default distance within
# which 1-D critical values merge into one.
ROOT_TOL = 1e-10
MERGE_TOL = 1e-6

# Trial steps of the ascent's halving ladder evaluated per run and round.
# A warm-started line search (see gradient_ascent) mostly accepts one of its
# first 4 trial steps (80% of them on the corner-qubit census of 50 starts),
# so a short chunk wastes few trial points. It divides MAX_BACKTRACKS.
LINE_SEARCH_CHUNK = 4

# Length of the ascent's halving ladder: its shortest step is 2^-59 of the first.
MAX_BACKTRACKS = 60

# A census run succeeds when its J is within this fraction of j_max - j_min
# of j_max; a boundary maximum further below j_max is a trap.
SUCCESS_MARGIN = 1e-4


def _objective_rounding(system: QuantumSystem) -> float:
    """Largest change of J that rounding alone can account for, on system."""
    obs_norm = float(np.max(np.abs(np.linalg.eigvalsh(system.observable))))
    return OBJECTIVE_ROUNDING_ULPS * np.finfo(float).eps * obs_norm


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
    """Iterate history of one projected-ascent run; J is nondecreasing.

    stop_reason says why the run stopped: "grad" (the projected gradient
    norm fell below tol_grad, or is exactly 0), "rounding" (no step can
    raise J by more than its rounding), "line-search-stall" (no step of the
    ladder passed) or "max-iters". The first two converge.
    """

    iterates: tuple
    stop_reason: str
    terminal: CriticalPointReport

    def __post_init__(self):
        if len(self.iterates) < 1:
            raise ValueError("trace must contain the starting point")
        if self.stop_reason not in ("grad", "rounding", "line-search-stall", "max-iters"):
            raise ValueError(f"unknown stop reason {self.stop_reason!r}")
        js = [j for (_, j, _) in self.iterates]
        for a, b in zip(js, js[1:]):
            if b < a:
                raise NumericalFault("objective decreased along the ascent trace")

    @property
    def converged(self) -> bool:
        return self.stop_reason in ("grad", "rounding")

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


def _check_tolerance(name: str, value: float, *, positive: bool = False) -> None:
    """A ValueError unless the tolerance is finite and nonnegative (positive,
    if so asked): a NaN fails every comparison, so it would stop no ascent
    and merge any two critical values."""
    if not (np.isfinite(value) and (value > 0.0 if positive else value >= 0.0)):
        kind = "positive" if positive else "nonnegative"
        raise ValueError(f"{name} must be finite and {kind}, got {value}")


def _project(g: np.ndarray, at_upper: np.ndarray, at_lower: np.ndarray) -> np.ndarray:
    """Zero the gradient components that point out of the box.

    g is a grid's gradient, or a stack of them, and at_upper, at_lower its
    _at_bounds masks. At +kappa a positive component is outward, at -kappa
    a negative one; a zero projection is the halting condition of
    constrained ascent.
    """
    pg = np.array(g, dtype=float)
    pg[at_upper & (pg > 0.0)] = 0.0
    pg[at_lower & (pg < 0.0)] = 0.0
    return pg


def _gradient_converged(pnorm: np.ndarray, tol_grad: float) -> np.ndarray:
    """Runs whose projected gradient norm is below tol_grad, or exactly 0 at any tol_grad."""
    return (pnorm < tol_grad) | (pnorm == 0.0)


def _norms(pg: np.ndarray) -> np.ndarray:
    """Frobenius norm of each grid-shaped array in a stack (a gradient, or
    an escape probe), with the rounding np.linalg.norm gives one alone: a
    dot product of its entries in their memory order (a gradient is stored
    z-major)."""
    if pg.strides[-1] > pg.strides[-2]:
        pg = np.swapaxes(pg, -1, -2)
    flat = pg.reshape(len(pg), -1)
    return np.sqrt(flat[:, None, :] @ flat[:, :, None]).reshape(len(pg))


def classify_point(
    system: QuantumSystem,
    grid: ControlGrid,
    basis: BasisSet,
    *,
    tol_grad: float = GRAD_TOL,
) -> CriticalPointReport:
    """First-order (projected gradient) and second-order (free Hessian) label.

    A point is critical when its projected gradient norm is at most
    max(tol_grad, sqrt(2 L r)), reported as the report's tol_grad, with L
    the largest Hessian curvature and r the rounding of J: a gradient that
    small can raise J by at most about |g|^2 / (2 L) before the curvature
    cancels it, a gain that rounding hides. Critical points are classified
    by Hessian eigenvalue signs on the free coordinates. A boundary maximum
    needs every active component to push outward (>= -tol_grad); it is
    boundary-trap-max when J is below j_max by more than the census's
    success margin (SUCCESS_MARGIN x (j_max - j_min)), boundary-max
    otherwise. boundary-trap-min requires the active components all inert
    (<= tol_grad). Mixed boundary cases are labelled boundary-saddle. The
    Hessian is exact (landscape._hessians), and J, the gradient and the
    Hessian all come from one kernel pass: this is the terminal report of
    an ascent of zero steps.
    """
    return _lockstep_ascent(system, [grid], basis, max_iters=0, tol_grad=tol_grad)[0].terminal


def _classify(
    system: QuantumSystem, starts: list, vals: np.ndarray, js, gs, pnorms,
    eigen: tuple, basis: BasisSet, *, tol_grad: float,
) -> list:
    """classify_point at the stacked control values vals, one grid each of
    equally shaped starts, given J, the gradient, the projected gradient
    norm and the (lam, V, P) of _evaluated there.

    The at-bound masks of all grids are taken once. The Hessians come from
    one _hessians call per block of grids holding at most BLOCK_BYTES of
    tangent rows (_blocks), so only one block's Hessians are held at a time;
    each is reduced to its eigenvalues on the free coordinates. An
    eigenvalue counts as zero within tau = max(1e-10, 1e-6 top), with top
    the largest |eigenvalue|, and the gradient tolerance in effect is
    max(tol_grad, sqrt(2 top r)), with r the rounding of J.
    """
    at_upper, at_lower = _at_bounds(vals, starts[0].kappa)
    free = ~(at_upper | at_lower).reshape(len(vals), -1)
    rng_range, rounding = objective_range(system), _objective_rounding(system)
    reports = []
    for b in _blocks(len(vals), vals[0].size, basis.dim):
        hessians = _hessians(system, *(e[b] for e in eigen), starts[0].dt, basis)
        for r, H in zip(range(len(vals))[b], hessians):
            f, j, pnorm = np.flatnonzero(free[r]), float(js[r]), float(pnorms[r])
            H = H[np.ix_(f, f)]
            eigs = np.linalg.eigvalsh((H + H.T) / 2.0)
            top = float(np.max(np.abs(eigs), initial=0.0))
            tau = max(1e-10, 1e-6 * top)
            n_pos = int(np.sum(eigs > tau))
            n_neg = int(np.sum(eigs < -tau))
            tol = max(tol_grad, (2.0 * top * rounding) ** 0.5)
            if pnorm > tol:
                cls = "regular"
                degenerate = False
            else:
                degenerate = n_pos + n_neg < eigs.size
                if free[r].all():
                    if n_pos == 0 and n_neg > 0:
                        cls = "interior-max"
                    elif n_neg == 0 and n_pos > 0:
                        cls = "interior-min"
                    else:
                        cls = "interior-saddle"
                else:
                    # '+' at both bounds (kappa = 0), as _active_entries has it.
                    outward = np.where(at_upper[r], gs[r], -gs[r])[at_upper[r] | at_lower[r]]
                    if n_pos == 0 and np.all(outward >= -tol):
                        cls = "boundary-trap-max" if _trapped(j, rng_range) else "boundary-max"
                    elif n_neg == 0 and np.all(outward <= tol):
                        cls = "boundary-trap-min"
                    else:
                        cls = "boundary-saddle"
            reports.append(CriticalPointReport(
                location=starts[r].with_values(vals[r]),
                j_value=j,
                grad_norm_projected=pnorm,
                active_set=tuple(_active_entries(at_upper[r], at_lower[r])),
                classification=cls,
                hessian_eigenvalues=tuple(float(e) for e in eigs),
                degenerate=degenerate,
                tol_grad=tol,
            ))
    return reports


def _trapped(j_value: float, rng_range: ObjectiveRange) -> bool:
    """J short of j_max by more than the success margin, SUCCESS_MARGIN x
    (j_max - j_min). A degenerate range has no traps by convention."""
    margin = SUCCESS_MARGIN * rng_range.width
    return rng_range.width > DEGENERATE_RANGE_WIDTH and j_value < rng_range.j_max - margin


def gradient_ascent(
    system: QuantumSystem,
    start: ControlGrid,
    basis: BasisSet,
    *,
    max_iters: int = MAX_ITERS,
    tol_grad: float = GRAD_TOL,
) -> AscentTrace:
    """Projected gradient ascent with backtracking (halving) line search.

    The trial steps are s0 2^-i, i = i0, ..., i0 + MAX_BACKTRACKS - 1, from
    s0 = kappa / |projected gradient|, so the rung i = 0 moves by about one
    box radius. The ladder is warm-started: the first line search starts
    at i0 = 0, and each later one at i0 = max(k - 1, 0), one rung above the
    index k of the last accepted step. Acceptance requires the Armijo
    fraction ARMIJO of the first-order gain predicted for the realized
    (clipped) displacement, and the first step in ladder order that passes
    is taken. The ladder is evaluated LINE_SEARCH_CHUNK steps per batched
    call, and cut where a step's predicted gain is not positive (the line
    search stalls) or is within the rounding of J: no shorter step can
    raise J by more than rounding, so the point is critical to working
    precision and the run converges. It also converges when the projected
    gradient norm drops below tol_grad, the tolerance classify_point judges
    criticality by, or is exactly 0, and otherwise stops when max_iters is
    reached. The trace's stop_reason says which of these ended the run.
    """
    return _lockstep_ascent(system, [start], basis, max_iters=max_iters, tol_grad=tol_grad)[0]


def _lockstep_ascent(
    system: QuantumSystem, starts: list, basis: BasisSet, *,
    max_iters: int = MAX_ITERS, tol_grad: float = GRAD_TOL,
) -> list:
    """gradient_ascent from each of equally shaped starts, all in one loop.

    Each round evaluates the next LINE_SEARCH_CHUNK ladder steps of every
    run still searching as one batched _evaluated call. A run whose chunk
    neither passes nor is cut goes on down its ladder in the next round,
    so each run keeps its own iteration count. The gradients of the runs
    that accepted a step are then one more batched call on the eigenpairs
    and prefix products their step was evaluated with, and the terminal
    Hessians reuse those of each run's last grid, so no grid is
    diagonalized twice. Runs never mix, and the kernels give a grid the
    same bits in any stack, so each run's iterates are those it has alone.
    """
    _check_tolerance("tol_grad", tol_grad)
    if not (isinstance(max_iters, (int, np.integer)) and max_iters >= 0):
        raise ValueError(f"max_iters must be an integer >= 0, got {max_iters!r}")
    kappa, dt = starts[0].kappa, starts[0].dt
    rounding = _objective_rounding(system)
    vals = np.stack([start.values for start in starts])
    J, lam, V, P = _evaluated(system, vals, dt, basis)
    g = _gradient_from(system, lam, V, P, dt, basis)
    pg = _project(g, *_at_bounds(vals, kappa))
    pnorm = _norms(pg)
    traces = [[(0, float(J[r]), float(pnorm[r]))] for r in range(len(starts))]
    # Each run's stop reason, "" while it runs.
    stop = np.full(len(starts), "", dtype=object)
    stop[_gradient_converged(pnorm, tol_grad)] = "grad"
    if max_iters == 0:
        stop[stop == ""] = "max-iters"
    iters = np.zeros(len(starts), dtype=int)
    # Run r's line search tries the steps s0 2^-(rung[r] + i), i from pos[r] on.
    rung = np.zeros(len(starts), dtype=int)
    pos = np.zeros(len(starts), dtype=int)
    while (stop == "").any():
        runs = np.flatnonzero(stop == "")
        ladder = 0.5 ** (rung[runs, None] + pos[runs, None] + np.arange(LINE_SEARCH_CHUNK))
        steps = kappa / pnorm[runs, None] * ladder
        v, gr = vals[runs, None], g[runs, None]
        cands = np.clip(v + steps[:, :, None, None] * pg[runs, None], -kappa, kappa)
        predicted = (gr * (cands - v)).reshape(cands.shape[:2] + (-1,)).sum(axis=2)
        cut = predicted <= rounding
        live = np.cumsum(cut, axis=1) == 0
        passed = np.zeros_like(live)
        Jc = np.zeros(live.shape)
        if live.any():
            Jl, lam_l, V_l, P_l = _evaluated(system, cands[live], dt, basis)
            Jc[live] = Jl
            threshold = J[runs, None] + ARMIJO * predicted
            passed[live] = Jc[live] >= threshold[live]
        k = passed.argmax(axis=1)
        ok = passed.any(axis=1)
        won = runs[ok]
        first_cut = cut.argmax(axis=1)
        ended = ~ok & cut.any(axis=1)
        gain = predicted[ended, first_cut[ended]] > 0.0
        stop[runs[ended]] = np.where(gain, "rounding", "line-search-stall")
        going = runs[~ok & ~ended]
        pos[going] += LINE_SEARCH_CHUNK
        stop[going[pos[going] >= MAX_BACKTRACKS]] = "line-search-stall"
        if not won.size:
            continue
        sel = (np.cumsum(live) - 1).reshape(live.shape)[ok, k[ok]]
        vals[won] = cands[ok, k[ok]]
        J[won] = Jc[ok, k[ok]]
        lam[won], V[won], P[won] = lam_l[sel], V_l[sel], P_l[sel]
        rung[won] = np.maximum(rung[won] + pos[won] + k[ok] - 1, 0)
        pos[won] = 0
        iters[won] += 1
        g[won] = _gradient_from(system, lam[won], V[won], P[won], dt, basis)
        pg[won] = _project(g[won], *_at_bounds(vals[won], kappa))
        pnorm[won] = _norms(pg[won])
        for r in won:
            traces[r].append((int(iters[r]), float(J[r]), float(pnorm[r])))
        stop[won[iters[won] >= max_iters]] = "max-iters"
        stop[won[_gradient_converged(pnorm[won], tol_grad)]] = "grad"
    reports = _classify(system, starts, vals, J, g, pnorm, (lam, V, P), basis, tol_grad=tol_grad)
    return [
        AscentTrace(tuple(trace), str(why), report)
        for trace, why, report in zip(traces, stop, reports)
    ]


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
    *,
    count: int,
    seed: int,
    kappa: float,
    segments: int,
    horizon: float,
    max_iters: int = MAX_ITERS,
    tol_grad: float = GRAD_TOL,
) -> BasinCensusResult:
    """Multistart ascent statistics: which fraction fails to reach j_max?

    Run i draws its start uniformly from the box [-kappa, kappa] on a grid
    of the given horizon and segments, with seed seed + i, so the census is
    reproducible and each run is independent. A run counts as trapped when
    its terminal J is below j_max - success_margin, with success_margin =
    SUCCESS_MARGIN x (j_max - j_min). A degenerate range (j_min = j_max)
    reports trapped_fraction 0 by convention.
    """
    if count < 1:
        raise ValueError(f"need at least one run, got {count}")
    if segments < 1:
        raise ValueError(f"need at least one segment, got {segments}")
    rng_range = objective_range(system)
    seeds = [seed + i for i in range(count)]
    starts = [
        ControlGrid.uniform_random(
            horizon, kappa, basis.size, segments, np.random.default_rng(run_seed)
        )
        for run_seed in seeds
    ]
    traces = _lockstep_ascent(system, starts, basis, max_iters=max_iters, tol_grad=tol_grad)
    runs = [
        BasinRun(
            index=i,
            seed=run_seed,
            j_terminal=trace.j_terminal,
            classification=trace.terminal.classification,
            converged=trace.converged,
            iterations=trace.iterations,
            trapped=_trapped(trace.j_terminal, rng_range),
        )
        for i, (run_seed, trace) in enumerate(zip(seeds, traces))
    ]
    trapped_fraction = sum(r.trapped for r in runs) / count
    return BasinCensusResult(
        trapped_fraction=float(trapped_fraction),
        success_margin=float(SUCCESS_MARGIN * rng_range.width),
        j_max=float(rng_range.j_max),
        runs=tuple(runs),
    )


def _on(fn, x: np.ndarray) -> np.ndarray:
    """fn called on an array, its result as floats of x's shape (a scalar is broadcast)."""
    return np.broadcast_to(np.asarray(fn(x), dtype=float), x.shape)


def _bisect(f_prime, lo: np.ndarray, hi: np.ndarray, dlo: np.ndarray) -> np.ndarray:
    """Bisect every bracket [lo, hi] of a strict sign change of f' to a root.

    dlo holds f' at lo. All brackets advance in lockstep: each round calls
    f_prime once on the midpoints of all brackets, and a bracket freezes
    when its width is at most 4 eps max(1, |lo|, |hi|), when f' is exactly
    0 at its midpoint, or after 200 rounds; its root is the midpoint of the
    frozen bracket. The arithmetic is elementwise, so each root has the bits
    a bracket-by-bracket loop gives it.
    """
    lo, hi, dlo = (np.array(v, dtype=float) for v in (lo, hi, dlo))
    eps = np.finfo(float).eps
    open_ = np.ones(lo.shape, dtype=bool)
    for _ in range(200):
        scale = np.maximum(1.0, np.maximum(np.abs(lo), np.abs(hi)))
        open_ &= ~(hi - lo <= 4.0 * eps * scale)
        if not open_.any():
            break
        mid = 0.5 * (lo + hi)
        dmid = _on(f_prime, mid)
        open_ &= dmid != 0.0
        left = open_ & ((dmid > 0.0) == (dlo > 0.0))
        lo[left], dlo[left] = mid[left], dmid[left]
        right = open_ & ~left
        hi[right] = mid[right]
    return 0.5 * (lo + hi)


def _bracketed_roots(f_prime, xs: np.ndarray, ds: np.ndarray) -> tuple:
    """(roots, owner): every bracketed root of f', bisected in one lockstep.

    ds holds f' on the grid xs, one row or one row per function of a stack,
    and must be finite. Along the last axis, a strict sign change between
    neighbouring nodes brackets a root, and so does a node where f' is
    exactly 0 between neighbours of opposite sign (the bracket spans both
    neighbours); a tangential zero or a constant stretch brackets none.
    All brackets are bisected together (_bisect), f_prime(x, owner) giving
    f' at the points x of the rows owner. The roots come row by row, in
    increasing order within a row.
    """
    if not np.all(np.isfinite(ds)):
        raise ValueError("derivative is not finite on the grid")
    table = np.atleast_2d(ds)
    node = np.zeros(table[:, 1:].shape, dtype=bool)
    node[:, :-1] = (table[:, 1:-1] == 0.0) & (table[:, :-2] * table[:, 2:] < 0.0)
    owner, i = np.nonzero((table[:, :-1] * table[:, 1:] < 0.0) | node)
    hi = xs[i + 1 + node[owner, i]]
    return _bisect(lambda x: f_prime(x, owner), xs[i], hi, table[owner, i]), owner


def critical_value_census_1d(
    f,
    f_prime,
    domain: tuple,
    grid_points: int,
    *,
    root_tol: float = ROOT_TOL,
    merge_tol: float = MERGE_TOL,
) -> CensusResult1D:
    """Bracket f' sign changes on a uniform grid and bisect each to a root.

    f and f_prime are called on arrays (a scalar result is broadcast): f'
    once on the whole grid and once per bisection round on the midpoints of
    all brackets (_bracketed_roots), then f' and f on the roots. A strict
    sign change between neighbouring nodes is bracketed, and so is a node
    where f' is exactly 0 between neighbours of opposite sign. Tangential
    (non-crossing) zeros of f' and constant stretches yield no critical
    points; a grid too coarse to separate neighbouring roots merges them
    silently. Values within merge_tol of each other collapse into one
    distinct value, and a root must leave |f'| below root_tol.
    """
    a, b = float(domain[0]), float(domain[1])
    if not (np.isfinite(a) and np.isfinite(b) and a < b):
        raise ValueError(f"domain must be a finite interval, got ({a}, {b})")
    if grid_points < 2:
        raise ValueError(f"need at least two grid points, got {grid_points}")
    _check_tolerance("root_tol", root_tol, positive=True)
    _check_tolerance("merge_tol", merge_tol)
    xs = np.linspace(a, b, grid_points)
    roots = _bracketed_roots(lambda x, _: f_prime(x), xs, _on(f_prime, xs))[0]
    off = np.flatnonzero(~(np.abs(_on(f_prime, roots)) < root_tol))
    if off.size:
        raise NumericalFault(
            f"bisection left |f'({roots[off[0]]})| above the root tolerance"
        )

    values = [float(v) for v in _on(f, roots)]
    if not np.all(np.isfinite(values)):
        raise ValueError("function is not finite at a critical point")
    distinct = []
    for v in sorted(values):
        if not distinct or v - distinct[-1][-1] > merge_tol:
            distinct.append([v])
        else:
            distinct[-1].append(v)
    return CensusResult1D(
        critical_points=tuple(float(r) for r in roots),
        critical_values=tuple(values),
        distinct_values=tuple(group[0] for group in distinct),
    )
