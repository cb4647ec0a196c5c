"""The benchmark's three workloads: their inputs, their timed units and their checks.

A unit is the fixed piece of work timed as one sample; every unit of a
workload repeats the same calls on the same inputs. ``run_unit`` holds only
calls into the program. ``check`` runs after it, outside the timed span,
and returns (failed operations, problems); a problem is an output that
disagrees with a reference computed in ``reference.py``.

The check functions take the parsed results, so tests can feed them
tampered outputs.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

import reference as ref
from landscape_lab import cli, landscape, qdyn

T = 1.0
Z_CORNER = 4

# basin-census: the paper's multistart experiment on the corner-trap qubit.
# The starts are pinned to seeds 0..9 whatever --seed says: seeds 6 and 8
# stall (converged false), and the failed share must be the same in every run.
CENSUS_COUNT = 10
CENSUS_SEED = 0

# landscape-sweep: one random interior grid at each (N, Z).
SWEEP_SIZES = ((8, 20), (4, 100))
SWEEP_KAPPA = 1.0
SWEEP_FD_COORDS = 8
SWEEP_FD_STEP = 1e-5

CLASSIFICATIONS = {
    "interior-max", "interior-min", "interior-saddle", "boundary-trap-max",
    "boundary-trap-min", "boundary-saddle", "regular",
}


def _close(a, b, tol) -> bool:
    return abs(a - b) <= tol


def _read_results(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)["results"]


def census_start_objective(seed: int) -> float:
    """J at the documented start of census run `seed`: uniform(-kappa, kappa, (3, Z))."""
    alpha = 2.0 * math.sqrt(3.0) * T * ref.KAPPA_AUTO
    start = np.random.default_rng(seed).uniform(-ref.KAPPA_AUTO, ref.KAPPA_AUTO, size=(3, Z_CORNER))
    U = ref.total_propagator(start, ref.PAULI, T)
    return ref.objective(ref.trap_state(), ref.trap_observable(alpha), U)


def check_census(results: dict, count: int, seed0: int, j_start: list) -> tuple:
    """(failed runs, problems) for one `basins` report; j_start[i] is J at run i's start."""
    problems = []
    alpha = 2.0 * math.sqrt(3.0) * T * ref.KAPPA_AUTO
    margin = 1e-4 * (2.0 * ref.SQRT_1_5)
    if not _close(results["kappa"], ref.KAPPA_AUTO, 1e-15):
        problems.append(f"kappa {results['kappa']} is not pi/sqrt(3)")
    if not _close(results["alpha"], alpha, 1e-12):
        problems.append(f"alpha {results['alpha']} is not 2 sqrt(3) T kappa")
    # A pure qubit state with O = c.sigma has J_max = |c| = sqrt(3/2) for every alpha.
    if not _close(results["j_max"], ref.SQRT_1_5, 1e-12):
        problems.append(f"j_max {results['j_max']} is not sqrt(1.5)")
    if not _close(results["success_margin"], margin, 1e-15):
        problems.append(f"success_margin {results['success_margin']} is not 1e-4 (j_max - j_min)")
    runs = results["runs"]
    if len(runs) != count:
        problems.append(f"{len(runs)} runs reported, {count} requested")
    for i, r in enumerate(runs[:count]):
        tag = f"run {i}"
        if r["index"] != i or r["seed"] != seed0 + i:
            problems.append(f"{tag}: index {r['index']} seed {r['seed']}, expected {i}, {seed0 + i}")
            continue
        jt = r["j_terminal"]
        if not jt <= ref.SQRT_1_5 + 1e-9:
            problems.append(f"{tag}: j_terminal {jt} above sqrt(1.5)")
        if not jt >= j_start[i] - 1e-12:
            problems.append(f"{tag}: j_terminal {jt} below J(start) {j_start[i]}")
        if r["trapped"] != (jt < ref.SQRT_1_5 - margin):
            problems.append(f"{tag}: trapped {r['trapped']} disagrees with j_terminal {jt}")
        if r["classification"] not in CLASSIFICATIONS:
            problems.append(f"{tag}: unknown classification {r['classification']!r}")
        if not (isinstance(r["iterations"], int) and r["iterations"] >= 0):
            problems.append(f"{tag}: iterations {r['iterations']!r}")
    trapped = sum(bool(r["trapped"]) for r in runs)
    if runs and not _close(results["trapped_fraction"], trapped / len(runs), 1e-15):
        problems.append(f"trapped_fraction {results['trapped_fraction']} is not {trapped}/{len(runs)}")
    failed = sum(not r["converged"] for r in runs)
    return failed, problems


class BasinCensus:
    """`landscape-lab basins --count 10` on the corner-trap qubit, one census per unit."""

    name = "basin-census"
    ops_per_unit = CENSUS_COUNT

    def __init__(self, seed: int, scratch: str):
        self.path = os.path.join(scratch, "basins.json")
        self.argv = ["basins", "--count", str(CENSUS_COUNT), "--seed", str(CENSUS_SEED),
                     "--output", self.path]
        self._j_start = None

    def run_unit(self):
        return cli.main(self.argv)

    def check(self, rc) -> tuple:
        if rc != 0:
            return self.ops_per_unit, []
        if self._j_start is None:
            self._j_start = [census_start_objective(CENSUS_SEED + i) for i in range(CENSUS_COUNT)]
        return check_census(_read_results(self.path), CENSUS_COUNT, CENSUS_SEED, self._j_start)


class SweepReference:
    """Independent propagator, tangent rows and central differences for one sweep case."""

    def __init__(self, system, grid, basis, rng):
        stack = ref.check_basis(basis.stack)
        values = np.array(grid.values)
        rho0, obs = np.array(system.rho0), np.array(system.observable)
        self.U = ref.total_propagator(values, stack, grid.horizon)
        self.rows = ref.tangent_rows(values, stack, grid.horizon)
        M = self.U.conj().T @ obs @ self.U
        # Chain rule: dJ/d eps = rows . (coordinates of i[rho0, U^dag O U] in {B_k / sqrt 2}).
        comm = 1j * (rho0 @ M - M @ rho0)
        self.grad = self.rows @ (np.einsum("kab,ba->k", stack, comm).real / math.sqrt(2.0))
        self.coords = rng.choice(values.size, size=SWEEP_FD_COORDS, replace=False)
        h = SWEEP_FD_STEP
        self.fd = []
        for idx in self.coords:
            J = []
            for sign in (1.0, -1.0):
                v = values.ravel().copy()
                v[idx] += sign * h
                U = ref.total_propagator(v.reshape(values.shape), stack, grid.horizon)
                J.append(ref.objective(rho0, obs, U))
            self.fd.append((J[0] - J[1]) / (2 * h))
        self.rank = basis.size


def check_sweep_case(U, grad, rows, rank, want: SweepReference) -> list:
    """Problems of one (N, Z) case against its reference."""
    problems = []
    n = want.rank
    if np.max(np.abs(U - want.U)) > 1e-12:
        problems.append("total propagator differs from the scipy.linalg.expm product by > 1e-12")
    grad = np.asarray(grad).ravel()
    fd = grad[want.coords]
    if np.max(np.abs(fd - want.fd)) > 1e-7:
        problems.append(f"gradient differs from central differences by {np.max(np.abs(fd - want.fd)):.3g}")
    if np.max(np.abs(grad - want.grad)) > 1e-10:
        problems.append("gradient differs from the chain rule through the reference tangent map")
    if np.max(np.abs(np.asarray(rows) - want.rows)) > 1e-10:
        problems.append("tangent map differs from scipy.linalg.expm_frechet rows")
    if rank != n:
        problems.append(f"rank {rank}, expected N^2-1 = {n}")
    return problems


class LandscapeSweep:
    """gradient, psi_tangent_map and local_surjectivity_rank at (8, 20) and (4, 100)."""

    name = "landscape-sweep"
    ops_per_unit = len(SWEEP_SIZES)

    def __init__(self, seed: int, scratch: str):
        rng = np.random.default_rng(seed)
        self.cases = []
        for N, Z in SWEEP_SIZES:
            basis = qdyn.build_su_basis(N)
            grid = qdyn.ControlGrid(T, SWEEP_KAPPA, rng.uniform(-SWEEP_KAPPA, SWEEP_KAPPA, (basis.size, Z)))
            psi = rng.standard_normal(N) + 1j * rng.standard_normal(N)
            psi /= np.linalg.norm(psi)
            X = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
            system = landscape.QuantumSystem(N, np.outer(psi, psi.conj()), (X + X.conj().T) / 2)
            self.cases.append((system, grid, basis))
        self._seed = seed
        self._refs = None

    def run_unit(self):
        out = []
        for system, grid, basis in self.cases:
            g = landscape.gradient(system, grid, basis)
            tm = landscape.psi_tangent_map(grid, basis)
            rank, _ = landscape.local_surjectivity_rank(tm)
            out.append((g.values, tm.rows, rank))
        return out

    def check(self, out) -> tuple:
        if self._refs is None:
            rng = np.random.default_rng([self._seed, 1])
            self._refs = [SweepReference(*case, rng) for case in self.cases]
        problems = []
        for (system, grid, basis), (g, rows, rank), want in zip(self.cases, out, self._refs):
            U = qdyn.propagate(grid, basis).total
            problems += [f"N={basis.dim}: {p}" for p in check_sweep_case(U, g, rows, rank, want)]
        return 0, problems


def corner_rows(N: int) -> np.ndarray:
    """Reference tangent rows at the all-upper-bound corner (T = 1, Z = 4, kappa = pi/sqrt 3)."""
    stack = ref.check_basis(qdyn.build_su_basis(N).stack)
    values = np.full((N * N - 1, Z_CORNER), ref.KAPPA_AUTO)
    return ref.tangent_rows(values, stack, T)


def check_witness(tag: str, res: dict, rows: np.ndarray) -> list:
    """The cone test must fail at a corner, with a witness outside the admissible cone."""
    if res["cone_surjective"] is not False or res["witness"] is None:
        return [f"{tag}: cone_surjective {res['cone_surjective']} at a corner"]
    w = np.asarray(res["witness"], dtype=float)
    if w.shape != (rows.shape[1],) or not _close(float(np.linalg.norm(w)), 1.0, 1e-12):
        return [f"{tag}: witness is not a unit vector of su(N)"]
    dist = ref.corner_cone_distance(rows, w)
    if not dist > 1e-6:
        return [f"{tag}: witness lies in the admissible cone (L1 distance {dist:.3g})"]
    return []


def check_ce_boundary(res: dict, rows2: np.ndarray) -> list:
    problems = []
    alpha = 2.0 * math.sqrt(3.0) * T * ref.KAPPA_AUTO
    U = ref.total_propagator(np.full((3, Z_CORNER), ref.KAPPA_AUTO), ref.PAULI, T)
    j_corner = ref.objective(ref.trap_state(), ref.trap_observable(alpha), U)
    if res["is_trap"] is not True:
        problems.append("ce-boundary: is_trap is not true")
    if not _close(res["j_at_corner"], j_corner, 1e-12):
        problems.append(f"ce-boundary: j_at_corner {res['j_at_corner']} is not {j_corner}")
    got_U = np.asarray(res["corner_unitary"], dtype=float).view(complex).reshape(2, 2)
    if np.max(np.abs(got_U - U)) > 1e-12:
        problems.append("ce-boundary: corner_unitary differs from scipy.linalg.expm")
    if not _close(res["j_global_max"], ref.SQRT_1_5, 1e-12):
        problems.append(f"ce-boundary: j_global_max {res['j_global_max']} is not sqrt(1.5)")
    if not res["max_inward_gain"] <= 1e-10:
        problems.append(f"ce-boundary: max_inward_gain {res['max_inward_gain']} above 1e-10")
    return problems + check_witness("ce-boundary", res, rows2)


def check_rank_corner(N: int, res: dict, rows: np.ndarray) -> list:
    tag = f"rank N={N}"
    problems = []
    s = np.linalg.svd(rows, compute_uv=False)
    want = int(np.sum(s > 1e-8 * s[0]))
    if res["rank"] != want or res["full_rank"] != (want == N * N - 1):
        problems.append(f"{tag}: rank {res['rank']} full {res['full_rank']}, reference rank {want}")
    return problems + check_witness(tag, res, rows)


def _d1(x, c, h=1e-5):
    return (ref.slice_f(x + h, c) - ref.slice_f(x - h, c)) / (2 * h)


def _d2(x, c, h=1e-4):
    return (ref.slice_f(x + h, c) - 2 * ref.slice_f(x, c) + ref.slice_f(x - h, c)) / h ** 2


def check_ce_slice(res: dict, c_min=-1.4, c_max=1.4, steps=101) -> list:
    rows = np.asarray(res["rows"], dtype=float)
    if rows.shape != (steps, 5):
        return [f"ce-slice: {rows.shape} rows, expected ({steps}, 5)"]
    c, x_max, v_max, x_min, v_min = rows.T
    problems = []
    if np.max(np.abs(c - np.linspace(c_min, c_max, steps))) > 1e-15:
        problems.append("ce-slice: slice values are not the requested range")
    for name, x, v, sign in (("maximum", x_max, v_max, -1.0), ("minimum", x_min, v_min, 1.0)):
        if np.max(np.abs(_d1(x, c))) > 1e-8:
            problems.append(f"ce-slice: f' does not vanish at a reported {name}")
        if not np.all(sign * _d2(x, c) > 0.0):
            problems.append(f"ce-slice: curvature has the wrong sign at a reported {name}")
        if np.max(np.abs(ref.slice_f(x, c) - v)) > 1e-12:
            problems.append(f"ce-slice: reported {name} value is not f at its location")
    return problems


def check_ce_scan2d(res: dict, steps=400) -> list:
    problems = []
    m = res["min_grad_norm"]
    if not m > 0.0:
        problems.append(f"ce-scan2d: min_grad_norm {m} is not positive")
    at_argmin = float(ref.fd_grad_norm(res["argmin_e1"], res["argmin_e2"]))
    if not _close(m, at_argmin, 1e-7):
        problems.append(f"ce-scan2d: min_grad_norm {m} is not |grad f| = {at_argmin} at the argmin")
    lim = math.pi / 2 - res["margin"]
    axis = np.linspace(-lim, lim, steps)
    floor = float(np.min(ref.fd_grad_norm(axis[:, None], axis[None, :])))
    if not _close(m, floor, 1e-7):
        problems.append(f"ce-scan2d: min_grad_norm {m} is not the grid minimum {floor}")
    return problems


class PaperCertify:
    """One cycle of the paper's certification commands through cli.main."""

    name = "paper-certify"

    def __init__(self, seed: int, scratch: str):
        def out(tag):
            return os.path.join(scratch, f"{tag}.json")

        s = str(seed)
        self.commands = [
            ("ce-boundary", ["ce-boundary", "--expect-trap", "--seed", s]),
            ("rank3", ["rank", "--grid-kind", "corner", "--kappa", "auto", "--N", "3", "--seed", s]),
            ("rank4", ["rank", "--grid-kind", "corner", "--kappa", "auto", "--N", "4", "--seed", s]),
            ("ce-slice", ["ce-slice", "--verify"]),
            ("ce-scan2d", ["ce-scan2d"]),
        ]
        self.commands = [(tag, argv + ["--output", out(tag)], out(tag)) for tag, argv in self.commands]
        self.ops_per_unit = len(self.commands)
        self._rows = None

    def run_unit(self):
        return [cli.main(argv) for _, argv, _ in self.commands]

    def check(self, rcs) -> tuple:
        if self._rows is None:
            self._rows = {N: corner_rows(N) for N in (2, 3, 4)}
        failed, problems = 0, []
        for (tag, _, path), rc in zip(self.commands, rcs):
            if rc != 0:
                failed += 1
                continue
            res = _read_results(path)
            if tag == "ce-boundary":
                problems += check_ce_boundary(res, self._rows[2])
            elif tag.startswith("rank"):
                problems += check_rank_corner(int(tag[-1]), res, self._rows[int(tag[-1])])
            elif tag == "ce-slice":
                problems += check_ce_slice(res)
            else:
                problems += check_ce_scan2d(res)
        return failed, problems


WORKLOADS = {w.name: w for w in (BasinCensus, LandscapeSweep, PaperCertify)}
