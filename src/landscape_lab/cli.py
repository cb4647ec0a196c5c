"""Deterministic command-line front end.

Every run resolves its configuration (flags, optional JSON config file,
defaults), dispatches to one library operation, and emits a machine-readable
report. Identical configuration and seed reproduce identical payload bytes,
wall time aside.

Exit codes: 0 success, 1 an --expect-* assertion failed, 2 configuration
error, 3 numerical fault.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import platform
import sys
import time
from dataclasses import dataclass

import numpy as np
import scipy

from . import __version__
from .qdyn import ControlGrid, NumericalFault, build_su_basis, propagate
from .landscape import (
    DEFAULT_ACTIVE_TOL,
    QuantumSystem,
    boundary_cone_surjectivity,
    gradient,
    kappa_threshold,
    local_surjectivity_rank,
    objective,
    psi_tangent_map,
)
from .traps import (
    AscentSettings,
    BasinSampler,
    Tolerances,
    basin_census,
    critical_value_census_1d,
    gradient_ascent,
)
from .counterexamples import (
    DEFAULT_MARGIN,
    analytic2d_trap_free_scan,
    boundary_trap_instance,
    slice_census_2d,
    trap_initial_state,
    trap_observable,
    verify_boundary_trap,
)

__all__ = ["RunConfig", "RunReport", "main", "run"]

EXIT_OK = 0
EXIT_EXPECT = 1
EXIT_CONFIG = 2
EXIT_NUMERIC = 3

CENSUS_FUNCTIONS = {
    "sin": (np.sin, np.cos),
    "sinc": (
        lambda x: np.sin(x) / x,
        lambda x: (x * np.cos(x) - np.sin(x)) / x**2,
    ),
    "cubic": (lambda x: x**3 - x, lambda x: 3.0 * x**2 - 1.0),
}

GRID_KINDS = ("zeros", "corner", "constant", "random")


@dataclass(frozen=True)
class RunConfig:
    """Resolved invocation: command, echoed parameters, output destination."""

    command: str
    params: dict
    output: str | None
    format: str


@dataclass(frozen=True)
class RunReport:
    """One run's full record: config echo, results and wall time."""

    config: dict
    results: dict
    wall_time_s: float


def _parse_kappa(value) -> float:
    if isinstance(value, str) and value.strip().lower() == "auto":
        return math.pi / math.sqrt(3.0)
    kappa = float(value)
    if kappa < 0.0 or not math.isfinite(kappa):
        raise ValueError(f"bound must be nonnegative and finite, got {kappa}")
    return kappa


def _interleave(M: np.ndarray) -> list:
    """Complex matrix as a flat row-major (re, im) float list."""
    out = []
    for v in np.asarray(M, dtype=complex).ravel():
        out.append(float(v.real))
        out.append(float(v.imag))
    return out


def _make_grid(kind: str, T: float, kappa: float, num_controls: int, Z: int,
               seed: int, fill: float) -> ControlGrid:
    if kind == "zeros":
        return ControlGrid.zeros(T, kappa, num_controls, Z)
    if kind == "corner":
        return ControlGrid.constant(T, kappa, num_controls, Z, kappa)
    if kind == "constant":
        return ControlGrid.constant(T, kappa, num_controls, Z, fill)
    if kind == "random":
        return ControlGrid.uniform_random(
            T, kappa, num_controls, Z, np.random.default_rng(seed)
        )
    raise ValueError(f"unknown grid kind {kind!r}")


def _demo_system(T: float, kappa: float) -> tuple:
    """Two-level demo system tied to the corner-trap observable."""
    alpha = 2.0 * math.sqrt(3.0) * T * kappa
    return QuantumSystem(2, trap_initial_state(), trap_observable(alpha)), alpha


def _ascent_settings(args) -> AscentSettings:
    return AscentSettings(
        max_iters=args.max_iters, gtol=args.gtol, armijo=args.armijo
    )


def _ascent_tolerances(args) -> Tolerances:
    return Tolerances(grad=args.tol_grad, active=args.active_tol)


def _report_terminal(report) -> dict:
    return {
        "j_value": report.j_value,
        "classification": report.classification,
        "grad_norm_projected": report.grad_norm_projected,
        "active_count": len(report.active_set),
        "hessian_eigenvalues": list(report.hessian_eigenvalues),
        "degenerate": report.degenerate,
    }


# Command handlers: each returns (results, expect_ok).

def _cmd_basis(args):
    basis = build_su_basis(args.N)
    results = {
        "dim": basis.dim,
        "size": basis.size,
        "elements": [_interleave(B) for B in basis.elements],
    }
    return results, True


def _cmd_kappa_thr(args):
    basis = build_su_basis(args.N)
    thr = kappa_threshold(basis, args.T, args.Z)
    results = {"kappa_thr": thr, "conservative": args.N > 2}
    return results, True


def _cmd_propagate(args):
    kappa = _parse_kappa(args.kappa)
    basis = build_su_basis(args.N)
    grid = _make_grid(args.grid_kind, args.T, kappa, basis.size, args.Z,
                      args.seed, args.fill)
    prop = propagate(grid, basis)
    eye = np.eye(basis.dim)
    results = {
        "kappa": kappa,
        "total": _interleave(prop.total),
        "segment_unitaries": [_interleave(U) for U in prop.segment_unitaries],
        "unitarity_defect": float(
            np.linalg.norm(prop.total.conj().T @ prop.total - eye)
        ),
        "determinant_defect": float(abs(np.linalg.det(prop.total) - 1.0)),
    }
    return results, True


def _cmd_rank(args):
    kappa = _parse_kappa(args.kappa)
    basis = build_su_basis(args.N)
    grid = _make_grid(args.grid_kind, args.T, kappa, basis.size, args.Z,
                      args.seed, args.fill)
    tm = psi_tangent_map(grid, basis)
    rank, surjective = local_surjectivity_rank(tm, args.rank_tol)
    cone_ok, witness = boundary_cone_surjectivity(grid, tm, args.active_tol)
    results = {
        "kappa": kappa,
        "rank": rank,
        "full_rank": surjective,
        "cone_surjective": cone_ok,
        "witness": None if witness is None else [float(w) for w in witness],
    }
    return results, True


def _cmd_scan(args):
    kappa = _parse_kappa(args.kappa)
    basis = build_su_basis(2)
    system, alpha = _demo_system(args.T, kappa)
    grid = _make_grid(args.base, args.T, kappa, basis.size, args.Z,
                      args.seed, args.fill)
    (j1, z1) = args.coord1
    (j2, z2) = args.coord2
    for (j, z) in ((j1, z1), (j2, z2)):
        if not (1 <= j <= basis.size and 1 <= z <= args.Z):
            raise ValueError(f"coordinate ({j}, {z}) outside the control grid")
    axis = np.linspace(-kappa, kappa, args.steps)
    rows = []
    for c1 in axis:
        for c2 in axis:
            vals = np.array(grid.values)
            vals[j1 - 1, z1 - 1] = c1
            vals[j2 - 1, z2 - 1] = c2
            g = grid.with_values(vals)
            J = objective(system, propagate(g, basis).total)
            gr = gradient(system, g, basis).values
            rows.append(
                [float(c1), float(c2), J,
                 float(gr[j1 - 1, z1 - 1]), float(gr[j2 - 1, z2 - 1])]
            )
    results = {
        "alpha": alpha,
        "kappa": kappa,
        "coord1": [j1, z1],
        "coord2": [j2, z2],
        "columns": ["c1", "c2", "J", "g1", "g2"],
        "rows": rows,
    }
    return results, True


def _cmd_ascent(args):
    kappa = _parse_kappa(args.kappa)
    basis = build_su_basis(2)
    system, alpha = _demo_system(args.T, kappa)
    start = _make_grid(args.start, args.T, kappa, basis.size, args.Z,
                       args.seed, args.fill)
    trace = gradient_ascent(system, start, basis, _ascent_settings(args),
                            _ascent_tolerances(args))
    results = {
        "alpha": alpha,
        "kappa": kappa,
        "iterates": [[i, j, pn] for (i, j, pn) in trace.iterates],
        "converged": trace.converged,
        "terminal": _report_terminal(trace.terminal),
    }
    return results, True


def _cmd_basins(args):
    kappa = _parse_kappa(args.kappa)
    basis = build_su_basis(2)
    system, alpha = _demo_system(args.T, kappa)
    sampler = BasinSampler(count=args.count, seed=args.seed, kappa=kappa,
                           segments=args.Z, horizon=args.T)
    census = basin_census(system, basis, sampler, _ascent_settings(args),
                          _ascent_tolerances(args))
    results = {
        "alpha": alpha,
        "kappa": kappa,
        "trapped_fraction": census.trapped_fraction,
        "success_margin": census.success_margin,
        "j_max": census.j_max,
        "runs": [
            {
                "index": r.index,
                "seed": r.seed,
                "j_terminal": r.j_terminal,
                "classification": r.classification,
                "converged": r.converged,
                "iterations": r.iterations,
                "trapped": r.trapped,
            }
            for r in census.runs
        ],
    }
    return results, True


def _cmd_ce_boundary(args):
    kappa = _parse_kappa(args.kappa)
    inst = boundary_trap_instance(args.T, args.Z, kappa)
    radius = (
        1e-3 * inst.kappa
        if isinstance(args.radius, str) and args.radius.strip().lower() == "auto"
        else float(args.radius)
    )
    ver = verify_boundary_trap(inst, args.samples, radius, args.seed)
    basis = build_su_basis(2)
    tm = psi_tangent_map(inst.grid, basis)
    cone_ok, witness = boundary_cone_surjectivity(inst.grid, tm, args.active_tol)
    results = {
        "alpha": inst.alpha,
        "kappa": inst.kappa,
        "radius": radius,
        "is_trap": ver.is_trap,
        "j_at_corner": ver.j_at_corner,
        "max_inward_gain": ver.max_inward_gain,
        "j_global_max": ver.j_global_max,
        "gradient_norm_at_corner": ver.gradient_norm_at_corner,
        "trap_order": ver.trap_order,
        "corner_unitary": _interleave(propagate(inst.grid, basis).total),
        "cone_surjective": cone_ok,
        "witness": None if witness is None else [float(w) for w in witness],
    }
    expect_ok = ver.is_trap if args.expect_trap else True
    return results, expect_ok


def _cmd_ce_slice(args):
    census = slice_census_2d(args.c_min, args.c_max, args.steps,
                             margin=args.margin, verify=args.verify)
    results = {
        "margin": args.margin,
        "columns": ["c", "max_loc", "max_val", "min_loc", "min_val"],
        "rows": [
            [r.c, r.max_location, r.max_value, r.min_location, r.min_value]
            for r in census.per_slice
        ],
    }
    return results, True


def _cmd_ce_scan2d(args):
    scan = analytic2d_trap_free_scan(args.steps, margin=args.margin)
    results = {
        "grid_steps": args.steps,
        "margin": args.margin,
        "min_grad_norm": scan.min_grad_norm,
        "argmin_e1": scan.argmin_e1,
        "argmin_e2": scan.argmin_e2,
    }
    expect_ok = (
        scan.min_grad_norm > args.expect_min_grad
        if args.expect_min_grad is not None
        else True
    )
    return results, expect_ok


def _cmd_census1d(args):
    if args.fn not in CENSUS_FUNCTIONS:
        raise ValueError(f"unknown census function {args.fn!r}")
    f, fp = CENSUS_FUNCTIONS[args.fn]
    census = critical_value_census_1d(
        f, fp, (args.a, args.b), args.grid_points,
        Tolerances(root=args.tol_root, merge=args.tol_merge),
    )
    results = {
        "fn": args.fn,
        "critical_points": list(census.critical_points),
        "critical_values": list(census.critical_values),
        "distinct_values": list(census.distinct_values),
        "num_critical_points": len(census.critical_points),
        "num_distinct_values": len(census.distinct_values),
    }
    return results, True


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--output", default=None, help="write the report here")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--config", default=None,
                   help="JSON file whose entries override flags")


def _add_seed(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=0, help="base RNG seed")


def _add_active_tol(p: argparse.ArgumentParser) -> None:
    p.add_argument("--active-tol", type=float, default=DEFAULT_ACTIVE_TOL)


def _add_grid_source(p: argparse.ArgumentParser, kinds=GRID_KINDS,
                     default="zeros", flag="--grid-kind") -> None:
    p.add_argument(flag, dest=flag.strip("-").replace("-", "_"),
                   choices=kinds, default=default)
    p.add_argument("--fill", type=float, default=0.0,
                   help="amplitude for --grid-kind constant")
    _add_seed(p)


def _add_ascent_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--max-iters", type=int, default=AscentSettings.max_iters)
    p.add_argument("--gtol", type=float, default=AscentSettings.gtol)
    p.add_argument("--armijo", type=float, default=AscentSettings.armijo)
    p.add_argument("--tol-grad", type=float, default=Tolerances.grad)
    _add_active_tol(p)


def _coord(text: str) -> tuple:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected 'j,z', got {text!r}")
    return (int(parts[0]), int(parts[1]))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="landscape-lab",
        description="Quantum-control landscape experiments, reproducibly.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("basis", help="su(N) generator basis")
    p.add_argument("--N", type=int, default=2)
    _add_common(p)
    p.set_defaults(func=_cmd_basis)

    p = sub.add_parser("kappa-thr", help="segment-duration bound threshold")
    p.add_argument("--N", type=int, default=2)
    p.add_argument("--T", type=float, default=1.0)
    p.add_argument("--Z", type=int, default=4)
    _add_common(p)
    p.set_defaults(func=_cmd_kappa_thr)

    p = sub.add_parser("propagate", help="piecewise-constant propagation")
    p.add_argument("--N", type=int, default=2)
    p.add_argument("--T", type=float, default=1.0)
    p.add_argument("--Z", type=int, default=4)
    p.add_argument("--kappa", default="1.0")
    _add_grid_source(p)
    _add_common(p)
    p.set_defaults(func=_cmd_propagate)

    p = sub.add_parser("rank", help="tangent-map rank and cone test")
    p.add_argument("--N", type=int, default=2)
    p.add_argument("--T", type=float, default=1.0)
    p.add_argument("--Z", type=int, default=4)
    p.add_argument("--kappa", default="1.0")
    p.add_argument("--rank-tol", type=float, default=1e-8)
    _add_grid_source(p)
    _add_active_tol(p)
    _add_common(p)
    p.set_defaults(func=_cmd_rank)

    p = sub.add_parser("scan", help="objective and gradient over 2 coordinates")
    p.add_argument("--T", type=float, default=1.0)
    p.add_argument("--Z", type=int, default=4)
    p.add_argument("--kappa", default="auto")
    p.add_argument("--steps", type=int, default=41)
    p.add_argument("--coord1", type=_coord, default=(1, 1),
                   help="first scanned coordinate as 'j,z' (1-based)")
    p.add_argument("--coord2", type=_coord, default=(2, 1))
    _add_grid_source(p, default="corner", flag="--base")
    _add_common(p)
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser("ascent", help="projected gradient ascent")
    p.add_argument("--T", type=float, default=1.0)
    p.add_argument("--Z", type=int, default=4)
    p.add_argument("--kappa", default="auto")
    _add_grid_source(p, default="random", flag="--start")
    _add_ascent_flags(p)
    _add_common(p)
    p.set_defaults(func=_cmd_ascent)

    p = sub.add_parser("basins", help="multistart basin census")
    p.add_argument("--T", type=float, default=1.0)
    p.add_argument("--Z", type=int, default=4)
    p.add_argument("--kappa", default="auto")
    p.add_argument("--count", type=int, default=50)
    _add_seed(p)
    _add_ascent_flags(p)
    _add_common(p)
    p.set_defaults(func=_cmd_basins)

    p = sub.add_parser("ce-boundary", help="corner-trap construction and test")
    p.add_argument("--T", type=float, default=1.0)
    p.add_argument("--Z", type=int, default=4)
    p.add_argument("--kappa", default="auto")
    p.add_argument("--samples", type=int, default=1000,
                   help="inward escape probes")
    p.add_argument("--radius", default="auto",
                   help="inward perturbation radius (auto = 1e-3 kappa)")
    p.add_argument("--expect-trap", action="store_true",
                   help="exit 1 unless the corner verifies as a trap")
    _add_seed(p)
    _add_active_tol(p)
    _add_common(p)
    p.set_defaults(func=_cmd_ce_boundary)

    p = sub.add_parser("ce-slice", help="per-slice extrema of the 2D landscape")
    p.add_argument("--c-min", type=float, default=-1.4)
    p.add_argument("--c-max", type=float, default=1.4)
    p.add_argument("--steps", type=int, default=101)
    p.add_argument("--margin", type=float, default=DEFAULT_MARGIN)
    p.add_argument("--verify", action="store_true",
                   help="cross-check closed forms by bracketing census")
    _add_common(p)
    p.set_defaults(func=_cmd_ce_slice)

    p = sub.add_parser("ce-scan2d", help="gradient-norm floor of the 2D landscape")
    p.add_argument("--steps", type=int, default=400)
    p.add_argument("--margin", type=float, default=DEFAULT_MARGIN)
    p.add_argument("--expect-min-grad", type=float, default=None,
                   help="exit 1 unless min_grad_norm exceeds this")
    _add_common(p)
    p.set_defaults(func=_cmd_ce_scan2d)

    p = sub.add_parser("census1d", help="critical points and values of a 1D function")
    p.add_argument("--fn", choices=sorted(CENSUS_FUNCTIONS), required=True)
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--b", type=float, required=True)
    p.add_argument("--grid-points", type=int, default=2001)
    p.add_argument("--tol-root", type=float, default=Tolerances.root)
    p.add_argument("--tol-merge", type=float, default=Tolerances.merge)
    _add_common(p)
    p.set_defaults(func=_cmd_census1d)

    return parser


def _apply_config_file(args: argparse.Namespace) -> None:
    if not args.config:
        return
    with open(args.config, "r", encoding="utf-8") as fh:
        try:
            overrides = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(overrides, dict):
        raise ValueError("config file must hold a JSON object")
    known = vars(args)
    for key, value in overrides.items():
        dest = key.replace("-", "_")
        if dest not in known or dest in ("func", "config"):
            raise ValueError(f"unknown config key {key!r}")
        setattr(args, dest, value)


def _config_echo(args: argparse.Namespace) -> dict:
    skip = {"func", "output", "format", "config"}
    echo = {}
    for key, value in vars(args).items():
        if key in skip:
            continue
        if isinstance(value, tuple):
            value = list(value)
        echo[key] = value
    return echo


def _hexify(obj):
    """Mirror of a results tree with every float as its exact hex string."""
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, float):
        return float.hex(obj)
    if isinstance(obj, dict):
        return {k: _hexify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_hexify(v) for v in obj]
    return obj


def _csv_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    if value is None:
        return ""
    return str(value)


def _csv_payload(report: RunReport) -> str:
    """Tabular CSV when the command produced rows, key/value rows otherwise."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    results = report.results
    if "rows" in results and "columns" in results:
        writer.writerow(results["columns"])
        for row in results["rows"]:
            writer.writerow([_csv_cell(v) for v in row])
        return buf.getvalue()
    writer.writerow(["key", "value"])

    def walk(prefix: str, value) -> None:
        if isinstance(value, dict):
            for k in sorted(value):
                walk(f"{prefix}.{k}" if prefix else str(k), value[k])
        elif isinstance(value, (list, tuple)):
            if all(not isinstance(v, (dict, list, tuple)) for v in value):
                writer.writerow([prefix, ";".join(_csv_cell(v) for v in value)])
            else:
                for i, v in enumerate(value):
                    walk(f"{prefix}[{i}]", v)
        else:
            writer.writerow([prefix, _csv_cell(value)])

    walk("", results)
    return buf.getvalue()


def _json_payload(report: RunReport) -> str:
    payload = {
        "config": report.config,
        "results": report.results,
        "results_hex": _hexify(report.results),
        "versions": {
            "landscape_lab": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "python": platform.python_version(),
        },
        "wall_time_s": report.wall_time_s,
    }
    return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"


def run(args: argparse.Namespace) -> tuple:
    """Dispatch one parsed invocation; returns (RunReport, expect_ok)."""
    _apply_config_file(args)
    started = time.perf_counter()
    results, expect_ok = args.func(args)
    wall = time.perf_counter() - started
    report = RunReport(config=_config_echo(args), results=results, wall_time_s=wall)
    return report, expect_ok


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        report, expect_ok = run(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (NumericalFault, np.linalg.LinAlgError) as exc:
        print(f"numerical fault: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    text = (
        _csv_payload(report) if args.format == "csv" else _json_payload(report)
    )
    if args.output:
        with open(args.output, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK if expect_ok else EXIT_EXPECT


if __name__ == "__main__":
    sys.exit(main())
