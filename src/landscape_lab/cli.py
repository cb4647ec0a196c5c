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
import functools
import io
import json
import math
import platform
import sys
import time
from dataclasses import asdict

import numpy as np
import scipy

from . import __version__
from .qdyn import ControlGrid, NumericalFault, _blocks, build_su_basis, propagate
from .landscape import (
    _evaluated,
    _gradient_from,
    _real_rows,
    boundary_cone_surjectivity,
    kappa_threshold,
    local_surjectivity_rank,
    psi_tangent_map,
)
from .traps import (
    GRAD_TOL,
    MAX_ITERS,
    MERGE_TOL,
    ROOT_TOL,
    basin_census,
    critical_value_census_1d,
    gradient_ascent,
)
from .counterexamples import (
    DEFAULT_MARGIN,
    BoundaryTrapInstance,
    _trap_qubit,
    analytic2d_trap_free_scan,
    corner_escape_analysis,
    slice_census_2d,
)

__all__ = ["main"]

EXIT_OK = 0
EXIT_EXPECT = 1
EXIT_CONFIG = 2
EXIT_NUMERIC = 3

# sinc and its derivative take their limits, 1 and 0, at x = 0.
CENSUS_FUNCTIONS = {
    "sin": (np.sin, np.cos),
    "sinc": (
        lambda x: np.where(x == 0.0, 1.0, np.sin(x) / np.where(x == 0.0, 1.0, x)),
        lambda x: np.where(
            x == 0.0, 0.0, (x * np.cos(x) - np.sin(x)) / np.where(x == 0.0, 1.0, x) ** 2
        ),
    ),
    "cubic": (lambda x: x**3 - x, lambda x: 3.0 * x**2 - 1.0),
}

GRID_KINDS = ("zeros", "corner", "constant", "random")


def _auto_or_number(flag: str, value: str, auto: float, *, positive: bool = False) -> float:
    """The number a flag that takes 'auto' gives: auto for 'auto', else its
    text read as a float. It must be finite and nonnegative (positive, if so
    asked); otherwise a ValueError names the flag."""
    is_auto = value.strip().lower() == "auto"
    try:
        number = auto if is_auto else float(value)
    except ValueError:
        raise ValueError(f"{flag} must be 'auto' or a number, got {value!r}") from None
    if not (math.isfinite(number) and (number > 0.0 if positive else number >= 0.0)):
        kind = "positive" if positive else "nonnegative"
        given = f"auto, which is {number} here" if is_auto else number
        raise ValueError(f"{flag} must be finite and {kind}, got {given}")
    return number


def _parse_kappa(value: str) -> float:
    return _auto_or_number("--kappa", value, math.pi / math.sqrt(3.0))


def _make_grid(kind: str, T: float, kappa: float, num_controls: int, Z: int,
               seed: int, fill: float) -> ControlGrid:
    if kind == "zeros":
        return ControlGrid.zeros(T, kappa, num_controls, Z)
    if kind == "corner":
        return ControlGrid.constant(T, kappa, num_controls, Z, kappa)
    if kind == "constant":
        return ControlGrid.constant(T, kappa, num_controls, Z, fill)
    return ControlGrid.uniform_random(T, kappa, num_controls, Z, np.random.default_rng(seed))


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
        "elements": [_real_rows(B).tolist() for B in basis.elements],
    }
    return results, True


def _cmd_kappa_thr(args):
    thr = kappa_threshold(build_su_basis(args.N), args.T, args.Z)
    return {"kappa_thr": thr, "conservative": args.N > 2}, True


def _cmd_propagate(args):
    kappa = _parse_kappa(args.kappa)
    basis = build_su_basis(args.N)
    grid = _make_grid(args.grid_kind, args.T, kappa, basis.size, args.Z,
                      args.seed, args.fill)
    prop = propagate(grid, basis)
    eye = np.eye(basis.dim)
    results = {
        "kappa": kappa,
        "total": _real_rows(prop.total).tolist(),
        "segment_unitaries": [_real_rows(U).tolist() for U in prop.segment_unitaries],
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
    rank, surjective = local_surjectivity_rank(tm)
    cone_ok, witness = boundary_cone_surjectivity(grid, tm)
    results = {
        "kappa": kappa,
        "rank": rank,
        "full_rank": surjective,
        "cone_surjective": cone_ok,
        "witness": None if witness is None else [float(w) for w in witness],
    }
    return results, True


def _cmd_scan(args):
    if args.steps < 1:
        raise ValueError(f"need at least one step, got {args.steps}")
    kappa = _parse_kappa(args.kappa)
    basis = build_su_basis(2)
    system, alpha = _trap_qubit(args.T, kappa)
    grid = _make_grid(args.base, args.T, kappa, basis.size, args.Z,
                      args.seed, args.fill)
    (j1, z1) = args.coord1
    (j2, z2) = args.coord2
    for (j, z) in ((j1, z1), (j2, z2)):
        if not (1 <= j <= basis.size and 1 <= z <= args.Z):
            raise ValueError(f"coordinate ({j}, {z}) outside the control grid")
    if (j1, z1) == (j2, z2):
        raise ValueError(f"--coord1 and --coord2 must differ, both are ({j1}, {z1})")
    axis = np.linspace(-kappa, kappa, args.steps)
    c1, c2 = (c.ravel() for c in np.meshgrid(axis, axis, indexing="ij"))
    stack = np.repeat(grid.values[None], c1.size, axis=0)
    stack[:, j1 - 1, z1 - 1] = c1
    stack[:, j2 - 1, z2 - 1] = c2
    rows = []
    for b in _blocks(c1.size, args.Z, basis.dim):
        J, lam, V, P = _evaluated(system, stack[b], grid.dt, basis)
        gr = _gradient_from(system, lam, V, P, grid.dt, basis)
        rows += np.column_stack(
            [c1[b], c2[b], J, gr[:, j1 - 1, z1 - 1], gr[:, j2 - 1, z2 - 1]]
        ).tolist()
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
    system, alpha = _trap_qubit(args.T, kappa)
    start = _make_grid(args.start, args.T, kappa, basis.size, args.Z,
                       args.seed, args.fill)
    trace = gradient_ascent(system, start, basis, max_iters=args.max_iters,
                            tol_grad=args.tol_grad)
    results = {
        "alpha": alpha,
        "kappa": kappa,
        "iterates": trace.iterates,
        "converged": trace.converged,
        "terminal": _report_terminal(trace.terminal),
    }
    return results, True


def _cmd_basins(args):
    kappa = _parse_kappa(args.kappa)
    basis = build_su_basis(2)
    system, alpha = _trap_qubit(args.T, kappa)
    census = basin_census(system, basis, count=args.count, seed=args.seed, kappa=kappa,
                          segments=args.Z, horizon=args.T, max_iters=args.max_iters,
                          tol_grad=args.tol_grad)
    results = {"alpha": alpha, "kappa": kappa, **asdict(census)}
    return results, True


def _cmd_ce_boundary(args):
    kappa = _parse_kappa(args.kappa)
    inst = BoundaryTrapInstance(args.T, args.Z, kappa)
    radius = _auto_or_number("--radius", args.radius, 1e-3 * inst.kappa, positive=True)
    ver = corner_escape_analysis(
        inst.system, inst.grid, build_su_basis(2), args.samples, radius, args.seed
    )
    results = {
        "alpha": inst.alpha,
        "kappa": inst.kappa,
        "radius": radius,
        **asdict(ver),
        "corner_unitary": _real_rows(np.array(ver.corner_unitary)).tolist(),
    }
    return results, not args.expect_trap or ver.is_trap


def _cmd_ce_slice(args):
    slices = slice_census_2d(args.c_min, args.c_max, args.steps,
                             margin=args.margin, verify=args.verify)
    results = {
        "margin": args.margin,
        "columns": ["c", "max_loc", "max_val", "min_loc", "min_val"],
        "rows": [
            [r.c, r.max_location, r.max_value, r.min_location, r.min_value]
            for r in slices
        ],
    }
    return results, True


def _cmd_ce_scan2d(args):
    if args.expect_min_grad is not None and not math.isfinite(args.expect_min_grad):
        raise ValueError(f"--expect-min-grad must be finite, got {args.expect_min_grad}")
    scan = analytic2d_trap_free_scan(args.steps, margin=args.margin)
    results = {"grid_steps": args.steps, "margin": args.margin, **asdict(scan)}
    return results, args.expect_min_grad is None or scan.min_grad_norm > args.expect_min_grad


def _cmd_census1d(args):
    missing = [f"--{k}" for k in ("fn", "a", "b") if getattr(args, k) is None]
    if missing:
        raise ValueError(f"the following arguments are required: {', '.join(missing)}")
    f, fp = CENSUS_FUNCTIONS[args.fn]
    census = critical_value_census_1d(
        f, fp, (args.a, args.b), args.grid_points,
        root_tol=args.tol_root, merge_tol=args.tol_merge,
    )
    results = {
        "fn": args.fn,
        **asdict(census),
        "num_critical_points": len(census.critical_points),
        "num_distinct_values": len(census.distinct_values),
    }
    return results, True


def _command(sub, name: str, func, help: str, *, N: bool = False,
             horizon: bool = False, kappa: str | None = None) -> argparse.ArgumentParser:
    """The subparser of a command that runs func, with the shared flags it asks
    for first: --N, then --T and --Z (horizon), then --kappa and its default."""
    p = sub.add_parser(name, help=help)
    p.set_defaults(func=func)
    if N:
        p.add_argument("--N", type=int, default=2)
    if horizon:
        p.add_argument("--T", type=float, default=1.0)
        p.add_argument("--Z", type=int, default=4)
    if kappa is not None:
        p.add_argument("--kappa", default=kappa)
    return p


def _add_seed(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=0, help="base RNG seed")


def _add_grid_source(p: argparse.ArgumentParser, default="zeros",
                     flag="--grid-kind") -> None:
    p.add_argument(flag, dest=flag.strip("-").replace("-", "_"),
                   choices=GRID_KINDS, default=default)
    p.add_argument("--fill", type=float, default=0.0,
                   help="amplitude for --grid-kind constant")
    _add_seed(p)


def _add_ascent_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--max-iters", type=int, default=MAX_ITERS)
    p.add_argument("--tol-grad", type=float, default=GRAD_TOL,
                   help="stops the ascent and bounds a critical point's gradient")


def _coord(text: str) -> tuple:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected 'j,z', got {text!r}")
    return (int(parts[0]), int(parts[1]))


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and shared by every call.

    parse_args returns a fresh Namespace each time and --config edits only
    that Namespace, so one call leaves no state behind for the next.
    """
    parser = argparse.ArgumentParser(
        prog="landscape-lab",
        description="Quantum-control landscape experiments, reproducibly.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    _command(sub, "basis", _cmd_basis, "su(N) generator basis", N=True)

    _command(sub, "kappa-thr", _cmd_kappa_thr, "segment-duration bound threshold",
             N=True, horizon=True)

    p = _command(sub, "propagate", _cmd_propagate, "piecewise-constant propagation",
                 N=True, horizon=True, kappa="1.0")
    _add_grid_source(p)

    p = _command(sub, "rank", _cmd_rank, "tangent-map rank and cone test",
                 N=True, horizon=True, kappa="1.0")
    _add_grid_source(p)

    p = _command(sub, "scan", _cmd_scan, "objective and gradient over 2 coordinates",
                 horizon=True, kappa="auto")
    p.add_argument("--steps", type=int, default=41)
    p.add_argument("--coord1", type=_coord, default=(1, 1),
                   help="first scanned coordinate as 'j,z' (1-based)")
    p.add_argument("--coord2", type=_coord, default=(2, 1))
    _add_grid_source(p, default="corner", flag="--base")

    p = _command(sub, "ascent", _cmd_ascent, "projected gradient ascent",
                 horizon=True, kappa="auto")
    _add_grid_source(p, default="random", flag="--start")
    _add_ascent_flags(p)

    p = _command(sub, "basins", _cmd_basins, "multistart basin census",
                 horizon=True, kappa="auto")
    p.add_argument("--count", type=int, default=50)
    _add_seed(p)
    _add_ascent_flags(p)

    p = _command(sub, "ce-boundary", _cmd_ce_boundary, "corner-trap construction and test",
                 horizon=True, kappa="auto")
    p.add_argument("--samples", type=int, default=1000,
                   help="inward escape probes")
    p.add_argument("--radius", default="auto",
                   help="inward perturbation radius (auto = 1e-3 kappa)")
    p.add_argument("--expect-trap", action="store_true",
                   help="exit 1 unless the corner verifies as a trap")
    _add_seed(p)

    p = _command(sub, "ce-slice", _cmd_ce_slice, "per-slice extrema of the 2D landscape")
    p.add_argument("--c-min", type=float, default=-1.4)
    p.add_argument("--c-max", type=float, default=1.4)
    p.add_argument("--steps", type=int, default=101)
    p.add_argument("--margin", type=float, default=DEFAULT_MARGIN)
    p.add_argument("--verify", action="store_true",
                   help="cross-check closed forms by bracketing census")

    p = _command(sub, "ce-scan2d", _cmd_ce_scan2d, "gradient-norm floor of the 2D landscape")
    p.add_argument("--steps", type=int, default=400)
    p.add_argument("--margin", type=float, default=DEFAULT_MARGIN)
    p.add_argument("--expect-min-grad", type=float, default=None,
                   help="exit 1 unless min_grad_norm exceeds this")

    p = _command(sub, "census1d", _cmd_census1d, "critical points and values of a 1D function")
    # Required; _cmd_census1d checks them after --config, which may supply them.
    p.add_argument("--fn", choices=sorted(CENSUS_FUNCTIONS))
    p.add_argument("--a", type=float)
    p.add_argument("--b", type=float)
    p.add_argument("--grid-points", type=int, default=2001)
    p.add_argument("--tol-root", type=float, default=ROOT_TOL)
    p.add_argument("--tol-merge", type=float, default=MERGE_TOL)

    # Every command ends with the same three flags.
    for p in sub.choices.values():
        p.add_argument("--output", default=None, help="write the report here")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--config", default=None,
                       help="JSON file whose entries override flags")

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
    (subparsers,) = [
        a for a in _parser()._actions if isinstance(a, argparse._SubParsersAction)
    ]
    actions = {a.dest: a for a in subparsers.choices[args.command]._actions}
    for key, value in overrides.items():
        dest = key.replace("-", "_")
        if dest not in actions or dest in ("help", "config"):
            raise ValueError(f"unknown config key {key!r}")
        setattr(args, dest, _config_value(key, value, actions[dest]))


def _config_value(key: str, value, action: argparse.Action):
    """A config entry parsed as its flag would parse it.

    A switch takes true or false. Any other value is read as the flag's
    text (a JSON string as is, anything else as its JSON form) and goes
    through the flag's type and choices, so it gives what the flag gives.
    """
    if action.nargs == 0:
        if not isinstance(value, bool):
            raise ValueError(f"config key {key!r} takes true or false, got {value!r}")
        return value
    text = value if isinstance(value, str) else json.dumps(value)
    try:
        parsed = action.type(text) if action.type else text
    except (ValueError, argparse.ArgumentTypeError) as exc:
        raise ValueError(f"config key {key!r}: invalid value {value!r}") from exc
    if action.choices is not None and parsed not in action.choices:
        raise ValueError(f"config key {key!r}: {value!r} is not one of {list(action.choices)}")
    return parsed


def _config_echo(args: argparse.Namespace) -> dict:
    return {
        key: list(value) if isinstance(value, tuple) else value
        for key, value in vars(args).items()
        if key not in ("func", "output", "format", "config")
    }


def _hexify(obj):
    """Mirror of a results tree with every float as its exact hex string."""
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


def _csv_payload(results: dict) -> str:
    """Tabular CSV when the command produced rows, key/value rows otherwise."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
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


def _json_payload(config: dict, results: dict, wall_time_s: float) -> str:
    payload = {
        "config": config,
        "results": results,
        "results_hex": _hexify(results),
        "versions": {
            "landscape_lab": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "python": platform.python_version(),
        },
        "wall_time_s": wall_time_s,
    }
    return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    # Building and writing the report can fail too: a non-finite result has
    # no JSON form, and --output may name a directory or a missing one.
    try:
        _apply_config_file(args)
        started = time.perf_counter()
        results, expect_ok = args.func(args)
        wall = time.perf_counter() - started
        text = (
            _csv_payload(results) if args.format == "csv"
            else _json_payload(_config_echo(args), results, wall)
        )
        if args.output:
            with open(args.output, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (NumericalFault, np.linalg.LinAlgError) as exc:
        print(f"numerical fault: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK if expect_ok else EXIT_EXPECT


if __name__ == "__main__":
    sys.exit(main())
