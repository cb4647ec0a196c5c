"""End-to-end acceptance checks.

Each test exercises one advertised guarantee of the package and emits exactly
one [criterion k] PASS/FAIL line on the real stdout, then asserts it.
"""

import json
import re

import numpy as np

from landscape_lab import (
    BoundaryTrapInstance,
    ControlGrid,
    QuantumSystem,
    boundary_cone_surjectivity,
    build_su_basis,
    corner_escape_analysis,
    critical_value_census_1d,
    gradient,
    gradient_ascent,
    objective,
    objective_range,
    propagate,
    psi_tangent_map,
    slice_census_2d,
    analytic2d_trap_free_scan,
)
from landscape_lab.cli import main

KAPPA = np.pi / np.sqrt(3.0)


def _report(capsys, k, ok, detail):
    with capsys.disabled():
        print(f"[criterion {k}] {'PASS' if ok else 'FAIL'} {detail}", flush=True)
    assert ok, f"criterion {k}: {detail}"


def _random_system(N, rng):
    X = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
    rho = X @ X.conj().T
    rho /= np.trace(rho).real
    O = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
    return QuantumSystem(N, rho, (O + O.conj().T) / 2.0)


def test_criterion_1_gradient_matches_finite_differences(capsys):
    combos = [(N, Z) for N in (2, 3) for Z in (1, 4, 8)]
    bases = {N: build_su_basis(N) for N in (2, 3)}
    # fourth-order central stencil: the plain second-order one bottoms out
    # around 1e-6 relative on small-magnitude components, right at the bar
    h = 1e-4
    worst = 0.0
    for i in range(100):
        N, Z = combos[i % len(combos)]
        rng = np.random.default_rng(i)
        basis = bases[N]
        system = _random_system(N, rng)
        grid = ControlGrid.uniform_random(1.2, 1.5, basis.size, Z, rng)
        g = gradient(system, grid, basis).values
        flat = grid.values.ravel()

        def j_at(vals):
            v = vals.reshape(g.shape)
            probe = ControlGrid(grid.horizon, float(np.max(np.abs(v))), v)
            return objective(system, propagate(probe, basis).total)

        for r in range(flat.size):
            if abs(g.ravel()[r]) <= 1e-8:
                continue
            probes = []
            for offset in (-2.0 * h, -h, h, 2.0 * h):
                shifted = flat.copy()
                shifted[r] += offset
                probes.append(j_at(shifted))
            fd = (probes[0] - 8.0 * probes[1] + 8.0 * probes[2] - probes[3]) / (
                12.0 * h
            )
            worst = max(worst, abs(fd - g.ravel()[r]) / abs(g.ravel()[r]))
    ok = worst < 1e-6
    _report(
        capsys, 1, ok,
        f"analytic gradient vs central differences over 100 seeded instances: "
        f"worst relative error {worst:.3e} (required < 1e-06)",
    )


def test_criterion_2_unitarity_and_range_containment(capsys):
    rng = np.random.default_rng(1234)
    bases = {N: build_su_basis(N) for N in (2, 3)}
    systems = {N: _random_system(N, np.random.default_rng(100 + N)) for N in (2, 3)}
    ranges = {N: objective_range(systems[N]) for N in (2, 3)}
    worst_unitarity = 0.0
    worst_excess = -np.inf
    for i in range(10_000):
        N = 2 if i % 2 == 0 else 3
        Z = 1 + (i % 8)
        kappa = rng.uniform(0.2, 3.0)
        grid = ControlGrid.uniform_random(1.0, kappa, bases[N].size, Z, rng)
        prop = propagate(grid, bases[N])
        defect = float(
            np.linalg.norm(prop.total.conj().T @ prop.total - np.eye(N))
        )
        worst_unitarity = max(worst_unitarity, defect)
        J = objective(systems[N], prop.total)
        r = ranges[N]
        worst_excess = max(worst_excess, r.j_min - J, J - r.j_max)
    ok = worst_unitarity < 1e-12 and worst_excess <= 1e-10
    _report(
        capsys, 2, ok,
        f"10000 random propagations: worst unitarity defect "
        f"{worst_unitarity:.3e} (< 1e-12), worst range excess "
        f"{worst_excess:.3e} (<= 1e-10)",
    )


def test_criterion_3_corner_control_is_a_boundary_trap(capsys):
    inst = BoundaryTrapInstance(1.0, 4, KAPPA)
    basis = build_su_basis(2)
    U = propagate(inst.grid, basis).total
    minus_identity = float(np.max(np.abs(U + np.eye(2))))

    ver = corner_escape_analysis(inst.system, inst.grid, basis, 1000, 1e-3 * KAPPA, 2026)
    tm = psi_tangent_map(inst.grid, basis)
    cone_ok, witness = boundary_cone_surjectivity(inst.grid, tm)

    ok = (
        minus_identity < 1e-10
        and ver.is_trap
        and ver.max_inward_gain <= 1e-10
        and abs(ver.j_at_corner) <= 1e-10
        and abs(ver.j_global_max - np.sqrt(1.5)) <= 1e-12
        and cone_ok is False
        and witness is not None
    )
    _report(
        capsys, 3, ok,
        f"corner propagator is -I to {minus_identity:.1e}; trap verified over "
        f"1000 inward samples (max gain {ver.max_inward_gain:.3e}, J at corner "
        f"{ver.j_at_corner:.1e}, attainable max {ver.j_global_max:.6f}); "
        f"first-order cone test not surjective, witness recorded",
    )


def test_criterion_4_analytic_2d_landscape(capsys):
    scan = analytic2d_trap_free_scan(400, margin=0.15)
    scan_ok = scan.min_grad_norm > 0.05

    census = slice_census_2d(-1.4, 1.4, 101, margin=0.15, verify=True)
    worst_loc = 0.0
    for rec in census:
        expected_loc = float(np.arctan(-np.sqrt(np.cos(rec.c) / 3.0)))
        worst_loc = max(worst_loc, abs(rec.max_location - expected_loc))
    center = census[50]
    center_err = abs(center.max_value - 4.0 / (3.0 * np.sqrt(3.0) * np.pi))
    census_ok = worst_loc <= 1e-8 and center_err <= 1e-9

    ok = scan_ok and census_ok
    _report(
        capsys, 4, ok,
        f"400x400 scan min gradient norm {scan.min_grad_norm:.6f} (> 0.05); "
        f"101 slices each carry one interior max (independently cross-checked), "
        f"worst location error {worst_loc:.1e}, central max value error "
        f"{center_err:.1e}",
    )


def test_criterion_5_one_dimensional_censuses(capsys):
    sin_census = critical_value_census_1d(np.sin, np.cos, (-20.0, 20.0), 2001)
    expected_points = [np.pi / 2.0 + k * np.pi for k in range(-6, 6)]
    complete = len(sin_census.critical_points) == len(expected_points) and all(
        abs(p - e) < 1e-9
        for p, e in zip(sin_census.critical_points, expected_points)
    )
    distinct = sorted(sin_census.distinct_values)
    sin_ok = (
        complete
        and len(distinct) == 2
        and abs(distinct[0] + 1.0) <= 1e-10
        and abs(distinct[1] - 1.0) <= 1e-10
    )

    sinc_census = critical_value_census_1d(
        lambda x: np.sin(x) / x,
        lambda x: (x * np.cos(x) - np.sin(x)) / x**2,
        (0.1, 30.0),
        2001,
    )
    vals = np.array(sinc_census.critical_values)
    gaps = np.abs(vals[:, None] - vals[None, :])
    np.fill_diagonal(gaps, np.inf)
    min_gap = float(gaps.min())
    sinc_ok = (
        len(sinc_census.distinct_values) == len(sinc_census.critical_points)
        and min_gap > 1e-6
    )

    ok = sin_ok and sinc_ok
    _report(
        capsys, 5, ok,
        f"sine census: exactly 2 distinct values (+-1) from the complete set "
        f"of {len(sin_census.critical_points)} critical points on [-20, 20] "
        f"(the next one, pi/2 + 6 pi = 20.42, lies outside); sinc census: "
        f"{len(sinc_census.critical_points)} pairwise-distinct values, "
        f"min gap {min_gap:.3e} (> 1e-06)",
    )


def test_criterion_6_trap_halts_ascent_but_interior_starts_escape(capsys):
    inst = BoundaryTrapInstance(1.0, 4, KAPPA)
    basis = build_su_basis(2)
    j_max = np.sqrt(1.5)

    corner_trace = gradient_ascent(inst.system, inst.grid, basis)
    halted = (
        corner_trace.terminal.classification == "boundary-trap-max"
        and corner_trace.j_terminal < j_max - 1.0
    )

    reached = 0
    for seed in range(50):
        start = ControlGrid.uniform_random(
            1.0, KAPPA, 3, 4, np.random.default_rng(seed)
        )
        trace = gradient_ascent(inst.system, start, basis)
        if trace.j_terminal >= j_max - 1e-4:
            reached += 1

    ok = halted and reached >= 1
    _report(
        capsys, 6, ok,
        f"ascent from the corner halts as boundary-trap-max at J = "
        f"{corner_trace.j_terminal:.3e} (j_max - 1.0 = {j_max - 1.0:.4f}); "
        f"{reached}/50 seeded interior starts reached j_max - 1e-4",
    )


def test_criterion_7_cli_determinism(capsys, tmp_path):
    commands = [
        ("sinc.csv", ["census1d", "--fn", "sinc", "--a", "0.1", "--b", "30",
                      "--format", "csv"]),
        ("slice.csv", ["ce-slice", "--steps", "51", "--format", "csv"]),
        ("boundary.json", ["ce-boundary", "--samples", "200", "--seed", "7"]),
        ("basins.json", ["basins", "--count", "4", "--seed", "3"]),
        ("rank.json", ["rank", "--grid-kind", "corner", "--kappa", "auto",
                       "--seed", "1"]),
        ("basis.json", ["basis", "--N", "3"]),
        ("kappa_thr.json", ["kappa-thr", "--N", "3"]),
        ("propagate.json", ["propagate", "--N", "3", "--Z", "7", "--grid-kind",
                            "random", "--seed", "5"]),
        ("scan.json", ["scan", "--steps", "9"]),
        ("ascent.json", ["ascent", "--seed", "3"]),
        ("scan2d.json", ["ce-scan2d", "--steps", "50"]),
    ]
    wall_line = re.compile(r'^\s*"wall_time_s": .*$', flags=re.MULTILINE)
    all_ok = True
    details = []
    for name, argv in commands:
        out_a = tmp_path / f"a_{name}"
        out_b = tmp_path / f"b_{name}"
        code_a = main(argv + ["--output", str(out_a)])
        code_b = main(argv + ["--output", str(out_b)])
        text_a = out_a.read_text(encoding="utf-8")
        text_b = out_b.read_text(encoding="utf-8")
        if name.endswith(".csv"):
            same = code_a == code_b == 0 and text_a == text_b
        else:
            # JSON carries one wall-clock field; every other byte must match
            stripped_a = wall_line.sub('"wall_time_s": 0', text_a)
            stripped_b = wall_line.sub('"wall_time_s": 0', text_b)
            parsed = json.loads(text_a)
            same = (
                code_a == code_b == 0
                and stripped_a == stripped_b
                and "results" in parsed
            )
        all_ok = all_ok and same
        details.append(f"{argv[0]}:{'ok' if same else 'DIFF'}")
    _report(
        capsys, 7, all_ok,
        "repeated seeded runs byte-identical (wall-clock field aside): "
        + ", ".join(details),
    )
