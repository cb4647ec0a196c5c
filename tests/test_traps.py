import dataclasses
import inspect

import numpy as np
import pytest

import landscape_lab
from landscape_lab import (
    AscentTrace,
    BoundaryTrapInstance,
    CLASSIFICATIONS,
    ControlGrid,
    CriticalPointReport,
    NumericalFault,
    QuantumSystem,
    basin_census,
    boundary_cone_surjectivity,
    build_su_basis,
    classify_point,
    critical_value_census_1d,
    gradient,
    gradient_ascent,
    objective,
    objective_range,
    local_surjectivity_rank,
    propagate,
)
from landscape_lab import cli, counterexamples, landscape, qdyn, traps
from landscape_lab.traps import ARMIJO, GRAD_TOL, MAX_BACKTRACKS, MAX_ITERS, _objective_rounding

BASIS2 = build_su_basis(2)
SIGMA_Z = BASIS2.elements[2]
STATE_UP = (np.eye(2) + SIGMA_Z) / 2.0
KAPPA = np.pi / np.sqrt(3.0)


def corner_system():
    alpha = 2.0 * np.sqrt(3.0) * KAPPA
    obs = (
        np.sin(alpha + np.pi / 3) * BASIS2.elements[0]
        + np.sin(alpha - np.pi / 3) * BASIS2.elements[1]
        + np.sin(alpha) * SIGMA_Z
    )
    return QuantumSystem(2, STATE_UP, obs)


def corner_grid():
    return ControlGrid.constant(1.0, KAPPA, 3, 4, KAPPA)


def random_instance(seed):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    rho = X @ X.conj().T
    rho /= np.trace(rho).real
    O = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    system = QuantumSystem(2, rho, (O + O.conj().T) / 2.0)
    grid = ControlGrid.uniform_random(1.0, 1.5, 3, 4, rng)
    return system, grid


def exact_hessian(system, grid, basis):
    """The exact Hessian on all of one grid's coordinates, unsymmetrized."""
    lam, V, P = qdyn._propagated(grid.values[None], grid.dt, basis)
    return landscape._hessians(system, lam, V, P, grid.dt, basis)[0]


def random_system(N, seed):
    """A pure state and a random Hermitian observable on N levels."""
    rng = np.random.default_rng(seed)
    psi = rng.standard_normal(N) + 1j * rng.standard_normal(N)
    psi /= np.linalg.norm(psi)
    X = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
    return QuantumSystem(N, np.outer(psi, psi.conj()), (X + X.conj().T) / 2.0)


def census_plan(count, *, seed=0, kappa=KAPPA, segments=4):
    """basin_census's sampling keywords for count runs on the unit horizon."""
    return dict(count=count, seed=seed, kappa=kappa, segments=segments, horizon=1.0)


def parameters(fn):
    """(positional parameter names, {keyword-only name: default}) of fn."""
    params = inspect.signature(fn).parameters.values()
    positional = [p.name for p in params if p.kind is p.POSITIONAL_OR_KEYWORD]
    keywords = {p.name: p.default for p in params if p.kind is p.KEYWORD_ONLY}
    return positional, keywords


class TestSettings:
    def test_tolerance_defaults(self):
        assert traps.MAX_ITERS == 500
        assert traps.GRAD_TOL == 1e-8
        assert traps.ARMIJO == 1e-4
        assert traps.ROOT_TOL == 1e-10
        assert traps.MERGE_TOL == 1e-6
        assert landscape.ACTIVE_TOL == 1e-9
        assert landscape.RANK_TOL == 1e-8

    def test_settable_fields(self):
        # The settings left are keywords of the functions that read them.
        ascent = {"max_iters": 500, "tol_grad": 1e-8}
        assert parameters(gradient_ascent) == (["system", "start", "basis"], ascent)
        plan = dict.fromkeys(["count", "seed", "kappa", "segments", "horizon"],
                             inspect.Parameter.empty)
        assert parameters(basin_census) == (["system", "basis"], {**plan, **ascent})
        assert parameters(traps._lockstep_ascent) == (["system", "starts", "basis"], ascent)
        assert parameters(classify_point) == (
            ["system", "grid", "basis"], {"tol_grad": 1e-8}
        )
        assert parameters(traps._classify) == (
            ["system", "starts", "vals", "js", "gs", "pnorms", "eigen", "basis"],
            {"tol_grad": inspect.Parameter.empty},
        )
        assert parameters(critical_value_census_1d) == (
            ["f", "f_prime", "domain", "grid_points"],
            {"root_tol": 1e-10, "merge_tol": 1e-6},
        )
        # The Armijo fraction and the active-bound and rank tolerances are
        # constants: no parameter sets them.
        assert parameters(local_surjectivity_rank) == (["tm"], {})
        assert parameters(boundary_cone_surjectivity) == (["grid", "tm"], {})
        assert parameters(landscape._at_bounds) == (["values", "kappa"], {})
        assert parameters(traps._project) == (["g", "at_upper", "at_lower"], {})
        # A probe outside the box is a grid with a larger bound.
        assert parameters(ControlGrid.with_values) == (["self", "values"], {})

    def test_names_only_tests_used_are_gone(self):
        gone = [
            (landscape_lab, "assemble_segment_hamiltonian"),
            (qdyn, "assemble_segment_hamiltonian"),
            (ControlGrid, "segment_bounds"),
            (landscape_lab, "unitary_objective_gradient"),
            (landscape, "unitary_objective_gradient"),
            (landscape.TangentMap, "reassemble"),
            (landscape_lab, "finite_difference_hessian"),
            (traps, "finite_difference_hessian"),
            (cli, "RunConfig"),
            (landscape_lab, "project_ascent_gradient"),
            (traps, "project_ascent_gradient"),
            (landscape_lab, "Analytic2DPoint"),
            (counterexamples, "Analytic2DPoint"),
            (landscape_lab, "analytic2d_eval"),
            (counterexamples, "analytic2d_eval"),
            (landscape_lab, "analytic2d_gradient"),
            (counterexamples, "analytic2d_gradient"),
            (landscape_lab, "Tolerances"),
            (traps, "Tolerances"),
            (landscape_lab, "AscentSettings"),
            (traps, "AscentSettings"),
            (landscape, "DEFAULT_ACTIVE_TOL"),
            (landscape, "DEFAULT_RANK_TOL"),
            (traps, "HESS_STEP"),
            (traps, "_free_hessians"),
            (landscape, "_gradient_stack"),
            (landscape, "_variation_bounds"),
            (qdyn, "BLOCK_SEGMENTS"),
            (qdyn, "HERMITICITY_TOL"),
            (landscape, "TANGENT_BLOCK_BYTES"),
            (cli, "_demo_system"),
            (landscape, "_segment_products"),
            (landscape_lab, "active_set"),
            (landscape, "active_set"),
            (landscape_lab, "BasinSampler"),
            (traps, "BasinSampler"),
            (landscape_lab, "SliceCensus"),
            (counterexamples, "SliceCensus"),
            (qdyn.PropagationResult, "dim"),
            (landscape.TangentMap, "dim"),
            (landscape, "_tangent_rows"),
            (landscape_lab, "boundary_trap_instance"),
            (counterexamples, "boundary_trap_instance"),
            (landscape_lab, "verify_boundary_trap"),
            (counterexamples, "verify_boundary_trap"),
        ]
        assert [name for owner, name in gone if hasattr(owner, name)] == []

    def test_success_margin_resolution(self):
        # A census's success margin is 1e-4 (j_max - j_min).
        res = basin_census(corner_system(), BASIS2, **census_plan(1))
        assert res.success_margin == 1e-4 * objective_range(corner_system()).width
        assert res.success_margin == pytest.approx(2e-4 * np.sqrt(1.5), rel=1e-12)

    def test_classification_labels(self):
        assert len(CLASSIFICATIONS) == 8
        assert "boundary-trap-max" in CLASSIFICATIONS
        assert "boundary-max" in CLASSIFICATIONS
        assert "regular" in CLASSIFICATIONS


class TestProjectAscentGradient:
    def test_zeros_outward_components_only(self):
        vals = np.array([[1.0, -1.0], [0.0, 1.0], [-1.0, 0.5]])
        grid = ControlGrid(1.0, 1.0, vals)
        g = np.array([[2.0, -3.0], [1.0, -1.0], [4.0, 2.0]])
        pg = traps._project(g, *traps._at_bounds(grid.values, grid.kappa))
        # (0,0): +kappa with positive g -> zeroed; (0,1): -kappa with
        # negative g -> zeroed; (1,1): +kappa with negative g -> kept;
        # (2,0): -kappa with positive g -> kept; interior untouched
        expected = np.array([[0.0, 0.0], [1.0, -1.0], [4.0, 2.0]])
        np.testing.assert_array_equal(pg, expected)

    def test_interior_grid_is_identity(self):
        grid = ControlGrid.zeros(1.0, 1.0, 3, 2)
        g = np.arange(6.0).reshape(3, 2) - 2.5
        at_upper, at_lower = traps._at_bounds(grid.values, grid.kappa)
        np.testing.assert_array_equal(traps._project(g, at_upper, at_lower), g)


class TestClassifyPoint:
    def test_identity_observable_interior_saddle(self):
        system = QuantumSystem(2, STATE_UP, np.eye(2))
        rep = classify_point(system, ControlGrid.zeros(1.0, 1.0, 3, 4), BASIS2)
        assert rep.classification == "interior-saddle"
        assert rep.degenerate
        assert rep.grad_norm_projected < 1e-12
        assert max(abs(e) for e in rep.hessian_eigenvalues) < 1e-10

    def test_global_max_interior_max(self):
        system = QuantumSystem(2, STATE_UP, SIGMA_Z)
        rep = classify_point(system, ControlGrid.zeros(1.0, 1.0, 3, 4), BASIS2)
        assert rep.classification == "interior-max"
        assert rep.degenerate
        assert rep.j_value == pytest.approx(1.0)
        assert all(e <= 1e-10 for e in rep.hessian_eigenvalues)

    def test_global_min_interior_min(self):
        system = QuantumSystem(2, STATE_UP, -SIGMA_Z)
        rep = classify_point(system, ControlGrid.zeros(1.0, 1.0, 3, 4), BASIS2)
        assert rep.classification == "interior-min"

    def test_random_interior_point_regular(self):
        system, grid = random_instance(3)
        rep = classify_point(system, grid, BASIS2)
        assert rep.classification == "regular"
        assert rep.grad_norm_projected > 1e-8
        assert len(rep.hessian_eigenvalues) == 12
        assert rep.active_set == ()

    def test_corner_is_boundary_trap_max(self):
        rep = classify_point(corner_system(), corner_grid(), BASIS2)
        assert rep.classification == "boundary-trap-max"
        assert rep.grad_norm_projected < 1e-12
        assert len(rep.active_set) == 12
        assert rep.hessian_eigenvalues == ()
        assert abs(rep.j_value) < 1e-10

    def test_boundary_trap_soundness(self):
        # inward perturbations from a reported boundary trap never gain
        system = corner_system()
        grid = corner_grid()
        rep = classify_point(system, grid, BASIS2)
        assert rep.classification == "boundary-trap-max"
        j0 = rep.j_value
        radius = 1e-3 * KAPPA
        rng = np.random.default_rng(99)
        worst = -np.inf
        for _ in range(1000):
            step = -np.abs(rng.standard_normal(grid.values.shape))
            step *= radius / np.linalg.norm(step)
            probe = grid.with_values(np.clip(grid.values + step, -KAPPA, KAPPA))
            worst = max(worst, objective(system, propagate(probe, BASIS2).total) - j0)
        assert worst <= 1e-10

    def test_report_rejects_inconsistent_label(self):
        grid = ControlGrid.zeros(1.0, 1.0, 3, 1)
        with pytest.raises(ValueError):
            CriticalPointReport(
                location=grid,
                j_value=0.0,
                grad_norm_projected=1.0,
                active_set=(),
                classification="interior-max",
                hessian_eigenvalues=(0.0,) * 3,
                degenerate=False,
                tol_grad=1e-8,
            )

    def test_report_rejects_wrong_hessian_count(self):
        grid = ControlGrid.zeros(1.0, 1.0, 3, 1)
        with pytest.raises(ValueError):
            CriticalPointReport(
                location=grid,
                j_value=0.0,
                grad_norm_projected=1.0,
                active_set=(),
                classification="regular",
                hessian_eigenvalues=(0.0,),
                degenerate=False,
                tol_grad=1e-8,
            )


def a_based_hessians(system, lam, V, P, dt, basis):
    """The Hessians of a stack of grids from the complex tangent matrices
    A_k = -i U_T^dag dU_T/d eps_k: the reference for landscape._hessians,
    which takes its traces from the tangent map's real rows instead.

    A_(j, z) = -i Q_z^dag (M_z o V_z^dag B_j V_z) Q_z with Q_z = V_z^dag P_{z-1}
    and M_z = exp(i lam dt) o K_z. The two traces over all pairs are taken
    on the complex matrices, and the within-segment term by one einsum.
    """
    dag = qdyn._dagger
    (Z, dim), n = lam.shape[-2:], basis.size
    lead, m = lam.shape[:-2], n * Z
    Vh = dag(V)[..., None, :, :, :]
    Q = Vh @ P[..., None, :-1, :, :]
    Mz = np.exp(1j * dt * lam)[..., :, None] * qdyn._divided_differences(lam, dt)
    E = Vh @ basis.stack[:, None] @ V[..., None, :, :, :]  # [j, z, a, b]
    A = (-1j * dag(Q) @ (Mz[..., None, :, :, :] * E) @ Q).reshape(lead + (m, dim, dim))
    total = P[..., -1, :, :]
    M = (dag(total) @ system.observable @ total)[..., None, :, :]

    def pairs(X):  # Re Tr[X_k A_l] for all k, l
        cols = np.swapaxes(A, -1, -2).reshape(lead + (m, dim * dim))
        return (X.reshape(lead + (m, dim * dim)) @ np.swapaxes(cols, -1, -2)).real

    H = pairs(M @ A @ system.rho0)
    later = pairs(A @ system.rho0 @ M)
    z = np.arange(m) % Z
    later[..., ~(z[:, None] < z[None, :])] = 0.0
    H -= later + np.swapaxes(later, -1, -2)
    # Within segment z: Re sum_pqr F_pqr (E^a_pq E^b_qr + E^b_pq E^a_qr) W_rp.
    F = qdyn._second_divided_differences(lam, dt)
    W = landscape._eigenbasis_weights(system, V, P)
    S = np.einsum("...zpqr,...azpq,...bzqr,...zrp->...zab", F, E, E, W, optimize=True).real
    blocks = H.reshape(lead + (n, Z, n, Z))
    for z in range(Z):
        blocks[..., :, z, :, z] += S[..., z, :, :] + np.swapaxes(S[..., z, :, :], -1, -2)
    return 2.0 * H


class TestHessian:
    def test_near_symmetric_on_smooth_instance(self):
        # Exactly symmetric but for the rounding of the traces over all
        # pairs; checked before _report symmetrizes.
        cases = [(random_instance(3)[0], BASIS2, 4)] + [
            (random_system(N, N), build_su_basis(N), Z) for N, Z in ((3, 5), (4, 6), (8, 20))
        ]
        for system, basis, Z in cases:
            grid = ControlGrid.uniform_random(1.0, 1.0, basis.size, Z, np.random.default_rng(Z))
            H = exact_hessian(system, grid, basis)
            assert np.max(np.abs(H - H.T)) <= 1e-15

    @pytest.mark.parametrize("N,Z,stride", [(2, 4, 1), (3, 5, 1), (4, 6, 1), (8, 20, 9)])
    def test_matches_central_differences(self, N, Z, stride):
        # At N = 8, Z = 20 every 9th column: 140 of the 1260.
        basis = build_su_basis(N)
        system = random_instance(5)[0] if N == 2 else random_system(N, N)
        grid = ControlGrid.uniform_random(1.0, 1.0, basis.size, Z, np.random.default_rng(N + Z))
        cols = list(range(0, basis.size * Z, stride))
        want = column_loop_hessian(system, grid, basis, list(range(basis.size * Z)), 1e-4, cols)
        got = exact_hessian(system, grid, basis)[:, cols]
        assert np.max(np.abs(got - want)) <= 4e-10

    def test_degenerate_segments_match_central_differences(self):
        # Zero and diagonal segments have repeated eigenvalues, so the
        # second divided differences take their series branch.
        basis = build_su_basis(3)
        grid = ControlGrid.uniform_random(1.0, 1.0, 8, 5, np.random.default_rng(4))
        v = np.array(grid.values)
        v[:, 1] = 0.0
        v[:7, 3] = 0.0
        grid = grid.with_values(v)
        system = random_system(3, 3)
        want = column_loop_hessian(system, grid, basis, list(range(40)), 1e-4)
        assert np.max(np.abs(exact_hessian(system, grid, basis) - want)) <= 4e-10

    @pytest.mark.parametrize("N,Z", [(2, 4), (3, 7), (4, 20), (8, 20)])
    @pytest.mark.parametrize("K", [1, 3])
    def test_matches_the_tangent_matrix_reference(self, N, Z, K):
        basis = build_su_basis(N)
        system = random_instance(5)[0] if N == 2 else random_system(N, N)
        values = np.random.default_rng(N * Z).uniform(-1.0, 1.0, (K, basis.size, Z))
        lam, V, P = qdyn._propagated(values, 1.0 / Z, basis)
        want = a_based_hessians(system, lam, V, P, 1.0 / Z, basis)
        got = landscape._hessians(system, lam, V, P, 1.0 / Z, basis)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_exactly_degenerate_qudit_matches_central_differences(self):
        # Every segment of the zero grid has one fourfold eigenvalue, so all
        # divided differences take their tie branch.
        basis = build_su_basis(4)
        grid = ControlGrid.zeros(1.0, 1.0, basis.size, 3)
        system = random_system(4, 4)
        want = column_loop_hessian(system, grid, basis, list(range(45)), 1e-4)
        assert np.max(np.abs(exact_hessian(system, grid, basis) - want)) <= 4e-10

    def test_a_nan_in_a_later_block_names_its_segment(self):
        # The Hessian's tangent rows are checked like the tangent map's: at
        # N = 8 a block holds 4 segments, and prefix P_13 enters only
        # segment 14, in the fourth block.
        basis = build_su_basis(8)
        grid = ControlGrid.uniform_random(1.0, 1.0, basis.size, 20, np.random.default_rng(0))
        lam, V, P = qdyn._propagated(grid.values[None], grid.dt, basis)
        P[0, 13, 0, 0] = np.nan
        with pytest.raises(NumericalFault, match=r"tangent row \(0, 14\) is not Hermitian"):
            landscape._hessians(random_system(8, 8), lam, V, P, grid.dt, basis)


class TestAscentTrace:
    def test_rejects_decreasing_objective(self):
        rep = classify_point(corner_system(), corner_grid(), BASIS2)
        with pytest.raises(NumericalFault):
            AscentTrace(((0, 1.0, 0.1), (1, 0.5, 0.0)), "grad", rep)

    def test_rejects_empty_trace(self):
        rep = classify_point(corner_system(), corner_grid(), BASIS2)
        with pytest.raises(ValueError):
            AscentTrace((), "grad", rep)

    def test_rejects_unknown_stop_reason(self):
        rep = classify_point(corner_system(), corner_grid(), BASIS2)
        with pytest.raises(ValueError, match="stop reason"):
            AscentTrace(((0, 1.0, 0.0),), "tired", rep)


class TestGradientAscent:
    def test_start_at_global_max_converges_immediately(self):
        system = QuantumSystem(2, STATE_UP, SIGMA_Z)
        trace = gradient_ascent(system, ControlGrid.zeros(1.0, 1.0, 3, 4), BASIS2)
        assert trace.converged
        assert trace.iterations == 0
        assert trace.j_terminal == pytest.approx(1.0, abs=1e-8)
        assert trace.terminal.classification == "interior-max"

    def test_exactly_critical_start_converges_at_gtol_zero(self):
        # At the corner the projected gradient is exactly 0, which is not
        # below a gradient tolerance of 0; the run must still stop there as
        # converged.
        trace = gradient_ascent(
            corner_system(), corner_grid(), BASIS2, tol_grad=0.0
        )
        default = gradient_ascent(corner_system(), corner_grid(), BASIS2)
        assert trace.converged
        assert trace.iterates == default.iterates == ((0, default.j_terminal, 0.0),)
        assert trace.terminal.classification == "boundary-trap-max"
        assert np.array_equal(trace.terminal.location.values, corner_grid().values)

    def test_start_at_corner_stays_trapped(self):
        trace = gradient_ascent(corner_system(), corner_grid(), BASIS2)
        assert trace.converged
        assert trace.terminal.classification == "boundary-trap-max"
        assert trace.j_terminal < np.sqrt(1.5) - 1.0

    def test_interior_starts_can_reach_global_max(self):
        system = corner_system()
        j_max = np.sqrt(1.5)
        reached = 0
        for seed in range(5):
            start = ControlGrid.uniform_random(
                1.0, KAPPA, 3, 4, np.random.default_rng(seed)
            )
            trace = gradient_ascent(system, start, BASIS2)
            assert trace.j_terminal <= j_max + 1e-10
            if trace.j_terminal >= j_max - 1e-4:
                reached += 1
        assert reached >= 1

    def test_census_start_6_converges_at_the_global_max(self):
        # Near the maximum the gain of a step falls below the rounding of J;
        # the run must end there as converged and be labelled a maximum.
        start = ControlGrid.uniform_random(1.0, KAPPA, 3, 4, np.random.default_rng(6))
        trace = gradient_ascent(corner_system(), start, BASIS2)
        assert trace.j_terminal >= np.sqrt(1.5) - 1e-10
        assert trace.converged
        assert trace.terminal.classification == "interior-max"
        assert trace.terminal.grad_norm_projected <= trace.terminal.tol_grad

    def test_a_maximum_of_zero_converges_as_the_shifted_landscape_does(self):
        # j_max = 0: the rounding of J scales with the observable, not with
        # J, so the runs end as those on O + I (j_max = 1) end.
        rho = np.diag([1.0, 0.0])
        O = np.diag([0.0, -1.0])
        for seed in range(8):
            start = ControlGrid.uniform_random(1.0, 1.0, 3, 4, np.random.default_rng(seed))
            zero, one = (
                gradient_ascent(QuantumSystem(2, rho, obs), start, BASIS2, tol_grad=0.0)
                for obs in (O, O + np.eye(2))
            )
            assert zero.converged and zero.terminal.classification == "interior-max"
            assert (zero.stop_reason, zero.iterations) == (one.stop_reason, one.iterations)

    def test_every_census_run_at_the_max_converges(self):
        res = basin_census(corner_system(), BASIS2, **census_plan(40))
        at_max = [r for r in res.runs if r.j_terminal >= np.sqrt(1.5) - 1e-10]
        assert at_max
        for run in at_max:
            assert run.converged, run
            assert run.classification in ("interior-max", "boundary-max"), run
            assert not run.trapped, run

    def test_census_run_25_ends_at_the_max_on_the_boundary_untrapped(self):
        (run,) = basin_census(corner_system(), BASIS2, **census_plan(1, seed=25)).runs
        assert run.j_terminal >= np.sqrt(1.5) - 1e-10
        assert run.classification == "boundary-max"
        assert not run.trapped

    @pytest.mark.parametrize("grad", [1e-8, 1e-4])
    def test_a_converged_run_is_critical(self, grad):
        res = basin_census(corner_system(), BASIS2, **census_plan(40), tol_grad=grad)
        converged = [run for run in res.runs if run.converged]
        assert len(converged) == 40
        assert all(run.classification != "regular" for run in converged)

    def test_monotone_trace(self):
        system, grid = random_instance(11)
        trace = gradient_ascent(system, grid, BASIS2)
        js = [j for (_, j, _) in trace.iterates]
        assert all(b >= a for a, b in zip(js, js[1:]))
        assert trace.iterates[0][0] == 0


class TestBasinCensus:
    def test_degenerate_range_reports_zero(self):
        system = QuantumSystem(2, STATE_UP, np.eye(2))
        res = basin_census(system, BASIS2, count=4, seed=1, kappa=1.0, segments=2, horizon=1.0)
        assert res.trapped_fraction == 0.0
        assert res.success_margin == 0.0

    def test_run_fields_are_consistent(self):
        res = basin_census(corner_system(), BASIS2, **census_plan(6, seed=3))
        assert 0.0 <= res.trapped_fraction <= 1.0
        assert res.j_max == pytest.approx(np.sqrt(1.5), abs=1e-12)
        for i, run in enumerate(res.runs):
            assert run.index == i
            assert run.seed == 3 + i
            assert run.classification in CLASSIFICATIONS
            assert run.trapped == (run.j_terminal < res.j_max - res.success_margin)

    def test_rejects_empty_plan(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("work done before the check")

        monkeypatch.setattr(qdyn, "_segment_kernel", refuse)
        for plan, message in (
            (census_plan(0), "need at least one run, got 0"),
            (census_plan(2, segments=0), "need at least one segment, got 0"),
        ):
            with pytest.raises(ValueError, match=message):
                basin_census(corner_system(), BASIS2, **plan)


class TestCensus1D:
    def test_sine_two_distinct_values(self):
        res = critical_value_census_1d(np.sin, np.cos, (-20.0, 20.0), 2001)
        assert len(res.critical_points) == 12
        for p in res.critical_points:
            k = round((p - np.pi / 2) / np.pi)
            assert abs(p - (np.pi / 2 + k * np.pi)) < 1e-9
        assert len(res.distinct_values) == 2
        assert sorted(res.distinct_values) == pytest.approx([-1.0, 1.0], abs=1e-10)

    def test_sine_extreme_roots_inside_domain(self):
        res = critical_value_census_1d(np.sin, np.cos, (-20.0, 20.0), 2001)
        assert res.critical_points[0] == pytest.approx(-(np.pi / 2 + 5 * np.pi))
        assert res.critical_points[-1] == pytest.approx(np.pi / 2 + 5 * np.pi)

    def test_sinc_all_values_distinct(self):
        def f(x):
            return np.sin(x) / x

        def fp(x):
            return (x * np.cos(x) - np.sin(x)) / x**2

        res = critical_value_census_1d(f, fp, (0.1, 30.0), 2001)
        assert len(res.critical_points) == 9
        assert len(res.distinct_values) == 9
        vals = np.array(res.critical_values)
        gaps = np.abs(vals[:, None] - vals[None, :])
        np.fill_diagonal(gaps, np.inf)
        assert gaps.min() > 1e-3

    def test_cubic_closed_form(self):
        res = critical_value_census_1d(
            lambda x: x**3 - x, lambda x: 3 * x**2 - 1, (-2.0, 2.0), 401
        )
        root = 1.0 / np.sqrt(3.0)
        val = 2.0 / (3.0 * np.sqrt(3.0))
        assert res.critical_points == pytest.approx([-root, root], abs=1e-10)
        assert res.critical_values == pytest.approx([val, -val], abs=1e-12)
        assert sorted(res.distinct_values) == pytest.approx([-val, val], abs=1e-12)

    def test_constant_function_empty(self):
        res = critical_value_census_1d(lambda x: 5.0, lambda x: 0.0, (0.0, 1.0), 100)
        assert res.critical_points == ()
        assert res.critical_values == ()
        assert res.distinct_values == ()

    def test_merge_tolerance_collapses_values(self):
        # cos has critical values +1 and -1 repeated across periods; a huge
        # merge tolerance collapses everything into one bucket
        res = critical_value_census_1d(
            np.cos,
            lambda x: -np.sin(x),
            (0.5, 20.0),
            2001,
            merge_tol=3.0,
        )
        assert len(res.critical_points) > 2
        assert len(res.distinct_values) == 1

    def test_root_at_an_exact_midpoint_zero(self):
        res = critical_value_census_1d(lambda x: 0.5 * x**2, lambda x: x, (-1.0, 1.0), 2)
        assert res.critical_points == (0.0,)
        assert res.critical_values == (0.0,)

    def test_a_root_on_a_grid_node_is_found(self):
        # cos peaks at node 1000 of the grid, where -sin is exactly 0 and
        # its neighbours have opposite signs.
        res = critical_value_census_1d(np.cos, lambda x: -np.sin(x), (-10.0, 10.0), 2001)
        assert 0.0 in res.critical_points
        assert res.critical_points == pytest.approx(np.pi * np.arange(-3, 4), abs=1e-9)

    @pytest.mark.parametrize("grid_points", [3, 2001])
    def test_a_parabola_peaking_on_the_middle_node(self, grid_points):
        res = critical_value_census_1d(
            lambda x: -x**2, lambda x: -2.0 * x, (-1.0, 1.0), grid_points
        )
        assert res.critical_points == pytest.approx([0.0], abs=1e-15)

    def test_jump_is_not_a_root(self):
        # sign(x) changes sign at 0 but never gets near 0: the bisected
        # "root" leaves |f'| = 1, far above the root tolerance.
        with pytest.raises(NumericalFault, match="root tolerance"):
            critical_value_census_1d(np.abs, np.sign, (-1.0, 2.0), 2)

    def test_non_finite_derivative_grid_is_rejected(self):
        with pytest.raises(ValueError, match="not finite on the grid"):
            critical_value_census_1d(
                np.sin, lambda x: np.where(x > 0.5, np.nan, np.cos(x)), (0.0, 1.0), 11
            )

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            critical_value_census_1d(np.sin, np.cos, (1.0, 1.0), 100)
        with pytest.raises(ValueError):
            critical_value_census_1d(np.sin, np.cos, (0.0, 1.0), 1)


def project(grid, g):
    """The projected gradient at one grid, its bounds found with ACTIVE_TOL."""
    return traps._project(g, *traps._at_bounds(grid.values, grid.kappa))


def sequential_ascent(
    system, start, basis, max_iters=MAX_ITERS, tol_grad=GRAD_TOL, *, warm=True
):
    """The projected ascent with one propagate and objective per halving.

    The reference for the chunked line search: (iterates, converged, final
    grid, trial grids evaluated). Each line search starts at s0 2^-max(k - 1, 0),
    k the ladder index of the last accepted step (0 before the first);
    warm=False restarts every line search at s0, the cold ladder.
    """
    grid, vals, kappa = start, np.array(start.values), start.kappa
    J = objective(system, propagate(grid, basis).total)
    g = gradient(system, grid, basis).values
    pg = project(grid, g)
    pnorm = float(np.linalg.norm(pg))
    trace = [(0, J, pnorm)]
    converged = pnorm < tol_grad
    it = trials = k = 0
    while not converged and it < max_iters:
        top = max(k - 1, 0) if warm else 0
        s = (kappa / pnorm if kappa > 0.0 else 1.0 / pnorm) * 0.5**top
        accepted = False
        for k in range(top, top + MAX_BACKTRACKS):
            cand = np.clip(vals + s * pg, -kappa, kappa)
            predicted = float(np.sum(g * (cand - vals)))
            if predicted <= 0.0:
                break
            if predicted <= _objective_rounding(system):
                converged = True
                break
            Jc = objective(system, propagate(grid.with_values(cand), basis).total)
            trials += 1
            if Jc >= J + ARMIJO * predicted:
                accepted = True
                break
            s *= 0.5
        if not accepted:
            break
        vals, grid, J = cand, grid.with_values(cand), Jc
        g = gradient(system, grid, basis).values
        pg = project(grid, g)
        pnorm = float(np.linalg.norm(pg))
        it += 1
        trace.append((it, J, pnorm))
        converged = pnorm < tol_grad
    return tuple(trace), converged, grid, trials


def random_qutrit_system():
    rng = np.random.default_rng(2024)
    psi = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    psi /= np.linalg.norm(psi)
    X = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    return QuantumSystem(3, np.outer(psi, psi.conj()), (X + X.conj().T) / 2.0)


def assert_same_run(system, start, basis):
    trace = gradient_ascent(system, start, basis)
    iterates, converged, final, _ = sequential_ascent(system, start, basis)
    assert trace.iterates == iterates
    assert trace.converged == converged
    np.testing.assert_array_equal(trace.terminal.location.values, final.values)
    assert trace.terminal.classification == classify_point(system, final, basis).classification


class TestChunkedLineSearch:
    @pytest.mark.parametrize("seed", range(40))
    def test_corner_qubit_census_starts_match_sequential_halving(self, seed):
        start = ControlGrid.uniform_random(1.0, KAPPA, 3, 4, np.random.default_rng(seed))
        assert_same_run(corner_system(), start, BASIS2)

    @pytest.mark.parametrize("kappa", [0.2, 0.4])
    @pytest.mark.parametrize("seed", range(5))
    def test_random_qutrit_matches_sequential_halving(self, kappa, seed):
        # kappa 0.2 ends every run on the boundary, 0.4 mostly inside.
        basis = build_su_basis(3)
        start = ControlGrid.uniform_random(1.0, kappa, 8, 5, np.random.default_rng(seed))
        assert_same_run(random_qutrit_system(), start, basis)


def nan_trial_totals(monkeypatch):
    """Make the last horizon propagator NaN in every batched propagation but
    the first, which in an ascent or a census propagates the starts."""
    real = landscape._propagated
    calls = []

    def totals(values, dt, basis):
        lam, V, P = real(values, dt, basis)
        calls.append(len(P))
        if len(calls) > 1:
            P[-1, -1] = np.nan
        return lam, V, P

    monkeypatch.setattr(landscape, "_propagated", totals)


CENSUS_OF_10 = census_plan(10)


class TestLineSearchFaults:
    @pytest.mark.usefixtures("non_unitary_trial_segment")
    def test_non_unitary_trial_segment_is_a_fault(self):
        start = ControlGrid.uniform_random(1.0, KAPPA, 3, 4, np.random.default_rng(3))
        with pytest.raises(NumericalFault, match="segment unitary 3"):
            gradient_ascent(corner_system(), start, BASIS2)

    def test_non_finite_trial_objective_is_a_fault(self, monkeypatch):
        nan_trial_totals(monkeypatch)
        start = ControlGrid.uniform_random(1.0, KAPPA, 3, 4, np.random.default_rng(3))
        with pytest.raises(NumericalFault, match="not finite"):
            gradient_ascent(corner_system(), start, BASIS2)

    @pytest.mark.usefixtures("non_unitary_trial_segment")
    def test_non_unitary_trial_segment_in_a_census_is_a_fault(self):
        with pytest.raises(NumericalFault, match="segment unitary 3"):
            basin_census(corner_system(), BASIS2, **CENSUS_OF_10)

    def test_non_finite_trial_objective_in_a_census_is_a_fault(self, monkeypatch):
        nan_trial_totals(monkeypatch)
        with pytest.raises(NumericalFault, match="not finite"):
            basin_census(corner_system(), BASIS2, **CENSUS_OF_10)


def census_traces(monkeypatch, system, basis, plan):
    """basin_census's result on the sampling keywords plan and the ascent
    traces behind its runs."""
    traces = []
    real = traps._lockstep_ascent

    def spy(*args, **kwargs):
        traces.append(real(*args, **kwargs))
        return traces[-1]

    monkeypatch.setattr(traps, "_lockstep_ascent", spy)
    return basin_census(system, basis, **plan), traces[0]


def assert_run_matches_alone(system, start, basis, trace, max_iters=MAX_ITERS):
    """One run of a lockstep ascent against gradient_ascent on its start, the
    sequential-halving reference, and classify_point at its end."""
    alone = gradient_ascent(system, start, basis, max_iters=max_iters)
    iterates, converged, final, _ = sequential_ascent(system, start, basis, max_iters)
    assert trace.iterates == alone.iterates == iterates
    assert trace.converged == alone.converged == converged
    np.testing.assert_array_equal(trace.terminal.location.values, final.values)
    recomputed = classify_point(system, final, basis)
    for report in (alone.terminal, recomputed):
        assert trace.terminal.classification == report.classification
        assert trace.terminal.hessian_eigenvalues == report.hessian_eigenvalues
        assert trace.terminal.j_value == report.j_value
        assert trace.terminal.grad_norm_projected == report.grad_norm_projected
        assert trace.terminal.tol_grad == report.tol_grad


class TestLockstepCensus:
    @pytest.mark.parametrize(
        "N,kappa,count",
        [(2, KAPPA, 40), (3, 0.2, 5), (3, 0.4, 5), (4, 0.5, 5), (8, 0.5, 4)],
    )
    def test_every_run_matches_its_ascent_alone(self, monkeypatch, N, kappa, count):
        # The corner qubit's census starts 0-39, the qutrit of
        # TestChunkedLineSearch, whose runs take 15 to 85 iterations, and
        # random systems on 4 and 8 levels (on 2 segments, to stay fast),
        # whose runs end inside the box and on it. Every comparison is
        # exact, the Hessian eigenvalues included.
        basis = build_su_basis(N)
        system = {2: corner_system, 3: random_qutrit_system}.get(N, lambda: random_system(N, N))()
        Z = {3: 5, 8: 2}.get(N, 4)
        plan = census_plan(count, kappa=kappa, segments=Z)
        res, traces = census_traces(monkeypatch, system, basis, plan)
        assert len(traces) == count
        iterations = [t.iterations for t in traces]
        assert max(iterations) - min(iterations) >= 10
        for run, trace in zip(res.runs, traces):
            rng = np.random.default_rng(run.seed)
            start = ControlGrid.uniform_random(1.0, kappa, basis.size, Z, rng)
            assert_run_matches_alone(system, start, basis, trace)
            assert run.j_terminal == trace.j_terminal
            assert run.iterations == trace.iterations
            assert run.converged == trace.converged
            assert run.classification == trace.terminal.classification
            # The report takes the norm the ascent stopped on.
            assert trace.terminal.grad_norm_projected == trace.iterates[-1][2]

    def test_runs_that_stop_for_different_reasons(self):
        # At the corner the projected gradient is zero at iteration 0; at
        # the maximum the first step is within rounding (iteration 0), two
        # steps before it the same happens at iteration 2; random starts
        # hit max_iters = 3.
        system = corner_system()
        start6 = ControlGrid.uniform_random(1.0, KAPPA, 3, 4, np.random.default_rng(6))
        full = gradient_ascent(system, start6, BASIS2)
        short = full.iterations - 2
        near = gradient_ascent(system, start6, BASIS2, max_iters=short).terminal.location
        starts = [corner_grid(), full.terminal.location, near] + [
            ControlGrid.uniform_random(1.0, KAPPA, 3, 4, np.random.default_rng(seed))
            for seed in range(3)
        ]
        traces = traps._lockstep_ascent(system, starts, BASIS2, max_iters=3)
        stops = [(t.iterations, t.converged, t.stop_reason) for t in traces]
        assert stops == [(0, True, "grad"), (0, True, "rounding"), (2, True, "rounding")] + [
            (3, False, "max-iters")
        ] * 3
        assert full.stop_reason == "rounding"
        assert traces[0].terminal.grad_norm_projected == 0.0
        assert traces[1].terminal.grad_norm_projected >= GRAD_TOL
        for start, trace in zip(starts, traces):
            assert_run_matches_alone(system, start, BASIS2, trace, max_iters=3)

    def test_a_ladder_that_never_passes_stalls(self, monkeypatch):
        # No step can pass the Armijo test, and with no rounding allowance
        # the ladder is cut only where a step no longer moves the grid.
        monkeypatch.setattr(traps, "ARMIJO", 1e300)
        monkeypatch.setattr(traps, "OBJECTIVE_ROUNDING_ULPS", 0.0)
        starts = [
            ControlGrid.uniform_random(1.0, KAPPA, 3, 4, np.random.default_rng(seed))
            for seed in range(2)
        ]
        traces = traps._lockstep_ascent(corner_system(), starts + [corner_grid()], BASIS2)
        assert [(t.iterations, t.stop_reason) for t in traces] == [
            (0, "line-search-stall"), (0, "line-search-stall"), (0, "grad")
        ]
        assert not traces[0].converged

    def test_gradient_calls_are_batched_across_runs(self, monkeypatch):
        # One propagation for the starts and one per round; one gradient for
        # the starts and one per round in which a run accepted a step, on
        # the eigenpairs that round computed. Each accepted step takes one
        # gradient, so the batches hold every run that moved.
        kernel, batches = trial_grid_counts(monkeypatch), []

        def spy(system, lam, *args, real=traps._gradient_from):
            batches.append(len(lam))
            return real(system, lam, *args)

        monkeypatch.setattr(traps, "_gradient_from", spy)
        res = basin_census(corner_system(), BASIS2, **CENSUS_OF_10)
        assert len(kernel) == 22 and sum(kernel) * 4 == 2764
        assert len(batches) == 21
        assert batches[0] == 10
        assert sum(batches[1:]) == sum(run.iterations for run in res.runs) == 140

    def test_classification_reuses_the_last_objective_and_gradient(self, monkeypatch):
        # classify_point would evaluate J, the gradient and the eigenpairs
        # again: every kernel call is a start or line-search propagation.
        monkeypatch.setattr(traps, "classify_point", None)
        kernel = []
        real = qdyn._segment_kernel

        def spy(H, dt):
            kernel.append(len(H))
            return real(H, dt)

        monkeypatch.setattr(qdyn, "_segment_kernel", spy)
        evaluated = trial_grid_counts(monkeypatch)
        res = basin_census(corner_system(), BASIS2, **CENSUS_OF_10)
        assert all(run.classification in CLASSIFICATIONS for run in res.runs)
        assert kernel == evaluated


def trial_grid_counts(monkeypatch):
    """The number of grids in each batched propagation from here on."""
    calls = []
    real = landscape._propagated

    def spy(values, dt, basis):
        calls.append(len(values))
        return real(values, dt, basis)

    monkeypatch.setattr(landscape, "_propagated", spy)
    return calls


def assert_matches_cold_ladder(system, start, basis, traces):
    """Each trace from start against the cold-ladder reference and
    classify_point at its end."""
    iterates, converged, final, _ = sequential_ascent(system, start, basis, warm=False)
    cold = classify_point(system, final, basis)
    for trace in traces:
        assert trace.iterates == iterates
        assert trace.converged == converged
        np.testing.assert_array_equal(trace.terminal.location.values, final.values)
        assert trace.terminal.classification == cold.classification
        assert trace.terminal.hessian_eigenvalues == cold.hessian_eigenvalues


class TestWarmLadder:
    """The warm-started ladder against the cold one, which restarts every
    line search at kappa / |pg|."""

    def test_corner_qubit_runs_match_the_cold_ladder(self, monkeypatch):
        # Census starts 0-49, which are also the 50 starts of acceptance
        # criterion 6, in the census and alone, and criterion 6's corner.
        inst = BoundaryTrapInstance(1.0, 4, KAPPA)
        _, traces = census_traces(monkeypatch, inst.system, BASIS2, census_plan(50))
        for seed, trace in enumerate(traces):
            start = ControlGrid.uniform_random(1.0, KAPPA, 3, 4, np.random.default_rng(seed))
            alone = gradient_ascent(inst.system, start, BASIS2)
            assert_matches_cold_ladder(inst.system, start, BASIS2, [trace, alone])
        corner = gradient_ascent(inst.system, inst.grid, BASIS2)
        assert corner.terminal.classification == "boundary-trap-max"
        assert_matches_cold_ladder(inst.system, inst.grid, BASIS2, [corner])

    @pytest.mark.parametrize("kappa", [0.2, 0.4])
    @pytest.mark.parametrize("seed", range(5))
    def test_random_qutrit_ends_where_the_cold_ladder_ends(self, monkeypatch, kappa, seed):
        # At kappa 0.2 the clipping can make the warm ladder skip a longer
        # step that the cold ladder takes, so the paths may differ; the
        # end point may not.
        basis = build_su_basis(3)
        system = random_qutrit_system()
        start = ControlGrid.uniform_random(1.0, kappa, 8, 5, np.random.default_rng(seed))
        calls = trial_grid_counts(monkeypatch)
        warm = gradient_ascent(system, start, basis)
        warm_trials = sum(calls[1:])
        iterates, converged, final, cold_trials = sequential_ascent(
            system, start, basis, warm=False
        )
        cold = classify_point(system, final, basis)
        assert warm.terminal.classification == cold.classification
        assert warm.converged == converged
        assert warm.terminal.active_set == cold.active_set
        assert abs(warm.j_terminal - iterates[-1][1]) <= 1e-12
        assert warm_trials < cold_trials

    def test_census_spends_at_most_6_trial_grids_per_iteration(self, monkeypatch):
        # The cold ladder spends 22.6 on this census.
        calls = trial_grid_counts(monkeypatch)
        res = basin_census(corner_system(), BASIS2, **census_plan(50))
        iterations = sum(run.iterations for run in res.runs)
        assert calls[0] == 50
        assert sum(calls[1:]) <= 6 * iterations


def column_loop_hessian(system, grid, basis, free, step, columns=None):
    """Central differences of the analytic gradient on the free coordinates,
    one pair of gradient calls per column (all free columns by default):
    the exact Hessian's cross-check."""
    flat = grid.values.ravel()
    columns = free if columns is None else columns
    H = np.empty((len(free), len(columns)))
    for col, idx in enumerate(columns):
        g = []
        for sign in (1.0, -1.0):
            v = flat.copy()
            v[idx] += sign * step
            v = v.reshape(grid.values.shape)
            probe = ControlGrid(grid.horizon, float(np.max(np.abs(v))), v)
            g.append(gradient(system, probe, basis).values.ravel()[free])
        H[:, col] = (g[0] - g[1]) / (2.0 * step)
    return H


class TestBlockedHessian:
    """The exact Hessians of many grids, taken in blocks of at most
    BLOCK_BYTES of tangent rows. A 2 x 2 complex matrix takes 64 bytes, so
    a bound of k * 64 bytes holds k tangent rows at N = 2."""

    @staticmethod
    def free_hessians(monkeypatch, system, grids, basis):
        """traps._classify's reports at the grids and the free Hessians it
        passed to _report, one per grid."""
        held = []

        def spy(grid, j, g, pnorm, H, *args, real=traps._report):
            held.append(H)
            return real(grid, j, g, pnorm, H, *args)

        monkeypatch.setattr(traps, "_report", spy)
        values = np.stack([grid.values for grid in grids])
        J, lam, V, P = landscape._evaluated(system, values, grids[0].dt, basis)
        g = landscape._gradient_from(system, lam, V, P, grids[0].dt, basis)
        pnorm = traps._norms(traps._project(g, *traps._at_bounds(values, grids[0].kappa)))
        reports = traps._classify(
            system, grids, values, J, g, pnorm, (lam, V, P), basis, tol_grad=GRAD_TOL
        )
        return reports, held

    @pytest.mark.parametrize(
        "N,Z,free,block",
        [
            (2, 4, list(range(12)), None),
            (2, 4, [0, 2, 3, 5, 7, 8, 11], 40),  # 3 grids a block: blocks 3 and 2
            (2, 4, [1, 4, 6], 3),  # a grid alone is over the bound
            (3, 7, list(range(0, 56, 3)), None),
        ],
    )
    def test_matches_column_loop(self, monkeypatch, N, Z, free, block):
        # The controls left out of `free` sit at alternating bounds.
        rng = np.random.default_rng(10 * N + Z)
        basis = build_su_basis(N)
        system = random_qutrit_system() if N == 3 else random_instance(5)[0]
        v = rng.uniform(-1.0, 1.0, (basis.size, Z))
        clamped = np.setdiff1d(np.arange(v.size), free)
        v.flat[clamped] = (-1.0) ** np.arange(clamped.size)
        grid = ControlGrid(1.0, 1.0, v)
        if block is not None:
            monkeypatch.setattr(qdyn, "BLOCK_BYTES", block * 64)
        _, held = self.free_hessians(monkeypatch, system, [grid] * 5, basis)
        want = column_loop_hessian(system, grid, basis, free, 1e-4)
        for H in held:
            np.testing.assert_array_equal(H, held[0])
        assert np.max(np.abs(held[0] - want)) <= 4e-10

    def test_blocks_across_grids_match_one_grid_at_a_time(self, monkeypatch):
        # 3 grids a block, so a block holds grids of different free sets;
        # the corner has no free column and the third grid has 5 controls
        # at a bound.
        monkeypatch.setattr(qdyn, "BLOCK_BYTES", 40 * 64)
        system = corner_system()
        grids = [
            ControlGrid.uniform_random(1.0, KAPPA, 3, 4, np.random.default_rng(seed))
            for seed in range(4)
        ]
        clamped = np.array(grids[2].values)
        clamped.flat[[0, 3, 4, 8, 11]] = [KAPPA, -KAPPA, KAPPA, KAPPA, -KAPPA]
        grids[1], grids[2] = corner_grid(), grids[2].with_values(clamped)
        sizes = []

        def spy(system, lam, *args, real=landscape._hessians):
            sizes.append(len(lam))
            return real(system, lam, *args)

        monkeypatch.setattr(traps, "_hessians", spy)
        reports, held = self.free_hessians(monkeypatch, system, grids, BASIS2)
        assert sizes == [3, 1]
        assert [len(H) for H in held] == [12, 0, 7, 12]
        for grid, report, H in zip(grids, reports, held):
            alone = classify_point(system, grid, BASIS2)
            assert report.classification == alone.classification
            assert report.hessian_eigenvalues == alone.hessian_eigenvalues
            assert report.tol_grad == alone.tol_grad
            if H.size:
                free = [k for k in range(12) if abs(grid.values.flat[k]) < KAPPA]
                want = column_loop_hessian(system, grid, BASIS2, free, 1e-4)
                assert np.max(np.abs(H - want)) <= 4e-10

    def test_classify_point_kernel_calls_stay_within_the_block(self, monkeypatch):
        # J, the gradient and the Hessian come from one kernel call on the
        # grid's own segments.
        sizes = []
        real = qdyn._segment_kernel

        def spy(H, dt):
            sizes.append(int(np.prod(np.shape(H)[:-2])))
            return real(H, dt)

        monkeypatch.setattr(qdyn, "_segment_kernel", spy)
        basis = build_su_basis(3)
        grid = ControlGrid.uniform_random(1.0, 1.0, basis.size, 50, np.random.default_rng(1))
        classify_point(random_qutrit_system(), grid, basis)
        assert sizes == [grid.segments]

    def test_census_hessians_hold_at_most_a_block_of_tangent_rows(self, monkeypatch):
        # With a block of 40 matrices, 3 runs of 12 tangent rows a block;
        # the census is bitwise the one with the default block.
        _, want = census_traces(monkeypatch, corner_system(), BASIS2, CENSUS_OF_10)
        monkeypatch.setattr(qdyn, "BLOCK_BYTES", 40 * 64)
        rows = []

        def spy(system, lam, *args, real=landscape._hessians):
            H = real(system, lam, *args)
            rows.append(H.shape[0] * H.shape[1])
            return H

        monkeypatch.setattr(traps, "_hessians", spy)
        _, got = census_traces(monkeypatch, corner_system(), BASIS2, CENSUS_OF_10)
        assert rows == [36, 36, 36, 12]
        for a, b in zip(got, want):
            assert a.iterates == b.iterates and a.stop_reason == b.stop_reason
            assert a.terminal.hessian_eigenvalues == b.terminal.hessian_eigenvalues
            assert a.terminal.classification == b.terminal.classification


class TestTolerances:
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -1e-12])
    def test_a_bad_gradient_tolerance_is_refused(self, value):
        system, grid = corner_system(), corner_grid()
        for call in (
            lambda: classify_point(system, grid, BASIS2, tol_grad=value),
            lambda: gradient_ascent(system, grid, BASIS2, tol_grad=value),
            lambda: basin_census(system, BASIS2, **census_plan(2), tol_grad=value),
        ):
            with pytest.raises(ValueError, match="tol_grad must be finite and nonnegative"):
                call()

    @pytest.mark.parametrize("value", [-1, -5, 2.5])
    def test_a_negative_or_fractional_step_cap_is_refused_before_any_work(
        self, monkeypatch, value
    ):
        def refuse(*args):
            raise AssertionError("work done before the check")

        system, grid = corner_system(), corner_grid()
        monkeypatch.setattr(qdyn, "_segment_kernel", refuse)
        for call in (
            lambda: gradient_ascent(system, grid, BASIS2, max_iters=value),
            lambda: basin_census(system, BASIS2, **census_plan(2), max_iters=value),
        ):
            with pytest.raises(ValueError, match="max_iters must be an integer >= 0"):
                call()

    def test_a_zero_step_ascent_is_classify_point(self):
        system = corner_system()
        start = ControlGrid.uniform_random(1.0, KAPPA, 3, 4, np.random.default_rng(3))
        trace = gradient_ascent(system, start, BASIS2, max_iters=0)
        assert (trace.iterations, trace.stop_reason) == (0, "max-iters")
        report = classify_point(system, start, BASIS2)
        assert np.array_equal(trace.terminal.location.values, report.location.values)
        assert dataclasses.replace(trace.terminal, location=start) == dataclasses.replace(
            report, location=start
        )

    @pytest.mark.parametrize(
        "kwargs,name",
        [
            ({"root_tol": 0.0}, "root_tol"),
            ({"root_tol": float("nan")}, "root_tol"),
            ({"merge_tol": float("nan")}, "merge_tol"),
            ({"merge_tol": -1e-6}, "merge_tol"),
            ({"merge_tol": float("inf")}, "merge_tol"),
        ],
    )
    def test_a_bad_census_tolerance_is_refused(self, kwargs, name):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            critical_value_census_1d(np.sin, np.cos, (0.0, 10.0), 101, **kwargs)

    def test_a_zero_merge_tolerance_keeps_every_value(self):
        census = critical_value_census_1d(np.sin, np.cos, (0.0, 10.0), 101, merge_tol=0.0)
        assert len(census.distinct_values) == len(set(census.critical_values))
