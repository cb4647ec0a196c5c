import numpy as np
import pytest

from landscape_lab import (
    AscentSettings,
    AscentTrace,
    BasinSampler,
    CLASSIFICATIONS,
    ControlGrid,
    CriticalPointReport,
    NumericalFault,
    QuantumSystem,
    Tolerances,
    basin_census,
    build_su_basis,
    classify_point,
    critical_value_census_1d,
    finite_difference_hessian,
    gradient,
    gradient_ascent,
    objective,
    project_ascent_gradient,
    propagate,
)

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


class TestSettings:
    def test_tolerance_defaults(self):
        tol = Tolerances()
        assert tol.grad == 1e-8
        assert tol.root == 1e-10
        assert tol.merge == 1e-6
        assert tol.active == 1e-9
        assert tol.hess_step is None

    def test_hess_step_resolution(self):
        assert Tolerances().resolved_hess_step(2.0) == pytest.approx(2e-4)
        assert Tolerances().resolved_hess_step(0.0) == pytest.approx(1e-4)
        assert Tolerances(hess_step=0.01).resolved_hess_step(2.0) == 0.01

    def test_success_margin_resolution(self):
        assert AscentSettings().resolved_success_margin(2.0) == pytest.approx(2e-4)
        assert AscentSettings(success_margin=0.5).resolved_success_margin(2.0) == 0.5

    def test_classification_labels(self):
        assert len(CLASSIFICATIONS) == 7
        assert "boundary-trap-max" in CLASSIFICATIONS
        assert "regular" in CLASSIFICATIONS


class TestProjectAscentGradient:
    def test_zeros_outward_components_only(self):
        vals = np.array([[1.0, -1.0], [0.0, 1.0], [-1.0, 0.5]])
        grid = ControlGrid(1.0, 1.0, vals)
        g = np.array([[2.0, -3.0], [1.0, -1.0], [4.0, 2.0]])
        pg = project_ascent_gradient(grid, g, 1e-9)
        # (0,0): +kappa with positive g -> zeroed; (0,1): -kappa with
        # negative g -> zeroed; (1,1): +kappa with negative g -> kept;
        # (2,0): -kappa with positive g -> kept; interior untouched
        expected = np.array([[0.0, 0.0], [1.0, -1.0], [4.0, 2.0]])
        np.testing.assert_array_equal(pg, expected)

    def test_interior_grid_is_identity(self):
        grid = ControlGrid.zeros(1.0, 1.0, 3, 2)
        g = np.arange(6.0).reshape(3, 2) - 2.5
        np.testing.assert_array_equal(project_ascent_gradient(grid, g, 1e-9), g)


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


class TestHessian:
    def test_near_symmetric_on_smooth_instance(self):
        system, grid = random_instance(3)
        H = finite_difference_hessian(system, grid, BASIS2, list(range(12)), 1.5e-4)
        assert np.max(np.abs(H - H.T)) < 1e-5

    def test_rejects_bad_step(self):
        system, grid = random_instance(3)
        with pytest.raises(ValueError):
            finite_difference_hessian(system, grid, BASIS2, [0], 0.0)


class TestAscentTrace:
    def test_rejects_decreasing_objective(self):
        rep = classify_point(corner_system(), corner_grid(), BASIS2)
        with pytest.raises(NumericalFault):
            AscentTrace(((0, 1.0, 0.1), (1, 0.5, 0.0)), True, rep)

    def test_rejects_empty_trace(self):
        rep = classify_point(corner_system(), corner_grid(), BASIS2)
        with pytest.raises(ValueError):
            AscentTrace((), True, rep)


class TestGradientAscent:
    def test_start_at_global_max_converges_immediately(self):
        system = QuantumSystem(2, STATE_UP, SIGMA_Z)
        trace = gradient_ascent(system, ControlGrid.zeros(1.0, 1.0, 3, 4), BASIS2)
        assert trace.converged
        assert trace.iterations == 0
        assert trace.j_terminal == pytest.approx(1.0, abs=1e-8)
        assert trace.terminal.classification == "interior-max"

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

    def test_every_census_run_at_the_max_converges(self):
        sampler = BasinSampler(count=40, seed=0, kappa=KAPPA, segments=4, horizon=1.0)
        res = basin_census(corner_system(), BASIS2, sampler)
        at_max = [r for r in res.runs if r.j_terminal >= np.sqrt(1.5) - 1e-10]
        assert at_max
        for run in at_max:
            assert run.converged, run
            assert run.classification in ("interior-max", "boundary-trap-max"), run

    def test_monotone_trace(self):
        system, grid = random_instance(11)
        trace = gradient_ascent(system, grid, BASIS2)
        js = [j for (_, j, _) in trace.iterates]
        assert all(b >= a for a, b in zip(js, js[1:]))
        assert trace.iterates[0][0] == 0


class TestBasinCensus:
    def test_degenerate_range_reports_zero(self):
        system = QuantumSystem(2, STATE_UP, np.eye(2))
        sampler = BasinSampler(count=4, seed=1, kappa=1.0, segments=2, horizon=1.0)
        res = basin_census(system, BASIS2, sampler)
        assert res.trapped_fraction == 0.0
        assert res.success_margin == 0.0

    def test_run_fields_are_consistent(self):
        sampler = BasinSampler(count=6, seed=3, kappa=KAPPA, segments=4, horizon=1.0)
        res = basin_census(corner_system(), BASIS2, sampler)
        assert 0.0 <= res.trapped_fraction <= 1.0
        assert res.j_max == pytest.approx(np.sqrt(1.5), abs=1e-12)
        for i, run in enumerate(res.runs):
            assert run.index == i
            assert run.seed == 3 + i
            assert run.classification in CLASSIFICATIONS
            assert run.trapped == (run.j_terminal < res.j_max - res.success_margin)

    def test_rejects_empty_plan(self):
        with pytest.raises(ValueError):
            BasinSampler(count=0, seed=1, kappa=1.0, segments=2, horizon=1.0)


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
            Tolerances(merge=3.0),
        )
        assert len(res.critical_points) > 2
        assert len(res.distinct_values) == 1

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            critical_value_census_1d(np.sin, np.cos, (1.0, 1.0), 100)
        with pytest.raises(ValueError):
            critical_value_census_1d(np.sin, np.cos, (0.0, 1.0), 1)
