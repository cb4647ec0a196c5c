import dataclasses
import tracemalloc

import numpy as np
import pytest
from scipy.optimize import lsq_linear

from landscape_lab import cli, counterexamples, qdyn, traps
from landscape_lab import (
    BoundaryTrapInstance,
    ControlGrid,
    NumericalFault,
    QuantumSystem,
    analytic2d_trap_free_scan,
    boundary_cone_surjectivity,
    build_su_basis,
    corner_escape_analysis,
    gradient,
    kappa_threshold,
    objective,
    propagate,
    psi_tangent_map,
    slice_census_2d,
    slice_critical_points,
    trap_initial_state,
    trap_observable,
)

KAPPA = np.pi / np.sqrt(3.0)
BASIS2 = build_su_basis(2)
SIGMA_X, SIGMA_Y, SIGMA_Z = BASIS2.elements


def reference_instance():
    return BoundaryTrapInstance(1.0, 4, KAPPA)


class TestInstanceConstruction:
    def test_reference_parameters(self):
        inst = reference_instance()
        assert inst.alpha == pytest.approx(2.0 * np.pi, abs=1e-14)
        # at alpha = 2 pi the observable reduces to (sqrt(3)/2)(s1 - s2)
        expected = (np.sqrt(3.0) / 2.0) * (SIGMA_X - SIGMA_Y)
        assert np.max(np.abs(inst.system.observable - expected)) < 1e-12
        np.testing.assert_allclose(inst.system.rho0, trap_initial_state())
        assert np.all(inst.grid.values == KAPPA)

    def test_observable_coefficients(self):
        alpha = 0.9
        obs = trap_observable(alpha)
        coeffs = [np.trace(obs @ s).real / 2.0 for s in (SIGMA_X, SIGMA_Y, SIGMA_Z)]
        assert coeffs == pytest.approx(
            [np.sin(alpha + np.pi / 3), np.sin(alpha - np.pi / 3), np.sin(alpha)]
        )

    def test_segment_duration_condition_rejects_single_segment(self):
        # alpha = 2 pi equals 2 pi Z exactly at Z = 1, which is not allowed
        with pytest.raises(ValueError):
            BoundaryTrapInstance(1.0, 1, KAPPA)

    def test_segment_duration_condition_at_the_kappa_threshold(self):
        thr = kappa_threshold(BASIS2, 1.0, 4)
        inst = BoundaryTrapInstance(1.0, 4, np.nextafter(thr, 0))
        assert inst.alpha < 8.0 * np.pi
        with pytest.raises(ValueError, match="segment duration"):
            BoundaryTrapInstance(1.0, 4, thr)

    @pytest.mark.parametrize(
        "T,kappa,message",
        [(np.inf, 1.0, "horizon must be positive"), (1.0, 1e308, "segment duration")],
    )
    def test_bad_inputs_raise_one_value_error_and_no_warning(self, T, kappa, message):
        # Warnings are errors under the test settings, so a numpy overflow
        # or invalid-value warning would surface here instead.
        with pytest.raises(ValueError, match=message):
            BoundaryTrapInstance(T, 4, kappa)

    def test_zero_bound_is_a_valid_degenerate_instance(self):
        inst = BoundaryTrapInstance(1.0, 4, 0.0)
        assert inst.alpha == 0.0
        assert np.all(inst.grid.values == 0.0)

    def test_tampered_observable_rejected(self):
        inst = reference_instance()
        other = QuantumSystem(2, trap_initial_state(), SIGMA_Z)
        with pytest.raises(ValueError):
            dataclasses.replace(inst, system=other)

    def test_tampered_grid_rejected(self):
        inst = reference_instance()
        off_corner = ControlGrid.zeros(1.0, KAPPA, 3, 4)
        with pytest.raises(ValueError):
            dataclasses.replace(inst, grid=off_corner)

    def test_inconsistent_alpha_rejected(self):
        inst = reference_instance()
        with pytest.raises(ValueError):
            dataclasses.replace(inst, alpha=1.0)


class TestCornerPropagator:
    def test_corner_unitary_is_minus_identity(self):
        inst = reference_instance()
        U = propagate(inst.grid, BASIS2).total
        assert np.max(np.abs(U + np.eye(2))) < 1e-10


class TestTrapVerification:
    def test_corner_is_a_first_order_trap(self):
        inst = reference_instance()
        v = corner_escape_analysis(inst.system, inst.grid, BASIS2, 1000, 1e-3 * KAPPA, 42)
        assert v.is_trap
        assert abs(v.j_at_corner) < 1e-10
        assert v.j_global_max == pytest.approx(np.sqrt(1.5), abs=1e-12)
        assert v.max_inward_gain <= 1e-10
        assert v.gradient_norm_at_corner == pytest.approx(
            1.185447061057284, abs=1e-9
        )
        assert v.trap_order == 1

    def test_kkt_margin_is_the_least_outward_component(self):
        # Every control of the corner is at +kappa, so the outward
        # components are the gradient's entries, all positive: a strict
        # constrained maximum by first order alone.
        inst = reference_instance()
        v = corner_escape_analysis(inst.system, inst.grid, BASIS2, 100, 1e-3 * KAPPA, 42)
        g = gradient(inst.system, inst.grid, BASIS2).values
        assert v.kkt_margin == float(np.min(g)) > 0.0
        assert v.kkt_margin == pytest.approx(0.037632, abs=5e-7)
        # At -kappa the outward component is -dJ/d eps; an interior grid has none.
        flipped = ControlGrid.constant(1.0, KAPPA, 3, 4, -KAPPA)
        w = corner_escape_analysis(inst.system, flipped, BASIS2, 10, 1e-3 * KAPPA, 1)
        assert w.kkt_margin == float(np.min(-gradient(inst.system, flipped, BASIS2).values))
        inner = ControlGrid.constant(1.0, KAPPA, 3, 4, 0.5)
        assert corner_escape_analysis(inst.system, inner, BASIS2, 10, 1e-3, 1).kkt_margin is None

    @pytest.mark.parametrize(
        "T,Z,kappa,signs",
        [
            (1.0, 4, KAPPA, None),
            (1.0, 3, 0.5, None),
            (0.7, 4, 1.1, [[1, -1, 1, -1], [-1, -1, 1, 1], [1, 1, -1, 1]]),
        ],
    )
    def test_the_corner_is_evaluated_in_one_kernel_pass(self, monkeypatch, T, Z, kappa, signs):
        inst = BoundaryTrapInstance(T, Z, kappa)
        grid = inst.grid if signs is None else ControlGrid(T, kappa, kappa * np.array(signs))
        # The reference: J, the gradient, the total and the cone verdict,
        # each down its own public path.
        U_ref = propagate(grid, BASIS2).total
        j_ref = objective(inst.system, U_ref)
        g_ref = gradient(inst.system, grid, BASIS2)
        cone_ref, w_ref = boundary_cone_surjectivity(grid, psi_tangent_map(grid, BASIS2))
        at_upper, at_lower = grid.values > 0.0, grid.values < 0.0
        outward = np.concatenate([g_ref.values[at_upper], -g_ref.values[at_lower]])
        passes = self.spy_kernel(monkeypatch)
        v = corner_escape_analysis(inst.system, grid, BASIS2, 1000, 1e-3 * kappa, 4)
        # One pass for the corner, one for the 1000 probes.
        assert passes == [(1, Z, 2, 2), (1000, Z, 2, 2)]
        assert type(v.is_trap) is bool
        assert type(v.j_at_corner) is float
        assert v.j_at_corner == j_ref
        assert v.gradient_norm_at_corner == np.linalg.norm(g_ref.values)
        assert v.kkt_margin == float(outward.min())
        assert np.array(v.corner_unitary).tobytes() == U_ref.tobytes()
        assert v.cone_surjective is cone_ref
        if w_ref is None:
            assert v.witness is None
        else:
            assert type(v.witness) is tuple
            assert np.array(v.witness).tobytes() == w_ref.tobytes()

    @staticmethod
    def spy_kernel(monkeypatch):
        """Record the shape of every segment-kernel call from now on."""
        real, passes = qdyn._segment_kernel, []

        def spy(H, dt):
            passes.append(H.shape)
            return real(H, dt)

        monkeypatch.setattr(qdyn, "_segment_kernel", spy)
        return passes

    @pytest.mark.parametrize(
        "argv,Z,samples",
        [
            ([], 4, 1000),
            (["--Z", "3", "--kappa", "0.5", "--samples", "200", "--seed", "3"], 3, 200),
        ],
    )
    def test_the_command_makes_one_pass_for_the_corner_and_one_for_the_probes(
        self, monkeypatch, tmp_path, argv, Z, samples
    ):
        passes = self.spy_kernel(monkeypatch)
        out = tmp_path / "ce.json"
        assert cli.main(["ce-boundary", *argv, "--output", str(out)]) == 0
        assert passes == [(1, Z, 2, 2), (samples, Z, 2, 2)]

    @pytest.mark.parametrize("kappa", [0.8, 0.85, 0.95, 1.0, 1.05, 1.6])
    def test_a_corner_with_an_inward_ascent_ray_is_no_trap(self, kappa):
        # The probes miss the escape here: every probe loses J. But a
        # negative outward component names a control whose inward move alone
        # raises J to first order.
        inst = BoundaryTrapInstance(1.0, 4, kappa)
        v = corner_escape_analysis(inst.system, inst.grid, BASIS2, 1000, 1e-3 * kappa, 0)
        assert v.max_inward_gain <= 1e-10
        assert v.j_at_corner < v.j_global_max - 1e-6
        assert v.kkt_margin < 0.0
        assert v.is_trap is False
        assert v.trap_order is None
        g = gradient(inst.system, inst.grid, BASIS2).values
        ray = inst.grid.values.copy()
        ray[np.unravel_index(np.argmin(g), g.shape)] -= 1e-3 * kappa
        gain = objective(inst.system, propagate(inst.grid.with_values(ray), BASIS2).total)
        assert gain > v.j_at_corner

    def test_at_a_zero_bound_no_move_is_admissible_and_the_corner_stays_a_trap(self):
        # Every control sits at both bounds, so no move is admissible, though
        # the outward components include negative ones.
        inst = BoundaryTrapInstance(1.0, 4, 0.0)
        v = corner_escape_analysis(inst.system, inst.grid, BASIS2, 100, 1e-3, 0)
        assert v.kkt_margin < 0.0
        assert v.is_trap is True
        assert v.trap_order == 1

    def test_inward_gain_shrinks_with_radius(self):
        inst = reference_instance()
        big = corner_escape_analysis(inst.system, inst.grid, BASIS2, 500, 1e-3 * KAPPA, 42)
        small = corner_escape_analysis(inst.system, inst.grid, BASIS2, 500, 1e-4 * KAPPA, 42)
        assert big.max_inward_gain < 0.0
        assert abs(small.max_inward_gain) <= abs(big.max_inward_gain) + 1e-12

    def test_seeded_verification_is_reproducible(self):
        inst = reference_instance()
        a = corner_escape_analysis(inst.system, inst.grid, BASIS2, 300, 1e-3 * KAPPA, 5)
        b = corner_escape_analysis(inst.system, inst.grid, BASIS2, 300, 1e-3 * KAPPA, 5)
        assert a == b

    def test_plain_observable_corner_is_no_trap(self):
        # with observable s3 the corner propagator -I leaves rho0 fixed, so
        # the corner already attains the global maximum
        inst = reference_instance()
        system = QuantumSystem(2, trap_initial_state(), SIGMA_Z)
        v = corner_escape_analysis(system, inst.grid, BASIS2, 200, 1e-3 * KAPPA, 7)
        assert not v.is_trap
        assert v.j_at_corner == pytest.approx(v.j_global_max, abs=1e-10)
        assert v.trap_order is None

    def test_corner_with_an_inward_escape_is_no_trap(self):
        # at kappa 0.5 the corner sits below the maximum but an inward probe gains
        inst = BoundaryTrapInstance(1.0, 4, 0.5)
        v = corner_escape_analysis(inst.system, inst.grid, BASIS2, 200, 5e-4, 3)
        assert v.max_inward_gain > 1e-10
        assert v.j_at_corner < v.j_global_max - 1e-6
        assert v.is_trap is False
        assert type(v.max_inward_gain) is float
        assert v.trap_order is None

    @staticmethod
    def zero_probe_block(monkeypatch, probe):
        """Make every seeded generator's normal stream read 0 on the 12 values
        of the given probe's block, however the stream is chunked."""
        real_rng, start = np.random.default_rng, 12 * probe

        class ZeroBlock:
            def __init__(self, seed):
                self.rng, self.drawn = real_rng(seed), 0

            def standard_normal(self, size):
                v = self.rng.standard_normal(size=size)
                flat = v.reshape(-1)
                lo = max(start - self.drawn, 0)
                flat[lo:max(start + 12 - self.drawn, 0)] = 0.0
                self.drawn += flat.size
                return v

        monkeypatch.setattr(np.random, "default_rng", ZeroBlock)

    def assert_matches_a_per_probe_loop(self, monkeypatch):
        inst = reference_instance()
        grid, seed, radius = inst.grid, 42, 1e-3 * KAPPA
        j_corner = objective(inst.system, propagate(grid, BASIS2).total)
        rng = np.random.default_rng(seed)
        gains, perts = [], []
        for _ in range(1000):
            v = rng.standard_normal(size=grid.values.shape)
            d = -np.abs(v) * (radius / np.linalg.norm(v))  # every control sits at +kappa
            pert = grid.with_values(np.clip(grid.values + d, -KAPPA, KAPPA))
            perts.append(pert.values)
            gains.append(objective(inst.system, propagate(pert, BASIS2).total) - j_corner)
        stacks = []
        real_evaluated = counterexamples._evaluated

        def spy(system, values, dt, basis):
            stacks.append(values)
            return real_evaluated(system, values, dt, basis)

        monkeypatch.setattr(counterexamples, "_evaluated", spy)
        v = corner_escape_analysis(inst.system, grid, BASIS2, 1000, radius, seed)
        # The first pass is the corner's; the probe blocks follow in stream order.
        assert np.array_equal(stacks[0], grid.values[None])
        assert np.array_equal(np.concatenate(stacks[1:]), np.array(perts))
        assert v.max_inward_gain == max(gains)
        assert v.max_inward_gain <= 1e-10
        return v, [len(s) for s in stacks[1:]]

    def test_batched_probes_match_a_per_probe_loop(self, monkeypatch):
        self.assert_matches_a_per_probe_loop(monkeypatch)

    @pytest.mark.parametrize("probe", [0, 299, 500])
    def test_a_zero_probe_is_a_fault(self, monkeypatch, probe):
        # A draw of norm 0 has no direction to scale to the radius.
        inst = reference_instance()
        self.zero_probe_block(monkeypatch, probe)
        monkeypatch.setattr(qdyn, "BLOCK_BYTES", 300 * 16 * 4 * 2 * 2)
        with pytest.raises(NumericalFault, match="norm 0"):
            corner_escape_analysis(inst.system, inst.grid, BASIS2, 1000, 1e-3 * KAPPA, 42)

    def test_probe_blocks_give_the_record_of_one_block(self, monkeypatch):
        # The probes are the first 1000 draws of the stream, in blocks of 300.
        inst = reference_instance()
        one = corner_escape_analysis(inst.system, inst.grid, BASIS2, 1000, 1e-3 * KAPPA, 42)
        monkeypatch.setattr(qdyn, "BLOCK_BYTES", 300 * 16 * 4 * 2 * 2)
        v, sizes = self.assert_matches_a_per_probe_loop(monkeypatch)
        assert sizes == [300, 300, 300, 100]
        assert repr(v) == repr(one)

    def test_probe_memory_does_not_grow_with_the_sample_count(self):
        inst = reference_instance()
        tracemalloc.start()
        try:
            corner_escape_analysis(inst.system, inst.grid, BASIS2, 20000, 1e-3 * KAPPA, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    def test_escape_analysis_argument_errors(self):
        inst = reference_instance()
        with pytest.raises(ValueError):
            corner_escape_analysis(inst.system, inst.grid, BASIS2, 0, 1e-3, 1)
        with pytest.raises(ValueError):
            corner_escape_analysis(inst.system, inst.grid, BASIS2, 10, 0.0, 1)


class TestCornerConeGeometry:
    def test_axis_directions_unreachable_but_diagonal_reachable(self):
        # first-order reachable directions at the corner are A @ delta with
        # every delta component <= 0 (all controls sit at +kappa)
        inst = reference_instance()
        tm = psi_tangent_map(inst.grid, BASIS2)
        A = tm.rows.T
        lb = np.full(12, -np.inf)
        ub = np.zeros(12)

        def residual(w):
            sol = lsq_linear(A, np.asarray(w, dtype=float), bounds=(lb, ub))
            return float(np.linalg.norm(A @ sol.x - np.asarray(w, dtype=float)))

        for axis in ([1, 0, 0], [0, 1, 0], [0, 0, 1]):
            assert residual(axis) == pytest.approx(0.067150001323206, abs=1e-9)
            assert residual([-a for a in axis]) == pytest.approx(
                0.963064352650488, abs=1e-9
            )
        diag = [1.0 / np.sqrt(2.0), 1.0 / np.sqrt(2.0), 0.0]
        assert residual(diag) < 1e-10


class TestAnalytic2DEval:
    def test_origin_and_balanced_point_vanish(self):
        assert counterexamples._eval_raw(0.0, 0.0) == 0.0
        assert abs(counterexamples._eval_raw(np.pi / 4, 0.0)) < 1e-15

    def test_odd_symmetry(self):
        rng = np.random.default_rng(17)
        lim = np.pi / 2.0 - 0.15
        for _ in range(1000):
            e1, e2 = rng.uniform(-lim, lim, size=2)
            plus = counterexamples._eval_raw(e1, e2)
            minus = counterexamples._eval_raw(-e1, -e2)
            assert abs(plus + minus) < 1e-12


class TestAnalytic2DGradient:
    def test_value_at_origin(self):
        d1, d2 = counterexamples._grad_raw(0.0, 0.0)
        assert d1 == pytest.approx(-2.0 / np.pi, abs=1e-15)
        assert d2 == pytest.approx(1.0 / np.pi, abs=1e-15)

    def test_matches_high_order_finite_differences(self):
        rng = np.random.default_rng(23)
        h = 3e-5
        lim = np.pi / 2.0 - 0.15

        def stencil(g, x):
            return (g(x - 2 * h) - 8 * g(x - h) + 8 * g(x + h) - g(x + 2 * h)) / (
                12 * h
            )

        worst = 0.0
        for _ in range(1000):
            e1, e2 = rng.uniform(-(lim - 2 * h), lim - 2 * h, size=2)
            d1, d2 = counterexamples._grad_raw(e1, e2)
            fd1 = stencil(lambda x: counterexamples._eval_raw(x, e2), e1)
            fd2 = stencil(lambda x: counterexamples._eval_raw(e1, x), e2)
            worst = max(worst, abs(d1 - fd1), abs(d2 - fd2))
        assert worst < 1e-8

    def test_first_partial_vanishes_on_critical_curves(self):
        for e2 in (-1.2, -0.3, 0.0, 0.7, 1.3):
            root = np.sqrt(np.cos(e2) / 3.0)
            for e1 in (np.arctan(root), np.arctan(-root)):
                d1, _ = counterexamples._grad_raw(e1, e2)
                assert abs(d1) < 1e-13


class TestSliceCriticalPoints:
    def test_central_slice_closed_form(self):
        rec = slice_critical_points(0.0)
        assert rec.max_location == pytest.approx(-np.pi / 6.0, abs=1e-15)
        assert rec.min_location == pytest.approx(np.pi / 6.0, abs=1e-15)
        assert rec.max_value == pytest.approx(
            4.0 / (3.0 * np.sqrt(3.0) * np.pi), abs=1e-12
        )
        assert rec.min_value == pytest.approx(-rec.max_value, abs=1e-12)

    def test_every_slice_max_strictly_above_min(self):
        for c in np.linspace(-1.4, 1.4, 29):
            rec = slice_critical_points(float(c))
            assert rec.max_value > rec.min_value
            assert rec.max_location < 0.0 < rec.min_location

    def test_domain_error(self):
        with pytest.raises(ValueError):
            slice_critical_points(np.pi / 2.0)


def scalar_slice_roots(c, margin, grid_points):
    """One slice's census as a bracket-by-bracket scalar loop: the reference
    for the lockstep bisection of all slices."""
    lim = np.pi / 2.0 - margin
    xs = np.linspace(-lim, lim, grid_points)
    ds = np.array([counterexamples._grad_raw(x, c)[0] for x in xs])
    roots = []
    for i in np.flatnonzero(ds[:-1] * ds[1:] < 0.0):
        lo, hi, dlo = float(xs[i]), float(xs[i + 1]), ds[i]
        for _ in range(200):
            if hi - lo <= 4.0 * np.finfo(float).eps * max(1.0, abs(lo), abs(hi)):
                break
            mid = 0.5 * (lo + hi)
            dmid = float(counterexamples._grad_raw(mid, c)[0])
            if dmid == 0.0:
                lo = hi = mid
                break
            if (dmid > 0.0) == (dlo > 0.0):
                lo, dlo = mid, dmid
            else:
                hi = mid
        roots.append(0.5 * (lo + hi))
    return np.array(roots)


def patch_last_slice(monkeypatch, name, change):
    """Replace counterexamples.<name> so that on the slice c = 0.8 alone its
    first output f becomes change(f, e1)."""
    real = getattr(counterexamples, name)

    def patched(e1, e2):
        out = real(e1, e2)
        first = out[0] if isinstance(out, tuple) else out
        first = np.where(np.asarray(e2) == 0.8, change(first, e1), first)
        return (first,) + out[1:] if isinstance(out, tuple) else first

    monkeypatch.setattr(counterexamples, name, patched)


class TestSliceCensus2D:
    def test_sweep_covers_range_and_is_continuous(self):
        census = slice_census_2d(-1.4, 1.4, 101)
        c_values = [rec.c for rec in census]
        assert len(c_values) == 101
        assert c_values[0] == pytest.approx(-1.4)
        assert c_values[-1] == pytest.approx(1.4)
        maxima = [rec.max_value for rec in census]
        jumps = np.abs(np.diff(maxima))
        assert jumps.max() < 10.0 * (2.8 / 100.0)

    def test_odd_symmetry_between_opposite_slices(self):
        census = slice_census_2d(-1.4, 1.4, 101)
        for rec_c, rec_mc in zip(census, reversed(census)):
            assert rec_c.max_value + rec_mc.min_value == pytest.approx(0.0, abs=1e-12)
            assert rec_c.max_location + rec_mc.min_location == pytest.approx(
                0.0, abs=1e-12
            )

    def test_verified_sweep_agrees_with_independent_census(self):
        census = slice_census_2d(-0.8, 0.8, 9, verify=True)
        assert len(census) == 9

    def test_lockstep_roots_match_slice_by_slice_bisection(self, monkeypatch):
        # Criterion 4's 101 slices: the one lockstep bisection must give every
        # root the bits of the scalar census that bisected one slice at a time.
        real, calls = traps._bisect, []

        def spy(*args):
            calls.append(real(*args))
            return calls[-1]

        monkeypatch.setattr(traps, "_bisect", spy)
        census = slice_census_2d(-1.4, 1.4, 101, margin=0.15, verify=True)
        assert len(calls) == 1
        reference = np.concatenate([
            scalar_slice_roots(rec.c, 0.15, 1001) for rec in census
        ])
        assert reference.size == 202
        assert calls[0].tobytes() == reference.tobytes()

    def test_third_sign_change_on_one_slice_is_a_fault(self, monkeypatch):
        patch_last_slice(monkeypatch, "_grad_raw", lambda d1, e1: d1 * (e1 - 1.25))
        with pytest.raises(NumericalFault, match=r"slice c=0\.8 census found 3"):
            slice_census_2d(-0.8, 0.8, 9, verify=True)

    def test_third_root_on_a_grid_node_is_a_fault(self, monkeypatch):
        # The same third critical point, placed on node 900 of the check
        # grid, where the derivative is exactly 0.
        lim = np.pi / 2.0 - counterexamples.DEFAULT_MARGIN
        xs = np.linspace(-lim, lim, counterexamples.SLICE_VERIFY_GRID_POINTS)
        patch_last_slice(monkeypatch, "_grad_raw", lambda d1, e1: d1 * (e1 - xs[900]))
        with pytest.raises(NumericalFault, match=r"slice c=0\.8 census found 3"):
            slice_census_2d(-0.8, 0.8, 9, verify=True)

    def test_jump_left_above_the_root_tolerance_is_a_fault(self, monkeypatch):
        patch_last_slice(monkeypatch, "_grad_raw", lambda d1, e1: np.sign(d1))
        with pytest.raises(NumericalFault, match=r"slice c=0\.8: bisection left"):
            slice_census_2d(-0.8, 0.8, 9, verify=True)

    def test_disagreement_with_the_closed_form_is_a_fault(self, monkeypatch):
        patch_last_slice(monkeypatch, "_eval_raw", lambda f, e1: f + 1e-6)
        with pytest.raises(NumericalFault, match=r"slice c=0\.8: census extremum"):
            slice_census_2d(-0.8, 0.8, 9, verify=True)

    def test_non_finite_derivative_grid_is_rejected(self, monkeypatch):
        patch_last_slice(monkeypatch, "_grad_raw", lambda d1, e1: d1 + np.nan)
        with pytest.raises(ValueError, match="not finite on the grid"):
            slice_census_2d(-0.8, 0.8, 9, verify=True)

    def test_argument_errors(self):
        with pytest.raises(ValueError):
            slice_census_2d(0.0, 1.0, 0)
        with pytest.raises(ValueError):
            slice_census_2d(1.0, 0.0, 5)
        with pytest.raises(ValueError):
            slice_census_2d(-2.0, 0.0, 5)


class TestTrapFreeScan:
    def test_no_interior_critical_point_at_grid_scale(self):
        scan = analytic2d_trap_free_scan(100)
        assert scan.min_grad_norm > 0.05
        lim = np.pi / 2.0 - 0.15
        assert abs(scan.argmin_e1) <= lim
        assert abs(scan.argmin_e2) <= lim

    def test_finer_grid_agrees(self):
        coarse = analytic2d_trap_free_scan(10)
        assert coarse.min_grad_norm > 0.05

    def test_rejects_too_coarse_grid(self):
        with pytest.raises(ValueError):
            analytic2d_trap_free_scan(9)

    @pytest.mark.parametrize("steps", [400, 10])
    def test_axis_broadcast_keeps_the_meshgrid_bits(self, steps):
        lim = np.pi / 2.0 - counterexamples.DEFAULT_MARGIN
        axis = np.linspace(-lim, lim, steps)
        E1, E2 = np.meshgrid(axis, axis, indexing="ij")
        norms = np.hypot(*counterexamples._grad_raw(E1, E2))
        i, j = np.unravel_index(int(np.argmin(norms)), norms.shape)
        scan = analytic2d_trap_free_scan(steps)
        assert scan.min_grad_norm == float(norms[i, j])
        assert scan.argmin_e1 == float(axis[i])
        assert scan.argmin_e2 == float(axis[j])

    def test_d2_floor_holds_on_both_branches_of_the_d1_zero_set(self):
        floor = analytic2d_trap_free_scan(10).d2_floor_on_d1_zeros
        assert floor == pytest.approx(0.0903, abs=5e-5)
        c = np.linspace(-np.pi / 2.0, np.pi / 2.0, 200001)[1:-1]
        root = np.sqrt(np.cos(c) / 3.0)
        for t in (root, -root):
            d1, d2 = counterexamples._grad_raw(np.arctan(t), c)
            assert np.max(np.abs(d1 * np.cos(np.arctan(t)) ** 2)) < 1e-14
            assert np.min(d2) >= floor
            # the bound drops sec^2(c/2) >= 1; without that term it is tight,
            # reached where cos^2 c = 1/3
            relaxed = (2.0 / np.pi) * (0.5 + t * np.sin(c))
            assert np.min(relaxed) >= floor - 1e-15
            assert np.min(relaxed) == pytest.approx(floor, abs=1e-10)
            k = np.argmin(relaxed)
            assert np.cos(c[k]) ** 2 == pytest.approx(1.0 / 3.0, abs=1e-4)
