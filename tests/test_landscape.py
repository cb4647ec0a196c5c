import numpy as np
import pytest
from scipy.linalg import expm, expm_frechet
from scipy.optimize import lsq_linear

from landscape_lab import (
    ControlGrid,
    NumericalFault,
    QuantumSystem,
    TangentMap,
    active_set,
    assemble_segment_hamiltonian,
    boundary_cone_surjectivity,
    build_su_basis,
    gradient,
    kappa_threshold,
    local_surjectivity_rank,
    objective,
    objective_range,
    propagate,
    psi_tangent_map,
    unitary_objective_gradient,
)
from landscape_lab.qdyn import _divided_differences, _hamiltonian_stack, _segment_kernel

BASIS2 = build_su_basis(2)
SIGMA_X, SIGMA_Y, SIGMA_Z = BASIS2.elements
STATE_UP = (np.eye(2) + SIGMA_Z) / 2.0


def random_system(N, rng):
    X = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
    rho = X @ X.conj().T
    rho /= np.trace(rho).real
    O = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
    return QuantumSystem(N, rho, (O + O.conj().T) / 2.0)


def fd_gradient(system, grid, basis, h=1e-5):
    flat = grid.values.ravel()
    out = np.empty(flat.size)
    for r in range(flat.size):
        plus = flat.copy()
        plus[r] += h
        minus = flat.copy()
        minus[r] -= h
        jp = objective(
            system,
            propagate(grid.with_values(plus.reshape(grid.values.shape), validate=False), basis).total,
        )
        jm = objective(
            system,
            propagate(grid.with_values(minus.reshape(grid.values.shape), validate=False), basis).total,
        )
        out[r] = (jp - jm) / (2 * h)
    return out.reshape(grid.values.shape)


def corner_instance():
    """T=1, Z=4, kappa = pi/sqrt(3): the all-upper-bound trap configuration."""
    kappa = np.pi / np.sqrt(3.0)
    alpha = 2.0 * np.sqrt(3.0) * kappa
    obs = (
        np.sin(alpha + np.pi / 3) * SIGMA_X
        + np.sin(alpha - np.pi / 3) * SIGMA_Y
        + np.sin(alpha) * SIGMA_Z
    )
    system = QuantumSystem(2, STATE_UP, obs)
    grid = ControlGrid.constant(1.0, kappa, 3, 4, kappa)
    return system, grid


class TestQuantumSystem:
    def test_rejects_unnormalized_state(self):
        with pytest.raises(ValueError):
            QuantumSystem(2, np.eye(2), SIGMA_Z)

    def test_rejects_non_hermitian_observable(self):
        with pytest.raises(ValueError):
            QuantumSystem(2, STATE_UP, np.array([[0, 1], [0, 0]]))

    def test_rejects_negative_state(self):
        rho = np.diag([1.5, -0.5])
        with pytest.raises(ValueError):
            QuantumSystem(2, rho, SIGMA_Z)


class TestObjective:
    def test_identity_unitary(self):
        system = QuantumSystem(2, STATE_UP, SIGMA_Z)
        assert objective(system, np.eye(2)) == pytest.approx(1.0)

    def test_identity_observable_is_constant(self):
        rng = np.random.default_rng(1)
        system = QuantumSystem(2, STATE_UP, np.eye(2))
        for _ in range(5):
            U = propagate(ControlGrid.uniform_random(1.0, 2.0, 3, 3, rng), BASIS2).total
            assert objective(system, U) == pytest.approx(1.0, abs=1e-12)

    def test_corner_objective_vanishes(self):
        system, grid = corner_instance()
        assert abs(objective(system, propagate(grid, BASIS2).total)) < 1e-10

    def test_rejects_non_unitary(self):
        system = QuantumSystem(2, STATE_UP, SIGMA_Z)
        with pytest.raises(ValueError):
            objective(system, np.diag([1.0, 0.5]))


class TestObjectiveRange:
    def test_pure_state_pauli(self):
        r = objective_range(QuantumSystem(2, STATE_UP, SIGMA_Z))
        assert r.j_min == pytest.approx(-1.0)
        assert r.j_max == pytest.approx(1.0)

    def test_corner_instance_range(self):
        system, _ = corner_instance()
        r = objective_range(system)
        assert r.j_max == pytest.approx(np.sqrt(1.5), abs=1e-12)
        assert r.j_min == pytest.approx(-np.sqrt(1.5), abs=1e-12)

    def test_identity_observable(self):
        r = objective_range(QuantumSystem(2, STATE_UP, np.eye(2)))
        assert r.j_min == pytest.approx(1.0)
        assert r.j_max == pytest.approx(1.0)
        assert r.width == pytest.approx(0.0)

    def test_containment_on_random_draws(self):
        rng = np.random.default_rng(7)
        for N in (2, 3):
            basis = build_su_basis(N)
            system = random_system(N, rng)
            r = objective_range(system)
            for _ in range(100):
                grid = ControlGrid.uniform_random(1.0, 2.0, basis.size, 4, rng)
                J = objective(system, propagate(grid, basis).total)
                assert r.j_min - 1e-10 <= J <= r.j_max + 1e-10


class TestGradient:
    def test_identity_observable_zero_gradient(self):
        rng = np.random.default_rng(2)
        system = QuantumSystem(2, STATE_UP, np.eye(2))
        grid = ControlGrid.uniform_random(1.0, 1.0, 3, 4, rng)
        assert gradient(system, grid, BASIS2).norm < 1e-12

    @pytest.mark.parametrize("N,Z", [(2, 4), (3, 2)])
    def test_matches_finite_differences(self, N, Z):
        rng = np.random.default_rng(10 * N + Z)
        basis = build_su_basis(N)
        system = random_system(N, rng)
        grid = ControlGrid.uniform_random(1.3, 2.0, basis.size, Z, rng)
        g = gradient(system, grid, basis).values
        fd = fd_gradient(system, grid, basis)
        mask = np.abs(g) > 1e-8
        assert np.all(np.abs(g[mask] - fd[mask]) / np.abs(g[mask]) < 1e-6)

    def test_corner_gradient_points_outward(self):
        system, grid = corner_instance()
        g = gradient(system, grid, BASIS2).values
        assert np.min(g) >= -1e-10

    def test_dimension_mismatch(self):
        system = random_system(3, np.random.default_rng(0))
        with pytest.raises(ValueError):
            gradient(system, ControlGrid.zeros(1.0, 1.0, 3, 2), BASIS2)


class TestTangentMap:
    def test_zero_grid_single_segment_is_scaled_identity(self):
        T = 0.7
        tm = psi_tangent_map(ControlGrid.zeros(T, 1.0, 3, 1), BASIS2)
        np.testing.assert_allclose(tm.rows, -np.sqrt(2.0) * T * np.eye(3), atol=1e-12)

    def test_shape_and_row_order(self):
        grid = ControlGrid.zeros(0.5, 1.0, 3, 4)
        tm = psi_tangent_map(grid, BASIS2)
        assert tm.rows.shape == (12, 3)
        assert tm.dim == 2
        # at the zero grid every segment derivative is the same scaled basis
        # coordinate, so row (j, z) only depends on j
        for j in range(3):
            for z in range(4):
                np.testing.assert_allclose(
                    tm.rows[j * 4 + z], tm.rows[j * 4], atol=1e-12
                )

    def test_rows_reassemble_hermitian_traceless(self):
        rng = np.random.default_rng(4)
        grid = ControlGrid.uniform_random(1.0, 1.5, 3, 4, rng)
        tm = psi_tangent_map(grid, BASIS2)
        for r in range(tm.rows.shape[0]):
            M = tm.reassemble(BASIS2, r)
            assert np.max(np.abs(M - M.conj().T)) < 1e-10
            assert abs(np.trace(M)) < 1e-10

    def test_chain_rule_reproduces_gradient(self):
        rng = np.random.default_rng(21)
        for N in (2, 3):
            basis = build_su_basis(N)
            system = random_system(N, rng)
            grid = ControlGrid.uniform_random(0.9, 1.4, basis.size, 3, rng)
            tm = psi_tangent_map(grid, basis)
            G = unitary_objective_gradient(system, propagate(grid, basis).total, basis)
            chained = tm.rows @ G
            direct = gradient(system, grid, basis).values.ravel()
            assert np.max(np.abs(chained - direct)) < 1e-8

    def test_rejects_bad_column_count(self):
        with pytest.raises(ValueError):
            TangentMap(np.zeros((4, 5)))


def loop_reference(system, grid, basis):
    """Segment by segment, with scipy: U_z, dU_z/d eps_{j,z}, gradient, tangent rows."""
    dt, Z, n = grid.dt, grid.segments, basis.size
    units, dunits = [], []
    for z in range(1, Z + 1):
        X = -1j * dt * assemble_segment_hamiltonian(grid, z, basis)
        units.append(expm(X))
        dunits.append([expm_frechet(X, -1j * dt * B, compute_expm=False) for B in basis.elements])
    prefix = [np.eye(basis.dim, dtype=complex)]
    for U in units:
        prefix.append(U @ prefix[-1])
    total = prefix[-1]
    grad = np.empty((n, Z))
    rows = np.empty((n * Z, n))
    for z in range(Z):
        suffix = total @ np.linalg.inv(prefix[z + 1])
        for j in range(n):
            dU_T = suffix @ dunits[z][j] @ prefix[z]
            grad[j, z] = 2.0 * np.trace(
                system.observable @ dU_T @ system.rho0 @ total.conj().T
            ).real
            A = -1j * total.conj().T @ dU_T
            rows[j * Z + z] = [np.trace(B @ A).real / np.sqrt(2.0) for B in basis.elements]
    return np.array(units), dunits, grad, rows


class TestBatchedKernelAgainstLoop:
    @pytest.mark.parametrize("N,Z", [(2, 4), (3, 7), (4, 12)])
    def test_kernel_gradient_and_tangent_map_match_loop(self, N, Z):
        rng = np.random.default_rng(100 * N + Z)
        basis = build_su_basis(N)
        grid = ControlGrid.uniform_random(1.0, 1.0, basis.size, Z, rng)
        system = random_system(N, rng)
        units, dunits, grad, rows = loop_reference(system, grid, basis)

        lam, V, U = _segment_kernel(_hamiltonian_stack(grid, basis), grid.dt)
        K = _divided_differences(lam, grid.dt)
        np.testing.assert_allclose(U, units, atol=1e-13)
        for z in range(Z):
            Vh = V[z].conj().T
            for j, B in enumerate(basis.elements):
                dU = V[z] @ (K[z] * (Vh @ B @ V[z])) @ Vh
                np.testing.assert_allclose(dU, dunits[z][j], atol=1e-13)
        np.testing.assert_allclose(gradient(system, grid, basis).values, grad, atol=1e-13)
        np.testing.assert_allclose(psi_tangent_map(grid, basis).rows, rows, atol=1e-13)


class TestLocalSurjectivityRank:
    def test_zero_grid_full_rank(self):
        tm = psi_tangent_map(ControlGrid.zeros(1.0, 1.0, 3, 1), BASIS2)
        assert local_surjectivity_rank(tm) == (3, True)

    def test_single_row_not_surjective(self):
        tm = TangentMap(np.array([[1.0, 0.0, 0.0]]))
        assert local_surjectivity_rank(tm) == (1, False)

    def test_random_interior_grid_full_rank(self):
        rng = np.random.default_rng(13)
        grid = ControlGrid.uniform_random(1.0, 3.0, 3, 4, rng)
        tm = psi_tangent_map(grid, BASIS2)
        rank, surjective = local_surjectivity_rank(tm)
        assert rank == 3 and surjective

    def test_zero_rows_rank_zero(self):
        assert local_surjectivity_rank(TangentMap(np.zeros((2, 3)))) == (0, False)


class TestActiveSet:
    def test_detects_sides(self):
        vals = np.array([[1.0, 0.2], [-1.0, 0.0], [0.5, 1.0 - 1e-12]])
        grid = ControlGrid(1.0, 1.0, vals)
        act = active_set(grid)
        assert (0, 1, "+") in act
        assert (1, 1, "-") in act
        assert (2, 2, "+") in act
        assert len(act) == 3

    def test_interior_grid_empty(self):
        grid = ControlGrid.zeros(1.0, 1.0, 3, 2)
        assert active_set(grid) == []


class TestBoundaryConeSurjectivity:
    def test_interior_full_rank_reaches_everything(self):
        rng = np.random.default_rng(8)
        grid = ControlGrid.uniform_random(1.0, 3.0, 3, 4, rng)
        tm = psi_tangent_map(grid, BASIS2)
        surjective, witness = boundary_cone_surjectivity(grid, tm)
        assert surjective and witness is None

    def test_corner_grid_not_surjective(self):
        _, grid = corner_instance()
        tm = psi_tangent_map(grid, BASIS2)
        surjective, witness = boundary_cone_surjectivity(grid, tm)
        assert not surjective
        assert witness is not None
        assert np.linalg.norm(witness) == pytest.approx(1.0)

    def test_single_active_constraint_still_surjective(self):
        rng = np.random.default_rng(9)
        vals = rng.uniform(-0.6, 0.6, size=(3, 4))
        vals[0, 0] = 1.0
        grid = ControlGrid(1.0, 1.0, vals)
        tm = psi_tangent_map(grid, BASIS2)
        surjective, witness = boundary_cone_surjectivity(grid, tm)
        assert surjective and witness is None

    def test_shape_mismatch(self):
        grid = ControlGrid.zeros(1.0, 1.0, 3, 2)
        tm = psi_tangent_map(ControlGrid.zeros(1.0, 1.0, 3, 1), BASIS2)
        with pytest.raises(ValueError):
            boundary_cone_surjectivity(grid, tm)


def cone_residual(A, lb, ub, w):
    """|A d - w| at the sign-constrained least-squares fit d."""
    # The trust-region solver multiplies infinite bounds by zero on the way;
    # its answer is unaffected.
    with np.errstate(invalid="ignore"):
        fit = lsq_linear(A, w, bounds=(lb, ub))
    return float(np.linalg.norm(A @ fit.x - w))


def sampled_cone_test(grid, tm, samples=64, seed=0):
    """The sampled cone test the LP certificate replaced, kept as a reference.

    Returns (surjective, lb, ub): surjective is False when any of `samples`
    seeded unit directions lies farther than 1e-8 from the admissible cone.
    """
    A = tm.rows.T
    edge = grid.kappa - 1e-9 * grid.kappa
    vals = grid.values.ravel()
    lb = np.where(vals <= -edge, 0.0, -np.inf)
    ub = np.where(vals >= edge, 0.0, np.inf)
    rng = np.random.default_rng(seed)
    surjective = True
    for _ in range(samples):
        w = rng.standard_normal(A.shape[0])
        if cone_residual(A, lb, ub, w / np.linalg.norm(w)) > 1e-8:
            surjective = False
    return surjective, lb, ub


class TestConeCertificateAgainstSampling:
    def test_verdicts_and_witnesses_match_the_sampled_test(self):
        verdicts = []
        for N in (2, 3):
            basis = build_su_basis(N)
            for Z in range(1, 6):
                for s in range(3):
                    rng = np.random.default_rng([N, Z, s])
                    vals = rng.uniform(-0.9, 0.9, (basis.size, Z))
                    active = rng.random(vals.shape) < rng.random()
                    vals[active] = rng.choice([-1.0, 1.0], size=int(active.sum()))
                    grid = ControlGrid(1.0, 1.0, vals)
                    tm = psi_tangent_map(grid, basis)
                    surjective, witness = boundary_cone_surjectivity(grid, tm)
                    sampled, lb, ub = sampled_cone_test(grid, tm)
                    assert surjective == sampled, (N, Z, s)
                    if witness is not None:
                        assert cone_residual(tm.rows.T, lb, ub, witness) > 1e-8
                    verdicts.append(surjective)
        assert True in verdicts and False in verdicts


class TestKappaThreshold:
    def test_reference_value(self):
        thr = kappa_threshold(BASIS2, 1.0, 4)
        assert thr == pytest.approx(4.0 * np.pi / np.sqrt(3.0), rel=1e-12)
        assert thr == pytest.approx(7.255197456936871, rel=1e-12)

    def test_linear_in_segments(self):
        assert kappa_threshold(BASIS2, 1.0, 8) == pytest.approx(
            2.0 * kappa_threshold(BASIS2, 1.0, 4)
        )

    def test_inverse_in_horizon(self):
        assert kappa_threshold(BASIS2, 2.0, 4) == pytest.approx(
            0.5 * kappa_threshold(BASIS2, 1.0, 4)
        )

    def test_conservative_for_three_levels(self):
        # six pair generators of spread 2, diagonal ladder spreads 2 and
        # sqrt(3): total 14 + sqrt(3)
        thr = kappa_threshold(build_su_basis(3), 1.0, 4)
        assert thr == pytest.approx(8.0 * np.pi / (14.0 + np.sqrt(3.0)), rel=1e-12)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            kappa_threshold(BASIS2, 0.0, 4)
        with pytest.raises(ValueError):
            kappa_threshold(BASIS2, 1.0, 0)


class TestInteriorRegularity:
    def test_full_rank_and_interior_value_implies_nonzero_gradient(self):
        rng = np.random.default_rng(31)
        checked = 0
        for _ in range(20):
            system = random_system(2, rng)
            r = objective_range(system)
            grid = ControlGrid.uniform_random(1.0, 1.5, 3, 4, rng)
            rank, surjective = local_surjectivity_rank(psi_tangent_map(grid, BASIS2))
            J = objective(system, propagate(grid, BASIS2).total)
            margin = 1e-6 * max(1.0, r.width)
            if surjective and r.j_min + margin < J < r.j_max - margin:
                assert gradient(system, grid, BASIS2).norm > 1e-10
                checked += 1
        assert checked > 10
