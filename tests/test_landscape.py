import numpy as np
import pytest
from scipy.linalg import expm, expm_frechet
from scipy.optimize import linprog, lsq_linear

from landscape_lab import (
    ControlGrid,
    NumericalFault,
    QuantumSystem,
    TangentMap,
    boundary_cone_surjectivity,
    build_su_basis,
    gradient,
    kappa_threshold,
    local_surjectivity_rank,
    objective,
    objective_range,
    propagate,
    psi_tangent_map,
)
from landscape_lab import landscape, qdyn
from landscape_lab.landscape import _active_entries, _at_bounds, _gradient_from
from landscape_lab.qdyn import (
    _blocks,
    _divided_differences,
    _hamiltonian_stack,
    _propagated,
    _segment_kernel,
)

BASIS2 = build_su_basis(2)
SIGMA_X, SIGMA_Y, SIGMA_Z = BASIS2.elements
STATE_UP = (np.eye(2) + SIGMA_Z) / 2.0


def random_system(N, rng):
    X = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
    rho = X @ X.conj().T
    rho /= np.trace(rho).real
    O = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
    return QuantumSystem(N, rho, (O + O.conj().T) / 2.0)


def probe_grid(grid, flat):
    """grid's horizon with the given values, bounded by their own largest size."""
    v = flat.reshape(grid.values.shape)
    return ControlGrid(grid.horizon, float(np.max(np.abs(v))), v)


def fd_gradient(system, grid, basis, h=1e-5):
    flat = grid.values.ravel()
    out = np.empty(flat.size)
    for r in range(flat.size):
        plus = flat.copy()
        plus[r] += h
        minus = flat.copy()
        minus[r] -= h
        jp = objective(system, propagate(probe_grid(grid, plus), basis).total)
        jm = objective(system, propagate(probe_grid(grid, minus), basis).total)
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

    @pytest.mark.parametrize("which", ["rho0", "observable"])
    def test_rejects_nan_entries(self, which):
        args = {"rho0": STATE_UP, "observable": SIGMA_Z, which: np.full((2, 2), np.nan)}
        with pytest.raises(ValueError, match="is not Hermitian"):
            QuantumSystem(2, **args)


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

    def test_nan_unitary_is_a_fault(self):
        system = QuantumSystem(2, STATE_UP, SIGMA_Z)
        with pytest.raises(NumericalFault, match="propagator is not finite"):
            objective(system, np.full((2, 2), np.nan))


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
        assert np.linalg.norm(gradient(system, grid, BASIS2).values) < 1e-12

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
            # Row r as the su(N) matrix sum_k rows[r, k] B_k / sqrt(2).
            M = np.tensordot(tm.rows[r] / np.sqrt(2.0), BASIS2.stack, axes=1)
            assert np.max(np.abs(M - M.conj().T)) < 1e-10
            assert abs(np.trace(M)) < 1e-10

    def test_chain_rule_reproduces_gradient(self):
        # Tangent rows paired with the gradient of phi(U) = Tr[O U rho0 U^dag]
        # in left su(N) coordinates, Tr[(B_k/sqrt(2)) i[rho0, U^dag O U]].
        rng = np.random.default_rng(21)
        for N in (2, 3):
            basis = build_su_basis(N)
            system = random_system(N, rng)
            grid = ControlGrid.uniform_random(0.9, 1.4, basis.size, 3, rng)
            tm = psi_tangent_map(grid, basis)
            U = propagate(grid, basis).total
            M = U.conj().T @ system.observable @ U
            comm = 1j * (system.rho0 @ M - M @ system.rho0)
            G = np.einsum("kab,ba->k", basis.stack, comm).real / np.sqrt(2.0)
            chained = tm.rows @ G
            direct = gradient(system, grid, basis).values.ravel()
            assert np.max(np.abs(chained - direct)) < 1e-8

    def test_rejects_bad_column_count(self):
        with pytest.raises(ValueError):
            TangentMap(np.zeros((4, 5)))


def unblocked_tangent_rows(grid, basis):
    """The tangent map's rows with a block bound so large that the whole grid
    is one block: the reference the blocked build must match."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(qdyn, "BLOCK_BYTES", 1 << 60)
        assert len(_blocks(grid.segments, basis.size, basis.dim)) == 1
        lam, V, P = _propagated(grid.values, grid.dt, basis)
        rows = landscape._tangent_map_rows(lam, V, P, grid.dt, basis)
    return rows.reshape(-1, basis.size)


def tangent_blocks(basis, Z):
    """The segment counts of psi_tangent_map's blocks on a Z-segment grid."""
    return [len(range(Z)[b]) for b in _blocks(Z, basis.size, basis.dim)]


class TestBlockedTangentMap:
    @pytest.mark.parametrize(
        "N,Z,blocks",
        [(8, 20, [4] * 5), (4, 100, [68, 32]), (8, 7, [4, 3]), (2, 4, [4])],
    )
    def test_rows_are_bitwise_those_of_the_whole_grid(self, N, Z, blocks):
        basis = build_su_basis(N)
        assert tangent_blocks(basis, Z) == blocks
        grid = ControlGrid.uniform_random(1.0, 1.0, basis.size, Z, np.random.default_rng(N * Z))
        np.testing.assert_array_equal(
            psi_tangent_map(grid, basis).rows, unblocked_tangent_rows(grid, basis)
        )

    @pytest.mark.parametrize("N,Z,K,blocks", [(8, 20, 3, 20), (2, 4, 10, 1)])
    def test_a_stack_of_grids_has_each_grids_rows(self, N, Z, K, blocks):
        # A block counts the matrices of every grid: 3 grids at N = 8 take
        # one segment a block, and 10 qubit grids (a census block) are one.
        basis = build_su_basis(N)
        assert len(_blocks(Z, basis.size * K, N)) == blocks
        values = np.random.default_rng(K).uniform(-1.0, 1.0, (K, basis.size, Z))
        lam, V, P = _propagated(values, 1.0 / Z, basis)
        stack = landscape._tangent_map_rows(lam, V, P, 1.0 / Z, basis)
        for k in range(K):
            alone = landscape._tangent_map_rows(lam[k], V[k], P[k], 1.0 / Z, basis)
            np.testing.assert_array_equal(stack[k], alone)

    def test_a_nan_in_a_later_block_names_its_segment(self, monkeypatch):
        # At N = 8 a block holds 4 segments; prefix P_13 enters only segment
        # 14, in the fourth block.
        basis = build_su_basis(8)
        grid = ControlGrid.uniform_random(1.0, 1.0, basis.size, 20, np.random.default_rng(0))
        real = landscape._propagated

        def poisoned(*args):
            lam, V, P = real(*args)
            P[13, 0, 0] = np.nan
            return lam, V, P

        monkeypatch.setattr(landscape, "_propagated", poisoned)
        with pytest.raises(NumericalFault, match=r"tangent row \(0, 14\) is not Hermitian"):
            psi_tangent_map(grid, basis)


class TestCheckedPropagation:
    # gradient and psi_tangent_map take their eigenpairs and prefix products
    # from the checked _propagated, so a segment unitary off by a part in
    # 1e9 is a fault, not a number.
    @pytest.fixture
    def off_segment(self, monkeypatch):
        real = qdyn._segment_kernel

        def kernel(H, dt):
            lam, V, U = real(H, dt)
            U = U.copy()
            U[..., 2, :, :] *= 1.0 + 1e-9
            return lam, V, U

        monkeypatch.setattr(qdyn, "_segment_kernel", kernel)

    @pytest.mark.usefixtures("off_segment")
    @pytest.mark.parametrize("N,Z", [(2, 4), (8, 20)])
    def test_gradient_and_tangent_map_fault_on_a_non_unitary_segment(self, N, Z):
        basis = build_su_basis(N)
        grid = ControlGrid.uniform_random(1.0, 1.0, basis.size, Z, np.random.default_rng(Z))
        system = random_system(N, np.random.default_rng(N))
        fault = r"segment unitary 2 failed the unitarity check"
        with pytest.raises(NumericalFault, match=fault):
            gradient(system, grid, basis)
        with pytest.raises(NumericalFault, match=fault):
            psi_tangent_map(grid, basis)


class TestDegenerateSpectra:
    # Every segment Hamiltonian has a repeated eigenvalue: 0 three times on
    # the zero grid, and a, a, -2a when only the diagonal generator
    # diag(1, 1, -2) / sqrt(3) is nonzero.
    @pytest.mark.parametrize("diagonal", [(0.0, 0.0, 0.0), (0.3, -0.7, 1.1)])
    def test_gradient_and_tangent_map(self, diagonal):
        basis = build_su_basis(3)
        values = np.zeros((8, 3))
        values[7] = diagonal
        grid = ControlGrid(1.0, 1.5, values)
        system = random_system(3, np.random.default_rng(5))
        g = gradient(system, grid, basis).values
        assert np.max(np.abs(g - fd_gradient(system, grid, basis))) <= 1e-8
        tm = psi_tangent_map(grid, basis)
        assert local_surjectivity_rank(tm) == (8, True)
        U = propagate(grid, basis).total
        M = U.conj().T @ system.observable @ U
        comm = 1j * (system.rho0 @ M - M @ system.rho0)
        G = np.einsum("kab,ba->k", basis.stack, comm).real / np.sqrt(2.0)
        assert np.max(np.abs(tm.rows @ G - g.ravel())) < 1e-12


class TestGlobalPhase:
    def test_objective_ignores_a_global_phase(self):
        rng = np.random.default_rng(8)
        for N in (2, 3):
            basis = build_su_basis(N)
            system = random_system(N, rng)
            grid = ControlGrid.uniform_random(1.0, 1.5, basis.size, 4, rng)
            U = propagate(grid, basis).total
            J = objective(system, U)
            for phi in (0.3, np.pi / 2, 2.0, np.pi, -1.0):
                J_phase = objective(system, np.exp(1j * phi) * U)
                assert abs(J_phase - J) <= 4 * np.finfo(float).eps


def loop_reference(system, grid, basis):
    """Segment by segment, with scipy: U_z, dU_z/d eps_{j,z}, gradient, tangent rows."""
    dt, Z, n = grid.dt, grid.segments, basis.size
    units, dunits = [], []
    for z in range(1, Z + 1):
        X = -1j * dt * np.tensordot(grid.values[:, z - 1], basis.stack, axes=1)
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

        lam, V, U = _segment_kernel(_hamiltonian_stack(grid.values, basis), grid.dt)
        K = _divided_differences(lam, grid.dt)
        np.testing.assert_allclose(U, units, atol=1e-13)
        for z in range(Z):
            Vh = V[z].conj().T
            for j, B in enumerate(basis.elements):
                dU = V[z] @ (K[z] * (Vh @ B @ V[z])) @ Vh
                np.testing.assert_allclose(dU, dunits[z][j], atol=1e-13)
        np.testing.assert_allclose(gradient(system, grid, basis).values, grad, atol=1e-13)
        np.testing.assert_allclose(psi_tangent_map(grid, basis).rows, rows, atol=1e-13)


class TestStackInvariance:
    @pytest.mark.parametrize("N", [3, 4, 8])
    def test_a_grids_gradient_is_the_same_alone_and_in_any_stack(self, N):
        # A BLAS product over all rows would round with the row count.
        basis = build_su_basis(N)
        rng = np.random.default_rng(N)
        system = random_system(N, rng)
        stack = rng.uniform(-1.0, 1.0, (3000, basis.size, 2))

        def gradients(values):
            lam, V, P = _propagated(values, 0.5, basis)
            return _gradient_from(system, lam, V, P, 0.5, basis)

        big, seven = gradients(stack), gradients(stack[:7])
        for k in range(7):
            alone = gradient(system, ControlGrid(1.0, 1.0, stack[k]), basis).values
            np.testing.assert_array_equal(seven[k], alone)
            np.testing.assert_array_equal(big[k], alone)


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


def with_singular_values(s, m, n, seed=0):
    """A TangentMap whose m x n rows have the singular values s (at most n)."""
    rng = np.random.default_rng(seed)
    left = np.linalg.qr(rng.standard_normal((m, len(s))))[0]
    right = np.linalg.qr(rng.standard_normal((n, n)))[0][: len(s)]
    return TangentMap(left @ np.diag(s) @ right)


class TestGramCertificate:
    # Each rank is compared with the SVD count it stands in for.
    @staticmethod
    def svd_rank(tm):
        s = np.linalg.svd(tm.rows, compute_uv=False)
        return int(np.sum(s > landscape.RANK_TOL * s.max(initial=0.0)))

    @staticmethod
    def _no_svd(*args, **kwargs):
        raise AssertionError("the rank took an SVD")

    def test_a_well_conditioned_map_is_certified_without_an_svd(self, monkeypatch):
        tm = with_singular_values(np.linspace(2.0, 0.5, 15), 60, 15)
        assert self.svd_rank(tm) == 15
        monkeypatch.setattr(np.linalg, "svd", self._no_svd)
        assert landscape._certified_full_rank(tm.rows)
        assert local_surjectivity_rank(tm) == (15, True)

    @pytest.mark.parametrize("ratio,rank", [(1e-7, 15), (1e-10, 14)])
    def test_an_ill_conditioned_map_falls_back_to_the_svd(self, ratio, rank):
        tm = with_singular_values(np.r_[np.linspace(2.0, 1.0, 14), 2.0 * ratio], 60, 15)
        assert not landscape._certified_full_rank(tm.rows)
        assert self.svd_rank(tm) == rank
        assert local_surjectivity_rank(tm) == (rank, rank == 15)

    def test_fewer_rows_than_columns(self):
        tm = with_singular_values(np.linspace(2.0, 1.0, 5), 5, 8)
        assert not landscape._certified_full_rank(tm.rows)
        assert local_surjectivity_rank(tm) == (self.svd_rank(tm), False) == (5, False)

    def test_all_zero_rows(self):
        tm = TangentMap(np.zeros((30, 8)))
        assert not landscape._certified_full_rank(tm.rows)
        assert local_surjectivity_rank(tm) == (self.svd_rank(tm), False) == (0, False)


class TestActiveSet:
    def test_detects_sides(self):
        vals = np.array([[1.0, 0.2], [-1.0, 0.0], [0.5, 1.0 - 1e-12]])
        grid = ControlGrid(1.0, 1.0, vals)
        act = _active_entries(*_at_bounds(grid.values, grid.kappa))
        assert (0, 1, "+") in act
        assert (1, 1, "-") in act
        assert (2, 2, "+") in act
        assert len(act) == 3

    def test_interior_grid_empty(self):
        grid = ControlGrid.zeros(1.0, 1.0, 3, 2)
        assert _active_entries(*_at_bounds(grid.values, grid.kappa)) == []


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


def variation_bounds(grid):
    """(lb, ub): each control's one-sided bounds on its variation, flattened
    like the grid's values, with infinite sides where it is free."""
    edge = grid.kappa - 1e-9 * grid.kappa
    vals = grid.values.ravel()
    return np.where(vals <= -edge, 0.0, -np.inf), np.where(vals >= edge, 0.0, np.inf)


def sampled_cone_test(grid, tm, samples=64, seed=0):
    """The sampled cone test the LP certificate replaced, kept as a reference.

    Returns (surjective, lb, ub): surjective is False when any of `samples`
    seeded unit directions lies farther than 1e-8 from the admissible cone.
    """
    A = tm.rows.T
    lb, ub = variation_bounds(grid)
    rng = np.random.default_rng(seed)
    surjective = True
    for _ in range(samples):
        w = rng.standard_normal(A.shape[0])
        if cone_residual(A, lb, ub, w / np.linalg.norm(w)) > 1e-8:
            surjective = False
    return surjective, lb, ub


def _full_cone_lp(grid, tm):
    """The cone test as one HiGHS LP per target +-e_k of su(N), each over all
    the controls with their one-sided bounds, kept as a reference for the
    rank, certificate and quotient steps that replaced it. Returns the
    verdict."""
    A = tm.rows.T
    n = A.shape[0]
    bounds = list(zip(*variation_bounds(grid)))
    for target in np.concatenate([np.eye(n), -np.eye(n)]):
        fit = linprog(np.zeros(A.shape[1]), A_eq=A, b_eq=target, bounds=bounds, method="highs")
        if fit.status == 2:
            return False
        assert fit.status == 0, fit.message
    return True


class TestQuotientConeLP:
    # N = 2, Z = 2 with one free control: its single row spans at most a line
    # of su(2), so rank F < 3 and the cone is decided in a quotient of
    # dimension 2, where no certificate settles either grid.
    @pytest.mark.parametrize(
        "signs,expected",
        [([[1.0], [-1.0, 1.0], [-1.0, -1.0]], False), ([[1.0], [1.0, -1.0], [-1.0, -1.0]], True)],
    )
    def test_rank_deficient_free_rows_run_the_quotient_lp(self, monkeypatch, signs, expected):
        vals = np.array([[-0.25] + signs[0], signs[1], signs[2]])
        grid = ControlGrid(1.0, 1.0, vals)
        tm = psi_tangent_map(grid, BASIS2)
        assert local_surjectivity_rank(TangentMap(tm.rows[:1])) == (1, False)
        calls = []

        def counting(*args, **kwargs):
            calls.append(kwargs["A_eq"].shape)
            return linprog(*args, **kwargs)

        monkeypatch.setattr(landscape, "linprog", counting)
        surjective, witness = boundary_cone_surjectivity(grid, tm)
        assert calls and all(shape == (2, 5) for shape in calls)
        assert surjective is expected
        assert surjective == _full_cone_lp(grid, tm)
        if witness is not None:
            assert np.linalg.norm(witness) == pytest.approx(1.0, abs=1e-12)
            assert abs(tm.rows[0] @ witness) < 1e-12
            assert cone_residual(tm.rows.T, *variation_bounds(grid), witness) > 1e-8


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
                    assert surjective == _full_cone_lp(grid, tm), (N, Z, s)
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

    @pytest.mark.parametrize("N", [2, 3])
    def test_a_threshold_that_overflows_names_the_horizon(self, N):
        with pytest.raises(ValueError, match=r"horizon 1e-320 is too short"):
            kappa_threshold(build_su_basis(N), 1e-320, 4)


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
                assert np.linalg.norm(gradient(system, grid, BASIS2).values) > 1e-10
                checked += 1
        assert checked > 10
