import mpmath
import numpy as np
import pytest
from scipy.linalg import expm
from scipy.linalg import expm_frechet as scipy_expm_frechet

from landscape_lab import (
    BasisSet,
    ControlGrid,
    NumericalFault,
    PropagationResult,
    assemble_segment_hamiltonian,
    build_su_basis,
    propagate,
)
from landscape_lab.qdyn import _divided_differences, _segment_kernel

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def random_hermitian(n, rng):
    M = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (M + M.conj().T) / 2.0


def kernel_step(H, dt):
    """exp(-i H dt) from the batched segment kernel, for one Hamiltonian."""
    return _segment_kernel(np.asarray(H, dtype=complex)[None], dt)[2][0]


def kernel_frechet(H, dt, D):
    """d/ds exp(-i (H + s D) dt) at s = 0 from the kernel's eigenbasis and table."""
    lam, V, _ = _segment_kernel(np.asarray(H, dtype=complex)[None], dt)
    V, K = V[0], _divided_differences(lam, dt)[0]
    return V @ (K * (V.conj().T @ D @ V)) @ V.conj().T


def scipy_frechet(H, dt, D):
    return scipy_expm_frechet(-1j * dt * H, -1j * dt * D, compute_expm=False)


class TestBuildSuBasis:
    def test_n2_is_pauli_triple(self):
        basis = build_su_basis(2)
        assert basis.size == 3
        np.testing.assert_allclose(basis.elements[0], SIGMA_X, atol=1e-15)
        np.testing.assert_allclose(basis.elements[1], SIGMA_Y, atol=1e-15)
        np.testing.assert_allclose(basis.elements[2], SIGMA_Z, atol=1e-15)

    def test_pauli_self_overlap(self):
        basis = build_su_basis(2)
        assert np.trace(basis.elements[0] @ basis.elements[0]).real == pytest.approx(2.0)

    @pytest.mark.parametrize("N", [2, 3, 4, 5])
    def test_orthogonality(self, N):
        basis = build_su_basis(N)
        assert len(basis.elements) == N * N - 1
        gram = np.einsum("iab,jba->ij", basis.stack, basis.stack)
        np.testing.assert_allclose(gram, 2.0 * np.eye(basis.size), atol=1e-12)

    @pytest.mark.parametrize("N", [2, 3, 4])
    def test_hermitian_traceless(self, N):
        for B in build_su_basis(N).elements:
            assert np.max(np.abs(B - B.conj().T)) < 1e-14
            assert abs(np.trace(B)) < 1e-14

    @pytest.mark.parametrize("N", [1, 0, -3])
    def test_rejects_small_dimension(self, N):
        with pytest.raises(ValueError):
            build_su_basis(N)

    def test_basis_set_rejects_non_hermitian(self):
        bad = [np.array(B) for B in build_su_basis(2).elements]
        bad[0] = np.array([[0, 1], [0, 0]], dtype=complex)
        with pytest.raises(ValueError):
            BasisSet(2, tuple(bad))

    def test_basis_set_rejects_wrong_count(self):
        elems = build_su_basis(2).elements
        with pytest.raises(ValueError):
            BasisSet(2, elems[:2])


class TestControlGrid:
    def test_basic_properties(self):
        grid = ControlGrid(2.0, 1.0, np.zeros((3, 4)))
        assert grid.segments == 4
        assert grid.num_controls == 3
        assert grid.dt == pytest.approx(0.5)
        assert grid.segment_bounds(1) == (0.0, 0.5)
        assert grid.segment_bounds(4) == (pytest.approx(1.5), 2.0)

    def test_bound_violation_rejected(self):
        with pytest.raises(ValueError):
            ControlGrid(1.0, 0.5, np.full((3, 2), 0.6))

    def test_bound_violation_allowed_when_unvalidated(self):
        grid = ControlGrid(1.0, 0.5, np.full((3, 2), 0.6), validate=False)
        assert np.all(grid.values == 0.6)

    @pytest.mark.parametrize("horizon", [0.0, -1.0, np.inf])
    def test_bad_horizon(self, horizon):
        with pytest.raises(ValueError):
            ControlGrid(horizon, 1.0, np.zeros((3, 1)))

    def test_nonfinite_values_rejected(self):
        vals = np.zeros((3, 2))
        vals[1, 1] = np.nan
        with pytest.raises(ValueError):
            ControlGrid(1.0, 1.0, vals)

    def test_segment_index_out_of_range(self):
        grid = ControlGrid.zeros(1.0, 1.0, 3, 2)
        with pytest.raises(ValueError):
            grid.segment_bounds(0)
        with pytest.raises(ValueError):
            grid.segment_bounds(3)

    def test_values_are_read_only(self):
        grid = ControlGrid.zeros(1.0, 1.0, 3, 2)
        with pytest.raises(ValueError):
            grid.values[0, 0] = 0.3


class TestAssembleSegmentHamiltonian:
    def test_all_at_bound_gives_pauli_sum(self):
        kappa = 0.7
        grid = ControlGrid.constant(1.0, kappa, 3, 4, kappa)
        H = assemble_segment_hamiltonian(grid, 2, build_su_basis(2))
        np.testing.assert_allclose(H, kappa * (SIGMA_X + SIGMA_Y + SIGMA_Z), atol=1e-15)

    def test_zero_grid_gives_zero(self):
        grid = ControlGrid.zeros(1.0, 1.0, 3, 2)
        H = assemble_segment_hamiltonian(grid, 1, build_su_basis(2))
        assert np.max(np.abs(H)) == 0.0

    def test_single_component(self):
        vals = np.zeros((3, 2))
        vals[2, 0] = 1.0
        grid = ControlGrid(1.0, 1.0, vals)
        H = assemble_segment_hamiltonian(grid, 1, build_su_basis(2))
        np.testing.assert_allclose(H, SIGMA_Z, atol=1e-15)

    def test_index_and_shape_errors(self):
        grid = ControlGrid.zeros(1.0, 1.0, 3, 2)
        with pytest.raises(ValueError):
            assemble_segment_hamiltonian(grid, 5, build_su_basis(2))
        with pytest.raises(ValueError):
            assemble_segment_hamiltonian(grid, 1, build_su_basis(3))


class TestExpmStep:
    def test_zero_hamiltonian(self):
        np.testing.assert_allclose(kernel_step(np.zeros((3, 3)), 0.8), np.eye(3), atol=1e-15)

    def test_pauli_sum_half_turn(self):
        # exp(-i theta n.sigma) = cos(theta) I - i sin(theta) n.sigma; at
        # theta = pi only the -I term survives.
        kappa = 0.9
        dt = np.pi / (np.sqrt(3.0) * kappa)
        H = kappa * (SIGMA_X + SIGMA_Y + SIGMA_Z)
        U = kernel_step(H, dt)
        np.testing.assert_allclose(U, -np.eye(2), atol=1e-12)
        np.testing.assert_allclose(U, expm(-1j * dt * H), atol=1e-14)

    def test_diagonal_case(self):
        U = kernel_step(SIGMA_Z, np.pi / 2.0)
        np.testing.assert_allclose(U, np.diag([np.exp(-1j * np.pi / 2), np.exp(1j * np.pi / 2)]), atol=1e-15)

    def test_rejects_non_hermitian(self):
        stack = np.stack([SIGMA_Z, np.array([[0.0, 1.0], [0.0, 0.0]])])
        with pytest.raises(ValueError):
            _segment_kernel(stack, 0.1)

    def test_rejects_negative_dt(self):
        with pytest.raises(ValueError):
            _segment_kernel(SIGMA_Z[None], -0.1)

    def test_unitary_on_random_inputs(self):
        rng = np.random.default_rng(5)
        for n in (2, 3, 5):
            H = random_hermitian(n, rng)
            U = kernel_step(H, 0.37)
            assert np.linalg.norm(U.conj().T @ U - np.eye(n)) < 1e-12
            np.testing.assert_allclose(U, expm(-0.37j * H), atol=1e-13)


class TestExpmFrechet:
    def test_commuting_limit(self):
        H = np.diag([1.0, -1.0]).astype(complex)
        D = np.diag([2.0, 3.0]).astype(complex)
        dt = 0.3
        expected = -1j * dt * D @ expm(-1j * dt * H)
        np.testing.assert_allclose(kernel_frechet(H, dt, D), expected, atol=1e-14)
        np.testing.assert_allclose(scipy_frechet(H, dt, D), expected, atol=1e-14)

    def test_degenerate_branch_at_zero(self):
        D = SIGMA_X + 0.5 * SIGMA_Z
        F = kernel_frechet(np.zeros((2, 2)), 0.7, D)
        np.testing.assert_allclose(F, -1j * 0.7 * D, atol=1e-14)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_matches_finite_difference(self, n):
        rng = np.random.default_rng(n)
        H = random_hermitian(n, rng)
        D = random_hermitian(n, rng)
        dt = 0.41
        h = 1e-5
        fd = (kernel_step(H + h * D, dt) - kernel_step(H - h * D, dt)) / (2 * h)
        F = kernel_frechet(H, dt, D)
        assert np.max(np.abs(F - fd)) / np.max(np.abs(F)) < 1e-6
        np.testing.assert_allclose(F, scipy_frechet(H, dt, D), atol=1e-13)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            _segment_kernel(np.zeros((2, 2)), 0.1)
        with pytest.raises(ValueError):
            _segment_kernel(np.zeros((1, 2, 3)), 0.1)

    def test_shared_eigendecomposition_variant_agrees(self):
        # One batched call over a stack equals scipy, segment by segment,
        # for the unitaries and for derivatives along several directions.
        rng = np.random.default_rng(17)
        Hs = np.stack([random_hermitian(3, rng) for _ in range(5)])
        dirs = np.stack([random_hermitian(3, rng) for _ in range(4)])
        lam, V, U = _segment_kernel(Hs, 0.23)
        K = _divided_differences(lam, 0.23)
        for z in range(5):
            np.testing.assert_allclose(U[z], expm(-0.23j * Hs[z]), atol=1e-13)
            for D in dirs:
                dU = V[z] @ (K[z] * (V[z].conj().T @ D @ V[z])) @ V[z].conj().T
                np.testing.assert_allclose(dU, scipy_frechet(Hs[z], 0.23, D), atol=1e-13)


def mpmath_frechet_of_diagonal(h, dt, D):
    """Exact d/ds exp(-i (diag(h) + s D) dt), entry (a, b) = D_ab f[h_a, h_b], at 50 digits."""
    out = np.empty(D.shape, dtype=complex)
    with mpmath.workdps(50):
        x = [mpmath.mpf(float(v)) for v in h]
        f = [mpmath.exp(-1j * v * dt) for v in x]
        for a in range(len(h)):
            for b in range(len(h)):
                if x[a] == x[b]:
                    dd = -1j * dt * f[a]
                else:
                    dd = (f[a] - f[b]) / (x[a] - x[b])
                out[a, b] = complex(dd * mpmath.mpc(complex(D[a, b])))
    return out


class TestDividedDifferences:
    @pytest.mark.parametrize("gap", [10.0**k for k in range(-11, 1)])
    @pytest.mark.parametrize("rotated", [False, True])
    def test_near_degenerate_matches_mpmath(self, gap, rotated):
        # Eigenvalues 0.7 and 0.7 + gap: the difference quotient
        # (f(a) - f(b)) / (a - b) cancels to ~1e-16 / gap, the sinc form not.
        rng = np.random.default_rng(0)
        D = random_hermitian(3, rng)
        h = np.array([0.7, 0.7 + gap, -1.3])
        ref = mpmath_frechet_of_diagonal(h, 1.0, D)
        H = np.diag(h).astype(complex)
        if rotated:
            Q, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
            H, D, ref = (Q @ M @ Q.conj().T for M in (H, D, ref))
        F = kernel_frechet(H, 1.0, D)
        assert np.max(np.abs(F - ref)) / np.max(np.abs(ref)) <= 1e-14

    def test_table_is_symmetric(self):
        lam = np.array([[-0.4, 0.1, 0.1 + 1e-12, 2.0]])
        K = _divided_differences(lam, 0.6)
        np.testing.assert_array_equal(K, K.transpose(0, 2, 1))


class TestPropagate:
    def test_zero_grid_identity(self):
        grid = ControlGrid.zeros(1.0, 1.0, 3, 4)
        prop = propagate(grid, build_su_basis(2))
        np.testing.assert_allclose(prop.total, np.eye(2), atol=1e-14)

    def test_corner_grid_gives_minus_identity(self):
        # All controls at +kappa make each segment a rotation by the same
        # axis; at kappa = pi/sqrt(3), T = 1 the full turn lands on -I.
        kappa = np.pi / np.sqrt(3.0)
        grid = ControlGrid.constant(1.0, kappa, 3, 4, kappa)
        prop = propagate(grid, build_su_basis(2))
        assert np.max(np.abs(prop.total + np.eye(2))) < 1e-10

    def test_equal_segments_match_single_step(self):
        rng = np.random.default_rng(3)
        vals = np.tile(rng.uniform(-1, 1, size=(3, 1)), (1, 6))
        grid = ControlGrid(1.2, 1.0, vals)
        basis = build_su_basis(2)
        H = assemble_segment_hamiltonian(grid, 1, basis)
        np.testing.assert_allclose(propagate(grid, basis).total, expm(-1.2j * H), atol=1e-12)

    def test_group_composition(self):
        rng = np.random.default_rng(11)
        basis = build_su_basis(2)
        vals = rng.uniform(-1, 1, size=(3, 8))
        full = propagate(ControlGrid(2.0, 1.0, vals), basis).total
        first = propagate(ControlGrid(1.0, 1.0, vals[:, :4]), basis).total
        second = propagate(ControlGrid(1.0, 1.0, vals[:, 4:]), basis).total
        np.testing.assert_allclose(second @ first, full, atol=1e-12)

    @pytest.mark.parametrize("N,Z", [(2, 4), (3, 3)])
    def test_unitarity_and_determinant_on_random_grids(self, N, Z):
        rng = np.random.default_rng(N * 100 + Z)
        basis = build_su_basis(N)
        eye = np.eye(N)
        for _ in range(500):
            grid = ControlGrid.uniform_random(0.9, 1.5, basis.size, Z, rng)
            prop = propagate(grid, basis)
            for U in prop.segment_unitaries:
                assert np.linalg.norm(U.conj().T @ U - eye) < 1e-12
            assert np.linalg.norm(prop.total.conj().T @ prop.total - eye) < 1e-12
            assert abs(np.linalg.det(prop.total) - 1.0) < 1e-10

    def test_frechet_chain_rule_against_propagation(self):
        # Perturbing one eps_{j,z} perturbs only that segment's factor.
        rng = np.random.default_rng(29)
        basis = build_su_basis(2)
        grid = ControlGrid.uniform_random(1.1, 1.3, 3, 4, rng)
        j, z = 1, 3
        dt = grid.dt
        F = kernel_frechet(
            assemble_segment_hamiltonian(grid, z, basis), dt, basis.elements[j]
        )
        segs = propagate(grid, basis).segment_unitaries
        before = np.eye(2, dtype=complex)
        for U in segs[: z - 1]:
            before = U @ before
        after = np.eye(2, dtype=complex)
        for U in segs[z:]:
            after = U @ after
        analytic = after @ F @ before
        h = 1e-5
        plus = np.array(grid.values)
        plus[j, z - 1] += h
        minus = np.array(grid.values)
        minus[j, z - 1] -= h
        fd = (
            propagate(grid.with_values(plus, validate=False), basis).total
            - propagate(grid.with_values(minus, validate=False), basis).total
        ) / (2 * h)
        assert np.max(np.abs(analytic - fd)) / np.max(np.abs(analytic)) < 1e-6

    def test_result_rejects_wrong_total(self):
        grid = ControlGrid.zeros(1.0, 1.0, 3, 2)
        prop = propagate(grid, build_su_basis(2))
        with pytest.raises(NumericalFault):
            PropagationResult(prop.segment_unitaries, -np.eye(2))

    def test_result_rejects_non_unitary_segment(self):
        with pytest.raises(NumericalFault):
            PropagationResult((np.diag([1.0, 0.5]),), np.diag([1.0, 0.5]))
