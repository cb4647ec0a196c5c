"""Control objective, analytic landscape gradient, and local-surjectivity tests.

The central object is the end-point map psi: control grid -> U_T in SU(N).
This module evaluates J = Tr[O_hat U_T rho0 U_T^dag], differentiates J exactly
through the piecewise-constant propagator, expresses the differential of psi
in left-translated orthonormal su(N) coordinates, and decides whether that
differential is surjective, including the one-sided (cone) case when controls
sit at the amplitude bound.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .qdyn import (
    BasisSet,
    ControlGrid,
    NumericalFault,
    _blocks,
    _dagger,
    _divided_differences,
    _hamiltonian_stack,
    _horizon_propagators,
    _ordered_products,
    _segment_kernel,
)

__all__ = [
    "QuantumSystem",
    "ObjectiveRange",
    "LandscapeGradient",
    "TangentMap",
    "objective",
    "objective_range",
    "gradient",
    "psi_tangent_map",
    "local_surjectivity_rank",
    "active_set",
    "boundary_cone_surjectivity",
    "kappa_threshold",
]

SYSTEM_TOL = 1e-12
OBJECTIVE_UNITARITY_TOL = 1e-10
OBJECTIVE_IMAG_TOL = 1e-10
TANGENT_ROW_TOL = 1e-10
RANK_TOL = 1e-8
ACTIVE_TOL = 1e-9
CONE_RESIDUAL_TOL = 1e-8

# scipy.optimize.linprog, bound on first use by boundary_cone_surjectivity:
# importing scipy.optimize takes most of the package's import time, and only
# the cone test needs it.
linprog = None


def _frozen(a: np.ndarray) -> np.ndarray:
    out = np.array(a)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class QuantumSystem:
    """Initial density matrix and measured observable of an N-level system."""

    dim: int
    rho0: np.ndarray
    observable: np.ndarray

    def __post_init__(self):
        if self.dim < 2:
            raise ValueError(f"dimension must be >= 2, got {self.dim}")
        rho = np.asarray(self.rho0, dtype=complex)
        obs = np.asarray(self.observable, dtype=complex)
        shape = (self.dim, self.dim)
        if rho.shape != shape or obs.shape != shape:
            raise ValueError(
                f"expected {shape} matrices, got rho0 {rho.shape}, "
                f"observable {obs.shape}"
            )
        if np.max(np.abs(rho - rho.conj().T)) > SYSTEM_TOL:
            raise ValueError("rho0 is not Hermitian")
        if np.max(np.abs(obs - obs.conj().T)) > SYSTEM_TOL:
            raise ValueError("observable is not Hermitian")
        if abs(np.trace(rho).real - 1.0) > SYSTEM_TOL or abs(np.trace(rho).imag) > SYSTEM_TOL:
            raise ValueError(f"Tr rho0 = {np.trace(rho)}, expected 1")
        if np.min(np.linalg.eigvalsh(rho)) < -SYSTEM_TOL:
            raise ValueError("rho0 has a negative eigenvalue")
        object.__setattr__(self, "rho0", _frozen(rho))
        object.__setattr__(self, "observable", _frozen(obs))


@dataclass(frozen=True)
class ObjectiveRange:
    """Attainable interval of J over all unitaries (von Neumann pairing)."""

    j_min: float
    j_max: float

    def __post_init__(self):
        if not (np.isfinite(self.j_min) and np.isfinite(self.j_max)):
            raise ValueError("range endpoints must be finite")
        if self.j_min > self.j_max + 1e-12:
            raise ValueError(f"j_min {self.j_min} exceeds j_max {self.j_max}")

    @property
    def width(self) -> float:
        return self.j_max - self.j_min


def _check_finite_gradient(vals: np.ndarray) -> None:
    """A gradient, or a stack of them, must have only finite entries."""
    if not np.isfinite(vals).all():
        raise ValueError("gradient entries must be finite")


@dataclass(frozen=True)
class LandscapeGradient:
    """Exact partials dJ/d eps_{j,z}, same (num_controls, Z) layout as the grid."""

    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 2:
            raise ValueError(f"gradient must be a 2-D matrix, got shape {vals.shape}")
        _check_finite_gradient(vals)
        object.__setattr__(self, "values", _frozen(vals))

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.values))


@dataclass(frozen=True)
class TangentMap:
    """Differential of psi in left-translated orthonormal su(N) coordinates.

    Row j*Z + (z-1) holds the coordinates of -i U_T^dag (dU_T/d eps_{j,z})
    in the unit-Frobenius basis {B_k / sqrt(2)}; rows flatten like
    ControlGrid.values.
    """

    rows: np.ndarray

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=float)
        if rows.ndim != 2:
            raise ValueError(f"rows must be a 2-D matrix, got shape {rows.shape}")
        if not np.all(np.isfinite(rows)):
            raise ValueError("tangent-map entries must be finite")
        n = rows.shape[1]
        dim = round(np.sqrt(n + 1))
        if dim * dim - 1 != n or dim < 2:
            raise ValueError(f"{n} columns does not match any su(N) dimension")
        object.__setattr__(self, "rows", _frozen(rows))

    @property
    def dim(self) -> int:
        return round(np.sqrt(self.rows.shape[1] + 1))


def _objective_values(system: QuantumSystem, U: np.ndarray) -> np.ndarray:
    """J = Re Tr[O_hat U rho0 U^dag] for every U of a (..., N, N) stack.

    The U are taken as checked (by _check_propagation, or by objective for
    a caller's U). A J that is not finite, or a trace with an imaginary
    part, is a NumericalFault.
    """
    val = np.trace(system.observable @ U @ system.rho0 @ _dagger(U), axis1=-2, axis2=-1)
    imag = np.abs(val.imag).max()
    if imag >= OBJECTIVE_IMAG_TOL:
        raise NumericalFault(f"objective trace has imaginary part {imag}")
    if not np.isfinite(val.real).all():
        raise NumericalFault("objective is not finite")
    return val.real


def objective(system: QuantumSystem, U: np.ndarray) -> float:
    """J = Re Tr[O_hat U rho0 U^dag] for a unitary U.

    A U that is not finite is a NumericalFault; one that is not unitary
    within tolerance is a ValueError.
    """
    U = np.asarray(U, dtype=complex)
    if U.shape != (system.dim, system.dim):
        raise ValueError(f"expected a {system.dim}x{system.dim} unitary, got {U.shape}")
    if not np.isfinite(U).all():
        raise NumericalFault("propagator is not finite")
    if np.linalg.norm(_dagger(U) @ U - np.eye(system.dim)) > OBJECTIVE_UNITARITY_TOL:
        raise ValueError("U is not unitary within tolerance")
    return float(_objective_values(system, U))


def _objective_stack(
    system: QuantumSystem, values: np.ndarray, dt: float, basis: BasisSet
) -> np.ndarray:
    """J at every grid of a (K, size, Z) value stack, as K values.

    The grids are propagated in blocks of at most BLOCK_SEGMENTS segments,
    each block one kernel call, checked as propagate checks one grid.
    """
    return np.concatenate([
        _objective_values(system, _horizon_propagators(values[b], dt, basis))
        for b in _blocks(len(values), values.shape[-1])
    ])


def objective_range(system: QuantumSystem) -> ObjectiveRange:
    """[j_min, j_max] from increasing-sorted spectra of rho0 and the observable.

    The maximum pairs same-rank eigenvalues, the minimum pairs opposite-rank
    ones.
    """
    r = np.linalg.eigvalsh(system.rho0)
    o = np.linalg.eigvalsh(system.observable)
    return ObjectiveRange(float(r[::-1] @ o), float(r @ o))


def _basis_pairing(A: np.ndarray, basis: BasisSet) -> np.ndarray:
    """Re Tr[B_k A_i] for the m matrices of a (..., N, N) stack, as an (m, size) matrix.

    As B_k is Hermitian, Re Tr[B_k A] is the real dot product of the
    interleaved (re, im) entries of B_k and A. The product is returned
    itself, not a reshaped view, so numpy can reuse its buffer for a
    caller's arithmetic on it.
    """
    dim = basis.dim
    flat_a = np.ascontiguousarray(A).reshape(-1, dim * dim).view(float)
    return flat_a @ basis.stack.reshape(basis.size, dim * dim).view(float).T


def _segment_products(values: np.ndarray, dt: float, basis: BasisSet) -> tuple:
    """For a (..., size, Z) value stack: prefix products P[..., z] = U_z ... U_1
    (P[..., 0] = I) and, per segment, the eigenvalues lam, eigenvectors V and
    divided-difference table K with dU_z/d eps_{j,z} = V (K o V^dag B_j V) V^dag.
    """
    lam, V, U = _segment_kernel(_hamiltonian_stack(values, basis), dt)
    return _ordered_products(U), lam, V, _divided_differences(lam, dt)


def _gradient_values(
    system: QuantumSystem, values: np.ndarray, dt: float, basis: BasisSet
) -> np.ndarray:
    """dJ/d eps (see gradient) at every grid of a (..., size, Z) value stack."""
    if system.dim != basis.dim:
        raise ValueError(f"system dim {system.dim} != basis dim {basis.dim}")
    P, _, V, K = _segment_products(values, dt, basis)
    total = P[..., -1, :, :]
    C = system.rho0 @ _dagger(total) @ system.observable @ total
    W = P[..., :-1, :, :] @ C[..., None, :, :] @ _dagger(P[..., 1:, :, :])
    Vh = _dagger(V)
    # Not K * (...): on a large temporary numpy reuses its buffer with the
    # operands swapped, and a complex product can round differently in that
    # order, so each grid's gradient would depend on the size of the stack.
    G = V @ np.multiply(K, Vh @ W @ V) @ Vh
    pairs = _basis_pairing(G, basis).reshape(G.shape[:-2] + (basis.size,))
    g = 2.0 * np.swapaxes(pairs, -1, -2)
    _check_finite_gradient(g)
    return g


def _gradient_stack(
    system: QuantumSystem, values: np.ndarray, dt: float, basis: BasisSet
) -> np.ndarray:
    """dJ/d eps at every grid of a (K, size, Z) value stack, blocked like
    _objective_stack."""
    return np.concatenate([
        _gradient_values(system, values[b], dt, basis)
        for b in _blocks(len(values), values.shape[-1])
    ])


def gradient(system: QuantumSystem, grid: ControlGrid, basis: BasisSet) -> LandscapeGradient:
    """Analytic gradient of J at the grid, by adjoint pairing.

    dJ/d eps_{j,z} = 2 Re Tr[(dU_z/d eps_{j,z}) W_z] with the weight
    W_z = P_{z-1} rho0 U_T^dag O_hat U_T P_z^dag. Since the divided-difference
    table is symmetric, this equals 2 Re Tr[B_j G_z] with one N x N matrix
    G_z = V (K o V^dag W_z V) V^dag per segment.
    """
    return LandscapeGradient(_gradient_values(system, grid.values, grid.dt, basis))


def psi_tangent_map(grid: ControlGrid, basis: BasisSet) -> TangentMap:
    """Left-translated differential of the end-point map, one row per control.

    -i U_T^dag (dU_T/d eps_{j,z}) = -i P_{z-1}^dag U_z^dag (dU_z/d eps_{j,z})
    P_{z-1} with P_{z-1} = U_{z-1} ... U_1, so only prefix products enter. In
    the eigenbasis, U_z^dag dU_z = V (E o K o V^dag B_j V) V^dag with
    E[a, b] = exp(i lam_a dt). Each row is checked to be Hermitian traceless
    before projection onto {B_k / sqrt(2)}.
    """
    P, lam, V, K = _segment_products(grid.values, grid.dt, basis)
    Z, n, dim = grid.segments, basis.size, basis.dim
    Vh = _dagger(V)
    M = np.exp(1j * grid.dt * lam)[:, :, None] * K
    Q = Vh @ P[:-1]
    # A[j, z] = -i Q_z^dag (M_z o V_z^dag B_j V_z) Q_z with M = E o K. Each
    # product is one matmul per segment over all generators at once; the
    # comments give the index layout of each result.
    X = np.matmul(basis.stack.reshape(n * dim, dim), V)  # [z, (j, a), c]
    X = X.reshape(Z, n, dim, dim).transpose(0, 2, 1, 3).reshape(Z, dim, n * dim)  # [z, a, (j, c)]
    X = (Vh @ X).reshape(Z, dim, n, dim) * M[:, :, None, :]  # [z, d, j, c]
    X = (_dagger(Q) @ X.reshape(Z, dim, n * dim)).reshape(Z, dim * n, dim)  # [z, (e, j), c]
    A = (-1j * (X @ Q)).reshape(Z, dim, n, dim).transpose(2, 0, 1, 3)  # [j, z, e, f]
    not_hermitian = np.max(np.abs(A - _dagger(A)), axis=(2, 3)) > TANGENT_ROW_TOL
    not_traceless = np.abs(np.trace(A, axis1=2, axis2=3)) > TANGENT_ROW_TOL
    checks = ((not_hermitian, "Hermitian within tolerance"), (not_traceless, "traceless"))
    for bad, what in checks:
        if np.any(bad):
            j, z = np.argwhere(bad)[0]
            raise NumericalFault(f"tangent row ({j}, {z + 1}) is not {what}")
    return TangentMap(_basis_pairing(A.reshape(n * Z, dim, dim), basis) / np.sqrt(2.0))


def local_surjectivity_rank(tm: TangentMap) -> tuple:
    """(rank, surjective): singular values above RANK_TOL x largest, vs N^2 - 1."""
    s = np.linalg.svd(tm.rows, compute_uv=False)
    if s.size == 0 or s[0] <= 0.0:
        rank = 0
    else:
        rank = int(np.sum(s > RANK_TOL * s[0]))
    return rank, rank == tm.rows.shape[1]


def _at_bounds(values: np.ndarray, kappa: float) -> tuple:
    """(at_upper, at_lower) masks shaped like a grid's values, or a stack of them.

    A control is at a bound when |eps| >= kappa - ACTIVE_TOL * kappa; the
    mask names the bound it touches.
    """
    edge = kappa - ACTIVE_TOL * kappa
    return values >= edge, values <= -edge


def _active_entries(at_upper: np.ndarray, at_lower: np.ndarray) -> list:
    """active_set from one grid's _at_bounds masks; a control in both (kappa = 0) is '+'."""
    return [
        (j, z0 + 1, "+" if at_upper[j, z0] else "-")
        for j, z0 in np.argwhere(at_upper | at_lower).tolist()
    ]


def active_set(grid: ControlGrid) -> list:
    """Controls at the bound: (j, z, side) with z 1-based and side '+' or '-'.

    The side is '+' for eps >= 0 and '-' otherwise.
    """
    return _active_entries(*_at_bounds(grid.values, grid.kappa))


def _variation_bounds(grid: ControlGrid) -> list:
    """Per-control (lower, upper) bounds on admissible one-sided variations.

    None marks an unbounded side, in the layout linprog takes.
    """
    at_upper, at_lower = _at_bounds(grid.values, grid.kappa)
    return [
        (0.0 if lo else None, 0.0 if up else None)
        for lo, up in zip(at_lower.ravel().tolist(), at_upper.ravel().tolist())
    ]


def boundary_cone_surjectivity(grid: ControlGrid, tm: TangentMap) -> tuple:
    """(surjective, witness): can admissible variations reach all of su(N)?

    Variations are constrained one-sidedly at active bounds (<= 0 at +kappa,
    >= 0 at -kappa, free otherwise), so their image {M^T d} is a convex cone.
    A convex cone is all of su(N) exactly when it holds every +-e_k. Each
    target gets one feasibility LP, M^T d = target under the bounds, in the
    order +e_1 .. +e_n, -e_1 .. -e_n; the first infeasible target is
    returned as the witness. A feasible answer must reproduce its target to
    CONE_RESIDUAL_TOL, and any solver status other than optimal or
    infeasible raises NumericalFault.
    """
    if tm.rows.shape[0] != grid.num_controls * grid.segments:
        raise ValueError(
            f"tangent map has {tm.rows.shape[0]} rows, grid has "
            f"{grid.num_controls * grid.segments} controls"
        )
    global linprog
    if linprog is None:
        from scipy.optimize import linprog
    A = tm.rows.T
    n = A.shape[0]
    bounds = _variation_bounds(grid)
    cost = np.zeros(A.shape[1])
    for target in np.concatenate([np.eye(n), -np.eye(n)]):
        fit = linprog(cost, A_eq=A, b_eq=target, bounds=bounds, method="highs")
        if fit.status == 2:
            return False, target
        if fit.status != 0:
            raise NumericalFault(f"cone LP failed: {fit.message}")
        if np.linalg.norm(A @ fit.x - target) > CONE_RESIDUAL_TOL:
            raise NumericalFault("cone LP answer does not reproduce its target")
    return True, None


def kappa_threshold(basis: BasisSet, T: float, Z: int) -> float:
    """Largest kappa keeping the segment duration below 2 pi / spectral spread.

    For N = 2 the worst-case spread of sum_j eps_j sigma_j over the box is
    exactly 2 sqrt(3) kappa, giving pi Z / (sqrt(3) T). For N > 2 the spread
    is bounded by kappa sum_j spread(B_j), so the returned threshold is
    conservative.
    """
    if not (T > 0.0 and np.isfinite(T)):
        raise ValueError(f"horizon must be positive, got {T}")
    if Z < 1:
        raise ValueError(f"segment count must be >= 1, got {Z}")
    if basis.dim == 2:
        return np.pi * Z / (np.sqrt(3.0) * T)
    spread = 0.0
    for B in basis.elements:
        lam = np.linalg.eigvalsh(B)
        spread += float(lam[-1] - lam[0])
    return 2.0 * np.pi * Z / (T * spread)
