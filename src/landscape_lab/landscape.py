"""Control objective, analytic landscape gradient, and local-surjectivity tests.

The central object is the end-point map psi: control grid -> U_T in SU(N).
This module evaluates J = Tr[O_hat U_T rho0 U_T^dag], differentiates J exactly
through the piecewise-constant propagator, expresses the differential of psi
in left-translated orthonormal su(N) coordinates, and decides whether that
differential is surjective, including the one-sided (cone) case when controls
sit at the amplitude bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .qdyn import (
    BasisSet,
    ControlGrid,
    NumericalFault,
    _blocks,
    _dagger,
    _divided_differences,
    _frozen,
    _propagated,
    _second_divided_differences,
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
# Full column rank is certified without an SVD when the Gram matrix's least
# eigenvalue exceeds this share of its largest (see _certified_full_rank).
GRAM_TOL = 1e-6

# scipy.optimize.linprog, bound on first use by boundary_cone_surjectivity:
# importing scipy.optimize takes most of the package's import time, and only
# the cone test's last resort, its quotient LP, needs it.
linprog = None


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
        # Each check is written so that a NaN entry fails it.
        if not np.max(np.abs(rho - rho.conj().T)) <= SYSTEM_TOL:
            raise ValueError("rho0 is not Hermitian")
        if not np.max(np.abs(obs - obs.conj().T)) <= SYSTEM_TOL:
            raise ValueError("observable is not Hermitian")
        trace = np.trace(rho)
        if not (abs(trace.real - 1.0) <= SYSTEM_TOL and abs(trace.imag) <= SYSTEM_TOL):
            raise ValueError(f"Tr rho0 = {trace}, expected 1")
        if not np.min(np.linalg.eigvalsh(rho)) >= -SYSTEM_TOL:
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


def _evaluated(system: QuantumSystem, values: np.ndarray, dt: float, basis: BasisSet) -> tuple:
    """(J, lam, V, P) at every grid of a (K, size, Z) value stack.

    Each block of grids holding at most BLOCK_BYTES of segment matrices
    (_blocks) is one checked kernel call (_propagated), which gives the
    segment eigenpairs lam, V and the prefix products P; J is read off the
    last prefix. The gradient (_gradient_from) and the Hessian (_hessians)
    of the same grids need no further kernel call.
    """
    parts = []
    for b in _blocks(len(values), values.shape[-1], basis.dim):
        lam, V, P = _propagated(values[b], dt, basis)
        parts.append((_objective_values(system, P[:, -1]), lam, V, P))
    return parts[0] if len(parts) == 1 else tuple(np.concatenate(p) for p in zip(*parts))


def objective_range(system: QuantumSystem) -> ObjectiveRange:
    """[j_min, j_max] from increasing-sorted spectra of rho0 and the observable.

    The maximum pairs same-rank eigenvalues, the minimum pairs opposite-rank
    ones.
    """
    r = np.linalg.eigvalsh(system.rho0)
    o = np.linalg.eigvalsh(system.observable)
    return ObjectiveRange(float(r[::-1] @ o), float(r @ o))


def _real_rows(A: np.ndarray) -> np.ndarray:
    """The entries of each matrix of a (..., N, N) stack as one real row of
    interleaved (re, im) pairs: Re Tr[X Y^dag] is the dot product of two rows."""
    return np.ascontiguousarray(A).reshape(A.shape[:-2] + (-1,)).view(float)


def _basis_pairing(A: np.ndarray, basis: BasisSet) -> np.ndarray:
    """Re Tr[B_k A] for every matrix of a (..., N, N) stack, as a (..., size) stack.

    As B_k is Hermitian, Re Tr[B_k A] is the dot product of the real rows
    (_real_rows) of B_k and A. einsum without optimization sums each entry
    in the same order whatever the number of matrices, where a BLAS product
    rounds differently with the row count, so a grid's gradient has the
    same bits alone and in any stack.
    """
    rows = _real_rows(A).reshape(-1, 2 * basis.dim * basis.dim)
    pairs = np.einsum("ik,jk->ij", rows, _real_rows(basis.stack), optimize=False)
    return pairs.reshape(A.shape[:-2] + (basis.size,))


def _eigenbasis_weights(system: QuantumSystem, V: np.ndarray, P: np.ndarray) -> np.ndarray:
    """V_z^dag W_z V_z per segment, W_z = P_{z-1} rho0 U_T^dag O_hat U_T P_z^dag
    the gradient's adjoint weight (see gradient)."""
    total = P[..., -1, :, :]
    C = system.rho0 @ _dagger(total) @ system.observable @ total
    W = P[..., :-1, :, :] @ C[..., None, :, :] @ _dagger(P[..., 1:, :, :])
    return _dagger(V) @ W @ V


def _gradient_from(
    system: QuantumSystem, lam: np.ndarray, V: np.ndarray, P: np.ndarray, dt: float,
    basis: BasisSet,
) -> np.ndarray:
    """dJ/d eps (see gradient) at every grid of a stack, from its _evaluated
    eigenpairs and prefix products, as a (..., size, Z) stack."""
    if system.dim != basis.dim:
        raise ValueError(f"system dim {system.dim} != basis dim {basis.dim}")
    # Not K * (...): on a large temporary numpy reuses its buffer with the
    # operands swapped, and a complex product can round differently in that
    # order, so each grid's gradient would depend on the size of the stack.
    K = _divided_differences(lam, dt)
    G = V @ np.multiply(K, _eigenbasis_weights(system, V, P)) @ _dagger(V)
    g = 2.0 * np.swapaxes(_basis_pairing(G, basis), -1, -2)
    _check_finite_gradient(g)
    return g


def gradient(system: QuantumSystem, grid: ControlGrid, basis: BasisSet) -> LandscapeGradient:
    """Analytic gradient of J at the grid, by adjoint pairing.

    dJ/d eps_{j,z} = 2 Re Tr[(dU_z/d eps_{j,z}) W_z] with the weight
    W_z = P_{z-1} rho0 U_T^dag O_hat U_T P_z^dag. Since the divided-difference
    table is symmetric, this equals 2 Re Tr[B_j G_z] with one N x N matrix
    G_z = V (K o V^dag W_z V) V^dag per segment.
    """
    lam, V, P = _propagated(grid.values, grid.dt, basis)
    return LandscapeGradient(_gradient_from(system, lam, V, P, grid.dt, basis))


def _tangent_map_rows(
    lam: np.ndarray, V: np.ndarray, P: np.ndarray, dt: float, basis: BasisSet
) -> np.ndarray:
    """The tangent map's rows (see psi_tangent_map) at one grid or at every
    grid of a stack, from its _evaluated eigenpairs and prefix products, as a
    (..., size, Z, size) stack.

    The matrix of row (j, z), -i U_T^dag (dU_T/d eps_{j,z}), equals
    -i Q_z^dag (M_z o V_z^dag B_j V_z) Q_z with Q_z = V_z^dag P_{z-1} and
    M = E o K, E[a, b] = exp(i lam_a dt). Each is checked to be Hermitian
    traceless before projection onto {B_k / sqrt(2)}. They are built a block
    of segments at a time, the block counting the matrices of every grid
    (_blocks: 4 segments of one grid at N = 8, 68 at N = 4). Each grid's
    projection is a product of its own, with the grid axes as batch axes and
    never in the BLAS row count (see _basis_pairing), so a grid's rows have
    the same bits alone and in any stack.
    """
    (Z, dim), n = lam.shape[-2:], basis.size
    lead = lam.shape[:-2]
    pairing = _real_rows(basis.stack).T
    rows = np.empty(lead + (n, Z, n))
    for b in _blocks(Z, n * math.prod(lead), dim):
        lam_b, V_b = lam[..., b, :], V[..., b, :, :]
        Zb, Vh = lam_b.shape[-2], _dagger(V_b)
        M = np.exp(1j * dt * lam_b)[..., None] * _divided_differences(lam_b, dt)
        Q = Vh @ P[..., :-1, :, :][..., b, :, :]
        # Each large intermediate replaces the last, products are taken in
        # place, and no name keeps one into the next block: every extra one
        # is pages faulted back in on each call. The comments give the
        # index layout after the grid axes.
        X = np.matmul(basis.stack.reshape(n * dim, dim), V_b)  # [z, (j, a), c]
        X = X.reshape(lead + (Zb, n, dim, dim)).swapaxes(-3, -2).reshape(lead + (Zb, dim, n * dim))
        X = (Vh @ X).reshape(lead + (Zb, dim, n, dim))  # [z, d, j, c]
        X *= M[..., None, :]
        X = (_dagger(Q) @ X.reshape(lead + (Zb, dim, n * dim))).reshape(lead + (Zb, dim * n, dim))
        X = X @ Q  # [z, (e, j), f]
        X *= -1j
        A = np.moveaxis(X.reshape(lead + (Zb, dim, n, dim)), -2, -4)  # [j, z, e, f]
        # Written so that a NaN entry fails the check.
        not_hermitian = ~(np.max(np.abs(A - _dagger(A)), axis=(-2, -1)) <= TANGENT_ROW_TOL)
        not_traceless = ~(np.abs(np.trace(A, axis1=-2, axis2=-1)) <= TANGENT_ROW_TOL)
        checks = ((not_hermitian, "Hermitian within tolerance"), (not_traceless, "traceless"))
        for bad, what in checks:
            if np.any(bad):
                j, z = np.argwhere(bad)[0][-2:]
                raise NumericalFault(f"tangent row ({j}, {b.start + z + 1}) is not {what}")
        rows[..., b, :] = (
            _real_rows(A).reshape(lead + (n * Zb, 2 * dim * dim)) @ pairing
        ).reshape(lead + (n, Zb, n))
    rows /= np.sqrt(2.0)
    return rows


def _hessians(
    system: QuantumSystem, lam: np.ndarray, V: np.ndarray, P: np.ndarray, dt: float,
    basis: BasisSet,
) -> np.ndarray:
    """The exact Hessian of J at every grid of a stack, from its _evaluated
    eigenpairs and prefix products, as a (..., m, m) stack over the m = size Z
    controls flattened like the grid's values.

    With the tangent rows A_k = -i U_T^dag dU_T/d eps_k, M = U_T^dag O_hat U_T
    and rho = rho0, entry (k, l) is 2 Re Tr[M A_k rho A_l], and:
    - for k on an earlier segment than l, d_l d_k U_T = -U_T A_l A_k adds
      -2 Re Tr[M A_l A_k rho];
    - for a and b on one segment z, the second derivative of U_z
      (Daleckii-Krein) adds 2 Re sum_pqr F_pqr (E^a_pq E^b_qr + E^b_pq E^a_qr)
      W_rp, with E^a = V_z^dag B_a V_z, W the adjoint weight in V_z's
      eigenbasis (_eigenbasis_weights) and F the second divided differences
      of exp(-i x dt) at V_z's eigenvalues.
    Each A_k is Hermitian traceless, A_k = sum_c R_kc B_c / sqrt(2) with R
    the tangent map's checked rows (_tangent_map_rows). So the traces are
    2 Re Tr[M A_k rho A_l] = 2 (R T R^T)_kl with T_cd = Re Tr[M B_c rho B_d] / 2
    and 2 Re Tr[M A_l A_k rho] = 2 (R T' R^T)_kl with
    T'_cd = Re Tr[B_c rho M B_d] / 2, each an n x n pairing of the basis
    (_basis_pairing). The within-segment sum runs over r first, then over
    (p, q) as one product per segment.
    """
    (Z, dim), n = lam.shape[-2:], basis.size
    lead, m = lam.shape[:-2], n * Z
    R = _tangent_map_rows(lam, V, P, dt, basis).reshape(lead + (m, n))
    Rt = np.swapaxes(R, -1, -2)
    total = P[..., -1, :, :]
    M = (_dagger(total) @ system.observable @ total)[..., None, :, :]
    # 2 T and 2 T': scaling by 2 is exact, so H needs no factor 2 after.
    H = R @ _basis_pairing(M @ basis.stack @ system.rho0, basis) @ Rt
    later = R @ _basis_pairing(basis.stack @ (system.rho0 @ M), basis) @ Rt
    z = np.arange(m) % Z
    later[..., ~(z[:, None] < z[None, :])] = 0.0
    H -= later
    H -= np.swapaxes(later, -1, -2)
    Vh = _dagger(V)
    E = Vh[..., None, :, :] @ basis.stack @ V[..., None, :, :]  # [z, a, p, q]
    W = np.swapaxes(_eigenbasis_weights(system, V, P), -1, -2)  # [z, p, r]
    F = _second_divided_differences(lam, dt)  # [z, p, q, r]
    L = (F[..., None, :, :, :] * E[..., :, None, :, :] * W[..., None, :, None, :]).sum(axis=-1)
    # L[z, b, p, q] = sum_r F_pqr E^b_qr W_rp, so S[z, a, b] = sum_pq E^a_pq L^b_pq.
    flat = lead + (Z, n, dim * dim)
    S = (E.reshape(flat) @ np.swapaxes(L.reshape(flat), -1, -2)).real
    zz = np.arange(Z)
    within = np.moveaxis(S + np.swapaxes(S, -1, -2), -3, 0)  # [z, ..., a, b]
    H.reshape(lead + (n, Z, n, Z))[..., :, zz, :, zz] += 2.0 * within
    return H


def psi_tangent_map(grid: ControlGrid, basis: BasisSet) -> TangentMap:
    """Left-translated differential of the end-point map, one row per control.

    -i U_T^dag (dU_T/d eps_{j,z}) = -i P_{z-1}^dag U_z^dag (dU_z/d eps_{j,z})
    P_{z-1} with P_{z-1} = U_{z-1} ... U_1, so only prefix products enter. In
    the eigenbasis, U_z^dag dU_z = V (E o K o V^dag B_j V) V^dag with
    E[a, b] = exp(i lam_a dt). The rows come from one checked kernel pass
    (_propagated) and are built in blocks of segments (_tangent_map_rows).
    """
    lam, V, P = _propagated(grid.values, grid.dt, basis)
    return TangentMap(_tangent_map_rows(lam, V, P, grid.dt, basis).reshape(-1, basis.size))


def _certified_full_rank(R: np.ndarray) -> bool:
    """True when the eigenvalues of R^T R certify that the m x n matrix R has
    full column rank as _rank_and_null counts it; False decides nothing.

    Rounding moves each Gram eigenvalue by about m n u lam_max (u the unit
    roundoff). So lam_min > (GRAM_TOL + m n u) lam_max gives s_min above
    about sqrt(GRAM_TOL) s_max, far above RANK_TOL. One Gram product and an
    n x n eigvalsh cost a fraction of a tall SVD.
    """
    m, n = R.shape
    if m < n:
        return False
    lam = np.linalg.eigvalsh(R.T @ R)
    return bool(lam[0] > (GRAM_TOL + m * n * np.finfo(float).eps) * lam[-1])


def _rank_and_null(R: np.ndarray) -> tuple:
    """(rank, Q) of the m x n rows R: the number of singular values above
    RANK_TOL x the largest, and orthonormal rows Q spanning span(R)^perp.

    A Gram certificate (_certified_full_rank) settles full rank with no SVD.
    Otherwise one SVD gives both, with the full V^T only when R has fewer
    rows than columns, so a tall R costs no square U.
    """
    n = R.shape[1]
    if _certified_full_rank(R):
        return n, np.empty((0, n))
    _, s, vt = np.linalg.svd(R, full_matrices=len(R) < n)
    rank = int(np.sum(s > RANK_TOL * s.max(initial=0.0)))
    return rank, vt[rank:]


def local_surjectivity_rank(tm: TangentMap) -> tuple:
    """(rank, surjective): the rank of the rows (_rank_and_null) vs N^2 - 1."""
    rank = _rank_and_null(tm.rows)[0]
    return rank, rank == tm.rows.shape[1]


def _at_bounds(values: np.ndarray, kappa: float) -> tuple:
    """(at_upper, at_lower) masks shaped like a grid's values, or a stack of them.

    A control is at a bound when |eps| >= kappa - ACTIVE_TOL * kappa; the
    mask names the bound it touches.
    """
    edge = kappa - ACTIVE_TOL * kappa
    return values >= edge, values <= -edge


def _active_entries(at_upper: np.ndarray, at_lower: np.ndarray) -> list:
    """The controls at a bound, from one grid's _at_bounds masks: (j, z, side)
    with z 1-based and side '+' at +kappa, '-' at -kappa, and '+' for a
    control in both (kappa = 0)."""
    return [
        (j, z0 + 1, "+" if at_upper[j, z0] else "-")
        for j, z0 in np.argwhere(at_upper | at_lower).tolist()
    ]


def boundary_cone_surjectivity(grid: ControlGrid, tm: TangentMap) -> tuple:
    """(surjective, witness): can admissible variations reach all of su(N)?

    Variations are one-sided at an active bound (<= 0 at +kappa, >= 0 at
    -kappa; at kappa = 0 a control cannot move) and free otherwise. With F
    the tangent rows of the free controls and G_k = s_k R_k the rows of
    those at a bound, signed s = +1 at +kappa and -1 at -kappa, their image
    is the convex cone span(F) + cone{-G_k}. It is decided, with no sampling:

    1. rank F = n (_rank_and_null: the Gram certificate first, the SVD only
       if it fails): surjective. With no bound rows and rank F < n, the
       witness is a unit vector normal to span(F).
    2. Let Q span span(F)^perp (_rank_and_null), w solve (G Q^T) w = 1 in
       least squares with least norm, and w_hat = Q^T w / |w|. If
       min_k G_k . w_hat exceeds CONE_RESIDUAL_TOL x max_k |G_k|, every
       image v has w_hat . v <= 0, so the unit vector w_hat is outside the
       cone and is the witness.
    3. Otherwise one HiGHS feasibility LP per target +e_1 .. +e_m, -e_1 ..
       -e_m of Q's coordinates; the first infeasible one, lifted back by
       Q^T, is the witness. A feasible answer must reproduce its target to
       CONE_RESIDUAL_TOL, and any other solver status raises NumericalFault.
    """
    if tm.rows.shape[0] != grid.num_controls * grid.segments:
        raise ValueError(
            f"tangent map has {tm.rows.shape[0]} rows, grid has "
            f"{grid.num_controls * grid.segments} controls"
        )
    R = tm.rows
    n = R.shape[1]
    at_upper, at_lower = (m.ravel() for m in _at_bounds(grid.values, grid.kappa))
    rank, Q = _rank_and_null(R[~(at_upper | at_lower)])
    if rank == n:
        return True, None
    G = np.concatenate([R[at_upper & ~at_lower], -R[at_lower & ~at_upper]])
    if len(G) == 0:
        return False, Q[0]
    Gq = G @ Q.T
    w = np.linalg.lstsq(Gq, np.ones(len(G)), rcond=None)[0]
    size = np.linalg.norm(w)
    if size > 0.0:
        margin = np.min(Gq @ w) / size
        if margin > CONE_RESIDUAL_TOL * np.max(np.linalg.norm(G, axis=1)):
            return False, Q.T @ (w / size)
    global linprog
    if linprog is None:
        from scipy.optimize import linprog
    A = -Gq.T
    m = A.shape[0]
    cost = np.zeros(A.shape[1])
    for target in np.concatenate([np.eye(m), -np.eye(m)]):
        fit = linprog(cost, A_eq=A, b_eq=target, bounds=(0.0, None), method="highs")
        if fit.status == 2:
            return False, Q.T @ target
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
    conservative. A threshold that overflows is a ValueError naming T.
    """
    if not (T > 0.0 and np.isfinite(T)):
        raise ValueError(f"horizon must be positive, got {T}")
    if Z < 1:
        raise ValueError(f"segment count must be >= 1, got {Z}")
    if basis.dim == 2:
        thr = np.pi * Z / (math.sqrt(3.0) * T)
    else:
        spread = sum(np.ptp(np.linalg.eigvalsh(np.array(basis.elements)), axis=1).tolist())
        thr = 2.0 * np.pi * Z / (T * spread)
    if not math.isfinite(thr):
        raise ValueError(f"horizon {T} is too short: the kappa threshold overflows")
    return thr
