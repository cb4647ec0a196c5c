"""su(N) generator bases, piecewise-constant Hamiltonians, and exact propagators.

All evolution here is closed-system with hbar = 1: a control grid assigns one
real amplitude per generator per time segment, each segment evolves under
U_z = exp(-i H_z dt), and the horizon propagator is the time-ordered product
U_Z ... U_2 U_1 (later segments on the left).
"""

from __future__ import annotations

from dataclasses import dataclass, InitVar

import numpy as np

__all__ = [
    "NumericalFault",
    "BasisSet",
    "ControlGrid",
    "PropagationResult",
    "build_su_basis",
    "assemble_segment_hamiltonian",
    "propagate",
]

# Construction-time tolerances for the domain types.
BASIS_HERMITICITY_TOL = 1e-14
BASIS_TRACE_TOL = 1e-14
BASIS_ORTHOGONALITY_TOL = 1e-12
UNITARITY_TOL = 1e-12
DETERMINANT_TOL = 1e-10
HERMITICITY_TOL = 1e-10


class NumericalFault(RuntimeError):
    """A computed quantity broke an internal invariant (not a bad input)."""


def _is_hermitian(M: np.ndarray, tol: float) -> bool:
    return bool(np.max(np.abs(M - M.conj().T)) <= tol)


def _frozen(a: np.ndarray) -> np.ndarray:
    out = np.array(a)
    out.setflags(write=False)
    return out


def _dagger(M: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix or of every matrix in a stack."""
    return M.conj().swapaxes(-1, -2)


@dataclass(frozen=True)
class BasisSet:
    """Ordered Hermitian traceless generators with Tr[B_i B_j] = 2 delta_ij.

    For dim == 2 the elements are exactly the Pauli matrices (x, y, z order).
    """

    dim: int
    elements: tuple

    def __post_init__(self):
        if self.dim < 2:
            raise ValueError(f"basis dimension must be >= 2, got {self.dim}")
        n = self.dim * self.dim - 1
        if len(self.elements) != n:
            raise ValueError(
                f"expected {n} generators for dim {self.dim}, got {len(self.elements)}"
            )
        elems = []
        for k, B in enumerate(self.elements):
            B = np.asarray(B, dtype=complex)
            if B.shape != (self.dim, self.dim):
                raise ValueError(f"generator {k} has shape {B.shape}")
            if not _is_hermitian(B, BASIS_HERMITICITY_TOL):
                raise ValueError(f"generator {k} is not Hermitian")
            if abs(np.trace(B)) > BASIS_TRACE_TOL:
                raise ValueError(f"generator {k} is not traceless")
            elems.append(_frozen(B))
        stack = np.stack(elems)
        gram = np.einsum("iab,jba->ij", stack, stack)
        if np.max(np.abs(gram - 2.0 * np.eye(n))) > BASIS_ORTHOGONALITY_TOL:
            raise ValueError("generators do not satisfy Tr[B_i B_j] = 2 delta_ij")
        object.__setattr__(self, "elements", tuple(elems))
        object.__setattr__(self, "_stack", _frozen(stack))

    @property
    def size(self) -> int:
        """Number of generators, dim**2 - 1."""
        return self.dim * self.dim - 1

    @property
    def stack(self) -> np.ndarray:
        """All generators as one (size, dim, dim) read-only array."""
        return self._stack


@dataclass(frozen=True)
class ControlGrid:
    """Bounded piecewise-constant control amplitudes on Z equal time segments.

    ``values[j, z]`` is the amplitude of generator j on segment z (0-based
    array indices; segment z covers the half-open slice
    ((z) * T/Z, (z+1) * T/Z] in 1-based counting). Every entry must satisfy
    |value| <= kappa unless validation is explicitly skipped for internal
    probing of the objective outside the admissible box.
    """

    horizon: float
    kappa: float
    values: np.ndarray
    validate: InitVar[bool] = True

    def __post_init__(self, validate: bool):
        if not (self.horizon > 0.0 and np.isfinite(self.horizon)):
            raise ValueError(f"horizon must be positive, got {self.horizon}")
        if not (self.kappa >= 0.0 and np.isfinite(self.kappa)):
            raise ValueError(f"bound must be nonnegative, got {self.kappa}")
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 2 or vals.shape[0] < 1 or vals.shape[1] < 1:
            raise ValueError(f"values must be a 2-D matrix, got shape {vals.shape}")
        if not np.all(np.isfinite(vals)):
            raise ValueError("control values must be finite")
        if validate and np.any(np.abs(vals) > self.kappa):
            worst = float(np.max(np.abs(vals)))
            raise ValueError(
                f"control amplitude {worst} exceeds the bound {self.kappa}"
            )
        object.__setattr__(self, "values", _frozen(vals))

    @property
    def segments(self) -> int:
        return self.values.shape[1]

    @property
    def num_controls(self) -> int:
        return self.values.shape[0]

    @property
    def dt(self) -> float:
        return self.horizon / self.segments

    def segment_bounds(self, z: int) -> tuple:
        """Half-open time interval (t0, t1] covered by segment z (1-based)."""
        if not 1 <= z <= self.segments:
            raise ValueError(f"segment index {z} outside 1..{self.segments}")
        return ((z - 1) * self.dt, z * self.dt)

    def with_values(self, values: np.ndarray, validate: bool = True) -> "ControlGrid":
        """Same horizon and bound, different amplitudes."""
        return ControlGrid(self.horizon, self.kappa, values, validate=validate)

    @classmethod
    def constant(
        cls, horizon: float, kappa: float, num_controls: int, segments: int, fill: float
    ) -> "ControlGrid":
        return cls(horizon, kappa, np.full((num_controls, segments), float(fill)))

    @classmethod
    def zeros(
        cls, horizon: float, kappa: float, num_controls: int, segments: int
    ) -> "ControlGrid":
        return cls.constant(horizon, kappa, num_controls, segments, 0.0)

    @classmethod
    def uniform_random(
        cls,
        horizon: float,
        kappa: float,
        num_controls: int,
        segments: int,
        rng: np.random.Generator,
    ) -> "ControlGrid":
        vals = rng.uniform(-kappa, kappa, size=(num_controls, segments))
        return cls(horizon, kappa, vals)


@dataclass(frozen=True)
class PropagationResult:
    """Per-segment unitaries and their ordered product over the horizon."""

    segment_unitaries: tuple
    total: np.ndarray

    def __post_init__(self):
        segs = np.asarray(self.segment_unitaries, dtype=complex)
        if segs.ndim != 3 or segs.shape[0] < 1 or segs.shape[1] != segs.shape[2]:
            raise ValueError(
                f"need a nonempty sequence of square segment unitaries, got shape {segs.shape}"
            )
        total = np.asarray(self.total, dtype=complex)
        if total.shape != segs.shape[1:]:
            raise ValueError(f"total has shape {total.shape}, segments {segs.shape[1:]}")
        # Frobenius unitarity defect of every segment and, last, of the total.
        both = np.concatenate((segs, total[None]))
        gram = _dagger(both) @ both - np.eye(total.shape[0])
        defect = np.linalg.norm(gram.reshape(len(both), -1), axis=1)
        bad = np.flatnonzero(defect > UNITARITY_TOL)
        if bad.size and bad[0] < len(segs):
            raise NumericalFault(f"segment unitary {bad[0]} failed the unitarity check")
        if bad.size:
            raise NumericalFault("total propagator failed the unitarity check")
        if abs(np.linalg.det(total) - 1.0) > DETERMINANT_TOL:
            raise NumericalFault("total propagator is not special unitary")
        if np.max(np.abs(_ordered_product(segs) - total)) > UNITARITY_TOL:
            raise NumericalFault("total does not equal the ordered segment product")
        object.__setattr__(self, "segment_unitaries", tuple(_frozen(segs)))
        object.__setattr__(self, "total", _frozen(total))

    @property
    def dim(self) -> int:
        return self.total.shape[0]


def build_su_basis(N: int) -> BasisSet:
    """Generalized Gell-Mann generators of su(N), normalized to Tr[B_i B_j] = 2 d_ij.

    Ordering: symmetric pair matrices, then antisymmetric pair matrices (both
    in lexicographic (j, k) order), then the diagonal ladder. For N = 2 this
    yields exactly (sigma_x, sigma_y, sigma_z).
    """
    if not isinstance(N, (int, np.integer)) or N < 2:
        raise ValueError(f"dimension must be an integer >= 2, got {N!r}")
    mats = []
    for j in range(N):
        for k in range(j + 1, N):
            M = np.zeros((N, N), dtype=complex)
            M[j, k] = 1.0
            M[k, j] = 1.0
            mats.append(M)
    for j in range(N):
        for k in range(j + 1, N):
            M = np.zeros((N, N), dtype=complex)
            M[j, k] = -1.0j
            M[k, j] = 1.0j
            mats.append(M)
    for l in range(1, N):
        diag = np.zeros(N, dtype=complex)
        diag[:l] = 1.0
        diag[l] = -float(l)
        mats.append(np.sqrt(2.0 / (l * (l + 1))) * np.diag(diag))
    return BasisSet(int(N), tuple(mats))


def assemble_segment_hamiltonian(
    grid: ControlGrid, z: int, basis: BasisSet
) -> np.ndarray:
    """Hamiltonian of segment z (1-based): sum_j values[j, z-1] * B_j."""
    if basis.size != grid.num_controls:
        raise ValueError(
            f"grid has {grid.num_controls} control rows but the basis "
            f"provides {basis.size} generators"
        )
    if not 1 <= z <= grid.segments:
        raise ValueError(f"segment index {z} outside 1..{grid.segments}")
    return np.tensordot(grid.values[:, z - 1], basis.stack, axes=1)


def _hamiltonian_stack(grid: ControlGrid, basis: BasisSet) -> np.ndarray:
    """All Z segment Hamiltonians as one (Z, dim, dim) stack."""
    if basis.size != grid.num_controls:
        raise ValueError(
            f"grid has {grid.num_controls} control rows but the basis "
            f"provides {basis.size} generators"
        )
    n, dim = basis.size, basis.dim
    return (grid.values.T @ basis.stack.reshape(n, dim * dim)).reshape(-1, dim, dim)


def _segment_kernel(H: np.ndarray, dt: float) -> tuple:
    """(lam, V, U) for a (Z, dim, dim) stack of Hermitian Hamiltonians.

    One batched eigendecomposition H_z = V_z diag(lam_z) V_z^dag gives every
    segment unitary U_z = exp(-i H_z dt), exactly unitary up to roundoff
    because the eigenphases have unit modulus.
    """
    H = np.asarray(H, dtype=complex)
    if H.ndim != 3 or H.shape[1] != H.shape[2]:
        raise ValueError(f"expected a (Z, n, n) stack, got shape {H.shape}")
    if dt < 0.0:
        raise ValueError(f"time step must be nonnegative, got {dt}")
    Hh = _dagger(H)
    scale = np.maximum(1.0, np.max(np.abs(H), axis=(1, 2)))
    if np.any(np.max(np.abs(H - Hh), axis=(1, 2)) > HERMITICITY_TOL * scale):
        raise ValueError("Hamiltonian stack is not Hermitian within tolerance")
    lam, V = np.linalg.eigh((H + Hh) / 2.0)
    U = (V * np.exp(-1j * dt * lam)[:, None, :]) @ _dagger(V)
    return lam, V, U


def _divided_differences(lam: np.ndarray, dt: float) -> np.ndarray:
    """Divided-difference tables of f(x) = exp(-i x dt) over each eigenvalue row.

    Entry (z, a, b) is (f(a) - f(b)) / (a - b), written in the stable form
    -i dt exp(-i (a + b) dt / 2) sinc((a - b) dt / 2), which needs no
    degeneracy threshold and reduces to f'(a) on the diagonal. The derivative
    of U_z along a Hermitian D is V_z (K_z o V_z^dag D V_z) V_z^dag.
    """
    a = lam[:, :, None]
    b = lam[:, None, :]
    return -1j * dt * np.exp(-0.5j * dt * (a + b)) * np.sinc(0.5 * dt * (a - b) / np.pi)


def _ordered_product(U: np.ndarray) -> np.ndarray:
    """U_Z ... U_1 for a (Z, n, n) stack; bitwise equal to _ordered_products(U)[-1]."""
    total = U[0]
    for u in U[1:]:
        total = u @ total
    return total


def _ordered_products(U: np.ndarray) -> np.ndarray:
    """Prefix products P[z] = U_z ... U_1 of a (Z, n, n) stack, P[0] = I."""
    P = np.empty((U.shape[0] + 1,) + U.shape[1:], dtype=complex)
    P[0] = np.eye(U.shape[1])
    for z in range(U.shape[0]):
        np.matmul(U[z], P[z], out=P[z + 1])
    return P


def propagate(grid: ControlGrid, basis: BasisSet) -> PropagationResult:
    """Segment unitaries and the horizon propagator U_Z ... U_1."""
    _, _, U = _segment_kernel(_hamiltonian_stack(grid, basis), grid.dt)
    return PropagationResult(U, _ordered_product(U))
