"""su(N) generator bases, piecewise-constant Hamiltonians, and exact propagators.

All evolution here is closed-system with hbar = 1: a control grid assigns one
real amplitude per generator per time segment, each segment evolves under
U_z = exp(-i H_z dt), and the horizon propagator is the time-ordered product
U_Z ... U_2 U_1 (later segments on the left).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "NumericalFault",
    "BasisSet",
    "ControlGrid",
    "PropagationResult",
    "build_su_basis",
    "propagate",
]

# Construction-time tolerances for the domain types.
BASIS_HERMITICITY_TOL = 1e-14
BASIS_TRACE_TOL = 1e-14
BASIS_ORTHOGONALITY_TOL = 1e-12
UNITARITY_TOL = 1e-12
DETERMINANT_TOL = 1e-10

# A batched call holds at most this many bytes of dim x dim complex matrices
# (see _blocks). Much larger temporaries, like the tangent map's 1.3 MB at
# N = 8, Z = 20, have their pages handed back and faulted in on every call.
BLOCK_BYTES = 256 * 1024


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
    |value| <= kappa.
    """

    horizon: float
    kappa: float
    values: np.ndarray

    def __post_init__(self):
        if not (self.horizon > 0.0 and np.isfinite(self.horizon)):
            raise ValueError(f"horizon must be positive, got {self.horizon}")
        if not (self.kappa >= 0.0 and np.isfinite(self.kappa)):
            raise ValueError(f"bound must be nonnegative, got {self.kappa}")
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 2 or vals.shape[0] < 1 or vals.shape[1] < 1:
            raise ValueError(f"values must be a 2-D matrix, got shape {vals.shape}")
        if not np.all(np.isfinite(vals)):
            raise ValueError("control values must be finite")
        if np.any(np.abs(vals) > self.kappa):
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

    def with_values(self, values: np.ndarray) -> "ControlGrid":
        """Same horizon and bound, different amplitudes."""
        return ControlGrid(self.horizon, self.kappa, values)

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
        if np.isinf(2.0 * kappa):
            raise ValueError(f"bound {kappa} is too large to sample: 2 kappa overflows")
        vals = rng.uniform(-kappa, kappa, size=(num_controls, segments))
        return cls(horizon, kappa, vals)


@dataclass(frozen=True)
class PropagationResult:
    """Per-segment unitaries and their ordered product over the horizon."""

    segment_unitaries: tuple
    total: np.ndarray = field(init=False)

    def __post_init__(self):
        segs = np.asarray(self.segment_unitaries, dtype=complex)
        if segs.ndim != 3 or segs.shape[0] < 1 or segs.shape[1] != segs.shape[2]:
            raise ValueError(
                f"need a nonempty sequence of square segment unitaries, got shape {segs.shape}"
            )
        object.__setattr__(self, "total", _frozen(_check_propagation(segs)[-1]))
        object.__setattr__(self, "segment_unitaries", tuple(_frozen(segs)))


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


def _hamiltonian_stack(values: np.ndarray, basis: BasisSet) -> np.ndarray:
    """Segment Hamiltonians of a (..., size, Z) stack of control values.

    The result is a (..., Z, dim, dim) stack: one grid's Z Hamiltonians, or
    those of every grid along the leading axes.
    """
    if values.shape[-2] != basis.size:
        raise ValueError(
            f"grid has {values.shape[-2]} control rows but the basis "
            f"provides {basis.size} generators"
        )
    n, dim = basis.size, basis.dim
    H = np.swapaxes(values, -1, -2) @ basis.stack.reshape(n, dim * dim)
    return H.reshape(H.shape[:-1] + (dim, dim))


def _segment_kernel(H: np.ndarray, dt: float) -> tuple:
    """(lam, V, U) for a (..., Z, dim, dim) stack of Hermitian Hamiltonians.

    One batched eigendecomposition H_z = V_z diag(lam_z) V_z^dag gives every
    segment unitary U_z = exp(-i H_z dt), exactly unitary up to roundoff
    because the eigenphases have unit modulus. Leading axes beyond the
    segment axis index grids evaluated together.

    It checks nothing: callers build H with _hamiltonian_stack from a
    checked basis and finite values, with dt > 0, and _check_propagation
    catches a NaN. H is symmetrized because a basis is Hermitian only to
    BASIS_HERMITICITY_TOL.
    """
    lam, V = np.linalg.eigh((H + _dagger(H)) / 2.0)
    U = (V * np.exp(-1j * dt * lam)[..., None, :]) @ _dagger(V)
    return lam, V, U


def _divided_differences(lam: np.ndarray, dt: float) -> np.ndarray:
    """Divided-difference tables of f(x) = exp(-i x dt) over each eigenvalue row.

    Entry (z, a, b) is (f(a) - f(b)) / (a - b), written in the stable form
    -i dt exp(-i (a + b) dt / 2) sinc((a - b) dt / 2), which needs no
    degeneracy threshold and reduces to f'(a) on the diagonal. The derivative
    of U_z along a Hermitian D is V_z (K_z o V_z^dag D V_z) V_z^dag.
    """
    return _difference_quotients(lam[..., :, None], lam[..., None, :], dt)


def _difference_quotients(a: np.ndarray, b: np.ndarray, dt: float) -> np.ndarray:
    """(f(a) - f(b)) / (a - b) for f(x) = exp(-i x dt), elementwise, in the sinc form."""
    return -1j * dt * np.exp(-0.5j * dt * (a + b)) * np.sinc(0.5 * dt * (a - b) / np.pi)


def _second_divided_differences(lam: np.ndarray, dt: float) -> np.ndarray:
    """Second divided differences f[lam_p, lam_q, lam_r] of f(x) = exp(-i x dt).

    Entry (..., p, q, r) belongs to eigenvalue row (...). With lo < hi the
    farthest pair of the three eigenvalues and w the third, the entry is
    (f[w, hi] - f[w, lo]) / (hi - lo), from the sinc-form first differences.
    That quotient loses about eps / (dt (hi - lo)) to cancellation, so where
    dt (hi - lo) <= 1e-2 the entry is instead the series about the mean m,
    -dt^2 exp(-i m dt) sum_k (-i)^k h_k / (k + 2)!, with h_k the complete
    homogeneous polynomial of degree k in the scaled deviations dt (lam - m):
    h_1 = 0, h_2 = -e2, h_3 = e3, h_4 = e2^2 and h_5 = -2 e2 e3 in their
    elementary symmetric polynomials. The first term left out, h_6, is
    below 1e-16 of the sum, and an exact tie gives f''(m) / 2.
    """
    triples = np.broadcast_arrays(
        lam[..., :, None, None], lam[..., None, :, None], lam[..., None, None, :]
    )
    lo, w, hi = np.moveaxis(np.sort(np.stack(triples, axis=-1), axis=-1), -1, 0)
    near = dt * (hi - lo) <= 1e-2
    gap = np.where(near, 1.0, hi - lo)
    quotient = (_difference_quotients(w, hi, dt) - _difference_quotients(w, lo, dt)) / gap
    mean = (lo + w + hi) / 3.0
    u = [dt * (x - mean) for x in (lo, w, hi)]
    e2 = u[0] * u[1] + u[1] * u[2] + u[2] * u[0]
    e3 = u[0] * u[1] * u[2]
    series = -dt * dt * np.exp(-1j * dt * mean) * (
        0.5 + e2 / 24.0 + e2 * e2 / 720.0 + 1j * (e3 / 120.0 + e2 * e3 / 2520.0)
    )
    return np.where(near, series, quotient)


def _blocks(count: int, size: int, dim: int) -> list:
    """Slices that split `count` items of `size` complex dim x dim matrices
    each (a grid's segments, or its tangent rows) into blocks of at most
    BLOCK_BYTES (one item at least)."""
    step = max(1, BLOCK_BYTES // (16 * size * dim * dim))
    return [slice(lo, lo + step) for lo in range(0, count, step)]


def _ordered_products(U: np.ndarray) -> np.ndarray:
    """Prefix products P[..., z] = U_z ... U_1 of a (..., Z, n, n) stack, P[..., 0] = I.

    The last prefix, P[..., Z], is the horizon propagator.
    """
    Z = U.shape[-3]
    P = np.empty(U.shape[:-3] + (Z + 1,) + U.shape[-2:], dtype=complex)
    # Views with the segment axis first, so that the loop indexes one axis.
    Us, Ps = U.swapaxes(0, -3), P.swapaxes(0, -3)
    Ps[0] = np.eye(U.shape[-1])
    for z in range(Z):
        np.matmul(Us[z], Ps[z], out=Ps[z + 1])
    return P


def _check_propagation(segs: np.ndarray) -> np.ndarray:
    """The prefix products (_ordered_products) of a (..., Z, n, n) segment stack, checked.

    Every segment and every total U_Z ... U_1 must be unitary in Frobenius
    norm, and every total must have determinant 1; otherwise NumericalFault
    names the first failure. Each check is written to fail on NaN. This is
    the one place a propagation's invariants are checked.
    """
    P = _ordered_products(segs)
    total = P[..., -1, :, :]
    both = np.concatenate((segs, total[..., None, :, :]), axis=-3)
    gram = _dagger(both) @ both - np.eye(total.shape[-1])
    bad = ~(np.linalg.norm(gram, axis=(-2, -1)) <= UNITARITY_TOL)
    if bad.any():
        z = np.argwhere(bad)[0][-1]
        if z < segs.shape[-3]:
            raise NumericalFault(f"segment unitary {z} failed the unitarity check")
        raise NumericalFault("total propagator failed the unitarity check")
    if not (np.abs(np.linalg.det(total) - 1.0) <= DETERMINANT_TOL).all():
        raise NumericalFault("total propagator is not special unitary")
    return P


def _propagated(values: np.ndarray, dt: float, basis: BasisSet) -> tuple:
    """(lam, V, P) for a (..., size, Z) value stack, checked like propagate's.

    One kernel call: the segment eigenpairs lam, V (_segment_kernel) and the
    prefix products P[..., z] = U_z ... U_1, whose last is the horizon
    propagator. Everything the objective, the gradient, the tangent map and
    the Hessian need of a grid is derived from these.
    """
    lam, V, U = _segment_kernel(_hamiltonian_stack(values, basis), dt)
    return lam, V, _check_propagation(U)


def propagate(grid: ControlGrid, basis: BasisSet) -> PropagationResult:
    """Segment unitaries and the horizon propagator U_Z ... U_1."""
    _, _, U = _segment_kernel(_hamiltonian_stack(grid.values, basis), grid.dt)
    return PropagationResult(U)
