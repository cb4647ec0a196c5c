"""Reference computations made apart from the program, for the output checks.

Everything here uses scipy directly (matrix exponentials, Frechet
derivatives, HiGHS linear programs) or plain finite differences, never the
program's own kernels. The only conventions shared with the program are the
documented ones: the control layout values[j, z], U_T = U_Z ... U_1 with
U_z = exp(-i H_z T/Z), and the generator basis, which is validated here.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import expm, expm_frechet
from scipy.optimize import linprog

SQRT_1_5 = math.sqrt(1.5)
KAPPA_AUTO = math.pi / math.sqrt(3.0)

PAULI = np.array(
    [[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]], dtype=complex
)


def check_basis(stack: np.ndarray) -> np.ndarray:
    """Return the generator stack after checking Hermitian, traceless, Tr[B_i B_j] = 2 d_ij."""
    stack = np.asarray(stack, dtype=complex)
    n, N, _ = stack.shape
    if n != N * N - 1:
        raise ValueError(f"{n} generators for N={N}")
    if np.max(np.abs(stack - stack.conj().transpose(0, 2, 1))) > 1e-14:
        raise ValueError("basis is not Hermitian")
    if np.max(np.abs(np.trace(stack, axis1=1, axis2=2))) > 1e-14:
        raise ValueError("basis is not traceless")
    gram = np.einsum("iab,jba->ij", stack, stack)
    if np.max(np.abs(gram - 2.0 * np.eye(n))) > 1e-12:
        raise ValueError("basis is not orthonormal")
    return stack


def segment_hamiltonians(values: np.ndarray, stack: np.ndarray) -> list:
    return [np.tensordot(values[:, z], stack, axes=1) for z in range(values.shape[1])]


def total_propagator(values: np.ndarray, stack: np.ndarray, T: float) -> np.ndarray:
    """Ordered product of scipy.linalg.expm segment exponentials."""
    dt = T / values.shape[1]
    U = np.eye(stack.shape[1], dtype=complex)
    for H in segment_hamiltonians(values, stack):
        U = expm(-1j * dt * H) @ U
    return U


def objective(rho0: np.ndarray, obs: np.ndarray, U: np.ndarray) -> float:
    return float(np.trace(obs @ U @ rho0 @ U.conj().T).real)


def tangent_rows(values: np.ndarray, stack: np.ndarray, T: float) -> np.ndarray:
    """Coordinates of -i U_T^dag dU_T/d eps_{j,z} in {B_k / sqrt 2}, rows like values.ravel()."""
    m, Z = values.shape
    dt = T / Z
    Hs = segment_hamiltonians(values, stack)
    units = [expm(-1j * dt * H) for H in Hs]
    rows = np.empty((m * Z, stack.shape[0]))
    P = np.eye(stack.shape[1], dtype=complex)
    for z in range(Z):
        for j in range(m):
            dU = expm_frechet(-1j * dt * Hs[z], -1j * dt * stack[j], compute_expm=False)
            A = -1j * P.conj().T @ units[z].conj().T @ dU @ P
            rows[j * Z + z] = np.einsum("kab,ba->k", stack, A).real / math.sqrt(2.0)
        P = units[z] @ P
    return rows


def corner_cone_distance(rows: np.ndarray, w: np.ndarray) -> float:
    """L1 distance from w to {rows^T d : d <= 0}, the admissible cone when every control sits at +kappa.

    Solved as one HiGHS linear program in (d, s): minimise sum(s) subject to
    -s <= rows^T d - w <= s.
    """
    A = rows.T
    n, m = A.shape
    eye = np.eye(n)
    res = linprog(
        np.concatenate([np.zeros(m), np.ones(n)]),
        A_ub=np.block([[A, -eye], [-A, -eye]]),
        b_ub=np.concatenate([w, -w]),
        bounds=[(None, 0.0)] * m + [(0.0, None)] * n,
        method="highs",
    )
    if res.status != 0:
        raise ValueError(f"cone-distance LP failed: {res.message}")
    return float(res.fun)


def trap_observable(alpha: float) -> np.ndarray:
    """sin(a + pi/3) s1 + sin(a - pi/3) s2 + sin(a) s3 (the paper's corner-trap observable)."""
    coeff = [math.sin(alpha + math.pi / 3), math.sin(alpha - math.pi / 3), math.sin(alpha)]
    return np.tensordot(coeff, PAULI, axes=1)


def trap_state() -> np.ndarray:
    return np.array([[1, 0], [0, 0]], dtype=complex)


def slice_f(e1, c):
    """The paper's two-parameter landscape f(e1; e2 = c)."""
    t = np.tan(e1)
    return (2.0 / np.pi) * (t ** 3 - t * np.cos(c) + np.tan(c / 2.0))


def fd_grad_norm(e1, e2, h=1e-6):
    """Central-difference gradient norm of f at (e1, e2); broadcasts."""
    d1 = (slice_f(e1 + h, e2) - slice_f(e1 - h, e2)) / (2 * h)
    d2 = (slice_f(e1, e2 + h) - slice_f(e1, e2 - h)) / (2 * h)
    return np.hypot(d1, d2)
