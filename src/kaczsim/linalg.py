"""Dense linear-algebra primitives for block projection solvers.

All pseudoinverse-based operations go through an SVD with a relative rank
threshold of RANK_RTOL * sigma_max, so rank-deficient blocks behave
predictably across the whole package.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import DimensionError, InvalidParameter

# Relative cutoff for treating a singular value as zero.
RANK_RTOL = 1e-10


def as_matrix(A) -> np.ndarray:
    """Coerce to a 2-d float array, densifying sparse input."""
    if hasattr(A, "toarray"):
        A = A.toarray()
    A = np.asarray(A, dtype=float)
    if A.ndim != 2:
        raise DimensionError(f"expected a matrix, got ndim={A.ndim}")
    return A


def as_vector(v) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if v.ndim != 1:
        raise DimensionError(f"expected a vector, got ndim={v.ndim}")
    return v


@dataclass
class SvdFactors:
    """Thin SVD of a matrix, truncated at the numerical rank.

    U (m x r) and V (n x r) are column-orthonormal; sigma holds the r
    retained singular values in decreasing order.  sigma_min is the
    smallest retained (nonzero) singular value, 0.0 for a zero matrix.
    """

    U: np.ndarray
    sigma: np.ndarray
    V: np.ndarray
    rank: int
    sigma_min: float


def svd(A) -> SvdFactors:
    """Thin SVD with rank cut at RANK_RTOL * sigma_max."""
    A = as_matrix(A)
    if not np.all(np.isfinite(A)):
        raise InvalidParameter("matrix has non-finite entries")
    if A.size == 0:
        return SvdFactors(np.zeros((A.shape[0], 0)), np.zeros(0), np.zeros((A.shape[1], 0)), 0, 0.0)
    U, s, Vt = np.linalg.svd(A, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        r = 0
    else:
        r = int(np.sum(s > RANK_RTOL * s[0]))
    return SvdFactors(U[:, :r], s[:r], Vt[:r].T, r, float(s[r - 1]) if r else 0.0)


def pinv(A) -> np.ndarray:
    """Moore-Penrose pseudoinverse via the package-wide rank rule."""
    f = svd(A)
    if f.rank == 0:
        return np.zeros((f.V.shape[0], f.U.shape[0]))
    return f.V @ (f.U / f.sigma).T


def row_space_basis(A) -> np.ndarray:
    """Orthonormal basis (n x r) of the row space of A."""
    return svd(A).V


def project_null(A_J, v) -> np.ndarray:
    """Project v onto the null space of A_J: (I - pinv(A_J) A_J) v."""
    A_J = as_matrix(A_J)
    v = as_vector(v)
    if A_J.shape[1] != v.shape[0]:
        raise DimensionError(f"cols {A_J.shape[1]} != len(v) {v.shape[0]}")
    f = svd(A_J)
    # v minus its component in the row space.
    return v - f.V @ (f.V.T @ v)


def gram_cholesky(A_J, lam: float):
    """Cholesky factorization of A_J A_J^T + lam^2 I (cacheable per block)."""
    A_J = as_matrix(A_J)
    G = A_J @ A_J.T + (lam * lam) * np.eye(A_J.shape[0])
    return scipy.linalg.cho_factor(G, lower=True)


def min_norm_solve(A, b) -> np.ndarray:
    """Minimum-norm least-squares solution pinv(A) b."""
    A = as_matrix(A)
    b = as_vector(b)
    if A.shape[0] != b.shape[0]:
        raise DimensionError(f"rows {A.shape[0]} != len(b) {b.shape[0]}")
    f = svd(A)
    if f.rank == 0:
        return np.zeros(A.shape[1])
    return f.V @ ((f.U.T @ b) / f.sigma)


def regularization_error_bound(sigma_min: float, lam: float) -> float:
    """Relative-error ceiling 1 / ((sigma_min/lam)^2 + 1) for the regularized solution."""
    if sigma_min <= 0 or lam <= 0:
        raise InvalidParameter(f"sigma_min and lambda must be positive, got {sigma_min}, {lam}")
    return 1.0 / ((sigma_min / lam) ** 2 + 1.0)


def augmented_min_norm_solve(A, b, lam: float) -> tuple[np.ndarray, np.ndarray]:
    """Minimum-norm solution of the always-consistent widened system (A, lam*I).

    Returns (x_reg, y_reg), the first n and last m components of the
    pseudoinverse solution.  Computed through the SVD of A: each retained
    mode contributes sigma/(sigma^2 + lam^2) to x_reg, and y_reg picks up
    the residual (b - A x_reg)/lam.
    """
    if lam <= 0:
        raise InvalidParameter(f"lambda must be positive, got {lam}")
    A = as_matrix(A)
    b = as_vector(b)
    if A.shape[0] != b.shape[0]:
        raise DimensionError(f"rows {A.shape[0]} != len(b) {b.shape[0]}")
    f = svd(A)
    c = f.U.T @ b
    x = f.V @ (c * f.sigma / (f.sigma**2 + lam * lam)) if f.rank else np.zeros(A.shape[1])
    y = (b - A @ x) / lam
    return x, y
