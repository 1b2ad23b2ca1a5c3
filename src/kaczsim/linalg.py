"""Linear-algebra primitives for block projection solvers, and the oracles.

All pseudoinverse-based operations go through an SVD with a relative rank
threshold of RANK_RTOL * sigma_max, so rank-deficient blocks behave
predictably across the whole package.  A null-space projector is
I - V V^T with V = row_space_basis(A_J), from that SVD and rule.

The two oracles, min_norm_solve and augmented_min_norm_solve, take A dense
or sparse and pick their solver by size.  Up to SVD_MAX_ENTRIES entries
(m*n) they use the dense SVD above, the oracle of record.  Larger systems
run LSQR (Paige & Saunders 1982) on A in CSR form from x0 = 0, which
converges to the minimum-norm least-squares solution; with damp = lam it
gives the x of the widened system (A, lam*I).  With atol = btol = 1e-14
it agreed with the dense SVD to 4e-14 relative in x and 4e-13 in y on
generated 2000x400, 4000x800 and 8000x2000 instances, lam in {0.3, 1, 3}.
If LSQR stops without converging, the oracle falls back to the dense SVD.
The LSQR here (_lsqr) is a numpy port of scipy.sparse.linalg.lsqr whose
products come from problems.CsrRows; it returns scipy's x, istop and
itn bit for bit.  Per product it is about 3x slower than scipy's compiled
CSR kernels at 10^6 entries, and saves the import of scipy.sparse.linalg.

The block factors have |J| rows and at most |J| columns: W with
W W^T = (A_J A_J^T)^+, applied as w + A_J^T W (W^T r), and
F = (A_J A_J^T + lam^2 I)^{-1}, applied as w + A_J^T (F r).  F comes
from the Cholesky factor G = L L^T of the shifted Gram matrix, the same
factorization that checks G is positive definite: L is inverted by forward
substitution, X = L^{-1}, and F = X^T X, with no LU factorization
(shifted_gram_inverse).  gram_inverses factors a stack of blocks of one
height; one block is a stack of one, and a stack does per block what it
does for one, so their factors agree bit for bit.

This module imports numpy only, and so does every function in it.
"Sparse" here means any matrix with tocsr and toarray methods: a
scipy.sparse matrix or a problems.CsrRows, which densifies with numpy alone.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, InvalidParameter

# Relative cutoff for treating a singular value as zero.
RANK_RTOL = 1e-10

# Largest system (m*n entries) the oracles solve by dense SVD; above it
# LSQR is faster.  Measured crossover on generated instances, lam = 1, a
# 2-core Xeon with one BLAS thread, with scipy's LSQR: SVD 3.2 ms against
# LSQR 3.5 ms at 300x80, 5.7 ms against 3.0 ms at 500x100.  The numpy
# port's products are slower, but the constant stays: it decides which
# solver writes x_star, so moving it would change saved instances.
SVD_MAX_ENTRIES = 2**15

# LSQR stopping tolerances (atol and btol) for the oracles, and its bound
# on the condition estimate (conlim).
LSQR_TOL = 1e-14
LSQR_CONLIM = 1e8

EPS = np.finfo(np.float64).eps


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


def row_space_basis(A) -> np.ndarray:
    """Orthonormal basis (n x r) of the row space of A."""
    return svd(A).V


def gram_pinv_root(A_J) -> np.ndarray:
    """W = U_r Sigma_r^-1 (|J| x r) from svd(A_J) and its rank rule, so that
    W W^T = (A_J A_J^T)^+ and A_J^T W W^T = pinv(A_J).  Applied as
    W (W^T r), its rounding error grows with the condition number of A_J,
    as pinv(A_J) r does; the materialized product W W^T, or an eigensolve
    of A_J A_J^T, squares it."""
    f = svd(A_J)
    return f.U / f.sigma


def gram_inverses(A_Js, lam: float) -> np.ndarray:
    """F = (A_J A_J^T + lam^2 I)^{-1} of each of a list of blocks of one
    height |J|, as one stack (len(A_Js), |J|, |J|).  Each Gram matrix
    A_J A_J^T is written into one preallocated stack by ndarray.dot (the
    BLAS routine of @, without its ufunc dispatch), and the diagonals then
    take lam^2 in place; shifted_gram_inverse inverts the stack.  The right
    factor is a copy of A_J, so that numpy calls the general product (gemm)
    rather than the symmetric rank-k update (syrk) it picks for an array
    times its own transpose: at 20 x 150, 5.3 us with the copy against
    7.1 us (OpenBLAS 0.3.31, one thread, a 2-core Xeon VM)."""
    h = A_Js[0].shape[0]
    G = np.empty((len(A_Js), h, h))
    with np.errstate(over="ignore", invalid="ignore"):
        for G_i, A_J in zip(G, A_Js):
            A_J.dot(A_J.copy().T, out=G_i)
        G.reshape(len(G), h * h)[:, ::h + 1] += lam * lam
    return shifted_gram_inverse(G, lam)


def shifted_gram_inverse(G: np.ndarray, lam: float) -> np.ndarray:
    """Inverse of a block Gram matrix G = A_J A_J^T + lam^2 I, or of each
    matrix in a stack of them (shape (..., |J|, |J|)), from the Cholesky
    factor G = L L^T: F = X^T X with X = L^{-1} (_lower_inverse), and no LU.
    Every step runs on the whole stack at once and does per matrix what it
    does for one, so a stack's inverses equal the single ones bit for bit.
    F G - I stays within a small multiple of eps * cond(G).

    A G that is not finite (the Gram matrix overflowed), or that is not
    numerically positive definite (lam^2 lost against the entries of
    A_J A_J^T on a rank-deficient block) and so fails its Cholesky
    factorization, raises InvalidParameter; in a stack, one such matrix
    fails the whole call.
    """
    if not np.all(np.isfinite(G)):
        raise InvalidParameter(f"block Gram matrix A_J A_J^T + lambda^2 I overflows at "
                               f"lambda = {lam!r}: the block's entries are too large")
    try:
        L = np.linalg.cholesky(G)
    except np.linalg.LinAlgError as exc:
        raise InvalidParameter(f"block Gram matrix A_J A_J^T + lambda^2 I is not positive "
                               f"definite at lambda = {lam!r}: {exc}") from exc
    h = G.shape[-1]
    X = _lower_inverse(L.reshape(-1, h, h)).reshape(G.shape)
    return np.matmul(X.swapaxes(-1, -2), X)


def _lower_inverse(L: np.ndarray) -> np.ndarray:
    """X = L^{-1} of each lower-triangular matrix, with a nonzero diagonal,
    in a stack L of shape (s, k, k), by forward substitution on the whole
    stack: X is lower triangular with diagonal 1 / L_ii, and row i left of
    it is -(L[i, :i] X[:i, :i]) / L_ii, one product and one division per
    row for all s matrices."""
    s, k, _ = L.shape
    X = np.zeros_like(L)
    diagonal = L.diagonal(axis1=1, axis2=2)
    X.reshape(s, k * k)[:, ::k + 1] = 1.0 / diagonal
    negated = -diagonal
    for i in range(1, k):
        np.divide(np.matmul(L[:, i:i + 1, :i], X[:, :i, :i])[:, 0], negated[:, i:i + 1],
                  out=X[:, i, :i])
    return X


def _system(A, b):
    """(A, b) checked for matching rows: A a 2-d float array, or sparse as given."""
    if not hasattr(A, "tocsr"):
        A = as_matrix(A)
    b = as_vector(b)
    if A.shape[0] != b.shape[0]:
        raise DimensionError(f"rows {A.shape[0]} != len(b) {b.shape[0]}")
    return A, b


def _csr_rows(A):
    """A sparse or dense A as a problems.CsrRows that shares its arrays where
    it can: a CsrRows as it is, a scipy matrix through its CSR arrays in
    stored order, a dense array by CsrRows.from_dense."""
    from .problems import CsrRows   # problems imports this module

    if isinstance(A, CsrRows):
        return A
    if hasattr(A, "tocsr"):
        A = A.tocsr()
        return CsrRows(A.shape, A.indptr, A.indices, np.asarray(A.data, dtype=float))
    return CsrRows.from_dense(A)


def _sym_ortho(a, b):
    """Stable Givens rotation (c, s, r) with [c s; -s c] [a; b] = [r; 0]
    (S.-C. Choi's SymOrtho, as LSQR uses it)."""
    if b == 0:
        return np.sign(a), 0, abs(a)
    if a == 0:
        return 0, np.sign(b), abs(b)
    if abs(b) > abs(a):
        tau = a / b
        s = np.sign(b) / math.sqrt(1 + tau * tau)
        c = s * tau
        r = b / s
    else:
        tau = b / a
        c = np.sign(a) / math.sqrt(1 + tau * tau)
        s = c * tau
        r = a / c
    return c, s, r


def _lsqr(A, b: np.ndarray, damp: float) -> tuple[np.ndarray, int, int]:
    """LSQR (Paige & Saunders, ACM TOMS 8(1), 1982) for the minimizer of
    |A x - b|^2 + damp^2 |x|^2 from x0 = 0, on a problems.CsrRows A.
    Returns (x, istop, itn): istop 1 or 2 means converged at
    atol = btol = LSQR_TOL, 0 that x = 0 is exact, 3 that the condition
    estimate passed conlim = 1e8, 4-6 the machine-precision forms of 1-3,
    7 the iteration limit 2n.

    A port of scipy.sparse.linalg.lsqr without its options: the same
    recurrence, rotations, stopping tests and float operations in the
    same order, with A x and A^T u from A.products(), which match scipy's
    CSR and CSC products bit for bit, so x, istop and itn equal scipy's.
    (scipy's lsqr.py: BSD license, Copyright (c) 2006, Systems
    Optimization Laboratory.)  A damp whose square overflows raises
    InvalidParameter before the first product.
    """
    damp = float(damp)
    try:
        dampsq = damp**2
    except OverflowError:
        dampsq = math.inf
    if not math.isfinite(dampsq):
        raise InvalidParameter(f"lambda^2 overflows at lambda = {damp!r}")
    matvec, rmatvec = A.products()
    n = A.shape[1]
    iter_lim = 2 * n
    ctol = 1 / LSQR_CONLIM
    itn = istop = 0
    anorm = acond = ddnorm = res2 = xxnorm = z = sn2 = 0
    cs2 = -1

    # First vectors of the bidiagonalization: beta u = b, alfa v = A^T u.
    x = np.zeros(n)
    u = b
    bnorm = np.linalg.norm(b)
    beta = bnorm
    if beta > 0:
        u = (1 / beta) * u
        v = rmatvec(u)
        alfa = np.linalg.norm(v)
    else:
        v = x.copy()
        alfa = 0
    if alfa > 0:
        v = (1 / alfa) * v
    w = v.copy()
    rhobar = alfa
    phibar = beta
    if alfa * beta == 0:
        return x, istop, itn

    while itn < iter_lim:
        itn = itn + 1
        # Next bidiagonalization step: beta u = A v - alfa u, alfa v = A^T u - beta v.
        u = matvec(v) - alfa * u
        beta = np.linalg.norm(u)
        if beta > 0:
            u = (1 / beta) * u
            anorm = math.sqrt(anorm**2 + alfa**2 + beta**2 + dampsq)
            v = rmatvec(u) - beta * v
            alfa = np.linalg.norm(v)
            if alfa > 0:
                v = (1 / alfa) * v

        # A rotation that eliminates the damping term from the diagonal.
        if damp > 0:
            rhobar1 = math.sqrt(rhobar**2 + dampsq)
            cs1 = rhobar / rhobar1
            sn1 = damp / rhobar1
            psi = sn1 * phibar
            phibar = cs1 * phibar
        else:
            rhobar1 = rhobar
            psi = 0.

        # A rotation that eliminates the subdiagonal beta.
        cs, sn, rho = _sym_ortho(rhobar1, beta)
        theta = sn * alfa
        rhobar = -cs * alfa
        phi = cs * phibar
        phibar = sn * phibar
        tau = sn * phi

        t1 = phi / rho
        t2 = -theta / rho
        dk = (1 / rho) * w
        x = x + t1 * w
        w = v + t2 * w
        ddnorm = ddnorm + np.linalg.norm(dk)**2

        # A rotation on the right that eliminates the superdiagonal theta,
        # for the estimate of |x|.
        delta = sn2 * rho
        gambar = -cs2 * rho
        rhs = phi - delta * z
        zbar = rhs / gambar
        xnorm = math.sqrt(xxnorm + zbar**2)
        gamma = math.sqrt(gambar**2 + theta**2)
        cs2 = gambar / gamma
        sn2 = theta / gamma
        z = rhs / gamma
        xxnorm = xxnorm + z**2

        # Stopping tests, from the estimates of cond(A), |r| and |A^T r|.
        acond = anorm * math.sqrt(ddnorm)
        res1 = phibar**2
        res2 = res2 + psi**2
        rnorm = math.sqrt(res1 + res2)
        arnorm = alfa * abs(tau)
        test1 = rnorm / bnorm
        test2 = arnorm / (anorm * rnorm + EPS)
        test3 = 1 / (acond + EPS)
        t1 = test1 / (1 + anorm * xnorm / bnorm)
        rtol = LSQR_TOL + LSQR_TOL * anorm * xnorm / bnorm
        if itn >= iter_lim:
            istop = 7
        if 1 + test3 <= 1:
            istop = 6
        if 1 + test2 <= 1:
            istop = 5
        if 1 + t1 <= 1:
            istop = 4
        if test3 <= ctol:
            istop = 3
        if test2 <= LSQR_TOL:
            istop = 2
        if test1 <= rtol:
            istop = 1
        if istop != 0:
            break
    return x, istop, itn


def _lsqr_solution(A, b, damp: float) -> np.ndarray | None:
    """_lsqr's x for a system above SVD_MAX_ENTRIES.  None, so that the
    caller uses the dense SVD, for a smaller system or when LSQR stops
    without converging (istop other than 0, 1, 2)."""
    if A.shape[0] * A.shape[1] <= SVD_MAX_ENTRIES:
        return None
    A = _csr_rows(A)
    if not np.all(np.isfinite(A.data)):
        raise InvalidParameter("matrix has non-finite entries")
    x, istop, _ = _lsqr(A, b, damp)
    return x if istop in (0, 1, 2) else None


def min_norm_solve(A, b) -> np.ndarray:
    """Minimum-norm least-squares solution pinv(A) b; A dense or sparse."""
    A, b = _system(A, b)
    x = _lsqr_solution(A, b, 0.0)
    if x is not None:
        return x
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
    pseudoinverse solution; A dense or sparse.  Through the SVD of A, each
    retained mode contributes sigma/(sigma^2 + lam^2) to x_reg; above
    SVD_MAX_ENTRIES, LSQR with damp = lam gives x_reg.  Either way y_reg
    is the residual (b - A x_reg)/lam.  A sigma_max^2 that overflows in the
    SVD branch raises InvalidParameter.
    """
    if lam <= 0:
        raise InvalidParameter(f"lambda must be positive, got {lam}")
    A, b = _system(A, b)
    x = _lsqr_solution(A, b, lam)
    if x is None:
        A = as_matrix(A)
        f = svd(A)
        with np.errstate(over="ignore"):
            shifted = f.sigma**2 + lam * lam
        if not np.all(np.isfinite(shifted)):
            raise InvalidParameter(f"sigma_max^2 + lambda^2 overflows at lambda = {lam!r}: "
                                   f"the matrix's entries are too large")
        c = f.U.T @ b
        x = f.V @ (c * f.sigma / shifted) if f.rank else np.zeros(A.shape[1])
    y = (b - A @ x) / lam
    return x, y
