import math

import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from kaczsim import agents, linalg, problems
from kaczsim.errors import DimensionError, InvalidParameter
from oracles import project_null


def rng(seed=0):
    return np.random.default_rng(seed)


# ---------------------------------------------------------------- project_null

def test_project_null_axis():
    out = project_null(np.array([[1.0, 0.0]]), np.array([3.0, 4.0]))
    assert np.allclose(out, [0.0, 4.0], atol=1e-12)


def test_project_null_fixes_null_vectors():
    A = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    v = np.array([0.0, 0.0, 2.5])  # already in null(A)
    assert np.allclose(project_null(A, v), v, atol=1e-12)


def test_project_null_residual_oracle():
    g = rng(1)
    A = g.normal(size=(3, 5))
    v = g.normal(size=5)
    out = project_null(A, v)
    # independent check: the projected vector must be annihilated by A
    assert np.linalg.norm(A @ out) <= 1e-9 * np.linalg.norm(A) * np.linalg.norm(v)


def test_project_null_dimension_error():
    with pytest.raises(DimensionError):
        project_null(np.eye(2), np.zeros(3))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(1, 5), st.integers(1, 6))
def test_project_null_idempotent_nonexpansive_orthogonal(seed, m, n):
    g = rng(seed)
    A = g.normal(size=(m, n))
    v = g.normal(size=n)
    p = project_null(A, v)
    pp = project_null(A, p)
    scale = max(np.linalg.norm(p), 1.0)
    assert np.linalg.norm(pp - p) <= 1e-9 * scale
    assert np.linalg.norm(p) <= np.linalg.norm(v) + 1e-12
    assert np.linalg.norm(A @ p) <= 1e-9 * max(np.linalg.norm(A) * np.linalg.norm(v), 1.0)


# ------------------------------------------------------ consistent correction

def kaczmarz_correction(A, b, w):
    """The consistent block correction w + A^T W (W^T (b - A w)), W W^T =
    (A A^T)^+, that agents.step applies."""
    W = linalg.gram_pinv_root(A)
    return w + A.T @ (W @ (W.T @ (b - A @ w)))


def test_kaczmarz_correction_fixed_point():
    g = rng(2)
    A = g.normal(size=(2, 4))
    w = g.normal(size=4)
    b = A @ w
    assert np.allclose(kaczmarz_correction(A, b, w), w, atol=1e-12)


def test_kaczmarz_correction_identity_block():
    b = np.array([2.0, -1.0])
    out = kaczmarz_correction(np.eye(2), b, np.array([9.0, 9.0]))
    assert np.allclose(out, b, atol=1e-12)


def test_kaczmarz_correction_solves_block():
    g = rng(3)
    A = g.normal(size=(2, 4))
    b = A @ g.normal(size=4)  # consistent by construction
    out = kaczmarz_correction(A, b, g.normal(size=4))
    assert np.linalg.norm(A @ out - b) <= 1e-9 * max(np.linalg.norm(b), 1.0)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_kaczmarz_correction_moves_within_row_space(seed):
    g = rng(seed)
    A = g.normal(size=(3, 6))
    b = g.normal(size=3)
    w = g.normal(size=6)
    delta = kaczmarz_correction(A, b, w) - w
    # delta must lie in Row(A): projecting it onto null(A) leaves nothing
    assert np.linalg.norm(project_null(A, delta)) <= 1e-9 * max(np.linalg.norm(delta), 1.0)


# ------------------------------------------------------------- gram_pinv_root

RANK_DEFICIENT_BLOCKS = {
    "zero-row": np.array([[1.0, 2.0, 0.0, -1.0], [0.0, 0.0, 0.0, 0.0], [3.0, -1.0, 2.0, 0.5]]),
    "duplicated-rows": np.array([[1.0, 2.0, 0.0, -1.0], [1.0, 2.0, 0.0, -1.0],
                                 [0.5, 0.0, 1.0, 2.0], [1.0, 2.0, 0.0, -1.0]]),
    "all-zero": np.zeros((3, 4)),
}


@pytest.mark.parametrize("case", sorted(RANK_DEFICIENT_BLOCKS))
def test_kaczmarz_correction_rank_deficient_block(case):
    A = RANK_DEFICIENT_BLOCKS[case]
    g = rng(7)
    w = g.normal(size=4)
    assert linalg.gram_pinv_root(A).shape == (A.shape[0], np.linalg.matrix_rank(A))
    # any right-hand side: the pinv correction within 1e-12 relative
    b = g.normal(size=A.shape[0])
    ref = w + np.linalg.pinv(A) @ (b - A @ w)
    assert np.linalg.norm(kaczmarz_correction(A, b, w) - ref) <= 1e-12 * np.linalg.norm(ref)
    # consistent block data: the correction solves the block
    b = A @ g.normal(size=4)
    out = kaczmarz_correction(A, b, w)
    assert np.linalg.norm(A @ out - b) <= 1e-12 * max(np.linalg.norm(b), 1.0)
    if case == "all-zero":
        assert np.array_equal(out, w)


def test_kaczmarz_correction_nearly_dependent_rows():
    # two rows 1e-8 apart, both retained (kappa ~ 1e9): the correction's
    # rounding error grows with kappa, as pinv's does; the materialized
    # (A A^T)^+ would square it and no longer contract
    A = np.array([[1.0, 2.0, 0.0, -1.0], [1.0, 2.0, 0.0, -1.0 + 1e-8], [0.5, 0.0, 1.0, 2.0]])
    s = np.linalg.svd(A, compute_uv=False)
    assert linalg.gram_pinv_root(A).shape == (3, 3)
    bound = 10 * np.finfo(float).eps * s[0] / s[-1]
    for seed in range(5):
        g = rng(seed)
        x, w = g.normal(size=4), g.normal(size=4)
        b = A @ x
        ref = w + np.linalg.pinv(A) @ (b - A @ w)
        assert np.linalg.norm(kaczmarz_correction(A, b, w) - ref) <= bound * np.linalg.norm(w - x)


@pytest.mark.parametrize("scale", [1e-160, 1e160])
def test_kaczmarz_correction_scaled_block(scale):
    # sigma^2 underflows or overflows; the factored correction never forms it
    A = scale * rng(8).normal(size=(6, 4))
    g = rng(9)
    w, x = g.normal(size=4), g.normal(size=4)
    for b in (A @ x, scale * g.normal(size=6)):
        ref = w + np.linalg.pinv(A) @ (b - A @ w)
        assert np.linalg.norm(kaczmarz_correction(A, b, w) - ref) <= 1e-12 * np.linalg.norm(ref)
    assert np.linalg.norm(kaczmarz_correction(A, A @ x, w) - x) <= 1e-12 * np.linalg.norm(x)


# -------------------------------------------------------------- gram_inverses

def gram_solve(A, lam, r):
    """alpha = F r, as agents.step applies the factor F of one block."""
    return linalg.gram_inverses([A], lam)[0] @ r


def independent_gram_solve(A, lam, r):
    return np.linalg.solve(A @ A.T + lam**2 * np.eye(A.shape[0]), r)


def test_gram_solve_hand_case():
    # single row (1,0), lam=1: gram = 1 + 1 = 2, so r=2 -> alpha=1
    A, r = np.array([[1.0, 0.0]]), np.array([2.0])
    out = gram_solve(A, 1.0, r)
    assert np.allclose(out, [1.0], atol=1e-12)
    assert np.allclose(out, independent_gram_solve(A, 1.0, r), rtol=1e-12, atol=0)


def test_gram_solve_zero_rhs():
    A = rng(4).normal(size=(3, 5))
    out = gram_solve(A, 0.7, np.zeros(3))
    assert np.array_equal(out, np.zeros(3))


def test_gram_solve_residual_oracle():
    g = rng(5)
    A = g.normal(size=(3, 6))
    r = g.normal(size=3)
    lam = 0.3
    alpha = gram_solve(A, lam, r)
    assert np.allclose((A @ A.T + lam**2 * np.eye(3)) @ alpha, r, atol=1e-9)
    assert np.allclose(alpha, independent_gram_solve(A, lam, r), rtol=1e-10, atol=1e-12)


def test_gram_inverse_not_positive_definite_raises():
    # lam^2 = 1e-300 is lost against the singular Gram matrix of two equal rows
    with pytest.raises(InvalidParameter, match="positive definite"):
        linalg.gram_inverses([np.array([[1.0, 2.0], [1.0, 2.0]])], 1e-150)


def test_gram_inverse_overflowing_gram_raises():
    # the entries of A_J A_J^T reach 1e320, past the largest double; the
    # widened-system oracle, which squares sigma, refuses the same matrix
    A = 1e160 * rng(8).normal(size=(6, 4))
    with pytest.raises(InvalidParameter, match="overflows"):
        linalg.gram_inverses([A], 1.0)
    with pytest.raises(InvalidParameter, match="overflows"):
        linalg.augmented_min_norm_solve(A, np.ones(6), 1.0)


@pytest.mark.parametrize("bad, lam, match", [
    (np.array([[1.0, 2.0], [1.0, 2.0]]), 1e-150, "positive definite"),
    (1e160 * rng(8).normal(size=(2, 4)), 1.0, "overflows")])
def test_stacked_gram_inverse_failure_raises(bad, lam, match):
    # in a stack, one failing block fails the call; block_factors then
    # factors the blocks one by one, so the failure stays with its block
    good = rng(3).normal(size=(2, 4))
    with pytest.raises(InvalidParameter, match=match):
        linalg.gram_inverses([good, bad, good], lam)
    factors = agents.block_factors([good, bad, good], lam)
    assert isinstance(factors[1], InvalidParameter) and match in str(factors[1])
    single = linalg.gram_inverses([good], lam)[0]
    assert np.array_equal(factors[0], single) and np.array_equal(factors[2], single)


def random_gram_blocks(g, height, count):
    """count random blocks of one height for gram_inverses: some rank-deficient
    (rank 0 to |J|), rows scaled by 1e-3 to 1e3."""
    blocks = []
    for _ in range(count):
        width = int(g.integers(1, 40))
        rank = int(g.integers(0, min(height, width) + 1))
        A = g.normal(size=(height, rank)) @ g.normal(size=(rank, width))
        blocks.append(A * 10.0 ** g.uniform(-3, 3, size=(height, 1)))
    return blocks


def test_gram_inverse_residual_within_condition_number():
    # F comes from the Cholesky factor: |F G - I| stays within a small
    # multiple of eps * cond(G), for one block and for a stack, whose
    # factors are the single ones bit for bit
    g = rng(21)
    eps = np.finfo(float).eps
    for _ in range(60):
        height, lam = int(g.integers(1, 25)), 10.0 ** g.uniform(-3, 1)
        blocks = random_gram_blocks(g, height, int(g.integers(1, 6)))
        stacked = linalg.gram_inverses(blocks, lam)
        assert stacked.shape == (len(blocks), height, height)
        for A, F_stacked in zip(blocks, stacked):
            F = linalg.gram_inverses([A], lam)[0]
            assert np.array_equal(F, F_stacked) and np.array_equal(F, F.T)
            G = A @ A.T + lam**2 * np.eye(height)
            assert np.linalg.norm(F @ G - np.eye(height), 2) <= 8 * height * eps * np.linalg.cond(G)


def test_gram_solve_accepts_cached_factorization():
    g = rng(6)
    A = g.normal(size=(4, 7))
    r = g.normal(size=4)
    F = linalg.gram_inverses([A], 2.0)[0]
    direct = gram_solve(A, 2.0, r)
    assert np.allclose(direct, independent_gram_solve(A, 2.0, r), rtol=1e-12, atol=1e-15)
    # a factor reused across solves gives the fresh result bit for bit
    for _ in range(2):
        assert np.array_equal(F @ r, direct)


# ------------------------------------------------------------------------ svd

def test_svd_diagonal():
    f = linalg.svd(np.diag([2.0, 1.0]))
    assert np.allclose(f.sigma, [2.0, 1.0])
    assert f.sigma_min == pytest.approx(1.0)
    assert f.rank == 2


def test_svd_zero_matrix():
    f = linalg.svd(np.zeros((2, 2)))
    assert f.rank == 0
    assert f.sigma.size == 0
    assert f.sigma_min == 0.0


def test_svd_reconstruction_and_orthonormality():
    A = rng(7).normal(size=(10, 4))
    f = linalg.svd(A)
    assert np.linalg.norm(f.U @ np.diag(f.sigma) @ f.V.T - A, 2) <= 1e-8 * np.linalg.norm(A, 2)
    assert np.allclose(f.U.T @ f.U, np.eye(f.rank), atol=1e-10)
    assert np.allclose(f.V.T @ f.V, np.eye(f.rank), atol=1e-10)


def test_svd_rank_threshold():
    # second singular value far below the relative cutoff collapses the rank
    U, _ = np.linalg.qr(rng(8).normal(size=(5, 2)))
    V, _ = np.linalg.qr(rng(9).normal(size=(3, 2)))
    A = U @ np.diag([1.0, 1e-13]) @ V.T
    assert linalg.svd(A).rank == 1


# --------------------------------------------------------------- min_norm_solve

def test_min_norm_symmetric_split():
    out = linalg.min_norm_solve(np.array([[1.0, 1.0]]), np.array([2.0]))
    assert np.allclose(out, [1.0, 1.0], atol=1e-12)


def test_min_norm_identity():
    b = rng(10).normal(size=4)
    assert np.allclose(linalg.min_norm_solve(np.eye(4), b), b, atol=1e-12)


def test_min_norm_rank_deficient_oracle():
    g = rng(11)
    A = g.normal(size=(8, 3)) @ g.normal(size=(3, 5))  # rank 3 of 5
    b = g.normal(size=8)
    x = linalg.min_norm_solve(A, b)
    # normal equations hold for any least-squares minimizer
    assert np.allclose(A.T @ (A @ x), A.T @ b, atol=1e-8)
    # minimum-norm selects the minimizer orthogonal to null(A)
    assert np.linalg.norm(project_null(A, x)) <= 1e-9 * np.linalg.norm(x)


# --------------------------------------------------------------- regularization_error_bound

def test_regularization_error_bound_values():
    assert linalg.regularization_error_bound(1.0, 1.0) == pytest.approx(0.5)
    assert linalg.regularization_error_bound(2.0, 1.0) == pytest.approx(0.2)
    assert linalg.regularization_error_bound(1.0, 1e-9) == pytest.approx(0.0, abs=1e-12)


def test_regularization_error_bound_rejects_nonpositive():
    for s, l in [(0.0, 1.0), (1.0, 0.0), (-1.0, 1.0), (1.0, -2.0)]:
        with pytest.raises(InvalidParameter):
            linalg.regularization_error_bound(s, l)


@settings(max_examples=60, deadline=None)
@given(
    st.floats(0.01, 100.0),
    st.floats(0.01, 100.0),
    st.floats(1.0001, 10.0),
)
def test_regularization_error_bound_strictly_increasing_in_lambda(sigma, lam, factor):
    assert linalg.regularization_error_bound(sigma, lam * factor) > linalg.regularization_error_bound(sigma, lam)


# ------------------------------------------------- augmented_min_norm_solve

def test_augmented_solution_near_consistent_limit():
    g = rng(12)
    A = g.normal(size=(6, 4))  # full column rank almost surely
    b = A @ g.normal(size=4)
    x_reg, _ = linalg.augmented_min_norm_solve(A, b, 1e-6)
    x_star = linalg.min_norm_solve(A, b)
    assert np.linalg.norm(x_reg - x_star) <= 1e-4 * np.linalg.norm(x_star)


def test_augmented_solution_diagonal_hand_case():
    # modes scale by sigma/(sigma^2 + lam^2): (2*2/(4+1), 1*1/(1+1))
    x_reg, y_reg = linalg.augmented_min_norm_solve(np.diag([2.0, 1.0]), np.array([2.0, 1.0]), 1.0)
    assert np.allclose(x_reg, [0.8, 0.5], atol=1e-12)
    assert np.allclose(np.diag([2.0, 1.0]) @ x_reg + 1.0 * y_reg, [2.0, 1.0], atol=1e-12)


def test_augmented_solution_matches_explicit_pseudoinverse():
    g = rng(13)
    A = g.normal(size=(7, 4))
    b = g.normal(size=7)
    lam = 0.8
    x_reg, y_reg = linalg.augmented_min_norm_solve(A, b, lam)
    # oracle: pseudoinverse of the explicitly widened matrix
    widened = np.hstack([A, lam * np.eye(7)])
    z = np.linalg.pinv(widened) @ b
    assert np.allclose(x_reg, z[:4], atol=1e-9)
    assert np.allclose(y_reg, z[4:], atol=1e-9)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**31 - 1), st.floats(0.05, 5.0))
def test_augmented_solution_bound_and_consistency(seed, lam):
    g = rng(seed)
    A = g.normal(size=(6, 4))
    b = g.normal(size=6)
    x_reg, y_reg = linalg.augmented_min_norm_solve(A, b, lam)
    # widened-system consistency
    resid = np.linalg.norm(A @ x_reg + lam * y_reg - b)
    assert resid <= 1e-8 * max(np.linalg.norm(b), 1.0)
    # relative-error ceiling from the smallest retained singular value
    x_star = linalg.min_norm_solve(A, b)
    if np.linalg.norm(x_star) > 1e-9:
        bound = linalg.regularization_error_bound(linalg.svd(A).sigma_min, lam)
        rel = np.linalg.norm(x_star - x_reg) / np.linalg.norm(x_star)
        assert bound - rel >= -1e-10


# ------------------------------------ oracle selection: LSQR above SVD_MAX_ENTRIES

def large_system(kind: str):
    """A system above SVD_MAX_ENTRIES: overdetermined full rank (sparse),
    underdetermined (dense), or rank-deficient (rank 40 of 120, sparse)."""
    g = rng(20)
    if kind == "overdetermined":
        A = scipy.sparse.csr_matrix(g.normal(size=(400, 120)) * (g.random((400, 120)) < 0.2))
    elif kind == "underdetermined":
        A = g.normal(size=(120, 300))
    else:
        A = scipy.sparse.csr_matrix(g.normal(size=(300, 40)) @ g.normal(size=(40, 120)))
    assert A.shape[0] * A.shape[1] > linalg.SVD_MAX_ENTRIES
    return A, g.normal(size=A.shape[0])


def refuse_svd(*args, **kwargs):
    raise AssertionError("dense SVD called above SVD_MAX_ENTRIES")


def dense_svd(monkeypatch, solve, *args):
    """solve(*args) on the dense SVD path, whatever the size."""
    with monkeypatch.context() as patch:
        patch.setattr(linalg, "SVD_MAX_ENTRIES", math.inf)
        return solve(*args)


def lsqr_only(monkeypatch, solve, *args):
    """solve(*args) with np.linalg.svd refusing, so only the LSQR path can pass."""
    with monkeypatch.context() as patch:
        patch.setattr(np.linalg, "svd", refuse_svd)
        return solve(*args)


def rel(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


# both oracles, each returning one vector (augmented: x_reg then y_reg)
ORACLES = [linalg.min_norm_solve,
           lambda A, b: np.concatenate(linalg.augmented_min_norm_solve(A, b, 1.0))]


@pytest.mark.parametrize("kind", ["overdetermined", "underdetermined", "rank-deficient"])
def test_min_norm_lsqr_matches_svd(monkeypatch, kind):
    A, b = large_system(kind)
    x = lsqr_only(monkeypatch, linalg.min_norm_solve, A, b)
    assert rel(x, dense_svd(monkeypatch, linalg.min_norm_solve, A, b)) <= 1e-10


@pytest.mark.parametrize("lam", [0.3, 1.0, 3.0])
def test_augmented_lsqr_matches_svd(monkeypatch, lam):
    A, b = large_system("overdetermined")
    x, y = lsqr_only(monkeypatch, linalg.augmented_min_norm_solve, A, b, lam)
    x_svd, y_svd = dense_svd(monkeypatch, linalg.augmented_min_norm_solve, A, b, lam)
    assert rel(x, x_svd) <= 1e-10
    assert rel(y, y_svd) <= 1e-10


@pytest.mark.parametrize("solve", ORACLES, ids=["min_norm", "augmented"])
def test_lsqr_without_convergence_falls_back_to_svd(monkeypatch, solve):
    A, b = large_system("overdetermined")
    expected = dense_svd(monkeypatch, solve, A, b)
    calls = []

    def stalled_lsqr(A, b, damp):
        calls.append(damp)
        return np.zeros(A.shape[1]), 7, 2 * A.shape[1]   # istop 7: iteration limit reached

    monkeypatch.setattr(linalg, "_lsqr", stalled_lsqr)
    assert np.array_equal(solve(A, b), expected)
    assert len(calls) == 1


@pytest.mark.parametrize("solve", ORACLES, ids=["min_norm", "augmented"])
def test_lsqr_path_keeps_input_checks(monkeypatch, solve):
    A, b = large_system("overdetermined")
    with pytest.raises(DimensionError):
        lsqr_only(monkeypatch, solve, A, b[:-1])
    A = A.copy()
    A.data[5] = np.inf
    with pytest.raises(InvalidParameter):
        lsqr_only(monkeypatch, solve, A, b)


def test_generate_above_cutoff_skips_dense_svd(monkeypatch):
    spec = problems.ProblemSpec(m=300, n=120, density=0.1, noise=0.1, seed=4, agents=3)
    inst = lsqr_only(monkeypatch, problems.generate, spec)
    x_svd = dense_svd(monkeypatch, linalg.min_norm_solve, inst.dense(), inst.b)
    assert rel(inst.x_star, x_svd) <= 1e-10


@pytest.mark.parametrize("branch", ["lsqr", "svd"])
def test_augmented_lambda_square_overflow_raises_on_both_branches(monkeypatch, branch):
    inst = problems.generate(problems.ProblemSpec(m=400, n=200, density=0.02, seed=12, agents=4))
    assert inst.m * inst.n > linalg.SVD_MAX_ENTRIES
    if branch == "svd":
        monkeypatch.setattr(linalg, "SVD_MAX_ENTRIES", math.inf)
    else:   # the LSQR branch refuses lambda before its first product
        monkeypatch.setattr(problems.CsrRows, "products", lambda A: pytest.fail("iterated"))
    with pytest.raises(InvalidParameter, match="overflows"):
        linalg.augmented_min_norm_solve(inst.A, inst.b, 1e200)


def random_csr(g: np.random.Generator, kind: str) -> problems.CsrRows:
    """A random sparse matrix of one of four kinds, with an empty row and an
    empty column, and some stored -0.0 entries."""
    small, large = int(g.integers(2, 12)), int(g.integers(12, 40))
    m, n = {"tall": (large, small), "wide": (small, large), "square": (large, large),
            "rank-deficient": (large, small)}[kind]
    A = g.normal(size=(m, n)) * (g.random((m, n)) < g.uniform(0.2, 0.9))
    if kind == "rank-deficient":
        k = n // 2
        A[:, n - k:] = A[:, :k]   # duplicated columns
    A[g.integers(m)] = 0.0
    A[:, g.integers(n)] = 0.0
    A[(A == 0) & (g.random((m, n)) < 0.1)] = -0.0
    return problems.CsrRows.from_dense(A)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(["tall", "wide", "square", "rank-deficient"]),
       st.sampled_from([0.0, 1e-3, 0.7, 1.0, 3.0]))
def test_lsqr_port_matches_scipy_bit_for_bit(seed, kind, damp):
    g = rng(seed)
    A = random_csr(g, kind)
    b = g.normal(size=A.shape[0])
    x, istop, itn = linalg._lsqr(A, b, damp)
    want = scipy.sparse.linalg.lsqr(A.tocsr(), b, damp=damp, atol=linalg.LSQR_TOL,
                                    btol=linalg.LSQR_TOL)
    assert x.tobytes() == want[0].tobytes()
    assert (istop, itn) == want[1:3]
