"""Reference implementations the tests check the package against.

Each one computes its result the textbook way (a projection directly from
the SVD or the pseudoinverse, a dense matrix by np.add.at, a mean by
np.add.reduce, a CSV file by csv.writer, distinct positions one draw at a
time), with none of the caching, factoring, compression, preformatting or
vectorizing the package does.  The exception is sequential_iid_step, the
iid block step one block at a time: it draws each block with
Generator.choice but keeps the package's arithmetic, so that the batched
step must match it bit for bit.
"""
import csv

import numpy as np

from kaczsim import agents, linalg
from kaczsim.errors import DimensionError


def pinv(A) -> np.ndarray:
    """Moore-Penrose pseudoinverse V_r Sigma_r^-1 U_r^T from linalg.svd and
    its rank rule."""
    f = linalg.svd(A)
    if f.rank == 0:
        return np.zeros((f.V.shape[0], f.U.shape[0]))
    return f.V @ (f.U / f.sigma).T


def project_null(A_J, v) -> np.ndarray:
    """Project v onto the null space of A_J: (I - pinv(A_J) A_J) v."""
    A_J = linalg.as_matrix(A_J)
    v = linalg.as_vector(v)
    if A_J.shape[1] != v.shape[0]:
        raise DimensionError(f"cols {A_J.shape[1]} != len(v) {v.shape[0]}")
    f = linalg.svd(A_J)
    # v minus its component in the row space.
    return v - f.V @ (f.V.T @ v)


def restricted_product_norm(A, families, basis: np.ndarray | None = None) -> float:
    """Spectral norm, restricted to Row(A), of a product of null-space projections."""
    A = linalg.as_matrix(A)
    basis = linalg.row_space_basis(A) if basis is None else basis
    n = A.shape[1]
    P = np.eye(n)
    for rows in families:
        A_J = A[list(rows)]
        P = (np.eye(n) - pinv(A_J) @ A_J) @ P
    return float(np.linalg.norm(basis.T @ P @ basis, 2))


def sequential_iid_step(state, cfg, entries):
    """agents.step for an iid agent, one block at a time: the block drawn by
    Generator.choice without replacement and sorted, then the block's columns
    and dense rows read off the shard, its factor from agents.block_factors
    on the block alone and the step's row-space update, with no block drawn
    ahead and no planning pass.  A block whose factoring failed raises its
    error at its own step."""
    w = agents.aggregate(entries)
    J = np.sort(state.rng.choice(cfg.local_rows, size=cfg.block_size, replace=False))
    state.block = J
    A = cfg.A
    cols = np.unique(np.concatenate([A.indices[A.indptr[j]:A.indptr[j + 1]] for j in J]))
    # C order, as the package's blocks: a BLAS product rounds by memory layout
    A_J = np.ascontiguousarray(A.toarray()[J][:, cols])
    factor = agents.block_factors([A_J], cfg.lam)[0]
    if isinstance(factor, Exception):
        raise factor
    r = cfg.b[J] - A_J @ w[cols]
    if cfg.lam is None:
        alpha = factor @ (factor.T @ r)
    else:
        alpha = factor @ (r - cfg.lam * state.y[J])
        state.y[J] += cfg.lam * alpha
    w[cols] += A_J.T @ alpha
    state.x = w
    state.k += 1
    return state


def mean_estimate(entries) -> np.ndarray:
    """The mean of the snapshot entries' estimates the way np.mean takes it:
    np.add.reduce over the stacked estimates (axis 0), then one division."""
    return np.add.reduce([vec for _, vec, _ in entries], axis=0) / len(entries)


def write_events_csv(log, path) -> None:
    """events.csv through csv.writer: a header row, then one row
    (repr(time), kind, agent, detail) per event."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["time", "kind", "agent", "detail"])
        for ev in log:
            w.writerow([repr(float(ev.time)), ev.kind, ev.agent, ev.detail])


def coo_dense(shape, row, col, data) -> np.ndarray:
    """The dense matrix of coordinate entries, entries at one position added
    in stored order."""
    out = np.zeros(shape)
    np.add.at(out, (row, col), data)
    return out


def adjacency(topo) -> np.ndarray:
    """The symmetric 0/1 adjacency matrix of a topology.Topology."""
    g = np.zeros((topo.agents, topo.agents), dtype=np.uint8)
    for i, nbrs in enumerate(topo.neighbors):
        g[i, nbrs] = 1
    return g


def sample_positions(g, m: int, n: int, nnz: int) -> np.ndarray:
    """problems._sample_positions one drawn position at a time: each batch
    draws the positions still missing, and a position joins in draw order
    unless it was taken before."""
    taken: set[int] = set()
    order: list[int] = []
    while len(order) < nnz:
        batch = g.integers(0, m * n, size=nnz - len(order))
        for p in batch:
            p = int(p)
            if p not in taken:
                taken.add(p)
                order.append(p)
    return np.array(order, dtype=np.int64)
