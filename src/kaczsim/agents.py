"""Per-agent state machines for the consistent and regularized block updates.

An agent holds a contiguous shard (A_i, b_i) of the global system and a
state (x, optionally y, iteration counter, block-sampling stream).  Each
step averages the snapshot of neighbor estimates (self always included),
draws a row block J and applies one row-space block projection (Needell &
Tropp, Linear Algebra Appl. 441, 2014):

      r = b_J - A_J w  (- lam y_J),   alpha = F r,   x <- w + A_J^T alpha.

F = (A_J A_J^T)^+ in consistent mode, so A_J^T F = pinv(A_J).  It is
applied as W (W^T r) with the |J| x rank factor W = U_r Sigma_r^-1 of
linalg.gram_pinv_root: the materialized F would square the block's
condition number in the step's rounding error.  The regularized mode
projects onto the widened system (A, lam I) with the |J| x |J| factor
F = (A_J A_J^T + lam^2 I)^{-1} and also sets y_J <- y_J + lam alpha.
Only x is ever broadcast; y stays local to its owner.

The shard A_i is sparse (problems.CsrRows); no m_i x n dense array is
held.  A block is densified on its column support only: A_J is |J| x
|cols|, cols the sorted columns where the rows of J have entries, and the
step reads and updates only w[cols], which is exact since A_J is zero
outside them.  A block on all n columns gives the whole block's step bit
for bit; a narrower one rounds its products over fewer terms.

Block sampling is either coverage-cyclic (a permuted pass over a fixed
disjoint chunking, so every row is used once per pass) or iid uniform
without replacement.  The agent config owns its block operators: the chunk
table (AgentConfig.chunks) and, built on first use, one block entry per
chunk (AgentConfig.blocks): the chunk's row slice, its columns cols, the
plan that places the chunk's entries in A_J (block_rows), the view b_J
into the shard and the factor W or F (block_factor).  A cyclic step finds
no support and factors nothing; it densifies A_J from the plan, one zero
array and one scatter, so that the entries hold one index per entry of
the shard rather than a dense copy of every block.  Iid blocks are
gathered and factored afresh every step.  The step updates the agent
state in place.  Every operation here is numpy.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import linalg
from .errors import CorruptMessage, DimensionError, InvalidParameter
from .problems import CsrRows

CYCLE = "cycle"
IID = "iid"


@dataclass(frozen=True)
class AgentConfig:
    agent_id: int
    A: CsrRows                    # m_i x n shard
    b: np.ndarray                 # m_i
    rows: np.ndarray              # global row indices of the shard
    block_size: int               # rows used per projection step
    lam: float | None = None      # None -> consistent mode, else lam > 0
    t_min: float = 0.5            # iteration interval lower bound
    t_max: float = 1.0            # iteration interval upper bound
    sampling: str = CYCLE

    def __post_init__(self):
        if not (len(self.b) == len(self.rows) == self.A.shape[0]):
            raise DimensionError(f"shard has {self.A.shape[0]} rows but len(b) = {len(self.b)}, "
                                 f"len(rows) = {len(self.rows)}")
        if not (1 <= self.block_size <= self.A.shape[0]):
            raise InvalidParameter(f"block size {self.block_size} outside [1, {self.A.shape[0]}]")
        if not (0.0 < self.t_min <= self.t_max < np.inf):
            raise InvalidParameter(f"need 0 < t_min <= t_max < inf, got [{self.t_min}, {self.t_max}]")
        if self.lam is not None:
            if not (self.lam > 0 and 0 < self.lam * self.lam < np.inf):   # False for nan
                raise InvalidParameter(f"lambda must be positive, with a square that neither "
                                       f"underflows nor overflows, got {self.lam}")
        if self.sampling not in (CYCLE, IID):
            raise InvalidParameter(f"unknown sampling mode {self.sampling!r}")
        if not (np.all(np.isfinite(self.A.data)) and np.all(np.isfinite(self.b))):
            raise InvalidParameter(f"agent {self.agent_id}: shard A or b has non-finite entries")

    @property
    def augmented(self) -> bool:
        return self.lam is not None

    @property
    def local_rows(self) -> int:
        return self.A.shape[0]

    @property
    def dim(self) -> int:
        return self.A.shape[1]

    @cached_property
    def chunks(self) -> list[np.ndarray]:
        """make_chunks of this shard, built on first use; the arrays are read-only."""
        chunks = make_chunks(self.local_rows, self.block_size)
        for chunk in chunks:
            chunk.flags.writeable = False
        return chunks

    @cached_property
    def blocks(self) -> list[tuple]:
        """_block_entry of each chunk, built on first use: the entries a
        cyclic step reads, so each chunk is factored once per config.  An
        entry keeps the plan of A_J, not A_J, so the entries of all chunks
        hold no copy of the shard's data."""
        return [_block_entry(self, chunk, c)[0] for c, chunk in enumerate(self.chunks)]


def make_chunks(local_rows: int, block_size: int) -> list[np.ndarray]:
    """Near-even contiguous chunking into ceil(m_i / block_size) pieces."""
    count = -(-local_rows // block_size)
    base, extra = divmod(local_rows, count)
    chunks, start = [], 0
    for c in range(count):
        size = base + (1 if c < extra else 0)
        chunks.append(np.arange(start, start + size))
        start += size
    return chunks


@dataclass
class AgentState:
    x: np.ndarray
    y: np.ndarray | None          # present only in regularized mode
    k: int
    block: np.ndarray             # local indices of the last used block
    chunk: int | None             # chunk id of the last block (cyclic mode)
    rng: np.random.Generator      # block-sampling stream (advances in place)
    order: list[int] = field(default_factory=list)  # remaining chunks this pass


def initial_state(cfg: AgentConfig, block_rng: np.random.Generator, init: np.ndarray | None = None) -> AgentState:
    x = np.zeros(cfg.dim) if init is None else np.asarray(init, dtype=float).copy()
    if x.shape != (cfg.dim,):
        raise CorruptMessage(f"initial estimate has shape {x.shape}, expected ({cfg.dim},)")
    if not np.all(np.isfinite(x)):
        raise CorruptMessage("initial estimate has non-finite entries")
    y = np.zeros(cfg.local_rows) if cfg.augmented else None
    return AgentState(x=x, y=y, k=0, block=np.arange(0), chunk=None, rng=block_rng)


def aggregate(entries: list[tuple[int, np.ndarray, int]]) -> np.ndarray:
    """Arithmetic mean of the estimates in snapshot entries (sender,
    estimate, sender iteration).

    np.add.reduce over axis 0 and one division is the reduction np.mean
    performs, so the result is bit-identical to it.  A sequential sum is
    not: for n = 1 the reduction runs along the contiguous axis, pairwise.
    """
    return np.add.reduce([vec for _, vec, _ in entries], axis=0) / len(entries)


def sample_block(state: AgentState, cfg: AgentConfig) -> np.ndarray:
    """Draw the next row block, updating the sampler bookkeeping on state."""
    if cfg.sampling == IID:
        state.block = np.sort(state.rng.choice(cfg.local_rows, size=cfg.block_size, replace=False))
        state.chunk = None
        return state.block
    chunks = cfg.chunks
    if not state.order:
        order = list(state.rng.permutation(len(chunks)))
        # avoid repeating the previous chunk across a pass boundary
        while len(chunks) > 1 and state.chunk is not None and order[0] == state.chunk:
            order = list(state.rng.permutation(len(chunks)))
        state.order = order
    state.chunk = state.order.pop(0)
    state.block = chunks[state.chunk]
    return state.block


def block_factor(A_J: np.ndarray, lam: float | None) -> np.ndarray:
    """The block's factor, |J| rows: W with W W^T = (A_J A_J^T)^+ in
    consistent mode, F = (A_J A_J^T + lam^2 I)^{-1} in regularized mode."""
    if lam is None:
        return linalg.gram_pinv_root(A_J)
    return linalg.gram_inverse(A_J, lam)


def block_rows(A: CsrRows, J: np.ndarray) -> tuple:
    """(cols, plan) for the sorted, distinct rows J of A: cols, the sorted
    columns where they have entries, and plan = (entries, pos, shape), from
    which densify builds A_J, the rows on those columns (|J| x |cols|):
    A.data[entries] at the flat positions pos of a zero array of that
    shape.  entries is a slice when J is a contiguous range, so a chunk's
    plan holds no copy of the data."""
    starts = A.indptr[J]
    counts = A.indptr[J + 1] - starts
    row = np.repeat(np.arange(len(J)), counts)
    entries = np.arange(len(row)) + (starts - counts.cumsum() + counts)[row]
    col = A.indices[entries]
    support = np.zeros(A.shape[1], dtype=bool)
    support[col] = True
    cols = support.nonzero()[0]
    pos = row * len(cols) + cols.searchsorted(col)
    if J[-1] - J[0] == len(J) - 1:
        entries = slice(int(starts[0]), int(starts[0]) + len(row))
    return cols, (entries, pos, (len(J), len(cols)))


def densify(A: CsrRows, plan: tuple) -> np.ndarray:
    """The dense block A_J of a block_rows plan, a new C-ordered array."""
    entries, pos, shape = plan
    A_J = np.zeros(shape[0] * shape[1])
    A_J[pos] = A.data[entries]
    return A_J.reshape(shape)


def _block_entry(cfg: AgentConfig, J: np.ndarray, chunk: int | None) -> tuple:
    """((rows, cols, plan, b_J, factor), A_J) for block J, with cols and
    plan from block_rows.  A chunk is a contiguous range, so rows is a
    slice and b_J a view into the shard; an iid block's b_J is gathered."""
    rows = J if chunk is None else slice(int(J[0]), int(J[-1]) + 1)
    cols, plan = block_rows(cfg.A, J)
    A_J = densify(cfg.A, plan)
    return (rows, cols, plan, cfg.b[rows], block_factor(A_J, cfg.lam)), A_J


def step(state: AgentState, cfg: AgentConfig,
         entries: list[tuple[int, np.ndarray, int]]) -> AgentState:
    """Average the snapshot entries (self and the latest estimate from each
    neighbor heard from), then project onto the sampled block equations.

    A chunk's block entry (rows, cols, plan, b_J, factor) comes from
    cfg.blocks and its A_J is densified from the plan; an iid block is
    gathered and factored afresh.  The state is updated in place (k, block,
    chunk, the sampler, x rebound to the new array aggregate returns, y's
    block entries) and the same object is returned.
    """
    w = aggregate(entries)
    J = sample_block(state, cfg)
    if state.chunk is None:
        (rows, cols, _, b_J, factor), A_J = _block_entry(cfg, J, None)
    else:
        rows, cols, plan, b_J, factor = cfg.blocks[state.chunk]
        A_J = densify(cfg.A, plan)
    r = b_J - A_J @ w[cols]
    if cfg.augmented:
        alpha = factor @ (r - cfg.lam * state.y[rows])
        state.y[rows] += cfg.lam * alpha
    else:
        alpha = factor @ (factor.T @ r)
    w[cols] += A_J.T @ alpha
    state.x = w
    state.k += 1
    return state


def snapshot_payload(state: AgentState) -> np.ndarray:
    """The broadcast payload: a copy of x only, never y."""
    return state.x.copy()
