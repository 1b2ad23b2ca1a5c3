"""Per-agent state machines for the consistent and regularized block updates.

An agent holds a contiguous shard (A_i, b_i) of the global system and a
state (x, optionally y, iteration counter, block-sampling stream).  Each
step averages the snapshot of neighbor estimates (self always included),
draws a row block, and applies either

* the consistent correction  x <- w + pinv(A_J) (b_J - A_J w), or
* the regularized correction from the widened system (A, lam I):
      r = b_J - A_J w - lam * y_J
      alpha = (A_J A_J^T + lam^2 I)^{-1} r
      x <- w + A_J^T alpha,   y_J <- y_J + lam * alpha.

Only x is ever broadcast; y stays local to its owner.

Block sampling is either coverage-cyclic (a permuted pass over a fixed
disjoint chunking, so every row is used once per pass) or iid uniform
without replacement.  The chunk table is built once per agent
(AgentConfig.chunks).  In cyclic mode a step given a cache memoises, per
chunk, the chunk's row slice, the views A_J and b_J into the shard and the
block's pseudoinverse or Gram factorization (block_factor), so a revisited
chunk needs no indexing and no factorization; iid blocks are gathered and
factored afresh every step.  The step updates the agent state in place.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.linalg

from . import linalg
from .errors import CorruptMessage, DimensionError, InvalidParameter

CYCLE = "cycle"
IID = "iid"

# The LAPACK routine scipy.linalg.cho_solve calls, without its wrapper.
_potrs = scipy.linalg.get_lapack_funcs("potrs", dtype=np.float64)


@dataclass(frozen=True)
class AgentConfig:
    agent_id: int
    A: np.ndarray                 # m_i x n shard
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
        if not (0.0 < self.t_min <= self.t_max):
            raise InvalidParameter(f"need 0 < t_min <= t_max, got [{self.t_min}, {self.t_max}]")
        if self.lam is not None and not 0 < self.lam < np.inf:
            raise InvalidParameter(f"lambda must be positive and finite, got {self.lam}")
        if self.sampling not in (CYCLE, IID):
            raise InvalidParameter(f"unknown sampling mode {self.sampling!r}")
        if not (np.all(np.isfinite(self.A)) and np.all(np.isfinite(self.b))):
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


@dataclass
class NeighborSnapshot:
    """Latest known estimates, one entry per sender; self always present."""

    entries: list[tuple[int, np.ndarray, int]]   # (sender, estimate, sender iteration)


def initial_state(cfg: AgentConfig, block_rng: np.random.Generator, init: np.ndarray | None = None) -> AgentState:
    x = np.zeros(cfg.dim) if init is None else np.asarray(init, dtype=float).copy()
    if x.shape != (cfg.dim,):
        raise CorruptMessage(f"initial estimate has shape {x.shape}, expected ({cfg.dim},)")
    if not np.all(np.isfinite(x)):
        raise CorruptMessage("initial estimate has non-finite entries")
    y = np.zeros(cfg.local_rows) if cfg.augmented else None
    return AgentState(x=x, y=y, k=0, block=np.arange(0), chunk=None, rng=block_rng)


def aggregate(snapshot: NeighborSnapshot) -> np.ndarray:
    """Arithmetic mean of all snapshot estimates.

    np.add.reduce over axis 0 and one division is the reduction np.mean
    performs, so the result is bit-identical to it.  A sequential sum is
    not: for n = 1 the reduction runs along the contiguous axis, pairwise.
    """
    entries = snapshot.entries
    if not entries:
        raise CorruptMessage("empty snapshot: self entry is mandatory")
    dim = entries[0][1].shape
    vecs = []
    for sender, vec, _ in entries:
        if vec.shape != dim:
            raise CorruptMessage(f"estimate from {sender} has shape {vec.shape}, expected {dim}")
        vecs.append(vec)
    return np.add.reduce(vecs, axis=0) / len(vecs)


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


def block_factor(A_J: np.ndarray, lam: float | None):
    """The block's solve factor: pinv(A_J) in consistent mode, the Cholesky
    factorization of A_J A_J^T + lam^2 I in regularized mode."""
    if lam is None:
        return linalg.pinv(A_J)
    return linalg.gram_cholesky(A_J, lam)


def _block_entry(cfg: AgentConfig, J: np.ndarray, chunk: int | None) -> tuple:
    """(rows, A_J, b_J, factor) for block J.  A chunk is a contiguous range,
    so rows is a slice and A_J, b_J are views into the shard; an iid block
    is gathered by fancy indexing."""
    if chunk is None:
        rows, A_J = J, cfg.A[J]
    else:
        rows = slice(int(J[0]), int(J[-1]) + 1)
        # a no-op view on C-ordered shards; other layouts get the row-major
        # copy fancy indexing would make, so the products round the same way
        A_J = np.ascontiguousarray(cfg.A[rows])
    return rows, A_J, cfg.b[rows], block_factor(A_J, cfg.lam)


def step(state: AgentState, cfg: AgentConfig, snapshot: NeighborSnapshot,
         cache: dict | None = None) -> AgentState:
    """Average the snapshot, then project onto the sampled block equations.

    The block entry (rows, A_J, b_J, factor) is memoised in cache[chunk]
    when a cache is given and the block is a chunk (cyclic sampling); iid
    blocks are gathered and factored afresh.  The state is updated in
    place (k, block, chunk, the sampler, x rebound to a new array, y's
    block entries) and the same object is returned.
    """
    w = aggregate(snapshot)
    J = sample_block(state, cfg)
    if cache is not None and state.chunk is not None:
        entry = cache.get(state.chunk)
        if entry is None:
            entry = cache[state.chunk] = _block_entry(cfg, J, state.chunk)
    else:
        entry = _block_entry(cfg, J, state.chunk)
    rows, A_J, b_J, factor = entry
    if cfg.lam is None:
        state.x = w + factor @ (b_J - A_J @ w)
        state.k += 1
        return state
    lam = cfg.lam
    y_J = state.y[rows]
    r = b_J - A_J @ w - lam * y_J
    c, lower = factor
    alpha, info = _potrs(c, r, lower=lower, overwrite_b=True)
    if info != 0:
        raise ValueError(f"illegal value in argument {-info} of LAPACK potrs")
    state.x = w + A_J.T @ alpha
    state.y[rows] = y_J + lam * alpha
    state.k += 1
    return state


def snapshot_payload(state: AgentState) -> np.ndarray:
    """The broadcast payload: a copy of x only, never y."""
    return state.x.copy()
