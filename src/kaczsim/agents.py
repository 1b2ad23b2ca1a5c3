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
without replacement.  In cyclic mode the per-chunk pseudoinverse or Gram
factorization (block_factor) is cached across steps.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
import scipy.linalg

from . import linalg
from .errors import CorruptMessage, DimensionError, InvalidParameter

CYCLE = "cycle"
IID = "iid"


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
        if self.lam is not None and self.lam <= 0:
            raise InvalidParameter(f"lambda must be positive, got {self.lam}")
        if self.sampling not in (CYCLE, IID):
            raise InvalidParameter(f"unknown sampling mode {self.sampling!r}")

    @property
    def augmented(self) -> bool:
        return self.lam is not None

    @property
    def local_rows(self) -> int:
        return self.A.shape[0]

    @property
    def dim(self) -> int:
        return self.A.shape[1]


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
    y = np.zeros(cfg.local_rows) if cfg.augmented else None
    return AgentState(x=x, y=y, k=0, block=np.arange(0), chunk=None, rng=block_rng)


def aggregate(snapshot: NeighborSnapshot) -> np.ndarray:
    """Arithmetic mean of all snapshot estimates."""
    if not snapshot.entries:
        raise CorruptMessage("empty snapshot: self entry is mandatory")
    dim = snapshot.entries[0][1].shape
    for sender, vec, _ in snapshot.entries:
        if vec.shape != dim:
            raise CorruptMessage(f"estimate from {sender} has shape {vec.shape}, expected {dim}")
    return np.mean([vec for _, vec, _ in snapshot.entries], axis=0)


def sample_block(state: AgentState, cfg: AgentConfig) -> np.ndarray:
    """Draw the next row block, updating the sampler bookkeeping on state."""
    m = cfg.local_rows
    if cfg.sampling == IID:
        size = min(cfg.block_size, m)
        state.block = np.sort(state.rng.choice(m, size=size, replace=False))
        state.chunk = None
        return state.block
    chunks = make_chunks(m, cfg.block_size)
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


def step(state: AgentState, cfg: AgentConfig, snapshot: NeighborSnapshot,
         cache: dict | None = None) -> AgentState:
    """Average the snapshot, then project onto the sampled block equations.

    The block factor is memoised in cache[chunk] when a cache is given and
    the block is a chunk (cyclic sampling); iid blocks are factored afresh.
    """
    w = aggregate(snapshot)
    J = sample_block(state, cfg)
    A_J = cfg.A[J]
    if cache is not None and state.chunk is not None:
        factor = cache.get(state.chunk)
        if factor is None:
            factor = cache[state.chunk] = block_factor(A_J, cfg.lam)
    else:
        factor = block_factor(A_J, cfg.lam)
    if not cfg.augmented:
        return replace(state, x=w + factor @ (cfg.b[J] - A_J @ w), k=state.k + 1)
    lam = cfg.lam
    r = cfg.b[J] - A_J @ w - lam * state.y[J]
    alpha = scipy.linalg.cho_solve(factor, r)
    y = state.y.copy()
    y[J] = y[J] + lam * alpha
    return replace(state, x=w + A_J.T @ alpha, y=y, k=state.k + 1)


def snapshot_payload(state: AgentState) -> np.ndarray:
    """The broadcast payload: a copy of x only, never y."""
    return state.x.copy()
