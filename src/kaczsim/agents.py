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
F = (A_J A_J^T + lam^2 I)^{-1} and also sets y_J <- y_J + lam alpha.  F is
built from the Cholesky factor L of the shifted Gram matrix, which also
checks it is positive definite, as L^{-T} L^{-1}, with L inverted by forward
substitution (linalg.shifted_gram_inverse): no LU factorization.
Only x is ever broadcast; y stays local to its owner.

The shard A_i is sparse (problems.CsrRows); no m_i x n dense array is
held.  A block is densified on its column support only: A_J is |J| x
|cols|, cols the sorted columns where the rows of J have entries, and the
step reads and updates only w[cols], which is exact since A_J is zero
outside them.  A block on all n columns gives the whole block's step bit
for bit; a narrower one rounds its products over fewer terms.

Block sampling is either coverage-cyclic (a permuted pass over a fixed
disjoint chunking, so every row is used once per pass) or iid uniform
without replacement.  One routine draws both (next_blocks): an agent's next
blocks in order, as (chunk, rows) pairs, a cyclic pass or a batch of BATCH
iid blocks (fewer when the run's k_max is nearer, so a k_max run draws
exactly k_max blocks).  The iid batch is drawn with one bounded-integer
call (draw_blocks): the same blocks, at the same stream position, as BATCH
sorted Generator.choice draws without replacement, whose Python-level
set-up costs more than their draws.  Both samplings build their block
entries (rows, cols, plan, b_J, factor) on one path, block_entries: the
block's rows, its columns cols, the plan that places its entries in A_J
(plan_blocks, which plans many blocks in one gather), b_J and the factor W
or F (block_factors, which inverts the regularized Gram matrices of
equal-height blocks as one stack, bit for bit what a stack of one gives
each block).  The agent config owns the chunk table (AgentConfig.chunks)
and, built on first use, one entry per chunk (AgentConfig.blocks), whose
rows are a slice and b_J a view into the shard; an iid batch gets its
entries in one pass when it is drawn.  The step keeps one queue of (draw,
entry) pairs (AgentState.ready), refilled from next_blocks when empty, and
uses one pair per step.  A block whose factoring failed raises at the step
that uses it, in both samplings, as if it had been factored there.  A step
densifies A_J from the plan, one zero array and one scatter, so that
entries hold one index per entry of the shard rather than a dense copy of
every block.  The step updates the agent state in place.  Every operation
here is numpy.
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

# Row blocks an iid agent draws, plans and factors in one pass, then uses
# one per step.
BATCH = 32


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
        """block_entries of the chunks, built on first use, BATCH chunks per
        pass (which bounds the pass's support grid at BATCH x n): the
        entries a cyclic step reads, so each chunk is factored once per
        config.  An entry keeps the plan of A_J, not A_J, so the entries of
        all chunks hold no copy of the shard's data.  A chunk whose
        factoring failed holds the exception, which the step that uses the
        chunk raises."""
        entries = []
        for lo in range(0, len(self.chunks), BATCH):
            part = self.chunks[lo:lo + BATCH]
            entries += block_entries(self, part, [slice(int(J[0]), int(J[-1]) + 1) for J in part])
        return entries


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
    k_max: int | None = None      # iid: no block is drawn for a step past it
    ready: list[tuple] = field(default_factory=list)  # (draw, entry) pairs, next last


def initial_state(cfg: AgentConfig, block_rng: np.random.Generator, init: np.ndarray | None = None,
                  k_max: int | None = None) -> AgentState:
    x = np.zeros(cfg.dim) if init is None else np.asarray(init, dtype=float).copy()
    if x.shape != (cfg.dim,):
        raise CorruptMessage(f"initial estimate has shape {x.shape}, expected ({cfg.dim},)")
    if not np.all(np.isfinite(x)):
        raise CorruptMessage("initial estimate has non-finite entries")
    y = np.zeros(cfg.local_rows) if cfg.augmented else None
    return AgentState(x=x, y=y, k=0, block=np.arange(0), chunk=None, rng=block_rng, k_max=k_max)


def aggregate(entries: list[tuple[int, np.ndarray, int]]) -> np.ndarray:
    """Arithmetic mean of the estimates in snapshot entries (sender,
    estimate, sender iteration), as a new array.

    The result is bit for bit np.add.reduce over the stacked estimates
    (axis 0) and one division, the reduction np.mean performs.  For n >= 2
    that reduction starts from +0.0 and adds the rows one after another in
    entry order, so the sum is built in place: first + 0.0 (a new array;
    the + 0.0 turns -0.0 into +0.0, so that a column of -0.0 sums to +0.0
    as in the reduce), the other estimates added to it with +=, then one
    division by d, with no d x n stack.  For n = 1 the d x 1 stack reduces
    along its contiguous axis, pairwise, which a sequential sum does not
    reproduce, so n = 1 keeps np.add.reduce.
    """
    first = entries[0][1]
    if len(first) == 1:
        return np.add.reduce([vec for _, vec, _ in entries], axis=0) / len(entries)
    total = first + 0.0
    for i in range(1, len(entries)):
        total += entries[i][1]
    total /= len(entries)
    return total


def draw_blocks(rng: np.random.Generator, pool: int, size: int, count: int) -> np.ndarray:
    """count sorted blocks of size distinct rows of range(pool), one per row
    of the result: bit for bit, and at the same stream position, what count
    calls of rng.choice(pool, size, replace=False), each sorted, give.

    For such a draw numpy runs Floyd's algorithm: for t = 0 .. size - 1 it
    draws v_t uniform on [0, base + t], base = pool - size, and picks v_t
    unless it was picked already, base + t otherwise; then it shuffles the
    picks with draws on [0, i], i = size - 1 .. 1, which the sort undoes.
    Each draw on [0, h] is the bounded draw rng.integers(0, h + 1) makes,
    so one integers call makes the draws of all count blocks.  v_t was
    picked already when it equals an earlier draw, or when it is base + s
    for an earlier s whose v_s was picked already (base + s was picked at
    step s then), so those flags pass along the links t -> s until nothing
    changes.  numpy's other branch, a shuffled tail of range(pool) when
    pool > 10000 and size > pool // 50, keeps a choice call per block.
    """
    if pool > 10_000 and size > pool // 50:
        return np.sort([rng.choice(pool, size, replace=False) for _ in range(count)], axis=1)
    base = pool - size
    t = np.arange(size)
    highs = np.concatenate((base + t, t[:0:-1])) + 1
    v = rng.integers(0, highs, size=(count, len(highs)))[:, :size]
    key = v * size + t   # sorts by value, then by step
    key.sort(axis=1)
    ranked = key // size
    row = np.arange(count)[:, None]
    hit = np.zeros(v.shape, dtype=bool)
    hit[row, key[:, 1:] % size] = ranked[:, 1:] == ranked[:, :-1]   # v_t equals an earlier draw
    link = np.where((v >= base) & (v < base + t), v - base, t)
    while True:
        spread = hit | hit[row, link]
        if np.array_equal(spread, hit):
            break
        hit = spread
    picks = np.where(hit, base + t, v)
    picks.sort(axis=1)
    return picks


def block_factors(A_Js: list[np.ndarray], lam: float | None) -> list:
    """The factor of each block, |J| rows, or the exception its factoring
    raised: W with W W^T = (A_J A_J^T)^+ in consistent mode
    (linalg.gram_pinv_root), F = (A_J A_J^T + lam^2 I)^{-1} in regularized
    mode (linalg.gram_inverses).

    Regularized blocks of one height are factored as one stack, which gives
    each block the factor it gets alone (a stack of one) bit for bit.  If
    any matrix of a stack fails, its blocks are factored one by one, so
    that each failure stays with its own block.  Consistent blocks are
    factored one by one: their SVDs have different widths.
    """
    factors: list = [None] * len(A_Js)
    if lam is not None:
        heights: dict[int, list[int]] = {}
        for i, A_J in enumerate(A_Js):
            heights.setdefault(len(A_J), []).append(i)
        for idx in heights.values():
            try:
                F = linalg.gram_inverses([A_Js[i] for i in idx], lam)
            except (InvalidParameter, np.linalg.LinAlgError):
                continue   # factored one by one below
            for i, F_i in zip(idx, F):
                factors[i] = F_i
    for i, A_J in enumerate(A_Js):
        if factors[i] is None:
            try:
                factors[i] = (linalg.gram_pinv_root(A_J) if lam is None
                              else linalg.gram_inverses([A_J], lam)[0])
            except (InvalidParameter, np.linalg.LinAlgError) as exc:
                factors[i] = exc
    return factors


def plan_blocks(A: CsrRows, blocks: list[np.ndarray]) -> list[tuple]:
    """(cols, plan) of each sorted, distinct row block J of A: cols, the
    sorted columns where the rows of J have entries, and plan = (entries,
    pos, shape), from which densify builds A_J, the rows on those columns
    (|J| x |cols|): A.data[entries] at the flat positions pos of a zero
    array of that shape.  entries is a slice when J is a contiguous range,
    so a chunk's plan holds no copy of the data.

    All blocks are planned in one pass: one gather collects the entries of
    their rows, and a len(blocks) x n boolean grid marks each block's
    support.  Numbering the marked cells in order gives every entry its
    place in its block's cols.
    """
    n = A.shape[1]
    sizes = np.array([len(J) for J in blocks])
    rows = np.concatenate(blocks)
    starts = A.indptr[rows]
    counts = A.indptr[rows + 1] - starts
    ends = counts.cumsum()
    last_row = sizes.cumsum() - 1
    first_row = last_row - (sizes - 1)
    bounds = np.concatenate(([0], ends[last_row]))           # each block's first entry
    entries = np.arange(ends[-1]) + np.repeat(starts - ends + counts, counts)
    block = np.repeat(np.arange(len(blocks)), bounds[1:] - bounds[:-1])   # of each entry
    row = np.repeat(np.arange(len(rows)) - first_row.repeat(sizes), counts)   # in its block
    cell = block * n + A.indices[entries]
    support = np.zeros(len(blocks) * n, dtype=bool)
    support[cell] = True
    marked = support.nonzero()[0]
    number = np.empty(len(support), dtype=np.intp)           # read only at marked cells
    number[marked] = np.arange(len(marked))
    before = marked.searchsorted(np.arange(len(blocks) + 1) * n)   # marked cells before each block
    widths = before[1:] - before[:-1]
    pos = row * widths[block] + number[cell] - before[block]
    cols = marked - np.repeat(np.arange(len(blocks)) * n, widths)
    contiguous = (rows[last_row] - rows[first_row] == sizes - 1).tolist()
    bounds = bounds.tolist()
    firsts = starts[first_row].tolist()
    before = before.tolist()
    plans = []
    for b, size in enumerate(sizes.tolist()):
        lo, hi, c0, c1 = bounds[b], bounds[b + 1], before[b], before[b + 1]
        used = slice(firsts[b], firsts[b] + hi - lo) if contiguous[b] else entries[lo:hi]
        plans.append((cols[c0:c1], (used, pos[lo:hi], (size, c1 - c0))))
    return plans


def densify(A: CsrRows, plan: tuple) -> np.ndarray:
    """The dense block A_J of a plan_blocks plan, a new C-ordered array."""
    entries, pos, shape = plan
    A_J = np.zeros(shape[0] * shape[1])
    A_J[pos] = A.data[entries]
    return A_J.reshape(shape)


def block_entries(cfg: AgentConfig, blocks: list[np.ndarray], rows: list) -> list[tuple]:
    """(rows, cols, plan, b_J, factor) of each row block, planned in one
    pass (plan_blocks) and factored in one (block_factors).  rows[i] indexes
    block i in the shard: the array J itself, or the slice of a contiguous
    chunk, whose b_J is then a view into the shard.  factor is the
    exception the block's factoring raised, if it failed."""
    planned = plan_blocks(cfg.A, blocks)
    factors = block_factors([densify(cfg.A, plan) for _, plan in planned], cfg.lam)
    return [(r, cols, plan, cfg.b[r], F) for r, (cols, plan), F in zip(rows, planned, factors)]


def next_blocks(state: AgentState, cfg: AgentConfig) -> list[tuple]:
    """An agent's next row blocks from its stream, in order, as (chunk, rows)
    pairs: a permuted pass over the chunks that does not start with
    state.chunk, or one draw_blocks batch of BATCH iid blocks (the steps
    left before state.k_max, if fewer), whose chunk is None."""
    if cfg.sampling == IID:
        count = BATCH if state.k_max is None else max(1, min(BATCH, state.k_max - state.k))
        return [(None, J) for J in draw_blocks(state.rng, cfg.local_rows, cfg.block_size, count)]
    chunks = cfg.chunks
    order = list(state.rng.permutation(len(chunks)))
    # avoid repeating the previous chunk across a pass boundary
    while len(chunks) > 1 and state.chunk is not None and order[0] == state.chunk:
        order = list(state.rng.permutation(len(chunks)))
    return [(c, chunks[c]) for c in order]


def step(state: AgentState, cfg: AgentConfig,
         entries: list[tuple[int, np.ndarray, int]]) -> AgentState:
    """Average the snapshot entries (self and the latest estimate from each
    neighbor heard from), then project onto the sampled block equations.

    The step pops the next (draw, entry) pair off state.ready, which it
    refills from next_blocks when it runs out: the entries (rows, cols,
    plan, b_J, factor) of a cyclic pass's chunks from cfg.blocks, those of
    an iid batch from block_entries.  A block whose factoring failed raises
    its error here, at the step that uses it, in both samplings.  A_J is
    densified from the plan.  w[cols] is gathered once into w_c, which
    serves the residual and takes the update before it is written back:
    cols are distinct, so that is w[cols] += A_J^T alpha, value for value.
    The state is updated in place (k, block, chunk, the sampler, x rebound
    to the new array aggregate returns, y's block entries) and the same
    object is returned.

    The matrix-vector products go through ndarray.dot, which calls the BLAS
    routine the @ operator calls, with the same operands, but skips its
    ufunc dispatch (about 0.5 us a product at |J| = 10).  A 1 x 1 matrix is
    the exception: dot multiplies it as a scalar, where @ adds the product
    to +0.0 and so turns a -0.0 into +0.0.  A block of one row (|J| = 1,
    whose factor is 1 x 1) therefore keeps @.
    """
    w = aggregate(entries)
    if not state.ready:
        drawn = next_blocks(state, cfg)
        blocks = [J for _, J in drawn]
        found = (block_entries(cfg, blocks, blocks) if cfg.sampling == IID
                 else [cfg.blocks[c] for c, _ in drawn])
        state.ready = list(zip(drawn, found))[::-1]
    (state.chunk, state.block), (rows, cols, plan, b_J, factor) = state.ready.pop()
    if isinstance(factor, Exception):
        raise factor
    A_J = densify(cfg.A, plan)
    dot = np.ndarray.dot if len(b_J) > 1 else np.matmul
    w_c = w[cols]
    r = b_J - dot(A_J, w_c)
    if cfg.augmented:
        alpha = dot(factor, r - cfg.lam * state.y[rows])
        state.y[rows] += cfg.lam * alpha
    else:
        alpha = dot(factor, dot(factor.T, r))
    w_c += dot(A_J.T, alpha)
    w[cols] = w_c
    state.x = w
    state.k += 1
    return state


def snapshot_payload(state: AgentState) -> np.ndarray:
    """The broadcast payload: a copy of x only, never y."""
    return state.x.copy()
