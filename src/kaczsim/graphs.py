"""Tick traces, connectivity events, delayed graphs, and contraction certificates.

This module turns the convergence machinery into executable checks on
desk-scale instances:

* the tick trace: one TickRecord per global tick (per Iterate event),
  read off a run's event log and its config, with the (sender, staleness
  stage) pairs each iteration averaged;
* composition of communication graphs and the joint strong-connectivity
  event over sliding windows;
* the delayed graph over (agent, staleness stage) nodes with its
  row-stochastic weight matrix, one per global tick;
* the stacked transition operator over a window of ticks, assembled as
  interleaved restricted projections and weight matrices, with the
  inclusion-maximal row unions of each block row's projection products,
  from which block-row completeness is read;
* the hybrid norm (infinity norm over blocks of row-space-restricted
  spectral norms), whose value below one certifies contraction.

Everything here is analysis after the fact: the trace is derived from
the log and the config alone, and the simulator keeps no record of ticks
or stages.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import agents, engine, linalg
from .errors import DelayBoundViolation, DimensionError, InvalidBasis, InvalidParameter

# ----------------------------------------------------------------- tick trace

@dataclass(frozen=True)
class TickRecord:
    """One global tick: which agent iterated and whose states (at which
    staleness stage, counted in global ticks) it averaged."""

    tick: int
    time: float
    agent: int
    k: int
    chunk: int | None
    rows: np.ndarray                    # global row indices of the block
    used: tuple[tuple[int, int], ...]   # (sender, stage), self included
    d_used: int
    err: float


def _value_tick(landed: list[int], h: int, now_tick: int) -> int:
    """Latest tick q <= now_tick whose pre-update stacked state still holds the
    sender's iteration-h value (present through the tick where h+1 lands);
    landed[h] is the tick where the sender's iteration h completed."""
    if h + 1 < len(landed):
        return min(now_tick, landed[h + 1])
    return now_tick


def tick_trace(result) -> list[TickRecord]:
    """The tick trace of a run, read off result.log with result.config.

    Tick t is the t-th Iterate record.  Its used entries are the agent's own
    previous iterate, then the keep-latest mailbox (replayed from kept
    Deliver records) in sender order; each entry's stage is counted in ticks
    by _value_tick.  The sampled rows replay the run's sampler: each agent
    starts from engine.initial_states, and each Iterate sets the sampler's k
    to the step's and calls agents.next_block, as the step did.  A cyclic
    replay reads the chunk entries the run cached on its agent configs; an
    iid replay plans and factors its batches again.
    """
    cfg = result.config
    n = len(cfg.agents)
    samplers = engine.initial_states(cfg)
    mailboxes: list[dict[int, int]] = [{} for _ in range(n)]   # sender -> kept iteration
    landed = [[-1] for _ in range(n)]   # per agent: the tick of each iteration, -1 for k = 0
    iterate, deliver = engine.KINDS.index("Iterate"), engine.KINDS.index("Deliver")
    trace = []
    for time, code, agent, peer, k, count, value, kept in result.log.records():
        if code == deliver and kept:
            mailboxes[agent][peer] = k
        elif code == iterate:
            tick = len(trace)
            acfg, state = cfg.agents[agent], samplers[agent]
            state.k = k - 1
            agents.next_block(state, acfg)
            landed[agent].append(tick)
            entries = [(agent, k - 1), *sorted(mailboxes[agent].items())]
            used = tuple((sender, tick - _value_tick(landed[sender], h, tick))
                         for sender, h in entries)
            trace.append(TickRecord(tick, time, agent, k, state.chunk,
                                    acfg.rows[state.block], used, count, value))
    return trace


def staleness_stage_bound(cfg) -> int:
    """Upper bound on the global-tick staleness stage in a failure-free run.

    A kept value can be used until the sender's next broadcast arrives, i.e.
    for a window of (trigger.period(t_max) + delay bound + one iteration
    gap); every agent contributes at most window/t_min + 1 ticks inside it.
    """
    t_min = min(a.t_min for a in cfg.agents)
    t_max = max(a.t_max for a in cfg.agents)
    window = cfg.trigger.period(t_max) + cfg.delay_bound + t_max
    n = len(cfg.agents)
    return int(math.ceil(n * (window / t_min + 1.0)))

# ------------------------------------------------------------- communication

def compose(g1: np.ndarray, g2: np.ndarray) -> np.ndarray:
    """Boolean adjacency product: apply g2 first, then g1.

    Rows index receivers, so (compose(g1, g2))[c, a] is set when some b has
    a -> b in g2 and b -> c in g1.
    """
    g1 = np.asarray(g1)
    g2 = np.asarray(g2)
    if g1.shape != g2.shape or g1.shape[0] != g1.shape[1]:
        raise DimensionError(f"incompatible adjacency shapes {g1.shape} and {g2.shape}")
    return ((g1.astype(bool) @ g2.astype(bool)) > 0).astype(np.uint8)


def strongly_connected(g: np.ndarray) -> bool:
    """True iff every node reaches every other along the nonzero entries of
    g: node 0 reaches all nodes in g and in its transpose."""
    g = np.asarray(g) != 0
    if g.ndim != 2 or g.shape[0] != g.shape[1]:
        raise DimensionError(f"adjacency must be square, got {g.shape}")
    for adj in (g, g.T):
        seen = np.zeros(g.shape[0], dtype=bool)
        frontier = seen.copy()
        frontier[:1] = True
        while frontier.any():
            seen |= frontier
            frontier = adj[:, frontier].any(axis=1) & ~seen
        if not seen.all():
            return False
    return True


def detect_C_l(seq: list[np.ndarray], l: int) -> bool:
    """True iff every window of exactly l consecutive graphs composes to a
    strongly connected graph.  Self-loops make longer windows monotone, so
    length-l windows suffice."""
    if l < 1:
        raise InvalidParameter(f"window length must be >= 1, got {l}")
    if len(seq) < l:
        raise InvalidParameter(f"sequence of {len(seq)} graphs is shorter than window {l}")
    for g in seq:
        if not np.all(np.diag(np.asarray(g)) > 0):
            raise InvalidParameter("communication graphs must carry self-loops")
    for s in range(len(seq) - l + 1):
        window = seq[s:s + l]
        acc = np.asarray(window[0]).astype(np.uint8)
        for g in window[1:]:
            acc = compose(g, acc)
        if not strongly_connected(acc):
            return False
    return True


def comm_graph_sequence(ticks: list[TickRecord], n_agents: int) -> list[np.ndarray]:
    """Per-tick communication graphs: self-loops plus sender -> iterating agent."""
    seq = []
    for t in ticks:
        g = np.eye(n_agents, dtype=np.uint8)
        for sender, _ in t.used:
            g[t.agent, sender] = 1
        seq.append(g)
    return seq


# -------------------------------------------------------------- delayed graph

def build_delayed_graph(record: TickRecord, n_agents: int, depth: int) -> np.ndarray:
    """Weight matrix W of one global tick on the expanded (agent, stage)
    graph: ((depth+1)N) x ((depth+1)N), row-stochastic.

    Row (stage 0, iterating agent) spreads 1/d over the used (sender, stage)
    nodes; every other stage-0 row keeps its state; stage s >= 1 rows shift
    from stage s-1.
    """
    size = (depth + 1) * n_agents
    W = np.zeros((size, size))
    for sender, stage in record.used:
        if stage > depth:
            raise DelayBoundViolation(
                f"stage {stage} from sender {sender} exceeds depth {depth} at tick {record.tick}")
        W[record.agent, stage * n_agents + sender] = 1.0 / record.d_used
    for i in range(n_agents):
        if i != record.agent:
            W[i, i] = 1.0
    for s in range(1, depth + 1):
        for p in range(n_agents):
            W[s * n_agents + p, (s - 1) * n_agents + p] = 1.0
    return W


# ---------------------------------------------------------- transition matrix

def _spans(A: np.ndarray):
    """Memoised test: do the rows of A in a bitmask (bit r is row r) span Row(A)?

    The empty set spans nothing, so a mask of 0 is never complete.
    """
    rank = linalg.svd(A).rank
    memo: dict[int, bool] = {}

    def spans(mask: int) -> bool:
        if mask not in memo:
            rows = [r for r in range(A.shape[0]) if mask >> r & 1]
            memo[mask] = bool(rows) and linalg.svd(A[rows]).rank == rank
        return memo[mask]

    return spans


def _maximal(masks) -> list[int]:
    """Inclusion-maximal members of a set of row bitmasks, largest first."""
    out: list[int] = []
    for mask in sorted(set(masks), key=lambda x: (-x.bit_count(), x)):
        if not any(mask | kept == kept for kept in out):
            out.append(mask)
    return out


@dataclass
class TransitionMatrix:
    n_agents: int
    depth: int
    dim: int                                   # ambient dimension n
    dense: np.ndarray                          # ((depth+1)N n) x ((depth+1)N n)
    row_sets: list[list[int]]                  # per block row: maximal row bitmasks

    @property
    def blocks(self) -> int:
        return (self.depth + 1) * self.n_agents

    def block(self, i: int, j: int) -> np.ndarray:
        n = self.dim
        return self.dense[i * n:(i + 1) * n, j * n:(j + 1) * n]

    def row_complete(self, A) -> list[bool]:
        """Per block row: does some projection product's row union span Row(A)?"""
        spans = _spans(linalg.as_matrix(A))
        return [any(spans(mask) for mask in sets) for sets in self.row_sets]


def build_transition_matrix(window: list[TickRecord], A, n_agents: int,
                            depth: int) -> TransitionMatrix:
    """Stacked transition operator over a window of consecutive ticks.

    Interleaves the per-tick weight matrices with the block-diagonal
    projections, exactly as the delayed error recursion multiplies out.
    Multiplied out, every block is a sum of projection products with
    positive coefficients (products of weights), so no term ever cancels.
    The completeness report asks only whether some term's *union* of
    projected rows spans Row(A), and that union does not depend on the
    order of the projections.  Each block row therefore carries the set of
    unions of its terms as row bitmasks, pruned to the inclusion-maximal
    ones (spanning is monotone under inclusion); a union that spans is
    stored as the all-rows mask, since every superset of it spans too.
    """
    A = linalg.as_matrix(A)
    m, n = A.shape
    size_b = (depth + 1) * n_agents
    full = (1 << m) - 1
    spans = _spans(A)

    def close(mask: int) -> int:
        return full if spans(mask) else mask

    proj_cache: dict[tuple[int, ...], tuple[np.ndarray, int]] = {}

    def projector(rows: tuple[int, ...]) -> tuple[np.ndarray, int]:
        if rows not in proj_cache:
            # I - pinv(A_J) A_J; numpy takes V @ V.T as a symmetric rank-k
            # update, so the projector is exactly symmetric
            V = linalg.row_space_basis(A[list(rows)])
            proj_cache[rows] = (np.eye(n) - V @ V.T, sum(1 << r for r in set(rows)))
        return proj_cache[rows]

    dense = np.eye(size_b * n)
    row_sets = [[0] for _ in range(size_b)]
    for pos, rec in enumerate(window):
        W = build_delayed_graph(rec, n_agents, depth)
        dense = (W @ dense.reshape(size_b, -1)).reshape(dense.shape)
        row_sets = [_maximal(mask for k in np.flatnonzero(W[i]) for mask in row_sets[k])
                    for i in range(size_b)]
        # only the iterating agent's stage-0 slot is projected: a stage-s
        # slot is the stage-0 slot of s ticks ago shifted in unchanged, so it
        # already carries that tick's projection (P @ P = P)
        P, rows = projector(tuple(int(r) for r in rec.rows))
        bi = rec.agent
        dense[bi * n:(bi + 1) * n, :] = P @ dense[bi * n:(bi + 1) * n, :]
        row_sets[bi] = _maximal(close(mask | rows) for mask in row_sets[bi])

    return TransitionMatrix(n_agents, depth, n, dense, row_sets)


def hybrid_norm_A(tm: TransitionMatrix, basis: np.ndarray) -> float:
    """Infinity norm over blocks of the row-space-restricted spectral norms."""
    basis = np.asarray(basis, dtype=float)
    if basis.ndim != 2 or basis.shape[0] != tm.dim:
        raise InvalidBasis(f"basis shape {basis.shape} does not match ambient dim {tm.dim}")
    gram = basis.T @ basis
    if np.linalg.norm(gram - np.eye(basis.shape[1])) > 1e-10:
        raise InvalidBasis("basis columns are not orthonormal within 1e-10")
    if basis.shape[1] == 0:
        return 0.0
    worst = 0.0
    for i in range(tm.blocks):
        total = 0.0
        for j in range(tm.blocks):
            restricted = basis.T @ tm.block(i, j) @ basis
            total += float(np.linalg.norm(restricted, 2))
        worst = max(worst, total)
    return worst


def max_observed_stage(ticks: list[TickRecord]) -> int:
    return max((stage for t in ticks for _, stage in t.used), default=0)


def certification_report(ticks: list[TickRecord], A, n_agents: int,
                         window: int, l_window: int | None = None) -> dict:
    """Contraction certificate over the last `window` ticks of a trace; a
    window outside [1, len(ticks)] raises InvalidParameter."""
    if window < 1 or window > len(ticks):
        raise InvalidParameter(f"window {window} outside trace of {len(ticks)} ticks")
    A = linalg.as_matrix(A)
    tail = ticks[len(ticks) - window:]
    depth = max_observed_stage(tail)
    tm = build_transition_matrix(tail, A, n_agents, depth)
    basis = linalg.row_space_basis(A)
    seq = comm_graph_sequence(tail, n_agents)
    l_window = l_window if l_window is not None else max(1, min(len(seq), 2 * n_agents))
    return {
        "window": window,
        "d": depth,
        "hybrid_norm": hybrid_norm_A(tm, basis),
        "complete_rows": tm.row_complete(A),
        "C_l_verdict": bool(detect_C_l(seq, l_window)) if len(seq) >= l_window else False,
        "l": l_window,
    }
