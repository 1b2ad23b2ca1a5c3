"""Connectivity events, delayed graphs, and contraction certificates.

This module turns the convergence machinery into executable checks on
desk-scale instances:

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

Everything here is pure analysis over immutable run traces.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse.csgraph

from . import linalg
from .engine import TickRecord
from .errors import DelayBoundViolation, DimensionError, InvalidBasis, InvalidParameter

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
    g = np.asarray(g)
    if g.shape[0] != g.shape[1]:
        raise DimensionError(f"adjacency must be square, got {g.shape}")
    if g.shape[0] == 0:
        return True
    n, _ = scipy.sparse.csgraph.connected_components(g, directed=True, connection="strong")
    return n == 1


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

@dataclass
class DelayedGraph:
    """One tick of the expanded (agent, stage) graph and its weight matrix."""

    n_agents: int
    depth: int
    agent: int                       # who iterated at this tick
    W: np.ndarray                    # ((depth+1)N) x ((depth+1)N), row-stochastic

    def node(self, stage: int, agent: int) -> int:
        return stage * self.n_agents + agent


def build_delayed_graph(record: TickRecord, n_agents: int, depth: int) -> DelayedGraph:
    """Weight matrix for one global tick.

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
    return DelayedGraph(n_agents, depth, record.agent, W)


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
            A_J = A[list(rows)]
            proj_cache[rows] = (np.eye(n) - linalg.pinv(A_J) @ A_J,
                                sum(1 << r for r in set(rows)))
        return proj_cache[rows]

    dense = np.eye(size_b * n)
    row_sets = [[0] for _ in range(size_b)]
    for pos, rec in enumerate(window):
        W = build_delayed_graph(rec, n_agents, depth).W
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


def restricted_product_norm(A, families, basis: np.ndarray | None = None) -> float:
    """Spectral norm, restricted to Row(A), of a product of null-space projections."""
    A = linalg.as_matrix(A)
    basis = linalg.row_space_basis(A) if basis is None else basis
    n = A.shape[1]
    P = np.eye(n)
    for rows in families:
        A_J = A[list(rows)]
        P = (np.eye(n) - linalg.pinv(A_J) @ A_J) @ P
    return float(np.linalg.norm(basis.T @ P @ basis, 2))


def max_observed_stage(ticks: list[TickRecord]) -> int:
    return max((stage for t in ticks for _, stage in t.used), default=0)


def certification_report(ticks: list[TickRecord], A, n_agents: int,
                         window: int, l_window: int | None = None) -> dict:
    """Contraction certificate over the last `window` ticks of a trace."""
    if window < 0 or window > len(ticks):
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
