"""Connectivity events, delayed graphs, and contraction certificates.

This module turns the convergence machinery into executable checks on
desk-scale instances:

* composition of communication graphs and the joint strong-connectivity
  event over sliding windows;
* the delayed graph over (agent, staleness stage) nodes with its
  row-stochastic weight matrix, one per global tick;
* the stacked transition operator over a window of ticks, assembled as
  interleaved restricted projections and weight matrices, with a symbolic
  projection polynomial per block;
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
from .errors import (BudgetExceeded, DelayBoundViolation, DimensionError,
                     InvalidBasis, InvalidParameter)

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


# -------------------------------------------------- projection polynomials

@dataclass
class ProjectionPolynomial:
    """Weighted sum of projection products, tracked by row-index labels.

    Each term is (coefficient, labels) with labels a tuple of row-index
    tuples in application order; the empty label tuple is the identity.
    """

    terms: list[tuple[float, tuple[tuple[int, ...], ...]]]

    @property
    def weight(self) -> float:
        return float(sum(c for c, _ in self.terms))

    def is_zero(self) -> bool:
        return not self.terms


_P_ZERO = ProjectionPolynomial([])


def poly_const(coef: float) -> ProjectionPolynomial:
    return ProjectionPolynomial([(coef, ())]) if coef != 0.0 else _P_ZERO


def poly_projection(rows) -> ProjectionPolynomial:
    return ProjectionPolynomial([(1.0, (tuple(int(r) for r in rows),))])


def _poly_mul(left: ProjectionPolynomial, right: ProjectionPolynomial) -> list:
    """Terms of left*right (right applied first)."""
    out = []
    for cl, ll in left.terms:
        for cr, lr in right.terms:
            labels = lr + ll
            # adjacent repeats collapse: a projection is idempotent
            cleaned = []
            for lab in labels:
                if not cleaned or cleaned[-1] != lab:
                    cleaned.append(lab)
            out.append((cl * cr, tuple(cleaned)))
    return out


def _poly_sum(parts: list[list]) -> ProjectionPolynomial:
    acc: dict[tuple, float] = {}
    for terms in parts:
        for c, labels in terms:
            acc[labels] = acc.get(labels, 0.0) + c
    return ProjectionPolynomial([(c, labels) for labels, c in acc.items() if c != 0.0])


def check_completeness(poly: ProjectionPolynomial, A) -> bool:
    """True iff some term's union of row labels spans the row space of A."""
    if poly.is_zero():
        return False
    A = linalg.as_matrix(A)
    rank = linalg.svd(A).rank
    for _, labels in poly.terms:
        union = sorted({r for lab in labels for r in lab})
        if union and linalg.svd(A[union]).rank == rank:
            return True
    return False


def row_union_complete(polys_row: list[ProjectionPolynomial], A) -> bool:
    """Sharp contraction criterion for one block row.

    The row's restricted norm sum reaches its weight exactly when a unit
    row-space vector is fixed by every projection appearing anywhere in the
    row, so the row contracts iff the union of row labels over all terms of
    all entries spans the row space.  A single covering term (the
    check_completeness condition) is sufficient but not necessary.
    """
    A = linalg.as_matrix(A)
    rank = linalg.svd(A).rank
    union = sorted({r for p in polys_row for _, labels in p.terms for lab in labels for r in lab})
    return bool(union) and linalg.svd(A[union]).rank == rank


# ---------------------------------------------------------- transition matrix

@dataclass
class TransitionMatrix:
    n_agents: int
    depth: int
    dim: int                                   # ambient dimension n
    dense: np.ndarray                          # ((depth+1)N n) x ((depth+1)N n)
    polys: list[list[ProjectionPolynomial]]    # per block

    @property
    def blocks(self) -> int:
        return (self.depth + 1) * self.n_agents

    def block(self, i: int, j: int) -> np.ndarray:
        n = self.dim
        return self.dense[i * n:(i + 1) * n, j * n:(j + 1) * n]

    def weights(self) -> np.ndarray:
        return np.array([[p.weight for p in row] for row in self.polys])

    def row_complete(self, A) -> list[bool]:
        return [any(check_completeness(p, A) for p in row) for row in self.polys]


def build_transition_matrix(window: list[TickRecord], A, n_agents: int, depth: int,
              term_budget: int = 250_000) -> TransitionMatrix:
    """Stacked transition operator over a window of consecutive ticks.

    Interleaves the per-tick weight matrices with the block-diagonal
    projections, exactly as the delayed error recursion multiplies out, and
    mirrors the product symbolically so each block carries its projection
    polynomial.  Raises BudgetExceeded when the symbolic expansion grows
    past term_budget terms.
    """
    A = linalg.as_matrix(A)
    n = A.shape[1]
    size_b = (depth + 1) * n_agents
    size = size_b * n

    proj_cache: dict[tuple[int, ...], np.ndarray] = {}

    def projector(rows: tuple[int, ...]) -> np.ndarray:
        if rows not in proj_cache:
            A_J = A[list(rows)]
            proj_cache[rows] = np.eye(n) - linalg.pinv(A_J) @ A_J
        return proj_cache[rows]

    # who projected at each window position (None outside the window)
    tick_rows = {pos: tuple(int(r) for r in rec.rows) for pos, rec in enumerate(window)}
    tick_agent = {pos: rec.agent for pos, rec in enumerate(window)}

    dense = np.eye(size)
    polys = [[poly_const(1.0) if i == j else _P_ZERO for j in range(size_b)] for i in range(size_b)]

    def apply_weights(rec: TickRecord):
        nonlocal dense, polys
        dg = build_delayed_graph(rec, n_agents, depth)
        dense = np.kron(dg.W, np.eye(n)) @ dense
        new_polys = []
        for i in range(size_b):
            row = []
            for j in range(size_b):
                parts = [
                    _poly_mul(poly_const(dg.W[i, k]), polys[k][j])
                    for k in range(size_b)
                    if dg.W[i, k] != 0.0 and not polys[k][j].is_zero()
                ]
                row.append(_poly_sum(parts))
            new_polys.append(row)
        polys = new_polys

    def apply_projections(pos: int):
        nonlocal dense, polys
        # stage-s slot of agent i projects with whatever i applied at pos - s
        blocks = []
        labels = []
        for s in range(depth + 1):
            q = pos - s
            for i in range(n_agents):
                if q in tick_agent and tick_agent[q] == i:
                    blocks.append(projector(tick_rows[q]))
                    labels.append(tick_rows[q])
                else:
                    blocks.append(None)
                    labels.append(None)
        for bi, (blk, lab) in enumerate(zip(blocks, labels)):
            if blk is None:
                continue
            rows = slice(bi * n, (bi + 1) * n)
            dense[rows, :] = blk @ dense[rows, :]
            proj = poly_projection(lab)
            polys[bi] = [
                _poly_sum([_poly_mul(proj, p)]) if not p.is_zero() else _P_ZERO
                for p in polys[bi]
            ]

    for pos, rec in enumerate(window):
        apply_weights(rec)
        apply_projections(pos)
        total_terms = sum(len(p.terms) for row in polys for p in row)
        if total_terms > term_budget:
            raise BudgetExceeded(f"{total_terms} polynomial terms exceed budget {term_budget}")

    return TransitionMatrix(n_agents, depth, n, dense, polys)


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
                         window: int, l_window: int | None = None,
                         term_budget: int = 250_000) -> dict:
    """Contraction certificate over the last `window` ticks of a trace."""
    if window < 0 or window > len(ticks):
        raise InvalidParameter(f"window {window} outside trace of {len(ticks)} ticks")
    A = linalg.as_matrix(A)
    tail = ticks[len(ticks) - window:]
    depth = max_observed_stage(tail)
    tm = build_transition_matrix(tail, A, n_agents, depth, term_budget=term_budget)
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
