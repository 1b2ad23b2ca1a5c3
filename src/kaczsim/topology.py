"""Triangle-layered communication graphs with a degree cap and random fill.

Nodes are laid out row by row in a triangle (row r holds r+1 nodes) and
linked by priority to their parents in the row above, children in the row
below, and same-row siblings; remaining degree budget is spent on seeded
random edges.  Construction runs in three passes:

1. attachment: each node links to one earlier node (left parent, right
   parent, left sibling, then the lowest-index node with spare capacity),
   which guarantees a spanning tree at any feasible cap;
2. priority: parent, child, and sibling edges in that order, lower index
   first, skipped when either endpoint is at the cap;
3. fill: one seeded shuffled pass over the absent pairs, adding an edge
   whenever both endpoints still have spare capacity.

A pair skipped in pass 3 because an endpoint was full stays infeasible
(degrees only grow), so a single pass saturates every degree to
min(cap, N-1) or exhausts the legal edges.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import rng
from .errors import InfeasibleTopology


@dataclass
class Topology:
    agents: int
    cap: int
    neighbors: list[list[int]]   # sorted, self excluded

    def degree(self, i: int) -> int:
        return len(self.neighbors[i])


def _coords(i: int) -> tuple[int, int]:
    """Triangle coordinates (row, column) of node index i."""
    r = int((np.sqrt(8 * i + 1) - 1) // 2)
    while (r + 1) * (r + 2) // 2 <= i:
        r += 1
    while r * (r + 1) // 2 > i:
        r -= 1
    return r, i - r * (r + 1) // 2


def _index(r: int, c: int, n: int) -> int | None:
    if r < 0 or c < 0 or c > r:
        return None
    i = r * (r + 1) // 2 + c
    return i if i < n else None


def _priority_candidates(i: int, n: int) -> dict[str, list[int]]:
    r, c = _coords(i)
    parents = [_index(r - 1, c - 1, n), _index(r - 1, c, n)]
    children = [_index(r + 1, c, n), _index(r + 1, c + 1, n)]
    siblings = [_index(r, c - 1, n), _index(r, c + 1, n)]
    return {
        "parents": [p for p in parents if p is not None],
        "children": [p for p in children if p is not None],
        "siblings": [p for p in siblings if p is not None],
    }


def build_pascal(agents: int, cap: int, seed: int = 0) -> Topology:
    """Build the capped triangle graph; connected for every feasible cap."""
    if agents < 1:
        raise InfeasibleTopology(f"need at least one agent, got {agents}")
    if agents >= 2 and cap < 1:
        raise InfeasibleTopology(f"cap {cap} cannot connect {agents} agents")
    if agents >= 3 and cap < 2:
        raise InfeasibleTopology(f"cap {cap} cannot connect {agents} agents")
    limit = min(cap, agents - 1)
    adj: list[set[int]] = [set() for _ in range(agents)]

    def can_add(a: int, b: int) -> bool:
        return a != b and b not in adj[a] and len(adj[a]) < limit and len(adj[b]) < limit

    def add(a: int, b: int) -> None:
        adj[a].add(b)
        adj[b].add(a)

    # attachment pass: one edge from each node to the already-connected prefix
    for v in range(1, agents):
        cand = _priority_candidates(v, agents)
        ordered = [u for u in cand["parents"] + cand["siblings"] if u < v]
        ordered += [u for u in range(v) if u not in ordered]
        for u in ordered:
            if can_add(v, u):
                add(v, u)
                break
        else:
            raise InfeasibleTopology(f"cap {cap} leaves node {v} unattachable")

    # priority pass: parents, then children, then siblings, lower index first
    for group in ("parents", "children", "siblings"):
        for v in range(agents):
            for u in _priority_candidates(v, agents)[group]:
                if can_add(v, u):
                    add(v, u)

    # fill pass: seeded shuffle over the absent pairs
    g = rng.stream(seed, rng.TOPOLOGY)
    absent = [(a, b) for a in range(agents) for b in range(a + 1, agents) if b not in adj[a]]
    for k in g.permutation(len(absent)):
        a, b = absent[k]
        if can_add(a, b):
            add(a, b)

    return Topology(agents, cap, [sorted(s) for s in adj])

