"""Exact adjacency dimension and edge metric dimension solvers.

Both are ascending-size lexicographic subset searches, used to verify
that the incidence dimension dominates them.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .graph import _normalize_edge


@dataclass(frozen=True)
class MetricDimResult:
    kind: str        # "adjacency" or "edge_metric"
    value: int
    basis: frozenset


def is_adjacency_generator(g, s):
    """True iff every pair of distinct vertices outside s has a member
    of s adjacent to exactly one of them."""
    smask = 0
    for v in s:
        if not 0 <= v < g.n:
            raise ValueError(f"vertex out of range: {v}")
        smask |= 1 << v
    outside = [v for v in range(g.n) if not (smask >> v) & 1]
    seen = set()
    for v in outside:
        sig = g.adj_masks[v] & smask
        if sig in seen:
            return False
        seen.add(sig)
    return True


def dim_A(g):
    """Minimum-cardinality adjacency generator."""
    for size in range(g.n + 1):
        for combo in combinations(range(g.n), size):
            if is_adjacency_generator(g, combo):
                return MetricDimResult(kind="adjacency", value=size,
                                       basis=frozenset(combo))
    raise AssertionError("unreachable: V(G) is an adjacency generator")


def edge_distance(g, v, e):
    """Distance from vertex v to edge e: the nearer endpoint distance."""
    u, w = _normalize_edge(e)
    if (u, w) not in g.edges:
        raise ValueError(f"edge not in graph: {(u, w)}")
    if not 0 <= v < g.n:
        raise ValueError(f"vertex out of range: {v}")
    return min(g.dist[v][u], g.dist[v][w])


def _edge_distance_rows(g):
    """For each vertex x, its distances to the edges in sorted order."""
    return [tuple(min(row[u], row[w]) for u, w in g.sorted_edges)
            for row in g.dist]


def _is_edge_metric_generator(rows, combo):
    seen = set()
    for vec in zip(*(rows[x] for x in combo)):
        if vec in seen:
            return False
        seen.add(vec)
    return True


def dim_e(g):
    """Minimum-cardinality edge metric generator (nonempty by
    definition, so the value is at least 1)."""
    if g.m == 0:
        raise ValueError("no edges")
    rows = _edge_distance_rows(g)
    for size in range(1, g.n + 1):
        for combo in combinations(range(g.n), size):
            if _is_edge_metric_generator(rows, combo):
                return MetricDimResult(kind="edge_metric", value=size,
                                       basis=frozenset(combo))
    raise AssertionError("unreachable: V(G) is an edge metric generator")
