"""Exact adjacency dimension and edge metric dimension solvers.

Both are minimum hitting sets over vertex-pair or edge-pair masks (see
hitting), used to verify that the incidence dimension dominates them.
The basis is the lexicographically first minimum generator, first in
combinations(range(n), k) order.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import partial, reduce
from itertools import combinations, starmap
from operator import or_, xor

from .graph import (INFINITE, _graph_edge, _layers, _mask_to_set,
                    _vertex_mask)
from .hitting import min_hitting_set


@dataclass(frozen=True)
class MetricDimResult:
    kind: str        # "adjacency" or "edge_metric"
    value: int
    basis: frozenset


def is_adjacency_generator(g, s):
    """True iff every pair of distinct vertices outside s has a member
    of s adjacent to exactly one of them."""
    smask = _vertex_mask(g, s)
    outside = [v for v in range(g.n) if not (smask >> v) & 1]
    seen = set()
    for v in outside:
        sig = g.adj_masks[v] & smask
        if sig in seen:
            return False
        seen.add(sig)
    return True


def dim_A(g):
    """Minimum-cardinality adjacency generator.

    S is one iff it meets {x, y} | (N(x) ^ N(y)) for every pair of
    vertices x, y; memory is the distinct pair masks, at most
    n(n-1)/2 of n bits.
    """
    pairs = map(or_, starmap(xor, combinations(g.adj_masks, 2)),
                starmap(or_, combinations([1 << v for v in range(g.n)], 2)))
    basis = _mask_to_set(min_hitting_set(g.n, pairs))
    return MetricDimResult(kind="adjacency", value=len(basis), basis=basis)


def edge_distance(g, v, e):
    """Distance from vertex v to edge e: the nearer endpoint distance,
    the first BFS layer from v that meets an endpoint."""
    u, w = _graph_edge(g, e)
    if not 0 <= v < g.n:
        raise ValueError(f"vertex out of range: {v}")
    ends = (1 << u) | (1 << w)
    return next((d for d, layer in enumerate(_layers(g, v)) if layer & ends),
                INFINITE)


def _edge_separators(g):
    """For every pair of edges, the mask of vertices at different
    distances from the two, as an iterator.

    Vertex balls of radius 0, 1, ... are grown over adjacency masks;
    the union of an edge's endpoint balls of radius d holds the
    vertices within distance d of the edge.  planes[b][i] holds the
    vertices whose distance to edge i has bit b set, and vertices out
    of reach of edge i take a distance no reachable vertex has.  Two
    edges are at different distances from x iff some plane of the two
    differs at x, so a pair's mask is the OR over b of
    planes[b][e] ^ planes[b][f]; each pair costs one n-bit mask and
    the planes O(m n log n) bits.
    """
    if g.m < 2:
        return ()
    n, (us, ws) = g.n, zip(*g.sorted_edges)
    nbrs = [[] for _ in range(n)]
    for u, w in g.edges:
        nbrs[u].append(w)
        nbrs[w].append(u)
    ball = [1 << v for v in range(n)]
    planes, seen, d = [], [0] * g.m, 0
    while True:
        near = list(map(or_, map(ball.__getitem__, us),
                        map(ball.__getitem__, ws)))
        if near == seen:
            break
        _add_layer(planes, d, list(map(xor, near, seen)))
        ball = [reduce(or_, map(ball.__getitem__, nb), ball[v])
                for v, nb in enumerate(nbrs)]
        seen, d = near, d + 1
    full = (1 << n) - 1
    if any(x != full for x in seen):
        _add_layer(planes, d, [full ^ x for x in seen])
    return reduce(partial(map, or_),
                  [starmap(xor, combinations(p, 2)) for p in planes])


def _add_layer(planes, d, layer):
    """OR the vertices at distance d from each edge into the planes of
    d's set bits; d counts up from 0, so a new top bit is the next
    plane."""
    for b in range(d.bit_length()):
        if d >> b & 1:
            if b < len(planes):
                planes[b] = list(map(or_, planes[b], layer))
            else:
                planes.append(layer)


def dim_e(g):
    """Minimum-cardinality edge metric generator (nonempty by
    definition, so the value is at least 1).

    S is one iff it meets, for every pair of edges, the set of vertices
    at different distances from the two; memory is the distinct pair
    masks, at most m(m-1)/2 of n bits, and O(m n log n) bits of
    distance planes.
    """
    if g.m == 0:
        raise ValueError("no edges")
    basis = _mask_to_set(min_hitting_set(g.n, _edge_separators(g), 1))
    return MetricDimResult(kind="edge_metric", value=len(basis), basis=basis)
