"""Immutable simple graphs held as adjacency bitmasks.

Vertices are dense integers 0..n-1.  A graph stores its edge set; the
neighbourhood masks and the distance-2 conflict balls are derived from
it on first use and cached, and hop distances come from BFS layers
flooded over the neighbourhood masks.  No n x n distance table is
ever built.  Distances between vertices in different components are
INFINITE, which compares greater than any finite hop count, so
distance predicates work uniformly on disconnected graphs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

INFINITE = math.inf


def _normalize_edge(e):
    u, v = e
    if u == v:
        raise ValueError(f"self-loop at vertex {u}")
    return (u, v) if u < v else (v, u)


def _graph_edge(g, e):
    """e as (u, v) with u < v; it must be an edge of g."""
    e = _normalize_edge(e)
    if e not in g.edges:
        raise ValueError(f"edge not in graph: {e}")
    return e


def _mask_to_set(mask):
    out = set()
    while mask:
        low = mask & -mask
        out.add(low.bit_length() - 1)
        mask ^= low
    return frozenset(out)


def _vertex_mask(g, s):
    """Bitmask of the vertex set s; every vertex must lie in range."""
    mask = 0
    for v in s:
        if not 0 <= v < g.n:
            raise ValueError(f"vertex out of range: {v}")
        mask |= 1 << v
    return mask


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph; construct through build_graph.

    Only n and the edge set are stored.  The adjacency masks, the
    distance-2 balls, a forest's conflict elimination ordering, the
    sorted edge tuple and the maximum 2-packing are cached properties
    computed on first access, so the maximum packing is computed once
    per graph and shared by e_critical_packing, dim_I_structural,
    classify and dim_I_brute.
    """

    n: int
    edges: frozenset  # frozenset of (u, v) tuples with u < v

    @cached_property
    def adj_masks(self):
        """Open neighborhoods as bitmasks."""
        masks = [0] * self.n
        for u, v in self.edges:
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        return tuple(masks)

    @cached_property
    def ball2_masks(self):
        """For each v: bitmask of v itself plus all u with d(u,v) <= 2,
        i.e. v | N(v) | N(N(v))."""
        adj = self.adj_masks
        balls = [(1 << v) | nbrs for v, nbrs in enumerate(adj)]
        for u, v in self.edges:
            balls[u] |= adj[v]
            balls[v] |= adj[u]
        return tuple(balls)

    @cached_property
    def conflict_peo(self):
        """For a forest, a perfect elimination ordering of its conflict
        graph as a tuple of vertex masks, each read in ascending label
        order; None for every other graph.

        The order is the BFS depth layers of every component, rooted at
        its highest label, equal depths merged, deepest first: the later
        conflict neighbours of v are its parent, its grandparent and its
        later siblings, which conflict pairwise, and other components
        never conflict.  A layer whose labels all exceed the mask before
        it joins that mask, so a path labelled along itself is one mask.
        A graph is a forest iff m = n - components.
        """
        if self.m >= self.n > 0:     # m > n - components: a cycle
            return None
        layers, comps = [], 0
        left = (1 << self.n) - 1
        while left:
            comps += 1
            for depth, layer in enumerate(
                    _layers(self, left.bit_length() - 1)):
                left ^= layer
                if depth < len(layers):
                    layers[depth] |= layer
                else:
                    layers.append(layer)
        if self.m + comps != self.n:
            return None
        order = []
        for layer in reversed(layers):
            if order and order[-1] < layer & -layer:
                order[-1] |= layer
            else:
                order.append(layer)
        return tuple(order)

    @cached_property
    def sorted_edges(self):
        return tuple(sorted(self.edges))

    @cached_property
    def max_packing(self):
        """The lexicographically smallest maximum 2-packing, as a
        packing.PackingResult."""
        from .packing import PackingResult, _best   # packing imports graph
        (mask,) = _best(self, (), -1)
        return PackingResult(mask.bit_count(), _mask_to_set(mask), mask=mask)

    @property
    def m(self):
        return len(self.edges)


def _layers(g, src):
    """Masks of the BFS layers of g from src: {src}, then the vertices
    at distance 1, 2, ... until no vertex is new."""
    adj = g.adj_masks
    seen = frontier = 1 << src
    while frontier:
        yield frontier
        reach = 0
        while frontier:
            low = frontier & -frontier
            reach |= adj[low.bit_length() - 1]
            frontier ^= low
        frontier = reach & ~seen
        seen |= frontier


def build_graph(n, edge_list):
    """Build a Graph on n vertices from an iterable of vertex pairs.

    Edges are deduplicated; self-loops and out-of-range endpoints are
    rejected.
    """
    if n < 0:
        raise ValueError("vertex count must be non-negative")
    edges = set()
    for e in edge_list:
        u, v = _normalize_edge(e)
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"vertex out of range in edge ({u}, {v})")
        edges.add((u, v))
    return Graph(n=n, edges=frozenset(edges))


def neighbors(g, v):
    """Open neighborhood N(v) as a frozenset."""
    if not 0 <= v < g.n:
        raise ValueError(f"vertex out of range: {v}")
    return _mask_to_set(g.adj_masks[v])


def remove_edge(g, e):
    """Return a new graph with edge e removed."""
    return Graph(n=g.n, edges=g.edges - {_graph_edge(g, e)})


def induced_subgraph(g, d):
    """Subgraph induced by vertex set d, relabeled 0..|d|-1 in ascending
    order of the original labels."""
    verts = sorted(d)
    _vertex_mask(g, verts)
    index = {v: i for i, v in enumerate(verts)}
    edges = [(index[u], index[v]) for u, v in g.edges
             if u in index and v in index]
    return build_graph(len(verts), edges)


def is_edge_triangular(g):
    """True iff every edge lies in at least one triangle."""
    adj = g.adj_masks
    return all(adj[u] & adj[v] for u, v in g.edges)


def is_connected(g):
    """True iff every vertex is reachable from vertex 0."""
    if g.n <= 1:
        return True
    return sum(map(int.bit_count, _layers(g, 0))) == g.n


# ---------------------------------------------------------------------------
# named families

def _path(n):
    if n < 1:
        raise ValueError("family parameters invalid: path needs n >= 1")
    return build_graph(n, [(i, i + 1) for i in range(n - 1)])


def _cycle(n):
    if n < 3:
        raise ValueError("family parameters invalid: cycle needs n >= 3")
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)])


def _complete(n):
    if n < 1:
        raise ValueError("family parameters invalid: complete needs n >= 1")
    return build_graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def _complete_bipartite(r, t):
    if r < 1 or t < 1:
        raise ValueError("family parameters invalid: "
                         "complete_bipartite needs r,t >= 1")
    return build_graph(r + t, [(i, r + j) for i in range(r) for j in range(t)])


def _grn(r, n):
    # Clique u_1..u_r = vertices 0..r-1, pendants v_i = r-1+i, w = 2r.
    if not (n % 2 == 1 and r == n // 2 and r >= 3):
        raise ValueError("family parameters invalid: "
                         "grn needs odd n, r = n//2, r >= 3")
    edges = [(i, j) for i in range(r) for j in range(i + 1, r)]
    edges += [(i, r + i) for i in range(r)]       # u_i v_i
    edges.append((r, 2 * r))                      # v_1 w
    return build_graph(2 * r + 1, edges)


def _gprime_rn(r, n):
    # Clique u_1..u_r = vertices 0..r-1, v_i = r-1+i for i=1..n-r.
    # Valid exactly when the hub v_{n-r} has someone to attach to,
    # i.e. n-r <= r; for odd n with r = n//2 the sibling family grn applies.
    if not (r >= 3 and n - r <= r and r < n - 1):
        raise ValueError("family parameters invalid: "
                         "gprime_rn needs 3 <= max(3, ceil(n/2)) <= r <= n-2")
    edges = [(i, j) for i in range(r) for j in range(i + 1, r)]
    edges += [(i, r + i) for i in range(n - r - 1)]          # u_i v_i
    hub = n - 1                                              # v_{n-r}
    edges += [(i, hub) for i in range(n - r - 1, r)]         # v_{n-r} u_i
    edges.append((r, r + 1))                                 # v_1 v_2
    return build_graph(n, edges)


FAMILIES = {
    "path": _path,
    "cycle": _cycle,
    "complete": _complete,
    "complete_bipartite": _complete_bipartite,
    "grn": _grn,
    "gprime_rn": _gprime_rn,
}


def generate_family(family, *params):
    """Build a named family graph.

    Families: path(n), cycle(n), complete(n), complete_bipartite(r, t),
    grn(r, n) and gprime_rn(r, n).  The grn/gprime_rn constructions put
    the clique vertices u_1..u_r first (0..r-1), then the pendant
    vertices v_1..v_k in order, with the extra vertex w last for grn.
    """
    try:
        builder = FAMILIES[family]
    except KeyError:
        raise ValueError(f"family parameters invalid: unknown family "
                         f"{family!r}") from None
    arity = builder.__code__.co_argcount
    if len(params) != arity:
        raise ValueError(f"family parameters invalid: {family} takes "
                         f"{arity} parameter(s), got {len(params)}")
    return builder(*params)


# ---------------------------------------------------------------------------
# edge-list interchange format

def parse_edge_list(text):
    """Parse the canonical edge-list text format.

    Line 1 is `n m`, then m lines `u v`; `#` starts a comment, blank
    lines are ignored.  Raises ValueError with the offending line
    number on malformed input.
    """
    header = None
    pairs = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        try:
            nums = [int(f) for f in fields]
        except ValueError:
            raise ValueError(f"line {lineno}: expected integers, got {raw!r}")
        if header is None:
            if len(nums) != 2:
                raise ValueError(f"line {lineno}: header must be 'n m'")
            header = nums
        else:
            if len(nums) != 2:
                raise ValueError(f"line {lineno}: edge line must be 'u v'")
            pairs.append((nums[0], nums[1], lineno))
    if header is None:
        raise ValueError("line 1: missing 'n m' header")
    n, m = header
    if len(pairs) != m:
        raise ValueError(f"header declares {m} edges, found {len(pairs)}")
    edges = set()
    for u, v, lineno in pairs:
        try:
            edges.add(_normalize_edge((u, v)))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"line {lineno}: vertex out of range")
    if n < 0:
        raise ValueError("vertex count must be non-negative")
    return Graph(n=n, edges=frozenset(edges))


def format_edge_list(g, comments=()):
    """Serialize a graph to the edge-list format (edges sorted, u < v)."""
    lines = [f"# {c}" for c in comments]
    lines.append(f"{g.n} {g.m}")
    lines.extend(f"{u} {v}" for u, v in g.sorted_edges)
    return "\n".join(lines) + "\n"


def read_edge_list(path):
    with open(path) as fh:
        return parse_edge_list(fh.read())


def write_edge_list(g, path, comments=()):
    with open(path, "w") as fh:
        fh.write(format_edge_list(g, comments))
