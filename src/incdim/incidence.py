"""Incidence resolution predicates and the exact dimension solvers.

Two routes compute the same parameter: a direct search for the
smallest vertex set meeting e ^ f for every pair of edges (a minimum
hitting set, see hitting), and the structural route through e-critical
packings (value = n - max_e |P_e|).  Since rho <= |P_e| <= rho + 1,
the structural route needs one max_packing plus at most one search per
edge that lies in no triangle, restricted to the vertices beyond
distance 2 of both endpoints (see packing).  Closed formulas cover the
four standard families.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, starmap
from operator import xor

from .graph import (_graph_edge, _mask_to_set, _normalize_edge,
                    _vertex_mask, is_connected)
from .hitting import min_hitting_set
from .packing import (DEFAULT_WITNESS_CAP, _with_endpoints,
                      e_critical_packing, max_packing)

CLASS_MINUS_ONE = "CLASS_MINUS_ONE"   # dim_I = n - rho - 1
CLASS_EXACT = "CLASS_EXACT"           # dim_I = n - rho


@dataclass(frozen=True)
class DimResult:
    value: int
    basis: frozenset
    method: str                 # "brute" or "structural"
    achieving_edge: tuple = None


def resolves(g, x, e, f):
    """True iff x is an endpoint of exactly one of the edges e, f."""
    if _normalize_edge(e) == _normalize_edge(f):
        raise ValueError("identical edges")
    e, f = _graph_edge(g, e), _graph_edge(g, f)
    if not 0 <= x < g.n:
        raise ValueError(f"vertex out of range: {x}")
    return (x in e) != (x in f)


def _edge_masks(g):
    return [(1 << u) | (1 << v) for u, v in g.sorted_edges]


def is_incidence_generator(g, s):
    """True iff every pair of distinct edges is resolved by some vertex
    of s.

    Two edges are unresolved exactly when they meet s in the same set:
    both miss s, or both meet it only in one vertex x.  So s is a
    generator iff G - s has at most one edge and every vertex of s has
    at most one neighbour outside s.
    """
    smask = _vertex_mask(g, s)
    rest = ((1 << g.n) - 1) ^ smask
    ends = 0    # edges of G - s counted from both ends
    for v, nbrs in enumerate(g.adj_masks):
        outside = (nbrs & rest).bit_count()
        if smask >> v & 1:
            if outside > 1:
                return False
        else:
            ends += outside
            if ends > 2:
                return False
    return True


def dim_I_brute(g, full_search=False):
    """Exact dimension by direct search, independent of the structural
    route.

    S is a generator iff it meets e ^ f for every pair of edges, so the
    value is the size of a minimum hitting set of those masks and the
    basis the lexicographically first one (first in combinations
    order).  By default the search starts at n - rho - 1, the lower
    side of the packing-number sandwich; full_search starts from size
    0 and assumes nothing, for oracle-grade independence.  Memory is
    the distinct pair masks, at most m(m-1)/2 of n bits.
    """
    if g.m <= 1:
        return DimResult(value=0, basis=frozenset(), method="brute")
    floor = 0 if full_search else max(0, g.n - g.max_packing.size - 1)
    pairs = starmap(xor, combinations(_edge_masks(g), 2))
    basis = _mask_to_set(min_hitting_set(g.n, pairs, floor))
    return DimResult(value=len(basis), basis=basis, method="brute")


def dim_I_structural(g):
    """Exact dimension as n - k with k the best e-critical packing size.

    The basis is the complement of the witness of the first achieving
    edge (edges scanned in ascending order).  k is rho + 1 at the first
    edge whose e-critical packing holds both endpoints and rho + 1
    vertices, and otherwise rho, achieved first by the smallest edge.
    An edgeless graph has no edge pair to resolve, so its dimension is 0
    with the empty basis, decided before rho is computed.
    """
    if g.m == 0:
        return DimResult(value=0, basis=frozenset(), method="structural")
    rho = g.max_packing.size
    for u, v in g.sorted_edges:
        forced = _with_endpoints(g, u, v, rho)
        if forced is not None:
            edge, witness = (u, v), _mask_to_set(forced)
            break
    else:
        edge = g.sorted_edges[0]
        witness = e_critical_packing(g, edge).witness
    basis = frozenset(range(g.n)) - witness
    if not is_incidence_generator(g, basis):
        raise AssertionError(
            f"structural basis failed the generator check: {sorted(basis)}")
    return DimResult(value=len(basis), basis=basis, method="structural",
                     achieving_edge=edge)


def dim_I_formula(family, *params):
    """Closed-formula dimension for the four standard families."""
    arity = {"complete": 1, "path": 1, "cycle": 1,
             "complete_bipartite": 2}.get(family)
    if arity is None:
        raise ValueError(f"formula domain violated: unknown family {family!r}")
    if len(params) != arity:
        raise ValueError(f"formula domain violated: {family} takes "
                         f"{arity} parameter(s), got {len(params)}")
    if family == "complete_bipartite":
        r, t = params
        if r < 1 or t < 1:
            raise ValueError("formula domain violated: "
                             "complete_bipartite needs r,t >= 1")
        return r + t - 2
    (n,) = params
    if family == "complete":
        if n < 3:
            raise ValueError("formula domain violated: complete needs n >= 3")
        return n - 1
    if family == "path":
        if n < 3:
            raise ValueError("formula domain violated: path needs n >= 3")
        return (2 * (n - 1)) // 3
    if n < 4:
        raise ValueError("formula domain violated: cycle needs n >= 4")
    return (2 * n) // 3


def classify(g):
    """Partition label: CLASS_MINUS_ONE when dim_I = n - rho - 1,
    CLASS_EXACT when dim_I = n - rho."""
    rho = g.max_packing.size
    value = dim_I_structural(g).value
    if value == g.n - rho - 1:
        return CLASS_MINUS_ONE
    if value == g.n - rho:
        return CLASS_EXACT
    raise AssertionError(
        f"dim_I={value} outside the sandwich for n={g.n}, rho={rho}")


def check_symdiff_condition(g, witness_cap=DEFAULT_WITNESS_CAP):
    """Look for two maximum packings whose symmetric difference induces
    an edge.

    Returns a dict with the class label and the first witness pair in
    lexicographic order, or None when no pair qualifies.
    """
    res = max_packing(g, enumerate_all=True, witness_cap=witness_cap)
    witness_pair = None
    packs = res.all_witnesses
    for i, p1 in enumerate(packs):
        if witness_pair:
            break
        for p2 in packs[i + 1:]:
            sym = p1 ^ p2
            if any(u in sym and v in sym for u, v in g.edges):
                witness_pair = (p1, p2)
                break
    return {"class": classify(g), "witness_pair": witness_pair}


def common_neighbor_characterization(g):
    """True iff every pair of distinct vertices has a common neighbor.

    Only defined for connected graphs with at least two edges, where it
    characterizes dim_I = n - 1."""
    if not is_connected(g) or g.m < 2:
        raise ValueError("characterization requires connected, >=2 edges")
    adj = g.adj_masks
    return all(adj[u] & adj[v] for u in range(g.n) for v in range(u + 1, g.n))
