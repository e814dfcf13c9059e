"""Exact 2-packing machinery.

A 2-packing is a vertex set whose members are pairwise at distance
greater than 2, equivalently an independent set of the distance-2
conflict graph.  The solver is a deterministic include-first
branch-and-bound over vertices in ascending order, so the reported
witness is always the lexicographically smallest maximum set.

At every node the bound is a greedy clique cover of the conflict graph
restricted to the remaining candidates, recomputed for that node (the
colouring bound of MCQ/BBMC max-clique solvers, applied to the
complement).  It prunes only subtrees that cannot beat the incumbent,
so it changes no witness and no enumeration order.
"""
from __future__ import annotations

from dataclasses import dataclass

from .graph import Graph, _normalize_edge, remove_edge

DEFAULT_WITNESS_CAP = 10 ** 6


class WitnessCapExceeded(RuntimeError):
    """Raised when maximum-packing enumeration exceeds the witness cap."""


@dataclass(frozen=True)
class PackingResult:
    size: int
    witness: frozenset
    all_witnesses: tuple = None  # tuple of frozensets when enumeration asked


@dataclass(frozen=True)
class CriticalPackingResult:
    edge: tuple
    size: int
    witness: frozenset
    is_packing_of_g: bool
    contains_both_endpoints: bool


def is_packing(g, p):
    """True iff every pair of distinct vertices of p is at distance > 2."""
    verts = sorted(p)
    for v in verts:
        if not 0 <= v < g.n:
            raise ValueError(f"vertex out of range: {v}")
    dist = g.dist
    for i, u in enumerate(verts):
        row = dist[u]
        for v in verts[i + 1:]:
            if row[v] <= 2:
                return False
    return True


def _mask_to_set(mask):
    out = set()
    while mask:
        low = mask & -mask
        out.add(low.bit_length() - 1)
        mask ^= low
    return frozenset(out)


def _cover_size(balls, cands, limit):
    """Size of a greedy clique cover of the conflict graph on cands.

    Each clique starts at the lowest uncovered candidate and grows with
    the lowest candidate conflicting with all its members.  A clique
    holds at most one vertex of any packing, so the count bounds the
    packings inside cands.  Counting stops once it exceeds limit: the
    caller prunes only when the result is at most limit.
    """
    count = 0
    while cands and count <= limit:
        count += 1
        low = cands & -cands
        cands ^= low
        grow = balls[low.bit_length() - 1] & cands
        while grow:
            low = grow & -grow
            cands ^= low
            grow &= balls[low.bit_length() - 1]
            grow ^= low
    return count


def _search_max(balls, n, accept=None):
    """Maximum conflict-free subset, lexicographically smallest witness.

    balls[v] is the bitmask of v plus every vertex conflicting with v.
    When accept is given, only sets passing it may be recorded, and
    candidate sets are tested at every node (feasibility need not be
    preserved by adding vertices).  Returns (size, mask).
    """
    best_size = -1
    best_mask = 0

    def dfs(cur, size, cands):
        nonlocal best_size, best_mask
        if accept is not None and size > best_size and accept(cur):
            best_size, best_mask = size, cur
        if cands == 0:
            if accept is None and size > best_size:
                best_size, best_mask = size, cur
            return
        room = cands.bit_count()
        if size + room <= best_size:
            return
        limit = best_size - size
        if _cover_size(balls, cands, limit) <= limit:
            return
        low = cands & -cands
        v = low.bit_length() - 1
        dfs(cur | low, size + 1, cands & ~balls[v])
        dfs(cur, size, cands & ~low)

    dfs(0, 0, (1 << n) - 1)
    if best_size < 0:  # only possible with accept rejecting everything
        best_size, best_mask = 0, 0
    return best_size, best_mask


def _enumerate_size(balls, n, target, cap):
    """All conflict-free subsets of exactly the given size, ascending
    lexicographic order."""
    found = []

    def dfs(cur, size, cands):
        if size == target:
            found.append(cur)
            if len(found) > cap:
                raise WitnessCapExceeded(
                    f"witness cap exceeded: more than {cap} maximum packings")
            return
        if size + cands.bit_count() < target:
            return
        limit = target - size - 1
        if _cover_size(balls, cands, limit) <= limit:
            return
        low = cands & -cands
        v = low.bit_length() - 1
        dfs(cur | low, size + 1, cands & ~balls[v])
        dfs(cur, size, cands & ~low)

    dfs(0, 0, (1 << n) - 1)
    return found


def max_packing(g, enumerate_all=False, witness_cap=DEFAULT_WITNESS_CAP):
    """Maximum 2-packing of g.

    The witness is the lexicographically smallest maximum packing.
    With enumerate_all, all_witnesses lists every maximum packing (in
    lexicographic order), guarded by witness_cap.
    """
    size, mask = _search_max(g.ball2_masks, g.n)
    witnesses = None
    if enumerate_all:
        masks = _enumerate_size(g.ball2_masks, g.n, size, witness_cap)
        witnesses = tuple(_mask_to_set(m) for m in masks)
    return PackingResult(size=size, witness=_mask_to_set(mask),
                         all_witnesses=witnesses)


def e_critical_packing(g, e):
    """Maximum 2-packing of G-e subject to the endpoint condition: a set
    containing fewer than both endpoints of e must also be a 2-packing
    of G itself."""
    u, v = _normalize_edge(e)
    if (u, v) not in g.edges:
        raise ValueError(f"edge not in graph: {(u, v)}")
    ge = remove_edge(g, (u, v))
    endpoints = (1 << u) | (1 << v)
    dist_g = g.dist

    # A packing of G-e fails to be one of G only at pairs whose distance
    # drops to <= 2 once e is restored.
    bad_pairs = []
    for x in range(g.n):
        for y in range(x + 1, g.n):
            if dist_g[x][y] <= 2 and ge.dist[x][y] > 2:
                bad_pairs.append((1 << x) | (1 << y))

    def accept(mask):
        if mask & endpoints == endpoints:
            return True
        return all(mask & p != p for p in bad_pairs)

    size, mask = _search_max(ge.ball2_masks, g.n, accept=accept)
    witness = _mask_to_set(mask)
    return CriticalPackingResult(
        edge=(u, v),
        size=size,
        witness=witness,
        is_packing_of_g=is_packing(g, witness),
        contains_both_endpoints=mask & endpoints == endpoints,
    )


def has_unique_max_packing(g, witness_cap=DEFAULT_WITNESS_CAP):
    """True iff g has exactly one maximum 2-packing."""
    res = max_packing(g, enumerate_all=True, witness_cap=witness_cap)
    return len(res.all_witnesses) == 1
