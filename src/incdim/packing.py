"""Exact 2-packing machinery.

A 2-packing is a vertex set whose members are pairwise at distance
greater than 2, equivalently an independent set of the distance-2
conflict graph.  Every route reports the lexicographically smallest
maximum set, so witnesses do not depend on the route taken.

On a forest the maximum is decided exactly, without search.  A
forest's conflict graph, its square, is chordal, and the BFS depth
layers read deepest first (Graph.conflict_peo) are a perfect
elimination ordering (PEO) of it.  Every induced subgraph of a chordal
graph keeps the restricted order as a PEO, and its earliest vertex is
simplicial, so some maximum independent set holds it: the greedy pass
that takes the earliest candidate and drops its ball counts the
independence number alpha of any candidate set (Gavril, SIAM J.
Comput. 1972).  The witness is then built in one ascending pass over
the labels: the lowest candidate v joins it iff 1 + alpha(cands minus
ball(v)) still reaches the size sought.  The pass carries a maximum
set B of the candidates left, and needs no count when ball(v) holds
one member w of B (it holds one at least, or v could join B): B - w
+ v is a maximum holding v, so the lexicographically first one holds
v too.  So on forests rho, the restricted per-edge searches and hence
the dimension cost only mask operations polynomial in n.

Otherwise, and always for the enumeration of every maximum packing,
one include-first walk over ascending vertices lists the conflict-free
sets of a fixed size in lexicographic order.  Its bound is a top-down
greedy clique cover of the conflict graph (the colouring bound of
MCQ/BBMC, applied to the complement): a node that still needs k more
vertices keeps the highest candidate left over by k - 1 cliques, and
once the branch vertex passes it, the rest of the node's exclude chain
cannot reach k.  The maximum is the first size, from the whole cover's
clique count down to one above the greedy set, whose walk finds a set;
on the 3-SAT reduction of a satisfiable formula the cover has rho
cliques, so rho is proved at the root.  The bound prunes only subtrees
holding no set of the size sought, so no witness or order changes.

e-critical packings are decided on G's own conflict balls; G - e is
never built.  For e = uv, a set larger than rho(G) must hold both u
and v, which is possible only when u and v have no common neighbour.
Then the rest of the set is exactly a 2-packing of G avoiding
ball2(u) | ball2(v): removing e changes no distance-2 relation
between two vertices other than u and v.  So |P_e| = max(rho,
2 + p_e), with p_e the packing number of G on that candidate set,
and each edge costs at most one search restricted to it: rho and its
witness are computed once per graph (Graph.max_packing) and shared by
max_packing, e_critical_packing, dim_I_structural, classify and
dim_I_brute.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import islice

from .graph import _graph_edge, _mask_to_set, _vertex_mask

DEFAULT_WITNESS_CAP = 10 ** 6


class WitnessCapExceeded(RuntimeError):
    """Raised when maximum-packing enumeration exceeds the witness cap."""


@dataclass(frozen=True)
class PackingResult:
    size: int
    witness: frozenset
    all_witnesses: tuple = None  # tuple of frozensets when enumeration asked
    mask: int = field(default=None, compare=False, repr=False)  # of witness


@dataclass(frozen=True)
class CriticalPackingResult:
    edge: tuple
    size: int
    witness: frozenset
    is_packing_of_g: bool
    contains_both_endpoints: bool


def is_packing(g, p):
    """True iff every pair of distinct vertices of p is at distance > 2."""
    mask = _vertex_mask(g, p)
    balls = g.ball2_masks
    return all(balls[v] & mask == 1 << v for v in _mask_to_set(mask))


def _cover(balls, cands, limit):
    """Top-down greedy clique cover of the conflict graph on cands with
    at most limit cliques: (cliques used, candidates left over).

    Each clique starts at the highest uncovered candidate and grows with
    the highest candidate conflicting with all its members.  A clique
    holds at most one vertex of a packing, so every subset of cands
    above the highest leftover holds at most limit packing vertices.
    """
    used = 0
    while cands and used < limit:
        used += 1
        v = cands.bit_length() - 1
        cands ^= 1 << v
        grow = balls[v] & cands
        while grow:
            v = grow.bit_length() - 1
            bit = 1 << v
            cands ^= bit
            grow &= balls[v]
            grow ^= bit
    return used, cands


def _walk(balls, cands, need):
    """Yield the conflict-free need-subsets of cands as masks, in
    lexicographic order, branching include-first on the lowest
    candidate on an explicit stack (no recursion limit).  balls[v] is v
    plus every vertex conflicting with v.  An exclude entry inherits its
    parent's chain bound top: need never changes, and its candidates are
    a suffix of the set top was computed on."""
    stack = [(0, 0, cands, None)]
    while stack:
        cur, size, cands, top = stack.pop()
        if size == need:
            yield cur
            continue
        limit = need - size - 1
        if cands.bit_count() <= limit:
            continue
        if top is None:
            top = _cover(balls, cands, limit)[1].bit_length() - 1
        low = cands & -cands
        v = low.bit_length() - 1
        if v > top:
            continue
        rest = cands ^ low
        if rest & ((2 << top) - 1):     # else the chain ends here
            stack.append((cur, size, rest, top))
        # Pushed last, the branch holding the lowest candidate runs first.
        stack.append((cur | low, size + 1, cands & ~balls[v], None))


def _search(balls, cands, floor, cap=None):
    """Conflict-free subsets of cands with more than floor vertices:
    [the lexicographically smallest of maximum size], or [] when none
    beats floor (floor = -1 always yields one).  With a cap, every
    subset of exactly floor + 1 vertices in lexicographic order, raising
    WitnessCapExceeded once there are more than cap of them.  The
    maximum is sought from the root cover's clique count down to one
    above the greedy set, which is the walk's own first dive.
    """
    if cap is not None:
        found = list(islice(_walk(balls, cands, floor + 1), cap + 1))
        if len(found) > cap:
            raise WitnessCapExceeded(
                f"witness cap exceeded: more than {cap} maximum packings")
        return found
    cliques = _cover(balls, cands, cands.bit_count())[0]
    if cliques <= floor:
        return []
    greedy = _greedy(balls, cands, (cands,))
    low = max(greedy.bit_count(), floor)
    for need in range(cliques, low, -1):
        for found in _walk(balls, cands, need):
            return [found]
    return [greedy] if low > floor else []


def _greedy(balls, cands, order):
    """The set the greedy pass takes from cands, reading the masks of
    order in turn, each in ascending label order, and always taking the
    earliest candidate left: a maximum conflict-free subset when that
    order is a PEO of the conflict graph."""
    taken = 0
    for part in order:
        part &= cands
        while part:
            low = part & -part
            taken |= low
            cands &= ~balls[low.bit_length() - 1]
            part &= cands
        if not cands:
            break
    return taken


def _best(g, drop, floor):
    """_search without a cap on the vertices beyond distance 2 of every
    vertex of drop: [lexicographically smallest maximum packing mask]
    if it has more than floor vertices, else [].  Exact and without
    search when g is a forest."""
    balls, order = g.ball2_masks, g.conflict_peo
    cands = (1 << g.n) - 1
    for x in drop:
        cands &= ~balls[x]
    if order is None:
        return _search(balls, cands, floor)
    best = _greedy(balls, cands, order)
    need = best.bit_count()
    if need <= floor:
        return []
    # Invariant: best is a maximum conflict-free subset of cands and
    # size + |best| == need.
    cur = size = 0
    while cands:
        low = cands & -cands
        v = low.bit_length() - 1
        rest = cands & ~balls[v]
        if (best & balls[v]).bit_count() == 1:
            best &= rest
        else:
            alt = _greedy(balls, rest, order)
            if size + 1 + alt.bit_count() < need:
                cands ^= low
                continue
            best = alt
        cur, size, cands = cur | low, size + 1, rest
    return [cur]


def max_packing(g, enumerate_all=False, witness_cap=DEFAULT_WITNESS_CAP):
    """Maximum 2-packing of g: g.max_packing, whose witness is the
    lexicographically smallest maximum packing.  With enumerate_all, a
    fresh copy also lists every maximum packing (in lexicographic
    order) in all_witnesses, guarded by witness_cap.
    """
    res = g.max_packing
    if enumerate_all:
        masks = _search(g.ball2_masks, (1 << g.n) - 1, res.size - 1,
                        witness_cap)
        res = replace(res, all_witnesses=tuple(map(_mask_to_set, masks)))
    return res


def _with_endpoints(g, u, v, floor):
    """Lexicographically smallest maximum 2-packing of G - uv that holds
    both u and v, as a mask, if it has more than floor vertices; else
    None (always None when u and v have a common neighbour)."""
    if g.adj_masks[u] & g.adj_masks[v]:
        return None
    rest = _best(g, (u, v), floor - 2)
    return rest[0] | (1 << u) | (1 << v) if rest else None


def e_critical_packing(g, e):
    """Maximum 2-packing of G-e subject to the endpoint condition: a set
    containing fewer than both endpoints of e must also be a 2-packing
    of G itself.

    The witness is the lexicographically smallest maximum set.
    """
    u, v = _graph_edge(g, e)
    rho, mask = g.max_packing.size, g.max_packing.mask
    # The feasible sets missing an endpoint are the packings of G, led
    # by mask; those holding both have at most rho + 1 vertices.  Of two
    # sets of equal size the lexicographically smaller holds the lowest
    # vertex of their symmetric difference.
    forced = _with_endpoints(g, u, v, rho - 1)
    if forced is not None:
        low = (forced ^ mask) & -(forced ^ mask)
        if forced.bit_count() > rho or forced & low:
            mask = forced
    both = mask == forced
    return CriticalPackingResult(
        edge=(u, v),
        size=mask.bit_count(),
        witness=_mask_to_set(mask),
        is_packing_of_g=not both,   # u and v are adjacent in G
        contains_both_endpoints=both,
    )


def has_unique_max_packing(g):
    """True iff g has exactly one maximum 2-packing; the walk stops at
    the second one it finds."""
    walk = _walk(g.ball2_masks, (1 << g.n) - 1, g.max_packing.size)
    return len(list(islice(walk, 2))) == 1
