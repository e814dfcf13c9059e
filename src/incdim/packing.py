"""Exact 2-packing machinery.

A 2-packing is a vertex set whose members are pairwise at distance
greater than 2, equivalently an independent set of the distance-2
conflict graph.  Every route reports the lexicographically smallest
maximum set, so witnesses do not depend on the route taken.

When the graph has a verified perfect elimination ordering (PEO) of
its conflict graph (Graph.conflict_peo), the maximum is decided
exactly without search.  Every induced subgraph of a chordal graph is
chordal with the restricted order as a PEO, and its earliest vertex is
simplicial, so some maximum independent set holds it: the greedy pass
that takes the earliest candidate and drops its ball counts the
independence number alpha of any candidate set (Gavril, SIAM J.
Comput. 1972).  The witness is then built in one ascending pass: the
lowest candidate v joins it iff 1 + alpha(cands minus ball(v)) still
reaches the size sought, which needs no count when v is earliest in
the PEO.  Trees have chordal squares, so on trees rho, the
restricted per-edge searches and hence the dimension cost only mask
operations polynomial in n.

Otherwise, and always for the enumeration of every maximum packing,
the solver is a deterministic include-first branch and bound over
vertices in ascending order.  Its bound is a greedy clique cover of
the conflict graph (the colouring bound of MCQ/BBMC max-clique
solvers, applied to the complement), built top down: each clique
starts at the highest uncovered candidate.  A node that still needs k
more vertices builds one cover of k - 1 cliques and keeps the highest
candidate they leave over.  Every candidate above it lies in those
cliques, so once the branch vertex passes it, no set in the rest of
the node's exclude chain can reach k, and the whole chain is pruned.
The cover is built only for a new candidate set (an include child) or
when the incumbent has raised k; the exclude children inherit it.  The
bound prunes only subtrees that cannot beat the incumbent, so it
changes no witness and no enumeration order.

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


def _chain_top(balls, cands, limit):
    """Highest candidate left over by a top-down greedy clique cover of
    the conflict graph on cands with at most limit cliques, or -1.

    Each clique starts at the highest uncovered candidate and grows with
    the highest candidate conflicting with all its members.  A clique
    holds at most one vertex of any packing, so every subset of cands
    above the returned vertex holds at most limit vertices of a packing.
    """
    while cands and limit > 0:
        limit -= 1
        v = cands.bit_length() - 1
        cands ^= 1 << v
        grow = balls[v] & cands
        while grow:
            v = grow.bit_length() - 1
            bit = 1 << v
            cands ^= bit
            grow &= balls[v]
            grow ^= bit
    return cands.bit_length() - 1


def _search(balls, cands, floor, cap=None):
    """Conflict-free subsets of cands with more than floor vertices.

    balls[v] is the bitmask of v plus every vertex conflicting with v.
    The search branches include-first on the lowest candidate, on an
    explicit stack, so its depth is not bounded by the interpreter's
    recursion limit.  Subsets are masks.  Without a cap it returns a
    one-element list holding the lexicographically smallest subset of
    maximum size, or [] when no subset beats floor (floor = -1 always
    yields a set, possibly the empty one).  With a cap it returns every
    subset of exactly floor + 1 vertices in lexicographic order, raising
    WitnessCapExceeded once there are more than cap of them.

    An exclude entry on the stack carries the chain bound of its
    parent: top, from _chain_top on a superset of its candidates, and
    the need it was computed for.  The bound is recomputed only when
    need has risen since, and the chain ends once its branch vertex is
    above top.  The chain's candidate sets are suffixes of the set top
    was computed on, and the first cliques of a suffix's top-down cover
    are those of the whole set, restricted.  So a recomputed top is
    never higher, and an exclude entry with no candidate up to top is
    never pushed (an empty one could not beat its include sibling).
    """
    need = floor + 1    # size a subset must reach to be reported
    found = []
    # at: the need that top was computed for, None on a new candidate set
    stack = [(0, 0, cands, -1, None)]
    while stack:
        cur, size, cands, top, at = stack.pop()
        if cap is not None and size == need:
            found.append(cur)
            if len(found) > cap:
                raise WitnessCapExceeded(
                    f"witness cap exceeded: more than {cap} maximum packings")
            continue
        if cands == 0:
            if size >= need:
                found, need = [cur], size + 1
            continue
        limit = need - size - 1
        if cands.bit_count() <= limit:
            continue
        if at != need:
            top, at = _chain_top(balls, cands, limit), need
        low = cands & -cands
        v = low.bit_length() - 1
        if v > top:
            continue
        rest = cands ^ low
        if rest & ((2 << top) - 1):     # else the chain ends here
            stack.append((cur, size, rest, top, at))
        # Pushed last, the branch holding the lowest candidate runs first.
        stack.append((cur | low, size + 1, cands & ~balls[v], -1, None))
    return found


def _greedy(balls, cands):
    """The set the greedy pass takes from cands, always the earliest
    candidate: a maximum conflict-free subset when the positions are a
    PEO's."""
    taken = 0
    while cands:
        low = cands & -cands
        taken |= low
        cands &= ~balls[low.bit_length() - 1]
    return taken


def _best(g, drop, floor):
    """_search's max mode on the vertices beyond distance 2 of every
    vertex of drop: [lexicographically smallest maximum packing mask]
    if it has more than floor vertices, else [].  Exact and without
    search when g has a conflict PEO."""
    balls, peo = g.ball2_masks, g.conflict_peo
    cands = (1 << g.n) - 1
    for x in drop:
        cands &= ~balls[x]
    if peo is None:
        return _search(balls, cands, floor)
    rank, pballs = peo
    pcands = (1 << g.n) - 1
    for x in drop:
        pcands &= ~pballs[rank[x]]
    need = _greedy(pballs, pcands).bit_count()
    if need <= floor:
        return []
    # cands and pcands hold the same vertices, by label and by PEO
    # position.  Invariant: size + alpha(pcands) == need.
    cur = size = 0
    while cands:
        low = cands & -cands
        v = low.bit_length() - 1
        p = rank[v]
        rest = pcands & ~pballs[p]
        if (pcands & -pcands == 1 << p
                or size + 1 + _greedy(pballs, rest).bit_count() == need):
            cur, size = cur | low, size + 1
            cands &= ~balls[v]
            pcands = rest
        else:
            cands ^= low
            pcands ^= 1 << p
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
    """True iff g has exactly one maximum 2-packing.

    The enumeration stops at the second maximum packing it finds.
    """
    try:
        max_packing(g, enumerate_all=True, witness_cap=1)
    except WitnessCapExceeded:
        return False
    return True
