"""Shared fixtures and independent brute-force oracles.

The oracles deliberately avoid the library's search machinery: plain
subset enumeration and pairwise definitions, so they stay valid even if
the solvers' shortcuts are wrong.
"""
from collections import deque
from functools import lru_cache
from itertools import chain, combinations

import pytest
from hypothesis import strategies as st

from incdim import build_graph
from incdim.graph import INFINITE


@pytest.fixture
def figure1():
    """5-vertex graph with the dashed edge (0,1): path 0-1-2-3 plus the
    pendant 4 on vertex 1."""
    return build_graph(5, [(0, 1), (1, 2), (2, 3), (1, 4)])


@pytest.fixture
def figure2():
    """15-vertex tree with two maximum packings whose symmetric
    difference induces an edge.  Spine a1..a7 = 0..6, stalks b/c at
    0, 3, 6, and pendants d1, d2 at the spine ends."""
    edges = [(i, i + 1) for i in range(6)]
    edges += [(0, 7), (3, 8), (6, 9)]        # a-b stalks
    edges += [(7, 10), (8, 11), (9, 12)]     # b-c stalks
    edges += [(0, 13), (6, 14)]              # pendants d1, d2
    return build_graph(15, edges)


def small_graphs():
    """Hypothesis strategy: graphs with up to 8 vertices."""
    def build(data):
        n, mask = data
        slots = [(u, v) for u in range(n) for v in range(u + 1, n)]
        return build_graph(n, [slots[i] for i in range(len(slots))
                               if (mask >> i) & 1])
    return st.integers(1, 8).flatmap(
        lambda n: st.tuples(st.just(n),
                            st.integers(0, (1 << (n * (n - 1) // 2)) - 1))
    ).map(build)


def small_trees(max_n=12):
    """Hypothesis strategy: labelled trees with up to max_n vertices,
    each vertex i > 0 hung on an earlier one, then relabelled."""
    def build(data):
        n, parents, perm = data
        return build_graph(n, [(perm[i], perm[p])
                               for i, p in enumerate(parents, start=1)])
    return st.integers(1, max_n).flatmap(lambda n: st.tuples(
        st.just(n),
        st.tuples(*[st.integers(0, i - 1) for i in range(1, n)]),
        st.permutations(range(n)))).map(build)


# Tokens of both text parsers: DIMACS keywords, comment markers, signs,
# a header-sized count and separators.
PARSER_TOKENS = ("0", "1", "2", "3", "-1", "-2", "-", "+", "x", "#", "c",
                 "%", "p", "cnf", "p cnf", "1000000000", " ", "\t", "\n")


def parser_texts():
    """Hypothesis strategy: input text for the parsers, mostly strings
    of their own tokens, otherwise arbitrary text."""
    return st.one_of(
        st.lists(st.sampled_from(PARSER_TOKENS), max_size=40).map("".join),
        st.text(max_size=40))


def powerset(items):
    items = list(items)
    return chain.from_iterable(combinations(items, k)
                               for k in range(len(items) + 1))


def floyd_warshall(g):
    """Independent all-pairs distance oracle."""
    n = g.n
    d = [[0 if i == j else INFINITE for j in range(n)] for i in range(n)]
    for u, v in g.edges:
        d[u][v] = d[v][u] = 1
    for k in range(n):
        for i in range(n):
            dik = d[i][k]
            if dik == INFINITE:
                continue
            for j in range(n):
                if dik + d[k][j] < d[i][j]:
                    d[i][j] = dik + d[k][j]
    return d


@lru_cache(maxsize=64)
def _oracle_distances(g):
    """floyd_warshall(g) as rows of tuples, computed once per graph."""
    return tuple(map(tuple, floyd_warshall(g)))


def oracle_is_packing(g, p):
    d = _oracle_distances(g)
    p = sorted(p)
    return all(d[u][v] > 2 for i, u in enumerate(p) for v in p[i + 1:])


def oracle_max_packings(g, within=None):
    """All maximum 2-packings by full subset enumeration (small n only),
    optionally only those inside the vertex set within."""
    best, out = 0, [frozenset()]
    for subset in powerset(range(g.n) if within is None else within):
        if oracle_is_packing(g, subset):
            if len(subset) > best:
                best, out = len(subset), [frozenset(subset)]
            elif len(subset) == best and subset:
                out.append(frozenset(subset))
    return best, out


def oracle_is_peo(g, order):
    """True iff order is a perfect elimination ordering of the conflict
    graph: for every vertex, its conflict neighbours later in order are
    pairwise within distance 2 (Floyd-Warshall distances)."""
    d = _oracle_distances(g)
    for i, v in enumerate(order):
        later = [u for u in order[i + 1:] if d[u][v] <= 2]
        if any(d[x][y] > 2
               for j, x in enumerate(later) for y in later[j + 1:]):
            return False
    return True


def oracle_tree_domination(g):
    """Domination number of a forest by the leaf-up greedy: a vertex not
    yet dominated when its subtree is done puts its parent (a root:
    itself) in the dominating set.  On forests it equals rho (Meir &
    Moon, Pacific J. Math. 1975)."""
    nbrs = [[] for _ in range(g.n)]
    for u, v in g.edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    parent, order = [None] * g.n, []
    seen = [False] * g.n
    for root in range(g.n):
        if seen[root]:
            continue
        seen[root] = True
        queue = deque([root])
        while queue:
            v = queue.popleft()
            order.append(v)
            for u in nbrs[v]:
                if not seen[u]:
                    seen[u], parent[u] = True, v
                    queue.append(u)
    dominated, size = [False] * g.n, 0
    for v in reversed(order):
        if not dominated[v]:
            w = v if parent[v] is None else parent[v]
            size += 1
            for x in nbrs[w] + [w]:
                dominated[x] = True
    return size


def oracle_e_critical_feasible(g, ge, e, subset):
    """A packing of G - e that is also one of G unless it holds both
    endpoints of e."""
    if not oracle_is_packing(ge, subset):
        return False
    return set(e) <= set(subset) or oracle_is_packing(g, subset)


def oracle_e_critical_size(g, ge, e):
    """Maximum feasible e-critical packing size by subset enumeration."""
    return max(len(subset) for subset in powerset(range(g.n))
               if oracle_e_critical_feasible(g, ge, e, subset))


def oracle_e_critical_witness(g, ge, e, size):
    """Lexicographically first feasible e-critical packing of the given
    size, by enumeration in lexicographic order."""
    return next(frozenset(subset) for subset in combinations(range(g.n), size)
                if oracle_e_critical_feasible(g, ge, e, subset))


def oracle_dim_e(g):
    """Smallest edge metric generator and the lexicographically first
    one of that size, by ascending subset search over Floyd-Warshall
    edge distances."""
    d = floyd_warshall(g)
    edges = sorted(g.edges)
    for k in range(1, g.n + 1):
        for combo in combinations(range(g.n), k):
            vectors = {tuple(min(d[x][u], d[x][w]) for x in combo)
                       for u, w in edges}
            if len(vectors) == len(edges):
                return k, frozenset(combo)
    raise AssertionError("V(G) must be an edge metric generator")


def oracle_is_incidence_generator(g, s):
    """Literal pairwise definition of an incidence generator."""
    edges = sorted(g.edges)
    s = set(s)
    for i, e in enumerate(edges):
        for f in edges[i + 1:]:
            if not any((x in e) != (x in f) for x in s):
                return False
    return True


def oracle_dim_I_basis(g):
    """Smallest generator size and the lexicographically first generator
    of that size, by ascending full subset search."""
    for k in range(g.n + 1):
        for combo in combinations(range(g.n), k):
            if oracle_is_incidence_generator(g, combo):
                return k, frozenset(combo)
    raise AssertionError("V(G) must be a generator")


def oracle_dim_I(g):
    """Smallest generator size by ascending full subset search."""
    return oracle_dim_I_basis(g)[0]


def oracle_is_adjacency_generator(g, s):
    """Literal pairwise definition: every two distinct vertices outside
    s have a member of s adjacent to exactly one of them."""
    s = set(s)
    nbrs = [set() for _ in range(g.n)]
    for u, v in g.edges:
        nbrs[u].add(v)
        nbrs[v].add(u)
    outside = [v for v in range(g.n) if v not in s]
    for i, x in enumerate(outside):
        for y in outside[i + 1:]:
            if not any((x in nbrs[w]) != (y in nbrs[w]) for w in s):
                return False
    return True


def oracle_dim_A(g):
    """Smallest adjacency generator size and the lexicographically first
    generator of that size, by ascending subset search."""
    for k in range(g.n + 1):
        for combo in combinations(range(g.n), k):
            if oracle_is_adjacency_generator(g, combo):
                return k, frozenset(combo)
    raise AssertionError("V(G) must be an adjacency generator")


def oracle_min_hitting_set(n, sets, floor):
    """First vertex mask in ascending-size combinations order, from
    size floor on, that meets every mask in sets."""
    for k in range(floor, n + 1):
        for combo in combinations(range(n), k):
            mask = sum(1 << v for v in combo)
            if all(mask & s for s in sets):
                return mask
    raise AssertionError("V must meet every non-empty mask")
