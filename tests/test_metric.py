import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from incdim import (build_graph, dim_A, dim_e, dim_I_brute, edge_distance,
                    generate_family, is_adjacency_generator)
from incdim.graph import INFINITE
from incdim.corpus import random_graphs
from incdim.hitting import min_hitting_set

from .conftest import (oracle_dim_A, oracle_dim_e, oracle_min_hitting_set,
                       small_graphs)


def set_families():
    """Hypothesis strategy: (n, list of non-empty vertex masks), n <= 8."""
    return st.integers(1, 8).flatmap(
        lambda n: st.tuples(st.just(n), st.lists(
            st.integers(1, (1 << n) - 1), max_size=12)))


@settings(max_examples=200, deadline=None)
@given(set_families())
def test_min_hitting_set_matches_oracle(family):
    n, sets = family
    for floor in range(n + 1):
        assert min_hitting_set(n, sets, floor) == \
            oracle_min_hitting_set(n, sets, floor)


def test_min_hitting_set_examples():
    assert min_hitting_set(3, []) == 0
    assert min_hitting_set(3, [], floor=2) == 0b011
    assert min_hitting_set(4, [0b0011, 0b1100]) == 0b0101
    # {0, 1} comes before {1, 2} and {2, 3} in combinations order
    assert min_hitting_set(4, [0b0110, 0b1010, 0b0101]) == 0b0011
    assert min_hitting_set(4, [0b0110, 0b1100]) == 0b0100
    assert min_hitting_set(4, [0b1000], floor=3) == 0b1011


def test_min_hitting_set_rejects_bad_input():
    for sets, floor in (([0], 0), ([0b1000], 0), ([-1], 0), ([1], 4),
                        ([1], -1)):
        with pytest.raises(ValueError):
            min_hitting_set(3, sets, floor)


def test_min_hitting_set_needs_no_recursion():
    # 1,500 singletons force every vertex in; a search that recursed
    # once per vertex would exceed the default recursion limit.
    n = 1500
    assert min_hitting_set(n, [1 << i for i in range(n)]) == (1 << n) - 1


@settings(max_examples=100, deadline=None)
@given(small_graphs())
def test_dim_A_matches_oracle(g):
    res = dim_A(g)
    assert (res.value, res.basis) == oracle_dim_A(g)


def test_adjacency_generator_examples():
    p3 = generate_family("path", 3)
    assert is_adjacency_generator(p3, {0})
    k23 = generate_family("complete_bipartite", 2, 3)
    assert is_adjacency_generator(k23, {0, 2, 3})
    assert is_adjacency_generator(p3, {0, 1, 2})  # s = V is vacuous


def test_dim_A_examples():
    assert dim_A(generate_family("path", 3)).value == 1
    assert dim_A(build_graph(1, [])).value == 0
    # r+t-2 holds from K_{1,2} on; K_2 itself needs one vertex by the
    # literal definition even though the formula says 0
    assert dim_A(generate_family("complete_bipartite", 1, 1)).value == 1
    for r in range(1, 4):
        for t in range(r, 4):
            if r + t < 3:
                continue
            assert dim_A(
                generate_family("complete_bipartite", r, t)).value == r + t - 2


def test_dim_A_basis_is_generator():
    for g in random_graphs(7, 30, seed=3):
        res = dim_A(g)
        assert is_adjacency_generator(g, res.basis)
        # minimality: nothing one size smaller works
        from itertools import combinations
        if res.value:
            assert not any(is_adjacency_generator(g, c)
                           for c in combinations(range(g.n), res.value - 1))


def test_edge_distance():
    p4 = generate_family("path", 4)
    assert edge_distance(p4, 0, (2, 3)) == 2
    assert edge_distance(p4, 2, (2, 3)) == 0
    g = build_graph(4, [(0, 1), (2, 3)])
    assert edge_distance(g, 0, (2, 3)) == INFINITE


def test_dim_e_examples():
    assert dim_e(generate_family("path", 4)).value == 1
    assert dim_e(generate_family("complete", 2)).value == 1  # nonempty by def
    for r in range(1, 4):
        for t in range(r, 4):
            if r + t < 3:
                continue
            assert dim_e(
                generate_family("complete_bipartite", r, t)).value == r + t - 2


def test_dim_e_long_distances_match_oracle():
    # Paths, and cycles beside a separate edge, reach edge distances up
    # to n - 2, so every bit plane of the distances, and the plane of
    # out-of-reach vertices, must reach the pair masks.
    graphs = [generate_family("path", n) for n in range(2, 11)]
    graphs += [build_graph(n + 2, [(i, (i + 1) % n) for i in range(n)]
                           + [(n, n + 1)]) for n in range(3, 11)]
    for g in graphs:
        res = dim_e(g)
        assert (res.value, res.basis) == oracle_dim_e(g)


def test_dim_e_long_path_stays_small():
    # Edge distances on P_120 reach 118; each edge pair must cost one
    # n-bit mask, not one slice per distance.
    g = generate_family("path", 120)
    tracemalloc.start()
    try:
        res = dim_e(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (res.value, res.basis) == (1, frozenset({0}))
    assert peak < 2 << 20


@settings(max_examples=100, deadline=None)
@given(small_graphs().filter(lambda g: g.m >= 1))
def test_dim_e_matches_oracle(g):
    res = dim_e(g)
    assert (res.value, res.basis) == oracle_dim_e(g)


def test_dim_e_requires_edges():
    with pytest.raises(ValueError, match="no edges"):
        dim_e(build_graph(3, []))


def test_incidence_dominates_both():
    for n in (5, 6, 7):
        for g in random_graphs(n, 40, seed=300 + n):
            deg = [mask.bit_count() for mask in g.adj_masks]
            if 0 in deg:
                continue
            if any(deg[u] == 1 and deg[v] == 1 for u, v in g.edges):
                continue  # single-edge component: convention case
            di = dim_I_brute(g).value
            if di == 0:
                continue  # single-edge convention case
            assert di >= dim_A(g).value
            assert di >= dim_e(g).value


def test_k2_component_convention_case():
    # two disjoint edges: the incidence dimension drops below the
    # adjacency dimension, which is why single-edge components are
    # reported rather than asserted
    g = build_graph(4, [(0, 1), (2, 3)])
    assert dim_I_brute(g).value == 1
    assert dim_A(g).value == 2
