import math
import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from incdim import (WitnessCapExceeded, build_graph, build_reduction,
                    classify, dim_I_brute, dim_I_structural,
                    e_critical_packing, generate_family,
                    has_unique_max_packing, is_packing, max_packing,
                    neighbors, packing, remove_edge)
from incdim.corpus import all_labeled_graphs, random_graphs, random_tree
from incdim.graph import _is_peo
from incdim.incidence import is_incidence_generator
from incdim.packing import _best, _chain_top, _mask_to_set, _search

from .conftest import (_oracle_distances, oracle_dim_I,
                       oracle_e_critical_size, oracle_e_critical_witness,
                       oracle_is_packing, oracle_is_peo, oracle_max_packings,
                       oracle_tree_domination, small_graphs, small_trees)
from .test_reduction import SCALE_FORMULAS


def test_is_packing_figure1(figure1):
    assert is_packing(figure1, {0, 3})
    assert not is_packing(figure1, {0, 4})   # common neighbor 1
    assert is_packing(figure1, set())
    assert is_packing(figure1, {2})


def test_is_packing_disconnected_counts_infinite():
    g = build_graph(4, [(0, 1), (2, 3)])
    assert is_packing(g, {0, 2})


@settings(max_examples=150, deadline=None)
@given(small_graphs().flatmap(
    lambda g: st.tuples(st.just(g), st.sets(st.integers(0, g.n - 1)))))
def test_is_packing_matches_oracle(case):
    g, subset = case
    assert is_packing(g, subset) == oracle_is_packing(g, subset)


def test_packing_route_builds_no_distance_table():
    # rho, the structural dimension and the class need only the
    # distance-2 balls, never the n x n table.
    g = build_reduction(SCALE_FORMULAS[0]).graph
    dim_I_structural(g)
    classify(g)
    assert is_packing(g, max_packing(g).witness)
    assert "dist" not in vars(g)


def test_rho_families():
    assert max_packing(generate_family("path", 6)).size == 2     # ceil(6/3)=2
    assert max_packing(generate_family("path", 7)).size == 3
    assert max_packing(generate_family("cycle", 7)).size == 2    # floor(7/3)
    for r in range(1, 4):
        for t in range(r, 4):
            assert max_packing(
                generate_family("complete_bipartite", r, t)).size == 1


def test_rho_path_ceil_n_over_3():
    for n in range(1, 13):
        assert max_packing(generate_family("path", n)).size == math.ceil(n / 3)


def test_figure2_packings(figure2):
    res = max_packing(figure2, enumerate_all=True)
    assert res.size == 6
    # a3, c1, c2, c3, d1, d2 in the fixture's labeling
    assert frozenset({2, 10, 11, 12, 13, 14}) in res.all_witnesses
    assert all(len(w) == 6 for w in res.all_witnesses)


def test_witness_is_lexicographically_smallest():
    for n in (7, 8, 9, 10):
        for g in random_graphs(n, 40, seed=n):
            res = max_packing(g, enumerate_all=True)
            assert res.witness == min(res.all_witnesses, key=sorted)


@settings(max_examples=150, deadline=None)
@given(small_graphs().flatmap(
    lambda g: st.tuples(st.just(g), st.integers(0, (1 << g.n) - 1))))
def test_chain_top_bounds_every_suffix(case):
    # The candidates above the returned vertex lie in limit cliques, so
    # every suffix of cands starting above it holds at most limit
    # packing vertices.
    g, cands = case
    suffix_best = [
        oracle_max_packings(g, within=_mask_to_set(cands >> v << v))[0]
        for v in range(g.n + 1)]
    for limit in range(g.n + 1):
        top = _chain_top(g.ball2_masks, cands, limit)
        assert top == -1 or cands >> top & 1
        assert all(best <= limit for best in suffix_best[top + 1:])


@settings(max_examples=150, deadline=None)
@given(small_graphs(), st.data())
def test_search_order_matches_oracle(g, data):
    # The witness is the lexicographically smallest maximum packing and
    # the enumeration lists every maximum packing in that order, also
    # on a restricted candidate set above a floor.
    _, packs = oracle_max_packings(g)
    packs.sort(key=sorted)
    res = max_packing(g, enumerate_all=True)
    assert res.witness == packs[0]
    assert list(res.all_witnesses) == packs
    cands = data.draw(st.integers(0, (1 << g.n) - 1), label="cands")
    floor = data.draw(st.integers(-1, g.n), label="floor")
    within = _mask_to_set(cands)
    best, inside = oracle_max_packings(g, within=within)
    expected = [min(inside, key=sorted)] if best > floor else []
    assert [_mask_to_set(m)
            for m in _search(g.ball2_masks, cands, floor)] == expected
    expected = [frozenset(c) for c in combinations(sorted(within), floor + 1)
                if oracle_is_packing(g, c)]
    assert [_mask_to_set(m) for m in
            _search(g.ball2_masks, cands, floor, len(expected))] == expected


def test_max_packing_matches_oracle_exhaustive():
    for n in (1, 2, 3, 4):
        for g in all_labeled_graphs(n):
            size, packs = oracle_max_packings(g)
            res = max_packing(g, enumerate_all=True)
            assert res.size == size
            assert list(res.all_witnesses) == sorted(packs, key=sorted)


def test_max_packing_matches_oracle_random():
    for n in (6, 7, 8):
        for g in random_graphs(n, 60, seed=100 + n):
            size, _ = oracle_max_packings(g)
            assert max_packing(g).size == size


def test_max_packing_is_independent_set():
    for g in random_graphs(8, 60, seed=5):
        w = max_packing(g).witness
        assert all(not ({u, v} <= w) for u, v in g.edges)


def test_witness_cap():
    # four disjoint triangles: 3^4 = 81 maximum packings
    edges = [(3 * i + a, 3 * i + b) for i in range(4)
             for a, b in ((0, 1), (1, 2), (0, 2))]
    g = build_graph(12, edges)
    with pytest.raises(WitnessCapExceeded, match="witness cap exceeded"):
        max_packing(g, enumerate_all=True, witness_cap=10)
    res = max_packing(g, enumerate_all=True)
    assert res.size == 4 and len(res.all_witnesses) == 81


def test_e_critical_figure1(figure1):
    res = e_critical_packing(figure1, (0, 1))
    assert res.size == 2
    assert max_packing(remove_edge(figure1, (0, 1))).size == 3  # > |P_e|
    assert res.contains_both_endpoints and not res.is_packing_of_g


def test_e_critical_c4():
    c4 = generate_family("cycle", 4)
    for e in c4.sorted_edges:
        res = e_critical_packing(c4, e)
        assert res.size == 2
        assert res.witness == frozenset(e)


def test_e_critical_witness_prefers_endpoints_when_lex_smaller():
    # Path 3-0-1-2: rho = 2 with the unique maximum packing {2, 3}, but
    # {0, 1} is also feasible for e = (0, 1) and lexicographically first.
    g = build_graph(4, [(0, 1), (0, 3), (1, 2)])
    assert max_packing(g).witness == {2, 3}
    res = e_critical_packing(g, (0, 1))
    assert res.size == 2 and res.witness == {0, 1}
    assert res.contains_both_endpoints and not res.is_packing_of_g


def test_max_packing_is_computed_once_per_graph(monkeypatch):
    # Every structural route reads the one cached maximum packing, so
    # the kernel's max mode (_best with nothing dropped) runs once per
    # graph however many callers and edges ask for rho.
    calls = []

    def counting(g, drop, floor):
        if not drop:
            calls.append(id(g))
        return _best(g, drop, floor)

    monkeypatch.setattr(packing, "_best", counting)
    graphs = list(random_graphs(8, 30, seed=97))
    graphs += [random_tree(40, random.Random(3)), build_graph(3, [])]
    for g in graphs:
        res = max_packing(g)
        assert max_packing(g) is res
        classify(g)
        dim_I_brute(g)
        dim_I_structural(g)
        for e in g.sorted_edges:
            e_critical_packing(g, e)
        enum = max_packing(g, enumerate_all=True)
        assert enum is not res and res.all_witnesses is None
        assert (enum.size, enum.witness) == (res.size, res.witness)
        assert enum.witness in enum.all_witnesses
    assert calls == [id(g) for g in graphs]


@settings(max_examples=150, deadline=None)
@given(small_graphs())
def test_e_critical_matches_oracle_witness(g):
    for e in g.sorted_edges:
        ge = remove_edge(g, e)
        res = e_critical_packing(g, e)
        assert res.size == oracle_e_critical_size(g, ge, e)
        assert res.witness == oracle_e_critical_witness(g, ge, e, res.size)
        assert res.contains_both_endpoints == (set(e) <= res.witness)
        assert res.is_packing_of_g == oracle_is_packing(g, res.witness)


def test_e_critical_missing_edge(figure1):
    with pytest.raises(ValueError, match="edge not in graph"):
        e_critical_packing(figure1, (0, 3))


def test_e_critical_matches_oracle():
    for n in (4, 5, 6):
        for g in random_graphs(n, 40, seed=200 + n):
            ge_cache = {}
            for e in g.sorted_edges:
                ge = remove_edge(g, e)
                assert e_critical_packing(g, e).size == \
                    oracle_e_critical_size(g, ge, e)


def test_bound_two_exhaustive():
    for n in (2, 3, 4, 5):
        for g in all_labeled_graphs(n):
            rho = max_packing(g).size
            for e in g.sorted_edges:
                res = e_critical_packing(g, e)
                assert rho <= res.size <= rho + 1
                assert res.size <= max_packing(remove_edge(g, e)).size


def test_one_endpoint_remark():
    # witness with exactly one endpoint u of e: N_G(v) meets it only at u
    for g in random_graphs(7, 60, seed=17):
        for e in g.sorted_edges:
            res = e_critical_packing(g, e)
            inside = res.witness & set(e)
            if len(inside) == 1:
                u = next(iter(inside))
                v = e[0] if e[1] == u else e[1]
                assert neighbors(g, v) & res.witness == {u}


def test_condition_one_flags():
    for g in random_graphs(6, 60, seed=23):
        for e in g.sorted_edges:
            res = e_critical_packing(g, e)
            if not res.contains_both_endpoints:
                assert res.is_packing_of_g


def test_unique_max_packing():
    assert not has_unique_max_packing(generate_family("path", 3))
    assert not has_unique_max_packing(generate_family("complete", 2))
    assert not has_unique_max_packing(
        generate_family("complete_bipartite", 1, 3))
    # P_4 and P_7 force the endpoints-and-every-third packing uniquely
    assert has_unique_max_packing(generate_family("path", 4))
    assert has_unique_max_packing(generate_family("path", 7))
    # 13 disjoint triangles have 3^13 maximum packings; two decide it.
    edges = [(3 * i + a, 3 * i + b) for i in range(13)
             for a, b in ((0, 1), (1, 2), (0, 2))]
    assert not has_unique_max_packing(build_graph(39, edges))


def test_search_needs_no_recursion():
    # The include-first search takes one branch per vertex: 1500 levels
    # deep on an edgeless graph, beyond the default recursion limit.
    balls = tuple(1 << v for v in range(1500))
    assert _search(balls, (1 << 1500) - 1, -1) == [(1 << 1500) - 1]


# ---------------------------------------------------------------------------
# the exact route on conflict graphs with a perfect elimination ordering

@settings(max_examples=150, deadline=None)
@given(small_graphs(), st.randoms(use_true_random=False))
def test_is_peo_matches_oracle(g, rnd):
    # The check is exact on any order: relabel g so the order under test
    # is the identity.
    perm = list(range(g.n))
    rnd.shuffle(perm)
    h = build_graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])
    assert _is_peo(h.ball2_masks) == oracle_is_peo(h, range(h.n))


@settings(max_examples=150, deadline=None)
@given(st.one_of(small_graphs(), small_trees()))
def test_conflict_peo_is_verified(g):
    # The order returned is a PEO by the oracle, and its balls are the
    # conflict balls in PEO positions; None only when identity fails.
    if g.conflict_peo is None:
        assert not oracle_is_peo(g, range(g.n))
        return
    rank, pballs = g.conflict_peo
    order = sorted(range(g.n), key=rank.__getitem__)
    assert oracle_is_peo(g, order)
    d = _oracle_distances(g)
    assert [sorted(_mask_to_set(b)) for b in pballs] == [
        sorted(rank[u] for u in range(g.n) if d[v][u] <= 2) for v in order]


@settings(max_examples=100, deadline=None)
@given(small_trees(), st.data())
def test_every_forest_has_a_conflict_peo(tree, data):
    keep = data.draw(st.sets(st.sampled_from(tree.sorted_edges))
                     if tree.m else st.just(set()), label="keep")
    g = build_graph(tree.n, keep)
    assert g.conflict_peo is not None
    assert max_packing(g).size == oracle_tree_domination(g)


@pytest.mark.parametrize("g", [
    generate_family("cycle", 6), generate_family("cycle", 7),
    build_graph(8, generate_family("cycle", 6).edges),
    build_reduction(SCALE_FORMULAS[0]).graph],
    ids=["C6", "C7", "C6+2K1", "6/24"])
def test_conflict_peo_none(g):
    # C6 + 2K1 has m < n, so the BFS order is tried and must fail too.
    assert g.conflict_peo is None


@settings(max_examples=150, deadline=None)
@given(st.one_of(small_graphs(), small_trees()), st.data())
def test_exact_route_and_chain_bound_match_oracle(g, data):
    # Both routes on the same graph: _best takes the exact route when g
    # has a conflict PEO, _search is the chain-bound search.  Each must
    # give the oracle's lexicographically smallest maximum packing of the
    # vertices beyond distance 2 of drop, at every floor.
    drop = data.draw(st.sets(st.integers(0, g.n - 1), max_size=3),
                     label="drop")
    d = _oracle_distances(g)
    within = [v for v in range(g.n) if all(d[v][x] > 2 for x in drop)]
    cands = sum(1 << v for v in within)
    best, inside = oracle_max_packings(g, within=within)
    lex = min(inside, key=sorted)
    for floor in range(-1, g.n + 1):
        expected = [lex] if best > floor else []
        assert [_mask_to_set(m) for m in _best(g, drop, floor)] == expected
        assert [_mask_to_set(m) for m in
                _search(g.ball2_masks, cands, floor)] == expected


@settings(max_examples=60, deadline=None)
@given(small_trees(max_n=10))
def test_trees_e_critical_and_dimension_match_oracle(g):
    for e in g.sorted_edges:
        ge = remove_edge(g, e)
        res = e_critical_packing(g, e)
        assert res.size == oracle_e_critical_size(g, ge, e)
        assert res.witness == oracle_e_critical_witness(g, ge, e, res.size)
    res = dim_I_structural(g)
    assert res.value == oracle_dim_I(g)
    assert is_incidence_generator(g, res.basis)


def test_tree_rho_is_the_domination_number():
    for n in (50, 100, 200):
        for seed in range(3):
            g = random_tree(n, random.Random(seed))
            assert g.conflict_peo is not None
            assert max_packing(g).size == oracle_tree_domination(g)
