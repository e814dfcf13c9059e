import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from incdim import (CLASS_EXACT, CLASS_MINUS_ONE, DimResult, build_graph,
                    check_symdiff_condition, classify,
                    common_neighbor_characterization, dim_I_brute,
                    dim_I_formula, dim_I_structural, generate_family,
                    is_incidence_generator, is_packing, max_packing,
                    resolves)
from incdim import packing
from incdim.corpus import all_labeled_graphs, random_graphs
from incdim.packing import _best

from .conftest import (oracle_dim_I, oracle_dim_I_basis,
                       oracle_is_incidence_generator, small_graphs)


def test_resolves_p3():
    p3 = generate_family("path", 3)
    assert resolves(p3, 0, (0, 1), (1, 2))
    assert not resolves(p3, 1, (0, 1), (1, 2))


def test_resolves_p4_disjoint_edges():
    p4 = generate_family("path", 4)
    assert resolves(p4, 1, (0, 1), (2, 3))


def test_resolves_identical_edges():
    p3 = generate_family("path", 3)
    with pytest.raises(ValueError, match="identical edges"):
        resolves(p3, 0, (0, 1), (1, 0))


def test_empty_generator_for_single_edge():
    assert is_incidence_generator(generate_family("complete", 2), set())


def test_figure1_generator(figure1):
    assert not is_incidence_generator(figure1, {1, 2})   # 01 vs 14
    assert is_incidence_generator(figure1, {0, 1, 2})


def test_packing_complement_is_generator():
    for g in random_graphs(8, 50, seed=31):
        res = max_packing(g, enumerate_all=True, witness_cap=10000)
        for p in res.all_witnesses:
            assert is_incidence_generator(g, frozenset(range(g.n)) - p)


@settings(max_examples=300, deadline=None)
@given(small_graphs(), st.data())
def test_generator_test_matches_literal_definition(g, data):
    # the two-condition test (G - S has at most one edge, no vertex of S
    # has two neighbours outside S) against the pairwise oracle
    s = data.draw(st.sets(st.integers(0, g.n - 1)))
    assert is_incidence_generator(g, s) == oracle_is_incidence_generator(g, s)


def test_dim_brute_examples(figure1):
    assert dim_I_brute(generate_family("complete", 4)).value == 3
    assert dim_I_brute(generate_family("path", 7)).value == 4
    assert dim_I_brute(generate_family("cycle", 5)).value == 3
    assert dim_I_brute(generate_family("complete_bipartite", 2, 3)).value == 3
    assert dim_I_brute(figure1).value == 3


def test_dim_brute_few_edges():
    assert dim_I_brute(build_graph(3, [])).value == 0
    res = dim_I_brute(build_graph(4, [(1, 2)]))
    assert res.value == 0 and res.basis == frozenset()


@settings(max_examples=100, deadline=None)
@given(small_graphs())
def test_dim_brute_matches_oracle_basis(g):
    expected = oracle_dim_I_basis(g)
    for full_search in (True, False):
        res = dim_I_brute(g, full_search=full_search)
        assert (res.value, res.basis) == expected


def test_dim_brute_full_search_agrees():
    for g in random_graphs(7, 40, seed=47):
        assert dim_I_brute(g).value == dim_I_brute(g, full_search=True).value


def test_dim_brute_matches_oracle():
    for n in (2, 3, 4, 5):
        for g in random_graphs(n, 30, seed=50 + n):
            assert dim_I_brute(g, full_search=True).value == oracle_dim_I(g)


def test_dim_structural_examples():
    res = dim_I_structural(generate_family("cycle", 6))
    assert res.value == 4
    res = dim_I_structural(generate_family("cycle", 7))
    assert res.value == 4
    res = dim_I_structural(generate_family("complete_bipartite", 2, 3))
    assert res.value == 3
    assert res.achieving_edge is not None


def test_dim_structural_basis_is_generator():
    for g in random_graphs(8, 40, seed=61):
        res = dim_I_structural(g)
        assert is_incidence_generator(g, res.basis)
        assert len(res.basis) == res.value


def test_dim_structural_basis_follows_first_edge_witness():
    # Path 3-0-1-2 (rho = 2, maximum packing {2, 3}) has dim_I = n - rho.
    # The basis is the complement of edge (0, 1)'s e-critical witness
    # {0, 1}, not of the maximum packing.
    g = build_graph(4, [(0, 1), (0, 3), (1, 2)])
    res = dim_I_structural(g)
    assert res.value == 2 and res.achieving_edge == (0, 1)
    assert res.basis == {2, 3}


@settings(max_examples=150, deadline=None)
@given(small_graphs())
def test_dim_structural_matches_oracle(g):
    assert dim_I_structural(g).value == oracle_dim_I(g)


def test_dim_structural_edgeless_is_zero(monkeypatch):
    # No edge pair needs resolving, so the empty set is the basis; the
    # answer comes before rho, which would read every vertex.
    calls = []

    def counting(g, drop, floor):
        if not drop:
            calls.append(g.n)
        return _best(g, drop, floor)

    monkeypatch.setattr(packing, "_best", counting)
    for n in (0, 1, 5):
        res = dim_I_structural(build_graph(n, []))
        assert res == DimResult(value=0, basis=frozenset(),
                                method="structural")
    assert calls == []


def test_theorem_nk_small_exhaustive():
    for n in (2, 3, 4, 5):
        for g in all_labeled_graphs(n):
            assert dim_I_brute(g, full_search=True).value == \
                dim_I_structural(g).value


def test_dim_formula():
    assert dim_I_formula("complete", 10) == 9
    assert dim_I_formula("path", 8) == 4
    assert dim_I_formula("cycle", 9) == 6
    assert dim_I_formula("complete_bipartite", 1, 1) == 0


def test_dim_formula_domain():
    for family, params in [("complete", (2,)), ("path", (2,)),
                           ("cycle", (3,)), ("complete_bipartite", (0, 1)),
                           ("wheel", (5,))]:
        with pytest.raises(ValueError, match="formula domain violated"):
            dim_I_formula(family, *params)


def test_classify(figure2):
    assert classify(generate_family("cycle", 7)) == CLASS_MINUS_ONE
    assert classify(generate_family("cycle", 6)) == CLASS_EXACT
    assert classify(figure2) == CLASS_EXACT


def test_symdiff_figure2(figure2):
    report = check_symdiff_condition(figure2)
    assert report["class"] == CLASS_EXACT
    assert report["witness_pair"] is not None   # converse fails here


def test_symdiff_c7():
    report = check_symdiff_condition(generate_family("cycle", 7))
    assert report["class"] == CLASS_MINUS_ONE
    assert report["witness_pair"] is not None


def test_symdiff_unique_packing_tree():
    report = check_symdiff_condition(generate_family("path", 4))
    assert report["witness_pair"] is None


def test_symdiff_theorem_forward():
    # CLASS_MINUS_ONE implies a witness pair exists
    for g in random_graphs(7, 60, seed=71):
        report = check_symdiff_condition(g)
        if report["class"] == CLASS_MINUS_ONE:
            assert report["witness_pair"] is not None


def test_common_neighbor():
    assert common_neighbor_characterization(generate_family("complete", 4))
    assert not common_neighbor_characterization(generate_family("path", 4))
    assert not common_neighbor_characterization(generate_family("cycle", 4))


def test_common_neighbor_precondition():
    with pytest.raises(ValueError, match="characterization requires"):
        common_neighbor_characterization(build_graph(2, [(0, 1)]))
    with pytest.raises(ValueError, match="characterization requires"):
        common_neighbor_characterization(build_graph(4, [(0, 1), (2, 3)]))


def test_at_most_one_uncovered_edge():
    for g in random_graphs(7, 40, seed=83):
        basis = dim_I_structural(g).basis
        uncovered = [e for e in g.edges if not (set(e) & basis)]
        assert len(uncovered) <= 1


def test_edge_triangular_corollary():
    # on edge-triangular graphs: generator <=> complement is a packing
    from incdim import is_edge_triangular
    for g in random_graphs(6, 120, seed=89):
        if not is_edge_triangular(g) or g.m == 0:
            continue
        for smask in range(1 << 6):
            s = frozenset(v for v in range(6) if (smask >> v) & 1)
            comp = frozenset(range(6)) - s
            assert is_incidence_generator(g, s) == is_packing(g, comp)
