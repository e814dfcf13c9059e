import pytest
from hypothesis import example, given, settings

from incdim import (build_graph, edge_distance, generate_family,
                    induced_subgraph, is_connected, is_edge_triangular,
                    neighbors, remove_edge)
from incdim.graph import (INFINITE, format_edge_list, parse_edge_list)

from .conftest import floyd_warshall, parser_texts, small_graphs


def test_build_single_edge():
    g = build_graph(2, [(0, 1)])
    assert neighbors(g, 0) == {1} and is_connected(g)
    assert edge_distance(g, 1, (0, 1)) == 0


def test_build_figure1(figure1):
    assert edge_distance(figure1, 0, (2, 3)) == 2   # d(0, 3) = 3
    assert edge_distance(figure1, 4, (2, 3)) == 2
    assert edge_distance(figure1, 0, (1, 4)) == 1   # d(0, 4) = 2
    assert neighbors(figure1, 4) == {1}


def test_build_edgeless():
    g = build_graph(3, [])
    assert all(neighbors(g, v) == frozenset() for v in range(3))
    assert not is_connected(g)


def test_build_deduplicates():
    g = build_graph(3, [(0, 1), (1, 0), (0, 1)])
    assert g.m == 1


def test_build_rejects_self_loop():
    with pytest.raises(ValueError, match="self-loop"):
        build_graph(3, [(1, 1)])


def test_build_rejects_out_of_range():
    with pytest.raises(ValueError, match="vertex out of range"):
        build_graph(3, [(0, 3)])
    with pytest.raises(ValueError, match="vertex count must be non-negative"):
        build_graph(-1, [])


def test_neighbors(figure1):
    assert neighbors(figure1, 1) == {0, 2, 4}
    k4 = generate_family("complete", 4)
    assert neighbors(k4, 0) == {1, 2, 3}
    assert neighbors(build_graph(3, []), 2) == frozenset()


def test_remove_edge_isolates(figure1):
    g = remove_edge(figure1, (0, 1))
    assert neighbors(g, 0) == frozenset() and not is_connected(g)
    assert all(edge_distance(g, 0, e) == INFINITE for e in g.edges)


def test_remove_edge_cycle_to_path():
    c4 = generate_family("cycle", 4)
    p = remove_edge(c4, (0, 1))
    assert p.m == 3 and is_connected(p)   # the path 1-2-3-0
    assert edge_distance(p, 1, (0, 3)) == 2   # d(1, 0) = 3
    assert max(edge_distance(p, v, e)
               for v in range(4) for e in p.edges) == 2


def test_remove_edge_triangle():
    k3 = generate_family("complete", 3)
    g = remove_edge(k3, (0, 1))
    assert neighbors(g, 0) == {2} and neighbors(g, 1) == {2}
    assert edge_distance(g, 0, (1, 2)) == 1   # d(0, 1) = 2


def test_remove_edge_missing():
    with pytest.raises(ValueError, match="edge not in graph"):
        remove_edge(build_graph(3, [(0, 1)]), (1, 2))


def test_remove_then_readd_roundtrip(figure1):
    g = remove_edge(figure1, (1, 2))
    back = build_graph(g.n, list(g.edges) + [(1, 2)])
    assert back.edges == figure1.edges
    assert back.adj_masks == figure1.adj_masks


def test_induced_subgraph(figure1):
    k4 = generate_family("complete", 4)
    assert induced_subgraph(k4, {0, 1}).m == 1
    assert induced_subgraph(figure1, {0, 3, 4}).m == 0
    empty = induced_subgraph(figure1, set())
    assert empty.n == 0 and empty.m == 0


def test_induced_subgraph_relabels_ascending():
    g = build_graph(5, [(1, 3), (3, 4)])
    sub = induced_subgraph(g, {1, 3, 4})
    assert sub.edges == frozenset({(0, 1), (1, 2)})


def test_edge_triangular():
    assert is_edge_triangular(generate_family("complete", 3))
    assert is_edge_triangular(generate_family("complete", 6))
    assert not is_edge_triangular(generate_family("path", 3))
    assert is_edge_triangular(build_graph(1, []))  # vacuous


def test_pendant_edge_never_triangular():
    # a degree-1 vertex's edge lies in no triangle
    for base in ("path", "cycle"):
        for n in range(3, 7):
            g = generate_family(base, n)
            pendant = build_graph(g.n + 1, list(g.edges) + [(0, g.n)])
            assert not is_edge_triangular(pendant)


def test_family_counts():
    assert generate_family("path", 5).m == 4
    assert generate_family("cycle", 5).m == 5
    assert generate_family("complete", 5).m == 10
    assert generate_family("complete_bipartite", 2, 3).m == 6
    g = generate_family("grn", 3, 7)
    assert g.n == 7 and g.m == 7


def test_family_invalid_params():
    for family, params in [("path", (0,)), ("cycle", (2,)),
                           ("complete", (0,)),
                           ("complete_bipartite", (0, 2)),
                           ("grn", (3, 8)), ("grn", (2, 5)),
                           ("gprime_rn", (3, 4)), ("gprime_rn", (4, 9))]:
        with pytest.raises(ValueError, match="family parameters invalid"):
            generate_family(family, *params)
    with pytest.raises(ValueError, match="family parameters invalid"):
        generate_family("petersen")


@settings(max_examples=60, deadline=None)
@given(small_graphs())
def test_edge_distance_matches_floyd_warshall(g):
    d = floyd_warshall(g)
    for v in range(g.n):
        for u, w in g.edges:
            assert edge_distance(g, v, (u, w)) == min(d[v][u], d[v][w])


@settings(max_examples=60, deadline=None)
@given(small_graphs())
def test_neighbors_match_floyd_warshall(g):
    d = floyd_warshall(g)
    for v in range(g.n):
        nbrs = neighbors(g, v)
        assert isinstance(nbrs, frozenset)
        assert nbrs == {u for u in range(g.n) if d[v][u] == 1}


@settings(max_examples=100, deadline=None)
@given(small_graphs())
def test_ball2_masks_match_floyd_warshall(g):
    d = floyd_warshall(g)
    assert g.ball2_masks == tuple(
        sum(1 << u for u in range(g.n) if d[v][u] <= 2) for v in range(g.n))


@settings(max_examples=100, deadline=None)
@given(small_graphs())
def test_is_connected_matches_floyd_warshall(g):
    d = floyd_warshall(g)
    assert is_connected(g) == all(x != INFINITE for row in d for x in row)


def test_edgeless_graph_builds_no_distance_table():
    g = build_graph(3000, [])
    assert g.ball2_masks[2999] == 1 << 2999
    assert not is_connected(g)


@settings(max_examples=40, deadline=None)
@given(small_graphs())
def test_edge_list_roundtrip(g):
    assert parse_edge_list(format_edge_list(g)).edges == g.edges


def test_edge_list_comments_and_blanks():
    text = "# header comment\n\n3 2\n0 1  # inline\n\n1 2\n"
    g = parse_edge_list(text)
    assert g.n == 3 and g.m == 2


def test_edge_list_errors_carry_line_numbers():
    with pytest.raises(ValueError, match="line 2"):
        parse_edge_list("2 1\n0 x\n")
    with pytest.raises(ValueError, match="line 1"):
        parse_edge_list("nope\n")
    with pytest.raises(ValueError, match="declares"):
        parse_edge_list("3 2\n0 1\n")
    for text, message in [
            ("3 1\n0 1 2\n", "line 2: edge line must be 'u v'"),
            ("3 1\n2 2\n", "line 2: self-loop at vertex 2"),
            ("3 1\n0 5\n", "line 2: vertex out of range")]:
        with pytest.raises(ValueError, match=message):
            parse_edge_list(text)


@settings(max_examples=300, deadline=None)
@given(parser_texts())
@example("1000000000 0\n")
@example("1000000000 1\n0 999999999\n")
def test_parse_edge_list_raises_only_value_error(text):
    try:
        parse_edge_list(text)
    except ValueError:
        pass
