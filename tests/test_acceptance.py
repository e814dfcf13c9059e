"""Acceptance gate: one test per criterion, exact integer equalities.

The two shared corpora (exhaustive labeled graphs n <= 6, and 10,000
seeded random graphs with n in 7..10) are computed once per module with
both solvers plus per-edge critical packing sizes, and the criteria
assert on the cached records.  Each test prints its own pass/fail line.
"""
import functools
import itertools
import random
import time
from dataclasses import dataclass

import pytest

import incdim as I
from incdim.corpus import (all_labeled_graphs, nonisomorphic_trees,
                           random_graphs, random_tree)

def criterion(label):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\n[criterion {label}] FAIL")
                raise
            print(f"\n[criterion {label}] PASS")
        return wrapper
    return deco


@dataclass
class Record:
    g: object
    rho: int
    dim_brute: int
    dim_structural: int   # == dim_brute for edgeless graphs by convention
    basis: frozenset
    pe_sizes: dict        # edge -> |P_e|
    edge_triangular: bool
    connected: bool
    has_isolated: bool
    has_k2_component: bool
    dim_a: int = None
    dim_e: int = None


def _analyze(g, full_brute, with_metric):
    # One packing per graph, passed as rho_res (the callee's documented
    # contract); the default path is covered in test_packing.py and
    # test_incidence.py.
    rho_res = I.max_packing(g)
    brute = I.dim_I_brute(g, full_search=full_brute)
    pe_sizes = {e: I.e_critical_packing(g, e, rho_res).size
                for e in g.sorted_edges}
    if g.m:
        structural = I.dim_I_structural(g, rho_res)
        dim_structural, basis = structural.value, structural.basis
    else:
        dim_structural, basis = brute.value, brute.basis
    adj = g.adj_masks
    has_isolated = not all(adj)
    has_k2 = any(adj[u].bit_count() == 1 and adj[v].bit_count() == 1
                 for u, v in g.edges)
    rec = Record(g=g, rho=rho_res.size, dim_brute=brute.value,
                 dim_structural=dim_structural, basis=basis,
                 pe_sizes=pe_sizes,
                 edge_triangular=I.is_edge_triangular(g),
                 connected=I.is_connected(g),
                 has_isolated=has_isolated, has_k2_component=has_k2)
    if with_metric and not has_isolated and g.m:
        rec.dim_a = I.dim_A(g).value
        rec.dim_e = I.dim_e(g).value
    return rec


@pytest.fixture(scope="module")
def exhaustive_records():
    """All labeled graphs with n <= 6, oracle-grade brute (no shortcut)."""
    return [_analyze(g, full_brute=True, with_metric=True)
            for n in range(1, 7) for g in all_labeled_graphs(n)]


@pytest.fixture(scope="module")
def random_records():
    """10,000 seeded G(n, p) graphs, 2,500 per n in 7..10."""
    records = []
    for n in (7, 8, 9, 10):
        for g in random_graphs(n, 2500, seed=1000 + n):
            records.append(_analyze(g, full_brute=False, with_metric=False))
    return records


@pytest.fixture
def figure1():
    return I.build_graph(5, [(0, 1), (1, 2), (2, 3), (1, 4)])


@pytest.fixture
def figure2():
    edges = [(i, i + 1) for i in range(6)]
    edges += [(0, 7), (3, 8), (6, 9), (7, 10), (8, 11), (9, 12),
              (0, 13), (6, 14)]
    return I.build_graph(15, edges)


@criterion("1 closed formulas")
def test_closed_formulas():
    started = time.perf_counter()

    def both(g):
        return I.dim_I_brute(g).value, I.dim_I_structural(g).value

    for n in range(3, 10):
        assert both(I.generate_family("complete", n)) == (n - 1, n - 1)
    for n in range(3, 13):
        want = (2 * (n - 1)) // 3
        assert both(I.generate_family("path", n)) == (want, want)
    for n in range(4, 13):
        want = (2 * n) // 3
        assert both(I.generate_family("cycle", n)) == (want, want)
    for r in range(1, 5):
        for t in range(r, 5):
            want = r + t - 2
            g = I.generate_family("complete_bipartite", r, t)
            assert both(g) == (want, want)
    assert time.perf_counter() - started < 60


@criterion("2 theorem n-k equivalence")
def test_theorem_nk(exhaustive_records, random_records):
    assert len(random_records) >= 10000
    for rec in itertools.chain(exhaustive_records, random_records):
        assert rec.dim_brute == rec.dim_structural, I.format_edge_list(rec.g)


@criterion("3 sandwich and bound (2)")
def test_sandwich_and_bound_two(exhaustive_records, random_records):
    for rec in itertools.chain(exhaustive_records, random_records):
        n = rec.g.n
        assert n - rec.rho - 1 <= rec.dim_brute <= n - rec.rho
        for e, size in rec.pe_sizes.items():
            assert rec.rho <= size <= rec.rho + 1, (e, size, rec.rho)


@criterion("4 Figure 1 regression")
def test_figure1_regression(figure1):
    e = (0, 1)
    assert I.max_packing(I.remove_edge(figure1, e)).size == 3
    assert I.e_critical_packing(figure1, e).size == 2
    assert I.max_packing(figure1).size == 2
    assert I.dim_I_brute(figure1).value == 3
    assert I.dim_I_structural(figure1).value == 3


@criterion("5 Figure 2 regression")
def test_figure2_regression(figure2):
    res = I.max_packing(figure2, enumerate_all=True)
    assert res.size == 6
    assert len(res.all_witnesses) >= 2
    report = I.check_symdiff_condition(figure2)
    assert report["witness_pair"] is not None
    assert report["class"] == I.CLASS_EXACT
    assert I.dim_I_structural(figure2).value == 9


@criterion("6 edge-triangular corollary")
def test_edge_triangular_corollary(exhaustive_records):
    for rec in exhaustive_records:
        if not rec.edge_triangular or rec.g.m == 0:
            continue
        g, dim = rec.g, rec.dim_structural
        assert dim == g.n - rec.rho
        everything = frozenset(range(g.n))
        for combo in itertools.combinations(range(g.n), dim):
            if I.is_incidence_generator(g, combo):
                assert I.is_packing(g, everything - frozenset(combo))


@criterion("7 metric comparison")
def test_metric_comparison(exhaustive_records):
    convention_cases = 0
    for rec in exhaustive_records:
        if rec.dim_a is None:
            continue
        # single-edge graphs and single-edge components sit outside the
        # inequality's reach; reported, not counted as failures
        if rec.dim_brute == 0 or rec.has_k2_component:
            convention_cases += 1
            continue
        assert rec.dim_brute >= max(rec.dim_a, rec.dim_e), \
            I.format_edge_list(rec.g)
        assert I.is_adjacency_generator(rec.g, rec.basis)
    assert convention_cases > 0
    print(f"  (K_2-convention cases reported: {convention_cases})")
    for r in range(1, 5):
        for t in range(r, 5):
            g = I.generate_family("complete_bipartite", r, t)
            di = I.dim_I_brute(g).value
            if r + t < 3:     # K_2: dim_I=0 but dim_A=dim_e=1 by definition
                assert (di, I.dim_A(g).value, I.dim_e(g).value) == (0, 1, 1)
                continue
            assert di == I.dim_A(g).value == I.dim_e(g).value == r + t - 2


@criterion("8 realizability")
def test_realizability():
    for n in (7, 9, 11, 13):
        r = n // 2
        g = I.generate_family("grn", r, n)
        assert g.n == n
        assert I.dim_I_structural(g).value == r, (r, n)
    for n in range(5, 13):
        for r in range(max(3, (n + 1) // 2), n - 1):
            g = I.generate_family("gprime_rn", r, n)
            assert g.n == n
            assert I.dim_I_structural(g).value == r, (r, n)
    # the r=2 and r=n-1 ends of the range, per the realizability proof
    assert I.dim_I_brute(I.generate_family("path", 4)).value == 2
    assert I.dim_I_brute(I.generate_family("path", 5)).value == 2
    for n in (4, 6, 8):
        assert I.dim_I_structural(I.generate_family("complete", n)).value \
            == n - 1


def _sat_fixtures():
    """12 satisfiable 3-CNF formulas with n = 3, m <= 2."""
    texts = []
    for signs in itertools.product([1, -1], repeat=3):
        clause = " ".join(str(s * (i + 1)) for i, s in enumerate(signs))
        texts.append(f"p cnf 3 1\n{clause} 0\n")
    texts += [
        "p cnf 3 2\n1 2 3 0\n-1 -2 -3 0\n",
        "p cnf 3 2\n1 -2 3 0\n-1 2 -3 0\n",
        "p cnf 3 2\n1 2 -3 0\n1 -2 -3 0\n",
        "p cnf 3 2\n-1 2 3 0\n-1 -2 3 0\n",
    ]
    return [I.parse_cnf(t) for t in texts]


@criterion("9 SAT reduction, satisfiable side")
def test_sat_reduction_satisfiable():
    started = time.perf_counter()
    fixtures = _sat_fixtures()
    assert len(fixtures) >= 10
    for f in fixtures:
        assert I.is_satisfiable(f)
        red = I.build_reduction(f)
        n, m = f.num_vars, len(f.clauses)
        assert red.graph.n == 6 * n + 9 * m
        assert red.graph.m == 8 * n + 24 * m
        assert I.is_edge_triangular(red.graph)
        rho = I.max_packing(red.graph).size
        assert rho == 2 * n + m
        assert red.graph.n - rho == red.r == 4 * n + 8 * m
        t = I.satisfying_assignment(f)
        s = I.assignment_to_generator(red, t)
        assert len(s) == red.r
        assert I.is_incidence_generator(red.graph, s)
        extracted = I.basis_to_assignment(red, s)
        for clause in f.clauses:
            assert any(extracted[abs(l)] == (l > 0) for l in clause)
    assert time.perf_counter() - started < 300


@criterion("10 SAT reduction, unsatisfiable side")
def test_sat_reduction_unsatisfiable():
    lines = ["p cnf 3 8"]
    for signs in itertools.product([1, -1], repeat=3):
        lines.append(" ".join(str(s * (i + 1))
                              for i, s in enumerate(signs)) + " 0")
    f = I.parse_cnf("\n".join(lines) + "\n")
    assert not I.is_satisfiable(f)
    red = I.build_reduction(f)
    assert red.graph.n == 90
    rho = I.max_packing(red.graph).size
    assert rho < 2 * 3 + 8 == 14
    # edge-triangular shortcut: dim_I = n - rho > r
    assert I.is_edge_triangular(red.graph)
    assert red.graph.n - rho > red.r


@criterion("11 tree theorem")
def test_tree_theorem():
    trees = [t for n in range(2, 10) for t in nonisomorphic_trees(n)]
    rng = random.Random(20251)
    trees += [random_tree(10, rng) for _ in range(300)]
    unique_count = 0
    for t in trees:
        if not I.has_unique_max_packing(t):
            continue
        unique_count += 1
        rho = I.max_packing(t).size
        assert I.dim_I_structural(t).value == t.n - rho, \
            I.format_edge_list(t)
    assert unique_count > 0
    print(f"  (trees with a unique maximum packing: {unique_count})")


@criterion("12 remark bounds")
def test_remark_bounds(exhaustive_records):
    for rec in exhaustive_records:
        if not rec.connected or rec.g.m < 2:
            continue
        g, dim = rec.g, rec.dim_brute
        assert g.n // 2 <= dim <= g.n - 1, I.format_edge_list(g)
        assert I.common_neighbor_characterization(g) == (dim == g.n - 1), \
            I.format_edge_list(g)
    achievers = [I.generate_family("path", n) for n in (3, 4, 5, 6, 8)]
    achievers.append(I.generate_family("cycle", 4))
    achievers.append(I.generate_family("complete_bipartite", 1, 3))
    for g in achievers:
        assert I.dim_I_brute(g).value == g.n // 2
