import itertools
import random
import time
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from incdim import (CnfFormula, assignment_to_generator, basis_to_assignment,
                    build_graph, build_reduction, dim_I_structural,
                    is_edge_triangular,
                    is_incidence_generator, is_packing, is_satisfiable,
                    max_packing, neighbors, parse_cnf,
                    satisfying_assignment, verify_claims)

from .conftest import parser_texts


FIG5_CNF = "p cnf 3 1\n-1 -2 3 0\n"


def all_sign_patterns_cnf():
    """All 8 sign patterns over 3 variables: unsatisfiable."""
    lines = ["p cnf 3 8"]
    for signs in itertools.product([1, -1], repeat=3):
        lines.append(" ".join(str(s * (i + 1))
                              for i, s in enumerate(signs)) + " 0")
    return "\n".join(lines) + "\n"


@settings(max_examples=300, deadline=None)
@given(parser_texts())
@example("p cnf 1000000000 0\n")
@example("p cnf 3 1\n1000000000 2 3 0\n")
def test_parse_cnf_raises_only_value_error(text):
    try:
        parse_cnf(text)
    except ValueError:
        pass


def test_parse_basic():
    f = parse_cnf("p cnf 3 1\n1 2 3 0\n")
    assert f.num_vars == 3 and f.clauses == ((1, 2, 3),)


def test_parse_figure5_clause():
    f = parse_cnf(FIG5_CNF)
    assert f.clauses == ((-1, -2, 3),)


def test_parse_comments_and_multiline():
    f = parse_cnf("c a comment\np cnf 3 2\n1 2 3 0 -1\n-2 3 0\n")
    assert f.clauses == ((1, 2, 3), (-1, -2, 3))


def test_parse_rejects_wrong_width():
    with pytest.raises(ValueError, match="not 3-CNF"):
        parse_cnf("p cnf 3 1\n1 2 0\n")
    with pytest.raises(ValueError, match="not 3-CNF"):
        parse_cnf("p cnf 4 1\n1 2 3 4 0\n")


def test_parse_rejects_repeated_variable():
    with pytest.raises(ValueError, match="repeats a variable"):
        parse_cnf("p cnf 3 1\n1 1 2 0\n")
    with pytest.raises(ValueError, match="repeats a variable"):
        parse_cnf("p cnf 3 1\n1 -1 2 0\n")  # tautology


def test_parse_rejects_bad_header():
    with pytest.raises(ValueError, match="malformed DIMACS header"):
        parse_cnf("p dnf 3 1\n1 2 3 0\n")
    with pytest.raises(ValueError, match="malformed DIMACS header"):
        parse_cnf("p cnf x 1\n")
    with pytest.raises(ValueError, match="declares"):
        parse_cnf("p cnf 3 2\n1 2 3 0\n")


def test_parse_rejects_bad_clause_lines():
    with pytest.raises(ValueError, match="line 2: expected integer literals"):
        parse_cnf("p cnf 3 1\n1 2 a 0\n")
    with pytest.raises(ValueError, match="unterminated clause"):
        parse_cnf("p cnf 3 1\n1 2 3\n")


def test_parse_renumbers_dense():
    f = parse_cnf("p cnf 3 1\n2 5 9 0\n")
    assert f.num_vars == 3
    assert f.clauses == ((1, 2, 3),)
    assert f.var_map == {2: 1, 5: 2, 9: 3}


def test_reduction_counts_figure5():
    red = build_reduction(parse_cnf(FIG5_CNF))
    assert red.graph.n == 27 and red.graph.m == 48 and red.r == 20
    assert is_edge_triangular(red.graph)


def test_reduction_counts_general():
    f = parse_cnf("p cnf 3 2\n1 2 3 0\n-1 2 -3 0\n")
    red = build_reduction(f)
    n, m = f.num_vars, len(f.clauses)
    assert red.graph.n == 6 * n + 9 * m
    assert red.graph.m == 8 * n + 24 * m
    assert red.r == 4 * n + 8 * m
    assert len(red.communication_edges) == 6 * m


def test_clause_gadget_is_4_regular_internally():
    red = build_reduction(parse_cnf(FIG5_CNF))
    base = 6 * 3
    gadget = set(range(base, base + 9))
    for v in gadget:
        assert len(neighbors(red.graph, v) & gadget) == 4


def test_truth_gadget_edges():
    red = build_reduction(parse_cnf(FIG5_CNF))
    lab = red.labels
    for i in (1, 2, 3):
        x, y, z, w, t, fa = (lab[f"{s}_{i}"]
                             for s in ("x", "y", "z", "w", "T", "F"))
        expected = {(x, y), (x, z), (y, z), (y, w), (z, w),
                    (w, t), (w, fa), (t, fa)}
        expected = {tuple(sorted(e)) for e in expected}
        gadget = {x, y, z, w, t, fa}
        actual = {e for e in red.graph.edges if set(e) <= gadget}
        assert actual == expected


def test_communication_edges_follow_polarity():
    red = build_reduction(parse_cnf(FIG5_CNF))
    lab = red.labels
    comm = set(red.communication_edges)
    # negative literals u1, u2 -> T ports; positive u3 -> F port
    assert (lab["T_1"], lab["b_1^1"]) in comm
    assert (lab["T_2"], lab["c_1^2"]) in comm
    assert (lab["F_3"], lab["b_1^3"]) in comm


def test_assignment_to_generator_all_true():
    f = parse_cnf("p cnf 3 1\n1 2 3 0\n")
    red = build_reduction(f)
    s = assignment_to_generator(red, {1: True, 2: True, 3: True})
    assert len(s) == red.r
    assert is_incidence_generator(red.graph, s)
    assert is_packing(red.graph, frozenset(range(red.graph.n)) - s)


def test_assignment_not_satisfying():
    f = parse_cnf("p cnf 3 1\n1 2 3 0\n")
    red = build_reduction(f)
    with pytest.raises(ValueError, match="assignment not satisfying"):
        assignment_to_generator(red, {1: False, 2: False, 3: False})


def test_roundtrip_every_satisfying_assignment():
    f = parse_cnf(FIG5_CNF)
    red = build_reduction(f)
    for bits in itertools.product([False, True], repeat=3):
        t = dict(zip((1, 2, 3), bits))
        if not any(t[abs(l)] == (l > 0) for l in f.clauses[0]):
            continue
        s = assignment_to_generator(red, t)
        extracted = basis_to_assignment(red, s)
        for clause in f.clauses:
            assert any(extracted[abs(l)] == (l > 0) for l in clause)


def test_tight_basis_structure():
    f = parse_cnf(FIG5_CNF)
    red = build_reduction(f)
    t = satisfying_assignment(f)
    s = assignment_to_generator(red, t)
    lab = red.labels
    for i in (1, 2, 3):
        assert lab[f"x_{i}"] not in s
        assert (lab[f"T_{i}"] in s) != (lab[f"F_{i}"] in s)
    outside_a = [k for k in (1, 2, 3) if lab[f"a_1^{k}"] not in s]
    assert len(outside_a) == 1


def test_basis_to_assignment_errors():
    f = parse_cnf(FIG5_CNF)
    red = build_reduction(f)
    with pytest.raises(ValueError, match="not a tight basis"):
        basis_to_assignment(red, frozenset(range(red.r + 1)))
    with pytest.raises(ValueError, match="not an incidence generator"):
        basis_to_assignment(red, frozenset(range(red.r)))


def test_verify_claims_quotas():
    f = parse_cnf(FIG5_CNF)
    red = build_reduction(f)
    s = assignment_to_generator(red, satisfying_assignment(f))
    report = verify_claims(red, s)
    assert report["truth_gadgets"] == [4, 4, 4]
    assert report["clause_gadgets"] == [8]
    assert report["ok"]
    full = verify_claims(red, frozenset(range(red.graph.n)))
    assert full["truth_gadgets"] == [6, 6, 6]
    assert full["clause_gadgets"] == [9]


def test_verify_claims_rejects_non_generator():
    red = build_reduction(parse_cnf(FIG5_CNF))
    with pytest.raises(ValueError, match="not an incidence generator"):
        verify_claims(red, frozenset())


def test_dpll():
    assert is_satisfiable(parse_cnf(FIG5_CNF))
    assert not is_satisfiable(parse_cnf(all_sign_patterns_cnf()))
    t = satisfying_assignment(parse_cnf("p cnf 4 2\n1 2 3 0\n-1 -2 4 0\n"))
    assert t is not None and len(t) == 4


def test_satisfiable_reduction_packing_value():
    f = parse_cnf("p cnf 3 1\n1 -2 3 0\n")
    red = build_reduction(f)
    assert max_packing(red.graph).size == 2 * 3 + 1


def random_3cnf(num_vars, num_clauses, seed):
    """Uniform random 3-CNF: three distinct variables per clause, random
    signs."""
    rng = random.Random(seed)
    clauses = []
    for _ in range(num_clauses):
        variables = rng.sample(range(1, num_vars + 1), 3)
        clauses.append(tuple(x if rng.random() < 0.5 else -x
                             for x in variables))
    return CnfFormula(num_vars=num_vars, clauses=tuple(clauses))


# Seeded formulas near the satisfiability threshold, n = 252..885
# vertices, with both outcomes among them.  Other tests take the first
# (6/24) entries, so larger rungs go at the end.
SCALE_FORMULAS = [random_3cnf(num_vars, num_clauses, seed)
                  for num_vars, num_clauses, seeds in
                  ((6, 24, 8), (7, 28, 8), (8, 34, 8), (15, 64, 3),
                   (20, 85, 3))
                  for seed in range(seeds)]


def test_reduction_scale_packing_decides_sat():
    # A static clique-cover bound does not decide the 6/24 class within
    # minutes.  Each 20/85 formula (n = 885) must decide within a second.
    outcomes = set()
    for f in SCALE_FORMULAS:
        g = build_reduction(f).graph
        started = time.perf_counter()
        res = max_packing(g)
        if f.num_vars == 20:
            assert time.perf_counter() - started < 1.0
        sat = satisfying_assignment(f) is not None
        outcomes.add(sat)
        assert (res.size == 2 * f.num_vars + len(f.clauses)) == sat
        assert len(res.witness) == res.size
        assert is_packing(g, res.witness)
    assert outcomes == {True, False}


def test_reduction_scale_dimi_decides_sat():
    # The hardness theorem through the structural solver: dim_I = r
    # exactly when the formula is satisfiable.
    for f in SCALE_FORMULAS:
        red = build_reduction(f)
        sat = satisfying_assignment(f) is not None
        assert (dim_I_structural(red.graph).value == red.r) == sat


# --- label-keyed spec oracle ------------------------------------------------
# The compiler as first written: every vertex is looked up by its
# structured name and the edges go through build_graph.  The library
# computes the same indices arithmetically; these tests hold it to this.

def oracle_labels(f):
    labels = {}
    for i in range(1, f.num_vars + 1):
        base = 6 * (i - 1)
        for off, name in enumerate(("x", "y", "z", "w", "T", "F")):
            labels[f"{name}_{i}"] = base + off
    clause_base = 6 * f.num_vars
    for j in range(1, len(f.clauses) + 1):
        base = clause_base + 9 * (j - 1)
        for k in range(1, 4):
            for off, name in enumerate(("a", "b", "c")):
                labels[f"{name}_{j}^{k}"] = base + 3 * (k - 1) + off
    return labels


def oracle_build_reduction(f):
    lab = oracle_labels(f)
    edges = []
    for i in range(1, f.num_vars + 1):
        x, y, z, w, t, fa = (lab[f"{s}_{i}"] for s in ("x", "y", "z",
                                                       "w", "T", "F"))
        edges += [(x, y), (x, z), (y, z), (y, w), (z, w),
                  (w, t), (w, fa), (t, fa)]
    for j in range(1, len(f.clauses) + 1):
        a = [lab[f"a_{j}^{k}"] for k in (1, 2, 3)]
        b = [lab[f"b_{j}^{k}"] for k in (1, 2, 3)]
        c = [lab[f"c_{j}^{k}"] for k in (1, 2, 3)]
        for row in (a, b, c):                       # triangles within rows
            edges += [(row[0], row[1]), (row[1], row[2]), (row[2], row[0])]
        for k in range(3):                          # column triangles
            edges += [(a[k], b[k]), (b[k], c[k]), (c[k], a[k])]
    comm = []
    for j, clause in enumerate(f.clauses, start=1):
        for k, lit in enumerate(clause, start=1):
            i = abs(lit)
            port = lab[f"F_{i}"] if lit > 0 else lab[f"T_{i}"]
            comm.append((port, lab[f"b_{j}^{k}"]))
            comm.append((port, lab[f"c_{j}^{k}"]))
    n_vertices = 6 * f.num_vars + 9 * len(f.clauses)
    return SimpleNamespace(graph=build_graph(n_vertices, edges + comm),
                           r=f.threshold(), labels=lab,
                           communication_edges=tuple(comm), formula=f)


def oracle_assignment_to_generator(red, t):
    f, lab = red.formula, red.labels
    s = set()
    for i in range(1, f.num_vars + 1):
        s.update(lab[f"{name}_{i}"] for name in ("y", "z", "w"))
        s.add(lab[f"F_{i}"] if t[i] else lab[f"T_{i}"])
    for j, clause in enumerate(f.clauses, start=1):
        for k in (1, 2, 3):
            s.add(lab[f"b_{j}^{k}"])
            s.add(lab[f"c_{j}^{k}"])
        sat_k = next(k for k, lit in enumerate(clause, start=1)
                     if t[abs(lit)] == (lit > 0))
        for k in (1, 2, 3):
            if k != sat_k:
                s.add(lab[f"a_{j}^{k}"])
    assert len(s) == red.r and is_incidence_generator(red.graph, s)
    return frozenset(s)


def oracle_basis_to_assignment(red, s):
    return {i: red.labels[f"T_{i}"] not in s
            for i in range(1, red.formula.num_vars + 1)}


def oracle_claims(red, s):
    f, lab = red.formula, red.labels
    truth = [sum(lab[f"{name}_{i}"] in s for name in "xyzwTF")
             for i in range(1, f.num_vars + 1)]
    clause = [sum(lab[f"{name}_{j}^{k}"] in s
                  for name in "abc" for k in (1, 2, 3))
              for j in range(1, len(f.clauses) + 1)]
    return {"truth_gadgets": truth, "clause_gadgets": clause,
            "ok": all(c >= 4 for c in truth) and all(c >= 8 for c in clause)}


@st.composite
def cnf_formulas(draw):
    """3-CNFs with 0 or 3..9 variables and up to 30 clauses, both
    polarities, some clauses repeated."""
    num_vars = draw(st.sampled_from((0, 3, 4, 5, 6, 7, 8, 9)))
    if not num_vars:
        return CnfFormula(num_vars=0, clauses=())
    clause = st.tuples(
        st.permutations(range(1, num_vars + 1)),
        st.tuples(st.booleans(), st.booleans(), st.booleans()),
    ).map(lambda vs: tuple(v if pos else -v for v, pos in zip(*vs)))
    clauses = draw(st.lists(clause, max_size=20))
    clauses += clauses[:draw(st.integers(0, 10))]
    return CnfFormula(num_vars=num_vars, clauses=tuple(clauses))


@settings(max_examples=200, deadline=None)
@given(cnf_formulas())
@example(parse_cnf(FIG5_CNF))
@example(CnfFormula(num_vars=3, clauses=((1, 2, 3),) * 3))
def test_compiler_matches_label_oracle(f):
    red, want = build_reduction(f), oracle_build_reduction(f)
    assert red.graph == want.graph
    assert red.r == want.r
    assert list(red.labels.items()) == list(want.labels.items())
    inv = {v: k for k, v in want.labels.items()}
    assert red.names == tuple(inv[v] for v in range(want.graph.n))
    assert red.communication_edges == want.communication_edges
    assert verify_claims(red, range(red.graph.n)) == \
        oracle_claims(want, frozenset(range(red.graph.n)))
    t = satisfying_assignment(f)
    if t is None:
        return
    s = assignment_to_generator(red, t)
    assert s == oracle_assignment_to_generator(want, t)
    assert basis_to_assignment(red, s) == oracle_basis_to_assignment(want, s)
    assert verify_claims(red, s) == oracle_claims(want, s)


def test_build_reduction_rejects_bad_formula():
    with pytest.raises(ValueError, match="out of range"):
        build_reduction(CnfFormula(num_vars=3, clauses=((1, -2, 4),)))
    with pytest.raises(ValueError, match="repeats a variable"):
        build_reduction(CnfFormula(num_vars=3, clauses=((1, -1, 2),)))
    with pytest.raises(ValueError, match="non-negative"):
        build_reduction(CnfFormula(num_vars=-1, clauses=()))
