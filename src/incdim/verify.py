"""Cross-theorem invariant suite over graph corpora.

Each invariant is checked per graph; the suite aggregates pass/fail
counts and keeps the first counterexample (graph in edge-list form
plus the offending values) for every failed invariant.
"""
from __future__ import annotations

from .graph import format_edge_list, is_connected, is_edge_triangular
from .incidence import (common_neighbor_characterization, dim_I_brute,
                        dim_I_structural, is_incidence_generator)
from .metric import dim_A, dim_e, is_adjacency_generator
from .packing import e_critical_packing, is_packing

INVARIANTS = (
    "theorem_nk",
    "corollary_sandwich",
    "bound_two",
    "packing_complement_generator",
    "edge_triangular",
    "inc_adj_edge",
    "remark_bounds",
)


def _evaluate(g, with_metric):
    """Invariant results for one graph: {name: (ok, detail-or-None)}.

    The brute solver searches from size 0, so its value owes nothing to
    rho or to the structural route it audits."""
    out = {}
    adj = g.adj_masks
    witness = g.max_packing.witness
    rho = len(witness)
    brute = dim_I_brute(g, full_search=True)
    structural = dim_I_structural(g)
    value = structural.value

    ok = brute.value == value
    out["theorem_nk"] = (ok, None if ok else
                         f"brute={brute.value} structural={value}")

    ok = g.n - rho - 1 <= value <= g.n - rho
    out["corollary_sandwich"] = (ok, None if ok else
                                 f"dim_I={value} rho={rho} n={g.n}")

    ok, detail = True, None
    for e in g.sorted_edges:
        res = e_critical_packing(g, e)
        if not rho <= res.size <= rho + 1:
            ok, detail = False, f"edge {e}: |P_e|={res.size} rho={rho}"
            break
        inside = res.witness & set(e)
        if len(inside) == 1:
            u = next(iter(inside))
            v = e[0] if e[1] == u else e[1]
            if any(adj[v] >> x & 1 for x in res.witness if x != u):
                ok, detail = False, f"edge {e}: endpoint remark violated"
                break
    out["bound_two"] = (ok, detail)

    complement = frozenset(range(g.n)) - witness
    covers = all(u in complement or v in complement for u, v in g.edges)
    ok = covers and is_incidence_generator(g, complement)
    out["packing_complement_generator"] = (
        ok, None if ok else f"packing {sorted(witness)}")

    ok, detail = True, None
    if is_edge_triangular(g):
        if value != g.n - rho:
            ok, detail = False, f"edge-triangular but dim_I={value} != n-rho"
        elif not is_packing(g, frozenset(range(g.n)) - structural.basis):
            ok, detail = False, "basis complement is not a packing"
    else:
        bare = next((u, v) for u, v in g.sorted_edges
                    if not adj[u] & adj[v])
        s = frozenset(range(g.n)) - set(bare)
        if not is_incidence_generator(g, s):
            ok, detail = False, f"V minus {bare} is not a generator"
    out["edge_triangular"] = (ok, detail)

    ok, detail = True, None
    if with_metric:
        isolated = not all(adj)
        # Components that are a single edge behave like K_2: the pair
        # inside needs a dedicated adjacency/edge-metric vertex while the
        # incidence definition sees only one edge there.  Those cases are
        # reported as conventions, not asserted.
        k2_component = any(adj[u] == 1 << v and adj[v] == 1 << u
                           for u, v in g.edges)
        if not isolated and not k2_component and value >= 1:
            da, de = dim_A(g), dim_e(g)
            if value < max(da.value, de.value):
                ok, detail = False, (f"dim_I={value} < max(dim_A={da.value}, "
                                     f"dim_e={de.value})")
            elif not is_adjacency_generator(g, structural.basis):
                ok, detail = False, "basis is not an adjacency generator"
    out["inc_adj_edge"] = (ok, detail)

    ok, detail = True, None
    if is_connected(g) and g.m >= 2:
        if not g.n // 2 <= value <= g.n - 1:
            ok, detail = False, f"dim_I={value} outside [n/2, n-1]"
        else:
            common = common_neighbor_characterization(g)
            if common != (value == g.n - 1):
                ok, detail = False, ("common-neighbor characterization "
                                     f"mismatch: common={common} dim={value}")
    out["remark_bounds"] = (ok, detail)
    return out


def run_suite(graphs, with_metric=True):
    """Run every invariant over an iterable of graphs.

    Returns {invariant: {"checked": int, "failed": int,
    "counterexample": str | None}}; graphs are processed in input order
    so the report is deterministic."""
    report = {name: {"checked": 0, "failed": 0, "counterexample": None}
              for name in INVARIANTS}
    for g in graphs:
        results = _evaluate(g, with_metric)
        for name, (ok, detail) in results.items():
            entry = report[name]
            entry["checked"] += 1
            if not ok:
                entry["failed"] += 1
                if entry["counterexample"] is None:
                    entry["counterexample"] = (
                        f"{detail}\n{format_edge_list(g)}")
    return report


def suite_passed(report):
    return all(entry["failed"] == 0 for entry in report.values())
