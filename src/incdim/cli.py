"""Command-line front end.

Commands: dimi, rho, ecritical, dima, dime, classify, gen, reduce,
extract, verify.  Default output is aligned plain text; --json emits a
machine-readable report.  Exit status is 1 on a failed check, 2 on
bad input or an exceeded witness cap (one `error:` line on stderr),
and 3 on an unexpected internal error (one `error: internal:` line
naming the exception, no traceback).

The argument parser is built on the first `main` call and reused by
every later call in the process; parsing keeps no state between calls.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys
import time

from . import graph as gmod
from . import incidence, metric, packing, reduction, verify
from .corpus import all_labeled_graphs, random_graphs


def _load_graph(path):
    if path == "-":
        return gmod.parse_edge_list(sys.stdin.read())
    return gmod.read_edge_list(path)


def _vset(s):
    return sorted(s)


def _emit(report, as_json):
    if as_json:
        print(json.dumps(report, indent=2, sort_keys=True))
        return
    print(f"command: {report['command']}")
    for key, val in report["inputs"].items():
        print(f"  {key}: {val}")
    for key, val in report["results"].items():
        print(f"{key:>24}: {val}")
    for name, ok, detail in report.get("checks", []):
        mark = "pass" if ok else "FAIL"
        line = f"{name:>24}: {mark}"
        if detail:
            line += f"  ({detail})"
        print(line)


def _report(command, inputs, results, checks=()):
    return {"command": command, "inputs": inputs, "results": results,
            "checks": list(checks)}


def _graph_meta(g, started):
    return {"n": g.n, "m": g.m,
            "wall_time_s": round(time.perf_counter() - started, 6)}


def cmd_dimi(args):
    started = time.perf_counter()
    g = _load_graph(args.graph)
    method = args.method
    if method == "auto":
        method = "structural" if g.m >= 1 else "brute"
    if method == "formula":
        raise ValueError("formula requires a named family: use "
                         "'dimi-formula' with family parameters")
    if method == "structural":
        res = incidence.dim_I_structural(g)
    else:
        res = incidence.dim_I_brute(g, full_search=args.full_search)
    results = {"value": res.value, "basis": _vset(res.basis),
               "method": res.method,
               "achieving_edge": list(res.achieving_edge)
               if res.achieving_edge else None}
    results.update(_graph_meta(g, started))
    return _report("dimi", {"graph": args.graph, "method": args.method},
                   results)


def cmd_dimi_formula(args):
    value = incidence.dim_I_formula(args.family, *args.params)
    return _report("dimi-formula",
                   {"family": args.family, "params": args.params},
                   {"value": value, "method": "formula"})


def cmd_rho(args):
    started = time.perf_counter()
    g = _load_graph(args.graph)
    res = packing.max_packing(g, enumerate_all=args.all,
                              witness_cap=args.witness_cap)
    results = {"rho": res.size, "witness": _vset(res.witness)}
    if res.all_witnesses is not None:
        results["witness_count"] = len(res.all_witnesses)
        results["all_witnesses"] = [_vset(w) for w in res.all_witnesses]
    results.update(_graph_meta(g, started))
    return _report("rho", {"graph": args.graph}, results)


def cmd_ecritical(args):
    started = time.perf_counter()
    g = _load_graph(args.graph)
    res = packing.e_critical_packing(g, (args.u, args.v))
    results = {"edge": list(res.edge), "size": res.size,
               "witness": _vset(res.witness),
               "is_packing_of_G": res.is_packing_of_g,
               "contains_both_endpoints": res.contains_both_endpoints}
    results.update(_graph_meta(g, started))
    return _report("ecritical",
                   {"graph": args.graph, "edge": [args.u, args.v]}, results)


def cmd_dima(args):
    started = time.perf_counter()
    g = _load_graph(args.graph)
    res = metric.dim_A(g)
    results = {"value": res.value, "basis": _vset(res.basis)}
    results.update(_graph_meta(g, started))
    return _report("dima", {"graph": args.graph}, results)


def cmd_dime(args):
    started = time.perf_counter()
    g = _load_graph(args.graph)
    res = metric.dim_e(g)
    results = {"value": res.value, "basis": _vset(res.basis)}
    results.update(_graph_meta(g, started))
    return _report("dime", {"graph": args.graph}, results)


def cmd_classify(args):
    started = time.perf_counter()
    g = _load_graph(args.graph)
    rho_res = packing.max_packing(g)
    label = incidence.classify(g, rho_res)
    # classify has already checked that dim_I is n - rho or n - rho - 1.
    rho = rho_res.size
    value = g.n - rho - (label == incidence.CLASS_MINUS_ONE)
    results = {"class": label, "dim_I": value, "rho": rho}
    results.update(_graph_meta(g, started))
    return _report("classify", {"graph": args.graph}, results)


def cmd_gen(args):
    g = gmod.generate_family(args.family, *args.params)
    comment = f"family {args.family} params {' '.join(map(str, args.params))}"
    gmod.write_edge_list(g, args.output, comments=[comment])
    return _report("gen", {"family": args.family, "params": args.params,
                           "output": args.output},
                   {"n": g.n, "m": g.m})


def cmd_reduce(args):
    with open(args.cnf) as fh:
        f = reduction.parse_cnf(fh.read())
    red = reduction.build_reduction(f)
    comment = (f"3-SAT reduction: {f.num_vars} vars, {len(f.clauses)} "
               f"clauses, r={red.r}")
    gmod.write_edge_list(red.graph, args.output, comments=[comment])
    sidecar = {"r": red.r, "labels": red.labels,
               "num_vars": f.num_vars, "clauses": [list(c) for c in f.clauses],
               "communication_edges": [list(e)
                                       for e in red.communication_edges]}
    with open(args.output + ".labels.json", "w") as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True)
    return _report("reduce", {"cnf": args.cnf, "output": args.output},
                   {"n": red.graph.n, "m": red.graph.m, "r": red.r,
                    "labels_file": args.output + ".labels.json"})


def _rebuild_reduction(labels_path):
    with open(labels_path) as fh:
        sidecar = json.load(fh)
    if not isinstance(sidecar, dict):
        sidecar = {}
    num_vars, clauses = sidecar.get("num_vars"), sidecar.get("clauses")
    if not (isinstance(num_vars, int) and isinstance(clauses, list)
            and all(isinstance(c, list) and all(
                isinstance(lit, int) and 0 < abs(lit) <= num_vars
                for lit in c) for c in clauses)):
        raise ValueError(f"{labels_path}: not a labels file written by "
                         "reduce (needs num_vars and clauses over them)")
    f = reduction.CnfFormula(num_vars=num_vars,
                             clauses=tuple(tuple(c) for c in clauses))
    return reduction.build_reduction(f)


def cmd_extract(args):
    red = _rebuild_reduction(args.labels)
    if args.set.endswith(".json"):
        with open(args.set) as fh:
            members = json.load(fh)
        if not (isinstance(members, list)
                and all(type(v) is int for v in members)):
            raise ValueError(f"{args.set}: not a JSON list of vertex indices")
    else:
        members = [int(x) for x in args.set.split(",") if x.strip()]
    t = reduction.basis_to_assignment(red, members)
    claims = reduction.verify_claims(red, members)
    results = {"assignment": {f"u_{i}": t[i] for i in sorted(t)},
               "satisfies_formula": True,
               "truth_gadget_counts": claims["truth_gadgets"],
               "clause_gadget_counts": claims["clause_gadgets"]}
    checks = [("claim_quotas", claims["ok"], None)]
    return _report("extract", {"labels": args.labels, "set": args.set},
                   results, checks)


def cmd_verify(args):
    started = time.perf_counter()
    if args.corpus == "exhaustive":
        if args.n > 7:
            raise ValueError("exhaustive corpus is limited to n <= 7")
        if args.n == 7 and not args.slow:
            raise ValueError("exhaustive n=7 requires --slow")
        graphs = (g for size in range(1, args.n + 1)
                  for g in all_labeled_graphs(size))
        inputs = {"corpus": "exhaustive", "n": args.n}
    else:
        if args.seed is None:
            raise ValueError("random corpus requires --seed")
        graphs = random_graphs(args.n, args.count, args.seed)
        inputs = {"corpus": "random", "n": args.n, "count": args.count,
                  "seed": args.seed}
    report = verify.run_suite(graphs, full_brute=not args.fast_brute,
                              with_metric=not args.no_metric)
    checks = []
    for name, entry in report.items():
        detail = f"checked={entry['checked']}"
        if entry["failed"]:
            detail += (f" failed={entry['failed']} counterexample: "
                       f"{entry['counterexample']}")
        checks.append((name, entry["failed"] == 0, detail))
    results = {"passed": verify.suite_passed(report),
               "wall_time_s": round(time.perf_counter() - started, 6)}
    return _report("verify", inputs, results, checks)


@functools.cache
def build_parser():
    parser = argparse.ArgumentParser(
        prog="incdim",
        description="Exact incidence-dimension solver and 3-SAT reduction "
                    "toolkit for finite simple graphs.")
    parser.add_argument("--json", action="store_true",
                        help="emit machine-readable JSON")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dimi", help="incidence dimension of a graph file")
    p.add_argument("graph")
    p.add_argument("--method", default="auto",
                   choices=["auto", "brute", "structural", "formula"])
    p.add_argument("--full-search", action="store_true",
                   help="brute search from size 0 (no sandwich shortcut)")
    p.set_defaults(func=cmd_dimi)

    p = sub.add_parser("dimi-formula", help="closed-formula dimension")
    p.add_argument("family", choices=["complete", "path", "cycle",
                                      "complete_bipartite"])
    p.add_argument("params", nargs="+", type=int)
    p.set_defaults(func=cmd_dimi_formula)

    p = sub.add_parser("rho", help="maximum 2-packing")
    p.add_argument("graph")
    p.add_argument("--all", action="store_true",
                   help="enumerate every maximum packing")
    p.add_argument("--witness-cap", type=int,
                   default=packing.DEFAULT_WITNESS_CAP)
    p.set_defaults(func=cmd_rho)

    p = sub.add_parser("ecritical", help="e-critical packing for one edge")
    p.add_argument("graph")
    p.add_argument("u", type=int)
    p.add_argument("v", type=int)
    p.set_defaults(func=cmd_ecritical)

    p = sub.add_parser("dima", help="adjacency dimension")
    p.add_argument("graph")
    p.set_defaults(func=cmd_dima)

    p = sub.add_parser("dime", help="edge metric dimension")
    p.add_argument("graph")
    p.set_defaults(func=cmd_dime)

    p = sub.add_parser("classify", help="n-rho vs n-rho-1 class")
    p.add_argument("graph")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("gen", help="write a named family graph")
    p.add_argument("family", choices=sorted(gmod.FAMILIES))
    p.add_argument("params", nargs="+", type=int)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("reduce", help="compile DIMACS 3-CNF to a graph")
    p.add_argument("cnf")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("extract",
                       help="satisfying assignment from a tight basis")
    p.add_argument("labels", help="labels sidecar JSON written by reduce")
    p.add_argument("set", help="comma-separated vertices or a JSON file")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("verify", help="run the invariant suite")
    p.add_argument("corpus", choices=["exhaustive", "random"])
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--seed", type=int)
    p.add_argument("--slow", action="store_true")
    p.add_argument("--fast-brute", action="store_true",
                   help="allow the sandwich shortcut inside the oracle")
    p.add_argument("--no-metric", action="store_true",
                   help="skip the adjacency/edge-metric comparison")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        report = args.func(args)
    except (ValueError, OSError, packing.WitnessCapExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        message = " ".join(str(exc).split())
        print(f"error: internal: {type(exc).__name__}: {message}",
              file=sys.stderr)
        return 3
    _emit(report, args.json)
    failed = any(not ok for _, ok, _ in report.get("checks", []))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
