"""Command-line front end.

Commands: dimi, rho, ecritical, dima, dime, classify, gen, reduce,
extract, verify.  The first six take a graph, read from a file or from
stdin when the path is `-`, and end their results with n, m and the
wall time in seconds, load included.  `dimi` answers every graph,
edgeless ones included, by the structural route unless `--method
brute` is given; `--full-search` without it is an error.  Default
output is aligned plain text; --json emits a machine-readable report
on one line.  Exit status is 1 on a failed
check, 2 on bad input, an exceeded witness cap or exhausted memory
(one `error:` line on stderr), and 3 on an unexpected internal error
(one `error: internal:` line naming the exception, no traceback).

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


def _emit(report, as_json):
    if as_json:
        print(json.dumps(report, sort_keys=True))
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


def cmd_dimi(args, g):
    if args.method == "structural":
        if args.full_search:
            raise ValueError("--full-search needs --method brute")
        res = incidence.dim_I_structural(g)
    else:
        res = incidence.dim_I_brute(g, full_search=args.full_search)
    results = {"value": res.value, "basis": sorted(res.basis),
               "method": res.method,
               "achieving_edge": list(res.achieving_edge)
               if res.achieving_edge else None}
    return _report("dimi", {"graph": args.graph, "method": args.method},
                   results)


def cmd_dimi_formula(args):
    value = incidence.dim_I_formula(args.family, *args.params)
    return _report("dimi-formula",
                   {"family": args.family, "params": args.params},
                   {"value": value, "method": "formula"})


def cmd_rho(args, g):
    if args.witness_cap < 0:
        raise ValueError("--witness-cap must be non-negative")
    res = packing.max_packing(g, enumerate_all=args.all,
                              witness_cap=args.witness_cap)
    results = {"rho": res.size, "witness": sorted(res.witness)}
    if res.all_witnesses is not None:
        results["witness_count"] = len(res.all_witnesses)
        results["all_witnesses"] = [sorted(w) for w in res.all_witnesses]
    return _report("rho", {"graph": args.graph}, results)


def cmd_ecritical(args, g):
    res = packing.e_critical_packing(g, (args.u, args.v))
    results = {"edge": list(res.edge), "size": res.size,
               "witness": sorted(res.witness),
               "is_packing_of_G": res.is_packing_of_g,
               "contains_both_endpoints": res.contains_both_endpoints}
    return _report("ecritical",
                   {"graph": args.graph, "edge": [args.u, args.v]}, results)


def cmd_dima(args, g):
    res = metric.dim_A(g)
    return _report("dima", {"graph": args.graph},
                   {"value": res.value, "basis": sorted(res.basis)})


def cmd_dime(args, g):
    res = metric.dim_e(g)
    return _report("dime", {"graph": args.graph},
                   {"value": res.value, "basis": sorted(res.basis)})


def cmd_classify(args, g):
    label = incidence.classify(g)
    # classify has already checked that dim_I is n - rho or n - rho - 1.
    rho = g.max_packing.size
    value = g.n - rho - (label == incidence.CLASS_MINUS_ONE)
    return _report("classify", {"graph": args.graph},
                   {"class": label, "dim_I": value, "rho": rho})


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
        if args.n < 1:
            raise ValueError("exhaustive corpus needs n >= 1")
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
        if args.count < 1:
            raise ValueError("random corpus needs --count >= 1")
        graphs = random_graphs(args.n, args.count, args.seed)
        inputs = {"corpus": "random", "n": args.n, "count": args.count,
                  "seed": args.seed}
    report = verify.run_suite(graphs, with_metric=not args.no_metric)
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


def _run(args):
    """The command's report.  A graph command (one with a `graph`
    argument) gets the loaded graph, and its results end with n, m and
    the wall time from before the load."""
    if not hasattr(args, "graph"):
        return args.func(args)
    started = time.perf_counter()
    g = _load_graph(args.graph)
    report = args.func(args, g)
    report["results"].update(
        n=g.n, m=g.m, wall_time_s=round(time.perf_counter() - started, 6))
    return report


@functools.cache
def build_parser():
    parser = argparse.ArgumentParser(
        prog="incdim",
        description="Exact incidence-dimension solver and 3-SAT reduction "
                    "toolkit for finite simple graphs.")
    parser.add_argument("--json", action="store_true",
                        help="emit machine-readable JSON")
    sub = parser.add_subparsers(dest="command", required=True)

    def graph_command(name, func, summary):
        p = sub.add_parser(name, help=summary)
        p.add_argument("graph")
        p.set_defaults(func=func)
        return p

    p = graph_command("dimi", cmd_dimi, "incidence dimension of a graph file")
    p.add_argument("--method", default="structural",
                   choices=["brute", "structural"])
    p.add_argument("--full-search", action="store_true",
                   help="brute search from size 0 (no sandwich shortcut); "
                   "needs --method brute")

    p = sub.add_parser("dimi-formula", help="closed-formula dimension")
    p.add_argument("family", choices=["complete", "path", "cycle",
                                      "complete_bipartite"])
    p.add_argument("params", nargs="+", type=int)
    p.set_defaults(func=cmd_dimi_formula)

    p = graph_command("rho", cmd_rho, "maximum 2-packing")
    p.add_argument("--all", action="store_true",
                   help="enumerate every maximum packing")
    p.add_argument("--witness-cap", type=int,
                   default=packing.DEFAULT_WITNESS_CAP)

    p = graph_command("ecritical", cmd_ecritical,
                      "e-critical packing for one edge")
    p.add_argument("u", type=int)
    p.add_argument("v", type=int)

    graph_command("dima", cmd_dima, "adjacency dimension")
    graph_command("dime", cmd_dime, "edge metric dimension")
    graph_command("classify", cmd_classify, "n-rho vs n-rho-1 class")

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
    p.add_argument("--no-metric", action="store_true",
                   help="skip the adjacency/edge-metric comparison")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        report = _run(args)
    except (ValueError, OSError, packing.WitnessCapExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
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
