"""The benchmark's workloads: seeded inputs, one operation, its check.

Every workload builds its inputs from the run seed alone, hands the
program only those inputs, and checks each output with the
independent checkers in checks.py (plus, for cli, values recorded at
the parent commit in reference.json).
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass, field
from pathlib import Path

import checks

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"


@dataclass
class Item:
    """One operation's input.  `id` names it in the budget report."""

    id: str
    payload: object
    meta: dict = field(default_factory=dict)


@dataclass
class Verdict:
    ok: bool
    message: str = ""
    witness_changed: bool = False


@dataclass(frozen=True)
class Workload:
    name: str
    budget_s: float         # per-operation wall-time budget
    setup: object           # (mods, seed, workdir) -> [Item]
    run: object             # (mods, Item) -> output
    check: object           # (Item, output) -> Verdict
    fresh: object = None    # (mods, Item) -> Item with no cached state


def _sorted_edges(g):
    return sorted(tuple(e) for e in g.edges)


def edge_list_text(n, edges):
    """The edge-list file format, written by the benchmark itself."""
    return "".join([f"{n} {len(edges)}\n"] + [f"{u} {v}\n" for u, v in edges])


# ---------------------------------------------------------------------------
# corpus: many tiny graphs through the invariant suite

CORPUS_SIZES = (7, 8, 9, 10)
CORPUS_GRAPHS_PER_SIZE = 600
CORPUS_PROBABILITIES = (0.2, 0.5, 0.8)  # incdim.corpus cycles p per index


def corpus_setup(mods, seed, workdir):
    streams = [mods.corpus.random_graphs(n, CORPUS_GRAPHS_PER_SIZE,
                                         seed * 100 + n)
               for n in CORPUS_SIZES]
    items = []
    for j, graphs in enumerate(zip(*streams)):
        p = CORPUS_PROBABILITIES[j % len(CORPUS_PROBABILITIES)]
        for g in graphs:
            items.append(Item(
                id=f"corpus seed={seed} n={g.n} p={p} index={j}",
                payload=g, meta={"n": g.n, "edges": _sorted_edges(g)}))
    return items


def corpus_fresh(mods, item):
    g = mods.graph.build_graph(item.meta["n"], item.meta["edges"])
    return Item(item.id, g, item.meta)


def corpus_run(mods, item):
    return mods.verify.run_suite([item.payload])


def corpus_check(item, report):
    if not report:
        return Verdict(False, "empty invariant report")
    for name, entry in report.items():
        if entry["checked"] != 1 or entry["failed"]:
            return Verdict(False, f"invariant {name}: {entry}")
    return Verdict(True)


# ---------------------------------------------------------------------------
# cli: single-graph requests through incdim.cli.main

# Cells of the pool: (family, p, n).  reference.json holds the parent
# commit's answers for every pool graph.  The pool is fixed: round k
# takes graph k of every cell, and the rounds always run in the order
# 0, 1, 2, 0, ...; the seed only orders the graphs within a round and
# each graph's requests.  A run stops at a round boundary, so every run
# has the same size mix, and how many graphs it sees depends only on
# the machine's speed.  Latency per graph is heavy-tailed, so a pool
# drawn afresh per seed would make the spread of op_ms_p90 between runs
# measure the draw.
CLI_CELLS = tuple(
    [("gnp", 0.1, n) for n in (24, 28, 32, 36, 40)]
    + [("gnp", 0.2, n) for n in (24, 28, 32, 36, 40)]
    + [("tree", None, n) for n in (20, 25, 30, 35, 40)])
CLI_POOL_PER_CELL = 3
CLI_EDGES_PER_GRAPH = 3
CLI_COMMANDS = ("dimi", "classify", "rho", "rho --all")  # + ecritical


def cli_pool_graph(mods, cell, k):
    """Pool graph k of a cell, generated by incdim.corpus."""
    family, p, n = CLI_CELLS[cell]
    rng = random.Random(1000 * cell + k)
    if family == "tree":
        return mods.corpus.random_tree(n, rng)
    return mods.corpus.random_graph(n, p, rng)


def cli_edges(cell, k, edges):
    """The edges a pool graph's ecritical requests ask about."""
    rng = random.Random(10 ** 6 + 1000 * cell + k)
    return sorted(rng.sample(edges, min(CLI_EDGES_PER_GRAPH, len(edges))))


def cli_requests(path, edges):
    """(command, argv, edge) for every request made on one graph file."""
    out = [(cmd, ["--json"] + cmd.split()[:1] + [path] + cmd.split()[1:],
            None) for cmd in CLI_COMMANDS]
    out += [("ecritical", ["--json", "ecritical", path, str(u), str(v)],
             (u, v)) for u, v in edges]
    return out


def cli_write_graph(mods, cell, k, workdir):
    g = cli_pool_graph(mods, cell, k)
    edges = _sorted_edges(g)
    text = edge_list_text(g.n, edges)
    path = os.path.join(workdir, f"cli-{cell}-{k}.g")
    with open(path, "w") as fh:
        fh.write(text)
    return {"key": f"{cell}-{k}", "n": g.n, "edges": edges,
            "text": checks.digest(text), "path": path,
            "ecritical_edges": cli_edges(cell, k, edges)}


def cli_setup(mods, seed, workdir):
    with open(REFERENCE_PATH) as fh:
        reference = json.load(fh)["graphs"]
    rng = random.Random(seed)
    cells = range(len(CLI_CELLS))
    items = []
    for k in range(CLI_POOL_PER_CELL):
        for cell in rng.sample(cells, len(cells)):
            meta = cli_write_graph(mods, cell, k, workdir)
            requests = cli_requests(meta["path"], meta["ecritical_edges"])
            rng.shuffle(requests)
            for cmd, argv, edge in requests:
                items.append(Item(
                    id=(f"cli seed={seed} graph={meta['key']} n={meta['n']} "
                        f"cmd={' '.join(argv[1:2] + argv[3:])}"),
                    payload=argv,
                    meta=dict(meta, cmd=cmd, edge=edge, round=k,
                              reference=reference.get(meta["key"]))))
    return items


def cli_run(mods, item):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = mods.cli.main(item.payload)
    return code, buf.getvalue()


def _compare(verdict, value, expected, what):
    """Value check against the reference recorded at the parent commit."""
    if value != expected:
        verdict.ok = False
        verdict.message = f"{what} = {value}, reference {expected}"


def _compare_witness(verdict, witness, expected_digest):
    """A different witness of the right value is counted, not failed."""
    verdict.witness_changed = checks.digest(witness) != expected_digest


def cli_check(item, output):
    code, text = output
    meta = item.meta
    if code != 0:
        return Verdict(False, f"exit status {code}")
    res = json.loads(text)["results"]
    ref = meta["reference"]
    if ref is None or ref["text"] != meta["text"]:
        return Verdict(False, f"graph {meta['key']} differs from the one "
                              "reference.json was recorded on")
    n, edges, cmd = meta["n"], meta["edges"], meta["cmd"]
    v = Verdict(True)
    if cmd == "dimi":
        if len(res["basis"]) != res["value"]:
            return Verdict(False, f"|basis| != value {res['value']}")
        if not checks.is_generator_pairwise(edges, res["basis"]):
            return Verdict(False, "basis is not an incidence generator")
        _compare(v, res["value"], ref["dim_I"], "dim_I")
        _compare_witness(v, [res["basis"], res["achieving_edge"]],
                         ref["dimi_witness"])
    elif cmd == "classify":
        _compare(v, res["dim_I"], ref["dim_I"], "dim_I")
        _compare(v, res["rho"], ref["rho"], "rho")
        expected = {n - res["rho"] - 1: "CLASS_MINUS_ONE",
                    n - res["rho"]: "CLASS_EXACT"}.get(res["dim_I"])
        if res["class"] != expected:
            return Verdict(False, f"class {res['class']} for dim_I "
                                  f"{res['dim_I']}, rho {res['rho']}")
    elif cmd == "rho":
        if len(res["witness"]) != res["rho"]:
            return Verdict(False, "|witness| != rho")
        if not checks.is_two_packing(n, edges, res["witness"]):
            return Verdict(False, "witness is not a 2-packing")
        _compare(v, res["rho"], ref["rho"], "rho")
        _compare_witness(v, res["witness"], ref["rho_witness"])
    elif cmd == "rho --all":
        witnesses = res["all_witnesses"]
        if res["witness_count"] != len(witnesses):
            return Verdict(False, "witness_count != len(all_witnesses)")
        if len({tuple(w) for w in witnesses}) != len(witnesses):
            return Verdict(False, "repeated witness")
        is_packing = checks.packing_test(n, edges)
        for w in witnesses:
            if len(w) != res["rho"] or not is_packing(w):
                return Verdict(False, f"{w} is not a 2-packing of size rho")
        _compare(v, res["rho"], ref["rho"], "rho")
        _compare(v, res["witness_count"], ref["witness_count"],
                 "witness count")
        _compare_witness(v, witnesses, ref["all_witnesses"])
    elif cmd == "ecritical":
        u, w = meta["edge"]
        ref = ref["ecritical"][f"{u} {w}"]
        witness = res["witness"]
        if len(witness) != res["size"]:
            return Verdict(False, "|witness| != size")
        both = u in witness and w in witness
        packing_of_g = checks.is_two_packing(n, edges, witness)
        g_minus_e = [e for e in edges if e != (u, w)]
        if not checks.is_two_packing(n, g_minus_e, witness):
            return Verdict(False, "witness is not a 2-packing of G - e")
        if not both and not packing_of_g:
            return Verdict(False, "witness misses an endpoint but is not "
                                  "a 2-packing of G")
        if (res["contains_both_endpoints"] != both
                or res["is_packing_of_G"] != packing_of_g):
            return Verdict(False, "witness flags disagree with the witness")
        _compare(v, res["size"], ref["size"], "|P_e|")
        _compare_witness(v, witness, ref["witness"])
    return v


# ---------------------------------------------------------------------------
# reduction: 3-CNF through the SAT reduction and the packing search

# Ladder instances per variable count.  The outcome is bimodal: an
# instance decides in tens of milliseconds or runs far over budget,
# and the share that runs over grows with the variable count (about
# 0.2, 0.4, 0.6 and 0.8 at the parent commit).  Weighting toward the
# larger formulas keeps that share near 0.6 overall, clear of 0.5,
# where the median latency would jump between the two modes from run
# to run.
RED_LADDER = {3: 72, 4: 72, 5: 144, 6: 216}
RED_RATIO = (3.0, 4.3)
RED_LADDER_SEED = 20181107


def random_cnf(rng, num_vars):
    """Uniform random 3-CNF: three distinct variables per clause, random
    signs, clause ratio uniform in RED_RATIO."""
    m = round(num_vars * rng.uniform(*RED_RATIO))
    clauses = []
    for _ in range(m):
        variables = rng.sample(range(1, num_vars + 1), 3)
        clauses.append(tuple(x if rng.random() < 0.5 else -x
                             for x in variables))
    return clauses


def dimacs(num_vars, clauses):
    lines = [f"p cnf {num_vars} {len(clauses)}"]
    lines += [f"{a} {b} {c} 0" for a, b, c in clauses]
    return "\n".join(lines) + "\n"


def reduction_setup(mods, seed, workdir):
    # The instances form a fixed ladder (RED_LADDER), none filtered out,
    # and the run seed only orders them.  About half of them run over
    # budget, each one almost regardless of the machine, so a ladder
    # drawn afresh per seed would make the spread between runs measure
    # the draw.  A fixed ladder is also what "the largest instance
    # decided within budget" needs to be comparable between commits.
    # A run is whole passes over the ladder (one round).
    ladder = []
    for num_vars, count in RED_LADDER.items():
        rng = random.Random(RED_LADDER_SEED + num_vars)
        for index in range(count):
            ladder.append((num_vars, index, random_cnf(rng, num_vars)))
    random.Random(seed).shuffle(ladder)
    items = []
    for num_vars, index, clauses in ladder:
        m = len(clauses)
        sat = checks.brute_force_sat(num_vars, clauses)
        items.append(Item(
            id=(f"reduction vars={num_vars} index={index} clauses={m} "
                f"n={6 * num_vars + 9 * m} {'sat' if sat else 'unsat'}"),
            payload=dimacs(num_vars, clauses),
            meta={"vars": num_vars, "clauses": clauses, "sat": sat,
                  "round": 0}))
    return items


def reduction_run(mods, item):
    red_mod = mods.reduction
    f = red_mod.parse_cnf(item.payload)
    red = red_mod.build_reduction(f)
    assignment = red_mod.satisfying_assignment(f)
    packing = mods.packing.max_packing(red.graph)
    out = {"formula": f, "graph": red.graph, "r": red.r,
           "assignment": assignment, "packing": packing}
    if assignment is not None:
        generator = red_mod.assignment_to_generator(red, assignment)
        out["generator"] = generator
        out["extracted"] = red_mod.basis_to_assignment(red, generator)
        out["claims"] = red_mod.verify_claims(red, generator)
    return out


def reduction_check(item, out):
    num_vars = item.meta["vars"]
    clauses = item.meta["clauses"]
    sat = item.meta["sat"]
    m = len(clauses)
    f, g = out["formula"], out["graph"]
    if f.num_vars != num_vars or list(f.clauses) != clauses:
        return Verdict(False, "parsed formula differs from the input")
    if g.n != 6 * num_vars + 9 * m:
        return Verdict(False, f"reduction has {g.n} vertices")
    edges = sorted(g.edges)
    rho, witness = out["packing"].size, sorted(out["packing"].witness)
    if len(witness) != rho or not checks.is_two_packing(g.n, edges, witness):
        return Verdict(False, "packing witness is not a 2-packing of size rho")
    # Each gadget holds at most 2 (truth) or 1 (clause) packing vertices,
    # and reaching that is the same as satisfying the formula.
    target = 2 * num_vars + m
    if rho > target or (rho == target) != sat:
        return Verdict(False, f"rho = {rho}, 2*vars + clauses = {target}, "
                              f"satisfiable = {sat}")
    if (out["assignment"] is not None) != sat:
        return Verdict(False, f"DPLL disagrees: satisfiable = {sat}")
    if not sat:
        return Verdict(True)
    if not checks.satisfies(clauses, out["assignment"]):
        return Verdict(False, "DPLL assignment falsifies a clause")
    generator = sorted(out["generator"])
    if len(generator) != out["r"] or out["r"] != 4 * num_vars + 8 * m:
        return Verdict(False, f"generator size {len(generator)}, r {out['r']}")
    if not checks.is_generator_pairwise(edges, generator):
        return Verdict(False, "constructed set is not an incidence generator")
    if not checks.satisfies(clauses, out["extracted"]):
        return Verdict(False, "extracted assignment falsifies a clause")
    claims = out["claims"]
    if (not claims["ok"] or any(c < 4 for c in claims["truth_gadgets"])
            or any(c < 8 for c in claims["clause_gadgets"])):
        return Verdict(False, f"gadget quotas violated: {claims}")
    return Verdict(True)


WORKLOADS = {
    "corpus": Workload("corpus", 5.0, corpus_setup, corpus_run,
                       corpus_check, fresh=corpus_fresh),
    "cli": Workload("cli", 0.3, cli_setup, cli_run, cli_check),
    "reduction": Workload("reduction", 0.1, reduction_setup, reduction_run,
                          reduction_check),
}

