"""Record reference.json: the answers of the current incdim for every
graph in the cli workload's pool.

Run from the repository root, at the commit whose outputs later runs
are checked against:

    python3 perfbench/record_reference.py

Each request runs under CAP_S seconds; one that runs over stops the
recording.  Request timings go to standard error.
"""
from __future__ import annotations

import json
import shutil
import signal
import sys

import checks
import run
import workloads

CAP_S = 60.0


def run_requests(mods, meta):
    """{command or ecritical edge: (argv, edge, exit status, stdout)} for
    every request on one pool graph."""
    answers = {}
    for cmd, argv, edge in workloads.cli_requests(meta["path"],
                                                  meta["ecritical_edges"]):
        item = workloads.Item(cmd, argv)
        status, out, elapsed = run.run_with_budget(
            lambda: workloads.cli_run(mods, item), CAP_S)
        print(f"{meta['key']} n={meta['n']} {' '.join(argv[1:2] + argv[3:])}:"
              f" {status} {elapsed * 1000:.1f} ms", file=sys.stderr,
              flush=True)
        if status != "ok" or out[0] != 0:
            raise RuntimeError(f"{meta['key']} {argv}: {status} {out}")
        answers[cmd if edge is None else edge] = (argv, edge) + out
    return answers


def reference_entry(meta, answers):
    """The values and witness digests later runs are checked against."""
    res = {k: json.loads(a[3])["results"] for k, a in answers.items()}
    return {
        "text": meta["text"], "n": meta["n"], "m": len(meta["edges"]),
        "dim_I": res["dimi"]["value"],
        "dimi_witness": checks.digest([res["dimi"]["basis"],
                                       res["dimi"]["achieving_edge"]]),
        "rho": res["rho"]["rho"],
        "rho_witness": checks.digest(res["rho"]["witness"]),
        "witness_count": res["rho --all"]["witness_count"],
        "all_witnesses": checks.digest(res["rho --all"]["all_witnesses"]),
        "ecritical": {f"{u} {v}": {"size": res[(u, v)]["size"],
                                   "witness": checks.digest(
                                       res[(u, v)]["witness"])}
                      for u, v in meta["ecritical_edges"]},
    }


def write_reference(reference):
    """Write reference.json with one pool graph per line."""

    def compact(value):
        return json.dumps(value, separators=(",", ":"), sort_keys=True)

    head = [f"{compact(k)}:{compact(v)}"
            for k, v in sorted(reference.items()) if k != "graphs"]
    graphs = [f"{compact(k)}:{compact(v)}"
              for k, v in reference["graphs"].items()]
    with open(workloads.REFERENCE_PATH, "w") as fh:
        fh.write("{" + ",\n".join(head) + ',\n"graphs":{\n'
                 + ",\n".join(graphs) + "}}\n")


def main():
    sys.path.insert(0, str(run.SRC))
    signal.signal(signal.SIGALRM, run._alarm)
    mods = run.load_incdim()
    workdir = run.OUT / "reference-work"
    workdir.mkdir(parents=True, exist_ok=True)
    graphs = {}
    try:
        for cell in range(len(workloads.CLI_CELLS)):
            for k in range(workloads.CLI_POOL_PER_CELL):
                meta = workloads.cli_write_graph(mods, cell, k, str(workdir))
                graphs[meta["key"]] = reference_entry(
                    meta, run_requests(mods, meta))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    reference = {"commit": run.git_commit(), "cap_s": CAP_S,
                 "cells": [list(c) for c in workloads.CLI_CELLS],
                 "pool_per_cell": workloads.CLI_POOL_PER_CELL,
                 "graphs": graphs}
    write_reference(reference)


if __name__ == "__main__":
    main()
