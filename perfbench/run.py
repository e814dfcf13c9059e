"""incdim benchmark: seeded workloads measured end to end, and a traced
run that gives per-layer numbers.

Run from the repository root:

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py            # all workloads untraced, then traced

Each workload runs in one process as a closed loop with one client: the
next operation starts when the previous one has returned.  Operations
run under the workload's wall-time budget (SIGALRM); one that runs over
is stopped, charged its budget and listed in the budget report.  Every
output is checked (see checks.py and workloads.py).

With --trace 0 the run measures end-to-end metrics untraced.  With
--trace 1 it measures half the time untraced, then replays the same
operations with spans around incdim's public functions (spans.py) and
reports per-layer metrics and the tracing overhead.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  `failed` counts wrong outputs
and exceptions; over-budget operations are reported apart from it.
The exit status is 1 on any wrong output, 2 when incdim's sources are
not found.  Run records, budget reports and spans are written under
.perfbench_out/ in the repository root.
"""
from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

LAYERS = ("graph", "packing", "incidence", "metric", "reduction", "verify",
          "cli", "corpus")
SETUP_REPEATS = 11


class OverBudget(BaseException):
    """Raised by SIGALRM inside an operation that ran over its budget.

    A BaseException, so no `except Exception` in the program swallows it.
    """


def _alarm(signum, frame):
    raise OverBudget()


def run_with_budget(fn, budget_s):
    """Call fn under a wall-time budget.

    Returns (status, output, elapsed_s) with status "ok", "over" or
    "error" (output is then the traceback text).
    """
    start = perf_counter()
    try:
        try:
            signal.setitimer(signal.ITIMER_REAL, budget_s)
            out, status = fn(), "ok"
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except OverBudget:
        out, status = None, "over"
    except Exception:
        out, status = traceback.format_exc(), "error"
    return status, out, perf_counter() - start


def load_incdim():
    """Import incdim afresh from src/ and return its modules by layer."""
    for name in [m for m in sys.modules
                 if m == "incdim" or m.startswith("incdim.")]:
        del sys.modules[name]
    mods = {layer: importlib.import_module(f"incdim.{layer}")
            for layer in LAYERS}
    mods["incdim"] = sys.modules["incdim"]
    return SimpleNamespace(**mods)


def setup(wl, seed, workdir):
    """Import, input generation, file writing and reference loading."""
    mods = load_incdim()
    return mods, wl.setup(mods, seed, workdir)


@dataclass
class Record:
    id: str
    meta: dict
    status: str
    elapsed_s: float
    verdict: workloads.Verdict | None
    detail: str = ""


def _round(items, i):
    """Round of operation i: items cycle, and an item's meta may group
    it with its neighbours into one round."""
    return i // len(items), items[i % len(items)].meta.get("round",
                                                           i % len(items))


def measure(wl, mods, items, seconds=None, count=None,
            tracer=None):
    """Run whole rounds of operations until `seconds` have passed, or
    exactly `count` operations."""
    records = []
    deadline = perf_counter() + (seconds or 0)
    i = 0
    while True:
        if count is not None:
            if i == count:
                break
        elif (i and perf_counter() >= deadline
              and _round(items, i) != _round(items, i - 1)):
            break
        item = items[i % len(items)]
        if i >= len(items) and wl.fresh:
            item = wl.fresh(mods, item)
        if tracer:
            tracer.op = i
        status, out, elapsed = run_with_budget(
            lambda: wl.run(mods, item), wl.budget_s)
        if tracer:
            tracer.op = None
        verdict, detail = None, ""
        if status == "ok":
            try:
                verdict = wl.check(item, out)
            except Exception:
                verdict = workloads.Verdict(False, traceback.format_exc())
            detail = verdict.message
        elif status == "error":
            detail = out
        records.append(Record(item.id, item.meta, status, elapsed, verdict,
                              detail))
        i += 1
    return records


def percentile(sorted_values, q):
    """Nearest-rank percentile."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def summarise(records, budget_s):
    over = [r for r in records if r.status == "over"]
    errors = [r for r in records if r.status == "error"]
    wrong = [r for r in records if r.verdict and not r.verdict.ok]
    done = [r for r in records if r.verdict and r.verdict.ok]
    charged = sum(budget_s if r.status == "over" else r.elapsed_s
                  for r in records)
    lat = sorted(r.elapsed_s * 1000 for r in records)
    return {
        "attempted": len(records),
        "completed": len(done),
        "over_budget": len(over),
        "errors": len(errors),
        "wrong": len(wrong),
        "witnesses_changed": sum(r.verdict.witness_changed for r in done),
        "charged_s": charged,
        "ops_per_s": len(done) / charged if charged else 0.0,
        "op_ms_p50": statistics.median(lat) if lat else 0.0,
        "op_ms_p90": percentile(lat, 0.90) if lat else 0.0,
        "op_ms_p99": percentile(lat, 0.99) if lat else 0.0,
        "failed_share": ((len(over) + len(errors) + len(wrong)) / len(records)
                         if records else 0.0),
        "budget_report": [{"id": r.id, "elapsed_ms": r.elapsed_s * 1000}
                          for r in over],
        "failures": [{"id": r.id, "status": r.status,
                      "detail": r.detail} for r in errors + wrong],
    }


def git_commit():
    """Commit of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        ref_path = ROOT / ".git" / ref[5:]
        if ref_path.exists():
            return ref_path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def bench_digest():
    """Digest of the benchmark's own files: runs with the same digest ran
    the same inputs and checks."""
    h = hashlib.sha256()
    for path in sorted(HERE.iterdir()):
        if path.suffix in (".py", ".json"):
            h.update(path.name.encode() + path.read_bytes())
    return h.hexdigest()[:16]


def run_record(args, wl):
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu": cpu_model(), "commit": git_commit(),
            "benchmark": bench_digest(),
            "workload": wl.name, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "budget_s": wl.budget_s,
            "setup_repeats": SETUP_REPEATS}


def print_metrics(title, metrics):
    print(title)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<44} {value:>14.4f} {unit}")


def run_workload(args):
    wl = workloads.WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{wl.name}-{os.getpid()}"
    workdir.mkdir(exist_ok=True)
    signal.signal(signal.SIGALRM, _alarm)
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            items = None  # free the previous set-up's inputs first
            start = perf_counter()
            mods, items = setup(wl, args.seed, workdir)
            setup_times.append(perf_counter() - start)
        seconds = args.seconds / 2 if args.trace else args.seconds
        records = measure(wl, mods, items, seconds=seconds)
        summary = untraced = summarise(records, wl.budget_s)
        if args.trace:
            replay = [wl.fresh(mods, items[i % len(items)]) if wl.fresh
                      else items[i % len(items)] for i in range(len(records))]
            tracer = spans.Tracer()
            tracer.install(vars(mods))
            try:
                wl.setup(mods, args.seed, workdir)
                records = measure(wl, mods, replay,
                                  count=len(replay), tracer=tracer)
            finally:
                tracer.uninstall()
            summary = summarise(records, wl.budget_s)
            classify_ops = {i for i, r in enumerate(records)
                            if r.meta.get("cmd") == "classify"}
            metrics = spans.layer_metrics(tracer.spans, classify_ops)
            traced = summary["ops_per_s"]
            metrics["trace.overhead_pct"] = (
                (untraced["ops_per_s"] / traced - 1) * 100 if traced else 0.0,
                "%")
            metrics["check.witnesses_changed"] = (
                summary["witnesses_changed"], "count")
            tracer.write(OUT / f"{wl.name}-seed{args.seed}-spans.jsonl.gz")
        else:
            metrics = {
                "setup_s": (statistics.median(setup_times), "s"),
                "ops_per_s": (summary["ops_per_s"], "1/s"),
                "op_ms_p50": (summary["op_ms_p50"], "ms"),
                "op_ms_p90": (summary["op_ms_p90"], "ms"),
                "peak_rss_mb": (resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    record = run_record(args, wl)
    extra = {"op_ms_p99": (summary["op_ms_p99"], "ms"),
             "failed_share": (summary["failed_share"], "ratio"),
             "over_budget": (summary["over_budget"], "count"),
             "check.witnesses_changed": (summary["witnesses_changed"],
                                         "count")}
    extra = {k: v for k, v in extra.items() if k not in metrics}
    print(f"incdim benchmark: {json.dumps(record)}")
    print_metrics(f"{'per-layer' if args.trace else 'end-to-end'} metrics "
                  f"({summary['attempted']} operations)", metrics)
    print_metrics("also reported", extra)
    for entry in summary["budget_report"]:
        print(f"  over budget: {entry['id']} ({entry['elapsed_ms']:.0f} ms)")
    for entry in summary["failures"]:
        print(f"  FAILED ({entry['status']}): {entry['id']}\n"
              f"    {entry['detail'].strip()}")
    record.update(summary=summary,
                  setup_s=setup_times,
                  metrics={k: {"value": v, "unit": u}
                           for k, (v, u) in {**metrics, **extra}.items()})
    with open(OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}.json",
              "w") as fh:
        json.dump(record, fh, indent=1)

    phases = [untraced, summary] if args.trace else [summary]
    failed = sum(p["errors"] + p["wrong"] for p in phases)
    if args.trace:
        for entry in untraced["failures"]:
            print(f"  FAILED untraced ({entry['status']}): {entry['id']}\n"
                  f"    {entry['detail'].strip()}")
    result = {"correct": failed == 0,
              "attempted": sum(p["attempted"] for p in phases),
              "failed": failed,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def run_all(args):
    """Every workload untraced, then every workload traced, each in its
    own process so peak memory is the workload's own."""
    code = 0
    for trace in (0, 1):
        for name in workloads.WORKLOADS:
            cmd = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  text=True)
            lines = proc.stdout.splitlines()
            print(f"== {name} (trace {trace})")
            print("\n".join(lines[:-1]))
            code = code or proc.returncode
    return code


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=["all", *workloads.WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "incdim" / "__init__.py").is_file():
        print(f"error: incdim sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
