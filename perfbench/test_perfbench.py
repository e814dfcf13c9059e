"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest perfbench
"""
from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
import time

import pytest

import checks
import record_reference
import run
import spans
import workloads

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    """Shrink every workload so a whole run takes a second or two."""
    monkeypatch.setattr(run, "OUT", tmp_path)
    monkeypatch.setattr(run, "SETUP_REPEATS", 2)
    monkeypatch.setattr(workloads, "CORPUS_GRAPHS_PER_SIZE", 3)
    monkeypatch.setattr(workloads, "CLI_CELLS", workloads.CLI_CELLS[:2])
    monkeypatch.setattr(workloads, "CLI_POOL_PER_CELL", 1)
    monkeypatch.setattr(workloads, "RED_LADDER", {3: 3, 4: 1})
    return tmp_path


@pytest.fixture
def mods():
    sys.path.insert(0, str(run.SRC))
    return run.load_incdim()


@pytest.fixture
def alarm():
    previous = signal.signal(signal.SIGALRM, run._alarm)
    yield
    signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_prints_every_metric(tiny, capsys, workload, trace):
    code = run.main(["--workload", workload, "--seed", "3",
                     "--seconds", "0.1", "--trace", str(trace)])
    lines = capsys.readouterr().out.splitlines()
    assert code == 0
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    table = "\n".join(lines[:-1])
    for m in declared + [{"name": "op_ms_p99", "unit": "ms"},
                         {"name": "failed_share", "unit": "ratio"}]:
        assert f"{m['name']} " in table and f" {m['unit']}\n" in table + "\n"


def test_run_without_sources_fails(tmp_path):
    shutil.copytree(run.HERE, tmp_path / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{run.HERE.name}/run.py", "--workload", "corpus",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_pairwise_generator_and_packing_checks():
    path = [(0, 1), (1, 2), (2, 3), (3, 4)]
    assert checks.is_generator_pairwise(path, [1, 2, 3])
    assert not checks.is_generator_pairwise(path, [1, 3])
    assert checks.is_two_packing(5, path, [0, 3])
    assert not checks.is_two_packing(5, path, [0, 2])
    assert not checks.is_two_packing(5, path, [0, 0])
    assert checks.brute_force_sat(3, [(1, 2, 3)])
    every_sign = [(a * 1, b * 2, c * 3) for a in (1, -1) for b in (1, -1)
                  for c in (1, -1)]
    assert not checks.brute_force_sat(3, every_sign)


def _cli_answers(mods, tmp_path):
    """Real cli outputs for one pool graph, and a reference recorded from
    them, so each test can corrupt one answer."""
    meta = workloads.cli_write_graph(mods, 0, 0, str(tmp_path))
    answers = record_reference.run_requests(mods, meta)
    return meta, answers, record_reference.reference_entry(meta, answers)


def _check(meta, answers, reference, key, corrupt=None):
    argv, edge, code, text = answers[key]
    report = json.loads(text)
    if corrupt:
        corrupt(report["results"])
    cmd = key if edge is None else "ecritical"
    item = workloads.Item(cmd, argv, dict(meta, cmd=cmd, edge=edge,
                                          reference=reference))
    return workloads.cli_check(item, (code, json.dumps(report)))


def test_cli_checker_accepts_the_real_answers(mods, tmp_path):
    meta, answers, reference = _cli_answers(mods, tmp_path)
    for key in answers:
        verdict = _check(meta, answers, reference, key)
        assert verdict.ok and not verdict.witness_changed, (key, verdict)


def test_cli_checker_rejects_corrupted_answers(mods, tmp_path):
    meta, answers, reference = _cli_answers(mods, tmp_path)

    def drop_basis_vertex(res):
        res["basis"] = res["basis"][1:]
        res["value"] -= 1

    def adjacent_witness(res):
        u, v = meta["edges"][0]
        res["witness"] = [u, v] + res["witness"][2:]

    def wrong_rho(res):
        res["rho"] += 1
        res["class"] = "CLASS_MINUS_ONE" if res["class"] == "CLASS_EXACT" \
            else "CLASS_EXACT"

    assert not _check(meta, answers, reference, "dimi", drop_basis_vertex).ok
    assert not _check(meta, answers, reference, "rho", adjacent_witness).ok
    assert not _check(meta, answers, reference, "classify", wrong_rho).ok
    edge = meta["ecritical_edges"][0]
    assert not _check(meta, answers, reference, edge, adjacent_witness).ok


def test_cli_checker_counts_a_changed_witness(mods, tmp_path):
    meta, answers, reference = _cli_answers(mods, tmp_path)
    reference["rho_witness"] = "another witness"
    verdict = _check(meta, answers, reference, "rho")
    assert verdict.ok and verdict.witness_changed


def test_reduction_checker_rejects_wrong_rho(mods):
    clauses = [(1, 2, 3), (-1, 2, -3), (1, -2, 3)]
    item = workloads.Item("sat", workloads.dimacs(3, clauses),
                          {"vars": 3, "clauses": clauses, "sat": True})
    out = workloads.reduction_run(mods, item)
    assert workloads.reduction_check(item, out).ok
    smaller = sorted(out["packing"].witness)[1:]
    out["packing"] = mods.packing.PackingResult(size=len(smaller),
                                                witness=frozenset(smaller))
    assert not workloads.reduction_check(item, out).ok


def test_over_budget_operation_lands_in_failed_share(alarm):
    wl = workloads.Workload("sleepy", 0.05, None,
                            lambda mods, item: time.sleep(1), None)
    items = [workloads.Item(f"sleep {i}", None) for i in range(2)]
    summary = run.summarise(run.measure(wl, None, items, count=2),
                            wl.budget_s)
    assert summary["over_budget"] == 2
    assert summary["failed_share"] == 1.0
    assert summary["ops_per_s"] == 0.0
    assert [e["id"] for e in summary["budget_report"]] == ["sleep 0",
                                                           "sleep 1"]


def test_self_time_subtracts_child_spans():
    table = spans.layer_table([
        ["verify.run_suite", 0.0, 0.010, -1, 0, "ok", None],
        ["packing.max_packing", 0.002, 0.005, 0, 0, "ok", None],
        ["graph.remove_edge", 0.006, 0.007, 0, 0, "ok", None],
    ])
    assert table["verify.run_suite"]["incl_ms"] == pytest.approx(10.0)
    assert table["verify.run_suite"]["self_ms"] == pytest.approx(6.0)
    assert table["packing.max_packing"]["self_ms"] == pytest.approx(3.0)
