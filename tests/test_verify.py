from incdim import DimResult
from incdim import verify
from incdim.cli import main
from incdim.corpus import all_labeled_graphs, random_graphs


def test_suite_passes_exhaustive_small():
    graphs = [g for n in (1, 2, 3, 4) for g in all_labeled_graphs(n)]
    report = verify.run_suite(graphs)
    assert verify.suite_passed(report)
    assert all(entry["checked"] == len(graphs)
               for entry in report.values())


def test_suite_passes_random():
    report = verify.run_suite(random_graphs(7, 60, seed=42))
    assert verify.suite_passed(report)


def test_suite_deterministic():
    r1 = verify.run_suite(random_graphs(6, 30, seed=7))
    r2 = verify.run_suite(random_graphs(6, 30, seed=7))
    assert r1 == r2


def _off_by_one(g):
    res = verify.dim_I_brute(g)
    return DimResult(value=res.value + 1, basis=res.basis,
                     method="structural")


def test_mutation_is_caught(monkeypatch):
    # an off-by-one structural solver must trip the theorem invariant
    monkeypatch.setattr(verify, "dim_I_structural", _off_by_one)
    report = verify.run_suite(random_graphs(5, 10, seed=9),
                              with_metric=False)
    assert not verify.suite_passed(report)
    failed = [name for name, entry in report.items() if entry["failed"]]
    assert "theorem_nk" in failed
    entry = report["theorem_nk"]
    assert entry["counterexample"] is not None
    assert "brute=" in entry["counterexample"]


def test_mutation_fails_the_plain_text_cli_report(capsys, monkeypatch):
    # The text report marks the theorem check FAIL with its counts and
    # first counterexample, and the command exits 1.
    monkeypatch.setattr(verify, "dim_I_structural", _off_by_one)
    code = main(["verify", "random", "-n", "5", "--count", "10",
                 "--seed", "9", "--no-metric"])
    assert code == 1
    out = capsys.readouterr().out
    assert "passed: False" in out
    assert ("theorem_nk: FAIL  (checked=10 failed=10 counterexample: "
            "brute=") in out
    assert "bound_two: pass  (checked=10)" in out
