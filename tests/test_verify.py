from incdim import DimResult
from incdim import verify
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


def test_mutation_is_caught(monkeypatch):
    # an off-by-one structural solver must trip the theorem invariant
    def broken(g, rho_res=None):
        res = verify.dim_I_brute(g)
        return DimResult(value=res.value + 1, basis=res.basis,
                         method="structural")
    monkeypatch.setattr(verify, "dim_I_structural", broken)
    report = verify.run_suite(random_graphs(5, 10, seed=9),
                              with_metric=False)
    assert not verify.suite_passed(report)
    failed = [name for name, entry in report.items() if entry["failed"]]
    assert "theorem_nk" in failed
    entry = report["theorem_nk"]
    assert entry["counterexample"] is not None
    assert "brute=" in entry["counterexample"]
