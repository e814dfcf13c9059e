import argparse
import io
import json
import os
import random
import subprocess
import sys
import time

import pytest

import incdim
from incdim import generate_family, is_incidence_generator, write_edge_list
from incdim.corpus import random_tree
from incdim.graph import FAMILIES
from incdim import cli
from incdim.cli import main

from .conftest import oracle_tree_domination


@pytest.fixture
def p8_file(tmp_path):
    path = tmp_path / "p8.txt"
    write_edge_list(generate_family("path", 8), path)
    return str(path)


@pytest.fixture
def k2_file(tmp_path):
    path = tmp_path / "k2.txt"
    path.write_text("2 1\n0 1\n")
    return str(path)


@pytest.fixture
def figure1_file(tmp_path):
    path = tmp_path / "fig1.txt"
    path.write_text("5 4\n0 1\n1 2\n1 4\n2 3\n")
    return str(path)


def run_json(capsys, argv):
    code = main(["--json"] + argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_dimi_auto(capsys, p8_file):
    code, report = run_json(capsys, ["dimi", p8_file])
    assert code == 0
    assert report["results"]["value"] == 4
    assert report["results"]["method"] == "structural"


def test_graph_from_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("3 2\n0 1\n1 2\n"))
    code, report = run_json(capsys, ["dimi", "-"])
    assert code == 0
    assert report["results"]["value"] == 1
    assert report["inputs"]["graph"] == "-"


def test_dimi_k2(capsys, k2_file):
    code, report = run_json(capsys, ["dimi", k2_file, "--method", "brute"])
    assert code == 0
    assert report["results"]["value"] == 0


def test_dimi_plain_text(capsys, p8_file):
    assert main(["dimi", p8_file]) == 0
    out = capsys.readouterr().out
    assert "value" in out and "4" in out


def test_dimi_formula_method_rejected(capsys, p8_file):
    with pytest.raises(SystemExit) as exc:
        main(["dimi", p8_file, "--method", "formula"])
    assert exc.value.code == 2
    assert "invalid choice: 'formula'" in capsys.readouterr().err


def test_dimi_formula_command(capsys):
    code, report = run_json(capsys, ["dimi-formula", "path", "8"])
    assert code == 0 and report["results"]["value"] == 4


def test_malformed_file(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("3 1\n0 zzz\n")
    code = main(["dimi", str(path)])
    assert code == 2
    assert "line 2" in capsys.readouterr().err


def test_rho(capsys, figure1_file):
    code, report = run_json(capsys, ["rho", figure1_file, "--all"])
    assert code == 0
    assert report["results"]["rho"] == 2
    assert [0, 3] in report["results"]["all_witnesses"]


def test_back_to_back_calls_share_no_options(capsys, figure1_file):
    # Repeated calls in one process: no flag of a call may reach the next.
    code, report = run_json(capsys, ["rho", figure1_file, "--all"])
    assert code == 0 and report["results"]["witness_count"] >= 1
    assert main(["rho", figure1_file]) == 0
    out = capsys.readouterr().out
    assert out.startswith("command: rho\n") and "witness_count" not in out
    code, report = run_json(capsys, ["dimi", figure1_file, "--method",
                                     "brute", "--full-search"])
    assert code == 0 and report["results"]["method"] == "brute"
    code, report = run_json(capsys, ["dimi", figure1_file])
    assert code == 0 and report["inputs"]["method"] == "structural"
    assert report["results"]["method"] == "structural"


# The six commands that read a graph, as (command, arguments after the
# graph path); each is a valid request on the figure-1 graph.
GRAPH_REQUESTS = [
    ("dimi", []), ("dimi", ["--method", "structural"]),
    ("dimi", ["--method", "brute"]),
    ("dimi", ["--method", "brute", "--full-search"]),
    ("rho", []), ("rho", ["--all"]), ("ecritical", ["0", "1"]),
    ("dima", []), ("dime", []), ("classify", [])]


@pytest.mark.parametrize("text", ["0 0\n", "1 0\n", "5 0\n", "2 1\n0 1\n"])
def test_graph_commands_answer_small_and_edgeless_graphs(capsys, tmp_path,
                                                         text):
    path = tmp_path / "g.txt"
    path.write_text(text)
    edgeless = text.split()[1] == "0"
    for command, extra in GRAPH_REQUESTS:
        code = main(["--json", command, str(path), *extra])
        captured = capsys.readouterr()
        assert code in (0, 2), (command, extra, captured.err)
        if command == "dimi":
            assert code == 0
            if edgeless:
                assert json.loads(captured.out)["results"]["value"] == 0


@pytest.mark.parametrize("command, extra", GRAPH_REQUESTS)
@pytest.mark.parametrize("source", ["file", "stdin"])
def test_graph_commands_report_size_and_time_last(capsys, monkeypatch,
                                                  figure1_file, command,
                                                  extra, source):
    with open(figure1_file) as fh:
        text = fh.read()
    path = figure1_file if source == "file" else "-"
    argv = [command, path, *extra]
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code, report = run_json(capsys, argv)
    assert code == 0 and report["inputs"]["graph"] == path
    results = report["results"]
    assert (results["n"], results["m"]) == (5, 4)
    assert 0 <= results["wall_time_s"] < 10
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1] == f"  graph: {path}"
    keys = [line.split(":")[0].strip() for line in lines[-3:]]
    assert keys == ["n", "m", "wall_time_s"]


def test_readme_cli_lines_parse():
    # Every command in README's CLI block is one the parser accepts.
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "README.md")) as fh:
        readme = fh.read()
    block = readme.split("## CLI", 1)[1].split("```sh", 1)[1]
    block = block.split("```", 1)[0]
    lines = [line.split("#", 1)[0].split("<", 1)[0].split()
             for line in block.splitlines()]
    lines = [words for words in lines if words]
    assert len(lines) >= 10
    parser = cli.build_parser()
    for words in lines:
        assert words[0] == "incdim"
        parser.parse_args(words[1:])


def test_rho_needs_no_recursion(capsys, tmp_path):
    # 1500 vertices, beyond the default recursion limit: the conflict
    # graph is edgeless, so the exact route takes every vertex at once.
    path = tmp_path / "edgeless.txt"
    path.write_text("1500 0\n")
    code, report = run_json(capsys, ["rho", str(path)])
    assert code == 0
    assert report["results"]["rho"] == 1500
    assert report["results"]["witness"] == list(range(1500))


def test_rho_and_dimi_answer_on_a_1000_vertex_tree(capsys, tmp_path):
    # The square of a tree is chordal, so both commands take the exact
    # route; the chain-bound search gives no answer here in 20 s.
    g = random_tree(1000, random.Random(0))
    path = tmp_path / "tree.txt"
    write_edge_list(g, path)
    rho = oracle_tree_domination(g)
    started = time.perf_counter()
    code, report = run_json(capsys, ["rho", str(path)])
    assert code == 0 and time.perf_counter() - started < 2
    assert report["results"]["rho"] == rho
    started = time.perf_counter()
    code, report = run_json(capsys, ["dimi", str(path)])
    assert code == 0 and time.perf_counter() - started < 2
    value, basis = report["results"]["value"], report["results"]["basis"]
    assert is_incidence_generator(g, basis)
    assert g.n - rho - 1 <= value == len(basis) <= g.n - rho


def test_import_leaves_networkx_unloaded():
    # networkx serves only the tree enumeration in incdim.corpus and
    # takes several times longer to import than all of incdim, so the
    # package and its CLI must not load it at import time.
    src = os.path.dirname(os.path.dirname(incdim.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, incdim, incdim.cli; print('networkx' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True).stdout
    assert out == "False\n"


def test_parser_is_built_once_per_process(capsys, monkeypatch, figure1_file):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli.build_parser.cache_clear()
    try:
        assert main(["rho", figure1_file]) == 0
        tree = len(built)
        for argv in (["--json", "rho", figure1_file, "--all"],
                     ["dimi", figure1_file], ["classify", figure1_file]):
            assert main(argv) == 0
    finally:
        cli.build_parser.cache_clear()
    assert tree > 1 and len(built) == tree


def test_usage_error_leaves_next_call_correct(capsys, figure1_file):
    with pytest.raises(SystemExit) as exc:
        main(["rho"])
    assert exc.value.code == 2
    assert "the following arguments are required: graph" in \
        capsys.readouterr().err
    code, report = run_json(capsys, ["rho", figure1_file, "--all"])
    assert code == 0
    assert report["inputs"] == {"graph": figure1_file}
    assert report["results"]["rho"] == 2
    assert [0, 3] in report["results"]["all_witnesses"]


def test_internal_error_is_one_line_exit_3(capsys, monkeypatch, p8_file):
    from incdim import incidence

    def broken(g):
        raise AssertionError("structural basis failed\nthe generator check")

    monkeypatch.setattr(incidence, "dim_I_structural", broken)
    assert main(["dimi", p8_file]) == 3
    err = capsys.readouterr().err
    assert err == ("error: internal: AssertionError: structural basis "
                   "failed the generator check\n")


def test_ecritical(capsys, figure1_file):
    code, report = run_json(capsys, ["ecritical", figure1_file, "0", "1"])
    assert code == 0
    assert report["results"]["size"] == 2


def test_dima_dime(capsys, p8_file):
    code, report = run_json(capsys, ["dima", p8_file])
    assert code == 0 and report["results"]["value"] >= 1
    code, report = run_json(capsys, ["dime", p8_file])
    assert code == 0 and report["results"]["value"] == 1


def test_classify(capsys, tmp_path):
    path = tmp_path / "c7.txt"
    write_edge_list(generate_family("cycle", 7), path)
    code, report = run_json(capsys, ["classify", str(path)])
    assert code == 0
    assert report["results"]["class"] == "CLASS_MINUS_ONE"
    assert report["results"]["dim_I"] == 4


def test_gen(capsys, tmp_path):
    out = tmp_path / "grn.txt"
    code, report = run_json(capsys, ["gen", "grn", "3", "7",
                                     "-o", str(out)])
    assert code == 0
    assert report["results"] == {"n": 7, "m": 7}
    assert out.exists()


def test_gen_invalid_params(capsys, tmp_path):
    code = main(["gen", "grn", "3", "8", "-o", str(tmp_path / "x.txt")])
    assert code == 2


@pytest.mark.parametrize("count", range(4))
@pytest.mark.parametrize("command, family", [
    *(("gen", family) for family in sorted(FAMILIES)),
    *(("dimi-formula", family)
      for family in ("complete", "path", "cycle", "complete_bipartite"))])
def test_family_arity_is_a_clean_error(capsys, tmp_path, command, family,
                                       count):
    argv = [command, family] + ["3", "7", "5"][:count]
    if command == "gen":
        argv += ["-o", str(tmp_path / "x.g")]
    try:
        code = main(argv)
    except SystemExit as exc:    # argparse: no parameter at all
        code = exc.code
    err = capsys.readouterr().err
    assert code in (0, 2), err
    if code == 2 and count:
        assert err.startswith(("error: family parameters invalid: ",
                               "error: formula domain violated: ")), err
        assert family in err


def test_reduce_and_extract(capsys, tmp_path):
    cnf = tmp_path / "f.cnf"
    cnf.write_text("p cnf 3 1\n-1 -2 3 0\n")
    out = tmp_path / "red.txt"
    code, report = run_json(capsys, ["reduce", str(cnf), "-o", str(out)])
    assert code == 0
    assert report["results"]["n"] == 27 and report["results"]["r"] == 20
    labels_file = report["results"]["labels_file"]
    sidecar = json.loads(open(labels_file).read())
    assert sidecar["r"] == 20

    # build the tight basis for the all-true assignment and extract it
    from incdim import (assignment_to_generator, build_reduction, CnfFormula)
    red = build_reduction(CnfFormula(num_vars=3, clauses=((-1, -2, 3),)))
    s = assignment_to_generator(red, {1: True, 2: True, 3: True})
    code, report = run_json(capsys, ["extract", labels_file,
                                     ",".join(map(str, sorted(s)))])
    assert code == 0
    assert report["results"]["satisfies_formula"]
    assert report["results"]["truth_gadget_counts"] == [4, 4, 4]


def test_extract_rejects_loose_set(capsys, tmp_path):
    cnf = tmp_path / "f.cnf"
    cnf.write_text("p cnf 3 1\n1 2 3 0\n")
    out = tmp_path / "red.txt"
    main(["reduce", str(cnf), "-o", str(out)])
    capsys.readouterr()
    code = main(["extract", str(out) + ".labels.json", "0,1,2"])
    assert code == 2
    assert "not a tight basis" in capsys.readouterr().err


@pytest.mark.parametrize("members", [
    [[1]] + list(range(1, 20)),
    list(range(19)) + [1.5],
    [f"v{i}" for i in range(20)],
    [True] + list(range(2, 21)),
    {"0": 1},
])
def test_extract_rejects_malformed_set_file(capsys, tmp_path, members):
    cnf = tmp_path / "f.cnf"
    cnf.write_text("p cnf 3 1\n-1 -2 3 0\n")
    out = tmp_path / "red.txt"
    main(["reduce", str(cnf), "-o", str(out)])
    capsys.readouterr()
    set_file = tmp_path / "set.json"
    set_file.write_text(json.dumps(members))
    assert main(["extract", str(out) + ".labels.json", str(set_file)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "not a JSON list of vertex indices" in err


@pytest.mark.parametrize("sidecar", [
    {"r": 20, "clauses": [[-1, -2, 3]]},
    {"num_vars": 3},
    {"num_vars": 2, "clauses": [[-1, -2, 3]]},
    [3, [[-1, -2, 3]]],
])
def test_extract_rejects_malformed_sidecar(capsys, tmp_path, sidecar):
    labels = tmp_path / "red.txt.labels.json"
    labels.write_text(json.dumps(sidecar))
    assert main(["extract", str(labels), "0,1,2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "not a labels file" in err


def test_verify_exhaustive(capsys):
    code, report = run_json(capsys, ["verify", "exhaustive", "-n", "4"])
    assert code == 0
    assert report["results"]["passed"]


def test_verify_random_deterministic(capsys):
    code1, r1 = run_json(capsys, ["verify", "random", "-n", "7",
                                  "--count", "25", "--seed", "42"])
    code2, r2 = run_json(capsys, ["verify", "random", "-n", "7",
                                  "--count", "25", "--seed", "42"])
    assert code1 == code2 == 0
    r1["results"].pop("wall_time_s")
    r2["results"].pop("wall_time_s")
    assert r1 == r2


def test_verify_random_needs_seed(capsys):
    assert main(["verify", "random", "-n", "7"]) == 2


def test_verify_exhaustive_n7_needs_slow(capsys):
    assert main(["verify", "exhaustive", "-n", "7"]) == 2
    assert main(["verify", "exhaustive", "-n", "8"]) == 2
    assert capsys.readouterr().err.splitlines()[-1] == (
        "error: exhaustive corpus is limited to n <= 7")


@pytest.mark.parametrize("argv", [
    ["verify", "random", "-n", "5", "--count", "-2", "--seed", "1"],
    ["verify", "random", "-n", "5", "--count", "0", "--seed", "1"],
    ["verify", "exhaustive", "-n", "-1"],
    ["verify", "exhaustive", "-n", "0"],
])
def test_verify_rejects_an_empty_corpus(capsys, argv):
    # A suite that checks no graph must not report passed: true.
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("flags", [["--all"], []])
def test_rho_rejects_negative_witness_cap(capsys, figure1_file, flags):
    assert main(["rho", figure1_file, "--witness-cap", "-1"] + flags) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --witness-cap must be non-negative\n"

