"""Command-line interface: reports, exit codes, certificates, generators."""

import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from mixedcolor import cli, solvers
from mixedcolor.cli import main
from mixedcolor.graphs import Coloring, mixed_graph, set_bits
from mixedcolor.reductions import multicolored_clique_exists

ROOT = Path(__file__).resolve().parent.parent


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def report_dict(text):
    fields = {}
    for line in text.strip().splitlines():
        if "=" in line:
            key, value = line.split("=", 1)
            fields[key] = value
    return fields


# random_mixed_graph(Random(72), 8, 0.3, 0.3): chi 4
NDM48 = (
    "p mixed 8 9 9\n"
    "e 1 5\ne 1 8\ne 2 3\ne 2 4\ne 2 7\ne 2 8\ne 3 4\ne 4 5\ne 5 6\n"
    "a 1 2\na 3 5\na 4 7\na 4 8\na 5 7\na 6 2\na 6 4\na 6 7\na 6 8\n"
)


@pytest.fixture()
def path4(tmp_path):
    p = tmp_path / "path4.graph"
    p.write_text("p mixed 5 0 4\na 1 2\na 2 3\na 3 4\na 4 5\n")
    return str(p)


@pytest.fixture()
def unscheduled(tmp_path):
    # chi 4, but both schedule colorings use 5 colors, and the window search at k = 4
    # needs 8 nodes, past its cap of n = 6 in each round, so the budgeted search that
    # ends the bracket colors with 4 (found by a seeded search of random graphs)
    p = tmp_path / "unscheduled.graph"
    p.write_text(
        "p mixed 6 9 3\ne 1 3\ne 1 5\ne 1 6\ne 2 3\ne 2 4\ne 2 5\ne 2 6\ne 3 5\ne 3 6\na 2 1\na 4 3\na 4 5\n"
    )
    return str(p)


class TestSolve:
    def test_decide_yes(self, capsys, path4):
        code, out, _ = run(capsys, "solve", path4, "--k", "5", "--method", "branch")
        assert code == 0
        assert report_dict(out)["decision"] == "yes"

    def test_decide_no(self, capsys, path4):
        code, out, _ = run(capsys, "solve", path4, "--k", "4", "--method", "ndm")
        assert code == 1
        assert report_dict(out)["decision"] == "no"

    def test_chi_with_certificate(self, capsys, path4, tmp_path):
        cert = str(tmp_path / "cert.txt")
        code, out, _ = run(capsys, "solve", path4, "--method", "twdp", "--cert", cert)
        assert code == 0
        assert report_dict(out)["chi"] == "5"
        code, out, _ = run(capsys, "verify", path4, cert)
        assert code == 0
        assert report_dict(out)["proper"] == "yes"

    def test_all_methods_agree(self, capsys, path4):
        for method in ("brute", "twdp", "ndm", "branch"):
            code, out, _ = run(capsys, "solve", path4, "--method", method)
            assert code == 0
            assert report_dict(out)["chi"] == "5"

    def test_reports_identical_modulo_wall_time(self, capsys, path4):
        outs = []
        for _ in range(2):
            _, out, _ = run(capsys, "solve", path4, "--k", "5")
            fields = report_dict(out)
            fields.pop("wall_time", None)
            outs.append(fields)
        assert outs[0] == outs[1]

    def test_json_report(self, capsys, path4):
        code, out, _ = run(capsys, "--json", "solve", path4, "--k", "5")
        assert code == 0
        doc = json.loads(out)
        assert doc["decision"] == "yes" and doc["k"] == 5

    def test_dump_ilp(self, capsys, path4):
        code, out, _ = run(capsys, "solve", path4, "--k", "5", "--method", "ndm", "--dump-ilp")
        assert code == 0
        assert "# preorder 1" in out and "var c[1]" in out

    def test_dump_ilp_without_k_is_usage_error(self, capsys, path4):
        code, out, err = run(capsys, "solve", path4, "--method", "ndm", "--dump-ilp")
        assert code == 2 and out == ""
        assert "--dump-ilp needs --k" in err

    def test_dump_ilp_without_ndm_is_usage_error(self, capsys, path4):
        code, out, err = run(capsys, "solve", path4, "--k", "5", "--dump-ilp")
        assert code == 2 and out == ""
        assert "--dump-ilp needs --k and --method ndm" in err

    def test_dump_ilp_names_classes_past_64(self, capsys, tmp_path):
        # the 70 closure classes of a directed path have one preorder of 71 intervals
        graph = tmp_path / "path70.graph"
        graph.write_text("p mixed 70 0 69\n" + "".join(f"a {v} {v + 1}\n" for v in range(1, 70)))
        started = time.perf_counter()
        code, out, _ = run(capsys, "solve", str(graph), "--k", "70", "--method", "ndm", "--dump-ilp")
        assert time.perf_counter() - started < 2
        assert code == 0 and out.count("# preorder") == 1
        assert "var x[70,{70}] in [0,1]" in out and "x[70,{}]" not in out

    def test_dump_ilp_names_screened_preorders(self, capsys, tmp_path):
        graph = tmp_path / "ndm48.graph"
        graph.write_text(NDM48)
        code, out, _ = run(capsys, "solve", str(graph), "--k", "3", "--method", "ndm", "--dump-ilp")
        assert code == 1 and "# preorder" not in out and "var " not in out
        screened = [line for line in out.splitlines() if line.startswith("# screened ")]
        assert [line.split(" clique=")[1] for line in screened] == ["{4,5} needs 2 colors in 1 of 3 intervals"] * 2

    @pytest.mark.parametrize("text, k, budget", [
        (NDM48, "3", "8"),
        ("p mixed 8 0 4\na 1 2\na 3 4\na 5 6\na 7 8\n", "3", "43"),
    ], ids=["ndm48", "four_arcs"])
    def test_dump_ilp_follows_the_budget(self, capsys, tmp_path, text, k, budget):
        graph = tmp_path / "dump.graph"
        graph.write_text(text)
        code, out, err = run(
            capsys, "solve", str(graph), "--k", k, "--method", "ndm", "--dump-ilp", "--budget", budget
        )
        assert code == 2 and out.count("# preorder") <= int(budget)
        assert f"BudgetExceeded: preorder enumeration exceeded {budget} preorders and end masks" in err

    def test_dump_ilp_prints_the_rows_the_route_searches(self, capsys, tmp_path, monkeypatch):
        graph = str(tmp_path / "t4.graph")
        run(capsys, "gen", "tripartite", "4", "--out", graph)
        built, preorder_program = [], solvers.preorder_program
        monkeypatch.setattr(
            solvers, "preorder_program", lambda *args: built.append(preorder_program(*args)) or built[-1]
        )
        code, out, _ = run(capsys, "solve", graph, "--k", "3", "--method", "ndm", "--dump-ilp")
        assert code == 0
        blocks = out.split("# preorder ")[1:]
        assert len(built) == 2 * len(blocks) > 0  # the dump's programs, then the route's
        for block, prog in zip(blocks, built[len(blocks):]):
            lines = block.splitlines()
            names = [line.split()[1] for line in lines if line.startswith("var ")]
            assert names == [
                f"c[{i}]" if kind == "c" else "x[%d,{%s}]" % (i, ",".join(str(c + 1) for c in set_bits(mask[0])))
                for kind, i, *mask in prog.names
            ]
            assert sum(" <= " in line for line in lines) == len(prog.rows)

    def test_parse_error_exit_two(self, capsys, tmp_path):
        bad = tmp_path / "bad.graph"
        bad.write_text("p mixed 2 0 2\na 1 2\na 2 1\n")
        code, _, err = run(capsys, "solve", str(bad), "--k", "2")
        assert code == 2
        assert "DirectedCycleError" in err

    def test_budget_exceeded_exit_two(self, capsys, path4):
        code, _, err = run(
            capsys, "solve", path4, "--k", "5", "--method", "branch", "--budget", "1"
        )
        assert code == 2
        assert "BudgetExceeded" in err

    def test_deep_chain_branch(self, capsys, tmp_path):
        n = 1500
        chain = tmp_path / "chain.graph"
        chain.write_text(
            f"p mixed {n} 0 {n - 1}\n" + "".join(f"a {v} {v + 1}\n" for v in range(1, n))
        )
        code, out, _ = run(capsys, "solve", str(chain), "--method", "branch")
        assert code == 0
        assert report_dict(out)["chi"] == str(n)

    def test_deep_chain_bounds(self, capsys, tmp_path):
        n = 1500
        chain = tmp_path / "chain.graph"
        chain.write_text(
            f"p mixed {n} 0 {n - 1}\n" + "".join(f"a {v} {v + 1}\n" for v in range(1, n))
        )
        code, out, _ = run(capsys, "bounds", str(chain))
        assert code == 0
        fields = report_dict(out)
        assert (fields["lower"], fields["upper"]) == (str(n), str(n))

    @pytest.mark.parametrize(
        "exc",
        [AssertionError("broken"), IndexError("list index"), RecursionError("too deep"), MemoryError()],
        ids=lambda exc: type(exc).__name__,
    )
    def test_untyped_failure_exit_two(self, capsys, path4, monkeypatch, exc):
        def failing(g, k, budget):
            raise exc

        monkeypatch.setattr(solvers, "ndm_fpt_decide", failing)
        code, out, err = run(capsys, "solve", path4, "--k", "5", "--method", "ndm")
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert type(exc).__name__ in err

    def test_improper_witness_exit_two(self, capsys, path4, monkeypatch, tmp_path):
        def improper(g, k, budget):
            return solvers.SolveResult(True, Coloring({v: 1 for v in g.vertices}))

        monkeypatch.setattr(solvers, "ndm_fpt_decide", improper)
        cert = str(tmp_path / "cert.txt")
        code, _, err = run(capsys, "solve", path4, "--k", "5", "--method", "ndm", "--cert", cert)
        assert code == 2
        assert err == "error: AssertionError: solver produced an improper witness\n"

    def test_ndm_reports_feasibility_nodes(self, capsys, tmp_path):
        # the route solves on the transitive closure, where tripartite(4) has
        # 6 classes instead of 12; its one preorder is decided at the root
        graph = str(tmp_path / "t4.graph")
        run(capsys, "gen", "tripartite", "4", "--out", graph)
        code, out, _ = run(capsys, "solve", graph, "--k", "3", "--method", "ndm")
        fields = report_dict(out)
        assert code == 0 and fields["decision"] == "yes"
        assert (fields["preorders"], fields["feasibility_nodes"]) == ("1", "1")

    def test_bag_line_without_id_exit_two(self, capsys, path4, tmp_path):
        td_file = tmp_path / "bare.td"
        td_file.write_text("s td 1 1 5\nb\n")
        code, _, err = run(
            capsys, "solve", path4, "--k", "5", "--method", "twdp", "--td", str(td_file)
        )
        assert code == 2
        assert "ParseError" in err

    def test_given_tree_decomposition(self, capsys, path4, tmp_path):
        td_file = tmp_path / "path.td"
        td_file.write_text("s td 4 2 5\nb 1 1 2\nb 2 2 3\nb 3 3 4\nb 4 4 5\n1 2\n2 3\n3 4\n")
        code, out, _ = run(
            capsys, "solve", path4, "--k", "5", "--method", "twdp", "--td", str(td_file)
        )
        assert code == 0 and report_dict(out)["decision"] == "yes"
        code, _, _ = run(
            capsys, "solve", path4, "--k", "4", "--method", "twdp", "--td", str(td_file)
        )
        assert code == 1

    @pytest.mark.parametrize(
        "header, error",
        [("s td 1 9 99", "ParseError: line 1: header gives largest bag 9"),
         ("s td 1 5 99", "InvalidDecomposition: decomposition is for 99 vertices")],
    )
    def test_td_header_disagreeing_with_its_bags_or_graph_exit_two(self, capsys, path4, tmp_path, header, error):
        td_file = tmp_path / "one.td"
        td_file.write_text(header + "\nb 1 1 2 3 4 5\n")
        code, out, err = run(capsys, "solve", path4, "--k", "5", "--method", "twdp", "--td", str(td_file))
        assert code == 2 and out == ""
        assert error in err

    def test_td_with_a_stray_bag_vertex_exit_two(self, capsys, path4, tmp_path):
        # the bags cover 1..5; the fault is vertex 9, which the graph lacks
        td_file = tmp_path / "stray.td"
        td_file.write_text("s td 1 6 5\nb 1 1 2 3 4 5 9\n")
        code, out, err = run(capsys, "solve", path4, "--k", "5", "--method", "twdp", "--td", str(td_file))
        assert code == 2 and out == ""
        assert err == "error: InvalidDecomposition: bag vertex 9 is not a vertex of the graph\n"

    def test_td_without_bags_exit_two(self, capsys, path4, tmp_path):
        # no bags is width -1, as one empty bag is, so the header passes and
        # the decomposition check rejects the file
        td_file = tmp_path / "none.td"
        td_file.write_text("s td 0 0 5\n")
        code, out, err = run(capsys, "solve", path4, "--k", "5", "--method", "twdp", "--td", str(td_file))
        assert code == 2 and out == ""
        assert err == "error: InvalidDecomposition: decomposition has no bags\n"

    @pytest.mark.parametrize(
        "graph, td, message",
        [
            ("p mixed 2 1 0\ne 1 2\n", "s td 100000000 2 2\nb 1 1 2\n", "ParseError: bag ids must be 1..num_bags"),
            ("p mixed 100000000 0 0\n", None, "ParseError: line 1: 100000000 vertices, more than the 100000 allowed"),
        ],
        ids=["bag count", "vertex count"],
    )
    def test_header_counts_allocate_nothing(self, tmp_path, graph, td, message):
        # under a 1 GiB address-space cap a loader that allocated per announced
        # bag or vertex would stop with MemoryError instead of this message
        resource = pytest.importorskip("resource")
        graph_file = tmp_path / "g.graph"
        graph_file.write_text(graph)
        argv = ["solve", str(graph_file), "--k", "2", "--method", "twdp"]
        if td is not None:
            (tmp_path / "g.td").write_text(td)
            argv += ["--td", str(tmp_path / "g.td")]
        cap = 1 << 30
        code = (
            f"import resource, sys; resource.setrlimit(resource.RLIMIT_AS, ({cap}, {cap})); "
            "from mixedcolor.cli import main; sys.exit(main(sys.argv[1:]))"
        )
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        done = subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True, timeout=60)
        assert (done.returncode, done.stdout, done.stderr) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("method", ["brute", "ndm", "branch"])
    def test_td_without_twdp_is_usage_error(self, capsys, path4, tmp_path, method):
        # bags that miss vertex 5: twdp rejects the file, though the color windows
        # close path4's bracket and no decide runs; no other method reads it
        td_file = tmp_path / "short.td"
        td_file.write_text("s td 3 2 5\nb 1 1 2\nb 2 2 3\nb 3 3 4\n1 2\n2 3\n")
        code, _, err = run(capsys, "solve", path4, "--method", "twdp", "--td", str(td_file))
        assert code == 2 and "InvalidDecomposition" in err
        code, out, err = run(capsys, "solve", path4, "--method", method, "--td", str(td_file))
        assert code == 2 and out == ""
        assert "--td needs --method twdp" in err


# the stats lines each route prints after its decision, sorted by key
ROUTE_STATS = {
    "brute": ["steps"],
    "twdp": ["max_table", "nodes"],
    "ndm": ["classes", "feasibility_nodes", "preorders"],
    "branch": ["nodes"],
}
EMPTY_STATS = {
    "brute": [("steps", "0")],
    "twdp": [("max_table", "1"), ("nodes", "0")],
    "ndm": [("classes", "0"), ("feasibility_nodes", "0"), ("preorders", "0")],
    "branch": [("nodes", "0")],
}


def report_lines(text):
    return [tuple(line.split("=", 1)) for line in text.strip().splitlines()]


@pytest.mark.parametrize("method", sorted(ROUTE_STATS))
class TestRoutes:
    @pytest.mark.parametrize("k, code, decision", [(5, 0, "yes"), (4, 1, "no")])
    def test_decide_path(self, capsys, path4, method, k, code, decision):
        got, out, _ = run(capsys, "solve", path4, "--k", str(k), "--method", method)
        assert got == code
        keys = [key for key, _ in report_lines(out)]
        assert keys == ["command", "input", "input_sha256", "k", "decision", *ROUTE_STATS[method], "wall_time"]
        assert report_dict(out)["decision"] == decision

    @pytest.mark.parametrize("k", [0, 1])
    def test_decide_empty_graph(self, capsys, tmp_path, method, k):
        empty = tmp_path / "empty.graph"
        empty.write_text("p mixed 0 0 0\n")
        code, out, _ = run(capsys, "solve", str(empty), "--k", str(k), "--method", method)
        assert code == 0
        lines = report_lines(out)
        assert lines[:3] == [("command", "solve"), ("input", str(empty)), ("input_sha256", "e0590c8cff30272d")]
        assert lines[3:-1] == [("k", str(k)), ("decision", "yes"), *EMPTY_STATS[method]]
        assert lines[-1][0] == "wall_time"

    @pytest.mark.parametrize("text, k", [("p mixed 0 0 0\n", "-1"), ("p mixed 2 1 0\ne 1 2\n", "-2")])
    def test_negative_k_is_usage_error(self, capsys, tmp_path, method, text, k):
        graph = tmp_path / "small.graph"
        graph.write_text(text)
        code, out, err = run(capsys, "solve", str(graph), "--k", k, "--method", method)
        assert code == 2 and out == ""
        assert "--k: expected a non-negative integer" in err

    def test_chi_reports_its_bracket(self, capsys, tmp_path, unscheduled, method):
        # a budget that the bracket's search overruns but the route fits, so the ascent
        # decides the first k once: brute and ndm on ``unscheduled`` at 7 nodes, twdp
        # and branch on the paper's split reduction of ("00", "001") at k = 5 within 10**4
        if method in ("brute", "ndm"):
            graph, budget, ends = unscheduled, "7", [("chi", "4"), ("decides", "1"), ("first_k", "4")]
            bound, nodes, upper = "window_propagation", "13", "5"
        else:
            spec, graph = tmp_path / "split.json", str(tmp_path / "split.graph")
            spec.write_text(json.dumps({"strings": ["00", "001"], "k": 5}))
            assert run(capsys, "gen", "superstring", str(spec), "--split", "--out", graph)[0] == 0
            budget, ends = "10000", [("chi", "5"), ("decides", "1"), ("first_k", "5")]
            bound, nodes, upper = "window_clique", "10030", "6"
        code, out, _ = run(capsys, "solve", graph, "--method", method, "--budget", budget)
        assert code == 0
        lines = report_lines(out)
        assert lines[3:-1] == [*ends, ("lower_witness", bound), ("search_nodes", nodes), ("upper", upper)]
        assert lines[-1][0] == "wall_time"
        # at the default budget the search colors ``unscheduled`` with 4: no decide
        fields = report_dict(run(capsys, "solve", unscheduled, "--method", method)[1])
        assert (fields["chi"], fields["decides"], fields["upper"]) == ("4", "0", "4")


def test_method_choices_are_the_routes():
    # the parser lists the methods without importing the solvers
    assert cli.METHODS == solvers.METHODS


class TestBudget:
    def test_default_route_solves_an_arc_free_graph(self, capsys, tmp_path):
        # no arcs: both window search rounds give up, the budgeted search that ends the
        # bracket closes it at 7, so branch, like every route, decides nothing
        graph = str(tmp_path / "r30.graph")
        assert run(capsys, "gen", "random", "30", "0.5", "0", "--seed", "15", "--out", graph)[0] == 0
        code, out, _ = run(capsys, "solve", graph, "--budget", "100000")
        fields = report_dict(out)
        assert code == 0
        assert (fields["chi"], fields["decides"], fields["lower_witness"]) == ("7", "0", "window_search")

    def test_search_nodes_count_the_whole_bracket(self, capsys, tmp_path):
        # the two rounds spend their 30 nodes each and the budgeted search 87 more to
        # refute 6 and color with 7
        graph = str(tmp_path / "r24.graph")
        assert run(capsys, "gen", "random", "30", "0.5", "0", "--seed", "24", "--out", graph)[0] == 0
        code, out, _ = run(capsys, "solve", graph)
        fields = report_dict(out)
        assert code == 0
        assert (fields["chi"], fields["decides"], fields["search_nodes"]) == ("7", "0", "147")

    def test_branch_chi_budget_exceeded(self, capsys, unscheduled):
        code, out, err = run(capsys, "solve", unscheduled, "--method", "branch", "--budget", "1")
        assert code == 2 and out == ""
        assert "BudgetExceeded" in err

    @pytest.mark.parametrize("budget", ["0", "-3", "many"])
    def test_non_positive_budget_is_usage_error(self, capsys, path4, budget):
        code, out, err = run(capsys, "solve", path4, "--method", "branch", "--k", "5", "--budget", budget)
        assert code == 2 and out == ""
        assert "--budget: expected a positive integer" in err

    def test_budget_does_not_raise_brute_cap(self, capsys, tmp_path):
        graph = tmp_path / "edgeless11.graph"
        graph.write_text("p mixed 11 0 0\n")
        code, out, err = run(capsys, "solve", str(graph), "--method", "brute", "--budget", "20")
        assert code == 2 and out == ""
        assert "CapExceeded" in err

    def test_brute_budget_stops_backtracking(self, capsys, tmp_path):
        # the K4 comes last in the order, so refuting k = 3 backtracks over
        # the 3-colorings of the path before it
        graph = tmp_path / "path30_k4.graph"
        edges = [(v, v + 1) for v in range(1, 30)] + [(u, v) for u in range(31, 35) for v in range(u + 1, 35)]
        graph.write_text(f"p mixed 34 {len(edges)} 0\n" + "".join(f"e {u} {v}\n" for u, v in edges))
        started = time.perf_counter()
        code, out, err = run(capsys, "solve", str(graph), "--method", "brute", "--k", "3", "--budget", "1000")
        assert time.perf_counter() - started < 0.5
        assert code == 2 and out == ""
        assert "BudgetExceeded: brute force exceeded 1000 steps" in err

    @pytest.mark.parametrize("method", solvers.METHODS)
    def test_huge_k_answers_yes(self, capsys, tmp_path, method):
        # twdp clamps k to n: its first introduce table used to take every color up to k
        graph = tmp_path / "edge_arc.graph"
        graph.write_text("p mixed 3 1 1\ne 1 2\na 2 3\n")
        code, out, err = run(capsys, "solve", str(graph), "--k", "1000000000", "--method", method)
        assert code == 0 and "decision=yes" in out.splitlines()

    @pytest.mark.parametrize("k", [None, "5"])
    def test_twdp_budget_counts_table_entries(self, capsys, unscheduled, k):
        # without --k the ascent's lower bound needs 4 clique-search nodes of the same budget
        argv = ["--k", k] if k else []
        code, out, err = run(capsys, "solve", unscheduled, "--method", "twdp", "--budget", "4", *argv)
        assert code == 2 and out == ""
        assert "BudgetExceeded: tree decomposition DP exceeded 4 table entries" in err

    def test_ndm_budget_counts_preorders(self, capsys, tmp_path):
        # k = 3 is refuted over 2 preorders of at most 4 positions, which the
        # clique screen refutes unbuilt (classes 4 and 5 share an edge and
        # interval 2); reaching them builds 7 end sets
        graph = tmp_path / "ndm48.graph"
        graph.write_text(NDM48)
        code, out, err = run(capsys, "solve", str(graph), "--method", "ndm", "--k", "3", "--budget", "8")
        assert code == 2 and out == ""
        assert "BudgetExceeded: preorder enumeration exceeded 8 preorders and end masks" in err
        code, out, _ = run(capsys, "solve", str(graph), "--method", "ndm", "--k", "3", "--budget", "9")
        assert code == 1
        assert (report_dict(out)["preorders"], report_dict(out)["feasibility_nodes"]) == ("2", "0")

    def test_ndm_budget_counts_end_masks(self, capsys, tmp_path):
        # six sources, each with a private edge, point at vertex 13: its one
        # preorder ends the six together, so the dump builds that one end set
        # of the 12 source classes and yields the preorder within 2 units; a
        # budget of 1 stops the enumeration at the preorder, and the least
        # passing budget is set by the feasibility search's 67 nodes
        graph = tmp_path / "star.graph"
        graph.write_text(
            "p mixed 13 6 6\n"
            + "".join(f"e {v} {v + 6}\n" for v in range(1, 7))
            + "".join(f"a {v} 13\n" for v in range(1, 7))
        )
        argv = ["solve", str(graph), "--method", "ndm", "--k", "4", "--dump-ilp", "--budget"]
        code, out, err = run(capsys, *argv, "1")
        assert code == 2 and out.count("# preorder") == 0
        assert "BudgetExceeded: preorder enumeration exceeded 1 preorders and end masks" in err
        code, out, err = run(capsys, *argv, "66")
        assert code == 2 and out.count("# preorder") == 1
        assert "BudgetExceeded: feasibility search exceeded 66 nodes" in err
        code, out, _ = run(capsys, *argv, "67")
        assert code == 0 and out.count("# preorder") == 1 and report_dict(out)["preorders"] == "1"


class TestBoundsParams:
    def test_bounds(self, capsys, path4, tmp_path):
        cert = str(tmp_path / "upper.txt")
        code, out, _ = run(capsys, "bounds", path4, "--cert", cert)
        fields = report_dict(out)
        assert code == 0
        assert (fields["lower"], fields["upper"]) == ("5", "5")
        assert fields["lower_witness"] == "maxrank"
        code, out, _ = run(capsys, "verify", path4, cert)
        assert code == 0

    def test_bounds_window_clique(self, capsys, tmp_path):
        # edge 1-2, both into 3, then 3 -> 4: 3 needs two colours below it and one
        # above, so its window alone gives 4, where maxrank + 1 and chi_u are 3; the
        # propagation refutes every k below the windows, so it names the end
        graph = tmp_path / "window.graph"
        graph.write_text("p mixed 4 1 3\ne 1 2\na 1 3\na 2 3\na 3 4\n")
        cert = str(tmp_path / "upper.txt")
        code, out, _ = run(capsys, "bounds", str(graph), "--cert", cert)
        fields = report_dict(out)
        assert code == 0
        assert (fields["lower"], fields["upper"], fields["lower_witness"]) == ("4", "4", "window_propagation")
        code, out, _ = run(capsys, "verify", str(graph), cert)
        assert code == 0
        # a triangle: the windows give 1 and the propagation 2, one colour below the
        # schedule's 3, so the window search runs before the cliques and refutes 2
        graph = tmp_path / "triangle.graph"
        graph.write_text("p mixed 3 3 0\ne 1 2\ne 1 3\ne 2 3\n")
        code, out, _ = run(capsys, "bounds", str(graph))
        fields = report_dict(out)
        assert code == 0
        assert (fields["lower"], fields["upper"], fields["lower_witness"]) == ("3", "3", "window_search")
        # K5: the propagation's 2 lies CLIQUE_GAP or more below the schedule's 5, so the
        # cliques run first and give 5
        graph = tmp_path / "k5.graph"
        pairs = [(u, v) for u in range(1, 6) for v in range(u + 1, 6)]
        graph.write_text("p mixed 5 10 0\n" + "".join(f"e {u} {v}\n" for u, v in pairs))
        code, out, _ = run(capsys, "bounds", str(graph))
        fields = report_dict(out)
        assert code == 0
        assert (fields["lower"], fields["upper"], fields["lower_witness"]) == ("5", "5", "window_clique")

    def test_bounds_window_propagation(self, capsys, tmp_path):
        # arcs 1 -> 3 and 2 -> 4 into the edge 3 - 4: the greedy cliques stop at 2,
        # and at k = 2 both heads are fixed at 2, so the edge empties one of them
        graph = tmp_path / "propagation.graph"
        graph.write_text("p mixed 4 1 2\ne 3 4\na 1 3\na 2 4\n")
        code, out, _ = run(capsys, "bounds", str(graph))
        fields = report_dict(out)
        assert code == 0
        assert (fields["lower"], fields["upper"], fields["lower_witness"]) == ("3", "3", "window_propagation")

    def test_bounds_empty_graph(self, capsys, tmp_path):
        # no search runs, so the lower bound 0 is the windows alone
        graph = tmp_path / "empty.graph"
        graph.write_text("p mixed 0 0 0\n")
        code, out, _ = run(capsys, "bounds", str(graph))
        fields = report_dict(out)
        assert code == 0
        assert (fields["lower"], fields["upper"], fields["lower_witness"]) == ("0", "0", "window_propagation")

    def test_params_tripartite(self, capsys, tmp_path):
        out_file = str(tmp_path / "t2.graph")
        code, _, _ = run(capsys, "gen", "tripartite", "2", "--out", out_file)
        assert code == 0
        code, out, _ = run(capsys, "params", out_file)
        fields = report_dict(out)
        assert fields["ndm"] == "8"
        assert fields["ndu"] == "8"

    def test_params_reports_closure_ndm(self, capsys, tmp_path):
        out_file = str(tmp_path / "t6.graph")
        run(capsys, "gen", "tripartite", "6", "--out", out_file)
        code, out, _ = run(capsys, "params", out_file)
        fields = report_dict(out)
        assert code == 0
        assert (fields["ndm"], fields["ndm_closure"]) == ("16", "6")
        code, out, _ = run(capsys, "solve", out_file, "--k", "3", "--method", "ndm")
        assert code == 0 and report_dict(out)["classes"] == "6"

    def test_params_empty_graph(self, capsys, tmp_path):
        graph = tmp_path / "empty.graph"
        graph.write_text("p mixed 0 0 0\n")
        code, out, _ = run(capsys, "params", str(graph))
        fields = report_dict(out)
        assert code == 0
        assert (fields["maxrank"], fields["layers"]) == ("0", "0")

    def test_verify_rejects(self, capsys, path4, tmp_path):
        cert = tmp_path / "bad.txt"
        cert.write_text("1 1\n2 1\n3 2\n4 3\n5 4\n")
        code, out, _ = run(capsys, "verify", path4, str(cert))
        assert code == 1
        assert report_dict(out)["violation"] == "arc(1,2)"

    def test_verify_deep_chain(self, capsys, tmp_path):
        # a long sparse graph: each vertex's masks reach its largest neighbor id
        n = 1500
        chain, cert = tmp_path / "chain.graph", tmp_path / "cert.txt"
        chain.write_text(f"p mixed {n} 0 {n - 1}\n" + "".join(f"a {v} {v + 1}\n" for v in range(1, n)))
        cert.write_text("".join(f"{v} {v}\n" for v in range(1, n + 1)))
        code, out, _ = run(capsys, "verify", str(chain), str(cert))
        assert (code, report_dict(out)["proper"]) == (0, "yes")
        cert.write_text("".join(f"{v} {750 if v == 751 else v}\n" for v in range(1, n + 1)))
        code, out, _ = run(capsys, "verify", str(chain), str(cert))
        assert code == 1
        assert report_dict(out)["violation"] == "arc(750,751)"


    @pytest.mark.parametrize("cert, violation", [
        ("1 1\n2 2\n", "missing(3)"),
        ("1 1\n2 2\n3 3\n4 1\n", "extra(4)"),
        ("9 1\n1 1\n5 2\n2 2\n", "missing(3)"),
        ("3 3\n9 1\n1 1\n5 2\n2 2\n", "extra(5)"),
    ], ids=["missing", "extra", "missing_before_extra", "smallest_extra"])
    def test_verify_rejects_incomplete_certificate(self, capsys, tmp_path, cert, violation):
        graph = tmp_path / "edge_arc.graph"
        graph.write_text("p mixed 3 1 1\ne 1 2\na 2 3\n")
        cert_file = tmp_path / "cert.txt"
        cert_file.write_text(cert)
        code, out, err = run(capsys, "verify", str(graph), str(cert_file))
        assert code == 1 and err == ""
        fields = report_dict(out)
        assert (fields["proper"], fields["violation"]) == ("no", violation)


class TestOneRead:
    """``solve``, ``bounds`` and ``params`` take the graph and its digest from
    one read, and a CR or CRLF file reads as its LF form does under ``open``."""

    @pytest.mark.parametrize("argv", [["solve", "--k", "5"], ["solve", "--method", "twdp"], ["bounds"], ["params"]])
    def test_graph_file_opened_once(self, capsys, path4, monkeypatch, argv):
        opened = []

        def counting_open(file, *args, **kwargs):
            opened.append(file)
            return open(file, *args, **kwargs)

        monkeypatch.setattr(cli, "open", counting_open, raising=False)
        code, out, _ = run(capsys, argv[0], path4, *argv[1:])
        assert code == 0 and opened == [path4]
        with open(path4, "rb") as fh:
            assert report_dict(out)["input_sha256"] == hashlib.sha256(fh.read()).hexdigest()[:16]

    @pytest.mark.parametrize("command", ["solve", "bounds", "params"])
    def test_line_ends(self, capsys, tmp_path, command):
        text = "# a comment\np mixed 4 2 2  # header\n\ne 1 2\ne 3 4\na 2 3\na 4 1\n"
        reports = {}
        for name, end in [("lf", "\n"), ("crlf", "\r\n"), ("cr", "\r")]:
            graph = tmp_path / f"{name}.graph"
            graph.write_bytes(text.replace("\n", end).encode())
            code, out, _ = run(capsys, command, str(graph))
            fields = report_dict(out)
            del fields["input"], fields["input_sha256"]
            fields.pop("wall_time", None)
            reports[name] = (code, fields)
        assert reports["crlf"] == reports["lf"] == reports["cr"]

    def test_line_ends_in_errors(self, capsys, tmp_path):
        text = "# a comment\np mixed 3 1 1\n\ne 1 2\na 3 3\n"
        for end in ("\n", "\r\n", "\r"):
            graph = tmp_path / "loop.graph"
            graph.write_bytes(text.replace("\n", end).encode())
            code, out, err = run(capsys, "params", str(graph))
            assert (code, out, err) == (2, "", "error: LoopError: line 5: loop at vertex 3\n")


class TestGen:
    def test_family_round_trip(self, capsys, tmp_path):
        out_file = str(tmp_path / "g.graph")
        code, out, _ = run(capsys, "gen", "layered_cliques", "2", "3", "--out", out_file)
        assert code == 0
        code, out, _ = run(capsys, "solve", out_file, "--method", "branch")
        assert report_dict(out)["chi"] == "9"

    def test_random_seeded(self, capsys, tmp_path):
        a, b = str(tmp_path / "a.graph"), str(tmp_path / "b.graph")
        run(capsys, "gen", "random", "7", "0.4", "0.3", "--seed", "5", "--out", a)
        run(capsys, "gen", "random", "7", "0.4", "0.3", "--seed", "5", "--out", b)
        assert open(a).read() == open(b).read()

    @pytest.mark.parametrize(
        "edge_p, arc_p, message",
        [
            ("1.5", "0.2", "edge_p must lie in [0, 1], not 1.5"),
            ("0.5", "-0.2", "arc_p must lie in [0, 1], not -0.2"),
            ("0.8", "0.5", "edge_p + arc_p must be at most 1, not 1.3"),
        ],
    )
    def test_random_rejects_impossible_probabilities(self, capsys, tmp_path, edge_p, arc_p, message):
        out_file = tmp_path / "g.graph"
        code, out, err = run(capsys, "gen", "random", "5", edge_p, arc_p, "--out", str(out_file))
        assert (code, out, err) == (2, "", f"error: ValueError: {message}\n")
        assert not out_file.exists()

    def test_reduction_from_json(self, capsys, tmp_path):
        spec = tmp_path / "inst.json"
        spec.write_text(json.dumps({"strings": ["01", "100", "11"], "k": 4}))
        out_file = str(tmp_path / "fig2a.graph")
        code, out, _ = run(capsys, "gen", "superstring", str(spec), "--out", out_file)
        assert code == 0
        assert report_dict(out)["k"] == "4"
        code, out, _ = run(capsys, "solve", out_file, "--method", "brute")
        assert report_dict(out)["chi"] == "4"

    def test_scheduling_reduction(self, capsys, tmp_path):
        spec = tmp_path / "sched.json"
        spec.write_text(
            json.dumps(
                {
                    "tasks_m1": ["t1"],
                    "tasks_m2": ["t2", "t3"],
                    "precedence": [["t1", "t3"]],
                    "deadline": 2,
                }
            )
        )
        out_file = str(tmp_path / "pcs.graph")
        code, out, _ = run(capsys, "gen", "scheduling", str(spec), "--out", out_file)
        assert report_dict(out)["k"] == "8"
        code, _, _ = run(capsys, "solve", out_file, "--k", "8")
        assert code == 0

    @pytest.mark.parametrize("edges, exists", [([[1, 3], [2, 4], [1, 4]], True), ([[1, 2], [3, 4]], False)])
    def test_multicolored_clique_through_list_coloring(self, capsys, tmp_path, edges, exists):
        spec = tmp_path / "mcc.json"
        spec.write_text(json.dumps({"n": 4, "edges": edges, "classes": [[1, 2], [3, 4]]}))
        lists, graph = str(tmp_path / "lists.json"), str(tmp_path / "lc.graph")
        code, out, _ = run(capsys, "gen", "multicolored_clique", str(spec), "--out", lists)
        assert code == 0 and report_dict(out)["out"] == lists
        code, out, _ = run(capsys, "gen", "list_coloring", lists, "--out", graph)
        assert code == 0
        k = report_dict(out)["k"]
        assert k == "4"
        code, out, _ = run(capsys, "solve", graph, "--k", k)
        assert code == (0 if exists else 1)
        assert report_dict(out)["decision"] == ("yes" if exists else "no")
        assert multicolored_clique_exists(mixed_graph(4, edges), (frozenset({1, 2}), frozenset({3, 4}))) == exists

    @pytest.mark.parametrize("argv, error", [
        (["tripartite"], "tripartite takes 1 integer parameter(s)"),
        (["layered_cliques", "2"], "layered_cliques takes 2 integer parameter(s)"),
        (["random", "7", "0.4"], "random takes: n edge_p arc_p"),
        (["random", "7", "0.4", "0.3", "1"], "random takes: n edge_p arc_p"),
    ])
    def test_wrong_parameter_count(self, capsys, tmp_path, argv, error):
        out_file = tmp_path / "x.graph"
        code, out, err = run(capsys, "gen", *argv, "--out", str(out_file))
        assert code == 2 and out == "" and not out_file.exists()
        assert err == f"error: MixedColorError: {error}\n"

    def test_unknown_generator(self, capsys, tmp_path):
        code, _, err = run(capsys, "gen", "nonsense", "--out", str(tmp_path / "x"))
        assert code == 2

    @pytest.mark.parametrize("kind", ["superstring", "scheduling", "list_coloring", "multicolored_clique"])
    @pytest.mark.parametrize("paths", [0, 2])
    def test_reduction_needs_one_instance_path(self, capsys, tmp_path, kind, paths):
        spec = tmp_path / "inst.json"
        spec.write_text("{}")
        code, _, err = run(capsys, "gen", kind, *[str(spec)] * paths, "--out", str(tmp_path / "x"))
        assert code == 2
        assert err == f"error: MixedColorError: {kind} takes one instance JSON path\n"


class TestExpr:
    def test_eval_and_from_ndm(self, capsys, path4, tmp_path):
        expr_file = str(tmp_path / "p4.expr")
        code, out, _ = run(capsys, "expr", "from-ndm", path4, "--out", expr_file)
        assert code == 0
        graph_file = str(tmp_path / "back.graph")
        code, out, _ = run(capsys, "expr", "eval", expr_file, "--out", graph_file)
        fields = report_dict(out)
        assert code == 0
        assert (fields["n"], fields["arcs"]) == ("5", "4")

    def test_tc(self, capsys, tmp_path):
        expr_file = tmp_path / "p2.expr"
        expr_file.write_text("(arc 2 3 (union (arc 1 2 (union (intro 1) (intro 2))) (intro 3)))")
        out_file = str(tmp_path / "closed.expr")
        code, out, _ = run(capsys, "expr", "tc", str(expr_file), "--out", out_file)
        assert code == 0
        graph_file = str(tmp_path / "closed.graph")
        code, out, _ = run(capsys, "expr", "eval", out_file, "--out", graph_file)
        assert report_dict(out)["arcs"] == "3"
