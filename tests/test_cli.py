"""Command-line interface: reports, exit codes, certificates, generators."""

import json
import time

import pytest

from mixedcolor import solvers
from mixedcolor.cli import main
from mixedcolor.graphs import Coloring, set_bits


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
    # chi 2, but the schedule coloring takes 2, 1, 4, 3, 5 and gives 5 color 3,
    # so the ascent decides k = 2 (found by a seeded search of random graphs)
    p = tmp_path / "unscheduled.graph"
    p.write_text("p mixed 5 3 1\ne 1 3\ne 1 4\ne 4 5\na 2 5\n")
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

    @pytest.mark.parametrize("method", ["brute", "ndm", "branch"])
    def test_td_without_twdp_is_usage_error(self, capsys, path4, tmp_path, method):
        # bags that miss vertex 5: twdp rejects the file, no other method reads it
        td_file = tmp_path / "short.td"
        td_file.write_text("s td 3 2 5\nb 1 1 2\nb 2 2 3\nb 3 3 4\n1 2\n2 3\n")
        code, _, err = run(capsys, "solve", path4, "--method", "twdp", "--td", str(td_file))
        assert code == 2 and "InvalidDecomposition" in err
        code, out, err = run(capsys, "solve", path4, "--method", method, "--td", str(td_file))
        assert code == 2 and out == ""
        assert "--td needs --method twdp" in err


# the stats lines each route prints after its decision, sorted by key
ROUTE_STATS = {
    "brute": [],
    "twdp": ["max_table", "nodes"],
    "ndm": ["classes", "feasibility_nodes", "preorders"],
    "branch": ["nodes"],
}
EMPTY_STATS = {
    "brute": [],
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

    def test_chi_reports_its_bracket(self, capsys, unscheduled, method):
        code, out, _ = run(capsys, "solve", unscheduled, "--method", method)
        assert code == 0
        lines = report_lines(out)
        assert lines[3:-1] == [("chi", "2"), ("decides", "1"), ("first_k", "2"), ("upper", "3")]
        assert lines[-1][0] == "wall_time"


class TestBudget:
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
        # without --k the ascent's lower bound needs 2 clique-search nodes of the same budget
        argv = ["--k", k] if k else []
        code, out, err = run(capsys, "solve", unscheduled, "--method", "twdp", "--budget", "2", *argv)
        assert code == 2 and out == ""
        assert "BudgetExceeded: tree decomposition DP exceeded 2 table entries" in err

    def test_ndm_budget_counts_preorders(self, capsys, tmp_path):
        # k = 3 is refuted over 2 preorders of at most 4 positions, each
        # searched in one node; reaching them builds 7 end sets
        graph = tmp_path / "ndm48.graph"
        graph.write_text(NDM48)
        code, out, err = run(capsys, "solve", str(graph), "--method", "ndm", "--k", "3", "--budget", "8")
        assert code == 2 and out == ""
        assert "BudgetExceeded: preorder enumeration exceeded 8 preorders and end masks" in err
        code, out, _ = run(capsys, "solve", str(graph), "--method", "ndm", "--k", "3", "--budget", "9")
        assert code == 1
        assert (report_dict(out)["preorders"], report_dict(out)["feasibility_nodes"]) == ("2", "2")

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
        # edge 1-2, both with an out-neighbour: maxrank + 1 and chi_u are 2
        graph = tmp_path / "window.graph"
        graph.write_text("p mixed 4 1 2\ne 1 2\na 1 3\na 2 4\n")
        cert = str(tmp_path / "upper.txt")
        code, out, _ = run(capsys, "bounds", str(graph), "--cert", cert)
        fields = report_dict(out)
        assert code == 0
        assert (fields["lower"], fields["upper"], fields["lower_witness"]) == ("3", "3", "window_clique")
        code, out, _ = run(capsys, "verify", str(graph), cert)
        assert code == 0

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
