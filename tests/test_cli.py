"""Command-line interface: reports, exit codes, certificates, generators."""

import json

import pytest

from mixedcolor.cli import main


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


@pytest.fixture()
def path4(tmp_path):
    p = tmp_path / "path4.graph"
    p.write_text("p mixed 5 0 4\na 1 2\na 2 3\na 3 4\na 4 5\n")
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

    def test_params_tripartite(self, capsys, tmp_path):
        out_file = str(tmp_path / "t2.graph")
        code, _, _ = run(capsys, "gen", "tripartite", "2", "--out", out_file)
        assert code == 0
        code, out, _ = run(capsys, "params", out_file)
        fields = report_dict(out)
        assert fields["ndm"] == "8"
        assert fields["ndu"] == "8"

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
