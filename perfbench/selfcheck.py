"""Self-check of the benchmark: one-second runs plus the answer checks.

Run from the repository root with ``python3 -m pytest -q perfbench/selfcheck.py``.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from mixedcolor import chi_exact  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args: str) -> tuple[dict, str]:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    ).stdout
    return json.loads(out.splitlines()[-1]), out


def test_workload_names_match_the_benchmark_file():
    assert sorted(WORKLOADS) == sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_short_run_prints_every_metric_with_its_unit(workload):
    result, out = bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "0")
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())
    for name, unit in dict(run.END_TO_END, **run.REPORTED_ONLY).items():
        assert f"  {name} = " in out and out.split(f"  {name} = ")[1].split("\n")[0].endswith(f" {unit}")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_prints_every_per_layer_metric(workload, tmp_path, capsys):
    out_file = tmp_path / "r.json"
    result, _ = bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "1",
                      "--out", str(out_file))
    assert result["correct"]
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert result["metrics"]["trace.overhead"]["value"] > 0
    record = json.loads(out_file.read_text())
    assert record["manifest"] and all(len(item["sha256"]) == 64 for item in record["manifest"])
    assert run.diff(str(out_file), str(out_file)) == 0
    changed = dict(record, counters=dict(record["counters"], **{"reference_chi.sum": -1}))
    other = tmp_path / "changed.json"
    other.write_text(json.dumps(changed))
    assert run.diff(str(out_file), str(other)) == 1
    assert "reference_chi.sum" in capsys.readouterr().out


def _solved(g):
    text = workloads.serialize(g)
    chi, witness = chi_exact(g, "branch")
    return text, oracle.reference_chi(text), workloads.summarize_solve((chi, witness))


def test_solve_check_accepts_a_right_answer_and_rejects_wrong_ones():
    from mixedcolor.reductions import family_tripartite

    text, chi, answer = _solved(family_tripartite(3))
    assert run.check_solve(oracle, text, chi, answer) is None
    assert run.check_solve(oracle, text, chi, dict(answer, chi=chi + 1)) is not None
    assert run.check_solve(oracle, text, chi + 1, answer) is not None
    n, edges, arcs = oracle.parse(text)
    u, v = edges[0]
    broken = dict(answer["colors"], **{str(u): answer["colors"][str(v)]})
    assert run.check_solve(oracle, text, chi, dict(answer, colors=broken)) is not None
    a, b = arcs[0]
    reversed_arc = dict(answer["colors"], **{str(a): answer["colors"][str(b)] + 1})
    assert run.check_solve(oracle, text, chi, dict(answer, colors=reversed_arc)) is not None


def test_reference_chi_matches_the_package_on_random_graphs():
    for i in range(10):
        g = workloads.gnm(f"selfcheck:{i}", 10, 12, 8)
        text, chi, answer = _solved(g)
        assert answer["chi"] == chi


def test_reference_chi_of_a_graph_that_misleads_highs_presolve():
    # with presolve on, HiGHS reports 8 for this 7-colorable graph
    g = workloads.relabel(workloads.gnm("twdp:12:38", 12, 20, 13), "1:twdp:12:38")
    assert oracle.reference_chi(workloads.serialize(g)) == 7


def test_analyze_check_rejects_broken_answers():
    g = workloads.gnm("selfcheck:analyze", 30, 36, 16)
    text = workloads.serialize(g)
    answer = workloads.summarize_analyze(workloads.analyze(text))
    answer = json.loads(json.dumps(answer))
    assert run.check_analyze(oracle, text, answer) is None
    assert run.check_analyze(oracle, text, dict(answer, lower=answer["upper"] + 1)) is not None
    assert run.check_analyze(oracle, text, dict(answer, maxrank=answer["maxrank"] + 1)) is not None
    colors = {v: 1 for v in answer["colors"]}
    assert run.check_analyze(oracle, text, dict(answer, colors=colors)) is not None
    merged = [answer["mixed"][0] + answer["mixed"][1]] + answer["mixed"][2:]
    assert run.check_analyze(oracle, text, dict(answer, mixed=merged)) is not None
    assert run.check_analyze(oracle, text, dict(answer, cover=answer["cover"][1:])) is not None

