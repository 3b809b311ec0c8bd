"""Cold start: ``import mixedcolor`` loads no submodule until a name is read,
the CLI commands solve, bounds, params and verify load neither expressions
nor reductions, and gen does not load expressions. Each check runs in a fresh interpreter, since
this process has already imported everything."""

import json
import os
import subprocess
import sys
from pathlib import Path

from mixedcolor.graphs import mixed_graph, save_graph

SRC = Path(__file__).resolve().parent.parent / "src"

# the package's public names, by the submodule that defines them
EXPORTS = {
    "errors": [
        "BudgetExceeded", "CapExceeded", "ConflictingRelation", "DirectedCycleError",
        "DuplicateRelation", "IncompleteColoring", "InvalidCover", "InvalidDecomposition",
        "LoopError", "MixedColorError", "ParseError", "UnsupportedClosureExpression",
        "WidthCapExceeded",
    ],
    "graphs": [
        "Coloring", "Layering", "MixedGraph", "corresponding_digraph", "layering",
        "load_coloring", "load_graph", "maxrank", "mixed_graph", "save_coloring", "save_graph",
        "topological_order", "transitive_closure", "underlying_undirected",
    ],
    "partitions": [
        "NeighborhoodPartition", "clique_number", "mixed_neighborhood_partition", "ndm", "ndu",
        "undirected_neighborhood_partition", "vertex_cover_number",
    ],
    "bounds": [
        "ChromaticBounds", "check_proper", "chromatic_bounds", "layering_coloring",
        "lower_bounds", "schedule_coloring", "vc_coloring",
    ],
    "feasibility": ["Constraint", "FeasibilityProgram", "propagate_bounds", "solve_feasibility"],
    "treedecomp": [
        "TreeDecomposition", "load_td", "make_nice", "min_fill_decomposition", "save_td",
        "validate_decomposition",
    ],
    "solvers": [
        "SolveResult", "TypeEndpointPreorder", "branching_chi", "branching_decide",
        "brute_force_chi", "brute_force_decide", "chi_exact", "maximal_proper_preorders",
        "ndm_fpt_decide", "tw_dp_decide",
    ],
    "expressions": [
        "AddArc", "AddEdge", "Introduce", "LabeledGraph", "MixedExpression", "Relabel", "Union",
        "directed_path_expression", "evaluate", "evaluate_arcs", "format_expression",
        "mixed_to_directed", "ndm_expression", "ndm_introduce_order", "parse_expression",
        "tc_expression", "tournament_expression", "width",
    ],
    "reductions": [
        "ListColoringInstance", "SchedulingInstance", "SuperstringInstance",
        "family_grid_arc_vertices", "family_grid_hamiltonian", "family_hamiltonian_tournament",
        "family_layered_cliques", "family_oriented_grid", "family_oriented_star",
        "family_tripartite", "is_supersequence", "list_coloring_exists",
        "multicolored_clique_exists", "random_mixed_graph", "reduce_list_coloring",
        "reduce_multicolored_clique", "reduce_scheduling", "reduce_superstring",
        "schedule_exists", "split_superstring_expression", "superstring_coloring",
        "superstring_exists",
    ],
}
NAMES = [name for names in EXPORTS.values() for name in names]

LOADED = "print(json.dumps(sorted(m for m in sys.modules if m.startswith('mixedcolor'))))"


def run_python(code, *args):
    """The last stdout line of ``code`` run in a fresh interpreter, read as JSON."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", "import json, sys\n" + code, *args],
        capture_output=True, text=True, env=env, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def test_the_import_loads_no_submodule():
    assert run_python("import mixedcolor\n" + LOADED) == ["mixedcolor"]


def test_a_name_loads_only_its_own_submodule():
    loaded = run_python("from mixedcolor import ParseError\n" + LOADED)
    assert loaded == ["mixedcolor", "mixedcolor.errors"]


def test_solve_bounds_params_and_verify_skip_expressions_and_reductions(tmp_path):
    path, cert = tmp_path / "g.txt", tmp_path / "c.txt"
    with open(path, "w", encoding="utf-8") as fh:
        save_graph(mixed_graph(4, edges=[(1, 2), (3, 4)], arcs=[(2, 3), (1, 4)]), fh)
    code = (
        "from mixedcolor.cli import main\n"
        "g, c = sys.argv[1:]\n"
        "runs = (['solve', g, '--cert', c], ['bounds', g], ['params', g], ['verify', g, c])\n"
        "codes = [main(argv) for argv in runs]\n"
        "print(json.dumps([codes, sorted(m for m in sys.modules if m.startswith('mixedcolor'))]))"
    )
    codes, loaded = run_python(code, str(path), str(cert))
    assert codes == [0, 0, 0, 0]
    assert "mixedcolor.solvers" in loaded
    assert "mixedcolor.expressions" not in loaded
    assert "mixedcolor.reductions" not in loaded


def test_gen_skips_expressions(tmp_path):
    code = (
        "from mixedcolor.cli import main\n"
        "code = main(['gen', 'random', '12', '0.3', '0.2', '--seed', '1', '--out', sys.argv[1]])\n"
        "print(json.dumps([code, sorted(m for m in sys.modules if m.startswith('mixedcolor'))]))"
    )
    code, loaded = run_python(code, str(tmp_path / "g.txt"))
    assert code == 0
    assert "mixedcolor.reductions" in loaded
    assert "mixedcolor.expressions" not in loaded


def test_all_names_the_public_api():
    names = run_python("import mixedcolor\nprint(json.dumps(mixedcolor.__all__))")
    assert len(NAMES) == len(set(NAMES)) == 101
    assert sorted(names) == sorted(NAMES)


def test_each_name_is_its_submodules_object():
    code = (
        "import importlib, mixedcolor\n"
        "homes = json.loads(sys.argv[1])\n"
        "print(json.dumps(sorted(name for home, names in homes.items() for name in names\n"
        "    if getattr(mixedcolor, name) is not getattr(importlib.import_module('mixedcolor.' + home), name))))"
    )
    assert run_python(code, json.dumps(EXPORTS)) == []


def test_submodules_stay_attributes_of_the_package():
    code = "import mixedcolor\nprint(json.dumps(mixedcolor.solvers.__name__))"
    assert run_python(code) == "mixedcolor.solvers"


def test_dir_and_star_import_cover_all():
    code = (
        "import mixedcolor\n"
        "listed = dir(mixedcolor)\n"
        "scope = {}\n"
        "exec('from mixedcolor import *', scope)\n"
        "print(json.dumps([listed, sorted(scope)]))"
    )
    listed, bound = run_python(code)
    assert "__all__" in listed
    assert set(NAMES) <= set(listed)
    assert set(EXPORTS) <= set(listed)
    # __all__ leaves out the submodule names, which a star import bound while
    # the package imported every submodule eagerly
    assert set(bound) - {"__builtins__"} == set(NAMES)


def test_an_unknown_name_raises_attribute_error():
    code = (
        "import mixedcolor\n"
        "try:\n"
        "    mixedcolor.no_such_name\n"
        "except AttributeError as exc:\n"
        "    print(json.dumps(str(exc)))"
    )
    assert run_python(code) == "module 'mixedcolor' has no attribute 'no_such_name'"
