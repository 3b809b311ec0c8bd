"""Exact coloring of mixed graphs (edges and arcs) with structural-parameter
algorithms, chromatic bounds, cliquewidth expressions, and reduction-based
instance generators.

Submodules load lazily (PEP 562): ``import mixedcolor`` imports none of them,
and the first read of a public name imports the one submodule that defines it.
"""

import importlib

# submodule -> the public names it defines, re-exported here
_EXPORTS = {
    "errors": """BudgetExceeded CapExceeded ConflictingRelation DirectedCycleError
        DuplicateRelation IncompleteColoring InvalidCover InvalidDecomposition LoopError
        MixedColorError ParseError UnsupportedClosureExpression WidthCapExceeded""",
    "graphs": """Coloring Layering MixedGraph corresponding_digraph layering load_coloring
        load_graph maxrank mixed_graph save_coloring save_graph topological_order
        transitive_closure underlying_undirected""",
    "partitions": """NeighborhoodPartition clique_number mixed_neighborhood_partition ndm
        ndu undirected_neighborhood_partition vertex_cover_number""",
    "bounds": """ChromaticBounds check_proper chromatic_bounds layering_coloring
        lower_bounds schedule_coloring vc_coloring""",
    "feasibility": "Constraint FeasibilityProgram propagate_bounds solve_feasibility",
    "treedecomp": """TreeDecomposition load_td make_nice min_fill_decomposition save_td
        validate_decomposition""",
    "solvers": """SolveResult TypeEndpointPreorder branching_chi branching_decide
        brute_force_chi brute_force_decide chi_exact maximal_proper_preorders
        ndm_fpt_decide tw_dp_decide""",
    "expressions": """AddArc AddEdge Introduce LabeledGraph MixedExpression Relabel Union
        directed_path_expression evaluate evaluate_arcs format_expression mixed_to_directed
        ndm_expression ndm_introduce_order parse_expression tc_expression
        tournament_expression width""",
    "reductions": """ListColoringInstance SchedulingInstance SuperstringInstance
        family_grid_arc_vertices family_grid_hamiltonian family_hamiltonian_tournament
        family_layered_cliques family_oriented_grid family_oriented_star family_tripartite
        is_supersequence list_coloring_exists multicolored_clique_exists random_mixed_graph
        reduce_list_coloring reduce_multicolored_clique reduce_scheduling reduce_superstring
        schedule_exists split_superstring_expression superstring_coloring superstring_exists""",
}
# every name, submodules included, -> the submodule that defines it
_HOME = {name: home for home, names in _EXPORTS.items() for name in (home, *names.split())}

__all__ = [name for names in _EXPORTS.values() for name in names.split()]
__version__ = "0.1.0"


def __getattr__(name):
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module("." + home, __name__)
    value = globals()[name] = module if name == home else getattr(module, name)
    return value


def __dir__():
    return sorted({*globals(), *_HOME})
