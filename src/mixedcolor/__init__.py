"""Exact coloring of mixed graphs (edges and arcs) with structural-parameter
algorithms, chromatic bounds, cliquewidth expressions, and reduction-based
instance generators."""

from .errors import (
    BudgetExceeded,
    CapExceeded,
    ConflictingRelation,
    DirectedCycleError,
    DuplicateRelation,
    IncompleteColoring,
    InvalidCover,
    InvalidDecomposition,
    LoopError,
    MixedColorError,
    ParseError,
    UnsupportedClosureExpression,
    WidthCapExceeded,
)
from .graphs import (
    Coloring,
    Layering,
    MixedGraph,
    corresponding_digraph,
    layering,
    load_coloring,
    load_graph,
    maxrank,
    mixed_graph,
    save_coloring,
    save_graph,
    topological_order,
    transitive_closure,
    underlying_undirected,
)
from .partitions import (
    NeighborhoodPartition,
    clique_number,
    mixed_neighborhood_partition,
    ndm,
    ndu,
    undirected_neighborhood_partition,
    vertex_cover_number,
)
from .bounds import (
    ChromaticBounds,
    check_proper,
    chromatic_bounds,
    layering_coloring,
    lower_bounds,
    vc_coloring,
)
from .feasibility import (
    Constraint,
    FeasibilityProgram,
    propagate_bounds,
    solve_feasibility,
)
from .treedecomp import (
    TreeDecomposition,
    load_td,
    make_nice,
    min_fill_decomposition,
    save_td,
    validate_decomposition,
)
from .solvers import (
    SolveResult,
    TypeEndpointPreorder,
    branching_chi,
    branching_decide,
    brute_force_chi,
    brute_force_decide,
    chi_exact,
    maximal_proper_preorders,
    ndm_fpt_decide,
    tw_dp_decide,
)
from .expressions import (
    AddArc,
    AddEdge,
    Introduce,
    LabeledGraph,
    MixedExpression,
    Relabel,
    Union,
    directed_path_expression,
    evaluate,
    evaluate_arcs,
    format_expression,
    mixed_to_directed,
    ndm_expression,
    ndm_introduce_order,
    parse_expression,
    tc_expression,
    tournament_expression,
    width,
)
from .reductions import (
    ListColoringInstance,
    SchedulingInstance,
    SuperstringInstance,
    family_grid_arc_vertices,
    family_grid_hamiltonian,
    family_hamiltonian_tournament,
    family_layered_cliques,
    family_oriented_grid,
    family_oriented_star,
    family_tripartite,
    is_supersequence,
    list_coloring_exists,
    multicolored_clique_exists,
    random_mixed_graph,
    reduce_list_coloring,
    reduce_multicolored_clique,
    reduce_scheduling,
    reduce_superstring,
    schedule_exists,
    split_superstring_expression,
    superstring_coloring,
    superstring_exists,
)

__version__ = "0.1.0"
