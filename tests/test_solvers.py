"""The four exact deciders, their agreement, and the preorder machinery."""

import pytest

from mixedcolor import (
    InvalidDecomposition,
    TreeDecomposition,
    branching_chi,
    branching_decide,
    brute_force_chi,
    brute_force_decide,
    check_proper,
    chi_exact,
    clique_number,
    maximal_proper_preorders,
    min_fill_decomposition,
    mixed_graph,
    ndm_fpt_decide,
    ndu,
    tw_dp_decide,
)
from mixedcolor.errors import DEFAULT_NODE_BUDGET, BudgetExceeded, CapExceeded
from mixedcolor.feasibility import search
from mixedcolor.solvers import (
    TypeEndpointPreorder,
    class_structure,
    coloring_from_preorder_solution,
    _Subsets,
    maximal_independent_sets,
    preorder_program,
)
from mixedcolor.reductions import (
    SchedulingInstance,
    family_layered_cliques,
    family_tripartite,
    random_mixed_graph,
    reduce_scheduling,
)
from mixedcolor.treedecomp import load_td, make_nice

import importlib
import inspect
import io
import math
import pkgutil
import random
import time

import mixedcolor
from mixedcolor import bounds, solvers
from subgraphs import induced_subgraph
from test_chi_u_properties import grotzsch


def directed_path(length):
    return mixed_graph(length + 1, arcs=[(i, i + 1) for i in range(1, length + 1)])


def tournament(n):
    return mixed_graph(n, arcs=[(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)])


def triangle():
    return mixed_graph(3, edges=[(1, 2), (2, 3), (1, 3)])


class TestBruteForce:
    def test_directed_path_length_four(self):
        assert brute_force_chi(directed_path(4))[0] == 5

    def test_triangle(self):
        assert brute_force_chi(triangle())[0] == 3

    def test_cap(self):
        with pytest.raises(CapExceeded):
            brute_force_chi(mixed_graph(11))

    def test_scheduling_figure_decided(self):
        inst = SchedulingInstance(("t1",), ("t2", "t3"), (("t1", "t3"),), 2)
        g, k = reduce_scheduling(inst)
        assert k == 8
        chi, witness = brute_force_chi(g, cap=14)
        assert chi <= 8
        assert check_proper(g, witness)[0]

    def test_witness_minimal(self, small_corpus):
        for g in small_corpus[:30]:
            if g.n > 8:
                continue
            chi, witness = brute_force_chi(g)
            assert check_proper(g, witness)[0]
            assert witness.max_color() <= chi
            if chi > 0:
                assert brute_force_decide(g, chi - 1) is None

    def test_long_undirected_path(self):
        # one search level per vertex, with no Python recursion
        g = mixed_graph(1500, edges=[(i, i + 1) for i in range(1, 1500)])
        witness = brute_force_decide(g, 2)
        assert check_proper(g, witness)[0] and witness.max_color() == 2
        assert brute_force_decide(g, 1) is None


class TestTreewidthDP:
    def test_directed_path_with_given_decomposition(self):
        g = directed_path(4)
        text = "s td 4 2 5\nb 1 1 2\nb 2 2 3\nb 3 3 4\nb 4 4 5\n1 2\n2 3\n3 4\n"
        td = load_td(io.StringIO(text))
        assert td.width == 1
        assert tw_dp_decide(g, make_nice(td), 5).decision
        assert not tw_dp_decide(g, make_nice(td), 4).decision

    def test_k_equals_n_always_yes(self, small_corpus):
        for g in small_corpus[:25]:
            if g.n == 0:
                continue
            td = min_fill_decomposition(g)
            result = tw_dp_decide(g, make_nice(td), g.n)
            assert result.decision
            assert check_proper(g, result.witness)[0]

    def test_invalid_decomposition_rejected(self):
        g = mixed_graph(3, edges=[(1, 2), (2, 3)])
        td = TreeDecomposition(3, (frozenset({1, 2}),), ())
        with pytest.raises(InvalidDecomposition):
            solvers.ROUTES["twdp"](g, td, DEFAULT_NODE_BUDGET)

    def test_table_size_bound(self, small_corpus):
        for g in small_corpus[:25]:
            if g.n == 0:
                continue
            td = min_fill_decomposition(g)
            k = max(1, g.n - 1)
            result = tw_dp_decide(g, make_nice(td), k)
            assert result.stats["max_table"] <= k ** (td.width + 1)

    @pytest.mark.parametrize(
        "k, decision, nodes, max_table",
        [(8, False, 0, 0), (9, False, 2, 1), (12, True, 5_146, 576)],
        ids=("k8", "k9", "k12"),
    )
    def test_pinned_tables(self, k, decision, nodes, max_table):
        # the tables the windowed DP builds; a faster kernel must build the
        # same ones. The windows are 1..k-8 on the first layer, 5..k-4 on
        # the second and 9..k on the third: k = 8 leaves the middle layer no
        # color, and k = 9 leaves one color per layer, so the second vertex
        # of a clique empties its table.
        g = family_layered_cliques(2, 4)
        result = tw_dp_decide(g, make_nice(min_fill_decomposition(g)), k)
        assert result.decision == decision
        assert (result.stats["nodes"], result.stats["max_table"]) == (nodes, max_table)
        if decision:
            assert check_proper(g, result.witness)[0]

    def test_long_undirected_path(self):
        n = 1500
        g = mixed_graph(n, edges=[(i, i + 1) for i in range(1, n)])
        bags = tuple(frozenset({i, i + 1}) for i in range(1, n))
        td = TreeDecomposition(n, bags, tuple((i, i + 1) for i in range(n - 2)))
        result = tw_dp_decide(g, make_nice(td), 2)
        assert result.decision
        assert check_proper(g, result.witness)[0]
        assert result.witness.max_color() == 2
        assert not tw_dp_decide(g, make_nice(td), 1).decision


class TestNdmFpt:
    def test_short_path(self):
        assert ndm_fpt_decide(directed_path(2), 3).decision
        assert not ndm_fpt_decide(directed_path(2), 2).decision

    def test_tournament(self):
        for n in (2, 4, 6):
            assert ndm_fpt_decide(tournament(n), n).decision
            assert not ndm_fpt_decide(tournament(n), n - 1).decision

    def test_witness_proper(self, small_corpus):
        for g in small_corpus[:30]:
            if not 0 < g.n <= 8:
                continue
            chi, _ = brute_force_chi(g)
            result = ndm_fpt_decide(g, chi)
            assert result.decision
            assert check_proper(g, result.witness)[0]
            assert result.witness.max_color() <= chi

    def test_merged_graph_agrees(self, small_corpus):
        # collapsing each independent class to one vertex must not change
        # any decision
        for g in small_corpus[:20]:
            if not 0 < g.n <= 7:
                continue
            struct = class_structure(g)
            keep = []
            for members, indep in zip(struct.members, struct.independent):
                keep.extend(members[:1] if indep else members)
            merged, _ = induced_subgraph(g, keep)
            for k in (1, 2, g.n):
                assert ndm_fpt_decide(g, k).decision == ndm_fpt_decide(merged, k).decision


def reference_preorders(m, class_arcs, max_ell=None):
    """The preorders, in order, and the budget units of the filter rule.

    At each position before the last it tries every nonempty subset of the
    open classes, by ascending mask over the sorted open classes, and keeps
    one that starts some class and in which every class has an out-neighbor
    among those starts; at the last position it tries only the open
    in-neighbors of every unstarted class. Each subset tried and each
    preorder found is one unit.
    """
    max_ell = 2 * m if max_ell is None else max_ell
    ins = [{i for i, j in class_arcs if j == c} for c in range(m)]
    outs = [{j for i, j in class_arcs if i == c} for c in range(m)]
    found, units = [], 0

    def walk(t, closed, open_, unstarted, p_minus, p_plus):
        nonlocal units
        if t + bool(unstarted) > max_ell:
            return
        if not unstarted:
            units += 1
            p_plus = [t if c in open_ else p for c, p in enumerate(p_plus)]
            found.append(TypeEndpointPreorder(t, tuple(p_minus), tuple(p_plus)))
            return
        ordered = sorted(open_)
        if t + 1 < max_ell:
            tries = [{c for b, c in enumerate(ordered) if mask >> b & 1} for mask in range(1, 1 << len(ordered))]
        else:
            tries = [open_ & set().union(*[ins[c] for c in unstarted])]
        for ends in tries:
            units += 1
            starts = {c for c in unstarted if ins[c] <= closed | ends}
            if starts and all(outs[c] & starts for c in ends):
                walk(
                    t + 1, closed | ends, (open_ - ends) | starts, unstarted - starts,
                    [t if c in starts else p for c, p in enumerate(p_minus)],
                    [t if c in ends else p for c, p in enumerate(p_plus)],
                )

    if m:
        sources = {c for c in range(m) if not ins[c]}
        walk(2, set(), sources, set(range(m)) - sources, [int(c in sources) for c in range(m)], [0] * m)
    return found, units


class TestPreorders:
    def test_all_enumerated_are_proper(self, small_corpus):
        for g in small_corpus[:30]:
            if g.n == 0:
                continue
            struct = class_structure(g)
            m = len(struct.sizes)
            count = 0
            for pre in maximal_proper_preorders(m, struct.class_arcs):
                count += 1
                assert pre.is_proper(struct.class_arcs)
                assert pre.ell <= 2 * m
                assert all(1 <= a < b <= pre.ell for a, b in zip(pre.p_minus, pre.p_plus))
                # surjectivity: every position hosts an endpoint
                used = set(pre.p_minus) | set(pre.p_plus)
                assert used == set(range(1, pre.ell + 1))
            assert count <= math.factorial(2 * m) * 2 ** (2 * m)

    def test_single_class(self):
        pres = list(maximal_proper_preorders(1, frozenset()))
        assert pres == [TypeEndpointPreorder(2, (1,), (2,))]

    def test_chain_has_single_preorder(self):
        arcs = frozenset({(0, 1), (1, 2)})
        pres = list(maximal_proper_preorders(3, arcs))
        assert pres == [TypeEndpointPreorder(4, (1, 2, 3), (2, 3, 4))]

    def test_long_chain(self):
        # the 1500-vertex directed path has 1500 classes, one start and one
        # end per position; the enumeration must not recurse per class
        struct = class_structure(directed_path(1499))
        m = len(struct.sizes)
        assert m == 1500
        # the path's own arcs generate the closure's 1,124,250 class arcs
        assert len(struct.class_arcs) == 1499
        pres = list(maximal_proper_preorders(m, struct.class_arcs))
        assert pres == [TypeEndpointPreorder(m + 1, tuple(range(1, m + 1)), tuple(range(2, m + 2)))]

    def test_two_independent_arcs_three_interleavings(self):
        arcs = frozenset({(0, 1), (2, 3)})
        assert len(list(maximal_proper_preorders(4, arcs))) == 3

    def test_end_masks_count_against_the_budget(self):
        # classes 0..11 are sources and only 0..5 point at class 12: the one
        # end set built is class 12's open in-neighbors 0..5, and with the
        # one preorder that makes 2 units of work
        arcs = frozenset((c, 12) for c in range(6))
        assert len(list(maximal_proper_preorders(13, arcs, budget=2))) == 1
        with pytest.raises(BudgetExceeded, match="exceeded 1 preorders and end masks"):
            list(maximal_proper_preorders(13, arcs, budget=1))

    def test_end_sets_are_built_within_the_budget(self):
        # 24 disjoint arcs at k = 3: position 2 has 2^24 unions of the heads'
        # tail sets, but the first preorder needs one end set there and one
        # at position 3, and a budget of 100 must stop the enumeration after
        # about 100 end sets, not after all of them are built
        arcs = frozenset((2 * i, 2 * i + 1) for i in range(24))
        start = time.process_time()
        first = next(maximal_proper_preorders(48, arcs, 4, budget=3))
        with pytest.raises(BudgetExceeded):
            list(maximal_proper_preorders(48, arcs, 4, budget=100))
        assert ndm_fpt_decide(mixed_graph(48, arcs=[(2 * i + 1, 2 * i + 2) for i in range(24)]), 3, budget=100).decision
        assert time.process_time() - start < 1
        assert first.ell == 4 and first.p_minus[:2] == (1, 2) and first.p_plus[:2] == (2, 4)

    def test_same_preorders_in_the_same_order_as_the_filter_rule(self):
        # every ndm witness depends on the order; the end sets built must
        # also never cost more units than the filter rule's subsets tried
        rng = random.Random(2201)
        for _ in range(1000):
            m = rng.randint(0, 9)
            density = rng.choice([0.1, 0.2, 0.3, 0.4, 0.5])
            rank = rng.sample(range(m), m)
            arcs = frozenset(
                (i, j) if rank[i] < rank[j] else (j, i)
                for i in range(m) for j in range(i + 1, m) if rng.random() < density
            )
            for max_ell in (None, 2, 3, m, m + 1, 2 * m):
                expected, units = reference_preorders(m, arcs, max_ell)
                assert list(maximal_proper_preorders(m, arcs, max_ell, budget=units)) == expected, (m, arcs, max_ell)

    def test_maximal_enumeration_equals_full_enumeration(self):
        # the restricted enumeration must reach the same decision as trying
        # every proper weak order of the endpoint tokens
        import random

        def ordered_set_partitions(items):
            if not items:
                yield []
                return
            first, rest = items[0], items[1:]
            for part in ordered_set_partitions(rest):
                for i in range(len(part)):
                    yield part[:i] + [part[i] | {first}] + part[i + 1:]
                for i in range(len(part) + 1):
                    yield part[:i] + [{first}] + part[i:]

        def all_proper(m, class_arcs):
            tokens = [(c, s) for c in range(m) for s in ("-", "+")]
            for blocks in ordered_set_partitions(tokens):
                p_minus = [0] * m
                p_plus = [0] * m
                for pos, block in enumerate(blocks, start=1):
                    for c, s in block:
                        if s == "-":
                            p_minus[c] = pos
                        else:
                            p_plus[c] = pos
                pre = TypeEndpointPreorder(len(blocks), tuple(p_minus), tuple(p_plus))
                if pre.is_proper(class_arcs):
                    yield pre

        rng = random.Random(4242)
        for _ in range(15):
            m = rng.randint(1, 3)
            sizes = tuple(rng.randint(1, 3) for _ in range(m))
            perm = list(range(m))
            rng.shuffle(perm)
            edges, arcs = set(), set()
            for i in range(m):
                for j in range(i + 1, m):
                    r = rng.random()
                    if r < 0.3:
                        edges.add(frozenset((i, j)))
                    elif r < 0.6:
                        arcs.add((i, j) if perm[i] < perm[j] else (j, i))
            edges, arcs = frozenset(edges), frozenset(arcs)
            subsets = _Subsets(m, edges)
            for k in range(1, sum(sizes) + 2):
                full = any(
                    search(preorder_program(pre, sizes, subsets, k)) is not None
                    for pre in all_proper(m, arcs)
                )
                restricted = any(
                    search(preorder_program(pre, sizes, subsets, k)) is not None
                    for pre in maximal_proper_preorders(m, arcs)
                )
                assert full == restricted, (sizes, sorted(edges), sorted(arcs), k)

    def test_interval_figure_program(self):
        # four clique types, one arc C1 -> C2, edges C3 - C4 and C1 - C3; the
        # depicted preorder has six endpoints with p+(C1) = 4 = p-(C2)
        g = mixed_graph(
            8,
            edges=[(1, 2), (3, 4), (5, 6), (7, 8)]
            + [(5, 7), (5, 8), (6, 7), (6, 8)]
            + [(1, 5), (1, 6), (2, 5), (2, 6)],
            arcs=[(1, 3), (1, 4), (2, 3), (2, 4)],
        )
        struct = class_structure(g)
        assert struct.sizes == (2, 2, 2, 2)
        assert struct.class_arcs == {(0, 1)}
        assert struct.class_edges == {frozenset({2, 3}), frozenset({0, 2})}
        pre = TypeEndpointPreorder(6, (1, 4, 2, 3), (4, 6, 5, 6))
        assert pre.is_proper(struct.class_arcs)
        k = 10
        prog = preorder_program(pre, struct.sizes, _Subsets(4, struct.class_edges), k)
        # no x variable counts colors shared by the conflicting pair {C3, C4}
        conflict_mask = (1 << 2) | (1 << 3)
        assert not [key for key in prog.names if key[0] == "x" and key[2] & conflict_mask == conflict_mask]
        values = search(prog)
        assert values is not None
        witness = coloring_from_preorder_solution(dict(zip(prog.names, values)), pre, struct)
        assert check_proper(g, witness)[0]
        assert witness.max_color() <= k


class TestBranching:
    def test_triangle(self):
        log: list = []
        assert branching_decide(triangle(), 3, fanout_log=log).decision
        assert log[0][1] == 3  # three singleton extensions at the root
        assert not branching_decide(triangle(), 2).decision

    def test_directed_path(self):
        g = directed_path(5)
        result = branching_decide(g, 6)
        assert result.decision
        assert check_proper(g, result.witness)[0]

    def test_fanout_bound(self, small_corpus):
        for g in small_corpus[:25]:
            if not 0 < g.n <= 8:
                continue
            log: list = []
            branching_chi(g, fanout_log=log)
            for remaining, count in log:
                sub, _ = induced_subgraph(g, remaining)
                bound = (clique_number(sub) + 1) ** ndu(sub)
                assert count <= bound

    def test_search_starts_at_the_color_windows(self):
        # the Grötzsch graph beside the arcs 12 -> 14 and 13 -> 15 and the edge 14 - 15:
        # the heads need a color above their tails, so the windows start at 2 and the
        # search refutes k = 1 before any node; the windows' propagation refutes k = 2
        # as well (both heads are fixed at 2), and the window search gives up on k = 3
        # past its 15 nodes, as the Grötzsch graph alone takes 45 to refute it; the
        # chi_u search then finds the Grötzsch graph's 4, so the ascent starts at chi
        g = mixed_graph(15, edges=[*grotzsch().edges, (14, 15)], arcs=[(12, 14), (13, 15)])
        stats: dict = {}
        chi_exact(g, "branch", stats=stats)
        assert bounds.window_clique_bound(g, 0) == 2 and bounds.windows_refute(g, 2)
        assert bounds.window_search(g, 3, g.n) == (None, -1)
        assert (stats["first_k"], stats["lower_witness"], stats["decides"]) == (4, "undirected_clique", 0)
        result = solvers.ROUTES["branch"](g, None, DEFAULT_NODE_BUDGET)(1)
        assert not result.decision and result.stats["nodes"] == 0

    def test_branch_answers_arc_free_graphs(self):
        # an arc-free graph's chi is its chi_u, which the bracket's chi_u search finds
        # within the budget where the branching search would run past it
        for i in range(40):
            g = random_mixed_graph(random.Random(i), 24, 0.5, 0.0)
            assert chi_exact(g, "branch", budget=10**5)[0] == bounds.chi_u_exact(g)[0]

    def test_mis_kernel_builds_at_most_its_budget(self):
        # six disjoint triangles: 3**6 maximal independent sets
        g = mixed_graph(18, edges=[e for t in range(1, 18, 3) for e in ((t, t + 1), (t + 1, t + 2), (t, t + 2))])
        keep = [~(nbrs | 1 << v) for v, nbrs in enumerate(g.nbr_masks)]
        everything = (1 << 19) - 2
        assert len(maximal_independent_sets(everything, keep, budget=729)) == 729
        with pytest.raises(BudgetExceeded):
            maximal_independent_sets(everything, keep, budget=728)

    def test_branch_mis_enumeration_is_bounded_by_the_budget(self, monkeypatch):
        # eleven disjoint triangles and the Grötzsch graph: the bracket's chi_u search
        # closes it at 4, so the branch route decides k = 3 here directly; its first node
        # is the root, and the root's sources have 16 * 3**11 = 2,834,352 maximal
        # independent sets
        triangles = [e for t in range(1, 33, 3) for e in ((t, t + 1), (t + 1, t + 2), (t, t + 2))]
        g = mixed_graph(44, edges=triangles + [(u + 33, v + 33) for u, v in grotzsch().edges])
        kernel, budgets = solvers.maximal_independent_sets, []

        def counted(cand, keep, required=0, budget=DEFAULT_NODE_BUDGET):
            budgets.append(budget)
            return kernel(cand, keep, required, budget)

        monkeypatch.setattr(solvers, "maximal_independent_sets", counted)
        start = time.process_time()
        with pytest.raises(BudgetExceeded, match="maximal independent sets exceeded the 999 left of the budget"):
            solvers.ROUTES["branch"](g, None, 1000)(3)
        assert time.process_time() - start < 0.5
        assert budgets and max(budgets) <= 1000

    def test_mis_enumeration_matches_definition(self):
        # the path 1 - 2 - 3 and the isolated vertex 4, bit v for vertex v
        keep = [~(nbrs | 1 << v) for v, nbrs in enumerate([0, 1 << 2, 1 << 1 | 1 << 3, 1 << 2, 0])]
        sets = maximal_independent_sets(0b11110, keep)
        assert sorted(sets) == [1 << 2 | 1 << 4, 1 << 1 | 1 << 3 | 1 << 4]


class TestChiExact:
    def test_empty_graph(self):
        for method in ("brute", "twdp", "ndm", "branch"):
            assert chi_exact(mixed_graph(0), method)[0] == 0

    def test_layered_cliques(self):
        for ell, k in ((1, 2), (2, 2), (2, 3)):
            g = family_layered_cliques(ell, k)
            assert chi_exact(g, "branch")[0] == (ell + 1) * k

    def test_methods_agree_per_k(self, small_corpus):
        for g in small_corpus[:25]:
            if not 0 < g.n <= 7:
                continue
            td = min_fill_decomposition(g)
            for k in range(1, g.n + 2):
                expected = brute_force_decide(g, k) is not None
                assert tw_dp_decide(g, make_nice(td), k).decision == expected
                assert ndm_fpt_decide(g, k).decision == expected
                assert branching_decide(g, k).decision == expected

    def test_deterministic_witnesses(self, small_corpus):
        for g in small_corpus[:10]:
            if not 0 < g.n <= 7:
                continue
            for method in ("brute", "twdp", "ndm", "branch"):
                a = chi_exact(g, method)
                b = chi_exact(g, method)
                assert a == b


# graph -> (its builder, chi, twdp witness and stats at chi, branch witness and
# stats at chi); each witness is the first found in the route's fixed
# enumeration order, so a change to that order, or to the work counted, shows here
PINNED_WITNESSES = {
    "layered_cliques(2, 4)": (
        lambda: family_layered_cliques(2, 4),
        12,
        ([1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12], {"nodes": 5146, "max_table": 576}),
        ([4, 3, 2, 1, 8, 7, 6, 5, 12, 11, 10, 9], {"nodes": 12}),
    ),
    "tripartite(3)": (
        lambda: family_tripartite(3),
        3,
        ([1, 1, 1, 2, 2, 2, 3, 3, 3, 2, 1, 1], {"nodes": 40, "max_table": 2}),
        ([1, 1, 1, 2, 2, 2, 3, 3, 3, 2, 1, 1], {"nodes": 3}),
    ),
    "random seed 0": (
        lambda: random_mixed_graph(random.Random(0), 10, 0.3, 0.2),
        4,
        ([4, 3, 3, 1, 2, 2, 1, 2, 1, 3], {"nodes": 306, "max_table": 40}),
        ([4, 3, 3, 2, 1, 2, 2, 1, 1, 3], {"nodes": 6}),
    ),
    "random seed 1": (
        lambda: random_mixed_graph(random.Random(1), 10, 0.3, 0.2),
        6,
        ([4, 2, 5, 6, 1, 3, 1, 2, 2, 1], {"nodes": 735, "max_table": 88}),
        ([6, 2, 5, 4, 1, 3, 1, 2, 2, 1], {"nodes": 6}),
    ),
    "random seed 2": (
        lambda: random_mixed_graph(random.Random(2), 10, 0.3, 0.2),
        5,
        ([2, 5, 4, 1, 1, 1, 2, 3, 2, 1], {"nodes": 366, "max_table": 104}),
        ([2, 5, 4, 1, 1, 1, 2, 3, 2, 1], {"nodes": 5}),
    ),
}


@pytest.mark.parametrize("method", ["twdp", "branch"])
@pytest.mark.parametrize("name", sorted(PINNED_WITNESSES))
def test_route_witness_is_pinned(name, method):
    build, chi, twdp, branch = PINNED_WITNESSES[name]
    colors, stats = twdp if method == "twdp" else branch
    g = build()
    result = solvers.ROUTES[method](g, None, DEFAULT_NODE_BUDGET)(chi)
    assert result.decision
    assert result.witness.colors == dict(zip(g.vertices, colors))
    assert result.stats == stats


class TestBudget:
    def test_twdp_counts_table_entries(self):
        # k = 12 builds 5,146 entries in all (pinned above)
        g = family_layered_cliques(2, 4)
        td = min_fill_decomposition(g)
        with pytest.raises(BudgetExceeded, match="exceeded 5145 table entries"):
            tw_dp_decide(g, make_nice(td), 12, budget=5_145)
        assert tw_dp_decide(g, make_nice(td), 12, budget=5_146).stats["nodes"] == 5_146

    def test_twdp_budget_stops_inside_an_introduce_node(self):
        # ten isolated vertices in one bag: the fifth introduce node would take
        # the table from 10^4 to 10^5 entries, but the budget is checked after
        # each child entry, and one child entry adds at most n = 10 entries
        g = mixed_graph(10)
        td = TreeDecomposition(10, (frozenset(g.vertices),), ())
        with pytest.raises(BudgetExceeded, match="exceeded 20000 table entries") as info:
            tw_dp_decide(g, make_nice(td), 10**9, budget=20_000)
        assert 20_000 < info.traceback[-1].frame.f_locals["entries"] <= 20_000 + g.n

    def test_brute_counts_loop_steps(self):
        # chi 4: vertex 1 sees all of the path 4 -> 2 -> 3, and k = 4 takes one
        # step per vertex (the closure makes the four a clique, so the
        # ascent's bounds reach 4 and it decides nothing here)
        g = mixed_graph(4, edges=[(1, 2), (1, 3), (1, 4)], arcs=[(2, 3), (4, 2)])
        with pytest.raises(BudgetExceeded, match="exceeded 3 steps"):
            brute_force_decide(g, 4, budget=3)
        stats = {}
        assert brute_force_decide(g, 4, budget=4, stats=stats) is not None
        assert stats == {"steps": 4}
        # chi 4: the window cliques, their propagation and chi_u all stop at 4 below the
        # schedules' 5, the window search gives up on k = 4 past its 6 nodes, and the
        # clique search under chi_u takes 4 nodes of the budget, so brute runs out
        # deciding k = 4
        gap = mixed_graph(
            6,
            edges=[(1, 3), (1, 5), (1, 6), (2, 3), (2, 4), (2, 5), (2, 6), (3, 5), (3, 6)],
            arcs=[(2, 1), (4, 3), (4, 5)],
        )
        assert bounds.bracket(gap, 4)[0] == 4 and bounds.window_search(gap, 4, gap.n) == (None, -1)
        with pytest.raises(BudgetExceeded, match="brute force exceeded 4 steps"):
            brute_force_chi(gap, budget=4)

    @pytest.mark.parametrize("method", ["brute", "twdp", "ndm", "branch"])
    def test_chi_exact_passes_budget_to_lower_bounds(self, monkeypatch, method):
        # the bracket's chi_u search is the one that takes the budget
        seen = []
        real = bounds.chi_u_exact

        def spy(g, budget=DEFAULT_NODE_BUDGET, start=0):
            seen.append(budget)
            return real(g, budget, start)

        monkeypatch.setattr(bounds, "chi_u_exact", spy)
        # the wheel's largest clique is a triangle, and neither the window search within
        # its 6 nodes nor the shaving passes it: fixing one colour leaves every neighbour
        # two, so only the chi_u search finds its 4
        wheel = mixed_graph(6, edges=[(i, i % 5 + 1) for i in range(1, 6)] + [(i, 6) for i in range(1, 6)])
        assert chi_exact(wheel, method, budget=1000)[0] == 4
        assert seen == [1000]
        # the windows meet the schedule coloring's 5 colors: no route needs the bound
        assert chi_exact(directed_path(4), method, budget=1000)[0] == 5
        assert seen == [1000]

    def test_every_budget_defaults_to_the_one_constant(self):
        defaults = {}
        for info in pkgutil.iter_modules(mixedcolor.__path__):
            module = importlib.import_module(f"mixedcolor.{info.name}")
            assert [n for n in vars(module) if n.endswith("BUDGET")] in ([], ["DEFAULT_NODE_BUDGET"])
            for name, obj in vars(module).items():
                if name.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != module.__name__:
                    continue
                param = inspect.signature(obj).parameters.get("budget")
                if param is not None:
                    defaults[f"{info.name}.{name}"] = param.default
        assert set(defaults) >= {
            "bounds.chi_u_exact", "bounds.lower_bounds", "feasibility.search", "feasibility.solve_feasibility",
            "partitions.clique_number", "partitions.vertex_cover_number", "solvers.brute_force_decide",
            "solvers.brute_force_chi", "solvers.tw_dp_decide", "solvers.ndm_fpt_decide",
            "solvers.branching_decide", "solvers.branching_chi", "solvers.chi_exact",
        }
        assert all(default is DEFAULT_NODE_BUDGET for default in defaults.values()), defaults
