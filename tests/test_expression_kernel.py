"""The expression walkers against a recursive reference, and the node contract.

``mixedcolor.expressions`` walks a tree through one post-order list and
dispatches on the node type. Each walker is checked here against a small
recursive copy written from the definitions: evaluation (the graph, the
labels, and the message of the first conflicting relation), arc-only
evaluation, width, serialization, the arc-only conversion and the
transitive-closure expansion. The inputs are random expressions, conflicting
ones included, and the partition expressions of seeded random mixed graphs.
"""

import copy
import pickle

import pytest
from test_expressions import random_expressions

from mixedcolor import (
    AddArc,
    AddEdge,
    ConflictingRelation,
    DirectedCycleError,
    Introduce,
    MixedColorError,
    Relabel,
    Union,
    UnsupportedClosureExpression,
    WidthCapExceeded,
    evaluate,
    evaluate_arcs,
    format_expression,
    mixed_to_directed,
    ndm_expression,
    parse_expression,
    tc_expression,
    transitive_closure,
    width,
)
from mixedcolor.expressions import TC_WIDTH_CAP
from mixedcolor.graphs import MixedGraph, normalize_edge

# ---------------------------------------------------------------------------
# recursive reference
# ---------------------------------------------------------------------------


def ref_fold(e, allow_opposite, counter):
    """(vertex -> label, edges, arcs) of e; its vertices are numbered after counter[0]."""
    kind = type(e)
    if kind is Introduce:
        counter[0] += 1
        return {counter[0]: e.label}, set(), set()
    if kind is Union:
        labels, edges, arcs = ref_fold(e.left, allow_opposite, counter)
        more, more_edges, more_arcs = ref_fold(e.right, allow_opposite, counter)
        return labels | more, edges | more_edges, arcs | more_arcs
    labels, edges, arcs = ref_fold(e.child, allow_opposite, counter)
    if kind is Relabel:
        return {v: e.new if lab == e.old else lab for v, lab in labels.items()}, edges, arcs
    if e.i == e.j:
        raise ConflictingRelation(f"operation needs distinct labels, got {e.i},{e.j}")
    if kind is AddEdge and allow_opposite:
        raise ConflictingRelation("edge operations are not allowed in arc-only evaluation")
    for u in sorted(v for v, lab in labels.items() if lab == e.i):
        for w in sorted(v for v, lab in labels.items() if lab == e.j):
            pair = normalize_edge(u, w)
            if kind is AddEdge:
                if pair in edges:
                    continue
                if (u, w) in arcs or (w, u) in arcs:
                    raise ConflictingRelation(f"edge {{{u},{w}}} would parallel an existing arc")
                edges.add(pair)
            elif (u, w) not in arcs:
                if not allow_opposite:
                    if (w, u) in arcs:
                        raise ConflictingRelation(f"arc ({u},{w}) would oppose an existing arc")
                    if pair in edges:
                        raise ConflictingRelation(f"arc ({u},{w}) would parallel an existing edge")
                arcs.add((u, w))
    return labels, edges, arcs


def ref_evaluate(e):
    labels, edges, arcs = ref_fold(e, False, [0])
    return MixedGraph(len(labels), frozenset(edges), frozenset(arcs)), dict(sorted(labels.items()))


def ref_evaluate_arcs(e):
    labels, _, arcs = ref_fold(e, True, [0])
    return len(labels), frozenset(arcs)


def ref_labels(e):
    kind = type(e)
    if kind is Introduce:
        return {e.label}
    if kind is Union:
        return ref_labels(e.left) | ref_labels(e.right)
    return {e[0], e[1]} | ref_labels(e.child)


def ref_format(e):
    kind = type(e)
    if kind is Introduce:
        return f"(intro {e.label})"
    if kind is Union:
        return f"(union {ref_format(e.left)} {ref_format(e.right)})"
    if kind is Relabel:
        return f"(relabel {e.old} {e.new} {ref_format(e.child)})"
    op = "edge" if kind is AddEdge else "arc"
    return f"({op} {e.i} {e.j} {ref_format(e.child)})"


def ref_mixed_to_directed(e):
    kind = type(e)
    if kind is Introduce:
        return Introduce(e.label)
    if kind is Union:
        return Union(ref_mixed_to_directed(e.left), ref_mixed_to_directed(e.right))
    child = ref_mixed_to_directed(e.child)
    if kind is AddEdge:
        return AddArc(e.j, e.i, AddArc(e.i, e.j, child))
    return kind(e[0], e[1], child)


def outcome(f, e):
    """f(e), or the type and message of the package error it raised."""
    try:
        return "ok", f(e)
    except MixedColorError as exc:
        return type(exc), str(exc)


# ---------------------------------------------------------------------------
# equivalence
# ---------------------------------------------------------------------------


def _labeled(e):
    lg = evaluate(e)
    return lg.graph, lg.labels


def assert_agrees(e):
    assert outcome(_labeled, e) == outcome(ref_evaluate, e)
    assert outcome(evaluate_arcs, e) == outcome(ref_evaluate_arcs, e)
    assert width(e) == len(ref_labels(e))
    assert format_expression(e) == ref_format(e)
    assert format_expression(mixed_to_directed(e)) == ref_format(ref_mixed_to_directed(e))
    # the closure expansion checks the width, then evaluates e
    expected = outcome(ref_evaluate, e)
    if len(ref_labels(e)) > TC_WIDTH_CAP:
        expected = WidthCapExceeded, f"expression width {len(ref_labels(e))} exceeds cap {TC_WIDTH_CAP}"
    try:
        closed = tc_expression(e)
    except UnsupportedClosureExpression:
        assert expected[0] == "ok"
        return
    except MixedColorError as exc:
        assert (type(exc), str(exc)) == expected
        return
    assert expected[0] == "ok"
    assert ref_evaluate(closed)[0] == transitive_closure(expected[1][0])
    # every composite label holds its base in both of its sets
    w = len(ref_labels(e))
    assert width(closed) <= w * 4 ** (w - 1)


def test_random_expressions_agree_with_reference():
    exprs = random_expressions(300, seed=1919, valid=False)
    exprs += random_expressions(100, seed=1920, labels=4, valid=False)
    for e in exprs:
        assert_agrees(e)
    kinds = [outcome(ref_evaluate, e)[0] for e in exprs]
    # conflicts occur, so their messages are compared
    assert kinds.count(ConflictingRelation) >= 50
    assert kinds.count("ok") >= 200


def test_partition_expressions_agree_with_reference(param_corpus):
    for g in param_corpus:
        if g.n:
            e = ndm_expression(g)
            assert_agrees(e)


# four vertices with labels 3..6, then labels 1 = {1, 2} and 2 = {3, 4}; an
# operation between 1 and 2 conflicts at two pairs, and the first one in
# ascending (tail, head) order is the one named
_FOUR = Union(Union(Union(Introduce(3), Introduce(4)), Introduce(5)), Introduce(6))


def _join(e):
    return Relabel(6, 2, Relabel(5, 2, Relabel(4, 1, Relabel(3, 1, e))))


@pytest.mark.parametrize(
    "e",
    [
        AddEdge(1, 1, Introduce(1)),
        AddArc(2, 2, Union(Introduce(1), Introduce(2))),
        AddArc(1, 2, AddEdge(1, 2, Union(Introduce(1), Introduce(2)))),
        AddEdge(2, 1, AddArc(1, 2, Union(Introduce(1), Introduce(2)))),
        AddArc(2, 1, AddArc(1, 2, Union(Introduce(1), Introduce(2)))),
        Relabel(1, 1, AddArc(1, 2, Union(Introduce(2), Introduce(1)))),
        AddArc(3, 1, AddArc(2, 3, AddArc(1, 2, Union(Union(Introduce(1), Introduce(2)), Introduce(3))))),
        AddEdge(1, 2, _join(AddArc(3, 6, AddArc(4, 5, _FOUR)))),
        AddArc(1, 2, _join(AddEdge(3, 6, AddArc(5, 4, _FOUR)))),
    ],
    ids=[
        "edge-same-label",
        "arc-same-label",
        "arc-on-edge",
        "edge-on-arc",
        "opposite-arcs",
        "relabel-to-itself",
        "three-cycle",
        "edge-pair-order",
        "arc-pair-order",
    ],
)
def test_hand_written_expressions_agree_with_reference(e):
    assert_agrees(e)
    if type(e) is not Relabel:
        assert outcome(ref_evaluate, e)[0] in (ConflictingRelation, DirectedCycleError)


# ---------------------------------------------------------------------------
# node contract
# ---------------------------------------------------------------------------

NODES = [
    (Introduce, (1,), ("label",)),
    (Union, (Introduce(1), Introduce(2)), ("left", "right")),
    (AddEdge, (1, 2, Introduce(1)), ("i", "j", "child")),
    (AddArc, (1, 2, Introduce(1)), ("i", "j", "child")),
    (Relabel, (1, 2, Introduce(1)), ("old", "new", "child")),
]


@pytest.mark.parametrize("cls, fields, names", NODES, ids=[n[0].__name__ for n in NODES])
def test_node_is_immutable(cls, fields, names):
    node = cls(*fields)
    assert [getattr(node, name) for name in names] == list(fields)
    for name in names:
        with pytest.raises(AttributeError):
            setattr(node, name, 3)
    with pytest.raises(AttributeError):
        node.extra = 3


@pytest.mark.parametrize("cls, fields, names", NODES, ids=[n[0].__name__ for n in NODES])
def test_node_is_equal_only_to_itself(cls, fields, names):
    a, b = cls(*fields), cls(*fields)
    assert a == a and not a != a
    assert a != b and not a == b
    assert a != tuple(fields) and tuple(fields) != a
    assert len({a, b, a}) == 2 and hash(a) == hash(a)


SMALL = AddArc(
    1, 3, Relabel(2, 1, AddEdge(1, 2, Union(Introduce(1), Union(Introduce(2), Introduce(3)))))
)


def test_format_and_parse_round_trip():
    text = format_expression(SMALL)
    assert text == "(arc 1 3 (relabel 2 1 (edge 1 2 (union (intro 1) (union (intro 2) (intro 3))))))"
    again = parse_expression(text)
    assert again is not SMALL and format_expression(again) == text


@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
def test_pickle_round_trip(protocol):
    again = pickle.loads(pickle.dumps(SMALL, protocol))
    assert type(again) is AddArc and again is not SMALL
    assert format_expression(again) == format_expression(SMALL)
    assert evaluate(again).graph == evaluate(SMALL).graph


def test_deepcopy_round_trip():
    again = copy.deepcopy(SMALL)
    assert type(again) is AddArc and again is not SMALL and again.child is not SMALL.child
    assert format_expression(again) == format_expression(SMALL)
