"""Cliquewidth expressions: evaluation, width, and the closure expansion.

Run: python demos/expressions_tour.py
"""

from mixedcolor import (
    directed_path_expression,
    evaluate,
    format_expression,
    maxrank,
    mixed_graph,
    ndm,
    ndm_expression,
    tc_expression,
    tournament_expression,
    transitive_closure,
    width,
)

print("Three labels suffice for any directed path:")
expr = directed_path_expression(4)
print(" ", format_expression(expr))
graph = evaluate(expr).graph
print(f"  evaluates to {graph.n} vertices, arcs {sorted(graph.arcs)}, width {width(expr)}")

print()
print("Two labels suffice for acyclic tournaments:")
t = tournament_expression(5)
tg = evaluate(t).graph
print(f"  n={tg.n}, arcs={len(tg.arcs)}, width={width(t)}, maxrank={maxrank(tg)}")

print()
print("Any graph has an expression with one label per type plus a scratch label:")
g = mixed_graph(6, edges=[(1, 2), (1, 3), (2, 3)], arcs=[(1, 4), (2, 4), (3, 4), (4, 5), (4, 6)])
e = ndm_expression(g)
print(f"  ndm = {ndm(g)}, expression width = {width(e)}")

print()
print("The closure expansion rewrites an expression to build the transitive closure:")
closed = tc_expression(expr)
closure_graph = evaluate(closed).graph
target = transitive_closure(graph)
print(f"  closure of the length-4 path has {len(closure_graph.arcs)} arcs"
      f" (an acyclic tournament on 5 vertices)")
print(f"  matches transitive_closure(): {closure_graph == target}")
print(f"  composite labels used: {width(closed)} (at most 3 * 4^2 = 48)")
