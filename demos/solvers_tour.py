"""A tour of the four exact solvers on small worked instances.

Run: python demos/solvers_tour.py
"""

from mixedcolor import (
    brute_force_chi,
    chi_exact,
    chromatic_bounds,
    check_proper,
    family_layered_cliques,
    mixed_graph,
    ndm_fpt_decide,
)


def banner(text):
    print()
    print(text)
    print("-" * len(text))


banner("A directed path forces one color per vertex")
path = mixed_graph(5, arcs=[(1, 2), (2, 3), (3, 4), (4, 5)])
for method in ("brute", "twdp", "ndm", "branch"):
    chi, witness = chi_exact(path, method=method)
    print(f"  {method:6s} -> chi = {chi}, witness = {witness.colors}")

banner("Stacked cliques: three layers of K_3 need 9 colors")
g = family_layered_cliques(2, 3)
bounds = chromatic_bounds(g)
print(f"  lower bound {bounds.lower} (from {bounds.lower_witness}),"
      f" schedule-coloring upper bound {bounds.upper}")
chi, witness = chi_exact(g, method="branch")
ok, _ = check_proper(g, witness)
print(f"  exact chi = {chi}, witness proper = {ok}")

banner("The preorder solver reports how many preorders it enumerated")
mixed = mixed_graph(
    6,
    edges=[(1, 2), (3, 4)],
    arcs=[(1, 3), (2, 3), (4, 5), (4, 6)],
)
for k in (3, 4, 5):
    result = ndm_fpt_decide(mixed, k)
    print(f"  k={k}: {'yes' if result.decision else 'no '}"
          f" after {result.stats['preorders']} preorders")

banner("Branching recursion explores maximal independent sets of sources")
log = []
from mixedcolor import branching_chi

chi, _ = branching_chi(mixed, fanout_log=log)
print(f"  chi = {chi}; fan-outs per node: {[count for _, count in log]}")

banner("Oracle cross-check")
chi_oracle, _ = brute_force_chi(mixed)
print(f"  brute force agrees: {chi_oracle == chi}")
