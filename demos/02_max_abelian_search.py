"""Compute maximal abelian subgroup orders, with witnesses.

Builds a handful of groups from the catalog, runs the centralizer
search, and cross-checks the small ones against the exhaustive oracle.
The witness generators printed for each group really do commute and
really do generate a subgroup of the stated order; the test suite
verifies this mechanically.

Run from the repository root:  python demos/02_max_abelian_search.py
"""

from abelmax import catalog
from abelmax.search import max_abelian_brute, max_abelian_order

SPECS = ["sym:4", "sym:6", "alt:5", "alt:7", "psl2:7", "pgl2:7", "agl3_2"]

print(f"{'group':<10} {'order':>7} {'m':>4}  {'nodes':>6}  witness generators")
for spec in SPECS:
    group = catalog.build_group(spec)
    result = max_abelian_order(group)
    gens = " ".join(g.cycle_string() for g in result.witness.generators)
    print(
        f"{spec:<10} {group.order_value:>7} {result.m:>4}  "
        f"{result.nodes_explored:>6}  {gens}"
    )

print()
print("oracle agreement on the groups small enough for brute force:")
for spec in ["sym:4", "sym:6", "alt:5", "psl2:7"]:
    group = catalog.build_group(spec)
    fast = max_abelian_order(group).m
    slow = max_abelian_brute(group).m
    marker = "agree" if fast == slow else "DISAGREE"
    print(f"  {spec:<10} search={fast:<3d} exhaustive={slow:<3d} {marker}")

print()
print("the same search handles the Mathieu groups from the shipped files;")
print("see README (extended targets) for the exact commands and budgets.")
