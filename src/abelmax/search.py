"""Search for abelian subgroups of maximal order.

``max_abelian_order`` is the production search, a memoized recursion
over centralizers.  Every maximal abelian subgroup B of a group C
contains the center Z(C).  If B is larger, it holds a non-central
element, which conjugation in C moves to a class representative x of
C; the conjugate of B is abelian, of the same order, and lies in
C_C(x).  So

    m(C) = max(|Z(C)|, m(C_C(x)) over the non-central class reps x of C),

and each C_C(x) is a proper subgroup of C.  A node is a centralizer
C = C_G(X), held as its ascending int64 positions in G's
``ElementTable``.  Its classes come from its own table: the root is G
and reads G's table, and every other node is a ``_subgroup`` of G whose
table is a slice of G's.  A node offers Z(C), the union of its classes
of size one, as a candidate.  A child is C_C(x), the members of C that
commute with x (``ElementTable.commuting`` over C's positions alone).
Children are taken in ascending class size |x^C|, so in descending
order |C_C(x)| = |C| / |x^C|, and the walk leaves a node at the first
child no larger than the best order found: every abelian subgroup of
that child, and of each later one, is no larger.  The best order is
seeded with the cyclic subgroup of the first element that
``ElementTable.by_order`` picks, one of maximal order.  Different
routes reach the same centralizer (C_G(x) ∩ C_G(y) from x or from y), so
nodes are memoized by their positions, and each distinct centralizer is
expanded once; ``nodes_explored`` counts them.  The memo keeps no key
for the root: G is never a child, since each child is a proper subgroup.

``max_abelian_normal`` walks the abelian normal subgroups of a p-group
P.  A largest one contains Z(P), since its product with Z(P) is abelian
and normal, and every abelian normal N containing Z(P) is a union of
classes reached from Z(P) by adjoining them one at a time.  A node is
such an N with its centralizer C_P(N).  A child adjoins one class K of
P that lies in C_P(N) \\ N and whose members commute pairwise.  The
subgroup generated by N and K is abelian and normal; each member of K
centralizes the subgroup grown so far, so it is adjoined by
``ElementTable.extend``.  Its centralizer C_P(N) ∩ C_P(K) is read from
the same ``commuting`` block that tested K, inside C_P(N).  Every
abelian subgroup containing N lies in C_P(N), so a node whose
centralizer is no larger than the best order is cut.  Nodes are
memoized by their positions, as above.

The pruned searches take no enumeration cap: the walk reads its group's
element table, which ``PermGroup.element_table`` checks against the
default cap unless the caller has already built it under its own.

``max_abelian_brute`` is the independent oracle: a plain exhaustive
depth-first enumeration from the trivial subgroup over all elements,
with no conjugacy shortcuts and no pruning, visiting every abelian
subgroup at least once.  It shares nothing with the production search
beyond element enumeration.

Node counts are deterministic: identical inputs explore identical
trees.  Reported wall times are measurement only and never feed back
into the search.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError
from .perms import ElementTable, PermGroup, Permutation

DEFAULT_BRUTE_CAP = 2000


@dataclass
class AbelianWitness:
    """Generators certifying an abelian subgroup of the stated order."""

    generators: list[Permutation]
    order: int
    normal_in_parent: bool


@dataclass
class MaxAbelianResult:
    m: int
    witness: AbelianWitness
    nodes_explored: int
    wall_time: float


def max_abelian_order(group: PermGroup) -> MaxAbelianResult:
    """Exact maximal abelian subgroup order, by memoized recursion over
    centralizers."""
    t0 = time.perf_counter()
    table = group.element_table()
    # the cyclic subgroup of by_order's first pick, which is the first of
    # its class, so a class representative
    best = table.extend(np.zeros(1, dtype=np.int64), int(table.by_order(table.class_reps)[0]))
    # the keys of the nodes below the root, which is never a child
    seen: set[bytes] = set()

    def visit(members: np.ndarray, local: ElementTable) -> None:
        nonlocal best
        central = local.class_sizes[local.class_of] == 1
        if np.count_nonzero(central) > len(best):
            best = members[central]
        reps, sizes = local.class_reps.tolist(), local.class_sizes.tolist()
        for c in np.argsort(local.class_sizes, kind="stable").tolist():
            if sizes[c] == 1:
                continue
            if len(members) // sizes[c] <= len(best):
                return
            child = members[table.commuting([int(members[reps[c]])], members)[0]]
            if (key := child.tobytes()) not in seen:
                seen.add(key)
                visit(child, group._subgroup(child).element_table())

    visit(np.arange(len(table), dtype=np.int64), table)
    witness = AbelianWitness(
        group._subgroup(best).generators, len(best), table.is_class_union(best)
    )
    return MaxAbelianResult(len(best), witness, 1 + len(seen), time.perf_counter() - t0)


def max_abelian_brute(
    group: PermGroup, brute_cap: int = DEFAULT_BRUTE_CAP
) -> MaxAbelianResult:
    """Exhaustive oracle for the maximal abelian order.

    Works directly on image tuples, enumerates chains from the trivial
    subgroup over all elements (no conjugacy reduction), and never
    prunes, so every abelian subgroup is visited at least once.
    """
    n = group.order_value
    if n > brute_cap:
        raise CapacityError(f"group order {n} exceeds brute-force cap {brute_cap}")
    t0 = time.perf_counter()
    elems = group.enumerate_elements(brute_cap)
    imgs = [e.images for e in elems]
    index = {img: i for i, img in enumerate(imgs)}

    def mul(i, j):
        a, b = imgs[i], imgs[j]
        return index[tuple(a[x] for x in b)]

    def commutes(i, j):
        return mul(i, j) == mul(j, i)

    def closure_with(subgroup, x):
        powers = [x]
        cur = mul(x, x)
        while cur != 0:
            powers.append(cur)
            cur = mul(cur, x)
        out = set(subgroup)
        for a in subgroup:
            for p in powers:
                out.add(mul(a, p))
        return out

    state = {"best": 1, "chain": [], "nodes": 0}

    def visit(closure, chain):
        state["nodes"] += 1
        if len(closure) > state["best"]:
            state["best"] = len(closure)
            state["chain"] = list(chain)

    def extend(closure, chain, cand):
        for pos, x in enumerate(cand):
            bigger = closure_with(closure, x)
            visit(bigger, chain + [x])
            rest = [
                y for y in cand[pos + 1 :] if y not in bigger and commutes(y, x)
            ]
            if rest:
                extend(bigger, chain + [x], rest)

    for x in range(1, n):
        clo = closure_with({0}, x)
        visit(clo, [x])
        cand = [y for y in range(x + 1, n) if y not in clo and commutes(x, y)]
        if cand:
            extend(clo, [x], cand)

    gens = [elems[i] for i in state["chain"]]
    if gens:
        order = PermGroup(gens).order_value
        witness = AbelianWitness(gens, order, group.is_normal(group.subgroup(gens)))
    else:
        witness = AbelianWitness([], 1, True)
    assert witness.order == state["best"]
    return MaxAbelianResult(
        state["best"], witness, state["nodes"], time.perf_counter() - t0
    )


def max_abelian_normal(pgroup: PermGroup) -> np.ndarray:
    """The positions, in the p-group's element table, of an abelian normal
    subgroup of maximal order, found by a memoized walk up from the center."""
    factors = pgroup.order.factors
    if len(factors) != 1:
        raise ValueError(
            f"not a p-group: order {pgroup.order_value} = {pgroup.order.factored_str()}"
        )
    table = pgroup.element_table()
    best = np.flatnonzero(table.class_sizes[table.class_of] == 1)
    seen: set[bytes] = set()

    def visit(normal: np.ndarray, cent: np.ndarray) -> None:
        nonlocal best
        seen.add(normal.tobytes())
        if len(normal) > len(best):
            best = normal
        # the classes inside C_P(N) and outside N
        classes = table.class_of[cent]
        whole = np.bincount(classes, minlength=len(table.class_sizes)) == table.class_sizes
        whole[table.class_of[normal]] = False
        for k in np.flatnonzero(whole).tolist():
            if len(cent) <= len(best):
                return
            cls = cent[classes == k]
            commutes = table.commuting(cls, cent)
            if not commutes[:, cent.searchsorted(cls)].all():
                continue
            child = normal
            for x in cls.tolist():
                child = table.extend(child, x)
            if child.tobytes() not in seen:
                visit(child, cent[commutes.all(axis=0)])

    visit(best, np.arange(len(table), dtype=np.int64))
    assert table.is_class_union(best)
    return best
