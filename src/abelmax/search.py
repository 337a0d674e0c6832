"""Search for abelian subgroups of maximal order.

``max_abelian_order`` is the production search: a depth-first
branch-and-bound over abelian subgroups.  Each node holds a genuine
subgroup (the closure of the elements adjoined so far, never a bare
commuting set); children adjoin one element of the node's centralizer
at a time, in the canonical order of the group's ``ElementTable``
(identity first, then element order descending, then image tuple
ascending; ``perms`` owns that order and this module only reads row
positions from it), and each adjoined element must come later in that
order than the previous choice, which eliminates permuted revisits of
the same chain.  Adjoining is ``ElementTable.extend``, H<x> in one
gather, which Sylow growth in ``perms`` uses as well.  A node's
subgroup, centralizer and candidates are ascending int64 position
arrays.  A subtree is cut when the centralizer of its subgroup is no
larger than the best order found so far, since every abelian overgroup
of A lies inside C_G(A).  The walk is rooted once per
conjugacy class, at the class representatives ``conjugacy_classes``
returns (the quantity searched for is conjugation-invariant, and any
abelian subgroup is reached from the class representative of one of
its elements), and is seeded with the best cyclic order so the
bound bites immediately.

Centralizers are computed inside the parent's centralizer.  A root is
skipped on its class size alone, since |C(x)| = |G| / |x^G|; a root
that survives gets its centralizer over the whole table once, and a
child's is C(<A, x>) = C(A) ∩ C(x), read from ``ElementTable.commuting``
over the rows of C(A) only.  A node tests its candidates against C(A) a
block of rows at a time, so a node makes a few numpy calls rather than
several per candidate.  A child's candidates are read from its row of
that block, and the members of its subgroup are dropped by a
``searchsorted``.  Candidates are elements of C(A), so the work per node
shrinks with the centralizer instead of staying |G|.

``max_abelian_normal`` runs the same walk on a p-group and shares the
centralizer bound: only normal subgroups count as found, and a subtree
is cut when its centralizer is no larger than the best normal order so
far.  A subgroup is normal exactly when its positions are a union of
whole conjugacy classes (``ElementTable.is_class_union``), so it
contains the class representatives at which the walk is rooted.

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
from .perms import _ROW_BLOCK, ElementTable, PermGroup, Permutation

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


class _AbelianDFS:
    """The pruned depth-first walk over abelian-subgroup chains.

    Only a subgroup that ``accept`` admits (by default, every abelian
    subgroup) can become the best, and the centralizer bound cuts
    against the best accepted order: every abelian overgroup of A lies
    in C_G(A), so a subtree whose centralizer is no larger than that
    order holds no larger subgroup, accepted or not.  A root is skipped
    on its class size alone, since |C(x)| = |G| / |x^G|; a root that
    survives gets its centralizer over the whole table once, and each
    child's centralizer is computed inside its parent's, as
    C(<A, x>) = C(A) ∩ C(x): one row of a block that tests several
    candidates x against C(A) at once.  The cyclic seed (row 1, an
    element of maximal order) is taken only if accepted.  ``accept`` must agree on
    conjugate subgroups, because the walk is rooted only at class
    representatives.
    """

    def __init__(self, group, accept=lambda closure: True):
        self.table = group.element_table()
        self.class_reps, self.class_sizes = group.conjugacy_classes()
        self.accept = accept
        self.nodes = 0
        self.best_order = 1
        self.best_chain: list[int] = []

    def run(self) -> None:
        t = self.table
        n = len(t)
        if n == 1:
            return
        seed, _ = t.closure([1])
        if self.accept(seed):
            self.best_order = len(seed)
            self.best_chain = [1]
        all_idx = np.arange(n, dtype=np.int64)
        # class 0 is the identity
        reps, sizes = self.class_reps.tolist(), self.class_sizes.tolist()
        for root, size in zip(reps[1:], sizes[1:]):
            if n // size <= self.best_order:
                continue
            cent = np.flatnonzero(t.commuting([root], all_idx)[0])
            closure, _ = t.closure([root])
            self._visit(closure, [root])
            self._expand(closure, [root], cent, _outside(cent, closure))

    def _visit(self, closure: np.ndarray, chain: list[int]) -> None:
        self.nodes += 1
        if len(closure) > self.best_order and self.accept(closure):
            self.best_order = len(closure)
            self.best_chain = list(chain)

    def _expand(self, closure, chain, cent, cand) -> None:
        """Children of the subgroup ``closure`` with centralizer ``cent``
        (ascending positions); ``cand`` are the elements of ``cent``
        outside ``closure`` that may still be adjoined, ascending.  The
        candidates are tested against ``cent`` a block of rows at a time:
        one row first, so a node the bound cuts after its first child
        tests one, then doubling while rows x |cent| x |base| stays within
        _ROW_BLOCK entries, so the temporaries stay bounded."""
        at = cent.searchsorted(cand)
        most = max(1, _ROW_BLOCK // (len(cent) * len(self.table.index.base)))
        start, size = 0, 1
        while start < len(cand) and len(cent) > self.best_order:
            block = cand[start : start + size]
            commutes = self.table.commuting(block, cent)
            counts = commutes.sum(axis=1).tolist()
            for r, x in enumerate(block.tolist()):
                # every child's centralizer lies inside ``cent``, so once
                # the best order reaches it no remaining child can pass
                if len(cent) <= self.best_order:
                    return
                if counts[r] <= self.best_order:
                    continue
                row = commutes[r]
                bigger = self.table.extend(closure, x)
                self._visit(bigger, chain + [x])
                pos = start + r + 1
                sub = _outside(cand[pos:][row[at[pos:]]], bigger)
                if sub.size:
                    self._expand(bigger, chain + [x], cent[row], sub)
            start += size
            size = min(2 * size, most)


def _outside(positions: np.ndarray, subgroup: np.ndarray) -> np.ndarray:
    """The ascending ``positions`` that are not in the ascending ``subgroup``."""
    at = subgroup.searchsorted(positions)
    return positions[subgroup.take(at, mode="clip") != positions]


def _witness_from_chain(
    group: PermGroup, table: ElementTable, chain: list[int], order: int
) -> AbelianWitness:
    sub = group.subgroup([table.permutation(i) for i in chain])
    assert sub.order_value == order
    return AbelianWitness(sub.generators, order, group.is_normal(sub))


def max_abelian_order(group: PermGroup) -> MaxAbelianResult:
    """Exact maximal abelian subgroup order, by pruned branch-and-bound."""
    t0 = time.perf_counter()
    dfs = _AbelianDFS(group)
    dfs.run()
    witness = _witness_from_chain(group, dfs.table, dfs.best_chain, dfs.best_order)
    return MaxAbelianResult(
        dfs.best_order, witness, dfs.nodes, time.perf_counter() - t0
    )


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


def max_abelian_normal(pgroup: PermGroup) -> AbelianWitness:
    """An abelian normal subgroup of maximal order in a p-group.

    The same pruned walk as ``max_abelian_order``, accepting only
    subgroups whose positions are a union of whole conjugacy classes;
    the centralizer bound cuts against the best normal order found.
    Abelian input is returned whole.
    """
    factors = pgroup.order.factors
    if len(factors) != 1:
        raise ValueError(
            f"not a p-group: order {pgroup.order_value} = {pgroup.order.factored_str()}"
        )
    if pgroup.is_abelian():
        return AbelianWitness(list(pgroup.generators), pgroup.order_value, True)
    dfs = _AbelianDFS(pgroup, accept=pgroup.element_table().is_class_union)
    dfs.run()
    assert dfs.best_chain  # the center guarantees a hit
    witness = _witness_from_chain(pgroup, dfs.table, dfs.best_chain, dfs.best_order)
    assert witness.normal_in_parent
    return witness
