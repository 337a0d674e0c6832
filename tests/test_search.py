"""Tests for the abelian-subgroup search and its brute-force oracle."""

import ast
from pathlib import Path

import numpy as np
import pytest

from abelmax import CapacityError
from abelmax import catalog as cat
from abelmax import verify as vf
from abelmax.perms import ElementTable, PermGroup, Permutation
from abelmax.search import max_abelian_brute, max_abelian_normal, max_abelian_order
from abelmax.verify import catalog_pgroup_inputs


def quaternion_group():
    # regular action on {1, i, -1, -i, j, k, -j, -k}
    i = Permutation.from_cycles(8, [(0, 1, 2, 3), (4, 7, 6, 5)])
    j = Permutation.from_cycles(8, [(0, 4, 2, 6), (1, 5, 3, 7)])
    return PermGroup([i, j])


# ── brute oracle ────────────────────────────────────────────────────

def test_brute_goldens():
    assert max_abelian_brute(cat.sym_group(4)).m == 4
    assert max_abelian_brute(quaternion_group()).m == 4
    assert max_abelian_brute(cat.cyclic_group(12)).m == 12


def test_brute_cap():
    with pytest.raises(CapacityError):
        max_abelian_brute(cat.sym_group(7), brute_cap=2000)


def test_brute_witness_is_valid():
    r = max_abelian_brute(cat.sym_group(5))
    gens = r.witness.generators
    assert all(a * b == b * a for a in gens for b in gens)
    assert PermGroup(gens).order_value == r.m == 6


# what the search reads of the element table and the group: classes,
# centralizers and subgroup growth
_SEARCH_PRIMITIVES = {
    "commuting", "conjugacy_classes", "class_reps", "class_sizes", "class_of",
    "centralizer", "extend", "closure",
}


def test_brute_reads_none_of_the_search_primitives():
    # the oracle stays independent of the search: its body reads no
    # attribute that names one of the search's primitives
    source = Path(__file__).resolve().parents[1] / "src" / "abelmax" / "search.py"
    tree = ast.parse(source.read_text(encoding="utf-8"))
    (brute,) = [
        node for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == "max_abelian_brute"
    ]
    read = {node.attr for node in ast.walk(brute) if isinstance(node, ast.Attribute)}
    assert {"enumerate_elements", "images"} <= read
    assert read & _SEARCH_PRIMITIVES == set()


# ── production search goldens ───────────────────────────────────────

@pytest.mark.parametrize(
    "spec,expected",
    [
        ("alt:5", 5),
        ("alt:7", 12),
        ("alt:8", 16),
        ("sym:6", 9),
        ("pgl2:7", 8),
        ("psl2:7", 7),
        ("agl3_2", 16),
        ("sym:4", 4),
        ("cyclic:12", 12),
        ("psl2:13", 13),
    ],
)
def test_search_goldens(spec, expected):
    assert max_abelian_order(cat.build_group(spec)).m == expected


_REPO = Path(__file__).resolve().parents[1]

# m and the node count of every search: the tree walked is a function of
# the row order and of the order ``ElementTable.by_order`` picks elements
# in, so any drift in either shows here.
_NODE_PINS = [
    ("sym:2", 2, 1), ("sym:3", 3, 1), ("sym:4", 4, 2), ("sym:5", 6, 3),
    ("sym:6", 9, 9), ("sym:7", 12, 14),
    ("alt:4", 4, 2), ("alt:5", 5, 1), ("alt:6", 9, 2), ("alt:7", 12, 4),
    ("alt:8", 16, 10),
    ("cyclic:12", 12, 1), ("cyclic:30", 30, 1),
    ("dihedral:8", 8, 1), ("dihedral:12", 12, 1),
    ("elem_abelian:3:2", 9, 1), ("elem_abelian:2:4", 16, 1),
    ("psl2:7", 7, 2), ("psl2:11", 11, 2), ("psl2:13", 13, 1),
    ("pgl2:7", 8, 3),
    ("frobenius:5:4", 5, 1), ("frobenius:7:3", 7, 1),
    ("agammal1:3", 8, 3), ("agammal1:4", 16, 6), ("agl3_2", 16, 7),
    pytest.param("file:groups/m11.gens", 11, 3, marks=pytest.mark.extended),
    pytest.param("file:groups/m12.gens", 16, 13, marks=pytest.mark.extended),
    # J1 on 266 points: its Sylow 19-subgroups are self-centralizing
    pytest.param("file:groups/j1.gens", 19, 5, marks=pytest.mark.extended),
]


@pytest.mark.parametrize("spec,m,nodes", _NODE_PINS)
def test_search_node_counts_are_pinned(spec, m, nodes, monkeypatch):
    monkeypatch.chdir(_REPO)
    r = max_abelian_order(cat.build_group(spec))
    assert (r.m, r.nodes_explored) == (m, nodes)


def test_search_memo_keeps_no_key_for_the_root(monkeypatch):
    # every child is a proper subgroup, so G never comes back and its
    # 8|G|-byte key (0.76 MB on M12) is not kept: the traced peak of the
    # search was 3.15 MB with it and is 2.40 MB without
    import tracemalloc

    monkeypatch.chdir(_REPO)
    g = cat.build_group("file:groups/m12.gens")
    g.element_table()
    tracemalloc.start()
    try:
        r = max_abelian_order(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (r.m, r.nodes_explored) == (16, 13)
    assert peak < 2_750_000, f"peak {peak} bytes"


@pytest.mark.parametrize("spec", cat.default_catalog_specs())
def test_element_table_is_in_canonical_order(spec):
    # the canonical order is ascending image order, so identity first:
    # rows strictly ascending as tuples, in a group's table and in each
    # subgroup's
    group = cat.build_group(spec)
    table = group.element_table()
    matrix = table.matrix
    # reference: the closure of the generators, grown one product at a time
    closure = frontier = {group.identity()}
    while frontier:
        frontier = {g * x for x in frontier for g in group.generators} - closure
        closure = closure | frontier
    assert {tuple(row) for row in matrix.tolist()} == {p.images for p in closure}
    assert matrix[0].tolist() == list(range(matrix.shape[1]))
    orders = table.class_orders[table.class_of].tolist()
    assert orders == [table.permutation(i).order() for i in range(len(table))]
    subgroups = [group.sylow_subgroup(p) for p in group.order.factors]
    subgroups += [group.centralizer(group.generators)]
    for t in [table] + [sub.element_table() for sub in subgroups]:
        rows = [tuple(row) for row in t.matrix.tolist()]
        assert all(a < b for a, b in zip(rows, rows[1:])), spec
        assert t.index.find(t.matrix[:, t.index.base]).tolist() == list(range(len(t)))


def _ten_transpositions_at_degree_300():
    return PermGroup([Permutation.from_cycles(300, [(i, i + 1)]) for i in range(0, 20, 2)])


def test_element_table_wide_keys():
    # ten disjoint transpositions at degree 300: uint16 rows and a base of
    # ten points, so a key is 160 bits and takes the void-view path
    g = _ten_transpositions_at_degree_300()
    table = g.element_table()
    assert table.matrix.dtype == np.uint16 and len(g.chain.base) == 10
    assert table.index.keys.dtype.kind == "V"
    assert len(table) == 1024
    assert table.index.find(table.matrix[:, table.index.base]).tolist() == list(range(len(table)))
    assert len(g.conjugacy_classes()[1]) == 1024
    assert max_abelian_order(g).m == 1024


def test_abelian_search_stops_once_the_centralizer_is_reached(monkeypatch):
    # an abelian group is its own center, so the root offers the whole
    # group and has no non-central class to recurse on: one node, and no
    # commuting test at all
    g = _ten_transpositions_at_degree_300()
    calls = []
    original = ElementTable.commuting

    def counting(self, xs, members):
        calls.append(len(xs))
        return original(self, xs, members)

    monkeypatch.setattr(ElementTable, "commuting", counting)
    r = max_abelian_order(g)
    assert (r.m, r.nodes_explored) == (1024, 1)
    assert calls == []


def test_search_trivial_group():
    r = max_abelian_order(PermGroup.trivial(3))
    assert r.m == 1 and r.witness.generators == []


def test_search_witness_properties(monkeypatch):
    # on every pinned group the witness generators lie in G, commute and
    # generate a subgroup of order m, and ``normal_in_parent`` says whether
    # that subgroup is a union of classes
    monkeypatch.chdir(_REPO)
    for spec, m, _ in (getattr(p, "values", p) for p in _NODE_PINS):
        g = cat.build_group(spec)
        r = max_abelian_order(g)
        gens = r.witness.generators
        assert all(a * b == b * a for a in gens for b in gens), spec
        sub = g.subgroup(gens)
        assert sub.order_value == r.m == r.witness.order == m, spec
        assert PermGroup(gens).order_value == m, spec  # by a chain of its own
        assert r.witness.normal_in_parent == g.is_normal(sub), spec


def test_search_cap_propagates():
    with pytest.raises(CapacityError):
        # |S9| = 362880 is above the default cap
        max_abelian_order(cat.sym_group(9))


def test_search_is_deterministic():
    a = max_abelian_order(cat.build_group("sym:6"))
    b = max_abelian_order(cat.build_group("sym:6"))
    assert a.m == b.m
    assert a.nodes_explored == b.nodes_explored
    assert [g.images for g in a.witness.generators] == [
        g.images for g in b.witness.generators
    ]


def test_search_lower_bounds():
    for spec in ["sym:5", "alt:6", "pgl2:7", "frobenius:7:3"]:
        g = cat.build_group(spec)
        r = max_abelian_order(g)
        table = g.element_table()
        assert r.m >= int(table.class_orders.max())
        assert r.m >= int((table.class_sizes == 1).sum())
        assert (r.m == g.order_value) == g.is_abelian()


# ── oracle equivalence (full sweep lives in the acceptance suite) ───

@pytest.mark.parametrize("spec", ["sym:5", "dihedral:12", "frobenius:5:4", "agammal1:3"])
def test_oracle_equivalence_spot(spec):
    g = cat.build_group(spec)
    assert max_abelian_order(g).m == max_abelian_brute(g).m


@pytest.mark.parametrize(
    "spec",
    cat.default_catalog_specs()
    + ["file:groups/m11.gens", "file:groups/m12.gens", "file:groups/j1.gens"],
)
def test_oracle_through_centralizers_of_prime_order_elements(spec, monkeypatch):
    """The oracle above its cap: an abelian A > 1 holds an element x of
    prime order and lies in C_G(x), so m(G) is the largest m(C_G(x)) over
    the class representatives x of prime order.  Each C_G(x) is rebuilt
    from its generators with a chain and table of its own, and
    ``max_abelian_brute`` runs on that.  Shared with production: the class
    representatives and sizes come from the element table, and each
    centralizer from ``ElementTable.commuting``.  The rebuilt chain's
    order times the class size must be |G|, which checks the class sizes
    against an independent chain."""
    monkeypatch.chdir(_REPO)
    g = cat.build_group(spec)
    table = g.element_table()
    best = 1
    for x, size in zip(*(a.tolist() for a in g.conjugacy_classes())):
        order = int(table.class_orders[table.class_of[x]])
        if order == 1 or any(order % p == 0 for p in range(2, order)):
            continue
        c = PermGroup(g.centralizer([table.permutation(x)]).generators)
        assert c.order_value * size == g.order_value
        best = max(best, max_abelian_brute(c).m)
    assert best == max_abelian_order(g).m


# ── normal abelian subgroups of p-groups ────────────────────────────

@pytest.fixture(scope="module")
def lemma_inputs():
    """The (id, p-group) pairs the lemma suite checks on the default
    catalog, and the quaternion group, with max_abelian_normal's positions."""
    entries = cat.build_catalog(cat.default_catalog_specs())
    inputs = catalog_pgroup_inputs(entries) + [("quaternion", quaternion_group())]
    return [(gid, pg, max_abelian_normal(pg)) for gid, pg in inputs]


def test_normal_abelian_d8():
    g = cat.dihedral_group(4)
    best = max_abelian_normal(g)
    assert len(best) == 4
    assert g.element_table().is_class_union(best)


def test_normal_abelian_elementary():
    g = cat.elem_abelian_group(3, 2)
    assert max_abelian_normal(g).tolist() == list(range(9))


def test_normal_abelian_sylow_s6():
    p3 = cat.sym_group(6).sylow_subgroup(3)
    assert len(max_abelian_normal(p3)) == 9


def test_normal_abelian_positions_are_an_abelian_normal_subgroup(lemma_inputs):
    assert len(lemma_inputs) == 74
    for gid, pg, best in lemma_inputs:
        table = pg.element_table()
        assert best.dtype == np.int64, gid
        assert (np.diff(best) > 0).all() and best[0] == 0
        assert table.commuting(best, best).all()
        assert table.is_class_union(best)
        # closed under products, so a subgroup
        assert np.isin(table.products(best, best), best).all()


def test_normal_abelian_is_self_centralizing(lemma_inputs):
    # maximal abelian normal subgroups of nilpotent groups are self-centralizing
    for gid, pg, best in lemma_inputs:
        table = pg.element_table()
        everything = np.arange(len(table), dtype=np.int64)
        centralizer = np.flatnonzero(table.commuting(best, everything).all(axis=0))
        assert centralizer.tolist() == best.tolist(), gid


def test_normal_abelian_contains_center(lemma_inputs):
    for gid, pg, best in lemma_inputs:
        table = pg.element_table()
        center = table.class_members(np.flatnonzero(table.class_sizes == 1))
        assert np.isin(center, best).all(), gid


def test_normal_abelian_rejects_non_pgroup():
    with pytest.raises(ValueError, match="not a p-group"):
        max_abelian_normal(cat.sym_group(3))


# (input id, |P|, order of a maximal abelian normal subgroup, |Z(P)|) for
# every p-group the lemma suite checks on the default catalog.
_NORMAL_SEARCH_PINS = [
    ('sylow(sym:2,2)', 2, 2, 2),
    ('sylow(sym:3,2)', 2, 2, 2),
    ('sylow(sym:3,3)', 3, 3, 3),
    ('sylow(sym:4,2)', 8, 4, 2),
    ('sylow(sym:4,3)', 3, 3, 3),
    ('sylow(sym:5,2)', 8, 4, 2),
    ('sylow(sym:5,3)', 3, 3, 3),
    ('sylow(sym:5,5)', 5, 5, 5),
    ('sylow(sym:6,2)', 16, 8, 4),
    ('sylow(sym:6,3)', 9, 9, 9),
    ('sylow(sym:6,5)', 5, 5, 5),
    ('sylow(sym:7,2)', 16, 8, 4),
    ('sylow(sym:7,3)', 9, 9, 9),
    ('sylow(sym:7,5)', 5, 5, 5),
    ('sylow(sym:7,7)', 7, 7, 7),
    ('sylow(alt:4,2)', 4, 4, 4),
    ('sylow(alt:4,3)', 3, 3, 3),
    ('sylow(alt:5,2)', 4, 4, 4),
    ('sylow(alt:5,3)', 3, 3, 3),
    ('sylow(alt:5,5)', 5, 5, 5),
    ('sylow(alt:6,2)', 8, 4, 2),
    ('sylow(alt:6,3)', 9, 9, 9),
    ('sylow(alt:6,5)', 5, 5, 5),
    ('sylow(alt:7,2)', 8, 4, 2),
    ('sylow(alt:7,3)', 9, 9, 9),
    ('sylow(alt:7,5)', 5, 5, 5),
    ('sylow(alt:7,7)', 7, 7, 7),
    ('sylow(cyclic:12,2)', 4, 4, 4),
    ('sylow(cyclic:12,3)', 3, 3, 3),
    ('sylow(cyclic:30,2)', 2, 2, 2),
    ('sylow(cyclic:30,3)', 3, 3, 3),
    ('sylow(cyclic:30,5)', 5, 5, 5),
    ('sylow(dihedral:8,2)', 16, 8, 2),
    ('sylow(dihedral:12,2)', 8, 4, 2),
    ('sylow(dihedral:12,3)', 3, 3, 3),
    ('sylow(elem_abelian:3:2,3)', 9, 9, 9),
    ('sylow(elem_abelian:2:4,2)', 16, 16, 16),
    ('sylow(psl2:7,2)', 8, 4, 2),
    ('sylow(psl2:7,3)', 3, 3, 3),
    ('sylow(psl2:7,7)', 7, 7, 7),
    ('sylow(psl2:11,2)', 4, 4, 4),
    ('sylow(psl2:11,3)', 3, 3, 3),
    ('sylow(psl2:11,5)', 5, 5, 5),
    ('sylow(psl2:11,11)', 11, 11, 11),
    ('sylow(psl2:13,2)', 4, 4, 4),
    ('sylow(psl2:13,3)', 3, 3, 3),
    ('sylow(psl2:13,7)', 7, 7, 7),
    ('sylow(psl2:13,13)', 13, 13, 13),
    ('sylow(pgl2:7,2)', 16, 8, 2),
    ('sylow(pgl2:7,3)', 3, 3, 3),
    ('sylow(pgl2:7,7)', 7, 7, 7),
    ('sylow(frobenius:5:4,2)', 4, 4, 4),
    ('sylow(frobenius:5:4,5)', 5, 5, 5),
    ('sylow(frobenius:7:3,3)', 3, 3, 3),
    ('sylow(frobenius:7:3,7)', 7, 7, 7),
    ('sylow(agammal1:3,2)', 8, 8, 8),
    ('sylow(agammal1:3,3)', 3, 3, 3),
    ('sylow(agammal1:3,7)', 7, 7, 7),
    ('sylow(agammal1:4,2)', 64, 16, 2),
    ('sylow(agammal1:4,3)', 3, 3, 3),
    ('sylow(agammal1:4,5)', 5, 5, 5),
    ('sylow(agl3_2,2)', 64, 16, 2),
    ('sylow(agl3_2,3)', 3, 3, 3),
    ('sylow(agl3_2,7)', 7, 7, 7),
    ('dihedral:4', 8, 4, 2),
    ('dihedral:8', 16, 8, 2),
    ('dihedral:16', 32, 16, 2),
    ('dihedral:32', 64, 32, 2),
    ('sylow(sym:8,2)', 128, 16, 2),
    ('sylow(sym:8,3)', 9, 9, 9),
    ('elem_abelian:2:4', 16, 16, 16),
    ('elem_abelian:3:2', 9, 9, 9),
    ('elem_abelian:5:2', 25, 25, 25),
]


def test_normal_search_orders_are_pinned():
    entries = cat.build_catalog(cat.default_catalog_specs())
    got = [
        (
            gid,
            pg.order_value,
            len(max_abelian_normal(pg)),
            int((pg.element_table().class_sizes == 1).sum()),
        )
        for gid, pg in catalog_pgroup_inputs(entries)
    ]
    assert got == _NORMAL_SEARCH_PINS


def test_bound_suite_forms_no_subgroup(monkeypatch):
    # both orders the lemma needs are counts in each p-group's table, so
    # the suite runs no closure
    inputs = catalog_pgroup_inputs(cat.build_catalog(cat.default_catalog_specs()))
    calls = []
    closure = ElementTable.closure

    def counting_closure(self, positions):
        calls.append(positions)
        return closure(self, positions)

    monkeypatch.setattr(ElementTable, "closure", counting_closure)
    report = vf.pgroup_bound_suite(inputs)
    assert len(report.checks) == 2 * len(inputs) == 146
    assert calls == []


# ── p-group bound reports ───────────────────────────────────────────

def _bound_report(pg):
    """The detail and both verdicts of the lemma suite's two checks on pg."""
    bound, burnside = vf.pgroup_bound_suite([("P", pg)]).checks
    assert (bound.theorem, burnside.theorem) == ("pgroup_bound", "burnside")
    assert bound.detail == burnside.detail
    d = bound.detail
    assert bound.m == d["p"] ** d["s"] and bound.order == d["p"] ** d["k"]
    return d, bound.passed, burnside.passed


def test_bound_report_d8():
    d, bound_holds, burnside_holds = _bound_report(cat.dihedral_group(4))
    assert (d["p"], d["k"], d["s"], d["v"]) == (2, 3, 2, 2)
    assert d["k"] == d["s"] * (d["s"] + 1) // 2  # equality case
    assert bound_holds and burnside_holds


def test_bound_report_cyclic_p():
    d, bound_holds, _ = _bound_report(cat.cyclic_group(7))
    assert (d["k"], d["s"], d["c"]) == (1, 1, 1)
    assert bound_holds


def test_bound_report_sylow2_s8():
    p2 = cat.sym_group(8).sylow_subgroup(2)
    d, bound_holds, burnside_holds = _bound_report(p2)
    assert d["k"] == 7
    assert d["s"] >= 4  # the bound forces an abelian normal subgroup of order >= 16
    assert bound_holds and burnside_holds


def test_bound_report_rejects_trivial_and_mixed():
    with pytest.raises(ValueError):
        vf.pgroup_bound_suite([("trivial", PermGroup.trivial(2))])
    with pytest.raises(ValueError):
        vf.pgroup_bound_suite([("sym:3", cat.sym_group(3))])
