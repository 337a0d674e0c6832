"""Tests for the verification harness and report serialization."""

import json
import math
from collections import Counter
from pathlib import Path

import pytest

from abelmax import catalog as cat
from abelmax import numtheory as nt
from abelmax import verify as vf
from abelmax.search import max_abelian_order


@pytest.fixture(scope="module")
def entries():
    return cat.build_catalog(cat.default_catalog_specs())


@pytest.fixture(scope="module")
def by_id(entries):
    """(group, m(G)) of each default-catalog group, by id."""
    return {gid: (G, max_abelian_order(G).m) for gid, G in entries}


def checked(spec):
    """The (id, group, m) arguments of a per-group check, for a fresh group."""
    ((gid, G),) = cat.build_catalog([spec])
    return gid, G, max_abelian_order(G).m


# ── divisibility (unconditional) ────────────────────────────────────

def test_divisibility_s5():
    chk = vf.divisibility_check(*checked("sym:5"))
    assert chk.passed and chk.m == 6
    assert chk.detail["g_m"] == 120 and chk.detail["quotient"] == 1


def test_divisibility_a5():
    chk = vf.divisibility_check(*checked("alt:5"))
    assert chk.passed and chk.m == 5
    assert chk.detail["g_m"] == 120 and chk.detail["quotient"] == 2


def test_divisibility_m11():
    chk = vf.divisibility_check(*checked("file:groups/m11.gens"))
    assert chk.passed and chk.m == 11
    assert chk.detail["g_m"] == 665280 and chk.detail["quotient"] == 84


def test_divisibility_detail_supports_rederivation(by_id):
    chk = vf.divisibility_check("sym:6", *by_id["sym:6"])
    assert chk.detail["g_m"] == nt.prime_power_product(chk.m).value
    assert chk.detail["g_m"] == chk.order * chk.detail["quotient"]


# ── refined divisibility ────────────────────────────────────────────

def test_refined_s4():
    chk = vf.refined_divisibility_check(*checked("sym:4"))
    assert chk.passed and chk.detail["divides"]
    assert chk.detail["chosen_p"] == 3
    assert chk.detail["g_m"] == 24 and chk.detail["h_m"] == 3


def test_refined_s5():
    chk = vf.refined_divisibility_check(*checked("sym:5"))
    assert chk.passed and chk.detail["chosen_p"] == 5


def test_refined_named_exceptions():
    s3 = vf.refined_divisibility_check(*checked("sym:3"))
    assert s3.passed
    assert not s3.detail["divides"]
    assert not s3.detail["inequality_holds"]  # 3*6/6 = 3 < 6
    assert s3.detail["expected_exception"] == "named_inequality_exception"

    a5 = vf.refined_divisibility_check(*checked("alt:5"))
    assert a5.passed
    assert not a5.detail["divides"]
    assert not a5.detail["inequality_holds"]  # 5*120/15 = 40 < 60
    assert a5.detail["expected_exception"] == "named_inequality_exception"


def test_refined_two_prime_exemption_keeps_inequality():
    chk = vf.refined_divisibility_check(*checked("psl2:13"))
    assert chk.passed
    assert not chk.detail["divides"]
    assert chk.detail["inequality_holds"]
    assert chk.detail["expected_exception"] == "two_large_primes"


def test_refined_passes_catalog_except_exceptions(entries):
    report = vf.run_suite("goh", entries)
    assert report.all_passed
    excepted = {
        c.group_id for c in report.checks if c.detail["expected_exception"]
    }
    assert excepted == {"sym:3", "alt:5", "psl2:13"}
    named = {
        c.group_id
        for c in report.checks
        if c.detail["expected_exception"] == "named_inequality_exception"
    }
    assert named == {"sym:3", "alt:5"}
    # the weaker inequality |G| <= m*g(m)/h(m) fails nowhere else
    violating = {c.group_id for c in report.checks if not c.detail["inequality_holds"]}
    assert violating == {"sym:3", "alt:5"}


# ── large primes and classification ─────────────────────────────────

def test_large_primes_examples(by_id):
    assert vf.large_primes(*by_id["alt:5"]) == [3, 5]
    assert vf.large_primes(*by_id["psl2:13"]) == [7, 13]
    assert vf.large_primes(*by_id["sym:6"]) == [5]


def test_large_primes_divide_order(by_id):
    for gid in ["alt:5", "psl2:13", "sym:6", "agl3_2"]:
        G, m = by_id[gid]
        assert all(G.order_value % p == 0 and p > m / 2 for p in vf.large_primes(G, m))


@pytest.mark.parametrize(
    "gid,case",
    [
        ("frobenius:5:4", "case1_frobenius"),
        ("sym:3", "case2_s3"),
        ("agammal1:3", "case3_agammal"),
        ("alt:5", "case4_almost_simple"),
        ("psl2:7", "case4_almost_simple"),
    ],
)
def test_classification(by_id, gid, case):
    assert vf.classify_large_prime_case(*by_id[gid]) == case


def test_classification_post_hoc_predicates(by_id):
    # re-verify each returned case from first principles
    g = by_id["frobenius:5:4"][0]
    sylow5 = g.sylow_subgroup(5)
    assert g.is_normal(sylow5) and g.centralizer(sylow5.generators).order_value == 5

    g = by_id["agammal1:3"][0]
    minimals = g.minimal_normal_subgroups()
    assert any(
        h.order_value == 8 and h.is_abelian() and 7 in vf.large_primes(*by_id["agammal1:3"])
        for h in minimals
    )

    g = by_id["alt:5"][0]
    (n,) = g.minimal_normal_subgroups()
    assert n.order_value == 60 and g.centralizer(n.generators).order_value == 1


def test_classification_requires_large_prime(by_id):
    with pytest.raises(ValueError, match="no large prime"):
        vf.classify_large_prime_case(*by_id["alt:8"])  # m = 16, no prime > 8


def test_agammal1_2_classifies_as_case3():
    # the a = 2 field gives the order-24 symmetric group; the classifier
    # reports the elementary-abelian minimal normal subgroup case
    _, G, m = checked("agammal1:2")
    assert vf.classify_large_prime_case(G, m) == "case3_agammal"


def test_every_default_catalog_group_is_classified(by_id):
    got = {}
    for gid, (G, m) in by_id.items():
        if vf.large_primes(G, m):
            got.setdefault(vf.classify_large_prime_case(G, m), set()).add(gid)
        else:
            with pytest.raises(ValueError, match="no large prime"):
                vf.classify_large_prime_case(G, m)
            got.setdefault(None, set()).add(gid)
    assert got == {
        "case1_frobenius": {"sym:2", "frobenius:5:4", "frobenius:7:3"},
        "case2_s3": {"sym:3"},
        "case3_agammal": {"sym:4", "alt:4", "agammal1:3"},
        "case4_almost_simple": {
            "sym:5", "sym:6", "sym:7", "alt:5", "alt:6", "alt:7",
            "psl2:7", "psl2:11", "psl2:13", "pgl2:7",
        },
        None: {
            "alt:8", "cyclic:12", "cyclic:30", "dihedral:8", "dihedral:12",
            "elem_abelian:3:2", "elem_abelian:2:4", "agammal1:4", "agl3_2",
        },
    }


# ── scans ───────────────────────────────────────────────────────────

def test_two_prime_scan_default_catalog(entries):
    report = vf.run_suite("twoprime", entries)
    assert report.all_passed
    flagged = {c.group_id for c in report.checks if c.detail["flagged"]}
    assert flagged == {"sym:3", "alt:5", "psl2:13"}


def test_no_catalog_group_has_three_large_primes(by_id):
    for G, m in by_id.values():
        assert len(vf.large_primes(G, m)) <= 2


def test_random_products_stay_in_group(entries):
    # products formed outside the table, then looked up in it
    import numpy as np

    from abelmax.perms import Permutation

    rng = np.random.default_rng(20260809)
    for _, G in entries:
        table = G.element_table()
        n = len(table)
        for i, j in rng.integers(0, n, size=(1000, 2)):
            prod = Permutation(table.matrix[int(i)].tolist()) * Permutation(
                table.matrix[int(j)].tolist()
            )
            table.position(prod)


def test_two_prime_scan_subset_without_psl2_13():
    entries = cat.build_catalog(["sym:3", "alt:5", "sym:6", "pgl2:7"])
    report = vf.run_suite("twoprime", entries)
    assert report.all_passed
    flagged = {c.group_id for c in report.checks if c.detail["flagged"]}
    assert flagged == {"sym:3", "alt:5"}


def test_pgl2_13_not_flagged():
    entries = cat.build_catalog(["pgl2:13"])
    report = vf.run_suite("twoprime", entries)
    (chk,) = report.checks
    assert chk.passed and not chk.detail["flagged"]
    assert chk.m == 14  # p + 1
    assert chk.detail["large_primes"] == "13"


def test_two_prime_fingerprints_catch_aliases():
    # isomorphic copies under other family names are still expected
    entries = cat.build_catalog(["dihedral:3", "frobenius:3:2", "psl2:5"])
    report = vf.run_suite("twoprime", entries)
    assert report.all_passed
    assert all(c.detail["flagged"] and c.detail["expected"] for c in report.checks)


def test_cyclic_group_of_a_sporadic_order_is_not_expected(monkeypatch):
    # order 175560 = |J1|, but abelian: only a simple group of that order
    # is J1, so the order alone must not put a group on the expected list
    monkeypatch.chdir(Path(__file__).parent / "data")
    ((_, G),) = cat.build_catalog(["file:cyclic_175560.gens"])
    assert G.order_value == 175_560
    assert not vf.is_expected_two_prime_group(G)


def test_j1_verdicts_of_verify_all(monkeypatch):
    # J1 is the simple group behind the sporadic order 175560: its two
    # large primes 11 and 19 are expected, so the refined statement's
    # failure to divide is an expected exception, not a failed check
    monkeypatch.chdir(Path(__file__).resolve().parents[1])
    entries = cat.build_catalog(["file:groups/j1.gens"])
    report = vf.run_suite("all", entries)
    rows = {c.theorem: c for c in report.checks if c.group_id == "file:groups/j1.gens"}
    assert report.all_passed and report.summary["expected_exceptions"] == 2
    assert {(c.m, c.order) for c in rows.values()} == {(19, 175_560)}
    assert rows["divisibility"].detail["quotient"] == 254_592
    refined = rows["refined_divisibility"].detail
    assert not refined["divides"] and refined["expected_exception"] == "two_large_primes"
    assert rows["two_prime"].detail == {"expected": True, "flagged": True, "large_primes": "11 19"}
    assert rows["equality"].detail["equal"] is False
    assert rows["equality"].detail["expected"] is False


def test_equality_scan(entries):
    report = vf.run_suite("equality", entries)
    assert report.all_passed
    equal = {c.group_id for c in report.checks if c.detail.get("equal")}
    assert equal == {"sym:2", "sym:3", "sym:4", "sym:5"}
    open_items = [c for c in report.checks if c.detail.get("status") == "open_unverified"]
    assert len(open_items) == 1 and open_items[0].m == 10


def test_isomorphic_aliases_pass_every_suite(monkeypatch):
    # S2, S3, S3, S4 and S5 under other family names, and groups of order
    # n! that are not S_n (SL(2,3), C2 x A4, SL(2,5), C2 x A5 and C5 x S4
    # from generator files); the equality verdict follows the group
    aliases = ["cyclic:2", "dihedral:3", "frobenius:3:2", "agammal1:2", "pgl2:5"]
    others = ["cyclic:6", "dihedral:12", "dihedral:60"] + [
        f"file:{name}.gens" for name in ("sl2_3", "c2_x_a4", "sl2_5", "c2_x_a5", "c5_x_s4")
    ]
    monkeypatch.chdir(Path(__file__).parent / "data")
    entries = cat.build_catalog(aliases + others)
    report = vf.run_suite("all", entries)
    assert report.all_passed
    expected = {c.group_id: c.detail["expected"]
                for c in report.checks if c.theorem == "equality" and "expected" in c.detail}
    assert expected == {gid: gid in aliases for gid in aliases + others}


def test_symmetric_order_profiles_match_the_symmetric_groups():
    for n in range(2, 6):
        orders = cat.sym_group(n).element_table().orders
        profile = Counter(int(o) for o in orders)
        assert vf._SYMMETRIC_ORDER_PROFILES[math.factorial(n)] == profile
    assert len(vf._SYMMETRIC_ORDER_PROFILES) == 4


# ── p-group suite ───────────────────────────────────────────────────

def test_pgroup_suite_small():
    inputs = [
        ("dihedral:4", cat.dihedral_group(4)),
        ("elem_abelian:3:2", cat.elem_abelian_group(3, 2)),
        ("cyclic:7", cat.cyclic_group(7)),
    ]
    report = vf.pgroup_bound_suite(inputs)
    assert report.all_passed
    assert {c.theorem for c in report.checks} == {"pgroup_bound", "burnside"}
    d8_bound = next(
        c for c in report.checks
        if c.group_id == "dihedral:4" and c.theorem == "pgroup_bound"
    )
    assert d8_bound.detail["k"] == 3 and d8_bound.detail["s"] == 2


def test_sym8_sylow_inputs_have_the_sylow_orders():
    # built from explicit generators; |S8| = 8! = 2^7 * 3^2 * 5 * 7
    inputs = dict(vf.catalog_pgroup_inputs([]))
    s8 = nt.FactoredInteger.from_int(math.factorial(8))
    assert inputs["sylow(sym:8,2)"].order_value == 2 ** s8.factors[2] == 128
    assert inputs["sylow(sym:8,3)"].order_value == 3 ** s8.factors[3] == 9


def test_catalog_pgroup_inputs_respect_bound(entries):
    inputs = vf.catalog_pgroup_inputs(entries)
    ids = [gid for gid, _ in inputs]
    assert "sylow(sym:8,2)" in ids
    assert any(gid.startswith("sylow(file") is False for gid in ids)
    assert not any(gid.startswith("sylow(alt:8") for gid in ids)  # 20160 > bound
    for gid, pg in inputs:
        assert len(pg.order.factors) == 1


# ── suite driver and reports ────────────────────────────────────────

def test_run_suite_all(entries):
    report = vf.run_suite("all", entries)
    assert report.all_passed
    assert report.summary["checks"] == len(report.checks)
    assert report.summary["expected_exceptions"] == 4
    themes = {c.theorem for c in report.checks}
    assert themes == {
        "divisibility",
        "refined_divisibility",
        "two_prime",
        "equality",
        "pgroup_bound",
        "burnside",
    }


def test_every_table_is_built_under_the_suite_cap(monkeypatch):
    # the cap is checked only when a group with a chain builds its table,
    # so every such build in a suite run must come from a call that passes
    # the suite's cap; a subgroup's table (a Sylow subgroup, a search
    # node) is a slice of its parent's and checks no cap of its own
    from abelmax.perms import DEFAULT_ENUM_CAP, PermGroup

    original = PermGroup.element_table
    tables, caps = [], []

    def recording(self, cap=DEFAULT_ENUM_CAP):
        table = original(self, cap)
        if self.parent is None and not any(t is table for t in tables):
            tables.append(table)
            caps.append(cap)
        return table

    monkeypatch.setattr(PermGroup, "element_table", recording)
    # fresh groups per suite, so that each suite may be the first to enumerate
    for suite in ("all", "a", "goh", "lemma", "twoprime", "equality"):
        entries = cat.build_catalog(cat.default_catalog_specs())
        vf.run_suite(suite, entries, enum_cap=150_000)
    assert caps and set(caps) == {150_000}


def test_run_suite_all_builds_chains_only_for_explicit_pgroups(monkeypatch):
    # Sylow subgroups, centers and minimal normal subgroups are slices of
    # their parent's table; the only chains built after the catalog are
    # those of the nine explicit p-groups of the lemma suite
    from abelmax import perms

    entries = cat.build_catalog(cat.default_catalog_specs())
    built = []
    init = perms.StabilizerChain.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(perms.StabilizerChain, "__init__", counting_init)
    vf.run_suite("all", entries)
    assert len(built) == 9


def test_run_suite_computes_each_m_once(entries, monkeypatch):
    searched = []
    search = vf.max_abelian_order

    def counting(G):
        searched.append(G)
        return search(G)

    monkeypatch.setattr(vf, "max_abelian_order", counting)
    vf.run_suite("all", entries)
    assert len(searched) == 26
    assert all(a is b for a, (_, b) in zip(searched, entries))
    searched.clear()
    vf.run_suite("lemma", entries)
    assert searched == []


def test_run_suite_rejects_unknown(entries):
    with pytest.raises(ValueError, match="unknown suite"):
        vf.run_suite("everything", entries)


def test_json_report_schema(entries):
    report = vf.run_suite("twoprime", entries)
    payload = json.loads(vf.report_to_json(report))
    assert set(payload) == {"summary", "checks"}
    first = payload["checks"][0]
    assert set(first) == {"theorem", "group_id", "passed", "m", "order", "detail"}


def test_csv_report_schema(entries):
    report = vf.run_suite("equality", entries)
    text = vf.report_to_csv(report)
    lines = text.splitlines()
    header = lines[0].split(",")
    assert header[:5] == ["theorem", "group_id", "passed", "m", "order"]
    assert all(h.startswith("detail_") for h in header[5:])
    assert len(lines) == len(report.checks) + 1


def test_reports_are_deterministic(entries):
    a = vf.report_to_csv(vf.run_suite("equality", entries))
    b = vf.report_to_csv(vf.run_suite("equality", entries))
    assert a == b
    ja = vf.report_to_json(vf.run_suite("twoprime", entries))
    jb = vf.report_to_json(vf.run_suite("twoprime", entries))
    assert ja == jb


def test_order_of_psl2_13_alone_is_not_expected(tmp_path, monkeypatch):
    # 1092 = |PSL(2, 13)| with an element of order 13, but only a simple
    # group of that order is PSL(2, 13): neither the cyclic group nor
    # Frobenius 13:12 x C7 (on disjoint points) may be expected
    (tmp_path / "frob13_12_x_c7.gens").write_text(
        "degree 20\n"
        "gen (1,2,3,4,5,6,7,8,9,10,11,12,13)\n"
        "gen (2,3,5,9,4,7,13,12,10,6,11,8)\n"
        "gen (14,15,16,17,18,19,20)\n"
        "expect_order 1092\n"
    )
    specs = ["cyclic:1092", "file:frob13_12_x_c7.gens", "psl2:13", "frobenius:13:12"]
    monkeypatch.chdir(tmp_path)
    entries = cat.build_catalog(specs)
    assert not entries[1][1].is_abelian()
    report = vf.run_suite("twoprime", entries)
    assert report.all_passed
    assert [c.detail["expected"] for c in report.checks] == [False, False, True, False]
    assert [c.detail["flagged"] for c in report.checks] == [False, False, True, False]
