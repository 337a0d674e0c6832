"""Structured check suites over group catalogs.

Each check produces a TheoremCheck record carrying every number that
decided the verdict, so a report can be re-derived by hand.  Reports
serialize to JSON (nested) and CSV (one row per check, columns
``theorem,group_id,passed,m,order,detail_*``).  Timing never enters a
report, which keeps repeated runs byte-identical.

The checks:

* ``divisibility``          - |G| divides prime_power_product(m(G)); holds
                              unconditionally, so any failure flags a bug.
* ``refined_divisibility``  - some prime p in (m/2, m] has |G| dividing
                              p * g(m)/h(m).  Groups whose order carries
                              two primes above m/2 sit outside the
                              statement's hypothesis and are flagged as
                              expected exceptions, not failures; among
                              them the order-6 nonabelian group and the
                              order-60 simple group also break the
                              weaker inequality |G| <= m*g(m)/h(m) and
                              are tagged as the named exceptions.
* ``two_prime``             - the groups with two prime divisors above
                              m/2 are exactly the expected ones.
* ``equality``              - |G| = g(m(G)) exactly for the symmetric
                              groups S2..S5 and nothing else, recognised
                              by order and element-order profile.
* ``pgroup_bound``/``burnside`` - exponent bounds on p-groups.
"""

from __future__ import annotations

import csv
import io
import json
from collections import Counter
from dataclasses import dataclass, field

from . import numtheory as nt
from .catalog import CatalogEntry, dihedral_group, elem_abelian_group
from .perms import DEFAULT_ENUM_CAP, PermGroup, Permutation
from .search import MaxAbelianResult, max_abelian_normal, max_abelian_order

PGROUP_SUITE_ORDER_BOUND = 10_000

# Orders of the sporadic groups J1 and J3, which belong on the
# two-large-prime list; each is the only simple group of its order.
SPORADIC_TWO_PRIME_ORDERS = {175_560, 50_232_960}


@dataclass
class TheoremCheck:
    theorem: str
    group_id: str
    passed: bool
    m: int
    order: int
    detail: dict[str, object] = field(default_factory=dict)


@dataclass
class LargePrimeReport:
    group_id: str
    order: nt.FactoredInteger
    m: int
    large_primes: list[int]
    case: str  # none | case1_frobenius | case2_s3 | case3_agammal | case4_almost_simple | unclassified


@dataclass
class VerificationReport:
    checks: list[TheoremCheck]
    summary: dict[str, int]

    @classmethod
    def from_checks(cls, checks: list[TheoremCheck]) -> "VerificationReport":
        expected = sum(1 for c in checks if c.detail.get("expected_exception"))
        return cls(
            checks,
            {
                "checks": len(checks),
                "passed": sum(1 for c in checks if c.passed),
                "failed": sum(1 for c in checks if not c.passed),
                "expected_exceptions": expected,
            },
        )

    @property
    def all_passed(self) -> bool:
        return self.summary["failed"] == 0


def entry_max_abelian(entry: CatalogEntry) -> MaxAbelianResult:
    """m(G) for a catalog entry, computed once and cached on the entry."""
    result = entry.cache.get("max_abelian")
    if result is None:
        result = max_abelian_order(entry.group)
        entry.cache["max_abelian"] = result
    return result


# ── per-group checks ────────────────────────────────────────────────

def divisibility_check(entry: CatalogEntry) -> TheoremCheck:
    """|G| divides the product of all prime powers <= m(G)."""
    m = entry_max_abelian(entry).m
    g_m = nt.prime_power_product(m)
    order = entry.group.order
    divides = order.divides(g_m)
    detail = {"g_m": g_m.value, "order_factored": order.factored_str()}
    if divides:
        detail["quotient"] = g_m.value // order.value
    return TheoremCheck("divisibility", entry.group_id, divides, m, order.value, detail)


def large_primes(entry: CatalogEntry) -> LargePrimeReport:
    """Prime divisors of |G| strictly above m(G)/2."""
    m = entry_max_abelian(entry).m
    order = entry.group.order
    primes = sorted(p for p in order.factors if p > m / 2)
    return LargePrimeReport(entry.group_id, order, m, primes, "none")


def refined_divisibility_check(entry: CatalogEntry) -> TheoremCheck:
    """|G| divides p * g(m)/h(m) for some prime p in (m/2, m].

    Groups with two large prime divisors fall outside the statement and
    are marked as expected exceptions; everything else must divide.
    """
    rep = large_primes(entry)
    m, order = rep.m, entry.group.order
    if order.value == 1:
        return TheoremCheck(
            "refined_divisibility", entry.group_id, True, m, 1,
            {"divides": True, "inequality_holds": True, "chosen_p": 0,
             "expected_exception": "", "note": "trivial group"},
        )
    g_m = nt.prime_power_product(m)
    h_m = nt.upper_half_prime_product(m)
    base = g_m.exact_div(h_m)
    candidates = nt.primes_in_halfopen(m / 2, m)
    chosen = 0
    for p in candidates:
        if order.divides(nt.FactoredInteger.from_factors({p: 1}) * base):
            chosen = p
            break
    inequality_holds = order.value <= m * base.value
    detail: dict[str, object] = {
        "g_m": g_m.value,
        "h_m": h_m.value,
        "candidate_primes": " ".join(map(str, candidates)),
        "chosen_p": chosen,
        "divides": chosen != 0,
        "inequality_holds": inequality_holds,
        "large_primes": " ".join(map(str, rep.large_primes)),
        "expected_exception": "",
    }
    passed = chosen != 0
    if not passed and len(rep.large_primes) >= 2:
        # outside the hypothesis; the inequality separates the named pair
        detail["expected_exception"] = (
            "two_large_primes" if inequality_holds else "named_inequality_exception"
        )
        passed = True
    return TheoremCheck(
        "refined_divisibility", entry.group_id, passed, m, order.value, detail
    )


# ── classification of the large-prime cases ─────────────────────────

def classify_large_prime_case(entry: CatalogEntry) -> LargePrimeReport:
    """Which structural case a group with a large prime divisor falls in.

    The cases are tested most-specific first; a group that fits none of
    the predicates under the caps is reported ``unclassified`` rather
    than guessed.
    """
    # m(G) enumerates G; the structural tests read that table
    rep = large_primes(entry)
    if not rep.large_primes:
        raise ValueError(f"{entry.group_id} has no large prime divisor")
    rep.case = _large_prime_case(entry.group, rep.large_primes)
    return rep


def _large_prime_case(G: PermGroup, primes: list[int]) -> str:
    if G.order_value == 6 and not G.is_abelian():
        return "case2_s3"
    for p in sorted(primes, reverse=True):
        if G.order.factors.get(p) == 1:
            P = G.sylow_subgroup(p)
            if G.is_normal(P) and G.centralizer(P.generators).order_value == p:
                return "case1_frobenius"
    minimals = G.minimal_normal_subgroups()
    for N in minimals:
        # elementary abelian of order 2^a, where 2^a - 1 is a large prime
        o = N.order_value
        if o - 1 in primes and o & (o - 1) == 0 and N.is_abelian():
            if (G.element_table().orders[N.members] <= 2).all():
                return "case3_agammal"
    if len(minimals) == 1:
        (N,) = minimals
        if (
            not N.is_abelian()
            and N.is_simple()
            and G.centralizer(N.generators).order_value == 1
        ):
            return "case4_almost_simple"
    return "unclassified"


# ── fingerprints for the expected two-large-prime set ───────────────

_A5_ORDER_PROFILE = Counter({1: 1, 2: 15, 3: 20, 5: 24})


def _order_profile(group: PermGroup) -> Counter:
    return Counter(int(o) for o in group.element_table().orders)


def is_expected_two_prime_group(entry: CatalogEntry) -> bool:
    """Order-plus-structure fingerprint for the groups allowed two large primes.

    Matches the order-6 nonabelian group, the order-60 simple group,
    the nonabelian simple groups of the order of psl2:p (p > 5 prime,
    (p+1)/2 prime) with an element of order p, and the nonabelian
    simple groups of the two sporadic orders.
    """
    G = entry.group
    n = G.order_value
    if n == 6:
        return not G.is_abelian()
    if n == 60:
        return _order_profile(G) == _A5_ORDER_PROFILE
    if n in SPORADIC_TWO_PRIME_ORDERS:
        if G.is_abelian():
            return False
        return G.is_simple()
    if G.order.factors:
        p = max(G.order.factors)
        if (
            p > 5
            and n == p * (p - 1) * (p + 1) // 2
            and nt.is_prime((p + 1) // 2)
            and G.order.factors[p] == 1
            and p in _order_profile(G)
            and not G.is_abelian()
            and G.is_simple()
        ):
            return True
    return False


# ── catalog scans ───────────────────────────────────────────────────

def two_large_prime_scan(entries: list[CatalogEntry]) -> VerificationReport:
    """Flag groups with two large primes; they must be exactly the expected set."""
    checks = []
    for entry in entries:
        rep = large_primes(entry)
        flagged = len(rep.large_primes) >= 2
        expected = is_expected_two_prime_group(entry)
        checks.append(
            TheoremCheck(
                "two_prime",
                entry.group_id,
                flagged == expected,
                rep.m,
                rep.order.value,
                {
                    "large_primes": " ".join(map(str, rep.large_primes)),
                    "flagged": flagged,
                    "expected": expected,
                },
            )
        )
    return VerificationReport.from_checks(checks)


# the element-order profiles of S2..S5, keyed by the group order n!
_SYMMETRIC_ORDER_PROFILES = {
    2: Counter({1: 1, 2: 1}),
    6: Counter({1: 1, 2: 3, 3: 2}),
    24: Counter({1: 1, 2: 9, 3: 8, 4: 6}),
    120: Counter({1: 1, 2: 25, 3: 20, 4: 30, 5: 24, 6: 20}),
}


def _is_small_symmetric(group: PermGroup) -> bool:
    """Whether the group is S_n for some n in 2..5.

    Among the groups of order n!, S_n is the only one with its
    element-order profile, so the verdict depends on the group alone.
    """
    profile = _SYMMETRIC_ORDER_PROFILES.get(group.order_value)
    return profile is not None and _order_profile(group) == profile


def equality_scan(entries: list[CatalogEntry]) -> VerificationReport:
    """Test |G| = prime_power_product(m(G)) exactly; equality only at S2..S5."""
    checks = []
    for entry in entries:
        m = entry_max_abelian(entry).m
        g_m = nt.prime_power_product(m)
        equal = entry.group.order_value == g_m.value
        # the equality statement concerns nontrivial groups; |G| = 1 = g(1)
        # vacuously and is not counted against the expected set
        expected = entry.group.order_value == 1 or _is_small_symmetric(entry.group)
        checks.append(
            TheoremCheck(
                "equality",
                entry.group_id,
                equal == expected,
                m,
                entry.group.order_value,
                {"g_m": g_m.value, "equal": equal, "expected": expected},
            )
        )
    # The m = 10 equality case would need every group of order 2^6 checked
    # for an abelian subgroup of order >= 2^4; that sweep is outside desk
    # scale, so the item is recorded as open instead of silently dropped.
    checks.append(
        TheoremCheck(
            "equality",
            "order-64-exhaustive",
            True,
            10,
            nt.prime_power_product(10).value,
            {
                "status": "open_unverified",
                "expected_exception": "open_item",
                "note": "needs all 267 groups of order 64; not desk-checkable",
            },
        )
    )
    return VerificationReport.from_checks(checks)


# ── p-group suite ───────────────────────────────────────────────────

def catalog_pgroup_inputs(
    entries: list[CatalogEntry], enum_cap: int = DEFAULT_ENUM_CAP
) -> list[tuple[str, PermGroup]]:
    """Sylow subgroups of the catalog groups up to
    ``PGROUP_SUITE_ORDER_BOUND``, plus a fixed family of explicit
    p-groups, each with its element table built under ``enum_cap``.
    A Sylow subgroup is the subgroup itself, whose table is a slice of
    its group's, so only the explicit p-groups build stabilizer chains."""
    inputs: list[tuple[str, PermGroup]] = []
    for entry in entries:
        order = entry.group.order_value
        if order > PGROUP_SUITE_ORDER_BOUND or order == 1:
            continue
        entry.group.element_table(enum_cap)
        for p in entry.group.order.factors:
            inputs.append((f"sylow({entry.group_id},{p})", entry.group.sylow_subgroup(p)))
    for n in (4, 8, 16, 32):
        inputs.append((f"dihedral:{n}", dihedral_group(n)))
    # the Sylow subgroups of sym:8 from explicit generators rather than
    # an enumeration of its 40320 elements: C2 wr C2 wr C2 and C3 x C3
    wreath = [[(0, 1)], [(0, 2), (1, 3)], [(0, 4), (1, 5), (2, 6), (3, 7)]]
    for p, cycles in ((2, wreath), (3, [[(0, 1, 2)], [(3, 4, 5)]])):
        gens = [Permutation.from_cycles(8, c) for c in cycles]
        inputs.append((f"sylow(sym:8,{p})", PermGroup(gens)))
    inputs.append(("elem_abelian:2:4", elem_abelian_group(2, 4)))
    inputs.append(("elem_abelian:3:2", elem_abelian_group(3, 2)))
    inputs.append(("elem_abelian:5:2", elem_abelian_group(5, 2)))
    for _, pgroup in inputs:
        pgroup.element_table(enum_cap)
    return inputs


def pgroup_bound_suite(pgroups: list[tuple[str, PermGroup]]) -> VerificationReport:
    """Run the exponent-bound checks over a list of (id, p-group) pairs.

    With |P| = p^k, p^s the order of a largest abelian normal subgroup
    and p^c that of the center, ``pgroup_bound`` checks k <= s(s+1)/2 and
    ``burnside`` checks k - v <= (v-c)(v+c-1)/2, with v = s.  A trivial
    or non-p-group input raises ValueError (from ``max_abelian_normal``).
    """
    checks = []
    for gid, pg in pgroups:
        witness = max_abelian_normal(pg)
        ((p, k),) = pg.order.factors.items()
        s = nt.FactoredInteger.from_int(witness.order).factors[p]
        assert witness.order == p**s
        c = pg.center().order.factors[p]
        base = {"p": p, "k": k, "s": s, "c": c, "v": s}
        for theorem, holds in (
            ("pgroup_bound", k <= s * (s + 1) // 2),
            ("burnside", k - s <= (s - c) * (s + c - 1) // 2),
        ):
            checks.append(
                TheoremCheck(theorem, gid, holds, witness.order, pg.order_value, dict(base))
            )
    return VerificationReport.from_checks(checks)


# ── suite drivers ───────────────────────────────────────────────────

def run_suite(
    suite: str,
    entries: list[CatalogEntry],
    enum_cap: int = DEFAULT_ENUM_CAP,
) -> VerificationReport:
    """Run one of the named suites: a, goh, lemma, twoprime, equality, all.

    ``enum_cap`` is checked where tables are first built: here, on each
    entry in order (every suite but ``lemma`` computes each m(G)), and in
    ``catalog_pgroup_inputs`` for the p-groups that ``lemma`` checks.
    """
    if suite == "lemma":
        return pgroup_bound_suite(catalog_pgroup_inputs(entries, enum_cap))
    if suite not in ("a", "goh", "twoprime", "equality", "all"):
        raise ValueError(
            f"unknown suite {suite!r}; valid: a, goh, lemma, twoprime, equality, all"
        )
    for entry in entries:
        entry.group.element_table(enum_cap)
    if suite == "a":
        return VerificationReport.from_checks([divisibility_check(e) for e in entries])
    if suite == "goh":
        return VerificationReport.from_checks(
            [refined_divisibility_check(e) for e in entries]
        )
    if suite == "twoprime":
        return two_large_prime_scan(entries)
    if suite == "equality":
        return equality_scan(entries)
    checks = []  # "all": every suite's checks, in this order
    for name in ("a", "goh", "twoprime", "equality", "lemma"):
        checks.extend(run_suite(name, entries, enum_cap).checks)
    return VerificationReport.from_checks(checks)


# ── serialization ───────────────────────────────────────────────────

def report_to_json(report: VerificationReport) -> str:
    payload = {
        "summary": report.summary,
        "checks": [
            {
                "theorem": c.theorem,
                "group_id": c.group_id,
                "passed": c.passed,
                "m": c.m,
                "order": c.order,
                "detail": dict(sorted(c.detail.items())),
            }
            for c in report.checks
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=False) + "\n"


def _csv_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def report_to_csv(report: VerificationReport) -> str:
    detail_keys = sorted({k for c in report.checks for k in c.detail})
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["theorem", "group_id", "passed", "m", "order"]
                    + [f"detail_{k}" for k in detail_keys])
    for c in report.checks:
        row = [c.theorem, c.group_id, _csv_cell(c.passed), c.m, c.order]
        row += [_csv_cell(c.detail[k]) if k in c.detail else "" for k in detail_keys]
        writer.writerow(row)
    return buf.getvalue()


def report_to_text(report: VerificationReport) -> str:
    lines = []
    for c in report.checks:
        status = "pass" if c.passed else "FAIL"
        note = ""
        if c.detail.get("expected_exception"):
            note = f"  [expected exception: {c.detail['expected_exception']}]"
        lines.append(
            f"{status}  {c.theorem:20s} {c.group_id:24s} m={c.m} order={c.order}{note}"
        )
    s = report.summary
    lines.append(
        f"summary: {s['checks']} checks, {s['passed']} passed, {s['failed']} failed, "
        f"{s['expected_exceptions']} expected exceptions"
    )
    return "\n".join(lines) + "\n"
