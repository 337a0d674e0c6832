"""Structured check suites over group catalogs.

A group to check is an ``(id, group)`` pair, as ``catalog.build_catalog``
returns them; the id is the spec string that names the group in
reports.  ``run_suite`` computes each group's m(G) once per run and
hands it to every per-group check, ``check(gid, G, m)``.

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
                              by order and element-order profile.  The
                              suite ends with the order-64 sub-case as
                              an open item.
* ``pgroup_bound``/``burnside`` - exponent bounds on p-groups.
"""

from __future__ import annotations

import csv
import io
import json
from collections import Counter
from dataclasses import dataclass, field

from . import numtheory as nt
from .catalog import build_catalog
from .perms import DEFAULT_ENUM_CAP, PermGroup, Permutation
from .search import max_abelian_normal, max_abelian_order

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


# ── per-group checks ────────────────────────────────────────────────

def divisibility_check(gid: str, G: PermGroup, m: int) -> TheoremCheck:
    """|G| divides the product of all prime powers <= m(G)."""
    g_m = nt.prime_power_product(m)
    order = G.order
    divides = order.divides(g_m)
    detail = {"g_m": g_m.value, "order_factored": order.factored_str()}
    if divides:
        detail["quotient"] = g_m.value // order.value
    return TheoremCheck("divisibility", gid, divides, m, order.value, detail)


def large_primes(G: PermGroup, m: int) -> list[int]:
    """Prime divisors of |G| strictly above m(G)/2, ascending."""
    return sorted(p for p in G.order.factors if p > m / 2)


def refined_divisibility_check(gid: str, G: PermGroup, m: int) -> TheoremCheck:
    """|G| divides p * g(m)/h(m) for some prime p in (m/2, m].

    Groups with two large prime divisors fall outside the statement and
    are marked as expected exceptions; everything else must divide.
    """
    order = G.order
    if order.value == 1:
        return TheoremCheck(
            "refined_divisibility", gid, True, m, 1,
            {"divides": True, "inequality_holds": True, "chosen_p": 0,
             "expected_exception": "", "note": "trivial group"},
        )
    primes = large_primes(G, m)
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
        "large_primes": " ".join(map(str, primes)),
        "expected_exception": "",
    }
    passed = chosen != 0
    if not passed and len(primes) >= 2:
        # outside the hypothesis; the inequality separates the named pair
        detail["expected_exception"] = (
            "two_large_primes" if inequality_holds else "named_inequality_exception"
        )
        passed = True
    return TheoremCheck("refined_divisibility", gid, passed, m, order.value, detail)


def two_prime_check(gid: str, G: PermGroup, m: int) -> TheoremCheck:
    """Two large primes are flagged exactly on the expected groups."""
    primes = large_primes(G, m)
    flagged = len(primes) >= 2
    expected = is_expected_two_prime_group(G)
    return TheoremCheck(
        "two_prime", gid, flagged == expected, m, G.order_value,
        {"large_primes": " ".join(map(str, primes)), "flagged": flagged, "expected": expected},
    )


def equality_check(gid: str, G: PermGroup, m: int) -> TheoremCheck:
    """|G| = prime_power_product(m(G)) exactly; equality only at S2..S5."""
    g_m = nt.prime_power_product(m)
    equal = G.order_value == g_m.value
    # the equality statement concerns nontrivial groups; |G| = 1 = g(1)
    # vacuously and is not counted against the expected set
    expected = G.order_value == 1 or _is_small_symmetric(G)
    return TheoremCheck(
        "equality", gid, equal == expected, m, G.order_value,
        {"g_m": g_m.value, "equal": equal, "expected": expected},
    )


def _order64_open_item() -> TheoremCheck:
    # The m = 10 equality case would need every group of order 2^6 checked
    # for an abelian subgroup of order >= 2^4; that sweep is outside desk
    # scale, so the item is recorded as open instead of silently dropped.
    return TheoremCheck(
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


# ── classification of the large-prime cases ─────────────────────────

def classify_large_prime_case(G: PermGroup, m: int) -> str:
    """Which structural case a group with a large prime divisor falls in.

    The cases are tested most-specific first; a group that fits none of
    the predicates under the caps is reported ``unclassified`` rather
    than guessed.  Two predicates read the statement in a particular
    way: every C_p lands in case 1 with C = 1 (``sym:2``), although the
    statement asks for a non-trivial C; and case 3 asks for a *minimal
    normal* elementary abelian 2^a, so ``sym:7`` (p = 7) is case 4
    although it contains 2^3.
    """
    primes = large_primes(G, m)
    if not primes:
        raise ValueError(f"group of order {G.order_value} with m = {m} has no large prime divisor")
    if G.order_value == 6 and not G.is_abelian():
        return "case2_s3"
    for p in reversed(primes):
        if G.order.factors.get(p) == 1:
            P = G.sylow_subgroup(p)
            if G.is_normal(P) and G.centralizer(P.generators).order_value == p:
                return "case1_frobenius"
    minimals, table = G.minimal_normal_subgroups(), G.element_table()
    for N in minimals:
        # of order 2^a, where 2^a - 1 is a large prime, and elementary
        # abelian: N's exponent, read from its classes, is at most 2
        o = N.order_value
        if o - 1 in primes and o & (o - 1) == 0:
            if table.class_orders[table.class_of[N.members]].max() <= 2:
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


# ── group fingerprints ──────────────────────────────────────────────

_A5_ORDER_PROFILE = Counter({1: 1, 2: 15, 3: 20, 5: 24})


def _order_profile(group: PermGroup) -> Counter:
    """How many elements have each order: class sizes summed per order."""
    table = group.element_table()
    pairs = zip(table.class_orders.tolist(), table.class_sizes.tolist())
    return sum((Counter({order: size}) for order, size in pairs), Counter())


def is_expected_two_prime_group(G: PermGroup) -> bool:
    """Order-plus-structure fingerprint for the groups allowed two large primes.

    Matches the order-6 nonabelian group, the order-60 simple group,
    the nonabelian simple groups of the order of psl2:p (p > 5 prime,
    (p+1)/2 prime) with an element of order p, and the nonabelian
    simple groups of the two sporadic orders.
    """
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


# ── p-group suite ───────────────────────────────────────────────────

def catalog_pgroup_inputs(
    entries: list[tuple[str, PermGroup]], enum_cap: int = DEFAULT_ENUM_CAP
) -> list[tuple[str, PermGroup]]:
    """Sylow subgroups of the catalog groups up to
    ``PGROUP_SUITE_ORDER_BOUND``, plus explicit p-groups (dihedral and
    elementary abelian ones from ``build_catalog``, and sym:8's two Sylow
    subgroups from generators), each with its table built under ``enum_cap``.
    A Sylow subgroup is the subgroup itself, whose table is a slice of
    its group's, so only the explicit p-groups build stabilizer chains."""
    inputs: list[tuple[str, PermGroup]] = []
    for gid, G in entries:
        order = G.order_value
        if order > PGROUP_SUITE_ORDER_BOUND or order == 1:
            continue
        G.element_table(enum_cap)
        for p in G.order.factors:
            inputs.append((f"sylow({gid},{p})", G.sylow_subgroup(p)))
    inputs += build_catalog(f"dihedral:{n}" for n in (4, 8, 16, 32))
    # the Sylow subgroups of sym:8 from explicit generators rather than
    # an enumeration of its 40320 elements: C2 wr C2 wr C2 and C3 x C3
    wreath = [[(0, 1)], [(0, 2), (1, 3)], [(0, 4), (1, 5), (2, 6), (3, 7)]]
    for p, cycles in ((2, wreath), (3, [[(0, 1, 2)], [(3, 4, 5)]])):
        gens = [Permutation.from_cycles(8, c) for c in cycles]
        inputs.append((f"sylow(sym:8,{p})", PermGroup(gens)))
    inputs += build_catalog(["elem_abelian:2:4", "elem_abelian:3:2", "elem_abelian:5:2"])
    for _, pgroup in inputs:
        pgroup.element_table(enum_cap)
    return inputs


def pgroup_bound_suite(pgroups: list[tuple[str, PermGroup]]) -> VerificationReport:
    """Run the exponent-bound checks over a list of (id, p-group) pairs.

    With |P| = p^k, p^s the order of a largest abelian normal subgroup
    (the count of ``max_abelian_normal``'s positions) and p^c that of the
    center (the count of classes of size one), ``pgroup_bound`` checks
    k <= s(s+1)/2 and ``burnside`` checks k - v <= (v-c)(v+c-1)/2, with
    v = s.  A trivial or non-p-group input raises ValueError (from
    ``max_abelian_normal``).
    """
    checks = []
    for gid, pg in pgroups:
        order = len(max_abelian_normal(pg))
        center = int((pg.element_table().class_sizes == 1).sum())
        ((p, k),) = pg.order.factors.items()
        s, c = (nt.FactoredInteger.from_int(n).factors[p] for n in (order, center))
        assert order == p**s
        base = {"p": p, "k": k, "s": s, "c": c, "v": s}
        for theorem, holds in (
            ("pgroup_bound", k <= s * (s + 1) // 2),
            ("burnside", k - s <= (s - c) * (s + c - 1) // 2),
        ):
            checks.append(
                TheoremCheck(theorem, gid, holds, order, pg.order_value, dict(base))
            )
    return VerificationReport.from_checks(checks)


# ── suite driver ────────────────────────────────────────────────────

# each per-group suite's check, in the order that "all" runs them;
# "all" then ends with the p-group suite "lemma"
_PER_GROUP_CHECKS = {
    "a": divisibility_check,
    "goh": refined_divisibility_check,
    "twoprime": two_prime_check,
    "equality": equality_check,
}


def run_suite(
    suite: str,
    entries: list[tuple[str, PermGroup]],
    enum_cap: int = DEFAULT_ENUM_CAP,
) -> VerificationReport:
    """Run one of the named suites (a, goh, lemma, twoprime, equality,
    all) over ``(id, group)`` pairs.

    ``enum_cap`` is checked where tables are first built: here, on each
    group in order (for every suite but ``lemma``), and in
    ``catalog_pgroup_inputs`` for the p-groups that ``lemma`` checks.
    Every suite but ``lemma`` then computes each m(G) once and passes it
    to its checks; ``equality`` appends the order-64 open item.
    """
    if suite not in (*_PER_GROUP_CHECKS, "lemma", "all"):
        raise ValueError(
            f"unknown suite {suite!r}; valid: a, goh, lemma, twoprime, equality, all"
        )
    checks = []
    if suite != "lemma":
        for _, G in entries:
            G.element_table(enum_cap)
        ms = [max_abelian_order(G).m for _, G in entries]
        for name in _PER_GROUP_CHECKS if suite == "all" else (suite,):
            check = _PER_GROUP_CHECKS[name]
            checks += [check(gid, G, m) for (gid, G), m in zip(entries, ms)]
            if name == "equality":
                checks.append(_order64_open_item())
    if suite in ("lemma", "all"):
        checks += pgroup_bound_suite(catalog_pgroup_inputs(entries, enum_cap)).checks
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
