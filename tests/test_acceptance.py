"""Acceptance suite: every gating criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they print.  The two Mathieu generator-file targets are non-gating and
run only with ``ABELMAX_EXTENDED=1`` (budget: 30 minutes each; in
practice they take seconds and a few minutes respectively).

Known desk-scale limits, checked nowhere below because they cannot be:
sporadic groups beyond M12, completeness of the two-large-prime
classification, and the exhaustive sweep of the 267 groups of order 64
(the latter is carried through reports as an explicit open item).
"""

import os
import time

import pytest

from abelmax import catalog as cat
from abelmax import numtheory as nt
from abelmax import verify as vf
from abelmax.cli import main as cli_main
from abelmax.search import max_abelian_brute, max_abelian_order

extended = pytest.mark.skipif(
    not os.environ.get("ABELMAX_EXTENDED"),
    reason="extended target; set ABELMAX_EXTENDED=1 to run",
)


def record(number: int, label: str, ok: bool) -> None:
    print(f"ACCEPTANCE {number:2d} {'PASS' if ok else 'FAIL'}  {label}")
    assert ok, f"acceptance criterion {number} failed: {label}"


@pytest.fixture(scope="module")
def entries():
    return cat.build_catalog(cat.default_catalog_specs())


def test_acceptance_01_number_theory_goldens():
    t0 = time.perf_counter()
    ok = (
        nt.prime_power_product(2).value == 2
        and nt.prime_power_product(3).value == 6
        and nt.prime_power_product(4).value == 24
        and nt.prime_power_product(6).value == 120
        and nt.upper_half_prime_product(6).value == 5
        and nt.upper_half_prime_product(10).value == 7
        and nt.two_prime_interval_exceptions(10**6) == [4, 6, 10]
    )
    elapsed = time.perf_counter() - t0
    record(1, f"number theory goldens, exact ({elapsed:.2f}s < 5s)", ok and elapsed < 5)


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
    ],
)
def test_acceptance_02_m_goldens(spec, expected):
    group = cat.build_group(spec)  # built fresh so the timing is honest
    result = max_abelian_order(group)
    ok = result.m == expected and result.wall_time <= 60
    record(
        2,
        f"m({spec}) = {result.m} (want {expected}, {result.wall_time:.2f}s <= 60s)",
        ok,
    )


@extended
@pytest.mark.extended
@pytest.mark.parametrize(
    "path,expected", [("groups/m11.gens", 11), ("groups/m12.gens", 16)]
)
def test_acceptance_02_extended_mathieu(path, expected):
    group = cat.load_generator_file(path)
    result = max_abelian_order(group)
    ok = result.m == expected and result.wall_time <= 1800
    record(
        2,
        f"extended m({path}) = {result.m} (want {expected}, {result.wall_time:.1f}s <= 1800s)",
        ok,
    )


def test_acceptance_03_oracle_equivalence(entries):
    t0 = time.perf_counter()
    small = [(gid, G) for gid, G in entries if G.order_value <= 2000]
    mismatches = []
    for gid, G in small:
        a = max_abelian_order(G).m
        b = max_abelian_brute(G).m
        if a != b:
            mismatches.append((gid, a, b))
    elapsed = time.perf_counter() - t0
    ok = len(small) >= 15 and not mismatches and elapsed <= 300
    record(
        3,
        f"oracle equivalence on {len(small)} groups <= 2000 "
        f"({elapsed:.1f}s <= 300s){' mismatches: ' + repr(mismatches) if mismatches else ''}",
        ok,
    )


def test_acceptance_04_divisibility_entire_catalog(entries):
    report = vf.run_suite("a", entries)
    failures = [c.group_id for c in report.checks if not c.passed]
    record(
        4,
        f"|G| divides g(m) on all {len(report.checks)} catalog groups"
        f"{' failures: ' + repr(failures) if failures else ''}",
        not failures,
    )


def test_acceptance_05_pgroup_bounds(entries):
    inputs = vf.catalog_pgroup_inputs(entries)
    report = vf.pgroup_bound_suite(inputs)
    failures = [(c.group_id, c.theorem) for c in report.checks if not c.passed]
    record(
        5,
        f"exponent and Burnside bounds on {len(inputs)} p-groups"
        f"{' failures: ' + repr(failures) if failures else ''}",
        not failures,
    )


def test_acceptance_06_refined_divisibility(entries):
    report = vf.run_suite("goh", entries)
    named = {
        c.group_id
        for c in report.checks
        if c.detail["expected_exception"] == "named_inequality_exception"
    }
    dividing = {c.group_id for c in report.checks if c.detail["divides"]}
    non_dividing = {c.group_id for c in report.checks} - dividing
    ok = (
        report.all_passed
        and named == {"sym:3", "alt:5"}
        and non_dividing == {"sym:3", "alt:5", "psl2:13"}
    )
    record(
        6,
        f"refined divisibility: named exceptions {sorted(named)}, "
        f"outside-hypothesis set {sorted(non_dividing)}",
        ok,
    )


def test_acceptance_07_two_prime_scan_and_classification(entries):
    report = vf.run_suite("twoprime", entries)
    flagged = {c.group_id for c in report.checks if c.detail["flagged"]}
    groups = dict(entries)
    m_of = {c.group_id: c.m for c in report.checks}
    cases = {
        gid: vf.classify_large_prime_case(groups[gid], m_of[gid])
        for gid in ["frobenius:5:4", "sym:3", "agammal1:3", "alt:5", "psl2:7"]
    }
    ok = (
        report.all_passed
        and flagged == {"sym:3", "alt:5", "psl2:13"}
        and cases
        == {
            "frobenius:5:4": "case1_frobenius",
            "sym:3": "case2_s3",
            "agammal1:3": "case3_agammal",
            "alt:5": "case4_almost_simple",
            "psl2:7": "case4_almost_simple",
        }
    )
    record(7, f"two-large-prime set {sorted(flagged)}; cases {cases}", ok)


def test_acceptance_08_equality_scan(entries):
    report = vf.run_suite("equality", entries)
    equal = {c.group_id for c in report.checks if c.detail.get("equal")}
    ok = report.all_passed and equal == {"sym:2", "sym:3", "sym:4", "sym:5"}
    record(8, f"|G| = g(m) exactly at {sorted(equal)}", ok)


def test_acceptance_09_asymptotic_ratio():
    t0 = time.perf_counter()
    r6 = nt.asymptotic_ratio(10**6)
    r3 = nt.asymptotic_ratio(10**3)
    elapsed = time.perf_counter() - t0
    ok = (
        0.99 <= r6.ratio <= 1.01
        and abs(r6.ratio - 1) < abs(r3.ratio - 1)
        and elapsed <= 10
    )
    record(
        9,
        f"ratio(1e6) = {r6.ratio:.6f} in [0.99, 1.01], "
        f"closer to 1 than ratio(1e3) = {r3.ratio:.6f} ({elapsed:.2f}s <= 10s)",
        ok,
    )


def test_acceptance_10_determinism(tmp_path):
    outs = []
    for run in range(2):
        csv_path = tmp_path / f"run{run}.csv"
        json_path = tmp_path / f"run{run}.json"
        assert (
            cli_main(
                ["verify", "all", "--format", "csv", "--out", str(csv_path)]
            )
            == 0
        )
        assert (
            cli_main(
                ["verify", "all", "--format", "json", "--out", str(json_path)]
            )
            == 0
        )
        outs.append((csv_path.read_bytes(), json_path.read_bytes()))
    ok = outs[0] == outs[1]
    record(10, "verify all twice: byte-identical reports", ok)
