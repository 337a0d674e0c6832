"""Run the structured check suites over the pinned catalog.

Each catalog group gets its maximal abelian order computed once; the
suites then check the divisibility statements, scan for groups whose
order carries two primes above m/2, test where |G| = g(m) exactly, and
validate the exponent bounds on every Sylow subgroup in range.  The
expected exceptions (the order-6 and order-60 groups for the refined
inequality, the psl2:13 hypothesis exemption, and the order-64 open
item) are part of the report, not failures.

Run from the repository root:  python demos/03_check_suites.py
"""

from abelmax import catalog, verify

entries = catalog.build_catalog(catalog.default_catalog_specs())
report = verify.run_suite("all", entries)

print(verify.report_to_text(report))

print("groups flagged with two large prime divisors:")
for check in report.checks:
    if check.theorem == "two_prime" and check.detail["flagged"]:
        print(
            f"  {check.group_id:<10} m={check.m:<3d} "
            f"large primes: {check.detail['large_primes']}"
        )

print()
print("structural classification of the single-large-prime witnesses:")
groups = dict(entries)
m_of = {c.group_id: c.m for c in report.checks if c.theorem == "divisibility"}
for gid in ["frobenius:5:4", "sym:3", "agammal1:3", "alt:5", "psl2:7"]:
    case = verify.classify_large_prime_case(groups[gid], m_of[gid])
    print(f"  {gid:<14} -> {case}")
