"""Reference answers computed without abelmax, and the output checks.

Nothing here imports abelmax.  Group answers are pinned in
``data/catalog_answers.txt`` from the classical literature; arithmetic
answers are recomputed in plain Python (a bytearray sieve and explicit
prime-power loops); the M12 witness is checked against a breadth-first
closure of the generator file.

Each ``check_*`` function takes one operation's exit code and output and
returns an ``Outcome``: ``ok``, ``defect`` (a documented defect that
still reproduces exactly) or ``fail`` with a reason.
"""

from __future__ import annotations

import bisect
import itertools
import json
import math
import re
import sys
from dataclasses import dataclass
from pathlib import Path

DATA = Path(__file__).resolve().parent / "data"

# CPython refuses int -> str conversions above this many decimal digits
# (PEP 651 / CVE-2020-10735).  abelmax prints g, h and f with str(), so
# values longer than this exit 2 instead of printing: a known defect.
INT_STR_DIGITS = 4300
DIGIT_LIMIT_MESSAGE = f"Exceeds the limit ({INT_STR_DIGITS} digits)"

RATIO_TOL = 1e-9

# The references themselves are printed in full here.
if hasattr(sys, "set_int_max_str_digits"):
    sys.set_int_max_str_digits(0)


@dataclass(frozen=True)
class Outcome:
    status: str  # "ok", "defect" or "fail"
    reason: str = ""


OK = Outcome("ok")


def fail(reason: str) -> Outcome:
    return Outcome("fail", reason)


# ── arithmetic ──────────────────────────────────────────────────────


class PrimeTable:
    """Primes up to a limit, from a plain bytearray sieve."""

    def __init__(self, limit: int):
        flags = bytearray([1]) * (limit + 1)
        flags[0:2] = b"\x00\x00"
        for p in range(2, math.isqrt(limit) + 1):
            if flags[p]:
                flags[p * p :: p] = bytes(len(range(p * p, limit + 1, p)))
        self.limit = limit
        self.primes = list(itertools.compress(range(limit + 1), flags))

    def upto(self, n: int) -> list[int]:
        if n > self.limit:
            raise ValueError(f"prime table holds primes <= {self.limit}, asked {n}")
        return self.primes[: bisect.bisect_right(self.primes, n)]


def prime_power_product(n: int, table: PrimeTable) -> int:
    """g(n): the product of every prime power q <= n."""
    out = 1
    for p in table.upto(n):
        q = p
        while q <= n:
            out *= q
            q *= p
    return out


def upper_half_prime_product(n: int, table: PrimeTable) -> int:
    """h(n): the product of the primes p with n/2 < p <= n."""
    out = 1
    for p in table.upto(n):
        if 2 * p > n:
            out *= p
    return out


def order_bound(n: int, table: PrimeTable) -> int:
    """f(n) = n * g(n) / h(n)."""
    g = prime_power_product(n, table)
    h = upper_half_prime_product(n, table)
    if (n * g) % h:
        raise ArithmeticError(f"h({n}) does not divide n*g({n})")
    return n * g // h


def log_order_bound(n: int, table: PrimeTable) -> float:
    """log f(n), summed over prime powers with math.fsum."""
    terms = [math.log(n)]
    for p in table.upto(n):
        lp = math.log(p)
        k, q = 1, p
        while q <= n:
            terms.append(k * lp)
            k, q = k + 1, q * p
        if 2 * p > n:
            terms.append(-lp)
    return math.fsum(terms)


def two_prime_exceptions(limit: int) -> list[int]:
    """m in [3, limit] whose interval (m/2, m] holds fewer than two primes.

    Ramanujan (1919): pi(x) - pi(x/2) >= 2 for every x >= 11 (the second
    Ramanujan prime is 11), so only m <= 10 can qualify; those are
    checked by hand below.
    """
    small = [m for m in range(3, 11) if _primes_between(m / 2, m) < 2]
    return [m for m in small if m <= limit]


def _primes_between(a: float, b: int) -> int:
    return sum(1 for p in range(2, b + 1) if p > a and all(p % d for d in range(2, p)))


def decimal_digits(x: int) -> int:
    return len(str(abs(x)))


# ── groups ──────────────────────────────────────────────────────────


def load_catalog_answers(path: Path = DATA / "catalog_answers.txt") -> dict[str, tuple[int, int]]:
    """spec -> (m(G), |G|) from the pinned answer file."""
    answers = {}
    for raw in path.read_text(encoding="utf-8").splitlines():
        line = raw.split("#", 1)[0].split()
        if line:
            spec, m, order = line
            answers[spec] = (int(m), int(order))
    return answers


def parse_generator_file(text: str) -> tuple[int, list[tuple[int, ...]]]:
    """(degree, generators as 0-indexed image tuples) of a generator file."""
    degree = None
    gens = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line.startswith("degree"):
            degree = int(line.split()[1])
        elif line.startswith("gen"):
            gens.append(line[3:].strip())
    if degree is None:
        raise ValueError("generator file has no degree line")
    return degree, [cycles_to_images(g, degree, one_indexed=True) for g in gens]


_CYCLE = re.compile(r"\(([^()]*)\)")


def cycles_to_images(text: str, degree: int, one_indexed: bool = False) -> tuple[int, ...]:
    images = list(range(degree))
    shift = 1 if one_indexed else 0
    for body in _CYCLE.findall(text):
        if not body.strip():
            continue
        pts = [int(x) - shift for x in body.split(",")]
        for a, b in zip(pts, pts[1:] + pts[:1]):
            images[a] = b
    return tuple(images)


def compose(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """a then b, as image tuples."""
    return tuple(b[x] for x in a)


def closure(gens: list[tuple[int, ...]], degree: int) -> set[tuple[int, ...]]:
    """Every element of the group the generators produce (breadth first)."""
    ident = tuple(range(degree))
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = compose(x, g)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return seen


# ── output checks ───────────────────────────────────────────────────


def check_exact_int(rc: int, stdout: str, stderr: str, expected: str) -> Outcome:
    """numtheory g|h|f: the exact value (given in decimal), or the documented
    digit-limit exit where that value is longer than the limit."""
    if rc == 0:
        if stdout == expected + "\n":
            return OK
        return fail(f"wrong value (expected {len(expected)} digits)")
    if len(expected) > INT_STR_DIGITS and rc == 2 and DIGIT_LIMIT_MESSAGE in stderr:
        return Outcome("defect", "int-to-str digit limit")
    return fail(f"exit {rc}: {stderr.strip()[-200:]}")


def check_ratio(rc: int, stdout: str, stderr: str, expected: float) -> Outcome:
    if rc != 0:
        return fail(f"exit {rc}: {stderr.strip()[-200:]}")
    try:
        got = float(stdout)
    except ValueError:
        return fail(f"not a number: {stdout[:80]!r}")
    if abs(got - expected) > RATIO_TOL:
        return fail(f"ratio {got} differs from {expected:.15g}")
    return OK


def check_exceptions(rc: int, stdout: str, stderr: str, expected: list[int]) -> Outcome:
    if rc != 0:
        return fail(f"exit {rc}: {stderr.strip()[-200:]}")
    if stdout != " ".join(map(str, expected)) + "\n":
        return fail(f"exceptions {stdout.strip()!r}, expected {expected}")
    return OK


def check_series(rc: int, stdout: str, stderr: str, expected: list[tuple[int, float]]) -> Outcome:
    """series: one row per n with log f(n) (relative) and the ratio to 1e-9."""
    if rc != 0:
        return fail(f"exit {rc}: {stderr.strip()[-200:]}")
    lines = stdout.splitlines()
    if not lines or lines[0] != "n,log_f,ratio" or len(lines) != len(expected) + 1:
        return fail("series header or row count differs")
    for line, (n, log_f) in zip(lines[1:], expected):
        try:
            got_n, got_log, got_ratio = line.split(",")
            got_n, got_log, got_ratio = int(got_n), float(got_log), float(got_ratio)
        except ValueError:
            return fail(f"bad series row {line!r}")
        if got_n != n:
            return fail(f"series row for {got_n}, expected {n}")
        if abs(got_log - log_f) > RATIO_TOL * abs(log_f):
            return fail(f"log_f({n}) = {got_log}, expected {log_f:.15g}")
        if abs(got_ratio - log_f / (n / 2)) > RATIO_TOL:
            return fail(f"ratio({n}) = {got_ratio}, expected {log_f / (n / 2):.15g}")
    return OK


@dataclass(frozen=True)
class GroupReference:
    """What an ``mgroup`` run on a generator-file group must print."""

    spec: str
    order_line: str
    m: int
    degree: int
    elements: frozenset


def check_mgroup(rc: int, stdout: str, stderr: str, ref: GroupReference) -> Outcome:
    """m, |G| and a witness whose generators lie in G, commute and give order m."""
    if rc != 0:
        return fail(f"exit {rc}: {stderr.strip()[-200:]}")
    fields = {}
    for line in stdout.splitlines():
        key, _, value = line.partition(": ")
        fields[key] = value
    if fields.get("group") != ref.spec:
        return fail(f"group line {fields.get('group')!r}")
    if fields.get("order") != ref.order_line:
        return fail(f"order line {fields.get('order')!r}, expected {ref.order_line!r}")
    if fields.get("m") != str(ref.m):
        return fail(f"m = {fields.get('m')}, expected {ref.m}")
    if not fields.get("nodes", "").isdigit():
        return fail("no node count")
    gens = [
        cycles_to_images(g, ref.degree) for g in fields.get("witness", "").split()
    ]
    if not gens:
        return fail("no witness")
    for g in gens:
        if g not in ref.elements:
            return fail(f"witness generator {g} is not in the group")
    for a, b in itertools.combinations(gens, 2):
        if compose(a, b) != compose(b, a):
            return fail("witness generators do not commute")
    order = len(closure(gens, ref.degree))
    if order != ref.m:
        return fail(f"witness generates order {order}, expected {ref.m}")
    return OK


_CATALOG_THEOREMS = ("divisibility", "refined_divisibility", "two_prime")


def check_verify(
    rc: int, stdout: str, stderr: str, specs: list[str], answers: dict[str, tuple[int, int]]
) -> Outcome:
    """verify all --format json: every check passes, and m and |G| match per group."""
    if rc != 0:
        return fail(f"exit {rc}: {stderr.strip()[-200:]}")
    try:
        report = json.loads(stdout)
        summary, checks = report["summary"], report["checks"]
    except (ValueError, KeyError, TypeError):
        return fail("report is not the JSON schema")
    if summary.get("failed") != 0 or summary.get("checks") != len(checks):
        return fail(f"summary {summary}")
    failed = [c for c in checks if not c.get("passed")]
    if failed:
        return fail(f"{len(failed)} checks failed, first {failed[0].get('theorem')} {failed[0].get('group_id')}")
    for theorem in _CATALOG_THEOREMS:
        rows = {c["group_id"]: c for c in checks if c["theorem"] == theorem}
        if sorted(rows) != sorted(specs):
            return fail(f"{theorem} rows cover {sorted(rows)}")
        for spec in specs:
            m, order = answers[spec]
            row = rows[spec]
            if row["m"] != m or row["order"] != order:
                return fail(
                    f"{theorem} {spec}: m={row['m']} order={row['order']}, "
                    f"expected m={m} order={order}"
                )
    return OK
