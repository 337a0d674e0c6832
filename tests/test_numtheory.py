"""Tests for the prime-power product arithmetic."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abelmax import CapacityError
from abelmax import numtheory as nt


def trial_division_primes(limit):
    """Independent oracle: primes <= limit by bare trial division."""
    out = []
    for n in range(2, limit + 1):
        if all(n % d for d in range(2, math.isqrt(n) + 1)):
            out.append(n)
    return out


def direct_prime_power_product(n):
    """Independent oracle: multiply every prime power <= n directly."""
    total = 1
    for p in trial_division_primes(n):
        pk = p
        while pk <= n:
            total *= pk
            pk *= p
    return total


# ── primality and sieve ─────────────────────────────────────────────

def test_is_prime_small():
    assert [p for p in range(40) if nt.is_prime(p)] == trial_division_primes(39)


def test_is_prime_larger():
    assert nt.is_prime(2**31 - 1)
    assert not nt.is_prime(2**32 + 1)
    assert nt.is_prime(104729)
    assert not nt.is_prime(104730)


def test_sieve_trivial():
    assert nt.sieve_primes(1) == []
    assert nt.sieve_primes(10) == [2, 3, 5, 7]


def test_sieve_against_trial_division():
    got = nt.sieve_primes(30)
    assert len(got) == 10 and got[-1] == 29
    assert got == trial_division_primes(30)


@pytest.mark.parametrize("limit", [*range(1, 65), 1000, 9973])
def test_prime_flags_against_is_prime(limit):
    # the odd-stride sieve at every small parity and square boundary,
    # and at a prime limit
    flags = nt._prime_flags(limit)
    assert type(flags) is bytearray
    assert list(flags) == [int(nt.is_prime(k)) for k in range(limit + 1)]
    assert nt.sieve_primes(limit) == trial_division_primes(limit)


def plain_sieve_flags(limit):
    """Independent oracle: Eratosthenes on a list, every multiple of p."""
    flags = [0, 0] + [1] * (limit - 1)
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            for k in range(p * p, limit + 1, p):
                flags[k] = 0
    return flags


STRIKE = nt._STRIKE


@pytest.mark.parametrize("limit", [
    6 * STRIKE + 8, 6 * STRIKE + 9, 6 * STRIKE + 10, 12 * STRIKE + 9, 10 * STRIKE + 25,
])
def test_prime_flags_across_strike_chunks(limit):
    # p strikes from p*p in chunks of STRIKE multiples, 2p apart: the
    # second chunk of 3 starts at 6 * STRIKE + 9, and that of 5 at
    # 10 * STRIKE + 25
    assert list(nt._prime_flags(limit)) == plain_sieve_flags(limit)


def test_sieve_cap_is_checked_before_allocating():
    with pytest.raises(CapacityError, match=str(nt.SIEVE_CAP)):
        nt._prime_flags(nt.SIEVE_CAP + 1)


def test_sieve_rejects_negative():
    with pytest.raises(ValueError):
        nt.sieve_primes(-1)


# ── floor_log ───────────────────────────────────────────────────────

def test_floor_log_examples():
    assert nt.floor_log(2, 1000) == 9
    assert nt.floor_log(7, 7) == 1
    assert nt.floor_log(3, 1000) == 6


def test_floor_log_rejects_small_n():
    with pytest.raises(ValueError):
        nt.floor_log(7, 6)


@given(st.sampled_from(trial_division_primes(100)), st.integers(2, 10**6))
def test_floor_log_bounds(p, n):
    if n < p:
        return
    e = nt.floor_log(p, n)
    assert p**e <= n < p ** (e + 1)
    assert e <= math.log(n) / math.log(p) + 1e-9


# ── FactoredInteger ─────────────────────────────────────────────────

def test_factored_integer_roundtrip():
    fi = nt.FactoredInteger.from_int(95040)
    assert fi.factors == {2: 6, 3: 3, 5: 1, 11: 1}
    assert fi.value == 95040
    assert fi.factored_str() == "2^6*3^3*5*11"


def test_factored_integer_one():
    assert nt.FactoredInteger().value == 1
    assert nt.FactoredInteger.from_int(1).factors == {}


def test_factored_integer_rejects_composite_key():
    with pytest.raises(ValueError):
        nt.FactoredInteger.from_factors({4: 1})
    with pytest.raises(ValueError):
        nt.FactoredInteger.from_factors({3: 0})


def test_factored_integer_division():
    a = nt.FactoredInteger.from_int(720)
    b = nt.FactoredInteger.from_int(48)
    assert a.exact_div(b).value == 15
    with pytest.raises(ValueError):
        b.exact_div(a)
    assert b.divides(a) and not a.divides(b)


def test_record_classes_compare_and_print_as_dataclasses_did():
    fi = nt.FactoredInteger.from_int(12)
    assert fi == nt.FactoredInteger({2: 2, 3: 1}, 12)
    assert fi == nt.FactoredInteger(factors={2: 2, 3: 1}, value=12)
    assert fi != nt.FactoredInteger({2: 2, 3: 1}, 24)
    assert fi != ({2: 2, 3: 1}, 12)
    assert repr(fi) == "FactoredInteger(factors={2: 2, 3: 1}, value=12)"
    with pytest.raises(TypeError):
        hash(fi)
    s = nt.AsymptoticSample(1000, 599.5, 1.199)
    assert s == nt.AsymptoticSample(n=1000, log_f=599.5, ratio=1.199)
    assert s != nt.AsymptoticSample(1000, 599.5, 1.2)
    assert s != (1000, 599.5, 1.199)
    assert repr(s) == "AsymptoticSample(n=1000, log_f=599.5, ratio=1.199)"
    assert hash(s) == hash(nt.AsymptoticSample(1000, 599.5, 1.199))
    with pytest.raises(AttributeError):
        s.n = 2000
    assert nt.asymptotic_ratio(1000) == nt.asymptotic_ratio(1000)


@given(st.integers(1, 100000), st.integers(1, 100000))
@settings(max_examples=60)
def test_factored_integer_mul(a, b):
    fa, fb = nt.FactoredInteger.from_int(a), nt.FactoredInteger.from_int(b)
    prod = fa * fb
    assert prod.value == a * b
    assert prod.value == math.prod(p**e for p, e in prod.factors.items())


# ── prime-power product g, upper-half product h ─────────────────────

def test_prime_power_product_goldens():
    assert nt.prime_power_product(2).value == 2
    assert nt.prime_power_product(3).value == 6
    assert nt.prime_power_product(4).value == 24
    assert nt.prime_power_product(6).value == 120
    assert nt.prime_power_product(11).value == 665280
    assert nt.prime_power_product(1).value == 1


@pytest.mark.parametrize("n", [1, 2, 3, 5, 16, 63, 64, 100, 729, 1000, 4096, 9973, 10000])
def test_prime_power_product_matches_direct_product(n):
    assert nt.prime_power_product(n).value == direct_prime_power_product(n)


def test_prime_power_product_monotone_and_jumps():
    prev = nt.prime_power_product(1).value
    for n in range(2, 200):
        cur = nt.prime_power_product(n).value
        assert cur >= prev
        is_pp = any(
            n == p**e
            for p in trial_division_primes(n)
            for e in range(1, n.bit_length() + 1)
            if p**e <= n
        )
        if is_pp:
            assert cur == prev * n
        else:
            assert cur == prev
        prev = cur


def test_upper_half_prime_product_goldens():
    assert nt.upper_half_prime_product(10).value == 7
    assert nt.upper_half_prime_product(6).value == 5
    assert nt.upper_half_prime_product(3).value == 6
    assert nt.upper_half_prime_product(1).value == 1


@given(st.integers(1, 2000))
@settings(max_examples=80)
def test_upper_half_divides_prime_power_product(n):
    g = nt.prime_power_product(n)
    h = nt.upper_half_prime_product(n)
    assert h.divides(g)
    assert all(e == 1 for e in h.factors.values())


EQUIVALENCE_NS = [1, 2, 3, 4, 8, 9, 97, 1024, 9677, 100000]


@pytest.mark.parametrize("n", EQUIVALENCE_NS)
def test_g_and_h_match_from_factors(n):
    # built from the sieve without re-testing primality, and multiplied
    # as a product tree; from_factors tests every key and multiplies in turn
    for value in (nt.prime_power_product, nt.upper_half_prime_product):
        got = value(n)
        ref = nt.FactoredInteger.from_factors(dict(got.factors))
        assert list(got.factors.items()) == list(ref.factors.items())
        assert got.value == ref.value
        assert all(type(p) is int and type(e) is int for p, e in got.factors.items())


@pytest.mark.parametrize("n", EQUIVALENCE_NS)
def test_order_bound_matches_product_then_exact_division(n):
    g = nt.prime_power_product(n)
    h = nt.upper_half_prime_product(n)
    ref = (nt.FactoredInteger.from_int(n) * g).exact_div(h)
    got = nt.order_bound(n)
    assert list(got.factors.items()) == list(ref.factors.items())
    assert got.value == ref.value


# ── order bound f ───────────────────────────────────────────────────

def test_order_bound_examples():
    assert nt.order_bound(6).value == 144
    assert nt.order_bound(10).value == 86400
    assert nt.order_bound(1).value == 1


# 194 and 19946 are twice a prime, the last one the sum takes
@pytest.mark.parametrize("n", [1, 2, 6, 10, 97, 194, 1000, 9973, 10000, 19946])
def test_order_bound_log_matches_exact(n):
    exact = math.log(nt.order_bound(n).value)
    assert abs(nt.order_bound_log(n) - exact) <= 1e-9 * exact


# 999958 is twice the prime 499979
@pytest.mark.parametrize("n", [2, 4, 30, 31, 62, 999958, 10**6])
def test_order_bound_log_is_the_fsum_over_the_primes_to_half_n(n):
    # the reference reads the primes in ascending order, not by wheel
    # class; fsum is correctly rounded, so the order cannot move a bit
    primes = nt.sieve_primes(n // 2)
    terms = [math.log(n), *map(math.log, primes)]
    for p in primes:
        if p * p <= n:
            e = nt.floor_log(p, n)
            terms.append((e * (e + 1) // 2 - 1) * math.log(p))
    assert nt.order_bound_log(n) == math.fsum(terms)


def test_order_bound_log_ignores_the_blas_thread_count():
    # a BLAS dot product's last bit depends on the BLAS thread count
    script = (
        "import sys; from abelmax import numtheory as nt; "
        "print([repr(nt.order_bound_log(int(n))) for n in sys.argv[1:]])"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    outs = set()
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", script, "123457", "5000000", "10000000"],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        outs.add(proc.stdout)
    assert len(outs) == 1, outs


# ── intervals ───────────────────────────────────────────────────────

def test_primes_in_halfopen_examples():
    assert nt.primes_in_halfopen(5, 10) == [7]
    assert nt.primes_in_halfopen(2, 4) == [3]
    assert nt.primes_in_halfopen(6.5, 13) == [7, 11, 13]
    assert nt.primes_in_halfopen(-3.5, 7) == [2, 3, 5, 7]
    assert nt.primes_in_halfopen(2.5, 7.9) == [3, 5, 7]
    assert nt.primes_in_halfopen(-1, 1.5) == []
    assert nt.primes_in_halfopen(10, 11) == [11]
    assert nt.primes_in_halfopen(11, 12) == []


def test_primes_in_halfopen_bounds_are_strict_open_closed():
    assert nt.primes_in_halfopen(7, 11) == [11]
    assert 7 not in nt.primes_in_halfopen(7, 20)
    with pytest.raises(ValueError):
        nt.primes_in_halfopen(5, 5)


@given(
    st.integers(-20, 500),
    st.integers(1, 500) | st.just(1),
    st.sampled_from([0, 0.25, 0.5]),
    st.sampled_from([0, 0.5, 0.75]),
)
@settings(max_examples=100)
def test_primes_in_halfopen_consistent_with_sieve(a, w, da, db):
    # integral, fractional and negative a, b = a + 1, fractional b
    a, b = a + da, a + w + db
    expected = [p for p in nt.sieve_primes(max(math.floor(b), 0)) if p > a]
    assert nt.primes_in_halfopen(a, b) == expected


def test_two_prime_interval_exceptions():
    assert nt.two_prime_interval_exceptions(10) == [4, 6, 10]
    assert nt.two_prime_interval_exceptions(100) == [4, 6, 10]


def test_two_prime_interval_exceptions_large():
    assert nt.two_prime_interval_exceptions(10**6) == [4, 6, 10]


def direct_half_interval_counts(limit):
    """pi(m) - pi(m // 2) for m = 3..limit, from whole-range prime counts."""
    flags = np.zeros(limit + 1, dtype=np.int64)
    flags[nt.sieve_primes(limit)] = 1
    pi = np.cumsum(flags)
    ms = np.arange(3, limit + 1)
    return pi[ms] - pi[ms // 2]


@pytest.mark.parametrize("limit", [
    3, 4, 262143, 262144, 262145, 262146, 262147,
    524289, 524290, 524291, 1572867,
])
def test_two_prime_scan_at_block_edges(limit):
    # small limits, and limits on both sides of multiples of 2^18 (at
    # 1572867 the count's m // 2 reaches the prime 786433): the scan's
    # exceptions are exactly the m whose whole-range count is below 2
    expected = direct_half_interval_counts(limit)
    ms = np.arange(3, limit + 1)
    assert nt.two_prime_interval_exceptions(limit) == ms[expected < 2].tolist()


# ── asymptotics ─────────────────────────────────────────────────────

def test_asymptotic_ratio_values():
    r3 = nt.asymptotic_ratio(10**3)
    assert abs(r3.ratio - 1.2) <= 0.1
    r6 = nt.asymptotic_ratio(10**6)
    assert 0.99 <= r6.ratio <= 1.01
    assert abs(r6.ratio - 1) < abs(r3.ratio - 1)


def test_asymptotic_ratio_rejects_small_n():
    with pytest.raises(ValueError):
        nt.asymptotic_ratio(15)
