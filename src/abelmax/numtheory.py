"""Exact and log-space arithmetic for prime-power products.

The quantities computed here drive every divisibility check in the
package:

* ``prime_power_product(n)`` - the product of all prime powers <= n,
  equivalently prod(p ** (e*(e+1)/2)) over primes p <= n where e is the
  largest exponent with p**e <= n.
* ``upper_half_prime_product(n)`` - the product of the primes in
  (n/2, n].
* ``order_bound(n)`` - n * prime_power_product(n) / upper_half_prime_product(n),
  an integer because every prime in (n/2, n] occurs exactly once in the
  prime-power product.

Everything is exact big-integer arithmetic except ``order_bound_log``,
which sums exponent * log(p) so the bound can be evaluated far beyond
the range where the exact product is practical.  The primes in
(n/2, n] cancel against h, so it sieves only to n/2 and adds log n,
log p for each prime p <= n/2 and the extra exponent's log p for each
p <= sqrt(n) in one ``math.fsum``: the correctly rounded sum of those
terms, whatever their order.  g, h and f take their primes from one
sieve, which is their primality proof, and multiply their prime powers
as a balanced product tree.

The sieve is a ``bytearray`` of one byte per number, refused above
``SIEVE_CAP`` (``order_bound_log`` refuses n itself above it).  Every
prime is read from it with ``itertools.compress``, so the module
imports neither numpy nor ``dataclasses``.

``two_prime_interval_exceptions(limit)`` holds the sieve of 0..limit
and nothing else that grows with the limit: it walks the sieve with
``bytearray.rfind``, from the two largest primes <= m straight to the
next m whose interval (m/2, m] can lose one of them.
"""

from __future__ import annotations

import math
from itertools import chain, compress

from .errors import CapacityError

# Deterministic Miller-Rabin witnesses; valid for all n < 3.3e24 (in
# particular below 2**64, which covers every order this package builds).
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# The command line refuses exact g, h and f above this n; the library
# computes them further (order_bound_log gives log f at any n).
EXACT_BOUND_CAP = 100_000

# The prime sieve (one byte per number) is refused above this limit.
SIEVE_CAP = 10**8

# _prime_flags strikes at most this many multiples of a prime at once.
_STRIKE = 1 << 15

# The residues mod 30 prime to 30: every prime above 5 is one of them.
_WHEEL = (1, 7, 11, 13, 17, 19, 23, 29)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test (valid below 2**64)."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _check_sieve_limit(limit: int) -> None:
    if limit > SIEVE_CAP:
        raise CapacityError(
            f"prime sieve capped at limit <= {SIEVE_CAP} (got {limit})"
        )


def _prime_flags(limit: int) -> bytearray:
    """Primality of 0..limit (limit >= 1), one byte each, by the sieve
    of Eratosthenes over the odd numbers.  Capped at SIEVE_CAP."""
    _check_sieve_limit(limit)
    flags = bytearray(b"\x00\x01") * (limit // 2 + 1)
    del flags[limit + 1 :]
    flags[1] = 0
    if limit >= 2:
        flags[2] = 1
    # even multiples are already clear, so each odd p strikes every
    # 2p-th number from p*p, _STRIKE zeros at a time: striking a whole
    # run at once needs a zero string of up to limit/6 bytes and a copy
    # of it, and the allocator keeps such freed blocks resident (the
    # peak of ratio 10^8 was 19 MB higher that way)
    zeros = bytearray(_STRIKE)
    for p in range(3, math.isqrt(limit) + 1, 2):
        if flags[p]:
            step = 2 * p
            for start in range(p * p, limit + 1, _STRIKE * step):
                run = range(start, min(start + _STRIKE * step, limit + 1), step)
                flags[start : run.stop : step] = zeros[: len(run)]
    return flags


def sieve_primes(limit: int) -> list[int]:
    """All primes <= limit, ascending; empty for limit < 2."""
    if limit < 0:
        raise ValueError("limit must be nonnegative")
    if limit < 2:
        return []
    return list(compress(range(limit + 1), _prime_flags(limit)))


def primes_in_halfopen(a: float, b: float) -> list[int]:
    """Primes p with a < p <= b (strict lower bound, inclusive upper)."""
    if not a < b:
        raise ValueError("need a < b")
    hi = math.floor(b)
    if hi < 2:
        return []
    lo = max(math.floor(a) + 1, 0)
    return list(compress(range(lo, hi + 1), _prime_flags(hi)[lo:]))


def floor_log(p: int, n: int) -> int:
    """The unique e >= 1 with p**e <= n < p**(e+1).

    Computed by exact integer multiplication; p must be at least 2 and
    n at least p.
    """
    if p < 2:
        raise ValueError("base must be >= 2")
    if n < p:
        raise ValueError(f"need n >= p, got n={n} < p={p}")
    e = 1
    pk = p * p
    while pk <= n:
        e += 1
        pk *= p
    return e


class _Record:
    """Equality and repr over the ``__slots__`` fields, in their order,
    as ``dataclasses`` would give them."""

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"


class FactoredInteger(_Record):
    """An exact nonnegative integer carried together with its factorization.

    The empty factor map represents 1.  Every key is verified prime and
    ``value`` always equals the product of p**e over the map.  Mutable,
    so unhashable.
    """

    __slots__ = ("factors", "value")
    __hash__ = None

    def __init__(self, factors: dict[int, int] | None = None, value: int = 1):
        self.factors: dict[int, int] = {} if factors is None else factors
        self.value = value

    @classmethod
    def from_factors(cls, factors: dict[int, int]) -> "FactoredInteger":
        value = 1
        for p in sorted(factors):
            e = factors[p]
            if e < 1:
                raise ValueError(f"exponent for {p} must be >= 1, got {e}")
            if not is_prime(p):
                raise ValueError(f"{p} is not prime")
            value *= p**e
        return cls(dict(sorted(factors.items())), value)

    @classmethod
    def from_int(cls, n: int) -> "FactoredInteger":
        """Factor n >= 1 by trial division."""
        if n < 1:
            raise ValueError("need n >= 1")
        factors: dict[int, int] = {}
        m = n
        d = 2
        while d * d <= m:
            while m % d == 0:
                factors[d] = factors.get(d, 0) + 1
                m //= d
            d += 1 if d == 2 else 2
        if m > 1:
            factors[m] = factors.get(m, 0) + 1
        return cls(factors, n)

    def __mul__(self, other: "FactoredInteger") -> "FactoredInteger":
        merged = dict(self.factors)
        for p, e in other.factors.items():
            merged[p] = merged.get(p, 0) + e
        return FactoredInteger(dict(sorted(merged.items())), self.value * other.value)

    @classmethod
    def _from_sieve(cls, factors: dict[int, int]) -> "FactoredInteger":
        """From an ascending map of sieved primes to positive exponents.
        The sieve proved the keys prime, so unlike ``from_factors`` this
        does not test them again; the prime powers are multiplied as a
        balanced product tree, which keeps the big operands even."""
        values = [p**e for p, e in factors.items()] or [1]
        while len(values) > 1:
            odd = values[-1:] if len(values) % 2 else []
            values = [a * b for a, b in zip(values[::2], values[1::2])] + odd
        return cls(factors, values[0])

    def exact_div(self, other: "FactoredInteger") -> "FactoredInteger":
        """Quotient self/other; raises unless the division is exact."""
        out = dict(self.factors)
        for p, e in other.factors.items():
            have = out.get(p, 0)
            if have < e:
                raise ValueError(f"{other.value} does not divide {self.value}")
            if have == e:
                del out[p]
            else:
                out[p] = have - e
        return FactoredInteger(out, self.value // other.value)

    def divides(self, other: "FactoredInteger") -> bool:
        return all(other.factors.get(p, 0) >= e for p, e in self.factors.items())

    def factored_str(self) -> str:
        if not self.factors:
            return "1"
        parts = []
        for p, e in self.factors.items():
            parts.append(f"{p}^{e}" if e > 1 else f"{p}")
        return "*".join(parts)

    def __str__(self) -> str:
        return str(self.value)


def _prime_power_exponents(n: int) -> dict[int, int]:
    """The factor map of prime_power_product(n), n >= 1: each prime p <= n,
    ascending, to e*(e+1)/2 for e = floor_log(p, n), which exceeds 1
    only for p <= sqrt(n)."""
    factors = dict.fromkeys(sieve_primes(n), 1)
    root = math.isqrt(n)
    for p in factors:
        if p > root:
            break
        e = floor_log(p, n)
        factors[p] = e * (e + 1) // 2
    return factors


def prime_power_product(n: int) -> FactoredInteger:
    """Product of all prime powers <= n; 1 for n = 1 (empty product).

    Uses the exponent form: each prime p <= n contributes e*(e+1)/2
    where e = floor_log(p, n), since the powers p, p^2, ..., p^e are
    exactly the powers of p not exceeding n.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    return FactoredInteger._from_sieve(_prime_power_exponents(n))


def upper_half_prime_product(n: int) -> FactoredInteger:
    """Product of the primes p with n/2 < p <= n; 1 for n = 1."""
    if n < 1:
        raise ValueError("need n >= 1")
    return FactoredInteger._from_sieve(dict.fromkeys(primes_in_halfopen(n / 2, n), 1))


def order_bound(n: int) -> FactoredInteger:
    """Exact n * prime_power_product(n) / upper_half_prime_product(n).

    Integral because each prime in (n/2, n] has floor_log 1 and so
    divides the prime-power product exactly once: the quotient's
    exponents are the product's on the primes <= n/2, plus n's own.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    half = n // 2
    factors = {p: e for p, e in _prime_power_exponents(n).items() if p <= half}
    # n's prime factors are keys already, except n itself when it is a
    # prime, which then goes last: the map stays ascending
    for p, e in FactoredInteger.from_int(n).factors.items():
        factors[p] = factors.get(p, 0) + e
    return FactoredInteger._from_sieve(factors)


def order_bound_log(n: int) -> float:
    """Natural log of order_bound(n), by exponent-weighted log summation.

    Never forms the big product, so it is usable for n far beyond the
    exact cap; n is refused above SIEVE_CAP.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    _check_sieve_limit(n)
    if n == 1:
        return 0.0
    half = n // 2
    flags = _prime_flags(half)
    # each wheel class reads 1/30 of the sieve, so 8/30 of it is walked
    # in all; from_iterable slices one class at a time
    primes = chain(
        compress(range(6), flags[:6]),
        chain.from_iterable(
            compress(range(r, half + 1, 30), flags[r::30]) for r in _WHEEL
        ),
    )
    # a prime p <= sqrt(n), which is <= n/2, has exponent e*(e+1)/2 in f:
    # log p is in the sum above, and the rest is added here
    root = math.isqrt(n)
    extra = []
    for p in compress(range(root + 1), flags[: root + 1]):
        e = floor_log(p, n)
        extra.append((e * (e + 1) // 2 - 1) * math.log(p))
    return math.fsum(chain((math.log(n),), map(math.log, primes), extra))


class AsymptoticSample(_Record):
    """One point of the bound's growth curve: ratio = log_bound / (n/2).
    Read-only and hashable."""

    __slots__ = ("n", "log_f", "ratio")

    def __init__(self, n: int, log_f: float, ratio: float):
        for name, value in zip(self.__slots__, (n, log_f, ratio)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self) -> int:
        return hash(self._fields())


def asymptotic_ratio(n: int) -> AsymptoticSample:
    """Sample log(order_bound(n)) / (n/2); the ratio tends to 1."""
    if n < 16:
        raise ValueError("need n >= 16")
    lf = order_bound_log(n)
    return AsymptoticSample(n, lf, lf / (n / 2))


def two_prime_interval_exceptions(limit: int) -> list[int]:
    """All m in [3, limit] whose interval (m/2, m] holds fewer than two primes."""
    if limit < 3:
        raise ValueError("need limit >= 3")
    flags = _prime_flags(limit)
    out: list[int] = []
    m = 3
    while m <= limit:
        # b and a are the two largest primes <= m; they are the two
        # largest in (m/2, m] exactly when 2a > m
        b = flags.rfind(1, 0, m + 1)
        a = flags.rfind(1, 0, b)
        if 2 * a <= m:
            out.append(m)
            m += 1
        else:
            # for every k in [m, 2a), a and b both lie in (k/2, k]
            m = 2 * a
    return out
