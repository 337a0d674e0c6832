"""m(G) against closed forms, for groups far above the brute-force cap.

Each expected value below is a formula in the family's parameters,
computed here from the parameters alone: the test shares no code with
the search beyond building the group and calling ``max_abelian_order``.

* ``sym:n``: Burns and Goldsmith, "Maximal order abelian subgroups of
  symmetric groups", Bull. London Math. Soc. 21 (1989) 70-72: for
  n = 3k, 3k + 1, 3k + 2 (n >= 2) the largest abelian subgroup of S_n
  has order 3^k, 4 * 3^(k-1) and 2 * 3^k respectively.
* ``psl2:p``, p >= 5 prime: by Dickson's list of the subgroups of
  PSL(2, q) (L. E. Dickson, *Linear Groups*, 1901, ch. XII; B. Huppert,
  *Endliche Gruppen I*, 1967, II.8.27) an abelian subgroup is cyclic of
  order dividing p or (p +- 1)/2, or a Klein four-group, so m = p.
* ``pgl2:p``, p >= 5 prime: an abelian subgroup of PGL(2, p) lies in a
  torus (cyclic of order p - 1, or p + 1, the non-split one), in the
  unipotent radical of order p, or is elementary abelian of order at
  most 4, so m = p + 1.
* ``dihedral:n`` (order 2n, n >= 3): the rotations, m = n; an abelian
  subgroup holding a reflection has order at most 4.
* ``frobenius:p:c`` (C_p by C_c): an element outside the kernel C_p
  has its centralizer in a complement of order c < p, so m = p.
* ``agl1:a`` and ``agammal1:a``, the affine groups of GF(2^a): m = 2^a,
  the translations.  An abelian A not inside them has a non-identity
  image H in GL(1, 2^a) or ΓL(1, 2^a), and its translations are fixed by
  H.  With a non-identity scalar in H none is fixed, and |A| = |H| is at
  most 2^a - 1; without one H embeds in the Galois group, cyclic of
  order a, and a generator of order r fixes at most 2^(a/r)
  translations, so |A| <= r * 2^(a/r) <= 2^a.
* ``elem_abelian:p:k`` and ``cyclic:n`` are abelian: m = p^k and n.
"""

import os

import pytest

from abelmax import catalog as cat
from abelmax.search import max_abelian_order

_PRIMES = [p for p in range(5, 74) if all(p % d for d in range(2, p))]

# sym:10 has 3628800 elements: a 300 MB run of about 12 s
_opt_in = pytest.mark.skipif(
    not os.environ.get("ABELMAX_EXTENDED"),
    reason="extended target; set ABELMAX_EXTENDED=1 to run",
)


def _burns_goldsmith(n: int) -> int:
    k, r = divmod(n, 3)
    return 3**k if r == 0 else 4 * 3 ** (k - 1) if r == 1 else 2 * 3**k


_CASES = (
    [(f"psl2:{p}", p) for p in _PRIMES]
    + [(f"pgl2:{p}", p + 1) for p in _PRIMES if p <= 53]
    + [(f"sym:{n}", _burns_goldsmith(n)) for n in range(2, 10)]
    + [pytest.param("sym:10", 36, marks=[pytest.mark.extended, _opt_in])]
    + [(f"dihedral:{n}", n) for n in (3, 4, 257, 1000)]
    + [(f"frobenius:{p}:{c}", p) for p, c in ((5, 4), (7, 6), (13, 3), (101, 100), (1021, 5))]
    + [(f"{family}:{a}", 2**a) for family in ("agl1", "agammal1") for a in range(2, 6)]
    + [("elem_abelian:2:10", 1024), ("elem_abelian:3:4", 81), ("elem_abelian:7:2", 49)]
    + [("cyclic:1", 1), ("cyclic:360", 360), ("cyclic:997", 997)]
)


@pytest.mark.parametrize("spec,m", _CASES)
def test_m_matches_closed_form(spec, m):
    group = cat.build_group(spec)
    # enumerate whatever the family's order is: sym:9 and sym:10 lie above
    # the default cap
    group.element_table(group.order_value)
    assert max_abelian_order(group).m == m
