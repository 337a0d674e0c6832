"""Derive groups/j1.gens: Janko's group J1 on 266 points.

Run from the repository root, to rewrite groups/j1.gens:

    PYTHONPATH=src python groups/make_j1.py

tests/test_catalog.py re-derives the file and compares it byte for byte.

J1 is generated by Janko's two 7x7 matrices over GF(11) (Z. Janko, "A
new finite simple group with abelian Sylow 2-subgroups and its
characterization", J. Algebra 3 (1966) 147-186): Y, the cyclic
permutation matrix, of order 7, and Z, of order 5.  The construction,
all of it deterministic:

1. The first word in Y and Z, in shortlex order, of order 11 gives u.
   Its fixed space on GF(11)^7 is one line; the projective orbit of that
   line under <Y, Z> has 1596 points, and u fixes one of them, a (the
   line itself).
2. For a point b, u_b is u conjugated to fix b.  For the first b, in
   orbit order, whose orbit of a under <u, u_b> has 12 points, that
   orbit is a 12-set S (its stabilizer is L2(11), of index 266).
3. The images of S under <Y, Z> are 266 sets; Y and Z permute them,
   and those two permutations generate J1, of order 175560.

The points are numbered in breadth-first orbit order with Y tried
before Z, so the file is the same on every run.
"""

from __future__ import annotations

from pathlib import Path

P = 11
DIM = 7
ORDER = 175560
OUT = Path(__file__).resolve().parent / "j1.gens"

Y = tuple(tuple(int(j == (i + 1) % DIM) for j in range(DIM)) for i in range(DIM))
Z = tuple(tuple(x % P for x in row) for row in (
    (-3, 2, -1, -1, -3, -1, -3),
    (-2, 1, 1, 3, 1, 3, 3),
    (-1, -1, -3, -1, -3, -3, 2),
    (-1, -3, -1, -3, -3, 2, -1),
    (-3, -1, -3, -3, 2, -1, -1),
    (1, 3, 3, -2, 1, 1, 3),
    (3, 3, -2, 1, 1, 3, 1),
))
IDENTITY = tuple(tuple(int(i == j) for j in range(DIM)) for i in range(DIM))


def vec_mul(v, m):
    """The row vector v times the matrix m, over GF(11)."""
    return tuple(sum(v[k] * m[k][j] for k in range(DIM)) % P for j in range(DIM))


def mat_mul(a, b):
    return tuple(vec_mul(row, b) for row in a)


def mat_order(m, limit=30):
    power = m
    for k in range(1, limit + 1):
        if power == IDENTITY:
            return k
        power = mat_mul(power, m)
    raise ValueError("element order above the limit")


def projective(v):
    """The representative of v's line whose first nonzero entry is 1."""
    lead = next(x for x in v if x)
    inv = pow(lead, P - 2, P)
    return tuple(x * inv % P for x in v)


def fixed_line(m):
    """A nonzero v with v m = v, when the fixed space is one line."""
    # solve v (m - I) = 0, i.e. (m - I)^T v^T = 0, by Gauss-Jordan
    rows = [[(m[k][j] - (j == k)) % P for k in range(DIM)] for j in range(DIM)]
    pivots = []
    r = 0
    for c in range(DIM):
        pr = next((i for i in range(r, DIM) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = pow(rows[r][c], P - 2, P)
        rows[r] = [x * inv % P for x in rows[r]]
        for i in range(DIM):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [(x - f * y) % P for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    free = [c for c in range(DIM) if c not in pivots]
    if len(free) != 1:
        raise ValueError(f"fixed space has dimension {len(free)}, not 1")
    v = [0] * DIM
    v[free[0]] = 1
    for i, c in enumerate(pivots):
        v[c] = -rows[i][free[0]] % P
    return tuple(v)


def first_element_of_order(n):
    """The first word in Y, Z, in shortlex order, whose order is n."""
    words = [((), IDENTITY)]
    while True:
        longer = []
        for word, m in words:
            for name, g in (("Y", Y), ("Z", Z)):
                w, wm = word + (name,), mat_mul(m, g)
                if mat_order(wm) == n:
                    return w, wm
                longer.append((w, wm))
        words = longer


def orbit(start, gens, act):
    """The orbit of start, breadth first, and for each point after the
    first its (parent, generator number) in the tree."""
    points, tree, seen = [start], [None], {start: 0}
    for x in points:
        for k, g in enumerate(gens):
            y = act(x, g)
            if y not in seen:
                seen[y] = len(points)
                points.append(y)
                tree.append((seen[x], k))
    return points, tree, seen


def compose(p, q):
    """(p q)(i) = p(q(i)), on image tuples."""
    return tuple(p[i] for i in q)


def inverse(p):
    inv = [0] * len(p)
    for i, j in enumerate(p):
        inv[j] = i
    return tuple(inv)


def small_orbit(a, gens, bound):
    """The orbit of a under gens, or None once it exceeds bound points."""
    seen = {a}
    todo = [a]
    for x in todo:
        for g in gens:
            if g[x] not in seen:
                seen.add(g[x])
                todo.append(g[x])
                if len(seen) > bound:
                    return None
    return seen


def j1_on_266_points():
    """Image tuples of Y and Z on the 266 sets of step 3."""
    _, u = first_element_of_order(11)
    line = projective(fixed_line(u))
    points, tree, where = orbit(line, (Y, Z), lambda v, m: projective(vec_mul(v, m)))
    def on_points(m):
        return tuple(where[projective(vec_mul(v, m))] for v in points)
    gens = (on_points(Y), on_points(Z))
    u_a = on_points(u)
    if u_a[0] != 0:
        raise RuntimeError("u does not fix its own line")
    # u_b = g u g^-1 fixes b = g(a); going down the orbit tree, the
    # generator g that takes the parent to b gives u_b from u_parent
    conj = [u_a]
    for b in range(1, len(points)):
        parent, k = tree[b]
        g = gens[k]
        conj.append(compose(g, compose(conj[parent], inverse(g))))
        block = small_orbit(0, (u_a, conj[b]), 12)
        if block is not None and len(block) == 12:
            break
    else:
        raise RuntimeError("no 12-point orbit found")
    sets, _, index = orbit(frozenset(block), gens, lambda s, g: frozenset(g[x] for x in s))
    return [tuple(index[frozenset(g[x] for x in s)] for s in sets) for g in gens]


def gens_text() -> str:
    from abelmax.perms import PermGroup, Permutation

    gens = [Permutation(images) for images in j1_on_266_points()]
    group = PermGroup(gens)
    if group.order_value != ORDER:
        raise RuntimeError(f"derived group has order {group.order_value}, not {ORDER}")
    lines = [
        "# Janko's group J1 on 266 points, derived by groups/make_j1.py from",
        "# Janko's 7x7 matrices over GF(11): its action on the cosets of L2(11).",
        f"degree {group.degree}",
        *(f"gen {g.cycle_string(one_indexed=True)}" for g in gens),
        f"expect_order {ORDER}",
    ]
    return "\n".join(lines) + "\n"


if __name__ == "__main__":
    OUT.write_text(gens_text())
    print(f"wrote {OUT}")
