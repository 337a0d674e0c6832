"""Finite permutation group engine.

Permutations act on the points 0..degree-1; a ``Permutation`` stores
its images as a tuple.  A group built from generators gets its order and
its element enumeration from a deterministic stabilizer chain (base
points are chosen as the smallest moved point at each level, orbits are
explored breadth-first with the generators in list order, so identical
inputs always produce identical chains), built once per group.  The
chain keeps every permutation as a numpy image row in the element
table's dtype, and the table is the product of its transversal matrices,
each of its rows formed once, straight into its place: the order is read
from the product's columns 0..max(base) alone, so a build never holds
two table-sized arrays.

Bulk element work (centralizers, conjugation, normal closures, the
abelian-subgroup search) runs on one ``ElementTable`` per group: a numpy
matrix holding one image row per element, in ascending image order (so
the identity first).  Lexicographic order is a property of the group
alone, not of its generators.  Two elements are equal exactly when they
agree on a base, so elements are compared, multiplied and measured on
their base images (Seress, *Permutation Group Algorithms*, §4.1): the
build sorts on the chain's columns 0..max(base), and from then on the
base is the one ``BaseImageIndex`` reads from the table's rows, the
points that are the smallest point some element moves, so that it too
depends on the group alone.  The index keys rows on their images of it,
in row order, ``ElementTable.products`` reads the entries x(y(base)),
and ``_base_cycles`` walks the base points' cycles for orders and
inverses.  Only forming the table and ``commuting`` take whole rows
of a set of positions, faster than entries on the search's small subsets
(M12: 0.032 vs 0.082 s); elsewhere a whole row is one element's:
``extend`` squares x's row, ``sylow_subgroup`` reads each generator's
row, and ``ElementTable.position`` compares one row.
A group's table and a subgroup's are finished by one tail, on their
final rows: the index, the generators' conjugation maps, the classes by
min-label propagation, and the element orders, walked once per class.
The table, the only holder of the classes, records each position's
class number and keeps one order per class, beside its size and
representative (its smallest position): an element's order is its
class's, and no lists of members are kept.  Where an element is picked
(a generator, a seed, a candidate), the rule is ``ElementTable.by_order``:
highest element order first, ties in row order.

The one array a table keeps per element beside its row and index key
(each position's class number) and the conjugation maps and class labels
of a build are int32: the byte cap keeps a table below 2^29 rows, so
int32 holds every position.  Every set of positions a table returns
is an ascending, duplicate-free int64 array.
A subgroup is a ``PermGroup`` too, with no chain of its own: its
``members`` are such an array of positions in its parent's table, found
by Dimino's algorithm ``ElementTable.closure`` (or, adjoining a
normalizing element, ``ElementTable.extend``), and its table's rows are
the parent's at those positions.  It is normal exactly when its
positions are a union of whole classes of the parent
(``ElementTable.is_class_union``), so a normal closure is found as a set
of class numbers and expanded to positions only to become a subgroup.

The enumeration cap is checked in one place, ``PermGroup.element_table``
of a group with a chain, with a CapacityError rather than truncation; a
subgroup's table is a slice of its parent's.  Every other method, and
every search and check built on them, reads the cached table; a cap is
passed only where a run starts enumerating (``verify.run_suite``,
``verify.catalog_pgroup_inputs`` and the CLI's ``mgroup``).  A fixed
byte cap, ``TABLE_BYTES_CAP``, is checked before the table and before
each transversal of the chain is allocated; for the table it counts the
matrix and, for each row, its index key and its int32 class number,
and nothing else.  An orbit is never larger than the group, so the
chain refuses no group whose table fits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError
from .numtheory import FactoredInteger

DEFAULT_ENUM_CAP = 200_000

# The most bytes an element table (its matrix and per-element arrays), or
# one level of a stabilizer chain, may take: about 5x J1's 99 MB table, the
# largest the repository ships.  Every row takes at least 13 bytes, so a
# table has fewer than 2^26 rows.
TABLE_BYTES_CAP = 1 << 29

# Schreier generators, table rows, products, base-point walks and commuting
# tests go in blocks of about this many entries, to bound their temporaries.
_ROW_BLOCK = 1 << 16


class Permutation:
    """A bijection on {0..degree-1} stored as a tuple of images."""

    __slots__ = ("images",)

    def __init__(self, images):
        images = tuple(int(i) for i in images)
        if sorted(images) != list(range(len(images))):
            raise ValueError("images do not form a permutation")
        self.images = images

    @classmethod
    def identity(cls, degree: int) -> "Permutation":
        p = cls.__new__(cls)
        p.images = tuple(range(degree))
        return p

    @classmethod
    def from_cycles(cls, degree: int, cycles) -> "Permutation":
        """Build from disjoint cycles of 0-indexed points."""
        images = list(range(degree))
        seen = set()
        for cycle in cycles:
            for a in cycle:
                if not 0 <= a < degree:
                    raise ValueError(f"point {a} out of range for degree {degree}")
                if a in seen:
                    raise ValueError(f"point {a} repeated across cycles")
                seen.add(a)
            for a, b in zip(cycle, cycle[1:]):
                images[a] = b
            if cycle:
                images[cycle[-1]] = cycle[0]
        return cls(images)

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, point: int) -> int:
        return self.images[point]

    def __mul__(self, other: "Permutation") -> "Permutation":
        """Composition: (self * other)(i) = self(other(i))."""
        if len(self.images) != len(other.images):
            raise ValueError("degree mismatch")
        p = Permutation.__new__(Permutation)
        s = self.images
        p.images = tuple(s[i] for i in other.images)
        return p

    def inverse(self) -> "Permutation":
        inv = [0] * len(self.images)
        for i, j in enumerate(self.images):
            inv[j] = i
        p = Permutation.__new__(Permutation)
        p.images = tuple(inv)
        return p

    def is_identity(self) -> bool:
        return all(i == j for i, j in enumerate(self.images))

    def cycles(self) -> list[tuple[int, ...]]:
        """Nontrivial cycles, each starting at its smallest point."""
        seen = set()
        out = []
        for start in range(len(self.images)):
            if start in seen or self.images[start] == start:
                continue
            cycle = [start]
            seen.add(start)
            j = self.images[start]
            while j != start:
                cycle.append(j)
                seen.add(j)
                j = self.images[j]
            out.append(tuple(cycle))
        return out

    def order(self) -> int:
        return math.lcm(*map(len, self.cycles()))

    def cycle_string(self, one_indexed: bool = False) -> str:
        shift = 1 if one_indexed else 0
        cs = self.cycles()
        if not cs:
            return "()"
        return "".join("(" + ",".join(str(a + shift) for a in c) + ")" for c in cs)

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __repr__(self) -> str:
        return f"Permutation({self.cycle_string()}, degree={len(self.images)})"


def _check_table_bytes(
    rows: int, degree: int, dtype: np.dtype, what: str, per_row: int = 0
) -> None:
    """CapacityError when a (rows, degree) matrix of ``dtype``, with
    ``per_row`` more bytes kept for each row, would take more than
    TABLE_BYTES_CAP bytes."""
    nbytes, extra = rows * degree * dtype.itemsize, rows * per_row
    if nbytes + extra > TABLE_BYTES_CAP:
        kept = f" and {extra} more for its per-element arrays" if extra else ""
        raise CapacityError(
            f"{what} of {rows} x {degree} entries needs {nbytes} bytes{kept}, "
            f"above the table byte cap {TABLE_BYTES_CAP}"
        )


def _check_transitive(degree: int) -> None:
    """CapacityError when the stabilizer chain of a group transitive on
    ``degree`` points would be refused: its first orbit is every point,
    so its first transversal has ``degree`` x ``degree`` entries."""
    _check_table_bytes(degree, degree, np.min_scalar_type(degree - 1), "a transversal")


class StabilizerChain:
    """Deterministic Schreier-Sims stabilizer chain on image rows.

    Every permutation is an image row in the element table's ``dtype``.
    ``base[i]`` is the smallest point moved at level i; strong generators
    are stored with the depth of the base prefix they fix.  Row r of the
    (orbit × degree) matrix ``_transversals[i]`` maps ``base[i]`` to the
    r-th point of its orbit, found breadth-first with the generators in
    list order (row 0 is the identity); ``_where[i]`` is each point's row
    or -1.  After construction every Schreier generator sifts to the
    identity, so the product of orbit sizes is the exact group order.
    """

    def __init__(self, generators: list[Permutation], degree: int):
        self.degree = degree
        self.dtype = np.min_scalar_type(degree - 1)
        self.base: list[int] = []
        self._strong: list[tuple[np.ndarray, int]] = []
        self._transversals, self._where = [], []
        for g in generators:
            if not g.is_identity():
                row = np.array(g.images, dtype=self.dtype)
                moved = np.flatnonzero(row[self.base] != self.base)
                self._add_strong(row, int(moved[0]) if moved.size else len(self.base))
        i = len(self.base) - 1
        while i >= 0:
            i = self._check_level(i)

    def _add_strong(self, g: np.ndarray, depth: int) -> None:
        if depth == len(self.base):
            self.base.append(int(np.flatnonzero(g != np.arange(self.degree))[0]))
            self._transversals.append(None)
            self._where.append(None)
        self._strong.append((g, depth))

    def _strip(self, p: np.ndarray, start: int) -> tuple[np.ndarray, np.ndarray]:
        """Sift the rows of p, in place, from level ``start``: the residues,
        and for each the level whose orbit its base image left, or len(base)."""
        levels = np.full(len(p), len(self.base))
        live = np.arange(len(p))
        for level in range(start, len(self.base)):
            r = self._where[level][p[live, self.base[level]]]
            levels[live[r < 0]] = level
            moved, u = live[r > 0], self._transversals[level][r[r > 0]]
            # p = u^-1 p, the rows' entries taken as positions in one array
            offsets = np.arange(0, u.size, self.degree)[:, None]
            inverse = np.empty(u.size, dtype=self.dtype)
            inverse[u + offsets] = np.arange(self.degree, dtype=self.dtype)
            p[moved] = inverse[p[moved] + offsets]
            live = live[r >= 0]
        return p, levels

    def _check_level(self, i: int) -> int:
        """Rebuild level i and sift its Schreier generators u_c^-1 g u_a,
        c = g(a), a row block at a time (sifting g u_a divides it by u_c
        first).  The first non-identity residue in (point, generator) order
        becomes a strong generator; return its level, or else i - 1."""
        gens = [g for g, d in self._strong if d >= i]
        where = np.full(self.degree, -1, dtype=np.int64)
        where[self.base[i]] = 0
        orbit, steps = [self.base[i]], []
        for r, a in enumerate(orbit):  # visits points as they join
            for g in gens:
                if where[g.item(a)] < 0:
                    where[g.item(a)] = len(orbit)
                    orbit.append(g.item(a))
                    steps.append((r, g))
        _check_table_bytes(len(orbit), self.degree, self.dtype, "a transversal")
        transversal = np.empty((len(orbit), self.degree), dtype=self.dtype)
        transversal[0] = np.arange(self.degree)
        for r, (q, g) in enumerate(steps, 1):  # u_c = g u_a
            np.take(g, transversal[q], out=transversal[r])
        self._transversals[i], self._where[i] = transversal, where
        gens = np.array(gens)
        per_block = max(1, _ROW_BLOCK // gens.size)
        for s in range(0, len(orbit), per_block):
            # the products g u_a, rows in (point, generator) order
            products = gens[:, transversal[s : s + per_block]].swapaxes(0, 1)
            products = products.reshape(-1, self.degree)
            uc = transversal[where[products[:, self.base[i]]]]
            moved = np.any(products != uc, axis=1)
            if not moved.any():
                continue
            residues, levels = self._strip(products[moved], i)
            nontrivial = np.flatnonzero(np.any(residues != transversal[0], axis=1))
            if nontrivial.size:
                j = nontrivial[0]
                self._add_strong(residues[j], int(levels[j]))
                return int(levels[j])
        return i - 1

    def order(self) -> FactoredInteger:
        sizes = (FactoredInteger.from_int(len(t)) for t in self._transversals)
        return math.prod(sizes, start=FactoredInteger())


# BaseImageIndex.search sorts this many keys or more before it searches:
# keys in ascending order walk the sorted keys once, where keys in table
# order jump about them and miss cache.  Measured on M12's 95040 keys,
# 1024 keys take 108 us sorted against 184 us unsorted, and all 95040
# keys 7 ms against 21 ms; below about 256 keys the sort costs more
# than it saves.
_SORTED_SEARCH_MIN = 1 << 10


def _key_dtype(base_length: int, degree: int, dtype: np.dtype) -> np.dtype:
    """The dtype of a ``BaseImageIndex`` key: int64 when the base images,
    read as base-``degree`` digits, fit in 63 bits; else a void scalar of
    their bytes."""
    if base_length * (degree - 1).bit_length() <= 63:
        return np.dtype(np.int64)
    return np.dtype((np.void, base_length * dtype.itemsize))


class BaseImageIndex:
    """Row positions of an element table, keyed by images of its rows' base.

    The base is read from the rows alone: it is the set of points that
    are the smallest point some element moves, ascending.  Two elements
    agree on it only if they are equal, since x^-1 y moves its own
    smallest point, and two rows in ascending image order first differ at
    one of its points, so their keys ascend with the rows: a row's
    position is its key's ``np.searchsorted`` offset.  When every key
    fits in 63 bits, the base images are read as the digits of one
    base-``degree`` int64; otherwise a key is the big-endian bytes of the
    base images as one void scalar, whose byte order is then image order.
    ``find`` returns int64 positions, like every position set; ``search``
    returns int32 ones (TABLE_BYTES_CAP keeps a table below 2^29 rows)
    with a found flag per key.  A key is unique among the group's
    elements only: a permutation outside the group can share one, so a
    caller holding an arbitrary permutation compares the whole row it gets
    back.
    """

    def __init__(self, matrix: np.ndarray):
        n, degree = matrix.shape
        # in row order the smallest moved point never rises after the
        # identity, so no point below the last row's is in the base; the
        # rows fixing 0..j-1 lead, ascending in column j, and j is in the
        # base exactly when fewer of them fix j too
        base, j = [], int((matrix[-1] != np.arange(degree)).argmax())
        while n > 1:
            fixing = int(matrix[:n, j].searchsorted(j, side="right"))
            if fixing < n:
                base.append(j)
            n, j = fixing, j + 1
        self.base = np.array(base, dtype=np.intp)
        self._weights = None
        if _key_dtype(len(base), degree, matrix.dtype) == np.int64:
            self._weights = degree ** np.arange(len(base) - 1, -1, -1, dtype=np.int64)
        self.keys = self.key(matrix[:, self.base])

    def key(self, images: np.ndarray) -> np.ndarray:
        """Keys of the rows of a (k, len(base)) array of base images."""
        if self._weights is not None:
            # a multiply-add over the columns; an integer matmul has no
            # BLAS path and takes about 3x as long on a whole table
            return np.einsum("ij,j->i", images, self._weights)
        images = np.ascontiguousarray(images, dtype=images.dtype.newbyteorder(">"))
        return images.view(np.dtype((np.void, images.itemsize * images.shape[1])))[:, 0]

    def search(self, images: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Row positions (int32) for a (k, len(base)) array of base images,
        and whether each key is present; where it is not, the position is
        that of some other row."""
        keys = self.key(images)
        if len(keys) < _SORTED_SEARCH_MIN:
            k = self.keys.searchsorted(keys)
        else:
            order = keys.argsort()
            k = np.empty(len(keys), dtype=np.intp)
            k[order] = self.keys.searchsorted(keys[order])
        np.minimum(k, len(self.keys) - 1, out=k)
        return k.astype(np.int32), self.keys[k] == keys

    def find(self, images: np.ndarray) -> np.ndarray:
        """Row positions (int64) of group elements given by their base images."""
        positions, found = self.search(images)
        assert found.all(), "base images of no row in the table"
        return positions.astype(np.int64)


@dataclass
class ElementTable:
    """All group elements as a (N, degree) image matrix, rows ascending.

    The rows are in ascending image order, so row 0 is the identity.
    ``PermGroup.element_table`` is the only place that builds or orders a
    table, and every consumer (conjugacy classes, subgroups, the
    abelian-subgroup search) reads row positions through ``index``, which
    finds a row from its base images; one that picks elements picks them
    by ``by_order``, highest element order first.  ``class_of`` holds
    each position's conjugacy class number.  Element order is a class
    invariant, so the table keeps one order per class, beside its size
    and representative: ``class_orders``, ``class_sizes`` and
    ``class_reps``, each class's smallest position (all int64;
    ``class_reps`` ascends, as classes are numbered by it).  An element's
    order is ``class_orders[class_of[i]]``, and ``class_members`` gives a
    class's members.  What the table keeps per element, beside its row
    and index key, is ``class_of``, int32: TABLE_BYTES_CAP keeps a table
    below 2^29 rows, so int32 holds every position.  A subgroup, like
    every set of positions the table takes or returns, is an ascending,
    duplicate-free int64 array of positions.  Adjoining an element x that
    normalizes a subgroup H (Sylow growth, the abelian-normal search) is
    ``extend``, which forms H<x> from the powers of x in one gather; a
    subgroup from arbitrary generators is ``closure``, Dimino's algorithm.
    A subgroup is normal exactly when its positions are a union of whole
    classes, ``is_class_union``, and its own table is this one's rows at
    those positions, which stay ascending, with its own index on the base
    those rows give.  Centralizers, in the search and in
    ``PermGroup.centralizer``, come from one primitive, ``commuting``,
    which tests a block of rows against a given set of positions rather
    than the whole table.
    """

    matrix: np.ndarray
    index: BaseImageIndex
    class_of: np.ndarray
    class_sizes: np.ndarray
    class_reps: np.ndarray
    class_orders: np.ndarray

    def position(self, p: Permutation) -> int:
        """Position of the permutation p; ValueError if it is not a row."""
        if p.degree == self.matrix.shape[1]:
            row = np.array(p.images, dtype=self.matrix.dtype)
            i = int(self.index.search(row[None, self.index.base])[0][0])
            if np.array_equal(self.matrix[i], row):
                return i
        raise ValueError(f"{p!r} is not a member of the group")

    def is_class_union(self, members: np.ndarray) -> bool:
        """Whether the positions ``members`` make up whole conjugacy
        classes; a subgroup is normal exactly when they do."""
        touched = np.flatnonzero(np.bincount(self.class_of[members]))
        return int(self.class_sizes[touched].sum()) == len(members)

    def class_members(self, classes) -> np.ndarray:
        """Positions of the elements whose class number is in ``classes``."""
        wanted = np.zeros(len(self.class_sizes), dtype=bool)
        wanted[list(classes)] = True
        return np.flatnonzero(wanted[self.class_of])

    def by_order(self, positions) -> np.ndarray:
        """The int64 ``positions``, highest element order first and equal
        orders in the given order: the one rule by which elements are
        picked (generators, seeds and candidates).  Given ascending
        positions, ties are in row order; the result is not a position
        set."""
        positions = np.asarray(positions, dtype=np.int64)
        orders = self.class_orders[self.class_of[positions]]
        return positions[np.argsort(-orders, kind="stable")]

    def products(self, left, right) -> np.ndarray:
        """The (len(left), len(right)) int64 positions of x_l * x_r =
        x_l(x_r(.)): the one product by position, reading the entries
        x_l(x_r(base)) of the flat matrix, about _ROW_BLOCK at a time."""
        left = np.asarray(left, dtype=np.int64)
        right_base = self.matrix[np.ix_(right, self.index.base)]
        out = np.empty((len(left), len(right_base)), dtype=np.int64)
        per_block = max(1, _ROW_BLOCK // max(1, right_base.size))
        for s in range(0, len(left), per_block):
            at = left[s : s + per_block, None, None] * self.matrix.shape[1] + right_base
            images = self.matrix.reshape(-1).take(at).reshape(-1, right_base.shape[1])
            out[s : s + per_block] = self.index.find(images).reshape(at.shape[:2])
        return out

    def extend(self, subgroup: np.ndarray, x: int) -> np.ndarray:
        """Positions of H<x> for the subgroup H at ``subgroup``, which is
        <H, x> when x normalizes H.  The base images of x, x^2, ... (at
        most the order of x of them, by doubling) are found in one call;
        with x^c the first power in H, H<x> is the union of the cosets
        H x^j for 0 <= j < c, whose base images h(x^j(base)) are one
        gather of H's rows, found in one more call."""
        inside = np.zeros(len(self), dtype=bool)
        inside[subgroup] = True
        if inside[x]:
            return subgroup
        base, order = self.index.base, self.class_orders[self.class_of[x]]
        # powers[j] = x^(j+1)(base); step is x^len(powers), whole
        powers, step = self.matrix[x, base][None], self.matrix[x]
        while len(powers) < order:
            powers = np.concatenate((powers, step[powers]))
            step = step[step]
        powers = self.index.find(powers[:order])
        c = 1 + int(inside[powers].argmax())
        inside[self.products(subgroup, powers[: c - 1])] = True
        return np.flatnonzero(inside)

    def closure(self, positions) -> tuple[np.ndarray, list[int]]:
        """The subgroup generated by ``positions``, and the positions it
        took: Dimino's algorithm, adjoining each position outside the
        closure so far until none is left.  The first, which normalizes
        the trivial group, is adjoined by ``extend``; each later one s by
        the coset step a round at a time: <H, s>, for H the closure so far,
        is the union of the right cosets H r.  A round multiplies its coset
        representatives by every taken position (s included), and each new
        coset among the products' cosets keeps the product whose coset has
        the smallest position as a representative for the next round.  Only
        representatives, one per coset, are multiplied, so a round's cosets
        hold at most |gens| x |<H, s>| positions."""
        members, gens = np.zeros(1, dtype=np.int64), []
        inside = np.zeros(len(self), dtype=bool)
        inside[0] = True
        outside = np.asarray(positions, dtype=np.int64)
        while (outside := outside[~inside[outside]]).size:
            gens.append(int(outside[0]))
            if len(gens) == 1:
                members = self.extend(members, gens[0])
                inside[members] = True
                continue
            reps = np.zeros(1, dtype=np.int64)
            while reps.size:
                assert len(reps) * len(members) <= len(self), "reps share a coset"
                ys = self.products(reps, gens).ravel()
                ys = ys[~inside[ys]]
                cosets = self.products(members, ys)
                # cosets are equal or disjoint: equal exactly when their minima are
                _, kept = np.unique(cosets.min(axis=0), return_index=True)
                inside[cosets[:, kept]] = True
                reps = ys[kept]
            members = np.flatnonzero(inside)
        return members, gens

    def commuting(self, xs, members: np.ndarray) -> np.ndarray:
        """The (len(xs), len(members)) boolean matrix of which rows at
        ``members`` commute with which rows at the positions ``xs``.
        Both products x y and y x lie in the group, so they are equal
        when their base images x(y(base)) and y(x(base)) are: only the
        columns x(base) and base of the rows at ``members`` are read.
        The whole table gives them by a column gather; a subset's rows
        are taken first, which numpy does faster than gathering single
        entries, and the subsets the search narrows are small."""
        xrows, base = self.matrix[xs], self.index.base
        if len(members) == len(self):
            sub = self.matrix
        else:
            sub = self.matrix.take(members, axis=0)
        # y(x(base)) as (members, xs, base), against x(y(base)) as (xs, members, base)
        yx = sub[:, xrows[:, base]]
        xy = xrows[:, sub[:, base]]
        return (yx.swapaxes(0, 1) == xy).all(axis=2)

    def permutation(self, i: int) -> Permutation:
        return Permutation(self.matrix[i].tolist())

    def __len__(self) -> int:
        return self.matrix.shape[0]


def _base_cycles(matrix: np.ndarray, positions: np.ndarray, base) -> tuple[np.ndarray, np.ndarray]:
    """For the row x at each of the int64 ``positions``, x's order (int64)
    and x^-1(base) in the matrix's dtype.  Each walk b, x(b), x^2(b), ...
    reads only the entries it visits, back to b; x^k is 1 exactly when it
    fixes the base, so x's order is the lcm of the walks' lengths, about
    _ROW_BLOCK of which step at a time."""
    orders = np.empty(len(positions), dtype=np.int64)
    before = np.empty((len(positions), len(base)), dtype=matrix.dtype)
    flat, per_block = matrix.reshape(-1), max(1, _ROW_BLOCK // max(1, len(base)))
    for s in range(0, len(positions), per_block):
        rows, inverse = positions[s : s + per_block], before[s : s + per_block]
        lengths = np.empty(inverse.shape, dtype=np.int64)
        # the live walks: their output slots, row offsets, start and last points
        slot, offset = np.arange(lengths.size), np.repeat(rows * matrix.shape[1], len(base))
        start = point = np.tile(base, len(rows))
        step = 1
        while slot.size:
            after = flat.take(offset + point)
            back, going = after == start, after != start
            lengths.flat[slot[back]], inverse.flat[slot[back]] = step, point[back]
            slot, offset, start = slot[going], offset[going], start[going]
            point, step = after[going], step + 1
        orders[s : s + len(rows)] = np.lcm.reduce(lengths, axis=1, initial=1)
    return orders, before


def _conjugation_maps(matrix, index: BaseImageIndex, generators) -> list[np.ndarray]:
    """For each generator g, the int32 map from the row x_i of ``matrix``
    to the position of g x_i g^-1.  Only its base images g[x_i[g^-1[base]]]
    are built, since they fix the element."""
    maps = []
    for g in generators:
        garr = np.array(g.images, dtype=matrix.dtype)
        ginv = np.array(g.inverse().images)
        # int32 straight from the index: no int64 map is ever formed
        positions, found = index.search(garr[matrix[:, ginv[index.base]]])
        assert found.all(), "a conjugate outside the table"
        maps.append(positions)
    return maps


def _class_labels(conj_maps: list[np.ndarray]) -> np.ndarray:
    """Each position's smallest conjugate position (int32), by min-label
    propagation: each label takes the smaller of its own and its image's
    under every map, then the label of its label, until nothing changes.
    The labels then agree along every map, so on every class."""
    label = np.arange(len(conj_maps[0]), dtype=np.int32)
    while True:
        new = label
        for cmap in conj_maps:
            new = np.minimum(new, new.take(cmap))
        new = new.take(new)
        if np.array_equal(new, label):
            return label
        label = new


def _classes_by_label(labels: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(class_of, class_sizes, class_reps) of the positions grouped by
    equal label, each label its class's smallest position: classes are
    numbered by it, ``class_of`` gives each position's class number
    (int32), ``class_sizes`` each class's size and ``class_reps`` the
    labels, ascending (int64)."""
    reps, class_of = np.unique(labels, return_inverse=True)
    return class_of.astype(np.int32), np.bincount(class_of), reps.astype(np.int64)


class PermGroup:
    """Immutable permutation group defined by its generators.

    A group built from generators computes its stabilizer chain (and
    hence the exact order) at construction.  A subgroup (``subgroup``,
    ``sylow_subgroup``, ...) has no chain, but a ``parent`` and
    ``members``, its ascending positions in the parent's table; its
    order is their number.  Element enumeration, conjugacy classes and
    other whole-group tables are built lazily and cached.
    """

    def __init__(self, generators: list[Permutation]):
        if not generators:
            raise ValueError(
                "empty generator list; use PermGroup.trivial(degree) for the trivial group"
            )
        degs = {g.degree for g in generators}
        if len(degs) != 1:
            raise ValueError(f"generators have mixed degrees {sorted(degs)}")
        self.degree = degs.pop()
        self.generators = list(generators)
        self.parent = self.members = None
        self.chain = StabilizerChain(self.generators, self.degree)
        self.order: FactoredInteger = self.chain.order()
        self._table: ElementTable | None = None

    @classmethod
    def trivial(cls, degree: int) -> "PermGroup":
        return cls([Permutation.identity(degree)])

    @property
    def order_value(self) -> int:
        return self.order.value

    def identity(self) -> Permutation:
        return Permutation.identity(self.degree)

    def is_abelian(self) -> bool:
        g = self.generators
        return all(a * b == b * a for i, a in enumerate(g) for b in g[i + 1 :])

    # ── subgroups ───────────────────────────────────────────────────

    def subgroup(self, generators: list[Permutation]) -> "PermGroup":
        """The subgroup generated by ``generators``, which it keeps as its
        generators; ValueError if one is not an element of this group."""
        table = self.element_table()
        members, _ = table.closure([table.position(p) for p in generators])
        return self._subgroup(members, generators)

    def _subgroup(self, members: np.ndarray, generators=None) -> "PermGroup":
        """The subgroup at the ascending positions ``members``, which must
        be closed under the group operation.  Without ``generators`` it gets
        a greedy generating set: each member, highest element order first
        (``ElementTable.by_order``), that lies outside the closure of those
        chosen before it."""
        if generators is None:
            table = self.element_table()
            members, gens = table.closure(table.by_order(members))
            generators = [table.permutation(i) for i in gens]
        sub = PermGroup.__new__(PermGroup)
        sub.degree, sub.generators = self.degree, list(generators)
        sub.parent, sub.members = self, members
        sub.order = FactoredInteger.from_int(len(members))
        sub._table = None
        return sub

    # ── element enumeration ─────────────────────────────────────────

    def element_table(self, cap: int = DEFAULT_ENUM_CAP) -> ElementTable:
        """Every element, one row each in ascending image order, with the
        index, classes and orders built from those rows.

        A group's rows are ``_rows(cap)``; a subgroup's are the parent's at
        ``members``, in image order as a subset of sorted rows: a slice of
        a table built under the cap, with no cap check.  Either way, the
        index reads its base from the rows alone, the classes come from the
        generators' conjugation maps, and element order is a class
        invariant, so ``_base_cycles`` walks one row per class and the
        table keeps one order per class.  The first call checks ``cap``,
        then TABLE_BYTES_CAP; later calls return the cached table whatever
        their cap.
        """
        if self._table is not None:
            return self._table
        if self.parent is None:
            matrix = self._rows(cap)
        else:
            matrix = self.parent.element_table().matrix[self.members]
        index = BaseImageIndex(matrix)
        maps = _conjugation_maps(matrix, index, self.generators or [self.identity()])
        class_of, class_sizes, class_reps = _classes_by_label(_class_labels(maps))
        del maps
        orders = _base_cycles(matrix, class_reps, index.base)[0]
        self._table = ElementTable(matrix, index, class_of, class_sizes, class_reps, orders)
        return self._table

    def _rows(self, cap: int) -> np.ndarray:
        """The group's elements, as products u_0 u_1 ... u_k of the chain's
        transversals, in ascending image order.  The order is read from the
        product's columns 0..max(base) alone, and each row is then formed
        once, straight into its place, a block of rows at a time, so the
        build never holds two table-sized arrays."""
        n = self.order_value
        if n > cap:
            raise CapacityError(
                f"group order {n} exceeds element-enumeration cap {cap}"
            )
        base, degree, dtype = self.chain.base, self.degree, self.chain.dtype
        # beside its row, each element keeps its index key and its int32
        # class number.  The index reads its base from the rows, which do
        # not exist yet: it has at most max(base) + 1 points, as
        # only 1 fixes 0..max(base), and at most log2(n), as each of its
        # points at least halves the elements fixing the points before it
        width = min(max(base, default=0) + 1, n.bit_length() - 1)
        per_row = _key_dtype(width, degree, dtype).itemsize + 4
        _check_table_bytes(n, degree, dtype, "an element table", per_row)
        # with R the product of the levels below the first, product row
        # a |R| + r is u_a * R[r]; np.take keeps each product contiguous
        identity = np.arange(degree, dtype=dtype)[None, :]
        first, *below = self.chain._transversals or [identity]
        rest = identity
        for transversal in reversed(below):
            rest = np.take(transversal, rest, axis=1).reshape(-1, degree)
        # rows that agree on columns 0..max(base) agree on the base, so
        # they are one element: those columns give the full row order
        last = max(base, default=0)
        prefix = np.take(first, rest[:, : last + 1], axis=1).reshape(-1, last + 1)
        order = np.lexsort(tuple(prefix[:, i] for i in range(last, -1, -1)))
        del prefix
        # row i of the table is product row order[i]
        table, flat = np.empty((n, degree), dtype=dtype), first.ravel()
        per_block = max(1, _ROW_BLOCK // degree)
        for s in range(0, n, per_block):
            a, r = np.divmod(order[s : s + per_block], len(rest))
            # u_a[R[r]], with u_a's entries read from the flattened level
            table[s : s + per_block] = flat[(a * degree)[:, None] + rest[r]]
        return table

    def enumerate_elements(self, cap: int = DEFAULT_ENUM_CAP) -> list[Permutation]:
        table = self.element_table(cap)
        return [table.permutation(i) for i in range(len(table))]

    # ── conjugacy classes ───────────────────────────────────────────

    def conjugacy_classes(self) -> tuple[np.ndarray, np.ndarray]:
        """The element table's (``class_reps``, ``class_sizes``): each
        class's smallest position and its size, identity first.  A class's
        members are ``ElementTable.class_members([c])``."""
        table = self.element_table()
        return table.class_reps, table.class_sizes

    # ── centralizers ────────────────────────────────────────────────

    def centralizer(self, elements) -> "PermGroup":
        """The subgroup of all elements commuting with every one given."""
        table = self.element_table()
        members = np.arange(len(table), dtype=np.int64)
        for i in [table.position(p) for p in elements]:
            members = members[table.commuting([i], members)[0]]
        return self._subgroup(members)

    # ── normal-structure queries ────────────────────────────────────

    def is_normal(self, sub: "PermGroup") -> bool:
        """Whether the subgroup is normal, i.e. a union of conjugacy
        classes; ValueError for a subgroup of another group."""
        if sub.parent is not self:
            raise ValueError("is_normal needs a subgroup of this group")
        return self.element_table().is_class_union(sub.members)

    def _class_closure(self, x: int) -> frozenset[int]:
        """Class numbers of the normal closure of the element at position
        x: its class, grown by right multiplication by x of each round's
        new classes, a block of positions at a time: one block of
        ``products``, about _ROW_BLOCK base images.  A union N of classes
        with N x = N is closed under the conjugates of x, as
        n g x g^-1 = g (g^-1 n g) x g^-1."""
        table = self.element_table()
        found = np.zeros(len(table.class_sizes), dtype=bool)
        found[[0, table.class_of[x]]] = True
        new = found.copy()
        per_block = max(1, _ROW_BLOCK // max(1, len(table.index.base)))
        while new.any():
            # the classes of y x for every y in the classes that joined last
            touched = np.zeros_like(found)
            for s in range(0, len(table), per_block):
                ys = s + np.flatnonzero(new[table.class_of[s : s + per_block]])
                touched[table.class_of[table.products(ys, [x]).ravel()]] = True
            new = touched & ~found
            found |= new
        return frozenset(np.flatnonzero(found).tolist())

    def minimal_normal_subgroups(self) -> list["PermGroup"]:
        """Minimal nontrivial normal subgroups.

        Each minimal normal subgroup is the normal closure of any of
        its non-identity elements, and closures are constant on
        conjugacy classes, so one closure per class suffices.  Closures
        are compared as sets of classes; only the minimal ones are
        expanded to positions and become subgroups.
        """
        reps, _ = self.conjugacy_classes()
        table = self.element_table()
        closures = {self._class_closure(r) for r in reps[1:].tolist()}
        minimal = [
            self._subgroup(table.class_members(n))
            for n in closures
            if not any(m < n for m in closures)
        ]
        minimal.sort(key=lambda h: (h.order_value, [g.images for g in h.generators]))
        return minimal

    def is_simple(self) -> bool:
        """True when the only normal subgroups are trivial and the whole
        group: the normal closure of each nontrivial class is every class."""
        reps, sizes = self.conjugacy_classes()
        return self.order_value > 1 and all(
            len(self._class_closure(r)) == len(sizes) for r in reps[1:].tolist()
        )

    # ── Sylow subgroups ─────────────────────────────────────────────

    def sylow_subgroup(self, p: int) -> "PermGroup":
        """A Sylow p-subgroup, grown cyclically through normalizers.

        P is kept as its ascending positions in the element table.  Its
        candidates are the p-elements, those whose order divides the
        p-part p^e of the group order, in ``ElementTable.by_order``'s
        order: highest element order, then row.  P starts as the cyclic
        subgroup of the first candidate and adjoins, until |P| = p^e, the
        first candidate outside P that conjugates every generator of P
        into P.  That element normalizes P, so ``ElementTable.extend``
        gives the larger subgroup.  Each step tests all the candidates
        outside P at once, one generator of P at a time, on base images.
        """
        e = self.order.factors.get(p, 0)
        if e == 0:
            raise ValueError(f"{p} does not divide the group order {self.order_value}")
        target = p**e
        table = self.element_table()
        matrix = table.matrix
        p_classes = np.flatnonzero(target % table.class_orders == 0)
        candidates = table.by_order(table.class_members(p_classes))
        gen_idx = [int(candidates[0])]
        member = table.extend(np.zeros(1, dtype=np.int64), gen_idx[0])
        if len(member) < target:
            _, inv_base = _base_cycles(matrix, candidates, table.index.base)
            inside = np.zeros(len(table), dtype=bool)
        while len(member) < target:
            inside[member] = True
            live = np.flatnonzero(~inside[candidates])
            for h in gen_idx:
                # base images x(h(x^-1(base))) of x h x^-1 for each x left
                images = matrix[h][inv_base[live]]
                conj = matrix[candidates[live][:, None], images]
                live = live[inside[table.index.find(conj)]]
            assert live.size, "normalizer growth stalled; this is a bug"
            i = int(candidates[live[0]])
            gen_idx.append(i)
            member = table.extend(member, i)
        return self._subgroup(member, [table.permutation(i) for i in gen_idx])
