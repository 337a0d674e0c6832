"""Tests for the permutation engine and stabilizer chain."""

import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abelmax import CapacityError
from abelmax.perms import DEFAULT_ENUM_CAP, TABLE_BYTES_CAP, PermGroup, Permutation

_REPO = Path(__file__).resolve().parents[1]


def cycles(degree, *cs):
    return Permutation.from_cycles(degree, cs)


def assert_position_set(positions):
    """A set of table positions is an ascending, distinct int64 array."""
    assert isinstance(positions, np.ndarray) and positions.dtype == np.int64
    assert positions.ndim == 1 and (np.diff(positions) > 0).all()


def class_lists(table):
    """The members of each conjugacy class, by class number."""
    return [table.class_members([c]) for c in range(len(table.class_sizes))]


@pytest.fixture(scope="module")
def s3():
    return PermGroup([cycles(3, (0, 1)), cycles(3, (0, 1, 2))])


@pytest.fixture(scope="module")
def s4():
    return PermGroup([cycles(4, (0, 1)), cycles(4, (0, 1, 2, 3))])


@pytest.fixture(scope="module")
def d8():
    # dihedral of order 8 on the square 0-1-2-3
    return PermGroup([cycles(4, (0, 1, 2, 3)), cycles(4, (1, 3))])


# ── permutation algebra ─────────────────────────────────────────────

def test_compose_transposition_squares_to_identity():
    t = cycles(3, (0, 1))
    assert (t * t).is_identity()


def test_invert_three_cycle():
    assert cycles(3, (0, 1, 2)).inverse() == cycles(3, (0, 2, 1))


def test_order_of_element():
    assert cycles(5, (0, 1, 2, 3, 4)).order() == 5
    assert cycles(6, (0, 1), (2, 3, 4)).order() == 6
    assert Permutation.identity(4).order() == 1


def test_degree_mismatch_rejected():
    with pytest.raises(ValueError):
        cycles(3, (0, 1)) * cycles(4, (0, 1))


def test_not_a_permutation_rejected():
    with pytest.raises(ValueError):
        Permutation([0, 0, 1])


def test_cycle_roundtrip():
    p = cycles(7, (0, 3, 5), (1, 2))
    assert p.cycle_string() == "(0,3,5)(1,2)"
    assert p.cycle_string(one_indexed=True) == "(1,4,6)(2,3)"
    assert Permutation.from_cycles(7, p.cycles()) == p


@given(st.permutations(list(range(7))), st.permutations(list(range(7))))
@settings(max_examples=50)
def test_algebra_properties(a_imgs, b_imgs):
    a, b = Permutation(a_imgs), Permutation(b_imgs)
    assert (a * a.inverse()).is_identity()
    assert (a * b).inverse() == b.inverse() * a.inverse()
    assert a ** a.order() == Permutation.identity(7)


# ── group construction and order ────────────────────────────────────

def test_symmetric_and_alternating_orders():
    s5 = PermGroup([cycles(5, (0, 1)), cycles(5, (0, 1, 2, 3, 4))])
    a5 = PermGroup([cycles(5, (0, 1, 2)), cycles(5, (0, 1, 2, 3, 4))])
    assert s5.order_value == 120
    assert a5.order_value == 60


def test_empty_generators_rejected():
    with pytest.raises(ValueError):
        PermGroup([])
    assert PermGroup.trivial(5).order_value == 1


def test_mixed_degrees_rejected():
    with pytest.raises(ValueError):
        PermGroup([cycles(3, (0, 1)), cycles(4, (0, 1))])


def test_membership(s4):
    table = s4.element_table()
    table.position(cycles(4, (0, 2), (1, 3)))
    table.position(cycles(4, (0, 1, 2)))
    a4 = PermGroup([cycles(4, (0, 1, 2)), cycles(4, (1, 2, 3))]).element_table()
    with pytest.raises(ValueError):
        a4.position(cycles(4, (0, 1)))
    # a permutation of another degree is no member
    with pytest.raises(ValueError):
        a4.position(cycles(5, (0, 1, 2)))


def test_chain_is_deterministic(s4):
    again = PermGroup(s4.generators)
    assert again.chain.base == s4.chain.base
    assert [(g.tolist(), d) for g, d in again.chain._strong] == [
        (g.tolist(), d) for g, d in s4.chain._strong
    ]
    for t, u in zip(again.chain._transversals, s4.chain._transversals, strict=True):
        assert np.array_equal(t, u)


@pytest.mark.parametrize(
    "spec, base, orbits",
    [
        ("file:groups/m12.gens", [0, 2, 1, 3, 4], [12, 11, 10, 9, 8]),
        ("file:groups/j1.gens", [0, 1, 2], [266, 110, 6]),
        ("agl3_2", [0, 1, 4, 2], [8, 7, 6, 4]),
        ("cyclic:30", [0], [30]),
    ],
    ids=["m12", "j1", "agl3_2", "cyclic:30"],
)
def test_chain_base_and_orbits_are_pinned(spec, base, orbits, monkeypatch):
    # row r of a level's transversal maps its base point to the r-th
    # point of the orbit, the identity first
    from abelmax.catalog import build_group

    monkeypatch.chdir(_REPO)
    g = build_group(spec)
    chain = g.chain
    assert chain.base == base
    assert [len(t) for t in chain._transversals] == orbits
    assert g.order_value == math.prod(orbits)
    for b, t, where in zip(chain.base, chain._transversals, chain._where, strict=True):
        assert t.dtype == np.min_scalar_type(g.degree - 1)
        assert np.array_equal(t[0], np.arange(g.degree))
        assert np.array_equal(where[t[:, b]], np.arange(len(t)))
        assert (where >= 0).sum() == len(t)


# ── enumeration ─────────────────────────────────────────────────────

def test_enumerate_s3(s3):
    elems = s3.enumerate_elements()
    assert len(elems) == 6
    assert len(set(elems)) == 6
    assert elems[0].is_identity()


def test_enumerate_d8(d8):
    assert d8.order_value == 8
    assert len(d8.enumerate_elements()) == 8


def test_enumeration_cap_is_explicit(s4):
    with pytest.raises(CapacityError):
        PermGroup(
            [cycles(9, (0, 1)), cycles(9, tuple(range(9)))]
        ).element_table(cap=1000)


def test_table_byte_cap_refuses_before_allocating():
    # order 2^17 is under the enumeration cap, but the table would take
    # 131072 x 60000 uint16 entries, 15.7 GB
    g = PermGroup([cycles(60000, (2 * i, 2 * i + 1)) for i in range(17)])
    assert g.order_value == 131072 <= DEFAULT_ENUM_CAP
    assert 131072 * 60000 * 2 > TABLE_BYTES_CAP
    with pytest.raises(CapacityError, match="needs 15728640000 bytes"):
        g.element_table()


def _table_bytes(g):
    """Bytes the finished element table of g holds: its matrix, the index's
    keys and positions, each position's order and class number, and each
    class's size and representative."""
    table = g.element_table()
    arrays = [table.matrix, table.index.keys, table.index.at, table.orders,
              table.class_of, table.class_sizes, table.class_reps]
    return sum(a.nbytes for a in arrays)


def test_table_byte_cap_counts_the_per_element_arrays(monkeypatch):
    # sym:5's matrix is 120 x 5 uint8, 600 bytes; with each row's int64
    # key and int32 index position, order and class number, the table
    # keeps 25 bytes a row
    from abelmax import perms
    from abelmax.catalog import build_group

    g = build_group("sym:5")
    table = g.element_table()
    assert table.matrix.nbytes == 600
    per_class = table.class_sizes.nbytes + table.class_reps.nbytes
    assert _table_bytes(g) - per_class == 120 * 25
    monkeypatch.setattr(perms, "TABLE_BYTES_CAP", 2000)
    with pytest.raises(CapacityError, match="needs 600 bytes and 2400 more"):
        build_group("sym:5").element_table()


def test_table_build_holds_one_table():
    # the build releases the transversal product before it forms the rows
    # in canonical order, so it never holds two table-sized arrays: on
    # cyclic:2000 (a 2000 x 2000 uint16 matrix) the traced peak of the
    # build stays within 1.5x the bytes the finished table holds
    import tracemalloc

    from abelmax.catalog import build_group

    g = build_group("cyclic:2000")
    tracemalloc.start()
    try:
        g.element_table()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    held = _table_bytes(g)
    assert held > 2000 * 2000 * 2
    assert peak <= 1.5 * held, f"peak {peak} bytes, table {held} bytes"


def test_table_build_walks_orders_in_blocks():
    # every row of this abelian group is a class representative, and each
    # walks its 17 base points: walked all at once, 2.2M walks took int64
    # temporaries of 134 MB, 13x the table.  In blocks of about _ROW_BLOCK
    # walks the peak is set before the walk, when the 17 generators' int32
    # conjugation maps (8.9 MB) are held beside the table's rows and index
    import tracemalloc

    g = PermGroup([cycles(34, (2 * i, 2 * i + 1)) for i in range(17)])
    assert g.order_value == 131072
    tracemalloc.start()
    try:
        g.element_table()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    held = _table_bytes(g)
    assert peak <= 3 * held, f"peak {peak} bytes, table {held} bytes"


def test_products_read_no_whole_rows():
    # products gathers the entries x_l(x_r(base)) alone: on cyclic:2000 a
    # product by one element of all 2000 rows (8 MB of uint16 whole rows)
    # peaks far below the rows' bytes
    import tracemalloc

    from abelmax.catalog import build_group

    table = build_group("cyclic:2000").element_table()
    tracemalloc.start()
    try:
        table.products(np.arange(2000), [1])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, f"peak {peak} bytes"


def test_products_hold_a_block_beside_their_result(monkeypatch):
    # products forms its int64 flat indices for blocks of ``left`` of about
    # _ROW_BLOCK entries: on M12 (uint8 rows of degree 12, 5 base points) a
    # product by one element of all 95040 rows holds, beside its int64
    # result, less than 1.5x the rows' 1.1 MB; indexing all 475200 gathered
    # entries at once took 8.1 MB
    import tracemalloc

    from abelmax.catalog import build_group

    monkeypatch.chdir(_REPO)
    g = build_group("file:groups/m12.gens")
    table = g.element_table()
    left = np.arange(len(table))
    tracemalloc.start()
    try:
        result = table.products(left, [1])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.nbytes == 8 * 95040
    held = peak - result.nbytes
    assert held < 1.5 * table.matrix.nbytes, f"{held} bytes beside the result"


def test_table_keeps_its_rows_and_twelve_bytes_more_a_row(monkeypatch):
    # with M12's chain built, the traced bytes the table build leaves
    # behind are its matrix, each row's index key and its three int32
    # entries, and little else: no per-class member lists
    import tracemalloc

    from abelmax.catalog import build_group

    monkeypatch.chdir(_REPO)
    g = build_group("file:groups/m12.gens")
    tracemalloc.start()
    try:
        table = g.element_table()
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    n = len(table)
    bound = table.matrix.nbytes + n * (table.index.keys.itemsize + 12) + 64 * 1024
    assert held <= bound, f"held {held} bytes, bound {bound} bytes"


def test_enumeration_closed_under_product(s4):
    elems = s4.enumerate_elements()
    table = s4.element_table()
    rng = np.random.default_rng(7)
    for _ in range(200):
        i, j = rng.integers(0, len(elems), 2)
        table.position(elems[int(i)] * elems[int(j)])


def test_build_order_equals_enumeration_length():
    for gens in [
        [cycles(6, (0, 1, 2), (3, 4, 5)), cycles(6, (0, 3))],
        [cycles(7, (0, 1, 2, 3, 4, 5, 6)), cycles(7, (1, 2, 4))],
    ]:
        g = PermGroup(gens)
        assert g.order_value == len(g.enumerate_elements())


# ── centralizers ────────────────────────────────────────────────────

def test_centralizer_examples(s3, d8):
    assert s3.centralizer([cycles(3, (0, 1))]).order_value == 2
    assert s3.centralizer([Permutation.identity(3)]).order_value == 6
    rot = cycles(4, (0, 1, 2, 3))
    c = d8.centralizer([rot])
    assert c.order_value == 4
    assert c.is_abelian()


def test_centralizer_brute_force_agreement(d8):
    rot = cycles(4, (0, 1, 2, 3))
    brute = [x for x in d8.enumerate_elements() if x * rot == rot * x]
    assert d8.centralizer([rot]).order_value == len(brute)


def test_centralizer_is_subgroup(s4):
    c = s4.centralizer([cycles(4, (0, 1))])
    elems = c.enumerate_elements()
    eset = set(elems)
    for a in elems:
        assert a.inverse() in eset
        for b in elems:
            assert a * b in eset


# groups whose chain's base is much shorter than their degree, so that
# comparing base columns differs from comparing whole rows
SHORT_BASE = ["cyclic:30", "dihedral:12", "frobenius:5:4"]


@pytest.mark.parametrize("spec", ["sym:5", "agl3_2", "alt:6", *SHORT_BASE])
def test_element_table_commuting_against_products(spec):
    from abelmax.catalog import build_group

    g = build_group(spec)
    if spec in SHORT_BASE:
        assert 2 * len(g.chain.base) <= g.degree
    table = g.element_table()
    n = len(table)
    elems = [table.permutation(i) for i in range(n)]

    def reference(i, members):
        x = elems[i]
        return [j for j in members if x * elems[j] == elems[j] * x]

    everything = np.arange(n, dtype=np.int64)
    sparse = everything[1::3]
    reps, classes = g.conjugacy_classes()[0].tolist(), class_lists(table)

    def commuting(i, members):
        return members[table.commuting([i], members)[0]]

    for k, (r, cls) in enumerate(zip(reps, classes)):
        cent = commuting(r, everything)
        assert cent.tolist() == reference(r, range(n))
        assert len(cent) == n // len(cls)
        # narrowed inputs: the centralizer of another class's
        # representative, and a set that is not a subgroup
        other = reps[(k + 1) % len(reps)]
        narrowed = commuting(other, cent)
        assert narrowed.tolist() == reference(other, cent.tolist())
        assert commuting(r, sparse).tolist() == reference(r, sparse.tolist())


def _ten_transpositions_at_degree_300():
    return PermGroup([Permutation.from_cycles(300, [(i, i + 1)]) for i in range(0, 20, 2)])


@pytest.fixture(scope="module")
def commuting_tables():
    from abelmax.catalog import build_group

    groups = [build_group("sym:5"), build_group("agl3_2"), _ten_transpositions_at_degree_300()]
    tables = [g.element_table() for g in groups]
    return [(t, [t.permutation(i) for i in range(len(t))]) for t in tables]


@settings(max_examples=30)
@given(st.integers(0, 2), st.integers(0, 2**32 - 1), st.integers(1, 9), st.integers(0, 60))
def test_element_table_commuting_block_against_products(
    commuting_tables, which, seed, rows, size
):
    # each entry of the block is x*y == y*x on Permutations, for any
    # positions xs (repeats allowed) and ascending members
    table, elems = commuting_tables[which]
    rng = np.random.default_rng(seed)
    xs = rng.integers(0, len(table), rows)
    members = np.sort(rng.choice(len(table), min(size, len(table)), replace=False))
    block = table.commuting(xs, members)
    assert block.shape == (rows, len(members)) and block.dtype == bool
    expected = [[elems[x] * elems[y] == elems[y] * elems[x] for y in members] for x in xs]
    assert block.tolist() == expected


@settings(max_examples=30)
@given(st.integers(0, 2), st.integers(0, 2**32 - 1), st.integers(0, 6), st.integers(0, 6))
def test_element_table_products_against_permutation_products(
    commuting_tables, which, seed, rows, cols
):
    # entry (l, r) is the position of x_l * x_r = x_l(x_r(.)); every
    # position is given twice on both sides
    table, elems = commuting_tables[which]
    rng = np.random.default_rng(seed)
    left = np.tile(rng.integers(0, len(table), rows), 2)
    right = np.tile(rng.integers(0, len(table), cols), 2)
    got = table.products(left, right)
    assert got.shape == (2 * rows, 2 * cols) and got.dtype == np.int64
    expected = [[table.position(elems[x] * elems[y]) for y in right] for x in left]
    assert got.tolist() == expected


# sha256 of each table's matrix bytes, its orders and class numbers as
# int64, its class lists and its index keys, pinned when every per-element
# array was int64: the layout may change, the values may not
_TABLE_DIGESTS = {
    "sym:2": "5bf9060bad452ac5441d06347e9e3f8e0a10f2525cea88d270b57902a903731b",
    "sym:3": "6e00651d65fb85fa2a8bd79cad1f436f7683951b5202371b82e0175fa623c7ea",
    "sym:4": "67766b2cee78cac8881cb9b1d0c5fa7d423c527973bd808e1eeab2d3311d7e54",
    "sym:5": "4db2bc63837af965c82359037bc74140c89c45ad1aa42036383fb2c111f4f806",
    "sym:6": "976b05640a3f6697de29a7f95414b94f09930815dcbdc1b61bbfd9d6799f0d9c",
    "sym:7": "1bb73f04828fb58b0b1dbbedae1e85165dbff6f238faa1dcc9c18e2ff7e83790",
    "alt:4": "5bb41d9b6b23d7caaffde22c342a659468c1a67efb72f8300b5bc551caadb5bc",
    "alt:5": "e406529b67328686e36a5bcd48e164c20c87d62dfbe179d3a1101a77917bf0ea",
    "alt:6": "8a2a63a831cb43b28ed70888020eff4c5f1e0c3615e5b17cf3d7d72d73647310",
    "alt:7": "173caf181a5b307c43d817a542997b3359fef56a7d57a3a48143731b3f0a9725",
    "alt:8": "9a4452a097c29ef1fb521737e8c601fe15a1f801f40c27ae4b880ad97f910601",
    "cyclic:12": "b856cfc26ca9814c1970d171deab3bcaf6ee8fbb568894b60f0a5f8e97fcd791",
    "cyclic:30": "f3ec9143ed10c0d969aea1d6bed0921a4e750a050479cfc90eacdd2b96f1b363",
    "dihedral:8": "35bd0396afdabe35610437727bb273d479aca765daba88d35ec815246a4ff648",
    "dihedral:12": "f941bf5b123d7f99524074ee75ddca17d2c9b84f1f0f2a303c9c1f967692f5a9",
    "elem_abelian:3:2": "b92f35113df471156cb681087271bcbe0643a70aedbeca0f7e3ac43452f2d8b7",
    "elem_abelian:2:4": "41a340e8659bf4764f992037ca8c36ef2ea3f5040289c5c39b8a1441b87a98d8",
    "psl2:7": "96d5c94291ef7343b68e770156c30d19d0c8162e931c82a8e8af235f4a89e903",
    "psl2:11": "789ccfe11138c034db7c170d5e81545c86b10630d1858f224966af8f34dcd856",
    "psl2:13": "7489590d042a063af6040574914615f19bec05da1a7ae882679422f8d1fc5407",
    "pgl2:7": "b92413da03df176b58fe14798943c8beeeca99586edd7a9f5c5824a4a1cd41d3",
    "frobenius:5:4": "2d3ea7f521b14433d1e9ded15b29640c443f232af628e9eb65ce9227e9635517",
    "frobenius:7:3": "f5536bb2c3b7561f8868c8320e3bda32391b6d089611aa3f584ada6b8cef8299",
    "agammal1:3": "a54ca5f68ac5599f18532bfcc384448aef4cf5a57c368233434d03596c2ba4a3",
    "agammal1:4": "761b37e84ce04f2e968344114b8bdf643bbaf6ffc40309241b2ccecf817806a9",
    "agl3_2": "9685768c9de5a7f8ebd51e960dd64b643f253d4c86389f5e675360d1081b02ec",
    "file:groups/m12.gens": "b3afd28ea81e55fc216c458458df1049700b8d485033413b96689ce27801dc7e",
}


def test_element_tables_are_pinned(monkeypatch):
    import hashlib

    from abelmax.catalog import build_group, default_catalog_specs

    specs = default_catalog_specs() + ["file:groups/m12.gens"]
    assert sorted(specs) == sorted(_TABLE_DIGESTS)
    monkeypatch.chdir(_REPO)
    for spec in specs:
        g = build_group(spec)
        table = g.element_table()
        h = hashlib.sha256(table.matrix.tobytes())
        h.update(table.orders.astype(np.int64).tobytes())
        h.update(table.class_of.astype(np.int64).tobytes())
        for members in class_lists(table):
            h.update(members.astype(np.int64).tobytes())
        h.update(table.index.keys.tobytes())
        assert h.hexdigest() == _TABLE_DIGESTS[spec], spec


def test_element_table_dtypes():
    # what a table keeps per element is int32; every set of positions it
    # returns is an int64 array
    from abelmax.catalog import build_group

    g = build_group("sym:5")
    table = g.element_table()
    sylow = g.sylow_subgroup(2)
    for t in (table, sylow.element_table()):
        assert t.index.at.dtype == t.orders.dtype == t.class_of.dtype == np.int32
    assert table.products([1, 2], [3, 4, 5]).dtype == np.int64
    assert table.index.find(table.matrix[:3][:, table.index.base]).dtype == np.int64
    members, _ = table.closure([1, 7])
    for positions in (members, table.extend(sylow.members, 1), table.class_members([1, 2]),
                      *class_lists(table), sylow.members):
        assert_position_set(positions)


@pytest.mark.parametrize(
    "spec", ["sym:5", "agl3_2", "psl2:13", *SHORT_BASE, "cyclic:2000", "file:groups/m12.gens"]
)
def test_element_table_base_prefix_sort_is_the_full_row_sort(spec, monkeypatch):
    # the table is sorted on columns 0..max(base) only; sorting on every
    # column must leave each block of equal element order as it is
    from abelmax.catalog import build_group

    monkeypatch.chdir(_REPO)
    g = build_group(spec)
    table = g.element_table()
    matrix, orders = table.matrix, table.orders
    for o in np.unique(orders).tolist():
        block = np.flatnonzero(orders == o)
        assert np.array_equal(block, np.arange(block[0], block[-1] + 1))
        rows = matrix[block]
        full = np.lexsort(tuple(rows[:, i] for i in range(g.degree - 1, -1, -1)))
        assert np.array_equal(full, np.arange(len(block)))


def test_centralizer_rejects_non_member():
    with pytest.raises(ValueError):
        PermGroup([cycles(4, (0, 1, 2))]).centralizer([cycles(4, (0, 1))])


def test_center_of_d8(d8):
    z = d8.center()
    assert z.order_value == 2
    assert z.element_table().position(cycles(4, (0, 2), (1, 3))) == 1


# ── normality ───────────────────────────────────────────────────────

def test_a3_normal_in_s3(s3):
    a3 = s3.centralizer([cycles(3, (0, 1, 2))])
    assert a3.order_value == 3
    assert s3.is_normal(a3)


def test_two_cycle_subgroup_not_normal(s3):
    h = s3.subgroup([cycles(3, (0, 1))])
    assert h.order_value == 2
    assert not s3.is_normal(h)


@pytest.mark.parametrize("spec", ["sym:4", "agl3_2", "frobenius:5:4", "dihedral:12"])
def test_is_normal_against_the_definition(spec):
    # H = <gens> is normal when g h g^-1 lies in H for every generator g
    # of G and h of H; membership is read from the elements of H, built
    # as a group of its own from gens
    from abelmax.catalog import build_group

    g = build_group(spec)
    table = g.element_table()
    reps = [table.permutation(r) for r in g.conjugacy_classes()[0]]
    gen_sets = [[a] for a in reps]
    gen_sets += [[a, b] for i, a in enumerate(reps) for b in reps[i + 1 :]]
    verdicts = set()
    for gens in gen_sets:
        h = PermGroup(gens)
        elements = set(h.enumerate_elements())
        expected = all(x * y * x.inverse() in elements for x in g.generators for y in gens)
        sub = g.subgroup(gens)
        assert sub.order_value == h.order_value
        assert g.is_normal(sub) == expected, gens
        verdicts.add(expected)
    assert verdicts == {True, False}


def test_is_normal_rejects_a_subgroup_of_another_group(s3):
    other = PermGroup(list(s3.generators))
    a3 = other.centralizer([cycles(3, (0, 1, 2))])
    assert other.is_normal(a3)
    with pytest.raises(ValueError):
        s3.is_normal(a3)


def test_normal_closure_v4(s4):
    table = s4.element_table()
    v4 = table.class_members(s4._class_closure(table.position(cycles(4, (0, 1), (2, 3)))))
    assert_position_set(v4)
    assert table.is_class_union(v4)
    # the three double transpositions and the identity
    assert {table.permutation(i).images for i in v4} == {
        (0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0)
    }


def test_minimal_normal_subgroups(s3, s4):
    assert [m.order_value for m in s4.minimal_normal_subgroups()] == [4]
    assert [m.order_value for m in s3.minimal_normal_subgroups()] == [3]
    a5 = PermGroup([cycles(5, (0, 1, 2)), cycles(5, (0, 1, 2, 3, 4))])
    assert [m.order_value for m in a5.minimal_normal_subgroups()] == [60]


def test_minimal_normal_subgroups_brute(s4):
    # brute-force reference: all normal subgroups of S4 are 1, V4, A4, S4
    table = s4.element_table()
    normal_orders = {
        len(table.class_members(s4._class_closure(r))) for r in s4.conjugacy_classes()[0]
    }
    assert normal_orders == {1, 4, 12, 24}


def test_is_simple():
    a5 = PermGroup([cycles(5, (0, 1, 2)), cycles(5, (0, 1, 2, 3, 4))])
    s4 = PermGroup([cycles(4, (0, 1)), cycles(4, (0, 1, 2, 3))])
    c7 = PermGroup([cycles(7, tuple(range(7)))])
    assert a5.is_simple()
    assert not s4.is_simple()
    assert c7.is_simple()  # simple abelian; callers distinguish


def test_minimal_normal_subgroups_against_closure_lattice():
    # brute reference: minimal elements among all normal closures
    from abelmax import catalog as cat

    for spec in ["sym:4", "dihedral:12", "frobenius:5:4", "agammal1:3", "cyclic:12"]:
        g = cat.build_group(spec)
        table = g.element_table()
        # closures and subgroups alike are sets of positions in g's table
        closures = {
            frozenset(table.class_members(g._class_closure(r)).tolist())
            for r in g.conjugacy_classes()[0][1:]
        }
        brute_minimal = {n for n in closures if not any(m < n for m in closures)}
        got = [frozenset(h.members.tolist()) for h in g.minimal_normal_subgroups()]
        assert len(got) == len(brute_minimal) and set(got) == brute_minimal
        for h in g.minimal_normal_subgroups():
            assert h.order_value > 1
            assert g.is_normal(h)


@pytest.mark.parametrize("spec", ["sym:4", "dihedral:12", "agl3_2", "frobenius:7:3"])
def test_normal_closure_of_several_elements_against_conjugate_products(spec):
    # the normal closure of one class representative, as minimal normal
    # subgroups and simplicity ask for it; reference: the closure of
    # Permutation products of every conjugate of the representative,
    # adding a conjugate as a generator only when it lies outside the
    # closure so far
    from abelmax.catalog import build_group

    g = build_group(spec)
    table = g.element_table()
    elems = g.enumerate_elements()

    def reference(x):
        conjugates = {y * x * y.inverse() for y in elems}
        seen, gens = {g.identity()}, []
        for c in sorted(conjugates, key=lambda p: p.images):
            if c in seen:
                continue
            gens.append(c)
            queue = list(seen)
            for a in queue:
                for ab in (a * b for b in gens):
                    if ab not in seen:
                        seen.add(ab)
                        queue.append(ab)
        return seen

    for r in g.conjugacy_classes()[0]:
        closure = table.class_members(g._class_closure(r))
        assert_position_set(closure)
        assert {table.permutation(i) for i in closure} == reference(table.permutation(r))
        assert table.is_class_union(closure)


@pytest.mark.parametrize(
    "spec, minimal, simple",
    [("file:groups/m12.gens", [95040], True), ("pgl2:7", [168], False),
     ("pgl2:13", [1092], False), ("sym:6", [360], False)],
)
def test_minimal_normal_subgroups_and_simplicity_on_large_tables(
    spec, minimal, simple, monkeypatch
):
    # normal closures are compared as sets of classes and expanded to
    # positions only for the minimal normal subgroups returned
    from abelmax.catalog import build_group

    monkeypatch.chdir(_REPO)
    g = build_group(spec)
    got = g.minimal_normal_subgroups()
    assert [h.order_value for h in got] == minimal
    for h in got:
        assert_position_set(h.members)
        assert g.is_normal(h)
    assert g.is_simple() == simple


# ── conjugacy classes ───────────────────────────────────────────────

def test_conjugacy_classes_s4(s4):
    table = s4.element_table()
    classes = class_lists(table)
    assert sorted(len(c) for c in classes) == [1, 3, 6, 6, 8]
    assert sum(len(c) for c in classes) == 24
    # class function sanity: all members share the element order
    for cls in classes:
        assert len({int(table.orders[i]) for i in cls}) == 1


@pytest.mark.parametrize(
    "spec",
    ["sym:5", "agl3_2", "dihedral:12", "cyclic:30", "elem_abelian:2:4", "agammal1:4"],
)
def test_conjugacy_classes_against_products(spec):
    # reference: each element's orbit under conjugation by the generators,
    # closed one Permutation product at a time
    from abelmax.catalog import build_group

    g = build_group(spec)
    table = g.element_table()
    conj = [(s, s.inverse()) for s in g.generators]
    expected, seen = set(), set()
    for i in range(len(table)):
        if i in seen:
            continue
        orbit = [table.permutation(i)]
        members = {i}
        for x in orbit:
            for s, s_inv in conj:
                y = s * x * s_inv
                j = table.position(y)
                if j not in members:
                    members.add(j)
                    orbit.append(y)
        seen |= members
        expected.add(frozenset(members))
    reps, classes = g.conjugacy_classes()[0].tolist(), class_lists(table)
    assert {frozenset(c.tolist()) for c in classes} == expected
    assert all(c.tolist() == sorted(c.tolist()) for c in classes)
    assert reps == [min(c.tolist()) for c in classes] == sorted(reps)
    # each representative is the smallest member of its class
    assert all(table.class_reps[c] == cls[0] for c, cls in enumerate(classes))


def _degree_300_group():
    # S4 on 0..3, a 5-cycle and a disjoint 7-cycle near the top of 300
    # points: order 840, cycles of lengths 2 to 7 in one row
    return PermGroup([
        cycles(300, (0, 1, 2, 3)),
        cycles(300, (0, 1)),
        cycles(300, (150, 151, 152, 153, 154), tuple(range(290, 297))),
    ])


@pytest.mark.parametrize("spec", ["cyclic:1", "cyclic:2000", "sym:6", "agl3_2", "degree-300"])
def test_element_table_orders_are_lcms_of_cycle_lengths(spec):
    # the table's orders are the lcms of the base points' cycle lengths,
    # walked for one row per class (cyclic:1 has an empty base); the
    # reference walks each Permutation's cycles
    from abelmax.catalog import build_group

    g = _degree_300_group() if spec == "degree-300" else build_group(spec)
    table = g.element_table()
    expected = [table.permutation(i).order() for i in range(len(table))]
    assert table.orders.tolist() == expected


@pytest.mark.parametrize("spec", ["agl3_2", "degree-300"])
def test_base_cycles_predecessors_are_inverse_base_images(spec):
    from abelmax.catalog import build_group
    from abelmax.perms import _base_cycles

    g = _degree_300_group() if spec == "degree-300" else build_group(spec)
    table = g.element_table()
    base = table.index.base.tolist()
    _, before = _base_cycles(table.matrix, np.arange(len(table)), base)
    expected = [[table.permutation(i).inverse()(b) for b in base] for i in range(len(table))]
    assert before.tolist() == expected


# ── Sylow subgroups ─────────────────────────────────────────────────

def test_sylow_s4(s4):
    p2 = s4.sylow_subgroup(2)
    assert p2.order_value == 8
    orders = sorted(e.order() for e in p2.enumerate_elements())
    assert orders == [1, 2, 2, 2, 2, 2, 4, 4]  # dihedral profile
    assert s4.sylow_subgroup(3).order_value == 3


def test_sylow_s6_three():
    s6 = PermGroup([cycles(6, (0, 1)), cycles(6, tuple(range(6)))])
    p3 = s6.sylow_subgroup(3)
    assert p3.order_value == 9
    assert p3.is_abelian()
    # elementary abelian: every non-identity element has order 3
    assert sorted(e.order() for e in p3.enumerate_elements()) == [1] + [3] * 8


def test_sylow_rejects_non_divisor(s4):
    with pytest.raises(ValueError):
        s4.sylow_subgroup(5)


def test_sylow_generators_are_pinned():
    # the lemma reports do not change between Sylow subgroups, so the
    # choice itself is pinned
    from abelmax.catalog import build_group

    pinned = {
        ("sym:8", 2): ["(4,7,6,5)", "(2,3)(4,5,6,7)", "(0,1)(4,5,6,7)",
                       "(0,2)(1,3)(4,5,6,7)", "(0,2,1,3)(5,7)",
                       "(0,4,2,5,1,6,3,7)"],
        ("sym:8", 3): ["(0,2,1)", "(5,6,7)"],
        ("sym:7", 2): ["(3,6,5,4)", "(1,2)(3,4,5,6)", "(4,6)"],
        ("agl3_2", 2): ["(0,1)(2,3)(4,5)(6,7)", "(2,3)(4,6,5,7)",
                        "(0,2,1,3)(6,7)", "(0,2,1,3)(4,6,5,7)",
                        "(0,4,1,5)(2,6,3,7)"],
    }
    groups = {}
    for (spec, p), gens in pinned.items():
        g = groups.setdefault(spec, build_group(spec))
        assert [x.cycle_string() for x in g.sylow_subgroup(p).generators] == gens


def test_element_table_extend_by_normalizing_element(s4):
    # A4 is normal but not centralized by a transposition; H<x> is all of S4
    table = s4.element_table()
    alt4 = PermGroup([cycles(4, (0, 1, 2)), cycles(4, (1, 2, 3))])
    a4 = np.array(sorted(table.position(p) for p in alt4.enumerate_elements()))
    assert len(a4) == 12
    t = table.position(cycles(4, (0, 1)))
    whole = table.extend(a4, t)
    assert_position_set(whole)
    assert whole.tolist() == list(range(24))
    cyclic = table.extend(np.zeros(1, dtype=np.int64), t)
    assert_position_set(cyclic)
    assert cyclic.tolist() == [0, t]


@pytest.mark.parametrize("spec", ["sym:5", "agl3_2"])
def test_element_table_closure_adjoins_non_normalizing_element(spec):
    # adjoining an x that does not normalize H = <h>, or H = <h, y>, is
    # Dimino's coset step with H's generators; compared with a closure of
    # Permutation products
    from abelmax.catalog import build_group

    g = build_group(spec)
    table = g.element_table()

    def reference(gens):
        seen = {g.identity()}
        queue = list(seen)
        for a in queue:
            for c in (a * b for b in gens):
                if c not in seen:
                    seen.add(c)
                    queue.append(c)
        return sorted(table.position(p) for p in seen)

    elems = [table.permutation(i) for i in range(len(table))]
    reps, _ = g.conjugacy_classes()
    checked = 0
    for h in reps[1:]:
        for gens in ([h], [h, reps[-1]]):
            sub = table.closure(gens)[0]
            assert_position_set(sub)
            assert sub.tolist() == reference([elems[i] for i in gens])
            outside = [
                i for i, y in enumerate(elems)
                if table.position(y * elems[h] * y.inverse()) not in sub
            ]
            if outside:  # H is not normal; adjoin the first x outside N(H)
                x = outside[0]
                expected = reference([elems[i] for i in gens + [x]])
                got, taken = table.closure(gens + [x])
                assert taken[-1] == x
                assert_position_set(got)
                assert got.tolist() == expected
                checked += 1
    assert checked >= 6


def test_element_table_closure_of_m12_takes_pinned_positions_in_few_lookups(monkeypatch):
    # the coset step multiplies a whole round of representatives in one
    # lookup and finds their cosets in one more: one lookup per product
    # and coset took 2208 calls here
    from abelmax import perms
    from abelmax.catalog import build_group

    monkeypatch.chdir(_REPO)
    g = build_group("file:groups/m12.gens")
    table = g.element_table()
    calls = []
    find = perms.BaseImageIndex.find

    def counted(index, images):
        calls.append(len(images))
        return find(index, images)

    monkeypatch.setattr(perms.BaseImageIndex, "find", counted)
    members, taken = table.closure(np.arange(len(table)))
    assert members.tolist() == list(range(95040))
    assert taken == [1, 2, 1441]
    assert len(calls) <= 64


@pytest.mark.parametrize(
    "spec, base, transposition",
    [("alt:5", [0, 2, 1], (3, 4)), ("alt:4", [0, 1], (2, 3))],
)
def test_position_rejects_non_member_sharing_base_images(spec, base, transposition):
    # the transposition fixes the base, so its base-image key is the
    # identity's; only the full-row comparison tells it apart
    from abelmax.catalog import build_group

    g = build_group(spec)
    assert g.chain.base == base
    table = g.element_table()
    t = cycles(g.degree, transposition)
    row = np.array(t.images, dtype=table.matrix.dtype)
    assert table.index.search(row[None, table.index.base])[1].all()
    with pytest.raises(ValueError):
        table.position(t)
    whole = g.subgroup(list(g.generators))
    assert whole.order_value == g.order_value
    with pytest.raises(ValueError):
        whole.element_table().position(t)
    assert table.position(g.identity()) == 0


def test_lookup_of_absent_base_images_fails_loudly(d8):
    # base [0, 1]; no symmetry of the square fixes 0 and sends 1 to 2
    table = d8.element_table()
    row = np.array(cycles(4, (1, 2)).images, dtype=table.matrix.dtype)
    base = table.index.base
    with pytest.raises(AssertionError):
        table.index.find(row[None, base])
    with pytest.raises(AssertionError):
        table.index.find(np.stack([table.matrix[1], row])[:, base])


@pytest.mark.parametrize("count", [10, 5000])
def test_index_search_with_few_and_many_keys(count):
    # below _SORTED_SEARCH_MIN keys the search runs in the given order,
    # from there on in sorted order; both give each key its own position
    from abelmax import perms
    from abelmax.catalog import build_group

    assert 10 < perms._SORTED_SEARCH_MIN <= 5000
    table = build_group("sym:7").element_table()
    base = table.index.base
    rng = np.random.default_rng(7)
    want = rng.integers(0, len(table), count)
    images = table.matrix[want][:, base]
    # a repeated point is the base image of no permutation
    absent = rng.random(count) < 0.25
    images[absent, 1] = images[absent, 0]
    positions, found = table.index.search(images)
    assert np.array_equal(found, ~absent)
    assert np.array_equal(positions[~absent], want[~absent])


def test_subgroup_members_are_the_generated_subgroup(s4):
    table = s4.element_table()
    gens = [cycles(4, (0, 1)), cycles(4, (2, 3))]
    h = s4.subgroup(gens)
    assert h.order_value == 4 and h.generators == gens
    # elements come in the parent's canonical order
    positions = [table.position(p) for p in h.enumerate_elements()]
    assert_position_set(h.members)
    assert positions == h.members.tolist()
    assert {p.images for p in h.enumerate_elements()} == {
        (0, 1, 2, 3), (1, 0, 2, 3), (0, 1, 3, 2), (1, 0, 3, 2)
    }
    h.element_table().position(cycles(4, (0, 1), (2, 3)))
    for p in (cycles(4, (0, 2)), cycles(5, (0, 1))):
        with pytest.raises(ValueError):
            h.element_table().position(p)


@pytest.mark.parametrize(
    "spec, expected_minimal, expected_m", [("sym:5", 60, 6), ("agl3_2", 8, 16)]
)
def test_subgroup_queries_build_no_stabilizer_chain(
    spec, expected_minimal, expected_m, monkeypatch
):
    # on a built group, subgroups live in its element table: none of
    # these queries constructs a chain of its own
    from abelmax import perms
    from abelmax.catalog import build_group
    from abelmax.search import max_abelian_normal, max_abelian_order

    g = build_group(spec)
    built = []
    init = perms.StabilizerChain.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(perms.StabilizerChain, "__init__", counting_init)
    table = g.element_table()
    g.centralizer([table.permutation(1), table.permutation(2)])
    assert g.is_normal(g.center())
    minimal = g.minimal_normal_subgroups()
    assert [m.order_value for m in minimal] == [expected_minimal]
    # A5 is simple; the translations of agl3_2 are elementary abelian
    assert minimal[0].is_simple() == (spec == "sym:5")
    assert not g.is_simple()
    sylow = g.sylow_subgroup(2)
    assert sylow.order_value == 2 ** g.order.factors[2]
    # the Sylow subgroup answers queries as a group of its own
    classes = class_lists(sylow.element_table())
    assert sum(map(len, classes)) == sylow.order_value
    assert sylow.center().order_value == 2
    assert max_abelian_normal(sylow).order == {"sym:5": 4, "agl3_2": 16}[spec]
    assert max_abelian_order(g).m == expected_m
    assert built == []


def test_sylow_orders_match_p_part():
    g = PermGroup([cycles(7, (0, 1, 2, 3, 4, 5, 6)), cycles(7, (1, 2, 4))])
    for p, e in g.order.factors.items():
        assert g.sylow_subgroup(p).order_value == p**e


# ── subgroups ───────────────────────────────────────────────────────

def test_subgroup_validates_membership(s3):
    with pytest.raises(ValueError):
        PermGroup([cycles(4, (0, 1, 2))]).subgroup([cycles(4, (0, 1))])


def test_subgroup_tables_equal_the_tables_of_rebuilt_groups():
    # a subgroup's table is a slice of its parent's; the reference is the
    # same subgroup built as a group of its own, with its own chain
    from abelmax import catalog as cat

    checked = 0
    for gid, g in cat.build_catalog(cat.default_catalog_specs()):
        subgroups = [g.sylow_subgroup(p) for p in g.order.factors]
        subgroups += g.minimal_normal_subgroups() + [g.center()]
        for sub in subgroups:
            ref = PermGroup(sub.generators or [sub.identity()])
            got, want = sub.element_table(), ref.element_table()
            assert np.array_equal(got.matrix, want.matrix), gid
            assert np.array_equal(got.orders, want.orders)
            assert np.array_equal(got.class_of, want.class_of)
            assert np.array_equal(got.class_sizes, np.bincount(got.class_of))
            assert np.array_equal(want.class_sizes, np.bincount(want.class_of))
            got_reps, want_reps = sub.conjugacy_classes()[0], ref.conjugacy_classes()[0]
            assert got_reps.tolist() == want_reps.tolist()
            got_classes, want_classes = class_lists(got), class_lists(want)
            assert [c.tolist() for c in got_classes] == [c.tolist() for c in want_classes]
            checked += 1
    assert checked == 141
