"""Tests for the group-family constructors and generator files."""

import importlib.util
import math
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abelmax import CapacityError, GeneratorFileError
from abelmax import catalog as cat
from abelmax import perms
from abelmax.numtheory import is_prime
from abelmax.perms import Permutation

_REPO = Path(__file__).resolve().parents[1]
_EXTENDED = _REPO / "src" / "abelmax" / "data" / "extended_catalog.txt"


# ── family orders ───────────────────────────────────────────────────

@pytest.mark.parametrize("n", range(1, 8))
def test_sym_alt_orders(n):
    assert cat.sym_group(n).order_value == math.factorial(n)
    assert cat.alt_group(n).order_value == max(1, math.factorial(n) // 2)


@pytest.mark.parametrize("n", [3, 4, 8, 12, 16])
def test_dihedral_order(n):
    g = cat.dihedral_group(n)
    assert g.order_value == 2 * n
    assert not g.is_abelian()


@pytest.mark.parametrize("p,k", [(2, 1), (2, 4), (3, 2), (5, 2)])
def test_elem_abelian(p, k):
    g = cat.elem_abelian_group(p, k)
    assert g.order_value == p**k
    assert g.is_abelian()
    assert all(e.order() in (1, p) for e in g.enumerate_elements())


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_psl2_order_and_simplicity(p):
    g = cat.psl2_group(p)
    assert g.degree == p + 1  # the projective line
    assert g.order_value == p * (p - 1) * (p + 1) // 2
    assert g.is_simple()


@pytest.mark.parametrize("p", [5, 7])
def test_pgl2_contains_psl2_with_index_two(p):
    pgl = cat.pgl2_group(p)
    psl = cat.psl2_group(p)
    assert pgl.order_value == 2 * psl.order_value
    table = pgl.element_table()
    for g in psl.generators:
        table.position(g)


def test_frobenius_structure():
    g = cat.frobenius_group(5, 4)
    assert g.order_value == 20
    # point stabilizer is cyclic of order c: count elements fixing point 0
    elems = g.enumerate_elements()
    stab = [e for e in elems if e(0) == 0]
    assert len(stab) == 4
    assert max(e.order() for e in stab) == 4
    # only the identity fixes two points
    for e in elems:
        fixed = sum(1 for x in range(5) if e(x) == x)
        assert fixed in (0, 1) or e.is_identity()


def test_frobenius_rejects_bad_multiplier():
    with pytest.raises(ValueError, match="does not divide"):
        cat.frobenius_group(7, 4)
    with pytest.raises(ValueError, match="prime"):
        cat.frobenius_group(8, 7)


def _orders_by_powers(p: int) -> dict[int, int]:
    """The multiplicative order of each g in 2..p-1 mod p, found by
    multiplying by g until the power is 1."""
    orders = {}
    for g in range(2, p):
        x, k = g, 1
        while x != 1:
            x, k = x * g % p, k + 1
        orders[g] = k
    return orders


def test_multipliers_are_the_least_of_their_order():
    # frobenius:p:c scales by the least g > 1 of order c, and pgl2:p by
    # the least primitive root; the scale's image of 1 is g
    for p in filter(is_prime, range(3, 200)):
        orders = _orders_by_powers(p)
        least = {}
        for g, c in orders.items():
            least.setdefault(c, g)
        for c in range(2, p):
            if (p - 1) % c == 0:
                assert cat.frobenius_group(p, c).generators[1](1) == least[c], (p, c)
        assert cat.pgl2_group(p).generators[2](1) == least[p - 1], p


@pytest.mark.parametrize("spec", [
    "sym:3000000", "alt:3000000", "cyclic:3000000", "dihedral:3000000",
    "elem_abelian:2:22", "psl2:100003", "pgl2:100003", "frobenius:100003:2",
])
def test_families_over_the_byte_cap_are_refused_before_building_generators(spec):
    # each family is transitive on its d points, so its chain's first
    # transversal has d x d entries; the builder refuses that up front
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError, match=r"a transversal of (\d+) x \1 entries"):
            cat.build_group(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20, peak


def test_families_are_refused_exactly_where_the_chain_refuses(monkeypatch):
    monkeypatch.setattr(perms, "TABLE_BYTES_CAP", 10_000)
    # 100 x 100 uint8 entries fit; 101 x 101 do not
    assert cat.build_group("cyclic:100").order_value == 100
    with pytest.raises(CapacityError, match="101 x 101"):
        cat.build_group("cyclic:101")
    with pytest.raises(CapacityError, match="101 x 101"):
        perms.PermGroup([Permutation.from_cycles(101, [tuple(range(101))])])


def test_psl2_rejects_composite():
    with pytest.raises(ValueError, match="prime"):
        cat.psl2_group(9)


def test_affine_group_orders():
    assert cat.agl1_group(3).order_value == 8 * 7
    assert cat.agammal1_group(3).order_value == 8 * 7 * 3
    assert cat.agammal1_group(4).order_value == 16 * 15 * 4
    assert cat.agl3_2_group().order_value == 1344


def test_agammal1_has_normal_translation_subgroup():
    g = cat.agammal1_group(3)
    translations = [Permutation([x ^ t for x in range(8)]) for t in range(1, 8)]
    sub = g.centralizer(translations)  # translations are self-centralizing here
    assert sub.order_value == 8
    assert g.is_normal(sub)
    assert sub.is_abelian()
    assert all(e.order() in (1, 2) for e in sub.enumerate_elements())


def test_agammal1_two_is_sym4():
    g = cat.agammal1_group(2)
    assert g.order_value == 24
    assert not g.is_abelian()


# ── field arithmetic ────────────────────────────────────────────────

def test_gf8_pinned_reduction():
    f = cat.GF2m(3)
    assert f.mul(2, f.mul(2, 2)) == 3  # x^3 = x + 1
    assert sorted(f.exp_table[: f.size - 1]) == list(range(1, f.size))  # x is primitive


@pytest.mark.parametrize("a", [2, 3, 4, 5])
def test_gf_field_axioms(a):
    f = cat.GF2m(a)
    # every nonzero x has an inverse: x times the nonzero elements is a bijection
    for x in range(1, f.size):
        assert sorted(f.mul(x, y) for y in range(1, f.size)) == list(range(1, f.size))
    # multiplicative group is cyclic of order 2^a - 1, generated by x
    assert sorted(f.exp_table[: f.size - 1]) == list(range(1, f.size))


@given(st.integers(0, 31), st.integers(0, 31), st.integers(0, 31))
@settings(max_examples=80)
def test_gf32_ring_identities(x, y, z):
    f = cat.GF2m(5)
    assert f.mul(x, y) == f.mul(y, x)
    assert f.mul(f.mul(x, y), z) == f.mul(x, f.mul(y, z))
    assert f.mul(x, y ^ z) == f.mul(x, y) ^ f.mul(x, z)
    assert f.frobenius(x ^ y) == f.frobenius(x) ^ f.frobenius(y)


def test_gf_rejects_unsupported_exponent():
    with pytest.raises(ValueError):
        cat.GF2m(6)


# ── spec strings ────────────────────────────────────────────────────

def test_parse_spec_roundtrip():
    for text in ["sym:5", "alt:7", "psl2:13", "frobenius:5:4", "agammal1:3",
                 "agl3_2", "file:groups/m11.gens"]:
        assert cat.parse_spec(text) == text


def test_parse_spec_errors():
    with pytest.raises(ValueError, match="unknown group family"):
        cat.parse_spec("monster")
    with pytest.raises(ValueError, match="parameter"):
        cat.parse_spec("sym")
    with pytest.raises(ValueError, match="non-integer"):
        cat.parse_spec("sym:x")


def test_build_catalog_ids():
    entries = cat.build_catalog(["sym:3", "alt:5"])
    assert [gid for gid, _ in entries] == ["sym:3", "alt:5"]
    assert [G.order_value for _, G in entries] == [6, 60]
    # an id is the canonical spec, not the text as given
    entries = cat.build_catalog([" sym:05 ", "frobenius:05:4"])
    assert [gid for gid, _ in entries] == ["sym:5", "frobenius:5:4"]
    assert [G.order_value for _, G in entries] == [120, 20]


def test_build_catalog_rejects_a_bad_spec_before_building_any_group(monkeypatch):
    built = []
    real_chain = perms.StabilizerChain

    def recording_chain(*args):
        built.append(args)
        return real_chain(*args)

    monkeypatch.setattr(perms, "StabilizerChain", recording_chain)
    with pytest.raises(ValueError, match="unknown group family 'monster'"):
        cat.build_catalog(["sym:3", "monster"])
    assert built == []
    cat.build_catalog(["sym:3"])
    assert len(built) == 1


@pytest.mark.parametrize("spec", [" sym:5", "sym:05", "monster", "sym:x", "file: groups/m11.gens"])
def test_build_group_rejects_a_spec_that_is_not_canonical(spec):
    with pytest.raises(ValueError, match="not a canonical group spec") as info:
        cat.build_group(spec)
    assert repr(spec) in str(info.value) and "parse_spec" in str(info.value)


def test_default_catalog_builds_and_is_pinned():
    ids = cat.default_catalog_specs()
    assert ids[:4] == ["sym:2", "sym:3", "sym:4", "sym:5"]
    assert "psl2:13" in ids and "agl3_2" in ids
    assert len(ids) == len(set(ids))
    assert not any(s.startswith("file:") for s in ids)


def test_extended_catalog_adds_file_groups():
    ids = cat.load_manifest(_EXTENDED)
    assert "file:groups/m11.gens" in ids and "file:groups/m12.gens" in ids


# ── generator files ─────────────────────────────────────────────────

def test_load_m11(tmp_path):
    g = cat.load_generator_file("groups/m11.gens")
    assert g.order_value == 7920
    assert g.order.factored_str() == "2^4*3^2*5*11"


def test_load_m12_and_enumerate():
    g = cat.load_generator_file("groups/m12.gens")
    assert g.order.factored_str() == "2^6*3^3*5*11"
    assert len(g.enumerate_elements()) == 95040


def test_load_j1():
    g = cat.load_generator_file(_REPO / "groups" / "j1.gens")
    assert g.degree == 266 and g.order_value == 175560
    assert g.order.factored_str() == "2^3*3*5*7*11*19"


def test_j1_file_is_rederived_from_janko_matrices():
    spec = importlib.util.spec_from_file_location("make_j1", _REPO / "groups" / "make_j1.py")
    make_j1 = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(make_j1)
    y, z = make_j1.Y, make_j1.Z
    assert [make_j1.mat_order(m) for m in (y, z, make_j1.mat_mul(y, z))] == [7, 5, 10]
    assert make_j1.gens_text() == (_REPO / "groups" / "j1.gens").read_text()


def test_j1_is_in_no_pinned_catalog():
    # the pinned catalogs' reports stay as they are; J1 is run by name
    for specs in (cat.default_catalog_specs(), cat.load_manifest(_EXTENDED)):
        assert not any("j1" in s for s in specs)


def test_file_spec_resolves_against_the_working_directory(tmp_path, monkeypatch):
    p = tmp_path / "c3.gens"
    p.write_text("degree 3\ngen (1,2,3)\nexpect_order 3\n")
    monkeypatch.chdir(tmp_path)
    ((gid, G),) = cat.build_catalog(["file:c3.gens"])
    assert G.order_value == 3
    assert gid == "file:c3.gens"


def test_generator_file_parse_error_names_line(tmp_path):
    p = tmp_path / "bad.gens"
    p.write_text("degree 5\ngen (1,2,3\n")
    with pytest.raises(GeneratorFileError, match=r"bad\.gens:2"):
        cat.load_generator_file(p)


def test_generator_file_order_mismatch_is_hard_error(tmp_path):
    p = tmp_path / "wrong.gens"
    p.write_text("degree 3\ngen (1,2,3)\nexpect_order 6\n")
    with pytest.raises(GeneratorFileError, match="computed order 3 != expected 6"):
        cat.load_generator_file(p)


def test_generator_file_rejects_a_second_expect_order(tmp_path):
    p = tmp_path / "twice.gens"
    p.write_text("degree 3\ngen (1,2,3)\nexpect_order 6\nexpect_order 3\n")
    with pytest.raises(GeneratorFileError, match=r"twice\.gens:4: duplicate expect_order line"):
        cat.load_generator_file(p)


def test_generator_file_rejects_out_of_range_point(tmp_path):
    p = tmp_path / "range.gens"
    p.write_text("degree 3\ngen (1,2,4)\n")
    with pytest.raises(GeneratorFileError, match="out of range"):
        cat.load_generator_file(p)


def test_generator_file_requires_degree_first(tmp_path):
    p = tmp_path / "nodeg.gens"
    p.write_text("gen (1,2)\n")
    with pytest.raises(GeneratorFileError, match="before degree"):
        cat.load_generator_file(p)


def test_generator_file_reads_back_the_cycle_strings_the_package_prints(tmp_path):
    # cycle_string prints the identity as (), and a gen line of () is the
    # identity: every default-catalog group's generators, and the identity,
    # written out and loaded back are the same generators of the same order
    path = tmp_path / "back.gens"
    for spec in cat.default_catalog_specs():
        g = cat.build_group(spec)
        gens = g.generators + [g.identity()]
        lines = [f"degree {g.degree}"] + [f"gen {p.cycle_string(one_indexed=True)}" for p in gens]
        path.write_text("\n".join(lines) + "\n")
        back = cat.load_generator_file(path)
        assert back.generators == gens and back.order_value == g.order_value, spec


@pytest.mark.parametrize(
    "text, message",
    [("(0,1)", "out of range"), ("(1,,2)", "bad cycle syntax"), ("(()", "bad cycle syntax"),
     ("(1,2)(2,3)", "repeated"), ("(1,2,1)", "repeated")],
)
def test_generator_file_rejects_malformed_cycles(tmp_path, text, message):
    p = tmp_path / "bad.gens"
    p.write_text(f"degree 3\ngen {text}\n")
    with pytest.raises(GeneratorFileError, match=message):
        cat.load_generator_file(p)


def test_manifest_loading(tmp_path):
    p = tmp_path / "cat.txt"
    p.write_text("# a comment\nsym:3\n\nalt:5  # trailing comment\n")
    specs = cat.load_manifest(p)
    assert specs == ["sym:3", "alt:5"]
