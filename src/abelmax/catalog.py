"""Constructors for the named group families, plus generator-file ingestion.

Families are addressed by compact spec strings (`sym:5`, `psl2:13`,
`frobenius:5:4`, `agammal1:3`, `agl3_2`, `file:groups/m11.gens`); the
same strings are used as group identifiers in reports and on the
command line.  Catalog manifests are plain text files with one spec
string per line and `#` comments.

Generator files use 1-indexed disjoint-cycle notation:

    # comment
    degree 11
    gen (1,2,3,4,5,6,7,8,9,10,11)
    gen (3,7,11,8)(4,10,5,6)
    expect_order 7920

Points are converted to the package's 0-indexed convention on load, and
an `expect_order` line, when present, is checked against the computed
order (a mismatch is a hard error).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

from .errors import GeneratorFileError
from .numtheory import is_prime
from .perms import PermGroup, Permutation

# Pinned primitive polynomials for the fields of order 2^a, as bit masks
# (x^2+x+1, x^3+x+1, x^4+x+1, x^5+x^2+1).  Pinning them makes the field
# tables, and hence the affine groups built from them, bit-reproducible.
PRIMITIVE_POLYS = {2: 0b111, 3: 0b1011, 4: 0b10011, 5: 0b100101}


class GF2m:
    """Arithmetic in the field of order 2^a (a in 2..5), via exp/log tables."""

    def __init__(self, a: int):
        if a not in PRIMITIVE_POLYS:
            raise ValueError(f"field exponent must be one of {sorted(PRIMITIVE_POLYS)}, got {a}")
        self.a = a
        self.size = 1 << a
        self.poly = PRIMITIVE_POLYS[a]
        # x (= bits 0b10) is a primitive root because the polynomial is primitive
        self.exp_table = [0] * (2 * self.size)
        self.log_table = [0] * self.size
        x = 1
        for i in range(self.size - 1):
            self.exp_table[i] = x
            self.log_table[x] = i
            x <<= 1
            if x & self.size:
                x ^= self.poly
        for i in range(self.size - 1, 2 * self.size - 2):
            self.exp_table[i] = self.exp_table[i - (self.size - 1)]

    def add(self, x: int, y: int) -> int:
        return x ^ y

    def mul(self, x: int, y: int) -> int:
        if x == 0 or y == 0:
            return 0
        return self.exp_table[self.log_table[x] + self.log_table[y]]

    def inverse(self, x: int) -> int:
        if x == 0:
            raise ZeroDivisionError("0 has no multiplicative inverse")
        return self.exp_table[self.size - 1 - self.log_table[x]]

    def frobenius(self, x: int) -> int:
        return self.mul(x, x)

    def element_order(self, x: int) -> int:
        if x == 0:
            raise ValueError("0 is not in the multiplicative group")
        n = self.size - 1
        k = self.log_table[x]
        # order of g^k in a cyclic group of order n
        import math

        return n // math.gcd(n, k)


# ── family constructors ─────────────────────────────────────────────

def sym_group(n: int) -> PermGroup:
    if n < 1:
        raise ValueError("sym requires n >= 1")
    if n == 1:
        return PermGroup.trivial(1)
    gens = [Permutation.from_cycles(n, [(0, 1)])]
    if n > 2:
        gens.append(Permutation.from_cycles(n, [tuple(range(n))]))
    return PermGroup(gens)


def alt_group(n: int) -> PermGroup:
    if n < 1:
        raise ValueError("alt requires n >= 1")
    if n <= 2:
        return PermGroup.trivial(n)
    if n == 3:
        return PermGroup([Permutation.from_cycles(3, [(0, 1, 2)])])
    long_cycle = tuple(range(n)) if n % 2 == 1 else tuple(range(1, n))
    return PermGroup(
        [
            Permutation.from_cycles(n, [(0, 1, 2)]),
            Permutation.from_cycles(n, [long_cycle]),
        ]
    )


def cyclic_group(n: int) -> PermGroup:
    if n < 1:
        raise ValueError("cyclic requires n >= 1")
    if n == 1:
        return PermGroup.trivial(1)
    return PermGroup([Permutation.from_cycles(n, [tuple(range(n))])])


def dihedral_group(n: int) -> PermGroup:
    """Symmetries of the regular n-gon: order 2n on n points (n >= 3)."""
    if n < 3:
        raise ValueError("dihedral requires n >= 3")
    rotation = Permutation.from_cycles(n, [tuple(range(n))])
    reflection = Permutation([(n - i) % n for i in range(n)])
    return PermGroup([rotation, reflection])


def elem_abelian_group(p: int, k: int) -> PermGroup:
    """Elementary abelian group of order p^k in its regular action."""
    if not is_prime(p):
        raise ValueError(f"elem_abelian base must be prime, got {p}")
    if k < 1:
        raise ValueError("elem_abelian requires exponent >= 1")
    size = p**k
    gens = []
    for i in range(k):
        step = p**i
        images = []
        for x in range(size):
            digit = (x // step) % p
            images.append(x + step if digit < p - 1 else x - (p - 1) * step)
        gens.append(Permutation(images))
    return PermGroup(gens)


def psl2_group(p: int) -> PermGroup:
    """PSL(2, p) acting on the p+1 points of the projective line.

    Generated by x -> x+1 and x -> -1/x; the point p plays infinity.
    """
    if not is_prime(p) or p < 5:
        raise ValueError(f"psl2 parameter must be a prime >= 5, got {p}")
    return PermGroup([_moebius_shift(p), _moebius_neginv(p)])


def pgl2_group(p: int) -> PermGroup:
    """PGL(2, p) on the projective line: PSL(2, p) plus x -> g*x, g a primitive root."""
    if not is_prime(p) or p < 3:
        raise ValueError(f"pgl2 parameter must be a prime >= 3, got {p}")
    g = _least_primitive_root(p)
    scale = Permutation([g * x % p for x in range(p)] + [p])
    return PermGroup([_moebius_shift(p), _moebius_neginv(p), scale])


def frobenius_group(p: int, c: int) -> PermGroup:
    """The group <x -> x+1, x -> g*x> on p points, g of multiplicative order c."""
    if not is_prime(p):
        raise ValueError(f"frobenius base must be prime, got {p}")
    if c < 1 or (p - 1) % c != 0:
        raise ValueError(f"frobenius multiplier order {c} does not divide p-1 = {p - 1}")
    shift = Permutation([(x + 1) % p for x in range(p)])
    if c == 1:
        return PermGroup([shift])
    g = next(g for g in range(2, p) if _mod_order(g, p) == c)
    return PermGroup([shift, Permutation([g * x % p for x in range(p)])])


def agl1_group(a: int) -> PermGroup:
    """AGL(1, 2^a): the maps x -> alpha*x + beta on the 2^a field elements."""
    f = GF2m(a)
    add_one = Permutation([x ^ 1 for x in range(f.size)])
    scale = Permutation([f.mul(2, x) for x in range(f.size)])
    return PermGroup([add_one, scale])


def agammal1_group(a: int) -> PermGroup:
    """AGammaL(1, 2^a): AGL(1, 2^a) extended by the field automorphisms."""
    f = GF2m(a)
    add_one = Permutation([x ^ 1 for x in range(f.size)])
    scale = Permutation([f.mul(2, x) for x in range(f.size)])
    frob = Permutation([f.frobenius(x) for x in range(f.size)])
    return PermGroup([add_one, scale, frob])


def agl3_2_group() -> PermGroup:
    """AGL(3, 2) on the 8 points of the affine space over the 2-element field."""
    size = 8
    translate = Permutation([x ^ 1 for x in range(size)])

    def linear(matrix):
        # matrix rows give the image of each basis vector
        images = []
        for x in range(size):
            y = 0
            for i in range(3):
                if (x >> i) & 1:
                    y ^= matrix[i]
            images.append(y)
        return Permutation(images)

    transvection = linear([0b011, 0b010, 0b100])  # e0 -> e0+e1
    rotate = linear([0b010, 0b100, 0b001])  # cyclic shift of the basis
    return PermGroup([translate, transvection, rotate])


def _moebius_shift(p: int) -> Permutation:
    return Permutation([(x + 1) % p for x in range(p)] + [p])


def _moebius_neginv(p: int) -> Permutation:
    images = [p]  # 0 -> infinity
    for x in range(1, p):
        images.append(-pow(x, p - 2, p) % p)
    images.append(0)  # infinity -> 0
    return Permutation(images)


def _mod_order(g: int, p: int) -> int:
    k, x = 1, g % p
    while x != 1:
        x = x * g % p
        k += 1
    return k


def _least_primitive_root(p: int) -> int:
    return next(g for g in range(2, p) if _mod_order(g, p) == p - 1)


# ── spec strings and catalog entries ────────────────────────────────

_FAMILY_ARITY = {
    "sym": 1,
    "alt": 1,
    "cyclic": 1,
    "dihedral": 1,
    "elem_abelian": 2,
    "psl2": 1,
    "pgl2": 1,
    "frobenius": 2,
    "agl1": 1,
    "agammal1": 1,
    "agl3_2": 0,
}


@dataclass(frozen=True)
class GroupSpec:
    """A parsed group spec: family tag plus integer params or a file path."""

    family: str
    params: tuple[int, ...] = ()
    path: str | None = None

    def spec_string(self) -> str:
        if self.family == "file":
            return f"file:{self.path}"
        return ":".join([self.family, *map(str, self.params)])


def parse_spec(text: str) -> GroupSpec:
    text = text.strip()
    if text.startswith("file:"):
        path = text[len("file:") :].strip()
        if not path:
            raise ValueError("file spec needs a path, e.g. file:groups/m11.gens")
        return GroupSpec("file", (), path)
    parts = text.split(":")
    family = parts[0]
    if family not in _FAMILY_ARITY:
        raise ValueError(
            f"unknown group family {family!r}; valid families: "
            + ", ".join(sorted(_FAMILY_ARITY)) + ", file"
        )
    arity = _FAMILY_ARITY[family]
    args = parts[1:]
    if len(args) != arity:
        raise ValueError(f"{family} takes {arity} parameter(s), got {len(args)}")
    try:
        params = tuple(int(a) for a in args)
    except ValueError:
        raise ValueError(f"non-integer parameter in spec {text!r}") from None
    return GroupSpec(family, params)


_BUILDERS = {
    "sym": sym_group,
    "alt": alt_group,
    "cyclic": cyclic_group,
    "dihedral": dihedral_group,
    "elem_abelian": elem_abelian_group,
    "psl2": psl2_group,
    "pgl2": pgl2_group,
    "frobenius": frobenius_group,
    "agl1": agl1_group,
    "agammal1": agammal1_group,
    "agl3_2": agl3_2_group,
}


def build_group(spec: GroupSpec | str, base_dir: str | Path | None = None) -> PermGroup:
    if isinstance(spec, str):
        spec = parse_spec(spec)
    if spec.family == "file":
        path = Path(spec.path)
        if base_dir is not None and not path.is_absolute():
            path = Path(base_dir) / path
        return load_generator_file(path)
    return _BUILDERS[spec.family](*spec.params)


@dataclass
class CatalogEntry:
    """A built catalog group together with its spec-string identity."""

    spec: GroupSpec
    group: PermGroup
    cache: dict = field(default_factory=dict, repr=False)

    @property
    def group_id(self) -> str:
        return self.spec.spec_string()


def build_catalog(
    specs, base_dir: str | Path | None = None
) -> list[CatalogEntry]:
    entries = []
    for spec in specs:
        if isinstance(spec, str):
            spec = parse_spec(spec)
        entries.append(CatalogEntry(spec, build_group(spec, base_dir)))
    return entries


# ── generator files and manifests ───────────────────────────────────

_CYCLE_RE = re.compile(r"\(\s*(\d+(?:\s*,\s*\d+)*)\s*\)")


def _parse_cycles(text: str, degree: int, path: str, lineno: int) -> Permutation:
    stripped = _CYCLE_RE.sub("", text).strip()
    if stripped:
        raise GeneratorFileError(
            f"bad cycle syntax near {stripped[:20]!r}", path, lineno
        )
    cycles = []
    for m in _CYCLE_RE.finditer(text):
        points = [int(x) for x in m.group(1).split(",")]
        if any(x < 1 or x > degree for x in points):
            raise GeneratorFileError(
                f"cycle point out of range 1..{degree}", path, lineno
            )
        cycles.append(tuple(x - 1 for x in points))
    try:
        return Permutation.from_cycles(degree, cycles)
    except ValueError as exc:
        raise GeneratorFileError(str(exc), path, lineno) from None


def load_generator_file(path: str | Path) -> PermGroup:
    """Build a group from a `degree`/`gen`/`expect_order` text file."""
    path = Path(path)
    degree = None
    gens: list[Permutation] = []
    expect_order = None
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, _, rest = line.partition(" ")
            rest = rest.strip()
            if key == "degree":
                if degree is not None:
                    raise GeneratorFileError("duplicate degree line", str(path), lineno)
                if not rest.isdigit() or int(rest) < 1:
                    raise GeneratorFileError(
                        f"degree must be a positive integer, got {rest!r}",
                        str(path),
                        lineno,
                    )
                degree = int(rest)
            elif key == "gen":
                if degree is None:
                    raise GeneratorFileError(
                        "gen line before degree line", str(path), lineno
                    )
                gens.append(_parse_cycles(rest, degree, str(path), lineno))
            elif key == "expect_order":
                if not rest.isdigit():
                    raise GeneratorFileError(
                        f"expect_order must be an integer, got {rest!r}",
                        str(path),
                        lineno,
                    )
                expect_order = int(rest)
            else:
                raise GeneratorFileError(f"unknown directive {key!r}", str(path), lineno)
    if degree is None:
        raise GeneratorFileError("missing degree line", str(path))
    if not gens:
        raise GeneratorFileError("no generators", str(path))
    group = PermGroup(gens)
    if expect_order is not None and group.order_value != expect_order:
        raise GeneratorFileError(
            f"computed order {group.order_value} != expected {expect_order}",
            str(path),
        )
    return group


def _parse_manifest(text: str) -> list[GroupSpec]:
    """One spec string per line; `#` starts a comment, blank lines are skipped."""
    specs = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            specs.append(parse_spec(line))
    return specs


def load_manifest(path: str | Path) -> list[GroupSpec]:
    """Read a catalog manifest: one spec string per line, `#` comments."""
    return _parse_manifest(Path(path).read_text(encoding="utf-8"))


def _packaged_manifest(name: str) -> list[GroupSpec]:
    return _parse_manifest(
        resources.files("abelmax").joinpath(f"data/{name}").read_text(encoding="utf-8")
    )


def default_catalog_specs() -> list[GroupSpec]:
    """The pinned default catalog shipped with the package."""
    return _packaged_manifest("default_catalog.txt")


def extended_catalog_specs() -> list[GroupSpec]:
    """Default catalog plus the generator-file groups (M11, M12)."""
    return _packaged_manifest("extended_catalog.txt")
