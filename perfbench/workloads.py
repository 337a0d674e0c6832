"""The benchmark's workloads: seeded lists of abelmax CLI invocations.

Each workload turns a seed into a fixed list of operations.  An operation
is the argument list given to ``python -m abelmax.cli`` plus the check its
output must pass.  Inputs come only from ``data/`` beside this file; the
seeded copies the CLI reads are written into a work directory.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import reference as ref

EXACT_CAP = 100_000  # numtheory f is documented up to this n
SCAN_TOP = 10_000_000  # exceptions and series go this far (about 420 MB)

# First n at which g, h and f exceed CPython's 4300-digit str() limit.  Above
# each, every n fails that way except h at 20018..20020.  Cells split here
# so that each pass holds the same number of digit-limit operations.
DIGIT_LIMIT_START = {"g": 9677, "h": 19997, "f": 19066}


@dataclass(frozen=True)
class Op:
    argv: tuple[str, ...]
    check: Callable[[int, str, str], ref.Outcome]

    @property
    def label(self) -> str:
        return " ".join(self.argv)


def _draw(rng: random.Random, cells) -> list[int]:
    """One uniform draw from each (lo, hi) cell, both ends inclusive."""
    return [rng.randint(lo, hi) for lo, hi in cells]


def _split(lo: int, hi: int, parts: int) -> list[tuple[int, int]]:
    edges = [lo + (hi - lo + 1) * k // parts for k in range(parts + 1)]
    return [(edges[k], edges[k + 1] - 1) for k in range(parts)]


def verify_catalog(seed: int, work: Path, root: Path) -> list[Op]:
    """One ``verify all`` over the 26 catalog groups, in seeded order."""
    lines = [
        raw.strip()
        for raw in (ref.DATA / "catalog.txt").read_text(encoding="utf-8").splitlines()
        if raw.strip() and not raw.startswith("#")
    ]
    random.Random(seed).shuffle(lines)
    manifest = work / f"catalog-{seed}.txt"
    manifest.write_text("\n".join(lines) + "\n", encoding="utf-8")
    answers = ref.load_catalog_answers()
    check = functools.partial(ref.check_verify, specs=lines, answers=answers)
    argv = ("verify", "all", "--format", "json", "--manifest", _rel(manifest, root))
    return [Op(argv, check)]


def mgroup_m12(seed: int, work: Path, root: Path) -> list[Op]:
    """One ``mgroup`` on M12, its generator lines in seeded order."""
    text = (ref.DATA / "m12.gens").read_text(encoding="utf-8").splitlines()
    gens = [line for line in text if line.startswith("gen")]
    random.Random(seed).shuffle(gens)
    it = iter(gens)
    seeded = [next(it) if line.startswith("gen") else line for line in text]
    path = work / f"m12-{seed}.gens"
    path.write_text("\n".join(seeded) + "\n", encoding="utf-8")
    degree, images = ref.parse_generator_file(path.read_text(encoding="utf-8"))
    elements = frozenset(ref.closure(images, degree))
    if len(elements) != 95040:
        raise ValueError(f"m12.gens generates order {len(elements)}, not 95040")
    spec = f"file:{_rel(path, root)}"
    group = ref.GroupReference(
        spec=spec, order_line="95040 = 2^6*3^3*5*11", m=16, degree=degree, elements=elements
    )
    return [Op(("mgroup", spec), functools.partial(ref.check_mgroup, ref=group))]


def numtheory_range(seed: int, work: Path, root: Path) -> list[Op]:
    """numtheory g, h, f, ratio and exceptions plus series, at seeded n.

    g, h and f each get one n below their digit-limit start and three in
    equal cells above it up to the 100000 cap; ratio gets one small and
    one near 10^7; exceptions one small n and the fixed top 10^7; series
    one n per decade from 10^2 to 10^6, then 10^7.
    """
    rng = random.Random(seed)
    table = ref.PrimeTable(SCAN_TOP)
    ops = []
    exact = {
        "g": ref.prime_power_product,
        "h": ref.upper_half_prime_product,
        "f": ref.order_bound,
    }
    for func, value in exact.items():
        start = DIGIT_LIMIT_START[func]
        for n in _draw(rng, [(2, start - 1)] + _split(start, EXACT_CAP, 3)):
            check = functools.partial(ref.check_exact_int, expected=str(value(n, table)))
            ops.append(Op(("numtheory", func, str(n)), check))
    for n in _draw(rng, [(16, EXACT_CAP), (SCAN_TOP - SCAN_TOP // 10, SCAN_TOP)]):
        ratio = ref.log_order_bound(n, table) / (n / 2)
        ops.append(Op(("numtheory", "ratio", str(n)), functools.partial(ref.check_ratio, expected=ratio)))
    for n in _draw(rng, [(3, EXACT_CAP)]) + [SCAN_TOP]:
        check = functools.partial(ref.check_exceptions, expected=ref.two_prime_exceptions(n))
        ops.append(Op(("numtheory", "exceptions", str(n)), check))
    ns = _draw(rng, [(10**k, 10 ** (k + 1) - 1) for k in range(2, 7)]) + [SCAN_TOP]
    expected = [(n, ref.log_order_bound(n, table)) for n in ns]
    ops.append(Op(("series", *map(str, ns)), functools.partial(ref.check_series, expected=expected)))
    return ops


def _rel(path: Path, root: Path) -> str:
    return path.resolve().relative_to(root.resolve()).as_posix()


WORKLOADS = {
    "verify-catalog": verify_catalog,
    "mgroup-m12": mgroup_m12,
    "numtheory-range": numtheory_range,
}
