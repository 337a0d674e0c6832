"""Command-line front end.

Subcommands:

* ``numtheory {g|h|f|ratio|exceptions} N`` - exact values of the
  prime-power product g, the upper-half prime product h, the bound
  f = n*g/h, the log-bound ratio, and the scan for intervals (m/2, m]
  holding fewer than two primes.  g, h and f are refused above
  ``numtheory.EXACT_BOUND_CAP`` (exit 3).
* ``mgroup SPEC [--enum-cap N]`` - maximal abelian subgroup order of
  one group.  Its witness cycles are printed on the 0-indexed points,
  although generator files are 1-indexed.
* ``verify {a|goh|lemma|twoprime|equality|all} [SPEC ...]`` - run a
  check suite over the given groups (default: the pinned catalog);
  takes ``--enum-cap N``, ``--format text|json|csv``, ``--out PATH``
  and ``--manifest PATH``.
* ``series N [N ...] [--out PATH]`` - CSV of bound-ratio samples for
  plotting.

Group specs use the catalog DSL (`sym:5`, `psl2:13`, `frobenius:5:4`,
`agammal1:3`, `agl3_2`, `file:groups/m11.gens`); file paths resolve
against the working directory, and a group is named by its canonical
spec (`sym:05` prints as `sym:5`).  ``--manifest`` with specs is a
usage error, even with an empty path.  A flag given to a subcommand
that does not take it is a usage error.  Flags are the only settings.

Exit codes: 0 success (including expected exceptions), 1 verification
failure, 2 usage error (including a path that cannot be read or
written), 3 capacity error.

Of the package, only ``errors`` and ``numtheory`` are imported with
this module, so ``numtheory`` and ``series`` start without the group
machinery (``perms``, ``catalog``, ``search``, ``verify``) and never
import numpy; ``mgroup`` and ``verify`` import it when they run.

No command calls BLAS, but numpy's bundled OpenBLAS starts one worker
thread per core when numpy is imported, which only ``mgroup`` and
``verify`` do: on 2 vCPUs, ``import numpy`` took 0.15 s with that pool
and 0.08 s without it (median of 12 runs each on a quiet machine; under
load the gap was much smaller).  So ``main`` sets
``OPENBLAS_NUM_THREADS=1`` in ``os.environ`` when numpy is not yet
imported and none of ``OPENBLAS_NUM_THREADS``, ``GOTO_NUM_THREADS`` and
``OMP_NUM_THREADS`` (which OpenBLAS also reads) is set.  The value
stays in the environment, so subprocesses the caller starts later
inherit it.  When ``main`` runs in a process that has imported numpy
already, it leaves the environment alone: the pool is running by then.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from . import numtheory as nt
from .errors import CapacityError

_FORMATS = ("text", "json", "csv")

# OpenBLAS takes its thread count from the first of these that is set
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def _build_parser() -> argparse.ArgumentParser:
    # each flag is attached only to the subcommands that act on it
    cap = argparse.ArgumentParser(add_help=False)
    cap.add_argument(
        "--enum-cap",
        type=int,
        help="largest group order that may be enumerated",
    )
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument(
        "--out",
        help="write the report/series to this path instead of stdout",
    )
    parser = argparse.ArgumentParser(
        prog="abelmax",
        description="maximal abelian subgroup orders and divisibility checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_nt = sub.add_parser("numtheory", help="evaluate the arithmetic functions")
    p_nt.add_argument("func", choices=["g", "h", "f", "ratio", "exceptions"])
    p_nt.add_argument("n", type=int)

    p_mg = sub.add_parser(
        "mgroup", parents=[cap], help="maximal abelian order of one group"
    )
    p_mg.add_argument("spec")

    p_vf = sub.add_parser("verify", parents=[cap, out], help="run a verification suite")
    p_vf.add_argument("suite", choices=["a", "goh", "lemma", "twoprime", "equality", "all"])
    p_vf.add_argument("specs", nargs="*", help="group specs (default: pinned catalog)")
    p_vf.add_argument("--format", choices=_FORMATS, default="text", help="report format")
    p_vf.add_argument(
        "--manifest",
        help="read group specs from a manifest file (one per line, # comments)",
    )

    p_se = sub.add_parser("series", parents=[out], help="CSV of bound-ratio samples")
    p_se.add_argument("ns", type=int, nargs="*")
    return parser


def _write_output(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


def _cmd_numtheory(args) -> int:
    n = args.n
    # verify needs g(m) up to the enumeration cap, so the library goes on
    # to SIEVE_CAP; here g and h share f's cap (g(10^6) takes seconds)
    if args.func in ("g", "h") and n > nt.EXACT_BOUND_CAP:
        raise CapacityError(
            f"exact {args.func} capped at n <= {nt.EXACT_BOUND_CAP} (got {n})"
        )
    if args.func == "g":
        print(nt.prime_power_product(n).value)
    elif args.func == "h":
        print(nt.upper_half_prime_product(n).value)
    elif args.func == "f":
        print(nt.order_bound(n).value)
    elif args.func == "ratio":
        print(f"{nt.asymptotic_ratio(n).ratio:.12g}")
    else:
        print(" ".join(map(str, nt.two_prime_interval_exceptions(n))))
    return 0


def _cmd_mgroup(args) -> int:
    from . import catalog
    from .perms import DEFAULT_ENUM_CAP
    from .search import max_abelian_order

    spec = catalog.parse_spec(args.spec)
    group = catalog.build_group(spec)
    group.element_table(args.enum_cap or DEFAULT_ENUM_CAP)
    result = max_abelian_order(group)
    print(f"group: {spec}")
    print(f"order: {group.order_value} = {group.order.factored_str()}")
    print(f"m: {result.m}")
    gens = " ".join(g.cycle_string() for g in result.witness.generators) or "()"
    print(f"witness: {gens}")
    print(f"witness_normal: {'yes' if result.witness.normal_in_parent else 'no'}")
    print(f"nodes: {result.nodes_explored}")
    return 0


def _cmd_verify(args) -> int:
    from . import catalog, verify
    from .perms import DEFAULT_ENUM_CAP

    if args.manifest is not None:
        if args.specs:
            raise ValueError("give group specs or --manifest, not both")
        if not args.manifest:
            raise ValueError("--manifest needs a file path, got an empty one")
        specs = catalog.load_manifest(args.manifest)
    else:
        specs = args.specs or catalog.default_catalog_specs()
    entries = catalog.build_catalog(specs)
    report = verify.run_suite(args.suite, entries, enum_cap=args.enum_cap or DEFAULT_ENUM_CAP)
    if args.format == "json":
        rendered = verify.report_to_json(report)
    elif args.format == "csv":
        rendered = verify.report_to_csv(report)
    else:
        rendered = verify.report_to_text(report)
    _write_output(rendered, args.out)
    s = report.summary
    summary_line = (
        f"verify {args.suite}: {s['checks']} checks, {s['passed']} passed, "
        f"{s['failed']} failed, {s['expected_exceptions']} expected exceptions"
    )
    if args.out is not None:
        print(summary_line)
    elif args.format != "text":
        print(summary_line, file=sys.stderr)
    if not report.all_passed:
        for c in report.checks:
            if not c.passed:
                print(
                    f"FAIL {c.theorem} {c.group_id} m={c.m} order={c.order} {c.detail}",
                    file=sys.stderr,
                )
        return 1
    return 0


def _cmd_series(args) -> int:
    lines = ["n,log_f,ratio"]
    for n in args.ns:
        sample = nt.asymptotic_ratio(n)
        lines.append(f"{sample.n},{sample.log_f:.12g},{sample.ratio:.12g}")
    _write_output("\n".join(lines) + "\n", args.out)
    return 0


def main(argv=None) -> int:
    # g, h and f are printed exactly, past CPython's 4300-digit str() limit
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    # no command calls BLAS, and OpenBLAS starts one thread per core when
    # numpy is imported; this must come before anything imports numpy
    if "numpy" not in sys.modules and not any(v in os.environ for v in _BLAS_THREAD_VARS):
        os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        parser = _build_parser()
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help
        if exc.code is None:
            return 0
        return exc.code if isinstance(exc.code, int) else 2
    if getattr(args, "enum_cap", None) is not None and args.enum_cap < 1:
        print("abelmax: --enum-cap must be positive", file=sys.stderr)
        return 2
    try:
        if args.command == "numtheory":
            return _cmd_numtheory(args)
        if args.command == "mgroup":
            return _cmd_mgroup(args)
        if args.command == "verify":
            return _cmd_verify(args)
        return _cmd_series(args)
    except CapacityError as exc:
        print(f"abelmax: capacity error: {exc}", file=sys.stderr)
        return 3
    except (OSError, ValueError) as exc:
        # GeneratorFileError is a ValueError
        print(f"abelmax: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
