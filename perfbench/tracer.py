"""Run one abelmax command with spans around each layer's public functions.

Usage (``src`` on PYTHONPATH):

    python perfbench/tracer.py SPANS.json verify all --format json

Before the command runs, every public module-level function of the six
layers (numtheory, perms, catalog, search, verify, cli) and every public
method of ``perms.PermGroup`` is replaced, in every abelmax module that
holds it, by a wrapper that records a span: name, start, end and the span
open when it was called.  Counts that need a return value (search nodes,
element-table rows, class counts, checks, result digits) are taken at the
same wrappers.  Spans and counts stay in memory and are written to
SPANS.json when the command ends.  The command's stdout, stderr and exit
code are those of ``python -m abelmax.cli``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import sys
import weakref
from collections import Counter
from time import perf_counter

LAYERS = ("numtheory", "perms", "catalog", "search", "verify", "cli")


def decimal_digits(x: int) -> int:
    """Digits of |x| in base 10, without str() and its length limit."""
    x = abs(x)
    d = max(1, int(x.bit_length() * math.log10(2)))
    while 10**d <= x:
        d += 1
    while d > 1 and 10 ** (d - 1) > x:
        d -= 1
    return d


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []  # [name index, start, end, parent index or -1]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.digit_results: list[int] = []
        self._tabled = weakref.WeakSet()
        self._classed = weakref.WeakSet()

    def layer_of(self, span: int) -> str | None:
        return self.names[self.spans[span][0]].split(".", 1)[0] if span >= 0 else None

    def wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        after = getattr(self, "_after_" + name.replace(".", "_"), None)
        if after is None and name.startswith("numtheory."):
            after = self._after_numtheory
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = [nid, 0.0, 0.0, parent]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if after is not None:
                after(args, result, parent)
            return result

        return traced

    # ── counts taken from return values ─────────────────────────────

    def _after_perms_element_table(self, args, table, parent):
        group = args[0]
        if group not in self._tabled:
            self._tabled.add(group)
            self.counts["perms.element_table.rows"] += len(table)
            self.counts["perms.element_table.bytes"] += int(table.matrix.nbytes)

    def _after_perms_conjugacy_classes(self, args, result, parent):
        group = args[0]
        if group not in self._classed:
            self._classed.add(group)
            self.counts["perms.conjugacy_classes.classes"] += len(result[1])

    def _after_search_max_abelian_order(self, args, result, parent):
        self.counts["search.max_abelian_order.nodes"] += result.nodes_explored

    def _after_verify_run_suite(self, args, report, parent):
        if self.layer_of(parent) != "verify":
            self.counts["verify.checks"] += report.summary["checks"]
            self.counts["verify.failed"] += report.summary["failed"]

    def _after_numtheory(self, args, result, parent):
        value = getattr(result, "value", None)
        if isinstance(value, int) and self.layer_of(parent) != "numtheory":
            self.digit_results.append(value)

    def dump(self, path: str) -> None:
        counts = dict(self.counts)
        counts["numtheory.result_digits"] = sum(map(decimal_digits, self.digit_results))
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "spans": self.spans, "counts": counts}, fh)


def instrument(tracer: Tracer) -> None:
    modules = [importlib.import_module(f"abelmax.{layer}") for layer in LAYERS]
    wrapped = {}
    for layer, mod in zip(LAYERS, modules):
        for attr, obj in vars(mod).items():
            if (
                not attr.startswith("_")
                and inspect.isfunction(obj)
                and obj.__module__ == mod.__name__
            ):
                wrapped[obj] = tracer.wrap(f"{layer}.{attr}", obj)
    for mod in modules:
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                setattr(mod, attr, wrapped[obj])
    group_cls = modules[LAYERS.index("perms")].PermGroup
    for attr, obj in list(vars(group_cls).items()):
        if not attr.startswith("_") and inspect.isfunction(obj):
            setattr(group_cls, attr, tracer.wrap(f"perms.{attr}", obj))


def main(argv: list[str]) -> int:
    spans_path, args = argv[0], argv[1:]
    tracer = Tracer()
    instrument(tracer)
    cli = sys.modules["abelmax.cli"]
    try:
        return cli.main(args)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
