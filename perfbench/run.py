"""Benchmark for the abelmax command line.

Run from the repository root:

    python3 perfbench/run.py --workload verify-catalog --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seconds 10

Each operation is one abelmax CLI invocation in a fresh
``python -m abelmax.cli`` process, because users pay for interpreter
start-up, imports and module-level caches on every command.  A single
client runs the operations one at a time (a closed loop): one pass runs
the workload's seeded list of operations once, and passes repeat until
``--seconds`` have elapsed.  Every output is checked against references
computed without abelmax (see reference.py), and its digest must not
change between passes.

With ``--trace 0`` the run reports the end-to-end metrics:

* ``setup_s``: median time for a fresh interpreter to import abelmax.cli,
  sampled at the start and again after every pass;
* ``pass_s``: median wall time of one pass;
* ``pass_s_tail``: pass_s times the tail slowdown of an operation.  Each
  operation's time is divided by that operation's median over the run;
  the slowdown is the highest nearest-rank percentile of these ratios,
  pooled over all operations and passes, with at least min(10, (n-1)//2)
  of the n ratios beyond it (which percentile is printed).  With one
  operation per pass this is that percentile of the pass times.  Pooling
  gives a workload of many operations enough samples for a tail, where
  the few passes of one run would leave the tail at their maximum;
* ``peak_rss_mb``: median over passes of the largest peak RSS of any
  child process in the pass, from os.wait4.

With ``--trace 1`` passes alternate untraced and traced (each operation
run under tracer.py) and the run reports the per-layer metrics: inclusive
seconds of named functions, each layer's self time, counts that must
repeat exactly between traced passes, and the tracing overhead (median
traced pass minus median untraced pass).

Operations that hit the documented 4300-digit str() limit in numtheory
g, h and f are reported as known defects: the exit 2 and its message are
required exactly where the independent reference has more than 4300
digits, and a correct value printed instead is accepted.  Anything else
that differs from the reference, exits with another code or changes its
digest counts as failed.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = Path.cwd()
OP_TIMEOUT_S = 120
SETUP_SAMPLES = 3  # at the start of a run; one more follows every pass

END_TO_END = {"setup_s": "s", "pass_s": "s", "pass_s_tail": "s", "peak_rss_mb": "MB"}

_COUNTS = {
    "perms.element_table.rows": "count",
    "perms.element_table.bytes": "bytes",
    "perms.conjugacy_classes.classes": "count",
    "search.max_abelian_order.calls": "count",
    "search.max_abelian_order.nodes": "count",
    "verify.checks": "count",
    "verify.failed": "count",
    "numtheory.result_digits": "digits",
    "trace.spans": "count",
}
_TIMED_FUNCTIONS = (
    "catalog.build_group",
    "perms.element_table",
    "perms.conjugacy_classes",
    "search.max_abelian_order",
    "verify.catalog_pgroup_inputs",
    "verify.pgroup_bound_suite",
    "verify.run_suite",
    "verify.report_to_json",
    "numtheory.prime_power_product",
    "numtheory.order_bound",
    "numtheory.asymptotic_ratio",
    "numtheory.two_prime_interval_exceptions",
)
_LAYERS = ("numtheory", "perms", "catalog", "search", "verify", "cli")
PER_LAYER = {
    **{f"{name}.s": "s" for name in _TIMED_FUNCTIONS},
    **{f"{layer}.self_s": "s" for layer in _LAYERS},
    **_COUNTS,
    "trace.overhead_s": "s",
}


@dataclass
class OpResult:
    rc: int
    seconds: float
    rss_mb: float
    stdout: bytes
    stderr: bytes
    spans: dict | None = None


@dataclass
class Tally:
    """Outcomes of every operation run, and the determinism guard."""

    attempted: int = 0
    failed: int = 0
    defects: int = 0
    digests: dict = field(default_factory=dict)
    reasons: Counter = field(default_factory=Counter)

    def record(self, index: int, op: workloads.Op, result: OpResult) -> None:
        self.attempted += 1
        outcome = op.check(
            result.rc,
            result.stdout.decode("utf-8", "replace"),
            result.stderr.decode("utf-8", "replace"),
        )
        digest = hashlib.sha256(result.stdout).hexdigest()
        first = self.digests.setdefault(index, digest)
        if outcome.status == "ok" and digest != first:
            outcome = workloads.ref.fail("stdout digest changed between passes")
        if outcome.status == "fail":
            self.failed += 1
            self.reasons[f"{op.label[:60]}: {outcome.reason}"] += 1
        elif outcome.status == "defect":
            self.defects += 1


def child_env() -> dict:
    """The caller's environment without ABELMAX_* settings, importing src/."""
    env = {
        k: v
        for k, v in os.environ.items()
        if not k.startswith("ABELMAX_") and k not in ("PYTHONPATH", "PYTHONINTMAXSTRDIGITS")
    }
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_child(argv: list[str], env: dict, work: Path) -> OpResult:
    """Run one process to completion; time it and read its rusage."""
    with open(work / "stdout", "w+b") as out, open(work / "stderr", "w+b") as err:
        start = perf_counter()
        proc = subprocess.Popen(
            argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err, env=env, cwd=ROOT
        )
        watchdog = threading.Timer(OP_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        seconds = perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return OpResult(proc.returncode, seconds, usage.ru_maxrss / 1024, out.read(), err.read())


def measure_setup(env: dict, work: Path, count: int) -> list[float]:
    code = (
        "import time; t = time.perf_counter(); import abelmax.cli; "
        "print(repr(time.perf_counter() - t))"
    )
    samples = []
    for _ in range(count):
        res = run_child([sys.executable, "-c", code], env, work)
        if res.rc != 0:
            raise RuntimeError(f"importing abelmax.cli failed: {res.stderr.decode()[-400:]}")
        samples.append(float(res.stdout))
    return samples


def run_pass(ops, tally: Tally, env: dict, work: Path, traced: bool) -> list[OpResult]:
    results = []
    for op in ops:
        if traced:
            spans_path = work / "spans.json"
            argv = [sys.executable, str(BENCH / "tracer.py"), str(spans_path), *op.argv]
        else:
            argv = [sys.executable, "-m", "abelmax.cli", *op.argv]
        res = run_child(argv, env, work)
        if traced:
            try:
                res.spans = span_metrics(json.loads(spans_path.read_text(encoding="utf-8")))
            except (OSError, ValueError):
                res.spans = None
            spans_path.unlink(missing_ok=True)
        results.append(res)
    for i, (op, res) in enumerate(zip(ops, results)):
        tally.record(i, op, res)
        if traced and res.spans is None:
            tally.failed += 1
            tally.reasons[f"{op.label[:60]}: no span file"] += 1
    return results


def span_metrics(doc: dict) -> Counter:
    """Inclusive seconds per function, self seconds per layer, and counts."""
    names, spans = doc["names"], doc["spans"]
    out = Counter()
    children = [0.0] * len(spans)
    for nid, start, end, parent in spans:
        if parent >= 0:
            children[parent] += end - start
    for i, (nid, start, end, parent) in enumerate(spans):
        name = names[nid]
        out[f"{name.split('.', 1)[0]}.self_s"] += (end - start) - children[i]
        out[f"{name}.calls"] += 1
        p = parent
        while p >= 0 and spans[p][0] != nid:
            p = spans[p][3]
        if p < 0:  # outermost span of this name: count its time once
            out[f"{name}.s"] += end - start
    out["trace.spans"] = len(spans)
    out.update(doc["counts"])
    return out


def tail(values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) for the highest nearest-rank
    percentile with at least min(10, (n - 1) // 2) samples above it."""
    ordered = sorted(values)
    beyond = min(10, (len(ordered) - 1) // 2)
    index = len(ordered) - 1 - beyond
    return ordered[index], 100.0 * (index + 1) / len(ordered), beyond


def pass_tail(passes: list[list[float]]) -> tuple[float, float, int, int]:
    """(value, percentile, ratios beyond, ratios) of pass_s_tail, from the
    seconds of each operation (columns) in each pass (rows)."""
    medians = [statistics.median(column) for column in zip(*passes)]
    ratios = [t / m for row in passes for t, m in zip(row, medians)]
    slowdown, pct, beyond = tail(ratios)
    return statistics.median(sum(row) for row in passes) * slowdown, pct, beyond, len(ratios)


def run_workload(name: str, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    ops = workloads.WORKLOADS[name](seed, work, ROOT)
    env = child_env()
    tally = Tally()
    print(f"workload {name}, seed {seed}, {'traced' if trace else 'untraced'}: "
          f"{len(ops)} operations per pass, closed loop, one client, {seconds:g} s")
    if not trace:
        measure_setup(env, work, 1)  # writes the bytecode caches
        setup = measure_setup(env, work, SETUP_SAMPLES)
        passes = []
        start = perf_counter()
        while not passes or perf_counter() - start < seconds:
            passes.append(run_pass(ops, tally, env, work, traced=False))
            setup += measure_setup(env, work, 1)
        op_seconds = [[r.seconds for r in p] for p in passes]
        times = [sum(row) for row in op_seconds]
        rss = [max(r.rss_mb for r in p) for p in passes]
        tail_value, pct, beyond, ratios = pass_tail(op_seconds)
        metrics = {
            "setup_s": statistics.median(setup),
            "pass_s": statistics.median(times),
            "pass_s_tail": tail_value,
            "peak_rss_mb": statistics.median(rss),
        }
        notes = {
            "setup_s": f"median of {len(setup)} imports spread over the run",
            "pass_s": f"median of {len(times)} passes",
            "pass_s_tail": f"pass_s x p{pct:.0f} of {ratios} operation slowdowns, {beyond} beyond",
            "peak_rss_mb": f"median of {len(rss)} per-pass maxima",
        }
        units = END_TO_END
    else:
        plain, traced = [], []
        start = perf_counter()
        while not traced or perf_counter() - start < seconds:
            plain.append(run_pass(ops, tally, env, work, traced=False))
            traced.append(run_pass(ops, tally, env, work, traced=True))
        per_pass = [sum((r.spans or Counter() for r in p), Counter()) for p in traced]
        metrics, notes = {}, {}
        for key in PER_LAYER:
            values = [c.get(key, 0) for c in per_pass]
            if PER_LAYER[key] == "s":
                metrics[key] = float(statistics.median(values))
                notes[key] = f"median of {len(values)} traced passes"
            else:
                metrics[key] = values[0]
                if len(set(values)) > 1:
                    tally.failed += 1
                    tally.reasons[f"{key} differs between traced passes: {values}"] += 1
                notes[key] = f"count, equal in {len(values)} traced passes"
        plain_s = statistics.median(sum(r.seconds for r in p) for p in plain)
        traced_s = statistics.median(sum(r.seconds for r in p) for p in traced)
        metrics["trace.overhead_s"] = traced_s - plain_s
        notes["trace.overhead_s"] = f"traced {traced_s:.4f} s - untraced {plain_s:.4f} s"
        units = PER_LAYER
    for key, value in metrics.items():
        print(f"  {key:42s} {value:14.6g} {units[key]:6s} {notes[key]}")
    fail_rate = tally.failed / tally.attempted
    print(f"  {'fail_rate':42s} {fail_rate:14.6g} {'':6s} {tally.failed} of {tally.attempted} operations")
    print(f"  {'known_defects':42s} {tally.defects / tally.attempted:14.6g} {'':6s} "
          f"{tally.defects} of {tally.attempted} hit the 4300-digit str() limit")
    for reason, count in sorted(tally.reasons.items()):
        print(f"  FAILED x{count}: {reason}")
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "abelmax" / "cli.py").is_file():
        print(f"run.py: no abelmax sources under {ROOT / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2
    work = BENCH / ".work" / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    try:
        if args.workload != "all":
            result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), work)
        else:
            result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
            for name in workloads.WORKLOADS:
                for trace in (False, True):
                    one = run_workload(name, args.seed, args.seconds, trace, work)
                    result["correct"] &= one["correct"]
                    result["attempted"] += one["attempted"]
                    result["failed"] += one["failed"]
                    result["metrics"].update(
                        {f"{name}.{k}": v for k, v in one["metrics"].items()}
                    )
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not any(work.parent.iterdir()):
            work.parent.rmdir()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
