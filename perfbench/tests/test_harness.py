"""Tests of the benchmark harness itself (not of abelmax).

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import reference as ref  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

S3_GENS = [(1, 0, 2), (1, 2, 0)]
S3 = ref.GroupReference(
    spec="sym:3", order_line="6 = 2*3", m=3, degree=3, elements=frozenset(ref.closure(S3_GENS, 3))
)
MGROUP_OK = "group: sym:3\norder: 6 = 2*3\nm: 3\nwitness: (0,1,2)\nwitness_normal: yes\nnodes: 2\n"


def _op(check):
    return workloads.Op(("test",), check)


def _result(rc=0, stdout=b"", stderr=b""):
    return run.OpResult(rc, 0.1, 10.0, stdout, stderr)


def test_mgroup_reference_accepts_correct_output():
    assert ref.check_mgroup(0, MGROUP_OK, "", S3) == ref.OK


def test_wrong_m_is_a_failure():
    out = MGROUP_OK.replace("m: 3", "m: 2")
    assert ref.check_mgroup(0, out, "", S3).status == "fail"


def test_witness_of_wrong_order_is_a_failure():
    out = MGROUP_OK.replace("witness: (0,1,2)", "witness: (0,1)")
    assert ref.check_mgroup(0, out, "", S3).status == "fail"


def test_wrong_m_in_verify_report_is_a_failure():
    answers = {"sym:3": (3, 6)}
    rows = [
        {"theorem": t, "group_id": "sym:3", "passed": True, "m": 3, "order": 6, "detail": {}}
        for t in ("divisibility", "refined_divisibility", "two_prime")
    ]
    report = {"summary": {"checks": 3, "failed": 0}, "checks": rows}
    assert ref.check_verify(0, json.dumps(report), "", ["sym:3"], answers) == ref.OK
    rows[1]["m"] = 2
    assert ref.check_verify(0, json.dumps(report), "", ["sym:3"], answers).status == "fail"


def test_nonzero_exit_is_a_failure(tmp_path):
    res = run.run_child([sys.executable, "-c", "import sys; sys.exit(1)"], run.child_env(), tmp_path)
    assert res.rc == 1
    tally = run.Tally()
    tally.record(0, _op(lambda rc, out, err: ref.check_exceptions(rc, out, err, [4, 6, 10])), res)
    assert (tally.attempted, tally.failed) == (1, 1)


def test_changed_digest_is_a_failure():
    op = _op(lambda rc, out, err: ref.OK)
    tally = run.Tally()
    tally.record(0, op, _result(stdout=b"nodes: 47\n"))
    tally.record(0, op, _result(stdout=b"nodes: 47\n"))
    assert tally.failed == 0
    tally.record(0, op, _result(stdout=b"nodes: 48\n"))
    assert (tally.attempted, tally.failed) == (3, 1)


def test_digit_limit_exit_is_a_known_defect_only_above_4300_digits():
    msg = "abelmax: Exceeds the limit (4300 digits) for integer string conversion"
    assert ref.check_exact_int(2, "", msg, str(10**4300)).status == "defect"
    assert ref.check_exact_int(2, "", msg, str(10**4299)).status == "fail"
    assert ref.check_exact_int(0, f"{10**4300}\n", "", str(10**4300)) == ref.OK
    assert ref.check_exact_int(0, "7\n", "", "8").status == "fail"


def test_arithmetic_references():
    table = ref.PrimeTable(100_000)
    assert ref.prime_power_product(6, table) == 120
    assert ref.upper_half_prime_product(10, table) == 7
    assert ref.order_bound(10, table) == 86400
    assert ref.two_prime_exceptions(10**7) == [4, 6, 10]
    assert ref.two_prime_exceptions(5) == [4]
    for func, start in workloads.DIGIT_LIMIT_START.items():
        value = {"g": ref.prime_power_product, "h": ref.upper_half_prime_product,
                 "f": ref.order_bound}[func]
        assert ref.decimal_digits(value(start - 1, table)) <= ref.INT_STR_DIGITS
        assert ref.decimal_digits(value(start, table)) > ref.INT_STR_DIGITS


def test_series_check_tolerance():
    table = ref.PrimeTable(1000)
    log_f = ref.log_order_bound(1000, table)
    good = f"n,log_f,ratio\n1000,{log_f:.12g},{log_f / 500:.12g}\n"
    assert ref.check_series(0, good, "", [(1000, log_f)]) == ref.OK
    bad = f"n,log_f,ratio\n1000,{log_f:.12g},{log_f / 500 + 1e-6:.12g}\n"
    assert ref.check_series(0, bad, "", [(1000, log_f)]).status == "fail"


def test_tracer_digit_count_matches_str():
    for x in (0, 9, 10, 99, 100, 10**50 - 1, 10**50, 2**1000):
        assert tracer.decimal_digits(x) == len(str(x))


@pytest.mark.parametrize("n, expected", [(1, (0, 100.0, 0)), (4, (2, 75.0, 1)), (30, (19, 66.66666666666667, 10))])
def test_tail_percentile(n, expected):
    value, pct, beyond = run.tail(list(range(n)))
    assert (value, pct, beyond) == expected


def test_pass_tail_with_one_operation_is_the_tail_of_pass_times():
    passes = [[float(t)] for t in (3, 1, 4, 1, 5)]
    assert run.pass_tail(passes) == (3.0, 60.0, 2, 5) == (*run.tail([3, 1, 4, 1, 5]), 5)


def test_pass_tail_pools_operation_slowdowns():
    # op 0 has median 1, op 1 median 10; ratios 0.5 1 2 | 0.9 1 1.2
    passes = [[1.0, 9.0], [0.5, 10.0], [2.0, 12.0]]
    value, pct, beyond, ratios = run.pass_tail(passes)
    assert (pct, beyond, ratios) == (pytest.approx(200 / 3), 2, 6)
    assert value == pytest.approx(10.5)  # median pass 10.5 s times slowdown 1


def test_span_self_time_and_outermost_inclusive_time():
    doc = {
        "names": ["cli.main", "verify.run_suite"],
        "spans": [[0, 0.0, 10.0, -1], [1, 1.0, 9.0, 0], [1, 2.0, 5.0, 1]],
        "counts": {"verify.checks": 3},
    }
    m = run.span_metrics(doc)
    assert m["cli.self_s"] == 2.0
    assert m["verify.self_s"] == 8.0
    assert m["verify.run_suite.s"] == 8.0
    assert m["verify.run_suite.calls"] == 2
    assert m["verify.checks"] == 3


def test_benchmark_json_matches_the_harness():
    path = BENCH.parent / "BENCHMARK.json"
    if not path.is_file():
        pytest.skip("no BENCHMARK.json beside the benchmark")
    spec = json.loads(path.read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
