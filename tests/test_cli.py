"""End-to-end tests for the command-line interface."""

import json
import os
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

from abelmax import numtheory as nt
from abelmax.cli import main

DATA = Path(__file__).parent / "data"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ── numtheory ───────────────────────────────────────────────────────

def test_cli_g(capsys):
    code, out, _ = run_cli(capsys, "numtheory", "g", "6")
    assert code == 0 and out == "120\n"


def test_cli_h_and_f(capsys):
    assert run_cli(capsys, "numtheory", "h", "10")[1] == "7\n"
    assert run_cli(capsys, "numtheory", "f", "10")[1] == "86400\n"


@pytest.mark.parametrize("func, n, value", [
    ("g", 9677, nt.prime_power_product),
    ("f", 100000, nt.order_bound),
])
def test_cli_numtheory_prints_past_the_str_digit_limit(capsys, func, n, value):
    # both values have more than CPython's default 4300 str() digits;
    # main lifts that limit for the process, so str() below works too
    code, out, err = run_cli(capsys, "numtheory", func, str(n))
    assert code == 0, err
    assert out == f"{value(n).value}\n"
    assert len(out) > 4301


def test_cli_exceptions(capsys):
    code, out, _ = run_cli(capsys, "numtheory", "exceptions", "1000000")
    assert code == 0 and out == "4 6 10\n"


# Runs argv and prints the child's exit code and its own peak RSS (KiB),
# read from os.wait4, to stderr.  Linux starts a child's ru_maxrss at the
# high-water RSS of the process that spawned it, so the CLI is spawned
# from this small process rather than from the test process, whose peak
# depends on the tests that ran before.
_PEAK_RSS_LAUNCHER = """\
import os, subprocess, sys
proc = subprocess.Popen(sys.argv[1:])
_, status, usage = os.wait4(proc.pid, 0)
proc.returncode = os.waitstatus_to_exitcode(status)
print(proc.returncode, usage.ru_maxrss, file=sys.stderr)
"""


@pytest.mark.parametrize(
    "argv, code, output_ok, max_mb, max_seconds",
    [
        # the scan holds the sieve and no array over the range of m
        (
            ("numtheory", "exceptions", "10000000"), 0,
            lambda proc: proc.stdout == "4 6 10\n", 150, 300,
        ),
        # the sieve runs to n/2 and no list of its primes is built
        (
            ("numtheory", "ratio", str(nt.SIEVE_CAP)), 0,
            lambda proc: proc.stdout == "1.00031895487\n", 100, 300,
        ),
        # J1's table is 175560 x 266 uint16 (93 MB); the build sorts on the
        # transversal product's first columns alone before it forms the rows,
        # so it never holds two tables, and no comparison gathers whole rows
        (
            ("mgroup", "file:groups/j1.gens"), 0,
            lambda proc: "\nm: 19\n" in proc.stdout and proc.stdout.endswith("nodes: 5\n"),
            170, 300,
        ),
        # normal closures grow a round of classes at a time, and products
        # gather base images, not the whole rows of a round's classes
        (
            ("verify", "all", "file:groups/j1.gens", "file:groups/m12.gens"), 0,
            lambda proc: ", 0 failed," in proc.stdout,
            190, 60,
        ),
        # under the order cap, but one level of its chain would take
        # 100000 x 100000 uint32 entries: refused before it is allocated
        (
            ("mgroup", "cyclic:100000"), 3,
            lambda proc: proc.stdout == "" and "40000000000 bytes" in proc.stderr,
            200, 5,
        ),
        # on 2^22 points: refused before a generator of 2^22 images is built
        (
            ("mgroup", "elem_abelian:2:22"), 3,
            lambda proc: proc.stdout == "" and "4194304 x 4194304" in proc.stderr,
            100, 5,
        ),
    ],
    ids=["exceptions-10000000", "ratio-100000000", "mgroup-j1", "verify-j1-m12",
         "mgroup-cyclic-100000", "mgroup-elem-abelian-2-22"],
)
def test_cli_in_bounded_memory(argv, code, output_ok, max_mb, max_seconds):
    repo = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(repo / "src"), env.get("PYTHONPATH")]))
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", _PEAK_RSS_LAUNCHER, sys.executable, "-m", "abelmax.cli", *argv],
        cwd=repo, env=env, capture_output=True, text=True, timeout=300,
    )
    seconds = time.perf_counter() - start
    got_code, peak_kib = map(int, proc.stderr.splitlines()[-1].split())
    assert got_code == code and output_ok(proc), proc.stderr
    assert peak_kib / 1024 < max_mb, f"peak RSS {peak_kib / 1024:.0f} MB"
    assert seconds < max_seconds, f"{seconds:.1f} s"


@pytest.mark.parametrize("argv", [
    ("numtheory", "ratio"),
    ("numtheory", "exceptions"),
    ("series", "1000"),
])
def test_cli_sieve_cap_exit_code(capsys, argv):
    code, out, err = run_cli(capsys, *argv, str(nt.SIEVE_CAP + 1))
    assert code == 3 and "prime sieve capped" in err
    assert out == ""


# Imports abelmax.cli in a fresh interpreter, then runs one number
# theory command, and prints which heavy modules each step loaded that
# the interpreter had not loaded before (dataclasses loads inspect, about
# 10 ms per process).
_IMPORT_PROBE = """\
import contextlib, io, json, sys
heavy = ["numpy", "abelmax.perms", "abelmax.search", "abelmax.verify", "abelmax.catalog",
         "dataclasses", "inspect"]
heavy = [m for m in heavy if m not in sys.modules]
import abelmax.cli
loaded = {"import": [m for m in heavy if m in sys.modules]}
with contextlib.redirect_stdout(io.StringIO()):
    code = abelmax.cli.main(sys.argv[1:])
loaded["run"] = [m for m in heavy if m in sys.modules]
print(json.dumps([code, loaded]))
"""


# Runs one command in a fresh interpreter and prints its exit code and
# whether it loaded numpy.ma, which numpy imports only when asked (np.unique
# without return_* flags does), at 16-28 ms per process.
_NUMPY_MA_PROBE = """\
import contextlib, io, json, sys
import abelmax.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = abelmax.cli.main(sys.argv[1:])
print(json.dumps([code, "numpy.ma" in sys.modules]))
"""


def _probe(script, *argv, **environ):
    """The JSON a probe script prints, run with ``argv`` from the repository
    root; each keyword sets an environment variable, or removes it if None."""
    repo = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(repo / "src"), env.get("PYTHONPATH")]))
    for name, value in environ.items():
        if value is None:
            env.pop(name, None)
        else:
            env[name] = value
    proc = subprocess.run(
        [sys.executable, "-c", script, *argv],
        cwd=repo, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


# Runs one command in a fresh interpreter and prints its exit code, whether
# it loaded numpy, its OS thread count (None off Linux) and the
# OPENBLAS_NUM_THREADS it ends with.
_THREAD_PROBE = """\
import contextlib, io, json, os, sys
import abelmax.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = abelmax.cli.main(sys.argv[1:])
task = "/proc/self/task"
threads = len(os.listdir(task)) if os.path.isdir(task) else None
print(json.dumps([code, "numpy" in sys.modules, threads, os.environ.get("OPENBLAS_NUM_THREADS")]))
"""


# OpenBLAS reads its thread count from the first of these that is set
_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="counts threads in /proc")
def test_cli_group_command_runs_on_one_thread():
    # numpy's OpenBLAS would otherwise start a worker thread per core
    unset = dict.fromkeys(_BLAS_VARS)
    got = _probe(_THREAD_PROBE, "mgroup", "sym:4", **unset)
    assert got == [0, True, 1, "1"]


@pytest.mark.parametrize("name", _BLAS_VARS)
def test_cli_keeps_a_given_blas_thread_count(name):
    environ = dict.fromkeys(_BLAS_VARS)
    environ[name] = "2"
    code, numpy_loaded, _, value = _probe(_THREAD_PROBE, "mgroup", "sym:4", **environ)
    assert (code, numpy_loaded, value) == (0, True, environ["OPENBLAS_NUM_THREADS"])


def test_cli_leaves_the_environment_alone_once_numpy_is_loaded(capsys, monkeypatch):
    # OpenBLAS's pool is running by then, and the value would pass on to
    # every subprocess the caller starts
    import numpy  # noqa: F401

    for name in _BLAS_VARS:
        monkeypatch.delenv(name, raising=False)
    assert run_cli(capsys, "mgroup", "sym:4")[0] == 0
    assert not any(name in os.environ for name in _BLAS_VARS)


@pytest.mark.parametrize("argv", [
    ("numtheory", "g", "1000"),
    ("numtheory", "h", "1000"),
    ("numtheory", "f", "1000"),
    ("numtheory", "exceptions", "1000"),
    ("numtheory", "ratio", "1000"),
    ("series", "1000"),
], ids=["g", "h", "f", "exceptions", "ratio", "series"])
def test_cli_number_theory_starts_without_the_group_machinery(argv):
    code, loaded = _probe(_IMPORT_PROBE, *argv)
    assert code == 0
    assert loaded == {"import": [], "run": []}


@pytest.mark.parametrize("argv", [("mgroup", "file:groups/m12.gens"), ("verify", "all")])
def test_cli_group_commands_leave_numpy_ma_unimported(argv):
    assert _probe(_NUMPY_MA_PROBE, *argv) == [0, False]


def test_cli_ratio(capsys):
    code, out, _ = run_cli(capsys, "numtheory", "ratio", "1000000")
    assert code == 0
    value = float(out)
    assert 0.99 <= value <= 1.01
    assert len(out.strip().replace(".", "").lstrip("0")) <= 12


def test_cli_nonnumeric_input_is_usage_error(capsys):
    code, _, _ = run_cli(capsys, "numtheory", "g", "six")
    assert code == 2


@pytest.mark.parametrize("func", ["g", "h", "f"])
def test_cli_exact_values_refused_above_the_cap(capsys, func):
    code, out, err = run_cli(capsys, "numtheory", func, str(nt.EXACT_BOUND_CAP + 1))
    assert code == 3 and f"capped at n <= {nt.EXACT_BOUND_CAP}" in err
    assert out == ""
    assert run_cli(capsys, "numtheory", func, str(nt.EXACT_BOUND_CAP))[0] == 0


def test_cli_capacity_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "numtheory", "f", "200000")
    assert code == 3 and "capacity" in err


# ── mgroup ──────────────────────────────────────────────────────────

def test_cli_mgroup_alt5(capsys):
    code, out, _ = run_cli(capsys, "mgroup", "alt:5")
    assert code == 0
    assert "m: 5" in out and "nodes:" in out and "witness:" in out


def test_cli_mgroup_sym6(capsys):
    code, out, _ = run_cli(capsys, "mgroup", "sym:6")
    assert code == 0 and "m: 9" in out


def test_cli_mgroup_names_the_group_by_its_canonical_spec(capsys):
    code, out, _ = run_cli(capsys, "mgroup", "sym:05")
    assert code == 0 and out.splitlines()[0] == "group: sym:5"


def test_cli_huge_elem_abelian_is_refused_without_the_decimal_degree(capsys):
    # from 2^64 points on, the degree is named p^k and never formed in
    # decimal: printing 2^2000000 in full took 33 s and 2.4 MB of stderr
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "mgroup", "elem_abelian:2:2000000")
    assert time.perf_counter() - start < 1
    assert code == 3 and out == "" and len(err) < 300
    assert "a transversal of 2^2000000 x 2^2000000 entries is above" in err
    code, _, err = run_cli(capsys, "mgroup", "elem_abelian:2:15")
    assert code == 3 and err == (
        "abelmax: capacity error: a transversal of 32768 x 32768 entries needs "
        "2147483648 bytes, above the table byte cap 536870912\n"
    )


def test_cli_mgroup_degree_above_uint16(tmp_path, capsys):
    # points up to 69999 do not fit the 16-bit rows of smaller degrees
    path = tmp_path / "big.gens"
    path.write_text("degree 70000\ngen (1,70000)\nexpect_order 2\n")
    code, out, _ = run_cli(capsys, "mgroup", f"file:{path}")
    assert code == 0 and "m: 2" in out


def test_cli_mgroup_file_spec(capsys):
    code, out, _ = run_cli(capsys, "mgroup", "file:groups/m11.gens")
    assert code == 0 and "m: 11" in out


@pytest.mark.parametrize("argv", [["mgroup", "file:bad.gens"], ["verify", "a", "file:bad.gens"]])
def test_cli_generator_file_error_names_the_path_as_typed(tmp_path, capsys, monkeypatch, argv):
    # a relative path is read against the working directory and reported
    # as the user typed it, not made absolute
    (tmp_path / "bad.gens").write_text("degree 5\ngen (1,2,3\n")
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("abelmax: bad.gens:2: ")


@pytest.mark.parametrize("argv", [
    ["mgroup", "file:{dir}"],
    ["verify", "all", "--manifest", "{dir}"],
    ["verify", "a", "cyclic:2", "--out", "{dir}"],
])
def test_cli_directory_for_a_file_is_usage_error(tmp_path, capsys, argv):
    code, _, err = run_cli(capsys, *(a.format(dir=tmp_path) for a in argv))
    assert code == 2
    assert err.startswith("abelmax: ") and "Is a directory" in err


def test_cli_mgroup_bad_spec_lists_families(capsys):
    code, _, err = run_cli(capsys, "mgroup", "banana:3")
    assert code == 2
    assert "valid families" in err and "psl2" in err


def test_cli_mgroup_capacity_names_cap_and_order(capsys):
    code, _, err = run_cli(capsys, "mgroup", "sym:9", "--enum-cap", "10000")
    assert code == 3
    assert "362880" in err and "10000" in err


def test_cli_lemma_cap_covers_the_order_128_wreath_product(capsys):
    # sym:3's lemma inputs include C2 wr C2 wr C2, of order 128
    code, _, err = run_cli(capsys, "verify", "lemma", "sym:3", "--enum-cap", "127")
    assert code == 3
    assert "128" in err and "127" in err
    code, _, err = run_cli(capsys, "verify", "lemma", "sym:3", "--enum-cap", "128")
    assert code == 0, err


def test_cli_lemma_never_enumerates_entries_above_its_order_bound(capsys):
    # |A8| = 20160 is above the lemma's order bound, so only the fixed
    # p-group inputs are checked, and A8 is not enumerated under the cap
    code, out, err = run_cli(capsys, "verify", "lemma", "alt:8", "--enum-cap", "1000")
    assert code == 0, err
    assert "summary: 18 checks, 18 passed" in out


def test_cli_mgroup_deterministic_output(capsys):
    _, out1, _ = run_cli(capsys, "mgroup", "sym:6")
    _, out2, _ = run_cli(capsys, "mgroup", "sym:6")
    assert out1 == out2


# ── verify ──────────────────────────────────────────────────────────

def test_cli_verify_a_small_catalog(capsys):
    code, out, _ = run_cli(capsys, "verify", "a", "sym:4", "sym:5", "alt:5")
    assert code == 0
    assert "summary: 3 checks, 3 passed" in out


def test_cli_verify_twoprime_default_catalog(capsys):
    code, out, _ = run_cli(capsys, "verify", "twoprime")
    assert code == 0
    flagged = [l for l in out.splitlines() if "two_prime" in l]
    assert len(flagged) == 26


def test_cli_verify_goh_flags_expected_exceptions(capsys):
    code, out, _ = run_cli(capsys, "verify", "goh", "sym:3", "sym:4", "alt:5")
    assert code == 0
    assert out.count("[expected exception: named_inequality_exception]") == 2
    assert "2 expected exceptions" in out


def test_cli_verify_json_report_to_file(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys, "verify", "equality", "sym:4", "sym:5", "--format", "json",
        "--out", str(path),
    )
    assert code == 0
    assert "verify equality:" in out  # summary line on stdout
    payload = json.loads(path.read_text())
    assert payload["summary"]["failed"] == 0


def test_cli_verify_csv_schema(tmp_path, capsys):
    path = tmp_path / "report.csv"
    code, _, _ = run_cli(
        capsys, "verify", "a", "sym:4", "--format", "csv", "--out", str(path)
    )
    assert code == 0
    header = path.read_text().splitlines()[0]
    assert header.startswith("theorem,group_id,passed,m,order")


def test_cli_verify_reports_are_byte_identical_across_runs(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run_cli(capsys, "verify", "all", "sym:4", "sym:5", "dihedral:8",
            "--format", "csv", "--out", str(a))
    run_cli(capsys, "verify", "all", "sym:4", "sym:5", "dihedral:8",
            "--format", "csv", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_cli_verify_all_matches_the_golden_report(capsys):
    # the default catalog's whole report, frozen: a change that alters
    # any verdict, m, order or detail shows up here byte for byte
    code, out, _ = run_cli(capsys, "verify", "all", "--format", "csv")
    assert code == 0
    assert out.encode() == (DATA / "verify_all.csv").read_bytes()


def test_cli_verify_extended_catalog_matches_the_golden_report(capsys):
    # the default catalog's rows and M11's and M12's, frozen the same way
    code, out, _ = run_cli(
        capsys, "verify", "all", "--manifest", "src/abelmax/data/extended_catalog.txt",
        "--format", "csv",
    )
    assert code == 0
    assert out.encode() == (DATA / "verify_extended.csv").read_bytes()


def test_cli_verify_bad_suite_is_usage_error(capsys):
    code, _, _ = run_cli(capsys, "verify", "everything")
    assert code == 2


def test_cli_verify_suites_are_the_run_suite_names():
    # the parser keeps its own list, so that building it imports no numpy
    from abelmax import verify as vf
    from abelmax.cli import _build_parser

    _, commands = _build_parser()
    (suite,) = [a for a in commands["verify"]._actions if a.dest == "suite"]
    assert sorted(suite.choices) == sorted([*vf._PER_GROUP_CHECKS, "lemma", "all"])


def test_cli_enum_cap_must_be_positive(capsys):
    code, _, err = run_cli(capsys, "verify", "a", "sym:4", "--enum-cap", "0")
    assert code == 2 and "positive" in err


def test_cli_removed_flags_are_usage_errors(capsys):
    for flag in ("--workers", "--brute-cap"):
        code, _, _ = run_cli(capsys, "verify", "a", "sym:4", flag, "2")
        assert code == 2


def test_cli_flags_only_where_they_act(tmp_path, capsys):
    path = tmp_path / "out.txt"
    for argv in (
        ("numtheory", "g", "6", "--out", str(path)),
        ("numtheory", "g", "6", "--enum-cap", "10"),
        ("numtheory", "g", "6", "--format", "json"),
        ("mgroup", "sym:4", "--out", str(path)),
        ("mgroup", "sym:4", "--format", "json"),
        ("series", "1000", "--enum-cap", "10"),
        ("series", "1000", "--format", "csv"),
    ):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 2 and out == "", argv
    assert not path.exists()


@pytest.mark.parametrize("argv, specs_first", [
    (("verify", "twoprime", "--format", "csv", "sym:3", "alt:5"),
     ("verify", "twoprime", "sym:3", "alt:5", "--format", "csv")),
    (("verify", "twoprime", "sym:3", "--format", "csv", "alt:5"),
     ("verify", "twoprime", "sym:3", "alt:5", "--format", "csv")),
    (("verify", "--format", "csv", "twoprime", "sym:3", "alt:5"),
     ("verify", "twoprime", "sym:3", "alt:5", "--format", "csv")),
    (("series", "100", "--out", "{out}", "1000"), ("series", "100", "1000", "--out", "{out}")),
    (("series", "--out", "{out}", "100", "1000"), ("series", "100", "1000", "--out", "{out}")),
])
def test_cli_arguments_may_come_before_between_or_after_flags(tmp_path, capsys, argv, specs_first):
    # verify's specs and series' ns are a list that argparse would end at
    # the first flag; each form gives the bytes of its specs-first form
    def run(form, out):
        result = run_cli(capsys, *(a.format(out=out) for a in form))
        return result, out.read_bytes() if out.exists() else None

    got, want = run(argv, tmp_path / "got.csv"), run(specs_first, tmp_path / "want.csv")
    assert got == want and want[0][0] == 0


@pytest.mark.parametrize("argv, unrecognized", [
    (("verify", "twoprime", "--format", "csv", "sym:3", "--bogus"), "--bogus"),
    # as at any unknown flag, argparse leaves the arguments after it unread
    (("verify", "twoprime", "--bogus", "sym:3"), "--bogus sym:3"),
    (("series", "--out", "{out}", "100", "--bogus"), "--bogus"),
    (("mgroup", "sym:4", "sym:5"), "sym:5"),
    (("mgroup", "--enum-cap", "10", "sym:4", "sym:5"), "sym:5"),
    (("numtheory", "g", "6", "7"), "7"),
])
def test_cli_unknown_flags_and_extra_arguments_are_usage_errors(tmp_path, capsys, argv, unrecognized):
    out = tmp_path / "out.csv"
    code, stdout, err = run_cli(capsys, *(a.format(out=out) for a in argv))
    assert code == 2 and stdout == "" and not out.exists()
    assert err.startswith("usage: abelmax [-h]")
    assert err.endswith(f"abelmax: error: unrecognized arguments: {unrecognized}\n")


# ── series ──────────────────────────────────────────────────────────

def test_cli_series_rows(capsys):
    code, out, _ = run_cli(capsys, "series", "1000", "10000", "100000")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,log_f,ratio"
    assert len(lines) == 4
    ratios = [float(l.split(",")[2]) for l in lines[1:]]
    assert ratios == sorted(ratios, reverse=True)  # strictly decreasing toward 1
    assert ratios[0] > ratios[1] > ratios[2] > 1


def test_cli_series_single_and_empty(capsys):
    code, out, _ = run_cli(capsys, "series", "5000")
    assert code == 0 and len(out.splitlines()) == 2
    code, out, _ = run_cli(capsys, "series")
    assert code == 0 and out == "n,log_f,ratio\n"


def test_cli_series_rejects_small_n(capsys):
    code, _, _ = run_cli(capsys, "series", "10")
    assert code == 2


@pytest.mark.parametrize("ns, code, message", [
    (("1000", "10", str(nt.SIEVE_CAP + 1)), 2, "need n >= 16"),
    (("1000", str(nt.SIEVE_CAP + 1), "10"), 3, "prime sieve capped"),
])
def test_cli_series_reports_the_first_bad_n(capsys, ns, code, message):
    got, out, err = run_cli(capsys, "series", *ns)
    assert got == code and out == "" and message in err


_GOLDEN_NS = ("100", "1000", "123457", "1000000", "5000000", "10000000")
_GOLDEN_SERIES = """\
n,log_f,ratio
100,76.4265399495,1.52853079899
1000,599.501961517,1.19900392303
123457,62534.1134383,1.01305091551
1000000,501900.866645,1.00380173329
5000000,2503227.24492,1.00129089797
10000000,5005981.20293,1.00119624059
"""


def test_cli_series_and_ratio_golden_bytes(capsys):
    code, out, _ = run_cli(capsys, "series", *_GOLDEN_NS)
    assert code == 0 and out == _GOLDEN_SERIES
    for row in _GOLDEN_SERIES.splitlines()[1:]:
        n, _, ratio = row.split(",")
        assert run_cli(capsys, "numtheory", "ratio", n)[:2] == (0, ratio + "\n")


# ── environment ─────────────────────────────────────────────────────

def test_abelmax_variables_change_nothing(tmp_path, capsys, monkeypatch):
    # flags are the only settings; read, each value here would change the
    # result (a cap below |S4|, csv instead of text, a file instead of stdout)
    argvs = (("mgroup", "sym:4"), ("verify", "a", "sym:4"))
    unset = [run_cli(capsys, *argv) for argv in argvs]
    path = tmp_path / "r.txt"
    monkeypatch.setenv("ABELMAX_ENUM_CAP", "10")
    monkeypatch.setenv("ABELMAX_FORMAT", "csv")
    monkeypatch.setenv("ABELMAX_OUT", str(path))
    assert [run_cli(capsys, *argv) for argv in argvs] == unset
    assert unset[0][0] == unset[1][0] == 0
    assert not path.exists()


# ── manifests and odd groups ────────────────────────────────────────

def test_cli_verify_manifest(tmp_path, capsys):
    manifest = tmp_path / "cat.txt"
    manifest.write_text("# tiny catalog\nsym:4\nalt:5\n")
    code, out, _ = run_cli(capsys, "verify", "a", "--manifest", str(manifest))
    assert code == 0 and "summary: 2 checks, 2 passed" in out


def test_cli_verify_alias_manifest(capsys):
    code, out, err = run_cli(
        capsys, "verify", "all", "--manifest", str(DATA / "aliases.txt")
    )
    assert code == 0, err
    assert "0 failed" in out


def test_cli_verify_manifest_and_specs_conflict(capsys, tmp_path):
    manifest = tmp_path / "cat.txt"
    manifest.write_text("sym:4\n")
    code, _, err = run_cli(
        capsys, "verify", "a", "sym:5", "--manifest", str(manifest)
    )
    assert code == 2 and "not both" in err


@pytest.mark.parametrize("specs", [[], ["sym:3"]])
def test_cli_verify_empty_manifest_path_is_usage_error(capsys, specs):
    # an empty --manifest is given, not absent: it neither falls back to
    # the default catalog nor lets the specs through
    code, out, err = run_cli(capsys, "verify", "a", *specs, "--manifest", "")
    assert code == 2 and out == ""
    assert ("not both" in err) == bool(specs)
    # the message names the flag, not the working directory that Path("") is
    assert "--manifest" in err and "Is a directory" not in err


def test_cli_verify_handles_trivial_group(capsys):
    code, out, _ = run_cli(capsys, "verify", "all", "sym:1", "cyclic:1")
    assert code == 0
    assert "0 failed" in out


# ── README ──────────────────────────────────────────────────────────

def _readme_commands():
    """(argv, value) for each ``abelmax`` line of the bash block under
    README's "## Command line", where value is the comment's leading run
    of numbers, or None."""
    text = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```bash\n", 1)[1].split("```", 1)[0]
    commands = []
    for line in block.splitlines():
        command, _, comment = line.partition("#")
        program, *argv = shlex.split(command)
        assert program == "abelmax", line
        value = re.match(r"[\d.]+(?: [\d.]+)*(?=  |$)", comment.strip())
        commands.append((argv, value and value.group()))
    return commands


_README_COMMANDS = _readme_commands()


@pytest.mark.parametrize(
    "argv, value", _README_COMMANDS, ids=[" ".join(argv) for argv, _ in _README_COMMANDS]
)
def test_readme_command_examples_run(capsys, monkeypatch, argv, value):
    monkeypatch.chdir(Path(__file__).parents[1])
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    if value is not None:
        assert out == value + "\n"


def test_readme_command_examples_are_all_read():
    assert len(_README_COMMANDS) == 11
    assert [value for _, value in _README_COMMANDS if value] == [
        "120", "7", "86400", "1.00380173329", "4 6 10"
    ]
