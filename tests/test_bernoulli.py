import errno
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from cyclopair import __version__, bernoulli, cli, modmath
from cyclopair.bernoulli import (
    IrregularSet,
    _voronoi_value,
    bernoulli_fast_row,
    bernoulli_naive_row,
    bernoulli_row,
    bernoulli_voronoi,
    bernoulli_voronoi_row,
    irregular_indices,
    irregular_sweep,
)
from cyclopair.cache import IrregularCache
from cyclopair.modmath import is_prime, primitive_root
from helpers import zero_indices

REFERENCE_25000 = (
    Path(__file__).resolve().parent.parent / "bench" / "reference" / "irregular-25000.tsv")

# exact small Bernoulli numbers, for the rationality spot checks
EXACT = {2: Fraction(1, 6), 4: Fraction(-1, 30), 6: Fraction(1, 42), 8: Fraction(-1, 30)}


def reduce_mod(f: Fraction, p: int) -> int:
    return f.numerator * pow(f.denominator, -1, p) % p


def test_naive_p7():
    assert bernoulli_naive_row(7) == {2: 6, 4: 3}


def test_naive_p11_regular_and_rational():
    row = bernoulli_naive_row(11)
    assert row[2] == 2  # 1/6 mod 11
    assert 0 not in row.values()
    for k, f in EXACT.items():
        assert row[k] == reduce_mod(f, 11)


def test_rationality_spot_check():
    for p in (11, 13, 17, 19, 23, 31, 43, 61):
        row = bernoulli_naive_row(p)
        for k, f in EXACT.items():
            assert row[k] == reduce_mod(f, p)


def test_naive_p37_unique_zero():
    row = bernoulli_naive_row(37)
    assert zero_indices(row) == (32,)


def test_row_degenerate_primes():
    # B_2 = 1/6 == 1 mod 5: the rows start at p = 5, where every method agrees
    assert bernoulli_naive_row(5) == {2: 1}
    assert bernoulli_fast_row(5) == {2: 1}
    assert bernoulli_voronoi_row(5) == {2: 1}
    with pytest.raises(ValueError):
        bernoulli_naive_row(3)
    with pytest.raises(ValueError):
        bernoulli_naive_row(9)


def test_voronoi_examples():
    assert bernoulli_voronoi(7, 2) == 6
    assert bernoulli_voronoi(37, 32) == 0
    assert bernoulli_voronoi(1217, 784) == 0


def test_voronoi_rejects_bad_k():
    for bad in (3, 0, -2, 36, 40):
        with pytest.raises(ValueError):
            bernoulli_voronoi(37, bad)


def test_voronoi_value_rejects_k_divisible_by_p_minus_1():
    # then t^k = 1 for every unit t, and the base search would never end
    with pytest.raises(ValueError, match="not divisible by p-1"):
        _voronoi_value(7, 6)


def test_voronoi_base_fallback():
    # ord(2) divides 8 mod 17, so k = 8 forces a base > 2
    assert pow(2, 8, 17) == 1
    assert bernoulli_voronoi(17, 8) == bernoulli_naive_row(17)[8]


def test_rows_agree_small():
    for p in (7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 53, 59):
        naive = bernoulli_naive_row(p)
        assert bernoulli_fast_row(p) == naive
        assert bernoulli_voronoi_row(p) == naive


def test_voronoi_row_matches_per_k():
    for p in (13, 37, 101):
        row = bernoulli_voronoi_row(p)
        for k in row:
            assert bernoulli_voronoi(p, k) == row[k]


def test_fast_matches_voronoi_p1009():
    # n = 504 takes the Kronecker product, and n even needs no twist
    assert bernoulli_fast_row(1009) == bernoulli_voronoi_row(1009)


def test_fast_matches_voronoi_200_to_500():
    # both parities of n (p == 1 and 3 mod 4) and the large primitive roots
    # 311 (g = 17), 409 (21), 439 (15), 457 and 479 (13)
    primes = [p for p in range(201, 500, 2) if is_prime(p)]
    assert {p % 4 for p in primes} == {1, 3}
    assert [primitive_root(p) for p in (311, 409, 439, 457, 479)] == [17, 21, 15, 13, 13]
    for p in primes:
        assert bernoulli_fast_row(p) == bernoulli_voronoi_row(p), p


def test_fast_matches_voronoi_p5881():
    # g = 31, the largest primitive root of any p < 25,000
    assert primitive_root(5881) == 31
    row = bernoulli_fast_row(5881)
    for k in (2, 4, 1000, 2940, 4402, 5878):
        assert row[k] == bernoulli_voronoi(5881, k), k


def test_fast_p101():
    assert bernoulli_fast_row(101)[68] == 0


def test_fast_p9829_paper_indices():
    row = bernoulli_fast_row(9829)
    assert row[4562] == 0
    assert row[7548] == 0


def test_sweep_zeros_match_fast_row_below_3500():
    # the sweep reads its zeros from the unscaled sums T_m, for both
    # parities of n
    for p in range(5, 3500, 2):
        if is_prime(p):
            assert irregular_indices(p).indices == zero_indices(bernoulli_fast_row(p)), p


@pytest.mark.parametrize("p, indices", [
    (10069, (5808, 8684)),        # p == 1 mod 4: n even, no twist
    (10463, (158, 1862, 9500)),   # p == 3 mod 4: n odd, twisted
    (10531, (2172, 3804)),
])
def test_sweep_zeros_match_voronoi_above_10000(p, indices):
    irr = irregular_indices(p)
    assert irr.indices == indices
    for k in indices:
        assert bernoulli_voronoi(p, k) == 0
    rng = random.Random(p)
    for k in rng.sample([k for k in range(2, p - 2, 2) if k not in indices], 20):
        assert bernoulli_voronoi(p, k) != 0, k


def test_voronoi_sums_hand_the_product_residues(monkeypatch):
    # convolution_mod takes residues and does not reduce them again, so
    # every operand its callers build must already lie in [0, p)
    seen = []
    real = bernoulli.convolution_mod

    def spy(u, v, p):
        seen.append(p)
        assert type(u) is list and type(v) is list
        assert len(u) == len(v) == (p - 1) // 2
        assert all(type(c) is int and 0 <= c < p for c in u + v), p
        return real(u, v, p)

    monkeypatch.setattr(bernoulli, "convolution_mod", spy)
    list(irregular_sweep(3000))  # in this process: the Kronecker path
    assert (10601 - 1) // 2 == modmath._DECIMAL_CUTOFF
    irregular_indices(10601)  # the decimal path
    bernoulli_fast_row(1217)
    assert seen == [p for p in range(7, 3000) if is_prime(p)] + [10601, 1217]


@pytest.mark.parametrize("p, path", [
    (1019, "_convolution_kronecker"),  # n = 509
    (10663, "_convolution_decimal"),   # n = 5331, R = {9430, 9788}
])
def test_fast_matches_voronoi_odd_n(monkeypatch, p, path):
    # odd n is cyclic only through the twist g^(t m); without it every sum
    # but T_0 would be wrong
    n = (p - 1) // 2
    assert n % 2 == 1
    taken = []
    real = getattr(modmath, path)

    def spy(*args):
        taken.append(path)
        return real(*args)

    monkeypatch.setattr(modmath, path, spy)
    row = bernoulli_fast_row(p)
    assert taken == [path]
    if p < 2000:
        assert row == bernoulli_voronoi_row(p)
        return
    assert zero_indices(row) == (9430, 9788)
    rng = random.Random(p)
    for k in [2, 4, p - 5, p - 3] + rng.sample(range(6, p - 5, 2), 20):
        assert row[k] == bernoulli_voronoi(p, k), k


def test_fast_row_p24989_converts_no_long_int_to_str():
    # int <-> str is quadratic and capped by int_max_str_digits: the product
    # must never go through it
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        row = bernoulli_fast_row(24989)
    finally:
        sys.set_int_max_str_digits(old)
    assert len(row) == 12493
    for k in (2, 4, 12492, 24986):
        assert row[k] == bernoulli_voronoi(24989, k), k


def test_bernoulli_row_dispatch():
    assert bernoulli_row(7, "naive") == bernoulli_row(7, "fast")
    with pytest.raises(ValueError):
        bernoulli_row(7, "magic")


def kummer_pairs(p: int, row: dict[int, int], shift: int = 1):
    """Cross-check data for the Kummer congruence B_k/k == B_k'/k' mod p
    with k' = k + shift*(p-1), for the row {k: B_k mod p}; yields
    (k, lhs, rhs)."""
    for k in sorted(row):
        k2 = k + shift * (p - 1)
        lhs = row[k] * pow(k, -1, p) % p
        rhs = _voronoi_value(p, k2) * pow(k2, -1, p) % p
        yield k, lhs, rhs


def test_kummer_congruence_smoke():
    # B_k / k == B_{k + (p-1)} / (k + (p-1)) mod p
    for p in (11, 37, 101, 157, 199):
        row = bernoulli_fast_row(p)
        for _, lhs, rhs in kummer_pairs(p, row):
            assert lhs == rhs


def test_irregular_indices_examples():
    assert irregular_indices(11).indices == ()
    assert irregular_indices(5).indices == ()
    irr = irregular_indices(1217)
    assert irr.r == 3
    assert {784, 866} <= set(irr.indices)
    assert irregular_indices(7069) == IrregularSet(7069, (1478, 2570))


def test_sweep_small():
    out = list(irregular_sweep(40))
    assert [irr.p for irr in out] == [7, 11, 13, 17, 19, 23, 29, 31, 37]
    assert {irr.p: irr.indices for irr in out}[37] == (32,)
    assert all(irr.indices == () for irr in out if irr.p != 37)


def test_sweep_smallest():
    out = list(irregular_sweep(8))
    assert out == [IrregularSet(7, ())]


def test_sweep_jobs_deterministic():
    one = list(irregular_sweep(300, jobs=1))
    two = list(irregular_sweep(300, jobs=2))
    eight = list(irregular_sweep(300, jobs=8))
    assert one == two == eight


def test_sweep_rejects_bad_jobs():
    with pytest.raises(ValueError):
        list(irregular_sweep(40, jobs=0))


def test_sweep_cache_roundtrip(tmp_path):
    cache = IrregularCache(tmp_path)
    first = list(irregular_sweep(200, cache=cache))
    assert cache.load()[37] == (32,)
    # second run must reuse the cache and agree
    second = list(irregular_sweep(200, cache=cache))
    assert first == second


def test_sweep_one_prime_left_runs_in_process(tmp_path, monkeypatch):
    # a cache lacking one prime leaves one task: jobs=8 forks no child for it
    cache = IrregularCache(tmp_path)
    full = list(irregular_sweep(200, cache=cache))
    entries = cache.load()

    def no_fork():
        raise AssertionError("a child was forked")

    monkeypatch.setattr(os, "fork", no_fork)
    cache.store({p: k for p, k in entries.items() if p != 157})
    assert list(irregular_sweep(200, jobs=8, cache=cache)) == full
    assert cache.load() == entries
    # with two primes left the sweep forks, so the patch does take effect
    cache.store({p: k for p, k in entries.items() if p not in (157, 199)})
    with pytest.raises(AssertionError, match="child was forked"):
        list(irregular_sweep(200, jobs=8, cache=cache))


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _fail_at_157(monkeypatch, tail=""):
    # the forked children inherit the patch
    real = bernoulli.irregular_indices

    def failing(p):
        if p == 157:
            raise ZeroDivisionError("injected fault at p = 157" + tail)
        return real(p)

    monkeypatch.setattr(bernoulli, "irregular_indices", failing)


def _fail_at_157_not_ascii(monkeypatch):
    _fail_at_157(monkeypatch, " \u2192")


def _children_die_at_once(monkeypatch):
    # each child exits before reading a task; the parent waits until it has
    # (leaving it for the sweep to reap), so its first task write breaks
    real = os.fork

    def fork():
        pid = real()
        if pid == 0:
            os._exit(3)
        os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)
        return pid

    monkeypatch.setattr(os, "fork", fork)


def test_sweep_worker_failure_raises_and_leaves_no_child(tmp_path, monkeypatch, capfd):
    _fail_at_157(monkeypatch)
    cache = IrregularCache(tmp_path)
    with pytest.raises(RuntimeError, match="exit status 1"):
        list(irregular_sweep(300, jobs=2, cache=cache))
    err = capfd.readouterr().err
    assert "Traceback" in err and "ZeroDivisionError: injected fault at p = 157" in err
    assert not cache.path.exists()
    _assert_no_child_left()


def test_sweep_children_dead_before_any_task_raise_runtime_error(tmp_path, monkeypatch):
    # the parent's BrokenPipeError on the task pipe is not let through
    _children_die_at_once(monkeypatch)
    cache = IrregularCache(tmp_path)
    with pytest.raises(RuntimeError, match="exit status 3"):
        list(irregular_sweep(300, jobs=2, cache=cache))
    assert not cache.path.exists()
    _assert_no_child_left()


_CLI_WITH_FAULT = """
import sys
import pytest
from cyclopair import cli
import test_bernoulli
with pytest.MonkeyPatch.context() as m:
    test_bernoulli.{fault}(m)
    status = cli.main(["irregular", "--max-p", "300", "--jobs", "2"])
print("stdout still open")
sys.exit(status)
"""


def _run_cli_with_fault(fault: str, **env: str) -> subprocess.CompletedProcess:
    path = os.pathsep.join([str(Path(bernoulli.__file__).parents[1]), str(Path(__file__).parent)])
    return subprocess.run(
        [sys.executable, "-c", _CLI_WITH_FAULT.format(fault=fault)],
        capture_output=True, env={**os.environ, "PYTHONPATH": path, **env})


@pytest.mark.parametrize("fault", ["_fail_at_157", "_children_die_at_once"])
def test_cli_worker_failure_is_an_internal_error(fault):
    # exit 1 with a traceback, not 2, and not the closed-stdout exit either:
    # stdout stays usable
    res = _run_cli_with_fault(fault)
    assert res.returncode == 1, res.stderr.decode()
    assert b"RuntimeError: worker " in res.stderr
    assert res.stdout.endswith(b"stdout still open\n")


def test_cli_worker_traceback_whole_in_an_ascii_locale():
    # the worker's stderr encodes ASCII here; a non-ASCII fault message must
    # not cut its traceback short of the exception line
    res = _run_cli_with_fault(
        "_fail_at_157_not_ascii", LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0")
    assert res.returncode == 1, res.stderr.decode()
    assert b"ZeroDivisionError: injected fault at p = 157" in res.stderr


def _fork_fails(monkeypatch):
    def fork():
        raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", fork)


def _third_pipe_fails(monkeypatch):
    # the task pipe and the first child's result pipe open, and that child
    # is running, when the second child's pipe cannot be made
    real, calls = os.pipe, []

    def pipe():
        calls.append(None)
        if len(calls) == 3:
            raise OSError(errno.EMFILE, "Too many open files")
        return real()

    monkeypatch.setattr(os, "pipe", pipe)


@pytest.mark.parametrize("fault", [_fork_fails, _third_pipe_fails])
def test_cli_worker_start_failure_is_an_internal_error(fault, monkeypatch, capsys):
    # the OS's refusal is no usage error: exit 1, not 2, and nothing leaks
    monkeypatch.delenv(cli.CACHE_ENV_VAR, raising=False)
    fds = os.listdir("/proc/self/fd")
    fault(monkeypatch)
    assert cli.main(["irregular", "--max-p", "300", "--jobs", "2"]) == 1
    assert "RuntimeError: could not start a worker: [Errno" in capsys.readouterr().err
    _assert_no_child_left()
    assert os.listdir("/proc/self/fd") == fds


def test_forked_children_never_flush_the_parents_stdout():
    code = ("import sys\n"
            "from cyclopair.bernoulli import irregular_sweep\n"
            "sys.stdout.write('written once\\n')\n"
            "assert len(list(irregular_sweep(200, jobs=2))) == 43\n")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True)
    assert res.returncode == 0, res.stderr.decode()
    assert res.stdout == b"written once\n"


@pytest.mark.parametrize("jobs, n", [(2, 3000), (3, 3000), (8, 3000), (8, 3)])
def test_forked_map_hands_out_every_item_once(monkeypatch, jobs, n):
    # 3,000 items are 12,000 bytes of task records: many 512-byte writes
    forks = []
    real = os.fork

    def counting_fork():
        pid = real()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    items = [7 * i for i in range(n)]
    out = bernoulli._forked_map(lambda x: (x, x * x % 1009, os.getpid()), items, jobs)
    assert sorted(r[:2] for r in out) == [(x, x * x % 1009) for x in items]
    assert len(forks) == min(jobs, n)
    assert {r[2] for r in out} <= set(forks)
    _assert_no_child_left()


def test_sweep_cache_corruption_recovers(tmp_path, capsys):
    cache = IrregularCache(tmp_path)
    list(irregular_sweep(60, cache=cache))
    cache.path.write_text("not a cache\n")
    out = list(irregular_sweep(60, cache=cache))
    assert {irr.p: irr.indices for irr in out}[37] == (32,)
    assert "corrupt" in capsys.readouterr().err


def test_cache_store_ignores_stale_fixed_temp_name(tmp_path, capsys):
    # whatever sits at irregular.tmp (here a directory) must not block the
    # write: each store goes through a temp file of its own
    (tmp_path / "irregular.tmp").mkdir()
    cache = IrregularCache(tmp_path)
    cache.store({37: (32,), 41: ()})
    assert "not writable" not in capsys.readouterr().err
    assert cache.load() == {37: (32,), 41: ()}
    assert sorted(path.name for path in tmp_path.iterdir()) == ["irregular.tmp", "irregular.tsv"]


def test_cache_store_failure_leaves_no_temp_file(tmp_path, capsys):
    (tmp_path / "irregular.tsv").mkdir()  # os.replace onto a directory fails
    IrregularCache(tmp_path).store({37: (32,)})
    assert "not writable" in capsys.readouterr().err
    assert [path.name for path in tmp_path.iterdir()] == ["irregular.tsv"]


@pytest.mark.slow
def test_sweep_25000_matches_reference(sweep_25000):
    # every prime of the session sweep, entry for entry, against the
    # committed benchmark reference (read only, no extra compute)
    reference = {}
    for line in REFERENCE_25000.read_text().splitlines():
        p, _, ks = line.partition("\t")
        reference[int(p)] = () if ks == "-" else tuple(map(int, ks.split(",")))
    assert len(reference) == 2759
    assert {irr.p: irr.indices for irr in sweep_25000} == reference


CACHE_HEADER = f"# cyclopair irregular-cache v1 tool={__version__}\n"


def test_cache_load_accepts_valid_file(tmp_path, capsys):
    cache = IrregularCache(tmp_path)
    cache.path.write_text(CACHE_HEADER + "7\t-\n# hand note\n\n37\t32\n157\t62,110\n")
    assert cache.load() == {7: (), 37: (32,), 157: (62, 110)}
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("text, reason", [
    ("# cyclopair irregular-cache v1 tool=0.0.9\n37\t32\n", "another version"),
    ("37\t32\n", "no cache header"),
    (CACHE_HEADER + "39\t-\n", "39 is not a prime >= 7"),
    (CACHE_HEADER + "5\t-\n", "5 is not a prime >= 7"),
    (CACHE_HEADER + "2147483659\t-\n", "at most 2^31"),
    (CACHE_HEADER + "37\n", "no tab after p"),
    (CACHE_HEADER + "157\t110,62\n", "not sorted, distinct and even"),
    (CACHE_HEADER + "157\t62,62\n", "not sorted, distinct and even"),
    (CACHE_HEADER + "37\t31\n", "not sorted, distinct and even"),
    (CACHE_HEADER + "37\t0\n", "not sorted, distinct and even"),
    (CACHE_HEADER + "37\t36\n", "not sorted, distinct and even"),
    (CACHE_HEADER + "37\t32\n37\t-\n", "listed twice"),
    (CACHE_HEADER + "37\t32\n41\t-", "cut short"),
    # int() takes each of these; store writes none of them
    (CACHE_HEADER + "1_009\t-\n", "'1_009' is not a decimal integer"),
    (CACHE_HEADER + "+7\t-\n", "'+7' is not a decimal integer"),
    (CACHE_HEADER + "\u0667\t-\n", "is not a decimal integer"),  # Arabic-Indic 7
    (CACHE_HEADER + "37\t4, 10\n", "' 10' is not a decimal integer"),
    ("", "no cache header"),
])
def test_cache_load_rejects_whole_file(tmp_path, capsys, text, reason):
    cache = IrregularCache(tmp_path)
    cache.path.write_text(text)
    assert cache.load() == {}
    err = capsys.readouterr().err
    assert reason in err and "recomputing" in err


_STORE_LOOP = """
import ast, sys, time
from cyclopair.cache import IrregularCache
cache, entries = IrregularCache(sys.argv[1]), ast.literal_eval(sys.argv[2])
start = float(sys.argv[3])
time.sleep(max(0.0, start - time.time()))
for _ in range(200):
    cache.store(entries)
"""


def test_cache_concurrent_stores_leave_one_whole_file(tmp_path, capsys):
    # two processes rewrite one cache directory at once, from a common start
    # time: the file left is one writer's set, whole, and no temp file remains
    regular = {p: () for p in range(7, 20_000) if is_prime(p)}
    sets = (regular, {**regular, 37: (32,), 59: (44,), 67: (58,), 101: (68,)})
    start = time.time() + 1.0
    procs = [subprocess.Popen(
        [sys.executable, "-c", _STORE_LOOP, str(tmp_path), repr(entries), str(start)],
        stderr=subprocess.PIPE) for entries in sets]
    errors = [proc.communicate(timeout=120)[1] for proc in procs]
    assert [proc.returncode for proc in procs] == [0, 0]
    assert errors == [b"", b""]
    assert IrregularCache(tmp_path).load() in sets
    assert capsys.readouterr().err == ""
    assert [path.name for path in tmp_path.iterdir()] == ["irregular.tsv"]


def test_sweep_rejects_whole_cache_on_one_bad_entry(tmp_path, capsys):
    # the odd k at 41 discards the file, the plausible but wrong 37 included
    cache = IrregularCache(tmp_path)
    cache.path.write_text(CACHE_HEADER + "37\t-\n41\t3\n")
    out = {irr.p: irr.indices for irr in irregular_sweep(60, cache=cache)}
    assert out[37] == (32,)
    assert "corrupt" in capsys.readouterr().err
    assert cache.load()[37] == (32,)
