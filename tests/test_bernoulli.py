from fractions import Fraction
from pathlib import Path

import pytest

from cyclopair import __version__
from cyclopair.bernoulli import (
    BernoulliRow,
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
from cyclopair.modmath import is_prime, mod_inv, primitive_root

REFERENCE_25000 = (
    Path(__file__).resolve().parent.parent / "bench" / "reference" / "irregular-25000.tsv")

# exact small Bernoulli numbers, for the rationality spot checks
EXACT = {2: Fraction(1, 6), 4: Fraction(-1, 30), 6: Fraction(1, 42), 8: Fraction(-1, 30)}


def reduce_mod(f: Fraction, p: int) -> int:
    return f.numerator * mod_inv(f.denominator, p) % p


def test_naive_p7():
    assert bernoulli_naive_row(7).values == {2: 6, 4: 3}


def test_naive_p11_regular_and_rational():
    row = bernoulli_naive_row(11)
    assert row.values[2] == 2  # 1/6 mod 11
    assert 0 not in row.values.values()
    for k, f in EXACT.items():
        assert row.values[k] == reduce_mod(f, 11)


def test_rationality_spot_check():
    for p in (11, 13, 17, 19, 23, 31, 43, 61):
        row = bernoulli_naive_row(p)
        for k, f in EXACT.items():
            assert row.values[k] == reduce_mod(f, p)


def test_naive_p37_unique_zero():
    row = bernoulli_naive_row(37)
    assert row.zero_indices() == (32,)


def test_row_degenerate_primes():
    assert bernoulli_naive_row(5).values == {}
    assert bernoulli_fast_row(5).values == {}
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


def test_voronoi_base_fallback():
    # ord(2) divides 8 mod 17, so k = 8 forces a base > 2
    assert pow(2, 8, 17) == 1
    assert bernoulli_voronoi(17, 8) == bernoulli_naive_row(17).values[8]


def test_rows_agree_small():
    for p in (7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 53, 59):
        naive = bernoulli_naive_row(p)
        assert bernoulli_fast_row(p).values == naive.values
        assert bernoulli_voronoi_row(p).values == naive.values


def test_voronoi_row_matches_per_k():
    for p in (13, 37, 101):
        row = bernoulli_voronoi_row(p)
        for k in row.values:
            assert bernoulli_voronoi(p, k) == row.values[k]


def test_fast_matches_voronoi_p1009():
    # n = 504 is far past the Kronecker cutoff, and n even takes the cyclic fold
    assert bernoulli_fast_row(1009).values == bernoulli_voronoi_row(1009).values


def test_fast_matches_voronoi_200_to_500():
    # both folds (p == 1 and 3 mod 4) and the large primitive roots
    # 311 (g = 17), 409 (21), 439 (15), 457 and 479 (13)
    primes = [p for p in range(201, 500, 2) if is_prime(p)]
    assert {p % 4 for p in primes} == {1, 3}
    assert [primitive_root(p) for p in (311, 409, 439, 457, 479)] == [17, 21, 15, 13, 13]
    for p in primes:
        assert bernoulli_fast_row(p).values == bernoulli_voronoi_row(p).values, p


def test_fast_matches_voronoi_p5881():
    # g = 31, the largest primitive root of any p < 25,000
    assert primitive_root(5881) == 31
    row = bernoulli_fast_row(5881)
    for k in (2, 4, 1000, 2940, 4402, 5878):
        assert row.values[k] == bernoulli_voronoi(5881, k), k


def test_fast_p101():
    assert bernoulli_fast_row(101).values[68] == 0


def test_fast_p9829_paper_indices():
    row = bernoulli_fast_row(9829)
    assert row.values[4562] == 0
    assert row.values[7548] == 0


def test_bernoulli_row_dispatch():
    assert bernoulli_row(7, "naive").values == bernoulli_row(7, "fast").values
    with pytest.raises(ValueError):
        bernoulli_row(7, "magic")


def kummer_pairs(row: BernoulliRow, shift: int = 1):
    """Cross-check data for the Kummer congruence B_k/k == B_k'/k' mod p
    with k' = k + shift*(p-1); yields (k, lhs, rhs)."""
    p = row.p
    for k in sorted(row.values):
        k2 = k + shift * (p - 1)
        lhs = row.values[k] * mod_inv(k, p) % p
        rhs = _voronoi_value(p, k2) * mod_inv(k2, p) % p
        yield k, lhs, rhs


def test_kummer_congruence_smoke():
    # B_k / k == B_{k + (p-1)} / (k + (p-1)) mod p
    for p in (11, 37, 101, 157, 199):
        row = bernoulli_fast_row(p)
        for _, lhs, rhs in kummer_pairs(row):
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
    (CACHE_HEADER + "37\n", "no tab after p"),
    (CACHE_HEADER + "157\t110,62\n", "not sorted, distinct and even"),
    (CACHE_HEADER + "157\t62,62\n", "not sorted, distinct and even"),
    (CACHE_HEADER + "37\t31\n", "not sorted, distinct and even"),
    (CACHE_HEADER + "37\t0\n", "not sorted, distinct and even"),
    (CACHE_HEADER + "37\t36\n", "not sorted, distinct and even"),
    (CACHE_HEADER + "37\t32\n37\t-\n", "listed twice"),
    (CACHE_HEADER + "37\t32\n41\t-", "cut short"),
    ("", "no cache header"),
])
def test_cache_load_rejects_whole_file(tmp_path, capsys, text, reason):
    cache = IrregularCache(tmp_path)
    cache.path.write_text(text)
    assert cache.load() == {}
    err = capsys.readouterr().err
    assert reason in err and "recomputing" in err


def test_sweep_rejects_whole_cache_on_one_bad_entry(tmp_path, capsys):
    # the odd k at 41 discards the file, the plausible but wrong 37 included
    cache = IrregularCache(tmp_path)
    cache.path.write_text(CACHE_HEADER + "37\t-\n41\t3\n")
    out = {irr.p: irr.indices for irr in irregular_sweep(60, cache=cache)}
    assert out[37] == (32,)
    assert "corrupt" in capsys.readouterr().err
    assert cache.load()[37] == (32,)
