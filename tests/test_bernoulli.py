from fractions import Fraction

import pytest

from cyclopair.bernoulli import (
    IrregularSet,
    bernoulli_fast_row,
    bernoulli_naive_row,
    bernoulli_row,
    bernoulli_voronoi,
    bernoulli_voronoi_row,
    irregular_indices,
    irregular_sweep,
    kummer_pairs,
)
from cyclopair.cache import IrregularCache
from cyclopair.modmath import mod_inv

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
    # long enough for the Kronecker product and several Newton doublings
    assert bernoulli_fast_row(1009).values == bernoulli_voronoi_row(1009).values


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
