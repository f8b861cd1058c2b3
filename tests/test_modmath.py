import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from cyclopair import modmath
from cyclopair.bernoulli import _sieve_primes
from cyclopair.modmath import (
    _FOUR_POINT_CUTOFF,
    _convolution_kronecker,
    _pack_slots,
    _product_four_points,
    convolution_mod,
    factorize,
    is_prime,
    primitive_root,
    require_odd_prime,
)

SMALL_PRIMES = [3, 5, 7, 11, 13, 37, 101, 157, 1021]


def test_is_prime_small():
    primes_below_60 = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59}
    for n in range(60):
        assert is_prime(n) == (n in primes_below_60)


def test_is_prime_carmichael_and_large():
    assert not is_prime(561)
    assert not is_prime(29341)
    assert is_prime(2_147_483_647)  # 2^31 - 1
    assert not is_prime(2_147_117_569)  # 46337^2, the last trial divisor's square
    with pytest.raises(ValueError):
        is_prime(2_147_483_649)  # 3 * 715827883, above 2^31


def test_is_prime_matches_the_sieve():
    primes = set(_sieve_primes(30_000))
    for n in range(30_000):
        assert is_prime(n) == (n in primes), n


def test_is_prime_up_to_its_cap():
    assert not is_prime(2**31)  # the cap itself is decided
    with pytest.raises(ValueError, match=r"^p must be at most 2\^31 = 2147483648, got 2147483659$"):
        is_prime(2**31 + 11)  # the least prime above it


def test_require_odd_prime():
    assert require_odd_prime(7) == 7
    for bad in (1, 2, 4, 9, 1000):
        with pytest.raises(ValueError):
            require_odd_prime(bad)


def test_factorize():
    assert factorize(36) == {2: 2, 3: 2}
    assert factorize(1) == {}
    assert factorize(9973) == {9973: 1}


def test_primitive_root_examples():
    assert primitive_root(7) == 3
    assert primitive_root(3) == 2
    assert primitive_root(37) == 2


def test_primitive_root_orders_up_to_1000():
    # g has full order iff g^((p-1)/q) != 1 for every prime q | p-1
    for p in range(3, 1001):
        if not is_prime(p):
            continue
        g = primitive_root(p)
        assert pow(g, p - 1, p) == 1
        for q in factorize(p - 1):
            assert pow(g, (p - 1) // q, p) != 1


def cyclic_oracle(u, v, p, ms=None):
    """c_m = sum of u_i v_j over i + j == m (mod n), straight from the
    definition, for every m < n or for the m in ms."""
    n = len(u)
    return [sum(u[i] * v[(m - i) % n] for i in range(n)) % p
            for m in (range(n) if ms is None else ms)]


def slot_width(n, p):
    """Kronecker slot bytes for length n mod p."""
    return ((n * (p - 1) ** 2).bit_length() + 7) // 8


def convolution_from(u, v, p, four_point_cutoff):
    """convolution_mod with the four-point product from length
    four_point_cutoff on: 0 for four points at every length, len(u) + 1
    for the single product."""
    cutoff = modmath._FOUR_POINT_CUTOFF
    modmath._FOUR_POINT_CUTOFF = four_point_cutoff
    try:
        return convolution_mod(u, v, p)
    finally:
        modmath._FOUR_POINT_CUTOFF = cutoff


def test_convolution_examples():
    assert convolution_mod([1, 1], [1, 1], 5) == [2, 2]
    assert convolution_mod([3], [4], 7) == [5]
    # c_0 = 1*4 + 2*6 + 3*5, c_1 = 1*5 + 2*4 + 3*6, c_2 = 1*6 + 2*5 + 3*4
    assert convolution_mod([1, 2, 3], [4, 5, 6], 7) == [3, 3, 0]
    assert convolution_mod([6, 1, 0, 2], [1, 0, 0, 0], 7) == [6, 1, 0, 2]


@pytest.mark.parametrize("u, v", [
    ([], []), ([], [1]), ([1], []), ([1, 2, 3], [4, 5]), ([1], [1, 2]),
    ([0] * 9601, [0] * 9600),
])
def test_convolution_rejects_empty_or_unequal(u, v):
    with pytest.raises(ValueError):
        convolution_mod(u, v, 7)


def test_convolution_matches_oracle_random():
    rng = random.Random(20240817)
    for _ in range(200):
        p = rng.choice(SMALL_PRIMES)
        n = rng.randint(1, 64)
        u = [rng.randrange(p) for _ in range(n)]
        v = [rng.randrange(p) for _ in range(n)]
        assert convolution_mod(u, v, p) == cyclic_oracle(u, v, p)


@given(st.sampled_from([5, 7, 97]), st.data())
def test_convolution_matches_oracle_property(p, data):
    n = data.draw(st.integers(min_value=1, max_value=40))
    coeffs = st.lists(st.integers(min_value=0, max_value=p - 1), min_size=n, max_size=n)
    u, v = data.draw(coeffs), data.draw(coeffs)
    assert convolution_mod(u, v, p) == cyclic_oracle(u, v, p)


def test_convolution_two_word_slots():
    # at p = 2^31 - 1 the slot bound needs more than 64 bits from n = 5 on,
    # so each slot unpacks from a pair of 64-bit words; residue p - 1 makes
    # the largest products there.  n = 600 takes the four-point product.
    p = 2**31 - 1
    rng = random.Random(31)
    for n in (9, 40, 130, 600):
        u = [rng.randrange(p) for _ in range(n)]
        v = [rng.choice((p - 1, 0, 1, rng.randrange(p))) for _ in range(n)]
        assert slot_width(n, p) == 9
        got = convolution_mod(u, v, p)
        if n < _FOUR_POINT_CUTOFF:
            assert got == cyclic_oracle(u, v, p)
        else:
            assert got == convolution_from(u, v, p, n + 1)
            ms = sorted({0, n - 1, *rng.sample(range(n), 60)})
            assert [got[m] for m in ms] == cyclic_oracle(u, v, p, ms)


# one prime per Kronecker slot width from 1 to 9 bytes at lengths up to 40
SLOT_PRIMES = SMALL_PRIMES + [65537, 1048573, 16777213, 268435399, 2**31 - 1]


def test_kronecker_path_matches_oracle_at_every_width():
    # the Kronecker path on its own, at short lengths, at each one's own
    # slot width and at one as wide or wider: p <= 2^31 and n < 2^30 need
    # no more than 12 bytes, which only lengths far past any test reach
    rng = random.Random(1500)
    seen = set()
    for _ in range(400):
        p = rng.choice(SLOT_PRIMES)
        n = rng.randint(1, 40)
        u = [rng.randrange(p) for _ in range(n)]
        v = [rng.choice((0, 1, p - 1, rng.randrange(p))) for _ in range(n)]
        expected = cyclic_oracle(u, v, p)
        slot_bytes = slot_width(n, p)
        for width in {slot_bytes, rng.randint(slot_bytes, 12)}:
            seen.add(width)
            assert _convolution_kronecker(u, v, p, width) == expected
    # n = 1 at p = 2^31 - 1 is the one-word slot at the top of the range
    p = 2**31 - 1
    assert slot_width(1, p) == 8
    for a, b in ((p - 1, p - 1), (1, p - 1), (0, 5)):
        assert _convolution_kronecker([a], [b], p, 8) == [a * b % p]
    assert seen == set(range(1, 13))


@pytest.mark.parametrize("width", range(1, 10))
@settings(max_examples=30)
@given(st.integers(min_value=1, max_value=64), st.data())
def test_four_point_product_is_the_single_product(width, n, data):
    # every n mod 4, n < 4 leaving classes empty, and every slot width from
    # 1 to 9 bytes; residues mostly p - 1, so coefficients reach the slot bound
    primes = [p for p in SLOT_PRIMES if slot_width(n, p) == width]
    assume(primes)
    p = data.draw(st.sampled_from(primes))
    residues = st.lists(st.integers(min_value=0, max_value=4 * p).map(lambda r: min(r, p - 1)),
                        min_size=n, max_size=n)
    u, v = data.draw(residues), data.draw(residues)
    assert _product_four_points(u, v, width) == _pack_slots(u, width) * _pack_slots(v, width)


def test_fast_paths_zero_padding():
    # a delta times v is v: v's top residues are zero, so the top slots of
    # the product are zero, at its own slot width and in 12-byte slots
    for p, n in ((101, 40), (3001, 9), (24989, 300), (24989, 600)):
        rng = random.Random(p)
        v = [rng.randrange(p) for _ in range(n - 3)] + [0, 0, 0]
        delta = [1] + [0] * (n - 1)
        assert cyclic_oracle(delta, v, p) == v
        assert _convolution_kronecker(delta, v, p, slot_width(n, p)) == v
        assert _convolution_kronecker(delta, v, p, 12) == v
        assert convolution_mod(delta, v, p) == v


@pytest.mark.parametrize("n", [1, 9, 9599, 9600, 9601])
def test_convolution_at_cutoffs(n):
    # p = 3001 keeps every value in one 64-bit word; the long lengths, in
    # the four-point band, are checked in full against the single product
    p = 3001
    rng = random.Random(n * 7919)

    def operand():
        # mostly residue p - 1, so the largest values reach the slot bound;
        # the top three are zero, so the top slots of the unfolded product
        # are zero and its str is shorter than the slots
        out = [rng.choice((p - 1, p - 1, p - 1, rng.randrange(p))) for _ in range(n)]
        out[-3:] = [0] * min(n, 3)
        return out

    u, v = operand(), operand()
    got = convolution_mod(u, v, p)
    # the schoolbook oracle in full where it is cheap; at long lengths the
    # single product in full and the oracle at the ends and 60 random m
    ms = sorted({m % n for m in (0, 1, n - 2, n - 1, *rng.sample(range(n), min(n, 60)))})
    assert [got[m] for m in ms] == cyclic_oracle(u, v, p, ms)
    if n <= 16:
        assert got == cyclic_oracle(u, v, p)
    else:
        assert got == convolution_from(u, v, p, n + 1)


@pytest.mark.parametrize("n, four_points", [
    (_FOUR_POINT_CUTOFF - 1, False),
    (_FOUR_POINT_CUTOFF, True),
    (9599, True),
])
def test_convolution_at_four_point_cutoffs(monkeypatch, n, four_points):
    # the Kronecker path's two products, at both edges of the four-point band
    p = 3001
    taken = []
    real = modmath._product_four_points
    monkeypatch.setattr(modmath, "_product_four_points",
                        lambda *args: taken.append(n) or real(*args))
    rng = random.Random(n)
    u, v = ([rng.choice((p - 1, p - 1, p - 1, rng.randrange(p))) for _ in range(n)]
            for _ in range(2))
    got = convolution_mod(u, v, p)
    assert taken == ([n] if four_points else [])
    ms = sorted({0, 1, n - 2, n - 1, *rng.sample(range(n), 60)})
    assert [got[m] for m in ms] == cyclic_oracle(u, v, p, ms)
    # the other product in full
    assert got == convolution_from(u, v, p, n + 1 if four_points else 0)


@pytest.mark.parametrize("p, n", [
    (7, 8), (3001, 13), (24989, 9603)])
def test_convolution_zero_operand(p, n):
    rng = random.Random(3)
    v = [rng.randrange(p) for _ in range(n)]
    zero = [0] * n
    assert convolution_mod(zero, v, p) == zero
    assert convolution_mod(v, zero, p) == zero
    assert convolution_mod(zero, zero, p) == zero
    assert _convolution_kronecker(zero, v, p, slot_width(n, p)) == zero
    assert _convolution_kronecker(v, zero, p, 12) == zero


def test_no_product_loads_decimal():
    # the longest band of the north-star sweep (n = 9,603 at p = 19,207)
    # and slots past 8 bytes (p = 2^31 - 1) run on int and struct alone
    code = ("import sys; from cyclopair.bernoulli import irregular_indices; "
            "from cyclopair.modmath import convolution_mod; "
            "irregular_indices(19207); p = 2**31 - 1; "
            "assert convolution_mod([p - 1] * 600, [p - 1] * 600, p) == [600] * 600; "
            "print(sorted({'decimal', '_decimal'} & set(sys.modules)))")
    # -S, as a .pth file that site runs may import anything
    res = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                         env={**os.environ,
                              "PYTHONPATH": str(Path(modmath.__file__).resolve().parents[1])})
    assert res.returncode == 0, res.stderr
    assert res.stdout == "[]\n"


if __name__ == "__main__":
    # the best of 25 interleaved times of the single and four-point
    # products at every timed length, so that a re-measured cutoff takes
    # one run:
    #   PYTHONPATH=src python tests/test_modmath.py
    # with --check, one round that asserts only that the two agree with
    # each other and with the schoolbook oracle at 20 sampled m
    import time

    check = sys.argv[1:] == ["--check"]
    print("n\tp\tsingle ms\tfour points ms")
    # the lengths the modmath cutoff comment cites
    for n in (249, 450, 500, 1238, 5943, 9006, 9600, 10000, 12494):
        p = next(q for q in range(2 * n + 1, 4 * n + 3) if is_prime(q))
        rng = random.Random(n)
        u, v = ([rng.randrange(p) for _ in range(n)] for _ in range(2))
        routes = {"single": n + 1, "four points": 0}  # the four-point cutoff of each
        best = dict.fromkeys(routes, float("inf"))
        results = {}
        for _ in range(1 if check else 25):
            for name, four_point_cutoff in routes.items():
                start = time.perf_counter()
                results[name] = convolution_from(u, v, p, four_point_cutoff)
                best[name] = min(best[name], time.perf_counter() - start)
        assert results["single"] == results["four points"], n
        if check:
            ms = sorted(rng.sample(range(n), 20))
            assert [results["single"][m] for m in ms] == cyclic_oracle(u, v, p, ms), n
            print(f"{n}\t{p}\tagree")
        else:
            print(f"{n}\t{p}\t" + "\t".join(f"{1000 * t:.2f}" for t in best.values()))
