import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from cyclopair import modmath
from cyclopair.bernoulli import _sieve_primes
from cyclopair.modmath import (
    _DECIMAL_CUTOFF,
    _FOUR_POINT_CUTOFF,
    _convolution_decimal,
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


def widths(n, p):
    """Kronecker slot bytes and decimal slot digits for length n mod p."""
    bound = n * (p - 1) ** 2
    return (bound.bit_length() + 7) // 8, len(str(bound))


def test_convolution_examples():
    assert convolution_mod([1, 1], [1, 1], 5) == [2, 2]
    assert convolution_mod([3], [4], 7) == [5]
    # c_0 = 1*4 + 2*6 + 3*5, c_1 = 1*5 + 2*4 + 3*6, c_2 = 1*6 + 2*5 + 3*4
    assert convolution_mod([1, 2, 3], [4, 5, 6], 7) == [3, 3, 0]
    assert convolution_mod([6, 1, 0, 2], [1, 0, 0, 0], 7) == [6, 1, 0, 2]


@pytest.mark.parametrize("u, v", [
    ([], []), ([], [1]), ([1], []), ([1, 2, 3], [4, 5]), ([1], [1, 2]),
    ([0] * (_DECIMAL_CUTOFF + 1), [0] * _DECIMAL_CUTOFF),
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
    # at p = 2^31 - 1 the slot bound needs more than 64 bits from n = 2 on,
    # which sends every such length to the decimal path; residue p - 1 makes
    # the largest products there
    p = 2**31 - 1
    rng = random.Random(31)
    for n in (9, 40, 130):
        u = [rng.randrange(p) for _ in range(n)]
        v = [rng.choice((p - 1, 0, 1, rng.randrange(p))) for _ in range(n)]
        assert (n * (p - 1) ** 2).bit_length() > 64
        assert convolution_mod(u, v, p) == cyclic_oracle(u, v, p)


# one prime per Kronecker slot width from 1 to 8 bytes at lengths up to 40
SLOT_PRIMES = SMALL_PRIMES + [65537, 1048573, 16777213, 268435399, 2**31 - 1]


def test_kronecker_and_decimal_paths_match_oracle():
    # each fast path on its own, at short lengths and every slot width
    rng = random.Random(1500)
    seen = set()
    for _ in range(400):
        p = rng.choice(SLOT_PRIMES)
        n = rng.randint(1, 40)
        u = [rng.randrange(p) for _ in range(n)]
        v = [rng.choice((0, 1, p - 1, rng.randrange(p))) for _ in range(n)]
        expected = cyclic_oracle(u, v, p)
        slot_bytes, slot_digits = widths(n, p)
        assert _convolution_decimal(u, v, p, slot_digits) == expected
        if slot_bytes <= 8:
            seen.add(slot_bytes)
            assert _convolution_kronecker(u, v, p, slot_bytes) == expected
    # n = 1 at p = 2^31 - 1 is the one-word slot at the top of the range
    p = 2**31 - 1
    assert widths(1, p)[0] == 8
    for a, b in ((p - 1, p - 1), (1, p - 1), (0, 5)):
        assert _convolution_kronecker([a], [b], p, 8) == [a * b % p]
    assert seen == set(range(1, 9))


@pytest.mark.parametrize("width", range(1, 9))
@settings(max_examples=30)
@given(st.integers(min_value=1, max_value=64), st.data())
def test_four_point_product_is_the_single_product(width, n, data):
    # every n mod 4, n < 4 leaving classes empty, and every slot width from
    # 1 to 8 bytes; residues mostly p - 1, so coefficients reach the slot bound
    primes = [p for p in SLOT_PRIMES if widths(n, p)[0] == width]
    assume(primes)
    p = data.draw(st.sampled_from(primes))
    residues = st.lists(st.integers(min_value=0, max_value=4 * p).map(lambda r: min(r, p - 1)),
                        min_size=n, max_size=n)
    u, v = data.draw(residues), data.draw(residues)
    assert _product_four_points(u, v, width) == _pack_slots(u, width) * _pack_slots(v, width)


def test_fast_paths_zero_padding():
    # a delta times v is v: v's top residues are zero, so the product and
    # the folded sum both print shorter than their slots on the decimal path
    for p, n in ((101, 40), (3001, 9), (24989, 300)):
        rng = random.Random(p)
        v = [rng.randrange(p) for _ in range(n - 3)] + [0, 0, 0]
        delta = [1] + [0] * (n - 1)
        slot_bytes, slot_digits = widths(n, p)
        assert cyclic_oracle(delta, v, p) == v
        assert _convolution_kronecker(delta, v, p, slot_bytes) == v
        assert _convolution_decimal(delta, v, p, slot_digits) == v
        assert convolution_mod(delta, v, p) == v


def _record_paths(monkeypatch):
    taken = []
    for name in ("_convolution_kronecker", "_convolution_decimal"):
        def spy(*args, real=getattr(modmath, name), name=name):
            taken.append(name)
            return real(*args)
        monkeypatch.setattr(modmath, name, spy)
    return taken


@pytest.mark.parametrize("n, path", [
    (1, "_convolution_kronecker"),
    (9, "_convolution_kronecker"),
    (_DECIMAL_CUTOFF - 1, "_convolution_kronecker"),
    (_DECIMAL_CUTOFF, "_convolution_decimal"),
    (_DECIMAL_CUTOFF + 1, "_convolution_decimal"),
])
def test_convolution_at_cutoffs(monkeypatch, n, path):
    # p = 3001 keeps every value in one 64-bit word, so the length alone
    # picks the path
    p = 3001
    taken = _record_paths(monkeypatch)
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
    assert taken == [path]
    # the schoolbook oracle in full where it is cheap; at long lengths the
    # other fast path in full and the oracle at the ends and 60 random m
    ms = sorted({m % n for m in (0, 1, n - 2, n - 1, *rng.sample(range(n), min(n, 60)))})
    assert [got[m] for m in ms] == cyclic_oracle(u, v, p, ms)
    slot_bytes, slot_digits = widths(n, p)
    if path == "_convolution_decimal":
        assert got == _convolution_kronecker(u, v, p, slot_bytes)
    elif path == "_convolution_kronecker":
        assert got == _convolution_decimal(u, v, p, slot_digits)
    if n <= 16:
        assert got == cyclic_oracle(u, v, p)


@pytest.mark.parametrize("n, four_points", [
    (_FOUR_POINT_CUTOFF - 1, False),
    (_FOUR_POINT_CUTOFF, True),
    (_DECIMAL_CUTOFF - 1, True),
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
    assert got == _convolution_decimal(u, v, p, widths(n, p)[1])


@pytest.mark.parametrize("p, n", [
    (7, 8), (3001, 13), (24989, _DECIMAL_CUTOFF + 3)])
def test_convolution_zero_operand(p, n):
    rng = random.Random(3)
    v = [rng.randrange(p) for _ in range(n)]
    zero = [0] * n
    assert convolution_mod(zero, v, p) == zero
    assert convolution_mod(v, zero, p) == zero
    assert convolution_mod(zero, zero, p) == zero
    slot_bytes, slot_digits = widths(n, p)
    assert _convolution_kronecker(zero, v, p, slot_bytes) == zero
    assert _convolution_decimal(v, zero, p, slot_digits) == zero


if __name__ == "__main__":
    # the best of 25 interleaved times of the single, four-point and decimal
    # products at every timed length, so that a re-measured cutoff takes
    # one run:
    #   PYTHONPATH=src python tests/test_modmath.py
    # with --check, one round that asserts only that the three agree
    import sys
    import time

    check = sys.argv[1:] == ["--check"]
    print("n\tp\tsingle ms\tfour points ms\tdecimal ms")
    # the lengths the modmath cutoff comments cite
    for n in (249, 450, 500, 1238, 5943, 9006, 9600, 10000, 12494):
        p = next(q for q in range(2 * n + 1, 4 * n + 3) if is_prime(q))
        rng = random.Random(n)
        u, v = ([rng.randrange(p) for _ in range(n)] for _ in range(2))
        slot_bytes, slot_digits = widths(n, p)
        cutoff = modmath._FOUR_POINT_CUTOFF
        routes = {  # the four-point cutoff each runs under, the route, its slot width
            "single": (n + 1, _convolution_kronecker, slot_bytes),
            "four points": (0, _convolution_kronecker, slot_bytes),
            "decimal": (cutoff, _convolution_decimal, slot_digits),
        }
        best = dict.fromkeys(routes, float("inf"))
        results = {}
        try:
            for _ in range(1 if check else 25):
                for name, (four_point_cutoff, route, width) in routes.items():
                    modmath._FOUR_POINT_CUTOFF = four_point_cutoff
                    start = time.perf_counter()
                    results[name] = route(u, v, p, width)
                    best[name] = min(best[name], time.perf_counter() - start)
        finally:
            modmath._FOUR_POINT_CUTOFF = cutoff
        assert results["single"] == results["four points"] == results["decimal"], n
        if check:
            print(f"{n}\t{p}\tagree")
        else:
            print(f"{n}\t{p}\t" + "\t".join(f"{1000 * t:.2f}" for t in best.values()))
