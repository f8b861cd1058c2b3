import random

import pytest
from hypothesis import given, strategies as st

from cyclopair import modmath
from cyclopair.modmath import (
    _DECIMAL_CUTOFF,
    _KRONECKER_CUTOFF,
    _convolution_decimal,
    _convolution_kronecker,
    _convolution_schoolbook,
    convolution_mod,
    factorize,
    is_prime,
    mod_inv,
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
    assert not is_prime(2_147_483_649)  # 3 * 715827883
    with pytest.raises(ValueError):
        is_prime(3_215_031_751)


def test_require_odd_prime():
    assert require_odd_prime(7) == 7
    for bad in (1, 2, 4, 9, 1000):
        with pytest.raises(ValueError):
            require_odd_prime(bad)


def test_mod_inv_examples():
    assert mod_inv(6, 7) == 6
    assert mod_inv(1, 101) == 1
    assert mod_inv(3, 37) == 25  # 3*25 = 75 = 2*37 + 1


def test_mod_inv_zero_rejected():
    with pytest.raises(ValueError):
        mod_inv(0, 7)
    with pytest.raises(ValueError):
        mod_inv(14, 7)


@given(st.sampled_from(SMALL_PRIMES), st.integers(min_value=1, max_value=10**6))
def test_mod_inv_properties(p, a):
    if a % p == 0:
        a += 1
    inv = mod_inv(a, p)
    assert inv * a % p == 1
    assert mod_inv(inv, p) == a % p


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


def test_convolution_examples():
    assert convolution_mod([1, 1], [1, 1], 5) == [1, 2, 1]
    assert convolution_mod([3], [4], 7) == [5]
    assert convolution_mod([1, 2, 3], [4, 5], 7) == [4, 6, 1, 1]
    with pytest.raises(ValueError):
        convolution_mod([], [1], 7)


def test_convolution_matches_schoolbook_random():
    rng = random.Random(20240817)
    for _ in range(200):
        p = rng.choice(SMALL_PRIMES)
        nu = rng.randint(1, 64)
        nv = rng.randint(1, 64)
        u = [rng.randrange(p) for _ in range(nu)]
        v = [rng.randrange(p) for _ in range(nv)]
        assert convolution_mod(u, v, p) == _convolution_schoolbook(u, v, p)


@given(
    st.sampled_from([5, 7, 97]),
    st.lists(st.integers(min_value=0, max_value=10**6), min_size=1, max_size=40),
    st.lists(st.integers(min_value=0, max_value=10**6), min_size=1, max_size=40),
)
def test_convolution_matches_schoolbook_property(p, u, v):
    expected = _convolution_schoolbook([a % p for a in u], [b % p for b in v], p)
    assert convolution_mod(u, v, p) == expected


def test_convolution_two_word_slots():
    # at p = 2^31 - 1 the slot bound needs more than 64 bits, which sends
    # every length to the decimal path; the inputs are unreduced, negative
    # and far above p
    p = 2**31 - 1
    rng = random.Random(31)
    for nu, nv in ((_KRONECKER_CUTOFF + 1, _KRONECKER_CUTOFF + 1), (40, 75), (130, 33)):
        u = [rng.randrange(-(2**80), 2**80) for _ in range(nu)]
        v = [rng.choice((p - 1, -1, p * 7 + 3, rng.randrange(2**64))) for _ in range(nv)]
        assert (min(nu, nv) * (p - 1) ** 2).bit_length() > 64
        expected = _convolution_schoolbook([a % p for a in u], [b % p for b in v], p)
        assert convolution_mod(u, v, p) == expected


def test_kronecker_and_decimal_paths_match_schoolbook():
    # each fast path on its own, at short lengths and every slot width
    rng = random.Random(1500)
    for _ in range(300):
        p = rng.choice(SMALL_PRIMES + [2**31 - 1])
        nu, nv = rng.randint(1, 40), rng.randint(1, 40)
        u = [rng.randrange(-3 * p, 3 * p) for _ in range(nu)]
        v = [rng.choice((0, -1, p - 1, rng.randrange(-3 * p, 3 * p))) for _ in range(nv)]
        expected = _convolution_schoolbook([a % p for a in u], [b % p for b in v], p)
        bound = min(nu, nv) * (p - 1) ** 2
        assert _convolution_decimal(u, v, p, len(str(bound))) == expected
        if bound < 1 << 64:
            assert _convolution_kronecker(u, v, p) == expected


def _record_paths(monkeypatch):
    taken = []
    for name in ("_convolution_kronecker", "_convolution_decimal"):
        def spy(*args, real=getattr(modmath, name), name=name):
            taken.append(name)
            return real(*args)
        monkeypatch.setattr(modmath, name, spy)
    return taken


@pytest.mark.parametrize("nu, nv", [
    (_DECIMAL_CUTOFF - 1, _DECIMAL_CUTOFF - 1),
    (_DECIMAL_CUTOFF, _DECIMAL_CUTOFF),
    (_DECIMAL_CUTOFF + 1, _DECIMAL_CUTOFF + 1),
    (_DECIMAL_CUTOFF, 2 * _DECIMAL_CUTOFF + 7),
    (2 * _DECIMAL_CUTOFF + 7, _DECIMAL_CUTOFF - 1),
])
def test_convolution_at_decimal_cutoff(monkeypatch, nu, nv):
    # p = 3001 keeps every value in one 64-bit word, so the shorter length
    # alone picks the path
    p = 3001
    taken = _record_paths(monkeypatch)
    rng = random.Random(nu * 7919 + nv)

    def operand(n):
        # mostly residue p - 1, so the largest values reach the slot bound,
        # given unreduced and negative; the top three are zero mod p, so the
        # product's top slots are zero and its str is shorter than the slots
        out = [rng.choice((-1, p - 1, 5 * p - 1, rng.randrange(-10**12, 10**12)))
               for _ in range(n)]
        out[-3:] = [0, p, -p]
        return out

    u, v = operand(nu), operand(nv)
    expected = _convolution_schoolbook([a % p for a in u], [b % p for b in v], p)
    assert expected[-5:] == [0] * 5
    assert convolution_mod(u, v, p) == expected
    short = "_convolution_kronecker" if min(nu, nv) < _DECIMAL_CUTOFF else "_convolution_decimal"
    assert taken == [short]


def test_convolution_decimal_zero_operand():
    p, n = 24989, _DECIMAL_CUTOFF + 3
    v = [random.Random(3).randrange(p) for _ in range(n)]
    for zero in ([0] * n, [p] * n, [-p] * n):
        assert convolution_mod(zero, v, p) == [0] * (2 * n - 1)
        assert convolution_mod(v, zero, p) == [0] * (2 * n - 1)
