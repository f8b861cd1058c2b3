"""Exact modular arithmetic over odd prime moduli.

Everything here is pure and deterministic; residues are plain ints reduced
into [0, m).
"""

import sys
from array import array

# Smallest composite strong pseudoprime to bases 2, 3, 5, 7 is 3,215,031,751
# (Jaeschke), so these bases decide primality for every n below that bound,
# which covers the supported modulus range n < 2^31.
_MR_BASES = (2, 3, 5, 7)
_MR_LIMIT = 3_215_031_751

# Below this length the schoolbook convolution beats the packing overhead.
_KRONECKER_CUTOFF = 16

_BIG_ENDIAN = sys.byteorder == "big"


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < 3,215,031,751."""
    if n >= _MR_LIMIT:
        raise ValueError(f"primality test not supported for n >= {_MR_LIMIT}")
    if n < 2:
        return False
    for q in _MR_BASES:
        if n == q:
            return True
        if n % q == 0:
            return False
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def require_odd_prime(p: int) -> int:
    if p < 3 or not is_prime(p):
        raise ValueError(f"{p} is not an odd prime")
    return p


def mod_inv(a: int, p: int) -> int:
    """Inverse of a modulo the odd prime p."""
    a %= p
    if a == 0:
        raise ValueError(f"0 is not invertible mod {p}")
    return pow(a, p - 2, p)


def factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division; fine for n < 2^31."""
    if n < 1:
        raise ValueError("factorize expects n >= 1")
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def primitive_root(p: int) -> int:
    """Smallest g >= 1 of multiplicative order p-1 mod p."""
    require_odd_prime(p)
    cofactors = [(p - 1) // q for q in factorize(p - 1)]
    g = 2
    while True:
        if all(pow(g, e, p) != 1 for e in cofactors):
            return g
        g += 1


def _convolution_schoolbook(u: list[int], v: list[int], p: int) -> list[int]:
    out = [0] * (len(u) + len(v) - 1)
    for i, a in enumerate(u):
        if a == 0:
            continue
        for j, b in enumerate(v):
            out[i + j] = (out[i + j] + a * b) % p
    return out


def _convolution_kronecker(u: list[int], v: list[int], p: int) -> list[int]:
    # Pack each sequence into one big integer, one coefficient per slot of
    # `words` 64-bit words: wide enough for the exact bound on every
    # convolution value, so the integer product carries them without carries
    # between slots.  array('Q') does the per-coefficient packing and
    # unpacking in C.  One word covers every row with p below about 3e6; two
    # cover every p < 2^32.  The reduced inputs fill the low word of a slot.
    n = len(u) + len(v) - 1
    maxc = min(len(u), len(v)) * (p - 1) * (p - 1)
    words = (maxc.bit_length() + 63) // 64
    prod = _pack_words(u, p, words) * _pack_words(v, p, words)
    raw = array("Q", prod.to_bytes(8 * words * n, "little"))
    if _BIG_ENDIAN:
        raw.byteswap()
    vals = raw[::words]
    for j in range(1, words):
        vals = [lo | hi << (64 * j) for lo, hi in zip(vals, raw[j::words])]
    return [c % p for c in vals]


def _pack_words(coeffs: list[int], p: int, words: int) -> int:
    low = array("Q", [c % p for c in coeffs])
    if words == 1:
        slots = low
    else:
        slots = array("Q", bytes(8 * words * len(coeffs)))
        slots[::words] = low
    if _BIG_ENDIAN:
        slots.byteswap()
    return int.from_bytes(slots, "little")


def convolution_mod(u: list[int], v: list[int], p: int) -> list[int]:
    """Full convolution of coefficient sequences mod p.

    Bit-exact with the schoolbook double loop on every input; the Kronecker
    path is only a speedup.  Inputs longer than the schoolbook cutoff need
    p <= 2^64, so that a reduced coefficient fits in one 64-bit word.
    """
    if not u or not v:
        raise ValueError("convolution requires nonempty sequences")
    if min(len(u), len(v)) <= _KRONECKER_CUTOFF:
        return _convolution_schoolbook([a % p for a in u], [b % p for b in v], p)
    return _convolution_kronecker(u, v, p)
