"""Exact modular arithmetic over odd prime moduli.

Everything here is pure and deterministic; residues are plain ints reduced
into [0, m).
"""

import sys
from array import array
from decimal import MAX_EMAX, Context, Decimal, Inexact, Rounded

# Smallest composite strong pseudoprime to bases 2, 3, 5, 7 is 3,215,031,751
# (Jaeschke), so these bases decide primality for every n below that bound,
# which covers the supported modulus range n < 2^31.
_MR_BASES = (2, 3, 5, 7)
_MR_LIMIT = 3_215_031_751

# Below this length the schoolbook convolution beats the packing overhead.
_KRONECKER_CUTOFF = 16
# From this length on the decimal product beats the 64-bit Kronecker one.
# Equal lengths n, p the least prime >= 2n + 1, best of 123 runs on a 2-vCPU
# x86-64 host with CPython 3.11, Kronecker against decimal: 1.71 / 1.82 ms
# at n = 1,300, 1.91 / 1.78 at 1,400, 2.13 / 1.88 at 1,500, 3.44 / 3.06 at
# 2,000, 18.0 / 8.7 at 6,000, and 56.7 / 24.1 ms at p = 24,989.
_DECIMAL_CUTOFF = 1500

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
    # Pack each sequence into one big integer, one coefficient per 64-bit
    # word (the caller checks that the exact bound on every convolution value
    # fits), so the integer product carries them without carries between
    # slots.  array('Q') does the per-coefficient packing and unpacking in C.
    n = len(u) + len(v) - 1
    prod = _pack_words(u, p) * _pack_words(v, p)
    raw = array("Q", prod.to_bytes(8 * n, "little"))
    if _BIG_ENDIAN:
        raw.byteswap()
    return [c % p for c in raw]


def _pack_words(coeffs: list[int], p: int) -> int:
    slots = array("Q", [c % p for c in coeffs])
    if _BIG_ENDIAN:
        slots.byteswap()
    return int.from_bytes(slots, "little")


def _convolution_decimal(u: list[int], v: list[int], p: int, width: int) -> list[int]:
    # The same substitution in base 10^width, multiplied by libmpdec, whose
    # number-theoretic transform beats CPython's Karatsuba on long operands.
    # Coefficients go in and come out as zero-padded width-digit slices of
    # decimal strings (most significant slot first), so no long int is ever
    # converted to or from str, which is quadratic in CPython 3.11.  The
    # context is exact: a product too long for prec would raise, not round.
    n = len(u) + len(v) - 1
    slot = f"%0{width}d"
    a = Decimal(slot * len(u) % tuple([c % p for c in reversed(u)]))
    b = Decimal(slot * len(v) % tuple([c % p for c in reversed(v)]))
    ctx = Context(prec=n * width, Emax=MAX_EMAX, traps=[Inexact, Rounded])
    digits = str(ctx.multiply(a, b)).zfill(n * width)
    out = [int(digits[i:i + width]) % p for i in range(0, n * width, width)]
    out.reverse()
    return out


def convolution_mod(u: list[int], v: list[int], p: int) -> list[int]:
    """Full convolution of coefficient sequences mod p.

    Bit-exact with the schoolbook double loop on every input; the Kronecker
    and decimal paths are only speedups.
    """
    if not u or not v:
        raise ValueError("convolution requires nonempty sequences")
    short = min(len(u), len(v))
    if short <= _KRONECKER_CUTOFF:
        return _convolution_schoolbook([a % p for a in u], [b % p for b in v], p)
    bound = short * (p - 1) * (p - 1)  # no convolution value exceeds it
    if short < _DECIMAL_CUTOFF and bound < 1 << 64:
        return _convolution_kronecker(u, v, p)
    return _convolution_decimal(u, v, p, len(str(bound)))
