"""Exact modular arithmetic over odd prime moduli.

Everything here is pure and deterministic; residues are plain ints reduced
into [0, m).
"""

import struct

# The one bound on p, checked by is_prime on every route that reads a p:
# the sieve allocates --max-p bytes, a row holds (p - 3) / 2 entries, and
# trial division stops below 46,341.
MODULUS_LIMIT = 1 << 31

# From this length on the decimal product beats the Kronecker one.  Cyclic
# products of equal lengths n, p the least prime >= 2n + 1, best of 20-60
# interleaved runs on a 2-vCPU x86-64 host with CPython 3.11, Kronecker
# against decimal: 0.62 / 1.70 ms at n = 999, 3.23 / 3.60 at 3,000,
# 6.11 / 7.09 at 4,500, 7.38 / 7.64 at 5,000, 8.06 / 8.13 at 5,300,
# 8.59 / 8.26 at 5,500, 9.70 / 8.86 at 6,000, and 38.1 / 24.7 ms at
# p = 24,989.
_DECIMAL_CUTOFF = 5300


def is_prime(n: int) -> bool:
    """Primality by trial division, for n <= 2^31."""
    if n > MODULUS_LIMIT:
        raise ValueError(f"p must be at most 2^31 = {MODULUS_LIMIT}, got {n}")
    return n > 1 and factorize(n) == {n: 1}


def require_odd_prime(p: int) -> int:
    if p < 3 or not is_prime(p):
        raise ValueError(f"{p} is not an odd prime")
    return p


def factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division; is_prime uses it up to 2^31."""
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


def _convolution_kronecker(u: list[int], v: list[int], p: int, width: int) -> list[int]:
    # Pack each sequence into one big integer, one coefficient per slot of
    # width bytes, so the integer product carries them without carries
    # between slots, then fold slot n + m of the product onto slot m.  A
    # folded slot sums exactly n products, so it stays within the caller's
    # bound n (p-1)^2 < 2^64 that sized the slots, and no carry crosses one.
    # struct's "<Q" words and strided byte copies do the per-coefficient work in C.
    n = len(u)
    prod = _pack_slots(u, width) * _pack_slots(v, width)
    bits = 8 * width * n
    folded = ((prod & ((1 << bits) - 1)) + (prod >> bits)).to_bytes(width * n, "little")
    words = bytearray(8 * n)
    for j in range(width):
        words[j::8] = folded[j::width]
    return [c % p for c in struct.unpack(f"<{n}Q", words)]


def _pack_slots(coeffs: list[int], width: int) -> int:
    # the low width bytes of each little-endian 64-bit word, back to back
    raw = struct.pack(f"<{len(coeffs)}Q", *coeffs)
    slots = bytearray(width * len(coeffs))
    for j in range(width):
        slots[j::width] = raw[j::8]
    return int.from_bytes(slots, "little")


def _convolution_decimal(u: list[int], v: list[int], p: int, width: int) -> list[int]:
    # imported here, as only long products need it
    from decimal import MAX_EMAX, Context, Decimal, Inexact, Rounded

    # The same substitution in base 10^width, multiplied by libmpdec, whose
    # number-theoretic transform beats CPython's Karatsuba on long operands.
    # Coefficients go in and come out as zero-padded width-digit slices of
    # decimal strings (most significant slot first), so no long int is ever
    # converted to or from str, which is quadratic in CPython 3.11.  The top
    # n - 1 slots of the product are split off its digit string and added
    # back onto the low n, the same fold as above.  The context is exact: a
    # result too long for prec would raise, not round.
    n = len(u)
    slot = f"%0{width}d"
    a = Decimal(slot * n % tuple(reversed(u)))
    b = Decimal(slot * n % tuple(reversed(v)))
    ctx = Context(prec=(2 * n - 1) * width, Emax=MAX_EMAX, traps=[Inexact, Rounded])
    digits = str(ctx.multiply(a, b)).zfill((2 * n - 1) * width)
    split = (n - 1) * width
    folded = ctx.add(Decimal(digits[:split] or 0), Decimal(digits[split:]))
    digits = str(folded).zfill(n * width)
    out = [int(digits[i:i + width]) % p for i in range(0, n * width, width)]
    out.reverse()
    return out


def convolution_mod(u: list[int], v: list[int], p: int) -> list[int]:
    """Cyclic convolution mod p of two sequences of one length n:
    c_m = sum of u_i v_j over i + j == m (mod n), for m < n.

    u, v and the result are residues, ints in [0, p); on those it is
    bit-exact with that double sum, and the Kronecker and decimal products
    only compute it faster.  Raises ValueError unless u and v are nonempty
    of equal length.
    """
    n = len(u)
    if n == 0 or len(v) != n:
        raise ValueError("cyclic convolution requires nonempty sequences of equal length")
    bound = n * (p - 1) * (p - 1)  # no folded value exceeds it
    if n < _DECIMAL_CUTOFF and bound < 1 << 64:
        return _convolution_kronecker(u, v, p, (bound.bit_length() + 7) // 8)
    return _convolution_decimal(u, v, p, len(str(bound)))
