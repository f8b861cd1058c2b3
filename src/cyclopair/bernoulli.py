"""Bernoulli numbers modulo p and irregular-index detection.

Three independent routes to the same row B_2, B_4, ..., B_{p-3} mod p:

* ``naive``   -- the binomial recurrence sum_{j<=m} C(m+1,j) B_j = 0 carried
  out in Z/p.  O(p^2), the reference oracle.
* ``voronoi`` -- the Voronoi congruence
  (t^k - 1) B_k / k == t^(k-1) * sum_j j^(k-1) floor(j*t/p)  (mod p).
* ``fast``    -- the same congruence for every k at once, with t = g a
  primitive root (Buhler et al. 2001; Harvey 2010).  Pairing j with p-j and
  writing j = g^a, a < n = (p-1)/2, with k-1 = 2m+1 and Bluestein's
  2am = (a+m)^2 - a^2 - m^2, gives (g^k - 1) B_k / k == g^(k-1-m^2) C_m,
  C_m = sum_a x_a z_(a+m), x_a = eps(a) g^(a-a^2), z_s = g^(s^2) and
  eps(a) = 2 floor(g (g^a mod p) / p) - g + 1.  One Kronecker convolution
  of reversed x with z gives every C_m, fast enough to sweep p < 25,000.

For 2 <= k <= p-3 the von Staudt-Clausen denominators are prime to p, so
every entry is a well-defined residue and every division below is legal.
"""

import multiprocessing
from dataclasses import dataclass
from typing import Iterator, Mapping

from .modmath import convolution_mod, mod_inv, primitive_root, require_odd_prime

METHOD_NAIVE = "naive"
METHOD_VORONOI = "voronoi"
METHOD_FAST = "fast"


@dataclass(frozen=True)
class BernoulliRow:
    """B_k mod p for every even k with 2 <= k <= p-3."""

    p: int
    values: Mapping[int, int]
    method: str

    def zero_indices(self) -> tuple[int, ...]:
        return tuple(sorted(k for k, v in self.values.items() if v == 0))


@dataclass(frozen=True)
class IrregularSet:
    """A prime together with its sorted irregular indices."""

    p: int
    indices: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "indices", tuple(sorted(self.indices)))

    @property
    def r(self) -> int:
        return len(self.indices)


def _check_row_prime(p: int) -> bool:
    """Validate p; True when the row is nonempty (p >= 7), False for p == 5."""
    require_odd_prime(p)
    if p == 3:
        raise ValueError("p = 3 has no even indices in [2, p-3]")
    return p >= 7


def bernoulli_naive_row(p: int) -> BernoulliRow:
    """Reference row via the binomial recurrence, all arithmetic in Z/p."""
    if not _check_row_prime(p):
        return BernoulliRow(p, {}, METHOD_NAIVE)
    top = p - 3
    B = [0] * (top + 1)
    B[0] = 1
    binom = [1, 1]  # row C(m, .) of Pascal's triangle, updated in place
    for m in range(1, top + 1):
        nxt = [1] * (m + 2)
        for j in range(1, m + 1):
            nxt[j] = (binom[j - 1] + binom[j]) % p
        binom = nxt
        s = 0
        for j in range(m):
            if B[j]:
                s = (s + binom[j] * B[j]) % p
        # C(m+1, m) = m+1 < p, hence invertible
        B[m] = -s * mod_inv(m + 1, p) % p
    return BernoulliRow(p, {k: B[k] for k in range(2, p - 2, 2)}, METHOD_NAIVE)


def _voronoi_base(p: int, k: int) -> int:
    # t = 2 unless 2^k == 1 mod p, then the smallest larger base that works
    t = 2
    while pow(t, k, p) == 1:
        t = 3 if t == 2 else t + 1
    return t


def _voronoi_value(p: int, k: int) -> int:
    if k % (p - 1) == 0:
        raise ValueError("the congruence needs k not divisible by p-1")
    t = _voronoi_base(p, k)
    s = 0
    for j in range(1, p):
        s = (s + pow(j, k - 1, p) * (j * t // p)) % p
    return k * pow(t, k - 1, p) * mod_inv(pow(t, k, p) - 1, p) * s % p


def bernoulli_voronoi(p: int, k: int) -> int:
    """B_k mod p from the Voronoi congruence, for even k in [2, p-3]."""
    _check_row_prime(p)
    if k % 2 != 0 or not 2 <= k <= p - 3:
        raise ValueError(f"k must be even with 2 <= k <= p-3, got k={k}")
    return _voronoi_value(p, k)


def bernoulli_voronoi_row(p: int) -> BernoulliRow:
    """All even k at once, sharing the power table across k."""
    if not _check_row_prime(p):
        return BernoulliRow(p, {}, METHOD_VORONOI)
    floor2 = [j * 2 // p for j in range(p)]
    jpow = list(range(p))  # j^(k-1) for the current k, starting at k = 2
    jsq = [j * j % p for j in range(p)]
    values: dict[int, int] = {}
    for k in range(2, p - 2, 2):
        if pow(2, k, p) == 1:
            values[k] = _voronoi_value(p, k)
        else:
            s = 0
            for j in range(1, p):
                if floor2[j]:
                    s += jpow[j]
            s %= p
            values[k] = k * pow(2, k - 1, p) * mod_inv(pow(2, k, p) - 1, p) * s % p
        if k + 2 <= p - 3:
            jpow = [jpow[j] * jsq[j] % p for j in range(p)]
    return BernoulliRow(p, values, METHOD_VORONOI)


def _square_powers(b: int, n: int, p: int) -> list[int]:
    # b^(s^2) for s < n, stepping by b^((s+1)^2 - s^2) = b^(2s+1)
    out, step, b2 = [1] * n, b, b * b % p
    for s in range(1, n):
        out[s], step = out[s - 1] * step % p, step * b2 % p
    return out


def bernoulli_fast_row(p: int) -> BernoulliRow:
    """Same contents as the naive row from one convolution (see module doc)."""
    if not _check_row_prime(p):
        return BernoulliRow(p, {}, METHOD_FAST)
    g = primitive_root(p)
    n = (p - 1) // 2
    z = _square_powers(g, n, p)
    z_inv = _square_powers(mod_inv(g, p), n, p)
    x, ga = [0] * n, 1  # x_a = eps(a) g^(a - a^2); ga = g^a mod p
    for a in range(n):
        q, ga_next = divmod(g * ga, p)  # q = floor(g (g^a mod p) / p)
        x[a], ga = (2 * q - g + 1) * ga * z_inv[a] % p, ga_next
    # conv[i + 1] = P[i] for P = (reversed x) * z, and conv[0] = P[-1] = 0
    conv = [0] + convolution_mod(x[::-1], z, p)
    sign = -1 if n % 2 else 1  # z_(s+n) = (-1)^n z_s folds a + m >= n back
    num, den, prefix = [0] * (n - 1), [0] * (n - 1), [0] * (n - 1)
    gk, acc = g, 1  # g^(k-1) for k = 2m + 2; product of den[:m]
    for m in range(n - 1):
        num[m] = (2 * m + 2) * gk * z_inv[m] * (conv[n + m] + sign * conv[m]) % p
        den[m] = (gk * g - 1) % p  # g^k - 1, nonzero as 0 < k < p - 1
        prefix[m], acc = acc, acc * den[m] % p
        gk = gk * g * g % p
    inv = mod_inv(acc, p)  # one inverse for all den[m], unwound from the top
    for m in range(n - 2, -1, -1):
        num[m] = num[m] * inv * prefix[m] % p
        inv = inv * den[m] % p
    return BernoulliRow(p, {2 * m + 2: num[m] for m in range(n - 1)}, METHOD_FAST)


_ROW_METHODS = {
    METHOD_NAIVE: bernoulli_naive_row,
    METHOD_VORONOI: bernoulli_voronoi_row,
    METHOD_FAST: bernoulli_fast_row,
}


def bernoulli_row(p: int, method: str = METHOD_FAST) -> BernoulliRow:
    try:
        fn = _ROW_METHODS[method]
    except KeyError:
        raise ValueError(f"unknown method {method!r}") from None
    return fn(p)


def irregular_indices(p: int, method: str = METHOD_FAST) -> IrregularSet:
    """The set R of even k in [2, p-3] with B_k == 0 mod p."""
    require_odd_prime(p)
    if p == 5:
        return IrregularSet(5, ())
    return IrregularSet(p, bernoulli_row(p, method).zero_indices())


def _sieve_primes(limit: int) -> list[int]:
    if limit <= 2:
        return []
    flags = bytearray([1]) * limit
    flags[0:2] = b"\x00\x00"
    for i in range(2, int(limit ** 0.5) + 1):
        if flags[i]:
            flags[i * i::i] = bytearray(len(flags[i * i::i]))
    return [i for i in range(limit) if flags[i]]


def _sweep_worker(p: int) -> tuple[int, tuple[int, ...]]:
    return p, irregular_indices(p).indices


def irregular_sweep(p_max: int, jobs: int = 1, cache=None) -> Iterator[IrregularSet]:
    """IrregularSet for every odd prime 7 <= p < p_max, ascending.

    Output is independent of ``jobs``.  ``cache`` is an optional
    ``cyclopair.cache.IrregularCache``; cached entries are reused and newly
    computed ones persisted.
    """
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    primes = [p for p in _sieve_primes(p_max) if p >= 7]
    known: dict[int, tuple[int, ...]] = {}
    if cache is not None:
        known = dict(cache.load())
    todo = [p for p in primes if p not in known]
    if todo:
        if jobs == 1:
            computed = [_sweep_worker(p) for p in todo]
        else:
            chunk = max(1, len(todo) // (jobs * 8))
            # largest (slowest) primes first, so no long task is left for
            # the end while the other workers idle; known restores the order
            with multiprocessing.Pool(jobs) as pool:
                computed = list(
                    pool.imap_unordered(_sweep_worker, todo[::-1], chunksize=chunk))
        known.update(computed)
        if cache is not None:
            cache.store(known)
    return iter(IrregularSet(p, known[p]) for p in primes)

