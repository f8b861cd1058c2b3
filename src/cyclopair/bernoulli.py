"""Bernoulli numbers modulo p and irregular-index detection.

Three independent routes to the same row B_2, B_4, ..., B_{p-3} mod p:

* ``naive``   -- the binomial recurrence sum_{j<=m} C(m+1,j) B_j = 0 carried
  out in Z/p.  O(p^2), the reference oracle.
* ``voronoi`` -- the Voronoi congruence
  (t^k - 1) B_k / k == t^(k-1) * sum_j j^(k-1) floor(j*t/p)  (mod p).
* ``fast``    -- the same congruence for every k at once, with t = g a
  primitive root (Buhler et al. 2001; Harvey 2010).  Pairing j with p-j and
  writing j = g^a, a < n = (p-1)/2, with k-1 = 2m+1 and Bluestein's
  2am = (a+m)^2 - a^2 - m^2, gives (g^k - 1) B_k / k == g^(k-1-m^2) S_m,
  S_m = g^(m^2) sum_(a<n) eps(a) g^(a(2m+1)) and
  eps(a) = 2 floor(g (g^a mod p) / p) - g + 1.  One cyclic convolution
  gives every S_m (below), fast enough to sweep p < 25,000.

The cyclic product.  Let t = n mod 2, x_a = eps(a) g^((1-t) a - a^2) and
z_s = g^(s^2 + t s).  As g^n == -1, z_(s+n) = z_s g^(2sn) g^(n(n+t)) = z_s
because n + t is even, so z is n-periodic.  (Without the twist, at t = 0
for odd n, z_(s+n) = -z_s and the sums would be negacyclic.)  Also
x_a z_(a+m) = eps(a) g^(a(2m+1)) g^(m^2 + t m), hence
T_m = sum_(a<n) x_a z_((a+m) mod n) = g^(t m) S_m.  With
x'_i = x_(-i mod n), i.e. x' = (x_0, x_(n-1), ..., x_1), the cyclic
convolution c_m = sum_(i+j == m mod n) x'_i z_j = sum_a x_a z_(a+m) = T_m.
The row scales T_m by g^(k-1) z_m^(-1) = g^(k-1-m^2-t m), which gives
g^(k-1-m^2) S_m.

For 2 <= k <= p-3 the von Staudt-Clausen denominators are prime to p, so
every entry is a well-defined residue and every division below is legal.
There k, g^(k-1-m^2-t m) and g^k - 1 (as 0 < k < p-1) are units mod p, so
B_k == 0 iff T_m == 0: the irregular sweep reads its zeros straight from
the convolution, without scaling it into B_k.
"""

import marshal
import os
from typing import Callable, Iterable, Iterator, NamedTuple

from .modmath import convolution_mod, primitive_root, require_odd_prime

METHOD_NAIVE = "naive"
METHOD_VORONOI = "voronoi"
METHOD_FAST = "fast"


class _IrregularFields(NamedTuple):
    p: int
    indices: tuple[int, ...]


class IrregularSet(_IrregularFields):
    """A prime together with its sorted irregular indices."""

    __slots__ = ()

    def __new__(cls, p: int, indices: Iterable[int]) -> "IrregularSet":
        return super().__new__(cls, p, tuple(sorted(indices)))

    @classmethod
    def _make(cls, fields) -> "IrregularSet":
        # _replace builds through _make: sort there too
        return cls(*fields)

    @property
    def r(self) -> int:
        return len(self.indices)


def _check_row_prime(p: int) -> None:
    require_odd_prime(p)
    if p == 3:
        raise ValueError("p = 3 has no even indices in [2, p-3]")


def bernoulli_naive_row(p: int) -> dict[int, int]:
    """Reference row {k: B_k mod p} for every even k with 2 <= k <= p-3,
    via the binomial recurrence, all arithmetic in Z/p."""
    _check_row_prime(p)
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
        B[m] = -s * pow(m + 1, -1, p) % p
    return {k: B[k] for k in range(2, p - 2, 2)}


def _voronoi_base(p: int, k: int) -> int:
    # t = 2 unless 2^k == 1 mod p, then the smallest larger base that works
    t = 2
    while pow(t, k, p) == 1:
        t += 1
    return t


def _voronoi_value(p: int, k: int) -> int:
    if k % (p - 1) == 0:
        raise ValueError("the congruence needs k not divisible by p-1")
    t = _voronoi_base(p, k)
    s = 0
    for j in range(1, p):
        s = (s + pow(j, k - 1, p) * (j * t // p)) % p
    return k * pow(t, k - 1, p) * pow(pow(t, k, p) - 1, -1, p) * s % p


def bernoulli_voronoi(p: int, k: int) -> int:
    """B_k mod p from the Voronoi congruence, for even k in [2, p-3]."""
    _check_row_prime(p)
    if k % 2 != 0 or not 2 <= k <= p - 3:
        raise ValueError(f"k must be even with 2 <= k <= p-3, got k={k}")
    return _voronoi_value(p, k)


def bernoulli_voronoi_row(p: int) -> dict[int, int]:
    """All even k at once, sharing the power table across k.  With t = 2,
    floor(2j/p) is 1 exactly for j >= (p+1)/2 and 0 below, so the sum runs
    over that upper half only."""
    _check_row_prime(p)
    upper = range((p + 1) // 2, p)
    jpow = list(upper)  # j^(k-1) for each upper j and the current k, starting at k = 2
    jsq = [j * j % p for j in upper]
    values: dict[int, int] = {}
    for k in range(2, p - 2, 2):
        if pow(2, k, p) == 1:
            values[k] = _voronoi_value(p, k)
        else:
            s = sum(jpow) % p
            values[k] = k * pow(2, k - 1, p) * pow(pow(2, k, p) - 1, -1, p) * s % p
        jpow = [a * b % p for a, b in zip(jpow, jsq)]
    return values


def _square_powers(b: int, n: int, t: int, p: int) -> list[int]:
    # b^(s^2 + t s) for s < n = (p-1)/2, stepping by b^(2s+1+t).  The
    # exponents at s and n - t - s differ by n (n - t - 2s), a multiple of
    # 2n = p - 1, so only s <= (n-t)/2 are computed and the rest mirrored.
    mid = (n - t) // 2
    out, step, b2 = [1] * (mid + 1), pow(b, 1 + t, p), b * b % p
    for s in range(1, mid + 1):
        out[s], step = out[s - 1] * step % p, step * b2 % p
    return out + out[1 - t:mid][::-1]


def _voronoi_sums(p: int) -> tuple[int, list[int], list[int]]:
    """g = primitive_root(p), z_inv[s] = g^(-s^2 - t s) for s < n = (p-1)/2
    and t = n mod 2, and T_m = g^(t m) S_m mod p for m < n - 1, from one
    cyclic convolution (see module doc)."""
    _check_row_prime(p)
    g = primitive_root(p)
    n = (p - 1) // 2
    t = n % 2
    z = _square_powers(g, n, t, p)
    z_inv = _square_powers(pow(g, -1, p), n, t, p)
    # x[-a] = x_a = eps(a) g^((1-t) a - a^2), stored as (x_0, x_(n-1), ..., x_1);
    # ga = g^a mod p
    x, ga = [0] * n, 1
    for a in range(n):
        q, ga_next = divmod(g * ga, p)  # q = floor(g (g^a mod p) / p)
        x[-a], ga = (2 * q - g + 1) * ga * z_inv[a] % p, ga_next
    sums = convolution_mod(x, z, p)
    sums.pop()  # m = n - 1 is k = p - 1, outside the row
    return g, z_inv, sums


def bernoulli_fast_row(p: int) -> dict[int, int]:
    """Same contents as the naive row from one convolution (see module doc)."""
    g, z_inv, sums = _voronoi_sums(p)
    size = len(sums)
    num, den, prefix = [0] * size, [0] * size, [0] * size
    gk, acc = g, 1  # g^(k-1) for k = 2m + 2; product of den[:m]
    for m, s in enumerate(sums):
        # z_inv[m] = g^(-m^2 - t m) also takes out the twist g^(t m)
        num[m] = (2 * m + 2) * gk * z_inv[m] * s % p
        den[m] = (gk * g - 1) % p  # g^k - 1, nonzero as 0 < k < p - 1
        prefix[m], acc = acc, acc * den[m] % p
        gk = gk * g * g % p
    inv = pow(acc, -1, p)  # one inverse for all den[m], unwound from the top
    for m in range(size - 1, -1, -1):
        num[m] = num[m] * inv * prefix[m] % p
        inv = inv * den[m] % p
    return {2 * m + 2: num[m] for m in range(size)}


_ROW_METHODS = {
    METHOD_NAIVE: bernoulli_naive_row,
    METHOD_VORONOI: bernoulli_voronoi_row,
    METHOD_FAST: bernoulli_fast_row,
}


def bernoulli_row(p: int, method: str = METHOD_FAST) -> dict[int, int]:
    try:
        fn = _ROW_METHODS[method]
    except KeyError:
        raise ValueError(f"unknown method {method!r}") from None
    return fn(p)


def irregular_indices(p: int) -> IrregularSet:
    """The set R of even k in [2, p-3] with B_k == 0 mod p."""
    _, _, sums = _voronoi_sums(p)  # T_m == 0 iff B_(2m+2) == 0 (see module doc)
    return IrregularSet(p, tuple(2 * m + 2 for m, s in enumerate(sums) if s == 0))


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


_RECORD = 4  # bytes per task record: an item's index, little-endian
_BATCH = 512  # bytes per task-pipe write: POSIX's least PIPE_BUF, so each lands whole


def _serve(fn: Callable, items: list, task_r: int, res_w: int, inherited) -> None:
    """A forked child's whole life: fn over the items whose indices it reads
    from the task pipe, then the marshalled results into its result pipe.
    Leaves through os._exit, so no buffer or exit handler of the parent runs
    here; never returns."""
    status = 1
    try:
        for fd in inherited:  # the other pipe ends: the task pipe's must close for EOF
            os.close(fd)
        results = []
        # the pipe only ever holds whole records, so each read takes exactly one
        while record := os.read(task_r, _RECORD):
            results.append(fn(items[int.from_bytes(record, "little")]))
        with open(res_w, "wb") as out:
            out.write(marshal.dumps(results))
        status = 0
    except BaseException:
        # imported here, as only a failing child needs it
        import traceback

        # not the parent's buffered sys.stderr, but its error handler, so a
        # message the locale cannot encode still prints whole
        with open(2, "w", errors="backslashreplace", closefd=False) as err:
            traceback.print_exc(file=err)
    finally:
        os._exit(status)


def _forked_map(fn: Callable, items: list, jobs: int) -> list:
    """fn(item) for every item, in no set order, from min(jobs, len(items))
    forked children; fn's results must be marshallable.

    Once every child is forked, the parent writes each item's index into
    one task pipe as a 4-byte record, in item order, and closes it.  A child
    reads one record at a time until end of file, so whichever child is
    free takes the next item (a make-style jobserver pipe).  It then writes
    its results to its own result pipe, which the parent reads to end of
    file before reaping the child.  A child that fails prints its traceback
    and exits 1, and the parent raises RuntimeError, as it does when a pipe
    or a child cannot be made; no child outlives the call on any path.
    """
    owned: set[int] = set()  # pipe ends still open in this process

    def pipe() -> tuple[int, int]:
        ends = os.pipe()
        owned.update(ends)
        return ends

    def close(fd: int) -> None:
        owned.discard(fd)
        os.close(fd)

    live: dict[int, int] = {}  # pid -> read end of its result pipe
    try:
        try:
            task_r, task_w = pipe()
            for _ in range(min(jobs, len(items))):
                res_r, res_w = pipe()
                pid = os.fork()
                if pid == 0:
                    _serve(fn, items, task_r, res_w, owned - {task_r, res_w})
                live[pid] = res_r
                close(res_w)
        except OSError as exc:  # EAGAIN, EMFILE: the OS's limit, not bad input
            raise RuntimeError(f"could not start a worker: {exc}") from exc
        close(task_r)
        records = b"".join(i.to_bytes(_RECORD, "little") for i in range(len(items)))
        try:
            for start in range(0, len(records), _BATCH):
                os.write(task_w, records[start:start + _BATCH])
        except BrokenPipeError:
            pass  # every child died before the last task: reaping them reports it
        close(task_w)
        results = []
        for pid, res_r in list(live.items()):
            owned.discard(res_r)
            with open(res_r, "rb") as fh:
                data = fh.read()
            status = os.waitpid(pid, 0)[1]
            del live[pid]
            if status:
                raise RuntimeError(f"worker {pid} failed: exit status "
                                   f"{os.waitstatus_to_exitcode(status)}")
            results += marshal.loads(data)
        return results
    finally:
        if live:
            # imported here, as only a failed map leaves children to stop
            import signal

            for pid in live:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
        for fd in owned:
            os.close(fd)


def irregular_sweep(p_max: int, jobs: int = 1, cache=None) -> Iterator[IrregularSet]:
    """IrregularSet for every odd prime 7 <= p < p_max, ascending.

    Output is independent of ``jobs``.  ``cache`` is an optional
    ``cyclopair.cache.IrregularCache``; cached entries are reused and newly
    computed ones persisted.

    With ``jobs`` > 1 and more than one prime left to compute, the primes
    go to up to ``jobs`` children forked by ``_forked_map`` (POSIX
    ``os.fork``), largest first, and each free child takes the next one
    from a shared pipe; otherwise they run in this process.  A failing
    child makes the sweep raise RuntimeError and leaves the cache unwritten.
    """
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    primes = [p for p in _sieve_primes(p_max) if p >= 7]
    known: dict[int, tuple[int, ...]] = {} if cache is None else cache.load()
    todo = [p for p in primes if p not in known]
    if todo:
        if min(jobs, len(todo)) == 1:  # one child would only add a fork
            computed = [_sweep_worker(p) for p in todo]
        else:
            # largest (slowest) primes first, so no long task is left for
            # the end while the other workers idle; known restores the order
            computed = _forked_map(_sweep_worker, todo[::-1], jobs)
        known.update(computed)
        if cache is not None:
            cache.store(known)
    return iter(IrregularSet(p, known[p]) for p in primes)
