"""Residue bookkeeping mod p-1 for the congruence hypotheses.

Two hypotheses are checked over the irregular indices R of a prime p: no
unordered pair k < k' in R may have k + k' == 2 (mod p-1), and no two
distinct pairs may have equal sums mod p-1.
"""

from itertools import combinations
from typing import Iterable, NamedTuple

from .bernoulli import IrregularSet

Pair = tuple[int, int]


class CongruenceCheckResult(NamedTuple):
    p: int
    sum_two_violations: tuple[Pair, ...]
    collision_violations: tuple[tuple[Pair, Pair], ...]

    @property
    def ok(self) -> bool:
        return not self.sum_two_violations and not self.collision_violations


def check_congruences(irr: IrregularSet) -> CongruenceCheckResult:
    """Enumerate all unordered pairs from R and record both violation kinds.

    Pairs and pair-of-pairs come out canonically sorted so results diff
    cleanly; with |R| <= 1 both lists are empty.
    """
    m = irr.p - 1
    pairs = list(combinations(irr.indices, 2))  # indices sorted, so lex order
    sum_two = tuple(pr for pr in pairs if (pr[0] + pr[1] - 2) % m == 0)
    by_sum: dict[int, list[Pair]] = {}
    for pr in pairs:
        by_sum.setdefault((pr[0] + pr[1]) % m, []).append(pr)
    collisions = tuple(
        clash
        for group in by_sum.values()
        if len(group) > 1
        for clash in combinations(group, 2)
    )
    return CongruenceCheckResult(irr.p, sum_two, tuple(sorted(collisions)))


def congruence_sweep(
    p_max: int, source: Iterable[IrregularSet]
) -> list[CongruenceCheckResult]:
    """Only the primes below p_max whose hypothesis check fails."""
    out = []
    for irr in source:
        if irr.p >= p_max:
            continue
        cc = check_congruences(irr)
        if not cc.ok:
            out.append(cc)
    return out
