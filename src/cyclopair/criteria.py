"""Verdict engine binding Bernoulli, congruence, pairing, and packing data.

Three verdicts per prime:

* pseudo-nullity (sufficient criterion: some eligible offset exists),
* a lower bound on the annihilator height (one more than the maximal
  number of disjoint translates, plus the counting-argument bound
  s/(r^2 - r + 1) + 1 reported as an exact rational),
* abelianness of the unramified pro-p Galois group (nonzero pairing data
  for every irregular pair, under congruence hypotheses).

Statuses never overclaim: FAILS is reserved for the one unconditionally
negative signal (a zero pairing entry under the abelianness criterion),
HOLDS is never emitted while required data is missing, and each report
records once the hypothesis flags its verdicts leaned on.
"""

import math
from itertools import combinations
from typing import NamedTuple

from .bernoulli import IrregularSet
from .eigenstructure import CongruenceCheckResult
from .packing import PackingInstance, max_disjoint_translates_exact
from .pairing import EligibleSet, PairingTable, offsets, pair_status

HOLDS = "HOLDS"
FAILS = "FAILS"
CONDITIONAL = "CONDITIONAL"
INCONCLUSIVE = "INCONCLUSIVE"
TRIVIAL = "TRIVIAL"

FLAG_TRUE = "true"
FLAG_ASSUMED = "assumed"
FLAG_FALSE_UNKNOWN = "false-unknown"
FLAG_UNKNOWN = "unknown"

# Vandiver and eigenspace procyclicity have been verified computationally
# below this bound; the pairing surjectivity is known below 1000.
PROCYCLIC_VERIFIED_BOUND = 12_000_000
SURJECTIVE_KNOWN_BOUND = 1000

_TRI_STATES = (FLAG_TRUE, FLAG_ASSUMED, FLAG_FALSE_UNKNOWN)
_SURJ_STATES = (FLAG_TRUE, FLAG_UNKNOWN)


class _FlagFields(NamedTuple):
    vandiver: str
    procyclic: str
    pairing_surjective: str


class HypothesisFlags(_FlagFields):
    __slots__ = ()

    def __new__(
        cls, vandiver: str, procyclic: str, pairing_surjective: str
    ) -> "HypothesisFlags":
        if vandiver not in _TRI_STATES:
            raise ValueError(f"bad vandiver flag {vandiver!r}")
        if procyclic not in _TRI_STATES:
            raise ValueError(f"bad procyclic flag {procyclic!r}")
        if pairing_surjective not in _SURJ_STATES:
            raise ValueError(f"bad surjectivity flag {pairing_surjective!r}")
        return super().__new__(cls, vandiver, procyclic, pairing_surjective)

    @classmethod
    def _make(cls, fields) -> "HypothesisFlags":
        # _replace builds through _make: validate there too
        return cls(*fields)

    @classmethod
    def defaults_for(cls, p: int) -> "HypothesisFlags":
        below = p < PROCYCLIC_VERIFIED_BOUND
        return cls(
            vandiver=FLAG_ASSUMED if below else FLAG_FALSE_UNKNOWN,
            procyclic=FLAG_ASSUMED if below else FLAG_FALSE_UNKNOWN,
            pairing_surjective=FLAG_TRUE if p < SURJECTIVE_KNOWN_BOUND else FLAG_UNKNOWN,
        )

    @property
    def vandiver_usable(self) -> bool:
        return self.vandiver != FLAG_FALSE_UNKNOWN

    @property
    def procyclic_usable(self) -> bool:
        return self.procyclic != FLAG_FALSE_UNKNOWN


class Verdict(NamedTuple):
    status: str
    detail: dict


class HeightBound(NamedTuple):
    zero_module: bool
    d: int | None = None
    bound_exact: int | None = None
    bound_corollary: tuple[int, int] | None = None  # reduced (numerator, denominator)
    corollary_ceiling: int | None = None
    witness: tuple[int, ...] = ()
    partial: bool = False


def _require_same_prime(*ps: int) -> None:
    if len(set(ps)) != 1:
        raise ValueError(f"inputs computed for different primes: {ps}")


def greenberg_verdict(
    irr: IrregularSet, elig: EligibleSet, flags: HypothesisFlags
) -> Verdict:
    """Sufficient criterion for pseudo-nullity via a single eligible offset.

    The criterion is one-directional: an empty eligible set on complete data
    is INCONCLUSIVE, never FAILS.
    """
    _require_same_prime(irr.p, elig.p)
    if not flags.vandiver_usable:
        return Verdict(
            INCONCLUSIVE,
            {"reason": "criterion requires Vandiver's conjecture at p"},
        )
    if not irr.indices:
        return Verdict(
            TRIVIAL,
            {"reason": "regular prime: the module vanishes under Vandiver"},
        )
    if elig.eligible:
        (witness,) = offsets(elig.eligible & -elig.eligible)  # the lowest set bit
        return Verdict(
            HOLDS,
            {"witness_offset": witness, "eligible_count": elig.eligible.bit_count()},
        )
    if elig.missing:
        return Verdict(
            CONDITIONAL,
            {"reason": "no eligible offset in the available data",
             "missing_count": elig.missing.bit_count()},
        )
    return Verdict(
        INCONCLUSIVE,
        {"reason": "complete data but no eligible offset; "
                   "the criterion is sufficient only"},
    )


def counting_bound(s: int, r: int) -> tuple[tuple[int, int], int]:
    """s/(r^2 - r + 1) + 1 as a reduced (numerator, denominator) pair, and
    its ceiling."""
    q = r * r - r + 1
    g = math.gcd(s, q)
    num, den = (s + q) // g, q // g
    return (num, den), -(-num // den)


def height_lower_bound(
    irr: IrregularSet, elig: EligibleSet, flags: HypothesisFlags
) -> HeightBound:
    """Annihilator-height lower bounds from translate packing.

    bound_exact = d + 1 with d the exact packing number over the eligible
    offsets; with incomplete data the eligible set is conservative (smaller
    than the truth), so the bound stays valid and is flagged partial.  The
    counting bound s/(r^2 - r + 1) + 1 needs complete data for s.  Without
    Vandiver there is no bound: ``HeightBound(False)``, its module not zero.
    """
    _require_same_prime(irr.p, elig.p)
    if not flags.vandiver_usable:
        return HeightBound(False)
    if not irr.indices:
        return HeightBound(True)
    inst = PackingInstance(irr.p - 1, irr.indices, offsets(elig.eligible))
    result = max_disjoint_translates_exact(inst)
    partial = not elig.complete
    corollary = ceiling = None
    if not partial:
        corollary, ceiling = counting_bound(elig.s, irr.r)
    return HeightBound(False, result.count, result.count + 1, corollary, ceiling,
                       result.witness, partial)


def gk_verdict(
    irr: IrregularSet,
    cc: CongruenceCheckResult,
    table: PairingTable,
    flags: HypothesisFlags,
) -> Verdict:
    """Abelianness of the unramified pro-p Galois group.

    Ladder: rank <= 1 holds outright; failed congruence hypotheses are
    inconclusive; a zero entry fails unconditionally; all-nonzero data holds
    (via surjectivity when the nonzero-ness comes from b-entries only);
    anything missing is conditional.  A prime without rows has the empty
    ``PairingTable(p)``, on which every pair is missing.
    """
    _require_same_prime(irr.p, cc.p, table.p)
    if not (flags.vandiver_usable and flags.procyclic_usable):
        return Verdict(
            INCONCLUSIVE,
            {"reason": "criterion requires Vandiver and procyclic eigenspaces"},
        )
    if irr.r <= 1:
        return Verdict(
            HOLDS,
            {"reason": "rank at most 1: free pro-p, hence abelian", "r": irr.r},
        )
    if not cc.ok:
        return Verdict(
            INCONCLUSIVE,
            {"reason": "congruence hypotheses fail",
             "hypothesis_reading": "unordered pairs",
             "sum_two_violations": list(cc.sum_two_violations),
             "collision_violations": list(cc.collision_violations)},
        )
    pairs = list(combinations(irr.indices, 2))  # each k < k', in order
    by_state = {"zero": [], "missing": [], "nonzero-b": [], "nonzero": []}
    for k, kp in pairs:  # a state outside the four raises KeyError
        by_state[pair_status(irr, table, k, kp)].append((k, kp))
    zero, missing, b_only = by_state["zero"], by_state["missing"], by_state["nonzero-b"]
    if zero:
        return Verdict(FAILS, {"zero_pairs": zero, "reason": "nonabelian"})
    if missing:
        return Verdict(CONDITIONAL, {"missing_pairs": missing})
    if b_only and flags.pairing_surjective != FLAG_TRUE:
        return Verdict(
            CONDITIONAL,
            {"reason": "abelian if the pairing is surjective",
             "b_only_pairs": b_only},
        )
    return Verdict(
        HOLDS,
        {"checked_pairs": pairs, "hypothesis_reading": "unordered pairs"},
    )

