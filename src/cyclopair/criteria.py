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
HOLDS is never emitted while required data is missing, and every verdict
records the hypothesis flags it leaned on.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

from .bernoulli import IrregularSet
from .eigenstructure import CongruenceCheckResult
from .packing import PackingInstance, max_disjoint_translates_exact
from .pairing import EligibleSet, PairingTable, b_to_e

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


@dataclass(frozen=True)
class HypothesisFlags:
    vandiver: str
    procyclic: str
    pairing_surjective: str

    def __post_init__(self) -> None:
        if self.vandiver not in _TRI_STATES:
            raise ValueError(f"bad vandiver flag {self.vandiver!r}")
        if self.procyclic not in _TRI_STATES:
            raise ValueError(f"bad procyclic flag {self.procyclic!r}")
        if self.pairing_surjective not in _SURJ_STATES:
            raise ValueError(f"bad surjectivity flag {self.pairing_surjective!r}")

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


@dataclass(frozen=True)
class Verdict:
    status: str
    detail: dict
    flags_used: HypothesisFlags


@dataclass(frozen=True)
class HeightBound:
    p: int
    zero_module: bool
    d: int | None
    bound_exact: int | None
    bound_corollary: Fraction | None
    corollary_ceiling: int | None
    witness: tuple[int, ...]
    partial: bool
    flags_used: HypothesisFlags


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
            flags,
        )
    if not irr.indices:
        return Verdict(
            TRIVIAL,
            {"reason": "regular prime: the module vanishes under Vandiver"},
            flags,
        )
    if elig.eligible:
        return Verdict(
            HOLDS,
            {"witness_offset": elig.eligible[0], "eligible_count": len(elig.eligible)},
            flags,
        )
    if elig.missing:
        return Verdict(
            CONDITIONAL,
            {"reason": "no eligible offset in the available data",
             "missing_count": len(elig.missing)},
            flags,
        )
    return Verdict(
        INCONCLUSIVE,
        {"reason": "complete data but no eligible offset; "
                   "the criterion is sufficient only"},
        flags,
    )


def height_lower_bound(
    irr: IrregularSet, elig: EligibleSet, flags: HypothesisFlags
) -> HeightBound:
    """Annihilator-height lower bounds from translate packing.

    bound_exact = d + 1 with d the exact packing number over the eligible
    offsets; with incomplete data the eligible set is conservative (smaller
    than the truth), so the bound stays valid and is flagged partial.  The
    counting bound s/(r^2 - r + 1) + 1 needs complete data for s.
    """
    _require_same_prime(irr.p, elig.p)
    if not flags.vandiver_usable:
        raise ValueError("height bound requires the Vandiver flag not false")
    if not irr.indices:
        return HeightBound(irr.p, True, None, None, None, None, (), False, flags)
    inst = PackingInstance.from_sets(irr.p - 1, irr.indices, elig.eligible)
    result = max_disjoint_translates_exact(inst)
    partial = not elig.complete
    corollary = ceiling = None
    if not partial:
        r = irr.r
        corollary = Fraction(elig.s, r * r - r + 1) + 1
        ceiling = math.ceil(corollary)
    return HeightBound(
        irr.p,
        False,
        result.count,
        result.count + 1,
        corollary,
        ceiling,
        result.witness,
        partial,
        flags,
    )


def _pair_data(
    irr: IrregularSet, table: PairingTable, k: int, kp: int
) -> tuple[str, int | None]:
    """Resolve the pairing datum for the irregular pair (k, k').

    Returns one of ("zero", v), ("nonzero", v) for an e-backed value,
    ("nonzero-b", v) for a value known nonzero only through the published
    b-table (needs surjectivity), or ("missing", None).
    """
    b = table.b_entries.get((k, kp))
    e = table.e_entries.get(b_to_e(irr, k, kp))
    if b == 0 or e == 0:
        return "zero", 0
    if e is not None:
        return "nonzero", e
    if b is not None:
        return "nonzero-b", b
    return "missing", None


def gk_verdict(
    irr: IrregularSet,
    cc: CongruenceCheckResult,
    table: PairingTable | None,
    flags: HypothesisFlags,
) -> Verdict:
    """Abelianness of the unramified pro-p Galois group.

    Ladder: rank <= 1 holds outright; failed congruence hypotheses are
    inconclusive; a zero entry fails unconditionally; all-nonzero data holds
    (via surjectivity when the nonzero-ness comes from b-entries only);
    anything missing is conditional.
    """
    _require_same_prime(irr.p, cc.p)
    if table is not None:
        _require_same_prime(irr.p, table.p)
    if not (flags.vandiver_usable and flags.procyclic_usable):
        return Verdict(
            INCONCLUSIVE,
            {"reason": "criterion requires Vandiver and procyclic eigenspaces"},
            flags,
        )
    if irr.r <= 1:
        return Verdict(
            HOLDS,
            {"reason": "rank at most 1: free pro-p, hence abelian", "r": irr.r},
            flags,
        )
    if not cc.ok:
        return Verdict(
            INCONCLUSIVE,
            {"reason": "congruence hypotheses fail",
             "hypothesis_reading": "unordered pairs",
             "sum_two_violations": list(cc.sum_two_violations),
             "collision_violations": list(cc.collision_violations)},
            flags,
        )
    pairs = [
        (k, kp)
        for idx, k in enumerate(irr.indices)
        for kp in irr.indices[idx + 1:]
    ]
    if table is None:
        table = PairingTable(irr.p)
    zero, missing, b_only = [], [], []
    for k, kp in pairs:
        status, _ = _pair_data(irr, table, k, kp)
        if status == "zero":
            zero.append((k, kp))
        elif status == "missing":
            missing.append((k, kp))
        elif status == "nonzero-b":
            b_only.append((k, kp))
    if zero:
        return Verdict(FAILS, {"zero_pairs": zero, "reason": "nonabelian"}, flags)
    if missing:
        return Verdict(CONDITIONAL, {"missing_pairs": missing}, flags)
    if b_only and flags.pairing_surjective != FLAG_TRUE:
        return Verdict(
            CONDITIONAL,
            {"reason": "abelian if the pairing is surjective",
             "b_only_pairs": b_only},
            flags,
        )
    return Verdict(
        HOLDS,
        {"checked_pairs": pairs, "hypothesis_reading": "unordered pairs"},
        flags,
    )

