import math
import typing
from fractions import Fraction  # the oracle of the counting bound only
from typing import Iterable

import pytest
from hypothesis import given, settings, strategies as st

from cyclopair.bernoulli import IrregularSet, irregular_indices
from cyclopair.criteria import (
    CONDITIONAL,
    FAILS,
    FLAG_ASSUMED,
    FLAG_FALSE_UNKNOWN,
    FLAG_TRUE,
    FLAG_UNKNOWN,
    HOLDS,
    INCONCLUSIVE,
    TRIVIAL,
    HeightBound,
    HypothesisFlags,
    counting_bound,
    gk_verdict,
    greenberg_verdict,
    height_lower_bound,
)
from cyclopair.eigenstructure import check_congruences
from cyclopair.pairing import (
    EligibleSet,
    PairingTable,
    TableValues,
    eligible_set,
    synth_b_table,
    synth_table,
)
from cyclopair.report import _ratio
from helpers import parsed

IRR_157 = IrregularSet(157, (62, 110))
IRR_37 = IrregularSet(37, (32,))


def flags_for(p, **overrides):
    base = HypothesisFlags.defaults_for(p)
    return HypothesisFlags(
        overrides.get("vandiver", base.vandiver),
        overrides.get("procyclic", base.procyclic),
        overrides.get("pairing_surjective", base.pairing_surjective),
    )


def test_default_flags():
    f = HypothesisFlags.defaults_for(157)
    assert f == HypothesisFlags(FLAG_ASSUMED, FLAG_ASSUMED, FLAG_TRUE)
    f = HypothesisFlags.defaults_for(1217)
    assert f.pairing_surjective == FLAG_UNKNOWN
    f = HypothesisFlags.defaults_for(13_000_000)
    assert f.vandiver == FLAG_FALSE_UNKNOWN and f.procyclic == FLAG_FALSE_UNKNOWN


def test_flags_validate():
    with pytest.raises(ValueError):
        HypothesisFlags("yes", FLAG_ASSUMED, FLAG_TRUE)
    with pytest.raises(ValueError, match="procyclic"):
        HypothesisFlags(FLAG_ASSUMED, "yes", FLAG_TRUE)
    with pytest.raises(ValueError):
        HypothesisFlags(FLAG_ASSUMED, FLAG_ASSUMED, "maybe")


# --- pseudo-nullity criterion ---

def test_greenberg_regular_trivial():
    irr = irregular_indices(11)
    v = greenberg_verdict(irr, eligible_set(irr, PairingTable(11)), flags_for(11))
    assert v.status == TRIVIAL


def test_greenberg_holds_on_full_table():
    table = parsed(IRR_157, synth_table(157, IRR_157, seed=4))
    v = greenberg_verdict(IRR_157, eligible_set(IRR_157, table), flags_for(157))
    assert v.status == HOLDS
    assert v.detail == {"witness_offset": 1, "eligible_count": 78}


def test_greenberg_witness_is_the_smallest_eligible_offset():
    zero_keys = {(i, 110) for i in range(1, 9, 2)}
    table = parsed(IRR_157, synth_table(157, IRR_157, zero_keys=zero_keys, seed=4))
    v = greenberg_verdict(IRR_157, eligible_set(IRR_157, table), flags_for(157))
    assert v.detail == {"witness_offset": 9, "eligible_count": 74}


def test_greenberg_inconclusive_on_complete_empty():
    zero_keys = {(i, 62) for i in range(1, 156, 2)}
    table = parsed(IRR_157, synth_table(157, IRR_157, zero_keys=zero_keys, seed=4))
    elig = eligible_set(IRR_157, table)
    assert elig.eligible == 0 and elig.complete
    v = greenberg_verdict(IRR_157, elig, flags_for(157))
    assert v.status == INCONCLUSIVE


def test_greenberg_conditional_on_missing():
    elig = eligible_set(IRR_157, PairingTable(157))  # nothing known
    v = greenberg_verdict(IRR_157, elig, flags_for(157))
    assert v.status == CONDITIONAL
    assert v.detail["missing_count"] == 78


def test_greenberg_requires_matching_prime():
    with pytest.raises(ValueError):
        greenberg_verdict(IRR_157, eligible_set(IRR_37, PairingTable(37)), flags_for(157))


def test_greenberg_without_vandiver():
    table = parsed(IRR_157, synth_table(157, IRR_157, seed=4))
    v = greenberg_verdict(
        IRR_157, eligible_set(IRR_157, table),
        flags_for(157, vandiver=FLAG_FALSE_UNKNOWN),
    )
    assert v.status == INCONCLUSIVE


# --- height lower bound ---

def test_height_singleton_full():
    table = parsed(IRR_37, synth_table(37, IRR_37, seed=1))
    hb = height_lower_bound(IRR_37, eligible_set(IRR_37, table), flags_for(37))
    assert hb.d == 18 and hb.bound_exact == 19
    assert hb.bound_corollary == (19, 1)
    assert hb.corollary_ceiling == 19
    assert not hb.partial and not hb.zero_module


def test_height_corollary_formula():
    # fabricated complete data: s = 20 with r = 2 gives 20/3 + 1 = 23/3
    irr = IrregularSet(53, (2, 4))
    elig = EligibleSet(53, (1 << 20) - 1, 0)  # the offsets 1, 3, ..., 39
    hb = height_lower_bound(irr, elig, flags_for(53))
    assert hb.bound_corollary == (23, 3)
    assert hb.corollary_ceiling == 8
    assert hb.bound_exact >= hb.corollary_ceiling


def test_height_s_zero():
    irr = IrregularSet(53, (2, 4))
    elig = EligibleSet(53, 0, 0)
    hb = height_lower_bound(irr, elig, flags_for(53))
    assert hb.d == 0 and hb.bound_exact == 1
    assert hb.bound_corollary == (1, 1) and hb.corollary_ceiling == 1


@given(st.integers(0, 10**6), st.integers(1, 8))
def test_counting_bound_matches_fraction(s, r):
    (num, den), ceiling = counting_bound(s, r)
    exact = Fraction(s, r * r - r + 1) + 1
    assert math.gcd(num, den) == 1 and den > 0
    assert Fraction(num, den) == exact
    assert ceiling == math.ceil(exact)
    assert _ratio((num, den)) == str(exact)


def test_height_bound_type_hints_resolve():
    hints = typing.get_type_hints(HeightBound)
    assert hints["bound_corollary"] == tuple[int, int] | None


def test_height_zero_module_sentinel():
    irr = irregular_indices(11)
    hb = height_lower_bound(irr, eligible_set(irr, PairingTable(11)), flags_for(11))
    assert hb.zero_module
    assert hb.d is None and hb.bound_exact is None and hb.bound_corollary is None


def test_height_partial_data_conservative():
    table = parsed(IRR_157, TableValues(157, {}, {(i, 62): 1 for i in range(1, 156, 2)}))
    elig = eligible_set(IRR_157, table)  # 110-column entirely missing
    assert not elig.complete
    hb = height_lower_bound(IRR_157, elig, flags_for(157))
    assert hb.partial
    assert hb.bound_corollary is None
    assert hb.d == 0 and hb.bound_exact == 1


def test_height_requires_vandiver():
    # without Vandiver there is no bound, not even on a full table
    flags = flags_for(37, vandiver=FLAG_FALSE_UNKNOWN)
    for table in (PairingTable(37), parsed(IRR_37, synth_table(37, IRR_37, seed=1))):
        hb = height_lower_bound(IRR_37, eligible_set(IRR_37, table), flags)
        assert hb == HeightBound(37, False, None, None, None, None, (), False, flags)


def test_height_exact_dominates_corollary_on_complete_data():
    # the counting argument is realized by the greedy solver, so the exact
    # bound can never fall below the corollary ceiling
    for p in (157, 353, 379):
        irr = irregular_indices(p)
        elig = eligible_set(irr, parsed(irr, synth_table(p, irr, seed=8)))
        hb = height_lower_bound(irr, elig, flags_for(p))
        assert hb.bound_exact >= hb.corollary_ceiling


# --- abelianness criterion ---

def gk_for(irr, table, **overrides):
    return gk_verdict(irr, check_congruences(irr), table, flags_for(irr.p, **overrides))


def test_gk_rank_le_1_holds():
    irr = irregular_indices(11)
    assert gk_for(irr, PairingTable(11)).status == HOLDS
    assert gk_for(IRR_37, PairingTable(37)).status == HOLDS  # r = 1, no rows needed


def test_gk_zero_pair_fails_unconditionally():
    table = parsed(IRR_157, synth_b_table(157, IRR_157, zero_pairs={(62, 110)}, seed=1))
    v = gk_for(IRR_157, table, pairing_surjective=FLAG_UNKNOWN)
    assert v.status == FAILS
    assert v.detail["zero_pairs"] == [(62, 110)]


def test_gk_all_nonzero_surjective_holds():
    table = parsed(IRR_157, synth_b_table(157, IRR_157, seed=1))
    v = gk_for(IRR_157, table)  # p < 1000: surjectivity known
    assert v.status == HOLDS


def test_gk_all_nonzero_unknown_surjectivity_conditional():
    irr = irregular_indices(1217)
    table = parsed(irr, synth_b_table(1217, irr, seed=1))
    v = gk_for(irr, table)
    assert v.status == CONDITIONAL
    assert "surjective" in v.detail["reason"]


def test_gk_e_backed_nonzero_needs_no_surjectivity():
    # nonzero e-entries pin the pairing values themselves
    irr = irregular_indices(1217)
    e_entries = {(1217 - k, kp): 3 for idx, k in enumerate(irr.indices)
                 for kp in irr.indices[idx + 1:]}
    v = gk_for(irr, parsed(irr, TableValues(1217, {}, e_entries)))
    assert v.status == HOLDS


def test_gk_zero_e_entry_fails():
    irr = irregular_indices(1217)
    e_entries = {(1217 - 784, 866): 0}
    v = gk_for(irr, parsed(irr, TableValues(1217, {}, e_entries)))
    assert v.status == FAILS


def test_gk_missing_pairs_conditional():
    v = gk_for(IRR_157, PairingTable(157))
    assert v.status == CONDITIONAL
    assert v.detail["missing_pairs"] == [(62, 110)]
    # no rows at all: every pair is missing
    v = gk_for(irregular_indices(1217), PairingTable(1217))
    assert v.status == CONDITIONAL
    assert v.detail["missing_pairs"] == [(784, 866), (784, 1118), (866, 1118)]


def test_gk_congruence_violation_inconclusive():
    irr = IrregularSet(13, (4, 10))  # synthetic: 4 + 10 == 2 mod 12
    table = parsed(irr, synth_b_table(13, irr, seed=1))
    v = gk_verdict(irr, check_congruences(irr), table, flags_for(13))
    assert v.status == INCONCLUSIVE


def test_gk_without_hypotheses_inconclusive():
    table = parsed(IRR_157, synth_b_table(157, IRR_157, seed=1))
    v = gk_for(IRR_157, table, procyclic=FLAG_FALSE_UNKNOWN)
    assert v.status == INCONCLUSIVE


def test_gk_zero_dominates_missing():
    # one pair zero, the other pairs absent: still FAILS
    irr = irregular_indices(1217)
    table = parsed(irr, TableValues(1217, {(784, 866): 0}, {}))
    assert gk_for(irr, table).status == FAILS


def test_gk_monotone_toward_fails():
    table = parsed(IRR_157, synth_b_table(157, IRR_157, seed=1))
    base = gk_for(IRR_157, table).status
    zeroed = parsed(IRR_157, TableValues(157, {(62, 110): 0}, {}))
    assert base == HOLDS
    assert gk_for(IRR_157, zeroed).status == FAILS


def test_verdicts_are_pure():
    table = parsed(IRR_157, synth_b_table(157, IRR_157, seed=1))
    assert gk_for(IRR_157, table) == gk_for(IRR_157, table)


IRR_1217 = IrregularSet(1217, (784, 866, 1118))
# (b, e) of one pair: absent, zero or nonzero, agreeing on zeroness when both
# are present (the parse rejects a table where they disagree)
_PAIR_STATES = [(b, e) for b in (None, 0, 1) for e in (None, 0, 1)
                if b is None or e is None or b == e]


@settings(max_examples=150)
@given(st.lists(st.sampled_from(_PAIR_STATES), min_size=3, max_size=3),
       st.dictionaries(st.tuples(st.integers(0, 607), st.sampled_from(IRR_1217.indices)),
                       st.integers(0, 1216), max_size=12),
       st.randoms(use_true_random=False))
def test_gk_pairs_match_a_reference_by_key(states, filler, rng):
    # random B and E rows for the three pairs of an r = 3 prime, with E rows
    # at other offsets around them; the reference reads the generated values
    # by key, the verdict reads the parsed bitsets
    p, pairs = 1217, [(784, 866), (784, 1118), (866, 1118)]
    e_entries = {(2 * j + 1, k): v for (j, k), v in filler.items()}
    b_entries = {}
    for (k, kp), (b, e) in zip(pairs, states):
        e_entries.pop((p - k, kp), None)
        if b is not None:
            b_entries[(k, kp)] = b and rng.randrange(1, p)
        if e is not None:
            e_entries[(p - k, kp)] = e and rng.randrange(1, p)
    zero, missing, b_only = [], [], []
    for k, kp in pairs:
        b, e = b_entries.get((k, kp)), e_entries.get((p - k, kp))
        if b == 0 or e == 0:
            zero.append((k, kp))
        elif b is None and e is None:
            missing.append((k, kp))
        elif e is None:
            b_only.append((k, kp))
    assert check_congruences(IRR_1217).ok
    v = gk_for(IRR_1217, parsed(IRR_1217, TableValues(p, b_entries, e_entries)))
    if zero:
        assert (v.status, v.detail["zero_pairs"]) == (FAILS, zero)
    elif missing:
        assert (v.status, v.detail["missing_pairs"]) == (CONDITIONAL, missing)
    elif b_only:  # surjectivity is unknown above 1000
        assert (v.status, v.detail["b_only_pairs"]) == (CONDITIONAL, b_only)
    else:
        assert (v.status, v.detail["checked_pairs"]) == (HOLDS, pairs)


# --- remark ranges ---

# ranges of (p-1)/2 - s observed for p < 1000, keyed by r
_REMARK_GAP_RANGES = {1: (2, 6), 2: (6, 8), 3: (9, 12)}


def remark_ranges_check(
    rows: Iterable[tuple[int, int, int | None]],
) -> tuple[list[tuple[int, int, int]], list[int]]:
    """Check (r, (p-1)/2 - s) against the observed ranges for p < 1000.

    rows yields (p, r, s) with s None when pairing data was incomplete;
    such entries are skipped and reported, never counted as violations.
    Returns (violations, skipped) with violations as (p, r, gap).
    """
    violations: list[tuple[int, int, int]] = []
    skipped: list[int] = []
    for p, r, s in rows:
        if r == 0:
            continue
        if s is None:
            skipped.append(p)
            continue
        gap = (p - 1) // 2 - s
        if r > 3:
            violations.append((p, r, gap))
            continue
        lo, hi = _REMARK_GAP_RANGES[r]
        if not lo <= gap <= hi:
            violations.append((p, r, gap))
    return violations, skipped


def test_remark_ranges():
    violations, skipped = remark_ranges_check([
        (97, 1, (97 - 1) // 2 - 4),     # gap 4 in [2, 6]: fine
        (101, 2, (101 - 1) // 2 - 5),   # gap 5 outside [6, 8]: violation
        (103, 0, 51),                   # regular: no constraint
        (107, 2, None),                 # incomplete data: skipped
        (109, 4, 40),                   # r > 3: violation
    ])
    assert violations == [(101, 2, 5), (109, 4, 14)]
    assert skipped == [107]


def test_remark_ranges_empty():
    assert remark_ranges_check([]) == ([], [])
