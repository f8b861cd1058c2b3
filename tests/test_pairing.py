import random

import pytest
from hypothesis import given, settings, strategies as st

from cyclopair.bernoulli import IrregularSet
from cyclopair.pairing import (
    EligibleSet,
    PairingFormatError,
    PairingTable,
    b_to_e,
    eligible_set,
    parse_pairing_file,
    serialize_pairing_table,
    synth_b_table,
    synth_table,
)

IRR_1217 = IrregularSet(1217, (784, 866, 1118))
IRR_37 = IrregularSet(37, (32,))


def parse_one(text, irr):
    return parse_pairing_file(text, {irr.p: irr})[irr.p]


def test_parse_b_row():
    table = parse_one("B\t1217\t784\t866\t0\n", IRR_1217)
    assert table.b_entries == {(784, 866): 0}
    assert table.e_entries == {}


def test_parse_empty():
    # no rows for the prime: no table, which every consumer reads as empty
    assert parse_pairing_file("", {37: IRR_37}) == {}


def test_parse_e_row():
    table = parse_one("E\t37\t7\t32\t5\n", IRR_37)
    assert table.e_entries == {(7, 32): 5}


def test_parse_skips_comments_and_other_primes():
    text = "# header\nB\t1217\t784\t866\t0\nE\t37\t7\t32\t5\n"
    table = parse_one(text, IRR_37)
    assert table.e_entries == {(7, 32): 5}
    assert table.b_entries == {}


def test_parse_errors_carry_line_numbers():
    with pytest.raises(PairingFormatError, match="line 2"):
        parse_one("# ok\nB\t37\t32\n", IRR_37)
    with pytest.raises(PairingFormatError, match="line 1"):
        parse_one("X\t37\t7\t32\t5\n", IRR_37)
    with pytest.raises(PairingFormatError, match="line 1"):
        parse_one("E\t37\tseven\t32\t5\n", IRR_37)


def test_parse_rejects_key_outside_r():
    with pytest.raises(PairingFormatError, match="30 is not irregular"):
        parse_one("E\t37\t7\t30\t5\n", IRR_37)
    with pytest.raises(PairingFormatError, match="not irregular"):
        parse_one("B\t1217\t784\t868\t1\n", IRR_1217)


def test_parse_rejects_bad_values_and_keys():
    with pytest.raises(PairingFormatError, match="out of range"):
        parse_one("E\t37\t7\t32\t37\n", IRR_37)
    with pytest.raises(PairingFormatError, match="odd"):
        parse_one("E\t37\t8\t32\t5\n", IRR_37)
    with pytest.raises(PairingFormatError, match="k < k'"):
        parse_one("B\t1217\t866\t784\t1\n", IRR_1217)
    with pytest.raises(PairingFormatError, match="duplicate"):
        parse_one("E\t37\t7\t32\t5\nE\t37\t7\t32\t5\n", IRR_37)


def test_parse_rejects_b_e_zeroness_mismatch():
    # b(784, 866) and e(433, 866) carry the same datum
    text = "B\t1217\t784\t866\t0\nE\t1217\t433\t866\t9\n"
    with pytest.raises(PairingFormatError, match="disagree"):
        parse_one(text, IRR_1217)
    ok = "B\t1217\t784\t866\t5\nE\t1217\t433\t866\t9\n"
    table = parse_one(ok, IRR_1217)
    assert table.b_entries[(784, 866)] == 5


def test_roundtrip_canonical():
    rng = random.Random(7)
    for seed in range(5):
        table = synth_table(37, IRR_37, zero_keys={(5, 32)}, seed=seed)
        text = serialize_pairing_table(table)
        # shuffle lines and sprinkle comments; canonical form must survive
        lines = text.splitlines()
        rng.shuffle(lines)
        noisy = "# noise\n" + "\n".join(lines) + "\n"
        reparsed = parse_one(noisy, IRR_37)
        assert serialize_pairing_table(reparsed) == text
        again = parse_one(text, IRR_37)
        assert serialize_pairing_table(again) == text


def test_parse_pairing_file_multi_prime():
    text = (
        "B\t1217\t784\t866\t0\n"
        "E\t37\t7\t32\t5\n"
        "B\t7069\t1478\t2570\t0\n"  # 7069 absent from the lookup: ignored
    )
    tables = parse_pairing_file(text, {37: IRR_37, 1217: IRR_1217})
    assert set(tables) == {37, 1217}
    assert tables[1217].b_entries == {(784, 866): 0}


def test_b_to_e_paper_triples():
    assert b_to_e(IRR_1217, 784, 866) == (433, 866)
    assert b_to_e(IrregularSet(7069, (1478, 2570)), 1478, 2570) == (5591, 2570)
    assert b_to_e(IrregularSet(9829, (4562, 7548)), 4562, 7548) == (5267, 7548)


def test_b_to_e_rejects_non_irregular():
    with pytest.raises(ValueError):
        b_to_e(IRR_37, 30, 32)
    with pytest.raises(ValueError):
        b_to_e(IRR_1217, 866, 784)


def test_eligible_empty_r_is_all_odds():
    elig = eligible_set(IrregularSet(11, ()), None)
    assert elig.eligible == (1, 3, 5, 7, 9)
    assert elig.missing == ()
    assert elig.s == 5


def test_eligible_full_table():
    table = synth_table(37, IRR_37, seed=1)
    elig = eligible_set(IRR_37, table)
    assert elig.eligible == tuple(range(1, 36, 2))
    assert elig.s == 18


def test_eligible_single_zero_removes_offset():
    table = synth_table(37, IRR_37, zero_keys={(3, 32)}, seed=1)
    elig = eligible_set(IRR_37, table)
    assert 3 not in elig.eligible
    assert set(elig.eligible) == set(range(1, 36, 2)) - {3}
    assert elig.missing == ()


def test_eligible_missing_is_explicit():
    table = PairingTable(37, {}, {(1, 32): 4})
    elig = eligible_set(IRR_37, table)
    assert elig.eligible == (1,)
    assert set(elig.missing) == set(range(3, 36, 2))
    assert elig.s is None
    assert not elig.complete


def test_eligible_table_prime_mismatch():
    with pytest.raises(ValueError):
        eligible_set(IRR_37, synth_table(11, IrregularSet(11, ()), seed=0))


@settings(max_examples=60)
@given(st.integers(min_value=0, max_value=17), st.randoms(use_true_random=False))
def test_eligible_monotone_under_zeroing(idx, rng):
    # zeroing one more entry never grows the eligible set
    base = synth_table(37, IRR_37, seed=3)
    keys = sorted(base.e_entries)
    key = keys[idx * len(keys) // 18]
    zeroed = PairingTable(37, {}, {**base.e_entries, key: 0})
    before = set(eligible_set(IRR_37, base).eligible)
    after = set(eligible_set(IRR_37, zeroed).eligible)
    assert after <= before


@settings(max_examples=60)
@given(st.integers(min_value=0, max_value=17))
def test_eligible_monotone_under_adding(idx):
    # filling in one absent nonzero entry never shrinks the eligible set
    full = synth_table(37, IRR_37, seed=3)
    keys = sorted(full.e_entries)
    removed = keys[idx * len(keys) // 18]
    partial = {k: v for k, v in full.e_entries.items() if k != removed}
    before = eligible_set(IRR_37, PairingTable(37, {}, partial))
    after = eligible_set(IRR_37, full)
    assert set(before.eligible) <= set(after.eligible)
    assert removed[0] in before.missing



def _eligible_set_per_offset(irr, table):
    # reference: look up every (i, k) of the conjunction, offset by offset
    odd = range(1, irr.p - 1, 2)
    if not irr.indices:
        return EligibleSet(irr.p, tuple(odd), ())
    entries = table.e_entries if table is not None else {}
    eligible, missing = [], []
    for i in odd:
        vals = [entries.get((i, k)) for k in irr.indices]
        if any(v is None for v in vals):
            missing.append(i)
        elif all(v != 0 for v in vals):
            eligible.append(i)
    return EligibleSet(irr.p, tuple(eligible), tuple(missing))


def test_eligible_matches_per_offset_reference():
    rng = random.Random(20261018)
    cases = [IRR_37, IrregularSet(101, (68,)), IrregularSet(491, (292, 336, 338)),
             IrregularSet(7069, (1478, 2570)), IRR_1217]
    for irr in cases:
        assert eligible_set(irr, None) == _eligible_set_per_offset(irr, None)
        for _ in range(5):
            full = synth_table(irr.p, irr, seed=rng.randrange(10**6)).e_entries
            keys = sorted(full)
            zeroed = set(rng.sample(keys, rng.randint(0, len(keys) // 4)))
            dropped = set(rng.sample(keys, rng.randint(0, len(keys) // 4)))
            entries = {key: 0 if key in zeroed else v
                       for key, v in full.items() if key not in dropped}
            table = PairingTable(irr.p, {}, entries)
            assert eligible_set(irr, table) == _eligible_set_per_offset(irr, table)
        # keys a parsed table never has: even, negative or too large offsets,
        # and an index outside R
        k = irr.indices[0]
        stray = {(2, k): 0, (-1, k): 0, (irr.p, k): 0, (irr.p + 2, k): 5, (1, k + 1): 0}
        table = PairingTable(irr.p, {}, {**full, **stray})
        assert eligible_set(irr, table) == _eligible_set_per_offset(irr, table)


def test_synth_table_examples():
    full = synth_table(37, IRR_37, seed=1)
    assert len(full.e_entries) == 18
    assert all(v != 0 for v in full.e_entries.values())
    one_zero = synth_table(37, IRR_37, zero_keys={(5, 32)}, seed=1)
    assert sum(1 for v in one_zero.e_entries.values() if v == 0) == 1
    assert one_zero.e_entries[(5, 32)] == 0
    assert synth_table(37, IRR_37, seed=9) == synth_table(37, IRR_37, seed=9)
    with pytest.raises(ValueError):
        synth_table(37, IRR_37, zero_keys={(4, 32)}, seed=1)


def test_synth_b_table():
    irr = IRR_1217
    table = synth_b_table(1217, irr, zero_pairs={(784, 866)}, seed=1)
    assert set(table.b_entries) == {(784, 866), (784, 1118), (866, 1118)}
    assert table.b_entries[(784, 866)] == 0
    assert all(v != 0 for k, v in table.b_entries.items() if k != (784, 866))
