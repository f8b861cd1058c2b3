import hashlib
import io
import random
import re
import sys
import time

import pytest
from hypothesis import given, settings, strategies as st

from cyclopair import pairing
from cyclopair.bernoulli import IrregularSet
from cyclopair.pairing import (
    EligibleSet,
    PairingFormatError,
    PairingTable,
    Rows,
    TableValues,
    b_to_e,
    eligible_set,
    offsets,
    parse_pairing_file,
    read_blocks,
    serialize_pairing_table,
    synth_b_table,
    synth_table,
)
from cyclopair.report import sha256, table_digest
from helpers import parsed, row_values

IRR_1217 = IrregularSet(1217, (784, 866, 1118))
IRR_37 = IrregularSet(37, (32,))


def parse_one(text, irr):
    return parse_pairing_file([text.encode()], {irr.p: irr})[irr.p]


def test_parse_b_row():
    table = parse_one("B\t1217\t784\t866\t0\n", IRR_1217)
    assert row_values(table) == ({(784, 866): 0}, {})


def test_parse_empty():
    # no rows for the prime: no table, which every consumer reads as empty
    assert parse_pairing_file([], {37: IRR_37}) == {}


def test_parse_e_row():
    # a parsed table keeps zeroness only: 1 stands for any nonzero value
    table = parse_one("E\t37\t7\t32\t5\n", IRR_37)
    assert row_values(table) == ({}, {(7, 32): 1})


def test_parse_skips_comments_and_other_primes():
    text = "# header\nB\t1217\t784\t866\t0\nE\t37\t7\t32\t5\n"
    table = parse_one(text, IRR_37)
    assert row_values(table) == ({}, {(7, 32): 1})


def test_parse_errors_carry_line_numbers():
    with pytest.raises(PairingFormatError, match="line 2"):
        parse_one("# ok\nB\t37\t32\n", IRR_37)
    with pytest.raises(PairingFormatError, match="line 1"):
        parse_one("X\t37\t7\t32\t5\n", IRR_37)
    with pytest.raises(PairingFormatError, match="line 1"):
        parse_one("E\t37\tseven\t32\t5\n", IRR_37)
    # a row broken over two lines is two bad lines, not one row
    with pytest.raises(PairingFormatError, match="line 2: expected 5 fields, got 3"):
        parse_one("E\t37\t1\t32\t5\nE\t37\t7\n32\t5\nE\t37\t9\t32\t5\n", IRR_37)
    # a value int() refuses to convert (over 4300 digits) is a bad line too
    with pytest.raises(PairingFormatError, match="^line 2: "):
        parse_one("E\t37\t3\t32\t5\nE\t37\t7\t32\t" + "1" * 5000 + "\n", IRR_37)


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
    with pytest.raises(PairingFormatError, match="out of range"):
        parse_one("B\t1217\t784\t866\t1217\n", IRR_1217)
    with pytest.raises(PairingFormatError, match="duplicate B key"):
        parse_one("B\t1217\t784\t866\t5\nB\t1217\t784\t866\t5\n", IRR_1217)
    # a row with two faults reports its value first, whatever its kind
    with pytest.raises(PairingFormatError, match=re.escape("line 1: value 37 out of range [0, 37)")):
        parse_one("E\t37\t8\t32\t37\n", IRR_37)
    with pytest.raises(PairingFormatError,
                       match=re.escape("line 1: value 1217 out of range [0, 1217)")):
        parse_one("B\t1217\t866\t784\t1217\n", IRR_1217)


def test_parse_rejects_b_e_zeroness_mismatch():
    # b(784, 866) and e(433, 866) carry the same datum
    text = "B\t1217\t784\t866\t0\nE\t1217\t433\t866\t9\n"
    with pytest.raises(PairingFormatError, match="disagree"):
        parse_one(text, IRR_1217)
    ok = "B\t1217\t784\t866\t5\nE\t1217\t433\t866\t9\n"
    table = parse_one(ok, IRR_1217)
    assert row_values(table)[0] == {(784, 866): 1}


def zeroness(entries):
    """key -> 0 or 1 for the values of a TableValues field, as a parse keeps them."""
    return {key: int(v != 0) for key, v in entries.items()}


def test_roundtrip_canonical():
    rng = random.Random(7)
    for seed in range(5):
        table = synth_table(37, IRR_37, zero_keys={(5, 32)}, seed=seed)
        text = serialize_pairing_table(table)
        # shuffle lines and sprinkle comments; the zeroness of every key
        # survives, and so does the parse of the zeroness alone
        lines = text.splitlines()
        rng.shuffle(lines)
        noisy = "# noise\n" + "\n".join(lines) + "\n"
        reparsed = parse_one(noisy, IRR_37)
        assert row_values(reparsed) == ({}, zeroness(table.e_entries))
        assert reparsed == parse_one(text, IRR_37)
        assert parsed(IRR_37, TableValues(37, *row_values(reparsed))) == reparsed


def test_parse_pairing_file_multi_prime():
    text = (
        "B\t1217\t784\t866\t0\n"
        "E\t37\t7\t32\t5\n"
        "B\t7069\t1478\t2570\t0\n"  # 7069 absent from the lookup: ignored
    )
    tables = parse_pairing_file([text.encode()], {37: IRR_37, 1217: IRR_1217})
    assert set(tables) == {37, 1217}
    assert row_values(tables[1217]) == ({(784, 866): 0}, {})


def test_parse_checks_each_skipped_p_once(monkeypatch):
    checked = []

    def require_odd_prime(p):
        checked.append(p)
        return p

    monkeypatch.setattr(pairing, "require_odd_prime", require_odd_prime)
    text = "".join(f"E\t{p}\t1\t32\t5\n" for p in (7069, 41, 7069, 37, 41, 7069))
    text += "E\t41\t3\t32\t50\n"  # a value past p: rows of a skipped prime go unchecked
    assert set(parse_pairing_file([text.encode()], {37: IRR_37})) == {37}
    assert checked == [7069, 41]


@pytest.mark.parametrize("p, message", [
    (1219, "line 2: 1219 is not an odd prime"),
    (9, "line 2: 9 is not an odd prime"),
    (2, "line 2: 2 is not an odd prime"),
    (0, "line 2: 0 is not an odd prime"),
    (2_147_483_659, r"line 2: p must be at most 2\^31 = 2147483648, got 2147483659"),
])
def test_parse_rejects_rows_of_a_non_prime(p, message):
    # rows of an odd prime outside the lookup are skipped; any other p is a typo
    text = f"E\t7069\t1\t2\t5\nE\t{p}\t1\t784\t5\nE\t37\t7\t32\t5\n"
    with pytest.raises(PairingFormatError, match=message):
        parse_pairing_file([text.encode()], {37: IRR_37, 1217: IRR_1217})


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
    elig = eligible_set(IrregularSet(11, ()), PairingTable(11))
    assert elig == EligibleSet(11, 0b11111, 0)
    assert offsets(elig.eligible) == (1, 3, 5, 7, 9)
    assert elig.s == 5


def test_eligible_full_table():
    elig = eligible_set(IRR_37, parsed(IRR_37, synth_table(37, IRR_37, seed=1)))
    assert offsets(elig.eligible) == tuple(range(1, 36, 2))
    assert elig.s == 18


def test_eligible_single_zero_removes_offset():
    table = parsed(IRR_37, synth_table(37, IRR_37, zero_keys={(3, 32)}, seed=1))
    elig = eligible_set(IRR_37, table)
    assert set(offsets(elig.eligible)) == set(range(1, 36, 2)) - {3}
    assert elig.missing == 0


def test_eligible_missing_is_explicit():
    table = parsed(IRR_37, TableValues(37, {}, {(1, 32): 4}))
    elig = eligible_set(IRR_37, table)
    assert offsets(elig.eligible) == (1,)
    assert offsets(elig.missing) == tuple(range(3, 36, 2))
    assert elig.s is None
    assert not elig.complete


def test_eligible_table_prime_mismatch():
    with pytest.raises(ValueError):
        eligible_set(IRR_37, PairingTable(11))


@settings(max_examples=60)
@given(st.integers(min_value=0, max_value=17))
def test_eligible_monotone_under_zeroing(idx):
    # zeroing one more entry never grows the eligible set
    base = synth_table(37, IRR_37, seed=3)
    key = sorted(base.e_entries)[idx]
    zeroed = TableValues(37, {}, {**base.e_entries, key: 0})
    before = eligible_set(IRR_37, parsed(IRR_37, base)).eligible
    after = eligible_set(IRR_37, parsed(IRR_37, zeroed)).eligible
    assert after & ~before == 0
    assert key[0] not in offsets(after)


@settings(max_examples=60)
@given(st.integers(min_value=0, max_value=17))
def test_eligible_monotone_under_adding(idx):
    # filling in one absent nonzero entry never shrinks the eligible set
    full = synth_table(37, IRR_37, seed=3)
    removed = sorted(full.e_entries)[idx]
    partial = TableValues(37, {}, {k: v for k, v in full.e_entries.items() if k != removed})
    before = eligible_set(IRR_37, parsed(IRR_37, partial))
    after = eligible_set(IRR_37, parsed(IRR_37, full))
    assert before.eligible & ~after.eligible == 0
    assert offsets(before.missing) == (removed[0],)


def _eligible_set_per_offset(irr, values):
    # reference: look up the value of every (i, k) of the conjunction,
    # offset by offset, in the generated table
    odd = range(1, irr.p - 1, 2)
    if not irr.indices:
        return tuple(odd), ()
    entries = values.e_entries if values is not None else {}
    eligible, missing = [], []
    for i in odd:
        vals = [entries.get((i, k)) for k in irr.indices]
        if any(v is None for v in vals):
            missing.append(i)
        elif all(v != 0 for v in vals):
            eligible.append(i)
    return tuple(eligible), tuple(missing)


def assert_matches_reference(irr, values):
    table = parsed(irr, values) if values is not None else PairingTable(irr.p)
    got = eligible_set(irr, table)
    assert got.p == irr.p
    assert (offsets(got.eligible), offsets(got.missing)) == _eligible_set_per_offset(irr, values)


def test_eligible_matches_per_offset_reference():
    rng = random.Random(20261018)
    cases = [IRR_37, IrregularSet(101, (68,)), IrregularSet(491, (292, 336, 338)),
             IrregularSet(7069, (1478, 2570)), IRR_1217, IrregularSet(11, ())]
    for irr in cases:
        assert_matches_reference(irr, None)
        for _ in range(5):
            full = synth_table(irr.p, irr, seed=rng.randrange(10**6)).e_entries
            keys = sorted(full)
            zeroed = set(rng.sample(keys, rng.randint(0, len(keys) // 4)))
            dropped = set(rng.sample(keys, rng.randint(0, len(keys) // 4)))
            entries = {key: 0 if key in zeroed else v
                       for key, v in full.items() if key not in dropped}
            assert_matches_reference(irr, TableValues(irr.p, {}, entries))
        # no e-entry for any k in R: a b-only table
        assert_matches_reference(irr, synth_b_table(irr.p, irr, seed=rng.randrange(10**6)))


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


# -- streamed reading --------------------------------------------------------

def blocks(raw: bytes, size: int) -> list[bytes]:
    """The blocks read_blocks reads from raw with READ_CHUNK set to size."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pairing, "READ_CHUNK", size)
        return list(read_blocks(io.BytesIO(raw), hashlib.sha256()))


def parse_chunked(raw: bytes, R_by_p, size: int):
    return parse_pairing_file(blocks(raw, size), R_by_p)


def parse_error(raw: bytes, R_by_p, size: int) -> str:
    with pytest.raises(PairingFormatError) as info:
        parse_chunked(raw, R_by_p, size)
    return str(info.value)


def test_read_blocks_uses_the_chunk_constant(monkeypatch):
    # whole lines until a block passes READ_CHUNK bytes, so a block ends in
    # a newline unless the file's last line has none
    monkeypatch.setattr(pairing, "READ_CHUNK", 5)
    raw = b"E\t37\t7\t32\t5\n# a\n#\n\n# b\nE\t37\t9"
    sha = hashlib.sha256()
    got = list(read_blocks(io.BytesIO(raw), sha))
    assert got == [b"E\t37\t7\t32\t5\n", b"# a\n#\n", b"\n# b\n", b"E\t37\t9"]
    assert all(block.endswith(b"\n") for block in got[:-1])
    assert b"".join(got) == raw
    assert sha.digest() == hashlib.sha256(raw).digest()
    assert list(read_blocks(io.BytesIO(b""), sha)) == []


# SHA-256's padding and block edges, and a 1 MB buffer
@pytest.mark.parametrize("size", [0, 1, 55, 56, 63, 64, 65, 4095, 4096, 4097, 1 << 20])
def test_sha256_equals_hashlib(size, monkeypatch):
    raw = random.Random(size).randbytes(size)
    want = hashlib.sha256(raw).hexdigest()
    assert sha256(raw).hexdigest() == want
    assert table_digest(raw) == "sha256:" + want
    monkeypatch.setattr(pairing, "READ_CHUNK", 64)  # blocks end at the random newlines
    sha = sha256()
    assert b"".join(read_blocks(io.BytesIO(raw), sha)) == raw
    assert sha.hexdigest() == want


@pytest.mark.skipif(sys.version_info >= (3, 12), reason="CPython 3.12 renamed _sha256 to _sha2")
def test_sha256_is_the_built_in_module():
    import _sha256

    assert type(sha256()) is type(_sha256.sha256())


def test_row_split_across_chunks():
    # blocks of every size, down to a line each, give the one-block table
    table = synth_table(37, IRR_37, zero_keys={(5, 32)}, seed=2)
    raw = ("# a header\n" + serialize_pairing_table(table)).encode()
    whole = parse_pairing_file([raw], {37: IRR_37})[37]
    assert row_values(whole) == ({}, zeroness(table.e_entries))
    for size in (1, 2, 3, 7, 11, 16, 100):
        assert parse_chunked(raw, {37: IRR_37}, size) == {37: whole}


def test_multibyte_comment_split_across_chunks():
    raw = "# café ✓ \U0001f600\nE\t37\t7\t32\t0\n".encode()
    for size in range(1, len(raw) + 1):
        assert row_values(parse_chunked(raw, {37: IRR_37}, size)[37]) == ({}, {(7, 32): 0})


def test_crlf_and_other_line_breaks_number_lines_as_splitlines():
    # "\r\n" is one break at every block size, as a block ends only after
    # its "\n"; "\r", "\x85" and "\u2028" are breaks of their own
    text = "E\t37\t1\t32\t5\r\n# c\rE\t37\t3\t32\t5\x85\u2028E\t37\t5\t32\t5\r\nE\t37\t8\t32\t5\r\n"
    bad = text.splitlines().index("E\t37\t8\t32\t5") + 1
    raw = text.encode()
    for size in range(1, len(raw) + 1):
        assert parse_error(raw, {37: IRR_37}, size) == (
            f"line {bad}: i must be odd in [1, p-2], got 8")
    good = raw[:raw.index(b"E\t37\t8")]
    assert set(row_values(parse_chunked(good, {37: IRR_37}, 4)[37])[1]) == {
        (1, 32), (3, 32), (5, 32)}


def test_undecodable_byte_past_first_chunk_names_its_file_position():
    rows = serialize_pairing_table(synth_table(37, IRR_37, seed=4)).encode()
    cases = [rows + b"# \xff\n",           # invalid start byte
             rows + b"# \xe2\x9c",         # truncated at the end of the file
             rows + b"# \xe2\x28\xa1\n"]   # invalid continuation byte
    for raw in cases:
        with pytest.raises(UnicodeDecodeError) as info:
            raw.decode("utf-8")
        want = f"not UTF-8 text: {info.value}"
        assert str(len(rows) + 2) in want
        for size in (1, 2, 3, 16, 100, len(raw)):
            assert parse_error(raw, {37: IRR_37}, size) == want


def test_blocks_split_as_splitlines():
    # blocks of whole lines at every size; "\r\n" never straddles two.  The
    # first bad line is numbered as in the text split whole, and the last
    # line is always bad
    pieces = ["E\t37\t7\t32\t5", "#", "é", "✓", "\r", "\n", "\r\n", "\x85",
              "\u2028", "\x0b", "\x1c", " ", "x"]
    rng = random.Random(11)
    for _ in range(300):
        text = "".join(rng.choice(pieces) for _ in range(rng.randint(0, 10)))
        raw = (text + "\nbad\n").encode()
        whole = parse_error(raw, {37: IRR_37}, len(raw))
        assert whole.startswith("line ")
        for size in (1, 2, 3, 5):
            assert parse_error(raw, {37: IRR_37}, size) == whole


def test_long_line_costs_its_length():
    # an 8 MB line without a break is 2048 times READ_CHUNK; it is read as
    # one block and split once, not rejoined for every READ_CHUNK bytes
    raw = b"E\t37\t3\t32\t5\n" + b"x" * (8 << 20)
    start = time.perf_counter()
    assert parse_error(raw, {37: IRR_37}, pairing.READ_CHUNK) == (
        "line 2: expected 5 fields, got 1")
    assert time.perf_counter() - start < 2


# -- which error is reported ----------------------------------------------------

@pytest.mark.parametrize("text, message", [
    # an undecodable byte no longer beats a bad row before it
    pytest.param(b"E\t37\t7\t32\t5\nE\t37\t7\n# \xff\n", "line 2: expected 5 fields, got 3",
                 id="format-error-before-undecodable"),
    pytest.param(b"E\t37\t7\t32\t5\n# \xff\nE\t37\t7\n", "not UTF-8 text:",
                 id="undecodable-before-format-error"),
    # a range or duplicate error no longer loses to a format error after it
    pytest.param(b"E\t37\t7\t32\t37\nX\t37\t7\t32\t5\n", "line 1: value 37 out of range",
                 id="range-error-before-format-error"),
    pytest.param(b"E\t37\t7\t32\t5\nE\t37\t7\t32\t5\nE\t37\t7\n", "line 2: duplicate E key",
                 id="duplicate-before-format-error"),
    # rows are no longer checked one prime at a time
    pytest.param(b"E\t37\t1\t32\t5\nB\t1217\t784\t866\t5\nE\t1217\t2\t784\t5\nE\t37\t1\t32\t5\n",
                 "line 3: i must be odd", id="across-primes"),
    # the B/E zeroness check comes after every row
    pytest.param(b"B\t1217\t784\t866\t0\nE\t1217\t433\t866\t9\nE\t37\t7\t30\t5\n",
                 "line 3: index 30 is not irregular", id="row-error-before-zeroness"),
])
def test_first_bad_line_in_file_order_is_reported(text, message):
    R_by_p = {37: IRR_37, 1217: IRR_1217}
    for size in (1, 4, len(text)):
        assert message in parse_error(text, R_by_p, size)


def test_zeroness_disagreement_names_the_smallest_pair():
    irr = IrregularSet(1217, (784, 866, 1118))
    text = ("B\t1217\t866\t1118\t0\nE\t1217\t351\t1118\t3\n"
            "B\t1217\t784\t866\t4\nE\t1217\t433\t866\t0\n")
    with pytest.raises(PairingFormatError, match=r"^b\(784,866\) and e\(433,866\) disagree"):
        parse_one(text, irr)


def test_parsed_table_keeps_no_values():
    text = "B\t1217\t784\t866\t0\nB\t1217\t784\t1118\t7\nE\t1217\t1\t866\t0\nE\t1217\t3\t866\t9\n"
    table = parse_one(text, IRR_1217)
    assert row_values(table) == ({(784, 866): 0, (784, 1118): 1}, {(1, 866): 0, (3, 866): 1})
    assert (len(table.b_entries), len(table.e_entries)) == (2, 2)
    # bit j is offset 2j + 1; b(784, k') sits at offset 1217 - 784 = 433 under k'
    assert table.b_entries == Rows({866: 1 << 216, 1118: 1 << 216}, {866: 1 << 216})
    assert table.e_entries == Rows({866: 0b11}, {866: 0b01})
    assert table == PairingTable(1217, table.b_entries, table.e_entries)
    assert PairingTable(1217) == (1217, Rows(), Rows())
    assert table.b_entries != table.e_entries and Rows() != {}
