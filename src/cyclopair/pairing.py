"""Pairing-coefficient tables and the eligible-offset sets derived from them.

Tables carry two independent partial views of the same pairing data:

* B rows ``B <p> <k> <k'> <value>`` -- one value per irregular pair k < k',
  the published-table form.
* E rows ``E <p> <i> <k> <value>`` -- one value per odd i and irregular k,
  the coefficient of the pairing value in the cyclic target eigenspace.

Values are residues in [0, p) but every consumer downstream reads them only
as zero/nonzero: the tables are normalized only up to a unit.  A b-entry at
(k, k') and an e-entry at (p-k, k') describe the same datum, so a table that
carries both with mismatched zeroness is rejected.

A parsed table therefore keeps no values.  Per irregular k it holds two
bitsets over the odd offsets, bit j standing for i = 2j + 1: ``present``,
the offsets with a row, and ``zero``, those whose value is 0.  A B row
(k, k') sets the bit of offset p - k under k', where the e-datum it shares
lives.  The file is read in one pass, in blocks of whole lines of about
``READ_CHUNK`` bytes, and neither its text, nor a tuple or a dict entry per
row, is kept: memory grows with the bits, not the rows, and
``eligible_set`` is a few ANDs per prime.

Missing data is explicit and flows through as the ``missing`` component of
an EligibleSet; nothing here ever invents a value.
"""

from collections.abc import Iterable, Iterator, Mapping, Sequence
from itertools import compress
from types import MappingProxyType
from typing import NamedTuple

from . import InputError
from .bernoulli import IrregularSet
from .cache import decimal_int

# bytes of whole lines per read of a pairing file
READ_CHUNK = 1 << 12


class PairingFormatError(InputError):
    """Malformed or inconsistent pairing data; message carries the line."""


class PairingTable(NamedTuple):
    """Pairing data of one prime, read only as zero/nonzero.

    ``b_entries`` maps (k, k') and ``e_entries`` maps (i, k) to a value; a
    parsed table maps each key to 0 (zero) or 1 (nonzero).  Either defaults
    to an empty read-only mapping.
    """

    p: int
    b_entries: Mapping[tuple[int, int], int] = MappingProxyType({})
    e_entries: Mapping[tuple[int, int], int] = MappingProxyType({})


class EligibleSet(NamedTuple):
    """Odd offsets with all-nonzero pairing data, plus the undetermined ones.

    ``eligible`` holds the odd i in [1, p-2] whose e-entry is present and
    nonzero for every irregular k; ``missing`` the odd i lacking an entry for
    some k.  Both ascend; a field that holds every odd i may be the
    ``range`` itself, so compare with ``tuple(...)``.  ``s`` is only
    meaningful on complete data.
    """

    p: int
    eligible: Sequence[int]
    missing: Sequence[int]

    @property
    def complete(self) -> bool:
        return not self.missing

    @property
    def s(self) -> int | None:
        return len(self.eligible) if self.complete else None


_BIT_VALUES = bytes.maketrans(b"01", b"\x00\x01")


def _offsets(mask: int) -> tuple[int, ...]:
    """The odd offsets i = 2j + 1 of the set bits j of mask, ascending."""
    bits = bin(mask)[:1:-1].encode().translate(_BIT_VALUES)  # bit j at index j
    return tuple(compress(range(1, 2 * len(bits), 2), bits))


class RowMasks(Mapping):
    """Parsed rows of one kind as a read-only mapping key -> 0 or 1.

    ``present[c]`` and ``zero[c]`` are bitsets over odd offsets (bit j for
    i = 2j + 1).  E rows are keyed (i, k) with c = k; B rows are keyed
    (k, k') with c = k' and i = p - k.
    """

    __slots__ = ("p", "pairs", "present", "zero")

    def __init__(self, p: int, pairs: bool, present: dict, zero: dict):
        self.p, self.pairs = p, pairs
        self.present, self.zero = present, zero

    def __getitem__(self, key) -> int:
        a, c = key
        i = self.p - a if self.pairs else a
        if i > 0 and i % 2 and self.present.get(c, 0) >> (i >> 1) & 1:
            return 0 if self.zero.get(c, 0) >> (i >> 1) & 1 else 1
        raise KeyError(key)

    def __iter__(self) -> Iterator[tuple[int, int]]:
        for c, mask in self.present.items():
            for i in _offsets(mask):
                yield ((self.p - i) if self.pairs else i), c

    def __len__(self) -> int:
        return sum(mask.bit_count() for mask in self.present.values())


_PRESENT_DIGITS = bytes.maketrans(b"\x00\x01\x02", b"011")
_ZERO_DIGITS = bytes.maketrans(b"\x00\x01\x02", b"001")


def _masks(states_by_index: dict[int, bytearray]) -> tuple[dict, dict]:
    """(present, zero) bitsets per index of row states."""
    def mask(states, digits):
        return int(states.translate(digits)[::-1], 2)

    return ({c: mask(s, _PRESENT_DIGITS) for c, s in states_by_index.items()},
            {c: mask(s, _ZERO_DIGITS) for c, s in states_by_index.items()})


class _TableReader:
    """Validates the rows of one prime.  E rows go into one state byte per
    odd offset and k (0 absent, 1 nonzero, 2 zero), B rows, a few per
    prime, straight into bitsets."""

    __slots__ = ("p", "R", "e_states", "b_present", "b_zero")

    def __init__(self, irr: IrregularSet):
        self.p = irr.p
        self.R = irr.indices  # a handful: a tuple is searched as fast as a set
        self.e_states: dict[int, bytearray] = {}
        self.b_present: dict[int, int] = {}  # k' -> bits of the offsets p - k
        self.b_zero: dict[int, int] = {}

    def _out_of_range(self, lineno: int, value: int) -> PairingFormatError:
        return PairingFormatError(
            f"line {lineno}: value {value} out of range [0, {self.p})"
        )

    def add_e(self, lineno: int, i: int, k: int, value: int) -> None:
        p = self.p
        if not 0 <= value < p:
            raise self._out_of_range(lineno, value)
        if i % 2 == 0 or not 1 <= i <= p - 2:
            raise PairingFormatError(
                f"line {lineno}: i must be odd in [1, p-2], got {i}"
            )
        states = self.e_states.get(k)
        if states is None:
            if k not in self.R:
                raise PairingFormatError(
                    f"line {lineno}: index {k} is not irregular for {p}"
                )
            states = self.e_states[k] = bytearray((p - 1) // 2)
        if states[i >> 1]:
            raise PairingFormatError(f"line {lineno}: duplicate E key ({i},{k})")
        states[i >> 1] = 2 if value == 0 else 1

    def add_b(self, lineno: int, k: int, kp: int, value: int) -> None:
        if not 0 <= value < self.p:
            raise self._out_of_range(lineno, value)
        if k >= kp:
            raise PairingFormatError(f"line {lineno}: B row needs k < k'")
        for key in (k, kp):
            if key not in self.R:
                raise PairingFormatError(
                    f"line {lineno}: index {key} is not irregular for {self.p}"
                )
        bit = 1 << ((self.p - k) >> 1)
        present = self.b_present.get(kp, 0)
        if present & bit:
            raise PairingFormatError(f"line {lineno}: duplicate B key ({k},{kp})")
        self.b_present[kp] = present | bit
        if value == 0:
            self.b_zero[kp] = self.b_zero.get(kp, 0) | bit

    def table(self) -> PairingTable:
        """The table read, once every pair agrees on zeroness across B and E."""
        p = self.p
        b = RowMasks(p, True, self.b_present, self.b_zero)
        e = RowMasks(p, False, *_masks(self.e_states))
        # the highest offset of a disagreement under k' is its smallest k
        disagree = [
            (p + 1 - 2 * bad.bit_length(), kp)
            for kp, present in b.present.items()
            if (bad := present & e.present.get(kp, 0)
                & (b.zero.get(kp, 0) ^ e.zero.get(kp, 0)))
        ]
        if disagree:
            k, kp = min(disagree)
            raise PairingFormatError(
                f"b({k},{kp}) and e({p - k},{kp}) disagree on zeroness for p={p}"
            )
        return PairingTable(p, b, e)


def _not_utf8(exc: UnicodeDecodeError, start: int) -> PairingFormatError:
    """The whole-text decoder's message for exc, whose input began at byte
    start of the file."""
    lo, hi = exc.start + start, exc.end + start
    if hi - lo == 1:
        where = f"byte 0x{exc.object[exc.start]:02x} in position {lo}"
    else:
        where = f"bytes in position {lo}-{hi - 1}"
    return PairingFormatError(
        f"not UTF-8 text: 'utf-8' codec can't decode {where}: {exc.reason}"
    )


def _line_blocks(blocks: Iterable[bytes]) -> Iterator[list[str]]:
    """The lines of UTF-8 text arriving in blocks of whole lines (see
    ``read_blocks``), a list per block, split as ``str.splitlines`` splits
    the whole text: a block ends at a newline byte, which no multibyte UTF-8
    sequence holds and which ends every line break it is part of.

    An undecodable byte raises only after the lines before it.
    """
    start = 0  # file position of the block
    for block in blocks:
        try:
            text = block.decode("utf-8")
        except UnicodeDecodeError as exc:
            # a stand-in for the bad byte ends the text inside its line, so
            # every line before that one comes out whole
            yield (block[:exc.start].decode("utf-8") + "\ufffd").splitlines()[:-1]
            raise _not_utf8(exc, start) from None
        start += len(block)
        yield text.splitlines()


def read_blocks(fh, sha) -> Iterator[bytes]:
    """The bytes of the binary file fh in blocks of whole lines, about
    READ_CHUNK bytes each (one long line makes a longer block), each fed to
    the hash object sha as it is read."""
    while block := b"".join(fh.readlines(READ_CHUNK)):
        sha.update(block)
        yield block


def _rows(source: Iterable[bytes]) -> Iterator[tuple]:
    """The rows (line number, kind, p, a, b, value) of the text arriving in
    blocks of whole lines, format-checked, in file order."""
    lineno = 0
    for lines in _line_blocks(source):
        for raw in lines:
            lineno += 1
            fields = raw.split()
            if not fields or fields[0][0] == "#":
                continue
            if len(fields) != 5:
                raise PairingFormatError(
                    f"line {lineno}: expected 5 fields, got {len(fields)}"
                )
            kind = fields[0]
            if kind not in ("B", "E"):
                raise PairingFormatError(f"line {lineno}: unknown row kind {kind!r}")
            numbers = fields[1:]
            digits = "".join(numbers)
            try:
                # the row's digits are checked at once; decimal_int, field by
                # field, only names the first bad one
                if digits.isascii() and digits.isdigit():
                    p, a, b, value = map(int, numbers)
                else:
                    p, a, b, value = map(decimal_int, numbers)
            except ValueError as exc:
                raise PairingFormatError(f"line {lineno}: {exc}") from None
            yield lineno, kind, p, a, b, value


def parse_pairing_file(
    source: Iterable[bytes], R_by_p: Mapping[int, IrregularSet]
) -> dict[int, PairingTable]:
    """Split a multi-prime table into per-prime tables.

    ``source`` is the UTF-8 text in blocks of whole lines (see
    ``read_blocks``).  Rows for primes absent from R_by_p are ignored (they
    belong to a range the caller is not sweeping); a prime without rows gets
    no table.  The first bad line in file order is reported; the B/E
    zeroness check runs once every row is read.
    """
    readers: dict[int, _TableReader] = {}
    for lineno, kind, p, a, b, value in _rows(source):
        reader = readers.get(p)
        if reader is None:
            if p not in R_by_p:
                continue
            reader = readers[p] = _TableReader(R_by_p[p])
        if kind == "E":
            reader.add_e(lineno, a, b, value)
        else:
            reader.add_b(lineno, a, b, value)
    # each reader is dropped as its table is made, so the two never all coexist
    return {p: readers.pop(p).table() for p in list(readers)}


def serialize_pairing_table(table: PairingTable) -> str:
    """Canonical text form: sorted B rows, then sorted E rows."""
    lines = [
        f"B\t{table.p}\t{k}\t{kp}\t{v}"
        for (k, kp), v in sorted(table.b_entries.items())
    ]
    lines += [
        f"E\t{table.p}\t{i}\t{k}\t{v}"
        for (i, k), v in sorted(table.e_entries.items())
    ]
    return "".join(line + "\n" for line in lines)


def b_to_e(irr: IrregularSet, k: int, kp: int) -> tuple[int, int]:
    """Index of the e-datum carrying the same pairing value as b(k, k')."""
    # r is a handful, so the sorted index tuple is searched as it stands
    if k not in irr.indices or kp not in irr.indices:
        raise ValueError(f"({k}, {kp}) is not a pair of irregular indices for {irr.p}")
    if k >= kp:
        raise ValueError("b_to_e needs k < k'")
    return irr.p - k, kp


def _e_masks(entries: Mapping[tuple[int, int], int], p: int) -> tuple[dict, dict]:
    """(present, zero) bitsets per k of e-entries; keys that are not an odd
    offset in [1, p-2] are no row of a table and are skipped."""
    if isinstance(entries, RowMasks):
        return entries.present, entries.zero
    present: dict[int, int] = {}
    zero: dict[int, int] = {}
    for (i, k), v in entries.items():
        if i % 2 and 1 <= i <= p - 2:
            bit = 1 << (i >> 1)
            present[k] = present.get(k, 0) | bit
            if v == 0:
                zero[k] = zero.get(k, 0) | bit
    return present, zero


def eligible_set(irr: IrregularSet, table: PairingTable | None) -> EligibleSet:
    """Odd i with e(i,k) present and nonzero for every irregular k.

    Any i with an absent entry lands in ``missing``, never in the eligible
    set.  With R empty the conjunction is vacuous: every odd i qualifies.
    """
    p = irr.p
    odd = range(1, p - 1, 2)
    if not irr.indices:
        return EligibleSet(p, odd, ())
    if table is not None and table.p != p:
        raise ValueError(f"table is for {table.p}, expected {p}")
    present, zero = _e_masks(table.e_entries, p) if table is not None else ({}, {})
    full = (1 << len(odd)) - 1
    known, eligible = full, full  # offsets with an entry, a nonzero one, for every k
    for k in irr.indices:
        mask = present.get(k, 0)
        known &= mask
        eligible &= mask & ~zero.get(k, 0)
    if not known:  # some k without any entry: every offset is missing
        return EligibleSet(p, (), odd)
    return EligibleSet(p, _offsets(eligible), _offsets(full & ~known))


def synth_table(
    p: int,
    R: IrregularSet,
    zero_keys: Iterable[tuple[int, int]] = (),
    seed: int = 0,
) -> PairingTable:
    """Full synthetic e-table: zeros exactly at zero_keys, seeded nonzero
    values elsewhere.  Deterministic in seed."""
    zeros = set(zero_keys)
    if bad := [(i, k) for i, k in zeros if not (i % 2 and 1 <= i <= p - 2 and k in R.indices)]:
        raise ValueError(f"zero_keys outside the table: {sorted(bad)}")
    import random  # only the test and benchmark tables draw numbers

    rng = random.Random(seed)
    e_entries = {}
    for i in range(1, p - 1, 2):
        for k in R.indices:
            e_entries[(i, k)] = 0 if (i, k) in zeros else rng.randrange(1, p)
    return PairingTable(p, {}, e_entries)


def synth_b_table(
    p: int,
    R: IrregularSet,
    zero_pairs: Iterable[tuple[int, int]] = (),
    seed: int = 0,
) -> PairingTable:
    """Full synthetic b-table over the pairs k < k' from R."""
    zeros = set(zero_pairs)
    pairs = [
        (k, kp)
        for idx, k in enumerate(R.indices)
        for kp in R.indices[idx + 1:]
    ]
    if not zeros <= set(pairs):
        raise ValueError(f"zero_pairs outside the table: {sorted(zeros - set(pairs))}")
    import random  # only the test and benchmark tables draw numbers

    rng = random.Random(seed)
    b_entries = {
        pair: 0 if pair in zeros else rng.randrange(1, p) for pair in pairs
    }
    return PairingTable(p, b_entries, {})
