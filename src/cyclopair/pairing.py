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

A parsed table therefore keeps no values.  Per irregular k and row kind it
holds two bitsets over the odd offsets, bit j standing for i = 2j + 1:
``present``, the offsets with a row, and ``zero``, those whose value is 0.
A B row (k, k') sets the bit of offset p - k under k', where the e-datum it
shares lives.  The file is read in one pass, in blocks of whole lines of about
``READ_CHUNK`` bytes, and neither its text, nor a tuple or a dict entry per
row, is kept: memory grows with the bits, not the rows, ``eligible_set``
is a few ANDs per prime and ``pair_status`` a bit test per row kind.

Missing data is explicit and flows through as the ``missing`` component of
an EligibleSet; nothing here ever invents a value.
"""

from collections.abc import Iterable, Iterator, Mapping
from itertools import combinations, compress
from types import MappingProxyType
from typing import NamedTuple

from . import InputError, decimal_int
from .bernoulli import IrregularSet

# bytes of whole lines per read of a pairing file
READ_CHUNK = 1 << 12

_NO_MASKS: Mapping[int, int] = MappingProxyType({})


class PairingFormatError(InputError):
    """Malformed or inconsistent pairing data; message carries the line."""


class Rows:
    """The parsed rows of one kind: ``present[c]`` and ``zero[c]`` are
    bitsets over the odd offsets (bit j for i = 2j + 1).  E rows (i, k) sit
    under c = k; B rows (k, k') under c = k' at offset p - k.  ``len()`` is
    the number of rows."""

    __slots__ = ("present", "zero")

    def __init__(self, present: Mapping[int, int] = _NO_MASKS,
                 zero: Mapping[int, int] = _NO_MASKS):
        self.present, self.zero = present, zero

    def __len__(self) -> int:
        return sum(mask.bit_count() for mask in self.present.values())

    def __eq__(self, other) -> bool:
        if type(other) is not Rows:
            return NotImplemented
        return (self.present, self.zero) == (other.present, other.zero)


class PairingTable(NamedTuple):
    """Pairing data of one prime, read only as zero/nonzero: its B and E
    rows, each empty by default."""

    p: int
    b_entries: Rows = Rows()
    e_entries: Rows = Rows()


class EligibleSet(NamedTuple):
    """Odd offsets with all-nonzero pairing data, plus the undetermined ones,
    as bitsets: bit j stands for offset i = 2j + 1.

    ``eligible`` holds the odd i in [1, p-2] whose e-entry is present and
    nonzero for every irregular k; ``missing`` the odd i lacking an entry for
    some k.  ``s`` is only meaningful on complete data.
    """

    p: int
    eligible: int
    missing: int

    @property
    def complete(self) -> bool:
        return not self.missing

    @property
    def s(self) -> int | None:
        return self.eligible.bit_count() if self.complete else None


_BIT_VALUES = bytes.maketrans(b"01", b"\x00\x01")


def offsets(mask: int) -> tuple[int, ...]:
    """The odd offsets i = 2j + 1 of the set bits j of mask, ascending."""
    bits = bin(mask)[:1:-1].encode().translate(_BIT_VALUES)  # bit j at index j
    return tuple(compress(range(1, 2 * len(bits), 2), bits))


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

    __slots__ = ("p", "R", "e_states", "b")

    def __init__(self, irr: IrregularSet):
        self.p = irr.p
        self.R = irr.indices  # a handful: a tuple is searched as fast as a set
        self.e_states: dict[int, bytearray] = {}
        self.b = Rows({}, {})  # k' -> bits of the offsets p - k

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
        present = self.b.present.get(kp, 0)
        if present & bit:
            raise PairingFormatError(f"line {lineno}: duplicate B key ({k},{kp})")
        self.b.present[kp] = present | bit
        if value == 0:
            self.b.zero[kp] = self.b.zero.get(kp, 0) | bit

    def table(self) -> PairingTable:
        """The table read, once every pair agrees on zeroness across B and E."""
        p, b, e = self.p, self.b, Rows(*_masks(self.e_states))
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


def b_to_e(irr: IrregularSet, k: int, kp: int) -> tuple[int, int]:
    """Index of the e-datum carrying the same pairing value as b(k, k')."""
    # r is a handful, so the sorted index tuple is searched as it stands
    if k not in irr.indices or kp not in irr.indices:
        raise ValueError(f"({k}, {kp}) is not a pair of irregular indices for {irr.p}")
    if k >= kp:
        raise ValueError("b_to_e needs k < k'")
    return irr.p - k, kp


def pair_status(irr: IrregularSet, table: PairingTable, k: int, kp: int) -> str:
    """The state of the pairing datum for the irregular pair (k, k').

    One of "zero", "nonzero" for an e-backed datum, "nonzero-b" for one
    known nonzero only through the published b-table (needs surjectivity),
    or "missing".
    """
    i, _ = b_to_e(irr, k, kp)
    bit = 1 << (i >> 1)  # b(k, k') and e(p - k, k') share this bit under k'
    b, e = table.b_entries, table.e_entries
    if (b.zero.get(kp, 0) | e.zero.get(kp, 0)) & bit:
        return "zero"
    if e.present.get(kp, 0) & bit:
        return "nonzero"
    if b.present.get(kp, 0) & bit:
        return "nonzero-b"
    return "missing"


def eligible_set(irr: IrregularSet, table: PairingTable) -> EligibleSet:
    """Odd i with e(i,k) present and nonzero for every irregular k.

    Any i with an absent entry lands in ``missing``, never in the eligible
    set.  With R empty the conjunction is vacuous: every odd i qualifies.
    """
    p = irr.p
    if table.p != p:
        raise ValueError(f"table is for {table.p}, expected {p}")
    rows = table.e_entries
    full = (1 << (p - 1) // 2) - 1  # the odd offsets in [1, p-2]
    known, eligible = full, full  # offsets with an entry, a nonzero one, for every k
    for k in irr.indices:
        mask = rows.present.get(k, 0)
        known &= mask
        eligible &= mask & ~rows.zero.get(k, 0)
    return EligibleSet(p, eligible, full & ~known)


# -- synthetic tables, for the tests and the benchmark ------------------------

class TableValues(NamedTuple):
    """A generated table's values by key, (k, k') or (i, k); read only by
    ``serialize_pairing_table``, whose text ``parse_pairing_file`` reads."""

    p: int
    b_entries: dict[tuple[int, int], int]
    e_entries: dict[tuple[int, int], int]


def serialize_pairing_table(table: TableValues) -> str:
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


def synth_table(
    p: int,
    R: IrregularSet,
    zero_keys: Iterable[tuple[int, int]] = (),
    seed: int = 0,
) -> TableValues:
    """Full synthetic e-table: zeros exactly at zero_keys, seeded nonzero
    values elsewhere.  Deterministic in seed."""
    zeros = set(zero_keys)
    if bad := [(i, k) for i, k in zeros if not (i % 2 and 1 <= i <= p - 2 and k in R.indices)]:
        raise ValueError(f"zero_keys outside the table: {sorted(bad)}")
    import random  # only the test and benchmark tables draw numbers

    rng = random.Random(seed)
    e_entries = {}
    for i in range(1, p, 2):  # the odd i in [1, p-2]
        for k in R.indices:
            e_entries[(i, k)] = 0 if (i, k) in zeros else rng.randrange(1, p)
    return TableValues(p, {}, e_entries)


def synth_b_table(
    p: int,
    R: IrregularSet,
    zero_pairs: Iterable[tuple[int, int]] = (),
    seed: int = 0,
) -> TableValues:
    """Full synthetic b-table over the pairs k < k' from R."""
    zeros = set(zero_pairs)
    pairs = list(combinations(R.indices, 2))  # each k < k', in order
    if not zeros <= set(pairs):
        raise ValueError(f"zero_pairs outside the table: {sorted(zeros - set(pairs))}")
    import random  # only the test and benchmark tables draw numbers

    rng = random.Random(seed)
    b_entries = {
        pair: 0 if pair in zeros else rng.randrange(1, p) for pair in pairs
    }
    return TableValues(p, b_entries, {})
