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

Missing data is explicit and flows through as the ``missing`` component of
an EligibleSet; nothing here ever invents a value.
"""

import random
from dataclasses import dataclass, field
from typing import Iterable, Mapping

from .bernoulli import IrregularSet


class PairingFormatError(ValueError):
    """Malformed or inconsistent pairing data; message carries the line."""


@dataclass(frozen=True)
class PairingTable:
    p: int
    b_entries: Mapping[tuple[int, int], int] = field(default_factory=dict)
    e_entries: Mapping[tuple[int, int], int] = field(default_factory=dict)


@dataclass(frozen=True)
class EligibleSet:
    """Odd offsets with all-nonzero pairing data, plus the undetermined ones.

    ``eligible`` holds the odd i in [1, p-2] whose e-entry is present and
    nonzero for every irregular k; ``missing`` the odd i lacking an entry for
    some k.  ``s`` is only meaningful on complete data.
    """

    p: int
    eligible: tuple[int, ...]
    missing: tuple[int, ...]

    @property
    def complete(self) -> bool:
        return not self.missing

    @property
    def s(self) -> int | None:
        return len(self.eligible) if self.complete else None


def _build_table(
    p: int,
    rows: Iterable[tuple[int, str, int, int, int]],
    expected_R: IrregularSet,
) -> PairingTable:
    R = set(expected_R.indices)
    b_entries: dict[tuple[int, int], int] = {}
    e_entries: dict[tuple[int, int], int] = {}
    for lineno, kind, a, b, value in rows:
        if not 0 <= value < p:
            raise PairingFormatError(
                f"line {lineno}: value {value} out of range [0, {p})"
            )
        if kind == "B":
            k, kp = a, b
            if k >= kp:
                raise PairingFormatError(f"line {lineno}: B row needs k < k'")
            for key in (k, kp):
                if key not in R:
                    raise PairingFormatError(
                        f"line {lineno}: index {key} is not irregular for {p}"
                    )
            if (k, kp) in b_entries:
                raise PairingFormatError(f"line {lineno}: duplicate B key ({k},{kp})")
            b_entries[(k, kp)] = value
        else:
            i, k = a, b
            if i % 2 == 0 or not 1 <= i <= p - 2:
                raise PairingFormatError(
                    f"line {lineno}: i must be odd in [1, p-2], got {i}"
                )
            if k not in R:
                raise PairingFormatError(
                    f"line {lineno}: index {k} is not irregular for {p}"
                )
            if (i, k) in e_entries:
                raise PairingFormatError(f"line {lineno}: duplicate E key ({i},{k})")
            e_entries[(i, k)] = value
    for (k, kp), bv in b_entries.items():
        i, _ = b_to_e(expected_R, k, kp)
        ev = e_entries.get((i, kp))
        if ev is not None and (bv == 0) != (ev == 0):
            raise PairingFormatError(
                f"b({k},{kp}) and e({i},{kp}) disagree on zeroness for p={p}"
            )
    return PairingTable(p, b_entries, e_entries)


def _rows_with_prime(text) -> Iterable[tuple[int, int, str, int, int, int]]:
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) != 5:
            raise PairingFormatError(
                f"line {lineno}: expected 5 fields, got {len(fields)}"
            )
        kind = fields[0]
        if kind not in ("B", "E"):
            raise PairingFormatError(f"line {lineno}: unknown row kind {kind!r}")
        try:
            p, a, b, value = (int(x) for x in fields[1:])
        except ValueError:
            raise PairingFormatError(f"line {lineno}: non-integer field") from None
        yield lineno, p, kind, a, b, value


def parse_pairing_file(
    text, R_by_p: Mapping[int, IrregularSet]
) -> dict[int, PairingTable]:
    """Split a multi-prime table into per-prime tables.

    Rows for primes absent from R_by_p are ignored (they belong to a range
    the caller is not sweeping); a prime without rows gets no table.
    """
    grouped: dict[int, list] = {}
    for lineno, p, kind, a, b, value in _rows_with_prime(text):
        if p in R_by_p:
            grouped.setdefault(p, []).append((lineno, kind, a, b, value))
    return {
        p: _build_table(p, rows, R_by_p[p])
        for p, rows in grouped.items()
    }


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
    R = set(irr.indices)
    if k not in R or kp not in R:
        raise ValueError(f"({k}, {kp}) is not a pair of irregular indices for {irr.p}")
    if k >= kp:
        raise ValueError("b_to_e needs k < k'")
    return irr.p - k, kp


def eligible_set(irr: IrregularSet, table: PairingTable | None) -> EligibleSet:
    """Odd i with e(i,k) present and nonzero for every irregular k.

    Any i with an absent entry lands in ``missing``, never in the eligible
    set.  With R empty the conjunction is vacuous: every odd i qualifies.
    """
    p = irr.p
    odd = range(1, p - 1, 2)
    if not irr.indices:
        return EligibleSet(p, tuple(odd), ())
    if table is not None and table.p != p:
        raise ValueError(f"table is for {table.p}, expected {p}")
    # one pass over the table: for each offset, how many irregular k have an
    # entry there, and the offsets where one of them is zero
    R = set(irr.indices)
    present: dict[int, int] = {}
    zero: set[int] = set()
    for (i, k), v in (table.e_entries if table is not None else {}).items():
        if k in R:
            present[i] = present.get(i, 0) + 1
            if v == 0:
                zero.add(i)
    r = len(R)
    eligible = [i for i in odd if present.get(i) == r and i not in zero]
    missing = [i for i in odd if present.get(i, 0) < r]
    return EligibleSet(p, tuple(eligible), tuple(missing))


def synth_table(
    p: int,
    R: IrregularSet,
    zero_keys: Iterable[tuple[int, int]] = (),
    seed: int = 0,
) -> PairingTable:
    """Full synthetic e-table: zeros exactly at zero_keys, seeded nonzero
    values elsewhere.  Deterministic in seed."""
    zeros = set(zero_keys)
    valid = {(i, k) for i in range(1, p - 1, 2) for k in R.indices}
    if not zeros <= valid:
        raise ValueError(f"zero_keys outside the table: {sorted(zeros - valid)}")
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
    rng = random.Random(seed)
    b_entries = {
        pair: 0 if pair in zeros else rng.randrange(1, p) for pair in pairs
    }
    return PairingTable(p, b_entries, {})
