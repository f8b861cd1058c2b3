"""Helpers shared by several test modules."""

from cyclopair.pairing import PairingTable, parse_pairing_file, serialize_pairing_table


def zero_indices(row: dict[int, int]) -> tuple[int, ...]:
    """The even k with B_k == 0 mod p in a row {k: B_k mod p}, ascending."""
    return tuple(sorted(k for k, v in row.items() if v == 0))


def parsed(irr, rows) -> PairingTable:
    """The table the CLI reads from the text of rows (a TableValues, as
    synth_table makes): serialized, then parsed; empty without rows."""
    text = serialize_pairing_table(rows).encode()
    return parse_pairing_file([text], {irr.p: irr}).get(irr.p, PairingTable(irr.p))


def row_values(table: PairingTable) -> tuple[dict, dict]:
    """The B and E rows of a parsed table as dicts key -> 0 (zero) or 1
    (nonzero), read bit by bit: bit j stands for offset 2j + 1, an E row
    (i, k) sits at offset i under k and a B row (k, k') at offset p - k
    under k'."""
    def read(rows, key):
        values = {}
        for c, present in rows.present.items():
            zero = rows.zero.get(c, 0)
            for j in range(present.bit_length()):
                if present >> j & 1:
                    values[key(2 * j + 1, c)] = 0 if zero >> j & 1 else 1
        return values

    return (read(table.b_entries, lambda i, kp: (table.p - i, kp)),
            read(table.e_entries, lambda i, k: (i, k)))
