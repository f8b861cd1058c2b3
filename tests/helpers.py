"""Helpers shared by several test modules."""


def zero_indices(row) -> tuple[int, ...]:
    """The even k with B_k == 0 mod p in a BernoulliRow, ascending."""
    return tuple(sorted(k for k, v in row.values.items() if v == 0))
