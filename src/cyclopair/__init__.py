"""Exact desk-scale checks for irregular primes, cup-product pairing data,
and disjoint-translate packing bounds on cyclotomic class-group invariants.

The public names below load their defining module on first use, so a run
that only sweeps Bernoulli numbers never loads the pairing, packing,
criteria or report modules.
"""

__version__ = "0.1.0"


class InputError(ValueError):
    """A command-line value or input line the CLI rejects (exit 2)."""


def decimal_int(field: str) -> int:
    """The integer a field of ASCII digits spells; the form every file this
    package reads is written in.  ``int()`` alone would also accept signs,
    underscores, surrounding spaces and non-ASCII digits."""
    if not (field.isascii() and field.isdigit()):
        raise ValueError(f"{field!r} is not a decimal integer")
    return int(field)


# public name -> the submodule that defines it
_EXPORTS = {name: module for module, names in [
    ("bernoulli", ["IrregularSet", "bernoulli_fast_row", "bernoulli_naive_row",
                   "bernoulli_voronoi", "irregular_indices", "irregular_sweep"]),
    ("criteria", ["HeightBound", "HypothesisFlags", "Verdict", "gk_verdict",
                  "greenberg_verdict", "height_lower_bound"]),
    ("eigenstructure", ["CongruenceCheckResult", "check_congruences", "congruence_sweep"]),
    ("packing", ["PackingInstance", "PackingResult", "brute_force_packing",
                 "conflict_diffs", "max_disjoint_translates_exact"]),
    ("pairing", ["EligibleSet", "PairingFormatError", "PairingTable", "b_to_e",
                 "eligible_set", "parse_pairing_file", "serialize_pairing_table",
                 "synth_b_table", "synth_table"]),
] for name in names}

__all__ = ["InputError", *_EXPORTS]


def __getattr__(name: str):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    import importlib

    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups skip this hook
    return value
