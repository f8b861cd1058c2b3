"""Exact desk-scale checks for irregular primes, cup-product pairing data,
and disjoint-translate packing bounds on cyclotomic class-group invariants."""

__version__ = "0.1.0"

from .bernoulli import (
    BernoulliRow,
    IrregularSet,
    bernoulli_fast_row,
    bernoulli_naive_row,
    bernoulli_voronoi,
    irregular_indices,
    irregular_sweep,
)
from .criteria import (
    HeightBound,
    HypothesisFlags,
    Verdict,
    gk_verdict,
    greenberg_verdict,
    height_lower_bound,
)
from .eigenstructure import CongruenceCheckResult, check_congruences, congruence_sweep
from .packing import (
    PackingInstance,
    PackingResult,
    brute_force_packing,
    conflict_diffs,
    max_disjoint_translates_exact,
)
from .pairing import (
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
