"""A reference for how a report puts its pieces together.

The oracle reads the B and E rows into dicts by key and derives, by the
definitions alone, the fields of a report that depend on the table and the
flags: the eligible and missing offsets, s, the two verdict statuses and
the packing number d, the last by brute force.  A hypothesis test compares
them with the report the program builds from the same rows, on random
tables with zeros, missing rows, B-only pairs and every flag setting.
"""

import random
from itertools import combinations

from hypothesis import example, given, settings, strategies as st

from cyclopair.bernoulli import irregular_indices
from cyclopair.criteria import FLAG_FALSE_UNKNOWN, FLAG_TRUE, HypothesisFlags
from cyclopair.packing import PackingInstance, brute_force_packing
from cyclopair.pairing import (
    PairingTable,
    TableValues,
    parse_pairing_file,
    serialize_pairing_table,
)
from cyclopair.report import build_report

# r <= 2, and p = 491 (r = 3) with few eligible offsets, so brute force ends
ORACLE_PRIMES = {p: irregular_indices(p)
                 for p in (37, 41, 59, 157, 353, 379, 467, 491)}
MAX_ELIGIBLE = 14  # and at most 3 more from the pairs' data: brute force stays fast


def oracle(irr, b_rows: dict, e_rows: dict, flags: HypothesisFlags, congruence_ok: bool):
    """The report fields that follow from the rows by definition."""
    p, R = irr.p, irr.indices
    odd = range(1, p - 1, 2)
    eligible = [i for i in odd if all(e_rows.get((i, k), 0) != 0 for k in R)]
    missing = [i for i in odd if any((i, k) not in e_rows for k in R)]
    s = None if missing else len(eligible)
    vandiver = flags.vandiver != FLAG_FALSE_UNKNOWN
    procyclic = flags.procyclic != FLAG_FALSE_UNKNOWN

    if not vandiver:
        greenberg = "INCONCLUSIVE"
    elif not R:
        greenberg = "TRIVIAL"
    elif eligible:
        greenberg = "HOLDS"
    else:
        greenberg = "CONDITIONAL" if missing else "INCONCLUSIVE"

    states = []
    for k, kp in combinations(R, 2):
        b, e = b_rows.get((k, kp)), e_rows.get((p - k, kp))  # the same datum
        if 0 in (b, e):
            states.append("zero")
        elif e is not None:
            states.append("nonzero")
        else:
            states.append("missing" if b is None else "nonzero-b")
    if not (vandiver and procyclic):
        gk = "INCONCLUSIVE"
    elif len(R) <= 1:
        gk = "HOLDS"
    elif not congruence_ok:
        gk = "INCONCLUSIVE"
    elif "zero" in states:
        gk = "FAILS"
    elif "missing" in states:
        gk = "CONDITIONAL"
    elif "nonzero-b" in states and flags.pairing_surjective != FLAG_TRUE:
        gk = "CONDITIONAL"
    else:
        gk = "HOLDS"

    d = None
    if vandiver and R:
        d = brute_force_packing(PackingInstance(p - 1, R, eligible)).count
    return {"eligible": len(eligible), "missing": len(missing), "s": s,
            "greenberg": greenberg, "gk": gk, "module_zero": vandiver and not R,
            "d": d}


def random_rows(irr, rng: random.Random, sources) -> tuple[dict, dict]:
    """B and E rows by key.  At most MAX_ELIGIBLE offsets are drawn with
    every E row present and nonzero.  Then the datum of the j-th pair k < k'
    goes in the rows that sources[j] names, "B", "E", both or neither, with
    one value, so B and E agree on it."""
    p, R = irr.p, irr.indices
    odd = list(range(1, p - 1, 2))
    p_missing = rng.choice((0.0, 0.02, 0.3, 1.0))
    p_zero = rng.choice((0.0, 0.02, 0.3))
    size = rng.choice((0, rng.randint(1, min(MAX_ELIGIBLE, len(odd)))))
    keep = set(rng.sample(odd, size))
    e_rows = {}
    for i in odd:
        states = ["missing" if rng.random() < p_missing else
                  "zero" if rng.random() < p_zero else "nonzero" for _ in R]
        if i in keep:
            states = ["nonzero"] * len(R)
        elif R and all(state == "nonzero" for state in states):
            states[rng.randrange(len(R))] = "zero" if not p_missing else rng.choice(
                ("missing", "zero"))
        for k, state in zip(R, states):
            if state != "missing":
                e_rows[(i, k)] = 0 if state == "zero" else rng.randrange(1, p)
    b_rows = {}
    for (k, kp), source in zip(combinations(R, 2), sources):
        value = 0 if rng.random() < 0.2 else rng.randrange(1, p)
        e_rows.pop((p - k, kp), None)
        if "E" in source:
            e_rows[(p - k, kp)] = value
        if "B" in source:
            b_rows[(k, kp)] = value
    return b_rows, e_rows


FLAG_STATES = st.sampled_from(("true", "assumed", "false-unknown"))


@settings(max_examples=80, deadline=None)
@given(
    p=st.sampled_from(sorted(ORACLE_PRIMES)),
    seed=st.integers(min_value=0, max_value=2**32),
    sources=st.lists(st.sampled_from(("", "B", "E", "BE")), min_size=3, max_size=3),
    vandiver=FLAG_STATES,
    procyclic=FLAG_STATES,
    surjective=st.sampled_from(("true", "unknown")),
)
# B-only pairs, which hold only if the pairing is surjective
@example(p=157, seed=1, sources=["B"] * 3, vandiver="assumed", procyclic="true",
         surjective="unknown")
@example(p=491, seed=2, sources=["B", "BE", "E"], vandiver="true", procyclic="assumed",
         surjective="true")
def test_report_matches_oracle(p, seed, sources, vandiver, procyclic, surjective):
    irr = ORACLE_PRIMES[p]
    b_rows, e_rows = random_rows(irr, random.Random(seed), sources)
    text = serialize_pairing_table(TableValues(p, b_rows, e_rows)).encode()
    table = parse_pairing_file([text], {p: irr}).get(p, PairingTable(p))
    flags = HypothesisFlags(vandiver, procyclic, surjective)
    obj = build_report(irr, table, flags, "sha256:-").to_obj()
    got = {**obj["pairing"], "greenberg": obj["greenberg"], "gk": obj["gk"],
           "module_zero": obj["height"]["module_zero"], "d": obj["height"]["d"]}
    assert got == oracle(irr, b_rows, e_rows, flags, obj["congruence"]["ok"])
