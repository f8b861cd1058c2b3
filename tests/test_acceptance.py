"""Acceptance criteria, one test per criterion.

Each test prints one ``ACCEPTANCE n (<name>): PASS|FAIL`` line (run pytest
with -s to see them inline).  The heavy sweep below 25,000 is computed once
per session by the conftest fixture; the tests that need it are marked
``slow``.
"""

import json
import math
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from cyclopair.bernoulli import (
    bernoulli_fast_row,
    bernoulli_naive_row,
    bernoulli_voronoi_row,
)
from cyclopair.criteria import HOLDS, FAILS, HypothesisFlags, greenberg_verdict, height_lower_bound, gk_verdict
from cyclopair.eigenstructure import check_congruences, congruence_sweep
from cyclopair.modmath import is_prime
from cyclopair.packing import (
    PackingInstance,
    brute_force_packing,
    max_disjoint_translates_exact,
    max_disjoint_translates_greedy,
    translates_disjoint,
)
from cyclopair.pairing import eligible_set, parse_pairing_file, synth_b_table, synth_table

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

EXCEPTIONAL = {
    1217: ((784, 866), 3),
    7069: ((1478, 2570), 2),
    9829: ((4562, 7548), 2),
}


def _verdict_line(n: int, name: str, failures: list, elapsed: float | None = None) -> None:
    status = "PASS" if not failures else "FAIL"
    suffix = f" [{elapsed:.1f}s]" if elapsed is not None else ""
    print(f"\nACCEPTANCE {n} ({name}): {status}{suffix}")
    assert not failures, f"criterion {n} ({name}): {failures[:5]}"


def test_acceptance_1_oracle_equivalence():
    start = time.time()
    failures = []
    for p in range(7, 201):
        if not is_prime(p):
            continue
        naive = bernoulli_naive_row(p).values
        if bernoulli_fast_row(p).values != naive:
            failures.append(("fast", p))
        if bernoulli_voronoi_row(p).values != naive:
            failures.append(("voronoi", p))
    elapsed = time.time() - start
    if elapsed >= 10:
        failures.append(("runtime", elapsed))
    _verdict_line(1, "oracle equivalence p <= 200", failures, elapsed)


def test_acceptance_2_exceptional_irregular_indices():
    start = time.time()
    failures = []
    for p, ((k, kp), r) in EXCEPTIONAL.items():
        t0 = time.time()
        row = bernoulli_fast_row(p)
        if time.time() - t0 >= 10:
            failures.append(("runtime", p))
        if row.values[k] != 0 or row.values[kp] != 0:
            failures.append(("nonzero", p))
        if len(row.zero_indices()) != r:
            failures.append(("index of irregularity", p, row.zero_indices()))
    _verdict_line(2, "exceptional irregular indices", failures, time.time() - start)


@pytest.mark.slow
def test_acceptance_3_congruence_sweep_25000(sweep_25000, sweep_cache_dir):
    start = time.time()
    violations = congruence_sweep(25_000, sweep_25000)
    failures = [(cc.p, cc.sum_two_violations, cc.collision_violations)
                for cc in violations]
    covered = {irr.p for irr in sweep_25000}
    if len(covered) != 2759:  # odd primes in [7, 25000)
        failures.append(("coverage", len(covered)))
    # same check through the CLI, reusing the session cache
    res = subprocess.run(
        [sys.executable, "-m", "cyclopair", "congruence-sweep",
         "--max-p", "25000", "--cache", str(sweep_cache_dir)],
        capture_output=True,
    )
    if res.returncode != 0 or res.stdout != b"":
        failures.append(("cli", res.returncode, res.stdout[:200]))
    elapsed = time.time() - start
    if elapsed >= 7200:
        failures.append(("runtime", elapsed))
    _verdict_line(3, "congruence sweep p < 25,000 clean", failures, elapsed)


@pytest.mark.slow
def test_acceptance_4_r_at_most_3_below_1000(sweep_1000):
    start = time.time()
    failures = [(irr.p, irr.r) for irr in sweep_1000 if irr.r > 3]
    if max(irr.r for irr in sweep_1000) != 3:
        failures.append("maximal index of irregularity below 1000 must be 3")
    elapsed = time.time() - start
    if elapsed >= 60:
        failures.append(("runtime", elapsed))
    _verdict_line(4, "r <= 3 for p < 1000", failures, elapsed)


@pytest.mark.slow
def test_acceptance_5_gk_verdicts(sweep_25000, sweep_1000):
    start = time.time()
    failures = []
    by_p = {irr.p: irr for irr in sweep_25000}
    fixture_text = (FIXTURES / "exceptional.tsv").read_bytes()
    for p, ((k, kp), _) in EXCEPTIONAL.items():
        irr = by_p[p]
        table = parse_pairing_file(fixture_text, {p: irr})[p]
        if table.b_entries.get((k, kp)) != 0:
            failures.append(("fixture zero missing", p))
        verdict = gk_verdict(irr, check_congruences(irr), table,
                             HypothesisFlags.defaults_for(p))
        if verdict.status != FAILS:
            failures.append(("expected FAILS", p, verdict.status))
    for irr in sweep_1000:
        if not irr.indices:
            continue
        table = synth_b_table(irr.p, irr, seed=5)
        verdict = gk_verdict(irr, check_congruences(irr), table,
                             HypothesisFlags.defaults_for(irr.p))
        if verdict.status != HOLDS:
            failures.append(("expected HOLDS", irr.p, verdict.status))
    _verdict_line(5, "abelianness verdicts", failures, time.time() - start)


def test_acceptance_6_packing_solvers():
    start = time.time()
    failures = []
    rng = random.Random(250_607)
    for case in range(500):
        m = rng.randint(4, 60)
        shape = rng.sample(range(m), rng.randint(1, min(4, m)))
        size = rng.randint(15, 20) if case % 17 == 0 else rng.randint(0, 14)
        cands = rng.sample(range(m), min(size, m))
        inst = PackingInstance.from_sets(m, shape, cands)
        exact = max_disjoint_translates_exact(inst)
        brute = brute_force_packing(inst)
        greedy = max_disjoint_translates_greedy(inst)
        r = len(inst.shape)
        if exact.count != brute.count:
            failures.append(("exact != brute", inst))
        if greedy.count > exact.count:
            failures.append(("greedy > exact", inst))
        if greedy.count < math.ceil(len(inst.candidates) / (r * r - r + 1)):
            failures.append(("greedy below counting bound", inst))
        for res in (exact, brute, greedy):
            if not translates_disjoint(inst, res.witness):
                failures.append(("invalid witness", res.method, inst))
    elapsed = time.time() - start
    if elapsed >= 30:
        failures.append(("runtime", elapsed))
    _verdict_line(6, "packing: exact = brute on 500 instances", failures, elapsed)


@pytest.mark.slow
def test_acceptance_7_greenberg_height_coupling(sweep_1000):
    start = time.time()
    failures = []
    for irr in sweep_1000:
        if irr.p > 500 or not irr.indices:
            continue
        flags = HypothesisFlags.defaults_for(irr.p)
        elig = eligible_set(irr, synth_table(irr.p, irr, seed=11))
        verdict = greenberg_verdict(irr, elig, flags)
        bound = height_lower_bound(irr, elig, flags)
        if verdict.status != HOLDS:
            failures.append(("greenberg", irr.p, verdict.status))
        if bound.bound_exact is None or bound.bound_exact < 2:
            failures.append(("bound_exact < 2", irr.p))
        if bound.bound_exact < bound.corollary_ceiling:
            failures.append(("exact below corollary ceiling", irr.p))
        if irr.r == 1 and bound.bound_exact != (irr.p - 1) // 2 + 1:
            failures.append(("singleton bound", irr.p, bound.bound_exact))
    elapsed = time.time() - start
    if elapsed >= 60:
        failures.append(("runtime", elapsed))
    _verdict_line(7, "pseudo-nullity and height coupling p <= 500", failures, elapsed)


def test_acceptance_8_report_determinism():
    start = time.time()
    failures = []

    def run_report(jobs: int) -> bytes:
        res = subprocess.run(
            [sys.executable, "-m", "cyclopair", "report", "--max-p", "2000",
             "--pairing", str(FIXTURES / "exceptional.tsv"), "--jobs", str(jobs)],
            capture_output=True,
        )
        if res.returncode != 0:
            failures.append(("exit", jobs, res.stderr[:200]))
        return res.stdout

    first = run_report(1)
    second = run_report(1)
    eight = run_report(8)
    if first != second:
        failures.append("consecutive runs differ")
    if first != eight:
        failures.append("jobs=1 and jobs=8 differ")
    rows = [json.loads(line) for line in first.splitlines()]
    if not rows or rows[0]["p"] != 7:
        failures.append("stream must start at p = 7")
    if {row["p"] for row in rows if row["gk"] == "FAILS"} != {1217}:
        failures.append("exceptional verdict missing below 2000")
    _verdict_line(8, "report byte-determinism", failures, time.time() - start)
