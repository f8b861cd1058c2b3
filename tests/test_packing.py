import hashlib
import itertools
import math
import random
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from cyclopair.bernoulli import IrregularSet, irregular_indices
from cyclopair import criteria, packing
from cyclopair.criteria import HypothesisFlags, height_lower_bound
from cyclopair.packing import (
    PackingInstance,
    PackingResult,
    _circulant,
    _cover_bound,
    _finish,
    _neighbours,
    _solve_mask,
    _still_connected,
    brute_force_packing,
    conflict_diffs,
    max_disjoint_translates_exact,
    translates_disjoint,
)
from cyclopair.pairing import eligible_set, synth_table
from helpers import parsed

ODDS_12 = (1, 3, 5, 7, 9, 11)
REFERENCE = Path(__file__).resolve().parent.parent / "bench" / "reference" / "irregular-25000.tsv"


def inst(m, R, I):
    return PackingInstance(m, R, I)


def max_disjoint_translates_greedy(inst: PackingInstance) -> PackingResult:
    """Ascending-order greedy; never exceeds the exact count and picks at
    least ceil(|I| / |D|) offsets since each pick blocks at most |D|."""
    diffs = conflict_diffs(inst.shape, inst.modulus)
    chosen: list[int] = []
    blocked: set[int] = set()
    for i in inst.candidates:
        if i in blocked:
            continue
        chosen.append(i)
        # D is symmetric, so blocking i + d for d in D covers both directions
        blocked.update((i + d) % inst.modulus for d in diffs)
    return _finish(inst, chosen, "greedy")


def test_conflict_diffs_examples():
    assert conflict_diffs([2, 6], 12) == frozenset({0, 4, 8})
    assert conflict_diffs([], 12) == frozenset()
    assert conflict_diffs([32], 36) == frozenset({0})


def test_exact_examples():
    res = max_disjoint_translates_exact(inst(12, [2, 6], ODDS_12))
    assert res.count == 2
    assert translates_disjoint(inst(12, [2, 6], ODDS_12), res.witness)

    res = max_disjoint_translates_exact(inst(36, [32], range(1, 36, 2)))
    assert res.count == 18
    assert res.witness == tuple(range(1, 36, 2))

    assert max_disjoint_translates_exact(inst(12, [2, 6], [])).count == 0


def test_greedy_examples():
    res = max_disjoint_translates_greedy(inst(12, [2, 6], ODDS_12))
    assert res.count == 2
    assert res.witness == (1, 3)
    assert max_disjoint_translates_greedy(inst(12, [2, 6], [])).count == 0
    assert max_disjoint_translates_greedy(inst(36, [32], range(1, 36, 2))).count == 18


def test_brute_examples():
    assert brute_force_packing(inst(12, [2, 6], ODDS_12)).count == 2
    assert brute_force_packing(inst(12, [2, 6], ODDS_12)).witness == (1, 3)
    assert brute_force_packing(inst(36, [32], range(1, 36, 2))).count == 18
    assert brute_force_packing(inst(12, [2, 6], [])).count == 0


def test_brute_refuses_large():
    with pytest.raises(ValueError):
        brute_force_packing(inst(60, [1], range(21)))


def test_brute_witness_is_the_first_maximum_combination():
    # the textbook enumeration: sizes from |I| down, each size's subsets in
    # itertools' lexicographic order, and the first packing found wins
    rng = random.Random(2024)
    for _ in range(300):
        m = rng.randint(2, 40)
        pi = inst(m, rng.sample(range(m), rng.randint(1, min(5, m))),
                  rng.sample(range(m), rng.randint(0, min(10, m))))
        first = next(subset for size in range(len(pi.candidates), -1, -1)
                     for subset in itertools.combinations(pi.candidates, size)
                     if translates_disjoint(pi, subset))
        res = brute_force_packing(pi)
        assert res.witness == first
        assert res.count == len(first)


@pytest.mark.parametrize("chosen, message", [
    (1 << 5, "exact solver chose offsets outside the candidates"),  # offset 11
    (0b101, "exact solver produced overlapping translates"),  # 5 - 1 lies in R - R
])
def test_finish_alarms_on_a_faulty_solver(monkeypatch, chosen, message):
    monkeypatch.setattr(packing, "_solve_mask",
                        lambda adj, mask, floor=0: (chosen.bit_count(), chosen, 0))
    with pytest.raises(RuntimeError, match=message):
        max_disjoint_translates_exact(inst(12, [2, 6], [1, 3, 5, 9]))


def test_instance_normalizes():
    a = inst(12, [14, 6, 2], [13, 1, 3])
    assert a.shape == (2, 6)
    assert a.candidates == (1, 3)


def test_every_construction_route_normalizes():
    # unsorted, unreduced and repeated entries, whichever way the instance is built
    normal = (12, (2, 6), (1, 5))
    raw = (12, (14, 2, -6), (5, 1, 13, 1))
    built = [
        PackingInstance(*raw),
        PackingInstance._make(raw),
        PackingInstance(12, (), ())._replace(shape=raw[1], candidates=raw[2]),
        PackingInstance(*normal)._replace(candidates=(13, 5)),
    ]
    for instance in built:
        assert instance == normal and type(instance) is PackingInstance
    with pytest.raises(ValueError, match="modulus must be positive"):
        PackingInstance(0, (1,), (1,))
    with pytest.raises(ValueError, match="modulus must be positive"):
        built[0]._replace(modulus=0)


@pytest.mark.parametrize("raw", [
    (12, (14, 2, -6), (5, 1, 13, 1)),
    (12, (2, 6), (7, 3, 1, 19)),
    (36, (-4, 68), (35, -1, 1, 37, 3)),
])
def test_solvers_match_brute_on_normalized_instances(raw):
    instance = PackingInstance(*raw)
    exact, brute = max_disjoint_translates_exact(instance), brute_force_packing(instance)
    assert exact.count == brute.count
    for result in (exact, brute):
        assert set(result.witness) <= set(instance.candidates)
        assert translates_disjoint(instance, result.witness)


def random_instance(rng):
    m = rng.randint(4, 60)
    r_size = rng.randint(1, min(4, m))
    shape = rng.sample(range(m), r_size)
    i_size = rng.randint(0, min(14, m))
    cands = rng.sample(range(m), i_size)
    return inst(m, shape, cands)


def test_exact_matches_brute_random():
    rng = random.Random(1729)
    for _ in range(150):
        pi = random_instance(rng)
        exact = max_disjoint_translates_exact(pi)
        brute = brute_force_packing(pi)
        greedy = max_disjoint_translates_greedy(pi)
        assert exact.count == brute.count
        assert greedy.count <= exact.count
        for res in (exact, brute, greedy):
            assert len(res.witness) == res.count
            assert translates_disjoint(pi, res.witness)


def test_greedy_counting_bound():
    # each greedy pick blocks at most |D| <= r^2 - r + 1 candidates
    rng = random.Random(99)
    for _ in range(100):
        pi = random_instance(rng)
        r = len(pi.shape)
        greedy = max_disjoint_translates_greedy(pi)
        assert greedy.count >= math.ceil(len(pi.candidates) / (r * r - r + 1))


def test_shift_invariance():
    rng = random.Random(5)
    for _ in range(40):
        pi = random_instance(rng)
        c = rng.randrange(pi.modulus)
        shifted = inst(pi.modulus, pi.shape, [(i + c) % pi.modulus for i in pi.candidates])
        assert (max_disjoint_translates_exact(pi).count
                == max_disjoint_translates_exact(shifted).count)


def test_exact_deterministic():
    pi = inst(40, [2, 6, 18], range(1, 40, 2))
    a = max_disjoint_translates_exact(pi)
    b = max_disjoint_translates_exact(pi)
    assert a == b


@settings(max_examples=80, deadline=None)
@given(
    st.integers(min_value=4, max_value=40),
    st.data(),
)
def test_exact_matches_brute_property(m, data):
    shape = data.draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=4))
    cands = data.draw(st.lists(st.integers(0, m - 1), max_size=12, unique=True))
    pi = inst(m, shape, cands)
    assert max_disjoint_translates_exact(pi).count == brute_force_packing(pi).count


def test_full_candidate_cycle_structure():
    # single nonzero difference: the conflict graph is a union of cycles,
    # so d is the sum of floor(len/2) over the shift cycles
    pi = inst(156, [62, 110], range(1, 156, 2))
    res = max_disjoint_translates_exact(pi)
    assert res.count == 36  # six 13-cycles in the halved space
    assert translates_disjoint(pi, res.witness)


# moduli with several proper divisors, so periods vary
DIVISOR_RICH = (12, 18, 20, 24, 30, 36, 40, 48, 60)


def periodic_instance(m, g, base, shape):
    # I = base + gZ, so I + g = I: the mask has period g
    return inst(m, shape, [b + t * g for b in base for t in range(m // g)])


def periods(m):
    # proper divisors g of m leaving at most 14 candidates per base offset
    return [g for g in range(1, m) if m % g == 0 and m // g <= 14]


def test_exact_matches_brute_periodic_random():
    rng = random.Random(4913)
    for _ in range(300):
        m = rng.choice(DIVISOR_RICH)
        g = rng.choice(periods(m))
        k = rng.randint(1, max(1, min(g, 16 // (m // g))))
        pi = periodic_instance(m, g, rng.sample(range(g), k),
                               rng.sample(range(m), rng.randint(1, 4)))
        exact = max_disjoint_translates_exact(pi)
        assert exact.count == brute_force_packing(pi).count, pi
        assert translates_disjoint(pi, exact.witness)


def circulant_instances(rng):
    # t > 1 (shape and candidates on a coset of sZ), periodic, plain random,
    # m = 1 and single candidates
    yield inst(1, [0], [0])
    yield inst(12, [2, 6], [5])
    yield inst(60, [7], [13])
    for n in range(300):
        m = rng.randint(2, 60)
        s = rng.choice([s for s in range(1, m + 1) if m % s == 0])
        shape = [s * x for x in rng.sample(range(m // s), rng.randint(1, min(4, m // s)))]
        base = rng.randrange(m)
        cands = [base + s * x for x in rng.sample(range(m // s), rng.randint(1, m // s))]
        if n % 3 == 1:
            g = rng.choice([g for g in range(1, m + 1) if m % g == 0])
            cands = [c + k * g for c in cands for k in range(m // g)]
        elif n % 3 == 2:
            shape = rng.sample(range(m), rng.randint(1, min(4, m)))
        yield inst(m, shape, cands)


def test_circulant_matches_translate_intersection():
    # bit j is offset i0 + t*j, in the order of the candidates; vertices j
    # and k are adjacent exactly when their translates meet
    rng = random.Random(2718)
    steps = set()
    for pi in circulant_instances(rng):
        i0, t, mask, adj = _circulant(pi)
        n = len(adj) - 1
        assert n * t == pi.modulus
        verts = [j for j in range(n) if mask >> j & 1]
        assert [i0 + t * j for j in verts] == list(pi.candidates)
        assert adj[0] == 0
        translate = {j: {(i0 + t * j + x) % pi.modulus for x in pi.shape} for j in verts}
        for j in range(n):
            want = sum(1 << k for k in verts
                       if j in translate and k != j and translate[j] & translate[k])
            assert adj[j + 1] == want, (pi, j)
        steps.add(t)
    assert max(steps) > 1 and 1 in steps


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(DIVISOR_RICH), st.data())
def test_exact_matches_brute_periodic_property(m, data):
    g = data.draw(st.sampled_from(periods(m)))
    base = data.draw(st.lists(st.integers(0, g - 1), min_size=1,
                              max_size=max(1, 14 // (m // g)), unique=True))
    shape = data.draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=4))
    pi = periodic_instance(m, g, base, shape)
    assert max_disjoint_translates_exact(pi).count == brute_force_packing(pi).count


def test_node_counts():
    pi = inst(40, [2, 6, 18], range(1, 40, 2))
    assert max_disjoint_translates_exact(pi).nodes > 0
    assert max_disjoint_translates_greedy(pi).nodes == 0
    assert brute_force_packing(inst(12, [2, 6], ODDS_12)).nodes == 0
    assert max_disjoint_translates_exact(inst(12, [2, 6], [])).nodes == 0


def tree_instances():
    # periodic (base + gZ), odd offsets with gaps (a table with zero entries)
    # and sparse random subsets, with r = 1..4 and m <= 120
    rng = random.Random(20261018)
    for n in range(300):
        m = rng.randint(8, 120)
        shape = rng.sample(range(m), rng.randint(1, 4))
        kind = n % 3
        if kind == 0:
            g = rng.choice([g for g in range(1, m) if m % g == 0])
            base = rng.sample(range(g), rng.randint(1, g))
            cands = [b + t * g for b in base for t in range(m // g)]
        elif kind == 1:
            odd = range(1, m, 2)
            gaps = set(rng.sample(odd, rng.randint(1, max(1, len(odd) // 4))))
            cands = [i for i in odd if i not in gaps]
        else:
            cands = rng.sample(range(m), rng.randint(0, m // 2))
        yield inst(m, shape, cands)


@pytest.fixture(scope="module")
def tree_results():
    return list(map(max_disjoint_translates_exact, tree_instances()))


def sha(value):
    return hashlib.sha256(repr(value).encode()).hexdigest()


def test_search_tree_counts(tree_results):
    # the answers alone, recorded before the simplicial rule: no valid
    # bound or reduction may change a count
    assert sha([res.count for res in tree_results]) == (
        "94a8dc8046edc8ccd91a08dcf2ae5aee96cf172615cbd96cecfd12689df3f339")


def test_search_tree_digest(tree_results):
    # (count, witness) of every instance, recorded with the difference
    # ladder: a stronger valid bound leaves both unchanged, a reduction or a
    # new branching may move a witness (the simplicial rule moved 23 of the
    # 300, the ladder 6, dropping the orbit rule on periodic masks 1)
    assert sha([(res.count, res.witness) for res in tree_results]) == (
        "98bae3a244ab655421ce41e7071705d9ed4b0ff6b8e192f8c1ca6bc80d1fd41c")
    # the search tree is deterministic; a change to its size should be deliberate
    assert sum(res.nodes for res in tree_results) == 10_564

def has_simplicial_of_degree_2(adj, mask):
    # reference: whether a vertex of mask has at least two neighbours in
    # mask, all pairwise adjacent
    verts = [v for v in range(len(adj) - 1) if mask >> v & 1]
    for v in verts:
        nb = [w for w in verts if adj[v + 1] >> w & 1]
        if len(nb) >= 2 and all(adj[a + 1] >> b & 1 for a in nb for b in nb if a != b):
            return True
    return False


def test_simplicial_rule_matches_brute():
    # r = 3 and 4 shapes on odd offsets with gaps, at most 15 vertices; the
    # rule goes beyond degrees 0 and 1 where a simplicial vertex has degree
    # >= 2
    rng = random.Random(1993)
    exercised = 0
    for n in range(500):
        m = 2 * rng.randint(6, 16)
        odd = range(1, m, 2)
        gaps = rng.sample(odd, rng.randint(1, len(odd) // 2))
        pi = inst(m, rng.sample(range(m), 3 + n % 2), set(odd) - set(gaps))
        exercised += has_simplicial_of_degree_2(
            rank_adjacency(pi), (1 << len(pi.candidates)) - 1)
        exact = max_disjoint_translates_exact(pi)
        assert exact.count == brute_force_packing(pi).count, pi
        assert len(exact.witness) == exact.count
        assert translates_disjoint(pi, exact.witness)
    assert exercised >= 100


def test_simplicial_rule_shrinks_a_tree():
    # tree instance 93, a full table on Z/17, with offset 0 taken as on a
    # full mask of degree 2 or less (the solver takes the difference ladder
    # here): the simplicial rule finishes the rest, where degrees 0 and 1
    # took 7 nodes
    pi = inst(17, [4, 6, 16], range(17))
    i0, t, mask, adj = _circulant(pi)
    count, chosen, nodes = _solve_mask(adj, mask & ~(1 | adj[1]))
    assert (count + 1, nodes) == (4, 1)
    assert translates_disjoint(pi, [i0 + t * j for j in range(17) if (chosen | 1) >> j & 1])
    assert max_disjoint_translates_exact(pi).count == 4


def solver_calls(monkeypatch):
    # (mask, floor) of each _solve_mask call from now on: a full mask of
    # degree 2 or less makes one call, on the vertices outside N[0]; the
    # difference ladder makes one per step, each also outside some N[d]
    calls = []
    solve = packing._solve_mask

    def spy(adj, mask, floor=0):
        calls.append((mask, floor))
        return solve(adj, mask, floor)

    monkeypatch.setattr(packing, "_solve_mask", spy)
    return calls


def test_ladder_matches_brute_on_small_full_circulants(monkeypatch):
    # every shape containing 0 with |R| in {2, 3, 4} on the full Z/m, m <= 14:
    # the ladder runs exactly when the pattern D - {0} has more than two
    # elements, vertex 0 is taken otherwise
    calls = solver_calls(monkeypatch)
    sides = [0, 0]
    for m in range(2, 15):
        for r in (2, 3, 4):
            for rest in itertools.combinations(range(1, m), r - 1):
                pi = inst(m, (0, *rest), range(m))
                _, _, full, adj = _circulant(pi)
                calls.clear()
                exact = max_disjoint_translates_exact(pi)
                assert exact.count == brute_force_packing(pi).count, pi
                assert len(exact.witness) == exact.count
                assert translates_disjoint(pi, exact.witness)
                laddered = len(conflict_diffs(pi.shape, m)) > 3
                assert laddered == (calls != [(full & ~(1 | adj[1]), 0)]), pi
                sides[laddered] += 1
    assert sides == [95, 1361]


@pytest.mark.parametrize("shape, modulus, count, floors", [
    # tree instance 108: the greedy's 14 holds through five steps
    ((5, 17, 37, 71), 74, 14, [12] * 5),
    # tree instance 189: the first step beats the greedy's 12 with 15
    ((6, 14, 73, 77), 94, 15, [10, 13, 13, 13, 13]),
])
def test_ladder_steps(monkeypatch, shape, modulus, count, floors):
    pi = inst(modulus, shape, range(modulus))
    i0, t, mask, adj = _circulant(pi)
    assert _solve_mask(adj, mask)[0] == count  # the plain search
    calls = solver_calls(monkeypatch)
    res = max_disjoint_translates_exact(pi)
    assert res.count == count
    assert [floor for _, floor in calls] == floors


@pytest.mark.parametrize("modulus, shape", [(7, (0, 1, 3)), (13, (0, 1, 3, 9))])
def test_ladder_runs_out_of_differences(monkeypatch, modulus, shape):
    # a perfect difference set: R - R is all of Z/m, the graph is complete,
    # no difference is left for a step, and the greedy's vertex 0 stands
    pi = inst(modulus, shape, range(modulus))
    assert conflict_diffs(pi.shape, modulus) == frozenset(range(modulus))
    calls = solver_calls(monkeypatch)
    res = max_disjoint_translates_exact(pi)
    assert (res.count, res.witness, res.nodes) == (1, (0,), 0)
    assert brute_force_packing(pi).count == 1
    assert calls == []


def test_solve_mask_floor():
    # the 5-cycle has alpha = 2: a floor below it gets a witness, a floor at
    # or above it comes back as (floor, no witness)
    _, _, full, adj = _circulant(inst(5, [0, 1], range(5)))
    for floor in (0, 1):
        count, chosen, _ = _solve_mask(adj, full, floor)
        assert (count, chosen.bit_count()) == (2, 2)
        assert not chosen & _neighbours(adj, chosen)
    for floor in (2, 3):
        assert _solve_mask(adj, full, floor)[:2] == (floor, 0)


def rank_adjacency(pi):
    # reference conflict graph with vertex v the v-th candidate: v ~ w when
    # their offsets differ by a nonzero element of D
    pos = {i: v for v, i in enumerate(pi.candidates)}
    diffs = conflict_diffs(pi.shape, pi.modulus) - {0}
    adj = [0] * (len(pos) + 1)
    for v, i in enumerate(pi.candidates):
        for d in diffs:
            w = pos.get((i + d) % pi.modulus)
            if w is not None:
                adj[v + 1] |= 1 << w
    return adj


def greedy_cover_size(adj, mask):
    # reference: the number of greedy cliques, lowest vertex first
    size = 0
    while mask:
        clique = mask & -mask
        for v in range(len(adj) - 1):
            if mask >> v & 1 and adj[v + 1] & clique == clique:
                clique |= 1 << v
        mask &= ~clique
        size += 1
    return size


def check_cover_bound(pi, adj, mask):
    # _cover_bound may claim alpha <= limit only when brute force agrees,
    # must whenever the greedy cover alone shows it, and proves every limit
    # above one it proves; returns the number of disjoint inconsistent sets
    # its strongest proof used, the cover size less the least limit proved
    verts = pi.candidates
    alpha = brute_force_packing(inst(pi.modulus, pi.shape, [
        verts[v] for v in range(len(verts)) if mask >> v & 1])).count
    cover = greedy_cover_size(adj, mask)
    proved = [_cover_bound(mask, adj, limit)
              for limit in range(-1, mask.bit_count() + 1)]
    for limit, ok in enumerate(proved, -1):
        assert not ok or alpha <= limit, (pi, mask, limit)
        assert ok or limit < cover, (pi, mask, limit)
    least = proved.index(True) - 1
    assert all(proved[least + 1:]), (pi, mask)
    return cover - least


def random_mask(rng, n, size):
    return sum(1 << v for v in rng.sample(range(n), min(n, size)))


def patch_491(rng, adj, size):
    # a local patch of the p = 491 conflict graph (a triangular lattice):
    # the nearest <= size vertices to a random one, less a few
    ball = frontier = 1 << rng.randrange(len(adj) - 1)
    while frontier and ball.bit_count() < size:
        grow = 0
        for v in range(len(adj) - 1):
            if frontier >> v & 1:
                grow |= adj[v + 1]
        frontier = grow & ~ball
        ball |= frontier
    verts = [v for v in range(len(adj) - 1) if ball >> v & 1][:size]
    return sum(1 << v for v in rng.sample(verts, rng.randint(len(verts) // 2, len(verts))))


def deficient(pi, adj, draw):
    # the first of 20 masks from draw() whose greedy cover exceeds alpha,
    # by brute force, or 0
    verts = pi.candidates
    for _ in range(20):
        mask = draw()
        alpha = brute_force_packing(inst(pi.modulus, pi.shape, [
            verts[v] for v in range(len(verts)) if mask >> v & 1])).count
        if alpha < greedy_cover_size(adj, mask):
            return mask
    return 0


def doubled(pi, a, b):
    # 2R in Z/2m over 2I and 2I + 1: two copies of the conflict graph of pi
    # (vertex v of pi is 2v in the first, 2v + 1 in the second) between
    # which no translates meet; returns it, its adjacency, and the mask of a
    # in the first copy joined with b in the second
    twice = inst(2 * pi.modulus, [2 * x for x in pi.shape],
                 [2 * i + c for i in pi.candidates for c in (0, 1)])
    adj = rank_adjacency(twice)
    spread = [sum(1 << 2 * v + c for v in range(len(pi.candidates)) if mask >> v & 1)
              for mask, c in ((a, 0), (b, 1))]
    return twice, adj, spread[0] | spread[1]


def test_cover_bound_never_exceeds_alpha_random():
    rng = random.Random(3141)
    sets = []
    for _ in range(400):
        m = rng.randint(6, 60)
        pi = inst(m, rng.sample(range(m), rng.randint(2, 4)),
                  rng.sample(range(m), rng.randint(1, min(m, 40))))
        adj = rank_adjacency(pi)
        sets.append(check_cover_bound(pi, adj, random_mask(
            rng, len(pi.candidates), rng.randint(1, 20))))
    assert sum(k >= 1 for k in sets) >= 30
    # two masks of <= 8 vertices whose covers exceed alpha, disjoint in a
    # doubled instance: a proof of the joint deficit needs two sets
    twos = []
    while len(twos) < 100:
        m = rng.randint(6, 60)
        pi = inst(m, rng.sample(range(m), rng.randint(2, 4)),
                  rng.sample(range(m), rng.randint(6, min(m, 40))))
        adj = rank_adjacency(pi)
        n = len(pi.candidates)
        a, b = (deficient(pi, adj, lambda: random_mask(rng, n, rng.randint(4, 8)))
                for _ in range(2))
        if a and b:
            twos.append(check_cover_bound(*doubled(pi, a, b)))
    assert sum(k >= 2 for k in sets + twos) >= 75


def test_cover_bound_never_exceeds_alpha_491():
    pi = inst(490, [292, 336, 338], range(1, 490, 2))
    adj = rank_adjacency(pi)
    rng = random.Random(491)
    sets = [check_cover_bound(pi, adj, patch_491(rng, adj, 20)) for _ in range(100)]
    assert sum(k >= 1 for k in sets) >= 25
    twos = []
    while len(twos) < 100:
        a, b = (deficient(pi, adj, lambda: patch_491(rng, adj, 8)) for _ in range(2))
        if a and b:
            twos.append(check_cover_bound(*doubled(pi, a, b)))
    assert sum(k >= 2 for k in sets + twos) >= 75


def test_cover_bound_five_cycle():
    # R = {0, 1} in Z/5 makes the conflict graph the 5-cycle 0-1-2-3-4-0.
    # The greedy cover {0, 1}, {2, 3}, {4} has 3 cliques and alpha = 2: the
    # singleton 4 excludes 0 and 3, which forces 1, which empties {2, 3}
    pi = inst(5, [0, 1], range(5))
    adj = rank_adjacency(pi)
    full = (1 << 5) - 1
    assert greedy_cover_size(adj, full) == 3
    assert [_cover_bound(full, adj, limit) for limit in range(-1, 4)] == [
        False, False, False, True, True]
    assert max_disjoint_translates_exact(pi).count == 2


def test_cover_bound_two_five_cycles():
    # R = {0, 2} in Z/10: the evens and the odds are two disjoint 5-cycles.
    # The greedy cover {0, 2}, {1, 3}, {4, 6}, {5, 7}, {8}, {9} has 6 cliques
    # and alpha = 4.  The first round empties {4, 6} through {8} and the
    # {0, 2} it forces; the second, on the odd cycle alone, empties {5, 7}
    # through {9} and {1, 3}.  No clique is left for a third, so limit 3
    # is not proved
    pi = inst(10, [0, 2], range(10))
    adj = rank_adjacency(pi)
    full = (1 << 10) - 1
    assert greedy_cover_size(adj, full) == 6
    assert brute_force_packing(pi).count == 4
    assert [_cover_bound(full, adj, limit) for limit in range(-1, 7)] == [
        False, False, False, False, False, True, True, True]


def connected(adj, mask):
    # reference: depth-first search over vertex indices
    verts = [v for v in range(len(adj) - 1) if mask >> v & 1]
    seen, stack = {verts[0]}, [verts[0]]
    while stack:
        v = stack.pop()
        for w in verts:
            if adj[v + 1] >> w & 1 and w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(verts)


def component_of(adj, start, within):
    comp, stack = 1 << start, [start]
    while stack:
        v = stack.pop()
        for w in range(len(adj) - 1):
            if adj[v + 1] >> w & 1 and within >> w & 1 and not comp >> w & 1:
                comp |= 1 << w
                stack.append(w)
    return comp


def test_still_connected_matches_full_search():
    # random graphs, C a connected set (with edges leaving it), M a nonempty
    # subset of C; the re-check must be exact both ways
    rng = random.Random(86)
    outcomes = []
    for _ in range(1500):
        n = rng.randint(1, 40)
        density = rng.choice([0.05, 0.1, 0.2, 0.4])
        adj = [0] * (n + 1)
        for v in range(n):
            for w in range(v):
                if rng.random() < density:
                    adj[v + 1] |= 1 << w
                    adj[w + 1] |= 1 << v
        within = rng.getrandbits(n) | 1
        conn = component_of(adj, 0, within)
        mask = conn & rng.getrandbits(n) or conn & -conn
        got = _still_connected(adj, mask, conn & ~mask)
        assert got == connected(adj, mask), (adj, conn, mask)
        outcomes.append(got)
    assert outcomes.count(False) >= 300 and outcomes.count(True) >= 300
    # on the p = 491 conflict graph, without the closed neighbourhoods of
    # a few vertices, as branching removes them
    pi = inst(490, [292, 336, 338], range(1, 490, 2))
    adj = rank_adjacency(pi)
    full = (1 << len(pi.candidates)) - 1
    assert connected(adj, full)
    outcomes = []
    for _ in range(300):
        mask = full
        for v in rng.sample(range(len(pi.candidates)), rng.randint(1, 40)):
            mask &= ~(1 << v | adj[v + 1])
        if mask:
            got = _still_connected(adj, mask, full & ~mask)
            assert got == connected(adj, mask)
            outcomes.append(got)
    assert outcomes.count(False) >= 30 and outcomes.count(True) >= 30


# search nodes of the p = 491 solves, the full table's recorded with the
# difference ladder, the others with the simplicial rule; the search tree is
# deterministic, so a change to its size should be deliberate
NODES_FULL_491 = 386
NODES_GAPPED_491 = 3_179
NODES_TWO_PERCENT_491 = 2_573


def two_percent_zeros():
    keys = [(i, k) for i in range(1, 490, 2) for k in irregular_indices(491).indices]
    return random.Random(2).sample(keys, len(keys) // 50)


# the zero entries of the three p = 491 tables the pins above belong to
ZEROS_491 = {"full": [], "gapped": [(1, 292)], "two-percent": two_percent_zeros()}


def synth_table_bound(p, zero_keys=()):
    irr = irregular_indices(p)
    elig = eligible_set(irr, parsed(irr, synth_table(p, irr, zero_keys, seed=11)))
    return irr, height_lower_bound(irr, elig, HypothesisFlags.defaults_for(p))


def solved_nodes(monkeypatch):
    # the node count of each exact solve the report path makes from now on
    nodes = []

    def solve(pi):
        res = max_disjoint_translates_exact(pi)
        nodes.append(res.nodes)
        return res

    monkeypatch.setattr(criteria, "max_disjoint_translates_exact", solve)
    return nodes


def test_full_table_491(monkeypatch):
    # the hardest full table below 500 (r = 3), by the difference ladder
    nodes = solved_nodes(monkeypatch)
    irr, bound = synth_table_bound(491)
    assert irr.indices == (292, 336, 338)
    assert (bound.d, bound.bound_exact) == (76, 77)
    assert len(bound.witness) == 76
    assert translates_disjoint(inst(490, irr.indices, range(1, 490, 2)), bound.witness)
    assert nodes == [NODES_FULL_491]


def test_gapped_table_491(monkeypatch):
    # one zero entry e(1, 292) takes offset 1 out, so the mask is not full
    # and the plain branch and bound runs
    nodes = solved_nodes(monkeypatch)
    irr, bound = synth_table_bound(491, ZEROS_491["gapped"])
    assert (bound.d, bound.bound_exact) == (76, 77)
    assert 1 not in bound.witness
    assert translates_disjoint(inst(490, irr.indices, range(1, 490, 2)), bound.witness)
    # recorded before unit propagation joined the bound, which cannot move it
    assert sha(bound.witness) == (
        "2aa6fba7fce456b9279360d27c20596b949e6b97b611c955e404a7534f45c0df")
    assert nodes == [NODES_GAPPED_491]


def test_two_percent_zeros_491(monkeypatch):
    # 2 % of the entries zero, seeded: d = 75, as before disjoint sets
    # joined the bound
    nodes = solved_nodes(monkeypatch)
    zeros = ZEROS_491["two-percent"]
    irr, bound = synth_table_bound(491, zeros)
    assert (bound.d, bound.bound_exact) == (75, 76)
    assert not {i for i, _ in zeros} & set(bound.witness)
    assert translates_disjoint(inst(490, irr.indices, range(1, 490, 2)), bound.witness)
    assert nodes == [NODES_TWO_PERCENT_491]


def calls_left() -> int:
    # how many nested calls still fit under the recursion limit from here
    try:
        return 1 + calls_left()
    except RecursionError:
        return 0


def test_full_table_491_needs_no_recursion(monkeypatch):
    # the search runs on an explicit stack: a dozen frames of head room and a
    # recursion limit it may not raise suffice for the hardest full table
    def refuse(limit):
        raise AssertionError(f"the solver set the recursion limit to {limit}")

    pi = inst(490, irregular_indices(491).indices, range(1, 490, 2))
    limit, set_limit = sys.getrecursionlimit(), sys.setrecursionlimit
    monkeypatch.setattr(sys, "setrecursionlimit", refuse)
    set_limit(limit - calls_left() + 12)
    try:
        res = max_disjoint_translates_exact(pi)
    finally:
        set_limit(limit)
    assert (res.count, res.nodes) == (76, NODES_FULL_491)


def reference_sets():
    # the irregular primes below 25,000 with their indices
    for line in REFERENCE.read_text().splitlines():
        p, _, ks = line.partition("\t")
        if ks != "-":
            yield IrregularSet(int(p), tuple(map(int, ks.split(","))))


def small_r2_sets():
    # every prime below 5,000 with one or two irregular indices
    return [irr for irr in reference_sets() if irr.p < 5000 and irr.r <= 2]


# the r = 2 full table with the most cycles below 25,000: gcd(n, a) = 69
# cycles of length 61.  Taking vertex 0 solves it in these nodes; the
# difference ladder does not finish it within 15 s, which is why it runs
# only above degree 2
IRR_8419 = next(irr for irr in reference_sets() if irr.p == 8419)
NODES_FULL_8419 = 204


def full_table(irr):
    return inst(irr.p - 1, irr.indices, range(1, irr.p - 1, 2))


@pytest.mark.parametrize("irr", [*small_r2_sets(), IRR_8419], ids=lambda irr: str(irr.p))
def test_full_table_r2_cycle_formula(irr):
    # r = 1: no conflicts, d = n = (p - 1)/2.  r = 2: on the odd offsets the
    # only conflicts are j ~ j +- a with a = (k' - k)/2 over Z/n, so the
    # graph is g = gcd(n, a) cycles of length n/g and d = g * floor(n/2g)
    pi = full_table(irr)
    res = max_disjoint_translates_exact(pi)
    n = (irr.p - 1) // 2
    if irr.r == 1:
        assert res.count == n
    else:
        g = math.gcd(n, (irr.indices[1] - irr.indices[0]) // 2)
        assert res.count == g * (n // (2 * g))
    assert translates_disjoint(pi, res.witness)


def test_full_table_8419_takes_vertex_0():
    res = max_disjoint_translates_exact(full_table(IRR_8419))
    assert (res.count, res.nodes) == (69 * 30, NODES_FULL_8419)


def test_r2_answer_key_covers_the_cycle_cases():
    sets = list(small_r2_sets())
    assert len(sets) == 249
    assert sum(irr.r == 2 and math.gcd((irr.p - 1) // 2,
                                       (irr.indices[1] - irr.indices[0]) // 2) > 1
               for irr in sets) == 22


if __name__ == "__main__":
    # print every solver pin this file checks, as the solver now finds it,
    # so that a deliberate re-pin takes one run:
    #   PYTHONPATH=src python tests/test_packing.py
    for name, zeros in ZEROS_491.items():
        with pytest.MonkeyPatch.context() as mp:
            nodes = solved_nodes(mp)
            _, bound = synth_table_bound(491, zeros)
        print(f"p = 491 {name}: d = {bound.d}, nodes {nodes}, witness sha {sha(bound.witness)}")
    res = max_disjoint_translates_exact(full_table(IRR_8419))
    print(f"p = 8419 full: d = {res.count}, nodes {res.nodes}")
    results = list(map(max_disjoint_translates_exact, tree_instances()))
    print(f"tree counts sha {sha([res.count for res in results])}")
    print(f"tree (count, witness) sha {sha([(res.count, res.witness) for res in results])}")
    print(f"tree nodes {sum(res.nodes for res in results):_}")
