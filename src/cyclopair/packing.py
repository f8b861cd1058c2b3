"""Exact packing of disjoint translates i + R inside Z/m.

Two translates i + R and i' + R intersect exactly when i - i' lands in the
difference set D = R - R, so the packing problem is a maximum independent
set on the conflict graph over the candidate offsets.  The exact solver is
a branch and bound over bitmasks: simplicial vertices are taken outright,
connected components are solved separately, branching picks the first
vertex of maximum degree, and subtrees die against a greedy clique-cover
bound sharpened by disjoint inconsistent clique sets.  The ascending
greedy solution seeds the incumbent.  The search is one loop over an
explicit stack, with no recursion; a join frame adds a solved component's
optimum to the rest of its mask.

Vertices.  With i0 the least candidate, t = gcd(m, D, I - i0) and n = m/t,
candidate i0 + t*j is bit j of one mask over Z/n, in the candidates' order.
Vertices j and j' conflict exactly when j - j' lies in D/t mod n, so the
neighbours of j are the pattern (D - {0})/t rotated by j, ANDed with the
mask.  A full table has i0 = 1 and t = 2: bit j is offset 2j + 1.

Full masks.  A conflict depends only on j - j', so when the mask is all
of Z/n a rotation maps packings to packings of the same size, and it puts
a vertex of any maximum packing on vertex 0: alpha = 1 + alpha(I - N[0]),
N[v] the closed neighbourhood.  At degree 2 or less the search takes
vertex 0 and runs on the rest; above it the difference ladder below fixes
a pair instead.  Every other mask gets the plain branch and bound.

Difference ladder.  A full mask is the circulant C_n(S), S the pattern,
and a rotation moves any pair of vertices, not only one (orbital branching
applied to pairs: Ostrowski, Linderoth, Rossi and Smriglio, Math. Program.
2011).  For a difference d in [1, n/2] outside S, let S_d add to S the
pair +-d' of every difference d' < d outside S.  Take a packing P with
|P| >= 2 and let delta be the least difference in [1, n/2] between two of
its elements; delta is not in S.  Rotate P so that this pair is {0,
delta}.  The rotated P has no pair at a smaller difference, so it is a
packing of C_n(S_delta) containing 0 and delta, and

    alpha(C_n(S)) = max(1, max_d (2 + alpha(C_n(S_d) - N[0] - N[d]))),

over the d outside S in ascending order, N taken in C_n(S_d): each term is
a packing of C_n(S_d), so of C_n(S).  The ladder starts from the ascending
greedy packing as the incumbent best.  Each step is solved with best - 2
as a floor without a witness, so it searches only for something better.
Before each step the root clique-cover bound of C_n(S_d) is tried: S_d
only grows along the ladder, so once it proves alpha(C_n(S_d)) <= best no
later term can win, and the ladder stops.  When every difference lies in
S the graph is complete and the greedy vertex 0 is the answer.  At degree
2 or less every component is a path or a cycle, and taking vertex 0 is
cheap, while the ladder makes up to n/2 steps, each a search of its own:
it does not finish the full table of p = 8,419 (r = 2, 69 cycles of
length 61) within 15 s.  So the ladder runs only above degree 2.

Dirty reductions.  A vertex b whose neighbours left in the mask form a
clique is taken and N[b] removed: a maximum packing S meets that clique at
most once, at w say, and S - w + b, or S + b if it misses it, is a packing
no smaller (Akiba and Iwata, TCS 2016).  A vertex only becomes simplicial
as its neighbourhood shrinks, so the rule re-checks only those: after an
include the second neighbourhood of the chosen vertex, after an exclude
its neighbours, after taking b the neighbours of N(b), and none after a
split, in the order full rescans would take.

Connectivity re-check.  Before branching, the component of the lowest
vertex is peeled off when the mask M is not connected.  Below a branching,
and inside a component, the search knows a connected set C containing M:
the mask at the last branching (connected, as branching follows only a
connected mask) or the component itself.  Let X = C - M and Y = N(X) & M.
A BFS inside M from the lowest vertex of Y that reaches all of Y proves M
connected: a path in C between two vertices of M leaves M only through X,
entering X from Y and returning to Y, so each excursion can be replaced by
a path inside M between two vertices of Y.  (Y is empty only when X is,
as C is connected and M is not empty; then M = C.)  Conversely, if M is
connected the BFS reaches all of Y, so the re-check is exact, and only
when it fails does the full BFS from the lowest vertex run to peel the
component, exactly as without the re-check.  Where no connected C is
known (the root, and the rest of a mask after a split) the full BFS runs
as before.

Inconsistent clique sets.  A subtree with c vertices chosen dies when
alpha of its mask is at most best - c, the limit L.  The greedy cover's s
cliques partition the mask and a packing meets each clique at most once,
so s <= L proves it.  Call a set of cover cliques inconsistent when no
packing meets all of them.  Given k pairwise disjoint inconsistent sets, a
packing misses at least one clique of each, and these are k distinct
cliques, so it has at most s - k vertices: k = s - L sets prove alpha <= L
(Li and Quan's MaxSAT view of a colouring, AAAI 2010; Li, Fang and Xu,
ICTAI 2013).  Disjointness is what makes the misses distinct: if two sets
share a clique, a packing may miss that one clique alone, a single miss
for both sets.  Each round of unit propagation looks for one set among the
live cliques, those in no set found so far, assuming a packing P meets
every one of them.  P then contains the vertex of each live singleton; a
forced vertex excludes its neighbours, and a live clique left with one
vertex outside the excluded set forces that vertex.  A live clique left
empty is a conflict, and its reason set is the emptied clique plus,
transitively, each clique whose forced vertex first excluded one of the
vertices of a clique already in the set.  The reason set is inconsistent:
let P meet each of its cliques.  By induction in the order of forcing, P
contains the forced vertex w of each clique Q in the set: every other
vertex of Q was first excluded, earlier, by the forced vertex of a clique
in the set, which lies in P, so the one vertex of Q that P can hold is w.
Then every vertex of the emptied clique has a neighbour in P, and P misses
that clique, a contradiction.  The set is marked dead and the next round
starts again from the live singletons; a round without a conflict leaves
the bound unproved.  The cover is built only up to L + _CAP cliques.  With
k = 1 this is plain unit propagation: a packing of L + 1 vertices must
meet every clique.  A stronger bound cannot move the witness, the first
leaf of the fixed search order reaching d: while best < d every ancestor
of it has alpha >= d - c > best - c, so no valid bound prunes it.  A new
reduction can, as it reshapes the tree; neither moves the count.

Every solver re-verifies its witness by direct translate-intersection
checks before returning, independent of the conflict-graph reduction.
"""
from math import gcd
from typing import Iterable, NamedTuple

BRUTE_FORCE_LIMIT = 20


class _InstanceFields(NamedTuple):
    modulus: int
    shape: tuple[int, ...]       # the translate shape R, reduced mod m and sorted
    candidates: tuple[int, ...]  # the offsets I, reduced mod m and sorted


class PackingInstance(_InstanceFields):
    """The translates i + R in Z/m for i in I.  R and I are reduced mod m,
    sorted and without repeats by construction, whatever the route."""

    __slots__ = ()

    def __new__(
        cls, modulus: int, shape: Iterable[int], candidates: Iterable[int]
    ) -> "PackingInstance":
        if modulus < 1:
            raise ValueError("modulus must be positive")
        return super().__new__(
            cls,
            modulus,
            tuple(sorted({x % modulus for x in shape})),
            tuple(sorted({x % modulus for x in candidates})),
        )

    @classmethod
    def _make(cls, fields) -> "PackingInstance":
        # _replace builds through _make: normalise there too
        return cls(*fields)


class PackingResult(NamedTuple):
    count: int
    witness: tuple[int, ...]
    nodes: int = 0  # search nodes of the exact solver; 0 for the others


def conflict_diffs(shape: Iterable[int], modulus: int) -> frozenset[int]:
    """D = {a - b mod m : a, b in R}; contains 0 whenever R is nonempty."""
    return frozenset((a - b) % modulus for a in shape for b in shape)


def translates_disjoint(inst: PackingInstance, offsets: Iterable[int]) -> bool:
    """Direct check that the translates {i + R} are pairwise disjoint."""
    seen: set[int] = set()
    for i in offsets:
        translate = {(i + x) % inst.modulus for x in inst.shape}
        if seen & translate:
            return False
        seen |= translate
    return True


def _finish(
    inst: PackingInstance, offsets: Iterable[int], method: str, nodes: int = 0
) -> PackingResult:
    witness = tuple(sorted(offsets))
    rest = iter(inst.candidates)  # both sorted: a subsequence is a subset
    if not all(i in rest for i in witness):
        raise RuntimeError(f"{method} solver chose offsets outside the candidates")
    if not translates_disjoint(inst, witness):
        raise RuntimeError(f"{method} solver produced overlapping translates")
    return PackingResult(len(witness), witness, nodes)


def _circulant(inst: PackingInstance) -> tuple[int, int, int, list[int]]:
    """(i0, t, mask, adj) for nonempty candidates (module docstring):
    candidate i0 + t*j is bit j of ``mask``, and vertex j's neighbours are
    ``adj[j + 1]`` (``adj[0]`` is 0)."""
    m, cands = inst.modulus, inst.candidates
    diffs = conflict_diffs(inst.shape, m)
    i0 = cands[0]
    t = gcd(m, *diffs, *(i - i0 for i in cands))
    n = m // t
    pattern = sum(1 << d // t for d in diffs if d)
    mask = sum(1 << (i - i0) // t for i in cands)
    adj = [0] * (n + 1)
    for i in cands:
        j = (i - i0) // t
        adj[j + 1] = (pattern << j | pattern >> n - j) & mask  # rotated by j
    return i0, t, mask, adj


def _greedy_mask(mask: int, adj: list[int]) -> tuple[int, int]:
    count = 0
    chosen = 0
    while mask:
        b = mask & -mask
        mask &= ~(b | adj[b.bit_length()])
        chosen |= b
        count += 1
    return count, chosen


# The cover is examined up to this many cliques over the limit, so a proof
# takes at most this many disjoint sets.  The p = 491 solve, full table (by
# the difference ladder) / zero entry at (1, 292), best of 9 interleaved
# runs on a 2-vCPU x86-64 host with CPython 3.11 (1 is plain unit
# propagation):
#   cap 1: 1,512 / 11,615 nodes, 93 / 776 ms
#   cap 2:   626 /  4,231 nodes, 44 / 313 ms
#   cap 3:   386 /  3,179 nodes, 34 / 289 ms
#   cap 4:   356 /  3,069 nodes, 30 / 308 ms
#   cap 8:   356 /  3,069 nodes, 32 / 296 ms
_CAP = 3


def _cover_bound(mask: int, adj: list[int], limit: int) -> bool:
    """Whether alpha(mask) <= limit is proved: by a greedy clique cover of
    s <= limit cliques, or, when limit < s <= limit + _CAP, by s - limit
    disjoint sets of its cliques that no packing meets in full, each found
    by unit propagation (module docstring)."""
    live = mask  # the vertices of the cliques outside every set found
    cliques = []
    singles = []
    owner = [0] * len(adj)  # the clique of each vertex, by bit length
    q = 0
    while mask:
        if q == limit + _CAP:
            return False
        before = mask
        b = mask & -mask
        mask ^= b
        i = b.bit_length()
        owner[i] = q
        cand = adj[i] & mask
        # cand stays inside mask: wb leaves both, and wb is not in adj[wb]
        while cand:
            wb = cand & -cand
            mask ^= wb
            i = wb.bit_length()
            owner[i] = q
            cand &= adj[i]
        clique = before ^ mask  # the vertices the loop took out of mask
        if clique == b:
            singles.append(q)
        cliques.append(clique)
        q += 1
    sets = q - limit  # the disjoint sets still to find
    while sets > 0:
        # force the vertex of each live singleton, then of each live clique
        # left with one vertex outside the excluded set, in turn; the log
        # holds each forcing as (clique, its other vertices, the live
        # vertices it excluded first)
        forced = [q for q in singles if cliques[q] & live]
        excluded = 0
        log = []
        empty = -1
        for q in forced:
            clique = cliques[q]
            vb = clique & ~excluded
            new = adj[vb.bit_length()] & live & ~excluded
            excluded |= new
            log.append((q, clique ^ vb, new))
            while new:
                r = owner[(new & -new).bit_length()]
                new &= ~cliques[r]
                left = cliques[r] & ~excluded
                if not left:
                    empty = r
                    break
                if not left & (left - 1):
                    forced.append(r)
            if empty >= 0:
                break
        else:
            return False
        sets -= 1
        if sets:
            # mark the set dead: the emptied clique and, back through the
            # log, each clique whose forced vertex first excluded a vertex
            # still to explain
            need = cliques[empty]
            live &= ~need
            for q, others, new in reversed(log):
                if new & need:
                    live &= ~cliques[q]
                    need = need & ~new | others
    return True


def _neighbours(adj: list[int], mask: int) -> int:
    """The union of the neighbourhoods of the vertices of ``mask``."""
    out = 0
    while mask:
        b = mask & -mask
        mask ^= b
        out |= adj[b.bit_length()]
    return out


def _reach(adj: list[int], mask: int, seed: int, goal: int) -> int:
    """The vertices a BFS inside ``mask`` reaches from ``seed``, stopped
    once they include ``goal``."""
    seen = frontier = seed
    while frontier and goal & ~seen:
        frontier = _neighbours(adj, frontier) & mask & ~seen
        seen |= frontier
    return seen


def _still_connected(adj: list[int], mask: int, removed: int) -> bool:
    """Whether the nonempty ``mask`` is connected, given that ``mask |
    removed`` is (module docstring): whether a BFS inside ``mask`` from the
    lowest vertex of Y = N(removed) & mask reaches all of Y."""
    ys = _neighbours(adj, removed) & mask
    return not ys & ~_reach(adj, mask, ys & -ys, ys)


def _solve_mask(adj: list[int], mask: int, floor: int = 0) -> tuple[int, int, int]:
    """Exact (count, chosen_mask, nodes) for the induced subgraph on ``mask``,
    or (floor, 0, nodes) when no packing has more than ``floor`` vertices.
    ``nodes`` counts one per include branch, exclude branch and component.

    One loop runs the search over a stack of frames (mask, dirty, conn,
    cur_mask), seeded with the whole mask; a frame's count is
    cur_mask.bit_count().  A branching goes on into its include side and
    pushes its exclude side.  A split pushes a join frame (dirty None) for
    the rest of the mask under the component's root; the join adds the
    component's incumbent, the top of ``bests``, to the rest.
    """
    # no vertex can exceed the maximum degree of the whole graph
    max_deg = max(a.bit_count() for a in adj)
    greedy = _greedy_mask(mask, adj)
    # then one per open component
    bests = [greedy if greedy[0] > floor else (floor, 0)]
    stack = [(mask, mask, 0, 0)]
    nodes = 0
    while stack:
        # invariant of a frame: no vertex of mask outside dirty is simplicial,
        # and conn is a connected set containing mask, or 0 if unknown
        mask, dirty, conn, cur_mask = stack.pop()
        if dirty is None:
            cur_mask |= bests.pop()[1]
            dirty = 0
        else:
            nodes += 1
        while True:
            # take simplicial vertices; always part of some optimum.  Passes
            # in index order over the vertices whose neighbourhood shrank;
            # one touched above the scan position is seen in the same pass.
            while dirty:
                rem = dirty & mask
                dirty = 0
                while rem:
                    b = rem & -rem
                    rem ^= b
                    nb = adj[b.bit_length()] & mask
                    w = nb
                    while w:  # is nb a clique?
                        wb = w & -w
                        if nb & ~adj[wb.bit_length()] != wb:
                            break
                        w ^= wb
                    else:
                        cur_mask |= b
                        mask &= ~(b | nb)
                        touched = _neighbours(adj, nb) & mask
                        dirty |= touched
                        rem = (rem | touched & -(b << 1)) & mask
            best_n = bests[-1][0]
            if mask == 0:
                if cur_mask.bit_count() > best_n:
                    bests[-1] = cur_mask.bit_count(), cur_mask
                break
            if _cover_bound(mask, adj, best_n - cur_mask.bit_count()):
                break
            if conn and _still_connected(adj, mask, conn & ~mask):
                comp = mask
            else:  # the connected component of the lowest vertex
                comp = _reach(adj, mask, mask & -mask, mask)
            if comp != mask:
                # neighbourhoods inside and outside the component are unchanged
                stack.append((mask ^ comp, None, 0, cur_mask))
                stack.append((comp, 0, comp, 0))
                bests.append(_greedy_mask(comp, adj))
                break
            # branch on the first vertex of maximum degree: push the exclude
            # side, go on into the include side; both lie in the connected mask
            rem = mask
            vb, deg = 0, -1
            while rem:
                lb = rem & -rem
                rem ^= lb
                d = (adj[lb.bit_length()] & mask).bit_count()
                if d > deg:
                    deg, vb = d, lb
                    if d == max_deg:
                        break
            nbrs = adj[vb.bit_length()] & mask
            stack.append((mask ^ vb, nbrs, mask, cur_mask))
            sub = mask & ~(vb | nbrs)
            mask, dirty, conn = sub, _neighbours(adj, nbrs) & sub, mask
            cur_mask |= vb
            nodes += 1
    return *bests[0], nodes


def _ladder(adj: list[int]) -> tuple[int, int, int]:
    """Exact (count, chosen_mask, nodes) for a full circulant: one step per
    non-conflict difference d, in ascending order, solving for the packings
    whose closest pair is {0, d} (module docstring)."""
    n = len(adj) - 1
    full = (1 << n) - 1
    pattern = adj[1]
    best, chosen = _greedy_mask(full, adj)
    nodes = 0
    for d in range(1, n // 2 + 1):
        if pattern >> d & 1:
            continue
        if _cover_bound(full, adj, best):
            break
        pair = 1 | 1 << d
        count, rest, step_nodes = _solve_mask(
            adj, full & ~(pair | adj[1] | adj[d + 1]), best - 2)
        nodes += step_nodes
        if count > best - 2:
            best, chosen = count + 2, pair | rest
        pattern |= 1 << d | 1 << n - d
        adj = [0] + [(pattern << j | pattern >> n - j) & full for j in range(n)]
    return best, chosen, nodes


def max_disjoint_translates_exact(inst: PackingInstance) -> PackingResult:
    """Maximum number of pairwise disjoint translates, with witness.

    Deterministic: identical inputs explore the identical search tree.  The
    witness is the fixed search order's first optimum, reported sorted;
    ``nodes`` counts the search nodes.
    """
    if not inst.candidates:
        return PackingResult(0, ())
    i0, t, mask, adj = _circulant(inst)
    if mask != (1 << len(adj) - 1) - 1:
        _, chosen, nodes = _solve_mask(adj, mask)
    elif adj[1].bit_count() > 2:
        _, chosen, nodes = _ladder(adj)
    else:  # a rotation puts a maximum packing on vertex 0
        _, chosen, nodes = _solve_mask(adj, mask & ~(1 | adj[1]))
        chosen |= 1
    offsets = [i0 + t * j for j in range(len(adj) - 1) if chosen >> j & 1]
    return _finish(inst, offsets, "exact", nodes)


def brute_force_packing(inst: PackingInstance) -> PackingResult:
    """Exhaustive reference over all subsets of I, for |I| <= 20.

    Conflicts come from direct translate intersection, not from the
    difference-set reduction, so this is a genuinely independent oracle.
    The witness is the lexicographically least maximum subset: a depth-first
    search over the sorted candidates, inclusion first, meets the subsets in
    that order, and only a strictly larger one replaces the best.  A branch
    is cut once its size plus the candidates left cannot beat the best.
    """
    verts = inst.candidates
    n = len(verts)
    if n > BRUTE_FORCE_LIMIT:
        raise ValueError(f"brute force refused for |I| = {n} > {BRUTE_FORCE_LIMIT}")
    translates = [{(i + x) % inst.modulus for x in inst.shape} for i in verts]
    best: list[int] = []

    def grow(k: int, subset: list[int], covered: set[int]) -> None:
        if len(subset) > len(best):
            best[:] = subset
        for j in range(k, n):
            if len(subset) + n - j <= len(best):
                return
            if translates[j].isdisjoint(covered):
                grow(j + 1, subset + [verts[j]], covered | translates[j])

    grow(0, [], set())
    return _finish(inst, best, "brute")
