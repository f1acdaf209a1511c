"""Exact sparing-number computation via the independent-set reduction.

A weak IASI exists for a choice of non-singleton-labeled ("non-mono")
vertices iff that set is independent: every edge must keep at least one
mono-indexed end.  An independent set S covers exactly sum(deg(v), v in S)
edges, so the number of mono edges forced by S is |E| - that sum, and the
sparing number is |E| minus a degree-weighted maximum independent set.

Two exact methods are provided and must agree (value and witness):

* ``sparing_bruteforce`` enumerates every independent set, in lexicographic
  order of the sorted vertex sequence, under the same time budget as
  ``sparing_exact`` and no vertex limit, and keeps the first optimum - the
  lexicographically smallest optimal witness.  It walks the sets of the
  vertices below its top ones, the top ``_TOP_BITS`` vertices or all of
  them, in one loop, ``_walk_sets``, and accounts for each block of sets
  that extends one by top vertices alone with one entry of a table over
  the top vertices' subsets (``_TopTable``, filled on demand), so a graph
  of at most ``_TOP_BITS`` vertices is a single lookup.  It cross-checks
  the theorem audit's rows.

* ``sparing_exact`` answers a bipartite graph without a search (value 0,
  witness read off the 2-colouring ``is_bipartite`` returns) and solves any
  other graph by branch-and-bound: it takes without branching every
  simplicial vertex (its neighbours form a clique) that no neighbour
  outweighs (Lamm et al. 2019), branches include/exclude on a
  highest-degree vertex of each connected component, and memoizes each
  component's optimum with its lexicographically smallest optimal set, so
  the witness comes out of the same search.  The search is fail-soft: a
  branch that cannot beat the best value found so far only needs an upper
  bound, and a greedy clique cover that splits each vertex's weight over
  the cliques holding it (Warren & Hicks 2006) prunes it when the cover
  fits below that value.  This is the only route that can hit the
  interpreter's recursion limit: a deeper search (the square of a path of a
  few thousand vertices) raises ResourceLimitError.

``_independent_sets`` is brute force's whole walk as a generator, the
reference enumeration that the tests and ``odd_cycle_parity_check`` read.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Iterator, Mapping

from .graphs import Graph, cycle_graph, is_bipartite

DEFAULT_TIMEOUT_SECS = 30.0
# brute force looks up the sets of its top vertices, at most this many, in
# one table filled on demand: at most 2**14 = 16,384 entries
_TOP_BITS = 14
# odd_cycle_parity_check walks the reference enumeration, a pattern per set
_PARITY_MAX_N = 24

METHOD_BRUTEFORCE = "bruteforce"
METHOD_BRANCH_AND_BOUND = "branch_and_bound"
METHOD_BIPARTITE_SHORTCUT = "bipartite_shortcut"


class ResourceLimitError(RuntimeError):
    """A solver gave up because a configured limit was hit."""


class SolverTimeout(ResourceLimitError, TimeoutError):
    """An exact route or the Sidon construction exceeded its time budget."""


class InvalidPatternError(ValueError):
    """The designated non-mono vertices are not an independent set."""


@dataclass(frozen=True)
class MonoPattern:
    """The set of vertices designated to carry non-singleton labels."""

    non_mono: frozenset[int]

    def __post_init__(self) -> None:
        object.__setattr__(self, "non_mono", frozenset(self.non_mono))

    def sorted_ids(self) -> tuple[int, ...]:
        return tuple(sorted(self.non_mono))

    def to_json_dict(self) -> dict:
        return {"non_mono": list(self.sorted_ids())}

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "MonoPattern":
        if not isinstance(data, Mapping) or "non_mono" not in data:
            raise ValueError('pattern JSON must be an object with "non_mono"')
        ids = data["non_mono"]
        if not isinstance(ids, list) or any(type(v) is not int for v in ids):
            raise ValueError('"non_mono" must be an array of vertex ids')
        return cls(frozenset(ids))


@dataclass(frozen=True)
class SparingResult:
    """Optimal mono-edge count, its witness pattern, and diagnostics."""

    value: int
    witness: MonoPattern
    method: str
    explored: int
    elapsed_secs: float

    def to_json_dict(self) -> dict:
        return {**vars(self), "witness": self.witness.to_json_dict()}


def pattern_is_valid(g: Graph, p: MonoPattern) -> bool:
    """True iff no edge has both endpoints designated non-mono."""
    for v in p.non_mono:
        if not 0 <= v < g.vertex_count:
            raise ValueError(f"vertex {v} out of range")
    return not any(u in p.non_mono and v in p.non_mono for u, v in g.edges)


def pattern_mono_edges(g: Graph, p: MonoPattern) -> int:
    """Number of edges with both endpoints mono under a valid pattern."""
    if not pattern_is_valid(g, p):
        raise InvalidPatternError(
            f"non-mono set {sorted(p.non_mono)} is not independent"
        )
    return sum(
        1 for u, v in g.edges if u not in p.non_mono and v not in p.non_mono
    )


# ---------------------------------------------------------------------------
# Enumeration: every independent set (brute force)
# ---------------------------------------------------------------------------

def _independent_sets(adj: list[int], weights: list[int]) -> Iterator[tuple[int, int]]:
    """Yield (members_mask, covered_weight) for every independent set.

    Emission order is lexicographic on the sorted vertex sequence: the empty
    set first, then every set starting with 0, and so on.  covered_weight is
    the sum of member weights, which for weights = degrees is exactly the
    number of edges covered by the set.

    A popped frame (rest, set, weight) grows the set in place by the lowest
    vertex of rest, then by that vertex's non-neighbours, and stacks each
    exclude branch (the same set, rest less that vertex) only if non-empty.
    """
    yield 0, 0
    stack = [((1 << len(adj)) - 1, 0, 0)]
    while stack:
        rest, mask, weight = stack.pop()
        while rest:
            bit = rest & -rest
            rest ^= bit
            if rest:
                stack.append((rest, mask, weight))
            v = bit.bit_length() - 1
            mask, weight = mask | bit, weight + weights[v]
            yield mask, weight
            rest &= ~adj[v]


class _TopTable(dict):
    """For each set m of top vertices, keyed by its mask: (the count of
    non-empty independent subsets of m, the highest weight of an independent
    subset, the first one in walk order that reaches it).

    ``step[bit.bit_length()]`` holds the weight of that bit's vertex and the
    mask that drops its neighbours, as the walk reads it.  With b the lowest
    vertex of m, the subsets without b are those of m - b, and those with b
    add b to a subset of m - N[b].  An entry is filled on its first lookup
    from those two entries, so a table holds only the entries its walk
    reads and what they are built from, and a fill recurses once per vertex
    of m, no deeper than the ``_TOP_BITS`` top vertices.  The sets holding b
    come first in walk order, so on a tie they win, a zero-weight b too; a
    highest weight of 0 keeps the empty set.
    """

    def __init__(self, step: list[tuple[int, int] | None]):
        super().__init__({0: (0, 0, 0)})
        self.step = step

    def __missing__(self, m: int) -> tuple[int, int, int]:
        bit = m & -m
        weight, keep = self.step[bit.bit_length()]
        without = m ^ bit
        sets, gain, first = self[without]
        inner_sets, inner_gain, inner_first = self[without & keep]
        inner_gain += weight
        if inner_gain > 0 and inner_gain >= gain:
            gain, first = inner_gain, inner_first | bit
        entry = self[m] = (1 + sets + inner_sets, gain, first)
        return entry


def _walk_sets(
    stack: list[tuple[int, int, int]],
    table: _TopTable,
    low: int,
    best_mask: int,
    best_weight: int,
    explored: int,
) -> tuple[int, int, int]:
    """Walk on from the frames on ``stack`` until the count passes the next
    multiple of 4,096 sets.

    The walk of ``_independent_sets`` in one loop with no call per set, over
    the vertices of the mask ``low``, stepping by ``table.step``.  Once a
    frame has only top vertices left to add, the rest of its walk is the
    contiguous block of sets that extend its mask by those vertices alone,
    and ``table`` (see ``_TopTable``) stands for it: its count, and its
    first heaviest set where that beats the best.  Keeps the first set of
    the highest weight (strict improvement) and counts every set.  Returns
    (best mask, best weight, sets counted) and leaves the frames still to
    walk on ``stack``.

    The caller reads the clock between calls.  Returning every 4,096 sets
    instead of running the loop inline in ``sparing_bruteforce`` makes a
    single cold call faster: CPython 3.11 specializes a function's bytecode
    only after several entries, so a loop that is entered once stays
    unspecialized.  One call on the 55-vertex K5 edge-corona K5 in a fresh
    process took about 0.31 s chunked against 0.50 s inline; after about
    ten calls the two ran alike (CPU time, Python 3.11.7, 2-core Xeon).
    """
    step = table.step
    stop = (explored | 4095) + 1
    while stack:
        rest, mask, weight = stack.pop()
        while rest & low:
            bit = rest & -rest
            rest ^= bit
            if rest:
                stack.append((rest, mask, weight))
            covered, keep = step[bit.bit_length()]
            mask |= bit
            weight += covered
            explored += 1
            if weight > best_weight:
                best_mask, best_weight = mask, weight
            rest &= keep
            if explored == stop:
                if rest:
                    stack.append((rest, mask, weight))
                return best_mask, best_weight, explored
        sets, gain, first = table[rest]
        explored += sets
        if weight + gain > best_weight:
            best_mask, best_weight = mask | first, weight + gain
        if explored >= stop:
            return best_mask, best_weight, explored
    return best_mask, best_weight, explored


def _mask_to_ids(mask: int) -> tuple[int, ...]:
    ids = []
    while mask:
        bit = mask & -mask
        mask ^= bit
        ids.append(bit.bit_length() - 1)
    return tuple(ids)


def _lex_min_witness(chosen: int, degrees: list[int]) -> MonoPattern:
    """The lex-min optimal witness from the lex-min optimum ``chosen`` of the
    covering vertices.

    Isolated vertices weigh nothing: those below the highest chosen vertex
    make the witness lexicographically smaller, later ones only lengthen it.
    """
    return MonoPattern(frozenset(
        v for v in range(chosen.bit_length()) if chosen >> v & 1 or not degrees[v]
    ))


def _deadline(timeout_secs: float | None) -> float | None:
    """The clock reading at which a budget of ``timeout_secs`` runs out."""
    if timeout_secs is not None and not timeout_secs >= 0:
        # no clock reading ever passes a NaN deadline; a negative one has passed
        raise ValueError(f"time budget must be non-negative seconds, got {timeout_secs}")
    return None if timeout_secs is None else time.monotonic() + timeout_secs


def sparing_bruteforce(
    g: Graph, timeout_secs: float | None = DEFAULT_TIMEOUT_SECS
) -> SparingResult:
    """Defining minimization over all valid patterns.

    Walks the independent sets in the order ``_independent_sets`` yields
    them and keeps the lexicographically smallest optimal non-mono set
    (strict improvement over the lex-ordered walk); ``explored`` counts
    every set once, the empty set included.  The walk, ``_walk_sets``,
    steps through the sets of the vertices below the top ones, the top
    ``_TOP_BITS`` vertices or all of them, and looks up each block of sets
    that extends one by top vertices alone in one table per call, filled on
    demand: no more than 2**_TOP_BITS = 16,384 entries in all, so no more
    than that between two clock reads either, and a graph of at most
    ``_TOP_BITS`` vertices is a single lookup.  No vertex count is
    refused: the budget is the bound, as on the exact route.  While sets
    remain, reads the clock each time the count passes the next multiple of
    4,096 and raises SolverTimeout, with the count reached, once
    ``timeout_secs`` have passed; ``None`` walks to the end.
    """
    start = time.monotonic()
    deadline = _deadline(timeout_secs)
    degrees, adj = g.degrees(), g.adjacency_masks()
    # indexed by bit_length: a dict keyed by 1 << v crowds the high bits,
    # whose vertices add most sets, into one hash slot
    table = _TopTable([None] + [(d, ~a) for d, a in zip(degrees, adj)])
    low = (1 << max(g.vertex_count - _TOP_BITS, 0)) - 1
    stack = [((1 << g.vertex_count) - 1, 0, 0)]
    best_mask = best_weight = 0
    explored = 1  # the empty set
    while stack:
        best_mask, best_weight, explored = _walk_sets(
            stack, table, low, best_mask, best_weight, explored
        )
        if stack and deadline is not None and time.monotonic() > deadline:
            raise SolverTimeout(f"enumeration exceeded its time budget after {explored} sets")
    return SparingResult(
        value=g.edge_count - best_weight,
        witness=MonoPattern(frozenset(_mask_to_ids(best_mask))),
        method=METHOD_BRUTEFORCE,
        explored=explored,
        elapsed_secs=time.monotonic() - start,
    )


# ---------------------------------------------------------------------------
# Exact solver: branch and bound with memoization
# ---------------------------------------------------------------------------

class _MaxWeightEngine:
    """Maximum-weight independent set over bitmask states, with its witness.

    Takes every simplicial vertex that no neighbour outweighs without
    branching (``_peel``), bounds the rest by a greedy weight-splitting
    clique cover (``_cover``), splits it into connected components (their
    optima add) and branches include/exclude on a component's
    highest-degree vertex, reading the clock at each branching node;
    ``_solve_max_weight`` reads it once before the search, so a spent budget
    never gets an answer from the peel alone.  ``adj``, ``weights`` and
    ``heavier`` are indexed by ``bit.bit_length()``; ``heavier`` masks the
    neighbours that outweigh a vertex, an as heavy lower one counting as
    heavier (the lex-min tie-break).  The search is fail-soft (see
    ``solve``) and keeps one memo: ``memo`` maps each connected mask
    branched to an exact end to its optimum and lexicographically smallest
    optimal set, stored once after its branching node, so it never holds
    more entries than ``explored``.  Every searched vertex must have
    positive weight, which the tie-break relies on.  Raises RecursionError
    when the search is deeper than the interpreter allows.
    """

    def __init__(self, g: Graph, weights: list[int], deadline: float | None):
        self.adj = [0] + g.adjacency_masks()
        self.weights = [0] + weights
        # on each edge u < v one end outweighs the other: the heavier, u on a tie
        heavier = [0] * (g.vertex_count + 1)
        for u, v in g.edges:
            if weights[u] >= weights[v]:
                heavier[v + 1] |= 1 << u
            else:
                heavier[u + 1] |= 1 << v
        self.heavier = heavier
        self.deadline = deadline
        self.memo: dict[int, tuple[int, int]] = {}
        self.explored = 0

    def progress(self) -> str:
        return f"after {self.explored} nodes with {len(self.memo)} memoized states"

    def solve(self, avail: int, alpha: int = -1, touched: int = -1) -> tuple[int, int | None]:
        """(value, members) for the maximum weight inside ``avail``.

        Fail-soft: a members mask that is not None comes with the exact
        optimum and is its lex-min optimal set; a None comes with an upper
        bound, optimum <= value <= ``alpha``.  The result is exact whenever
        the optimum exceeds ``alpha``, so ``alpha = -1`` always is.

        The forced vertices (see ``_peel``) are taken first; only those of
        ``touched`` can be forced on entry, since a vertex's status changes
        only when one of its neighbours leaves.  Unless what is left is a
        memoized component, each loop step fails low, before any component
        search, if its cover fits the room ``alpha`` leaves beside the
        components already solved (the cover is additive over components).
        Else one component search takes the lowest component and its pivot;
        unless memoized, the component is branched include/exclude on its
        pivot in this same frame, and the rest's cover, which bounds what
        the rest adds, is the next step's cover (with less room there, one
        stopped early still does not fit).  Exclude is searched with a
        cut-off just below an exact include, so a tie comes back exact for
        the lowest-differing-vertex rule.  So every branching level costs
        one stack frame.  The lex-min optima of disjoint components unite
        into the lex-min optimum of their union, so only connected masks are
        memoized; one that fails low is not, and is searched again if met
        again.
        """
        adj, weights, memo = self.adj, self.weights, self.memo
        avail, total, members = self._peel(avail, touched & avail)
        cover = None  # of avail, when the step before left it
        while avail:
            component = avail
            part = memo.get(avail)
            if part is None:
                room = alpha - total
                if room >= 0:
                    if cover is None:
                        cover = self._cover(avail, room)
                    if cover <= room:
                        return total + cover, None
                component, pivot = self._component(avail)
                if component != avail:
                    part = memo.get(component)
            cover = None
            if part is None:
                rest = 0
                if room >= 0 and component != avail:
                    # what the rest adds is bounded by its cover; one stopped
                    # early leaves the component no room
                    cover = rest = self._cover(avail ^ component, room)
                    room -= rest
                self.explored += 1
                if self.deadline is not None and time.monotonic() > self.deadline:
                    raise SolverTimeout(f"solver exceeded its time budget {self.progress()}")
                weight = weights[pivot.bit_length()]
                neighbours = near = adj[pivot.bit_length()] & component
                ring = 0  # only the neighbours of removed vertices can become forced
                while near:
                    bit = near & -near
                    near ^= bit
                    ring |= adj[bit.bit_length()]
                value, inside = self.solve(component & ~(neighbours | pivot), room - weight, ring)
                if inside is None:
                    include = (weight + value, None)
                    exclude = self.solve(component ^ pivot, room, neighbours)
                else:
                    include = (weight + value, inside | pivot)
                    exclude = self.solve(component ^ pivot, max(room, include[0] - 1), neighbours)
                if include[0] != exclude[0]:
                    part = max(include, exclude)
                elif include[1] is None or exclude[1] is None:
                    part = (include[0], None)
                else:
                    # equal positive-weight optima never contain one another:
                    # the lex-min one holds the lowest vertex where they differ
                    differ = include[1] ^ exclude[1]
                    part = include if include[1] & differ & -differ else exclude
                if part[1] is None:
                    return total + part[0] + rest, None
                memo[component] = part
            total += part[0]
            members |= part[1]
            avail ^= component
        return total, members

    def _peel(self, avail: int, touched: int) -> tuple[int, int, int]:
        """(what is left of ``avail``, weight taken, members taken).

        Takes every forced vertex v: a simplicial one, whose neighbours in
        ``avail`` form a clique, where each such neighbour u has w(u) < w(v),
        or w(u) = w(v) and u > v (no neighbour left, or a single one, are the
        smallest cases).  Such a v is in the lex-min optimum: an optimum
        holds at most one vertex of the clique N[v], swapping that vertex
        for v never lowers the weight, and on a tie the swapped set holds
        the lower differing vertex v.  The weights are tested first, in one
        mask test against ``heavier``.  Taking v removes N[v], and only the
        available neighbours of the removed ones are checked again, so a
        path or a union of cliques peels in O(size) mask operations.
        ``touched`` must hold every vertex that may be forced.
        """
        adj, heavier = self.adj, self.heavier
        total = members = 0
        while touched:
            bit = touched & -touched
            touched ^= bit
            v = bit.bit_length()
            near = left = adj[v] & avail
            if near & heavier[v]:
                continue
            while left:
                u_bit = left & -left
                if near & ~adj[u_bit.bit_length()] != u_bit:
                    break  # u misses another neighbour: not a clique
                left ^= u_bit
            if left:
                continue
            total += self.weights[v]
            members |= bit
            avail ^= near | bit
            while near:
                u_bit = near & -near
                near ^= u_bit
                touched |= adj[u_bit.bit_length()]
            touched &= avail
        return avail, total, members

    def _cover(self, mask: int, limit: float = math.inf) -> int:
        """Weight of a greedy weight-splitting clique cover of ``mask``: an
        upper bound (Warren & Hicks 2006).

        Opens a clique at the lowest vertex v left in the mask and grows it
        by the lowest common neighbour.  The clique costs v's residual
        weight, which every member pays off its own: one paid in full
        leaves the mask, a heavier one stays with what is left.  Each
        vertex is paid in full by its cliques, and an independent set meets
        a clique at most once.  With unit weights every member leaves.
        A clique never leaves v's component, so the cover of a mask is the
        sum of its components' covers.  Stops early once the sum exceeds
        ``limit``; that partial sum tells only that the cover does not fit.
        """
        adj = self.adj
        residual = self.weights.copy()
        total = 0
        while mask:
            bit = mask & -mask
            mask ^= bit
            share = residual[bit.bit_length()]
            common = adj[bit.bit_length()] & mask
            while common:
                bit = common & -common
                u = bit.bit_length()
                common &= adj[u]
                left = residual[u] - share
                if left > 0:
                    residual[u] = left
                else:
                    mask ^= bit
            total += share
            if total > limit:
                break
        return total

    def _component(self, avail: int) -> tuple[int, int]:
        """(component, pivot bit) for the lowest available vertex.

        Each BFS layer expands only the vertices it newly reached, so one
        call costs O(size of the component) mask operations.  The same pass
        picks the pivot: the component vertex with the most neighbours in
        ``avail``, smallest id on ties.  A vertex's neighbours in ``avail``
        all lie in its component, so this is also the highest-degree vertex
        of the component on its own.
        """
        adj = self.adj
        component = frontier = avail & -avail
        pivot, pivot_degree = 0, -1
        while frontier:
            reach = 0
            while frontier:
                bit = frontier & -frontier
                frontier ^= bit
                neighbours = adj[bit.bit_length()]
                reach |= neighbours
                d = (neighbours & avail).bit_count()
                if d > pivot_degree or (d == pivot_degree and bit < pivot):
                    pivot, pivot_degree = bit, d
            frontier = reach & avail & ~component
            component |= frontier
        return component, pivot


def _solve_max_weight(
    g: Graph, weights: list[int], deadline: float | None
) -> tuple[int, int, int]:
    """(optimal weight, lex-min optimal members mask, nodes explored).

    Searches only the vertices of positive weight: the rest add nothing,
    and where they belong in a lex-min witness is the caller's choice.
    Reads the clock once before the search: a spent budget raises
    SolverTimeout "after 0 nodes" even where the peel alone would answer.
    """
    engine = _MaxWeightEngine(g, weights, deadline)
    positive = sum(1 << v for v, w in enumerate(weights) if w > 0)
    if deadline is not None and time.monotonic() > deadline:
        raise SolverTimeout(f"solver exceeded its time budget {engine.progress()}")
    try:
        best, members = engine.solve(positive)
    except RecursionError:
        raise ResourceLimitError(
            f"search exceeded the interpreter's recursion limit {engine.progress()}"
        ) from None
    return best, members, engine.explored


def sparing_exact(
    g: Graph, timeout_secs: float | None = DEFAULT_TIMEOUT_SECS
) -> SparingResult:
    """Exact sparing number with the same witness tie-break as brute force.

    A bipartite graph has value 0 and its witness is read off its 2-colouring
    with no search, so ``explored`` is 0 and it never runs out of its budget;
    a NaN or negative ``timeout_secs`` is still rejected with ValueError.  Otherwise
    raises SolverTimeout when the budget runs out, before the search too (so
    a zero budget times out every non-bipartite graph), and
    ResourceLimitError when the search is too deep for the interpreter.
    """
    start = time.monotonic()
    deadline = _deadline(timeout_secs)
    degrees = g.degrees()
    bipartite, colouring = is_bipartite(g)
    if bipartite:
        # colour 0 holds each component's smallest vertex: the lex-min optimum
        chosen = sum(1 << v for v, d in enumerate(degrees) if d and colouring[v] == 0)
        best, explored = g.edge_count, 0
    else:
        best, chosen, explored = _solve_max_weight(g, degrees, deadline)
    return SparingResult(
        value=g.edge_count - best,
        witness=_lex_min_witness(chosen, degrees),
        method=METHOD_BIPARTITE_SHORTCUT if bipartite else METHOD_BRANCH_AND_BOUND,
        explored=explored,
        elapsed_secs=time.monotonic() - start,
    )


def max_independent_set(
    g: Graph, timeout_secs: float | None = DEFAULT_TIMEOUT_SECS
) -> tuple[int, tuple[int, ...]]:
    """Exact independence number with the lex-min witness.

    Every graph goes to the search, so a zero budget always raises
    SolverTimeout, even on a path that the peel would answer alone.
    """
    size, members, _explored = _solve_max_weight(g, [1] * g.vertex_count, _deadline(timeout_secs))
    return size, _mask_to_ids(members)


def min_mono_vertices(
    g: Graph, timeout_secs: float | None = DEFAULT_TIMEOUT_SECS
) -> int:
    """Minimum number of mono-indexed vertices: |V| minus the independence number."""
    size, _witness = max_independent_set(g, timeout_secs)
    return g.vertex_count - size


def odd_cycle_parity_check(n: int) -> bool:
    """Every valid pattern on the n-cycle leaves a mono-edge count == n mod 2.

    Checked by full enumeration of the cycle's independent sets, one
    pattern at a time, for 3 <= n <= 24.
    """
    if not 3 <= n <= _PARITY_MAX_N:
        raise ValueError(f"the parity check takes 3 to {_PARITY_MAX_N} vertices, got {n}")
    g = cycle_graph(n)
    return all(
        pattern_mono_edges(g, MonoPattern(frozenset(_mask_to_ids(mask)))) % 2 == n % 2
        for mask, _weight in _independent_sets(g.adjacency_masks(), [0] * n)
    )
